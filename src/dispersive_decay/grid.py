"""Uniform grids on the line and a trapezoid-rule continuous Fourier transform.

Convention (2pi factors made explicit once and for all):

    fhat(xi) = int f(x) exp(-i xi x) dx
    f(x)     = (1/2pi) int fhat(xi) exp(i x xi) dxi

The forward integral is approximated by the trapezoid rule
h * sum_n f(x_n) exp(-i xi_j x_n), which for the grids used here is a scaled,
phase-shifted DFT; the discrete forward/inverse pair is therefore exactly
invertible (round trip at machine precision), independent of resolution.

L^2 norms are computed with genuine trapezoid endpoint weights over the sample
range, so ||fhat||^2 = 2pi ||f||^2 holds only as far as the samples resolve f;
it is not an algebraic identity of the DFT.

The FFTs are ``scipy.fft``'s (pocketfft, as in numpy.fft), with the centring
shift and the scaling written straight into one output array;
``TestTransformBits`` holds both bit-identical to the numpy.fft + fftshift form.

On glibc the first transform sets the allocator policy of the whole process
(``mallopt``): up to 64 MiB of freed heap stays mapped, and blocks under 32 MiB
come from the heap, not from ``mmap``, so pocketfft's scratch (2 MB at 2^17)
is not handed back and faulted in again on every call. Each thread keeps its
own heap (glibc's arena): pocketfft allocates a second 2 MB block per call
that it never writes, and in one heap shared by the threads that transform at
once, a later call may write where only such blocks had been, faulting 2 MB in.
"""

from __future__ import annotations

import ctypes
import functools
import warnings
from dataclasses import InitVar, dataclass

import numpy as np
import scipy.fft

from .errors import BoundaryDecayWarning, InvalidInputError

# spectral samples at or below this fraction of the peak magnitude count as
# unoccupied: round-off of the transform, not content of the function
_SUPPORT_RTOL = 1e-13

__all__ = [
    "GridSpec",
    "SampledFunction",
    "SpectralFunction",
    "forward_ft",
    "inverse_ft",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid on [-L, L) with its dual frequency grid.

    x_n = -L + n h with h = 2L/N, and xi_j = pi j / L for j = -N/2 .. N/2-1.
    N is restricted to powers of two (>= 16) so that FFTs are cheap and the
    dyadic frequency coverage is unambiguous. The axes x and xi are built once
    per (L, N) and shared, read-only, by every GridSpec with those values.
    """

    half_width: float
    size: int

    def __post_init__(self):
        if not (self.half_width > 0):
            raise InvalidInputError("half_width must be positive")
        if self.size < 16 or self.size & (self.size - 1):
            raise InvalidInputError("size must be a power of two >= 16")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.size

    @property
    def x(self) -> np.ndarray:
        return _axes(self.half_width, self.size)[0]

    @property
    def xi(self) -> np.ndarray:
        return _axes(self.half_width, self.size)[1]

    @property
    def xi_spacing(self) -> float:
        return np.pi / self.half_width

    @property
    def nyquist(self) -> float:
        return np.pi * self.size / (2.0 * self.half_width)

    def _signs(self) -> np.ndarray:
        return _axes(self.half_width, self.size)[2]


@functools.lru_cache(maxsize=8)
def _axes(half_width: float, size: int) -> tuple:
    """(x, xi, signs) of a grid, built once per (half_width, size) and shared read-only.

    signs_j = exp(i xi_j L) = (-1)^j is the phase correction for the x-grid
    offset, applied by every transform.
    """
    n = np.arange(size)
    x = -half_width + n * (2.0 * half_width / size)
    j = np.arange(-size // 2, size // 2)
    xi = np.pi * j / half_width
    signs = np.where(j % 2 == 0, 1.0, -1.0)
    for axis in (x, xi, signs):
        axis.flags.writeable = False
    return x, xi, signs


@dataclass(frozen=True)
class _ReadOnlyValues:
    """Base of the sample classes: ``values`` is complex and read-only, so cached verdicts hold.

    ``values`` is copied unless ``_adopt`` is set, which the package does only
    for an array it has just formed and hands over.
    """

    grid: GridSpec
    values: np.ndarray
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        arr = np.asarray(self.values, dtype=np.complex128)
        n = self.grid.size
        if arr.shape != (n,):
            raise InvalidInputError(f"values must have shape ({n},), got {arr.shape}")
        if not _adopt:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @functools.cached_property
    def _finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


class SampledFunction(_ReadOnlyValues):
    """Complex samples of a function on the physical side of a GridSpec."""

    @functools.cached_property
    def spectrum(self) -> "SpectralFunction":
        """The raw transform of the samples, formed once per sample.

        ``values`` is read-only, so it cannot go stale. Unlike ``forward_ft``
        it neither checks the input nor warns.
        """
        return SpectralFunction(self.grid, _forward_raw(self.grid, self.values), _adopt=True)


class SpectralFunction(_ReadOnlyValues):
    """Complex samples of a Fourier transform on the dual grid."""

    @functools.cached_property
    def _peak(self) -> float:
        """max |fhat|, formed once per spectrum."""
        return float(np.max(np.abs(self.values)))

    @functools.cached_property
    def occupied(self) -> np.ndarray:
        """Read-only mask of the nodes where |fhat| > 1e-13 times its peak.

        The node xi = 0 is included here; ``occupied_band`` leaves it out.
        """
        mag = np.abs(self.values)
        mask = mag > _SUPPORT_RTOL * float(np.max(mag))
        mask.flags.writeable = False
        return mask

    def occupied_band(self, side: int = 0):
        """(min |xi|, max |xi|) of the occupied nodes with xi != 0, or None if there are none.

        ``side`` restricts the nodes to xi > 0 (+1) or xi < 0 (-1); 0 takes both.
        Each side is worked out once per spectrum.
        """
        bands = self.__dict__.setdefault("_bands", {})
        if side not in bands:
            xi = self.grid.xi
            sel = self.occupied & ((xi != 0.0) if side == 0 else (side * xi > 0))
            a = np.abs(xi[sel])
            bands[side] = (float(np.min(a)), float(np.max(a))) if a.size else None
        return bands[side]


@functools.lru_cache(maxsize=8)
def trapezoid_weights(n: int, spacing: float) -> np.ndarray:
    """Trapezoid-rule weights of n nodes, built once per (n, spacing) and shared read-only."""
    w = np.full(n, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


def _trapezoid_sum(terms: np.ndarray, w: np.ndarray, p):
    """np.sum(w * terms ** p) bit for bit, the sum of every L^p norm; overwrites ``terms``."""
    terms **= p
    terms *= w
    return np.sum(terms)


def _l2(values: np.ndarray, spacing: float, scratch: np.ndarray | None = None) -> float:
    """Trapezoid L^2 norm of samples ``spacing`` apart; |values| goes to ``scratch``, if given."""
    w = trapezoid_weights(values.size, spacing)
    return float(np.sqrt(_trapezoid_sum(np.abs(values, out=scratch), w, 2)))


def l2_norm_physical(f: SampledFunction) -> float:
    return _l2(f.values, f.grid.spacing)


def _check_finite(f, who):
    if not f._finite:
        raise InvalidInputError(f"{who}: input contains non-finite values")


@functools.cache
def _keep_heap() -> None:
    """Set the allocator policy of the module docstring, once per process; off glibc, nothing."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, _ = libc.mallopt, libc.gnu_get_libc_version  # the parameters are glibc's
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: up to 64 MiB of freed heap stays mapped
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks under 32 MiB come from the heap


def _forward_raw(grid: GridSpec, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """h * sum_n f(x_n) exp(-i xi_j x_n) for all j, via FFT; with ``out``, it may overwrite ``values``.

    Without ``out``, the result is shifted in the FFT's own output array, which
    holds one half aside while its halves swap.
    """
    _keep_heap()
    F = scipy.fft.fft(np.asarray(values, dtype=np.complex128), overwrite_x=out is not None)
    h, m = grid.spacing, grid.size // 2
    if out is None:
        out, lower = F, F[:m].copy()
    else:
        lower = F[:m]
    # (h signs) * fftshift(F), written half by half; signs_j = (-1)^j and m is
    # even, so each half of the signs runs +1, -1, ... and needs no array
    for dst, src in ((out[:m], F[m:]), (out[m:], lower)):
        np.multiply(src[::2], h, out=dst[::2])
        np.multiply(src[1::2], -h, out=dst[1::2])
    return out


def _inverse_raw(grid: GridSpec, hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of _forward_raw (equals the Riemann sum of the inversion integral).

    ``hat`` is complex. ``out``, a complex N-array for the FFT to run in, may be ``hat``
    itself, which then holds one half aside while its halves swap. For h <= 1 the scaling
    by (1/h, -0) keeps the division's signed zeros (``TestTransformBits``).
    """
    _keep_heap()
    signs, m = grid._signs(), grid.size // 2
    # ifftshift(hat signs) / h in place
    F = np.empty(grid.size, dtype=np.complex128) if out is None else out
    if out is hat:
        upper = hat[m:] * signs[m:]
        np.multiply(hat[:m], signs[:m], out=F[m:])
        F[:m] = upper
        del upper  # freed before the FFT's own scratch is taken
    else:
        np.multiply(hat[m:], signs[m:], out=F[:m])
        np.multiply(hat[:m], signs[:m], out=F[m:])
    h = grid.spacing
    if h <= 1.0:
        F *= complex(1.0 / h, -0.0)
    else:
        F /= h
    return scipy.fft.ifft(F, overwrite_x=True)


def _edge_exceeds(mag: np.ndarray, rtol: float) -> bool:
    """True when ``mag`` (magnitudes) in the outer 5% at either end exceeds rtol times its peak."""
    peak = float(np.max(mag))
    edge = max(1, int(0.05 * mag.size))
    boundary = max(float(np.max(mag[:edge])), float(np.max(mag[-edge:])))
    return boundary > rtol * peak


def forward_ft(f: SampledFunction) -> SpectralFunction:
    """fhat(xi) = int f(x) exp(-i xi x) dx on the dual grid: ``f.spectrum``, checked first."""
    _check_finite(f, "forward_ft")
    if _edge_exceeds(np.abs(f.values), 1e-14):
        warnings.warn(
            "input does not decay below 1e-14 (relative) in the outer 5% of "
            "the grid; the transform is contaminated by periodization",
            BoundaryDecayWarning,
            stacklevel=2,
        )
    return f.spectrum


def inverse_ft(F: SpectralFunction) -> SampledFunction:
    """Inverse transform under the fixed convention (factor 1/2pi absorbed exactly)."""
    _check_finite(F, "inverse_ft")
    return SampledFunction(F.grid, _inverse_raw(F.grid, F.values), _adopt=True)
