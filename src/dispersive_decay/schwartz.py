"""Seeded families of Schwartz-class test data.

Samples are linear combinations of at most four modulated, translated
Gaussians: dense enough to probe the empirical constants of the ratio suites,
analytic enough that closed-form oracles exist.  Every sample is a
deterministic function of (seed, index).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError
from .grid import GridSpec, SampledFunction, _forward_raw, _inverse_raw
from .littlewood_paley import _step

__all__ = ["schwartz_sample", "band_window", "generate_schwartz"]

_MAX_TERMS = 4


def schwartz_params(seed: int, index: int):
    """Draw the Gaussian-mixture parameters for sample (seed, index)."""
    rng = np.random.default_rng([int(seed), int(index)])
    m = int(rng.integers(1, _MAX_TERMS + 1))
    widths = rng.uniform(0.2, 5.0, m)
    centers = rng.uniform(-10.0, 10.0, m)
    freqs = rng.uniform(-20.0, 20.0, m)
    moduli = rng.uniform(0.2, 1.0, m)
    phases = rng.uniform(0.0, 2.0 * np.pi, m)
    coeffs = moduli * np.exp(1j * phases)
    return widths, centers, freqs, coeffs


def _mixture(grid: GridSpec, seed: int, index: int) -> np.ndarray:
    """sum of c_i exp(-a_i (x-x0_i)^2 + i b_i x) on the grid, as a fresh complex N-array."""
    widths, centers, freqs, coeffs = schwartz_params(seed, index)
    x = grid.x
    vals = np.zeros(grid.size, dtype=np.complex128)
    for a, x0, b, c in zip(widths, centers, freqs, coeffs):
        # exp(z) is exactly 0 once Re z < -745.2, and adding such a +-0 term changes
        # no entry: summing where a (x - x0)^2 <= 746 is the full-grid sum bit for bit
        r = np.sqrt(746.0 / a)
        lo, hi = np.searchsorted(x, (x0 - r, x0 + r))
        xs = x[lo:hi]
        vals[lo:hi] += c * np.exp(-a * (xs - x0) ** 2 + 1j * b * xs)
    return vals


def schwartz_sample(grid: GridSpec, seed: int, index: int) -> SampledFunction:
    """Unfiltered random Schwartz sample: sum of c_i exp(-a_i (x-x0_i)^2 + i b_i x)."""
    return SampledFunction(grid, _mixture(grid, seed, index), _adopt=True)


def band_window(xi: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Smooth window, exactly 0 outside lo <= |xi| <= hi, exactly 1 on a plateau inside."""
    if not (0 < lo < hi):
        raise ParameterError("need 0 < lo < hi")
    rise = min(lo, (hi - lo) / 3.0)
    fall = min(hi / 2.0, (hi - lo) / 3.0)
    a = np.abs(xi)
    return _step((a - lo) / rise) * _step((hi - a) / fall)


@functools.lru_cache(maxsize=1)
def _grid_band_window(grid: GridSpec, lo: float, hi: float) -> np.ndarray:
    """``band_window`` on the grid's xi axis, read-only, for one (grid, band) at a time."""
    window = band_window(grid.xi, lo, hi)
    window.flags.writeable = False
    return window


def generate_schwartz(seed: int, index: int, band: tuple, grid: GridSpec) -> SampledFunction:
    """Seeded Schwartz sample, spectrally band-passed to ``band`` with a smooth cutoff.

    The upper band edge is clamped below the Nyquist frequency of the grid so
    that the declared spectral support is representable.
    """
    lo, hi = float(band[0]), float(band[1])
    if lo >= grid.nyquist:
        raise ParameterError(
            f"band lower edge {lo:g} is not below the Nyquist frequency {grid.nyquist:g}"
        )
    window = _grid_band_window(grid, lo, min(hi, 0.95 * grid.nyquist))
    # the mixture is transformed in its own buffer, and the band-passed sample
    # is formed back in it: two N-arrays in flight, bit for bit the plain form
    raw = _mixture(grid, seed, index)
    hat = _forward_raw(grid, raw, out=np.empty_like(raw))
    hat *= window
    return SampledFunction(grid, _inverse_raw(grid, hat, out=raw), _adopt=True)
