"""The propagator exp(i t |D|^alpha) and the geometry of its phase.

Two backends:

* ``evolve_spectral`` multiplies the sample's cached spectrum by the
  unimodular factor on the frequency grid.  Fast and exactly unitary, but
  periodic: a wrap-around guard, checked at every t, rejects evolutions
  whose fastest group speed would carry mass more than 0.4 L.
* ``evolve_quadrature`` integrates the inversion integral directly at
  arbitrary points with adaptive Gauss panels, making no periodicity
  assumption.  Panel refinement is driven by the local phase increment; the
  integrand is otherwise smooth, so oscillation is the only difficulty.  One
  panel set can serve several windowed integrals of the same amplitude
  (``_windowed_integrals``); ``oscillatory_integral`` is its one-window case.

Both agree on band-limited data inside the guard, and that agreement is one of
the headline cross-checks of the harness.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_interp_spline

from .calculus import fractional_derivative
from .errors import (
    AccuracyNotMetError,
    DomainTooSmallError,
    ParameterError,
    UndefinedRatioError,
)
from .grid import (
    GridSpec,
    SampledFunction,
    SpectralFunction,
    _check_finite,
    _inverse_raw,
    l2_norm_physical,
)

__all__ = [
    "PhaseSpec",
    "phase_speed",
    "evolve_spectral",
    "evolve_quadrature",
    "oscillatory_integral",
    "stationary_point",
    "factorization_residual",
    "SpectralAmplitude",
]

_WRAP_FRACTION = 0.4


def _phi(xi, alpha):
    return np.abs(xi) ** alpha


def _dphi(xi, alpha):
    return alpha * np.abs(xi) ** (alpha - 1.0) * np.sign(xi)


def _d2phi(xi, alpha):
    return alpha * (alpha - 1.0) * np.abs(xi) ** (alpha - 2.0)


@functools.lru_cache(maxsize=1)
def _phase(grid: GridSpec, alpha: float) -> np.ndarray:
    """|xi|^alpha on the grid's xi axis, kept read-only for one (L, N, alpha) at a time."""
    phase = _phi(grid.xi, alpha)
    phase.flags.writeable = False
    return phase


def phase_speed(xi, alpha):
    """|Phi'(xi)| = alpha |xi|^{alpha-1}, the group speed at frequency xi."""
    return alpha * np.abs(xi) ** (alpha - 1.0)


@dataclass(frozen=True)
class PhaseSpec:
    """The phase Q_{t,x}(xi) = x xi + t |xi|^alpha and its derivatives."""

    alpha: float = 0.5
    t: float = 0.0
    x: float = 0.0

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ParameterError("alpha must lie in (0, 1)")

    def phi(self, xi):
        return _phi(np.asarray(xi, dtype=float), self.alpha)

    def dphi(self, xi):
        return _dphi(np.asarray(xi, dtype=float), self.alpha)

    def d2phi(self, xi):
        return _d2phi(np.asarray(xi, dtype=float), self.alpha)

    def q(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.x * xi + self.t * _phi(xi, self.alpha)

    def dq(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.x + self.t * _dphi(xi, self.alpha)

    def d2q(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.t * _d2phi(xi, self.alpha)


def stationary_point(t: float, x: float, alpha: float = 0.5):
    """The unique real root xi0 of x + t Phi'(xi) = 0, or None when there is none.

    For alpha = 1/2 this reduces to |xi0| = (1/4)(t/x)^2.  The no-root
    configuration (x = 0 or t = 0) is a signal, not an error: the phase is then
    monotone in the relevant sense.
    """
    if not (0 < alpha < 1):
        raise ParameterError("alpha must lie in (0, 1)")
    if t == 0.0 or x == 0.0:
        return None
    mag = (alpha * abs(t) / abs(x)) ** (1.0 / (1.0 - alpha))
    return -np.sign(x * t) * mag


def evolve_spectral(phi: SampledFunction, t: float, alpha: float = 0.5) -> SampledFunction:
    """exp(i t |D|^alpha) phi by pointwise multiplication on the frequency grid."""
    _check_finite(phi.values, "evolve_spectral")
    if not (0 < alpha < 1):
        raise ParameterError("alpha must lie in (0, 1)")
    if t == 0.0:
        return phi
    hat = phi.spectrum.values
    band = phi.spectrum.occupied_band()
    if band is not None:
        # low frequencies travel arbitrarily fast for alpha < 1; the occupied
        # band never includes xi = 0 itself, so the speed below is finite
        v_max = phase_speed(band[0], alpha)
        travel = v_max * abs(t)
        if travel >= _WRAP_FRACTION * phi.grid.half_width:
            raise DomainTooSmallError(
                f"group speed {v_max:g} times |t| = {abs(t):g} reaches "
                f"{travel:g}, which exceeds {_WRAP_FRACTION} L = "
                f"{_WRAP_FRACTION * phi.grid.half_width:g}; enlarge the domain",
                min_half_width=travel / _WRAP_FRACTION,
            )
    mult = np.exp(1j * t * _phase(phi.grid, alpha))
    return SampledFunction(phi.grid, _inverse_raw(phi.grid, mult * hat), phi.band_limit)


# ---------------------------------------------------------------------------
# oscillatory quadrature backend
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_COARSE_CHUNKS = 64
_EVAL_BLOCK = 1 << 18  # panels per evaluation block, to bound peak memory
_NODE_CHUNK = 1 << 14  # nodes per amplitude or weight evaluation, for the same reason


class SpectralAmplitude:
    """Quintic-spline interpolant of spectral samples, callable at arbitrary xi.

    Also knows the (sign-split) intervals on which the samples are numerically
    nonzero; quadrature is restricted to those intervals.
    """

    def __init__(self, F: SpectralFunction):
        _check_finite(F.values, "SpectralAmplitude")
        xi = F.grid.xi
        self._re = make_interp_spline(xi, F.values.real, k=5)
        self._im = make_interp_spline(xi, F.values.imag, k=5)
        self.grid = F.grid
        self.xi_spacing = d = F.grid.xi_spacing
        floor = 0.5 * d
        self.support = []
        for sgn in (-1, 1):
            band = F.occupied_band(sgn)
            if band is None:
                continue
            lo = max(band[0] - d, floor)
            hi = min(band[1] + d, float(F.grid.nyquist))
            self.support.append((lo, hi) if sgn > 0 else (-hi, -lo))
        near_zero = F.occupied & (np.abs(xi) < floor)
        self.excluded_mass = float(np.sum(np.abs(F.values[near_zero])) * d)

    def __call__(self, xi):
        return self._re(xi) + 1j * self._im(xi)


def _subdivide(a: float, b: float, t: float, x: float, alpha: float,
               amp_scale: float, max_phase: float):
    """Panel starts/widths covering [a, b] (one sign of xi, xi0 already split out).

    Two-level scheme: coarse uniform chunks, then per-chunk uniform refinement
    using endpoint bounds on |Q'| and |Q''| (both monotone in |xi| on a sign
    branch, so endpoint evaluation is decisive).
    """
    edges = np.linspace(a, b, _COARSE_CHUNKS + 1)
    dq = np.abs(x + t * _dphi(edges, alpha))
    d2q = np.abs(t * _d2phi(edges, alpha))
    w = np.diff(edges)
    max_dq = np.maximum(dq[:-1], dq[1:])
    max_d2q = np.maximum(d2q[:-1], d2q[1:])
    n1 = np.ceil(w * max_dq / max_phase)
    n2 = np.ceil(np.sqrt(w**2 * max_d2q / (2.0 * max_phase)))
    n3 = np.ceil(w / amp_scale)
    n = np.maximum.reduce([n1, n2, n3, np.ones_like(w)]).astype(np.int64)
    total = int(np.sum(n))
    sub_w = np.repeat(w / n, n)
    offsets = np.arange(total) - np.repeat(np.concatenate(([0], np.cumsum(n)[:-1])), n)
    starts = np.repeat(edges[:-1], n) + offsets * sub_w
    return starts, sub_w


def _panels(intervals, t: float, x: float, alpha: float, amp_scale: float,
            max_phase: float, budget: int):
    """Gauss panel starts/widths over the intervals, each split at xi0, in ascending order.

    Raises AccuracyNotMetError once the panel count passes ``budget``.
    """
    if amp_scale <= 0:
        raise ParameterError("amp_scale must be positive")
    all_starts, all_widths = [], []
    total = 0
    for (a, b) in sorted(intervals):
        if b <= a:
            continue
        if a < 0 < b:
            raise ParameterError("intervals must not straddle xi = 0")
        pieces = [(a, b)]
        xi0 = stationary_point(t, x, alpha)
        if xi0 is not None and a < xi0 < b:
            pieces = [(a, xi0), (xi0, b)]
        for (pa, pb) in pieces:
            starts, widths = _subdivide(pa, pb, t, x, alpha, amp_scale, max_phase)
            total += starts.size
            if total > budget:
                raise AccuracyNotMetError(
                    f"panel budget {budget} exhausted (needed > {total}); "
                    "phase too oscillatory for the requested accuracy",
                    achieved=max_phase * total / budget,
                )
            all_starts.append(starts)
            all_widths.append(widths)
    if not all_starts:
        return np.empty(0), np.empty(0)
    return np.concatenate(all_starts), np.concatenate(all_widths)


def _node_ranges(nodes: np.ndarray, intervals) -> list:
    """Index range of the sorted nodes inside each interval; all nodes for None."""
    if intervals is None:
        return [(0, nodes.size)]
    return [(int(np.searchsorted(nodes, a)), int(np.searchsorted(nodes, b, "right")))
            for (a, b) in intervals]


def _windowed_integrals(amp, intervals, windows, t: float, x: float, alpha: float,
                        amp_scale: float, max_phase: float = np.pi / 4.0,
                        budget: int = 1 << 23) -> list:
    """int amp(xi) w(xi) exp(i (x xi + t |xi|^alpha)) dxi for each window, from one panel set.

    The panels cover ``intervals`` (split at the stationary point) and are
    taken a block of at most ``_EVAL_BLOCK`` panels at a time; amp and exp(iQ)
    are evaluated once per node, and they and the window weights on at most
    ``_NODE_CHUNK`` nodes at a time.  Each window is (window intervals, w): it
    sums the weighted integrand over the nodes inside its intervals, or over
    every node when they are None; a weight of None is 1.  The window
    intervals must end at panel edges or where w vanishes, and the panel
    intervals must not overlap when a window names intervals.
    """
    starts, widths = _panels(intervals, t, x, alpha, amp_scale, max_phase, budget)
    acc = [0.0 + 0.0j] * len(windows)
    for i in range(0, starts.size, _EVAL_BLOCK):
        s = starts[i : i + _EVAL_BLOCK]
        w = widths[i : i + _EVAL_BLOCK]
        half = 0.5 * w
        flat = ((s + half)[:, None] + half[:, None] * _GL_NODES).ravel()
        gauss = (_GL_WEIGHTS * half[:, None]).ravel()
        integrand = np.empty(flat.size, dtype=np.complex128)
        for c in range(0, flat.size, _NODE_CHUNK):
            xi = flat[c : c + _NODE_CHUNK]
            # keep the factor order: numpy can round a complex product
            # differently with its operands swapped
            part = np.exp(1j * (x * xi + t * np.abs(xi) ** alpha))
            part *= amp(xi)
            part *= gauss[c : c + _NODE_CHUNK]
            integrand[c : c + _NODE_CHUNK] = part
        for j, (window, weight) in enumerate(windows):
            for lo, hi in _node_ranges(flat, window):
                if weight is None:
                    acc[j] += np.sum(integrand[lo:hi])
                else:
                    for c in range(lo, hi, _NODE_CHUNK):
                        end = min(c + _NODE_CHUNK, hi)
                        acc[j] += np.sum(integrand[c:end] * weight(flat[c:end]))
    return [complex(a) for a in acc]


def oscillatory_integral(amp, intervals, t: float, x: float, alpha: float,
                         amp_scale: float, max_phase: float = np.pi / 4.0,
                         budget: int = 1 << 23):
    """int amp(xi) exp(i (x xi + t |xi|^alpha)) dxi over the given intervals.

    ``amp`` is any callable returning complex values; ``amp_scale`` caps the
    panel width so that the 8-point Gauss rule also resolves the amplitude.
    """
    return _windowed_integrals(amp, intervals, [(None, None)], t, x, alpha,
                               amp_scale, max_phase, budget)[0]


def evolve_quadrature(phi_hat: SpectralFunction, t: float, x_points, alpha: float = 0.5,
                      amp_scale: float | None = None, max_phase: float = np.pi / 4.0,
                      budget: int = 1 << 23) -> list:
    """u(t, x) = (1/2pi) int phi_hat(xi) exp(i(x xi + t |xi|^alpha)) dxi at each x.

    No periodicity assumption: this is the slow, trustworthy backend used to
    cross-check the spectral one and to evaluate off-grid points.
    """
    if not (0 < alpha < 1):
        raise ParameterError("alpha must lie in (0, 1)")
    amp = SpectralAmplitude(phi_hat)
    if amp.excluded_mass > 0 and t != 0.0:
        warnings.warn(
            f"spectral amplitude is not negligible near xi = 0; excluded mass "
            f"{amp.excluded_mass:.3e} (the phase derivative is unbounded there)",
            UserWarning,
            stacklevel=2,
        )
    if amp_scale is None:
        amp_scale = 8.0 * amp.xi_spacing
    out = []
    for x in np.atleast_1d(np.asarray(x_points, dtype=float)):
        val = oscillatory_integral(
            amp, amp.support, t, float(x), alpha, amp_scale, max_phase, budget
        )
        out.append(val / (2.0 * np.pi))
    return out


def factorization_residual(phi: SampledFunction, t: float, dt: float = 1e-3,
                           alpha: float = 0.5) -> float:
    """Residual of the factorized wave equation: || D_t^2 u + |D|^{2 alpha} u || / || |D|^{2 alpha} u ||.

    D_t^2 is the centered second difference of the propagator at t - dt, t,
    t + dt; for alpha = 1/2 this checks u_tt + |D| u = 0, the linearized water
    wave equation the propagator factorizes.  The value is O(dt^2).
    """
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if not np.any(phi.values):
        raise UndefinedRatioError("phi is identically zero")
    um = evolve_spectral(phi, t - dt, alpha)
    u0 = evolve_spectral(phi, t, alpha)
    up = evolve_spectral(phi, t + dt, alpha)
    d2t = (um.values - 2.0 * u0.values + up.values) / dt**2
    lap = fractional_derivative(u0, 2.0 * alpha)
    denom = l2_norm_physical(lap)
    if denom == 0.0:
        raise UndefinedRatioError("|D|^{2 alpha} u vanishes")
    resid = SampledFunction(phi.grid, d2t + lap.values)
    return l2_norm_physical(resid) / denom
