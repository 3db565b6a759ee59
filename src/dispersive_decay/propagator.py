"""The propagator exp(i t |D|^alpha) and the geometry of its phase.

Two backends:

* ``evolve_spectral`` multiplies the sample's cached spectrum by the
  unimodular factor on the frequency grid.  Fast and exactly unitary, but
  periodic: a wrap-around guard, checked at every t, rejects evolutions
  whose fastest group speed would carry mass more than 0.4 L.  The factor
  depends on (grid, t, alpha) alone, so a decay run forms it once per time
  (``_multipliers``) and shares it with every sample.
* ``evolve_quadrature`` integrates the inversion integral directly at
  arbitrary points, making no periodicity assumption.  The amplitude is a
  quintic spline on the xi grid, so it is smooth on each grid cell and the
  phase is the only difficulty.  The spline's banded collocation matrix
  depends on the grid alone: its LU factorisation is cached per grid
  (``_collocation``), and the spline itself is built once per spectrum
  (``_amplitude``).
  Two rules give nodes with complex weights that absorb exp(iQ).  Where the
  phase is fast, a grid cell is a Levin cell: a collocation rule (Levin,
  Math. Comp. 38, 1982) whose error falls as the frequency grows (Olver, IMA
  J. Numer. Anal. 26, 2006).  Around the stationary point and where the
  phase is slow, 8-point Gauss panels refined by the local phase increment
  take over, with weights w_j exp(iQ(xi_j)).  The amplitude is evaluated
  once per node, in one place, and one set of nodes serves several windows
  (``_windowed_integrals``).  A window is (intervals, weight, cap): where it
  integrates, what it multiplies the amplitude by, and the widest cell that
  resolves that weight; only this module cuts the support at window edges
  and caps the cells.  ``oscillatory_integral`` keeps the Gauss panels
  everywhere: the reference the Levin rule is tested against.

Both agree on band-limited data inside the guard, and that agreement is one of
the headline cross-checks of the harness.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg.lapack import dgbtrf, dgbtrs

try:  # the band filler of make_interp_spline: scipy-private, absent from older scipy
    from scipy.interpolate._dierckx import _coloc
except ImportError:
    _coloc = None

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


def _check_alpha(alpha: float) -> None:
    if not (0 < alpha < 1):
        raise ParameterError("alpha must lie in (0, 1)")


def _phi(xi, alpha):
    return np.abs(xi) ** alpha


def phase_speed(xi, alpha):
    """|Phi'(xi)| = alpha |xi|^{alpha-1}, the group speed at frequency xi."""
    return alpha * np.abs(xi) ** (alpha - 1.0)


def _dphi(xi, alpha):
    return phase_speed(xi, alpha) * np.sign(xi)


def _d2phi(xi, alpha):
    return alpha * (alpha - 1.0) * np.abs(xi) ** (alpha - 2.0)


# the phase Q_{t,x} = x xi + t Phi, its derivative and exp(iQ), for every rule and bound
def _q(xi, t, x, alpha):
    return x * xi + t * _phi(xi, alpha)


def _dq(xi, t, x, alpha):
    return x + t * _dphi(xi, alpha)


def _eiq(xi, t, x, alpha):
    return np.exp(1j * _q(xi, t, x, alpha))


def _multipliers(grid: GridSpec, alpha: float, times) -> dict:
    """t -> exp(i t |xi|^alpha), read-only, for each nonzero t, on |xi| = 0, 1, .., N/2 xi
    spacings: the xi >= 0 axis and the unpaired node -N/2; the factor is even, so
    ``_propagate`` reads it mirrored for xi < 0.

    For t != 0 the exponent is exactly +0 + i t |xi|^alpha, so (cos, sin) is the exp.
    """
    phase = _phi(grid.xi[grid.size // 2::-1], alpha)
    out = {}
    for t in times:
        if t != 0.0:
            half = out[t] = np.empty(phase.size, dtype=np.complex128)
            y = t * phase
            np.cos(y, out=half.real)
            np.sin(y, out=half.imag)
            half.flags.writeable = False
    return out


def _propagate(hat: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The product of ``hat`` (on the grid's xi axis) and the even multiplier ``half`` (on
    |xi| = 0 .. Nyquist): ``half * hat`` for xi >= 0 and half's mirror for xi < 0."""
    m = hat.size // 2
    out = np.empty(hat.size, dtype=np.complex128)
    np.multiply(half[:m], hat[m:], out=out[m:])
    np.multiply(half[m:0:-1], hat[:m], out=out[:m])
    return out


@dataclass(frozen=True)
class PhaseSpec:
    """The derivatives of the phase Q_{t,x}(xi) = x xi + t |xi|^alpha."""

    alpha: float = 0.5
    t: float = 0.0
    x: float = 0.0

    def __post_init__(self):
        _check_alpha(self.alpha)

    def dq(self, xi):
        return _dq(np.asarray(xi, dtype=float), self.t, self.x, self.alpha)

    def d2q(self, xi):
        return self.t * _d2phi(np.asarray(xi, dtype=float), self.alpha)


def stationary_point(t: float, x: float, alpha: float = 0.5):
    """The unique real root xi0 of x + t Phi'(xi) = 0, or None when there is none.

    For alpha = 1/2 this reduces to |xi0| = (1/4)(t/x)^2.  The no-root
    configuration (x = 0 or t = 0) is a signal, not an error: the phase is then
    monotone in the relevant sense.
    """
    _check_alpha(alpha)
    if t == 0.0 or x == 0.0:
        return None
    mag = (alpha * abs(t) / abs(x)) ** (1.0 / (1.0 - alpha))
    return -np.sign(x * t) * mag


def evolve_spectral(phi: SampledFunction, t: float, alpha: float = 0.5, *,
                    _half: np.ndarray | None = None) -> SampledFunction:
    """exp(i t |D|^alpha) phi by pointwise multiplication on the frequency grid.

    ``_half`` is the multiplier of (phi.grid, t, alpha) from ``_multipliers``, as a decay
    run shares it between samples; without it the call forms its own and keeps none.
    """
    _check_finite(phi, "evolve_spectral")
    _check_alpha(alpha)
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
    if _half is None:
        _half = _multipliers(phi.grid, alpha, (t,))[t]
    prod = _propagate(hat, _half)
    return SampledFunction(phi.grid, _inverse_raw(phi.grid, prod, out=prod), _adopt=True)


# ---------------------------------------------------------------------------
# oscillatory quadrature backend
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_COARSE_CHUNKS = 64
_NODE_CHUNK = 1 << 14  # nodes per chunk of a quadrature rule, to bound peak memory
_LEVIN_NODES = 10  # Chebyshev points per Levin cell of the windowed pass
_LEVIN_MIN_PHASE = 4.0  # a cell is a Levin cell once min |Q'| times its width reaches this
_SPLINE_K = 5  # degree of the amplitude spline
_MAX_PHASE = np.pi / 4  # the largest phase increment a Gauss panel may span


@functools.lru_cache(maxsize=2)
def _collocation(grid: GridSpec):
    """Not-a-knot knots, LU band and pivots of the quintic collocation matrix on
    ``grid.xi``, read-only, for two grids at a time.

    The band is filled as ``make_interp_spline`` fills it, by scipy's private
    ``_coloc`` (without it, by the public ``BSpline.design_matrix``: the same
    bits at twice the cost).  Its ``gbsv`` is ``gbtrf`` then ``gbtrs``, so
    ``dgbtrs`` against this factor gives its coefficients bit for bit.
    """
    xi, k = grid.xi, _SPLINE_K
    knots = np.r_[(xi[0],) * (k + 1), xi[3:-3], (xi[-1],) * (k + 1)]
    band = np.zeros((3 * k + 1, xi.size), order="F")
    if _coloc is not None:
        _coloc(xi, knots, k, band.T, 0)
    else:
        coo = BSpline.design_matrix(xi, knots, k).tocoo()
        band[2 * k + coo.row - coo.col, coo.col] = coo.data
    lu, piv, info = dgbtrf(band, k, k, overwrite_ab=True)
    if info != 0:
        raise np.linalg.LinAlgError("quintic collocation matrix is singular")
    for a in (knots, lu, piv):
        a.flags.writeable = False
    return knots, lu, piv


class SpectralAmplitude:
    """Quintic-spline interpolant of spectral samples, callable at arbitrary xi.

    It is ``make_interp_spline(xi, values, k=5)`` bit for bit, but the
    collocation LU is cached per grid: a sample pays one back-substitution.
    Also knows the (sign-split) intervals on which the samples are numerically
    nonzero; quadrature is restricted to those intervals.
    """

    def __init__(self, F: SpectralFunction):
        _check_finite(F, "SpectralAmplitude")
        xi = F.grid.xi
        knots, lu, piv = _collocation(F.grid)
        # one spline through the (real, imaginary) pairs: one back-substitution
        # and one basis evaluation serve both parts
        coeffs, _ = dgbtrs(lu, _SPLINE_K, _SPLINE_K, F.values.view(float).reshape(-1, 2), piv)
        self._spline = BSpline.construct_fast(knots, np.ascontiguousarray(coeffs), _SPLINE_K)
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
        pairs = np.ascontiguousarray(self._spline(xi))
        return pairs.view(np.complex128).reshape(np.shape(xi))


def _amplitude(F: SpectralFunction) -> SpectralAmplitude:
    """F's spectral amplitude, built once per spectrum and kept on it."""
    cache = F.__dict__
    if "_amplitude" not in cache:
        cache["_amplitude"] = SpectralAmplitude(F)
    return cache["_amplitude"]


def _pieces(intervals, windows, t: float, x: float, alpha: float) -> list:
    """(a, b, cap) pieces of the intervals, in ascending order.

    The intervals are cut at the stationary point and at every window edge,
    so each window is a union of whole pieces.  A piece gets the smallest cap
    among the windows that cover it (a window of None intervals covers all)
    and is left out when none does.
    """
    if any(cap <= 0 for *_, cap in windows):
        raise ParameterError("window caps must be positive")
    xi0 = stationary_point(t, x, alpha)
    points = sorted({e for iv, *_ in windows if iv for ab in iv for e in ab}
                    | ({xi0} if xi0 is not None else set()))
    out = []
    for (a, b) in sorted(intervals):
        edges = [a, *(p for p in points if a < p < b), b]
        for lo, hi in zip(edges[:-1], edges[1:]):
            caps = [cap for iv, _, cap in windows
                    if iv is None or any(c <= lo and hi <= d for c, d in iv)]
            if hi <= lo or not caps:
                continue
            if lo < 0 < hi:
                raise ParameterError("intervals must not straddle xi = 0")
            out.append((lo, hi, min(caps)))
    return out


def _spend(total: int, budget: int) -> None:
    if total > budget:
        raise AccuracyNotMetError(
            f"panel budget {budget} exhausted (needed > {total}); "
            "phase too oscillatory for the requested accuracy"
        )


def _subdivide(a: float, b: float, t: float, x: float, alpha: float, amp_scale: float):
    """Panel starts/widths covering [a, b] (one sign of xi, xi0 already split out).

    Two-level scheme: coarse uniform chunks, then per-chunk uniform refinement
    using endpoint bounds on |Q'| and |Q''| (both monotone in |xi| on a sign
    branch, so endpoint evaluation is decisive).
    """
    edges = np.linspace(a, b, _COARSE_CHUNKS + 1)
    dq = np.abs(_dq(edges, t, x, alpha))
    d2q = np.abs(t * _d2phi(edges, alpha))
    w = np.diff(edges)
    max_dq = np.maximum(dq[:-1], dq[1:])
    max_d2q = np.maximum(d2q[:-1], d2q[1:])
    n1 = np.ceil(w * max_dq / _MAX_PHASE)
    n2 = np.ceil(np.sqrt(w**2 * max_d2q / (2.0 * _MAX_PHASE)))
    n3 = np.ceil(w / amp_scale)
    return _split(edges, np.maximum.reduce([n1, n2, n3, np.ones_like(w)]).astype(np.int64))


def _split(edges: np.ndarray, n: np.ndarray):
    """Starts/widths of the n[i] equal parts of each [edges[i], edges[i+1]]."""
    w = np.diff(edges)
    total = int(np.sum(n))
    sub_w = np.repeat(w / n, n)
    offsets = np.arange(total) - np.repeat(np.concatenate(([0], np.cumsum(n)[:-1])), n)
    starts = np.repeat(edges[:-1], n) + offsets * sub_w
    return starts, sub_w


def _panels(pieces, t: float, x: float, alpha: float, budget: int, spent: int = 0):
    """Gauss panel starts/widths over the (a, b, cap) pieces, in their order.

    Raises AccuracyNotMetError once ``spent`` plus the panel count passes ``budget``.
    """
    all_starts, all_widths = [np.empty(0)], [np.empty(0)]
    for (a, b, cap) in pieces:
        starts, widths = _subdivide(a, b, t, x, alpha, cap)
        spent += starts.size
        _spend(spent, budget)
        all_starts.append(starts)
        all_widths.append(widths)
    return np.concatenate(all_starts), np.concatenate(all_widths)


def _levin_cells(pieces, spacing: float, t: float, x: float, alpha: float):
    """Split each (a, b, cap) piece at the grid points (multiples of ``spacing``)
    inside it, and each part into equal cells no wider than its cap.

    Between two grid points the spline amplitude is one quintic, which the
    Levin nodes resolve.  A cell is a Levin cell where x + t Phi' keeps its
    sign at both ends (it is monotone on a sign branch, so the ends decide)
    and min |Q'| times its width is at least ``_LEVIN_MIN_PHASE``.  Returns
    the Levin cells' starts and widths and the maximal runs of the other
    cells of each piece, as (a, b, cap) pieces for the Gauss rule.
    """
    all_starts, all_widths, rest = [np.empty(0)], [np.empty(0)], []
    for (a, b, cap) in pieces:
        # a grid point within 1e-6 spacing of an end would leave a sliver cell
        knots = spacing * np.arange(np.ceil(a / spacing), np.floor(b / spacing) + 1)
        knots = knots[(knots > a + 1e-6 * spacing) & (knots < b - 1e-6 * spacing)]
        coarse = np.concatenate(([a], knots, [b]))
        starts, widths = _split(coarse, np.ceil(np.diff(coarse) / cap).astype(np.int64))
        edges = np.append(starts, b)
        dq = _dq(edges, t, x, alpha)
        levin = ((dq[:-1] * dq[1:] > 0)
                 & (np.minimum(np.abs(dq[:-1]), np.abs(dq[1:])) * widths >= _LEVIN_MIN_PHASE))
        all_starts.append(starts[levin])
        all_widths.append(widths[levin])
        step = np.diff(np.concatenate(([0], (~levin).astype(np.int8), [0])))
        rest.extend((float(edges[i]), float(edges[j]), cap)
                    for i, j in zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1)))
    return np.concatenate(all_starts), np.concatenate(all_widths), rest


@functools.lru_cache(maxsize=4)
def _chebyshev(n: int):
    """The n Chebyshev points on (-1, 1), ascending, the transpose of their
    differentiation matrix, and the Lagrange basis at -1 and at +1.

    The points are interior, so adjacent cells, and rules of another n,
    share no node.  Barycentric weights give both the matrix (rows summing
    to zero) and the basis values.
    """
    j = np.arange(n)
    theta = (2 * j + 1) * np.pi / (2 * n)
    s = -np.cos(theta)
    c = (-1.0) ** j * np.sin(theta)
    diff = s[:, None] - s[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (c[None, :] / c[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    left, right = (c / (end - s) / np.sum(c / (end - s)) for end in (-1.0, 1.0))
    return s, np.ascontiguousarray(d.T), left, right


def _levin_rule(starts, widths, t: float, x: float, alpha: float, n: int):
    """(nodes, weights) of the Levin cells, at most ``_NODE_CHUNK`` nodes at a time.

    On a cell [a, b] of half-width h, collocating p' + i Q' p = f on n
    Chebyshev points gives int f e^{iQ} = p(b) e^{iQ(b)} - p(a) e^{iQ(a)}
    (Levin 1982).  That is linear in f: the rule sum_j W_j f(xi_j), whose
    complex weights solve (D/h + i diag Q')^T W = l(b) e^{iQ(b)} -
    l(a) e^{iQ(a)} with l the Lagrange basis, one solve per cell for any
    number of windows.
    """
    s, dt, left, right = _chebyshev(n)
    diag = np.arange(n)
    step = max(1, _NODE_CHUNK // n)
    for i in range(0, starts.size, step):
        a = starts[i : i + step, None]
        half = 0.5 * widths[i : i + step, None]
        nodes = (a + half) + half * s
        mat = np.empty((a.size, n, n), dtype=np.complex128)
        mat[:] = dt
        mat[:, diag, diag] += 1j * half * _dq(nodes, t, x, alpha)
        phase = _eiq(np.hstack([a, a + 2.0 * half]), t, x, alpha)
        rhs = phase[:, 1:] * right - phase[:, :1] * left
        weights = half * np.linalg.solve(mat, rhs[..., None])[..., 0]
        yield nodes.ravel(), weights.ravel()


def _gauss_rule(starts, widths, t: float, x: float, alpha: float):
    """(nodes, weights w_j exp(iQ(xi_j))) of the Gauss panels, ``_NODE_CHUNK // 8`` at a time."""
    step = max(1, _NODE_CHUNK // _GL_NODES.size)
    for i in range(0, starts.size, step):
        half = 0.5 * widths[i : i + step, None]
        nodes = ((starts[i : i + step, None] + half) + half * _GL_NODES).ravel()
        weights = _eiq(nodes, t, x, alpha)
        weights *= (_GL_WEIGHTS * half).ravel()
        yield nodes, weights


def _node_ranges(nodes: np.ndarray, intervals) -> list:
    """Index range of the sorted nodes inside each interval; all nodes for None."""
    if intervals is None:
        return [(0, nodes.size)]
    return [(int(np.searchsorted(nodes, a)), int(np.searchsorted(nodes, b, "right")))
            for (a, b) in intervals]


def _windowed_integrals(amp, intervals, windows, t: float, x: float, alpha: float,
                        budget: int = 1 << 23, levin_nodes: int = _LEVIN_NODES) -> list:
    """int amp(xi) w(xi) exp(i (x xi + t |xi|^alpha)) dxi for each window, from one rule.

    Each window is (window intervals, w, cap): it sums the weighted
    integrand over the nodes inside its intervals, or over all of them when
    they are None; a weight of None is 1.  The (a, b, cap) pieces of
    ``_pieces`` are cut at the grid points of ``amp`` (its ``xi_spacing``)
    into cells no wider than their cap.  Where the phase is fast a cell is a
    Levin cell with ``levin_nodes`` nodes (``_levin_cells``); the maximal
    runs of the other cells, around xi0 and wherever the phase is slow, get
    phase-refined 8-point Gauss panels.  With ``levin_nodes`` = 0 every piece
    gets Gauss panels and ``amp`` needs no grid spacing.  The panel budget
    counts Levin cells and Gauss panels.

    Both rules yield (nodes, complex weights) chunks; amp is evaluated once
    per node, a chunk at a time.  The intervals must not overlap when a
    window names intervals.
    """
    pieces = _pieces(intervals, windows, t, x, alpha)
    rules, spent = [], 0
    if levin_nodes:
        cells, cell_widths, pieces = _levin_cells(pieces, amp.xi_spacing, t, x, alpha)
        spent = cells.size
        _spend(spent, budget)
        rules.append(_levin_rule(cells, cell_widths, t, x, alpha, levin_nodes))
    starts, widths = _panels(pieces, t, x, alpha, budget, spent)
    rules.append(_gauss_rule(starts, widths, t, x, alpha))
    acc = [0.0 + 0.0j] * len(windows)
    for nodes, weights in itertools.chain(*rules):
        integrand = amp(nodes) * weights
        for j, (window, weight, _) in enumerate(windows):
            for lo, hi in _node_ranges(nodes, window):
                if lo < hi:  # most chunks hold none of a window's nodes
                    part = integrand[lo:hi]
                    acc[j] += np.sum(part if weight is None else part * weight(nodes[lo:hi]))
    return [complex(a) for a in acc]


def oscillatory_integral(amp, intervals, t: float, x: float, alpha: float,
                         amp_scale: float, budget: int = 1 << 23):
    """int amp(xi) exp(i (x xi + t |xi|^alpha)) dxi over the given intervals.

    The reference rule: phase-refined 8-point Gauss panels everywhere, no
    Levin cells.  ``amp`` is any callable returning complex values;
    ``amp_scale`` caps the panel width so that the Gauss rule also resolves
    the amplitude.
    """
    return _windowed_integrals(amp, intervals, [(None, None, amp_scale)], t, x, alpha,
                               budget, levin_nodes=0)[0]


def evolve_quadrature(phi_hat: SpectralFunction, t: float, x_points, alpha: float = 0.5) -> list:
    """u(t, x) = (1/2pi) int phi_hat(xi) exp(i(x xi + t |xi|^alpha)) dxi at each x.

    No periodicity assumption: this is the slow, trustworthy backend used to
    cross-check the spectral one and to evaluate off-grid points.
    """
    _check_alpha(alpha)
    amp = _amplitude(phi_hat)
    if amp.excluded_mass > 0 and t != 0.0:
        warnings.warn(
            f"spectral amplitude is not negligible near xi = 0; excluded mass "
            f"{amp.excluded_mass:.3e} (the phase derivative is unbounded there)",
            UserWarning,
            stacklevel=2,
        )
    full = [(None, None, 8.0 * amp.xi_spacing)]
    out = []
    for x in np.atleast_1d(np.asarray(x_points, dtype=float)):
        val = _windowed_integrals(amp, amp.support, full, t, float(x), alpha)[0]
        out.append(val / (2.0 * np.pi))
    return out


def factorization_residual(phi: SampledFunction, t: float, dt: float, alpha: float = 0.5) -> float:
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
    resid = SampledFunction(phi.grid, d2t + lap.values, _adopt=True)
    return l2_norm_physical(resid) / denom
