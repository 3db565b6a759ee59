"""Dyadic frequency decomposition: smooth bump, projections, and ratio checks.

There is one bump psi, built from the classical exp(-1/x) glue, so its plateau
(psi = 1 for |x| <= 1) and support (psi = 0 for |x| >= 2) are exact.
The dyadic pieces psi_k(xi) = psi(xi/2^k) - psi(xi/2^{k-1}) telescope exactly,
which is what the reconstruction identity uses; psi_k is a smooth cutoff, not
an orthogonal projection, and no idempotence is asserted.

The ratio operations at the bottom are the numerical content of the two
weighted-norm lemmas and of the Bernstein inequalities: each returns the
quotient of the two sides of an inequality whose constant is implicit, and the
suites record the empirical maxima as regression-pinned constants.  All of them
are functionals of one dyadic piece, computed by ``_Piece`` from the sample's
cached spectrum, so a sample is transformed once for all its pieces and rows.
A piece keeps scalars only, and holds its arrays in a pooled workspace
(``_workspace``) while it is built, so pieces can be built on several threads.
"""

from __future__ import annotations

import contextlib
import functools
import threading

import numpy as np

from .calculus import _abs_xi_power, _exponent, _lp, weighted_norm
from .errors import OutOfBandError, ParameterError, UndefinedRatioError
from .grid import (
    GridSpec,
    SampledFunction,
    _forward_raw,
    _inverse_raw,
    _l2,
    l2_norm_physical,
)

__all__ = [
    "BumpFunction",
    "project",
    "bernstein_ratio",
    "bernstein_derivative_ratio",
    "lemma1_ratio",
    "lemma2_ratio",
]

# pieces whose spectral peak falls below this (relative to the full spectrum)
# are treated as identically zero: the grid carries no information there
_ZERO_PIECE_RTOL = 1e-280


def _step(u: np.ndarray) -> np.ndarray:
    """Smooth step: 0 for u <= 0, 1 for u >= 1, strictly increasing between.

    exp(-1/u) / (exp(-1/u) + exp(-1/(1-u))) on 0 < u < 1; the exponentials are
    evaluated on that transition set only.
    """
    out = np.empty_like(u)
    lo = u <= 0
    hi = u >= 1
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    um = u[mid]
    a = np.exp(-1.0 / um)
    b = np.exp(-1.0 / (1.0 - um))
    out[mid] = a / (a + b)
    return out


class BumpFunction:
    """Even C-infinity bump: 1 on [-1, 1], supported in [-2, 2], values in [0, 1]."""

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 1.0 - _step(np.abs(x) - 1.0)

    def dyadic_piece(self, xi, k: int) -> np.ndarray:
        """psi_k(xi) = psi(xi / 2^k) - psi(xi / 2^{k-1}); supported on 2^{k-1} <= |xi| <= 2^{k+1}."""
        xi = np.asarray(xi, dtype=float)
        return self(xi / 2.0**k) - self(xi / 2.0 ** (k - 1))


# the bump psi of every dyadic piece
_BUMP = BumpFunction()


def _in_band(grid: GridSpec, k: int) -> bool:
    """True when band k's annulus, up to |xi| = 2^{k+1}, fits below the Nyquist frequency."""
    return 2.0 ** (k + 1) <= grid.nyquist


def _usable_bands(grid: GridSpec, ks, abs_xi: np.ndarray) -> list:
    """The k of ``ks`` whose band fits below the Nyquist frequency and whose open annulus
    2^{k-1} < |xi| < 2^{k+1} holds some |xi| of ``abs_xi``."""
    return [k for k in ks if _in_band(grid, k)
            and np.any((abs_xi > 2.0 ** (k - 1)) & (abs_xi < 2.0 ** (k + 1)))]


def _require_in_band(grid: GridSpec, k: int):
    if not _in_band(grid, k):
        raise OutOfBandError(
            f"band 2^{k + 1} exceeds the Nyquist frequency {grid.nyquist:g}"
        )


def project(f: SampledFunction, k: int) -> SampledFunction:
    """The Littlewood-Paley piece P_k f, back on the physical side."""
    _require_in_band(f.grid, k)
    piece = _BUMP.dyadic_piece(f.grid.xi, k) * f.spectrum.values
    return SampledFunction(f.grid, _inverse_raw(f.grid, piece))


# the workspaces not checked out, all of one grid size, and the lock that guards the list
_FREE: list = []
_FREE_LOCK = threading.Lock()


@contextlib.contextmanager
def _workspace(n: int):
    """A workspace of two complex n-arrays, held by the caller alone until it exits.

    A free workspace of size n is reused, or a new one made. On exit it goes back to the
    pool, and free workspaces of any other size are dropped.
    """
    with _FREE_LOCK:
        ws = _FREE.pop() if _FREE and _FREE[-1][0].size == n else None
    if ws is None:
        ws = np.empty(n, np.complex128), np.empty(n, np.complex128)
    try:
        yield ws
    finally:
        with _FREE_LOCK:
            _FREE[:] = [w for w in _FREE if w[0].size == n] + [ws]


@functools.lru_cache(maxsize=64)
def _bump_window(grid: GridSpec, k: int) -> tuple:
    """(lo, hi, psi_k(xi[m + lo:m + hi])) with m = N/2: the nodes 2^{k-1} <= xi <= 2^{k+1}
    and the bump on them, read-only, once per (grid, k)."""
    xi = grid.xi[grid.size // 2:]
    lo, hi = np.searchsorted(xi, 2.0 ** (k - 1)), np.searchsorted(xi, 2.0 ** (k + 1), "right")
    psi = _BUMP.dyadic_piece(xi[lo:hi], k)
    psi.flags.writeable = False
    return lo, hi, psi


def _windowed_piece(grid: GridSpec, k: int, out: np.ndarray) -> np.ndarray:
    """``_BUMP.dyadic_piece(grid.xi, k)`` bit for bit, into ``out``: the bump is 0.0 off its window
    (``_bump_window``); it is even and the xi axis exactly symmetric, so xi < 0 takes its mirror."""
    m = grid.size // 2
    lo, hi, psi = _bump_window(grid, k)
    out.fill(0.0)
    out[m + lo:m + hi] = psi
    out[m - hi + 1:m - lo + 1] = out[m + hi - 1:m + lo - 1:-1]
    return out


class _Piece:
    """The scalars of the dyadic piece psi_k fhat of one sample, and every ratio built from them.

    Its arrays are the two of one checked-out workspace; no transform runs in place and the
    bump is cached (``_bump_window``), so pocketfft's scratch is the piece's only other large
    block. ``derivative`` is the (s, p) of the |D|^s P_k f norm.
    """

    def __init__(self, f: SampledFunction, k: int, derivative: tuple = (1.0, 2)):
        _require_in_band(f.grid, k)
        grid, hat = f.grid, f.spectrum
        n, h = grid.size, grid.spacing
        self.k, (self.s, self.p) = k, derivative
        with _workspace(n) as (piece_hat, a):
            floats, scratch = piece_hat.view(np.float64), a.view(np.float64)[:n]
            np.multiply(_windowed_piece(grid, k, scratch), hat.values, out=piece_hat)
            self.peak = float(np.max(np.abs(piece_hat, out=scratch)))
            self.hat_l2 = _l2(piece_hat, grid.xi_spacing, scratch) / np.sqrt(2.0 * np.pi)
            phys = _inverse_raw(grid, piece_hat, out=a)
            mag = np.abs(phys, out=floats[:n])
            self.norms = {q: _lp(mag, h, q, floats[n:]) for q in (1, 2, 4, np.inf)}
            np.multiply(grid.x, phys, out=phys)
            self.dxi_l2 = _l2(_forward_raw(grid, phys, out=piece_hat), grid.xi_spacing, scratch)
            np.multiply(_windowed_piece(grid, k, floats[:n]), hat.values, out=a)
            np.multiply(_abs_xi_power(grid, self.s), a, out=a)
            d = _inverse_raw(grid, a, out=piece_hat)
            self.d_norm = _lp(np.abs(d, out=scratch), h, self.p, scratch)
        ref = hat._peak
        self.vanishes = bool(self.peak == 0.0 or (ref > 0 and self.peak < _ZERO_PIECE_RTOL * ref))

    def _require_nonzero(self):
        if self.vanishes:
            raise UndefinedRatioError(f"P_k f vanishes on the grid for k = {self.k}")

    def bernstein(self, p, q) -> float:
        """||P_k f||_q / (2^{k(1/p - 1/q)} ||P_k f||_p); p, q in {1, 2, 4, np.inf}."""
        self._require_nonzero()
        return self.norms[q] / (2.0 ** (self.k * (1.0 / p - 1.0 / q)) * self.norms[p])

    def derivative_bernstein(self) -> tuple:
        """(lhs/rhs, rhs/lhs) with lhs = ||P_k f||_p, rhs = 2^{-sk} || |D|^s P_k f ||_p."""
        self._require_nonzero()
        lhs = self.norms[self.p]
        rhs = 2.0 ** (-self.s * self.k) * self.d_norm
        if rhs == 0.0 or lhs == 0.0:
            raise UndefinedRatioError(f"degenerate piece for k = {self.k}")
        return lhs / rhs, rhs / lhs

    def lemma1(self, denom: float) -> float:
        """2^k ||d/dxi (psi_k fhat)||_{L^2_xi} / denom.

        d/dxi (psi_k fhat) is the forward transform of -i x P_k f: the
        Plancherel manipulation of the lemma's proof, with no finite
        differencing on the xi grid. The piece transforms x P_k f instead: -i
        is an exact right angle, so the norm keeps every bit (``TestPieceEngine``).
        """
        if denom == 0.0:
            raise UndefinedRatioError("zero denominator")
        if self.peak == 0.0:
            return 0.0  # fhat vanishes on supp psi_k; the bound is trivially met
        return 2.0**self.k * self.dxi_l2 / denom

    def lemma2(self, s: float, denom: float) -> float:
        """||psi_k fhat||_{L^inf} / (||P_k f||_{L^2} + 2^{-sk} denom)."""
        if self.peak == 0.0:
            if denom == 0.0:
                raise UndefinedRatioError("zero denominator")
            return 0.0  # fhat vanishes on supp psi_k; the bound is trivially met
        total = self.hat_l2 + 2.0 ** (-s * self.k) * denom
        if total == 0.0:
            raise UndefinedRatioError("zero denominator")
        return self.peak / total


def _lemma_denominator(f: SampledFunction) -> float:
    """||f||_{L^2} + ||x f'||_{L^2}, the right side of both weighted-norm lemmas."""
    return l2_norm_physical(f) + weighted_norm(f)


def bernstein_ratio(f: SampledFunction, k: int, p, q) -> float:
    """||P_k f||_q / (2^{k(1/p - 1/q)} ||P_k f||_p) for 1 <= p <= q <= inf."""
    p, q = _exponent(p), _exponent(q)
    if p > q:
        raise ParameterError("need p <= q")
    return _Piece(f, k).bernstein(p, q)


def bernstein_derivative_ratio(f: SampledFunction, k: int, s: float, p) -> tuple:
    """The two ratios whose joint boundedness expresses ||P_k g||_p ~ 2^{-sk} ||D^s P_k g||_p.

    Returns (lower, upper) = (lhs/rhs, rhs/lhs) with lhs = ||P_k g||_p and
    rhs = 2^{-sk} ||(-Laplacian)^{s/2} P_k g||_p.
    """
    if not (0 <= s <= 2):
        raise ParameterError("s must be in [0, 2]")
    return _Piece(f, k, (s, _exponent(p))).derivative_bernstein()


def lemma1_ratio(f: SampledFunction, k: int) -> float:
    """2^k ||d/dxi (psi_k fhat)||_{L^2_xi} / (||f||_{L^2} + ||x f'||_{L^2})."""
    return _Piece(f, k).lemma1(_lemma_denominator(f))


def lemma2_ratio(f: SampledFunction, k: int, s: float) -> float:
    """||psi_k fhat||_{L^inf} / (||P_k f||_{L^2} + 2^{-sk}(||f||_{L^2} + ||x f'||_{L^2}))."""
    if not (0.5 < s < 1.0):
        raise ParameterError("s must lie in (1/2, 1)")
    return _Piece(f, k).lemma2(s, _lemma_denominator(f))
