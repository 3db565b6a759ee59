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
are functionals of one dyadic piece and are computed by ``_Piece``, which holds
the Nyquist guard and the zero-piece test, forms psi_k fhat once and adds at
most three transforms (P_k f, |D|^s P_k f and the transform of -i x P_k f).
Every piece reads the sample's cached spectrum, so a sample is transformed once
for all its pieces and rows.  A piece costs little beyond its transforms:
psi_k is evaluated only where 2^{k-1} <= |xi| <= 2^{k+1} (it is exactly 0.0
elsewhere), the four L^p norms of |P_k f| are formed together once, and every
temporary lives in one workspace per grid (``_workspace``), on which no array
that leaves the piece is built.
"""

from __future__ import annotations

import functools
from functools import cached_property

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


def _annulus_holds(abs_xi: np.ndarray, k: int) -> bool:
    """True when some |xi| of ``abs_xi`` lies in the open annulus 2^{k-1} < |xi| < 2^{k+1}."""
    return bool(np.any((abs_xi > 2.0 ** (k - 1)) & (abs_xi < 2.0 ** (k + 1))))


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


@functools.lru_cache(maxsize=1)
def _workspace(grid: GridSpec) -> tuple:
    """Two complex and one float N-array of scratch, each filled and read within one method call,
    and -i x, read-only (-i x f transforms to d/dxi fhat)."""
    n, minus_ix = grid.size, -1j * grid.x
    minus_ix.flags.writeable = False
    return np.empty(n, np.complex128), np.empty(n, np.complex128), np.empty(n), minus_ix


def _windowed_piece(grid: GridSpec, k: int, out: np.ndarray) -> np.ndarray:
    """``_BUMP.dyadic_piece(grid.xi, k)`` bit for bit, into ``out``: the bump runs on 2^{k-1} <= xi
    <= 2^{k+1}; it is even and the xi axis exactly symmetric, so xi < 0 takes its mirror image."""
    m = grid.size // 2
    xi = grid.xi[m:]
    lo, hi = np.searchsorted(xi, 2.0 ** (k - 1)), np.searchsorted(xi, 2.0 ** (k + 1), "right")
    out.fill(0.0)
    out[m + lo:m + hi] = _BUMP.dyadic_piece(xi[lo:hi], k)
    out[m - hi + 1:m - lo + 1] = out[m + hi - 1:m + lo - 1:-1]
    return out


class _Piece:
    """The dyadic piece psi_k fhat of one sample, and every ratio built from it.

    The Nyquist guard runs on construction. psi_k * fhat is formed once, from
    the sample's cached spectrum; P_k f is inverted on first use and kept, so
    the Bernstein and lemma ratios of one (sample, k) share it, as they share
    its L^p norms. Each ratio adds at most one transform of its own.
    """

    def __init__(self, f: SampledFunction, k: int):
        _require_in_band(f.grid, k)
        self.grid = f.grid
        self.k = k
        self.spectrum = f.spectrum
        psi = _windowed_piece(self.grid, k, _workspace(self.grid)[2])
        self.piece_hat = psi * self.spectrum.values

    @cached_property
    def phys(self) -> SampledFunction:
        """P_k f."""
        return SampledFunction(self.grid, _inverse_raw(self.grid, self.piece_hat), _adopt=True)

    @cached_property
    def _peak(self) -> float:
        """max |psi_k fhat|."""
        return float(np.max(np.abs(self.piece_hat, out=_workspace(self.grid)[2])))

    @cached_property
    def _norms(self) -> dict:
        """||P_k f||_p for p = 1, 2, 4, inf, from one |P_k f|."""
        a, _, mag, _ = _workspace(self.grid)
        np.abs(self.phys.values, out=mag)
        terms = a.view(np.float64)[:mag.size]
        return {p: _lp(mag, self.grid.spacing, p, terms) for p in (1, 2, 4, np.inf)}

    @cached_property
    def _vanishes(self) -> bool:
        ref = self.spectrum._peak
        return bool(self._peak == 0.0 or (ref > 0 and self._peak < _ZERO_PIECE_RTOL * ref))

    def _require_nonzero(self):
        if self._vanishes:
            raise UndefinedRatioError(f"P_k f vanishes on the grid for k = {self.k}")

    def bernstein(self, p, q) -> float:
        """||P_k f||_q / (2^{k(1/p - 1/q)} ||P_k f||_p); p, q in {1, 2, 4, np.inf}."""
        self._require_nonzero()
        p, q = _exponent(p), _exponent(q)
        return self._norms[q] / (2.0 ** (self.k * (1.0 / p - 1.0 / q)) * self._norms[p])

    def derivative_bernstein(self, s: float, p) -> tuple:
        """(lhs/rhs, rhs/lhs) with lhs = ||P_k f||_p, rhs = 2^{-sk} || |D|^s P_k f ||_p."""
        self._require_nonzero()
        p = _exponent(p)
        a, b, mag, _ = _workspace(self.grid)
        np.multiply(_abs_xi_power(self.grid, s), self.piece_hat, out=a)
        dpiece = _inverse_raw(self.grid, a, out=b)
        lhs = self._norms[p]
        rhs = 2.0 ** (-s * self.k) * _lp(np.abs(dpiece, out=mag), self.grid.spacing, p, mag)
        if rhs == 0.0 or lhs == 0.0:
            raise UndefinedRatioError(f"degenerate piece for k = {self.k}")
        return lhs / rhs, rhs / lhs

    def lemma1(self, denom: float) -> float:
        """2^k ||d/dxi (psi_k fhat)||_{L^2_xi} / denom.

        d/dxi (psi_k fhat) is the forward transform of -i x P_k f: the
        Plancherel manipulation of the lemma's proof, with no finite
        differencing on the xi grid.
        """
        if denom == 0.0:
            raise UndefinedRatioError("zero denominator")
        if self._peak == 0.0:
            return 0.0  # fhat vanishes on supp psi_k; the bound is trivially met
        a, b, mag, minus_ix = _workspace(self.grid)
        np.multiply(minus_ix, self.phys.values, out=a)
        dxi = _forward_raw(self.grid, a, out=b)
        return 2.0**self.k * _l2(dxi, self.grid.xi_spacing, mag) / denom

    def lemma2(self, s: float, denom: float) -> float:
        """||psi_k fhat||_{L^inf} / (||P_k f||_{L^2} + 2^{-sk} denom)."""
        if self._peak == 0.0:
            if denom == 0.0:
                raise UndefinedRatioError("zero denominator")
            return 0.0  # fhat vanishes on supp psi_k; the bound is trivially met
        piece_l2 = (_l2(self.piece_hat, self.grid.xi_spacing, _workspace(self.grid)[2])
                    / np.sqrt(2.0 * np.pi))
        total = piece_l2 + 2.0 ** (-s * self.k) * denom
        if total == 0.0:
            raise UndefinedRatioError("zero denominator")
        return self._peak / total


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
    return _Piece(f, k).derivative_bernstein(s, p)


def lemma1_ratio(f: SampledFunction, k: int) -> float:
    """2^k ||d/dxi (psi_k fhat)||_{L^2_xi} / (||f||_{L^2} + ||x f'||_{L^2})."""
    return _Piece(f, k).lemma1(_lemma_denominator(f))


def lemma2_ratio(f: SampledFunction, k: int, s: float) -> float:
    """||psi_k fhat||_{L^inf} / (||P_k f||_{L^2} + 2^{-sk}(||f||_{L^2} + ||x f'||_{L^2}))."""
    if not (0.5 < s < 1.0):
        raise ParameterError("s must lie in (1/2, 1)")
    return _Piece(f, k).lemma2(s, _lemma_denominator(f))


def resolvable_k(grid: GridSpec, k: int) -> bool:
    """True when the annulus 2^{k-1} < |xi| < 2^{k+1} contains at least one grid node
    and fits below the Nyquist frequency."""
    return _in_band(grid, k) and _annulus_holds(np.abs(grid.xi), k)
