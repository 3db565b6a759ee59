"""Term-by-term numerical instantiation of the decay proof.

For a fixed evaluation point (t, x) the propagator value is split over dyadic
frequency bands into a low block (A), a middle block (B) further partitioned
by the index sets I1/I2/I3 (how the ray x/t compares with the group speeds on
the annulus), and a high block (C).  Every term integrates the same amplitude
against its own window (psi_k or the low bump; the annuli around the
stationary point are opt-in), so all of them come from one set of quadrature
cells per (t, x), the cells ``trace-proof`` and criterion 9 share, with one
amplitude evaluation per node.  A window is the propagator's (intervals,
weight, cap), keyed by its label; the propagator cuts the support at the
window edges and caps the cells.  The full integral u(t, x) is computed
apart, on its own cells, so the reconstruction defect compares two
quadratures.  Each term is reported with the ratio to the right side of the
bound it must satisfy; the constants are implicit in the analysis, so the
suites pin the empirical ratios instead of asserting absolute thresholds.

Index-set membership uses closed inequalities exactly as stated, so a boundary
k may belong to two sets; it is recorded in both (upper bounds tolerate double
counting).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .calculus import hs_norm, weighted_norm
from .errors import ParameterError, UndefinedRatioError
from .grid import SampledFunction, l2_norm_physical
from .littlewood_paley import _BUMP, _usable_bands
from .propagator import (
    SpectralAmplitude,
    _amplitude,
    _dq,
    _windowed_integrals,
    stationary_point,
)

__all__ = [
    "BandPartition",
    "ProofTrace",
    "build_partition",
    "trace_terms",
    "kernel_lower_bound",
    "q0_estimate",
]

_K_SCAN = range(-64, 65)
# the constant M of the ray partition, 16 for every alpha: for alpha = 1/2,
# 2^{k(1-alpha)} = 2^{k/2} and the index sets are the original ones
_MARGIN = 16.0
# the proof terms in order, each with the BandPartition.membership label of its bands
_TERM_BANDS = {"A": "A", "B1": "I1", "B2": "I2", "B3": "I3", "C": "C"}
_U_LEVIN_NODES = 12  # Levin nodes per cell of u(t, x); the windowed pass uses the default


def lambda_low(t: float) -> float:
    return 2.0**10 / (1.0 + abs(t))


def lambda_high(t: float) -> float:
    return 2.0**-10 * (1.0 + abs(t))


@dataclass(frozen=True)
class BandPartition:
    """The frequency-band split of the proof at a fixed (t, x).

    ``a_max_k``/``c_min_k`` bound the (conceptually infinite) low and high
    blocks; ``middle`` and the index sets are explicit lists.  ``flagged`` is
    set for x = 0, where the ray |t/x| degenerates and I1 absorbs the whole
    middle band.
    """

    t: float
    x: float
    alpha: float
    middle: tuple
    I1: tuple
    I2: tuple
    I3: tuple
    a_max_k: int
    c_min_k: int
    flagged: bool = False

    def membership(self, k: int) -> list:
        out = []
        if k <= self.a_max_k:
            out.append("A")
        if k in self.I1:
            out.append("I1")
        if k in self.I2:
            out.append("I2")
        if k in self.I3:
            out.append("I3")
        if k >= self.c_min_k:
            out.append("C")
        return out


def _ray_sets(k: int, t: float, x: float, alpha: float) -> set:
    """Which of I1/I2/I3 the ray inequalities alone place k in (closed, so a
    boundary k can land in two).  The middle-band restriction scopes the
    partition, not these pointwise admissibility checks.  At x = 0 the ray
    degenerates and every k is in I1."""
    if t == 0.0:
        raise ParameterError("t must be nonzero")
    if x == 0.0:
        return {"I1"}
    ray = abs(t / x)
    v = 2.0 ** (k * (1.0 - alpha))
    out = set()
    if v <= ray / _MARGIN:
        out.add("I1")
    if ray / _MARGIN <= v <= _MARGIN * ray:
        out.add("I2")
    if v >= _MARGIN * ray:
        out.add("I3")
    return out


def build_partition(t: float, x: float, alpha: float = 0.5) -> BandPartition:
    """Evaluate the index-set inequalities exactly as written, with M = 16 (``_MARGIN``)."""
    if t == 0.0:
        raise ParameterError("t must be nonzero")
    lam = lambda_low(t)
    Lam = lambda_high(t)
    middle = tuple(k for k in _K_SCAN if lam <= 2.0**k <= Lam)
    a_max = max((k for k in _K_SCAN if 2.0**k <= lam), default=_K_SCAN.start - 1)
    c_min = min((k for k in _K_SCAN if 2.0**k >= Lam), default=_K_SCAN.stop)
    sets = {k: _ray_sets(k, t, x, alpha) for k in middle}
    I1, I2, I3 = (tuple(k for k in middle if name in sets[k]) for name in ("I1", "I2", "I3"))
    return BandPartition(
        t=t, x=x, alpha=alpha, middle=middle, I1=I1, I2=I2, I3=I3,
        a_max_k=a_max, c_min_k=c_min, flagged=bool(x == 0.0),
    )


class BoundedValue(NamedTuple):
    """A computed magnitude together with its ratio to the bound it must satisfy."""

    value: float
    ratio: float


def _annulus_intervals(k: int):
    r0, r1 = 2.0 ** (k - 1), 2.0 ** (k + 1)
    return [(-r1, -r0), (r0, r1)]


def _intersect(iv1, iv2):
    out = []
    for (a, b) in iv1:
        for (c, d) in iv2:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                out.append((lo, hi))
    return out


def _min_abs_dq(intervals, t, x, alpha) -> float:
    """min of |x + t Phi'| over the intervals, from their endpoints.

    Phi' is monotone on each sign branch, so where x + t Phi' keeps its sign
    on an interval its modulus is smallest at an endpoint.  An interval on
    which it changes sign holds the stationary point, and is refused.
    """
    best = np.inf
    for (a, b) in intervals:
        dq = _dq(np.array([a, b], dtype=float), t, x, alpha)
        if dq[0] * dq[1] < 0:
            raise ParameterError(
                f"x + t Phi' changes sign on ({a}, {b}): the interval holds the "
                "stationary point"
            )
        best = min(best, float(np.min(np.abs(dq))))
    return best


def kernel_lower_bound(k: int, t: float, x: float, alpha: float = 0.5) -> BoundedValue:
    """min over supp psi_k of |x/t + Phi'(xi)|, and its ratio to 2^{-k(1-alpha)}.

    Only meaningful for k in I1 or I3, where the ray is separated from the
    group speeds on the annulus and integration by parts wins.
    """
    if not ({"I1", "I3"} & _ray_sets(k, t, x, alpha)):
        raise ParameterError(f"k = {k} is not in I1 or I3 for (t, x) = ({t}, {x})")
    value = _min_abs_dq(_annulus_intervals(k), t / abs(t), x / abs(t), alpha)
    # x/t + Phi' evaluated by scaling: |x/t + Phi'| = |x' + t' Phi'| with t' = 1
    return BoundedValue(value, value / 2.0 ** (-k * (1.0 - alpha)))


def q0_estimate(k: int, l: int, t: float, x: float, alpha: float = 0.5):
    """Infimum of |Q'| over supp psi_k intersected with {xi - xi0 in supp psi_l}.

    Returns None (a skip signal) when the intersection is empty: the
    corresponding term contributes nothing to the annulus sum.  Otherwise
    returns the infimum and its ratio to |t| 2^{l - (2-alpha) k}.
    """
    if "I2" not in _ray_sets(k, t, x, alpha):
        raise ParameterError(f"k = {k} is not in I2 for (t, x) = ({t}, {x})")
    xi0 = stationary_point(t, x, alpha)
    if xi0 is None:
        raise ParameterError("no stationary point for this (t, x)")
    shifted = [(xi0 + a, xi0 + b) for (a, b) in _annulus_intervals(l)]
    pieces = _intersect(_annulus_intervals(k), shifted)
    if not pieces:
        return None
    inf = _min_abs_dq(pieces, t, x, alpha)
    bound = abs(t) * 2.0 ** (l - (2.0 - alpha) * k)
    return BoundedValue(inf, inf / bound)


def choose_l0(k: int, t: float, alpha: float) -> int:
    """2^{l0} ~ 2^{(2-alpha)k/2} / |t|^{1/2}, realized by rounding the exponent."""
    return round((2.0 - alpha) * k / 2.0 - 0.5 * math.log2(abs(t)))


def _annulus_windows(amp: SpectralAmplitude, k: int, t: float, x: float, alpha: float) -> dict:
    """The stationary-phase windows of band k: the centre, then the l-annuli around xi0.

    Keyed (k, "center") and (k, l): the part of supp psi_k each covers, the weight
    psi_k times the centre bump or psi_l(. - xi0), and the cell width that resolves
    that weight.  The centre comes first (its intervals may be empty); an l-annulus
    is listed only where it meets the band, until 2^{l-1} exceeds psi_k's reach from xi0.
    """
    xi0 = stationary_point(t, x, alpha)
    l0 = choose_l0(k, t, alpha)
    band = _intersect(_annulus_intervals(k), amp.support)
    scale = min(8.0 * amp.xi_spacing, 2.0**k / 8.0)

    def center_weight(xi):
        return _BUMP.dyadic_piece(xi, k) * _BUMP((xi - xi0) / 2.0**l0)

    center_band = _intersect(band, [(xi0 - 2.0 ** (l0 + 1), xi0 + 2.0 ** (l0 + 1))])
    out = {(k, "center"): (center_band, center_weight, min(scale, 2.0**l0 / 4.0))}
    reach = 2.0 ** (k + 1) + abs(xi0)
    l = l0 + 1
    while 2.0 ** (l - 1) <= reach:
        shifted = [(xi0 + a, xi0 + b) for (a, b) in _annulus_intervals(l)]
        pieces = _intersect(band, shifted)
        if pieces:
            def annulus_weight(xi, _l=l):
                return _BUMP.dyadic_piece(xi, k) * _BUMP.dyadic_piece(xi - xi0, _l)

            out[(k, l)] = (pieces, annulus_weight, min(scale, 2.0**l / 4.0))
        l += 1
    return out


@dataclass(frozen=True)
class ProofTrace:
    """All traced magnitudes at one (t, x), with their bound ratios."""

    partition: BandPartition
    u_value: complex
    reconstruction_defect: float
    piece_mags: dict
    memberships: dict
    low_mag: float
    terms: dict
    q0_map: dict = field(default_factory=dict)
    annuli: dict = field(default_factory=dict)


def trace_terms(phi: SampledFunction, t: float, x: float, alpha: float = 0.5,
                with_annuli: bool = False) -> ProofTrace:
    """Compute |P_k u(t, x)| for every active band and aggregate the proof terms.

    ``terms`` maps each term, A to C, to its value and its ratio to the right side
    of its bound: finite, recorded ratios standing in for the implicit constants.
    A sample with an empty occupied band traces to zeros; on any other, a bound
    that vanishes (its norms underflow) raises UndefinedRatioError.  Annuli are
    opt-in: ``with_annuli`` adds the l-annuli around xi0 (``annuli``, ``q0_map``),
    whose edges also cut the cells that ``trace-proof`` and criterion 9 share.
    """
    part = build_partition(t, x, alpha)
    amp = _amplitude(phi.spectrum)
    if not amp.support:
        return ProofTrace(
            partition=part, u_value=0.0j, reconstruction_defect=0.0,
            piece_mags={}, memberships={}, low_mag=0.0,
            terms=dict.fromkeys(_TERM_BANDS, BoundedValue(0.0, 0.0)),
        )
    l2 = l2_norm_physical(phi)
    w = weighted_norm(phi)
    h1 = hs_norm(phi, 1.0)
    hs = hs_norm(phi, (2.0 - alpha) / 2.0)
    at = abs(t)
    lw = l2 + w
    b2_rate = at**-0.5 + at ** ((2.0 - 3.0 * alpha) / 4.0 - 0.75)
    # term -> (factor, bound): the ratio of its value v to its bound is v * factor / bound
    bounds = {
        "A": (1.0, (1.0 + at) ** -0.5 * l2),
        "B1": (at, math.log1p(at) * lw),
        "B2": (1.0, b2_rate * (hs + w)),
        "B3": (at**0.5, lw),
        "C": (1.0, (1.0 + at) ** -0.5 * h1),
    }
    if not all(bound > 0.0 for _, bound in bounds.values()):
        raise UndefinedRatioError("the right side of a proof-term bound vanishes")
    active = _usable_bands(phi.grid, _K_SCAN, np.abs(phi.grid.xi[phi.spectrum.occupied])) or [0]
    k_lo = min(active)

    scale8 = 8.0 * amp.xi_spacing
    windows = {
        k: (_intersect(_annulus_intervals(k), amp.support),
            functools.partial(_BUMP.dyadic_piece, k=k), min(scale8, 2.0**k / 8.0))
        for k in active
    }

    def low_weight(xi):
        return _BUMP(xi / 2.0 ** (k_lo - 1))

    low_band = _intersect([(-(2.0**k_lo), 0.0 - amp.xi_spacing * 0.25),
                           (amp.xi_spacing * 0.25, 2.0**k_lo)], amp.support)
    windows["low"] = (low_band, low_weight, min(scale8, 2.0**k_lo / 8.0))
    if with_annuli and not part.flagged:
        for k in part.I2:
            if k in active:
                windows.update(_annulus_windows(amp, k, t, x, alpha))
    vals = dict(zip(windows, _windowed_integrals(amp, amp.support, list(windows.values()),
                                                 t, x, alpha)))
    pieces_c = {k: vals[k] / (2.0 * np.pi) for k in active}
    low_c = vals["low"] / (2.0 * np.pi)

    # the full integral on its own cells, with their own node count and no
    # edge at a window cut, so the defect compares two quadratures
    u_val = _windowed_integrals(amp, amp.support, [(None, None, scale8)], t, x, alpha,
                                levin_nodes=_U_LEVIN_NODES)[0] / (2.0 * np.pi)
    recon = low_c + sum(pieces_c.values())
    defect = abs(recon - u_val)

    mags = {k: abs(v) for k, v in pieces_c.items()}
    members = {k: part.membership(k) for k in active}

    low = {"A": abs(low_c)}  # term -> the low block's share of it
    terms = {}
    for name, band in _TERM_BANDS.items():
        factor, bound = bounds[name]
        value = low.get(name, 0) + sum(m for k, m in mags.items() if band in members[k])
        terms[name] = BoundedValue(value, value * factor / bound)

    q0s, annuli = {}, {}
    for key, val in vals.items():
        if not isinstance(key, tuple):
            continue
        k, l = key
        annuli.setdefault(k, []).append((l, abs(val) / (2.0 * np.pi)))
        if l != "center":
            est = q0_estimate(k, l, t, x, alpha)
            if est is not None:
                q0s[key] = est

    return ProofTrace(
        partition=part, u_value=u_val, reconstruction_defect=defect,
        piece_mags=mags, memberships=members, low_mag=abs(low_c),
        terms=terms, q0_map=q0s, annuli=annuli,
    )
