"""End-to-end verification pipeline: seeded data, evolution, decay ratios, suites.

The decay check is deliberately conservative: rather than fitting a decay
exponent (which would over-claim), it verifies that the normalized ratio

    R(t) = (1 + |t|)^{1/2} ||u(t)||_inf / (||phi||_{H^1} + ||x phi'||_{L^2})

stays finite and shows no late growth across a dyadic time grid, and pins the
empirical maximum as a regression constant.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .calculus import _vertex, locate_sup, norms
from .errors import (
    DomainTooSmallError,
    ParameterError,
    SuiteDegenerateError,
    UndefinedRatioError,
)
from .grid import GridSpec, SampledFunction, SpectralFunction, inverse_ft
from .littlewood_paley import _lemma_denominator, _Piece, _usable_bands
from .propagator import (_amplitude, _multipliers, _node_ranges, evolve_quadrature,
                         evolve_spectral, phase_speed)
from .proof_tracer import choose_l0, kernel_lower_bound, q0_estimate, trace_terms
from .schwartz import generate_schwartz, schwartz_sample

__all__ = [
    "SuiteConfig",
    "DecayReport",
    "run_decay",
    "run_lemma_suites",
    "run_trace",
    "run_trace_ratio_suite",
    "tracer_constant_suite",
    "decay_rows",
    "write_csv",
    "read_csv_rows",
]

DYADIC_TIMES = tuple(float(2**i) for i in range(0, 11))
_TABLE_TIMES = 16  # the most times whose multipliers a decay run holds at once


@dataclass(frozen=True)
class SuiteConfig:
    """Shared configuration for the harness commands."""

    seed: int = 0
    n_samples: int = 20
    alpha: float = 0.5
    times: tuple = DYADIC_TIMES
    half_width: float = 8192.0
    grid_n: int = 131072
    band: tuple = (0.25, 32.0)
    backend: str = "auto"
    allow_empty_band: bool = False

    def __post_init__(self):
        if self.backend not in ("auto", "spectral", "quadrature"):
            raise ParameterError("backend must be auto, spectral, or quadrature")
        if self.n_samples < 1:
            raise ParameterError("n_samples must be positive")
        if not (0 < self.band[0] < self.band[1]):
            raise ParameterError("band must satisfy 0 < lo < hi")
        for t in self.times:
            if not math.isfinite(t):
                raise ParameterError(f"times must be finite, got {t}")
        if list(self.times) != sorted(set(self.times)):
            raise ParameterError("times must be strictly increasing")

    def grid(self) -> GridSpec:
        return GridSpec(half_width=self.half_width, size=self.grid_n)


@dataclass(frozen=True)
class DecayReport:
    """Per-sample decay record: sup norms, argmax locations, normalized ratios."""

    alpha: float
    seed: int
    sample: int
    times: tuple
    sup_norms: tuple
    argmax_x: tuple
    ratios: tuple
    backends: tuple


def _quadrature_sup(phi: SampledFunction, t: float, alpha: float):
    """Sup over x of |u(t, x)|, located by the spectral backend and valued by quadrature.

    phi's spectral spline is sampled on the grid (R L, R N), at phi's spacing h, with R
    the least power of 2 for which R L passes both the reach of u(t) (L plus |t| times
    the fastest group speed) and the wrap guard; ``locate_sup`` finds the argmax there.
    Two 3-point vertex steps of |u| by quadrature, with stencils h/2 then h/8, each
    moving at most one stencil, refine it: 7 evaluations of u, the last being the value.
    """
    hat, grid = phi.spectrum, phi.grid
    amp = _amplitude(hat)
    r, reach = 1, grid.half_width + abs(t) * phase_speed(hat.occupied_band()[0], alpha)
    while True:
        while r * grid.half_width <= reach:
            r *= 2
        wide = GridSpec(r * grid.half_width, r * grid.size)
        values = np.zeros(wide.size, dtype=np.complex128)
        for lo, hi in _node_ranges(wide.xi, amp.support):
            values[lo:hi] = amp(wide.xi[lo:hi])
        try:
            u = evolve_spectral(inverse_ft(SpectralFunction(wide, values, _adopt=True)), t, alpha)
            break
        except DomainTooSmallError as err:
            reach = max(err.min_half_width, r * grid.half_width)
    x = locate_sup(u).x
    for stencil in (0.5 * grid.spacing, 0.125 * grid.spacing):
        ym, y0, yp = np.abs(evolve_quadrature(hat, t, [x - stencil, x, x + stencil], alpha))
        x += _vertex(ym, y0, yp, 1.0)[0] * stencil
    return float(abs(evolve_quadrature(hat, t, [x], alpha)[0])), x


def _cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask); 1 where that is unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fan_out(fn, items) -> list:
    """``[fn(i) for i in items]``, run on one thread per CPU, up to one per item.

    pocketfft and numpy's ufuncs release the GIL, so independent items run at
    once. The results come back in input order, and an error is raised for the
    first failing item in that order, as the plain loop would raise it. With
    one CPU or one item, ``fn`` runs in the calling thread and no thread starts.
    ``fn`` may share only read-only state between items (``TestFanOut``).
    """
    items = list(items)
    width = min(len(items), _cpus())
    if width <= 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, items))


def _occupied_sample(seed: int, i: int, band: tuple, grid: GridSpec) -> SampledFunction:
    """Sample i of a suite over ``band``; raises if the band holds no occupied grid frequency."""
    phi = generate_schwartz(seed, i, band, grid)
    if phi.spectrum.occupied_band() is None:
        raise SuiteDegenerateError(
            f"sample {i}: band {band} holds no occupied frequency of the "
            f"grid (xi spacing {grid.xi_spacing:g})"
        )
    return phi


def _decay_report(config: SuiteConfig, grid: GridSpec, halves: dict, i: int) -> DecayReport:
    """Sample i of the suite, evolved over the time grid with the run's multipliers
    ``halves`` (``_multipliers``); raises if its band is empty."""
    phi = _occupied_sample(config.seed, i, config.band, grid)
    nb = norms(phi)
    denom = nb.h1 + nb.weighted
    sups, args, ratios, backends = [], [], [], []
    for t in config.times:
        backend, sup, xloc = config.backend, math.nan, math.nan
        if backend != "quadrature":
            try:
                # no name holds u: it goes before the next time's evolution starts
                sup, xloc = locate_sup(evolve_spectral(phi, t, config.alpha, _half=halves.get(t)))
                backend = "spectral"
            except DomainTooSmallError:
                # auto falls back to quadrature; forced spectral records the guard
                backend = "quadrature" if backend == "auto" else "error:domain-too-small"
        if backend == "quadrature":
            sup, xloc = _quadrature_sup(phi, t, config.alpha)
        sups.append(sup)
        args.append(xloc)
        ratios.append((1.0 + abs(t)) ** 0.5 * sup / denom)
        backends.append(backend)
    return DecayReport(
        alpha=config.alpha, seed=config.seed, sample=i,
        times=tuple(config.times), sup_norms=tuple(sups),
        argmax_x=tuple(args), ratios=tuple(ratios),
        backends=tuple(backends),
    )


def run_decay(config: SuiteConfig) -> list:
    """Evolve each sample over the time grid and assemble the decay reports.

    The multiplier of each nonzero time among the first ``_TABLE_TIMES`` is
    formed once, in the calling thread, unless the backend is forced to
    quadrature; a later time's is formed by each sample, so the table's
    memory does not grow with the run's length. The samples are independent
    and run at once, one per CPU (``_fan_out``). A sample whose band holds no
    occupied grid frequency has nothing to evolve; the suite is then
    degenerate and an error is raised for the first such sample.
    """
    grid = config.grid()
    forced_quadrature = config.backend == "quadrature"
    halves = {} if forced_quadrature else _multipliers(grid, config.alpha,
                                                       config.times[:_TABLE_TIMES])
    report = functools.partial(_decay_report, config, grid, halves)
    return _fan_out(report, range(config.n_samples))


LEMMA_GRID = GridSpec(half_width=200.0, size=131072)
LEMMA_K_RANGE = (-8, 8)  # the dyadic bands k the lemma suites try, both ends included
TRACE_GRID = GridSpec(half_width=200.0, size=32768)


# row name -> the ratio of one (sample, k), from the sample's dyadic piece and
# its lemma denominator ||f||_2 + ||x f'||_2; the rows run in this order, and
# bern2_s1_p2 reads the piece's default |D|^s P_k f norm, s = 1 and p = 2
_ROW_RATIOS = {
    "bern_1_2": lambda piece, denom: piece.bernstein(1, 2),
    "bern_2_4": lambda piece, denom: piece.bernstein(2, 4),
    "bern_2_inf": lambda piece, denom: piece.bernstein(2, np.inf),
    "bern2_s1_p2": lambda piece, denom: max(piece.derivative_bernstein()),
    "lemma1": lambda piece, denom: piece.lemma1(denom),
    "lemma2_s0.75": lambda piece, denom: piece.lemma2(0.75, denom),
}


def run_lemma_suites(config: SuiteConfig, grid: GridSpec | None = None) -> list:
    """Empirical max/median constants for the Bernstein and lemma ratio checks.

    Each sample is transformed once, and each of its dyadic pieces is formed
    once and shared by every row. The pieces of a sample are formed at once,
    one per CPU (``_fan_out``), and read in k order. Undefined ratios (pieces
    that vanish identically on the grid) are excluded from the statistics; k
    values whose annulus contains no grid node at all are skipped up front,
    and count in no row.  The suite is degenerate, and an error is raised, when no k is
    usable or more than 5% of the evaluated cases of a row are undefined.
    """
    grid = grid or LEMMA_GRID
    usable = _usable_bands(grid, range(LEMMA_K_RANGE[0], LEMMA_K_RANGE[1] + 1), np.abs(grid.xi))
    if not usable:
        raise SuiteDegenerateError(
            f"no k in {LEMMA_K_RANGE} has an annulus resolved by the grid "
            f"(xi spacing {grid.xi_spacing:g}, Nyquist {grid.nyquist:g})"
        )
    values = {name: [] for name in _ROW_RATIOS}
    undefined = dict.fromkeys(_ROW_RATIOS, 0)
    for i in range(config.n_samples):
        f = schwartz_sample(grid, config.seed, i)
        denom = _lemma_denominator(f)
        for piece in _fan_out(functools.partial(_Piece, f), usable):
            for name, ratio in _ROW_RATIOS.items():
                try:
                    values[name].append(ratio(piece, denom))
                except UndefinedRatioError:
                    undefined[name] += 1

    table = []
    for name in _ROW_RATIOS:
        total = len(values[name]) + undefined[name]
        if undefined[name] > 0.05 * total:
            raise SuiteDegenerateError(
                f"{name}: {undefined[name]}/{total} cases undefined; suite degenerate"
            )
        arr = np.asarray(values[name])
        table.append(
            {
                "check": name,
                "n": len(arr),
                "n_undefined": undefined[name],
                "max": float(np.max(arr)),
                "median": float(np.median(arr)),
            }
        )
    return table


def _dominant_speed(phi: SampledFunction, alpha: float) -> float:
    """Group speed |Phi'| at the spectral peak of phi; x = -t * speed is its dominant ray."""
    peak_xi = abs(float(phi.grid.xi[int(np.argmax(np.abs(phi.spectrum.values)))]))
    return phase_speed(peak_xi, alpha)


def _trace_sample(config: SuiteConfig, i: int, grid: GridSpec | None) -> SampledFunction:
    """Sample i of a trace suite, on TRACE_GRID unless ``grid`` is given, its band capped at
    0.9 of the grid's Nyquist frequency; raises if that band is empty on the grid."""
    grid = grid or TRACE_GRID
    band = (config.band[0], min(config.band[1], 0.9 * grid.nyquist))
    return _occupied_sample(config.seed, i, band, grid)


def run_trace(config: SuiteConfig, t: float, grid: GridSpec | None = None) -> dict:
    """Trace every proof term for the first sample of the configured suite, on its dominant ray.

    Requires |t| >= 2^10 for a nonempty middle band unless allow_empty_band
    is set (the split constants 2^{+-10} force (B) empty below that). A band
    that holds no occupied grid frequency leaves nothing to trace and raises.
    """
    if abs(t) < 2**10 and not config.allow_empty_band:
        raise ParameterError(
            "middle band is empty for |t| < 2^10; pass allow_empty_band to proceed"
        )
    phi = _trace_sample(config, 0, grid)
    x = -t * _dominant_speed(phi, config.alpha)
    trace = trace_terms(phi, t, x, config.alpha)
    rows = [{"section": "piece", "k": k, "membership": "+".join(trace.memberships[k]),
             "magnitude": mag, "bound_ratio": ""}
            for k, mag in sorted(trace.piece_mags.items())]
    rows += [{"section": name, "k": "", "membership": "", "magnitude": term.value,
              "bound_ratio": term.ratio}
             for name, term in trace.terms.items()]
    return {"trace": trace, "rows": rows, "x": x, "t": t}


TRACE_SUITE_TIMES = (2048.0, 4096.0, 8192.0)


def run_trace_ratio_suite(config: SuiteConfig, times: tuple = TRACE_SUITE_TIMES,
                          grid: GridSpec | None = None) -> dict:
    """Max of each proof-term bound ratio over n_samples data and the time set.

    Each sample is observed on its dominant stationary ray (where the decay
    bound is tightest) and at rays a factor of 8 faster and slower, so the
    non-stationary regimes contribute too.  Returns the maxima keyed by term
    name; these are the quantities pinned as regression constants.  As in
    ``run_trace``, an empty band raises.
    """
    maxima = {}
    for i in range(config.n_samples):
        phi = _trace_sample(config, i, grid)
        speed = _dominant_speed(phi, config.alpha)
        for t in times:
            for ray_factor in (0.125, 1.0, 8.0):
                x = -t * speed * ray_factor
                tr = trace_terms(phi, t, x, config.alpha)
                for name, term in tr.terms.items():
                    maxima[name] = max(maxima.get(name, 0.0), term.ratio)
    return maxima


def tracer_constant_suite(alpha: float = 0.5) -> dict:
    """Smallest normalized kernel and stationary-phase lower bounds over a sweep.

    The sweep places the observation ray |t/x| at fixed multiples of the
    annulus group speed 2^{k(1-alpha)}: factors 1/64 and 64 for the
    non-stationary regimes (integration by parts), and 1/2, 1, 2 for the
    stationary regime, where the infimum of |Q'| over each shifted annulus is
    compared to |t| 2^{l-(2-alpha)k}.  Both minima must stay bounded away from
    zero for the dispersive estimate to close.
    """
    kernel_min = math.inf
    q0_min = math.inf
    for t in (2048.0, 4096.0, 8192.0, 16384.0):
        for k in range(-4, 11, 2):
            speed = 2.0 ** (k * (1.0 - alpha))
            for factor in (64.0, 1.0 / 64.0):
                res = kernel_lower_bound(k, t, -t / (factor * speed), alpha)
                kernel_min = min(kernel_min, res.ratio)
            for factor in (0.5, 1.0, 2.0):
                x = -t / (factor * speed)
                l0 = choose_l0(k, t, alpha)
                for l in range(l0 + 1, l0 + 9):
                    est = q0_estimate(k, l, t, x, alpha)
                    if est is not None:
                        q0_min = min(q0_min, est.ratio)
    return {"kernel": kernel_min, "q0": q0_min}


# ---------------------------------------------------------------------------
# CSV contract
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def decay_rows(reports: list) -> list:
    rows = []
    for r in reports:
        for t, sup, ax, ratio, backend in zip(
            r.times, r.sup_norms, r.argmax_x, r.ratios, r.backends
        ):
            rows.append(
                {
                    "seed": r.seed,
                    "sample": r.sample,
                    "alpha": r.alpha,
                    "t": t,
                    "sup_norm": sup,
                    "argmax_x": ax,
                    "ratio": ratio,
                    "backend": backend,
                }
            )
    return rows


def write_csv(rows: list, path) -> None:
    if not rows:
        raise ParameterError("refusing to write an empty report")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


def read_csv_rows(path) -> list:
    """Parse a report back; numeric fields are restored exactly (17 digits suffice)."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = {}
            for key, val in row.items():
                if key in ("seed", "sample", "k"):
                    try:
                        parsed[key] = int(val)
                        continue
                    except ValueError:
                        pass
                try:
                    parsed[key] = float(val)
                except ValueError:
                    parsed[key] = val
            out.append(parsed)
    return out
