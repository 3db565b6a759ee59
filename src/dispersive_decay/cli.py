"""Command-line interface for the verification harness.

Exit codes: 0 pass, 1 regression-pinned constant exceeded, 2 invalid
configuration, 3 numerical guard failure.  Every command is a deterministic
function of its flags and seed; CSV files are the output contract.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import pins
from .errors import (
    AccuracyNotMetError,
    DomainTooSmallError,
    InvalidInputError,
    OutOfBandError,
    ParameterError,
    SuiteDegenerateError,
)
from .grid import GridSpec
from .harness import (
    DYADIC_TIMES,
    TRACE_GRID,
    TRACE_SUITE_TIMES,
    SuiteConfig,
    decay_rows,
    run_bernstein_suite,
    run_decay,
    run_lemma_suites,
    run_trace,
    write_csv,
)
from .propagator import factorization_residual, stationary_point
from .schwartz import generate_schwartz

EXIT_PASS = 0
EXIT_PIN_EXCEEDED = 1
EXIT_BAD_CONFIG = 2
EXIT_GUARD_FAILURE = 3


def _add_common(p: argparse.ArgumentParser, half_width_default: float):
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--grid-n", type=int, default=131072)
    p.add_argument("--half-width", type=float, default=half_width_default)
    p.add_argument("--band", type=str, default="0.25:32",
                   help="spectral band as lo:hi")
    p.add_argument("--t-grid", type=str, default="dyadic",
                   help="'dyadic' or a comma-separated list of times")
    p.add_argument("--backend", choices=["auto", "spectral", "quadrature"],
                   default="auto")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--allow-empty-band", action="store_true")


def _parse_band(s: str) -> tuple:
    try:
        lo, hi = (float(v) for v in s.split(":"))
    except ValueError:
        raise ParameterError(f"--band must be lo:hi, got {s!r}") from None
    return (lo, hi)


def _parse_times(s: str) -> tuple:
    if s == "dyadic":
        return DYADIC_TIMES
    try:
        return tuple(float(v) for v in s.split(","))
    except ValueError:
        raise ParameterError(f"--t-grid must be 'dyadic' or a list a,b,..., got {s!r}") from None


def _config(args) -> SuiteConfig:
    return SuiteConfig(
        seed=args.seed,
        n_samples=args.samples,
        alpha=args.alpha,
        times=_parse_times(args.t_grid),
        half_width=args.half_width,
        grid_n=args.grid_n,
        band=_parse_band(args.band),
        backend=args.backend,
        out=args.out,
        allow_empty_band=args.allow_empty_band,
    )


def cmd_verify_decay(args) -> int:
    config = _config(args)
    reports = run_decay(config)
    rows = decay_rows(reports)
    if config.out:
        write_csv(rows, config.out)
    status = EXIT_PASS
    global_max = 0.0
    early, late = [], []
    for r in reports:
        finite = [v for v in r.ratios if math.isfinite(v)]
        if len(finite) != len(r.ratios):
            print(f"sample {r.sample}: non-finite ratio entries", file=sys.stderr)
            status = EXIT_GUARD_FAILURE
            continue
        global_max = max(global_max, max(finite))
        early.extend(v for t, v in zip(r.times, r.ratios) if t <= 64)
        late.extend(v for t, v in zip(r.times, r.ratios) if t >= 512)
    pinned = pins.DECAY_MAX_RATIO.get((config.seed, config.alpha))
    print(f"max R(t) over suite: {global_max:.6g} (pinned: {pinned})")
    if early and late:
        # Diagnostic only: ratio of the suite's late-window maximum to its
        # early-window maximum.  Values near 1 are consistent with the
        # (1+|t|)^{-1/2} rate; values well above 1 suggest a slower rate or
        # samples still far from the stationary-phase regime.
        print(f"late/early window ratio: {max(late) / max(early):.4f}")
    if pinned is not None and global_max > pins.PIN_HEADROOM * pinned:
        print("regression: max ratio exceeds pinned value", file=sys.stderr)
        status = max(status, EXIT_PIN_EXCEEDED)
    return status


def _suite_command(args, runner) -> int:
    config = _config(args)
    grid = GridSpec(half_width=args.half_width, size=args.grid_n)
    table = runner(config, grid)
    status = EXIT_PASS
    for row in table:
        pinned = row["pinned"]
        ok = True
        if pinned is not None and math.isfinite(row["max"]):
            ok = row["max"] <= pins.PIN_HEADROOM * pinned
        line = (
            f"{row['check']:>14}: n={row['n']:5d} undefined={row['n_undefined']} "
            f"max={row['max']:.6g} median={row['median']:.6g} "
            f"{'PASS' if ok else 'FAIL (pinned %.6g)' % pinned}"
        )
        print(line)
        if not ok:
            status = EXIT_PIN_EXCEEDED
    if config.out:
        write_csv(
            [{k: v for k, v in row.items() if k != "skipped_k"} for row in table],
            config.out,
        )
    return status


def cmd_lemma_suite(args) -> int:
    return _suite_command(args, run_lemma_suites)


def cmd_bernstein_suite(args) -> int:
    return _suite_command(args, run_bernstein_suite)


def cmd_trace_proof(args) -> int:
    config = _config(args)
    result = run_trace(config, args.time, config.grid())
    trace = result["trace"]
    print(f"trace at t={args.time:g}, x={result['x']:.6g}, alpha={config.alpha:g}")
    print(f"reconstruction defect: {trace.reconstruction_defect:.3e}")
    for row in result["rows"]:
        if row["section"] == "piece":
            print(
                f"  k={row['k']:>3} [{row['membership']:<8}] "
                f"|P_k u(x)| = {row['magnitude']:.6e}"
            )
        else:
            print(
                f"  ({row['section']}) = {row['magnitude']:.6e}  "
                f"bound ratio = {row['bound_ratio']:.6g}"
            )
    if config.out:
        write_csv(result["rows"], config.out)
    if not _trace_pinned(config, args.time):
        print("pinned: none")
        return EXIT_PASS
    # zero pins mean "structurally absent": hold them to a numerical floor
    limits = {name: max(pins.PIN_HEADROOM * pin, 1e-12)
              for name, pin in pins.TRACE_RATIO_MAXIMA.items()}
    print("pinned: " + ", ".join(f"{name} <= {v:.6g}" for name, v in limits.items()))
    status = EXIT_PASS
    for row in result["rows"]:
        name = row["section"]
        if name in limits and row["bound_ratio"] > limits[name]:
            print(f"regression: bound ratio {name} = {row['bound_ratio']:.6g} exceeds "
                  f"{limits[name]:.6g}", file=sys.stderr)
            status = EXIT_PIN_EXCEEDED
    return status


def _trace_pinned(config: SuiteConfig, t: float) -> bool:
    """Whether trace-proof runs a ray of the suite TRACE_RATIO_MAXIMA were measured on.

    That suite observes seed 0 at alpha 1/2, the default band and the trace
    grid, at the times TRACE_SUITE_TIMES; its first sample on its dominant
    ray is what trace-proof traces there, so each ratio stays below the
    suite maximum.
    """
    return (config.seed == 0 and config.alpha == 0.5
            and config.band == SuiteConfig().band and config.grid() == TRACE_GRID
            and t in TRACE_SUITE_TIMES)


def cmd_stationary_point(args) -> int:
    xi0 = stationary_point(args.time, args.x, args.alpha)
    if xi0 is None:
        print("no stationary point (x = 0 or t = 0)")
        return EXIT_PASS
    from .propagator import PhaseSpec

    spec = PhaseSpec(alpha=args.alpha, t=args.time, x=args.x)
    print(f"xi0 = {xi0:.17g}")
    print(f"Q'(xi0) = {float(spec.dq(xi0)):.3e}")
    print(f"Q''(xi0) = {float(spec.d2q(xi0)):.6g}")
    return EXIT_PASS


def cmd_factorization_check(args) -> int:
    config = _config(args)
    grid = config.grid()
    phi = generate_schwartz(config.seed, 0, config.band, grid)
    try:
        r1 = factorization_residual(phi, args.time, args.dt, config.alpha)
        r2 = factorization_residual(phi, args.time, args.dt / 2.0, config.alpha)
    except DomainTooSmallError as exc:
        print(f"guard failure: {exc}", file=sys.stderr)
        return EXIT_GUARD_FAILURE
    conv = r1 / r2 if r2 > 0 else math.inf
    print(f"residual(dt={args.dt:g}) = {r1:.3e}")
    print(f"residual(dt={args.dt / 2:g}) = {r2:.3e}  (ratio {conv:.3g}, expect ~4)")
    ok = r1 < 1e-6
    print("threshold 1e-6:", "PASS" if ok else "FAIL")
    return EXIT_PASS if ok else EXIT_PIN_EXCEEDED


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process: each subcommand's ``func``
    default binds its ``cmd_*`` function as it is when the parser is built."""
    parser = argparse.ArgumentParser(
        prog="dispersive-decay",
        description="Numerical verification of the |t|^{-1/2} dispersive decay "
        "estimate for exp(i t |D|^alpha) on the line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-decay", help="decay ratio suite over dyadic times")
    _add_common(p, 8192.0)
    p.set_defaults(func=cmd_verify_decay)

    p = sub.add_parser("lemma-suite", help="weighted-norm lemma ratio suite")
    _add_common(p, 200.0)
    p.set_defaults(func=cmd_lemma_suite)

    p = sub.add_parser("bernstein-suite", help="Bernstein inequality ratio suite")
    _add_common(p, 200.0)
    p.set_defaults(func=cmd_bernstein_suite)

    p = sub.add_parser("trace-proof", help="per-term proof trace at one time")
    _add_common(p, TRACE_GRID.half_width)
    p.add_argument("--time", type=float, default=float(2**12))
    p.set_defaults(func=cmd_trace_proof, grid_n=TRACE_GRID.size)

    p = sub.add_parser("stationary-point", help="stationary point of the phase")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_stationary_point)

    p = sub.add_parser("factorization-check", help="wave-equation factorization residual")
    _add_common(p, 512.0)
    p.add_argument("--time", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_factorization_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, InvalidInputError, OutOfBandError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (DomainTooSmallError, AccuracyNotMetError, SuiteDegenerateError) as exc:
        print(f"numerical guard failure: {exc}", file=sys.stderr)
        return EXIT_GUARD_FAILURE


if __name__ == "__main__":
    sys.exit(main())
