"""Command-line interface for the verification harness.

Exit codes: 0 pass, 1 regression-pinned constant exceeded, 2 invalid
configuration, 3 numerical guard failure.  Every command is a deterministic
function of its flags and seed; CSV files are the output contract.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    UndefinedRatioError,
)
from .harness import (
    LEMMA_GRID,
    TRACE_GRID,
    TRACE_SUITE_TIMES,
    SuiteConfig,
    decay_rows,
    run_decay,
    run_lemma_suites,
    run_trace,
    write_csv,
)
from .propagator import PhaseSpec, factorization_residual, stationary_point
from .schwartz import generate_schwartz

EXIT_PASS = 0
EXIT_PIN_EXCEEDED = 1
EXIT_BAD_CONFIG = 2
EXIT_GUARD_FAILURE = 3


def finite(s: str) -> float:
    """A float flag's value; a NaN or an infinity is refused, and argparse names the flag."""
    value = float(s)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {s}")
    return value


# every flag of the commands; a flag of a SuiteConfig field defaults to that field's default,
# which a command may override (``_add_flags``), and --time has a default per command
_FLAGS = {
    "--alpha": dict(type=finite, default=SuiteConfig.alpha),
    "--seed": dict(type=int, default=SuiteConfig.seed),
    "--samples": dict(type=int, default=SuiteConfig.n_samples),
    "--grid-n": dict(type=int, default=SuiteConfig.grid_n),
    "--half-width": dict(type=finite, default=SuiteConfig.half_width),
    "--band": dict(type=str, default=SuiteConfig.band, help="spectral band as lo:hi"),
    "--t-grid": dict(type=str, default=SuiteConfig.times,
                     help="a comma-separated list of times (default: %(default)s)"),
    "--backend": dict(type=str, default=SuiteConfig.backend,
                      help="auto (spectral, falling back to quadrature), spectral or quadrature"),
    "--out": dict(type=str, default=None),
    "--allow-empty-band": dict(action="store_true"),
    "--time": dict(type=finite),
    "--dt": dict(type=finite, default=1e-3),
}

# the parsed flags that set a SuiteConfig field of another name
_FIELD_NAMES = {"samples": "n_samples", "t_grid": "times"}


def _add_flags(p: argparse.ArgumentParser, flags: str, **defaults):
    # the space-separated flags, as _FLAGS has them; ``defaults`` holds the command's own
    for flag in flags.split():
        p.add_argument(flag, **_FLAGS[flag])
    p.set_defaults(**defaults)


def _parse_band(s: str) -> tuple:
    try:
        lo, hi = (float(v) for v in s.split(":"))
    except ValueError:
        raise ParameterError(f"--band must be lo:hi, got {s!r}") from None
    return (lo, hi)


def _parse_times(s: str) -> tuple:
    try:
        return tuple(float(v) for v in s.split(","))
    except ValueError:
        raise ParameterError(f"--t-grid must be a list a,b,..., got {s!r}") from None


def _config(args) -> SuiteConfig:
    """The SuiteConfig of the flags the command registered; the other fields keep their defaults."""
    given = {_FIELD_NAMES.get(dest, dest): value for dest, value in vars(args).items()}
    fields = {f.name: given[f.name] for f in dataclasses.fields(SuiteConfig) if f.name in given}
    for name, parse in (("band", _parse_band), ("times", _parse_times)):
        if isinstance(fields.get(name), str):  # given on the command line
            fields[name] = parse(fields[name])
    return SuiteConfig(**fields)


def pinned_suites() -> dict:
    """command -> [(suite, pins)]: each pin table of ``pins`` with the suite it was measured on.

    DECAY_MAX_RATIO holds one suite per (seed, alpha) key: the default SuiteConfig there. The
    lemma pins come from 100 seed-0 samples on LEMMA_GRID, the trace pins from 10 seed-0
    samples at alpha 1/2, the default band, TRACE_GRID and the times TRACE_SUITE_TIMES.
    The table is read from ``pins`` on each call, so it follows any change to a pin.
    """
    return {
        "verify-decay": [(SuiteConfig(seed=seed, alpha=alpha), pin)
                         for (seed, alpha), pin in pins.DECAY_MAX_RATIO.items()],
        "lemma-suite": [(SuiteConfig(n_samples=100, half_width=LEMMA_GRID.half_width,
                                     grid_n=LEMMA_GRID.size), pins.LEMMA_SUITE_MAXIMA)],
        "trace-proof": [(SuiteConfig(n_samples=10, times=TRACE_SUITE_TIMES, grid_n=TRACE_GRID.size,
                                     half_width=TRACE_GRID.half_width), pins.TRACE_RATIO_MAXIMA)],
    }


# the SuiteConfig fields a run must share with a pinned suite, where its command reads them
_SUITE_FIELDS = ("seed", "alpha", "half_width", "grid_n", "band", "times")


def run_pins(args):
    """The pins that hold this run, or None: those of the suite of ``pinned_suites()`` the run
    is a part of.

    The run matches the suite on every field of ``_SUITE_FIELDS`` its command reads, its
    samples are a prefix of the suite's, and a ``--time`` it reads is one of the suite's times
    (trace-proof traces the first sample, so it is a prefix of any suite).
    """
    config = _config(args)
    read = {_FIELD_NAMES.get(dest, dest) for dest in vars(args)}
    for suite, pinned in pinned_suites().get(args.command, ()):
        if (all(getattr(config, f) == getattr(suite, f) for f in _SUITE_FIELDS if f in read)
                and ("n_samples" not in read or config.n_samples <= suite.n_samples)
                and ("time" not in read or args.time in suite.times)):
            return pinned
    return None


def _pin_limit(pin: float) -> float:
    """The most a pinned value may reach: PIN_HEADROOM times its pin, or a numerical floor of
    1e-12 for a zero pin (a term structurally absent from the suite)."""
    return max(pins.PIN_HEADROOM * pin, 1e-12)


def _holds(value: float, pin: float) -> bool:
    """Whether a value of a pinned run stays within its pin; a NaN does not."""
    return value <= _pin_limit(pin)


def cmd_verify_decay(args) -> int:
    config = _config(args)
    reports = run_decay(config)
    rows = decay_rows(reports)
    if args.out:
        write_csv(rows, args.out)
    status = EXIT_PASS
    global_max = 0.0
    early, late = [], []
    for r in reports:
        if not all(math.isfinite(v) for v in r.ratios):
            print(f"sample {r.sample}: non-finite ratio entries", file=sys.stderr)
            status = EXIT_GUARD_FAILURE
            continue
        global_max = max(global_max, *r.ratios)
        early.extend(v for t, v in zip(r.times, r.ratios) if t <= 64)
        late.extend(v for t, v in zip(r.times, r.ratios) if t >= 512)
    pinned = run_pins(args)
    print(f"max R(t) over suite: {global_max:.6g} (pinned: {pinned})")
    if early and late:
        # Diagnostic only: ratio of the suite's late-window maximum to its
        # early-window maximum.  Values near 1 are consistent with the
        # (1+|t|)^{-1/2} rate; values well above 1 suggest a slower rate or
        # samples still far from the stationary-phase regime.
        print(f"late/early window ratio: {max(late) / max(early):.4f}")
    if pinned is not None and not _holds(global_max, pinned):
        print("regression: max ratio exceeds pinned value", file=sys.stderr)
        status = max(status, EXIT_PIN_EXCEEDED)
    return status


def cmd_lemma_suite(args) -> int:
    config = _config(args)
    table = run_lemma_suites(config, config.grid())
    pinned = run_pins(args) or {}
    status = EXIT_PASS
    for row in table:
        pin = row["pinned"] = pinned.get(row["check"])
        if pin is None:
            verdict = "UNPINNED"
        elif _holds(row["max"], pin):
            verdict = "PASS"
        else:
            verdict = f"FAIL (pinned {pin:.6g})"
            status = EXIT_PIN_EXCEEDED
        print(f"{row['check']:>14}: n={row['n']:5d} undefined={row['n_undefined']} "
              f"max={row['max']:.6g} median={row['median']:.6g} {verdict}")
    if args.out:
        write_csv(table, args.out)
    return status


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
    if args.out:
        write_csv(result["rows"], args.out)
    pinned = run_pins(args) or {}
    print("pinned: " + (", ".join(f"{name} <= {_pin_limit(pin):.6g}"
                                  for name, pin in pinned.items()) or "none"))
    status = EXIT_PASS
    for row in result["rows"]:
        name = row["section"]
        if name in pinned and not _holds(row["bound_ratio"], pinned[name]):
            print(f"regression: bound ratio {name} = {row['bound_ratio']:.6g} exceeds "
                  f"{_pin_limit(pinned[name]):.6g}", file=sys.stderr)
            status = EXIT_PIN_EXCEEDED
    return status


def cmd_stationary_point(args) -> int:
    xi0 = stationary_point(args.time, args.x, args.alpha)
    if xi0 is None:
        print("no stationary point (x = 0 or t = 0)")
        return EXIT_PASS
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
    _add_flags(p, "--alpha --seed --samples --grid-n --half-width --band --t-grid --backend "
               "--out", func=cmd_verify_decay)

    p = sub.add_parser("lemma-suite", help="Bernstein and weighted-norm lemma ratio suites")
    _add_flags(p, "--seed --samples --grid-n --half-width --out",
               func=cmd_lemma_suite, half_width=LEMMA_GRID.half_width, grid_n=LEMMA_GRID.size)

    p = sub.add_parser("trace-proof", help="per-term proof trace at one time")
    _add_flags(p, "--alpha --seed --grid-n --half-width --band --out --allow-empty-band --time",
               func=cmd_trace_proof, half_width=TRACE_GRID.half_width, grid_n=TRACE_GRID.size,
               time=float(2**12))

    p = sub.add_parser("stationary-point", help="stationary point of the phase")
    p.add_argument("--time", type=finite, required=True)
    p.add_argument("--x", type=finite, required=True)
    _add_flags(p, "--alpha", func=cmd_stationary_point)

    p = sub.add_parser("factorization-check", help="wave-equation factorization residual")
    _add_flags(p, "--alpha --seed --grid-n --half-width --band --time --dt",
               func=cmd_factorization_check, half_width=512.0, time=5.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, InvalidInputError, OutOfBandError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (DomainTooSmallError, AccuracyNotMetError, SuiteDegenerateError,
            UndefinedRatioError) as exc:
        print(f"numerical guard failure: {exc}", file=sys.stderr)
        return EXIT_GUARD_FAILURE


if __name__ == "__main__":
    sys.exit(main())
