"""Print one sha256 per standard output of the package, to compare two checkouts.

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt

Run it on both checkouts and diff the two files: equal lines mean equal bytes.
The outputs are

* ``verify-decay --samples 4`` at seeds 0-1 and alpha 0.5, 0.45, 0.4, 0.35
  (exit code, standard output and CSV);
* the pinned default ``verify-decay`` (20 samples, seed 0, alpha 0.5);
* ``verify-decay`` with 2 samples at t = 1024 on a 2^13 grid of half-width
  256, band 0.5:8: the wrap guard trips and the quadrature fallback finds
  both samples' sups, the configuration of ``test_auto_policy_switches_to_quadrature``
  with one sample more; and the same run's sups and argmax as hex, cheap
  enough for the lines tier-1 checks;
* ``trace-proof --band 0.5:8`` at seeds 0-4 (the same three);
* the lemma tables of ``run_lemma_suites`` (5 samples) at seeds 0, 1 and 7,
  every float as hex;
* the 2-sample criterion-9 maxima of ``run_trace_ratio_suite``, as hex;
* every magnitude of ``trace_terms`` with its annuli (u, the defect, the
  pieces, the low block, each term's value and ratio, the annuli and q0) at
  seeds 0-4, bands 0.5:8 and 0.25:32 on ``TRACE_GRID``, t = 2048 and 4096,
  on the rays 1/8, 1 and 8 times the dominant speed, as hex;
* ``evolve_quadrature`` of the first fallback sample at t = 1024 and
  x = linspace(-400, 0, 7) on that grid, and one pure-Gauss
  ``oscillatory_integral`` of 185229 panels, every float as hex: the
  quadrature values themselves, which a sup over x can hide.

Each line is ``<name> <sha256>``; ``--show`` adds the hashed text under it.
It takes about 20 s on one core.

``scripts/ledger.txt`` holds the digests of this build between the ``#``
line of library versions and the re-measured pins of ``measure_pins.py``.

    PYTHONPATH=src python3 scripts/output_digests.py --check
    PYTHONPATH=src python3 scripts/output_digests.py --ledger > scripts/ledger.txt

``--check`` recomputes every line, names each one that differs and exits 1
if any does (about 50 s). On other Python, numpy or scipy versions it
compares nothing, fails and names both; the CPU count is recorded, not
compared, because only the number of threads follows it. ``--ledger``
prints a new ledger; a change that moves bits on purpose commits the lines
it moves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from dispersive_decay.cli import _config, build_parser
from dispersive_decay.cli import main as cli_main
from dispersive_decay.grid import GridSpec
from dispersive_decay.harness import (
    TRACE_GRID,
    SuiteConfig,
    _dominant_speed,
    run_decay,
    run_lemma_suites,
    run_trace_ratio_suite,
)
from dispersive_decay.proof_tracer import trace_terms
from dispersive_decay.propagator import evolve_quadrature, oscillatory_integral
from dispersive_decay.schwartz import generate_schwartz

import measure_pins

LEDGER = Path(__file__).with_name("ledger.txt")


def cli_output(argv: list) -> str:
    """Exit code, standard output and CSV bytes of one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "out.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv + ["--out", csv])
        with open(csv, encoding="utf-8") as fh:
            return f"exit {code}\n{stdout.getvalue()}\n{fh.read()}"


def hexed(v) -> str:
    return float(v).hex() if isinstance(v, float) else repr(v)


def complex_hex(values) -> str:
    return "\n".join(f"{v.real.hex()} {v.imag.hex()}" for v in map(complex, values))


FALLBACK = ["verify-decay", "--samples", "2", "--t-grid", "1024", "--half-width", "256",
            "--grid-n", "8192", "--band", "0.5:8"]


def fallback_sups() -> str:
    """Each sup norm and argmax of the ``FALLBACK`` run, as hex."""
    reports = run_decay(_config(build_parser().parse_args(FALLBACK)))
    return "\n".join(f"{hexed(v)} {hexed(x)}" for r in reports
                     for v, x in zip(r.sup_norms, r.argmax_x))


def fallback_quadrature() -> str:
    grid = GridSpec(half_width=256.0, size=8192)
    phi = generate_schwartz(0, 0, (0.5, 8.0), grid)
    return complex_hex(evolve_quadrature(phi.spectrum, 1024.0, np.linspace(-400.0, 0.0, 7)))


def gauss_integral() -> str:
    t = 2.0 ** 16
    return complex_hex([oscillatory_integral(lambda xi: np.exp(-xi ** 2), [(0.5, 4.0)],
                                             t, -t, 0.5, 0.01)])


def trace_annuli() -> str:
    lines = []
    for band in ((0.5, 8.0), (0.25, 32.0)):
        for seed in range(5):
            phi = generate_schwartz(seed, 0, band, TRACE_GRID)
            speed = _dominant_speed(phi, 0.5)
            for t in (2048.0, 4096.0):
                for ray_factor in (0.125, 1.0, 8.0):
                    tr = trace_terms(phi, t, -t * speed * ray_factor, 0.5, True)
                    lines.append(f"band={band} seed={seed} t={t} ray={ray_factor}")
                    lines.append(f"u={complex_hex([tr.u_value])} "
                                 f"defect={hexed(tr.reconstruction_defect)} "
                                 f"low={hexed(tr.low_mag)}")
                    lines += [f"piece {k}={hexed(m)}" for k, m in sorted(tr.piece_mags.items())]
                    lines += [f"term {name}={hexed(v.value)} {hexed(v.ratio)}"
                              for name, v in tr.terms.items()]
                    lines += [f"annulus {k} {label}={hexed(m)}"
                              for k, ann in sorted(tr.annuli.items()) for label, m in ann]
                    lines += [f"q0 {key}={hexed(v.value)} {hexed(v.ratio)}"
                              for key, v in sorted(tr.q0_map.items())]
    return "\n".join(lines)


def lemma_table(seed: int) -> str:
    rows = run_lemma_suites(SuiteConfig(seed=seed, n_samples=5))
    return "\n".join(" ".join(f"{key}={hexed(row[key])}" for key in sorted(row))
                     for row in rows)


def outputs():
    for seed in (0, 1):
        for alpha in ("0.5", "0.45", "0.4", "0.35"):
            yield (f"verify-decay/seed{seed}/alpha{alpha}",
                   lambda s=seed, a=alpha: cli_output(
                       ["verify-decay", "--seed", str(s), "--alpha", a, "--samples", "4"]))
    yield "verify-decay/pinned-default", lambda: cli_output(["verify-decay"])
    yield "verify-decay/quadrature-fallback/2-samples", lambda: cli_output(FALLBACK)
    yield "decay-sups/quadrature-fallback/2-samples", fallback_sups
    for seed in range(5):
        yield (f"trace-proof/seed{seed}",
               lambda s=seed: cli_output(["trace-proof", "--seed", str(s), "--band", "0.5:8"]))
    for seed in (0, 1, 7):
        yield f"lemma-table/seed{seed}", lambda s=seed: lemma_table(s)
    yield "criterion9-maxima/2-samples", lambda: "\n".join(
        f"{name}={v.hex()}"
        for name, v in run_trace_ratio_suite(SuiteConfig(seed=0, n_samples=2)).items())
    yield "trace-terms/annuli", trace_annuli
    yield "evolve-quadrature/fallback-grid/7-points", fallback_quadrature
    yield "oscillatory-integral/pure-gauss", gauss_integral


def digest_lines(names=None, show=False):
    """``<name> <sha256>`` of each output, or of those in ``names``; ``show`` adds the text."""
    for name, produce in outputs():
        if names is None or name in names:
            text = produce()
            yield f"{name} {hashlib.sha256(text.encode()).hexdigest()}"
            if show:
                yield text


def ledger_lines():
    yield measure_pins.versions()
    yield from digest_lines()
    yield from measure_pins.pin_lines()


def _libraries(versions_line: str) -> str:
    return versions_line.rsplit(",", 1)[0]  # the CPU count is the last field


def check(names=None) -> list:
    """The ledger lines this checkout does not reproduce, each named; [] when all match.

    ``names`` limits the check to those digest lines.
    """
    want = LEDGER.read_text(encoding="utf-8").splitlines()
    here = measure_pins.versions()
    if _libraries(want[0]) != _libraries(here):
        return [f"library versions differ: the ledger is of {want[0][2:]}; this is {here[2:]}"]
    if names is None:
        expected, got = want[1:], list(ledger_lines())[1:]
    else:
        expected = [line for line in want if line.split(" ", 1)[0] in names]
        got = list(digest_lines(names))
    return [f"ledger: {e}\n  here: {g}"
            for e, g in itertools.zip_longest(expected, got, fillvalue="(missing)") if e != g]


def main(argv: list) -> int:
    if "--check" in argv:
        differ = check()
        print("\n".join(differ) if differ else f"ledger check passed: {LEDGER}")
        return 1 if differ else 0
    lines = ledger_lines() if "--ledger" in argv else digest_lines(show="--show" in argv)
    for line in lines:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
