"""Print one sha256 per standard output of the package, to compare two checkouts.

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt

Run it on both checkouts and diff the two files: equal lines mean equal bytes.
The outputs are

* ``verify-decay --samples 4`` at seeds 0-1 and alpha 0.5, 0.45, 0.4, 0.35
  (exit code, standard output and CSV);
* the pinned default ``verify-decay`` (20 samples, seed 0, alpha 0.5);
* ``verify-decay`` with 2 samples at t = 1024 on a 2^13 grid of half-width
  256, band 0.5:8: the wrap guard trips and the quadrature sup runs for
  both samples, the configuration of ``test_auto_policy_switches_to_quadrature``
  with one sample more;
* ``trace-proof --band 0.5:8`` at seeds 0-4 (the same three);
* the lemma tables of ``run_lemma_suites`` (5 samples) at seeds 0, 1 and 7,
  every float as hex;
* the 2-sample criterion-9 maxima of ``run_trace_ratio_suite``, as hex.

Each line is ``<name> <sha256>``; ``--show`` adds the hashed text under it.
It takes about 20 s on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from dispersive_decay.cli import main as cli_main
from dispersive_decay.harness import SuiteConfig, run_lemma_suites, run_trace_ratio_suite


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
    yield "verify-decay/quadrature-fallback/2-samples", lambda: cli_output(
        ["verify-decay", "--samples", "2", "--t-grid", "1024", "--half-width", "256",
         "--grid-n", "8192", "--band", "0.5:8"])
    for seed in range(5):
        yield (f"trace-proof/seed{seed}",
               lambda s=seed: cli_output(["trace-proof", "--seed", str(s), "--band", "0.5:8"]))
    for seed in (0, 1, 7):
        yield f"lemma-table/seed{seed}", lambda s=seed: lemma_table(s)
    yield "criterion9-maxima/2-samples", lambda: "\n".join(
        f"{name}={v.hex()}"
        for name, v in run_trace_ratio_suite(SuiteConfig(seed=0, n_samples=2)).items())


def main(argv: list) -> int:
    show = "--show" in argv
    for name, produce in outputs():
        text = produce()
        print(name, hashlib.sha256(text.encode()).hexdigest(), flush=True)
        if show:
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
