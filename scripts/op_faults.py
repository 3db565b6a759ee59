"""Minor page faults and wall time per op of the three benchmark workloads.

    PYTHONPATH=src python3 scripts/op_faults.py lemma [--ops 8] [--seed 1]

One process runs the cold op (seed 0) and then ``--ops`` timed ops, seeds
``--seed``, ``--seed`` + 1, ..., and prints for each timed op its
``getrusage`` ``ru_minflt`` delta and its seconds, then their medians. The
ops are those of ``perfbench/workloads.py``, formed here anew:

* ``lemma``: ``run_lemma_suites`` on one sample of LEMMA_GRID, then the CSV;
* ``decay``: ``verify-decay --samples 4``, alpha cycling 0.5, 0.45, 0.4, 0.35;
* ``trace``: ``trace-proof --band 0.5:8`` (t = 2^12).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import statistics
import sys
import tempfile
import time

from dispersive_decay.cli import main as cli_main
from dispersive_decay.harness import SuiteConfig, run_lemma_suites, write_csv

_ALPHAS = ("0.5", "0.45", "0.4", "0.35")


def _cli(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(argv)


def _lemma(seed: int, index: int, csv: str) -> None:
    rows = run_lemma_suites(SuiteConfig(seed=seed, n_samples=1))
    write_csv(rows, csv)


def _decay(seed: int, index: int, csv: str) -> None:
    _cli(["verify-decay", "--seed", str(seed), "--alpha", _ALPHAS[index % 4],
          "--samples", "4", "--out", csv])


def _trace(seed: int, index: int, csv: str) -> None:
    _cli(["trace-proof", "--seed", str(seed), "--band", "0.5:8", "--out", csv])


OPS = {"lemma": _lemma, "decay": _decay, "trace": _trace}


def main(argv: list) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(OPS))
    p.add_argument("--ops", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    op = OPS[args.workload]
    faults, seconds = [], []
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "out.csv")
        op(0, 0, csv)
        for i in range(args.ops):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            op(args.seed + i, i + 1, csv)
            seconds.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            print(f"op {i} seed {args.seed + i}: {faults[-1]} faults, {seconds[-1]:.4f} s",
                  flush=True)
    print(f"median: {statistics.median(faults):g} faults, {statistics.median(seconds):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
