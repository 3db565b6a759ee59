"""Re-measure every regression-pinned constant on the suites it was measured on.

    PYTHONPATH=src python3 scripts/measure_pins.py

Prints full-precision (17 significant digit) values in the layout used by
``dispersive_decay/pins.py``, after a leading ``#`` line with the Python,
numpy and scipy versions and the CPU count.  The decay, lemma and trace
suites are those of ``cli.pinned_suites()``, the table the CLI gates its runs
with.  Run after any intended behavior change, diff the output against the
frozen values, and update the module only when the change is understood.
"""

import platform
import time

import numpy as np
import scipy

from dispersive_decay.cli import pinned_suites
from dispersive_decay.harness import (
    _cpus,
    run_decay,
    run_lemma_suites,
    run_trace_ratio_suite,
    tracer_constant_suite,
)


def g(v: float) -> str:
    return format(v, ".17g")


def main() -> None:
    print(f"# Python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, {_cpus()} CPUs", flush=True)
    suites = pinned_suites()
    t0 = time.time()

    print("DECAY_MAX_RATIO = {")
    for suite, _ in suites["verify-decay"]:
        worst = max(max(r.ratios) for r in run_decay(suite))
        print(f"    ({suite.seed}, {suite.alpha}): {g(worst)},", flush=True)
    print("}")
    print(f"# decay sweep: {time.time() - t0:.1f}s", flush=True)

    t1 = time.time()
    ((suite, _),) = suites["lemma-suite"]
    table = run_lemma_suites(suite, suite.grid())
    print("LEMMA_SUITE_MAXIMA = {")
    for row in table:
        print(f'    "{row["check"]}": {g(row["max"])},')
    print("}")
    print(f"# lemma suites: {time.time() - t1:.1f}s", flush=True)

    t2 = time.time()
    ((suite, _),) = suites["trace-proof"]
    maxima = run_trace_ratio_suite(suite, suite.times, suite.grid())
    print("TRACE_RATIO_MAXIMA = {")
    for name, v in maxima.items():
        print(f'    "{name}": {g(v)},')
    print("}")
    print(f"# trace ratios: {time.time() - t2:.1f}s", flush=True)

    t3 = time.time()
    print("Q0_LOWER_CONSTANT = {")
    for alpha in (0.4, 0.5):
        consts = tracer_constant_suite(alpha)
        print(f"    {alpha}: {g(consts['q0'])},")
        if alpha == 0.5:
            kernel = consts["kernel"]
    print("}")
    print(f"KERNEL_LOWER_CONSTANT = {g(kernel)}")
    print(f"# tracer constants: {time.time() - t3:.1f}s")
    print(f"# total: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
