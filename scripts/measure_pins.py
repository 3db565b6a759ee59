"""Re-measure every regression-pinned constant on the suites it was measured on.

    PYTHONPATH=src python3 scripts/measure_pins.py

Prints full-precision (17 significant digit) values in the layout used by
``dispersive_decay/pins.py``, after a leading ``#`` line with the Python,
numpy and scipy versions and the CPU count, and then the time taken.
``scripts/ledger.txt`` holds this output, less the time; ``output_digests.py
--check`` re-measures and compares it.  The decay, lemma and trace
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


def versions() -> str:
    """The ``#`` line of Python, numpy and scipy versions and the CPU count."""
    return (f"# Python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, {_cpus()} CPUs")


def pin_lines():
    """The re-measured tables in the layout of ``pins.py``, one line at a time."""
    suites = pinned_suites()
    yield "DECAY_MAX_RATIO = {"
    for suite, _ in suites["verify-decay"]:
        worst = max(max(r.ratios) for r in run_decay(suite))
        yield f"    ({suite.seed}, {suite.alpha}): {g(worst)},"
    yield "}"

    ((suite, _),) = suites["lemma-suite"]
    yield "LEMMA_SUITE_MAXIMA = {"
    for row in run_lemma_suites(suite, suite.grid()):
        yield f'    "{row["check"]}": {g(row["max"])},'
    yield "}"

    ((suite, _),) = suites["trace-proof"]
    yield "TRACE_RATIO_MAXIMA = {"
    for name, v in run_trace_ratio_suite(suite, suite.times, suite.grid()).items():
        yield f'    "{name}": {g(v)},'
    yield "}"

    yield "Q0_LOWER_CONSTANT = {"
    for alpha in (0.4, 0.5):
        consts = tracer_constant_suite(alpha)
        yield f"    {alpha}: {g(consts['q0'])},"
    yield "}"
    yield f"KERNEL_LOWER_CONSTANT = {g(consts['kernel'])}"


def main() -> None:
    print(versions(), flush=True)
    t0 = time.time()
    for line in pin_lines():
        print(line, flush=True)
    print(f"# total: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
