"""Self-checks of the benchmark's tracer and output gate.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

The traced counters are compared with counts taken independently through
``sys.setprofile`` on small configurations, never with fixed numbers, so the
checks stay valid when the package changes how much work it does.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from dispersive_decay import harness, proof_tracer  # noqa: E402
from dispersive_decay.grid import GridSpec, _forward_raw  # noqa: E402
from dispersive_decay.propagator import phase_speed  # noqa: E402
from dispersive_decay.schwartz import generate_schwartz  # noqa: E402

SMALL = GridSpec(half_width=50.0, size=4096)


def profile_counts(fn, grid_n: int) -> Counter:
    """Count numpy FFTs, bump pieces, spline nodes and panels via sys.setprofile."""
    counts = Counter()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call":
            path = code.co_filename.replace("\\", "/")
            if code.co_name in ("fft", "ifft") and "numpy/fft" in path:
                counts["fft_calls"] += 1
            elif code.co_name == "dyadic_piece" and path.endswith("littlewood_paley.py"):
                size = np.size(frame.f_locals["xi"])
                counts["piece_nodes"] += size
                counts["piece_calls"] += size == grid_n
            elif code.co_name == "__call__" and path.endswith("propagator.py"):
                counts["spline_nodes"] += np.size(frame.f_locals["xi"])
        elif event == "return" and code.co_name == "_subdivide" and arg is not None:
            counts["panels"] += arg[0].size

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def traced_counts(fn) -> Counter:
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_op(0)
        fn()
        tr.end_op()
    finally:
        tr.uninstall()
    return tr.counts


def bindings() -> dict:
    """Every attribute of the package's modules and traced classes, by identity."""
    out = {}
    for mod in tracing.package_modules():
        out.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls, _names in tracing.METHODS:
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_lemma_counters_match_profile():
    def run():
        harness.run_lemma_suites(harness.SuiteConfig(seed=3, n_samples=2), SMALL)

    expected = profile_counts(run, SMALL.size)
    counts = traced_counts(run)
    assert expected["fft_calls"] > 0 and expected["piece_calls"] > 0
    for key in ("fft_calls", "piece_calls", "piece_nodes"):
        assert counts[key] == expected[key], key


def test_trace_counters_match_profile():
    grid = GridSpec(half_width=200.0, size=4096)
    phi = generate_schwartz(5, 0, (0.5, 4.0), grid)
    peak_xi = abs(float(grid.xi[np.argmax(np.abs(_forward_raw(grid, phi.values)))]))
    t = 2048.0
    x = -t * phase_speed(peak_xi, 0.5)

    def run():
        proof_tracer.trace_terms(phi, t, x, 0.5, with_annuli=False)

    expected = profile_counts(run, grid.size)
    counts = traced_counts(run)
    assert expected["panels"] > 0 and expected["spline_nodes"] > 0
    for key in ("fft_calls", "panels", "spline_nodes", "piece_nodes"):
        assert counts[key] == expected[key], key


@pytest.fixture(scope="module")
def lemma_op(tmp_path_factory):
    """One untraced lemma op, with the package bindings before and after it."""
    csv_path = tmp_path_factory.mktemp("op") / "lemma.csv"
    before = bindings()
    result = worker.run_op(workloads.WORKLOADS["lemma"], 7, 1, csv_path)
    return before, bindings(), result, csv_path


def test_untraced_op_installs_nothing(lemma_op):
    before, after, result, _ = lemma_op
    assert result.failures == [] and result.status == workloads.UNPINNED
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_uninstall_restores_every_binding():
    before = bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        during = bindings()
        changed = [k for k, v in before.items() if during[k] is not v]
    finally:
        tr.uninstall()
    after = bindings()
    assert len(changed) == len(tracing.traced_objects()) > 0
    assert all(after[k] is v for k, v in before.items())


def test_gate_flags_csv_mismatch(lemma_op):
    _, _, result, csv_path = lemma_op
    lemma = workloads.WORKLOADS["lemma"]
    rows = harness.read_csv_rows(csv_path)
    ok = workloads.OpResult(seed=7, items=1)
    lemma.check(ok, 1, csv_path, rows)
    assert ok.failures == [] and ok.status == workloads.UNPINNED

    rows[0]["max"] *= 2.0
    changed = workloads.OpResult(seed=7, items=1)
    lemma.check(changed, 1, csv_path, rows)
    assert changed.failures == ["csv-mismatch"]


def test_gate_flags_exit_code(tmp_path):
    result = workloads.OpResult(seed=7, items=1)
    workloads.WORKLOADS["trace"].check(result, 1, tmp_path / "absent.csv", (1, ""))
    assert result.failures == ["exit-1", "csv-missing"]


def test_self_time_partitions_span_duration():
    tr = tracing.Tracer()

    def inner():
        return sum(range(20000))

    wrapped_inner = tr._wrap("grid.inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner() + sum(range(20000))

    tr._wrap("harness.outer", outer)()
    assert tr.calls["grid.inner"] == 2
    assert tr.self_s["grid.inner"] == pytest.approx(tr.total_s["grid.inner"])
    assert tr.self_s["harness.outer"] + tr.total_s["grid.inner"] == pytest.approx(
        tr.total_s["harness.outer"])
    assert [s[2] for s in tr.spans[:2]] == [tr.spans[2][1]] * 2


def test_metric_names_match_benchmark_json():
    import json

    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    op = workloads.OpResult(seed=2, items=3, seconds=1.5)
    rec = {"ops": [vars(op), vars(op)], "peak_rss_mb": 100.0, "setup_s": 1.0}
    e2e = run.end_to_end([rec, rec])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    layers = tracing.layer_metrics(tracing.Tracer(), [op], [op])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}
