"""One workload process: set up, run the cold op, then timed ops in a closed loop.

Started by ``run.py``; writes its record as JSON to ``--record``. A run is
made of several such processes, one after another, so that ``setup_s`` and
``cold_op_s`` are medians over fresh processes and the timed ops are spread
over the whole run.

``--spawned-at`` is the parent's wall-clock time just before it started this
process, so set-up time includes interpreter start-up. The loop runs one op
at a time. ``--seconds`` is this process's share of the run's measuring time,
counted from the start of the cold op; it starts another op only while that
op is expected to end less than half an op past the share, and it always runs
at least one timed op. Timed input i uses program seed ``--seed-offset + i``
of the workload seed, so processes of one run never repeat an input. With
``--trace 1`` each seed runs twice, first traced and then untraced, which
gives the tracing overhead on the same input; layer metrics come from the
traced ops only. Only traced runs repeat an input, and they report no
end-to-end metric.
"""

from __future__ import annotations

import argparse
import time

_T_IMPORT = time.time()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (imports dispersive_decay and its numpy/scipy stack)

from run import MAX_OPS, THREAD_ENV  # noqa: E402


def environment() -> dict:
    return {
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "cores": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run_op(wl, seed: int, index: int, csv_path: Path, tracer=None, op: int = 0):
    """Run input ``index`` (0 = the cold op) at ``seed``.

    Only ``wl.run`` is timed, and only it runs under ``tracer`` if one is given;
    the output checks run after both.
    """
    result = workloads.OpResult(seed=seed, items=wl.items_per_op)
    csv_path.unlink(missing_ok=True)
    if tracer:
        tracer.install()
        tracer.begin_op(op)
    start = time.perf_counter()
    try:
        raw = wl.run(seed, index, csv_path)
    except Exception as exc:  # an op that raises is a counted failure, not a crash
        result.seconds = time.perf_counter() - start
        traceback.print_exc()
        result.fail(workloads.op_failure_kind(exc))
        return result
    finally:
        if tracer:
            tracer.end_op()
            tracer.uninstall()
    result.seconds = time.perf_counter() - start
    try:
        wl.check(result, index, csv_path, raw)
    except Exception as exc:
        traceback.print_exc()
        result.fail("check-" + workloads.op_failure_kind(exc))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--record", type=Path, required=True)
    p.add_argument("--seed-offset", type=int, default=0)
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    seeds = workloads.program_seeds(args.seed, MAX_OPS)
    work_dir = args.record.parent
    csv_path = work_dir / f"{args.workload}-{os.getpid()}.csv"
    setup_s = time.time() - args.spawned_at
    record = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s,
              "import_s": time.time() - _T_IMPORT}

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    start = time.perf_counter()
    ops = [run_op(wl, 0, 0, csv_path)]
    traced_flags = [False]
    while args.seed_offset + len(ops) <= MAX_OPS:
        # traced mode: input j runs traced, then untraced again
        op = len(ops)
        traced = bool(tracer) and op % 2 == 1
        index = (op + 1) // 2 if tracer else op
        ops.append(run_op(wl, seeds[args.seed_offset + index - 1], index, csv_path,
                          tracer if traced else None, op))
        traced_flags.append(traced)
        elapsed = time.perf_counter() - start
        if not traced and elapsed + 0.5 * ops[-1].seconds >= args.seconds:
            break
    measure_s = time.perf_counter() - start
    csv_path.unlink(missing_ok=True)

    record.update(
        environment(),
        config=wl.config, config_digest=wl.config_digest, grid_n=wl.grid_n,
        measure_s=measure_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=[{**vars(op), "traced": t} for op, t in zip(ops, traced_flags)],
    )
    if tracer:
        spans_path = work_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        record["spans"] = str(spans_path)
        record["stage_seconds"] = {layer: tracer.layer_self_s(layer) for layer in tracing.LAYERS}
        record["counters"] = {**tracer.counts, **tracer.maxima}
        record["layers"] = tracing.layer_metrics(
            tracer, [op for op, t in zip(ops, traced_flags) if t],
            [op for op, t in zip(ops[1:], traced_flags[1:]) if not t])
    args.record.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
