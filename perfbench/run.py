"""Benchmark of the dispersive-decay package; run from the root of a checkout.

    python3 perfbench/run.py --workload lemma --seed 1 --seconds 36 --trace 0

Workloads are defined in ``workloads.py``. The package is imported from
``src/`` of the checkout. One closed-loop client runs one op at a time. An
untraced run starts ``FRESH_RUNS[workload]`` workload processes
(``worker.py``) one after another and gives each an equal share of the ``--seconds`` still left;
each sets up, runs the cold op and then timed ops until its share is used.
So ``setup_s`` and ``cold_op_s`` are medians over fresh processes, and the
timed ops, whose median is ``op_p50_s``, are spread over the whole run.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of ``tracer.py``. Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, and the full record (environment, configuration
digest, per-op seeds, outcomes and output digests) is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lemma", "decay", "trace")
# Fresh processes per untraced run; their set-up and cold-op times give the
# medians. Workloads with a cheaper cold op get more of them (lemma's costs
# some 3 s, decay's 1.6 s, trace's 0.5 s), which spreads the samples of a
# run over the whole run at a similar cost in set-up time.
FRESH_RUNS = {"lemma": 6, "decay": 7, "trace": 9}
DEADLINE_S = 170.0      # a run must end within 180 s
MAX_OPS = 1000          # timed inputs per run at most
# Numeric libraries get one thread each unless the caller sets these: the
# benchmark runs one op at a time, and idle worker threads only add noise.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def git_commit(root: Path) -> str | None:
    """The checkout's commit, read from .git without running git; None outside a repo."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def spawn_worker(root: Path, out_dir: Path, args, deadline: float, seconds: float,
                 seed_offset: int, tag: str) -> dict:
    record = out_dir / f"record-{args.workload}-seed{args.seed}-{tag}.json"
    record.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in THREAD_ENV:
        env.setdefault(name, "1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--seed-offset", str(seed_offset), "--trace", str(args.trace),
           "--record", str(record)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.time())], cwd=root,
                              env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise RunError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not record.is_file():
        raise RunError(f"worker exited with code {proc.returncode}")
    data = json.loads(record.read_text())
    record.unlink()
    return data


def end_to_end(recs: list) -> dict:
    """End-to-end metrics from the records of a run's workload processes."""
    timed = [op for r in recs for op in r["ops"][1:]]
    seconds = [op["seconds"] for op in timed]
    ops = [op for r in recs for op in r["ops"]]
    failed = sum(op["status"] == "fail" for op in ops)
    return {
        "setup_s": {"value": statistics.median(r["setup_s"] for r in recs), "unit": "s"},
        "cold_op_s": {"value": statistics.median(r["ops"][0]["seconds"] for r in recs),
                      "unit": "s"},
        "op_p50_s": {"value": statistics.median(seconds), "unit": "s"},
        "items_per_s": {"value": sum(op["items"] for op in timed) / sum(seconds),
                        "unit": "1/s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in recs), "unit": "MB"},
        "ok_ratio": {"value": (len(ops) - failed) / len(ops), "unit": "ratio"},
    }


def summary_lines(recs: list, metrics: dict) -> list:
    ops = [op for r in recs for op in r["ops"]]
    statuses = [op["status"] for op in ops]
    cold = len(recs)
    lines = [f"workload {recs[0]['workload']} seed {recs[0]['seed']}: {len(ops)} ops "
             f"({cold} cold + {len(ops) - cold} timed, in {len(recs)} processes), "
             f"{statuses.count('pass')} pass, "
             f"{statuses.count('unpinned')} unpinned, {statuses.count('fail')} fail "
             f"(fail_ratio {statuses.count('fail') / len(ops):.4g})"]
    for i, op in enumerate(ops):
        if op["failures"]:
            lines.append(f"  op {i} seed {op['seed']} failed: {', '.join(op['failures'])}")
    pin = recs[0]["ops"][0]["pin"]
    if pin:
        inside = all(e["within_headroom"] for e in pin.values())
        exact = [n for n, e in pin.items() if e["bit_identical"]]
        lines.append(f"  pin anchor (op 0, seed 0): within headroom {inside}; "
                     f"bit-identical: {', '.join(exact) or 'none'}")
    else:
        lines.append("  pin anchor (op 0, seed 0): no pin for this configuration")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, exit through subprocess.run, which then kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "dispersive_decay" / "__init__.py").is_file():
        print(f"error: no src/dispersive_decay under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    recs = []
    try:
        processes = 1 if args.trace else FRESH_RUNS[args.workload]
        remaining, offset = args.seconds, 0
        for i in range(processes):
            recs.append(spawn_worker(root, out_dir, args, deadline,
                                     max(remaining, 0.0) / (processes - i), offset, f"p{i}"))
            remaining -= recs[-1]["measure_s"]
            offset += len(recs[-1]["ops"]) - 1
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = recs[0]["layers"] if args.trace else end_to_end(recs)
    ops = [op for r in recs for op in r["ops"]]
    failed = sum(op["status"] == "fail" for op in ops)
    rec = {key: recs[0][key] for key in (
        "workload", "seed", "versions", "cores", "thread_env", "config", "config_digest",
        "grid_n")}
    rec.update(git_commit=git_commit(root), metrics=metrics, processes=recs)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(rec, indent=1))

    for line in summary_lines(recs, metrics):
        print(line)
    print(f"  record: {out_dir / name}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
