"""Run the benchmark over several seeds and summarise it as a BENCH file.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BENCH_0.json

For each workload of BENCHMARK.json this runs ``run.py --trace 0`` once per
seed and reports, per end-to-end metric, the median, the quartiles and the
spread (q3 - q1) / median, next to the metric's bound. It then makes one
``--trace 1`` run per workload (at the first seed) for the layer table.
Run it from the repository root; it runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    record_line = next(line for line in lines if line.strip().startswith("record: "))
    result = json.loads(lines[-1])
    result["record"] = json.loads(Path(record_line.split("record: ", 1)[1]).read_text())
    return result


def summarise(values: list, bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "bound": bound,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = [run_once(name, s, bench["run_seconds"], 0) for s in seeds]
        first = runs[0]["record"]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "timed_ops_per_run": [sum(len(q["ops"]) - 1 for q in r["record"]["processes"])
                                  for r in runs],
            "config_digest": first["config_digest"], "grid_n": first["grid_n"],
            "versions": first["versions"], "cores": first["cores"],
            "thread_env": first["thread_env"], "git_commit": first["git_commit"],
            "cold_op_pin": first["processes"][0]["ops"][0]["pin"],
            "cold_op_digest": first["processes"][0]["ops"][0]["output_digest"],
            "metrics": {m: summarise([r["metrics"][m]["value"] for r in runs], bounds.get(m))
                        for m in runs[0]["metrics"]},
        }
        for m, s in entry["metrics"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{name:15s} {m:12s} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.3f} bound {s['bound']}{flag}")
        traced = run_once(name, seeds[0], bench["run_seconds"], 1)
        entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["tracing_overhead_frac"] = entry["layers"]["tracer.overhead_frac"]
        report["workloads"][name] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
