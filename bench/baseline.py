"""Run every workload over several seeds and summarise the spread.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload and seed this runs ``bench/run.py --trace 0`` once (one
run at a time, so runs do not compete for the processor), then one
``--trace 1`` run on the first seed.  It prints, per end-to-end metric, the
median of the runs and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json.  The summary, with the
Python version, git commit, processor count and model, is written to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, traced: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {traced} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    summary = {
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            res = run(name, seed, spec["run_seconds"], 0)
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()), flush=True)
        end_to_end = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            end_to_end[metric] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med, "bound": bounds[metric]}
            print(f"  {metric:14s} median {med:.5g}  spread {(q3 - q1) / med:.3f}"
                  f"  bound {bounds[metric]}", flush=True)
        traced = run(name, args.seeds[0], spec["run_seconds"], 1)
        summary["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer_seed": args.seeds[0],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
