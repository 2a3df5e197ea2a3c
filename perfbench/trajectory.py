"""Run the benchmark over several seeds and record one trajectory entry.

    python3 perfbench/trajectory.py --runs 10 [--label TEXT]
                                    [--out perfbench/trajectory/BENCH_<k>.json]

For every workload in BENCHMARK.json, runs ``run.py`` for ``run_seconds``
at seeds 1..runs untraced and once traced, then prints and records each end-to-end metric's median, quartiles and spread: the
interquartile distance (``statistics.quantiles(values, n=4)``) over the
median, next to a third of the metric's bound from BENCHMARK.json.  The
entry also records the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    # A failed check still prints its result (correct = false) and exits 1.
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def openblas_version():
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def machine() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_version(),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    entry = {"label": args.label, "machine": machine(), "run_seconds": seconds,
             "runs": args.runs, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, seconds, 0)
            results.append(res)
            print(workload, seed, res["correct"], res["failed"], res["attempted"],
                  {k: round(m["value"], 4) for k, m in res["metrics"].items()}, flush=True)
        end_to_end = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            end_to_end[name] = stats
            print(f"  {workload} {name}: median {stats['median']:.4g}, "
                  f"spread {stats['spread']:.2%} (bound / 3 = {bound / 3:.2%})", flush=True)
        res = run_once(workload, 1, seconds, 1)
        layers = {k: m["value"] for k, m in res["metrics"].items()}
        print(f"  {workload} traced: correct={res['correct']} "
              f"stage_cover_frac={layers['runner.replicate.stage_cover_frac']:.4f}", flush=True)
        entry["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in [*results, res]),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": layers,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
