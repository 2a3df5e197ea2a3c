"""Toy-size smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs two tiny workloads (one serial HDLSS sweep that reaches the KS test,
one pooled growing-n sweep) untraced and traced, and checks that each run
is correct and emits exactly the metric names and units that
BENCHMARK.json declares.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

TOY_WORKLOADS = {
    "toy-hdlss": run.Workload(
        mode="hdlss-sweep", spikes="power:2:1.5,power:1:1.5", n=12,
        basis="orthogonal:3", grid=(500, 1000), replicates=10, workers=1,
    ),
    "toy-growing-n": run.Workload(
        mode="growing-n-sweep", spikes="power:2:2,power:1:2",
        grid=(20, 40), replicates=6, workers=2,
    ),
}


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures = []
    for name, workload in TOY_WORKLOADS.items():
        for trace in (False, True):
            result = run.run_workload(
                workload, seed=5, seconds=0.1, trace=trace,
                work_dir=run.ROOT / run.WORK_DIR_NAME / name,
            )
            label = f"{name} trace={int(trace)}"
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(emitted.items()))
                extra = sorted(set(emitted.items()) - set(expected[trace].items()))
                failures.append(f"{label}: missing {missing}, unexpected {extra}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: run not correct: {result}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
