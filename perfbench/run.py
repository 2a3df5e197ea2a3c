"""Benchmark of the spikescore Monte Carlo sweeps, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each sweep runs through the public API (``runner.load_config`` and
``run_hdlss_sweep`` / ``run_growing_n_sweep``) in a fresh process
(``child.py``), with BLAS/OpenMP threads pinned to 1 so that parallelism
comes only from the runner's ``workers``.  ``--seed`` becomes the sweep's
``master_seed``.  With ``--trace 0`` the run repeats the sweep for
``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced sweep and one traced serial sweep, and
reports the per-layer metrics.  Every sweep is checked: no failed replicates, grid x M x
m finite rows in ``records.csv``, and the same ``records.csv`` bytes from
every sweep of the run, traced or not.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from child import REPLICATE_SPAN, RNG_FLOOR_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR_NAME = ".perfbench_out"

# A run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0
SETUP_PROBES = 6  # before and again after the sweeps

PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


@dataclass(frozen=True)
class Workload:
    mode: str
    spikes: str
    grid: tuple[int, ...]
    replicates: int
    workers: int
    n: Optional[int] = None
    basis: str = "canonical"

    @property
    def tasks(self) -> int:
        return len(self.grid) * self.replicates

    @property
    def rows(self) -> int:
        return self.tasks * len(self.spikes.split(","))

    def config_text(self, seed: int, output_dir: Path, workers: int) -> str:
        grid_key = "grid.n" if self.mode == "growing-n-sweep" else "grid.d"
        lines = [
            f"mode = {self.mode}",
            f"template.spikes = {self.spikes}",
            f"template.basis = {self.basis}",
            f"{grid_key} = {','.join(str(g) for g in self.grid)}",
            f"replicates = {self.replicates}",
            f"master_seed = {seed}",
            f"workers = {workers}",
            f"output_dir = {output_dir}",
        ]
        if self.n is not None:
            lines.append(f"template.n = {self.n}")
        return "\n".join(lines) + "\n"


# Why each workload exists is in README.md.
WORKLOADS = {
    "hdlss-canonical-1e6": Workload(
        mode="hdlss-sweep", spikes="power:2:1.5,power:1:1.5", n=50,
        grid=(1_000_000,), replicates=12, workers=1,
    ),
    "hdlss-orthogonal-1e5": Workload(
        mode="hdlss-sweep", spikes="power:2:1.5,power:1:1.5", n=50,
        basis="orthogonal:3", grid=(100_000,), replicates=10, workers=1,
    ),
    "growing-n-1600": Workload(
        mode="growing-n-sweep", spikes="power:2:2,power:1:2",
        grid=(100, 200, 400, 800, 1600), replicates=12, workers=2,
    ),
}


class RunFailed(Exception):
    """The program could not be set up at all; no result is printed."""


class Harness:
    """Starts child processes for one run and checks what they leave."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def _child(self, workers: int, extra: list[str]) -> Optional[dict]:
        self.count += 1
        tag = f"{self.count:03d}"
        out = self.work_dir / tag
        config = self.work_dir / f"{tag}.cfg"
        result = self.work_dir / f"{tag}.json"
        config.write_text(self.workload.config_text(self.seed, out, workers))
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config),
               "--result", str(result), *extra]
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Also ends any pool workers the child left behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0 or not result.is_file():
            why = "timed out" if code is None else f"exited with {code}"
            self.problems.append(f"child {tag} {why}")
            return None
        return json.loads(result.read_text())

    def setup(self) -> Optional[float]:
        res = self._child(self.workload.workers, ["--setup-only"])
        return None if res is None else res["setup_s"]

    def sweep(self, workers: int, spans: Optional[Path] = None) -> Optional[dict]:
        extra = ["--trace", str(spans)] if spans else []
        self.attempted += self.workload.tasks
        res = self._child(workers, extra)
        if res is None:
            self.failed += self.workload.tasks
            return None
        self.failed += res["failures"]["count"]
        if res["failures"]["count"]:
            self.problems.append(f"{res['failures']['count']} replicate(s) failed")
        digest = self._check_records(Path(res["records_path"]))
        self.digests.add(digest)
        print(
            f"sweep (workers={workers}, traced={bool(spans)}): "
            f"{res['sweep_wall_s']:.3f} s, peak RSS {res['peak_rss_mb']:.1f} MB, "
            f"failed {res['failures']['count']}/{res['failures']['total']}, "
            f"checks.passed={res['checks']['passed']} ({res['checks']['detail']}), "
            f"records.csv sha256={digest} with blas_threads={res['blas_threads']}"
        )
        return res

    def _check_records(self, path: Path) -> str:
        data = path.read_bytes()
        rows = data.decode().splitlines()[1:]
        if len(rows) != self.workload.rows:
            self.problems.append(f"{path}: {len(rows)} rows, expected {self.workload.rows}")
        for row in rows:
            try:
                finite = all(math.isfinite(float(v)) for v in row.split(","))
            except ValueError:
                finite = False
            if not finite:
                self.problems.append(f"{path}: non-numeric or non-finite value in row {row!r}")
                break
        return hashlib.sha256(data).hexdigest()

    def verdict(self) -> bool:
        """True when every check of the run passed."""
        if len(self.digests) > 1:
            self.problems.append(f"records.csv differs between sweeps: {sorted(self.digests)}")
        return not self.problems


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    # A layer the program stops calling leaves 0, not a crash.
    return a / b if b else 0.0


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, or the
    sample just above the median when there are fewer than 22 samples:
    (value, percentile)."""
    if not values:
        return 0.0, 0.0
    xs = sorted(values)
    k = max(len(xs) - 10, len(xs) // 2 + 1)
    return xs[k - 1], 100.0 * k / len(xs)


def layer_metrics(spans: list[dict], shapes: dict, workers: int,
                  sweep_wall_s: float, span_cost_s: float) -> dict:
    """Per-layer metrics from the spans of one traced serial sweep."""
    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def total(name):
        return sum(durations(name))

    def p50_ms(name):
        return 1e3 * _median(durations(name))

    replicates = [s for s in spans if s["name"] == REPLICATE_SPAN]
    rep_durations = [s["end"] - s["start"] for s in replicates]
    by_id = {s["id"]: s for s in replicates}
    child_time = sum(s["end"] - s["start"] for s in spans if s["parent"] in by_id)
    rep_total = sum(rep_durations)
    # Spans opened inside replicates: the replicate spans and their stages.
    rep_spans = sum(1 for s in spans if s["replicate"] is not None and s["name"] != RNG_FLOOR_SPAN)
    tail_ms, tail_pct = _tail(rep_durations)

    floors: dict[int, list[float]] = {}
    for s in spans:
        if s["name"] == RNG_FLOOR_SPAN:
            floors.setdefault(s["replicate"][0], []).append(s["end"] - s["start"])
    floor_of = {g: _median(v) for g, v in floors.items()}
    rep_floors = [floor_of.get(s["replicate"][0], 0.0) for s in replicates]

    def pca_gflop(span):
        n, d = shapes[str(span["replicate"][0])]
        return (2.0 * d * n * n + n ** 3) / 1e9

    gflop = sum(pca_gflop(s) for s in spans if s["name"] == "pca_engine.dual_pca")
    pca_s = total("pca_engine.dual_pca")
    largest = max(n * d for n, d in shapes.values())
    return {
        "spike_model.generate_sample.p50_ms": (p50_ms("spike_model.generate_sample"), "ms"),
        "spike_model.generate_sample.sum_s": (total("spike_model.generate_sample"), "s"),
        "spike_model.rng_floor.p50_ms": (1e3 * _median(rep_floors), "ms"),
        "spike_model.generate_over_rng_floor": (
            _ratio(total("spike_model.generate_sample"), sum(rep_floors)), "ratio"),
        "spike_model.sample_bytes": (8 * largest, "bytes"),
        "spike_model.basis_vectors.sum_s": (total("spike_model.basis_vectors"), "s"),
        "spike_model.basis_vectors.calls": (len(durations("spike_model.basis_vectors")), "count"),
        "spike_model.population_score_matrix.sum_s": (
            total("spike_model.population_score_matrix"), "s"),
        "spike_model.resolve_eigenvalues.sum_s": (total("spike_model.resolve_eigenvalues"), "s"),
        "pca_engine.dual_pca.p50_ms": (p50_ms("pca_engine.dual_pca"), "ms"),
        "pca_engine.dual_pca.sum_s": (pca_s, "s"),
        "pca_engine.dual_pca.gflop": (gflop, "GFLOP"),
        "pca_engine.dual_pca.gflop_per_s": (_ratio(gflop, pca_s), "GFLOP/s"),
        "asymptotics.spike_overlaps.sum_s": (total("asymptotics.spike_overlaps"), "s"),
        "asymptotics.score_ratio_table.sum_s": (
            total("asymptotics.score_ratio_table")
            + total("asymptotics.comparable_sample_scores"), "s"),
        "limit_dist.ks_test.sum_ms": (1e3 * total("limit_dist.ks_test"), "ms"),
        "runner.replicate.count": (len(replicates), "count"),
        "runner.replicate.p50_ms": (1e3 * _median(rep_durations), "ms"),
        "runner.replicate.tail_ms": (1e3 * tail_ms, "ms"),
        "runner.replicate.tail_pct": (tail_pct, "%"),
        "runner.replicate.self_ms": (1e3 * (rep_total - child_time), "ms"),
        "runner.replicate.stage_cover_frac": (_ratio(child_time, rep_total), "ratio"),
        "runner.write_records_csv_ms": (1e3 * total("runner.write_records_csv"), "ms"),
        "runner.pool_busy_frac": (rep_total / (workers * sweep_wall_s), "ratio"),
        "trace.overhead_frac": (_ratio(rep_spans * span_cost_s, rep_total), "ratio"),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    h = Harness(workload, seed, work_dir)
    print(f"threads pinned in every child: {PINNED_THREADS}")

    # The first import compiles bytecode and warms the page cache; users
    # pay that once per install, not once per sweep, so it is not timed.
    if h.setup() is None:
        raise RunFailed("; ".join(h.problems))

    if trace:
        first = h.sweep(workload.workers)
        spans_path = work_dir / "spans.json"
        traced = h.sweep(1, spans=spans_path)
        if first is None or traced is None:
            raise RunFailed("; ".join(h.problems))
        metrics = layer_metrics(
            json.loads(spans_path.read_text()), traced["shapes"], workload.workers,
            first["sweep_wall_s"], traced["span_cost_s"],
        )
    else:
        # Set-up probes before and after the sweeps, so that a burst of
        # load on the machine reaches only some of them.  Load only ever
        # adds time to an import, so the fastest probe is reported.
        setups = [h.setup() for _ in range(SETUP_PROBES)]
        sweeps = []
        loop_start = time.perf_counter()
        last = 0.0
        while time.perf_counter() - loop_start < seconds and h.remaining() > 1.5 * last:
            t = time.perf_counter()
            res = h.sweep(workload.workers)
            last = time.perf_counter() - t
            if res is not None:
                sweeps.append(res)
                setups.append(res["setup_s"])
        setups += [h.setup() for _ in range(SETUP_PROBES)]
        setups = [s for s in setups if s is not None]
        if not sweeps:
            raise RunFailed("; ".join(h.problems) or "no sweep finished")
        metrics = {
            "setup_s": (min(setups), "s"),
            "sweep_wall_s": (statistics.median(s["sweep_wall_s"] for s in sweeps), "s"),
            "peak_rss_mb": (max(s["peak_rss_mb"] for s in sweeps), "MB"),
        }
    correct = h.verdict()
    for problem in h.problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": correct,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "spikescore" / "__init__.py").is_file():
        print(f"no spikescore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), ROOT / WORK_DIR_NAME / name)
        except RunFailed as exc:
            print(f"{name}: run failed: {exc}", file=sys.stderr)
            return 1
        for key, m in result["metrics"].items():
            print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
        print(f"{name} failed_frac = {result['failed'] / result['attempted']:.6g} fraction "
              f"({result['failed']} of {result['attempted']} replicates)")
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
