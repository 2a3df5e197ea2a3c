"""One benchmark process: set up, run one sweep, write a JSON result.

Run by ``run.py`` in a fresh interpreter per sweep, with BLAS/OpenMP
threads pinned to 1 and ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/child.py --config CFG --result OUT.json [--setup-only]
                               [--trace SPANS.json]

``setup_s`` is the time to import spikescore and load (and so validate)
the config.  With ``--trace`` the sweep runs with every public call that
``runner.compute_replicate`` makes wrapped in a timing span, observed from
outside the package; spans stay in memory and are written at the end,
followed by bare RNG draws of each grid point's sample shape (the floor
that ``generate_sample`` cannot go below) and a timing of what one span
adds to an empty call.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

# Public calls that compute_replicate makes, directly or nested, plus the
# sweep-level KS and CSV writer.  Span name = "<module>.<function>".
TRACED_CALLS = (
    ("spike_model", "generate_sample"),
    ("spike_model", "basis_vectors"),
    ("spike_model", "population_score_matrix"),
    ("spike_model", "resolve_eigenvalues"),
    ("pca_engine", "dual_pca"),
    ("asymptotics", "comparable_sample_scores"),
    ("asymptotics", "score_ratio_table"),
    ("asymptotics", "spike_overlaps"),
    ("limit_dist", "ks_test"),
    ("runner", "write_records_csv"),
)
REPLICATE_SPAN = "runner.replicate"
RNG_FLOOR_SPAN = "spike_model.rng_floor"


class Tracer:
    """In-memory spans: name, start, end, parent span id, replicate id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def record(self, name, start, end, replicate=None, parent=None) -> dict:
        span = {"id": len(self.spans), "name": name, "start": start, "end": end,
                "parent": parent, "replicate": replicate}
        self.spans.append(span)
        return span

    def wrap(self, name, fn, replicate_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if replicate_of is not None:
                replicate = replicate_of(*args, **kwargs)
            else:
                replicate = None if parent is None else parent["replicate"]
            span = self.record(name, 0.0, 0.0, replicate,
                               None if parent is None else parent["id"])
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced


def _rebind(package_modules, original, wrapper) -> None:
    """Point every module-level name bound to ``original`` at ``wrapper``."""
    for mod in package_modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install_tracer(tracer: Tracer) -> None:
    import spikescore

    package_modules = [
        m for name, m in sys.modules.items()
        if m is not None and (name == "spikescore" or name.startswith("spikescore."))
    ]
    for module_name, func in TRACED_CALLS:
        # A call the program no longer has is skipped; its metrics read 0.
        fn = getattr(sys.modules.get(f"spikescore.{module_name}"), func, None)
        if fn is not None:
            _rebind(package_modules, fn, tracer.wrap(f"{module_name}.{func}", fn))
    compute = spikescore.runner.compute_replicate
    signature = inspect.signature(compute)

    def replicate_id(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        return [int(bound["grid_value"]), int(bound["replicate"])]

    _rebind(package_modules, compute, tracer.wrap(REPLICATE_SPAN, compute, replicate_id))


def time_rng_floor(tracer: Tracer, config) -> None:
    """Bare Philox standard-normal draws of each grid point's n x d shape."""
    import numpy as np

    for g in config.grid:
        spec = config.template.spec_at(config.mode, g)
        started = time.perf_counter()
        k = 0
        while k < 3 or (time.perf_counter() - started < 0.1 and k < 100):
            ss = np.random.SeedSequence((config.master_seed, int(g), k))
            rng = np.random.Generator(np.random.Philox(ss))
            t0 = time.perf_counter()
            z = rng.standard_normal((spec.n, spec.d))
            tracer.record(RNG_FLOOR_SPAN, t0, time.perf_counter(), [int(g), k])
            del z
            k += 1


def _noop():
    return None


def span_cost_s() -> float:
    """Seconds one traced call adds to an empty call, nested in a parent
    span as the stage calls are: best of 7 loops of 2000 calls."""
    calls, repeats = 2000, 7
    tracer = Tracer()
    parent = tracer.record(REPLICATE_SPAN, 0.0, 0.0, [0, 0])
    wrapped = tracer.wrap("noop", _noop)

    def per_call(fn) -> float:
        tracer.spans[1:] = []
        tracer._stack[:] = [parent]
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - started) / calls

    return min(per_call(wrapped) for _ in range(repeats)) - min(
        per_call(_noop) for _ in range(repeats))


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """Largest RSS of this process or any reaped pool worker, in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()
    src = Path(os.environ["PYTHONPATH"]).resolve()

    t0 = time.perf_counter()
    import spikescore
    from spikescore import runner

    config = runner.load_config(args.config)
    setup_s = time.perf_counter() - t0

    if src not in Path(spikescore.__file__).resolve().parents:
        print(f"spikescore was imported from {spikescore.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = Tracer()
            install_tracer(tracer)
        sweep = (runner.run_hdlss_sweep if config.mode == runner.MODE_HDLSS
                 else runner.run_growing_n_sweep)
        t1 = time.perf_counter()
        report = sweep(config)
        sweep_wall_s = time.perf_counter() - t1
        specs = {g: config.template.spec_at(config.mode, g) for g in config.grid}
        result.update(
            sweep_wall_s=sweep_wall_s,
            peak_rss_mb=peak_rss_mb(),
            failures={"count": report.failures["count"], "total": report.failures["total"]},
            checks=report.checks,
            records_path=str(report.records_path),
            shapes={str(g): [spec.n, spec.d] for g, spec in specs.items()},
            blas_threads=blas_threads(),
        )
        if tracer is not None:
            time_rng_floor(tracer, config)
            result["span_cost_s"] = span_cost_s()
            Path(args.trace).write_text(json.dumps(tracer.spans))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
