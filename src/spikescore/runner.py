"""Monte Carlo sweeps over dimension or sample size, with persisted records.

A sweep draws M replicates per grid point, runs dual PCA on each, computes
the score-ratio and eigen-structure diagnostics, and writes one CSV row per
(replicate, spike) plus a JSON report with distributional test outcomes,
trend tables, per-stage timings and the regime ratio of each grid point.
Replicate streams are keyed by (master_seed, grid_value, replicate) through
a counter-based generator, so results are byte-identical regardless of
worker count or scheduling.  A worker pool takes the replicates one at a
time, largest grid value first, so the costliest ones start early and no
worker is left alone with them at the end; outcomes are put back in task
order.  Each finished grid point logs one progress line with an ETA.

Each sweep mode is defined once, as one entry of ``_MODE_TABLE``: its grid
key, its (n, d) at a grid value, its regime ratio and guard, its report
rows and the check that reads them.  The two modes test the paper's two
claims.  ``hdlss-sweep`` (n fixed, d grows) writes one ``ks`` row per grid
point and spike: a KS test of the per-replicate median ratios
median_i |s_hat_ij / s_ij| against the law of sqrt(n / chi2_n), the common
rescaling of the sample scores.  At fixed n that law is exact only for the
first spike, and only as lambda_2 / lambda_1 -> 0, so a later spike's row
can reject a correct model once the replicates are many.
``growing-n-sweep`` (n grows, d coupled to n) writes one ``consistency``
row per grid point and spike, the mean |median ratio - 1|, and checks that
it shrinks as n grows: the rescaling "paradox disappears".

Each replicate takes one route on either basis: ``sample_gram`` reduces
the d x n sample to two n-space arrays, the Gram X'X of dual PCA and the
projection on the spike directions, P = X'U_m; ``gram_pca`` gives the
sample eigenvalues w and score vectors V from the Gram; and the
diagnostics read only w, V, the population scores S and P.
``sample_gram`` reads the stream of raw standard-normal column blocks and
reduces each block while it is in cache: it sums the block's Gram and its
projection on the spike directions, and assembles X'X and P in n-space,
on either basis.  So past one block a replicate never holds the n x d
sample.

The sweep owns its parallelism and derives it, with no setting of its
own: ``workers`` processes take the replicates, and each process draws
the column blocks on up to (usable CPUs) // workers threads
(``spike_model.set_draw_threads``), on either basis.
The count is set in the serial sweep and in each pool worker as it
starts, together with the eigensolver import, so no replicate's timings
hold that import.  The draw threads live only inside one ``sample_gram``
call.  Neither count changes a record's bits; ``report.json`` names both
under ``parallelism``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np
import scipy

from . import __version__
from .asymptotics import (
    DEFAULT_DENOMINATOR_GUARD,
    comparable_sample_scores,
    projection_overlaps,
    score_ratio_table,
    spike_diagnostics,
)
from .limit_dist import RLaw, ks_test
from .pca_engine import PcaResult, dual_pca, gram_pca
from .spike_model import (
    BasisChoice,
    CanonicalAxes,
    ConstantMean,
    DataMatrix,
    MeanChoice,
    RandomOrthogonal,
    SpikeProfile,
    SpikeSpec,
    ZeroMean,
    projection_scores,
    sample_gram,
    set_draw_threads,
)

log = logging.getLogger(__name__)

# The sweep modes; each is one entry of _MODE_TABLE, below the entry points.
MODE_HDLSS = "hdlss-sweep"
MODE_GROWING_N = "growing-n-sweep"

# Stages that compute_replicate times, in order, the same on either basis:
# "generate" draws the sample and forms its Gram and P (sample_gram), "pca"
# is the eigen-part (gram_pca), and "diagnostics" reads n-space arrays only.
STAGES = ("generate", "pca", "diagnostics")

RECORDS_HEADER = "grid,replicate,j,median_ratio,rel_spread,eig_ratio,angle_rad,leakage,n_excluded"

# Abort a sweep when more than this fraction of replicates fail; silently
# dropping more would distort the distributional samples.
MAX_FAILURE_RATE = 0.01


@dataclass(frozen=True)
class SpikeTemplate:
    """A spiked model with the sweep-controlled sizes left open.

    For a dimension sweep, ``n`` is fixed here and d comes from the grid.
    For a sample-size sweep, n comes from the grid and the dimension is
    coupled as d = round(d_over_n * n), and a grid point where that d is
    not above the spike count is refused; spike power laws resolve against
    that coupled d (the default d_over_n = 1 with exponent 2 gives the
    leading eigenvalue n**2).
    """

    spikes: tuple[SpikeProfile, ...]
    tail_value: float = 1.0
    basis: BasisChoice = CanonicalAxes()
    mean: MeanChoice = ZeroMean()
    n: Optional[int] = None
    d_over_n: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.d_over_n < math.inf:
            raise ValueError(f"d_over_n must be positive and finite, got {self.d_over_n}")

    @property
    def m(self) -> int:
        return len(self.spikes)

    def spec_at(self, mode: str, grid_value: int) -> SpikeSpec:
        n, d = _MODE_TABLE[mode].sizes(self, grid_value)
        return SpikeSpec(
            spikes=self.spikes,
            n=n,
            d=d,
            tail_value=self.tail_value,
            basis=self.basis,
            mean=self.mean,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    template: SpikeTemplate
    grid: tuple[int, ...] = ()  # d values in hdlss-sweep, n values in growing-n-sweep
    replicates: int = 1
    master_seed: int = 0
    guard: float = DEFAULT_DENOMINATOR_GUARD
    output_dir: Union[str, Path] = "out"
    workers: Union[int, str] = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(int(v) for v in self.grid))
        object.__setattr__(self, "workers", _parse_workers(self.workers))
        self.validate()

    def resolved_workers(self) -> int:
        return usable_cpus() if self.workers == "auto" else self.workers

    def validate(self) -> None:
        """Check the fields, then the regime hypothesis of the sweep mode.

        Each mode is held to the hypothesis of its own asymptotics, which
        the ``check`` of its ``_MODE_TABLE`` entry tests on the spec of
        every grid point (``_HdlssSweep``, ``_GrowingNSweep``).
        """
        mode = _MODE_TABLE[self.mode]
        if not self.grid:
            raise ValueError(f"mode {self.mode} needs a non-empty {mode.grid_key}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {self.grid}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0 < self.guard < math.inf:
            raise ValueError(f"guard must be positive and finite, got {self.guard}")
        specs = []
        for grid_value in self.grid:
            try:
                specs.append(self.template.spec_at(self.mode, grid_value))
            except ValueError as err:
                raise ValueError(f"grid point {grid_value}: {err}") from None
        mode.check(self.template, self.grid, specs)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a CPU mask or a container may allow fewer than the host has),
    else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_workers(value) -> Union[int, str]:
    """``"auto"`` or an integer >= 1, given as such or as its decimal text:
    the one rule for the ``workers`` field, file key and CLI flag.  A bool
    (whose text is not decimal) or a float is refused, not truncated."""
    if value != "auto" and not (str(value).isdecimal() and int(value) >= 1):
        raise ValueError(f"workers must be 'auto' or an integer >= 1, got {value!r}")
    return value if value == "auto" else int(value)


def _regime_ratio(mode: str, spec: SpikeSpec) -> float:
    """d / lambda_m in ``hdlss-sweep``, d / (n lambda_m) in ``growing-n-sweep``:
    the rate that validation guards on and report.json records."""
    return _MODE_TABLE[mode].ratio(spec)


@dataclass(frozen=True)
class SpikeDiagnostics:
    """Per-spike summary of one replicate (j is 0-based)."""

    j: int
    median_ratio: float
    rel_spread: float
    eig_ratio: float
    angle_rad: float
    leakage: float
    cross_overlaps: tuple[float, ...]
    n_excluded: int


@dataclass(frozen=True)
class ReplicateRecord:
    grid_value: int
    replicate: int
    spikes: tuple[SpikeDiagnostics, ...]
    timings: dict = field(default_factory=dict, compare=False)


@dataclass
class ExperimentReport:
    mode: str
    config_echo: dict
    grid: tuple[int, ...]
    records: list
    ks_outcomes: list
    consistency: list
    trend: list
    timings: list
    regime: list
    checks: dict
    failures: dict
    versions: dict
    parallelism: dict
    total_runtime_s: float
    records_path: Optional[Path] = None
    report_path: Optional[Path] = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "config": self.config_echo,
            "grid": list(self.grid),
            "ks": self.ks_outcomes,
            "consistency": self.consistency,
            "trend": self.trend,
            "timings": self.timings,
            "regime": self.regime,
            "checks": self.checks,
            "failures": self.failures,
            "versions": self.versions,
            "parallelism": self.parallelism,
            "total_runtime_s": self.total_runtime_s,
        }


def compute_replicate(
    template: SpikeTemplate,
    mode: str,
    grid_value: int,
    replicate: int,
    master_seed: int,
    guard: float = DEFAULT_DENOMINATOR_GUARD,
) -> ReplicateRecord:
    """Generate, decompose, and summarize one replicate.

    The replicate stream is (master_seed, grid_value, replicate), so any
    record can be regenerated in isolation with ``sample_gram`` and
    ``gram_pca``.  ``generate_sample`` and ``dual_pca`` give the same
    record to the bit up to d = ``SAMPLE_BLOCK`` on either basis; past that
    X'X and P are assembled in n-space from sums over column blocks, so
    they agree to rounding.
    """
    spec = template.spec_at(mode, grid_value)
    m = spec.m
    seed = np.random.SeedSequence((int(master_seed), int(grid_value), int(replicate)))

    t0 = time.perf_counter()
    gram, proj = sample_gram(spec, seed)
    t1 = time.perf_counter()
    pca = gram_pca(gram, spec.d, divisor="n", rank=m)
    t2 = time.perf_counter()
    s_pop = projection_scores(spec, proj)
    s_hat = comparable_sample_scores(pca, m)
    table = score_ratio_table(s_hat, s_pop, guard)
    overlaps = projection_overlaps(pca, proj)
    spike = spike_diagnostics(overlaps, spec.spike_eigenvalues, pca.sample_eigenvalues)
    diags = tuple(
        SpikeDiagnostics(
            j=j,
            median_ratio=float(table.medians[j]),
            rel_spread=float(table.rel_spreads[j]),
            eig_ratio=float(spike.eig_ratios[j]),
            angle_rad=float(spike.angles[j]),
            leakage=float(spike.leakage[j]),
            cross_overlaps=tuple(np.delete(spike.cross_overlaps[j], j).tolist()),
            n_excluded=int(table.n_excluded[j]),
        )
        for j in range(m)
    )
    t3 = time.perf_counter()
    timings = dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)))
    return ReplicateRecord(
        grid_value=int(grid_value),
        replicate=int(replicate),
        spikes=diags,
        timings=timings,
    )


def _start_process(threads: int) -> int:
    """Ready this process to run replicates; return its previous draw-thread
    count.

    Imports the eigensolver that ``gram_pca`` loads on first use, so the
    first replicate's "pca" stage times the eigensolve, not the import, and
    sets the draw threads.
    """
    import scipy.sparse.linalg  # noqa: F401

    return set_draw_threads(threads)


def _safe_compute(args):
    template, mode, grid_value, replicate, master_seed, guard = args
    try:
        record = compute_replicate(template, mode, grid_value, replicate, master_seed, guard)
        return ("ok", grid_value, replicate, record)
    except Exception as exc:  # logged and counted by the caller
        return ("err", grid_value, replicate, f"{type(exc).__name__}: {exc}")


def _format_float(x: float) -> str:
    return repr(float(x))


def write_records_csv(records: list, path: Path) -> None:
    """One row per (replicate, spike); the j column is 1-based."""
    lines = [RECORDS_HEADER]
    for rec in records:
        for diag in rec.spikes:
            lines.append(
                ",".join(
                    [
                        str(rec.grid_value),
                        str(rec.replicate),
                        str(diag.j + 1),
                        _format_float(diag.median_ratio),
                        _format_float(diag.rel_spread),
                        _format_float(diag.eig_ratio),
                        _format_float(diag.angle_rad),
                        _format_float(diag.leakage),
                        str(diag.n_excluded),
                    ]
                )
            )
    path.write_text("\n".join(lines) + "\n")


def _versions() -> dict:
    return {
        "spikescore": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _skipped(key: dict, sample_size: int, reason: str) -> dict:
    return {**key, "skipped": True, "sample_size": int(sample_size), "reason": reason}


def _nanmean(values: list) -> float:
    """Mean of the non-NaN values; NaN, without a warning, if there are none."""
    v = np.asarray(values, dtype=float)
    return float(np.nanmean(v)) if (~np.isnan(v)).any() else float("nan")


def _trend_row(grid_value: int, recs: list, m: int) -> dict:
    """Per spike, the mean of each eigen-structure diagnostic over one grid point."""
    row = {"grid": grid_value}
    for name, attr in (
        ("mean_rel_spread", "rel_spread"),
        ("mean_angle_rad", "angle_rad"),
        ("mean_leakage", "leakage"),
        ("mean_eig_ratio", "eig_ratio"),
    ):
        row[name] = [_nanmean([getattr(r.spikes[j], attr) for r in recs]) for j in range(m)]
    return row


def _timing_row(grid_value: int, recs: list) -> dict:
    """Median, 95th percentile and sum, in seconds, of each stage over one
    grid point."""
    row = {"grid": grid_value, "replicates": len(recs)}
    for stage in STAGES:
        t = np.array([r.timings[stage] for r in recs])
        p50, p95 = np.percentile(t, (50, 95)) if t.size else (float("nan"),) * 2
        row[stage] = {"p50_s": float(p50), "p95_s": float(p95), "sum_s": float(t.sum())}
    return row


def _collect_with_progress(outcomes, replicates: int, total: int) -> list:
    """List the outcomes as they arrive, logging a progress line (done/total,
    replicates/s, ETA) each time a grid point has all its replicates."""
    start = time.perf_counter()
    left: dict = {}
    done = []
    for outcome in outcomes:
        done.append(outcome)
        grid_value = outcome[1]
        left[grid_value] = left.get(grid_value, replicates) - 1
        if left[grid_value] == 0:
            rate = len(done) / (time.perf_counter() - start)
            log.info(
                "grid point %s finished: %d/%d replicates, %.3g replicates/s, ETA %.1f s",
                grid_value, len(done), total, rate, (total - len(done)) / rate,
            )
    return done


def _rise_note(a: dict, b: dict) -> str:
    """The rise of mean |median - 1| from consistency row a to row b, also in
    units of the standard error of the difference of two independent Monte
    Carlo means, which says whether noise can explain it."""
    rise = b["mean_abs_median_err"] - a["mean_abs_median_err"]
    se = float(np.hypot(a["se_abs_median_err"], b["se_abs_median_err"]))
    z = rise / se if se > 0 else float("nan")
    return f"{a['grid']} -> {b['grid']}: +{rise:.3g} ({z:.2g} SE)"


@dataclass(frozen=True)
class _SweepMode:
    """One sweep mode: what the two modes differ in, as one entry of
    ``_MODE_TABLE``, with ``run`` its public entry point.

    A subclass sets ``grid_key`` (the config-file key of the grid),
    ``ratio_key`` (the name of the regime ratio in report.json's ``regime``
    rows) and ``rows_key`` (the report.json list its rows go in), and
    defines:

    - ``sizes(template, grid_value) -> (n, d)``;
    - ``ratio(spec)``, the rate whose vanishing the mode's asymptotics need;
    - ``check(template, grid, specs)``, the mode's regime hypothesis, which
      raises or warns while the config is built;
    - ``row(key, medians, spec, trend)``, the row of one grid point and
      spike, from that spike's finite per-replicate median ratios and the
      grid point's trend row;
    - ``notes(rows, m)``, what the sweep's check rejects; no note passes.

    The first line of a subclass's docstring is its CLI subcommand's help.
    """

    run: Callable[[ExperimentConfig], ExperimentReport]


class _HdlssSweep(_SweepMode):
    """Monte Carlo sweep over dimension at fixed sample size.

    n is ``template.n`` and d the grid value, which must be >= n.  The mode
    needs pervasive spikes, d / lambda_m -> 0: a grid point with
    d / lambda_m >= 1 is refused, and one with d / lambda_m >= 0.5 draws a
    warning.

    Each ``ks`` row tests the paper's fixed-n claim, that the sample scores
    match the population scores up to one common factor per component
    distributed as sqrt(n / chi2_n): it KS-tests the spike's per-replicate
    median ratios median_i |s_hat_ij / s_ij| against that law, or is
    skipped below 10 finite medians.  At fixed n the law is exact only for
    j = 1, and only as lambda_2 / lambda_1 -> 0, since the sample score
    vectors are orthonormal and the population score columns are not.  So
    a later spike's row can reject a correct model once the replicates are
    many: at n = 10, d = 5000, spikes ``power:1:2,power:1:1.5`` and 3000
    replicates, spike 2 reads p = 4e-5.  The check notes the rows that
    reject at alpha = 0.01.
    """

    grid_key = "grid.d"
    ratio_key = "d_over_lambda_m"
    rows_key = "ks"

    def sizes(self, template: SpikeTemplate, grid_value: int) -> tuple[int, int]:
        if template.n is None:
            raise ValueError(f"template.n is required for mode {MODE_HDLSS}")
        return int(template.n), int(grid_value)

    def ratio(self, spec: SpikeSpec) -> float:
        return spec.d / spec.spike_eigenvalues[-1]

    def check(self, template: SpikeTemplate, grid: tuple, specs: list) -> None:
        for grid_value, spec in zip(grid, specs):
            if spec.d < spec.n:
                raise ValueError(
                    f"dimension sweep needs d >= n at every grid point; "
                    f"got d={spec.d} < n={spec.n}"
                )
            rate = self.ratio(spec)
            if rate >= 1.0:
                raise ValueError(
                    f"grid point {grid_value}: d/lambda_m = {rate:.3g} >= 1; the "
                    f"vanishing-ratio regime cannot be probed there"
                )
            if rate >= 0.5:
                warnings.warn(
                    f"grid point {grid_value}: d/lambda_m = {rate:.3g} is close "
                    f"to 1; the asymptotic regime may be out of reach",
                    stacklevel=3,
                )

    def row(self, key: dict, medians: np.ndarray, spec: SpikeSpec, trend: dict) -> dict:
        if medians.size < 10:
            return _skipped(key, medians.size, "KS needs at least 10 replicates")
        return {**key, **dataclasses.asdict(ks_test(medians, RLaw(spec.n).cdf))}

    def notes(self, rows: list, m: int) -> list:
        rejected = sum(bool(row.get("rejected_at_01")) for row in rows)
        note = f"{rejected} KS outcome(s) rejected the rescaling law at alpha=0.01"
        return [note] if rejected else []


class _GrowingNSweep(_SweepMode):
    """Monte Carlo sweep over sample size with coupled dimension.

    n is the grid value and d = round(``template.d_over_n`` * n), so
    ``template.n`` is refused.  Sample directions become consistent at the
    rate d / (n lambda_m) (Jung & Marron 2009, Ann. Statist. 37:4104),
    taken here without scaling by the tail value.  A warning is issued
    when that rate does not strictly decrease along the grid; nothing is
    refused, since no bound on the rate is known for this regime.

    Each ``consistency`` row tests the paper's large-n claim, that the
    rescaling "paradox disappears" as n grows: it gives the mean, standard
    error and maximum of the spike's |median ratio - 1| over the grid
    point's replicates, or is skipped when no median is finite.  The check
    notes each spike whose mean does not strictly decrease along the grid,
    with every rise in standard errors.
    """

    grid_key = "grid.n"
    ratio_key = "d_over_n_lambda_m"
    rows_key = "consistency"

    def sizes(self, template: SpikeTemplate, grid_value: int) -> tuple[int, int]:
        n = int(grid_value)
        return n, int(round(template.d_over_n * n))

    def ratio(self, spec: SpikeSpec) -> float:
        return spec.d / (spec.n * spec.spike_eigenvalues[-1])

    def check(self, template: SpikeTemplate, grid: tuple, specs: list) -> None:
        if template.n is not None:
            raise ValueError(f"mode {MODE_GROWING_N} takes n from {self.grid_key}, "
                             f"so template.n = {template.n} would be ignored")
        rates = [self.ratio(spec) for spec in specs]
        if any(b >= a for a, b in zip(rates, rates[1:])):
            shown = ", ".join(f"{r:.3g}" for r in rates)
            warnings.warn(
                f"d/(n lambda_m) = {shown} over grid.n = {list(grid)} does not "
                f"strictly decrease; the sweep cannot show the sample "
                f"directions becoming consistent",
                stacklevel=3,
            )

    def row(self, key: dict, medians: np.ndarray, spec: SpikeSpec, trend: dict) -> dict:
        if medians.size == 0:
            return _skipped(key, 0, "no finite median ratio")
        err = np.abs(medians - 1.0)
        se = np.std(err, ddof=1) / np.sqrt(err.size) if err.size > 1 else np.nan
        return {
            **key,
            "mean_abs_median_err": float(np.mean(err)),
            "se_abs_median_err": float(se),
            "max_abs_median_err": float(np.max(err)),
            "mean_eig_ratio": trend["mean_eig_ratio"][key["j"] - 1],
            "sample_size": int(medians.size),
        }

    def notes(self, rows: list, m: int) -> list:
        notes = []
        skipped = [row for row in rows if row.get("skipped")]
        if skipped:
            notes.append(
                f"{len(skipped)} (grid, spike) point(s) had no finite median ratio "
                f"and were left out of the decrease check"
            )
        for j in range(m):
            kept = [row for row in rows if row["j"] == j + 1 and not row.get("skipped")]
            errs = [row["mean_abs_median_err"] for row in kept]
            rises = [_rise_note(a, b) for a, b in zip(kept, kept[1:])
                     if b["mean_abs_median_err"] >= a["mean_abs_median_err"]]
            if rises:
                notes.append(
                    f"spike {j + 1}: mean |median - 1| not strictly decreasing: {errs}; "
                    f"rises {', '.join(rises)}"
                )
        return notes


def _run_sweep(config: ExperimentConfig) -> ExperimentReport:
    start = time.perf_counter()
    m = config.template.m
    tasks = [
        (config.template, config.mode, g, rep, config.master_seed, config.guard)
        for g in config.grid
        for rep in range(config.replicates)
    ]
    total = len(tasks)
    workers = min(config.resolved_workers(), total)
    # Each process draws the column blocks on its share of the CPUs.
    threads = max(1, usable_cpus() // workers)
    if workers <= 1:
        previous = _start_process(threads)
        try:
            outcomes = _collect_with_progress(map(_safe_compute, tasks), config.replicates, total)
        finally:
            set_draw_threads(previous)
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_process, initargs=(threads,)
        ) as pool:
            # Cost grows with the grid value, so dispatch the largest first,
            # one task at a time, and reverse the outcomes back.
            arriving = pool.map(_safe_compute, tasks[::-1], chunksize=1)
            outcomes = _collect_with_progress(arriving, config.replicates, total)[::-1]

    records = []
    failure_detail = []
    for status, grid_value, replicate, payload in outcomes:
        if status == "ok":
            records.append(payload)
        else:
            log.error("replicate (grid=%s, rep=%s) failed: %s", grid_value, replicate, payload)
            failure_detail.append({"grid": grid_value, "replicate": replicate, "error": payload})
    if len(failure_detail) > MAX_FAILURE_RATE * total:
        raise RuntimeError(
            f"{len(failure_detail)} of {total} replicates failed "
            f"(> {MAX_FAILURE_RATE:.0%}); aborting the sweep"
        )

    mode = _MODE_TABLE[config.mode]
    rows = {"ks": [], "consistency": []}  # the mode fills rows[mode.rows_key]
    trend = []
    timings = []
    regime = []
    for g in config.grid:
        recs = [r for r in records if r.grid_value == g]
        trend.append(_trend_row(g, recs, m))
        timings.append(_timing_row(g, recs))
        spec = config.template.spec_at(config.mode, g)
        regime.append({"grid": g, mode.ratio_key: mode.ratio(spec)})
        for j in range(m):
            key = {"grid": g, "j": j + 1}
            medians = np.array([r.spikes[j].median_ratio for r in recs])
            medians = medians[np.isfinite(medians)]
            rows[mode.rows_key].append(mode.row(key, medians, spec, trend[-1]))
    check_notes = mode.notes(rows[mode.rows_key], m)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    write_records_csv(records, records_path)

    report = ExperimentReport(
        mode=config.mode,
        config_echo=config_to_dict(config),
        grid=config.grid,
        records=records,
        ks_outcomes=rows["ks"],
        consistency=rows["consistency"],
        trend=trend,
        timings=timings,
        regime=regime,
        checks={"passed": not check_notes, "detail": "; ".join(check_notes) or "ok"},
        failures={"count": len(failure_detail), "total": total, "detail": failure_detail},
        versions=_versions(),
        parallelism={"workers": workers, "draw_threads": threads},
        total_runtime_s=time.perf_counter() - start,
        records_path=records_path,
        report_path=out_dir / "report.json",
    )
    report.report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return report


def run_hdlss_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Fixed n, growing d: per grid point and spike, KS-test the
    per-replicate median ratios against the sqrt(n / chi2_n) law, the
    paper's common rescaling of the sample scores.

    At fixed n that law is exact only for the first spike, and only as
    lambda_2 / lambda_1 -> 0, so a later spike's row can reject a correct
    model once the replicates are many (see ``_HdlssSweep``).
    """
    if config.mode != MODE_HDLSS:
        raise ValueError(f"config mode is {config.mode!r}, expected {MODE_HDLSS!r}")
    return _run_sweep(config)


def run_growing_n_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Growing n with coupled d: per grid point and spike, summarize
    |median - 1|, and check that it shrinks as n grows, the large-n
    shrinkage in which the paper's rescaling paradox disappears.

    Building the config already warns when d / (n lambda_m) does not
    strictly decrease along grid.n, since such a sweep cannot show that
    shrinkage (see ``_GrowingNSweep``).
    """
    if config.mode != MODE_GROWING_N:
        raise ValueError(f"config mode is {config.mode!r}, expected {MODE_GROWING_N!r}")
    return _run_sweep(config)


class _ModeTable(dict):
    """Mode name -> ``_SweepMode``; an unknown name raises ValueError."""

    def __missing__(self, name: str):
        raise ValueError(f"unknown mode {name!r}; expected one of {tuple(self)}")


# One entry per sweep mode, in CLI order; every mode decision reads it.
_MODE_TABLE = _ModeTable({
    MODE_HDLSS: _HdlssSweep(run_hdlss_sweep),
    MODE_GROWING_N: _GrowingNSweep(run_growing_n_sweep),
})
_MODES = tuple(_MODE_TABLE)

# The config-file key of the grid each mode sweeps (ExperimentConfig.grid).
GRID_KEYS = {name: mode.grid_key for name, mode in _MODE_TABLE.items()}

# Per grid point, report.json names the rate whose vanishing the mode's
# asymptotics need, under these keys.
REGIME_RATIO_KEYS = {name: mode.ratio_key for name, mode in _MODE_TABLE.items()}


def export_scores_scatter(
    source: Union[DataMatrix, PcaResult, np.ndarray],
    components: tuple[int, int],
    out_path: Union[str, Path],
    *,
    center: bool = False,
    divisor: Union[str, int, float] = "n",
) -> Path:
    """Write a plot-ready CSV of two sample-score columns.

    ``components`` are 1-based component numbers (1 = leading).  ``source``
    may be a data matrix (d x n array or DataMatrix) on which dual PCA is
    run, or an existing PcaResult.
    """
    a, b = components
    if a < 1 or b < 1:
        raise ValueError(f"component numbers are 1-based, got {components}")
    if isinstance(source, PcaResult):
        pca = source
    else:
        x = source.values if isinstance(source, DataMatrix) else np.asarray(source, dtype=float)
        max_rank = min(x.shape)
        if max(a, b) > max_rank:
            raise ValueError(
                f"component {max(a, b)} exceeds the available rank {max_rank}"
            )
        pca = dual_pca(x, center=center, divisor=divisor, rank=max(a, b))
    if max(a, b) > pca.rank:
        raise ValueError(f"component {max(a, b)} exceeds the retained rank {pca.rank}")
    scores = pca.score_vectors
    lines = [f"sample_index,score_{a},score_{b}"]
    for i in range(pca.n):
        lines.append(
            f"{i},{_format_float(scores[i, a - 1])},{_format_float(scores[i, b - 1])}"
        )
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


# --- flat key-value config files -------------------------------------------


def _parse_spike(token: str) -> SpikeProfile:
    parts = token.strip().split(":")
    if parts[0] == "power" and len(parts) == 3:
        return SpikeProfile.power(float(parts[1]), float(parts[2]))
    if parts[0] == "literal" and len(parts) == 2:
        return SpikeProfile.fixed(float(parts[1]))
    raise ValueError(
        f"bad spike {token!r}; expected power:SCALE:EXPONENT or literal:VALUE"
    )


def _number_str(x: float) -> str:
    # Six significant digits when they give x back exactly, else all of them.
    return f"{x:g}" if float(f"{x:g}") == x else repr(float(x))


def _spikes_str(spikes: tuple[SpikeProfile, ...]) -> str:
    return ",".join(
        f"literal:{_number_str(p.literal)}" if p.literal is not None
        else f"power:{_number_str(p.scale)}:{_number_str(p.exponent)}"
        for p in spikes
    )


def _parse_basis(token: str) -> BasisChoice:
    parts = token.strip().split(":")
    if parts[0] == "canonical" and len(parts) == 1:
        return CanonicalAxes()
    if parts[0] == "orthogonal" and len(parts) == 2:
        return RandomOrthogonal(seed=int(parts[1]))
    raise ValueError(f"bad basis {token!r}; expected canonical or orthogonal:SEED")


def _basis_str(basis: BasisChoice) -> str:
    if isinstance(basis, RandomOrthogonal):
        return f"orthogonal:{basis.seed}"
    return "canonical"


def _parse_mean(token: str) -> MeanChoice:
    parts = token.strip().split(":")
    if parts[0] == "zero" and len(parts) == 1:
        return ZeroMean()
    if parts[0] == "constant" and len(parts) == 2:
        return ConstantMean(value=float(parts[1]))
    raise ValueError(f"bad mean {token!r}; expected zero or constant:VALUE")


def _mean_str(mean: MeanChoice) -> str:
    if isinstance(mean, ConstantMean):
        return f"constant:{_number_str(mean.value)}"
    return "zero"


@dataclass(frozen=True)
class _FileKey:
    """A config-file key: its holder dataclass and field, parser and echo,
    and the modes that read it."""

    holder: type
    attr: str
    parse: Callable[[str], object]
    show: Callable[[object], object] = lambda value: value
    modes: tuple[str, ...] = _MODES


# The config file format, in echo order.  Each mode reads one of the grid
# keys, and only growing-n-sweep reads template.d_over_n.
_FILE_KEYS = {
    "mode": _FileKey(ExperimentConfig, "mode", str),
    "template.spikes": _FileKey(
        SpikeTemplate, "spikes", lambda t: tuple(map(_parse_spike, t.split(","))), _spikes_str
    ),
    "template.tail": _FileKey(SpikeTemplate, "tail_value", float),
    "template.basis": _FileKey(SpikeTemplate, "basis", _parse_basis, _basis_str),
    "template.mean": _FileKey(SpikeTemplate, "mean", _parse_mean, _mean_str),
    "template.n": _FileKey(SpikeTemplate, "n", int),
    "template.d_over_n": _FileKey(SpikeTemplate, "d_over_n", float, modes=(MODE_GROWING_N,)),
    **{key: _FileKey(ExperimentConfig, "grid", lambda t: tuple(map(int, t.split(","))), list,
                     modes=(mode,))
       for mode, key in GRID_KEYS.items()},
    "replicates": _FileKey(ExperimentConfig, "replicates", int),
    "master_seed": _FileKey(ExperimentConfig, "master_seed", int),
    "guard": _FileKey(ExperimentConfig, "guard", float),
    "output_dir": _FileKey(ExperimentConfig, "output_dir", str, str),
    "workers": _FileKey(ExperimentConfig, "workers", _parse_workers),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat config format: ``KEY = VALUE`` lines, ``#`` comments,
    comma-separated lists, for example::

        mode = hdlss-sweep
        template.spikes = power:2:1.5, literal:400   # SCALE:EXPONENT or VALUE
        template.basis = orthogonal:3                # or canonical
        template.n = 50
        grid.d = 10000,100000

    ``hdlss-sweep`` reads d from ``grid.d`` and n from ``template.n``, and
    refuses ``grid.n`` and ``template.d_over_n``; ``growing-n-sweep`` reads
    n from ``grid.n``, d = round(n * ``template.d_over_n``), and refuses
    ``grid.d`` and ``template.n``.
    ``mode`` and ``template.spikes`` must be set; any other key of
    ``_FILE_KEYS`` left out takes the default of its dataclass field.
    """
    parsed = {}  # key -> (line number, value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected KEY = VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FILE_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in parsed:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            parsed[key] = (lineno, _FILE_KEYS[key].parse(value.strip()))
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None

    fields = {SpikeTemplate: {}, ExperimentConfig: {}}
    for key, entry in _FILE_KEYS.items():
        if key in parsed:
            fields[entry.holder][entry.attr] = parsed[key][1]
        elif not hasattr(entry.holder, entry.attr):  # a field with no default
            raise ValueError(f"config must set {key}")
    mode = fields[ExperimentConfig]["mode"]
    for key, (lineno, _) in parsed.items():
        if mode in GRID_KEYS and mode not in _FILE_KEYS[key].modes:  # an unknown mode fails later
            raise ValueError(f"config line {lineno}: mode {mode} reads "
                             f"{GRID_KEYS[mode]}, not {key}")
    return ExperimentConfig(
        template=SpikeTemplate(**fields[SpikeTemplate]), **fields[ExperimentConfig]
    )


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def config_to_dict(config: ExperimentConfig) -> dict:
    """Config echo in the same vocabulary as the file format: only the keys
    the config's mode reads (the grid under its mode's key), and no
    template.n when it is unset."""
    echo = {}
    for key, entry in _FILE_KEYS.items():
        value = getattr(config.template if entry.holder is SpikeTemplate else config, entry.attr)
        if value is not None and config.mode in entry.modes:
            echo[key] = entry.show(value)
    return echo


def config_with_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """A copy of config with the given fields replaced (re-validated)."""
    return dataclasses.replace(config, **overrides)
