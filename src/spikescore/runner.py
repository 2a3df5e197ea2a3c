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

Each replicate reads the d x n sample twice: once for the Gram matrix of
dual PCA and once to project it on the spike directions, P = X'U_m (only m
rows of X on the canonical basis).  The diagnostics then read n-space
arrays only: the sample eigenvalues w and score vectors V, the population
scores S and the projection P.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

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
from .pca_engine import PcaResult, dual_pca
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
    generate_sample,
    projection_scores,
    resolve_eigenvalues,
    spike_projection,
)

log = logging.getLogger(__name__)

MODE_HDLSS = "hdlss-sweep"
MODE_GROWING_N = "growing-n-sweep"
_MODES = (MODE_HDLSS, MODE_GROWING_N)

# Per grid point, report.json names the rate whose vanishing the mode's
# asymptotics need, under these keys (see ExperimentConfig.validate).
REGIME_RATIO_KEYS = {MODE_HDLSS: "d_over_lambda_m", MODE_GROWING_N: "d_over_n_lambda_m"}

# Stages that compute_replicate times, in order.
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
    coupled as d = round(d_over_n * n); spike power laws resolve against
    that coupled d (the default d_over_n = 1 with exponent 2 gives the
    leading eigenvalue n**2).
    """

    spikes: tuple[SpikeProfile, ...]
    tail_value: float = 1.0
    basis: BasisChoice = CanonicalAxes()
    mean: MeanChoice = ZeroMean()
    n: Optional[int] = None
    d_over_n: float = 1.0

    @property
    def m(self) -> int:
        return len(self.spikes)

    def spec_at(self, mode: str, grid_value: int) -> SpikeSpec:
        if mode == MODE_GROWING_N:
            n = int(grid_value)
            d = max(int(round(self.d_over_n * n)), self.m + 1)
        else:
            if self.n is None:
                raise ValueError(f"template.n is required for mode {mode}")
            n = int(self.n)
            d = int(grid_value)
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
    d_grid: tuple[int, ...] = ()
    n_grid: tuple[int, ...] = ()
    replicates: int = 1
    master_seed: int = 0
    guard: float = DEFAULT_DENOMINATOR_GUARD
    output_dir: Union[str, Path] = "out"
    workers: Union[int, str] = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_grid", tuple(int(v) for v in self.d_grid))
        object.__setattr__(self, "n_grid", tuple(int(v) for v in self.n_grid))
        self.validate()

    @property
    def grid(self) -> tuple[int, ...]:
        return self.n_grid if self.mode == MODE_GROWING_N else self.d_grid

    def resolved_workers(self) -> int:
        if self.workers == "auto":
            import os

            return max(os.cpu_count() or 1, 1)
        return int(self.workers)

    def validate(self) -> None:
        """Check the fields, then the regime hypothesis of the sweep mode.

        Each mode is held to the hypothesis of its own asymptotics:

        - ``hdlss-sweep`` (n fixed, d -> inf) needs pervasive spikes,
          d / lambda_m -> 0: a grid point with d / lambda_m >= 1 is refused
          and one with d / lambda_m >= 0.5 draws a warning.
        - ``growing-n-sweep`` (n -> inf, d coupled to n): sample directions
          become consistent at the rate d / (n lambda_m) (Jung & Marron
          2009, Ann. Statist. 37:4104), taken here without scaling by the
          tail value.  A warning is issued when that rate does not strictly
          decrease along the grid; nothing is refused, since no bound on
          the rate is known for this regime.
        """
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {_MODES}")
        grid = self.grid
        if not grid:
            axis = "n" if self.mode == MODE_GROWING_N else "d"
            raise ValueError(f"mode {self.mode} needs a non-empty grid.{axis}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {grid}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.guard <= 0:
            raise ValueError(f"guard must be positive, got {self.guard}")
        if self.workers != "auto" and int(self.workers) < 1:
            raise ValueError(f"workers must be 'auto' or >= 1, got {self.workers}")
        rates = []
        for grid_value in grid:
            spec = self.template.spec_at(self.mode, grid_value)
            if self.mode == MODE_HDLSS and spec.d < spec.n:
                raise ValueError(
                    f"dimension sweep needs d >= n at every grid point; "
                    f"got d={spec.d} < n={spec.n}"
                )
            rate = _regime_ratio(self.mode, spec)
            if self.mode == MODE_GROWING_N:
                rates.append(rate)
                continue
            if rate >= 1.0:
                raise ValueError(
                    f"grid point {grid_value}: d/lambda_m = {rate:.3g} >= 1; the "
                    f"vanishing-ratio regime cannot be probed there"
                )
            if rate >= 0.5:
                warnings.warn(
                    f"grid point {grid_value}: d/lambda_m = {rate:.3g} is close "
                    f"to 1; the asymptotic regime may be out of reach",
                    stacklevel=2,
                )
        if any(b >= a for a, b in zip(rates, rates[1:])):
            shown = ", ".join(f"{r:.3g}" for r in rates)
            warnings.warn(
                f"d/(n lambda_m) = {shown} over grid.n = {list(grid)} does not "
                f"strictly decrease; the sweep cannot show the sample "
                f"directions becoming consistent",
                stacklevel=2,
            )


def _regime_ratio(mode: str, spec: SpikeSpec) -> float:
    """d / lambda_m in ``hdlss-sweep``, d / (n lambda_m) in ``growing-n-sweep``:
    the rate that validation guards on and report.json records."""
    lam_m = resolve_eigenvalues(spec)[spec.m - 1]
    return spec.d / (spec.n * lam_m) if mode == MODE_GROWING_N else spec.d / lam_m


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
    record can be regenerated in isolation.
    """
    spec = template.spec_at(mode, grid_value)
    m = spec.m
    seed = np.random.SeedSequence((int(master_seed), int(grid_value), int(replicate)))

    t0 = time.perf_counter()
    data = generate_sample(spec, seed)
    t1 = time.perf_counter()
    pca = dual_pca(data.values, divisor="n", rank=m)
    t2 = time.perf_counter()

    proj = spike_projection(data)
    s_pop = projection_scores(spec, proj)
    s_hat = comparable_sample_scores(pca, m)
    table = score_ratio_table(s_hat, s_pop, guard)
    overlaps = projection_overlaps(pca, proj)
    spike = spike_diagnostics(overlaps, resolve_eigenvalues(spec), pca.sample_eigenvalues)
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


def _trend_rows(records: list, grid: tuple, m: int) -> list:
    rows = []
    for g in grid:
        recs = [r for r in records if r.grid_value == g]
        row = {"grid": g}
        for name, attr in (
            ("mean_rel_spread", "rel_spread"),
            ("mean_angle_rad", "angle_rad"),
            ("mean_leakage", "leakage"),
            ("mean_eig_ratio", "eig_ratio"),
        ):
            row[name] = [
                _nanmean([getattr(r.spikes[j], attr) for r in recs]) for j in range(m)
            ]
        rows.append(row)
    return rows


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


def _run_sweep(config: ExperimentConfig) -> ExperimentReport:
    start = time.perf_counter()
    grid = config.grid
    m = config.template.m
    tasks = [
        (config.template, config.mode, g, rep, config.master_seed, config.guard)
        for g in grid
        for rep in range(config.replicates)
    ]
    total = len(tasks)
    workers = config.resolved_workers()
    if workers <= 1 or total <= 1:
        outcomes = _collect_with_progress(map(_safe_compute, tasks), config.replicates, total)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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

    ks_outcomes = []
    consistency = []
    timings = []
    regime = []
    check_notes = []
    law = RLaw(int(config.template.n)) if config.mode == MODE_HDLSS else None
    ratio_key = REGIME_RATIO_KEYS[config.mode]
    for g in grid:
        recs = [r for r in records if r.grid_value == g]
        timings.append(_timing_row(g, recs))
        spec = config.template.spec_at(config.mode, g)
        regime.append({"grid": g, ratio_key: _regime_ratio(config.mode, spec)})
        for j in range(m):
            key = {"grid": g, "j": j + 1}
            medians = np.array([r.spikes[j].median_ratio for r in recs])
            medians = medians[np.isfinite(medians)]
            if config.mode == MODE_HDLSS:
                if medians.size < 10:
                    reason = "KS needs at least 10 replicates"
                    ks_outcomes.append(_skipped(key, medians.size, reason))
                else:
                    outcome = ks_test(medians, law.cdf)
                    ks_outcomes.append({**key, **dataclasses.asdict(outcome)})
            elif medians.size == 0:
                consistency.append(_skipped(key, 0, "no finite median ratio"))
            else:
                err = np.abs(medians - 1.0)
                eig = np.array([r.spikes[j].eig_ratio for r in recs])
                se = np.std(err, ddof=1) / np.sqrt(err.size) if err.size > 1 else np.nan
                consistency.append(
                    {
                        **key,
                        "mean_abs_median_err": float(np.mean(err)),
                        "se_abs_median_err": float(se),
                        "max_abs_median_err": float(np.max(err)),
                        "mean_eig_ratio": float(np.mean(eig)),
                        "sample_size": int(medians.size),
                    }
                )
    rejected = [o for o in ks_outcomes if o.get("rejected_at_01")]
    if rejected:
        check_notes.append(
            f"{len(rejected)} KS outcome(s) rejected the rescaling law at alpha=0.01"
        )
    skipped = [row for row in consistency if row.get("skipped")]
    if skipped:
        check_notes.append(
            f"{len(skipped)} (grid, spike) point(s) had no finite median ratio "
            f"and were left out of the decrease check"
        )
    for j in range(m):
        rows = [row for row in consistency if row["j"] == j + 1 and not row.get("skipped")]
        errs = [row["mean_abs_median_err"] for row in rows]
        rises = [_rise_note(a, b) for a, b in zip(rows, rows[1:])
                 if b["mean_abs_median_err"] >= a["mean_abs_median_err"]]
        if rises:
            check_notes.append(
                f"spike {j + 1}: mean |median - 1| not strictly decreasing: {errs}; "
                f"rises {', '.join(rises)}"
            )

    trend = _trend_rows(records, grid, m)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    write_records_csv(records, records_path)

    report = ExperimentReport(
        mode=config.mode,
        config_echo=config_to_dict(config),
        grid=grid,
        records=records,
        ks_outcomes=ks_outcomes,
        consistency=consistency,
        trend=trend,
        timings=timings,
        regime=regime,
        checks={"passed": not check_notes, "detail": "; ".join(check_notes) or "ok"},
        failures={"count": len(failure_detail), "total": total, "detail": failure_detail},
        versions=_versions(),
        total_runtime_s=time.perf_counter() - start,
        records_path=records_path,
    )
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    report.report_path = report_path
    return report


def run_hdlss_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Fixed n, growing d: per grid point, KS-test the per-replicate median
    ratios against the sqrt(n / chi2_n) law."""
    if config.mode != MODE_HDLSS:
        raise ValueError(f"config mode is {config.mode!r}, expected {MODE_HDLSS!r}")
    return _run_sweep(config)


def run_growing_n_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Growing n with coupled d: per grid point, summarize |median - 1| and
    check that it shrinks as n grows.

    Building the config already warns when d / (n lambda_m) does not
    strictly decrease along grid.n, since such a sweep cannot show that
    shrinkage.
    """
    if config.mode != MODE_GROWING_N:
        raise ValueError(f"config mode is {config.mode!r}, expected {MODE_GROWING_N!r}")
    return _run_sweep(config)


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

_CONFIG_KEYS = {
    "mode",
    "template.spikes",
    "template.tail",
    "template.basis",
    "template.mean",
    "template.n",
    "template.d_over_n",
    "grid.d",
    "grid.n",
    "replicates",
    "master_seed",
    "guard",
    "output_dir",
    "workers",
}


def _parse_spike(token: str) -> SpikeProfile:
    parts = token.strip().split(":")
    if parts[0] == "power" and len(parts) == 3:
        return SpikeProfile.power(float(parts[1]), float(parts[2]))
    if parts[0] == "literal" and len(parts) == 2:
        return SpikeProfile.fixed(float(parts[1]))
    raise ValueError(
        f"bad spike {token!r}; expected power:SCALE:EXPONENT or literal:VALUE"
    )


def _spike_str(profile: SpikeProfile) -> str:
    if profile.literal is not None:
        return f"literal:{profile.literal:g}"
    return f"power:{profile.scale:g}:{profile.exponent:g}"


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
        return f"constant:{mean.value:g}"
    return "zero"


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value config format (# comments, dotted keys)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected KEY = VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()

    if "mode" not in values:
        raise ValueError("config must set mode")
    if "template.spikes" not in values:
        raise ValueError("config must set template.spikes")

    spikes = tuple(_parse_spike(tok) for tok in values["template.spikes"].split(","))
    template = SpikeTemplate(
        spikes=spikes,
        tail_value=float(values.get("template.tail", "1")),
        basis=_parse_basis(values.get("template.basis", "canonical")),
        mean=_parse_mean(values.get("template.mean", "zero")),
        n=int(values["template.n"]) if "template.n" in values else None,
        d_over_n=float(values.get("template.d_over_n", "1")),
    )

    def _grid(key: str) -> tuple[int, ...]:
        if key not in values:
            return ()
        return tuple(int(tok) for tok in values[key].split(","))

    workers: Union[int, str] = values.get("workers", "1")
    if workers != "auto":
        workers = int(workers)
    return ExperimentConfig(
        mode=values["mode"],
        template=template,
        d_grid=_grid("grid.d"),
        n_grid=_grid("grid.n"),
        replicates=int(values.get("replicates", "1")),
        master_seed=int(values.get("master_seed", "0")),
        guard=float(values.get("guard", str(DEFAULT_DENOMINATOR_GUARD))),
        output_dir=values.get("output_dir", "out"),
        workers=workers,
    )


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def config_to_dict(config: ExperimentConfig) -> dict:
    """Config echo in the same vocabulary as the file format."""
    t = config.template
    echo = {
        "mode": config.mode,
        "template.spikes": ",".join(_spike_str(p) for p in t.spikes),
        "template.tail": t.tail_value,
        "template.basis": _basis_str(t.basis),
        "template.mean": _mean_str(t.mean),
        "template.d_over_n": t.d_over_n,
        "replicates": config.replicates,
        "master_seed": config.master_seed,
        "guard": config.guard,
        "output_dir": str(config.output_dir),
        "workers": config.workers,
    }
    if t.n is not None:
        echo["template.n"] = t.n
    if config.d_grid:
        echo["grid.d"] = list(config.d_grid)
    if config.n_grid:
        echo["grid.n"] = list(config.n_grid)
    return echo


def config_with_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """A copy of config with the given fields replaced (re-validated)."""
    return dataclasses.replace(config, **overrides)
