"""Monte Carlo sweeps over dimension or sample size, with persisted records.

A sweep draws M replicates per grid point, runs dual PCA on each, computes
the score-ratio and eigen-structure diagnostics, and writes one CSV row per
(replicate, spike) plus a JSON report with distributional test outcomes,
trend tables, per-stage timings and the regime ratio of each grid point.
Replicate streams are keyed by (master_seed, grid_value, replicate): the
replicate's SeedSequence seeds the one SFC64 generator of its n-space
draw, so results are byte-identical regardless of worker count or
scheduling.  A worker pool takes the replicates one at a time, largest
grid value first, so the costliest ones start early and no worker is left
alone with them at the end; outcomes are put back in task order.  Each finished grid point logs one
progress line with an ETA.

Each sweep mode is defined once, as one entry of ``_MODE_TABLE``: its grid
key, its (n, d) at a grid value, its regime ratio and guard, its report
rows and the check that reads them.  ``_run_sweep`` runs every mode, and
refuses a config of a mode other than the one asked for; the two public
entry points and the CLI call it.  The two modes test the paper's two
claims.  ``hdlss-sweep`` (n fixed, d grows) writes one ``ks`` row per grid
point and spike: a KS test of the per-replicate median ratios
median_i |s_hat_ij / s_ij| against the law of sqrt(n / chi2_n), the common
rescaling of the sample scores.  At fixed n that law is exact only for the
first spike, and only as lambda_2 / lambda_1 -> 0, so a later spike's row
can reject a correct model once the replicates are many.
``growing-n-sweep`` (n grows, d coupled to n) writes one ``consistency``
row per grid point and spike, the mean |median ratio - 1|, and checks that
it shrinks as n grows: the rescaling "paradox disappears".

Every replicate takes one route, at every n and d and on either basis,
at O(n m) memory and time.  ``frame_sample`` draws the sample in a random
frame K of R^n: X'X = K A K' in law, with A = BB' + LL', where B is the
lower-bidiagonal factor of the tail Gram (Dumitriu & Edelman's Laguerre
model) and L the n x (m + 1) factor of the spike and mean terms.
``frame_pca`` runs block Lanczos on A and carries the m leading
score vectors V and the population scores S back to the observation
frame by one draw of K, and ``population_projection`` gives
P = X'U_m from S.  No n x n or n x d array is formed.  A record matches
the dense reference chain (``generate_sample`` -> ``dual_pca``) in law,
not in bits, and under a zero mean it does not depend on the basis seed.
The diagnostics read only w, V, S and P.

``RECORD_DTYPE`` is the one record schema: a replicate's per-spike
diagnostics are one structured array of that dtype, one row per spike, and
``records.csv`` writes those fields, in that order, after the grid value
and the replicate index.  ``ExperimentReport`` is the one report schema:
``report.json``'s keys are its field names, less the records and the two
paths, and each mode's rows go in the field its ``rows_key`` names.

The sweep owns its parallelism and derives it, with no setting of its
own: ``workers`` processes take the replicates, one at a time each, and
``report.json`` names the count under ``parallelism``; it changes no
record's bits.  A sweep imports no eigensolver: in both modes' regimes
``frame_pca`` decomposes a frame with numpy alone, and it imports ARPACK
only for a frame it hands over, whose replicate's "pca" stage then holds
that import, once per process.
"""

from __future__ import annotations

import dataclasses
import json
import logging
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
from .pca_engine import PcaResult, frame_pca
from .spike_model import (
    BasisChoice,
    CanonicalAxes,
    RandomOrthogonal,
    SpikeProfile,
    SpikeSpec,
    _integer,
    _real,
    _spike_tuple,
    frame_sample,
    population_projection,
)

log = logging.getLogger(__name__)

# The top-level modules whose frames _warn_caller skips: this package's.
_SKIPPED = (__name__.split(".")[0], "dataclasses")

# The sweep modes; each is one entry of _MODE_TABLE, below the entry points.
MODE_HDLSS = "hdlss-sweep"
MODE_GROWING_N = "growing-n-sweep"

# Stages that compute_replicate times, in order, the same at every n and d
# and on either basis: "generate" draws the sample in its random frame
# (frame_sample); "pca" is the eigensolve of A and the rotation of the score
# vectors and population scores back (frame_pca); and "diagnostics" reads
# n-space arrays only.
STAGES = ("generate", "pca", "diagnostics")

# One row of a replicate's per-spike diagnostics; j is 0-based.  A record
# holds these fields, records.csv writes them, and the report reads them.
RECORD_DTYPE = np.dtype([
    ("j", np.int64),
    ("median_ratio", np.float64),
    ("rel_spread", np.float64),
    ("eig_ratio", np.float64),
    ("angle_rad", np.float64),
    ("leakage", np.float64),
    ("n_excluded", np.int64),
])

RECORDS_HEADER = ",".join(("grid", "replicate", *RECORD_DTYPE.names))

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

    The fields are normalized where the template is built, since the config
    echo reads them: ``spikes`` becomes a tuple (``_spike_tuple``, which
    refuses a lone ``SpikeProfile``), ``tail_value``, ``mean`` and
    ``d_over_n`` Python floats (``_real``) and ``n`` an int (``_integer``).
    A spike that is not a ``SpikeProfile`` is refused by the ``SpikeSpec``
    of each grid point.
    """

    spikes: tuple[SpikeProfile, ...]
    tail_value: float = 1.0
    basis: BasisChoice = CanonicalAxes()
    mean: float = 0.0
    n: Optional[int] = None
    d_over_n: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "spikes", _spike_tuple(self.spikes))
        object.__setattr__(self, "tail_value", _real(self.tail_value, "template.tail_value"))
        object.__setattr__(self, "mean", _real(self.mean, "template.mean", "finite"))
        object.__setattr__(self, "d_over_n", _real(self.d_over_n, "template.d_over_n"))
        object.__setattr__(self, "n", None if self.n is None else _integer(self.n, "template.n"))

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
    """One sweep: its ``mode`` (a key of ``_MODE_TABLE``), the ``template``
    model, the ``grid`` of d values (hdlss-sweep) or n values
    (growing-n-sweep), ``replicates`` per grid point, the ``master_seed``
    of every replicate stream, the denominator ``guard`` of
    ``score_ratio_table``, the ``output_dir`` of records.csv and
    report.json, and ``workers``, an integer or ``"auto"``.

    A number is refused where it is built: the grid values, ``replicates``
    and ``master_seed`` by ``_integer``, ``guard`` by ``_real``, ``workers``
    by its text rule (``_parse_workers``), and the template's numbers when
    the template is built.  ``validate``, run last, refuses an empty or
    unordered grid and a grid point outside the mode's regime.
    """

    mode: str
    template: SpikeTemplate
    grid: tuple[int, ...] = ()  # d values in hdlss-sweep, n values in growing-n-sweep
    replicates: int = 1
    master_seed: int = 0
    guard: float = DEFAULT_DENOMINATOR_GUARD
    output_dir: Union[str, Path] = "out"
    workers: Union[int, str] = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(_integer(v, "grid value") for v in self.grid))
        for name, low in (("replicates", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        object.__setattr__(self, "guard", _real(self.guard, "guard"))
        object.__setattr__(self, "workers", _parse_workers(self.workers))
        self.validate()

    def resolved_workers(self) -> int:
        return usable_cpus() if self.workers == "auto" else self.workers

    def validate(self) -> None:
        """Check the grid, then the regime hypothesis of the sweep mode.

        Each mode is held to the hypothesis of its own asymptotics, which
        the ``check`` of its ``_MODE_TABLE`` entry tests on the spec of
        every grid point (``_HdlssSweep``, ``_GrowingNSweep``).
        """
        mode = _MODE_TABLE[self.mode]
        if not self.grid:
            raise ValueError(f"mode {self.mode} needs a non-empty {mode.grid_key}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {self.grid}")
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


@dataclass(frozen=True, eq=False)
class ReplicateRecord:
    """One replicate of one grid point.

    ``spikes`` is an (m,) ``np.recarray`` of ``RECORD_DTYPE``: row j holds
    spike j's diagnostics, read as ``spikes[j].median_ratio`` or as the
    column ``spikes.median_ratio``.  ``timings`` maps each of ``STAGES`` to
    its seconds.  Records compare by identity, since an array field has no
    single truth value.
    """

    grid_value: int
    replicate: int
    spikes: np.recarray
    timings: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    """A finished sweep.  Every field but ``records``, ``records_path`` and
    ``report_path`` is a key of ``report.json``, under the field's name:
    ``config`` is the config echo (``config_to_dict``), and each mode's rows
    are the field named by its ``rows_key``, empty in a sweep of the other
    mode."""

    mode: str
    config: dict
    grid: tuple[int, ...]
    records: list
    ks: list
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
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name not in ("records", "records_path", "report_path")}


def compute_replicate(
    template: SpikeTemplate,
    mode: str,
    grid_value: int,
    replicate: int,
    master_seed: int,
    guard: float = DEFAULT_DENOMINATOR_GUARD,
) -> ReplicateRecord:
    """Generate, decompose, and summarize one replicate.

    The replicate stream is ``SeedSequence((master_seed, grid_value,
    replicate))``, so any record can be regenerated in isolation with the
    public calls it makes, the same at every n and d: ``frame_sample``,
    which draws the sample in a random frame from one SFC64 seeded by the
    stream; ``frame_pca``, which takes the m leading eigenpairs of its
    O(n m) operator and carries the score vectors and the population
    scores S back to the observation frame; and ``population_projection``,
    which gives P = X'U_m from S.  The record follows the law of the dense
    chain (``generate_sample`` and ``dual_pca``), not its bits; under a
    zero mean it reads no basis, so the basis seed does not change it.
    The record's ``spikes`` holds one row of ``RECORD_DTYPE`` per spike.
    ``replicate`` and ``master_seed`` are integers >= 0 (``_integer``), as
    in a config; the grid value is checked where the spec is built.
    """
    spec = template.spec_at(mode, grid_value)
    m = spec.m
    replicate = _integer(replicate, "replicate", 0)
    seed = np.random.SeedSequence((_integer(master_seed, "master_seed", 0), grid_value, replicate))

    t0 = time.perf_counter()
    frame = frame_sample(spec, seed)
    t1 = time.perf_counter()
    pca, s_pop = frame_pca(frame)
    t2 = time.perf_counter()
    proj = population_projection(spec, s_pop)
    s_hat = comparable_sample_scores(pca, m)
    table = score_ratio_table(s_hat, s_pop, guard)
    overlaps = projection_overlaps(pca, proj)
    spike = spike_diagnostics(overlaps, spec.spike_eigenvalues, pca.sample_eigenvalues)
    diags = np.rec.fromarrays(
        (np.arange(m), table.medians, table.rel_spreads, spike.eig_ratios, spike.angles,
         spike.leakage, table.n_excluded),
        dtype=RECORD_DTYPE,
    )
    t3 = time.perf_counter()
    timings = dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)))
    return ReplicateRecord(
        grid_value=grid_value, replicate=replicate, spikes=diags, timings=timings
    )


def _safe_compute(args):
    template, mode, grid_value, replicate, master_seed, guard = args
    try:
        record = compute_replicate(template, mode, grid_value, replicate, master_seed, guard)
        return ("ok", grid_value, replicate, record)
    except Exception as exc:  # logged and counted by the caller
        return ("err", grid_value, replicate, f"{type(exc).__name__}: {exc}")


def write_records_csv(records: list, path: Path) -> None:
    """One row per (replicate, spike): the grid value, the replicate index
    and the ``RECORD_DTYPE`` fields, with j 1-based.  A float is written as
    its ``repr``, which reads back to the same bits."""
    lines = [RECORDS_HEADER]
    for rec in records:
        for j, *values in rec.spikes.tolist():
            lines.append(",".join(map(str, (rec.grid_value, rec.replicate, j + 1, *values))))
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


def _nanmean(values: np.ndarray) -> float:
    """Mean of the non-NaN values; NaN, without a warning, if there are none."""
    v = np.asarray(values, dtype=float)
    return float(np.nanmean(v)) if (~np.isnan(v)).any() else float("nan")


def _trend_row(grid_value: int, diags: np.ndarray) -> dict:
    """Per spike, the mean of each eigen-structure diagnostic over one grid
    point, from its (replicates, m) ``RECORD_DTYPE`` array."""
    row = {"grid": grid_value}
    for name in ("rel_spread", "angle_rad", "leakage", "eig_ratio"):
        row[f"mean_{name}"] = [_nanmean(column) for column in diags[name].T]
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


def _warn_caller(message: str) -> None:
    """A UserWarning attributed to the line that built the config: the first
    frame outside this package and ``dataclasses`` (whose ``replace`` builds
    one too), however deep the warning is raised.  A frame is placed by its
    module's name, which for the ``__init__`` that ``dataclasses``
    generates is this package's.  (``warnings.warn``'s
    ``skip_file_prefixes`` needs Python 3.12.)"""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").split(".")[0] in _SKIPPED:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, stacklevel=level)


class _SweepMode:
    """One sweep mode: what the two modes differ in, as one entry of
    ``_MODE_TABLE``.

    A subclass sets ``grid_key`` (the config-file key of the grid),
    ``ratio_key`` (the name of the regime ratio in report.json's ``regime``
    rows) and ``rows_key`` (the ``ExperimentReport`` field, and so the
    report.json key, its rows go in), and defines:

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


class _HdlssSweep(_SweepMode):
    """Monte Carlo sweep over dimension at fixed sample size.

    n is ``template.n`` and d the grid value, which must be >= n, so
    ``template.d_over_n`` is refused unless it is left at 1.  The mode
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
    many: at n = 10, d = 5000, spikes ``power:1:2,power:1:1.5``, 3000
    replicates and master seed 11, spike 2 reads D = 0.0438 and exact
    p = 1.9e-5 (spike 1: p = 0.74).  The check notes the rows that reject
    at alpha = 0.01.
    """

    grid_key = "grid.d"
    ratio_key = "d_over_lambda_m"
    rows_key = "ks"

    def sizes(self, template: SpikeTemplate, grid_value: int) -> tuple[int, int]:
        if template.n is None:
            raise ValueError(f"template.n is required for mode {MODE_HDLSS}")
        if template.d_over_n != 1.0:
            raise ValueError(f"mode {MODE_HDLSS} takes d from {self.grid_key}, "
                             f"so template.d_over_n = {template.d_over_n} would be ignored")
        return template.n, grid_value

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
                _warn_caller(
                    f"grid point {grid_value}: d/lambda_m = {rate:.3g} is close "
                    f"to 1; the asymptotic regime may be out of reach"
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
        return grid_value, round(template.d_over_n * grid_value)

    def ratio(self, spec: SpikeSpec) -> float:
        return spec.d / (spec.n * spec.spike_eigenvalues[-1])

    def check(self, template: SpikeTemplate, grid: tuple, specs: list) -> None:
        if template.n is not None:
            raise ValueError(f"mode {MODE_GROWING_N} takes n from {self.grid_key}, "
                             f"so template.n = {template.n} would be ignored")
        rates = [self.ratio(spec) for spec in specs]
        if any(b >= a for a, b in zip(rates, rates[1:])):
            shown = ", ".join(f"{r:.3g}" for r in rates)
            _warn_caller(
                f"d/(n lambda_m) = {shown} over grid.n = {list(grid)} does not "
                f"strictly decrease; the sweep cannot show the sample "
                f"directions becoming consistent"
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


def _run_sweep(config: ExperimentConfig, mode_name: str) -> ExperimentReport:
    """Run the sweep of mode ``mode_name``, refusing a config of another mode."""
    if config.mode != mode_name:
        raise ValueError(f"config mode is {config.mode!r}, expected {mode_name!r}")
    start = time.perf_counter()
    m = config.template.m
    tasks = [
        (config.template, config.mode, g, rep, config.master_seed, config.guard)
        for g in config.grid
        for rep in range(config.replicates)
    ]
    total = len(tasks)
    workers = min(config.resolved_workers(), total)
    if workers <= 1:
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

    mode = _MODE_TABLE[config.mode]
    rows = {entry.rows_key: [] for entry in _MODE_TABLE.values()}
    trend = []
    timings = []
    regime = []
    for g in config.grid:
        recs = [r for r in records if r.grid_value == g]
        # (replicates, m), also when every replicate of the point failed.
        diags = np.array([r.spikes for r in recs], dtype=RECORD_DTYPE).reshape(len(recs), m)
        trend.append(_trend_row(g, diags))
        timings.append(_timing_row(g, recs))
        spec = config.template.spec_at(config.mode, g)
        regime.append({"grid": g, mode.ratio_key: mode.ratio(spec)})
        for j, medians in enumerate(diags["median_ratio"].T):
            key = {"grid": g, "j": j + 1}
            medians = medians[np.isfinite(medians)]
            rows[mode.rows_key].append(mode.row(key, medians, spec, trend[-1]))
    check_notes = mode.notes(rows[mode.rows_key], m)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    write_records_csv(records, records_path)

    report = ExperimentReport(
        mode=config.mode,
        config=config_to_dict(config),
        grid=config.grid,
        records=records,
        **rows,
        trend=trend,
        timings=timings,
        regime=regime,
        checks={"passed": not check_notes, "detail": "; ".join(check_notes) or "ok"},
        failures={"count": len(failure_detail), "total": total, "detail": failure_detail},
        versions=_versions(),
        parallelism={"workers": workers},
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
    return _run_sweep(config, MODE_HDLSS)


def run_growing_n_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Growing n with coupled d: per grid point and spike, summarize
    |median - 1|, and check that it shrinks as n grows, the large-n
    shrinkage in which the paper's rescaling paradox disappears.

    Building the config already warns when d / (n lambda_m) does not
    strictly decrease along grid.n, since such a sweep cannot show that
    shrinkage (see ``_GrowingNSweep``).
    """
    return _run_sweep(config, MODE_GROWING_N)


class _ModeTable(dict):
    """Mode name -> ``_SweepMode``; an unknown name raises ValueError."""

    def __missing__(self, name: str):
        raise ValueError(f"unknown mode {name!r}; expected one of {tuple(self)}")


# One entry per sweep mode, in CLI order; every mode decision reads it.
_MODE_TABLE = _ModeTable({
    MODE_HDLSS: _HdlssSweep(),
    MODE_GROWING_N: _GrowingNSweep(),
})
_MODES = tuple(_MODE_TABLE)

# The config-file key of the grid each mode sweeps (ExperimentConfig.grid).
GRID_KEYS = {name: mode.grid_key for name, mode in _MODE_TABLE.items()}


def export_scores_scatter(
    pca: PcaResult, components: tuple[int, int], out_path: Union[str, Path]
) -> Path:
    """Write a plot-ready CSV of two sample-score columns of ``pca``, the
    ``PcaResult`` of ``dual_pca`` on a sample or of ``frame_pca`` on a
    replicate (at any d).

    ``components`` are 1-based component numbers (1 = leading), at most the
    retained rank.  A score is written as its ``repr``, which reads back to
    the same bits.
    """
    a, b = (_integer(c, "component number") for c in components)
    if a < 1 or b < 1:
        raise ValueError(f"component numbers are 1-based, got {components}")
    if max(a, b) > pca.rank:
        raise ValueError(f"component {max(a, b)} exceeds the retained rank {pca.rank}")
    # Python floats: under numpy 2 a numpy scalar's repr is "np.float64(...)".
    pairs = pca.score_vectors[:, [a - 1, b - 1]].tolist()
    lines = [f"sample_index,score_{a},score_{b}"]
    lines += [f"{i},{sa!r},{sb!r}" for i, (sa, sb) in enumerate(pairs)]
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
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def _spikes_str(spikes: tuple[SpikeProfile, ...]) -> str:
    return ",".join(
        f"literal:{_number_str(p.scale)}" if p.exponent == 0.0
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


def _parse_mean(token: str) -> float:
    parts = token.strip().split(":")
    if parts[0] == "zero" and len(parts) == 1:
        return 0.0
    if parts[0] == "constant" and len(parts) == 2:
        return float(parts[1])
    raise ValueError(f"bad mean {token!r}; expected zero or constant:VALUE")


def _mean_str(mean: float) -> str:
    return f"constant:{_number_str(mean)}" if mean != 0.0 else "zero"


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
