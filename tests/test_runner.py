"""Sweep orchestration: configs, records, reports, reproducibility."""

import json
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2

import spikescore.runner as rn
from spikescore import spike_model
from spikescore.asymptotics import (
    angle_to_population,
    comparable_sample_scores,
    cross_spike_overlap,
    eigenvalue_ratio,
    score_ratio_table,
    tail_leakage,
)
from spikescore.pca_engine import dual_pca
from spikescore.runner import (
    MODE_GROWING_N,
    MODE_HDLSS,
    RECORDS_HEADER,
    ExperimentConfig,
    SpikeTemplate,
    compute_replicate,
    config_to_dict,
    export_scores_scatter,
    parse_config,
    run_growing_n_sweep,
    run_hdlss_sweep,
)
from spikescore.spike_model import (
    CanonicalAxes,
    ConstantMean,
    RandomOrthogonal,
    SpikeProfile,
    SpikeSpec,
    basis_vectors,
    generate_sample,
    population_score_matrix,
    projection_scores,
    resolve_eigenvalues,
)

TINY_CONFIG = """
# minimal dimension sweep
mode = hdlss-sweep
template.spikes = power:1:1.6
template.n = 6
grid.d = 200
replicates = 3
master_seed = 314
output_dir = {out}
workers = 1
"""


def tiny_config(out, **overrides):
    cfg = ExperimentConfig(
        mode=MODE_HDLSS,
        template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 1.6),), n=6),
        d_grid=(200,),
        replicates=3,
        master_seed=314,
        output_dir=out,
        workers=1,
    )
    return rn.config_with_overrides(cfg, **overrides) if overrides else cfg


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        text = TINY_CONFIG.format(out=tmp_path / "out")
        cfg = parse_config(text)
        assert cfg.mode == MODE_HDLSS
        assert cfg.template.n == 6
        assert cfg.d_grid == (200,)
        assert cfg.replicates == 3
        assert cfg.master_seed == 314
        echo = config_to_dict(cfg)
        assert echo["template.spikes"] == "power:1:1.6"
        assert echo["grid.d"] == [200]

    def test_all_fields(self):
        with pytest.warns(UserWarning, match="does not strictly decrease"):
            cfg = parse_config(
                "mode = growing-n-sweep\n"
                "template.spikes = power:1:2, literal:5\n"
                "template.tail = 2\n"
                "template.basis = orthogonal:9\n"
                "template.mean = constant:1.5\n"
                "template.d_over_n = 0.5\n"
                "grid.n = 100,200\n"
                "replicates = 4\n"
                "guard = 1e-6\n"
                "workers = auto\n"
            )
        assert cfg.template.spikes[1].literal == 5.0
        assert cfg.template.basis == RandomOrthogonal(seed=9)
        assert cfg.template.mean.value == 1.5
        assert cfg.template.d_over_n == 0.5
        assert cfg.workers == "auto"
        assert cfg.guard == 1e-6

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("mode = hdlss-sweep\nbogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("mode = hdlss-sweep\nmode = hdlss-sweep\n")

    def test_missing_mode(self):
        with pytest.raises(ValueError, match="mode"):
            parse_config("template.spikes = power:1:1.6\n")

    def test_bad_spike_token(self):
        with pytest.raises(ValueError, match="bad spike"):
            parse_config("mode = hdlss-sweep\ntemplate.spikes = wat:1\n")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="KEY = VALUE"):
            parse_config("mode hdlss-sweep\n")

    def test_single_pca_mode_is_unknown(self):
        with pytest.raises(ValueError, match="unknown mode"):
            parse_config("mode = single-pca\ntemplate.spikes = power:1:1.6\ngrid.d = 200\n")


class TestConfigValidation:
    def test_empty_grid(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            tiny_config(tmp_path, d_grid=())

    def test_non_increasing_grid(self, tmp_path):
        with pytest.raises(ValueError, match="strictly increasing"):
            tiny_config(tmp_path, d_grid=(200, 200))

    def test_hypothesis_guard_refuses(self, tmp_path):
        # literal spike 100 at d = 200: d / lambda_m = 2 >= 1
        with pytest.raises(ValueError, match="d/lambda_m"):
            ExperimentConfig(
                mode=MODE_HDLSS,
                template=SpikeTemplate(spikes=(SpikeProfile.fixed(100.0),), n=6),
                d_grid=(200,),
                replicates=2,
                output_dir=tmp_path,
            )

    def test_hypothesis_guard_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="close to 1"):
            ExperimentConfig(
                mode=MODE_HDLSS,
                template=SpikeTemplate(spikes=(SpikeProfile.fixed(400.0),), n=6),
                d_grid=(210,),
                replicates=2,
                output_dir=tmp_path,
            )

    def test_growing_n_warns_when_rate_does_not_shrink(self, tmp_path):
        # literal last spike with d = 0.5 n: d / (n lambda_m) = 0.1 at every n
        with pytest.warns(UserWarning, match=r"d/\(n lambda_m\)"):
            ExperimentConfig(
                mode=MODE_GROWING_N,
                template=SpikeTemplate(
                    spikes=(SpikeProfile.power(1.0, 2.0), SpikeProfile.fixed(5.0)),
                    d_over_n=0.5,
                ),
                n_grid=(100, 200),
                replicates=2,
                output_dir=tmp_path,
            )

    @pytest.mark.parametrize(
        "spike",
        [
            # d = n, lambda_1 = n**2: d / (n lambda_m) = 1 / n**2
            SpikeProfile.power(1.0, 2.0),
            # lambda_1 = d / 2: d / lambda_m = 2, refused in hdlss-sweep
            SpikeProfile.power(0.5, 1.0),
        ],
    )
    def test_growing_n_shrinking_rate_is_silent(self, tmp_path, spike):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExperimentConfig(
                mode=MODE_GROWING_N,
                template=SpikeTemplate(spikes=(spike,), d_over_n=1.0),
                n_grid=(40, 80),
                replicates=2,
                output_dir=tmp_path,
            )

    def test_hdlss_needs_d_at_least_n(self, tmp_path):
        with pytest.raises(ValueError, match="d >= n"):
            ExperimentConfig(
                mode=MODE_HDLSS,
                template=SpikeTemplate(spikes=(SpikeProfile.power(1, 1.6),), n=50),
                d_grid=(20,),
                replicates=2,
                output_dir=tmp_path,
            )

    def test_replicates_and_seed(self, tmp_path):
        with pytest.raises(ValueError, match="replicates"):
            tiny_config(tmp_path, replicates=0)
        with pytest.raises(ValueError, match="master_seed"):
            tiny_config(tmp_path, master_seed=-1)

    def test_mode_checked_by_entrypoints(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(ValueError, match="mode"):
            run_growing_n_sweep(cfg)


class TestSweepOutputs:
    def test_single_replicate_deterministic(self, tmp_path):
        cfg = tiny_config(tmp_path / "a", replicates=1)
        report = run_hdlss_sweep(cfg)
        assert len(report.records) == 1
        first = (tmp_path / "a" / "records.csv").read_bytes()
        run_hdlss_sweep(tiny_config(tmp_path / "b", replicates=1))
        second = (tmp_path / "b" / "records.csv").read_bytes()
        assert first == second

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        run_hdlss_sweep(tiny_config(tmp_path / "w1", replicates=6))
        run_hdlss_sweep(tiny_config(tmp_path / "w2", replicates=6, workers=2))
        assert (tmp_path / "w1" / "records.csv").read_bytes() == (
            tmp_path / "w2" / "records.csv"
        ).read_bytes()

    def test_records_csv_schema(self, tmp_path):
        cfg = tiny_config(tmp_path, replicates=4)
        run_hdlss_sweep(cfg)
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[0] == RECORDS_HEADER
        assert len(lines) == 1 + 4  # one spike, four replicates
        fields = lines[1].split(",")
        assert fields[0] == "200"  # grid value
        assert fields[1] == "0"  # replicate index
        assert fields[2] == "1"  # spike number, 1-based
        assert len(fields) == len(RECORDS_HEADER.split(","))

    def test_report_json(self, tmp_path):
        cfg = tiny_config(tmp_path, replicates=12)
        report = run_hdlss_sweep(cfg)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["mode"] == MODE_HDLSS
        assert payload["grid"] == [200]
        assert payload["config"]["master_seed"] == 314
        assert len(payload["trend"]) == 1
        assert len(payload["trend"][0]["mean_rel_spread"]) == 1
        assert payload["ks"][0]["sample_size"] == 12
        assert payload["failures"] == {"count": 0, "total": 12, "detail": []}
        assert payload["versions"]["numpy"] == np.__version__
        assert report.checks["passed"] == payload["checks"]["passed"]

    def test_ks_skipped_for_tiny_samples(self, tmp_path):
        cfg = tiny_config(tmp_path, replicates=3)
        report = run_hdlss_sweep(cfg)
        assert report.ks_outcomes[0]["skipped"]
        assert report.checks["passed"]

    def test_records_regenerate_identically(self, tmp_path):
        cfg = tiny_config(tmp_path, replicates=5)
        report = run_hdlss_sweep(cfg)
        for rec in report.records[:2]:
            again = compute_replicate(
                cfg.template, cfg.mode, rec.grid_value, rec.replicate, cfg.master_seed
            )
            assert again.spikes == rec.spikes

    def test_multi_spike_rows(self, tmp_path):
        cfg = ExperimentConfig(
            mode=MODE_HDLSS,
            template=SpikeTemplate(
                spikes=(SpikeProfile.power(1.0, 1.8), SpikeProfile.power(1.0, 1.4)),
                n=8,
            ),
            d_grid=(150, 300),
            replicates=2,
            master_seed=1,
            output_dir=tmp_path,
            workers=1,
        )
        report = run_hdlss_sweep(cfg)
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # grid x replicates x spikes
        assert all(len(r.spikes) == 2 for r in report.records)
        assert all(len(r.spikes[0].cross_overlaps) == 1 for r in report.records)


class TestGrowingNSweep:
    def test_tiny_run(self, tmp_path):
        cfg = ExperimentConfig(
            mode=MODE_GROWING_N,
            template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),), d_over_n=1.0),
            n_grid=(40, 80),
            replicates=5,
            master_seed=2,
            output_dir=tmp_path,
            workers=1,
        )
        report = run_growing_n_sweep(cfg)
        assert [row["grid"] for row in report.consistency] == [40, 80]
        assert all(np.isfinite(row["mean_abs_median_err"]) for row in report.consistency)
        # coupled dimension: d = n for d_over_n = 1
        spec = cfg.template.spec_at(MODE_GROWING_N, 40)
        assert spec.d == 40 and spec.n == 40

    def test_point_without_finite_median_is_skipped(self, tmp_path):
        # A guard above every population score excludes every cell, so no
        # grid point has a finite median ratio; the sweep must still write
        # its outputs and fail its check with a note.
        cfg = ExperimentConfig(
            mode=MODE_GROWING_N,
            template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),)),
            n_grid=(20, 40),
            replicates=3,
            guard=1e6,
            output_dir=tmp_path,
            workers=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_growing_n_sweep(cfg)
        assert report.consistency == [
            {"grid": g, "j": 1, "skipped": True, "sample_size": 0,
             "reason": "no finite median ratio"}
            for g in (20, 40)
        ]
        assert report.checks["passed"] is False
        assert "no finite median ratio" in report.checks["detail"]
        assert (tmp_path / "records.csv").exists()
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved["consistency"] == report.consistency

    def test_coupling_factor(self):
        template = SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),), d_over_n=0.5)
        spec = template.spec_at(MODE_GROWING_N, 100)
        assert spec.d == 50

    def test_template_n_required_for_hdlss(self):
        template = SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),))
        with pytest.raises(ValueError, match="template.n"):
            template.spec_at(MODE_HDLSS, 100)


class TestRunnerMatchesApi:
    def test_record_equals_public_diagnostics(self):
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 1.8), SpikeProfile.power(1.0, 1.5)),
            n=10,
            basis=RandomOrthogonal(seed=4),
        )
        record = compute_replicate(template, MODE_HDLSS, 300, 1, master_seed=21)
        # The replicate stream compute_replicate draws from, regenerated.
        spec = template.spec_at(MODE_HDLSS, 300)
        data = generate_sample(spec, np.random.SeedSequence((21, 300, 1)))
        pca = dual_pca(data.values, divisor="n", rank=2)
        basis = basis_vectors(spec)
        lam = resolve_eigenvalues(spec)[:2]
        for j, diag in enumerate(record.spikes):
            assert diag.angle_rad == angle_to_population(pca, basis, j, x=data.values)
            assert diag.leakage == tail_leakage(pca, basis, j, x=data.values)
            assert diag.eig_ratio == eigenvalue_ratio(pca, lam, j)
            assert diag.cross_overlaps == (
                cross_spike_overlap(pca, basis, lam, j, 1 - j, x=data.values),
            )

    def test_scores_and_overlaps_equal_public_chain_with_mean(self):
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 1.8), SpikeProfile.power(1.0, 1.5)),
            n=10,
            mean=ConstantMean(2.5),
        )
        guard = 1e-3
        record = compute_replicate(template, MODE_HDLSS, 300, 2, master_seed=17, guard=guard)
        spec = template.spec_at(MODE_HDLSS, 300)
        data = generate_sample(spec, np.random.SeedSequence((17, 300, 2)))
        pca = dual_pca(data.values, divisor="n", rank=2)
        table = score_ratio_table(
            comparable_sample_scores(pca, 2), population_score_matrix(data), guard
        )
        basis = basis_vectors(spec)
        lam = resolve_eigenvalues(spec)[:2]
        for j, diag in enumerate(record.spikes):
            assert diag.median_ratio == table.medians[j]
            assert diag.rel_spread == table.rel_spreads[j]
            assert diag.n_excluded == table.n_excluded[j]
            assert diag.angle_rad == angle_to_population(pca, basis, j, x=data.values)
            assert diag.leakage == tail_leakage(pca, basis, j, x=data.values)
            assert diag.eig_ratio == eigenvalue_ratio(pca, lam, j)


class TestOneProjectionPerReplicate:
    def test_canonical_replicate_builds_no_basis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a canonical replicate built a d x m basis")

        monkeypatch.setattr(spike_model, "basis_vectors", refuse)
        template = SpikeTemplate(spikes=(SpikeProfile.power(1.0, 1.6),), n=6)
        record = compute_replicate(template, MODE_HDLSS, 200, 0, master_seed=5)
        assert np.isfinite(record.spikes[0].median_ratio)


class TestFrameReuse:
    def test_one_frame_per_grid_point(self, tmp_path):
        # U_m is built once per grid point, not per replicate or consumer.
        spike_model._cached_spike_basis.cache_clear()
        cfg = tiny_config(
            tmp_path,
            template=SpikeTemplate(
                spikes=(SpikeProfile.power(1.0, 1.6),), n=6, basis=RandomOrthogonal(seed=9)
            ),
            d_grid=(200, 300),
            replicates=3,
        )
        try:
            run_hdlss_sweep(cfg)
            info = spike_model._cached_spike_basis.cache_info()
        finally:
            spike_model._cached_spike_basis.cache_clear()
        assert info.misses == 2
        assert info.hits > 0


class TestSpikeEigenvaluesOnly:
    def test_no_d_length_vector_at_large_d(self):
        # Building a spec, its regime ratio and the population scores read
        # only the m spikes; a d-length eigenvalue vector would be 80 MB.
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 1.5), SpikeProfile.power(1.0, 1.2)), n=10
        )
        tracemalloc.start()
        try:
            spec = template.spec_at(MODE_HDLSS, 10**7)
            ratio = rn._regime_ratio(MODE_HDLSS, spec)
            scores = projection_scores(spec, np.ones((10, 2)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert ratio == pytest.approx(10**7 / 10**8.4)
        assert scores.shape == (10, 2)


class TestReportObservability:
    @pytest.mark.parametrize("mode", [MODE_HDLSS, MODE_GROWING_N])
    def test_timings_and_regime_per_grid_point(self, tmp_path, mode):
        if mode == MODE_HDLSS:
            cfg = tiny_config(tmp_path, d_grid=(200, 300), replicates=2)
            report = run_hdlss_sweep(cfg)
        else:
            cfg = ExperimentConfig(
                mode=MODE_GROWING_N,
                template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),)),
                n_grid=(20, 40),
                replicates=2,
                output_dir=tmp_path,
            )
            report = run_growing_n_sweep(cfg)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert [row["grid"] for row in payload["timings"]] == list(cfg.grid)
        for row in payload["timings"]:
            assert row["replicates"] == 2
            for stage in rn.STAGES:
                assert 0 < row[stage]["p50_s"] <= row[stage]["sum_s"]
        key = rn.REGIME_RATIO_KEYS[mode]
        for row, g in zip(payload["regime"], cfg.grid):
            spec = cfg.template.spec_at(mode, g)
            lam_m = resolve_eigenvalues(spec)[spec.m - 1]
            scale = spec.n if mode == MODE_GROWING_N else 1
            assert row == {"grid": g, key: pytest.approx(spec.d / (scale * lam_m))}
        assert payload["timings"] == report.timings


class TestFailurePolicy:
    def test_small_failure_rate_skips_and_reports(self, tmp_path, monkeypatch):
        real = rn.compute_replicate

        def flaky(template, mode, grid_value, replicate, master_seed, guard=1e-8):
            if replicate == 3:
                raise np.linalg.LinAlgError("synthetic eigensolver failure")
            return real(template, mode, grid_value, replicate, master_seed, guard)

        monkeypatch.setattr(rn, "compute_replicate", flaky)
        cfg = tiny_config(tmp_path, replicates=150)
        report = run_hdlss_sweep(cfg)
        assert report.failures["count"] == 1
        assert len(report.records) == 149
        assert report.ks_outcomes[0]["sample_size"] == 149

    def test_excessive_failures_abort(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(rn, "compute_replicate", broken)
        cfg = tiny_config(tmp_path, replicates=3)
        with pytest.raises(RuntimeError, match="aborting"):
            run_hdlss_sweep(cfg)


class TestScatterExport:
    def test_from_matrix(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 6))
        out = export_scores_scatter(x, (1, 2), tmp_path / "s.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_index,score_1,score_2"
        assert len(lines) == 7
        pca = dual_pca(x, rank=2)
        row0 = lines[1].split(",")
        assert float(row0[1]) == pytest.approx(pca.score_vectors[0, 0])
        assert float(row0[2]) == pytest.approx(pca.score_vectors[0, 1])

    def test_repeated_component(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 5))
        out = export_scores_scatter(x, (1, 1), tmp_path / "s.csv")
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(body[:, 1], body[:, 2])

    def test_component_beyond_rank(self, tmp_path):
        x = np.random.default_rng(8).standard_normal((4, 3))
        with pytest.raises(ValueError, match="rank"):
            export_scores_scatter(x, (1, 4), tmp_path / "s.csv")
        with pytest.raises(ValueError, match="1-based"):
            export_scores_scatter(x, (0, 1), tmp_path / "s.csv")

    def test_from_data_matrix_and_pca_result(self, tmp_path):
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(50.0), SpikeProfile.fixed(10.0)), n=12, d=60
        )
        data = generate_sample(spec, 9)
        a = export_scores_scatter(data, (1, 2), tmp_path / "a.csv")
        pca = dual_pca(data.values, rank=2)
        b = export_scores_scatter(pca, (1, 2), tmp_path / "b.csv")
        assert a.read_text() == b.read_text()

    def test_kmeans_recovers_sign_split(self, tmp_path):
        # Two well-separated spikes: clustering the exported score columns
        # recovers the sign split of the leading latent better than chance.
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(400.0), SpikeProfile.fixed(100.0)), n=80, d=300
        )
        data = generate_sample(spec, 7)
        out = export_scores_scatter(data, (1, 2), tmp_path / "s.csv")
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        _, labels = kmeans2(body[:, 1:], 2, seed=99, minit="points")
        truth = data.latent.spike[:, 0] > 0
        agreement = max(np.mean(labels == truth), np.mean(labels != truth))
        assert agreement > 0.7


class TestEmbeddedCheck:
    def test_twin_spikes_reject_and_flag(self, tmp_path):
        # Nearly tied spikes mix the leading sample directions, so the
        # per-spike rescaling law fails and the sweep flags it.
        cfg = ExperimentConfig(
            mode=MODE_HDLSS,
            template=SpikeTemplate(
                spikes=(SpikeProfile.power(1.0, 1.6), SpikeProfile.power(0.98, 1.6)),
                n=10,
            ),
            d_grid=(5000,),
            replicates=200,
            master_seed=7,
            output_dir=tmp_path,
            workers=1,
        )
        report = run_hdlss_sweep(cfg)
        assert not report.checks["passed"]
        assert any(o.get("rejected_at_01") for o in report.ks_outcomes)


def small_growing_n(out, **overrides):
    fields = dict(
        mode=MODE_GROWING_N,
        template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),)),
        n_grid=(20, 30),
        replicates=4,
        master_seed=3,
        output_dir=out,
        workers=1,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestProgressAndSpread:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_progress_line_per_grid_point(self, tmp_path, caplog, workers):
        caplog.set_level(logging.INFO, logger=rn.__name__)
        run_growing_n_sweep(small_growing_n(tmp_path, workers=workers))
        lines = [r.getMessage() for r in caplog.records if "finished" in r.getMessage()]
        # A pool dispatches the largest grid value first.
        order = (20, 30) if workers == 1 else (30, 20)
        assert [line.split()[2] for line in lines] == [str(g) for g in order]
        assert [line.split()[4] for line in lines] == ["4/8", "8/8"]
        assert all("replicates/s" in line and "ETA" in line for line in lines)
        assert lines[-1].endswith("ETA 0.0 s")

    def test_growing_n_records_identical_across_workers(self, tmp_path):
        one = run_growing_n_sweep(small_growing_n(tmp_path / "w1"))
        two = run_growing_n_sweep(small_growing_n(tmp_path / "w2", workers=2))
        assert (tmp_path / "w1" / "records.csv").read_bytes() == (
            tmp_path / "w2" / "records.csv"
        ).read_bytes()
        assert [(r.grid_value, r.replicate) for r in two.records] == [
            (r.grid_value, r.replicate) for r in one.records
        ]

    def test_stage_p95_in_report(self, tmp_path):
        report = run_growing_n_sweep(small_growing_n(tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["timings"] == report.timings
        for row in payload["timings"]:
            for stage in rn.STAGES:
                t = row[stage]
                assert set(t) == {"p50_s", "p95_s", "sum_s"}
                assert 0 < t["p50_s"] <= t["p95_s"] <= t["sum_s"]

    def test_rise_reported_in_standard_errors(self, tmp_path):
        # At this seed the mean |median - 1| rises from n = 20 to n = 30 by
        # well under one standard error; the check still rejects, and its
        # note says by how many standard errors.
        report = run_growing_n_sweep(small_growing_n(tmp_path))
        rows = report.consistency
        for row in rows:
            err = np.array(
                [abs(r.spikes[0].median_ratio - 1) for r in report.records
                 if r.grid_value == row["grid"]]
            )
            assert row["se_abs_median_err"] == pytest.approx(
                np.std(err, ddof=1) / np.sqrt(err.size), rel=1e-12
            )
        a, b = rows
        rise = b["mean_abs_median_err"] - a["mean_abs_median_err"]
        assert rise > 0
        z = rise / np.hypot(a["se_abs_median_err"], b["se_abs_median_err"])
        assert report.checks["passed"] is False
        assert f"20 -> 30: +{rise:.3g} ({z:.2g} SE)" in report.checks["detail"]
        assert z < 1
