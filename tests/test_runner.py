"""Sweep orchestration: configs, records, reports, reproducibility."""

import dataclasses
import json
import logging
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2

import spikescore.runner as rn
from spikescore import spike_model
from spikescore.asymptotics import (
    comparable_sample_scores,
    projection_overlaps,
    score_ratio_table,
    spike_diagnostics,
)
from spikescore.cli import cli_main
from spikescore.pca_engine import dual_pca, frame_pca
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
    RandomOrthogonal,
    SpikeProfile,
    SpikeSpec,
    frame_sample,
    generate_sample,
    population_projection,
    projection_scores,
    spike_projection,
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


# The growing-n config of test_all_fields, for the echo round trip; its
# d/(n lambda_m) does not shrink, so building it warns.
ALL_KEYS_CONFIG = """
mode = growing-n-sweep
template.spikes = power:1:2, literal:5
template.tail = 2
template.basis = orthogonal:9
template.mean = constant:1.5
template.d_over_n = 0.5
grid.n = 100,200
replicates = 4
guard = 1e-6
workers = auto
"""


def tiny_config(out, **overrides):
    cfg = ExperimentConfig(
        mode=MODE_HDLSS,
        template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 1.6),), n=6),
        grid=(200,),
        replicates=3,
        master_seed=314,
        output_dir=out,
        workers=1,
    )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def public_chain(template, grid_value, replicate, master_seed, guard):
    """One replicate through the public chain: frame_sample -> frame_pca ->
    population_projection -> projection_overlaps -> spike_diagnostics.
    Returns the frame, the PCA, the ratio table and the diagnostics."""
    spec = template.spec_at(MODE_HDLSS, grid_value)
    frame = frame_sample(spec, np.random.SeedSequence((master_seed, grid_value, replicate)))
    pca, s_pop = frame_pca(frame)
    proj = population_projection(spec, s_pop)
    table = score_ratio_table(comparable_sample_scores(pca, spec.m), s_pop, guard)
    diags = spike_diagnostics(
        projection_overlaps(pca, proj), spec.spike_eigenvalues, pca.sample_eigenvalues
    )
    return frame, pca, table, diags


def dense_diagnostics(frame, spec):
    """Dense oracle: angles, leakage and weighted cross overlaps of the
    explicit loadings F'v_j / ||F'v_j|| (zero-mean model), with the frame's
    factor F = [L | B] and the leading eigenvectors v_j of FF' = A from
    eigh.  F' is the sample in a frame of R^d whose first m axes are the
    spike directions, written in K's frame of R^n, where the eigenvectors
    of A are K'V; the loadings do not depend on K."""
    n, r, s = frame.n, frame.tail_diag.size, frame.tail_sub.size
    b = np.zeros((n, r))
    b[np.arange(r), np.arange(r)] = frame.tail_diag
    b[np.arange(1, s + 1), np.arange(s)] = frame.tail_sub
    f = np.hstack([frame.lead, b])
    u_hat = f.T @ np.linalg.eigh(f @ f.T)[1][:, ::-1][:, : spec.m]
    u_hat /= np.linalg.norm(u_hat, axis=0)
    basis = np.eye(f.shape[1], spec.m)
    o = u_hat.T @ basis
    lam = spec.spike_eigenvalues
    leakage = ((u_hat - basis @ o.T) ** 2).sum(axis=0)
    angles = np.arccos(np.minimum(1.0, np.abs(np.diagonal(o))))
    return angles, leakage, np.sqrt(lam / lam[:, None]) * np.abs(o)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        text = TINY_CONFIG.format(out=tmp_path / "out")
        cfg = parse_config(text)
        assert cfg.mode == MODE_HDLSS
        assert cfg.template.n == 6
        assert cfg.grid == (200,)
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
        assert (cfg.template.spikes[1].scale, cfg.template.spikes[1].exponent) == (5.0, 0.0)
        assert cfg.template.basis == RandomOrthogonal(seed=9)
        assert cfg.template.mean == 1.5
        assert cfg.template.d_over_n == 0.5
        assert cfg.workers == "auto"
        assert cfg.guard == 1e-6

    @pytest.mark.parametrize(
        "text",
        [
            TINY_CONFIG.format(out="out").replace("power:1:1.6", "power:1.23456789:1.6"),
            ALL_KEYS_CONFIG,
        ],
        ids=["hdlss", "growing-n-all-keys"],
    )
    def test_echo_parses_back(self, text):
        # config_to_dict and parse_config read one table; the echo, written
        # back as a file, must give the same config, all digits included.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = parse_config(text)
            echo = config_to_dict(cfg)
            lines = [
                f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}"
                for key, value in echo.items()
            ]
            assert parse_config("\n".join(lines)) == cfg

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mode = hdlss-sweep\ntemplate.spikes = power:1:1.6\ntemplate.n = 6\n"
             "grid.d = 200\ngrid.n = 40\n",
             "config line 5: mode hdlss-sweep reads grid.d, not grid.n"),
            ("mode = growing-n-sweep\ntemplate.spikes = power:1:2\ngrid.d = 5\n"
             "grid.n = 40,80\n",
             "config line 3: mode growing-n-sweep reads grid.n, not grid.d"),
        ],
        ids=["grid.n-in-hdlss", "grid.d-in-growing-n"],
    )
    def test_other_modes_grid_key_refused(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    def test_hdlss_refuses_and_omits_d_over_n(self):
        # hdlss-sweep takes d from grid.d, so the coupling factor is unread.
        text = TINY_CONFIG.format(out="out")
        with pytest.raises(ValueError, match="config line 7: mode hdlss-sweep reads grid.d, "
                                             "not template.d_over_n"):
            parse_config(text.replace("grid.d = 200", "grid.d = 200\ntemplate.d_over_n = 2"))
        assert "template.d_over_n" not in config_to_dict(parse_config(text))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert config_to_dict(parse_config(ALL_KEYS_CONFIG))["template.d_over_n"] == 0.5

    def test_power_with_zero_exponent_echoes_literal(self):
        # power:5:0 and literal:5 are one spike, so the echo writes it as
        # literal:5, which parses back to the same template.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = parse_config(ALL_KEYS_CONFIG.replace("literal:5", "power:5:0"))
            echo = config_to_dict(cfg)["template.spikes"]
            assert echo == "power:1:2,literal:5"
            back = parse_config(ALL_KEYS_CONFIG.replace("power:1:2, literal:5", echo))
        assert back.template == cfg.template

    @pytest.mark.parametrize(
        "line, message",
        [
            ("replicates = two", r"config line 4: replicates: invalid literal for int\(\)"),
            ("grid.d = 200,", r"config line 4: grid.d: invalid literal for int\(\)"),
        ],
        ids=["replicates", "grid.d"],
    )
    def test_parse_error_names_line_and_key(self, line, message):
        text = f"mode = hdlss-sweep\ntemplate.spikes = power:1:1.6\ntemplate.n = 6\n{line}\n"
        with pytest.raises(ValueError, match=message):
            parse_config(text)

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
            tiny_config(tmp_path, grid=())

    def test_non_increasing_grid(self, tmp_path):
        with pytest.raises(ValueError, match="strictly increasing"):
            tiny_config(tmp_path, grid=(200, 200))

    def test_hypothesis_guard_refuses(self, tmp_path):
        # literal spike 100 at d = 200: d / lambda_m = 2 >= 1
        with pytest.raises(ValueError, match="d/lambda_m"):
            ExperimentConfig(
                mode=MODE_HDLSS,
                template=SpikeTemplate(spikes=(SpikeProfile.fixed(100.0),), n=6),
                grid=(200,),
                replicates=2,
                output_dir=tmp_path,
            )

    def test_hypothesis_guard_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="close to 1"):
            ExperimentConfig(
                mode=MODE_HDLSS,
                template=SpikeTemplate(spikes=(SpikeProfile.fixed(400.0),), n=6),
                grid=(210,),
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
                grid=(100, 200),
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
                grid=(40, 80),
                replicates=2,
                output_dir=tmp_path,
            )

    def test_growing_n_refuses_template_n(self, tmp_path):
        # n comes from grid.n; a template.n would be ignored yet echoed.
        with pytest.raises(ValueError, match="takes n from grid.n"):
            ExperimentConfig(
                mode=MODE_GROWING_N,
                template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),), n=999),
                grid=(40, 80),
                output_dir=tmp_path,
            )
        with pytest.raises(ValueError, match="takes n from grid.n"):
            parse_config(
                "mode = growing-n-sweep\ntemplate.spikes = power:1:2\n"
                "template.n = 999\ngrid.n = 40,80\n"
            )

    def test_hdlss_needs_d_at_least_n(self, tmp_path):
        with pytest.raises(ValueError, match="d >= n"):
            ExperimentConfig(
                mode=MODE_HDLSS,
                template=SpikeTemplate(spikes=(SpikeProfile.power(1, 1.6),), n=50),
                grid=(20,),
                replicates=2,
                output_dir=tmp_path,
            )

    def test_replicates_and_seed(self, tmp_path):
        with pytest.raises(ValueError, match="replicates"):
            tiny_config(tmp_path, replicates=0)
        with pytest.raises(ValueError, match="master_seed"):
            tiny_config(tmp_path, master_seed=-1)

    @pytest.mark.parametrize(
        "mode, key, value",
        [
            (MODE_HDLSS, "guard", "nan"),
            (MODE_HDLSS, "guard", "inf"),
            (MODE_HDLSS, "template.tail", "nan"),
            (MODE_HDLSS, "template.spikes", "power:nan:1.5"),
            (MODE_HDLSS, "template.spikes", "power:1:inf"),
            (MODE_HDLSS, "template.spikes", "literal:inf"),
            (MODE_HDLSS, "template.spikes", "power:1:400"),  # 200**400 overflows
            (MODE_HDLSS, "template.spikes", "power:1e308:2"),
            (MODE_HDLSS, "template.mean", "constant:nan"),
            (MODE_GROWING_N, "template.d_over_n", "-3"),
            (MODE_GROWING_N, "template.d_over_n", "0"),
            (MODE_GROWING_N, "template.d_over_n", "inf"),
            (MODE_GROWING_N, "template.d_over_n", "nan"),
        ],
    )
    def test_non_finite_or_non_positive_number_refused(self, tmp_path, monkeypatch, mode, key,
                                                       value):
        # Refused while the config is built, so the CLI exits 1 (config
        # error), not 2 after every replicate has failed.
        base = {"mode": mode, "template.spikes": "power:1:1.6", "template.n": "6",
                "grid.d": "200", "replicates": "3", "output_dir": str(tmp_path / "out")}
        if mode == MODE_GROWING_N:
            base.update({"template.spikes": "power:1:2", "grid.n": "20,40"})
            del base["template.n"], base["grid.d"]
        text = "".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items())
        with pytest.raises(ValueError, match="finite"):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        monkeypatch.setattr("spikescore.cli._log_progress_to_stderr", lambda: None)
        assert cli_main([mode, "--config", str(path)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mean", [0.0, 2.5], ids=["zero", "constant"])
    def test_basis_of_wrong_type_refused(self, tmp_path, mean):
        # Refused while the config is built, under either mean: neither run
        # on the canonical axes nor failed one replicate at a time.
        template = SpikeTemplate(spikes=(SpikeProfile.power(1.0, 1.6),), n=6, basis=3, mean=mean)
        with pytest.raises(ValueError, match="^grid point 200: basis must be CanonicalAxes or "
                                             "RandomOrthogonal, got 3$"):
            tiny_config(tmp_path, template=template)

    @pytest.mark.parametrize("mean", ["zero", "constant:2.5"])
    def test_negative_basis_seed_refused(self, tmp_path, monkeypatch, mean):
        # Refused at load, so the CLI exits 1 before any replicate runs,
        # whether or not the mean makes a replicate read the basis.
        text = (f"mode = hdlss-sweep\ntemplate.spikes = power:1:1.6\ntemplate.n = 6\n"
                f"template.basis = orthogonal:-1\ntemplate.mean = {mean}\ngrid.d = 200\n"
                f"output_dir = {tmp_path / 'out'}\n")
        with pytest.raises(ValueError, match=r"^config line 4: template.basis: basis seed "
                                             r"must be >= 0, got -1$"):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        monkeypatch.setattr("spikescore.cli._log_progress_to_stderr", lambda: None)
        assert cli_main([MODE_HDLSS, "--config", str(path)]) == 1
        assert not (tmp_path / "out" / "records.csv").exists()

    def test_hdlss_refuses_template_d_over_n(self, tmp_path):
        # hdlss-sweep takes d from grid.d, so a coupling factor would run at
        # d = grid value and be left out of the echo; the config, the spec
        # and the replicate refuse it, as the file format does.
        template = SpikeTemplate(spikes=(SpikeProfile.power(1.0, 1.6),), n=6, d_over_n=3.0)
        message = re.escape("mode hdlss-sweep takes d from grid.d, so template.d_over_n = 3.0 "
                            "would be ignored")
        with pytest.raises(ValueError, match=f"^grid point 200: {message}$"):
            tiny_config(tmp_path, template=template)
        with pytest.raises(ValueError, match=f"^{message}$"):
            template.spec_at(MODE_HDLSS, 200)
        with pytest.raises(ValueError, match=f"^{message}$"):
            compute_replicate(template, MODE_HDLSS, 200, 0, 314)

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

    def test_template_mean_is_the_model_run(self, tmp_path):
        # SpikeTemplate(mean=2.5) runs the shifted model: the echo names it,
        # and its records differ from those of the zero-mean sweep.
        zero = tiny_config(tmp_path / "zero")
        run_hdlss_sweep(zero)
        template = dataclasses.replace(zero.template, mean=2.5)
        run_hdlss_sweep(tiny_config(tmp_path / "shifted", template=template))
        echo = json.loads((tmp_path / "shifted" / "report.json").read_text())["config"]
        assert echo["template.mean"] == "constant:2.5"
        assert (tmp_path / "shifted" / "records.csv").read_bytes() != (
            tmp_path / "zero" / "records.csv"
        ).read_bytes()

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

    @pytest.mark.parametrize("mode", [MODE_HDLSS, MODE_GROWING_N], ids=["hdlss", "growing"])
    def test_report_json_is_the_report(self, tmp_path, mode):
        # report.json's keys are the report's fields but the records and the
        # two paths, each value is its field's through JSON (compared as
        # text, so that NaN equals NaN), and both modes' row lists are
        # there, the other mode's empty.
        if mode == MODE_HDLSS:
            report = run_hdlss_sweep(tiny_config(tmp_path, replicates=10))
        else:
            report = run_growing_n_sweep(small_growing_n(tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        names = {f.name for f in dataclasses.fields(report)}
        names -= {"records", "records_path", "report_path"}
        assert set(payload) == names
        for name in names:
            assert json.dumps(payload[name], sort_keys=True) == json.dumps(
                getattr(report, name), sort_keys=True), name
        filled, empty = ("ks", "consistency") if mode == MODE_HDLSS else ("consistency", "ks")
        assert payload[filled]
        assert payload[empty] == []

    def test_ks_rows_carry_one_sided_statistics(self, tmp_path):
        run_hdlss_sweep(tiny_config(tmp_path, replicates=10))
        rows = json.loads((tmp_path / "report.json").read_text())["ks"]
        assert rows
        for row in rows:
            assert row["statistic"] == max(row["d_plus"], row["d_minus"])

    def test_ks_skipped_for_tiny_samples(self, tmp_path):
        cfg = tiny_config(tmp_path, replicates=3)
        report = run_hdlss_sweep(cfg)
        assert report.ks[0]["skipped"]
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
            grid=(150, 300),
            replicates=2,
            master_seed=1,
            output_dir=tmp_path,
            workers=1,
        )
        report = run_hdlss_sweep(cfg)
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # grid x replicates x spikes
        assert all(len(r.spikes) == 2 for r in report.records)

    @pytest.mark.parametrize("case", ["two-spikes", "nan-medians"])
    def test_records_csv_reads_back_to_the_records(self, tmp_path, case):
        # Every cell, bit for bit: a float's text parses back to the
        # record's value (or both are NaN), and j and n_excluded are
        # integers.  guard = 1e6 excludes every cell, so every median is NaN.
        if case == "two-spikes":
            two = (SpikeProfile.power(1.0, 1.8), SpikeProfile.power(1.0, 1.4))
            cfg = tiny_config(tmp_path, template=SpikeTemplate(spikes=two, n=8),
                              grid=(150, 300), replicates=2, master_seed=1)
            report = run_hdlss_sweep(cfg)
        else:
            cfg = ExperimentConfig(
                mode=MODE_GROWING_N,
                template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),)),
                grid=(20, 40), replicates=3, guard=1e6, output_dir=tmp_path, workers=1,
            )
            report = run_growing_n_sweep(cfg)
            assert all(np.isnan(r.spikes.median_ratio).all() for r in report.records)
        lines = (tmp_path / "records.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert lines[0] == RECORDS_HEADER
        expected = [(rec, diag) for rec in report.records for diag in rec.spikes]
        assert len(lines) == 1 + len(expected) == 1 + 2 * cfg.replicates * cfg.template.m
        for line, (rec, diag) in zip(lines[1:], expected):
            cells = dict(zip(header, line.split(","), strict=True))
            assert cells.pop("grid") == str(rec.grid_value)
            assert cells.pop("replicate") == str(rec.replicate)
            assert cells.pop("j") == str(diag.j + 1)
            assert cells.pop("n_excluded") == str(diag.n_excluded)
            for name, text in cells.items():
                value = getattr(diag, name)
                assert float(text) == value or (np.isnan(float(text)) and np.isnan(value))


class TestGrowingNSweep:
    def test_tiny_run(self, tmp_path):
        cfg = ExperimentConfig(
            mode=MODE_GROWING_N,
            template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),), d_over_n=1.0),
            grid=(40, 80),
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
            grid=(20, 40),
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

    def test_coupled_d_at_most_m_is_refused(self, tmp_path):
        # d = round(1e-3 n) is 0 at n = 20: the grid point is named, not
        # silently run at d = m + 1.
        with pytest.raises(ValueError, match=r"grid point 20: .*d=0"):
            ExperimentConfig(
                mode=MODE_GROWING_N,
                template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),), d_over_n=1e-3),
                grid=(20, 40),
                output_dir=tmp_path,
            )
        template = SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),), d_over_n=0.05)
        with pytest.raises(ValueError, match=r"grid point 20: .*d=1"):
            ExperimentConfig(
                mode=MODE_GROWING_N, template=template, grid=(20, 40), output_dir=tmp_path
            )
        assert template.spec_at(MODE_GROWING_N, 40).d == 2

    def test_consistency_and_trend_share_the_mean_eig_ratio(self, tmp_path):
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 2.0), SpikeProfile.power(0.5, 2.0))
        )
        report = run_growing_n_sweep(small_growing_n(tmp_path, template=template))
        trend = {row["grid"]: row["mean_eig_ratio"] for row in report.trend}
        assert [(row["grid"], row["j"]) for row in report.consistency] == [
            (20, 1), (20, 2), (30, 1), (30, 2)
        ]
        for row in report.consistency:
            assert row["mean_eig_ratio"] == trend[row["grid"]][row["j"] - 1]

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
        frame, _, _, diags = public_chain(template, 300, 1, 21, rn.DEFAULT_DENOMINATOR_GUARD)
        angles, leakage, cross = dense_diagnostics(frame, template.spec_at(MODE_HDLSS, 300))
        for j, diag in enumerate(record.spikes):
            assert diag.angle_rad == diags.angles[j]
            assert diag.leakage == diags.leakage[j]
            assert diag.eig_ratio == diags.eig_ratios[j]
            assert diag.angle_rad == pytest.approx(angles[j], rel=0, abs=1e-10)
            assert diag.leakage == pytest.approx(leakage[j], rel=0, abs=1e-10)
            assert diags.cross_overlaps[j, 1 - j] == pytest.approx(cross[j, 1 - j], rel=0,
                                                                   abs=1e-10)

    def test_scores_and_overlaps_equal_public_chain_with_mean(self):
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 1.8), SpikeProfile.power(1.0, 1.5)),
            n=10,
            mean=2.5,
        )
        guard = 1e-3
        record = compute_replicate(template, MODE_HDLSS, 300, 2, master_seed=17, guard=guard)
        _, _, table, diags = public_chain(template, 300, 2, 17, guard)
        for j, diag in enumerate(record.spikes):
            assert diag.median_ratio == table.medians[j]
            assert diag.rel_spread == table.rel_spreads[j]
            assert diag.n_excluded == table.n_excluded[j]
            assert diag.angle_rad == diags.angles[j]
            assert diag.leakage == diags.leakage[j]
            assert diag.eig_ratio == diags.eig_ratios[j]


class TestSquareReplicate:
    # At n = d = 400 the replicate runs Lanczos on its frame's O(n m)
    # operator; the record is still that of the public chain, to the bit.
    @pytest.mark.parametrize("basis", [CanonicalAxes(), RandomOrthogonal(seed=4)],
                             ids=["canonical", "orthogonal"])
    def test_equals_public_chain(self, basis):
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 1.8), SpikeProfile.power(1.0, 1.5)), n=400, basis=basis
        )
        guard = rn.DEFAULT_DENOMINATOR_GUARD
        record = compute_replicate(template, MODE_HDLSS, 400, 1, master_seed=29, guard=guard)
        _, _, table, diags = public_chain(template, 400, 1, 29, guard)
        for j, diag in enumerate(record.spikes):
            assert diag.median_ratio == table.medians[j]
            assert diag.rel_spread == table.rel_spreads[j]
            assert diag.angle_rad == diags.angles[j]
            assert diag.leakage == diags.leakage[j]
            assert diag.eig_ratio == diags.eig_ratios[j]


class TestOneProjectionPerReplicate:
    def test_canonical_replicate_builds_no_basis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a canonical replicate built a d x m basis")

        monkeypatch.setattr(spike_model, "basis_vectors", refuse)
        template = SpikeTemplate(spikes=(SpikeProfile.power(1.0, 1.6),), n=6)
        record = compute_replicate(template, MODE_HDLSS, 200, 0, master_seed=5)
        assert np.isfinite(record.spikes[0].median_ratio)


class TestWideDReplicate:
    # At d = 24,593 as at any d the replicate draws its sample in a random
    # frame of n-space (frame_sample); it must agree with that public chain.
    @pytest.mark.parametrize("mean", [0.0, 2.5], ids=["zero", "constant"])
    def test_wide_d_matches_public_chain(self, mean):
        d = 24_593
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 1.8), SpikeProfile.power(1.0, 1.5)), n=10, mean=mean
        )
        guard = 1e-3
        record = compute_replicate(template, MODE_HDLSS, d, 3, master_seed=23, guard=guard)
        spec = template.spec_at(MODE_HDLSS, d)
        pca, s_pop = frame_pca(frame_sample(spec, np.random.SeedSequence((23, d, 3))))
        proj = population_projection(spec, s_pop)
        table = score_ratio_table(comparable_sample_scores(pca, spec.m), s_pop, guard)
        diags = spike_diagnostics(
            projection_overlaps(pca, proj), spec.spike_eigenvalues, pca.sample_eigenvalues
        )
        # Angle and leakage are read off cosines near 1 and norms near 0,
        # so their rounding is absolute (about 1e-13), not relative.
        def close(expected):
            return pytest.approx(expected, rel=1e-12, abs=1e-12)

        for j, diag in enumerate(record.spikes):
            assert diag.median_ratio == close(table.medians[j])
            assert diag.rel_spread == close(table.rel_spreads[j])
            assert diag.n_excluded == table.n_excluded[j]
            assert diag.eig_ratio == close(diags.eig_ratios[j])
            assert diag.angle_rad == close(diags.angles[j])
            assert diag.leakage == close(diags.leakage[j])

    def test_holds_no_n_by_d_array(self):
        n, d = 8, 40_960
        template = SpikeTemplate(spikes=(SpikeProfile.power(1.0, 1.6),), n=n)
        compute_replicate(template, MODE_HDLSS, 200, 0, master_seed=5)  # imports the eigensolver
        tracemalloc.start()
        try:
            record = compute_replicate(template, MODE_HDLSS, d, 0, master_seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * n * d
        assert np.isfinite(record.spikes[0].median_ratio)


class TestWorkerCount:
    # d = 24,593: no record may depend on the worker count.
    D = 24_593

    def test_wide_d_records_identical_across_workers(self, tmp_path):
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_hdlss_sweep(tiny_config(out, grid=(self.D,), replicates=4, workers=workers))
        assert (tmp_path / "w1" / "records.csv").read_bytes() == (
            tmp_path / "w2" / "records.csv"
        ).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_names_the_workers(self, tmp_path, workers):
        report = run_hdlss_sweep(tiny_config(tmp_path, replicates=4, workers=workers))
        payload = json.loads((tmp_path / "report.json").read_text())
        expected = {"workers": workers}
        assert payload["parallelism"] == report.parallelism == expected

    def test_both_bases_report_one_worker(self, tmp_path, monkeypatch):
        # With four usable CPUs and workers = 1, either basis reports the one
        # worker and nothing more.
        monkeypatch.setattr(rn, "usable_cpus", lambda: 4)
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 1.6),), n=6, basis=RandomOrthogonal(seed=2)
        )
        report = run_hdlss_sweep(tiny_config(tmp_path / "orthogonal", template=template))
        assert report.parallelism == {"workers": 1}
        report = run_hdlss_sweep(tiny_config(tmp_path / "canonical"))
        assert report.parallelism == {"workers": 1}

    def test_random_basis_records_identical_across_workers(self, tmp_path):
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 1.6),), n=6, basis=RandomOrthogonal(seed=4)
        )
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_hdlss_sweep(
                tiny_config(out, template=template, grid=(200, 300), workers=workers)
            )
        assert (tmp_path / "w1" / "records.csv").read_bytes() == (
            tmp_path / "w2" / "records.csv"
        ).read_bytes()

    # At d = 24,593, on a random basis, with the mean's n-space term.
    WIDE_D_RANDOM_BASIS = SpikeTemplate(
        spikes=(SpikeProfile.power(1.0, 1.8), SpikeProfile.power(1.0, 1.5)),
        n=10,
        basis=RandomOrthogonal(seed=4),
        mean=2.5,
    )

    def test_wide_d_random_basis_records_identical_across_workers(self, tmp_path):
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            cfg = tiny_config(
                out, template=self.WIDE_D_RANDOM_BASIS, grid=(self.D,), replicates=4,
                workers=workers,
            )
            run_hdlss_sweep(cfg)
        assert (tmp_path / "w1" / "records.csv").read_bytes() == (
            tmp_path / "w2" / "records.csv"
        ).read_bytes()

    def test_auto_follows_the_affinity_mask(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rn.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = tiny_config(tmp_path, workers="auto")
        assert cfg.resolved_workers() == 1
        report = run_hdlss_sweep(cfg)
        assert report.parallelism == {"workers": 1}

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(rn.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(rn.os, "cpu_count", lambda: 3)
        assert rn.usable_cpus() == 3


class TestEigensolverImport:
    def test_imported_before_the_first_replicate(self, tmp_path):
        # In a fresh process the eigensolver import must not land in the
        # first replicate's "pca" stage.
        src = str(Path(rn.__file__).resolve().parents[1])
        code = (
            f"import json, sys; sys.path.insert(0, {src!r})\n"
            "import spikescore.runner as rn\n"
            "seen, real = [], rn.frame_sample\n"
            "def wrapper(*args):\n"
            "    seen.append('scipy.sparse.linalg' in sys.modules)\n"
            "    return real(*args)\n"
            "rn.frame_sample = wrapper\n"
            f"rn.run_hdlss_sweep(rn.parse_config({TINY_CONFIG.format(out=tmp_path)!r}))\n"
            "print(json.dumps(seen))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert json.loads(out.stdout) == [True] * 3


class TestGrowingNReplicateMemory:
    def test_holds_o_n_m_arrays(self):
        # At n = d = 1e4 the replicate holds O(n m) arrays; one n x n array,
        # such as the Gram or the factor F, would be 800 MB.
        template = SpikeTemplate(spikes=(SpikeProfile.power(2.0, 2.0), SpikeProfile.power(1.0, 2.0)))
        compute_replicate(template, MODE_GROWING_N, 40, 0, master_seed=1)  # imports the eigensolver
        tracemalloc.start()
        try:
            record = compute_replicate(template, MODE_GROWING_N, 10_000, 0, master_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert all(np.isfinite(d.median_ratio) for d in record.spikes)


class TestFrameReuse:
    def test_one_frame_per_grid_point(self, tmp_path):
        # U_m is built once per grid point, not per replicate or consumer.
        # Under a zero mean no replicate reads it, so the mean is shifted.
        spike_model._cached_spike_basis.cache_clear()
        cfg = tiny_config(
            tmp_path,
            template=SpikeTemplate(
                spikes=(SpikeProfile.power(1.0, 1.6),), n=6, basis=RandomOrthogonal(seed=9),
                mean=2.5,
            ),
            grid=(200, 300),
            replicates=3,
        )
        try:
            run_hdlss_sweep(cfg)
            info = spike_model._cached_spike_basis.cache_info()
        finally:
            spike_model._cached_spike_basis.cache_clear()
        assert info.misses == 2
        assert info.hits > 0


class TestBasisOnlyWhenRead:
    D = 16_401

    def test_zero_mean_replicate_builds_no_basis(self):
        # A zero-mean replicate reads neither U_m nor 1'U_m.
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(1.0, 1.6),), n=6, basis=RandomOrthogonal(seed=9)
        )
        spike_model._cached_spike_basis.cache_clear()
        try:
            record = compute_replicate(template, MODE_HDLSS, self.D, 0, master_seed=5)
            info = spike_model._cached_spike_basis.cache_info()
        finally:
            spike_model._cached_spike_basis.cache_clear()
        assert info.misses == 0
        assert np.isfinite(record.spikes[0].median_ratio)

    def test_shifted_sweep_builds_one_frame_per_grid_point(self, tmp_path):
        spike_model._cached_spike_basis.cache_clear()
        cfg = tiny_config(
            tmp_path,
            template=SpikeTemplate(
                spikes=(SpikeProfile.power(1.0, 1.6),), n=6, basis=RandomOrthogonal(seed=9),
                mean=2.5,
            ),
            grid=(self.D, 24_593),
            replicates=3,
        )
        try:
            run_hdlss_sweep(cfg)
            info = spike_model._cached_spike_basis.cache_info()
        finally:
            spike_model._cached_spike_basis.cache_clear()
        assert info.misses == 2
        assert info.hits > 0

    def test_shifted_replicate_costs_about_a_zero_mean_one(self):
        # 1'U_m is cached with U_m, so with the cache warm a replicate under a
        # mean does not sum the d x m basis: at d = 1e6 that sum alone took
        # 20 ms, against about 1 ms for the whole replicate.
        spikes = (SpikeProfile.power(2.0, 1.5), SpikeProfile.power(1.0, 1.5))
        shifted = SpikeTemplate(spikes=spikes, n=50, basis=RandomOrthogonal(seed=7),
                                mean=2.5)
        zero = SpikeTemplate(spikes=spikes, n=50)
        d = 10**6
        spike_model._cached_spike_basis.cache_clear()
        try:
            compute_replicate(shifted, MODE_HDLSS, d, 0, master_seed=5)  # builds the basis
            best = {}
            for template in (shifted, zero) * 7:
                t0 = time.perf_counter()
                compute_replicate(template, MODE_HDLSS, d, 1, master_seed=5)
                elapsed = time.perf_counter() - t0
                best[template] = min(best.get(template, elapsed), elapsed)
        finally:
            spike_model._cached_spike_basis.cache_clear()
        assert best[shifted] < 2 * best[zero]

    def test_replicate_at_d_1e12_is_small(self):
        # The draw takes O(n m) memory at any d: the benchmark's spikes at
        # n = 50 and d = 1e12, where the n x d sample would be 400 TB.
        template = SpikeTemplate(
            spikes=(SpikeProfile.power(2.0, 1.5), SpikeProfile.power(1.0, 1.5)), n=50
        )
        compute_replicate(template, MODE_HDLSS, self.D, 0, master_seed=5)  # imports the eigensolver
        tracemalloc.start()
        try:
            record = compute_replicate(template, MODE_HDLSS, 10**12, 0, master_seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert all(np.isfinite(d.median_ratio) for d in record.spikes)


def dense_chain(spec, seed, guard):
    """One replicate through the dense reference chain: generate_sample ->
    dual_pca.  Returns the ratio table and the diagnostics."""
    data = generate_sample(spec, seed)
    pca = dual_pca(data.values, divisor="n", rank=spec.m)
    proj = spike_projection(data)
    table = score_ratio_table(
        comparable_sample_scores(pca, spec.m), projection_scores(spec, proj), guard
    )
    diags = spike_diagnostics(
        projection_overlaps(pca, proj), spec.spike_eigenvalues, pca.sample_eigenvalues
    )
    return table, diags


def law_pvalues(mode, grid_value, template, replicates):
    """Two-sample KS p-values of each record column of each spike: the
    replicates of compute_replicate against those of the dense chain, with
    fixed seeds, so the p-values are fixed."""
    from scipy import stats

    guard = rn.DEFAULT_DENOMINATOR_GUARD
    spec = template.spec_at(mode, grid_value)
    names = ("median_ratio", "rel_spread", "eig_ratio", "angle_rad", "leakage")
    records = [compute_replicate(template, mode, grid_value, r, 1, guard)
               for r in range(replicates)]
    fast = {(name, j): [getattr(record.spikes[j], name) for record in records]
            for name in names for j in range(spec.m)}
    dense = {key: [] for key in fast}
    for r in range(replicates):
        table, diags = dense_chain(spec, np.random.SeedSequence((2, grid_value, r)), guard)
        columns = {"median_ratio": table.medians, "rel_spread": table.rel_spreads,
                   "eig_ratio": diags.eig_ratios, "angle_rad": diags.angles,
                   "leakage": diags.leakage}
        for name, j in dense:
            dense[name, j].append(columns[name][j])
    return {key: stats.ks_2samp(fast[key], dense[key]).pvalue for key in fast}


class TestFrameLaw:
    # A replicate draws its sample in a random frame of n-space
    # (frame_sample); the dense chain must give the same laws, at d = 300
    # and d = 16,401, on both bases and means, and at nu = d - m - 1 = 0.
    D = 16_401
    M = 300
    HDLSS_SPIKES = (SpikeProfile.power(1.0, 1.5), SpikeProfile.power(1.0, 1.2))
    GROWING_SPIKES = (SpikeProfile.power(2.0, 2.0), SpikeProfile.power(1.0, 2.0))
    HALF_ORTHOGONAL_SHIFTED = SpikeTemplate(spikes=GROWING_SPIKES, d_over_n=0.5, tail_value=2.0,
                                            basis=RandomOrthogonal(seed=3),
                                            mean=2.5)

    @pytest.mark.parametrize(
        "mode, grid_value, template",
        [
            (MODE_HDLSS, D, SpikeTemplate(spikes=HDLSS_SPIKES, n=20)),
            (MODE_HDLSS, D, SpikeTemplate(spikes=HDLSS_SPIKES, n=20, tail_value=2.0,
                                          basis=RandomOrthogonal(seed=3), mean=2.5)),
            (MODE_HDLSS, D, SpikeTemplate(spikes=HDLSS_SPIKES, n=20, tail_value=2.0,
                                          mean=-1.5)),
            (MODE_GROWING_N, 40, SpikeTemplate(spikes=GROWING_SPIKES)),
            (MODE_GROWING_N, 40, HALF_ORTHOGONAL_SHIFTED),
            (MODE_HDLSS, 300, SpikeTemplate(spikes=HDLSS_SPIKES, n=20, tail_value=2.0,
                                            mean=-1.5)),
            (MODE_GROWING_N, 60, SpikeTemplate(spikes=(SpikeProfile.fixed(400.0),
                                                       SpikeProfile.fixed(50.0)),
                                               d_over_n=0.05)),
        ],
        ids=["canonical", "orthogonal-shifted", "canonical-shifted", "growing-square",
             "growing-half-orthogonal-shifted", "small-d-canonical-shifted", "growing-nu0"],
    )
    def test_replicates_match_the_dense_stream_in_law(self, mode, grid_value, template):
        pvalues = law_pvalues(mode, grid_value, template, self.M)
        assert min(pvalues.values()) > 1e-3, pvalues

    def test_frame_not_conditioned_on_ones_is_rejected(self, monkeypatch):
        # Without its two reflections, K no longer takes h to 1, so the mean
        # lands on the wrong direction of n-space; the law test must see it.
        monkeypatch.setattr(spike_model, "_reflect", lambda z, w: z)
        pvalues = law_pvalues(MODE_GROWING_N, 40, self.HALF_ORTHOGONAL_SHIFTED, self.M)
        assert min(pvalues.values()) < 1e-6, pvalues


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
            ratio = rn._MODE_TABLE[MODE_HDLSS].ratio(spec)
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
            cfg = tiny_config(tmp_path, grid=(200, 300), replicates=2)
            report = run_hdlss_sweep(cfg)
        else:
            cfg = ExperimentConfig(
                mode=MODE_GROWING_N,
                template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),)),
                grid=(20, 40),
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
        key = rn._MODE_TABLE[mode].ratio_key
        for row, g in zip(payload["regime"], cfg.grid):
            spec = cfg.template.spec_at(mode, g)
            lam_m = spec.spike_eigenvalues[spec.m - 1]
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
        assert report.ks[0]["sample_size"] == 149

    def test_grid_point_with_every_replicate_failed(self, tmp_path, monkeypatch):
        # 1 failure in 100 is within the policy, and it empties grid point
        # 250: its rows must still be written, empty, without a warning.
        real = rn.compute_replicate

        def flaky(template, mode, grid_value, replicate, master_seed, guard=1e-8):
            if grid_value == 250:
                raise np.linalg.LinAlgError("synthetic eigensolver failure")
            return real(template, mode, grid_value, replicate, master_seed, guard)

        monkeypatch.setattr(rn, "compute_replicate", flaky)
        cfg = tiny_config(tmp_path, grid=tuple(range(200, 300)), replicates=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_hdlss_sweep(cfg)
        assert report.failures["count"] == 1
        assert len(report.records) == 99
        timing, trend, ks = (rows[50] for rows in (report.timings, report.trend,
                                                   report.ks))
        assert timing["grid"] == trend["grid"] == ks["grid"] == 250
        assert timing["replicates"] == 0
        for stage in rn.STAGES:
            assert np.isnan(timing[stage]["p50_s"]) and np.isnan(timing[stage]["p95_s"])
            assert timing[stage]["sum_s"] == 0.0
        means = [trend[key] for key in trend if key.startswith("mean_")]
        assert len(means) == 4 and np.isnan(means).all()
        assert ks["skipped"] and ks["sample_size"] == 0

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
        truth = data.latent[:, 0] > 0
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
            grid=(5000,),
            replicates=200,
            master_seed=7,
            output_dir=tmp_path,
            workers=1,
        )
        report = run_hdlss_sweep(cfg)
        assert not report.checks["passed"]
        assert any(o.get("rejected_at_01") for o in report.ks)


def small_growing_n(out, **overrides):
    fields = dict(
        mode=MODE_GROWING_N,
        template=SpikeTemplate(spikes=(SpikeProfile.power(1.0, 2.0),)),
        grid=(20, 30),
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
        # The master seed is the first one >= 3 at which the mean
        # |median - 1| rises from n = 20 to n = 30 by under one standard
        # error (0 < z < 1): 8 for the replicates frame_sample draws.  It
        # moves whenever the replicate stream's law or bits do.  The check
        # still rejects, and its note says by how many standard errors.
        report = run_growing_n_sweep(small_growing_n(tmp_path, master_seed=8))
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


class TestModeTable:
    def test_unknown_mode_is_refused(self):
        # An unknown mode names itself; it does not fall through to a
        # dimension-sweep spec or ratio.
        template = SpikeTemplate(spikes=(SpikeProfile.power(1.0, 1.6),), n=6)
        with pytest.raises(ValueError, match="unknown mode 'growing-n'"):
            template.spec_at("growing-n", 200)
        spec = template.spec_at(MODE_HDLSS, 200)
        with pytest.raises(ValueError, match="unknown mode 'hdlss'"):
            rn._MODE_TABLE["hdlss"].ratio(spec)

    def test_views_follow_the_table(self):
        assert rn._MODES == (MODE_HDLSS, MODE_GROWING_N)
        assert rn.GRID_KEYS == {MODE_HDLSS: "grid.d", MODE_GROWING_N: "grid.n"}
        assert {name: mode.ratio_key for name, mode in rn._MODE_TABLE.items()} == {
            MODE_HDLSS: "d_over_lambda_m", MODE_GROWING_N: "d_over_n_lambda_m"
        }

    @pytest.mark.parametrize("mode", [MODE_HDLSS, MODE_GROWING_N])
    def test_report_identical_across_workers(self, tmp_path, mode):
        # Every row, check and echo is the same at 1 and 2 workers; only
        # the timings and the parallelism the run used may differ.
        def report_at(workers):
            out = tmp_path / f"w{workers}"
            if mode == MODE_HDLSS:
                run_hdlss_sweep(tiny_config(out, grid=(200, 300), replicates=12, workers=workers))
            else:
                run_growing_n_sweep(small_growing_n(out, replicates=12, workers=workers))
            payload = json.loads((out / "report.json").read_text())
            for key in ("timings", "total_runtime_s", "parallelism"):
                del payload[key]
            del payload["config"]["workers"], payload["config"]["output_dir"]
            return payload

        one, two = report_at(1), report_at(2)
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
        filled, empty = ("ks", "consistency") if mode == MODE_HDLSS else ("consistency", "ks")
        assert len(one[filled]) == 2
        assert one[empty] == []


class TestWorkersField:
    @pytest.mark.parametrize(
        "given, stored", [(3, 3), ("3", 3), (np.int64(2), 2), ("auto", "auto")]
    )
    def test_stored_as_int_or_auto(self, tmp_path, given, stored):
        cfg = tiny_config(tmp_path, workers=given)
        assert cfg.workers == stored
        assert type(cfg.workers) is type(stored)
        assert config_to_dict(cfg)["workers"] == stored

    @pytest.mark.parametrize("given", [2.7, 3.0, True, False, "abc", "2.5", "", 0, "0", -1, None])
    def test_refused_by_name(self, tmp_path, given):
        with pytest.raises(ValueError, match="workers must be 'auto' or an integer >= 1"):
            tiny_config(tmp_path, workers=given)

    def test_file_key_uses_the_same_rule(self, tmp_path):
        text = TINY_CONFIG.format(out=tmp_path)
        assert parse_config(text.replace("workers = 1", "workers = 4")).workers == 4
        with pytest.raises(ValueError, match="config line .*workers: workers must"):
            parse_config(text.replace("workers = 1", "workers = 1.5"))
