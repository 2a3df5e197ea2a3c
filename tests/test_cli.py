"""Command-line sweeps: stdout summary and progress lines on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikescore
from spikescore.pca_engine import dual_pca

SRC = str(Path(spikescore.__file__).resolve().parents[1])

SWEEP_CONFIG = """
mode = hdlss-sweep
template.spikes = power:1:1.6
template.n = 6
grid.d = 200, 300
replicates = 2
master_seed = 3
output_dir = {out}
workers = 1
"""


def run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env
    )


def finished_lines(stderr):
    return [line for line in stderr.splitlines() if "finished" in line]


def test_sweep_logs_one_progress_line_per_grid_point(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG.format(out=out))
    proc = run_python(["-m", "spikescore.cli", "hdlss-sweep", "--config", str(cfg)], tmp_path)
    lines = finished_lines(proc.stderr)
    assert [line.split()[:4] for line in lines] == [
        ["grid", "point", "200", "finished:"],
        ["grid", "point", "300", "finished:"],
    ]
    assert proc.stdout.splitlines()[:2] == [
        f"records: {out / 'records.csv'}",
        f"report:  {out / 'report.json'}",
    ]
    assert proc.stdout.splitlines()[2].startswith("checks:  ")
    assert len(proc.stdout.splitlines()) == 3


def test_repeated_cli_main_adds_no_second_handler(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG.format(out=tmp_path / "out"))
    code = (
        "from spikescore.cli import cli_main\n"
        f"for _ in range(2): cli_main(['hdlss-sweep', '--config', {str(cfg)!r}])\n"
    )
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[2] for line in finished_lines(proc.stderr)] == [
        "200", "300", "200", "300",
    ]
    assert len(proc.stdout.splitlines()) == 6


def test_bad_workers_override_names_the_flag(tmp_path, capsys, monkeypatch):
    from spikescore.cli import cli_main

    out = tmp_path / "out"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG.format(out=out))
    monkeypatch.setattr("spikescore.cli._log_progress_to_stderr", lambda: None)
    assert cli_main(["hdlss-sweep", "--config", str(cfg), "--workers", "abc"]) == 1
    assert capsys.readouterr().err.startswith("error: --workers: ")
    assert not out.exists()


def test_config_of_the_other_mode_is_refused(tmp_path, capsys, monkeypatch):
    from spikescore.cli import cli_main

    out = tmp_path / "out"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG.format(out=out))
    monkeypatch.setattr("spikescore.cli._log_progress_to_stderr", lambda: None)
    assert cli_main(["growing-n-sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config mode is 'hdlss-sweep'")
    assert "'growing-n-sweep'" in err
    assert not out.exists()


def test_sweep_help_is_the_mode_summary():
    from spikescore.cli import _build_parser
    from spikescore.runner import _MODE_TABLE

    text = " ".join(_build_parser().format_help().split())  # argparse wraps lines
    for name, mode in _MODE_TABLE.items():
        assert name in text
        assert mode.__doc__.splitlines()[0] in text


# A 6 x 4 sample: rows are dimensions, columns are observations.
DENSE_SAMPLE = np.array([
    [1.0, 2.0, 0.0, 4.0],
    [3.0, 1.0, 5.0, 2.0],
    [0.0, 6.0, 2.0, 1.0],
    [4.0, 4.0, 1.0, 3.0],
    [2.0, 0.0, 3.0, 5.0],
    [5.0, 1.0, 1.0, 0.5],
])


def write_sample(tmp_path, header=False):
    path = tmp_path / "x.csv"
    rows = [",".join(map(repr, row)) for row in DENSE_SAMPLE.tolist()]
    path.write_text("\n".join(["a,b,c,d"] * header + rows) + "\n")
    return path


def eigenvalue_lines(result):
    return ["component eigenvalue"] + [
        f"{j} {float(w)!r}" for j, w in enumerate(result.sample_eigenvalues, start=1)
    ]


class TestDensePca:
    def test_prints_the_dual_pca_eigenvalues(self, tmp_path, capsys):
        from spikescore.cli import cli_main

        assert cli_main(["pca", "--input", str(write_sample(tmp_path))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == eigenvalue_lines(dual_pca(DENSE_SAMPLE))
        assert len(lines) == 5

    @pytest.mark.parametrize("rank, kept", [(2, 2), (4, 4), (9, 4)])
    def test_rank_is_clamped_to_the_smaller_side(self, tmp_path, capsys, rank, kept):
        from spikescore.cli import cli_main

        path = write_sample(tmp_path)
        assert cli_main(["pca", "--input", str(path), "--rank", str(rank)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == eigenvalue_lines(dual_pca(DENSE_SAMPLE, rank=kept))
        assert len(lines) == 1 + kept

    def test_header_center_and_divisor(self, tmp_path, capsys):
        from spikescore.cli import cli_main

        path = write_sample(tmp_path, header=True)
        argv = ["pca", "--input", str(path), "--header", "--center", "--divisor", "n-1",
                "--rank", "3"]
        assert cli_main(argv) == 0
        expected = dual_pca(DENSE_SAMPLE, center=True, divisor="n-1", rank=3)
        assert capsys.readouterr().out.splitlines() == eigenvalue_lines(expected)


class TestDenseScatter:
    @pytest.mark.parametrize("a, b", [(1, 2), (3, 1)])
    @pytest.mark.parametrize("center", [False, True], ids=["raw", "centered"])
    def test_columns_are_the_score_vectors(self, tmp_path, capsys, a, b, center):
        from spikescore.cli import cli_main

        out = tmp_path / "scatter.csv"
        argv = ["scatter", "--input", str(write_sample(tmp_path, header=True)), "--header",
                "--components", f"{a},{b}", "--out", str(out), "--divisor", "n-1"]
        assert cli_main(argv + ["--center"] * center) == 0
        assert capsys.readouterr().out == f"scatter: {out}\n"
        lines = out.read_text().splitlines()
        assert lines[0] == f"sample_index,score_{a},score_{b}"
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        scores = dual_pca(DENSE_SAMPLE, center=center, divisor="n-1",
                          rank=max(a, b)).score_vectors
        assert np.array_equal(table[:, 0], np.arange(4))
        assert np.array_equal(table[:, 1], scores[:, a - 1])
        assert np.array_equal(table[:, 2], scores[:, b - 1])

    @pytest.mark.parametrize("components", ["1", "1,2,3", "1,x", "0,1", "1,5"])
    def test_bad_components_exit_1(self, tmp_path, capsys, components):
        from spikescore.cli import cli_main

        out = tmp_path / "scatter.csv"
        argv = ["scatter", "--input", str(write_sample(tmp_path)), "--components", components,
                "--out", str(out)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
