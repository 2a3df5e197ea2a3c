"""Command-line sweeps: stdout summary and progress lines on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import spikescore

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
