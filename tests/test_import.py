"""Importing the package stays light, and its public names resolve."""

import json
import re
import subprocess
import sys
from pathlib import Path

import spikescore


def test_import_leaves_heavy_scipy_modules_out():
    # scipy.optimize and scipy.stats each add a large share of the
    # package's import time; nothing in spikescore needs them.
    src = str(Path(spikescore.__file__).resolve().parents[1])
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); import spikescore; "
        "print(json.dumps([m for m in ('scipy.optimize', 'scipy.stats') "
        "if m in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


def test_import_leaves_scipy_linear_algebra_out():
    # dual_pca imports its eigensolver on first use; scipy.linalg alone is
    # about 60 ms of the package import.
    src = str(Path(spikescore.__file__).resolve().parents[1])
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); import spikescore; "
        "print(json.dumps([m for m in ('scipy.linalg', 'scipy.sparse.linalg') "
        "if m in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


# Names removed from the API: the d-space duplicates of the n-space
# diagnostics, the one-field wrapper that S (n x m) was kept in, and the
# n-space Gram and factor draws that the frame draw (frame_sample) replaced,
# among them the column-block Gram of the dense sample.
REMOVED = (
    "angle_to_population", "cross_spike_overlap", "tail_leakage", "eigenvalue_ratio",
    "spike_overlaps", "align_signs", "orthogonal_matrix", "population_score_matrix",
    "resolve_eigenvalues", "chi_square_cdf", "LatentScores", "wishart_gram", "wishart_factor",
    "sample_gram", "gram_pca", "sample_score_matrix", "ZeroMean", "ConstantMean",
)


def test_every_exported_name_resolves():
    assert len(set(spikescore.__all__)) == len(spikescore.__all__)
    for name in spikescore.__all__:
        assert getattr(spikescore, name) is not None, name
    assert not set(REMOVED) & set(spikescore.__all__)
    assert not [name for name in REMOVED if hasattr(spikescore, name)]


def test_package_version_is_the_project_version():
    # Read as text: tomllib is not in Python 3.10.
    pyproject = Path(spikescore.__file__).resolve().parents[2] / "pyproject.toml"
    versions = re.findall(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert versions == [spikescore.__version__]
