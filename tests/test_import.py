"""Importing the package stays light."""

import json
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
