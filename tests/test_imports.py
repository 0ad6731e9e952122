"""kgs runs on numpy alone: no module imports scipy, and the package
declares numpy as its only runtime dependency."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_module_imports_scipy():
    modules = sorted(p.stem for p in (ROOT / "src" / "kgs").glob("*.py"))
    code = ("import importlib, sys\n"
            f"for m in {modules!r}:\n"
            "    importlib.import_module('kgs' if m == '__init__' else 'kgs.' + m)\n"
            "print(' '.join(sorted({name.split('.')[0] for name in sys.modules})))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "kgs" in out and "numpy" in out
    assert "scipy" not in out


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
