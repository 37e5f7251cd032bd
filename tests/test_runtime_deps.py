"""The package runs on numpy alone.

Every module of `cassi_ssm` is imported in a fresh interpreter, which must
then hold no `scipy` module, and `pyproject.toml` must name numpy as the
only runtime dependency.  Either check fails if scipy comes back.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import cassi_ssm
names = [f"cassi_ssm.{m.name}" for m in pkgutil.iter_modules(cassi_ssm.__path__)]
for name in names:
    importlib.import_module(name)
print(json.dumps({"imported": names,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_module_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert {"cassi_ssm.autodiff", "cassi_ssm.cli"} <= set(report["imported"])
    assert report["scipy"] == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")     # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]]
    assert names == ["numpy"]
