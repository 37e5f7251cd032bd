"""Smoke test of the benchmark in perfbench/, which it reads and never edits.

It keeps a change to the package from silently breaking the benchmark: every
function the traced run wraps must still exist, and one training item must
still match its recorded reference.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def test_every_traced_function_resolves():
    for module, function, _ in spans.TARGETS:
        target = getattr(importlib.import_module(f"cassi_ssm.{module}"), function, None)
        assert callable(target), f"cassi_ssm.{module}.{function} is gone"


def test_one_train_item_matches_reference(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())["train_toy16"]
    wl = workloads.WORKLOADS["train_toy16"](0, tmp_path, reference)
    wl.setup()
    key = wl.keys[0]
    inp = wl.make_input(key)
    assert wl.check(key, inp, wl.run(inp)) is None
