"""Smoke test of the benchmark in perfbench/, which it reads and never edits.

It keeps a change to the package from silently breaking the benchmark: every
function the traced run wraps must still exist, the toy reconstruction graph
keeps the node count the benchmark's self-tests pin, and one training item
and the reconstruct and scoring warm-up items must still match their
recorded references.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cassi_ssm import cassi, demo, training, unfolding

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


@pytest.mark.parametrize("masked,nodes", [(False, 1848), (True, 1848 + 2 * 3)],
                         ids=["unmasked", "masked"])
def test_toy_reconstruct_tape_size(masked, nodes):
    # the masked graph adds a mask product and its constant at each of the 3 stages
    config = unfolding.UnfoldConfig(stages=3, net=workloads.toy_net(4), share_weights=True)
    weights = unfolding.init_weights(config, seed=23)
    op = cassi.SensingOperator(demo.toy_mask(16, 16, seed=22), 2, 4)
    y = cassi.forward_project(demo.toy_scene(16, 16, 4, seed=21), op)
    mask = training.generate_mask(16, 16, 0.5, 13) if masked else None
    out = unfolding.reconstruct_node(y, op, weights, config, feature_mask=mask)
    assert spans.count_tape_nodes(out) == nodes


def _check_one_item(name, tmp_path, key=None):
    reference = json.loads((BENCH / "reference.json").read_text())[name]
    wl = workloads.WORKLOADS[name](0, tmp_path, reference)
    wl.setup()
    key = wl.keys[0] if key is None else key
    inp = wl.make_input(key)
    assert wl.check(key, inp, wl.run(inp)) is None


def test_one_train_item_matches_reference(tmp_path):
    _check_one_item("train_toy16", tmp_path)


def test_recon_warmup_item_matches_reference(tmp_path):
    # 64x64x8 through the CLI: the long batch-1 cross-cube scans, end to end
    _check_one_item("recon_cli64", tmp_path, workloads.WARMUP)


def test_score_warmup_item_matches_reference(tmp_path):
    # 256x256x28 simulate, data step, save and eval: the scoring path, end to end
    _check_one_item("sense_score256", tmp_path, workloads.WARMUP)
