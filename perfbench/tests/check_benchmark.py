"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests/check_benchmark.py -q

The file name keeps these tests out of the package's own test suite; they
start traced benchmark runs of every workload and take about two minutes.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cassi_ssm import cassi, demo, unfolding  # noqa: E402

CATALOG = json.loads((BENCH / "catalog.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())
NAMES = [w["name"] for w in CATALOG["workloads"]]


def run_benchmark(workload, seed, trace, seconds=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    meta, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta), json.loads(result)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of one seed per workload, each with the fewest items."""
    return {name: [parse(run_benchmark(name, 5, 1)) for _ in range(2)] for name in NAMES}


def layer(result, name):
    return result["metrics"][name]["value"]


def evidence(metric):
    """The metric that shows whether a layer metric's function ran at all."""
    group, _, field = metric.rpartition(".")
    if field in ("s", "self_s") and group in spans.SPAN_NAMES:
        return f"{group}.calls"
    return metric


def test_benchmark_json_lists_what_the_runs_report():
    assert BENCHMARK["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in spans.metric_specs()]
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for row in CATALOG["interactions"]:
        assert set(row["layer_metrics"]) <= per_layer, row["row"]
        assert set(row["end_to_end"]) <= end_to_end, row["row"]
        assert set(row["moves_on"] + row["zero_on"]) <= set(NAMES), row["row"]


def test_every_run_is_correct(traced):
    for name, runs in traced.items():
        for meta, result in runs:
            assert result["correct"] and result["failed"] == 0, name
            assert meta["failed_ratio"]["value"] == 0.0
            assert set(result["metrics"]) == {n for n, _, _ in spans.metric_specs()}


def test_interaction_rows_are_covered(traced):
    """A layer metric's function runs on every workload where it should move,
    and not at all where the table says the workload bypasses it."""
    for row in CATALOG["interactions"]:
        for metric in row["layer_metrics"]:
            probe = evidence(metric)
            for name in row["moves_on"]:
                assert layer(traced[name][0][1], probe) > 0, (row["row"], metric, name)
            for name in row["zero_on"]:
                assert layer(traced[name][0][1], probe) == 0, (row["row"], metric, name)


def test_spans_nest_and_self_times_are_nonnegative(traced):
    for name, runs in traced.items():
        meta, result = runs[-1]
        with gzip.open(ROOT / meta["spans_file"], "rt") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert len(rows) == meta["spans"] > 0
        start = [float(r[1]) for r in rows]
        end = [float(r[2]) for r in rows]
        parent = [int(r[3]) for r in rows]
        item = [int(r[4]) for r in rows]
        child_s = [0.0] * len(rows)
        for i, p in enumerate(parent):
            assert start[i] <= end[i]
            if p >= 0:
                assert p < i and start[p] <= start[i] and end[i] <= end[p], (name, rows[i])
                assert item[p] == item[i]
                child_s[p] += end[i] - start[i]
        assert all(end[i] - start[i] - child_s[i] >= -1e-9 for i in range(len(rows)))
        for metric, _, _ in spans.metric_specs():
            if metric.endswith(".self_s"):
                assert layer(result, metric) >= 0, (name, metric)


def test_exact_counts_repeat(traced):
    counts = [c for c, _, _ in spans.COUNTERS] + ["scans.order.calls"]
    for name, (first, second) in traced.items():
        for c in counts:
            assert layer(first[1], c) == layer(second[1], c), (name, c)
    assert layer(traced["recon_cli64"][0][1], "autodiff.tape_nodes") > 1
    # the masked toy graph is the unmasked 1848 plus a mask product and its
    # constant at each of the 3 stages
    assert layer(traced["train_toy16"][0][1], "autodiff.tape_nodes") == 1848 + 2 * 3


def test_toy_reconstruct_graph_has_1848_nodes():
    config = unfolding.UnfoldConfig(stages=3, net=workloads.toy_net(4), share_weights=True)
    weights = unfolding.init_weights(config, seed=23)
    op = cassi.SensingOperator(demo.toy_mask(16, 16, seed=22), 2, 4)
    y = cassi.forward_project(demo.toy_scene(16, 16, 4, seed=21), op)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.item = 0
        unfolding.reconstruct_node(y, op, weights, config)
    finally:
        tracer.item = None
        tracer.uninstall()
    assert tracer.counts[(0, "autodiff.tape_nodes")] == 1848
    assert unfolding.reconstruct_node.__name__ == "reconstruct_node"
    assert not hasattr(unfolding.reconstruct_node, "__wrapped__")


def test_fingerprint_accepts_reordering_and_rejects_changes():
    rng = np.random.default_rng(1)
    cube = rng.random((3, 16, 16))
    ref = workloads.fingerprint(cube)
    assert workloads.fingerprint_mismatch(cube, ref) is None
    reordered = cube * (1.0 + 1e-14 * rng.standard_normal(cube.shape))
    assert workloads.fingerprint_mismatch(reordered, ref) is None
    bumped = cube.copy()
    bumped[1, 3, 4] *= 1.0 + 1e-6
    assert workloads.fingerprint_mismatch(bumped, ref) is not None
    assert workloads.fingerprint_mismatch(cube * (1.0 + 1e-8), ref) is not None


def test_perturbed_output_counts_as_failed(tmp_path):
    wl = workloads.TrainToy16(0, tmp_path, REFERENCE["train_toy16"])
    wl.setup()
    items = run._Items(wl)
    items.one(wl.keys[0])
    assert items.attempted == 1 and items.failures == []
    real_run = wl.run
    wl.run = lambda inp: real_run(inp) * (1.0 + 1e-7)
    items.one(wl.keys[1])
    assert items.attempted == 2 and len(items.failures) == 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(NAMES[0], 1, 0, seconds=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
