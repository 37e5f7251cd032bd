"""Tape-free inference: what it keeps alive, measured through the public API.

A CLI `reconstruct` keeps no tape, with or without glibc's heap pad.  Each
run is a fresh interpreter, which reports the peak RSS of its own address
space (`VmHWM`).  Its `ru_maxrss` would not do: Linux folds the peak of the
process that spawned it, here the test runner, into a child's `ru_maxrss`
at exec.  With the tape kept, one 64x64x8 item of this toy peaks at about
1 GB; tape-free it peaks at about 49 MB.  The second run makes
`ctypes.CDLL` refuse, as on a C library without `mallopt`: the pad is then
skipped, and the output must not change.

Tape-free, the selective-scan branch drops each [B,L,N] intermediate once
its last reader has run.  `tracemalloc` counts the peak of one call above
its inputs in [B,L,N] arrays: `ssm.selective_scan`, which builds the
per-token B and C itself, peaks at about 6.3 and `denoiser.spatial_ssm` on
a `frozen` view at about 6.6.  Their bounds, 7 and 8, lie below the 12.3
and 12.6 they peak at when `selective_scan` keeps every intermediate until
it returns.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cassi_ssm import autodiff as ad
from cassi_ssm import cassi, denoiser, fileio, ssm, training, unfolding
from cassi_ssm.demo import toy_mask, toy_scene
from cassi_ssm.denoiser import UNetConfig

ROOT = Path(__file__).resolve().parents[1]
PEAK_LIMIT_MB = 200

TOY8 = UNetConfig(bands=8, base_channels=8, levels=1, blocks_per_level=1, patch=4,
                  cube=(2, 2, 2), state_size=4, expansion=2)

RECONSTRUCT = """
import ctypes, json, sys
from cassi_ssm.cli import parse_and_dispatch
if sys.argv[1] == "refuse":
    def refuse(*args, **kwargs):
        raise OSError("no C library")
    ctypes.CDLL = refuse
code = parse_and_dispatch(sys.argv[2:])
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "peak_mb": kib / 1024}))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Exit code, peak MB and output bytes of one reconstruct per `mallopt` mode."""
    work = tmp_path_factory.mktemp("recon64")
    config = unfolding.UnfoldConfig(stages=3, net=TOY8, share_weights=True)
    weights = unfolding.init_weights(config, seed=23, zero_residual=False)
    fileio.save_weights(work / "model.csmw", weights, config,
                        feature_mask=training.generate_mask(64, 64, 0.5, 13))
    op = cassi.SensingOperator(toy_mask(64, 64, seed=22), 2, 8)
    fileio.save_cube(work / "mask.hsic", op.mask[None], kind=fileio.KIND_MASK)
    meas = cassi.forward_project(toy_scene(64, 64, 8, seed=2000), op)
    fileio.save_cube(work / "meas.hsic", meas[None], kind=fileio.KIND_MEASUREMENT)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    results = {}
    for mode in ("glibc", "refuse"):
        out = work / f"rec-{mode}.hsic"
        proc = subprocess.run(
            [sys.executable, "-c", RECONSTRUCT, mode, "reconstruct",
             "--meas", str(work / "meas.hsic"), "--mask", str(work / "mask.hsic"),
             "--weights", str(work / "model.csmw"), "--out", str(out)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        results[mode] = report["code"], report["peak_mb"], out.read_bytes()
    return results


@pytest.mark.parametrize("mode", ["glibc", "refuse"])
def test_reconstruct_builds_no_tape(runs, mode):
    code, peak_mb, _ = runs[mode]
    assert code == 0
    assert peak_mb < PEAK_LIMIT_MB


def test_output_does_not_depend_on_the_heap_pad(runs):
    assert runs["glibc"][2] == runs["refuse"][2]


def _peak_bytes(call):
    """Peak bytes `call()` allocates while it runs (its inputs exist before)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_selective_scan_drops_intermediates_once_read():
    # 1 MiB per [B,L,N] array; the call builds b and c itself, so they count too
    nb, length, nstate = 4, 4096, 8
    x = ad.constant(np.full((nb, length), 0.5))
    state = {g: ad.constant(np.full((nb, nstate), v))
             for g, v in (("a_log", 0.0), ("w_b", 0.3), ("b_b", 0.1), ("w_c", 0.2), ("b_c", 0.05))}
    channel = {g: ad.constant(np.full(nb, v)) for g, v in (("w_dt", 0.1), ("b_dt", -2.0), ("d", 1.0))}
    peak = _peak_bytes(lambda: ssm.selective_scan(x, **state, **channel))
    assert peak / (nb * length * nstate * 8) <= 7.0


def test_spatial_branch_drops_intermediates_once_read():
    net = UNetConfig(bands=8, base_channels=8, levels=1, blocks_per_level=1, patch=4,
                     cube=(2, 2, 2), state_size=8, expansion=2)
    weights = denoiser.ModelWeights.draw(denoiser.denoiser_layout("p", net),
                                         np.random.default_rng(0)).frozen()
    f = ad.constant(np.full((8, 64, 64), 0.25))

    def run():
        return denoiser.spatial_ssm(f, weights, "p/enc0/blk0/sp", net.patch)

    run()  # builds the cached scan orders
    # one [C,HW,N] array is 2 MiB
    assert _peak_bytes(run) / (f.value.nbytes * net.state_size) <= 8.0
