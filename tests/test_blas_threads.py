"""The model keeps OpenBLAS on one thread, and its results do not depend on the thread count.

Each convolution tap is one small GEMM per output row.  A whole-plane GEMM
(im2col, or one product per tap over a flattened plane) is large enough at
64x64 that OpenBLAS splits it over a second thread; with
`OPENBLAS_NUM_THREADS=2` that worker then spins between calls, and the
process burns about twice its wall time in CPU time.  Each run here is a
fresh interpreter with two BLAS threads allowed: one toy8 64x64x8 K=3
reconstruct and one toy 16x16x4 training step must take at most 1.3x their
wall time in CPU time.  Load on the machine only raises wall time, so it
cannot fail this bound.  The same runs under one and two threads must give
the same bits: the convolutions with all three gradients, the reconstruct
and the loss.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CPU_OVER_WALL_LIMIT = 1.3

RUN = """
import hashlib, json, resource, time
import numpy as np
from cassi_ssm import autodiff as ad, cassi, training, unfolding
from cassi_ssm.demo import toy_mask, toy_scene
from cassi_ssm.denoiser import UNetConfig


def toy(bands):
    return UNetConfig(bands=bands, base_channels=8, levels=1, blocks_per_level=1, patch=4,
                      cube=(2, 2, 2), state_size=4, expansion=2)


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


digests = {}
rng = np.random.default_rng(0)
for stride in (1, 2):
    nodes = [ad.parameter(rng.normal(size=shape)) for shape in ((32, 64, 64), (32, 32, 3, 3), (32,))]
    out = ad.conv2d(*nodes, stride=stride)
    ad.backward(ad.mean_all(ad.mul(out, ad.constant(rng.normal(size=out.shape)))))
    for name, value in zip(("out", "x", "w", "bias"), [out.value] + [n.grad for n in nodes]):
        digests[f"conv2d stride {stride} {name}"] = hashlib.sha256(value.tobytes()).hexdigest()

config = unfolding.UnfoldConfig(stages=3, net=toy(8), share_weights=True)
weights = unfolding.init_weights(config, seed=23, zero_residual=False)
op = cassi.SensingOperator(toy_mask(64, 64, seed=22), 2, 8)
y = cassi.forward_project(toy_scene(64, 64, 8, seed=0), op)
config16 = unfolding.UnfoldConfig(stages=3, net=toy(4), share_weights=True)
weights16 = unfolding.init_weights(config16, seed=23)
batch = [(toy_scene(16, 16, 4, seed=21), cassi.SensingOperator(toy_mask(16, 16, seed=22), 2, 4))]
train_cfg = training.TrainConfig(steps=1, masked=True, mask_seed=13)

cpu, wall = cpu_seconds(), time.perf_counter()
recon = unfolding.reconstruct(y, op, weights, config)
loss = training.train(batch, weights16, config16, train_cfg).losses[0]
cpu, wall = cpu_seconds() - cpu, time.perf_counter() - wall
digests["reconstruct"] = hashlib.sha256(recon.tobytes()).hexdigest()
digests["loss"] = repr(loss)
print(json.dumps({"cpu": cpu, "wall": wall, "digests": digests}))
"""


def run(threads: str) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RUN], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_model_stays_on_one_blas_thread_with_the_same_bits():
    two = run("2")
    assert two["cpu"] <= CPU_OVER_WALL_LIMIT * two["wall"], two
    assert run("1")["digests"] == two["digests"]
