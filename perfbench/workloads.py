"""The benchmark's workloads: inputs, set-up, one timed item, and its check.

Each workload is a closed loop with one client in one process: the next item
starts only after the previous one has finished.  Inputs come from
`demo.toy_scene` and `demo.toy_mask` and depend only on the workload seed.
The seed picks a seeded permutation of a pool of inputs, and every item's
output is compared with the one `record.py` recorded for its input.  A
`recon_cli64` or `sense_score256` input is one scene; a `train_toy16` input
is an episode of training steps on distinct scenes.

Outputs are compared through per-band fingerprints with relative tolerance
`RTOL`: the oracle tests hold the numerics to 1e-12..1e-9, and a reordered
floating-point sum moves a result by about 1e-15.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from cassi_ssm import cassi, cli, demo, fileio, metrics, training, unfolding
from cassi_ssm.denoiser import UNetConfig

RTOL = 1e-9
EVAL_TOL = 0.5e-6 + 1e-9     # half a unit in the last digit `eval` prints
WARMUP = "warmup"            # input key of the warm-up item

# pool sizes, and the most items one run takes from its pool
TRAIN_POOL = 64              # episodes
EPISODE_STEPS = 8
TRAIN_ITEMS = 320
RECON_POOL = 96
RECON_ITEMS = 48
SENSE_POOL = 32
SENSE_ITEMS = 16


def _sums(x, w):
    """Per-band [sum, sum of squares, weighted sum] of a [bands, n] array."""
    return np.stack([x.sum(axis=1), (x * x).sum(axis=1), x @ w], axis=1)


def _bands_and_weights(cube):
    x = np.asarray(cube, dtype=np.float64).reshape(cube.shape[0], -1)
    return x, np.random.default_rng(0).standard_normal(x.shape[1])


def fingerprint(cube):
    """Per-band [sum, sum of squares, sum weighted by fixed random weights]."""
    return _sums(*_bands_and_weights(cube))


def fingerprint_mismatch(cube, reference) -> str | None:
    """Why `cube` does not match a recorded fingerprint, or None when it does.

    Each entry may differ by RTOL times the size of what it sums: the band's
    L1 norm for the plain and weighted sums, the sum itself for the squares.
    """
    ref = np.asarray(reference, dtype=np.float64)
    x, w = _bands_and_weights(cube)
    got = _sums(x, w)
    if got.shape != ref.shape:
        return f"fingerprint shape {got.shape} != {ref.shape}"
    err = np.abs(got - ref)
    scale = _sums(np.abs(x), np.abs(w))
    if not np.all(err <= RTOL * scale):
        worst = float(np.max(err / np.maximum(scale, 1e-300)))
        return f"output differs from reference by {worst:.3g} (relative, limit {RTOL:g})"
    return None


def toy_net(bands: int) -> UNetConfig:
    """The acceptance-08 toy net: base 8, one level, patch 4, 2x2x2 cubes, N=4."""
    return UNetConfig(bands=bands, base_channels=8, levels=1, blocks_per_level=1,
                      patch=4, cube=(2, 2, 2), state_size=4, expansion=2)


def _quiet_cli(argv) -> str:
    """Run one CLI command, returning what it prints; a non-zero exit raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.parse_and_dispatch([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"cli {argv[0]} exited with {code}")
    return out.getvalue()


class Workload:
    """Base class; `keys` are the input keys of the timed items, in order."""

    name = ""
    voxels = 0               # cube voxels an item trains on, reconstructs or scores

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.reference = reference
        self.keys = self.item_keys()

    def item_keys(self):
        raise NotImplementedError

    def setup(self):
        """Everything a user pays before the first item, except the warm-up item."""

    def make_input(self, key):
        """Generate the input of one item; not timed."""
        raise NotImplementedError

    def run(self, inp):
        """One timed item; returns its output."""
        raise NotImplementedError

    def output_record(self, key, inp, out):
        """The reference entry `record.py` stores for this output."""
        raise NotImplementedError

    def check(self, key, inp, out) -> str | None:
        """Why the output fails its check, or None when it passes."""
        raise NotImplementedError

    def live_check(self, key, inp, out) -> str | None:
        """A costlier check against the program itself, run on the warm-up item."""
        return None


class TrainToy16(Workload):
    """One masked training step of the acceptance-08 toy per item.

    Items run in episodes of `EPISODE_STEPS` steps that start from the
    initial weights and follow the first steps of the acceptance-08
    schedule.  Training here amplifies a rounding difference about four
    times per step; after 8 steps a 1e-15 change has grown to about 1e-12,
    which RTOL still separates from a real change.
    """

    name = "train_toy16"
    voxels = 16 * 16 * 4

    def item_keys(self):
        episodes = np.random.default_rng(self.seed).permutation(TRAIN_POOL)
        return [(int(e), k) for e in episodes[:TRAIN_ITEMS // EPISODE_STEPS]
                for k in range(EPISODE_STEPS)]

    def setup(self):
        self.config = unfolding.UnfoldConfig(stages=3, net=toy_net(4), share_weights=True)
        self.weights = unfolding.init_weights(self.config, seed=23)
        self.initial = {k: v.copy() for k, v in self.weights.arrays().items()}
        self.op = cassi.SensingOperator(demo.toy_mask(16, 16, seed=22), 2, 4)
        self.train_cfg = training.TrainConfig(
            learning_rate=0.02, steps=500, masked=True, zero_ratio=0.5,
            mask_seed=13, noise_bits=11, noise_seed=0)
        self.mask = training.generate_mask(16, 16, 0.5, 13)

    def make_input(self, key):
        episode, step = (TRAIN_POOL, 0) if key == WARMUP else key
        if step == 0:
            self.weights.load_arrays(self.initial)
        scene = demo.toy_scene(16, 16, 4, seed=1000 + EPISODE_STEPS * episode + step)
        return key, step, scene

    def run(self, inp):
        key, step, scene = inp
        # the warm-up step runs forward and backward but leaves the weights alone
        lr = 0.0 if key == WARMUP else None
        return training.train_step([(scene, self.op)], self.weights, self.config,
                                   self.train_cfg, mask=self.mask, lr=lr, step=step)

    def output_record(self, key, inp, out):
        return out

    def check(self, key, inp, out):
        if not math.isfinite(out):
            return f"loss {out!r} is not finite"
        if self.mask.digest() != self.reference["mask_digest"]:
            return "feature mask digest changed"
        ref = self.reference[WARMUP] if key == WARMUP else self.reference["pool"][key[0]][key[1]]
        if abs(out - ref) > RTOL * abs(ref):
            return f"loss {out!r} != reference {ref!r} at episode {key[0]} step {key[1]}"
        return None


class ReconCli64(Workload):
    """One CLI `reconstruct` of a 64x64x8 measurement per item."""

    name = "recon_cli64"
    voxels = 64 * 64 * 8

    def item_keys(self):
        return [int(k) for k in np.random.default_rng(self.seed).permutation(RECON_POOL)
                [:RECON_ITEMS]]

    def setup(self):
        config = unfolding.UnfoldConfig(stages=3, net=toy_net(8), share_weights=True)
        weights = unfolding.init_weights(config, seed=23, zero_residual=False)
        feature_mask = training.generate_mask(64, 64, 0.5, 13)
        self.mask = demo.toy_mask(64, 64, seed=22)
        self.op = cassi.SensingOperator(self.mask, 2, 8)
        self.mask_path = self.workdir / "mask64.hsic"
        self.model_path = self.workdir / "model.csmw"
        self.out_path = self.workdir / "recon.hsic"
        fileio.save_cube(self.mask_path, self.mask[None], kind=fileio.KIND_MASK)
        fileio.save_weights(self.model_path, weights, config, feature_mask=feature_mask)

    def make_input(self, key):
        index = RECON_POOL if key == WARMUP else key
        scene = demo.toy_scene(64, 64, 8, seed=2000 + index)
        meas = cassi.add_shot_noise(cassi.forward_project(scene, self.op), 11, index)
        path = self.workdir / "meas64.hsic"
        fileio.save_cube(path, meas[None], kind=fileio.KIND_MEASUREMENT)
        return path

    def run(self, inp):
        _quiet_cli(["reconstruct", "--meas", inp, "--mask", self.mask_path,
                    "--weights", self.model_path, "--out", self.out_path])
        return self.out_path

    def output_record(self, key, inp, out):
        return fingerprint(fileio.load_cube(out)[0]).tolist()

    def check(self, key, inp, out):
        out = fileio.load_cube(out, expect_kind=fileio.KIND_CUBE)[0]
        if out.shape != (8, 64, 64):
            return f"output shape {out.shape} != (8, 64, 64)"
        if not np.isfinite(out).all():
            return "output is not finite"
        if (out < 0).any():
            return "output has negative voxels"
        ref = self.reference[WARMUP] if key == WARMUP else self.reference["pool"][key]
        return fingerprint_mismatch(out, ref)


class SenseScore256(Workload):
    """Simulate, shift back, one data step, save and score a 256x256x28 scene."""

    name = "sense_score256"
    voxels = 256 * 256 * 28

    def item_keys(self):
        return [int(k) for k in np.random.default_rng(self.seed).permutation(SENSE_POOL)
                [:SENSE_ITEMS]]

    def setup(self):
        self.mask = demo.toy_mask(256, 256, seed=22)
        self.op = cassi.SensingOperator(self.mask, 2, 28)
        self.mask_path = self.workdir / "mask256.hsic"
        self.scene_path = self.workdir / "scene256.hsic"
        self.meas_path = self.workdir / "meas256.hsic"
        self.out_path = self.workdir / "datastep256.hsic"
        fileio.save_cube(self.mask_path, self.mask[None], kind=fileio.KIND_MASK)

    def make_input(self, key):
        index = SENSE_POOL if key == WARMUP else key
        fileio.save_cube(self.scene_path, demo.toy_scene(256, 256, 28, seed=3000 + index))
        return index

    def run(self, inp):
        _quiet_cli(["simulate", "--cube", self.scene_path, "--mask", self.mask_path,
                    "--d", 2, "--noise-bits", 11, "--seed", inp, "--out", self.meas_path])
        meas = fileio.load_cube(self.meas_path, expect_kind=fileio.KIND_MEASUREMENT)[0][0]
        x = unfolding.data_step(cassi.shift_back(meas, self.op), meas, self.op, 1.0)
        fileio.save_cube(self.out_path, x)
        printed = _quiet_cli(["eval", "--ref", self.scene_path, "--test", self.out_path])
        scores = dict(line.split("=", 1) for line in printed.split())
        return x, float(scores["psnr_mean"]), float(scores["ssim_mean"])

    def evaluate_in_process(self):
        """metrics.evaluate on the files `eval` read in the last item."""
        ref = fileio.load_cube(self.scene_path)[0]
        test = fileio.load_cube(self.out_path)[0]
        report = metrics.evaluate(ref, test)
        return report.psnr_mean, report.ssim_mean

    def live_check(self, key, inp, out):
        _, psnr_mean, ssim_mean = out
        live = self.evaluate_in_process()
        if abs(psnr_mean - live[0]) > EVAL_TOL or abs(ssim_mean - live[1]) > EVAL_TOL:
            return f"eval printed {psnr_mean}/{ssim_mean}, metrics.evaluate gives {live}"
        return None

    def output_record(self, key, inp, out):
        x, _, _ = out
        psnr_mean, ssim_mean = self.evaluate_in_process()
        return {"x": fingerprint(x).tolist(), "psnr_mean": psnr_mean, "ssim_mean": ssim_mean}

    def check(self, key, inp, out):
        x, psnr_mean, ssim_mean = out
        ref = self.reference[WARMUP] if key == WARMUP else self.reference["pool"][key]
        if abs(psnr_mean - ref["psnr_mean"]) > EVAL_TOL:
            return f"eval psnr_mean {psnr_mean} != {ref['psnr_mean']}"
        if abs(ssim_mean - ref["ssim_mean"]) > EVAL_TOL:
            return f"eval ssim_mean {ssim_mean} != {ref['ssim_mean']}"
        return fingerprint_mismatch(x, ref["x"])


WORKLOADS = {cls.name: cls for cls in (TrainToy16, ReconCli64, SenseScore256)}
