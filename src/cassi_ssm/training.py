"""Masked training: exact-count 0-1 feature masks and the gradient loop.

The mask multiplies the embedded feature of every stage's denoiser, turning
reconstruction into a partial-inpainting task.  One fixed mask (same seed)
is used for every step and again at evaluation.  The optimizer is plain
gradient descent with a cosine-decayed learning rate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import cassi
from .denoiser import ModelWeights
from .unfolding import UnfoldConfig, reconstruct_node


@dataclass(frozen=True)
class FeatureMask:
    """Spatial 0-1 mask with an exact number of zeros.

    values is [H, W] holding only 0.0 and 1.0; the zero count equals
    round(zero_ratio * H * W) by construction.
    """

    values: np.ndarray
    zero_ratio: float
    seed: int

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape

    def apply(self, feature: "ad.Node") -> "ad.Node":
        """Multiply every channel of a [C, H, W] feature by the mask."""
        feature = ad.as_node(feature)
        if feature.shape[1:] != self.values.shape:
            raise ValueError(
                f"mask shape {self.values.shape} does not match feature {feature.shape}")
        tiled = np.repeat(self.values[None], feature.shape[0], axis=0)
        return ad.mul(feature, ad.constant(tiled))

    def digest(self) -> str:
        payload = self.values.astype(np.uint8).tobytes()
        meta = f"ratio={self.zero_ratio!r};seed={self.seed}".encode()
        return hashlib.sha256(payload + meta).hexdigest()


def generate_mask(height: int, width: int, zero_ratio: float, seed: int) -> FeatureMask:
    """Place exactly round(zero_ratio * H * W) zeros by a seeded shuffle."""
    if not 0.0 <= zero_ratio < 1.0:
        raise ValueError(f"zero ratio must lie in [0, 1), got {zero_ratio}")
    n = height * width
    n_zero = int(round(zero_ratio * n))
    flat = np.ones(n)
    idx = np.random.default_rng(seed).permutation(n)
    flat[idx[:n_zero]] = 0.0
    return FeatureMask(flat.reshape(height, width), zero_ratio, seed)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the desk-scale training loop."""

    learning_rate: float = 1.0
    steps: int = 200
    zero_ratio: float = 0.5
    mask_seed: int = 0
    masked: bool = False
    noise_bits: int = 0
    noise_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.zero_ratio < 1.0:
            raise ValueError(f"zero ratio must lie in [0, 1), got {self.zero_ratio}")

    def lr_at(self, step: int) -> float:
        """Cosine decay from the base rate to zero over the configured steps."""
        if self.steps <= 1:
            return self.learning_rate
        return self.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / (self.steps - 1)))


@dataclass
class TrainState:
    """Loss trace plus the mask bookkeeping the invariants are checked on."""

    losses: list = field(default_factory=list)
    mask_digests: list = field(default_factory=list)


def _simulate(cube: np.ndarray, op: cassi.SensingOperator, cfg: TrainConfig,
              step: int) -> np.ndarray:
    y = cassi.forward_project(cube, op)
    if cfg.noise_bits > 0:
        y = cassi.add_shot_noise(y, cfg.noise_bits, cfg.noise_seed + step)
    return y


def train_step(batch, weights: ModelWeights, config: UnfoldConfig, cfg: TrainConfig,
               mask: FeatureMask | None = None, lr: float | None = None,
               step: int = 0) -> float:
    """One forward/backward/update pass; returns the (pre-update) loss.

    `batch` is a list of (cube, operator) pairs.  The loss is the mean
    squared error between the masked reconstruction and the ground-truth
    cube, averaged over the batch.  A zero learning rate leaves weights
    untouched.
    """
    if not batch:
        raise ValueError("empty batch")
    for node in weights.parameters():
        if not np.isfinite(node.value).all():
            raise FloatingPointError(f"non-finite weight tensor {node.name} at step {step}")
    weights.zero_grad()
    total = None
    for cube, op in batch:
        y = _simulate(np.asarray(cube, dtype=np.float64), op, cfg, step)
        recon = reconstruct_node(y, op, weights, config, feature_mask=mask)
        err = ad.sub(recon, ad.constant(cube))
        term = ad.mean_all(ad.mul(err, err))
        total = term if total is None else ad.add(total, term)
    loss = ad.scale(total, 1.0 / len(batch))
    if not np.isfinite(loss.value):
        raise FloatingPointError(f"non-finite loss at step {step}")
    ad.backward(loss)
    rate = cfg.lr_at(step) if lr is None else lr
    if rate != 0.0:
        for node in weights.parameters():
            if node.grad is not None:
                if not np.isfinite(node.grad).all():
                    raise FloatingPointError(f"non-finite gradient in {node.name} at step {step}")
                node.value = node.value - rate * node.grad
    return float(loss.value)


def train(batch, weights: ModelWeights, config: UnfoldConfig, cfg: TrainConfig) -> TrainState:
    """Full training loop with the documented cosine schedule.

    When masked mode is on, the same seeded mask is generated once and
    reused at every step (and should be reused at evaluation); its digest
    is recorded per step so that reuse is checkable.
    """
    state = TrainState()
    mask = None
    if cfg.masked:
        h, w = batch[0][1].mask.shape
        mask = generate_mask(h, w, cfg.zero_ratio, cfg.mask_seed)
    for step in range(cfg.steps):
        loss = train_step(batch, weights, config, cfg, mask=mask, step=step)
        state.losses.append(loss)
        if mask is not None:
            state.mask_digests.append(mask.digest())
    return state
