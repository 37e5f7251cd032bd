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
from .checks import integer, switch
from .denoiser import ModelWeights
from .unfolding import UnfoldConfig, reconstruct_node


@dataclass(frozen=True)
class FeatureMask:
    """Spatial 0-1 mask with an exact number of zeros.

    values is [H, W] holding only 0.0 and 1.0, the zero count equals
    round(zero_ratio * H * W), and seed lies in [0, 2**64); construction
    refuses anything else.
    """

    values: np.ndarray
    zero_ratio: float
    seed: int

    def __post_init__(self):
        ratio = zero_ratio(self.zero_ratio)
        object.__setattr__(self, "zero_ratio", ratio)
        object.__setattr__(self, "seed", feature_mask_seed(self.seed))
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"feature mask must be [H, W], got shape {v.shape}")
        if not ((v == 0.0) | (v == 1.0)).all():
            raise ValueError("feature mask values must all be 0 or 1")
        zeros, want = int(np.count_nonzero(v == 0.0)), int(round(ratio * v.size))
        if zeros != want:
            raise ValueError(
                f"feature mask has {zeros} zeros, but zero ratio {ratio} of {v.size} "
                f"positions needs {want}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def apply(self, feature: "ad.Node") -> "ad.Node":
        """Multiply every channel of a [C, H, W] feature by the mask."""
        if feature.shape[1:] != self.values.shape:
            raise ValueError(
                f"mask shape {self.values.shape} does not match feature {feature.shape}")
        tiled = np.repeat(self.values[None], feature.shape[0], axis=0)
        return ad.mul(feature, ad.constant(tiled))

    def digest(self) -> str:
        payload = self.values.astype(np.uint8).tobytes()
        meta = f"ratio={self.zero_ratio!r};seed={self.seed}".encode()
        return hashlib.sha256(payload + meta).hexdigest()


def generate_mask(height: int, width: int, ratio: float, seed: int) -> FeatureMask:
    """Place exactly round(ratio * H * W) zeros by a seeded shuffle."""
    height, width = integer(height, "mask height", 1), integer(width, "mask width", 1)
    n = height * width
    n_zero = int(round(zero_ratio(ratio) * n))
    flat = np.ones(n)
    idx = np.random.default_rng(feature_mask_seed(seed)).permutation(n)
    flat[idx[:n_zero]] = 0.0
    return FeatureMask(flat.reshape(height, width), ratio, seed)


def _number(value, what: str) -> float:
    """`value` as a float; a bool, or text that is not a number, is refused."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def zero_ratio(value) -> float:
    """A feature-mask zero ratio as a float in [0, 1)."""
    ratio = _number(value, "zero ratio")
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"zero ratio must lie in [0, 1), got {value}")
    return ratio


def learning_rate(value) -> float:
    """A base learning rate as a finite float >= 0; 0 leaves the weights untouched."""
    rate = _number(value, "learning rate")
    if not (np.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"learning rate must be finite and >= 0, got {value}")
    return rate


def feature_mask_seed(value) -> int:
    """A feature-mask seed as an int; CSMW files store seeds in [0, 2**64)."""
    return integer(value, "feature-mask seed", 0, 2 ** 64 - 1)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the desk-scale training loop."""

    learning_rate: float = 0.02
    steps: int = 200
    zero_ratio: float = 0.5
    mask_seed: int = 0
    masked: bool = False
    noise_bits: int = 0
    noise_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "learning_rate", learning_rate(self.learning_rate))
        object.__setattr__(self, "steps", integer(self.steps, "steps", 1))
        object.__setattr__(self, "zero_ratio", zero_ratio(self.zero_ratio))
        object.__setattr__(self, "mask_seed", feature_mask_seed(self.mask_seed))
        object.__setattr__(self, "masked", switch(self.masked, "masked"))
        object.__setattr__(self, "noise_bits", cassi.noise_bits(self.noise_bits))
        object.__setattr__(self, "noise_seed", integer(self.noise_seed, "noise seed"))

    def lr_at(self, step: int) -> float:
        """Cosine decay from the base rate to zero over the configured steps."""
        if self.steps <= 1:
            return self.learning_rate
        return self.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / (self.steps - 1)))


@dataclass
class TrainState:
    """Loss trace plus `mask`, the feature mask every step used (None when unmasked)."""

    losses: list = field(default_factory=list)
    mask: FeatureMask | None = None


def train_step(batch, weights: ModelWeights, config: UnfoldConfig, cfg: TrainConfig,
               mask: FeatureMask | None = None, lr: float | None = None,
               step: int = 0) -> float:
    """One forward/backward/update pass; returns the (pre-update) loss.

    `batch` is a list of (cube, operator) pairs.  The loss is the mean squared
    error between the masked reconstruction and the ground-truth cube,
    averaged over the batch.  Each scene's tape is swept and dropped before
    the next is built, so a batch peaks like one scene (default profile,
    32x32x28: 1.2 GB at K=1, 3.5 GB at K=3).  `lr` follows the learning-rate
    rule (0 leaves weights untouched) and `step` lies in [0, cfg.steps - 1],
    both checked first.  A diverging step raises FloatingPointError naming the
    step: an overflow, invalid value or division by zero anywhere in it, a
    stage penalty mu that underflows to 0, or a non-finite loss or gradient.
    """
    if not batch:
        raise ValueError("empty batch")
    step = integer(step, "step", 0, cfg.steps - 1)
    rate = cfg.lr_at(step) if lr is None else learning_rate(lr)
    for name, node in weights.items():
        if not np.isfinite(node.value).all():
            raise FloatingPointError(f"non-finite weight tensor {name} at step {step}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            weights.zero_grad()
            loss = 0.0
            for cube, op in batch:
                y = cassi.add_shot_noise(cassi.forward_project(cube, op), cfg.noise_bits,
                                         cfg.noise_seed + step)
                recon = reconstruct_node(y, op, weights, config, feature_mask=mask)
                err = ad.sub(recon, ad.constant(cube))
                term = ad.mean_all(ad.mul(err, err))
                if not np.isfinite(term.value):
                    raise FloatingPointError("non-finite loss")
                ad.backward(ad.scale(term, 1.0 / len(batch)))
                loss += float(term.value)
                del recon, err, term  # the next scene is built without this tape
            if rate != 0.0:
                for name, node in weights.items():
                    if node.grad is None:
                        continue
                    if not np.isfinite(node.grad).all():
                        raise FloatingPointError(f"non-finite gradient in {name}")
                    node.value = node.value - rate * node.grad
    except FloatingPointError as exc:
        raise FloatingPointError(f"training diverged at step {step}: {exc}") from exc
    return loss * (1.0 / len(batch))


def train(batch, weights: ModelWeights, config: UnfoldConfig, cfg: TrainConfig) -> TrainState:
    """Full training loop with the documented cosine schedule.

    When masked mode is on, the same seeded mask is generated once and
    passed to every step (and should be reused at evaluation).
    """
    if not batch:
        raise ValueError("empty batch")
    state = TrainState()
    if cfg.masked:
        h, w = batch[0][1].mask.shape
        state.mask = generate_mask(h, w, cfg.zero_ratio, cfg.mask_seed)
    for step in range(cfg.steps):
        loss = train_step(batch, weights, config, cfg, mask=state.mask, step=step)
        state.losses.append(loss)
    return state
