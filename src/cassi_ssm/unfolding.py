"""K-stage half-quadratic-splitting loop around the denoiser.

Each stage alternates a closed-form data-consistency step

    x_k = z_{k-1} + Phi^T [ (y - Phi z_{k-1}) ./ (mu_k + diag(Phi Phi^T)) ]

with a denoising prior step z_k = denoise(x_k, sigma_k).  The per-stage
penalty mu_k and noise level sigma_k come from learned scalars through a
softplus, so they stay strictly positive.  The loop is initialized by
shifting the measurement back and ends with a clamp to nonnegative
radiance.

`reconstruct_node` builds that loop on the tape, through every weight, and
is the path training differentiates.  `reconstruct` runs the same graph on
the weights' `frozen` view, so inference builds no tape: an intermediate is
freed once nothing reads it.  The selective-scan branch, whose [B,L,N]
arrays dominate, runs as one array kernel that holds at most three of them
(see `ssm`), so a default-profile reconstruct (K=3, 28 bands) peaks at 55,
100 and 277 MB at 32, 64 and 128 square (`VmHWM`, `experiments/cost.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import cassi
from .checks import integer, switch
from .denoiser import ModelWeights, UNetConfig, denoise, denoiser_layout, fill

# raw scalars that give mu = 1.0 and sigma = 0.1 through the softplus
ALPHA_RAW_INIT = float(np.log(np.expm1(1.0)))
BETA_RAW_INIT = float(np.log(np.expm1(0.1)))


def stage_scalars(k: int) -> dict:
    """Names of stage k's raw (mu, sigma) scalars, each at its documented init."""
    return {f"est/alpha_raw{k}": np.asarray(ALPHA_RAW_INIT),
            f"est/beta_raw{k}": np.asarray(BETA_RAW_INIT)}


@dataclass(frozen=True)
class UnfoldConfig:
    """Stage count and denoiser profile.

    The published variants use 3, 5 or 9 stages; any K >= 1 works.
    share_weights reuses one denoiser across stages (the parameter-matched
    default); otherwise each stage owns an independent copy.
    """

    stages: int
    net: UNetConfig
    share_weights: bool = True

    def __post_init__(self):
        object.__setattr__(self, "stages", integer(self.stages, "stage count", 1))
        object.__setattr__(self, "share_weights", switch(self.share_weights, "share_weights"))

    def stage_prefix(self, k: int) -> str:
        return "shared" if self.share_weights else f"stage{k}"


def tensor_layout(config: UnfoldConfig, zero_residual: bool = True):
    """Every tensor of the model as (name, shape, init rule), in draw order: the
    denoiser under each distinct stage prefix, then each stage's scalars.  The walk
    is lazy and makes no array, whatever the profile."""
    for k in range(1 if config.share_weights else config.stages):
        yield from denoiser_layout(config.stage_prefix(k), config.net, zero_residual)
    for k in range(config.stages):
        for name, value in stage_scalars(k).items():
            yield name, value.shape, fill(value)


def init_weights(config: UnfoldConfig, seed: int, zero_residual: bool = True) -> ModelWeights:
    """Deterministically initialize denoiser weights plus per-stage scalars."""
    rng = np.random.default_rng(integer(seed, "seed"))
    return ModelWeights.draw(tensor_layout(config, zero_residual), rng)


def load_model(config: UnfoldConfig, arrays: dict, stages=None) -> tuple[ModelWeights, UnfoldConfig]:
    """A checkpoint's model, whose tensors must be exactly those its own profile's
    `tensor_layout` names, so a file that misstates its stage count is refused.  Given
    `stages`, a shared-weights model is then re-staged: a tensor the file holds keeps its
    array, and an added stage's scalars come from their init rule, which reads no rng.
    """
    stages = config.stages if stages is None else integer(stages, "stage count", 1)
    weights = ModelWeights.from_arrays(tensor_layout(config), arrays)
    if stages == config.stages:
        return weights, config
    if not config.share_weights:
        raise ValueError("--stages can only override shared-weights models")
    config = replace(config, stages=stages)
    restaged = {name: arrays[name] if name in arrays else init(None, shape)
                for name, shape, init in tensor_layout(config)}
    return ModelWeights.from_arrays(tensor_layout(config), restaged), config


def data_step_node(z: "ad.Node", y: np.ndarray, op: cassi.SensingOperator, mu: "ad.Node") -> "ad.Node":
    """Differentiable closed-form data step (gradients flow to z and mu)."""
    if mu.value.ndim != 0:
        raise ValueError(f"mu must be scalar, got shape {mu.value.shape}")
    if not (mu.value > 0):
        raise ValueError(f"mu must be positive, got {float(mu.value)}")
    y_node = ad.constant(np.asarray(y, dtype=np.float64))
    residual = ad.sub(y_node, cassi.forward_project_node(z, op))
    denom = ad.add(ad.constant(cassi.phi_diag(op)), mu)
    correction = cassi.adjoint_project_node(ad.div(residual, denom), op)
    return ad.add(z, correction)


def data_step(z: np.ndarray, y: np.ndarray, op: cassi.SensingOperator, mu: float) -> np.ndarray:
    """Closed-form data step on plain arrays."""
    return data_step_node(ad.constant(z), y, op, ad.constant(float(mu))).value


def reconstruct_node(y: np.ndarray, op: cassi.SensingOperator, weights: ModelWeights,
                     config: UnfoldConfig, feature_mask=None) -> "ad.Node":
    """Build the full unfolding graph; returns the clamped stage-K estimate."""
    z = ad.constant(cassi.shift_back(y, op))
    for k in range(config.stages):
        alpha, beta = stage_scalars(k)
        mu = ad.softplus(weights[alpha])
        if not mu.value > 0:
            raise FloatingPointError(f"stage {k} penalty mu underflowed to 0")
        sigma = ad.softplus(weights[beta])
        x = data_step_node(z, y, op, mu)
        z = denoise(x, sigma, op.mask, weights, config.net, config.stage_prefix(k),
                    feature_mask=feature_mask)
    return ad.relu(z)


def reconstruct(y: np.ndarray, op: cassi.SensingOperator, weights: ModelWeights,
                config: UnfoldConfig, feature_mask=None) -> np.ndarray:
    """Reconstruct a cube from one measurement (pure function of its inputs).

    The result equals `reconstruct_node(...).value` bit for bit; no gradient
    reaches `weights`.
    """
    return reconstruct_node(y, op, weights.frozen(), config, feature_mask=feature_mask).value
