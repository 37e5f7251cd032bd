"""K-stage half-quadratic-splitting loop around the denoiser.

Each stage alternates a closed-form data-consistency step

    x_k = z_{k-1} + Phi^T [ (y - Phi z_{k-1}) ./ (mu_k + diag(Phi Phi^T)) ]

with a denoising prior step z_k = denoise(x_k, sigma_k).  The per-stage
penalty mu_k and noise level sigma_k come from learned scalars through a
softplus, so they stay strictly positive.  The loop is initialized by
shifting the measurement back and ends with a clamp to nonnegative
radiance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import cassi
from .denoiser import ModelWeights, UNetConfig, denoise, init_denoiser_weights

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

    The published variants use 3, 5 or 9 stages; any K >= 1 works, and K = 0
    is accepted as a degenerate passthrough configuration for testing.
    share_weights reuses one denoiser across stages (the parameter-matched
    default); otherwise each stage owns an independent copy.
    """

    stages: int
    net: UNetConfig
    share_weights: bool = True

    def __post_init__(self):
        if self.stages < 0:
            raise ValueError(f"stage count must be >= 0, got {self.stages}")

    def stage_prefix(self, k: int) -> str:
        return "shared" if self.share_weights else f"stage{k}"


def init_weights(config: UnfoldConfig, seed: int, zero_residual: bool = True) -> ModelWeights:
    """Deterministically initialize denoiser weights plus per-stage scalars."""
    rng = np.random.default_rng(seed)
    weights = ModelWeights()
    prefixes = ["shared"] if config.share_weights else [
        f"stage{k}" for k in range(config.stages)]
    for prefix in prefixes:
        init_denoiser_weights(weights, rng, prefix, config.net, zero_residual=zero_residual)
    for k in range(config.stages):
        for name, value in stage_scalars(k).items():
            weights.add(name, value)
    return weights


def data_step_node(z: "ad.Node", y: np.ndarray, op: cassi.SensingOperator, mu) -> "ad.Node":
    """Differentiable closed-form data step (gradients flow to z and mu)."""
    mu = ad.as_node(mu)
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
    return data_step_node(ad.constant(z), y, op, float(mu)).value


def dense_oracle_data_step(z: np.ndarray, y: np.ndarray, op: cassi.SensingOperator,
                           mu: float) -> np.ndarray:
    """Ground truth for data_step: solve (Phi^T Phi + mu I) x = Phi^T y + mu z densely."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    phi = cassi.build_dense_phi(op)
    n = phi.shape[1]
    rhs = phi.T @ np.asarray(y, dtype=np.float64).ravel() + mu * np.asarray(z, dtype=np.float64).ravel()
    system = phi.T @ phi + mu * np.eye(n)
    x = np.linalg.solve(system, rhs)
    return x.reshape(op.bands, op.height, op.width)


def reconstruct_node(y: np.ndarray, op: cassi.SensingOperator, weights: ModelWeights,
                     config: UnfoldConfig, feature_mask=None) -> "ad.Node":
    """Build the full unfolding graph; returns the clamped stage-K estimate."""
    op.check_measurement(np.asarray(y))
    z = cassi.shift_back_node(ad.constant(np.asarray(y, dtype=np.float64)), op)
    for k in range(config.stages):
        mu = ad.softplus(weights[f"est/alpha_raw{k}"])
        sigma = ad.softplus(weights[f"est/beta_raw{k}"])
        x = data_step_node(z, y, op, mu)
        z = denoise(x, sigma, op.mask, weights, config.net, config.stage_prefix(k),
                    feature_mask=feature_mask)
    return ad.relu(z)


def reconstruct(y: np.ndarray, op: cassi.SensingOperator, weights: ModelWeights,
                config: UnfoldConfig, feature_mask=None) -> np.ndarray:
    """Reconstruct a cube from one measurement (pure function of its inputs)."""
    return reconstruct_node(y, op, weights, config, feature_mask=feature_mask).value
