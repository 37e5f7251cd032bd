"""Test-only references the package is checked against.

Each reference here is a literal, independent statement of what a package
component must compute: the dense Phi matrix and the dense data-step
solve, the ZOH discretization with its naive recurrence and the exact
continuous response, the per-pixel spectral scan the cross-cube order is
compared with, central finite differences, and the windowed SSIM loop.
The package itself never calls them.  `total` is the tests' sum of a
tape value, which the package does not need either.

`discretize_zoh` and `naive_scan_oracle` deliberately share no code with
`autodiff.phi1` and `ssm.selective_scan`: they are the independent oracle
those are checked against, so the ZOH formula is written twice on purpose.
"""

from __future__ import annotations

import functools

import numpy as np

from cassi_ssm import cassi
from cassi_ssm.autodiff import (
    Array, Node, backward, constant, mean_all, parameter, scale)
from cassi_ssm.cassi import SensingOperator
from cassi_ssm.scans import ScanOrder, _finish

DENSE_ORACLE_LIMIT = 4096
ZOH_SERIES_GUARD = 1e-8
FD_EPS = 1e-6           # central-difference step of `finite_diff_check`


def build_dense_phi(op: SensingOperator) -> np.ndarray:
    """Explicit Phi matrix, [H*W', H*W*bands]; test oracle for the operator.

    Columns follow the band-major cube flattening b*H*W + r*W + x, rows the
    row-major measurement flattening r*W' + col.
    """
    n = op.height * op.width * op.bands
    if n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_ORACLE_LIMIT} unknowns, got {n}")
    h, w, wp, d = op.height, op.width, op.detector_width, op.shift_step
    phi = np.zeros((h * wp, n))
    for b in range(op.bands):
        for r in range(h):
            for x in range(w):
                phi[r * wp + d * b + x, b * h * w + r * w + x] = op.mask[r, x]
    return phi


def dense_oracle_data_step(z: np.ndarray, y: np.ndarray, op: cassi.SensingOperator,
                           mu: float) -> np.ndarray:
    """Ground truth for data_step: solve (Phi^T Phi + mu I) x = Phi^T y + mu z densely."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    phi = build_dense_phi(op)
    n = phi.shape[1]
    rhs = phi.T @ np.asarray(y, dtype=np.float64).ravel() + mu * np.asarray(z, dtype=np.float64).ravel()
    system = phi.T @ phi + mu * np.eye(n)
    x = np.linalg.solve(system, rhs)
    return x.reshape(op.bands, op.height, op.width)


def discretize_zoh(a, b, delta):
    """Zero-order-hold discretization, per element over broadcastable arrays.

    abar = exp(delta*a); bbar = (delta*a)^-1 (exp(delta*a) - 1) * delta*b,
    with the analytic limit delta*b used when |delta*a| < 1e-8.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if (delta <= 0).any():
        raise ValueError("delta must be positive")
    da = delta * a
    abar = np.exp(da)
    small = np.abs(da) < ZOH_SERIES_GUARD
    safe = np.where(small, 1.0, da)
    factor = np.where(small, 1.0, np.expm1(da) / safe)
    bbar = factor * delta * b
    return abar, bbar


def naive_scan_oracle(x, abar, bbar, c, d) -> np.ndarray:
    """Literal recurrence over explicit discrete per-token parameters.

    x [L], abar/bbar/c [L, N], d scalar.  No algebraic shortcuts; this is
    the ground truth selective_scan is checked against.
    """
    x = np.asarray(x, dtype=np.float64)
    abar = np.asarray(abar, dtype=np.float64)
    if x.ndim != 1 or abar.shape[0] != x.shape[0]:
        raise ValueError(f"sequence lengths disagree: x {x.shape}, abar {abar.shape}")
    length, nstate = abar.shape
    h = np.zeros(nstate)
    y = np.empty(length)
    for t in range(length):
        h = abar[t] * h + bbar[t] * x[t]
        y[t] = float(np.dot(c[t], h)) + d * x[t]
    return y


def continuous_response_check(a, b, c, d, u: float, delta: float, steps: int) -> float:
    """Max deviation between the ZOH trajectory and the exact continuous response.

    For a constant input u the ZOH discretization is exact, so the sampled
    outputs must match y(t_k) with h(t) = A^-1 (e^{At} - I) B u at
    t_k = k*delta, independent of delta.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    abar, bbar = discretize_zoh(a, b, delta)
    h = np.zeros_like(a)
    worst = 0.0
    for k in range(1, steps + 1):
        h = abar * h + bbar * u
        t = k * delta
        h_exact = (np.exp(a * t) - 1.0) / a * b * u
        y_disc = float(np.dot(c, h)) + d * u
        y_exact = float(np.dot(c, h_exact)) + d * u
        worst = max(worst, abs(y_disc - y_exact))
    return worst


@functools.cache
def spectral_scan_order(height: int, width: int, channels: int) -> ScanOrder:
    """Plain per-pixel spectral scan: full spectrum of each pixel in row-major order.

    Used as the locality baseline the cross-cube order is compared against.
    """
    desc = f"spectral:{height}x{width}x{channels}"
    plane = height * width
    pix = np.arange(plane, dtype=np.intp)
    fwd = (pix[:, None] + np.arange(channels, dtype=np.intp)[None, :] * plane).reshape(-1)
    return _finish(desc, fwd)


def finite_diff_check(f, theta: Array) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Node wrapping `theta` to a scalar Node.  Each coordinate is
    bumped by +-FD_EPS, and its error is |analytic - fd| / max(1, |analytic|).
    """
    theta = np.asarray(theta, dtype=np.float64)
    leaf = parameter(theta.copy())
    loss = f(leaf)
    if not np.isfinite(loss.value):
        raise ValueError("function value is not finite")
    backward(loss)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(theta)

    flat = theta.reshape(-1)
    worst = 0.0
    ana_flat = analytic.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += FD_EPS
        hi = float(f(constant(bumped.reshape(theta.shape))).value)
        bumped[i] -= 2 * FD_EPS
        lo = float(f(constant(bumped.reshape(theta.shape))).value)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("function value is not finite")
        fd = (hi - lo) / (2 * FD_EPS)
        err = abs(ana_flat[i] - fd) / max(1.0, abs(ana_flat[i]))
        worst = max(worst, err)
    return worst


def ssim_loop_oracle(a, b, data_range):
    """Literal windowed SSIM: explicit loops over every valid 11x11 window."""
    k, sigma = 11, 1.5
    ax = np.arange(k) - (k - 1) / 2.0
    g1 = np.exp(-0.5 * (ax / sigma) ** 2)
    win = np.outer(g1, g1)
    win /= win.sum()
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    h, w = a.shape
    vals = []
    for i in range(h - k + 1):
        for j in range(w - k + 1):
            wa = a[i:i + k, j:j + k]
            wb = b[i:i + k, j:j + k]
            mu_a = (win * wa).sum()
            mu_b = (win * wb).sum()
            var_a = (win * (wa - mu_a) ** 2).sum()
            var_b = (win * (wb - mu_b) ** 2).sum()
            cov = (win * (wa - mu_a) * (wb - mu_b)).sum()
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(vals))


def total(x: Node) -> Node:
    """Sum of every element as a tape scalar, with gradient exactly 1.0 per element.

    The scale's backward multiplies g by n, then the mean's divides it by n,
    and float(n) / n == 1 exactly.
    """
    return scale(mean_all(x), x.value.size)
