"""State-space primitive: ZOH discretization and the selective scan.

The continuous dynamics h'(t) = A h(t) + B x(t), y = C h + D x are run as a
discrete recurrence after zero-order-hold discretization.  A is diagonal
with negative entries, and B, C, Delta vary per token (input-dependent
selection), which is what makes the scan "selective".

`selective_scan` is differentiable end to end; `naive_scan_oracle` is the
literal reference loop it is verified against.  `discretize_zoh` and
`naive_scan_oracle` deliberately share no code with `ad.phi1` and
`selective_scan`: they are the independent oracle those are checked
against, so the ZOH formula is written twice on purpose.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

ZOH_SERIES_GUARD = 1e-8


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


def selective_scan(x, a, b, c, delta, d) -> "ad.Node":
    """Differentiable selective scan over scalar token sequences.

    Shapes (the leading batch axis holds independent channels and may be
    omitted): x [B,L]; a [B,N] continuous negative diagonal; b, c [B,L,N]
    per-token gains; delta [B,L] positive; d scalar or [B] skip gain.
    Returns y [B,L] with h_t = abar_t * h_{t-1} + bbar_t * x_t (h_0 = 0)
    and y_t = <c_t, h_t> + d * x_t.
    """
    x, a, b, c, delta = (ad.as_node(v) for v in (x, a, b, c, delta))
    d = ad.as_node(d)
    squeeze = x.value.ndim == 1
    if squeeze:
        x = ad.reshape(x, (1,) + x.shape)
        a = ad.reshape(a, (1,) + a.shape)
        b = ad.reshape(b, (1,) + b.shape)
        c = ad.reshape(c, (1,) + c.shape)
        delta = ad.reshape(delta, (1,) + delta.shape)
    nb, length = x.shape
    nstate = a.shape[-1]
    if b.shape != (nb, length, nstate) or c.shape != (nb, length, nstate):
        raise ValueError(
            f"per-token parameter shapes {b.shape}/{c.shape} do not match "
            f"x {x.shape} with state size {nstate}")
    if delta.shape != (nb, length):
        raise ValueError(f"delta shape {delta.shape} does not match x {x.shape}")

    delta_e = ad.repeat_expand(delta, 2, nstate)           # [B,L,N]
    a_e = ad.repeat_expand(a, 1, length)                   # [B,L,N]
    da = ad.mul(delta_e, a_e)
    abar = ad.exp(da)
    bbar = ad.mul(ad.phi1(da), ad.mul(delta_e, b))
    x_e = ad.repeat_expand(x, 2, nstate)
    y = ad.linear_scan(abar, ad.mul(bbar, x_e), c)
    if d.value.ndim == 0:
        y = ad.add(y, ad.mul(x, d))
    else:
        y = ad.add(y, ad.mul(x, ad.repeat_expand(d, 1, length)))
    if squeeze:
        y = ad.reshape(y, (length,))
    return y


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
