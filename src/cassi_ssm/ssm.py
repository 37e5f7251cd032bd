"""State-space primitive: the selective scan.

The continuous dynamics h'(t) = A h(t) + B x(t), y = C h + D x are run as a
discrete recurrence after zero-order-hold discretization.  A is diagonal
with negative entries, and B, C, Delta vary per token (input-dependent
selection), which is what makes the scan "selective".

`selective_scan` is differentiable end to end.
"""

from __future__ import annotations

from . import autodiff as ad


def selective_scan(x, a, b, c, delta, d) -> "ad.Node":
    """Differentiable selective scan over batches of scalar token sequences.

    All six inputs are Nodes.  Shapes (the batch axis holds independent
    channels): x [B,L]; a [B,N] continuous negative diagonal; b, c [B,L,N]
    per-token gains; delta [B,L] positive; d [B] skip gain.  Returns y
    [B,L] with h_t = abar_t * h_{t-1} + bbar_t * x_t (h_0 = 0) and
    y_t = <c_t, h_t> + d * x_t.
    """
    if x.value.ndim != 2:
        raise ValueError(f"x must be a [B,L] batch of sequences, got shape {x.shape}")
    nb, length = x.shape
    nstate = a.shape[-1]
    if b.shape != (nb, length, nstate) or c.shape != (nb, length, nstate):
        raise ValueError(
            f"per-token parameter shapes {b.shape}/{c.shape} do not match "
            f"x {x.shape} with state size {nstate}")
    if delta.shape != (nb, length):
        raise ValueError(f"delta shape {delta.shape} does not match x {x.shape}")
    if d.shape != (nb,):
        raise ValueError(f"skip gain shape {d.shape} does not match x {x.shape}")

    delta_e = ad.repeat_expand(delta, 2, nstate)           # [B,L,N]
    a_e = ad.repeat_expand(a, 1, length)                   # [B,L,N]
    da = ad.mul(delta_e, a_e)
    abar = ad.exp(da)
    bbar = ad.mul(ad.phi1(da), ad.mul(delta_e, b))
    x_e = ad.repeat_expand(x, 2, nstate)
    y = ad.linear_scan(abar, ad.mul(bbar, x_e), c)
    return ad.add(y, ad.mul(x, ad.repeat_expand(d, 1, length)))
