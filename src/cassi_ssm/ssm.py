"""State-space primitive: the selective scan.

The continuous dynamics h'(t) = A h(t) + B x(t), y = C h + D x are run as a
discrete recurrence after zero-order-hold discretization.  A is diagonal
with negative entries, and B, C, Delta vary per token (input-dependent
selection), which is what makes the scan "selective".

`selective_scan` runs one such branch from the token sequence and the
branch's weights.  When an input requires grad, it builds the composed
graph below, which training differentiates.  When none does (as in
`reconstruct`), it returns the value of `autodiff.selective_scan_forward`,
one array kernel that performs the graph's arithmetic in the same order, so
the two paths give the same bits, but expands no weight or token along N and
records nothing: a call peaks at about 3.4 [B,L,N] arrays above its inputs,
where the graph, freeing each intermediate once read, peaks at about 6.3.
"""

from __future__ import annotations

from . import autodiff as ad


def _affine(x: "ad.Node", w: "ad.Node", bias: "ad.Node") -> "ad.Node":
    """x * w + bias, the per-channel `w` and `bias` repeated along the tokens (axis 1) of x."""
    length = x.shape[1]
    return ad.add(ad.mul(x, ad.repeat_expand(w, 1, length)), ad.repeat_expand(bias, 1, length))


def selective_scan(x, a_log, w_b, b_b, w_c, b_c, w_dt, b_dt, d) -> "ad.Node":
    """Differentiable selective scan over batches of scalar token sequences.

    All nine inputs are Nodes; the batch axis holds independent channels.
    x is [B,L]; a_log, w_b, b_b, w_c, b_c are [B,N]; w_dt, b_dt, d are [B].
    With a = -exp(a_log) and, per token, b_t = x_t w_b + b_b,
    c_t = x_t w_c + b_c and delta_t = softplus(x_t w_dt + b_dt), abar_t and
    bbar_t are the zero-order hold of a and b_t over delta_t.  Returns y [B,L] with
    h_t = abar_t * h_{t-1} + bbar_t * x_t (h_0 = 0) and y_t = <c_t, h_t> + d * x_t.
    """
    if x.value.ndim != 2:
        raise ValueError(f"x must be a [B,L] batch of sequences, got shape {x.shape}")
    nb, length = x.shape
    nstate = a_log.shape[1] if a_log.value.ndim == 2 else None
    state, channel = ("[B,N]", (nb, nstate)), ("[B]", (nb,))
    for name, node, (axes, want) in (
            ("a_log", a_log, state), ("w_b", w_b, state), ("b_b", b_b, state), ("w_c", w_c, state),
            ("b_c", b_c, state), ("w_dt", w_dt, channel), ("b_dt", b_dt, channel), ("d", d, channel)):
        if node.shape != want:
            raise ValueError(
                f"{name} shape {node.shape} does not match x {x.shape}: expected {axes}")
    inputs = (x, a_log, w_b, b_b, w_c, b_c, w_dt, b_dt, d)
    if not any(node.requires_grad for node in inputs):
        return ad.constant(ad.selective_scan_forward(*(node.value for node in inputs)))

    a = ad.scale(ad.exp(a_log), -1.0)
    x_e = ad.repeat_expand(x, 2, nstate)                  # [B,L,N]
    b, c = _affine(x_e, w_b, b_b), _affine(x_e, w_c, b_c)
    del x_e
    delta = ad.softplus(_affine(x, w_dt, b_dt))

    delta_e = ad.repeat_expand(delta, 2, nstate)
    da = ad.mul(delta_e, ad.repeat_expand(a, 1, length))
    abar = ad.exp(da)
    phi = ad.phi1(da)
    del da
    gain = ad.mul(delta_e, b)
    del delta_e, b
    bbar = ad.mul(phi, gain)
    del phi, gain
    # expanded again rather than kept from above, so no [B,L,N] copy of x lives through phi1
    bx = ad.mul(bbar, ad.repeat_expand(x, 2, nstate))
    del bbar
    y = ad.linear_scan(abar, bx, c)
    del abar, bx, c
    return ad.add(y, ad.mul(x, ad.repeat_expand(d, 1, length)))
