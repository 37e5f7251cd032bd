"""Reverse-mode automatic differentiation on dense float64 arrays.

The engine is deliberately small: values are immutable numpy arrays, the
tape is built by the ops below, and `backward` runs one reverse sweep in
topological order.  Broadcasting is restricted to scalar-against-tensor;
every other shape relation must be made explicit through `repeat_expand`,
`reshape`, `concat` or `split`, which keeps shape bugs loud.

The elementwise ops share one skeleton each: `_binary` (add, sub, mul,
div) holds the shape check, the `requires_grad` guards and the scalar
reduction, and `_unary` (scale, softplus, exp, gelu, relu, phi1) computes
its derivative only when the backward pass runs.  Each op states only its
value and its gradient map.

All compute is 64-bit.  A tape belongs to one logical thread; node values
may be shared freely across threads for reading.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf, expit

Array = np.ndarray

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
LAYER_NORM_EPS = 1e-6
FD_EPS = 1e-6           # central-difference step of `finite_diff_check`


class Node:
    """A value on the differentiation tape.

    `value` is a C-contiguous float64 array (possibly 0-d).  `grad` is
    materialized lazily during the reverse sweep and always matches
    `value.shape`.  Leaves created with `parameter` collect gradients;
    everything reachable only from constants is pruned from the tape.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, value, requires_grad=False, parents=(), backward=None, name=None):
        value = np.asarray(value, dtype=np.float64)
        if value.ndim > 0 and not value.flags["C_CONTIGUOUS"]:
            value = np.ascontiguousarray(value)
        self.value = value
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents) if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def accumulate(self, g):
        # first contribution is stored as-is (grad buffers are never mutated
        # in place, so aliasing a producer's array is safe); later ones add
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def __repr__(self):
        nm = f" name={self.name!r}" if self.name else ""
        return f"Node(shape={self.value.shape}, grad={self.requires_grad}{nm})"


def constant(value) -> Node:
    """Wrap an array or float as a non-differentiable leaf."""
    return Node(value, requires_grad=False)


def parameter(value, name=None) -> Node:
    """Wrap an array as a trainable leaf that collects gradients."""
    return Node(value, requires_grad=True, name=name)


def as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return constant(x)


def _make(value, parents, backward) -> Node:
    """Create an op result; tape entries appear only when a parent needs grad."""
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Node(value)
    return Node(value, requires_grad=True, parents=parents, backward=backward)


def _reduce_to(g: Array, shape) -> Array:
    # inverse of the scalar-against-tensor broadcast
    if shape == () and g.shape != ():
        return np.asarray(g.sum())
    return g


# ---------------------------------------------------------------------------
# pointwise arithmetic

def _binary(kind, a, b, op, grad_a, grad_b) -> Node:
    """out = op(a, b) with equal shapes or a scalar side.

    `grad_a` and `grad_b` map (g, a_value, b_value, out_value) to the
    gradient of each input before the scalar broadcast is summed back.
    """
    a, b = as_node(a), as_node(b)
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ValueError(f"shape mismatch for {kind}: {a.shape} vs {b.shape}")
    x, y = a.value, b.value
    out_value = op(x, y)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(grad_a(g, x, y, out_value), a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(grad_b(g, x, y, out_value), b.shape))

    return _make(out_value, (a, b), backward)


def _unary(a: Node, out_value, deriv) -> Node:
    """An elementwise op whose derivative `deriv()` is computed only in the backward pass."""
    return _make(out_value, (a,), lambda g: a.accumulate(g * deriv()))


def add(a, b) -> Node:
    return _binary("add", a, b, np.add, lambda g, x, y, out: g, lambda g, x, y, out: g)


def sub(a, b) -> Node:
    return _binary("sub", a, b, np.subtract, lambda g, x, y, out: g, lambda g, x, y, out: -g)


def mul(a, b) -> Node:
    return _binary("mul", a, b, np.multiply,
                   lambda g, x, y, out: g * y, lambda g, x, y, out: g * x)


def div(a, b) -> Node:
    return _binary("div", a, b, np.divide,
                   lambda g, x, y, out: g / y, lambda g, x, y, out: -g * out / y)


def scale(a, s: float) -> Node:
    """Multiply by a plain python float (not a tape value)."""
    a = as_node(a)
    s = float(s)
    return _unary(a, a.value * s, lambda: s)


def softplus(a) -> Node:
    a = as_node(a)
    return _unary(a, np.logaddexp(0.0, a.value), lambda: expit(a.value))


def exp(a) -> Node:
    a = as_node(a)
    out_value = np.exp(a.value)
    return _unary(a, out_value, lambda: out_value)


def gelu(a) -> Node:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    a = as_node(a)
    x = a.value
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return _unary(a, x * cdf, lambda: cdf + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x)))


def relu(a) -> Node:
    a = as_node(a)
    return _unary(a, np.maximum(a.value, 0.0), lambda: a.value > 0.0)


def phi1(a) -> Node:
    """(exp(z) - 1) / z per element, with value 1 taken for |z| < 1e-8.

    This is the factor that turns a continuous input gain into its
    zero-order-hold discrete counterpart.
    """
    a = as_node(a)
    z = a.value
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)

    def deriv():
        # d/dz [(e^z - 1)/z] = ((z - 1) e^z + 1) / z^2; series near 0: 1/2 + z/3
        tiny = np.abs(z) < 1e-5
        zz = np.where(tiny, 1.0, z)
        return np.where(tiny, 0.5 + z / 3.0, ((z - 1.0) * np.exp(z) + 1.0) / (zz * zz))

    return _unary(a, np.where(small, 1.0, np.expm1(z) / safe), deriv)


# ---------------------------------------------------------------------------
# reductions and shape ops

def sum_all(a) -> Node:
    a = as_node(a)

    def backward(g):
        a.accumulate(np.full_like(a.value, float(g)))

    return _make(np.asarray(a.value.sum()), (a,), backward)


def mean_all(a) -> Node:
    a = as_node(a)
    n = a.value.size

    def backward(g):
        a.accumulate(np.full_like(a.value, float(g) / n))

    return _make(np.asarray(a.value.mean()), (a,), backward)


def reshape(a, shape) -> Node:
    a = as_node(a)
    shape = tuple(int(s) for s in shape)

    def backward(g):
        a.accumulate(g.reshape(a.shape))

    return _make(a.value.reshape(shape), (a,), backward)


def concat(nodes) -> Node:
    """Join along the leading axis."""
    nodes = [as_node(n) for n in nodes]
    out_value = np.concatenate([n.value for n in nodes])
    offsets = np.cumsum([0] + [n.shape[0] for n in nodes])

    def backward(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n.requires_grad:
                n.accumulate(g[lo:hi])

    return _make(out_value, tuple(nodes), backward)


def split(a, sizes):
    """Split along the leading axis into chunks of the given sizes."""
    a = as_node(a)
    if sum(sizes) != a.shape[0]:
        raise ValueError(f"split sizes {sizes} do not cover axis of length {a.shape[0]}")
    offsets = np.cumsum([0] + list(sizes))
    outs = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        rows = slice(int(lo), int(hi))

        def backward(g, rows=rows):
            full = np.zeros_like(a.value)
            full[rows] = g
            a.accumulate(full)

        outs.append(_make(a.value[rows].copy(), (a,), backward))
    return outs


def repeat_expand(a, axis: int, n: int) -> Node:
    """Insert a new axis of length `n` at `axis` by replication.

    The backward pass sums over the inserted axis, making the expansion an
    explicit (and checkable) stand-in for broadcasting.
    """
    a = as_node(a)
    out_value = np.repeat(np.expand_dims(a.value, axis), n, axis=axis)

    def backward(g):
        a.accumulate(g.sum(axis=axis))

    return _make(out_value, (a,), backward)


def gather_last(a, forward_idx, inverse_idx) -> Node:
    """Permute the last axis: out[..., i] = a[..., forward_idx[i]].

    Because the permutation is a bijection the backward pass is simply a
    gather through the inverse permutation (no scatter collisions).
    """
    a = as_node(a)
    L = a.shape[-1]
    if len(forward_idx) != L:
        raise ValueError(f"order length {len(forward_idx)} does not match axis length {L}")
    out_value = a.value[..., forward_idx]

    def backward(g):
        a.accumulate(g[..., inverse_idx])

    return _make(out_value, (a,), backward)


# ---------------------------------------------------------------------------
# convolution and friends

def _conv_geometry(h, w, k, stride):
    pad = k // 2
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ValueError(f"convolution output would be empty: input {h}x{w}, k={k}, stride={stride}")
    return pad, h_out, w_out


def conv2d(x, w, bias, stride: int = 1) -> Node:
    """Cross-correlation of x [C_in,H,W] with kernels w [C_out,C_in,k,k], plus bias [C_out].

    k in {1, 3}, stride in {1, 2}, zero padding k // 2, so stride 1 keeps
    the spatial dims.
    """
    x, w, bias = as_node(x), as_node(w), as_node(bias)
    c_out, c_in, k, k2 = w.shape
    if k != k2:
        raise ValueError(f"kernel must be square, got {k}x{k2}")
    if k not in (1, 3):
        raise ValueError(f"kernel size {k} not supported (expected 1 or 3)")
    if stride not in (1, 2):
        raise ValueError(f"stride {stride} not supported (expected 1 or 2)")
    if x.value.ndim != 3 or x.shape[0] != c_in:
        raise ValueError(f"channel mismatch: input {x.shape} vs kernel {w.shape}")
    _, h, wd = x.shape
    pad, h_out, w_out = _conv_geometry(h, wd, k, stride)

    xp = np.pad(x.value, ((0, 0), (pad, pad), (pad, pad))) if pad else x.value
    out_value = np.zeros((c_out, h_out, w_out))
    for di in range(k):
        for dj in range(k):
            patch = xp[:, di:di + stride * h_out:stride, dj:dj + stride * w_out:stride]
            out_value += np.einsum("oc,chw->ohw", w.value[:, :, di, dj], patch)
    if bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} does not match {c_out} output channels")
    out_value += bias.value[:, None, None]

    def backward(g):
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=(1, 2)))
        gw = np.zeros_like(w.value) if w.requires_grad else None
        gxp = np.zeros_like(xp) if x.requires_grad else None
        for di in range(k):
            for dj in range(k):
                patch = xp[:, di:di + stride * h_out:stride, dj:dj + stride * w_out:stride]
                if gw is not None:
                    gw[:, :, di, dj] = np.einsum("ohw,chw->oc", g, patch)
                if gxp is not None:
                    gxp[:, di:di + stride * h_out:stride, dj:dj + stride * w_out:stride] += np.einsum(
                        "oc,ohw->chw", w.value[:, :, di, dj], g)
        if gw is not None:
            w.accumulate(gw)
        if gxp is not None:
            x.accumulate(gxp[:, pad:pad + h, pad:pad + wd] if pad else gxp)

    return _make(out_value, (x, w, bias), backward)


def depthwise_conv2d(x, w, bias) -> Node:
    """Per-channel 3x3 convolution, stride 1, same padding.

    x is [C,H,W], w is [C,k,k] and bias is [C]; channel c is filtered by
    kernel c only.
    """
    x, w, bias = as_node(x), as_node(w), as_node(bias)
    c, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ValueError(f"depthwise kernel must be odd square, got {k}x{k2}")
    if x.value.ndim != 3 or x.shape[0] != c:
        raise ValueError(f"channel mismatch: input {x.shape} vs depthwise kernel {w.shape}")
    _, h, wd = x.shape
    pad = k // 2
    xp = np.pad(x.value, ((0, 0), (pad, pad), (pad, pad)))
    out_value = np.zeros((c, h, wd))
    for di in range(k):
        for dj in range(k):
            out_value += w.value[:, di, dj][:, None, None] * xp[:, di:di + h, dj:dj + wd]
    out_value += bias.value[:, None, None]

    def backward(g):
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=(1, 2)))
        if w.requires_grad:
            gw = np.zeros_like(w.value)
            for di in range(k):
                for dj in range(k):
                    gw[:, di, dj] = (g * xp[:, di:di + h, dj:dj + wd]).sum(axis=(1, 2))
            w.accumulate(gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for di in range(k):
                for dj in range(k):
                    gxp[:, di:di + h, dj:dj + wd] += w.value[:, di, dj][:, None, None] * g
            x.accumulate(gxp[:, pad:pad + h, pad:pad + wd])

    return _make(out_value, (x, w, bias), backward)


def upsample_nearest2x(a) -> Node:
    """Nearest-neighbour 2x spatial upsampling of a [C,H,W] tensor."""
    a = as_node(a)
    c, h, w = a.shape
    out_value = np.repeat(np.repeat(a.value, 2, axis=1), 2, axis=2)

    def backward(g):
        a.accumulate(g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

    return _make(out_value, (a,), backward)


def layer_norm(x, gamma, beta) -> Node:
    """Normalize across the channel axis of [C,H,W], per spatial position."""
    x, gamma, beta = as_node(x), as_node(gamma), as_node(beta)
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match {c} channels")
    mu = x.value.mean(axis=0, keepdims=True)
    var = x.value.var(axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.value - mu) * inv
    out_value = gamma.value[:, None, None] * xhat + beta.value[:, None, None]

    def backward(g):
        if beta.requires_grad:
            beta.accumulate(g.sum(axis=(1, 2)))
        if gamma.requires_grad:
            gamma.accumulate((g * xhat).sum(axis=(1, 2)))
        if x.requires_grad:
            gxhat = g * gamma.value[:, None, None]
            m1 = gxhat.mean(axis=0, keepdims=True)
            m2 = (gxhat * xhat).mean(axis=0, keepdims=True)
            x.accumulate(inv * (gxhat - m1 - xhat * m2))

    return _make(out_value, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# the state-space recurrence kernel

_SCAN_CHUNK = 8


def _chunk_major(x: Array, chunks: int, fill: float) -> Array:
    """Copy time-major [L,...] into [_SCAN_CHUNK, chunks, ...], padding the tail with `fill`."""
    out = np.full((_SCAN_CHUNK, chunks) + x.shape[1:], fill)
    full = x.shape[0] // _SCAN_CHUNK
    out[:, :full] = x[:full * _SCAN_CHUNK].reshape((full, _SCAN_CHUNK) + x.shape[1:]).swapaxes(0, 1)
    rest = x[full * _SCAN_CHUNK:]
    if len(rest):
        out[:len(rest), full] = rest
    return out


def _scan(a: Array, b: Array) -> Array:
    """All states h[t] = a[t] * h[t-1] + b[t] (h[-1] = 0) of time-major [L,B,N] arrays.

    Three phases, none with a Python loop over L:
    1. Split L into chunks of _SCAN_CHUNK steps (the tail padded with a=1,
       b=0) and run the recurrence inside every chunk at once, building each
       chunk's running product of `a` in place of `a`.
    2. Hillis-Steele doubling scan over the chunk-end states, in place on
       the last row: ceil(log2(L/_SCAN_CHUNK)) passes, with only products
       of `a`, so no log and no division.
    3. Carry each chunk's incoming state into its other rows with one
       broadcast, h[k] += P[k] * end[k-1].
    """
    length = a.shape[0]
    chunks = -(-length // _SCAN_CHUNK)
    prod = _chunk_major(a, chunks, 1.0)
    h = _chunk_major(b, chunks, 0.0)
    for j in range(1, _SCAN_CHUNK):
        h[j] += prod[j] * h[j - 1]
        prod[j] *= prod[j - 1]
    end, end_prod = h[-1], prod[-1]
    step = 1
    while step < chunks:
        end[step:] += end_prod[step:] * end[:-step]
        end_prod[step:] *= end_prod[:-step]
        step *= 2
    # the last row already holds the full states; carry into the rows before it
    prod[:-1, 1:] *= end[:-1]
    h[:-1, 1:] += prod[:-1, 1:]
    return h.swapaxes(0, 1).reshape((chunks * _SCAN_CHUNK,) + a.shape[1:])[:length]


def linear_scan(abar, bx, cseq) -> Node:
    """Linear recurrence with per-step readout, as a chunked parallel scan.

    h[t] = abar[t] * h[t-1] + bx[t] (h[-1] = 0), out[t] = <cseq[t], h[t]>.
    Shapes: abar, bx, cseq are [B,L,N]; output is [B,L].  Both passes run
    `_scan`, with no Python loop over L: one vectorised step per position
    of an 8-step chunk, ceil(log2(L/8)) doubling passes over the chunk ends
    and one carry broadcast.  The work is O(L) inside the chunks plus
    O((L/8) log(L/8)) across them.  The backward pass runs the same scan
    backwards in time on the state gradient, gh[t] = gc[t] + abar[t+1] *
    gh[t+1].  Results differ from a step-by-step loop only by rounding.
    """
    abar, bx, cseq = as_node(abar), as_node(bx), as_node(cseq)
    if not (abar.shape == bx.shape == cseq.shape) or abar.value.ndim != 3:
        raise ValueError(
            f"linear_scan expects matching [B,L,N] inputs, got {abar.shape}, {bx.shape}, {cseq.shape}")
    # time-major [L,B,N] layout, the one `_scan` works on
    av = np.ascontiguousarray(abar.value.transpose(1, 0, 2))
    bv = bx.value.transpose(1, 0, 2)
    cv = np.ascontiguousarray(cseq.value.transpose(1, 0, 2))
    hs = _scan(av, bv)
    out_value = np.einsum("lbn,lbn->bl", cv, hs)

    def backward(g):
        gt = np.ascontiguousarray(g.T)                     # [L,B]
        gc_all = gt[:, :, None] * cv                       # d out / d h, per step
        # reversed in time, step r multiplies by abar at t = L - r
        a_next = np.empty_like(av)
        a_next[0] = 0.0
        a_next[1:] = av[:0:-1]
        gh_steps = _scan(a_next, gc_all[::-1])[::-1]
        if bx.requires_grad:
            bx.accumulate(gh_steps.transpose(1, 0, 2))
        if abar.requires_grad:
            g_abar = np.empty_like(gh_steps)
            g_abar[0] = 0.0
            np.multiply(gh_steps[1:], hs[:-1], out=g_abar[1:])
            abar.accumulate(g_abar.transpose(1, 0, 2))
        if cseq.requires_grad:
            cseq.accumulate((gt[:, :, None] * hs).transpose(1, 0, 2))

    return _make(out_value, (abar, bx, cseq), backward)


# ---------------------------------------------------------------------------
# reverse sweep and gradient checking

def _topological(root: Node):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Node) -> None:
    """Populate gradients of every reachable leaf from a scalar loss."""
    if loss.value.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    if not loss.requires_grad:
        return
    order = _topological(loss)
    loss.grad = np.ones(())
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    # free intermediate gradients; leaves keep theirs for the optimizer
    for node in order:
        if node._parents:
            node.grad = None


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
