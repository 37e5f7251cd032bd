"""Reverse-mode automatic differentiation on dense float64 arrays.

The engine is deliberately small: values are immutable numpy arrays, the
tape is built by the ops below, and `backward` runs one reverse sweep in
topological order.  Broadcasting is restricted to scalar-against-tensor;
every other shape relation must be made explicit through `repeat_expand`,
`reshape`, `concat` or `split`, which keeps shape bugs loud.

All compute is 64-bit.  A tape belongs to one logical thread; node values
may be shared freely across threads for reading.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf, expit

Array = np.ndarray

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


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


def constant(value, name=None) -> Node:
    """Wrap an array or float as a non-differentiable leaf."""
    return Node(value, requires_grad=False, name=name)


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


def _is_scalar(shape) -> bool:
    return shape == ()


def _check_binary(kind, a, b):
    if a.shape == b.shape or _is_scalar(a.shape) or _is_scalar(b.shape):
        return
    raise ValueError(f"shape mismatch for {kind}: {a.shape} vs {b.shape}")


def _reduce_to(g: Array, shape) -> Array:
    # inverse of the scalar-against-tensor broadcast
    if shape == () and g.shape != ():
        return np.asarray(g.sum())
    return g


# ---------------------------------------------------------------------------
# pointwise arithmetic

def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _check_binary("add", a, b)
    out_value = a.value + b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(g, b.shape))

    return _make(out_value, (a, b), backward)


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _check_binary("sub", a, b)
    out_value = a.value - b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(-g, b.shape))

    return _make(out_value, (a, b), backward)


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _check_binary("mul", a, b)
    out_value = a.value * b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g * b.value, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(g * a.value, b.shape))

    return _make(out_value, (a, b), backward)


def div(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _check_binary("div", a, b)
    out_value = a.value / b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g / b.value, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(-g * out_value / b.value, b.shape))

    return _make(out_value, (a, b), backward)


def neg(a) -> Node:
    a = as_node(a)

    def backward(g):
        a.accumulate(-g)

    return _make(-a.value, (a,), backward)


def scale(a, s: float) -> Node:
    """Multiply by a plain python float (not a tape value)."""
    a = as_node(a)
    s = float(s)

    def backward(g):
        a.accumulate(g * s)

    return _make(a.value * s, (a,), backward)


def softplus(a) -> Node:
    a = as_node(a)
    out_value = np.logaddexp(0.0, a.value)

    def backward(g):
        a.accumulate(g * expit(a.value))

    return _make(out_value, (a,), backward)


def exp(a) -> Node:
    a = as_node(a)
    out_value = np.exp(a.value)

    def backward(g):
        a.accumulate(g * out_value)

    return _make(out_value, (a,), backward)


def gelu(a) -> Node:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    a = as_node(a)
    x = a.value
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    out_value = x * cdf

    def backward(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        a.accumulate(g * (cdf + x * pdf))

    return _make(out_value, (a,), backward)


def relu(a) -> Node:
    a = as_node(a)
    out_value = np.maximum(a.value, 0.0)

    def backward(g):
        a.accumulate(g * (a.value > 0.0))

    return _make(out_value, (a,), backward)


def phi1(a) -> Node:
    """(exp(z) - 1) / z per element, with value 1 taken for |z| < 1e-8.

    This is the factor that turns a continuous input gain into its
    zero-order-hold discrete counterpart.
    """
    a = as_node(a)
    z = a.value
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    out_value = np.where(small, 1.0, np.expm1(z) / safe)

    def backward(g):
        # d/dz [(e^z - 1)/z] = ((z - 1) e^z + 1) / z^2; series near 0: 1/2 + z/3
        tiny = np.abs(z) < 1e-5
        zz = np.where(tiny, 1.0, z)
        deriv = np.where(tiny, 0.5 + z / 3.0, ((z - 1.0) * np.exp(z) + 1.0) / (zz * zz))
        a.accumulate(g * deriv)

    return _make(out_value, (a,), backward)


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


def concat(nodes, axis: int = 0) -> Node:
    nodes = [as_node(n) for n in nodes]
    sizes = [n.shape[axis] for n in nodes]
    out_value = np.concatenate([n.value for n in nodes], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                n.accumulate(g[tuple(idx)])

    return _make(out_value, tuple(nodes), backward)


def split(a, sizes, axis: int = 0):
    """Split along `axis` into chunks of the given sizes."""
    a = as_node(a)
    if sum(sizes) != a.shape[axis]:
        raise ValueError(f"split sizes {sizes} do not cover axis of length {a.shape[axis]}")
    offsets = np.cumsum([0] + list(sizes))
    outs = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        idx = [slice(None)] * a.value.ndim
        idx[axis] = slice(int(lo), int(hi))
        idx = tuple(idx)

        def backward(g, idx=idx):
            full = np.zeros_like(a.value)
            full[idx] = g
            a.accumulate(full)

        outs.append(_make(a.value[idx].copy(), (a,), backward))
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


def gather_by_order(a, order) -> Node:
    """Apply a ScanOrder-like object (has .forward and .inverse) along the last axis."""
    return gather_last(a, order.forward, order.inverse)


# ---------------------------------------------------------------------------
# convolution and friends

def _conv_geometry(h, w, k, stride, padding):
    if padding == "same":
        pad = k // 2
    elif padding == "valid":
        pad = 0
    else:
        raise ValueError(f"unknown padding mode: {padding!r}")
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ValueError(f"convolution output would be empty: input {h}x{w}, k={k}, stride={stride}")
    return pad, h_out, w_out


def conv2d(x, w, bias=None, stride: int = 1, padding: str = "same") -> Node:
    """Cross-correlation of x [C_in,H,W] with kernels w [C_out,C_in,k,k].

    k in {1, 3}, stride in {1, 2}.  With padding="same" and stride 1 the
    spatial dims are preserved; "valid" uses no padding.
    """
    x, w = as_node(x), as_node(w)
    bias = as_node(bias) if bias is not None else None
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
    pad, h_out, w_out = _conv_geometry(h, wd, k, stride, padding)

    xp = np.pad(x.value, ((0, 0), (pad, pad), (pad, pad))) if pad else x.value
    out_value = np.zeros((c_out, h_out, w_out))
    for di in range(k):
        for dj in range(k):
            patch = xp[:, di:di + stride * h_out:stride, dj:dj + stride * w_out:stride]
            out_value += np.einsum("oc,chw->ohw", w.value[:, :, di, dj], patch)
    if bias is not None:
        if bias.shape != (c_out,):
            raise ValueError(f"bias shape {bias.shape} does not match {c_out} output channels")
        out_value += bias.value[:, None, None]

    def backward(g):
        if bias is not None and bias.requires_grad:
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

    parents = (x, w) if bias is None else (x, w, bias)
    return _make(out_value, parents, backward)


def depthwise_conv2d(x, w, bias=None) -> Node:
    """Per-channel 3x3 convolution, stride 1, same padding.

    x is [C,H,W] and w is [C,k,k]; channel c is filtered by kernel c only.
    """
    x, w = as_node(x), as_node(w)
    bias = as_node(bias) if bias is not None else None
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
    if bias is not None:
        out_value += bias.value[:, None, None]

    def backward(g):
        if bias is not None and bias.requires_grad:
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

    parents = (x, w) if bias is None else (x, w, bias)
    return _make(out_value, parents, backward)


def upsample_nearest2x(a) -> Node:
    """Nearest-neighbour 2x spatial upsampling of a [C,H,W] tensor."""
    a = as_node(a)
    c, h, w = a.shape
    out_value = np.repeat(np.repeat(a.value, 2, axis=1), 2, axis=2)

    def backward(g):
        a.accumulate(g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

    return _make(out_value, (a,), backward)


def layer_norm(x, gamma, beta, eps: float = 1e-6) -> Node:
    """Normalize across the channel axis of [C,H,W], per spatial position."""
    x, gamma, beta = as_node(x), as_node(gamma), as_node(beta)
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match {c} channels")
    mu = x.value.mean(axis=0, keepdims=True)
    var = x.value.var(axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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

def linear_scan(abar, bx, cseq) -> Node:
    """Sequential linear recurrence with per-step readout.

    h[t] = abar[t] * h[t-1] + bx[t] (h[-1] = 0), out[t] = <cseq[t], h[t]>.
    Shapes: abar, bx, cseq are [B,L,N]; output is [B,L].  The backward pass
    replays the recurrence in reverse using the stored states.
    """
    abar, bx, cseq = as_node(abar), as_node(bx), as_node(cseq)
    if not (abar.shape == bx.shape == cseq.shape) or abar.value.ndim != 3:
        raise ValueError(
            f"linear_scan expects matching [B,L,N] inputs, got {abar.shape}, {bx.shape}, {cseq.shape}")
    # time-major [L,B,N] layout keeps the per-step slices contiguous
    av = np.ascontiguousarray(abar.value.transpose(1, 0, 2))
    bv = np.ascontiguousarray(bx.value.transpose(1, 0, 2))
    cv = np.ascontiguousarray(cseq.value.transpose(1, 0, 2))
    length, nb, nstate = av.shape
    hs = np.empty((length, nb, nstate))
    prev = np.zeros((nb, nstate))
    for t in range(length):
        cur = hs[t]
        np.multiply(av[t], prev, out=cur)
        cur += bv[t]
        prev = cur
    out_value = np.einsum("lbn,lbn->bl", cv, hs)

    def backward(g):
        gt = np.ascontiguousarray(g.T)                     # [L,B]
        gc_all = gt[:, :, None] * cv                       # d out / d h, per step
        gh_steps = np.empty((length, nb, nstate))
        gh = np.zeros((nb, nstate))
        for t in range(length - 1, -1, -1):
            gh += gc_all[t]
            gh_steps[t] = gh
            gh *= av[t]
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


def finite_diff_check(f, theta: Array, eps: float = 1e-6, max_coords: int | None = None,
                      seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Node wrapping `theta` to a scalar Node.  The error at each
    coordinate is |analytic - fd| / max(1, |analytic|).  When `max_coords`
    is given, a seeded random subset of coordinates is probed.
    """
    if not (0.0 < eps <= 1e-3):
        raise ValueError(f"eps must lie in (0, 1e-3], got {eps}")
    theta = np.asarray(theta, dtype=np.float64)
    leaf = parameter(theta.copy())
    loss = f(leaf)
    if not np.isfinite(loss.value):
        raise ValueError("function value is not finite")
    backward(loss)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(theta)

    flat = theta.reshape(-1)
    coords = np.arange(flat.size)
    if max_coords is not None and flat.size > max_coords:
        coords = np.random.default_rng(seed).choice(flat.size, size=max_coords, replace=False)

    worst = 0.0
    ana_flat = analytic.reshape(-1)
    for i in coords:
        bumped = flat.copy()
        bumped[i] += eps
        hi = float(f(constant(bumped.reshape(theta.shape))).value)
        bumped[i] -= 2 * eps
        lo = float(f(constant(bumped.reshape(theta.shape))).value)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("function value is not finite")
        fd = (hi - lo) / (2 * eps)
        err = abs(ana_flat[i] - fd) / max(1.0, abs(ana_flat[i]))
        worst = max(worst, err)
    return worst
