"""Reverse-mode automatic differentiation on dense float64 arrays.

The engine is deliberately small: values are immutable numpy arrays, the tape
is built by the ops below, and `backward` runs one reverse sweep in
topological order, dropping each interior gradient once read (leaves keep
theirs, so sweeps add).  Ops, and every function built on them, take
`Node`s and coerce nothing: arrays and floats enter the graph only through
`constant` and `parameter`.  Broadcasting is only scalar-against-tensor;
every other shape relation must be made explicit through `repeat_expand`,
`reshape`, `concat` or `split`, which keeps shape bugs loud.

Each op family has one skeleton, so an op states only its value and its
gradient map: `_binary` (add, sub, mul, div) holds the shape check, the
`requires_grad` guards and the scalar reduction; `unary` serves every
single-input op and runs its gradient map only in the backward pass; and
`_window_conv` holds the windows, bias and backward of both convolutions,
which state only the product of one kernel tap with its window and that
tap's gradient.

One function works on arrays and records nothing: `selective_scan_forward`,
the value of `ssm.selective_scan` when no input requires grad.  It computes
through the same helpers as `softplus`, `phi1` and `linear_scan`
(`_softplus`, `_phi1`, `_scan_chunks`), so each formula has one
implementation and both paths give the same bits.

All compute is 64-bit.  A tape belongs to one logical thread; node values
may be shared freely across threads for reading.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
LAYER_NORM_EPS = 1e-6


class Node:
    """A value on the differentiation tape.

    `value` is a C-contiguous float64 array (possibly 0-d).  `grad` is
    materialized lazily during the reverse sweep and always matches
    `value.shape`.  Leaves created with `parameter` collect gradients;
    everything reachable only from constants is pruned from the tape.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        value = np.asarray(value, dtype=np.float64)
        if value.ndim > 0 and not value.flags["C_CONTIGUOUS"]:
            value = np.ascontiguousarray(value)
        self.value = value
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents) if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

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
        return f"Node(shape={self.value.shape}, grad={self.requires_grad})"


def constant(value) -> Node:
    """Wrap an array or float as a non-differentiable leaf."""
    return Node(value, requires_grad=False)


def parameter(value) -> Node:
    """Wrap an array as a trainable leaf that collects gradients."""
    return Node(value, requires_grad=True)


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


def unary(a: Node, out_value, vjp) -> Node:
    """The result `out_value` of an op on `a`; `vjp(g)`, the gradient of `a`
    given the output gradient `g`, runs only in the backward pass."""
    return _make(out_value, (a,), lambda g: a.accumulate(vjp(g)))


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
    s = float(s)
    return unary(a, a.value * s, lambda g: g * s)


def _softplus(x: Array) -> Array:
    """log(1 + e^x) as max(x, 0) + log1p(e^-|x|): SIMD ufuncs only, where
    `np.logaddexp` runs a scalar loop, and no exponential can overflow."""
    out = np.negative(np.abs(x), out=np.empty_like(x))    # an array, 0-d included
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def softplus(a) -> Node:
    """log(1 + e^x), computed as in `_softplus`."""
    out_value = _softplus(a.value)
    # the derivative 1 / (1 + exp(-x)) is 1 - exp(-softplus(x))
    return unary(a, out_value, lambda g: g * -np.expm1(-out_value))


def exp(a) -> Node:
    out_value = np.exp(a.value)
    return unary(a, out_value, lambda g: g * out_value)


# The error function of W. J. Cody, "Rational Chebyshev approximations for
# the error function", Math. Comp. 23 (1969), with the coefficients of
# netlib's CALERF.  Each rational is (numerator, denominator), highest degree
# first; the denominator is monic and its leading 1 is left out.
_ERF_NEAR = ((1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
              3.77485237685302021e02, 3.20937758913846947e03),
             (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
              2.84423683343917062e03))
_ERFC_MID = ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
              6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
              1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
             (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
              1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
              3.43936767414372164e03, 1.23033935480374942e03))
_ERF_NEAR_MAX = 0.46875      # |x| up to here: erf = x * R(x^2); beyond, erfc = exp(-x^2) * R(x)
_ERF_ONE = 6.0               # from here on erfc < 2e-17, under half an ulp of 1: erf rounds to 1


def _rational(t: Array, coeffs) -> Array:
    """num(t) / den(t) by Horner's rule, for `coeffs` laid out as `_ERF_NEAR`."""
    num, den = coeffs
    p = num[0] * t
    q = t.copy()
    for a, b in zip(num[1:-1], den[:-1]):
        p += a
        p *= t
        q += b
        q *= t
    p += num[-1]
    q += den[-1]
    p /= q
    return p


def _exp_neg_square(y: Array) -> Array:
    """exp(-y*y), with y*y split at s = y truncated to 1/16 so s*s is exact."""
    s = np.trunc(y * 16.0) / 16.0
    return np.exp(-s * s) * np.exp(-(y - s) * (y + s))


def _erfc_mid(y: Array) -> Array:
    return _rational(y, _ERFC_MID) * _exp_neg_square(y)


def _erf(x: Array) -> Array:
    """The error function, within a few ulp, as x * R(x^2) near 0 and as
    1 - erfc past that, with |x| clamped at _ERF_ONE.

    Each range is gathered by index, not by boolean mask: a mask whose
    entries alternate at random makes numpy's masked copies several times
    slower than the arithmetic.
    """
    flat = x.ravel()
    y = np.abs(flat)
    out = np.empty_like(y)
    near = y <= _ERF_NEAR_MAX
    idx = np.flatnonzero(near)
    t = flat[idx]
    out[idx] = t * _rational(t * t, _ERF_NEAR)
    idx = np.flatnonzero(~near)      # NaN included
    if idx.size:
        r = np.subtract(1.0, _erfc_mid(np.minimum(y[idx], _ERF_ONE)))
        out[idx] = np.copysign(r, flat[idx], out=r)
    return out.reshape(x.shape)


def gelu(a) -> Node:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    x = a.value
    cdf = 0.5 * (1.0 + _erf(x / _SQRT2))
    return unary(a, x * cdf, lambda g: g * (cdf + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))))


def relu(a) -> Node:
    return unary(a, np.maximum(a.value, 0.0), lambda g: g * (a.value > 0.0))


def _ones_at(x: Array, idx: Array) -> Array:
    """Flat `x` with 1 at the indices `idx`; `x` itself when there are none."""
    if not idx.size:
        return x
    x = x.copy()
    x[idx] = 1.0
    return x


def _phi1(z: Array) -> Array:
    """(exp(z) - 1) / z per element, with value 1 taken for |z| < 1e-8.

    As in `_erf`, the entries near 0 are patched by index, not by mask; they
    divide by 1, so z = 0 raises no floating-point flag.  The result is one
    new array: |z| is formed in it, and then exp(z) - 1.
    """
    flat = z.ravel()
    out = np.abs(flat)
    small = np.flatnonzero(out < 1e-8)
    np.expm1(flat, out=out)
    out /= _ones_at(flat, small)
    out[small] = 1.0
    return out.reshape(z.shape)


def phi1(a) -> Node:
    """(exp(z) - 1) / z per element, computed as in `_phi1`.

    This is the factor that turns a continuous input gain into its
    zero-order-hold discrete counterpart.
    """
    z = a.value
    out_value = _phi1(z)

    def vjp(g):
        flat, out = z.ravel(), out_value.ravel()
        # d/dz [(e^z - 1)/z] = (e^z - phi1(z)) / z; series near 0: 1/2 + z/3
        tiny = np.flatnonzero(np.abs(flat) < 1e-5)
        d = np.exp(flat)
        d -= out
        d /= _ones_at(flat, tiny)
        d[tiny] = 0.5 + flat[tiny] / 3.0
        d = d.reshape(z.shape)
        d *= g
        return d

    return unary(a, out_value, vjp)


# ---------------------------------------------------------------------------
# reductions and shape ops

def mean_all(a) -> Node:
    n = a.value.size
    return unary(a, np.asarray(a.value.mean()), lambda g: np.full_like(a.value, float(g) / n))


def reshape(a, shape) -> Node:
    return unary(a, a.value.reshape(shape), lambda g: g.reshape(a.shape))


def concat(nodes) -> Node:
    """Join along the leading axis."""
    out_value = np.concatenate([n.value for n in nodes])
    offsets = np.cumsum([0] + [n.shape[0] for n in nodes])

    def backward(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n.requires_grad:
                n.accumulate(g[lo:hi])

    return _make(out_value, tuple(nodes), backward)


def split(a, sizes):
    """Split along the leading axis into views of chunks of the given sizes."""
    if sum(sizes) != a.shape[0]:
        raise ValueError(f"split sizes {sizes} do not cover axis of length {a.shape[0]}")
    offsets = np.cumsum([0] + list(sizes))
    outs = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        rows = slice(int(lo), int(hi))

        def vjp(g, rows=rows):
            full = np.zeros_like(a.value)
            full[rows] = g
            return full

        outs.append(unary(a, a.value[rows], vjp))
    return outs


def repeat_expand(a, axis: int, n: int) -> Node:
    """Insert a new axis of length `n` at `axis` by replication.

    The backward pass sums over the inserted axis, making the expansion an
    explicit (and checkable) stand-in for broadcasting.
    """
    out_value = np.repeat(np.expand_dims(a.value, axis), n, axis=axis)

    def vjp(g):
        # one einsum reduction: `g.sum(axis)` is several times slower over a short or strided axis
        dims = "abcdefghijklmnopqrstuvwxyz"[:g.ndim]
        kept = axis % g.ndim
        return np.einsum(f"{dims}->{dims[:kept]}{dims[kept + 1:]}", g)

    return unary(a, out_value, vjp)


def gather_last(a, forward_idx, inverse_idx) -> Node:
    """Permute the last axis: out[..., i] = a[..., forward_idx[i]].

    Because the permutation is a bijection the backward pass is simply a
    gather through the inverse permutation (no scatter collisions).
    """
    L = a.shape[-1]
    if len(forward_idx) != L:
        raise ValueError(f"order length {len(forward_idx)} does not match axis length {L}")
    # np.take returns a C-ordered copy; fancy indexing gives an F-ordered
    # one here, which Node would copy a second time
    out_value = np.take(a.value, forward_idx, axis=-1)
    return unary(a, out_value, lambda g: g[..., inverse_idx])


# ---------------------------------------------------------------------------
# convolution and friends

def _rows(a: Array) -> Array:
    """[C,H,W] viewed as [H,C,W], so that `np.matmul` runs one GEMM per row."""
    return a.transpose(1, 0, 2)


def _taps(w: Array) -> Array:
    """Kernels [..., k, k] as [k, k, ...], so that each tap's kernel is one contiguous matrix."""
    return np.moveaxis(w, (-2, -1), (0, 1)).copy()


def _conv_tap(kernel: Array, window: Array, out: Array) -> None:
    # out[:, i] = kernel @ window[:, i] for each output row i; one small GEMM each
    # keeps OpenBLAS on one thread, where a whole-plane product would wake a second
    np.matmul(kernel, _rows(window), out=_rows(out))


def _conv_tap_grad(g: Array, window: Array) -> Array:
    return np.matmul(_rows(g), window.transpose(1, 2, 0)).sum(axis=0)


def _depthwise_tap(kernel: Array, window: Array, out: Array) -> None:
    np.einsum("c,chw->chw", kernel, window, out=out)


def _depthwise_tap_grad(g: Array, window: Array) -> Array:
    return np.einsum("chw,chw->c", g, window)


def _window_conv(x: Node, w: Node, bias: Node, stride, tap, tap_grad) -> Node:
    """Sum over the k x k kernel taps of x [C,H,W], zero padded by k // 2, plus bias [C_out].

    Tap (di, dj) is `w[..., di, dj]` and meets the strided window of the padded
    input that starts at (di, dj).  `tap(kernel, window, out)` writes the tap's
    share of the output; it is linear in the window, and its adjoint is the same
    product with the kernel tap transposed.  `tap_grad(g, window)` is the
    gradient of the kernel tap.
    """
    c_out, k = w.shape[0], w.shape[-1]
    if bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} does not match {c_out} output channels")
    _, h, wd = x.shape
    pad = k // 2
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wd + 2 * pad - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ValueError(f"convolution output would be empty: input {h}x{wd}, k={k}, stride={stride}")
    xp = x.value
    if pad:
        xp = np.zeros((x.shape[0], h + 2 * pad, wd + 2 * pad))
        xp[:, pad:pad + h, pad:pad + wd] = x.value
    windows = [((di, dj), (slice(None), slice(di, di + stride * h_out, stride),
                           slice(dj, dj + stride * w_out, stride)))
               for di in range(k) for dj in range(k)]

    def window(win):
        # a strided window is copied, so that every product reads unit-stride rows
        return xp[win] if stride == 1 else np.ascontiguousarray(xp[win])

    kernels = _taps(w.value)
    out_value = np.empty((c_out, h_out, w_out))
    share = np.empty_like(out_value)
    for n, ((di, dj), win) in enumerate(windows):
        # the first tap writes the output, and each later one adds its share
        tap(kernels[di, dj], window(win), share if n else out_value)
        if n:
            out_value += share
    out_value += bias.value[:, None, None]

    def backward(g):
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=(1, 2)))
        if w.requires_grad:
            gw = np.empty_like(w.value)
            for (di, dj), win in windows:
                gw[..., di, dj] = tap_grad(g, window(win))
            w.accumulate(gw)
        if x.requires_grad:
            # the kernels are rebuilt here, so that the tape keeps no copy of them
            kernels, gxp = _taps(w.value), np.zeros_like(xp)
            share = np.empty((x.shape[0], h_out, w_out))
            for (di, dj), win in windows:
                tap(kernels[di, dj].T, g, share)
                gxp[win] += share
            x.accumulate(gxp[:, pad:pad + h, pad:pad + wd] if pad else gxp)

    return _make(out_value, (x, w, bias), backward)


def conv2d(x, w, bias, stride: int = 1) -> Node:
    """Cross-correlation of x [C_in,H,W] with kernels w [C_out,C_in,k,k], plus bias [C_out].

    k in {1, 3}, stride in {1, 2}, zero padding k // 2, so stride 1 keeps
    the spatial dims.  Each kernel tap is one BLAS product batched over output
    rows, [C_out x C_in] @ [C_in x W_out] per row; the gradients are the same
    row products.
    """
    c_out, c_in, k, k2 = w.shape
    if k != k2:
        raise ValueError(f"kernel must be square, got {k}x{k2}")
    if k not in (1, 3):
        raise ValueError(f"kernel size {k} not supported (expected 1 or 3)")
    if stride not in (1, 2):
        raise ValueError(f"stride {stride} not supported (expected 1 or 2)")
    if x.value.ndim != 3 or x.shape[0] != c_in:
        raise ValueError(f"channel mismatch: input {x.shape} vs kernel {w.shape}")
    return _window_conv(x, w, bias, stride, _conv_tap, _conv_tap_grad)


def depthwise_conv2d(x, w, bias) -> Node:
    """Per-channel 3x3 convolution, stride 1, same padding.

    x is [C,H,W], w is [C,k,k] and bias is [C]; channel c is filtered by
    kernel c only.
    """
    c, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ValueError(f"depthwise kernel must be odd square, got {k}x{k2}")
    if x.value.ndim != 3 or x.shape[0] != c:
        raise ValueError(f"channel mismatch: input {x.shape} vs depthwise kernel {w.shape}")
    return _window_conv(x, w, bias, 1, _depthwise_tap, _depthwise_tap_grad)


def upsample_nearest2x(a) -> Node:
    """Nearest-neighbour 2x spatial upsampling of a [C,H,W] tensor."""
    c, h, w = a.shape
    out_value = np.repeat(np.repeat(a.value, 2, axis=1), 2, axis=2)
    return unary(a, out_value, lambda g: g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))


def layer_norm(x, gamma, beta) -> Node:
    """Normalize across the channel axis of [C,H,W], per spatial position."""
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
    """Copy [B,L,N] into [_SCAN_CHUNK, chunks, B, N], padding the tail of L with `fill`."""
    batch, length, n = x.shape
    out = np.empty((_SCAN_CHUNK, chunks, batch, n))
    full = length // _SCAN_CHUNK
    out[:, :full] = x[:, :full * _SCAN_CHUNK].reshape(batch, full, _SCAN_CHUNK, n).transpose(2, 1, 0, 3)
    if full < chunks:
        out[:length - full * _SCAN_CHUNK, full] = x[:, full * _SCAN_CHUNK:].swapaxes(0, 1)
        out[length - full * _SCAN_CHUNK:, full] = fill
    return out


def _flip(x: Array) -> Array:
    """[B,L,N] reversed along L and N: a view that reads each batch row back to front in one run."""
    return x.reshape(len(x), x.shape[1] * x.shape[2])[:, ::-1].reshape(x.shape)


def _scan_chunks(prod: Array, h: Array) -> None:
    """h_t = a_t * h_{t-1} + b_t (h_{-1} = 0) in place, over L in chunks of _SCAN_CHUNK steps.

    `prod` and `h` are [_SCAN_CHUNK, chunks, ...] arrays, or views, that hold
    step j of chunk k at [j, k]: `prod` holds a and `h` holds b, with the tail
    of L padded with a=1, b=0.  On return `h` holds every state and `prod`
    the running products of a.  Three phases, none with a Python loop over L:
    1. Run the recurrence inside every chunk at once, building each chunk's
       running product of `a` in place of `a`.
    2. Hillis-Steele doubling scan over the chunk-end states, in place on
       the last row: ceil(log2(L/_SCAN_CHUNK)) passes, with only products
       of `a`, so no log and no division.
    3. Carry each chunk's incoming state into its other rows with one
       broadcast, h[k] += P[k] * end[k-1].
    Every step is elementwise, so the bits do not depend on the memory layout.
    """
    chunks = prod.shape[1]
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


def _scan(a: Array, b: Array) -> Array:
    """All states h[:, t] = a[:, t] * h[:, t-1] + b[:, t] (h[:, -1] = 0) of [B,L,N] arrays.

    The arrays are copied chunk-major and scanned by `_scan_chunks`.  The
    running products are dropped before the states are copied out, so at
    most two [B,L,N]-sized arrays of its own are alive at once.
    """
    batch, length, n = a.shape
    chunks = -(-length // _SCAN_CHUNK)
    prod = _chunk_major(a, chunks, 1.0)
    h = _chunk_major(b, chunks, 0.0)
    _scan_chunks(prod, h)
    del prod
    return h.transpose(2, 1, 0, 3).reshape(batch, chunks * _SCAN_CHUNK, n)[:, :length]


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
    if not (abar.shape == bx.shape == cseq.shape) or abar.value.ndim != 3:
        raise ValueError(
            f"linear_scan expects matching [B,L,N] inputs, got {abar.shape}, {bx.shape}, {cseq.shape}")
    hs = _scan(abar.value, bx.value)
    out_value = np.einsum("bln,bln->bl", cseq.value, hs)

    def backward(g):
        gc_all = g[:, :, None] * cseq.value                # d out / d h, per step
        # reversed in time and state (states never mix): step r multiplies by abar at t = L - r
        a_next = np.concatenate([np.zeros_like(abar.value[:, :1]), _flip(abar.value)[:, :-1]], axis=1)
        gh_steps = _flip(_scan(a_next, _flip(gc_all)))
        if bx.requires_grad:
            bx.accumulate(gh_steps)
        if abar.requires_grad:
            g_abar = np.empty_like(gh_steps)
            g_abar[:, 0] = 0.0
            np.multiply(gh_steps[:, 1:], hs[:, :-1], out=g_abar[:, 1:])
            abar.accumulate(g_abar)
        if cseq.requires_grad:
            cseq.accumulate(g[:, :, None] * hs)

    return _make(out_value, (abar, bx, cseq), backward)


def _to_chunk_major(a: Array, out: Array | None = None) -> Array:
    """[_SCAN_CHUNK, B, N, chunks] copied into `out` (a new array if None) as
    [_SCAN_CHUNK, chunks, B, N], the layout of `_chunk_major`."""
    if out is None:
        out = np.empty((a.shape[0], a.shape[3], a.shape[1], a.shape[2]))
    np.copyto(np.moveaxis(out, 1, 3), a)
    return out


def selective_scan_forward(x, a_log, w_b, b_b, w_c, b_c, w_dt, b_dt, d) -> Array:
    """The value of `ssm.selective_scan` on arrays, with no tape and no copies along N.

    Shapes and formulas are those of `ssm.selective_scan`, which checks them.
    Every value is formed by the same operations in the same order as that
    function's composed graph (through `_softplus`, `_phi1`, `_scan_chunks`
    and the readout's `einsum`), so the result is the graph's, bit for bit.

    The pointwise work runs in a [_SCAN_CHUNK, B, N, chunks] layout, built
    straight from the [B,L] tokens: token k * _SCAN_CHUNK + j of row b sits
    at [j, b, :, k], so the [B,N] weights broadcast along the long chunk
    axis.  `exp`, the zero-order-hold factor's division, the gain and the
    products with x run in place.  The tail of L is padded with the last
    token, so the pad computes nothing that a real token does not.  abar,
    bbar * x and c are then copied chunk-major, as `linear_scan` scans them,
    with the pad's a and b set to 1 and 0: there the recurrence runs about
    twice as fast for B > 1, and the readout `einsum` finds the states' axis
    contiguous, as in the graph.  At most three [B,L,N] arrays are alive at
    once.
    """
    nb, length = x.shape
    full, tail = divmod(length, _SCAN_CHUNK)
    chunks = full + (tail > 0)
    xt = np.empty((_SCAN_CHUNK, nb, chunks))
    xt[:, :, :full] = x[:, :full * _SCAN_CHUNK].reshape(nb, full, _SCAN_CHUNK).transpose(2, 0, 1)
    if tail:
        xt[:tail, :, full] = x[:, full * _SCAN_CHUNK:].T
        xt[tail:, :, full] = x[:, -1]
    pre = xt * w_dt[:, None]
    pre += b_dt[:, None]
    delta = _softplus(pre)[:, :, None]                  # [_SCAN_CHUNK, B, 1, chunks]
    x4 = xt[:, :, None]
    a = -np.exp(a_log)[:, :, None]                      # [B, N, 1]

    da = delta * a
    bx = _phi1(da)
    abar = _to_chunk_major(da)
    del da
    np.exp(abar, out=abar)
    gain = x4 * w_b[:, :, None]
    gain += b_b[:, :, None]
    gain *= delta
    bx *= gain                                          # bbar
    del gain
    bx *= x4
    h = _to_chunk_major(bx)
    del bx
    if tail:
        abar[tail:, -1] = 1.0
        h[tail:, -1] = 0.0
    _scan_chunks(abar, h)

    c = x4 * w_c[:, :, None]
    c += b_c[:, :, None]
    c = _to_chunk_major(c, out=abar)                    # abar is spent: its memory takes c
    y = np.einsum("jkbn,jkbn->jkb", c, h)
    y = y.transpose(2, 1, 0).reshape(nb, chunks * _SCAN_CHUNK)[:, :length]
    return y + x * d[:, None]


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
    """Add a scalar loss's gradients into every reachable leaf, in one pass.

    Each interior gradient is dropped once its own backward has read it: in
    reversed topological order every consumer has run before it."""
    if loss.value.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    if not loss.requires_grad:
        return
    loss.grad = np.ones(())
    for node in reversed(_topological(loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None

