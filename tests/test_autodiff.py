"""Tensor engine tests: forward semantics against literal oracles, gradients
against central finite differences."""

import decimal
import fractions
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cassi_ssm import autodiff as ad
from cassi_ssm.scans import global_order, local_patch_order
from oracles import finite_diff_check, total


def conv2d_loop_oracle(x, w, bias=None, stride=1):
    """Nested-loop cross-correlation with zero padding k // 2, the definitional reference."""
    c_out, c_in, k, _ = w.shape
    _, h, wd = x.shape
    pad = k // 2
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            acc += w[o, c, di, dj] * xp[c, i * stride + di, j * stride + dj]
                out[o, i, j] = acc + (bias[o] if bias is not None else 0.0)
    return out


def conv2d_loop_adjoint(x, w, g, stride=1):
    """Nested-loop gradients of sum(g * conv2d_loop_oracle(x, w, bias, stride)) in x, w and bias:
    each output position sends g back along every product that formed it."""
    c_out, c_in, k, _ = w.shape
    _, h, wd = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    gxp, gw, gb = np.zeros_like(xp), np.zeros_like(w), np.zeros(c_out)
    for o in range(c_out):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                gb[o] += g[o, i, j]
                for c in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            r, q = i * stride + di, j * stride + dj
                            gw[o, c, di, dj] += g[o, i, j] * xp[c, r, q]
                            gxp[c, r, q] += g[o, i, j] * w[o, c, di, dj]
    return gxp[:, pad:pad + h, pad:pad + wd], gw, gb


def conv_grads(op, x, w, b, g, **kwargs):
    """The tape's gradients of sum(g * op(x, w, b)) in x, w and bias."""
    nodes = [ad.parameter(v) for v in (x, w, b)]
    ad.backward(total(ad.mul(op(*nodes, **kwargs), ad.constant(g))))
    return [n.grad for n in nodes]


def assert_rel_close(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def input_grad_errors(op, inputs, proj, **kwargs):
    """finite_diff_check of sum(proj * op(**inputs)) in each input, the others held constant."""
    errors = {}
    for name, theta in inputs.items():
        def f(t, name=name):
            nodes = {n: ad.constant(v) for n, v in inputs.items()} | {name: t}
            return total(ad.mul(op(**nodes, **kwargs), ad.constant(proj)))
        errors[name] = finite_diff_check(f, theta)
    return errors


def linear_scan_loop_oracle(abar, bx, cseq, proj):
    """Literal per-step recurrence h[t] = abar[t] h[t-1] + bx[t] over [B,L,N]
    inputs: the outputs <cseq[t], h[t]> and the gradients of sum(proj * out)
    with respect to abar, bx and cseq, the adjoint run back one step at a time."""
    nb, length, nstate = abar.shape
    hs = np.empty((nb, length, nstate))
    h = np.zeros((nb, nstate))
    for t in range(length):
        h = abar[:, t] * h + bx[:, t]
        hs[:, t] = h
    gh = np.empty_like(hs)
    g = np.zeros((nb, nstate))
    for t in range(length - 1, -1, -1):
        g = proj[:, t, None] * cseq[:, t] + (abar[:, t + 1] * g if t + 1 < length else 0.0)
        gh[:, t] = g
    g_abar = np.zeros_like(hs)
    g_abar[:, 1:] = gh[:, 1:] * hs[:, :-1]
    return (cseq * hs).sum(axis=2), g_abar, gh, proj[:, :, None] * hs


class TestElementwise:
    def test_add(self):
        out = ad.add(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
        assert np.array_equal(out.value, [4.0, 6.0])

    def test_mul_annihilator(self):
        x = ad.constant([1.5, -2.0, 7.0])
        out = ad.mul(x, ad.constant(np.zeros(3)))
        assert np.array_equal(out.value, np.zeros(3))

    def test_scale(self):
        out = ad.scale(ad.constant([2.0, 4.0]), 0.5)
        assert np.array_equal(out.value, [1.0, 2.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError) as err:
            ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 2))))
        assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)

    def test_scalar_broadcast(self):
        out = ad.mul(ad.constant(np.ones((2, 2))), ad.constant(3.0))
        assert np.array_equal(out.value, np.full((2, 2), 3.0))


def ulp_error(got, want):
    """|got - want| in units in the last place of `want`, the subnormal spacing near 0."""
    want = np.asarray(want, dtype=np.float64)
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(want), np.finfo(np.float64).tiny))


class TestErf:
    """The numpy error function behind `gelu`, against the C library's `math.erf`."""

    def test_dense_grid_within_few_ulp(self):
        x = np.linspace(-30.0, 30.0, 240_001)
        want = np.array([math.erf(v) for v in x])
        assert ulp_error(ad._erf(x), want).max() <= 5

    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-310, 1e-20, 0.46875, np.nextafter(0.46875, 1.0),
                                   1.0, 4.0, np.nextafter(4.0, 5.0), 26.543, 30.0])
    def test_edge_points_within_few_ulp_and_odd(self, x):
        got = ad._erf(np.array([x, -x]))
        assert ulp_error(got, [math.erf(x), math.erf(-x)]).max() <= 5
        assert got[1] == -got[0]
        assert np.signbit(got).tolist() == [False, True]     # -0 keeps its sign

    def test_tails_exactly_one(self):
        x = np.array([6.0, 26.543, 30.0, 1e300, np.inf])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = ad._erf(np.concatenate([x, -x]))
        assert got.tolist() == [1.0] * 5 + [-1.0] * 5

    def test_nan_and_shape_pass_through(self):
        got = ad._erf(np.array([[np.nan, 0.5], [-2.0, 9.0]]))
        assert got.shape == (2, 2) and np.isnan(got[0, 0])
        assert ad._erf(np.array(0.5)).shape == ()

    def test_exp_of_minus_square_keeps_precision(self):
        # exp(-y*y) taken directly is off by up to ~500 ulp here: y*y rounds
        y = np.linspace(0.46875, 26.5, 4_001)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            want = np.array([float((-decimal.Decimal(v) ** 2).exp()) for v in y])
        assert ulp_error(ad._exp_neg_square(y), want).max() <= 5

    def test_gelu_is_x_times_gaussian_cdf(self):
        x = np.linspace(-12.0, 12.0, 4_801)
        want = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        err = np.abs(ad.gelu(ad.constant(x)).value - want)
        assert (err <= 4 * np.finfo(np.float64).eps * np.abs(x)).all()

    def test_softplus_derivative_is_logistic(self):
        x = np.linspace(-700.0, 700.0, 28_001)
        p = ad.parameter(x)
        ad.backward(total(ad.softplus(p)))
        assert ulp_error(p.grad, 1.0 / (1.0 + np.exp(-x))).max() <= 4


def value_and_grad(op, x):
    """`op`'s value and gradient at the points `x`, under the floating-point
    flags `train_step` raises on."""
    p = ad.parameter(np.asarray(x, dtype=np.float64))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = op(p)
        ad.backward(total(out))
    return out.value, p.grad


class TestScanKernels:
    """softplus, phi1 and repeat_expand, the pointwise scaffolding of the selective scan."""

    @pytest.mark.parametrize("x", [0.0, 1e-300, -1e-300, 800.0, -800.0, np.inf, -np.inf, np.nan],
                             ids=["0", "tiny", "-tiny", "800", "-800", "inf", "-inf", "nan"])
    def test_softplus_edges_flag_free(self, x):
        value, grad = value_and_grad(ad.softplus, [x])
        with np.errstate(invalid="ignore"):      # logaddexp flags NaN as invalid
            want = np.logaddexp(0.0, x)
        if x == 0.0 or np.isinf(x):
            assert value[0] == want
        elif np.isnan(x):
            assert np.isnan(value[0])
        else:
            assert ulp_error(value, [want]).max() <= 2
        # the logistic as 0.5 * (1 + tanh(x / 2)), which no point here overflows
        np.testing.assert_allclose(grad, [0.5 * (1.0 + np.tanh(x / 2.0))], rtol=1e-15, atol=0)

    # the scan takes phi1 of delta * a with delta > 0 and a < 0, so z <= 0
    @pytest.mark.parametrize("z,want,want_grad", [
        (0.0, 1.0, 0.5), (1e-300, 1.0, 0.5), (-1e-300, 1.0, 0.5),
        (-800.0, 1.0 / 800.0, 1.0 / 800.0 ** 2), (-np.inf, 0.0, 0.0), (np.nan, np.nan, np.nan)],
        ids=["0", "tiny", "-tiny", "-800", "-inf", "nan"])
    def test_phi1_edges_flag_free(self, z, want, want_grad):
        value, grad = value_and_grad(ad.phi1, [z])
        np.testing.assert_allclose(value, [want], rtol=1e-15, atol=0)
        np.testing.assert_allclose(grad, [want_grad], rtol=1e-15, atol=0)

    # past z = log(max float) ~ 709.8, e^z overflows and phi1 with it: the flag
    # reports it, as `exp` does, and no finite value is returned in its place
    @pytest.mark.parametrize("z", [800.0, np.inf], ids=["800", "inf"])
    def test_phi1_overflow_is_flagged(self, z):
        with pytest.raises(FloatingPointError):
            value_and_grad(ad.phi1, [z])

    def test_phi1_grad_matches_exact_series(self):
        # phi1'(z) = sum_k z^k (k + 1) / (k + 2)!, summed exactly at the binary value of z
        zs = [s * v for v in (1.0001e-5, 3e-5, 1e-4, 1e-3) for s in (1.0, -1.0)]
        _, grad = value_and_grad(ad.phi1, zs)
        for z, got in zip(zs, grad):
            q = fractions.Fraction(z)
            want = float(sum(q ** k * fractions.Fraction(k + 1, math.factorial(k + 2))
                             for k in range(12)))
            assert abs(got - want) <= 1e-10 * want, z

    @pytest.mark.parametrize("axis", [0, 1, 2, 3])
    def test_repeat_expand_backward_sums_the_inserted_axis(self, axis):
        rng = np.random.default_rng(31 + axis)
        v = rng.normal(size=(2, 3, 5))
        # positive gradients, so the sum has no cancellation and a relative bound holds
        g = rng.uniform(0.5, 1.5, size=v.shape[:axis] + (4,) + v.shape[axis:])
        p = ad.parameter(v)
        out = ad.repeat_expand(p, axis, 4)
        assert np.array_equal(out.value, np.repeat(np.expand_dims(v, axis), 4, axis=axis))
        ad.backward(total(ad.mul(out, ad.constant(g))))
        np.testing.assert_allclose(p.grad, g.sum(axis=axis), rtol=1e-15, atol=0)


class TestConv2d:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5, 6))
        eye = np.eye(3).reshape(3, 3, 1, 1)
        out = ad.conv2d(ad.constant(x), ad.constant(eye), ad.constant(np.zeros(3)))
        assert np.allclose(out.value, x, atol=0)

    def test_all_ones_3x3_interior(self):
        c = 0.7
        x = np.full((1, 6, 6), c)
        w = np.ones((1, 1, 3, 3))
        out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(np.zeros(1))).value
        assert out[0, 2, 3] == pytest.approx(9 * c)

    @pytest.mark.parametrize("stride,k", [(1, 3), (2, 3), (1, 1), (2, 1)],
                             ids=["1-same-3", "2-same-3", "1-same-1", "2-same-1"])
    def test_matches_loop_oracle(self, stride, k):
        rng = np.random.default_rng(42 + stride + k)
        x = rng.normal(size=(2, 6, 8))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=3)
        got = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b),
                        stride=stride).value
        want = conv2d_loop_oracle(x, w, b, stride=stride)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 5))
        y = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(4, 2, 3, 3))
        alpha, beta = 1.7, -0.4
        b = ad.constant(np.zeros(4))
        lhs = ad.conv2d(ad.constant(alpha * x + beta * y), ad.constant(w), b).value
        rhs = alpha * ad.conv2d(ad.constant(x), ad.constant(w), b).value \
            + beta * ad.conv2d(ad.constant(y), ad.constant(w), b).value
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.conv2d(ad.constant(np.zeros((2, 4, 4))), ad.constant(np.zeros((1, 3, 3, 3))),
                      ad.constant(np.zeros(1)))

    def test_same_stride1_preserves_dims(self):
        out = ad.conv2d(ad.constant(np.zeros((1, 7, 9))), ad.constant(np.zeros((2, 1, 3, 3))),
                        ad.constant(np.zeros(2)))
        assert out.shape == (2, 7, 9)

    # refused up front: a bias of another shape would get a gradient of its own shape wrong
    @pytest.mark.parametrize("op,w_shape", [(ad.conv2d, (4, 4, 3, 3)),
                                            (ad.depthwise_conv2d, (4, 3, 3))],
                             ids=["conv2d", "depthwise"])
    def test_bias_shape_mismatch(self, op, w_shape):
        with pytest.raises(ValueError, match=r"bias shape \(1,\) does not match 4 output channels"):
            op(ad.constant(np.zeros((4, 5, 5))), ad.constant(np.zeros(w_shape)),
               ad.parameter(np.ones(1)))

    @pytest.mark.parametrize("stride,k", [(1, 3), (2, 3), (1, 1), (2, 1)],
                             ids=["1-same-3", "2-same-3", "1-same-1", "2-same-1"])
    def test_grads_match_loop_adjoint(self, stride, k):
        rng = np.random.default_rng(52 + stride + k)
        x, w, b = rng.normal(size=(2, 6, 7)), rng.normal(size=(3, 2, k, k)), rng.normal(size=3)
        g = rng.normal(size=conv2d_loop_oracle(x, w, b, stride=stride).shape)
        got = conv_grads(ad.conv2d, x, w, b, g, stride=stride)
        for got_grad, want_grad in zip(got, conv2d_loop_adjoint(x, w, g, stride=stride)):
            assert_rel_close(got_grad, want_grad)

    def test_stride2_halves_even_dims(self):
        out = ad.conv2d(ad.constant(np.zeros((1, 8, 6))), ad.constant(np.zeros((2, 1, 3, 3))),
                        ad.constant(np.zeros(2)), stride=2)
        assert out.shape == (2, 4, 3)

    # each kernel tap is one product per output row, so a plane of one row or
    # one column, odd dims at stride 2 and C_out != C_in each stress that batching
    @pytest.mark.parametrize("c_in,c_out,h,wd,k,stride,out_hw", [
        (2, 3, 7, 9, 3, 2, (4, 5)),
        (2, 3, 7, 9, 1, 2, (4, 5)),
        (3, 5, 1, 7, 1, 1, (1, 7)),
        (3, 5, 1, 7, 3, 1, (1, 7)),
        (3, 5, 7, 1, 1, 1, (7, 1)),
        (3, 5, 7, 1, 3, 1, (7, 1)),
        (5, 2, 6, 4, 3, 1, (6, 4)),
    ], ids=["7x9-k3-s2", "7x9-k1-s2", "1x7-k1", "1x7-k3", "7x1-k1", "7x1-k3", "cout<cin"])
    def test_row_batching_shapes_match_loop_oracle(self, c_in, c_out, h, wd, k, stride, out_hw):
        rng = np.random.default_rng(60 + h * wd + k)
        x, w = rng.normal(size=(c_in, h, wd)), rng.normal(size=(c_out, c_in, k, k))
        b = rng.normal(size=c_out)
        got = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b), stride=stride).value
        want = conv2d_loop_oracle(x, w, b, stride=stride)
        assert got.shape == want.shape == (c_out, *out_hw)
        assert_rel_close(got, want)
        g = rng.normal(size=want.shape)
        got = conv_grads(ad.conv2d, x, w, b, g, stride=stride)
        for got_grad, want_grad in zip(got, conv2d_loop_adjoint(x, w, g, stride=stride)):
            assert got_grad.shape == want_grad.shape
            assert_rel_close(got_grad, want_grad)

    def test_stride2_odd_plane_matches_finite_differences(self):
        rng = np.random.default_rng(70)
        inputs = {"x": rng.normal(size=(2, 7, 9)), "w": rng.normal(size=(3, 2, 3, 3)),
                  "bias": rng.normal(size=3)}
        errors = input_grad_errors(ad.conv2d, inputs, rng.normal(size=(3, 4, 5)), stride=2)
        assert max(errors.values()) <= 1e-4, errors


class TestGather:
    def test_identity_order(self):
        x = np.arange(6.0)
        order = global_order(2, 3)
        out = ad.gather_last(ad.constant(x), order.forward, order.inverse)
        assert np.array_equal(out.value, x)

    def test_direct_definition(self):
        fwd = np.array([2, 0, 1])
        inv = np.empty(3, dtype=np.intp)
        inv[fwd] = np.arange(3)
        out = ad.gather_last(ad.constant([10.0, 20.0, 30.0]), fwd, inv)
        assert np.array_equal(out.value, [30.0, 10.0, 20.0])

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=16)
        order = local_patch_order(4, 4, 2)
        there = ad.gather_last(ad.constant(x), order.forward, order.inverse)
        back = ad.gather_last(there, order.inverse, order.forward)
        assert np.array_equal(back.value, x)

    def test_length_mismatch(self):
        order = global_order(2, 3)
        with pytest.raises(ValueError, match="order length"):
            ad.gather_last(ad.constant(np.zeros(5)), order.forward, order.inverse)

    def test_multiset_preserved(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 16))
        order = local_patch_order(4, 4, 2, reverse=True)
        out = ad.gather_last(ad.constant(x), order.forward, order.inverse).value
        assert np.array_equal(np.sort(out, axis=1), np.sort(x, axis=1))

    def test_grad(self):
        rng = np.random.default_rng(19)
        # a rotation, not an involution, so the backward must gather through the inverse
        fwd, inv = np.roll(np.arange(16), 3), np.roll(np.arange(16), -3)
        proj = rng.normal(size=(2, 16))

        def f(t):
            return total(ad.mul(ad.gather_last(t, fwd, inv), ad.constant(proj)))

        assert finite_diff_check(f, rng.normal(size=(2, 16))) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
    def test_permutation_round_trip_property(self, h, w, rnd):
        n = h * w
        fwd = np.array(rnd.sample(range(n), n), dtype=np.intp)
        inv = np.empty(n, dtype=np.intp)
        inv[fwd] = np.arange(n)
        x = np.arange(float(n))
        mid = ad.gather_last(ad.constant(x), fwd, inv)
        back = ad.gather_last(mid, inv, fwd)
        assert np.array_equal(back.value, x)


class TestBackward:
    def test_linear_form(self):
        rng = np.random.default_rng(1)
        xv, wv = rng.normal(size=7), rng.normal(size=7)
        w = ad.parameter(wv)
        loss = total(ad.mul(w, ad.constant(xv)))
        ad.backward(loss)
        assert np.allclose(w.grad, xv)

    def test_quadratic(self):
        w = ad.parameter(np.array([1.0, -2.0, 3.0]))
        loss = ad.scale(total(ad.mul(w, w)), 0.5)
        ad.backward(loss)
        assert np.allclose(w.grad, w.value)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.parameter(np.zeros(3)))

    def test_reused_leaf_accumulates(self):
        w = ad.parameter(np.array(2.0))
        loss = ad.add(ad.mul(w, w), ad.scale(w, 3.0))  # w^2 + 3w -> grad 2w + 3
        ad.backward(loss)
        assert float(w.grad) == pytest.approx(7.0)

    def test_one_pass_drops_each_interior_gradient_once_read(self):
        # a chain of 32 scales: at most the gradient being read and the one
        # being written are alive, not one per node
        w = ad.parameter(np.ones(1 << 17))
        chain = [w]
        for _ in range(32):
            chain.append(ad.scale(chain[-1], 1.0))
        loss = total(chain[-1])
        tracemalloc.start()
        try:
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / w.value.nbytes < 4.0
        assert all(node.grad is None for node in chain[1:] + [loss])
        assert np.array_equal(w.grad, np.ones(1 << 17))

    def test_sweeps_add_into_leaf_gradients(self):
        w = ad.parameter(np.array([1.0, -2.0]))
        ad.backward(total(ad.scale(w, 3.0)))
        ad.backward(total(ad.mul(w, w)))
        assert np.array_equal(w.grad, 3.0 + 2.0 * w.value)

    def test_composed_graph_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        proj = rng.normal(size=(2, 4, 4))

        def f(theta):
            y = ad.gelu(ad.mul(ad.softplus(theta), ad.constant(rng2)))
            return total(ad.mul(y, ad.constant(proj)))

        rng2 = rng.normal(size=(2, 4, 4))
        err = finite_diff_check(f, rng.normal(size=(2, 4, 4)))
        assert err <= 1e-4

    def test_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        bias = ad.constant(np.zeros(3))
        a = ad.conv2d(ad.constant(x), ad.constant(w), bias).value
        b = ad.conv2d(ad.constant(x), ad.constant(w), bias).value
        assert np.array_equal(a, b)


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        err = finite_diff_check(lambda t: ad.scale(total(ad.mul(t, t)), 0.5),
                                np.array([0.3, -1.2, 2.0]))
        assert err <= 1e-8

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_rejected(self):
        def f(t):
            return total(ad.mul(ad.exp(ad.scale(t, 1e6)), t))
        with pytest.raises(ValueError, match="finite"):
            finite_diff_check(f, np.array([1.0]))

    def test_through_conv2d(self):
        rng = np.random.default_rng(7)
        for stride, k in [(1, 3), (2, 3), (1, 1), (2, 1)]:
            side = 5 if stride == 1 else 3
            inputs = {"x": rng.normal(size=(2, 5, 5)), "w": rng.normal(size=(3, 2, k, k)),
                      "bias": rng.normal(size=3)}
            errors = input_grad_errors(ad.conv2d, inputs, rng.normal(size=(3, side, side)),
                                       stride=stride)
            assert max(errors.values()) <= 1e-4, (stride, k, errors)


class TestStructuralOps:
    def test_concat_split_round_trip(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 3, 3)), rng.normal(size=(4, 3, 3))
        joined = ad.concat([ad.constant(a), ad.constant(b)])
        pa, pb = ad.split(joined, [2, 4])
        assert np.array_equal(pa.value, a) and np.array_equal(pb.value, b)

    def test_split_returns_views_of_its_input(self):
        x = ad.parameter(np.random.default_rng(10).normal(size=(6, 2, 3)))
        top, bottom = ad.split(x, [2, 4])
        assert np.shares_memory(top.value, x.value) and np.shares_memory(bottom.value, x.value)

    def test_split_grad(self):
        rng = np.random.default_rng(9)
        proj = rng.normal(size=(2, 2, 2))

        def f(t):
            top, _ = ad.split(t, [2, 2])
            return total(ad.mul(top, ad.constant(proj)))

        assert finite_diff_check(f, rng.normal(size=(4, 2, 2))) <= 1e-4

    def test_repeat_expand_values_and_grad(self):
        v = np.array([1.0, 2.0])
        out = ad.repeat_expand(ad.constant(v), 1, 3)
        assert out.shape == (2, 3) and np.array_equal(out.value, [[1, 1, 1], [2, 2, 2]])

        def f(t):
            return total(ad.mul(ad.repeat_expand(t, 0, 4), ad.constant(np.arange(8.).reshape(4, 2))))

        assert finite_diff_check(f, v) <= 1e-8

    def test_reshape_and_mean_all_grads(self):
        rng = np.random.default_rng(20)
        proj = rng.normal(size=(4, 3))

        def f(t):
            return ad.mean_all(ad.mul(ad.reshape(t, (4, 3)), ad.constant(proj)))

        assert finite_diff_check(f, rng.normal(size=(2, 6))) <= 1e-8

    def test_layer_norm_grad(self):
        rng = np.random.default_rng(10)
        g = rng.normal(size=4) + 1.0
        b = rng.normal(size=4)
        proj = rng.normal(size=(4, 3, 3))

        def f(t):
            return total(ad.mul(ad.layer_norm(t, ad.constant(g), ad.constant(b)),
                                ad.constant(proj)))

        assert finite_diff_check(f, rng.normal(size=(4, 3, 3))) <= 1e-4

    def test_layer_norm_affine_grad(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 3, 3))
        proj = rng.normal(size=(4, 3, 3))

        def f(t):
            return total(ad.mul(ad.layer_norm(ad.constant(x), t, ad.constant(np.zeros(4))),
                                ad.constant(proj)))

        assert finite_diff_check(f, rng.normal(size=4)) <= 1e-4

    def test_depthwise_matches_grouped_loop(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 5, 5))
        w = rng.normal(size=(3, 3, 3))
        got = ad.depthwise_conv2d(ad.constant(x), ad.constant(w), ad.constant(np.zeros(3))).value
        for c in range(3):
            want = conv2d_loop_oracle(x[c:c + 1], w[c].reshape(1, 1, 3, 3))
            assert np.abs(got[c] - want[0]).max() <= 1e-12

    def test_depthwise_non_square_matches_grouped_loop(self):
        rng = np.random.default_rng(18)
        x, w, b = rng.normal(size=(3, 4, 7)), rng.normal(size=(3, 3, 3)), rng.normal(size=3)
        got = ad.depthwise_conv2d(ad.constant(x), ad.constant(w), ad.constant(b)).value
        for c in range(3):
            want = conv2d_loop_oracle(x[c:c + 1], w[c].reshape(1, 1, 3, 3), b[c:c + 1])
            assert_rel_close(got[c], want[0])

    def test_depthwise_grad(self):
        rng = np.random.default_rng(14)
        inputs = {"x": rng.normal(size=(2, 4, 4)), "w": rng.normal(size=(2, 3, 3)),
                  "bias": rng.normal(size=2)}
        errors = input_grad_errors(ad.depthwise_conv2d, inputs, rng.normal(size=(2, 4, 4)))
        assert max(errors.values()) <= 1e-4, errors

    def test_depthwise_grads_match_loop_adjoint(self):
        rng = np.random.default_rng(16)
        x, w, b = rng.normal(size=(3, 5, 6)), rng.normal(size=(3, 3, 3)), rng.normal(size=3)
        g = rng.normal(size=x.shape)
        gx, gw, gb = conv_grads(ad.depthwise_conv2d, x, w, b, g)
        for c in range(3):
            want = conv2d_loop_adjoint(x[c:c + 1], w[c].reshape(1, 1, 3, 3), g[c:c + 1])
            assert_rel_close(gx[c], want[0][0])
            assert_rel_close(gw[c], want[1][0, 0])
            assert_rel_close(gb[c:c + 1], want[2])

    def test_upsample_values_and_grad(self):
        x = np.arange(4.0).reshape(1, 2, 2)
        out = ad.upsample_nearest2x(ad.constant(x)).value
        assert out.shape == (1, 4, 4)
        assert np.array_equal(out[0], [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]])

        rng = np.random.default_rng(15)
        proj = rng.normal(size=(1, 4, 4))

        def f(t):
            return total(ad.mul(ad.upsample_nearest2x(t), ad.constant(proj)))

        assert finite_diff_check(f, x) <= 1e-8

    def test_phi1_values_and_grad(self):
        z = np.array([-2.0, -1e-12, 0.5])
        out = ad.phi1(ad.constant(z)).value
        assert out[1] == pytest.approx(1.0)
        assert out[0] == pytest.approx(np.expm1(-2.0) / -2.0)

        rng = np.random.default_rng(16)
        proj = rng.normal(size=5)

        def f(t):
            return total(ad.mul(ad.phi1(t), ad.constant(proj)))

        theta = rng.uniform(0.1, 2.0, size=5) * np.sign(rng.normal(size=5))
        assert finite_diff_check(f, theta) <= 1e-4

    def test_div_grad(self):
        rng = np.random.default_rng(17)
        denom = rng.uniform(0.5, 2.0, size=6)
        proj = rng.normal(size=6)

        def f(t):
            return total(ad.mul(ad.div(ad.constant(proj), ad.add(t, ad.constant(denom))),
                                ad.constant(proj)))

        assert finite_diff_check(f, rng.uniform(0.1, 1.0, size=6)) <= 1e-4

    def test_softplus_exp_relu_grads(self):
        rng = np.random.default_rng(18)
        proj = rng.normal(size=8)
        for op in (ad.softplus, ad.exp, ad.relu, ad.gelu):
            def f(t, op=op):
                return total(ad.mul(op(t), ad.constant(proj)))
            theta = rng.normal(size=8) + 0.05  # keep clear of the relu kink
            assert finite_diff_check(f, theta) <= 1e-4

    def test_linear_scan_grads(self):
        rng = np.random.default_rng(19)
        nb, nstate = 2, 3
        for length in (1, 8, 19):
            abar = rng.uniform(0.1, 0.9, size=(nb, length, nstate))
            bx = rng.normal(size=(nb, length, nstate))
            cseq = rng.normal(size=(nb, length, nstate))
            proj = rng.normal(size=(nb, length))

            def wrap(target):
                def f(t):
                    args = {"abar": ad.constant(abar), "bx": ad.constant(bx),
                            "cseq": ad.constant(cseq)}
                    args[target] = t
                    return total(ad.mul(ad.linear_scan(args["abar"], args["bx"], args["cseq"]),
                                        ad.constant(proj)))
                return f

            assert finite_diff_check(wrap("abar"), abar) <= 1e-4
            assert finite_diff_check(wrap("bx"), bx) <= 1e-4
            assert finite_diff_check(wrap("cseq"), cseq) <= 1e-4

    def test_linear_scan_keeps_no_second_layout(self):
        # the tape keeps the states and the output, and no copy of abar or cseq
        rng = np.random.default_rng(20)
        shape = (8, 4096, 4)
        leaves = [ad.parameter(v) for v in (rng.uniform(0.1, 0.9, shape), rng.normal(size=shape),
                                            rng.normal(size=shape))]
        tracemalloc.start()
        try:
            out = ad.linear_scan(*leaves)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (kept - out.value.nbytes) / leaves[0].value.nbytes < 2.0

    # lengths around the 8-step chunks of the parallel scan: inside one chunk,
    # on and just past chunk edges, and many chunks with a ragged tail
    @pytest.mark.parametrize("nstate", [1, 4])
    @pytest.mark.parametrize("nb", [1, 3])
    @pytest.mark.parametrize("length", [1, 7, 8, 9, 63, 64, 65, 1000, 4099])
    def test_linear_scan_matches_loop(self, length, nb, nstate):
        rng = np.random.default_rng(length * 100 + nb * 10 + nstate)
        shape = (nb, length, nstate)
        regimes = {
            # near 0: products across a few chunks underflow to exactly 0
            "near0": np.exp(-rng.uniform(0.0, 40.0, size=shape)),
            "mid": rng.uniform(0.1, 0.9, size=shape),
            "near1": np.exp(-rng.uniform(0.0, 1e-3, size=shape)),
        }
        for name, abar in regimes.items():
            bx = rng.normal(size=shape)
            cseq = rng.normal(size=shape)
            proj = rng.normal(size=(nb, length))
            leaves = [ad.parameter(v) for v in (abar, bx, cseq)]
            out = ad.linear_scan(*leaves)
            ad.backward(total(ad.mul(out, ad.constant(proj))))
            got = [out.value] + [leaf.grad for leaf in leaves]
            for what, g, want in zip(("out", "abar", "bx", "cseq"), got,
                                     linear_scan_loop_oracle(abar, bx, cseq, proj)):
                err = np.abs(g - want).max() / max(1.0, np.abs(want).max())
                assert err <= 1e-12, f"{name} {what}: {err:.2e}"
