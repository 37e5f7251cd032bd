"""State-space primitive: discretization values, oracle equivalence,
stability, causality, and gradient checks."""

import numpy as np
import pytest

from cassi_ssm import autodiff as ad
from cassi_ssm import ssm
from oracles import (
    continuous_response_check, discretize_zoh, finite_diff_check, naive_scan_oracle, total)


def make_random_case(rng, length, nstate):
    x = rng.normal(size=length)
    a = -rng.uniform(0.2, 4.0, size=nstate)
    b = rng.normal(size=(length, nstate))
    c = rng.normal(size=(length, nstate))
    delta = rng.uniform(0.01, 0.8, size=length)
    d = float(rng.normal())
    return x, a, b, c, delta, d


def scan_one(x, a, b, c, delta, d):
    """selective_scan of one sequence, run as a batch of one."""
    return ssm.selective_scan(*(ad.constant(v) for v in (
        x[None], a[None], b[None], c[None], delta[None], np.array([d])))).value[0]


class TestDiscretizeZoh:
    def test_frozen_reference_values(self):
        # closed form at A=-1, B=1, delta=0.1:
        # abar = e^-0.1, bbar = (1 - e^-0.1)
        abar, bbar = discretize_zoh(-1.0, 1.0, 0.1)
        assert abar == pytest.approx(0.904837418, abs=1e-9)
        assert bbar == pytest.approx(0.0951625820, abs=1e-9)

    def test_small_argument_limit(self):
        _, bbar = discretize_zoh(-1.0, 3.0, 1e-12)
        assert bbar == pytest.approx(3.0 * 1e-12, rel=1e-9)

    def test_half_life(self):
        abar, _ = discretize_zoh(-1.0, 1.0, float(np.log(2.0)))
        assert abar == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError, match="delta"):
            discretize_zoh(-1.0, 1.0, 0.0)

    def test_discrete_transition_in_unit_interval(self):
        rng = np.random.default_rng(0)
        a = -rng.uniform(0.01, 5.0, size=50)
        delta = rng.uniform(1e-3, 2.0, size=50)
        abar, _ = discretize_zoh(a, np.ones(50), delta)
        assert ((abar > 0) & (abar < 1)).all()


class TestNaiveOracle:
    def test_zero_input(self):
        y = naive_scan_oracle(np.zeros(5), np.full((5, 2), 0.5), np.ones((5, 2)),
                              np.ones((5, 2)), 1.0)
        assert not y.any()

    def test_single_step(self):
        x = np.array([2.0])
        abar = np.array([[0.3, 0.6]])
        bbar = np.array([[0.5, 0.25]])
        c = np.array([[1.0, 2.0]])
        d = 0.5
        y = naive_scan_oracle(x, abar, bbar, c, d)
        assert y[0] == pytest.approx(float(c[0] @ (bbar[0] * x[0])) + d * x[0])

    def test_unrolled_impulse(self):
        y = naive_scan_oracle([1.0, 0.0, 0.0], np.full((3, 1), 0.5),
                              np.ones((3, 1)), np.ones((3, 1)), 0.0)
        assert np.allclose(y, [1.0, 0.5, 0.25])

    def test_skip_path(self):
        y = naive_scan_oracle([1.0, 0.0, 0.0], np.full((3, 1), 0.5),
                              np.ones((3, 1)), np.ones((3, 1)), 1.0)
        assert np.allclose(y, [2.0, 0.5, 0.25])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            naive_scan_oracle(np.zeros(3), np.zeros((4, 1)), np.zeros((4, 1)),
                              np.zeros((4, 1)), 0.0)


class TestSelectiveScan:
    def test_matches_naive_oracle_randomized(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for seed in range(100):
            r = np.random.default_rng(seed)
            length = int(r.integers(1, 257))
            nstate = int(r.integers(1, 17))
            x, a, b, c, delta, d = make_random_case(r, length, nstate)
            got = scan_one(x, a, b, c, delta, d)
            abar, bbar = discretize_zoh(a[None, :], b, delta[:, None])
            want = naive_scan_oracle(x, abar, bbar, c, d)
            scale = max(1.0, np.abs(want).max())
            worst = max(worst, np.abs(got - want).max() / scale)
        assert worst <= 1e-12

    def test_matches_naive_oracle_long_sequence(self):
        r = np.random.default_rng(2)
        x, a, b, c, delta, d = make_random_case(r, 4096, 16)
        got = scan_one(x, a, b, c, delta, d)
        abar, bbar = discretize_zoh(a[None, :], b, delta[:, None])
        want = naive_scan_oracle(x, abar, bbar, c, d)
        assert np.abs(got - want).max() / max(1.0, np.abs(want).max()) <= 1e-12

    def test_matches_naive_oracle_cross_scan_length(self):
        # the 64x64x8 cross-cube scan: one sequence of 4096 eight-step chunks
        r = np.random.default_rng(4)
        x, a, b, c, delta, d = make_random_case(r, 32768, 4)
        got = scan_one(x, a, b, c, delta, d)
        abar, bbar = discretize_zoh(a[None, :], b, delta[:, None])
        want = naive_scan_oracle(x, abar, bbar, c, d)
        assert np.abs(got - want).max() / max(1.0, np.abs(want).max()) <= 1e-12

    def test_stability_bounded_over_1e5_steps(self):
        r = np.random.default_rng(3)
        length = 100_000
        x = r.uniform(-1.0, 1.0, size=length)
        a = -np.arange(1.0, 5.0)
        b = r.normal(size=(length, 4))
        c = r.normal(size=(length, 4))
        delta = r.uniform(0.01, 0.5, size=length)
        y = scan_one(x, a, b, c, delta, 1.0)
        assert np.isfinite(y).all()
        assert np.abs(y).max() < 1e6

    def test_causality(self):
        r = np.random.default_rng(4)
        x, a, b, c, delta, d = make_random_case(r, 32, 4)
        base = scan_one(x, a, b, c, delta, d)
        x2 = x.copy()
        x2[20:] += r.normal(size=12)
        bumped = scan_one(x2, a, b, c, delta, d)
        assert np.array_equal(base[:20], bumped[:20])
        assert not np.array_equal(base[20:], bumped[20:])

    def test_batched_equals_per_channel(self):
        r = np.random.default_rng(5)
        nb, length, nstate = 3, 40, 4
        x = r.normal(size=(nb, length))
        a = -r.uniform(0.5, 3.0, size=(nb, nstate))
        b = r.normal(size=(nb, length, nstate))
        c = r.normal(size=(nb, length, nstate))
        delta = r.uniform(0.05, 0.5, size=(nb, length))
        d = r.normal(size=nb)
        batched = ssm.selective_scan(*map(ad.constant, (x, a, b, c, delta, d))).value
        for i in range(nb):
            one = slice(i, i + 1)
            single = ssm.selective_scan(*(ad.constant(v[one])
                                          for v in (x, a, b, c, delta, d))).value
            assert np.array_equal(batched[i], single[0])

    def test_shape_errors(self):
        r = np.random.default_rng(6)
        x, a, b, c, delta, d = (np.asarray(v)[None] for v in make_random_case(r, 8, 2))
        with pytest.raises(ValueError, match="do not match"):
            ssm.selective_scan(*map(ad.constant, (x, a, b[:, :4], c, delta, d)))
        with pytest.raises(ValueError, match="delta"):
            ssm.selective_scan(*map(ad.constant, (x, a, b, c, delta[:, :4], d)))
        with pytest.raises(ValueError, match="skip gain"):
            ssm.selective_scan(*map(ad.constant, (x, a, b, c, delta, 0.5)))

    def test_unbatched_input_rejected(self):
        r = np.random.default_rng(6)
        x, a, b, c, delta, d = make_random_case(r, 8, 2)
        with pytest.raises(ValueError, match=r"\[B,L\]"):
            ssm.selective_scan(*map(ad.constant, (x, a, b, c, delta, d)))

    def test_gradcheck_all_inputs(self):
        r = np.random.default_rng(7)
        length, nstate = 12, 3
        x, a, b, c, delta, d = (np.asarray(v)[None] for v in make_random_case(r, length, nstate))
        proj = r.normal(size=(1, length))

        def check(target, theta):
            def f(t):
                vals = {"x": ad.constant(x), "a": ad.constant(a), "b": ad.constant(b),
                        "c": ad.constant(c), "delta": ad.constant(delta),
                        "d": ad.constant(d)}
                vals[target] = t
                y = ssm.selective_scan(vals["x"], vals["a"], vals["b"], vals["c"],
                                       vals["delta"], vals["d"])
                return total(ad.mul(y, ad.constant(proj)))
            return finite_diff_check(f, theta)

        assert check("x", x) <= 1e-4
        assert check("b", b) <= 1e-4
        assert check("c", c) <= 1e-4
        assert check("delta", delta) <= 1e-4
        assert check("a", a) <= 1e-4
        assert check("d", d) <= 1e-4


class TestContinuousResponse:
    def test_zero_input(self):
        dev = continuous_response_check(np.array([-1.0]), np.array([1.0]),
                                        np.array([1.0]), 0.0, u=0.0, delta=0.3, steps=8)
        assert dev == 0.0

    def test_reference_case(self):
        dev = continuous_response_check(np.array([-1.0]), np.array([1.0]),
                                        np.array([1.0]), 0.0, u=1.0, delta=0.25, steps=16)
        assert dev <= 1e-9

    def test_exactness_is_delta_independent(self):
        a = np.array([-0.7, -2.3])
        b = np.array([1.1, -0.4])
        c = np.array([0.5, 2.0])
        for delta in (0.25, 0.5, 1.0):
            dev = continuous_response_check(a, b, c, 0.3, u=0.8, delta=delta, steps=16)
            assert dev <= 1e-9

    def test_multi_state_random(self):
        rng = np.random.default_rng(8)
        a = -rng.uniform(0.2, 3.0, size=6)
        b = rng.normal(size=6)
        c = rng.normal(size=6)
        dev = continuous_response_check(a, b, c, 0.0, u=1.5, delta=0.1, steps=50)
        assert dev <= 1e-9
