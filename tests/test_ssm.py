"""State-space primitive: discretization values, oracle equivalence,
stability, causality, and gradient checks."""

import re

import numpy as np
import pytest

from cassi_ssm import autodiff as ad
from cassi_ssm import ssm
from oracles import (
    continuous_response_check, discretize_zoh, finite_diff_check, naive_scan_oracle,
    selective_scan_oracle, total)

WEIGHTS = ("a_log", "w_b", "b_b", "w_c", "b_c", "w_dt", "b_dt", "d")
# softplus^-1 of the timescales 0.01 and 0.8
DT_LOW, DT_HIGH = np.log(np.expm1(0.01)), np.log(np.expm1(0.8))


def make_random_case(rng, length, nstate, nb=1):
    """Tokens and branch weights of `nb` channels: a = -exp(a_log) lies in
    [-4, -0.2], and the timescale bias spans softplus^-1 of [0.01, 0.8]."""
    return {
        "x": rng.normal(size=(nb, length)),
        "a_log": np.log(rng.uniform(0.2, 4.0, size=(nb, nstate))),
        **{g: rng.normal(size=(nb, nstate)) for g in ("w_b", "b_b", "w_c", "b_c")},
        "w_dt": rng.uniform(-1.0, 1.0, size=nb),
        "b_dt": rng.uniform(DT_LOW, DT_HIGH, size=nb),
        "d": rng.normal(size=nb),
    }


def scan(case):
    """selective_scan of a case's arrays, as constants."""
    return ssm.selective_scan(**{k: ad.constant(v) for k, v in case.items()}).value


def defect(case):
    """Largest deviation from the oracle, relative to max(1, |oracle|)."""
    want = selective_scan_oracle(**case)
    return np.abs(scan(case) - want).max() / max(1.0, np.abs(want).max())


def gradcheck_all_inputs(case):
    """finite_diff_check through each of the nine inputs of a random projection of y."""
    proj = np.random.default_rng(0).normal(size=case["x"].shape)

    def check(target):
        def f(t):
            nodes = {k: t if k == target else ad.constant(v) for k, v in case.items()}
            return total(ad.mul(ssm.selective_scan(**nodes), ad.constant(proj)))
        return finite_diff_check(f, case[target])

    return {target: check(target) for target in case}


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
        worst = 0.0
        for seed in range(100):
            r = np.random.default_rng(seed)
            length = int(r.integers(1, 257))
            nstate = int(r.integers(1, 17))
            worst = max(worst, defect(make_random_case(r, length, nstate)))
        assert worst <= 1e-12

    def test_matches_naive_oracle_long_sequence(self):
        assert defect(make_random_case(np.random.default_rng(2), 4096, 16)) <= 1e-12

    def test_matches_naive_oracle_cross_scan_length(self):
        # the 64x64x8 cross-cube scan: one sequence of 4096 eight-step chunks
        assert defect(make_random_case(np.random.default_rng(4), 32768, 4)) <= 1e-12

    # every branch of the 16x16x4 toy (base 8, one level, state 4): the spatial
    # and cross-cube scans at the full and at the half plane
    @pytest.mark.parametrize("nb,length", [(8, 256), (1, 2048), (16, 64), (1, 1024)],
                             ids=["8x256x4", "1x2048x4", "16x64x4", "1x1024x4"])
    def test_matches_naive_oracle_at_model_branch_shapes(self, nb, length):
        assert defect(make_random_case(np.random.default_rng(nb * length), length, 4, nb)) <= 1e-12

    def test_stability_bounded_over_1e5_steps(self):
        r = np.random.default_rng(3)
        length = 100_000
        # x in [-1, 1] maps the timescale onto [0.01, 0.5]
        low, high = np.log(np.expm1(0.01)), np.log(np.expm1(0.5))
        case = {
            "x": r.uniform(-1.0, 1.0, size=(1, length)),
            "a_log": np.log(np.arange(1.0, 5.0))[None],
            **{g: r.normal(size=(1, 4)) for g in ("w_b", "b_b", "w_c", "b_c")},
            "w_dt": np.array([(high - low) / 2]),
            "b_dt": np.array([(high + low) / 2]),
            "d": np.ones(1),
        }
        y = scan(case)
        assert np.isfinite(y).all()
        assert np.abs(y).max() < 1e6

    def test_causality(self):
        r = np.random.default_rng(4)
        case = make_random_case(r, 32, 4)
        base = scan(case)
        case["x"] = case["x"].copy()
        case["x"][0, 20:] += r.normal(size=12)
        bumped = scan(case)
        assert np.array_equal(base[0, :20], bumped[0, :20])
        assert not np.array_equal(base[0, 20:], bumped[0, 20:])

    def test_batched_equals_per_channel(self):
        case = make_random_case(np.random.default_rng(5), 40, 4, nb=3)
        batched = scan(case)
        for i in range(3):
            single = scan({k: v[i:i + 1] for k, v in case.items()})
            assert np.array_equal(batched[i], single[0])

    def test_shape_errors(self):
        case = make_random_case(np.random.default_rng(6), 8, 2, nb=3)
        # one channel too many, on each weight in turn
        for name in WEIGHTS:
            bad = dict(case, **{name: np.concatenate([case[name], case[name][:1]])})
            with pytest.raises(ValueError, match=f"^{name} shape"):
                scan(bad)
        with pytest.raises(ValueError, match=r"^w_b shape \(3, 3\) .* expected \[B,N\]"):
            scan(dict(case, w_b=np.ones((3, 3))))
        with pytest.raises(ValueError, match=r"^d shape \(\) .* expected \[B\]"):
            scan(dict(case, d=np.array(0.5)))

    # named before any [B,L,N] array is made, not left to surface as a shape
    # clash inside `mul` or as a wrong "state size"
    @pytest.mark.parametrize("shape", [(4, 2), (2,), (3, 2, 1)],
                             ids=["other-batch", "one-axis", "three-axes"])
    def test_misshaped_a_named_before_any_work(self, shape):
        case = make_random_case(np.random.default_rng(6), 5, 2, nb=3)
        with pytest.raises(ValueError, match=re.escape(
                f"a_log shape {shape} does not match x (3, 5): expected [B,N]")):
            scan(dict(case, a_log=np.zeros(shape)))

    def test_unbatched_input_rejected(self):
        case = make_random_case(np.random.default_rng(6), 8, 2)
        with pytest.raises(ValueError, match=r"\[B,L\]"):
            scan(dict(case, x=case["x"][0]))

    def test_gradcheck_all_inputs(self):
        errors = gradcheck_all_inputs(make_random_case(np.random.default_rng(7), 12, 3))
        assert sorted(errors) == sorted(("x",) + WEIGHTS)
        assert max(errors.values()) <= 1e-4

    def test_gradcheck_all_inputs_batched(self):
        errors = gradcheck_all_inputs(make_random_case(np.random.default_rng(9), 12, 3, nb=2))
        assert sorted(errors) == sorted(("x",) + WEIGHTS)
        assert max(errors.values()) <= 1e-4


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
