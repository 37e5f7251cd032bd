"""Sensing model tests: every operator is cross-checked against the dense
Phi matrix built by explicit enumeration."""

import re

import numpy as np
import pytest

from cassi_ssm import autodiff as ad
from cassi_ssm import cassi
from oracles import build_dense_phi, total


def random_operator(rng, h_max=8, w_max=8, b_max=4, d_choices=(0, 1, 2)):
    h = int(rng.integers(1, h_max + 1))
    w = int(rng.integers(1, w_max + 1))
    nb = int(rng.integers(1, b_max + 1))
    d = int(rng.choice(d_choices))
    mask = rng.random((h, w))
    return cassi.SensingOperator(mask, d, nb)


class TestOperatorShape:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_side_refused(self, shape):
        message = f"mask must be 2-D with both sides >= 1, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cassi.SensingOperator(np.ones(shape), 1, 2)

    def test_three_axes_refused(self):
        with pytest.raises(ValueError, match="mask must be 2-D"):
            cassi.SensingOperator(np.ones((2, 2, 2)), 1, 2)


class TestForwardProject:
    def test_zero_cube(self):
        op = cassi.SensingOperator(np.ones((3, 4)), 2, 3)
        meas = cassi.forward_project(np.zeros((3, 3, 4)), op)
        assert meas.shape == (3, 4 + 2 * 2)
        assert not meas.any()

    def test_measurement_width(self):
        op = cassi.SensingOperator(np.ones((2, 3)), 2, 3)
        meas = cassi.forward_project(np.zeros((3, 2, 3)), op)
        assert meas.shape == (2, 7)

    def test_single_impulse_traces_to_shifted_column(self):
        op = cassi.SensingOperator(np.ones((2, 3)), 2, 3)
        cube = np.zeros((3, 2, 3))
        k, v = 2, 1.75
        cube[k, 0, 0] = v
        meas = cassi.forward_project(cube, op)
        want = np.zeros((2, 7))
        want[0, op.shift_step * k] = v
        assert np.array_equal(meas, want)

    def test_matches_dense_phi(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            op = random_operator(rng, h_max=5, w_max=5, b_max=3)
            cube = rng.random((op.bands, op.height, op.width))
            direct = cassi.forward_project(cube, op)
            dense = (build_dense_phi(op) @ cube.ravel()).reshape(direct.shape)
            assert np.abs(direct - dense).max() <= 1e-12

    def test_dimension_mismatch(self):
        op = cassi.SensingOperator(np.ones((2, 3)), 1, 2)
        with pytest.raises(ValueError, match="does not match"):
            cassi.forward_project(np.zeros((2, 3, 3)), op)


class TestAdjointProject:
    def test_zero_measurement(self):
        op = cassi.SensingOperator(np.ones((2, 2)), 1, 2)
        cube = cassi.adjoint_project(np.zeros((2, 3)), op)
        assert cube.shape == (2, 2, 2) and not cube.any()

    def test_identity_case(self):
        op = cassi.SensingOperator(np.ones((3, 3)), 0, 1)
        meas = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(cassi.adjoint_project(meas, op)[0], meas)

    def test_inner_product_identity(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            op = random_operator(rng)
            x = rng.normal(size=(op.bands, op.height, op.width))
            y = rng.normal(size=(op.height, op.detector_width))
            lhs = float(np.sum(cassi.forward_project(x, op) * y))
            rhs = float(np.sum(x * cassi.adjoint_project(y, op)))
            denom = np.linalg.norm(x) * np.linalg.norm(y)
            worst = max(worst, abs(lhs - rhs) / denom)
        assert worst <= 1e-10

    def test_matches_dense_phi_transpose(self):
        rng = np.random.default_rng(2)
        op = random_operator(rng, h_max=4, w_max=4, b_max=3)
        y = rng.normal(size=(op.height, op.detector_width))
        direct = cassi.adjoint_project(y, op)
        dense = (build_dense_phi(op).T @ y.ravel()).reshape(direct.shape)
        assert np.abs(direct - dense).max() <= 1e-12


class TestShiftBack:
    def test_identity_when_unsheared(self):
        op = cassi.SensingOperator(np.full((2, 3), 0.5), 0, 1)
        meas = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(cassi.shift_back(meas, op)[0], meas)

    def test_inverts_single_impulse(self):
        op = cassi.SensingOperator(np.ones((2, 3)), 2, 3)
        cube = np.zeros((3, 2, 3))
        cube[2, 0, 0] = 4.0
        back = cassi.shift_back(cassi.forward_project(cube, op), op)
        assert back[2, 0, 0] == 4.0

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(3)
        op = cassi.SensingOperator(rng.random((3, 4)), 2, 3)
        meas = rng.normal(size=(3, 4 + 2 * 2))
        got = cassi.shift_back(meas, op)
        for b in range(op.bands):
            for r in range(op.height):
                for x in range(op.width):
                    assert got[b, r, x] == meas[r, x + op.shift_step * b]

    def test_band_content_recovered_when_bands_disjoint(self):
        # d >= W keeps band footprints disjoint on the detector
        rng = np.random.default_rng(4)
        op = cassi.SensingOperator(np.ones((3, 3)), 3, 3)
        cube = rng.random((3, 3, 3))
        back = cassi.shift_back(cassi.forward_project(cube, op), op)
        assert np.abs(back - cube).max() <= 1e-15


class TestPhiDiag:
    def test_spec_fixture(self):
        op = cassi.SensingOperator(np.ones((1, 2)), 1, 2)
        assert cassi.phi_diag(op).tolist() == [[1.0, 2.0, 1.0]]

    def test_single_band_is_squared_mask(self):
        rng = np.random.default_rng(5)
        mask = rng.random((3, 4))
        op = cassi.SensingOperator(mask, 0, 1)
        assert np.allclose(cassi.phi_diag(op), mask * mask)

    def test_zero_mask(self):
        op = cassi.SensingOperator(np.zeros((2, 2)), 1, 3)
        assert not cassi.phi_diag(op).any()

    def test_matches_dense_diagonal_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            op = random_operator(rng, h_max=5, w_max=5, b_max=4)
            phi = build_dense_phi(op)
            gram = phi @ phi.T
            assert np.abs(cassi.phi_diag(op).ravel() - np.diag(gram)).max() <= 1e-12

    def test_gram_is_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            op = random_operator(rng, h_max=5, w_max=5, b_max=4)
            gram = build_dense_phi(op) @ build_dense_phi(op).T
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() == 0.0


class TestDensePhi:
    def test_identity_operator(self):
        op = cassi.SensingOperator(np.ones((2, 2)), 0, 1)
        assert np.array_equal(build_dense_phi(op), np.eye(4))

    def test_binary_mask_row_sums(self):
        rng = np.random.default_rng(8)
        mask = (rng.random((3, 3)) < 0.5).astype(float)
        op = cassi.SensingOperator(mask, 1, 2)
        phi = build_dense_phi(op)
        # each detector pixel row sums the mask entries mapped onto it
        for r in range(op.height):
            for col in range(op.detector_width):
                expect = 0.0
                for b in range(op.bands):
                    x = col - b * op.shift_step
                    if 0 <= x < op.width:
                        expect += mask[r, x]
                assert phi[r * op.detector_width + col].sum() == expect

    def test_scale_guard(self):
        op = cassi.SensingOperator(np.ones((40, 40)), 1, 4)
        with pytest.raises(ValueError, match="dense oracle"):
            build_dense_phi(op)


class TestShotNoise:
    def test_zero_measurement(self):
        out = cassi.add_shot_noise(np.zeros((4, 4)), 11, seed=1)
        assert not out.any()

    def test_determinism(self):
        meas = np.random.default_rng(9).random((8, 8))
        a = cassi.add_shot_noise(meas, 11, seed=42)
        b = cassi.add_shot_noise(meas, 11, seed=42)
        assert np.array_equal(a, b)

    def test_poisson_variance_at_count_scale(self):
        meas = np.ones((128, 128))  # 16384 pixels
        noisy = cassi.add_shot_noise(meas, 11, seed=3)
        assert noisy.mean() == pytest.approx(1.0, abs=3.0 / np.sqrt(2047 * meas.size))
        var = noisy.var()
        assert abs(var - 1.0 / 2047) <= 0.2 / 2047

    def test_mean_preserved_over_repeats(self):
        rng = np.random.default_rng(10)
        meas = rng.uniform(0.2, 1.0, size=(5, 5))
        draws = np.stack([cassi.add_shot_noise(meas, 8, seed=s) for s in range(10_000)])
        gain = (2 ** 8 - 1) / meas.max()
        sigma = np.sqrt(meas / gain / 10_000)  # std of the empirical mean
        assert (np.abs(draws.mean(axis=0) - meas) <= 3 * sigma + 1e-12).all()

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cassi.add_shot_noise(np.array([[-0.1]]), 11, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_values_rejected(self, bad):
        meas = np.ones((3, 3))
        meas[1, 2] = bad
        with pytest.raises(ValueError, match="measurement must be finite for shot noise"):
            cassi.add_shot_noise(meas, 11, seed=0)

    def test_bits_range(self):
        with pytest.raises(ValueError, match=r"bit depth must lie in \[0, 16\]"):
            cassi.add_shot_noise(np.ones((2, 2)), 17, seed=0)
        meas = np.random.default_rng(11).random((3, 5))
        assert np.array_equal(cassi.add_shot_noise(meas, 0, seed=0), meas)

    @pytest.mark.parametrize("seed", [True, 1.5, 2.0, -1],
                             ids=["bool", "float", "integral-float", "negative"])
    def test_seed_follows_integer_rule(self, seed):
        with pytest.raises(ValueError, match="noise seed must be"):
            cassi.add_shot_noise(np.ones((2, 2)), 8, seed)


class TestDifferentiableWrappers:
    def test_forward_backward_is_adjoint(self):
        rng = np.random.default_rng(11)
        op = random_operator(rng)
        x = ad.parameter(rng.normal(size=(op.bands, op.height, op.width)))
        proj = rng.normal(size=(op.height, op.detector_width))
        loss = total(ad.mul(cassi.forward_project_node(x, op), ad.constant(proj)))
        ad.backward(loss)
        assert np.allclose(x.grad, cassi.adjoint_project(proj, op))

    def test_adjoint_backward_is_forward(self):
        rng = np.random.default_rng(12)
        op = random_operator(rng)
        y = ad.parameter(rng.normal(size=(op.height, op.detector_width)))
        proj = rng.normal(size=(op.bands, op.height, op.width))
        loss = total(ad.mul(cassi.adjoint_project_node(y, op), ad.constant(proj)))
        ad.backward(loss)
        assert np.allclose(y.grad, cassi.forward_project(proj, op))
