"""Unfolding loop: stage parameters, the closed-form data step against the
dense linear solve, and reconstruction replay oracles."""

import numpy as np
import pytest

from cassi_ssm import autodiff as ad
from cassi_ssm import cassi, training, unfolding
from cassi_ssm.denoiser import UNetConfig
from oracles import dense_oracle_data_step, finite_diff_check, total

TINY = UNetConfig(bands=2, base_channels=4, levels=1, blocks_per_level=1,
                  patch=2, cube=(1, 1, 2), state_size=2, expansion=1)


def make_instance(seed, h=4, w=5, bands=3, d=2):
    rng = np.random.default_rng(seed)
    op = cassi.SensingOperator(rng.random((h, w)), d, bands)
    z = rng.random((bands, h, w))
    y = rng.random((h, op.detector_width))
    return op, z, y


class TestStageScalars:
    def test_documented_initialization(self):
        cfg = unfolding.UnfoldConfig(stages=3, net=TINY)
        w = unfolding.init_weights(cfg, seed=0)
        for k in range(3):
            assert float(ad.softplus(w[f"est/alpha_raw{k}"]).value) == pytest.approx(1.0, abs=1e-12)
            assert float(ad.softplus(w[f"est/beta_raw{k}"]).value) == pytest.approx(0.1, abs=1e-12)

    def test_softplus_stays_positive(self):
        raw = np.array([-80.0, -50.0, 0.0, 1.0, 2.0, 50.0])
        assert (ad.softplus(ad.constant(raw)).value > 0).all()


class TestDataStep:
    def test_identity_operator_case(self):
        # Phi = I: x = z + (y - z) / (1 + mu) -> with z=0, y=2, mu=1: x=1
        op = cassi.SensingOperator(np.ones((1, 1)), 0, 1)
        x = unfolding.data_step(np.zeros((1, 1, 1)), np.full((1, 1), 2.0), op, 1.0)
        assert x[0, 0, 0] == pytest.approx(1.0)

    def test_fixed_point_when_consistent(self):
        rng = np.random.default_rng(0)
        op = cassi.SensingOperator(rng.random((3, 4)), 1, 2)
        z = rng.random((2, 3, 4))
        y = cassi.forward_project(z, op)
        x = unfolding.data_step(z, y, op, 0.5)
        assert np.abs(x - z).max() <= 1e-12

    @pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
    def test_matches_dense_oracle(self, mu):
        worst = 0.0
        for seed in range(100):
            op, z, y = make_instance(seed)
            got = unfolding.data_step(z, y, op, mu)
            want = dense_oracle_data_step(z, y, op, mu)
            worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
        assert worst <= 1e-8

    def test_rejects_nonpositive_mu(self):
        op, z, y = make_instance(1)
        with pytest.raises(ValueError, match="positive"):
            unfolding.data_step(z, y, op, 0.0)

    def test_mu_gradient_flows(self):
        op, z, y = make_instance(2)
        mu = ad.parameter(np.asarray(0.7))
        out = unfolding.data_step_node(ad.constant(z), y, op, mu)
        ad.backward(total(out))
        assert mu.grad is not None and float(mu.grad) != 0.0

    def test_gradcheck_wrt_z(self):
        op, z, y = make_instance(3)
        rng = np.random.default_rng(3)
        proj = rng.normal(size=z.shape)

        def f(t):
            return total(ad.mul(unfolding.data_step_node(t, y, op, ad.constant(0.8)),
                                ad.constant(proj)))

        assert finite_diff_check(f, z) <= 1e-4


class TestDenseOracle:
    def test_identity_operator_average(self):
        op = cassi.SensingOperator(np.ones((2, 2)), 0, 1)
        z = np.full((1, 2, 2), 0.4)
        y = np.full((2, 2), 0.8)
        x = dense_oracle_data_step(z, y, op, 1.0)
        assert np.allclose(x, (0.8 + 0.4) / 2.0)

    def test_large_mu_returns_prior(self):
        op, z, y = make_instance(4)
        mu = 1e8
        x = dense_oracle_data_step(z, y, op, mu)
        residual = cassi.adjoint_project(y - cassi.forward_project(z, op), op)
        assert np.abs(x - z).max() <= np.linalg.norm(residual) / mu + 1e-12

    def test_scale_guard(self):
        op = cassi.SensingOperator(np.ones((40, 40)), 1, 3)
        with pytest.raises(ValueError, match="dense oracle"):
            dense_oracle_data_step(np.zeros((3, 40, 40)),
                                   np.zeros((40, 40 + 2)), op, 1.0)


class TestReconstruct:
    def test_zero_residual_denoiser_replays_data_steps(self):
        cfg = unfolding.UnfoldConfig(stages=3, net=TINY, share_weights=True)
        weights = unfolding.init_weights(cfg, seed=1, zero_residual=True)
        rng = np.random.default_rng(6)
        op = cassi.SensingOperator((rng.random((8, 8)) < 0.5).astype(float), 2, 2)
        cube = rng.random((2, 8, 8))
        y = cassi.forward_project(cube, op)

        got = unfolding.reconstruct(y, op, weights, cfg)

        # hand-rolled replay: shift-back then K pure data steps at mu=1
        z = cassi.shift_back(y, op)
        for _ in range(cfg.stages):
            z = unfolding.data_step(z, y, op, 1.0)
        z = np.maximum(z, 0.0)
        assert np.array_equal(got, z)

    def test_residual_norm_non_increasing_under_identity_denoiser(self):
        cfg = unfolding.UnfoldConfig(stages=6, net=TINY, share_weights=True)
        rng = np.random.default_rng(7)
        op = cassi.SensingOperator(rng.random((8, 8)), 2, 2)
        cube = rng.random((2, 8, 8))
        y = cassi.forward_project(cube, op) + 0.05 * rng.normal(size=(8, op.detector_width))

        z = cassi.shift_back(y, op)
        norms = [np.linalg.norm(y - cassi.forward_project(z, op))]
        for _ in range(cfg.stages):
            z = unfolding.data_step(z, y, op, 1.0)
            norms.append(np.linalg.norm(y - cassi.forward_project(z, op)))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_deterministic(self):
        cfg = unfolding.UnfoldConfig(stages=2, net=TINY)
        weights = unfolding.init_weights(cfg, seed=2, zero_residual=False)
        rng = np.random.default_rng(8)
        op = cassi.SensingOperator(rng.random((8, 8)), 2, 2)
        y = rng.random((8, op.detector_width))
        a = unfolding.reconstruct(y, op, weights, cfg)
        b = unfolding.reconstruct(y, op, weights, cfg)
        assert np.array_equal(a, b)

    def test_output_nonnegative(self):
        cfg = unfolding.UnfoldConfig(stages=2, net=TINY)
        weights = unfolding.init_weights(cfg, seed=3, zero_residual=False)
        rng = np.random.default_rng(9)
        op = cassi.SensingOperator(rng.random((8, 8)), 2, 2)
        y = rng.random((8, op.detector_width))
        assert unfolding.reconstruct(y, op, weights, cfg).min() >= 0.0

    def test_per_stage_weights_mode(self):
        cfg = unfolding.UnfoldConfig(stages=2, net=TINY, share_weights=False)
        weights = unfolding.init_weights(cfg, seed=4, zero_residual=False)
        arrays = weights.arrays()
        assert "stage0/out/w" in arrays and "stage1/out/w" in arrays
        rng = np.random.default_rng(10)
        op = cassi.SensingOperator(rng.random((8, 8)), 2, 2)
        y = rng.random((8, op.detector_width))
        out = unfolding.reconstruct(y, op, weights, cfg)
        assert out.shape == (2, 8, 8)

    def test_stage_count_validation(self):
        with pytest.raises(ValueError, match="stage count"):
            unfolding.UnfoldConfig(stages=-1, net=TINY)

    def test_zero_stages_rejected(self):
        with pytest.raises(ValueError, match="stage count must be >= 1"):
            unfolding.UnfoldConfig(stages=0, net=TINY)


class TestFrozenView:
    """`reconstruct` runs on the constants view and matches the kept tape."""

    @pytest.mark.parametrize("share, masked", [(True, False), (False, False), (True, True)],
                             ids=["shared", "per-stage", "feature-mask"])
    def test_view_matches_the_kept_tape(self, share, masked):
        cfg = unfolding.UnfoldConfig(stages=2, net=TINY, share_weights=share)
        weights = unfolding.init_weights(cfg, seed=5, zero_residual=False)
        rng = np.random.default_rng(11)
        op = cassi.SensingOperator(rng.random((8, 8)), 2, 2)
        y = rng.random((8, op.detector_width))
        mask = training.generate_mask(8, 8, 0.5, 3) if masked else None

        view = weights.frozen()
        for name, node in weights.items():
            assert np.shares_memory(view[name].value, node.value), name
        taped = unfolding.reconstruct_node(y, op, weights, cfg, feature_mask=mask)
        free = unfolding.reconstruct_node(y, op, view, cfg, feature_mask=mask)
        assert taped.requires_grad and not free.requires_grad
        assert np.array_equal(free.value, taped.value)
        assert np.array_equal(unfolding.reconstruct(y, op, weights, cfg, feature_mask=mask),
                              taped.value)
        ad.backward(total(free))
        assert all(node.grad is None for _, node in weights.items())


class TestWeightsInit:
    def test_deterministic_under_seed(self):
        cfg = unfolding.UnfoldConfig(stages=3, net=TINY)
        a = unfolding.init_weights(cfg, seed=11)
        b = unfolding.init_weights(cfg, seed=11)
        for name, node in a.items():
            assert np.array_equal(node.value, b[name].value)

    def test_estimation_scalars_present_per_stage(self):
        cfg = unfolding.UnfoldConfig(stages=3, net=TINY)
        arrays = unfolding.init_weights(cfg, seed=12).arrays()
        for k in range(3):
            assert f"est/alpha_raw{k}" in arrays and f"est/beta_raw{k}" in arrays

    @pytest.mark.parametrize("seed", [True, 2.5, 3.0, -1],
                             ids=["bool", "float", "integral-float", "negative"])
    def test_seed_follows_integer_rule(self, seed):
        cfg = unfolding.UnfoldConfig(stages=1, net=TINY)
        with pytest.raises(ValueError, match="seed must be"):
            unfolding.init_weights(cfg, seed)

    def test_integer_seed_spellings_agree(self):
        cfg = unfolding.UnfoldConfig(stages=1, net=TINY)
        want = unfolding.init_weights(cfg, 3).arrays()
        for seed in ("3", np.int64(3)):
            got = unfolding.init_weights(cfg, seed).arrays()
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[name], want[name]) for name in want)
