"""Unfolding loop: stage parameters, the closed-form data step against the
dense linear solve, and reconstruction replay oracles."""

import dataclasses
import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from cassi_ssm import autodiff as ad
from cassi_ssm import cassi, training, unfolding
from cassi_ssm.denoiser import ModelWeights, UNetConfig
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


    # sha256 over the sorted (name, float64 bytes) of a K=3 model: a draw that
    # `tensor_layout` reorders or rescales changes its pin
    DRAW_PINS = {
        ("tiny", True, True, 0): "b0d8a76d26c9b7c4ae18b3fdc7a5ea92e9aec36a8ce6266887cbe9dd8a876d3f",
        ("tiny", True, True, 23): "af65fed1deaa35ebe912a3cc55f3fb6e8a946c3467cb05f1de778a73eb4066c1",
        ("tiny", True, False, 0): "cbc02a25082329726d52193ae49bb3b4bff12cbf07bd0e7c29d400a45e1346b0",
        ("tiny", True, False, 23): "28eb48a4c06dc491879c09a60e80f0d355e7432788279d0a2cc619180a32f18e",
        ("tiny", False, True, 0): "390ea1a331f39ede208041e8175089adf58b9824b46d55e821f2593721c24ba1",
        ("tiny", False, True, 23): "326dd45ef899cfce91c61c42fc91374dbd41d36cb8d7b0246e9dfa50f066dbcf",
        ("tiny", False, False, 0): "bdb6a4cfcd7202506486d6a8cb70ed0a26240d916b3647eb0c1eefc3a46e6c56",
        ("tiny", False, False, 23): "a31d3157522643fc87c24631623f4aa12440b290a0234504a7e88a1dc30de9db",
        ("default", True, True, 0): "abcb050c978e5816e10256ec764f03f334d8bcd98b367da5514e1b8c7289387a",
        ("default", True, True, 23): "f5c341cfd2e57907f03b00d4627151d1ebd6282b03cb4f89c116066b754f95ce",
        ("default", True, False, 0): "65ce0e8553f64a77a9147cdf2e96a499c6c6fe2f78c015a8a8f2620413d368b9",
        ("default", True, False, 23): "27e76184874959328b85e513becab7e4222ed320b6be5f585555066e402d87c7",
        ("default", False, True, 0): "a6b74634f81b536979ed4ba176ffc3c407b231cb5cc9109b2434f67afb557f90",
        ("default", False, True, 23): "7eab35ef9a3165a98118ba4bbd67c38c984fbd4efaa252b5b2e8af3b43e9192a",
        ("default", False, False, 0): "2d3420997f9e931874ba6d3be24746f2db5ca1807ef7c1130df2b55ae1983f86",
        ("default", False, False, 23): "c6e5ebcf87bcd4107952b3b0f1ec97231fe802498208eb023480c173ec5d83fa",
    }

    @pytest.mark.parametrize("profile,share,zero_residual,seed", sorted(DRAW_PINS))
    def test_draws_pinned(self, profile, share, zero_residual, seed):
        net = TINY if profile == "tiny" else UNetConfig(bands=28)
        cfg = unfolding.UnfoldConfig(stages=3, net=net, share_weights=share)
        arrays = unfolding.init_weights(cfg, seed, zero_residual).arrays()
        digest = hashlib.sha256()
        for name in sorted(arrays):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())
        assert digest.hexdigest() == self.DRAW_PINS[profile, share, zero_residual, seed]


class TestLoadModel:
    """A checkpoint's tensors become its model; re-staging touches only stage scalars."""

    def stored(self, share=True):
        # shifted off the initialization, so a kept scalar tells from an added one
        cfg = unfolding.UnfoldConfig(stages=3, net=TINY, share_weights=share)
        arrays = unfolding.init_weights(cfg, seed=6, zero_residual=False).arrays()
        return cfg, {name: value + 0.25 for name, value in arrays.items()}

    @pytest.mark.parametrize("stages", [None, 3])
    def test_stored_count_loads_every_tensor(self, stages):
        cfg, arrays = self.stored()
        weights, config = unfolding.load_model(cfg, arrays, stages)
        assert config == cfg
        assert weights.arrays().keys() == arrays.keys()
        assert all(np.array_equal(weights[name].value, arrays[name]) for name in arrays)

    @pytest.mark.parametrize("stages", [2, 4])
    def test_restaging_drops_or_adds_exactly_the_stage_scalars(self, stages):
        cfg, arrays = self.stored()
        weights, config = unfolding.load_model(cfg, arrays, stages)
        assert config == unfolding.UnfoldConfig(stages=stages, net=TINY)
        dropped = unfolding.stage_scalars(2) if stages == 2 else {}
        added = unfolding.stage_scalars(3) if stages == 4 else {}
        kept = {name: value for name, value in arrays.items() if name not in dropped}
        assert weights.arrays().keys() == kept.keys() | added.keys()
        for name, value in {**kept, **added}.items():
            assert np.array_equal(weights[name].value, value)

    def test_per_stage_model_not_restaged(self):
        cfg, arrays = self.stored(share=False)
        with pytest.raises(ValueError, match="^--stages can only override shared-weights models$"):
            unfolding.load_model(cfg, arrays, 2)
        weights, _ = unfolding.load_model(cfg, arrays, 3)
        assert weights.arrays().keys() == arrays.keys()

    @pytest.mark.parametrize("stages", [3.0, True], ids=["integral-float", "bool"])
    def test_stage_count_follows_integer_rule(self, stages):
        cfg, arrays = self.stored()
        with pytest.raises(ValueError, match="^stage count must be an integer, got "):
            unfolding.load_model(cfg, arrays, stages)

    def test_stage_count_text_restages(self):
        cfg, arrays = self.stored()
        weights, config = unfolding.load_model(cfg, arrays, "2")
        assert config == unfolding.UnfoldConfig(stages=2, net=TINY)
        assert weights.arrays().keys() == arrays.keys() - unfolding.stage_scalars(2).keys()

    def test_builds_from_the_file_drawing_nothing(self, monkeypatch):
        cfg, arrays = self.stored()

        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew weights")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(unfolding, "init_weights", refuse)
        monkeypatch.setattr(ModelWeights, "draw", refuse)
        weights, _ = unfolding.load_model(cfg, arrays)
        assert list(weights.arrays()) == [name for name, _, _ in unfolding.tensor_layout(cfg)]
        assert all(np.array_equal(weights[name].value, arrays[name]) for name in arrays)

    # profiles far larger than the TINY K=3 tensor set they are stored over; a load
    # that drew any of them would ask numpy for GiBs, or never end
    @pytest.mark.parametrize("config", [
        unfolding.UnfoldConfig(stages=3, net=dataclasses.replace(TINY, levels=40)),
        unfolding.UnfoldConfig(stages=3, net=dataclasses.replace(TINY, blocks_per_level=10 ** 9)),
        unfolding.UnfoldConfig(stages=10 ** 9, net=TINY),
        unfolding.UnfoldConfig(stages=10 ** 9, net=TINY, share_weights=False),
    ], ids=["levels40", "blocks1e9", "stages1e9", "stages1e9-per-stage"])
    def test_profile_far_larger_than_file_refused_at_file_cost(self, config):
        _, arrays = self.stored()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError) as refusal:
                unfolding.load_model(config, arrays)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refusal.value).startswith("checkpoint lacks weight tensors: ")
        assert str(refusal.value).endswith(
            f", ... (the profile names over {2 * len(arrays) + 1} tensors; "
            f"the file holds {len(arrays)})")
        assert elapsed < 0.25
        assert peak < 1 << 20


class TestExactTensorSet:
    """`load_model` and `ModelWeights.load_arrays` refuse a file with one message source."""

    def stored(self):
        cfg = unfolding.UnfoldConfig(stages=2, net=TINY)
        return cfg, unfolding.init_weights(cfg, seed=8, zero_residual=False)

    @pytest.mark.parametrize("load", ["load_model", "load_arrays"])
    @pytest.mark.parametrize("change,message", [
        ("missing", "checkpoint lacks weight tensors: shared/out/w"),
        ("two-missing", "checkpoint lacks weight tensors: est/alpha_raw1, est/beta_raw1"),
        ("unknown", "unknown weight name in checkpoint: shared/extra"),
        ("shape", "shape mismatch for shared/out/b: have (2,), file (3,)"),
    ])
    def test_messages(self, load, change, message):
        cfg, weights = self.stored()
        arrays = weights.arrays()
        if change == "missing":
            del arrays["shared/out/w"]
        elif change == "two-missing":
            del arrays["est/alpha_raw1"], arrays["est/beta_raw1"]
        elif change == "unknown":
            arrays["shared/extra"] = np.zeros(3)
        else:
            arrays["shared/out/b"] = np.zeros(3)
        with pytest.raises(ValueError) as refusal:
            if load == "load_model":
                unfolding.load_model(cfg, arrays)
            else:
                weights.load_arrays(arrays)
        assert str(refusal.value) == message

    def test_refused_load_arrays_changes_nothing(self):
        _, weights = self.stored()
        before = {name: value.copy() for name, value in weights.arrays().items()}
        arrays = {name: value + 1.0 for name, value in before.items()}
        arrays["shared/out/b"] = np.zeros(3)
        with pytest.raises(ValueError, match="^shape mismatch for shared/out/b"):
            weights.load_arrays(arrays)
        assert all(np.array_equal(weights[name].value, before[name]) for name in before)
