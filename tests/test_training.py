"""Masked-training mechanics: exact mask counts, fixed-mask reuse, and the
gradient-descent loop."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from cassi_ssm import autodiff as ad
from cassi_ssm import cassi, training, unfolding
from cassi_ssm.denoiser import UNetConfig
from cassi_ssm.demo import toy_mask, toy_scene
from oracles import finite_diff_check, total

TINY = UNetConfig(bands=2, base_channels=4, levels=1, blocks_per_level=1,
                  patch=2, cube=(1, 1, 2), state_size=2, expansion=1)


def tiny_setup(seed=0, stages=2, h=8, w=8, zero_residual=True):
    cfg = unfolding.UnfoldConfig(stages=stages, net=TINY, share_weights=True)
    weights = unfolding.init_weights(cfg, seed=seed, zero_residual=zero_residual)
    cube = toy_scene(h, w, TINY.bands, seed=seed + 1)
    op = cassi.SensingOperator(toy_mask(h, w, seed=seed + 2), 2, TINY.bands)
    return cfg, weights, cube, op


class TestGenerateMask:
    @pytest.mark.parametrize("ratio", [0.3, 0.5, 0.8])
    def test_exact_zero_count(self, ratio):
        fm = training.generate_mask(4, 4, ratio, seed=1)
        assert (fm.values == 0).sum() == round(ratio * 16)
        assert set(np.unique(fm.values)) <= {0.0, 1.0}

    def test_half_on_4x4(self):
        fm = training.generate_mask(4, 4, 0.5, seed=2)
        assert (fm.values == 0).sum() == 8

    def test_zero_ratio_all_ones(self):
        fm = training.generate_mask(3, 5, 0.0, seed=3)
        assert fm.values.all()

    def test_eighty_percent_of_ten(self):
        fm = training.generate_mask(2, 5, 0.8, seed=4)
        assert (fm.values == 0).sum() == 8

    def test_deterministic_under_seed(self):
        a = training.generate_mask(6, 6, 0.5, seed=5)
        b = training.generate_mask(6, 6, 0.5, seed=5)
        assert np.array_equal(a.values, b.values)
        assert a.digest() == b.digest()

    def test_ratio_range(self):
        with pytest.raises(ValueError, match="zero ratio"):
            training.generate_mask(4, 4, 1.0, seed=0)

    @pytest.mark.parametrize("size,message", [(0, "must be >= 1"), (4.0, "must be an integer"),
                                              (True, "must be an integer")],
                             ids=["zero", "float", "bool"])
    def test_sizes_follow_integer_rule(self, size, message):
        for height, width in ((size, 4), (4, size)):
            with pytest.raises(ValueError, match=f"mask (height|width) {message}"):
                training.generate_mask(height, width, 0.5, seed=0)

    @pytest.mark.parametrize("seed", [1.5, -1], ids=["float", "negative"])
    def test_seed_follows_integer_rule(self, seed):
        with pytest.raises(ValueError, match="feature-mask seed must"):
            training.generate_mask(4, 4, 0.5, seed)

    def test_values_must_be_zero_or_one(self):
        with pytest.raises(ValueError, match="0 or 1"):
            training.FeatureMask(np.full((4, 4), 0.5), 0.0, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_refused(self, seed):
        values = training.generate_mask(4, 4, 0.5, seed=0).values
        with pytest.raises(ValueError, match="seed"):
            training.FeatureMask(values, 0.5, seed)

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0)])
    def test_non_integer_seed_refused(self, seed):
        values = training.generate_mask(4, 4, 0.5, seed=0).values
        with pytest.raises(ValueError, match="seed must be an integer"):
            training.FeatureMask(values, 0.5, seed)

    def test_numpy_integer_seed_taken_as_int(self):
        values = training.generate_mask(4, 4, 0.5, seed=0).values
        seed = training.FeatureMask(values, 0.5, np.uint64(2**64 - 1)).seed
        assert seed == 2**64 - 1 and type(seed) is int

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_zero_side_refused(self, shape):
        message = f"feature mask must be [H, W] with both sides >= 1, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            training.FeatureMask(np.zeros(shape), 0.5, 0)

    def test_zero_count_must_match_ratio(self):
        values = training.generate_mask(16, 16, 0.5, seed=0).values
        with pytest.raises(ValueError, match="128 zeros"):
            training.FeatureMask(values, 0.25, 0)


class TestApplyMask:
    def test_all_ones_is_identity(self):
        fm = training.generate_mask(4, 4, 0.0, seed=0)
        x = np.random.default_rng(1).random((3, 4, 4))
        assert np.array_equal(fm.apply(ad.constant(x)).value, x)

    def test_masked_positions_exactly_zero(self):
        fm = training.generate_mask(4, 4, 0.5, seed=2)
        x = np.random.default_rng(3).random((3, 4, 4)) + 1.0
        out = fm.apply(ad.constant(x)).value
        zero_at = fm.values == 0
        assert (out[:, zero_at] == 0).all()
        assert np.array_equal(out[:, ~zero_at], x[:, ~zero_at])

    def test_idempotent(self):
        fm = training.generate_mask(4, 4, 0.5, seed=4)
        x = np.random.default_rng(5).random((2, 4, 4))
        once = fm.apply(ad.constant(x)).value
        twice = fm.apply(ad.constant(once)).value
        assert np.array_equal(once, twice)

    def test_gradient_zero_at_masked_positions(self):
        fm = training.generate_mask(4, 4, 0.5, seed=6)
        rng = np.random.default_rng(7)
        x = ad.parameter(rng.random((2, 4, 4)))
        proj = rng.normal(size=(2, 4, 4))
        ad.backward(total(ad.mul(fm.apply(x), ad.constant(proj))))
        zero_at = fm.values == 0
        assert (x.grad[:, zero_at] == 0).all()
        assert np.any(x.grad[:, ~zero_at])

    def test_gradient_elsewhere_matches_fd(self):
        fm = training.generate_mask(4, 4, 0.5, seed=8)
        rng = np.random.default_rng(9)
        proj = rng.normal(size=(2, 4, 4))

        def f(t):
            return total(ad.mul(fm.apply(t), ad.constant(proj)))

        assert finite_diff_check(f, rng.random((2, 4, 4))) <= 1e-4

    def test_shape_guard(self):
        fm = training.generate_mask(4, 4, 0.5, seed=10)
        with pytest.raises(ValueError, match="mask shape"):
            fm.apply(ad.constant(np.zeros((2, 8, 8))))


class TestTrainStep:
    def test_zero_learning_rate_leaves_weights(self):
        cfg, weights, cube, op = tiny_setup()
        before = {k: v.value.copy() for k, v in weights.items()}
        tc = training.TrainConfig(learning_rate=0.0, steps=4)
        loss = training.train_step([(cube, op)], weights, cfg, tc, lr=0.0)
        assert np.isfinite(loss)
        for k, v in weights.items():
            assert np.array_equal(v.value, before[k])

    def test_bit_identical_across_runs(self):
        losses = []
        finals = []
        for _ in range(2):
            cfg, weights, cube, op = tiny_setup(seed=3)
            tc = training.TrainConfig(learning_rate=0.02, steps=3)
            state = training.train([(cube, op)], weights, cfg, tc)
            losses.append(tuple(state.losses))
            finals.append(weights["shared/out/w"].value.copy())
        assert losses[0] == losses[1]
        assert np.array_equal(finals[0], finals[1])

    def test_loss_decreases_on_short_overfit(self):
        cfg, weights, cube, op = tiny_setup(seed=4)
        tc = training.TrainConfig(learning_rate=0.02, steps=25)
        state = training.train([(cube, op)], weights, cfg, tc)
        assert state.losses[-1] < state.losses[0]

    def test_estimation_scalars_receive_gradients(self):
        cfg, weights, cube, op = tiny_setup(seed=5)
        tc = training.TrainConfig(learning_rate=0.02, steps=3)
        training.train([(cube, op)], weights, cfg, tc)
        # after the residual head moves off zero, both scalars must learn
        weights.zero_grad()
        y = cassi.forward_project(cube, op)
        recon = unfolding.reconstruct_node(y, op, weights, cfg)
        err = ad.sub(recon, ad.constant(cube))
        ad.backward(ad.mean_all(ad.mul(err, err)))
        for k in range(cfg.stages):
            assert float(np.abs(weights[f"est/alpha_raw{k}"].grad)) > 0
            assert float(np.abs(weights[f"est/beta_raw{k}"].grad)) > 0

    def test_empty_batch_rejected(self):
        cfg, weights, _, _ = tiny_setup()
        with pytest.raises(ValueError, match="empty"):
            training.train_step([], weights, cfg, training.TrainConfig())

    def test_train_refuses_empty_batch_in_both_modes(self):
        # masked mode sizes its feature mask from batch[0]
        cfg, weights, _, _ = tiny_setup()
        for masked in (False, True):
            with pytest.raises(ValueError, match="empty batch"):
                training.train([], weights, cfg, training.TrainConfig(steps=1, masked=masked))

    def test_non_finite_weight_diagnostic_names_tensor(self):
        cfg, weights, cube, op = tiny_setup()
        weights["shared/out/b"].value = np.array([np.nan, 0.0])
        with pytest.raises(FloatingPointError, match="shared/out/b"):
            training.train_step([(cube, op)], weights, cfg, training.TrainConfig())

    # a refused call is refused under its own rule before any work: no weight moves
    @pytest.mark.parametrize("kwargs,message", [
        ({"lr": -1.0}, "learning rate must be finite and >= 0, got -1.0"),
        ({"lr": float("nan")}, "learning rate must be finite and >= 0, got nan"),
        ({"lr": float("inf")}, "learning rate must be finite and >= 0, got inf"),
        ({"lr": True}, "learning rate must be a number, got True"),
        ({"lr": "abc"}, "learning rate must be a number, got 'abc'"),
        ({"step": 2.5}, "step must be an integer, got 2.5"),
        ({"step": True}, "step must be an integer, got True"),
        ({"step": -3}, "step must lie in [0, 3], got -3"),
        ({"step": 4}, "step must lie in [0, 3], got 4"),
    ], ids=["lr-negative", "lr-nan", "lr-inf", "lr-bool", "lr-word",
            "step-float", "step-bool", "step-negative", "step-past-schedule"])
    def test_bad_lr_or_step_refused_before_any_work(self, kwargs, message):
        cfg, weights, cube, op = tiny_setup(zero_residual=False)
        before = {k: v.value.copy() for k, v in weights.items()}
        tc = training.TrainConfig(steps=4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            training.train_step([(cube, op)], weights, cfg, tc, **kwargs)
        for k, v in weights.items():
            assert np.array_equal(v.value, before[k]), k
            assert v.grad is None, k

    def test_batch_peaks_like_one_scene(self):
        # each scene's tape is swept and dropped before the next is built
        net = TestDivergence.NET
        cfg = unfolding.UnfoldConfig(stages=1, net=net, share_weights=True)
        weights = unfolding.init_weights(cfg, seed=23, zero_residual=False)
        op = cassi.SensingOperator(toy_mask(16, 16, seed=22), 2, net.bands)
        batch = [(toy_scene(16, 16, net.bands, seed=s), op) for s in (1, 2, 3, 4)]
        tc = training.TrainConfig(steps=1)
        training.train_step(batch[:1], weights, cfg, tc, lr=0.0)  # warm the scan-order caches
        peaks = []
        for scenes in (batch[:1], batch):
            tracemalloc.start()
            try:
                training.train_step(scenes, weights, cfg, tc, lr=0.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0]


class TestDivergence:
    """A run whose weights blow up is reported as divergence at its step, silently."""

    NET = UNetConfig(bands=4, base_channels=8, levels=1, blocks_per_level=1,
                     patch=4, cube=(2, 2, 2), state_size=4, expansion=2)

    def run_masked(self, lr):
        cfg = unfolding.UnfoldConfig(stages=3, net=self.NET, share_weights=True)
        weights = unfolding.init_weights(cfg, seed=23, zero_residual=False)
        op = cassi.SensingOperator(toy_mask(16, 16, seed=22), 2, 4)
        batch = [(toy_scene(16, 16, 4, seed=s), op) for s in (1, 2)]
        tc = training.TrainConfig(learning_rate=lr, steps=4, masked=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError) as err:
                training.train(batch, weights, cfg, tc)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return str(err.value)

    def test_overflow_reported_at_its_step(self):
        assert self.run_masked(1.0) == \
            "training diverged at step 2: overflow encountered in exp"

    def test_underflowed_stage_penalty_reported_at_its_step(self):
        # softplus(alpha_raw) reaches exactly 0 without any floating-point flag
        assert self.run_masked(0.2) == \
            "training diverged at step 3: stage 0 penalty mu underflowed to 0"


class TestMaskedMode:
    def test_masked_off_is_bit_identical_to_unmasked(self):
        runs = []
        for masked in (False, None):
            cfg, weights, cube, op = tiny_setup(seed=6)
            tc = training.TrainConfig(learning_rate=0.03, steps=3, masked=bool(masked))
            state = training.train([(cube, op)], weights, cfg, tc)
            runs.append((tuple(state.losses), weights["shared/out/w"].value.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_same_mask_digest_at_every_step_and_eval(self, monkeypatch):
        cfg, weights, cube, op = tiny_setup(seed=7)
        tc = training.TrainConfig(learning_rate=0.03, steps=4, masked=True,
                                  zero_ratio=0.5, mask_seed=9)
        step_masks, train_step = [], training.train_step

        def recording(*args, mask=None, **kwargs):
            step_masks.append(mask)
            return train_step(*args, mask=mask, **kwargs)

        monkeypatch.setattr(training, "train_step", recording)
        state = training.train([(cube, op)], weights, cfg, tc)
        assert len(step_masks) == 4 and all(m is state.mask for m in step_masks)
        eval_mask = training.generate_mask(8, 8, 0.5, seed=9)
        assert eval_mask.digest() == state.mask.digest()

    def test_masked_training_stays_finite(self):
        cfg, weights, cube, op = tiny_setup(seed=8)
        tc = training.TrainConfig(learning_rate=0.03, steps=6, masked=True, mask_seed=3)
        state = training.train([(cube, op)], weights, cfg, tc)
        assert np.isfinite(state.losses).all()

    def test_masked_changes_training_when_residual_active(self):
        results = []
        for masked in (False, True):
            cfg, weights, cube, op = tiny_setup(seed=9, zero_residual=False)
            tc = training.TrainConfig(learning_rate=0.02, steps=2, masked=masked)
            state = training.train([(cube, op)], weights, cfg, tc)
            results.append(state.losses[-1])
        assert results[0] != results[1]

    def test_four_toy_steps_keep_their_recorded_losses(self):
        # the 16x16x4 toy at K=3, masked: a change to the tape's nodes or to
        # their arithmetic moves these bits; the convolutions' BLAS sums set some
        # of the last ones, which are the same under one or two BLAS threads
        net = UNetConfig(bands=4, base_channels=8, levels=1, blocks_per_level=1,
                         patch=4, cube=(2, 2, 2), state_size=4, expansion=2)
        cfg = unfolding.UnfoldConfig(stages=3, net=net, share_weights=True)
        weights = unfolding.init_weights(cfg, seed=23)
        op = cassi.SensingOperator(toy_mask(16, 16, seed=22), 2, 4)
        tc = training.TrainConfig(steps=4, masked=True, mask_seed=13)
        state = training.train([(toy_scene(16, 16, 4, seed=21), op)], weights, cfg, tc)
        assert np.array_equal(state.losses, [0.0695401177714194, 0.13580958063531653,
                                             0.139996389359622, 0.09711242422874217])


class TestSchedule:
    def test_cosine_endpoints(self):
        tc = training.TrainConfig(learning_rate=2.0, steps=11)
        assert tc.lr_at(0) == pytest.approx(2.0)
        assert tc.lr_at(10) == pytest.approx(0.0, abs=1e-12)
        assert tc.lr_at(5) == pytest.approx(1.0)

    def test_shot_noise_option_runs(self):
        cfg, weights, cube, op = tiny_setup(seed=11)
        tc = training.TrainConfig(learning_rate=0.02, steps=2, noise_bits=11)
        state = training.train([(cube, op)], weights, cfg, tc)
        assert np.isfinite(state.losses).all()


class TestTrainConfig:
    """Bad settings are refused before any training step runs."""

    @pytest.mark.parametrize("steps", [0, -2])
    def test_steps_below_one_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            training.TrainConfig(steps=steps)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_mask_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            training.TrainConfig(mask_seed=seed)

    @pytest.mark.parametrize("bits", [-3, 17, 40])
    def test_noise_bits_outside_0_16_rejected(self, bits):
        with pytest.raises(ValueError, match=r"bit depth must lie in \[0, 16\]"):
            training.TrainConfig(noise_bits=bits)

    @pytest.mark.parametrize("ratio", [1.0, -0.1, float("nan")])
    def test_zero_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ValueError, match="zero ratio"):
            training.TrainConfig(zero_ratio=ratio)

    @pytest.mark.parametrize("rate", [-5.0, -1e-9, float("nan"), float("inf")])
    def test_learning_rate_negative_or_non_finite_rejected(self, rate):
        with pytest.raises(ValueError, match="learning rate must be finite and >= 0"):
            training.TrainConfig(learning_rate=rate)

    # a bool is not a rate or a ratio, and a word is refused under the setting's name
    @pytest.mark.parametrize("value", [True, False, np.True_, "abc", None],
                             ids=["True", "False", "np-True", "word", "None"])
    @pytest.mark.parametrize("field,what", [("learning_rate", "learning rate"),
                                            ("zero_ratio", "zero ratio")], ids=["lr", "ratio"])
    def test_float_setting_refuses_bool_and_word(self, field, what, value):
        with pytest.raises(ValueError, match=re.escape(f"{what} must be a number, got {value!r}")):
            training.TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [2.7, 2.0])
    def test_non_integer_mask_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            training.TrainConfig(mask_seed=seed)

    def test_largest_mask_seed_accepted(self):
        assert training.TrainConfig(mask_seed=2**64 - 1).mask_seed == 2**64 - 1
