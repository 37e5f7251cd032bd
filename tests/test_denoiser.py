"""Denoiser network: identity configurations, shape contracts, block wiring,
gradient checks, and dead-parameter detection."""

import numpy as np
import pytest

from cassi_ssm import autodiff as ad
from cassi_ssm import denoiser
from cassi_ssm.denoiser import (
    SPATIAL_DIRECTIONS,
    ModelWeights,
    UNetConfig,
    denoise,
    denoiser_layout,
    embed_with_mask,
    gated_ffn,
    spatial_ssm,
    spectral_cube_ssm,
    ssm_block,
    _block_layout,
)
from cassi_ssm.scans import ScanOrder, global_order, local_patch_order
from oracles import finite_diff_check, total

TINY = UNetConfig(bands=2, base_channels=4, levels=1, blocks_per_level=1,
                  patch=2, cube=(1, 1, 2), state_size=2, expansion=1)


def tiny_weights(seed=0, zero_residual=True):
    return ModelWeights.draw(denoiser_layout("net", TINY, zero_residual),
                             np.random.default_rng(seed))


BLOCK = UNetConfig(bands=1, base_channels=4, patch=2, cube=(1, 1, 2), state_size=2,
                   expansion=1)


def block_weights(seed=1):
    return ModelWeights.draw(_block_layout("blk", BLOCK, BLOCK.base_channels),
                             np.random.default_rng(seed))


def set_value(weights, name, value):
    weights[name].value = np.asarray(value, dtype=np.float64)


class TestModelWeights:
    def test_membership_and_iteration_raise_type_error(self):
        w = tiny_weights()
        with pytest.raises(TypeError, match="not iterable"):
            "net/embed/fuse_w" in w
        with pytest.raises(TypeError, match="not iterable"):
            list(w)


class TestEmbed:
    def test_zero_input_zero_mask_zero_bias(self):
        w = tiny_weights()
        out = embed_with_mask(ad.constant(np.zeros((2, 8, 8))), np.zeros((8, 8)), w, "net",
                              sigma=ad.constant(0.0))
        assert not out.value.any()

    def test_output_channels_follow_config(self):
        w = tiny_weights()
        rng = np.random.default_rng(2)
        out = embed_with_mask(ad.constant(rng.random((2, 8, 8))), rng.random((8, 8)), w, "net",
                              sigma=ad.constant(0.3))
        assert out.shape == (TINY.base_channels, 8, 8)

    def test_sigma_channel_matters(self):
        w = tiny_weights()
        rng = np.random.default_rng(3)
        x = rng.random((2, 8, 8))
        mask = rng.random((8, 8))
        a = embed_with_mask(ad.constant(x), mask, w, "net", sigma=ad.constant(0.0)).value
        b = embed_with_mask(ad.constant(x), mask, w, "net", sigma=ad.constant(1.0)).value
        assert not np.allclose(a, b)

    def test_mask_shape_guard(self):
        w = tiny_weights()
        with pytest.raises(ValueError, match="mask shape"):
            embed_with_mask(ad.constant(np.zeros((2, 8, 8))), np.zeros((4, 4)), w, "net",
                            ad.constant(0.0))

    def test_non_finite_sigma_rejected(self):
        w = tiny_weights()
        with pytest.raises(ValueError, match="finite"):
            embed_with_mask(ad.constant(np.zeros((2, 8, 8))), np.zeros((8, 8)), w, "net",
                            sigma=ad.constant(float("nan")))

    def test_gradcheck(self):
        w = tiny_weights()
        rng = np.random.default_rng(4)
        mask = rng.random((4, 4))
        proj = rng.normal(size=(4, 4, 4))

        def f(t):
            return total(ad.mul(embed_with_mask(t, mask, w, "net", sigma=ad.constant(0.2)),
                                ad.constant(proj)))

        assert finite_diff_check(f, rng.random((2, 4, 4))) <= 1e-4


class TestSpatialSsm:
    def test_identity_configuration(self):
        # all four scans reduced to pure skip (bbar = 0, d = 1) and the 1x1
        # projection set to I/4: the branch must reproduce its input
        w = block_weights()
        c = BLOCK.base_channels
        for d in SPATIAL_DIRECTIONS:
            set_value(w, f"blk/sp/{d}/w_b", np.zeros((c, BLOCK.state_size)))
            set_value(w, f"blk/sp/{d}/b_b", np.zeros((c, BLOCK.state_size)))
            set_value(w, f"blk/sp/{d}/d", np.ones(c))
        set_value(w, "blk/sp/proj_w", np.eye(c).reshape(c, c, 1, 1) / 4.0)
        set_value(w, "blk/sp/proj_b", np.zeros(c))
        rng = np.random.default_rng(5)
        x = rng.random((c, 4, 4))
        out = spatial_ssm(ad.constant(x), w, "blk/sp", patch=2)
        assert np.abs(out.value - x).max() <= 1e-10

    def test_shape_preserved(self):
        w = block_weights()
        out = spatial_ssm(ad.constant(np.random.default_rng(6).random((4, 4, 6))), w,
                          "blk/sp", patch=2)
        assert out.shape == (4, 4, 6)

    def test_divisibility_violation(self):
        w = block_weights()
        with pytest.raises(ValueError, match="divide"):
            spatial_ssm(ad.constant(np.zeros((4, 5, 4))), w, "blk/sp", patch=2)

    def test_equivariance_under_pixel_relabeling(self, monkeypatch):
        w = block_weights()
        c, h, wd = BLOCK.base_channels, 4, 4
        rng = np.random.default_rng(7)
        x = rng.random((c, h, wd))
        out = spatial_ssm(ad.constant(x), w, "blk/sp", patch=2).value

        perm = rng.permutation(h * wd)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(h * wd)
        x2 = x.reshape(c, -1)[:, perm].reshape(c, h, wd)

        def relabeled(order):
            fwd = inv[order.forward]
            back = np.empty_like(fwd)
            back[fwd] = np.arange(len(fwd))
            return ScanOrder(fwd, back, order.descriptor + "~relabel")

        # the branch must scan the relabeled pixels in the relabeled orders
        for make in (global_order, local_patch_order):
            monkeypatch.setattr(denoiser, make.__name__,
                                lambda *args, make=make: relabeled(make(*args)))
        out2 = spatial_ssm(ad.constant(x2), w, "blk/sp", patch=2).value
        assert np.abs(out2.reshape(c, -1) - out.reshape(c, -1)[:, perm]).max() <= 1e-12

    def test_gradcheck(self):
        w = block_weights()
        rng = np.random.default_rng(8)
        proj = rng.normal(size=(4, 4, 4))

        def f(t):
            return total(ad.mul(spatial_ssm(t, w, "blk/sp", patch=2), ad.constant(proj)))

        assert finite_diff_check(f, rng.random((4, 4, 4))) <= 1e-4


class TestSpectralCubeSsm:
    def test_zeroed_scan_is_pure_residual(self):
        w = block_weights()
        set_value(w, "blk/cx/w_b", np.zeros((1, BLOCK.state_size)))
        set_value(w, "blk/cx/b_b", np.zeros((1, BLOCK.state_size)))
        set_value(w, "blk/cx/d", np.zeros(1))
        x = np.random.default_rng(9).random((4, 4, 4))
        out = spectral_cube_ssm(ad.constant(x), w, "blk/cx", BLOCK.patch, BLOCK.cube)
        assert np.array_equal(out.value, x)

    def test_shape_preserved(self):
        w = block_weights()
        x = np.random.default_rng(10).random((4, 6, 4))
        assert spectral_cube_ssm(ad.constant(x), w, "blk/cx", BLOCK.patch, BLOCK.cube).shape == (4, 6, 4)

    def test_cube_spec_changes_output(self):
        w = block_weights()
        x = np.random.default_rng(11).random((4, 4, 4))
        # depth-2 blocks vs full-spectrum cubes give materially different orders
        a = spectral_cube_ssm(ad.constant(x), w, "blk/cx", 2, (1, 1, 2)).value
        b = spectral_cube_ssm(ad.constant(x), w, "blk/cx", 2, (1, 1, 4)).value
        assert not np.allclose(a, b)

    def test_divisibility_violation(self):
        w = block_weights()
        with pytest.raises(ValueError, match="divide"):
            spectral_cube_ssm(ad.constant(np.zeros((3, 4, 4))), w, "blk/cx", BLOCK.patch, BLOCK.cube)

    def test_gradcheck(self):
        w = block_weights()
        rng = np.random.default_rng(12)
        proj = rng.normal(size=(4, 4, 4))

        def f(t):
            return total(ad.mul(spectral_cube_ssm(t, w, "blk/cx", BLOCK.patch, BLOCK.cube),
                                ad.constant(proj)))

        assert finite_diff_check(f, rng.random((4, 4, 4))) <= 1e-4


class TestGatedFfn:
    def test_all_zero_weights_identity(self):
        w = block_weights()
        c, e = BLOCK.base_channels, BLOCK.expansion
        for name, shape in [("ln/g", (c,)), ("ln/b", (c,)),
                            ("in_w", (2 * e * c, c, 1, 1)), ("in_b", (2 * e * c,)),
                            ("dw1_w", (e * c, 3, 3)), ("dw1_b", (e * c,)),
                            ("dw2_w", (e * c, 3, 3)), ("dw2_b", (e * c,)),
                            ("out_w", (c, e * c, 1, 1)), ("out_b", (c,))]:
            set_value(w, f"blk/ffn/{name}", np.zeros(shape))
        x = np.random.default_rng(13).random((c, 4, 4))
        assert np.array_equal(gated_ffn(ad.constant(x), w, "blk/ffn").value, x)

    def test_shape_preserved(self):
        w = block_weights()
        x = np.random.default_rng(14).random((4, 6, 6))
        assert gated_ffn(ad.constant(x), w, "blk/ffn").shape == (4, 6, 6)

    def test_gradcheck(self):
        w = block_weights()
        rng = np.random.default_rng(15)
        proj = rng.normal(size=(4, 4, 4))

        def f(t):
            return total(ad.mul(gated_ffn(t, w, "blk/ffn"), ad.constant(proj)))

        assert finite_diff_check(f, rng.random((4, 4, 4))) <= 1e-4


class TestBlockComposition:
    def test_wiring_matches_component_calls(self):
        w = block_weights(seed=16)
        x = np.random.default_rng(17).random((BLOCK.base_channels, 4, 4))
        got = ssm_block(ad.constant(x), w, "blk", BLOCK).value

        xn = ad.constant(x)
        g1 = ad.layer_norm(xn, w["blk/ln1/g"], w["blk/ln1/b"])
        y1 = ad.add(xn, spatial_ssm(g1, w, "blk/sp", BLOCK.patch))
        g2 = ad.layer_norm(y1, w["blk/ln2/g"], w["blk/ln2/b"])
        y2 = spectral_cube_ssm(g2, w, "blk/cx", BLOCK.patch, BLOCK.cube)
        y3 = gated_ffn(y2, w, "blk/ffn")
        assert np.array_equal(got, y3.value)
        # internal residuals hold at the hook points
        core2 = ad.sub(y2, g2).value  # cross-scan contribution
        assert np.allclose(y2.value, g2.value + core2)
        assert not np.array_equal(y2.value, g2.value)


class TestDenoise:
    def test_zero_output_conv_is_exact_identity(self):
        w = tiny_weights(zero_residual=True)
        rng = np.random.default_rng(18)
        x = rng.random((2, 8, 8))
        out = denoise(ad.constant(x), ad.constant(0.1), rng.random((8, 8)), w, TINY, "net")
        assert np.array_equal(out.value, x)

    def test_output_dims_match_input(self):
        w = tiny_weights(zero_residual=False)
        rng = np.random.default_rng(19)
        out = denoise(ad.constant(rng.random((2, 8, 8))), ad.constant(0.2), rng.random((8, 8)),
                      w, TINY, "net")
        assert out.shape == (2, 8, 8)

    def test_two_level_config(self):
        cfg = UNetConfig(bands=2, base_channels=4, levels=2, blocks_per_level=1,
                         patch=2, cube=(1, 1, 2), state_size=2, expansion=1)
        w = ModelWeights.draw(denoiser_layout("net", cfg, zero_residual=False),
                              np.random.default_rng(20))
        rng = np.random.default_rng(21)
        out = denoise(ad.constant(rng.random((2, 16, 16))), ad.constant(0.2),
                      rng.random((16, 16)), w, cfg, "net")
        assert out.shape == (2, 16, 16)

    def test_dims_divisibility_guard(self):
        w = tiny_weights()
        with pytest.raises(ValueError, match="divisible"):
            denoise(ad.constant(np.zeros((2, 6, 8))), ad.constant(0.1), np.zeros((6, 8)), w,
                    TINY, "net")

    @pytest.mark.parametrize("field", ["bands", "base_channels", "patch", "cube",
                                       "state_size", "expansion"])
    def test_sizes_below_one_rejected(self, field):
        sizes = {"bands": 2, "base_channels": 4, "patch": 2, "cube": (1, 1, 2),
                 "state_size": 2, "expansion": 1}
        sizes[field] = (1, 0, 2) if field == "cube" else 0
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            UNetConfig(**sizes)

    @pytest.mark.parametrize("cube", [(3, 3, 2), (4, 3, 2), (3, 4, 2)])
    def test_cube_footprint_must_divide_patch(self, cube):
        with pytest.raises(ValueError, match=r"cube footprint \dx\d must divide patch side 4"):
            UNetConfig(bands=2, base_channels=4, patch=4, cube=cube)

    # stored as a tuple, which the scan-order cache can hash
    def test_cube_list_stored_as_tuple(self):
        cfg = UNetConfig(bands=2, base_channels=4, levels=1, blocks_per_level=1,
                         patch=2, cube=[1, 1, 2], state_size=2, expansion=1)
        assert cfg.cube == (1, 1, 2) and type(cfg.cube) is tuple
        out = denoise(ad.constant(np.zeros((2, 8, 8))), ad.constant(0.1), np.ones((8, 8)),
                      tiny_weights(), cfg, "net")
        assert out.shape == (2, 8, 8)

    @pytest.mark.parametrize("cube", [(2, 2), (2, 2, 2, 2), 2, (2.0, 2, 2)],
                             ids=["two", "four", "int", "float"])
    def test_cube_must_be_three_integers(self, cube):
        with pytest.raises(ValueError, match="cube must be three integers"):
            UNetConfig(bands=2, base_channels=4, patch=4, cube=cube)

    def test_band_count_guard(self):
        w = tiny_weights()
        with pytest.raises(ValueError, match="bands"):
            denoise(ad.constant(np.zeros((3, 8, 8))), ad.constant(0.1), np.zeros((8, 8)), w,
                    TINY, "net")

    def test_end_to_end_gradcheck_8x8x2(self):
        w = tiny_weights(zero_residual=False)
        rng = np.random.default_rng(22)
        mask = rng.random((8, 8))
        proj = rng.normal(size=(2, 8, 8))

        def f(t):
            return total(ad.mul(denoise(t, ad.constant(0.3), mask, w, TINY, "net"),
                                ad.constant(proj)))

        assert finite_diff_check(f, rng.random((2, 8, 8))) <= 1e-4

    def test_no_dead_parameters(self):
        w = tiny_weights(seed=23, zero_residual=False)
        rng = np.random.default_rng(24)
        x = rng.random((2, 8, 8))
        out = denoise(ad.constant(x), ad.constant(0.4), rng.random((8, 8)), w, TINY, "net")
        loss = total(ad.mul(out, ad.constant(rng.normal(size=out.shape))))
        ad.backward(loss)
        dead = [name for name, node in w.items()
                if node.grad is None or not np.any(node.grad)]
        assert dead == []

    def test_sigma_gradient_flows(self):
        w = tiny_weights(seed=25, zero_residual=False)
        rng = np.random.default_rng(26)
        sigma = ad.parameter(np.asarray(0.2))
        out = denoise(ad.constant(rng.random((2, 8, 8))), sigma, rng.random((8, 8)),
                      w, TINY, "net")
        ad.backward(total(ad.mul(out, ad.constant(rng.normal(size=out.shape)))))
        assert sigma.grad is not None and float(sigma.grad) != 0.0
