"""PSNR/SSIM against closed forms and a per-pixel definitional oracle."""

import re

import numpy as np
import pytest

from cassi_ssm import metrics
from oracles import ssim_loop_oracle


class TestPsnr:
    def test_identical_inputs_capped(self):
        x = np.random.default_rng(0).random((8, 8))
        assert metrics.psnr(x, x, 1.0) == 100.0

    def test_nan_image_scores_nan(self):
        # the cap is the score of a perfect match, not of an image holding NaN
        a = np.ones((8, 8))
        b = a.copy()
        b[3, 4] = np.nan
        assert np.isnan(metrics.psnr(a, b, 1.0))

    def test_mse_001_is_20db(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)  # MSE = 0.01
        assert metrics.psnr(a, b, 1.0) == pytest.approx(20.0, abs=1e-12)

    def test_constant_offset_closed_form(self):
        a = np.zeros((6, 6))
        b = np.full((6, 6), 0.5)
        assert metrics.psnr(a, b, 1.0) == pytest.approx(10 * np.log10(1 / 0.25), abs=1e-10)
        assert metrics.psnr(a, b, 1.0) == pytest.approx(6.0206, abs=1e-4)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((7, 7)), rng.random((7, 7))
        assert metrics.psnr(a, b, 1.0) == metrics.psnr(b, a, 1.0)

    def test_monotone_in_noise_amplitude(self):
        rng = np.random.default_rng(2)
        base = rng.random((16, 16))
        noise = rng.normal(size=(16, 16))
        values = [metrics.psnr(base, base + amp * noise, 1.0)
                  for amp in (1e-3, 1e-2, 1e-1, 0.3)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.psnr(np.zeros((2, 2)), np.zeros((3, 3)), 1.0)


# NaN fails `data_range <= 0`, so only a finite-and-positive test refuses it
@pytest.mark.parametrize("data_range", [0.0, -1.0, np.nan, np.inf, -np.inf],
                         ids=["zero", "negative", "nan", "inf", "-inf"])
@pytest.mark.parametrize("metric", [metrics.psnr, metrics.ssim], ids=["psnr", "ssim"])
def test_data_range_positive(metric, data_range):
    with pytest.raises(ValueError, match="data_range must be"):
        metric(np.zeros((11, 11)), np.zeros((11, 11)), data_range)


class TestSsim:
    def test_identical_is_one(self):
        x = np.random.default_rng(3).random((16, 16))
        assert metrics.ssim(x, x, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_constant_images_closed_form(self):
        c1v, c2v = 0.3, 0.7
        a = np.full((12, 12), c1v)
        b = np.full((12, 12), c2v)
        k1 = (0.01 * 1.0) ** 2
        want = (2 * c1v * c2v + k1) / (c1v ** 2 + c2v ** 2 + k1)
        assert metrics.ssim(a, b, 1.0) == pytest.approx(want, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.random((14, 17))
        b = np.clip(a + 0.1 * rng.normal(size=(14, 17)), 0, 1)
        got = metrics.ssim(a, b, 1.0)
        want = ssim_loop_oracle(a, b, 1.0)
        assert abs(got - want) <= 1e-9

    # a single window, one-window-wide strips, a wider range, and the
    # 256x256 scored band size (246x246 windows)
    @pytest.mark.parametrize("shape,data_range", [((11, 11), 1.0), ((11, 40), 1.0),
                                                  ((40, 11), 1.0), ((16, 19), 4.0),
                                                  ((256, 256), 1.0)],
                             ids=["11x11", "11x40", "40x11", "range4", "256x256"])
    def test_edge_and_full_sizes_match_loop_oracle(self, shape, data_range):
        rng = np.random.default_rng(11)
        a = data_range * rng.random(shape)
        b = a + 0.1 * data_range * rng.normal(size=shape)
        got = metrics.ssim(a, b, data_range)
        assert abs(got - ssim_loop_oracle(a, b, data_range)) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((13, 13)), rng.random((13, 13))
        assert abs(metrics.ssim(a, b, 1.0) - metrics.ssim(b, a, 1.0)) <= 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.normal(size=(12, 12))
            b = rng.normal(size=(12, 12))
            v = metrics.ssim(a, b, 4.0)
            assert -1.0 <= v <= 1.0

    def test_window_size_guard(self):
        with pytest.raises(ValueError, match="smaller than"):
            metrics.ssim(np.zeros((8, 8)), np.zeros((8, 8)), 1.0)


class TestEvaluate:
    def test_cube_against_itself(self):
        cube = np.random.default_rng(7).random((3, 16, 16))
        report = metrics.evaluate(cube, cube)
        assert report.psnr_mean == 100.0
        assert report.ssim_mean == pytest.approx(1.0, abs=1e-15)

    def test_means_are_band_means(self):
        rng = np.random.default_rng(8)
        a = rng.random((4, 12, 12))
        b = np.clip(a + 0.05 * rng.normal(size=a.shape), 0, 1)
        report = metrics.evaluate(a, b)
        assert report.psnr_mean == pytest.approx(np.mean(report.band_psnr), abs=1e-12)
        assert report.ssim_mean == pytest.approx(np.mean(report.band_ssim), abs=1e-12)

    def test_infinite_reference_refused(self):
        # its peak is the data range, which psnr would read as a perfect 100 dB
        ref = np.random.default_rng(10).random((2, 12, 12))
        ref[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="reference cube holds NaN or Inf"):
            metrics.evaluate(ref, np.zeros_like(ref))

    # a NaN would set the range silently to 1.0 and a -Inf score -inf dB
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf], ids=["nan", "-inf", "+inf"])
    def test_non_finite_reference_refused(self, bad):
        ref = np.random.default_rng(12).random((2, 12, 12))
        ref[1, 3, 4] = bad
        with pytest.raises(ValueError, match="reference cube holds NaN or Inf"):
            metrics.evaluate(ref, np.zeros_like(ref))

    def test_nan_test_cube_scores_nan(self):
        ref = np.random.default_rng(11).random((2, 12, 12))
        report = metrics.evaluate(ref, np.full_like(ref, np.nan))
        assert np.isnan(report.psnr_mean) and np.isnan(report.ssim_mean)

    def test_matches_independent_fixture_computation(self):
        # fixture pair generated deterministically; metrics recomputed here
        # with the standalone scalar functions as the independent script
        rng = np.random.default_rng(9)
        ref = rng.random((2, 15, 15))
        test = np.clip(ref + 0.08 * rng.normal(size=ref.shape), 0, 1)
        report = metrics.evaluate(ref, test)
        dr = ref.max()
        for i in range(2):
            assert report.band_psnr[i] == metrics.psnr(ref[i], test[i], dr)
            assert report.band_ssim[i] == metrics.ssim(ref[i], test[i], dr)
        assert report.data_range == dr

    def test_default_range_uses_reference_peak(self):
        ref = 0.5 * np.ones((1, 12, 12))
        test = np.zeros((1, 12, 12))
        report = metrics.evaluate(ref, test)
        assert report.data_range == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.evaluate(np.zeros((1, 12, 12)), np.zeros((2, 12, 12)))

    def test_two_dimensional_cube_refused(self):
        image = np.ones((11, 11))
        with pytest.raises(ValueError, match=re.escape("expected a 3-D array, got shape (11, 11)")):
            metrics.evaluate(image, image)


# the NaN rule covers both infinities; warnings are errors, so a warning fails here
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("score", [
    lambda ref, test: metrics.psnr(ref[0], test[0], 1.0),
    lambda ref, test: metrics.ssim(ref[0], test[0], 1.0),
    lambda ref, test: metrics.evaluate(ref, test).psnr_mean,
    lambda ref, test: metrics.evaluate(ref, test).ssim_mean,
], ids=["psnr", "ssim", "evaluate-psnr", "evaluate-ssim"])
def test_non_finite_test_image_scores_nan(score, bad):
    ref = np.random.default_rng(13).random((1, 12, 12))
    test = ref.copy()
    test[0, 5, 6] = bad
    assert np.isnan(score(ref, test))
