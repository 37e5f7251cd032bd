"""PSNR/SSIM against closed forms and a per-pixel definitional oracle.

SSIM's filter runs through BLAS, so its scores are also checked across
image orientation, memory layout and BLAS thread count.  `evaluate` is
checked to score each band through the module's `psnr` and `ssim`, and to
stay within a memory bound, and scoring that overflows float64 is refused.
"""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cassi_ssm import metrics
from oracles import ssim_loop_oracle

ROOT = Path(__file__).resolve().parents[1]


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


# NaN fails `data_range <= 0`, so only a finite-and-positive test refuses it;
# True is not read as 1.0
@pytest.mark.parametrize("data_range", [0.0, -1.0, np.nan, np.inf, -np.inf, True],
                         ids=["zero", "negative", "nan", "inf", "-inf", "bool"])
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

    # the variances enter only as their sum, filtered as one a^2 + b^2 plane:
    # a textured image against an independent smooth ramp makes them differ
    # widely, and a DC offset makes that plane large against them
    @pytest.mark.parametrize("offset", [0.0, 100.0, 1000.0], ids=["dc0", "dc100", "dc1000"])
    def test_unequal_variances_match_loop_oracle(self, offset):
        rng = np.random.default_rng(17)
        textured = offset + rng.random((24, 29))
        ramp = offset + np.add.outer(np.linspace(0.0, 0.1, 24), np.linspace(0.0, 0.05, 29))
        data_range = max(textured.max(), ramp.max())
        got = metrics.ssim(textured, ramp, data_range)
        assert abs(got - ssim_loop_oracle(textured, ramp, data_range)) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((13, 13)), rng.random((13, 13))
        assert abs(metrics.ssim(a, b, 1.0) - metrics.ssim(b, a, 1.0)) <= 1e-12

    # the two passes run in a fixed axis order, so an H/W mix-up shows here
    @pytest.mark.parametrize("shape", [(14, 17), (11, 40)], ids=["14x17", "11x40"])
    def test_transpose_scores_the_same(self, shape):
        rng = np.random.default_rng(14)
        a = rng.random(shape)
        b = np.clip(a + 0.1 * rng.normal(size=shape), 0, 1)
        assert abs(metrics.ssim(a.T, b.T, 1.0) - metrics.ssim(a, b, 1.0)) <= 1e-12

    @pytest.mark.parametrize("band", [
        lambda cube, i: np.asfortranarray(cube[i]),
        lambda cube, i: cube[:, ::-1][i],
        lambda cube, i: cube[i].astype(np.float32),
    ], ids=["fortran", "strided-view", "float32"])
    def test_layout_scores_as_its_contiguous_float64_copy(self, band):
        rng = np.random.default_rng(15)
        ref = rng.random((3, 20, 23))
        test = np.clip(ref + 0.1 * rng.normal(size=ref.shape), 0, 1)
        a, b = band(ref, 1), band(test, 1)
        assert not (a.flags.c_contiguous and a.dtype == np.float64)
        copy_a, copy_b = (np.ascontiguousarray(x, dtype=np.float64) for x in (a, b))
        assert metrics.ssim(a, b, 1.0) == metrics.ssim(copy_a, copy_b, 1.0)

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

    @pytest.mark.parametrize("shape", [(11, 11, 2), (121,)], ids=["3-D", "1-D"])
    def test_image_not_2d_refused(self, shape):
        message = f"SSIM expects a 2-D image, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            metrics.ssim(np.zeros(shape), np.zeros(shape), 1.0)


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

    # perfbench's tracer wraps the module-level names, so a band scored through
    # any other function would not show in its spans
    def test_scores_each_band_through_module_functions(self, monkeypatch):
        calls = {"psnr": 0, "ssim": 0}

        def counting(name):
            original = getattr(metrics, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(metrics, name, counting(name))
        rng = np.random.default_rng(18)
        ref = rng.random((3, 12, 12))
        metrics.evaluate(ref, np.clip(ref + 0.05 * rng.normal(size=ref.shape), 0, 1))
        assert calls == {"psnr": 3, "ssim": 3}

    # warnings are errors, so a warning fails here
    def test_non_finite_bands_score_nan_alone(self):
        rng = np.random.default_rng(19)
        ref = rng.random((5, 12, 12))
        test = np.clip(ref + 0.05 * rng.normal(size=ref.shape), 0, 1)
        test[1, 2, 3] = np.nan
        test[3, 7, 0] = -np.inf
        report = metrics.evaluate(ref, test)
        dr = ref.max()
        for i in range(5):
            if i in (1, 3):
                assert np.isnan(report.band_psnr[i]) and np.isnan(report.band_ssim[i])
            else:
                assert report.band_psnr[i] == metrics.psnr(ref[i], test[i], dr)
                assert report.band_ssim[i] == metrics.ssim(ref[i], test[i], dr)

    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda cube: cube[:, ::-1]],
                             ids=["fortran", "strided-view"])
    def test_layout_scores_as_its_contiguous_float64_copy(self, layout):
        rng = np.random.default_rng(20)
        ref = rng.random((3, 20, 23))
        test = np.clip(ref + 0.1 * rng.normal(size=ref.shape), 0, 1)
        a, b = layout(ref), layout(test)
        assert not a.flags.c_contiguous
        copy_a, copy_b = (np.ascontiguousarray(x, dtype=np.float64) for x in (a, b))
        assert metrics.evaluate(a, b) == metrics.evaluate(copy_a, copy_b)

    # eval sets the peak memory of a scoring run; a float64 temporary the
    # size of the cube (28 planes), or a C-ordered copy of a whole cube in
    # another layout, would show here
    @pytest.mark.parametrize("layout", [
        lambda cube: cube,
        lambda cube: np.ascontiguousarray(cube.transpose(1, 2, 0)).transpose(2, 0, 1),
    ], ids=["c-ordered", "band-last-transposed"])
    def test_peak_memory_under_half_a_cube(self, layout):
        rng = np.random.default_rng(21)
        ref = rng.random((28, 128, 128))
        test = np.clip(ref + 0.05 * rng.normal(size=ref.shape), 0, 1)
        ref, test = layout(ref), layout(test)
        tracemalloc.start()
        try:
            metrics.evaluate(ref, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * ref[0].nbytes


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


# finite images whose arithmetic overflows float64 are refused, not scored
# as inf, NaN or 0, and not left to numpy's warning or Python's OverflowError
def _overflowing_image(ref):
    return np.full_like(ref, 1e200)


def _overflowing_entry(ref):
    test = ref.copy()
    test[0, 5, 6] = 1e155
    return test


@pytest.mark.parametrize("make_ref,make_test", [
    (_overflowing_image, np.zeros_like),
    (lambda ref: ref, _overflowing_entry),
], ids=["1e200-against-zeros", "one-1e155-entry"])
@pytest.mark.parametrize("score", [
    lambda ref, test: metrics.psnr(ref[0], test[0], float(ref.max())),
    lambda ref, test: metrics.ssim(ref[0], test[0], float(ref.max())),
    lambda ref, test: metrics.evaluate(ref, test),
], ids=["psnr", "ssim", "evaluate"])
def test_overflowing_images_refused(score, make_ref, make_test):
    ref = make_ref(np.random.default_rng(22).random((1, 12, 12)))
    with pytest.raises(ValueError, match="scoring overflows float64"):
        score(ref, make_test(ref))


def test_ssim_range_overflowing_its_constants_refused():
    image = np.random.default_rng(23).random((12, 12))
    with pytest.raises(ValueError, match="scoring overflows float64"):
        metrics.ssim(image, image, 1e200)


def test_psnr_huge_range_keeps_the_cap():
    # the range squared overflows to inf, which the cap reads as 100 dB
    rng = np.random.default_rng(24)
    assert metrics.psnr(rng.random((12, 12)), rng.random((12, 12)), 1e200) == 100.0


EVALUATE = """
import numpy as np
from cassi_ssm import metrics
rng = np.random.default_rng(16)
ref = rng.random((4, 64, 64))
test = np.clip(ref + 0.05 * rng.normal(size=ref.shape), 0, 1)
print(repr(metrics.evaluate(ref, test).band_ssim))
"""


def test_band_ssim_does_not_depend_on_blas_threads():
    printed = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", EVALUATE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        printed[threads] = proc.stdout
    assert printed["1"] == printed["2"]
