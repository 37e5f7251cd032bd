"""PSNR and SSIM as used for reconstruction quality reporting.

SSIM uses the canonical 11x11 Gaussian window (sigma 1.5) with
C1 = (0.01 * range)^2 and C2 = (0.03 * range)^2, averaged over the valid
window positions.  The window is the outer product of one 1-D Gaussian, so
the local moments use a separable filter: two 1-D passes, along H then W.
Each pass filters the middle axis of a [4, rows, cols] moment stack, the
one axis where numpy's matmul hands the overlapping windows to BLAS.
The formula reads four moments, the means of a, b, a^2 + b^2 and ab: it
needs the two variances only as their sum, so a^2 and b^2 are filtered as
one plane.  The first pass reads the images where they lie, with no stacked
copy.
PSNR is capped at 100 dB, returned exactly at zero MSE.
Scoring finite images whose arithmetic overflows float64 is refused with
one ValueError, rather than scored as inf, NaN or 0.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checks import band_major, number

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5

# the 1-D Gaussian whose outer product with itself is the SSIM window
_TAPS = np.exp(-0.5 * ((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) / SSIM_SIGMA) ** 2)
_TAPS /= _TAPS.sum()
_TAPS.setflags(write=False)


@dataclass(frozen=True)
class MetricReport:
    band_psnr: tuple
    band_ssim: tuple
    psnr_mean: float
    ssim_mean: float
    data_range: float


def _same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def _images(a, b, data_range: float):
    """Both images as C-ordered float64 and data_range as a float; refuses unequal shapes
    and a data_range that is not a number (a bool included), not finite or not > 0."""
    a = np.asarray(a, dtype=np.float64, order="C")
    b = np.asarray(b, dtype=np.float64, order="C")
    _same_shape(a, b)
    data_range = number(data_range, "data_range")
    if not (np.isfinite(data_range) and data_range > 0):
        raise ValueError(f"data_range must be finite and > 0, got {data_range}")
    return a, b, data_range


def _scoreable(a: np.ndarray, b: np.ndarray) -> bool:
    """False when either image holds NaN, +Inf or -Inf; such a pair scores NaN."""
    return bool(np.isfinite(a).all() and np.isfinite(b).all())


@contextmanager
def _overflow_refused():
    """Score with float64 overflow raised, numpy's and Python's alike, as one ValueError."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"scoring overflows float64: {exc}") from exc


def psnr(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    """10*log10(range^2 / MSE) in dB, capped at 100; NaN when an image holds NaN or Inf."""
    a, b, data_range = _images(a, b, data_range)
    if not _scoreable(a, b):
        return math.nan
    with _overflow_refused():
        mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    # Python floats: a range too large to square gives inf, and so the cap
    return min(PSNR_CAP_DB, float(10.0 * np.log10(data_range * data_range / mse)))


def _filter_images(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first SSIM pass: a, b, a^2 + b^2 and ab filtered along H, as [4, H-k+1, W].

    The images are filtered where they lie; the two product planes live only
    for this call, so they are freed before the second pass.
    """
    h, w = a.shape
    moments = np.empty((4, h - SSIM_WINDOW + 1, w))
    sq, ab = a * a, b * b
    sq += ab
    np.multiply(a, b, out=ab)
    for plane, image in zip(moments, (a, b, sq, ab)):
        np.matmul(sliding_window_view(image, SSIM_WINDOW, axis=0), _TAPS, out=plane)
    return moments


def ssim(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    """Mean structural similarity of two single-band images; NaN when one holds NaN or Inf."""
    a, b, data_range = _images(a, b, data_range)
    if a.ndim != 2:
        raise ValueError(f"SSIM expects a 2-D image, got shape {a.shape}")
    h, w = a.shape
    k = SSIM_WINDOW
    if h < k or w < k:
        raise ValueError(f"image {h}x{w} smaller than the {k}x{k} SSIM window")
    if not _scoreable(a, b):
        return math.nan
    with _overflow_refused():
        c1 = (0.01 * data_range) ** 2
        c2 = (0.03 * data_range) ** 2
        # `windows @ taps` reaches BLAS (a matrix-vector product) only along the
        # middle axis; along the last one numpy loops by itself.  So both passes
        # filter along H of what they read, keeping the valid positions, with one
        # transpose between them: the images and a^2 + b^2, ab -> [4, H-k+1, W]
        # -> [4, W, H-k+1] -> [4, W-k+1, H-k+1].  The map's mean does not need it
        # transposed back.  The images are C-ordered, so every layout takes one
        # BLAS path and scores the same.
        moments = _filter_images(a, b)
        moments = np.ascontiguousarray(moments.transpose(0, 2, 1))
        moments = sliding_window_view(moments, k, axis=1) @ _TAPS

        # with p = mu_a mu_b and s = mu_a^2 + mu_b^2, the map is
        # (2p + c1)(2(m_ab - p) + c2) / ((s + c1)(m_sq - s + c2)), built in place
        mu_a, mu_b, m_sq, m_ab = moments
        p = mu_a * mu_b
        s = np.square(mu_a, out=mu_a)
        s += np.square(mu_b, out=mu_b)
        m_ab -= p
        m_ab *= 2
        m_ab += c2
        p *= 2
        p += c1
        p *= m_ab
        m_sq -= s
        m_sq += c2
        s += c1
        s *= m_sq
        p /= s
        return float(np.mean(p))


def evaluate(cube_a: np.ndarray, cube_b: np.ndarray) -> MetricReport:
    """Per-band PSNR/SSIM of two cubes, averaged over bands.

    Both are [bands, H, W].  cube_a is the reference and must be finite;
    the data range is its maximum (1.0 if the reference is empty of signal).
    A band of cube_b holding NaN or Inf scores NaN, and so do the means.
    """
    cube_a, cube_b = band_major(cube_a), band_major(cube_b)
    lo, peak = float(np.min(cube_a)), float(np.max(cube_a))
    if not (math.isfinite(lo) and math.isfinite(peak)):
        raise ValueError("reference cube holds NaN or Inf")
    data_range = peak if peak > 0 else 1.0
    # psnr and ssim bring each band to C order, so a cube in another layout
    # (a band-last array transposed, say) is copied a band at a time, not whole
    _same_shape(cube_a, cube_b)
    band_psnr = tuple(psnr(cube_a[i], cube_b[i], data_range) for i in range(cube_a.shape[0]))
    band_ssim = tuple(ssim(cube_a[i], cube_b[i], data_range) for i in range(cube_a.shape[0]))
    return MetricReport(
        band_psnr=band_psnr,
        band_ssim=band_ssim,
        psnr_mean=float(np.mean(band_psnr)),
        ssim_mean=float(np.mean(band_ssim)),
        data_range=float(data_range),
    )
