"""PSNR and SSIM as used for reconstruction quality reporting.

SSIM uses the canonical 11x11 Gaussian window (sigma 1.5) with
C1 = (0.01 * range)^2 and C2 = (0.03 * range)^2, averaged over the valid
window positions.  The window is the outer product of one 1-D Gaussian, so
the local moments use a separable filter: two 1-D passes, along H then W.
Each pass filters the middle axis of a [5, rows, cols] moment stack, the
one axis where numpy's matmul hands the overlapping windows to BLAS.
PSNR is capped at 100 dB, returned exactly at zero MSE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import band_major, number

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


@dataclass(frozen=True)
class MetricReport:
    band_psnr: tuple
    band_ssim: tuple
    psnr_mean: float
    ssim_mean: float
    data_range: float


def _images(a, b, data_range: float):
    """Both images as float64 and data_range as a float; refuses unequal shapes and a
    data_range that is not a number (a bool included), not finite or not > 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    data_range = number(data_range, "data_range")
    if not (np.isfinite(data_range) and data_range > 0):
        raise ValueError(f"data_range must be finite and > 0, got {data_range}")
    return a, b, data_range


def _scoreable(a: np.ndarray, b: np.ndarray) -> bool:
    """False when either image holds NaN, +Inf or -Inf; such a pair scores NaN."""
    return bool(np.isfinite(a).all() and np.isfinite(b).all())


def psnr(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    """10*log10(range^2 / MSE) in dB, capped at 100; NaN when an image holds NaN or Inf."""
    a, b, data_range = _images(a, b, data_range)
    if not _scoreable(a, b):
        return math.nan
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, float(10.0 * np.log10(data_range * data_range / mse)))


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
    g = np.exp(-0.5 * ((np.arange(k) - (k - 1) / 2.0) / SSIM_SIGMA) ** 2)
    g /= g.sum()
    # `windows @ g` reaches BLAS (a matrix-vector product) only along the middle
    # axis; along the last one numpy loops by itself.  So both passes filter
    # axis 1, with one transpose between them, each keeping the valid positions:
    # [5, H, W] -> [5, H-k+1, W] -> [5, W, H-k+1] -> [5, W-k+1, H-k+1].  The
    # map's mean does not need it transposed back.  np.array, unlike np.stack,
    # lays the stack out C-ordered whatever the images' layout, so every layout
    # takes one BLAS path and scores the same.
    moments = np.array([a, b, a * a, b * b, a * b])
    moments = np.lib.stride_tricks.sliding_window_view(moments, k, axis=1) @ g
    moments = np.ascontiguousarray(moments.transpose(0, 2, 1))
    moments = np.lib.stride_tricks.sliding_window_view(moments, k, axis=1) @ g
    mu_a, mu_b, m_aa, m_bb, m_ab = moments
    var_a = m_aa - mu_a * mu_a
    var_b = m_bb - mu_b * mu_b
    cov = m_ab - mu_a * mu_b

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


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
    cube_a, cube_b, data_range = _images(cube_a, cube_b, data_range)
    band_psnr = tuple(psnr(cube_a[i], cube_b[i], data_range) for i in range(cube_a.shape[0]))
    band_ssim = tuple(ssim(cube_a[i], cube_b[i], data_range) for i in range(cube_a.shape[0]))
    return MetricReport(
        band_psnr=band_psnr,
        band_ssim=band_ssim,
        psnr_mean=float(np.mean(band_psnr)),
        ssim_mean=float(np.mean(band_ssim)),
        data_range=float(data_range),
    )
