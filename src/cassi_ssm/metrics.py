"""PSNR and SSIM as used for reconstruction quality reporting.

SSIM uses the canonical 11x11 Gaussian window (sigma 1.5) with
C1 = (0.01 * range)^2 and C2 = (0.03 * range)^2, averaged over the valid
window positions.  The window is the outer product of one 1-D Gaussian, so
the local moments use a separable (two 1-D passes) filter, along W then H.
PSNR is capped at 100 dB, returned exactly at zero MSE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import band_major

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
    """Both images as float64; refuses unequal shapes and a data_range not finite and > 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(data_range) and data_range > 0):
        raise ValueError(f"data_range must be finite and > 0, got {data_range}")
    return a, b


def _scoreable(a: np.ndarray, b: np.ndarray) -> bool:
    """False when either image holds NaN, +Inf or -Inf; such a pair scores NaN."""
    return bool(np.isfinite(a).all() and np.isfinite(b).all())


def psnr(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    """10*log10(range^2 / MSE) in dB, capped at 100; NaN when an image holds NaN or Inf."""
    a, b = _images(a, b, data_range)
    if not _scoreable(a, b):
        return math.nan
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, float(10.0 * np.log10(data_range * data_range / mse)))


def ssim(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    """Mean structural similarity of two single-band images; NaN when one holds NaN or Inf."""
    a, b = _images(a, b, data_range)
    h, w = a.shape
    k = SSIM_WINDOW
    if h < k or w < k:
        raise ValueError(f"image {h}x{w} smaller than the {k}x{k} SSIM window")
    if not _scoreable(a, b):
        return math.nan
    g = np.exp(-0.5 * ((np.arange(k) - (k - 1) / 2.0) / SSIM_SIGMA) ** 2)
    g /= g.sum()
    # each 1-D pass keeps only the valid positions: [5, H, W] -> [5, H-k+1, W-k+1]
    moments = np.stack([a, b, a * a, b * b, a * b])
    for axis in (2, 1):
        moments = np.lib.stride_tricks.sliding_window_view(moments, k, axis=axis) @ g
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
    cube_a, cube_b = _images(cube_a, cube_b, data_range)
    band_psnr = tuple(psnr(cube_a[i], cube_b[i], data_range) for i in range(cube_a.shape[0]))
    band_ssim = tuple(ssim(cube_a[i], cube_b[i], data_range) for i in range(cube_a.shape[0]))
    return MetricReport(
        band_psnr=band_psnr,
        band_ssim=band_ssim,
        psnr_mean=float(np.mean(band_psnr)),
        ssim_mean=float(np.mean(band_ssim)),
        data_range=float(data_range),
    )
