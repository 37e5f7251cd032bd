"""CASSI forward model: coded-mask modulation, dispersion shear, detector sum.

Cubes are band-major float64 arrays of shape [bands, H, W]; measurements are
[H, W'] with W' = W + d*(bands - 1).  Band 0 is the unshifted reference, so
band b lands on detector columns [d*b, d*b + W).  Out-of-range reads are
zero (no wraparound), which is what makes the detector width formula exact.

Every function here is pure; shot noise takes an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .checks import integer

MAX_NOISE_BITS = 16


@dataclass(frozen=True)
class SensingOperator:
    """Coded mask plus shear geometry; induces Phi, Phi^T and diag(Phi Phi^T)."""

    mask: np.ndarray
    shift_step: int
    bands: int

    def __post_init__(self):
        mask = np.ascontiguousarray(self.mask, dtype=np.float64)
        if mask.ndim != 2 or not mask.size:
            raise ValueError(f"mask must be 2-D with both sides >= 1, got shape {mask.shape}")
        if not np.isfinite(mask).all():
            raise ValueError("mask contains non-finite values")
        object.__setattr__(self, "shift_step", integer(self.shift_step, "shift step"))
        object.__setattr__(self, "bands", integer(self.bands, "band count", 1))
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def for_measurement(cls, mask, width: int, bands: int) -> "SensingOperator":
        """The operator over `mask` whose detector is `width` columns wide for `bands` bands."""
        op = cls(mask, 0, bands)
        op = cls(op.mask, max(width - op.width, 0) // max(op.bands - 1, 1), op.bands)
        if op.detector_width != width:
            raise ValueError(f"measurement width {width} is not mask width {op.width} plus a "
                             f"whole shift step per band ({op.bands} bands)")
        return op

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def detector_width(self) -> int:
        return self.width + self.shift_step * (self.bands - 1)

    @cached_property
    def _phi_diag(self) -> np.ndarray:
        """`phi_diag` of this operator, computed on first use and kept read-only."""
        m2 = self.mask * self.mask
        diag = _detector_sum(lambda b: m2, self)
        diag.setflags(write=False)
        return diag

    def check_cube(self, cube: np.ndarray) -> None:
        if cube.shape != (self.bands, self.height, self.width):
            raise ValueError(
                f"cube shape {cube.shape} does not match operator "
                f"({self.bands}, {self.height}, {self.width})")

    def check_measurement(self, meas: np.ndarray) -> None:
        if meas.shape != (self.height, self.detector_width):
            raise ValueError(
                f"measurement shape {meas.shape} does not match operator "
                f"({self.height}, {self.detector_width})")


def _detector_sum(band_plane, op: SensingOperator) -> np.ndarray:
    """Sum band_plane(b) over the bands; plane b lands on columns [d*b, d*b+W).

    Each plane is made and dropped in turn, so at most one is alive at a time.
    """
    d, w = op.shift_step, op.width
    out = np.zeros((op.height, op.detector_width))
    for b in range(op.bands):
        out[:, d * b:d * b + w] += band_plane(b)
    return out


def forward_project(cube: np.ndarray, op: SensingOperator) -> np.ndarray:
    """Modulate each band by the mask, shear by d per band, sum on the detector."""
    cube = np.asarray(cube, dtype=np.float64)
    op.check_cube(cube)
    # one band at a time: a whole mask * cube product is a cube-sized temporary
    return _detector_sum(lambda b: op.mask * cube[b], op)


def adjoint_project(meas: np.ndarray, op: SensingOperator) -> np.ndarray:
    """Apply Phi^T: un-shear the measurement into each band and re-modulate."""
    cube = shift_back(meas, op)
    cube *= op.mask
    return cube


def shift_back(meas: np.ndarray, op: SensingOperator) -> np.ndarray:
    """Reverse the dispersion only: band b reads detector columns [d*b, d*b+W)."""
    meas = np.asarray(meas, dtype=np.float64)
    op.check_measurement(meas)
    d, w = op.shift_step, op.width
    cube = np.empty((op.bands, op.height, w))
    for b in range(op.bands):
        cube[b] = meas[:, d * b:d * b + w]
    return cube


def phi_diag(op: SensingOperator) -> np.ndarray:
    """diag(Phi Phi^T) as an [H, W'] map: summed squared mask per detector pixel.

    Each Phi entry is a mask value, so the diagonal entries are sums of M^2
    over the bands that hit a given detector column.  The map depends only on
    the operator, whose mask is read-only, so each operator computes it once
    and returns the same read-only array on every call.
    """
    return op._phi_diag


def noise_bits(value) -> int:
    """A detector bit depth for shot noise in [0, MAX_NOISE_BITS]; 0 means noiseless."""
    return integer(value, "noise bit depth", 0, MAX_NOISE_BITS)


def add_shot_noise(meas: np.ndarray, bits: int, seed: int) -> np.ndarray:
    """Poisson photon noise at the count scale implied by the detector bit depth.

    The measurement is scaled so its maximum maps to 2**bits - 1, sampled
    per pixel, and rescaled.  Deterministic under the seed.  Bit depth 0 is
    noiseless: the measurement comes back unchanged.
    """
    bits, seed = noise_bits(bits), integer(seed, "noise seed")
    meas = np.asarray(meas, dtype=np.float64)
    if bits == 0:
        return meas
    if (meas < 0).any():
        raise ValueError("measurement must be nonnegative for shot noise")
    peak = meas.max()
    if not np.isfinite(peak):
        raise ValueError("measurement must be finite for shot noise")
    if peak == 0.0:
        return meas.copy()
    full_scale = float(2 ** bits - 1)
    gain = full_scale / peak
    rng = np.random.default_rng(seed)
    counts = rng.poisson(meas * gain).astype(np.float64)
    return counts / gain


# ---------------------------------------------------------------------------
# differentiable wrappers: each map's backward applies its adjoint

def forward_project_node(cube: "ad.Node", op: SensingOperator) -> "ad.Node":
    return ad.unary(cube, forward_project(cube.value, op), lambda g: adjoint_project(g, op))


def adjoint_project_node(meas: "ad.Node", op: SensingOperator) -> "ad.Node":
    return ad.unary(meas, adjoint_project(meas.value, op), lambda g: forward_project(g, op))
