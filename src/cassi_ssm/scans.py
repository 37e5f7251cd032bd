"""Permutations that flatten 2-D/3-D feature tensors into scan sequences.

Index convention: a position (band b, row r, col x) of a C x H x W tensor
flattens to b*H*W + r*W + x.  Purely spatial orders are defined on the
H*W indices of one plane and are applied identically to every channel.

Generated orders are immutable and cached by descriptor, since the same
permutations are reused on every forward pass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScanOrder:
    """A bijection on [0, length) with its inverse.

    forward[i] is the source index of sequence position i, so applying the
    order reads out[i] = x[forward[i]].
    """

    length: int
    forward: np.ndarray
    inverse: np.ndarray
    descriptor: str

    def inverted(self) -> "ScanOrder":
        return ScanOrder(self.length, self.inverse, self.forward, self.descriptor + "~inv")


@dataclass(frozen=True)
class CubeSpec:
    """Spatial patch side and the small cube tiling used by the cross scan."""

    patch: int
    h: int
    w: int
    c: int

    def validate(self, height: int, width: int, channels: int) -> None:
        if height % self.patch or width % self.patch:
            raise ValueError(
                f"patch side {self.patch} must divide spatial dims {height}x{width}")
        if self.patch % self.h or self.patch % self.w:
            raise ValueError(
                f"cube footprint {self.h}x{self.w} must divide patch side {self.patch}")
        if channels % self.c:
            raise ValueError(f"cube depth {self.c} must divide {channels} channels")


@dataclass(frozen=True)
class OrderReport:
    is_bijection: bool
    max_neighbor_distance: int


_CACHE: dict[str, ScanOrder] = {}
_CACHE_LOCK = threading.Lock()


def _finish(descriptor: str, forward: np.ndarray) -> ScanOrder:
    forward = np.ascontiguousarray(forward, dtype=np.intp)
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.size, dtype=np.intp)
    forward.setflags(write=False)
    inverse.setflags(write=False)
    order = ScanOrder(int(forward.size), forward, inverse, descriptor)
    with _CACHE_LOCK:
        _CACHE.setdefault(descriptor, order)
    return _CACHE[descriptor]


def _cached(descriptor: str) -> ScanOrder | None:
    with _CACHE_LOCK:
        return _CACHE.get(descriptor)


def global_order(height: int, width: int, reverse: bool = False) -> ScanOrder:
    """Row-major traversal of an H x W plane; reverse flips the whole sequence."""
    if height < 1 or width < 1:
        raise ValueError(f"dims must be positive, got {height}x{width}")
    desc = f"global:{height}x{width}:rev={int(reverse)}"
    hit = _cached(desc)
    if hit is not None:
        return hit
    fwd = np.arange(height * width, dtype=np.intp)
    if reverse:
        fwd = fwd[::-1]
    return _finish(desc, fwd)


def local_patch_order(height: int, width: int, patch: int, reverse: bool = False) -> ScanOrder:
    """Row-major over the patch grid, row-major inside each patch.

    reverse flips the complete sequence, not the per-patch runs.
    """
    if height % patch or width % patch:
        raise ValueError(f"patch side {patch} must divide spatial dims {height}x{width}")
    desc = f"local:{height}x{width}:p={patch}:rev={int(reverse)}"
    hit = _cached(desc)
    if hit is not None:
        return hit
    # axes (patch row, row in patch, patch col, col in patch) -> patch-major
    idx = np.arange(height * width, dtype=np.intp).reshape(
        height // patch, patch, width // patch, patch)
    fwd = idx.transpose(0, 2, 1, 3).reshape(-1)
    if reverse:
        fwd = fwd[::-1]
    return _finish(desc, fwd)


def cross_cube_order(height: int, width: int, channels: int, spec: CubeSpec) -> ScanOrder:
    """Scan ordered by small spatial-spectral cubes inside each spatial patch.

    Nesting, outermost first: spatial patches (row-major), channel blocks of
    depth c, cubes of footprint h x w inside the patch (row-major), and
    within a cube the spectral index varies fastest so adjacent bands at a
    pixel sit next to each other, then adjacent pixels.
    """
    spec.validate(height, width, channels)
    desc = (f"cross:{height}x{width}x{channels}:p={spec.patch}"
            f":cube={spec.h}x{spec.w}x{spec.c}")
    hit = _cached(desc)
    if hit is not None:
        return hit
    p = spec.patch
    # axes of the flat C x H x W index: (block, band in block, patch row,
    # cube row in patch, row in cube, patch col, cube col in patch, col in cube)
    idx = np.arange(channels * height * width, dtype=np.intp).reshape(
        channels // spec.c, spec.c, height // p, p // spec.h, spec.h,
        width // p, p // spec.w, spec.w)
    return _finish(desc, idx.transpose(2, 5, 0, 3, 6, 4, 7, 1).reshape(-1))


def spectral_scan_order(height: int, width: int, channels: int) -> ScanOrder:
    """Plain per-pixel spectral scan: full spectrum of each pixel in row-major order.

    Used as the locality baseline the cross-cube order is compared against.
    """
    desc = f"spectral:{height}x{width}x{channels}"
    hit = _cached(desc)
    if hit is not None:
        return hit
    plane = height * width
    pix = np.arange(plane, dtype=np.intp)
    fwd = (pix[:, None] + np.arange(channels, dtype=np.intp)[None, :] * plane).reshape(-1)
    return _finish(desc, fwd)


def validate_order(order: ScanOrder) -> OrderReport:
    """Check bijectivity and report the largest flat-index jump between neighbors."""
    fwd = order.forward
    ok = (
        fwd.size == order.length
        and order.inverse.size == order.length
        and np.array_equal(np.sort(fwd), np.arange(order.length))
        and np.array_equal(order.inverse[fwd], np.arange(order.length))
    )
    jump = int(np.abs(np.diff(fwd.astype(np.int64))).max()) if order.length > 1 else 0
    return OrderReport(bool(ok), jump)
