"""Permutations that flatten 2-D/3-D feature tensors into scan sequences.

Index convention: a position (band b, row r, col x) of a C x H x W tensor
flattens to b*H*W + r*W + x.  Purely spatial orders are defined on the
H*W indices of one plane and are applied identically to every channel.

Generated orders are immutable and cached by their sizes, checked under the
integer rule first, since the same permutations are reused on every forward pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .checks import integer


@dataclass(frozen=True)
class ScanOrder:
    """A bijection on [0, forward.size) with its inverse.

    forward[i] is the source index of sequence position i, so applying the
    order reads out[i] = x[forward[i]].
    """

    forward: np.ndarray
    inverse: np.ndarray
    descriptor: str


@dataclass(frozen=True)
class OrderReport:
    is_bijection: bool
    max_neighbor_distance: int


def _finish(descriptor: str, forward: np.ndarray) -> ScanOrder:
    forward = np.ascontiguousarray(forward, dtype=np.intp)
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.size, dtype=np.intp)
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return ScanOrder(forward, inverse, descriptor)


def global_order(height: int, width: int, reverse: bool = False) -> ScanOrder:
    """Row-major traversal of an H x W plane; reverse flips the whole sequence."""
    return _global_order(integer(height, "height", 1), integer(width, "width", 1), reverse)


@functools.cache
def _global_order(height: int, width: int, reverse: bool) -> ScanOrder:
    fwd = np.arange(height * width, dtype=np.intp)
    return _finish(f"global:{height}x{width}:rev={int(reverse)}", fwd[::-1] if reverse else fwd)


def local_patch_order(height: int, width: int, patch: int, reverse: bool = False) -> ScanOrder:
    """Row-major over the patch grid, row-major inside each patch.

    reverse flips the complete sequence, not the per-patch runs.
    """
    return _local_patch_order(integer(height, "height", 1), integer(width, "width", 1),
                              integer(patch, "patch", 1), reverse)


@functools.cache
def _local_patch_order(height: int, width: int, patch: int, reverse: bool) -> ScanOrder:
    if height % patch or width % patch:
        raise ValueError(f"patch side {patch} must divide spatial dims {height}x{width}")
    desc = f"local:{height}x{width}:p={patch}:rev={int(reverse)}"
    # axes (patch row, row in patch, patch col, col in patch) -> patch-major
    idx = np.arange(height * width, dtype=np.intp).reshape(
        height // patch, patch, width // patch, patch)
    fwd = idx.transpose(0, 2, 1, 3).reshape(-1)
    return _finish(desc, fwd[::-1] if reverse else fwd)


def cross_cube_order(height: int, width: int, channels: int, patch: int,
                     cube: tuple) -> ScanOrder:
    """Scan ordered by small spatial-spectral cubes inside each spatial patch.

    `cube` is the (h, w, c) cube footprint and depth.  Nesting, outermost
    first: spatial patches (row-major), channel blocks of depth c, cubes of
    footprint h x w inside the patch (row-major), and within a cube the
    spectral index varies fastest so adjacent bands at a pixel sit next to
    each other, then adjacent pixels.
    """
    return _cross_cube_order(integer(height, "height", 1), integer(width, "width", 1),
                             integer(channels, "channels", 1), integer(patch, "patch", 1),
                             tuple(integer(side, "cube side", 1) for side in cube))


@functools.cache
def _cross_cube_order(height: int, width: int, channels: int, patch: int,
                      cube: tuple) -> ScanOrder:
    ch, cw, cc = cube
    if height % patch or width % patch:
        raise ValueError(f"patch side {patch} must divide spatial dims {height}x{width}")
    if patch % ch or patch % cw:
        raise ValueError(f"cube footprint {ch}x{cw} must divide patch side {patch}")
    if channels % cc:
        raise ValueError(f"cube depth {cc} must divide {channels} channels")
    desc = f"cross:{height}x{width}x{channels}:p={patch}:cube={ch}x{cw}x{cc}"
    # axes of the flat C x H x W index: (block, band in block, patch row,
    # cube row in patch, row in cube, patch col, cube col in patch, col in cube)
    idx = np.arange(channels * height * width, dtype=np.intp).reshape(
        channels // cc, cc, height // patch, patch // ch, ch,
        width // patch, patch // cw, cw)
    return _finish(desc, idx.transpose(2, 5, 0, 3, 6, 4, 7, 1).reshape(-1))


def validate_order(order: ScanOrder) -> OrderReport:
    """Check bijectivity and report the largest flat-index jump between neighbors."""
    fwd = order.forward
    n = fwd.size
    ok = (
        order.inverse.size == n
        and np.array_equal(np.sort(fwd), np.arange(n))
        and np.array_equal(order.inverse[fwd], np.arange(n))
    )
    jump = int(np.abs(np.diff(fwd.astype(np.int64))).max()) if n > 1 else 0
    return OrderReport(bool(ok), jump)
