"""The rules for integer and real-number settings, band-major arrays, cube shapes and
cube nesting, shared by constructors, flags and files."""

from __future__ import annotations

import operator
import re

import numpy as np

_DECIMAL = re.compile(r"[+-]?[0-9]+")


def integer(value, what: str, least: int = 0, most: int | None = None) -> int:
    """`value` as an int in [least, most] (no upper bound when most is None).

    Python and numpy integers and decimal strings (ASCII digits with an
    optional sign) are taken; bools, floats (2.0 included), other text
    ("1_000", a non-ASCII digit, spaces) and anything else are refused with
    ValueError rather than truncated.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        # text outside the decimal form falls through to operator.index, which refuses it
        decimal = isinstance(value, str) and _DECIMAL.fullmatch(value)
        number = int(value) if decimal else operator.index(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if most is not None and not least <= number <= most:
        # a wide all-ones bound such as 2**64 - 1 reads as the half-open [0, 2**64)
        wide = most >= 2 ** 32 and most & (most + 1) == 0
        top = f"2**{most.bit_length()})" if wide else f"{most}]"
        raise ValueError(f"{what} must lie in [{least}, {top}, got {value!r}")
    if number < least:
        raise ValueError(f"{what} must be >= {least}, got {value!r}")
    return number


def number(value, what: str) -> float:
    """`value` as a float; a bool, bytes, or text that `float` cannot read or that is not
    ASCII with no underscore and no surrounding whitespace (as for `integer`), is refused."""
    try:
        if isinstance(value, (bool, np.bool_, bytes, bytearray)):
            raise TypeError
        if isinstance(value, str) and ("_" in value or value != value.strip() or not value.isascii()):
            raise ValueError
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def band_major(values) -> np.ndarray:
    """`values` as a float64 [bands, H, W] array; an array of any other rank is refused."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError(f"expected a 3-D array, got shape {values.shape}")
    return values


def switch(value, what: str) -> bool:
    """A bool, or 0 or 1 under the integer rule, as a bool."""
    return value if isinstance(value, bool) else bool(integer(value, what, 0, 1))


def cube_shape(value) -> tuple:
    """A (height, width, depth) cube: a tuple or list of three integers >= 1."""
    try:
        if not (isinstance(value, (tuple, list)) and len(value) == 3):
            raise ValueError(f"got {value!r}")
        return tuple(integer(side, "cube", 1) for side in value)
    except ValueError as exc:
        raise ValueError(f"cube must be three integers (height, width, depth): {exc}") from None


def cube_nests(cube: tuple, patch: int, channels: int) -> None:
    """Refuse a cube whose footprint does not divide the patch side or whose
    depth does not divide the channel count."""
    if patch % cube[0] or patch % cube[1]:
        raise ValueError(f"cube footprint {cube[0]}x{cube[1]} must divide patch side {patch}")
    if channels % cube[2]:
        raise ValueError(f"cube depth {cube[2]} must divide {channels} channels")
