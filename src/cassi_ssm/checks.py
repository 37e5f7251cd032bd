"""The rules for integer settings, cube shapes and cube nesting, shared by constructors,
flags and files."""

from __future__ import annotations

import operator


def integer(value, what: str, least: int = 0, most: int | None = None) -> int:
    """`value` as an int in [least, most] (no upper bound when most is None).

    Python and numpy integers and decimal strings are taken; bools, floats
    (2.0 included) and anything else are refused with ValueError rather
    than truncated.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = int(value) if isinstance(value, str) else operator.index(value)
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
