"""Round-trip and corruption properties of the file formats.

Every file `save_cube`, `save_weights` or a config writer produces reads back
to the values it was given (at float32 precision for payloads).  A truncated
file is always refused with `FileFormatError`.  A single changed byte either
still loads or is refused with `FileFormatError`, never another exception: a
changed payload byte can decode to another finite float, so a clean load is
allowed there.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cassi_ssm import fileio, training, unfolding
from cassi_ssm.denoiser import UNetConfig

TINY = UNetConfig(bands=2, base_channels=4, levels=1, blocks_per_level=1,
                  patch=2, cube=(1, 1, 2), state_size=2, expansion=1)
CONFIG = unfolding.UnfoldConfig(stages=2, net=TINY, share_weights=True)
WEIGHTS = unfolding.init_weights(CONFIG, seed=3, zero_residual=False)
F32_MAX = float(np.finfo(np.float32).max)
KINDS = (fileio.KIND_CUBE, fileio.KIND_MASK, fileio.KIND_MEASUREMENT)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("props")


def _loads_or_refuses(load, path):
    try:
        load(path)
    except fileio.FileFormatError:
        pass


@st.composite
def cubes(draw):
    kind = draw(st.sampled_from(KINDS))
    bands = draw(st.integers(1, 3)) if kind == fileio.KIND_CUBE else 1
    shape = (bands, draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    values = draw(arrays(np.float64, shape,
                         elements=st.floats(-F32_MAX, F32_MAX, allow_subnormal=True)))
    return kind, values


def _save_cube(folder, kind, values):
    path = folder / "cube.hsic"
    fileio.save_cube(path, values, kind=kind)
    return path, path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(cubes())
def test_cube_round_trips_at_f32(folder, cube):
    kind, values = cube
    path, _ = _save_cube(folder, kind, values)
    loaded, loaded_kind = fileio.load_cube(path, expect_kind=kind)
    assert loaded_kind == kind
    assert np.array_equal(loaded, values.astype(np.float32).astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(cubes(), st.data())
def test_cube_truncation_refused(folder, cube, data):
    path, raw = _save_cube(folder, *cube)
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(fileio.FileFormatError):
        fileio.load_cube(path)


@settings(max_examples=80, deadline=None)
@given(cubes(), st.data())
def test_cube_changed_byte_loads_or_refused(folder, cube, data):
    kind, values = cube
    path, raw = _save_cube(folder, kind, values)
    raw = bytearray(raw)
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(raw))
    _loads_or_refuses(lambda p: fileio.load_cube(p, expect_kind=kind), path)


# ---------------------------------------------------------------------------
# CSMW weights

def _save_weights(folder, mask):
    path = folder / "model.csmw"
    fileio.save_weights(path, WEIGHTS, CONFIG, feature_mask=mask)
    return path, path.read_bytes()


def _entry_headers(raw):
    """Offsets of every entry's name length, name, rank and dims bytes."""
    (count,) = struct.unpack_from("<I", raw, 37)
    pos, offsets = 41, []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        rank_at = pos + 2 + name_len
        dims = struct.unpack_from(f"<{raw[rank_at]}I", raw, rank_at + 1)
        end = rank_at + 1 + 4 * len(dims)
        offsets += range(pos, end)
        pos = end + 4 * math.prod(dims)
    assert pos == len(raw)
    return offsets


masks = st.builds(training.generate_mask, st.integers(1, 6), st.integers(1, 6),
                  st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2**64 - 1))


@settings(max_examples=40, deadline=None)
@given(masks)
def test_weights_round_trip_with_any_mask(folder, mask):
    path, _ = _save_weights(folder, mask)
    loaded = fileio.load_weights(path)
    assert loaded.config == CONFIG
    assert loaded.arrays.keys() == WEIGHTS.arrays().keys()
    for name, value in WEIGHTS.arrays().items():
        assert np.array_equal(loaded.arrays[name], value.astype(np.float32).astype(np.float64))
    got = loaded.feature_mask
    assert (got.zero_ratio, got.seed) == (mask.zero_ratio, mask.seed)
    assert np.array_equal(got.values, mask.values)
    assert got.digest() == mask.digest()


@settings(max_examples=60, deadline=None)
@given(st.none() | masks, st.data())
def test_weights_truncation_refused(folder, mask, data):
    path, raw = _save_weights(folder, mask)
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(fileio.FileFormatError):
        fileio.load_weights(path)


@settings(max_examples=150, deadline=None)
@given(st.none() | masks, st.data())
def test_weights_changed_byte_loads_or_refused(folder, mask, data):
    path, raw = _save_weights(folder, mask)
    # half the draws land on the entry headers, which hold a small share of the bytes
    anywhere = st.integers(0, len(raw) - 1)
    at = data.draw(st.one_of(anywhere, st.sampled_from(_entry_headers(raw))))
    raw = bytearray(raw)
    raw[at] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(raw))
    _loads_or_refuses(fileio.load_weights, path)


# ---------------------------------------------------------------------------
# config files

sizes = st.integers(1, 1000)
config_values = st.fixed_dictionaries({}, optional={
    "stages": sizes, "base_channels": sizes, "levels": st.integers(0, 8), "blocks": sizes,
    "patch": sizes, "state_size": sizes, "expansion": sizes,
    "mask_ratio": st.floats(0.0, 1.0, exclude_max=True),
    "mask_seed": st.integers(0, 2**64 - 1), "share_weights": st.integers(0, 1),
    "cube": st.tuples(sizes, sizes, sizes),
})


@settings(max_examples=60, deadline=None)
@given(config_values, st.booleans())
def test_config_file_round_trip(folder, values, comments):
    lines = ["# written from drawn values"] if comments else []
    for key, value in values.items():
        text = "x".join(map(str, value)) if key == "cube" else repr(value)
        lines.append(f"{key} = {text}" + ("  # note" if comments else ""))
    path = folder / "profile.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert fileio.parse_config_file(path) == values
