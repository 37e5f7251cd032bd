"""Bit-exact file formats: HSIC cubes, CSMW weights, PGM band export.

Payloads are 32-bit little-endian floats on disk (round-to-nearest-even
from the 64-bit working precision); headers are fixed-layout and every
malformed field has its own diagnostic.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import integer
from .denoiser import UNetConfig
from .training import FeatureMask, feature_mask_seed, zero_ratio
from .unfolding import UnfoldConfig

CUBE_MAGIC = b"HSIC"
CUBE_VERSION = 1
KIND_CUBE = 0
KIND_MASK = 1
KIND_MEASUREMENT = 2
_KIND_NAMES = {KIND_CUBE: "cube", KIND_MASK: "mask", KIND_MEASUREMENT: "measurement"}
MAX_DIM = 65536

WEIGHTS_MAGIC = b"CSMW"
WEIGHTS_VERSION = 2
MAX_RANK = 32    # the fewest dimensions any supported numpy holds (numpy 1.x)

MASK_VALUES_KEY = "mask/values"
MASK_META_KEY = "mask/meta"
PROFILE_KEY = "meta/profile"


class FileFormatError(ValueError):
    """Raised for any malformed container file."""


def _all_finite(values: np.ndarray) -> bool:
    """True when no value is NaN or Inf, without a full-size temporary.

    Float32 values cannot overflow a float64 sum, so the sum is finite
    exactly when every value is.
    """
    return bool(np.isfinite(values.sum(dtype=np.float64)))


def _f32_values(payload: bytes) -> np.ndarray:
    """Float32 bytes as float64; a signalling NaN is left to `_all_finite`
    rather than raising the cast's invalid-value warning."""
    with np.errstate(invalid="ignore"):
        return np.frombuffer(payload, dtype="<f4").astype(np.float64)


def _f32_payload(values: np.ndarray, where: str) -> bytes:
    """Little-endian float32 bytes; refuses what `load_cube`/`load_weights` would."""
    with np.errstate(over="ignore"):
        payload = values.astype("<f4")
    if not _all_finite(payload):
        raise ValueError(f"{where} holds NaN, Inf or a value beyond float32 range")
    return payload.tobytes()


# ---------------------------------------------------------------------------
# HSIC cubes

def save_cube(path, values: np.ndarray, kind: int = KIND_CUBE) -> None:
    """Write a [bands, H, W] array (band-major) as a kind-tagged HSIC file."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError(f"expected a 3-D array, got shape {values.shape}")
    if kind not in _KIND_NAMES:
        raise ValueError(f"unknown kind {kind}")
    if kind in (KIND_MASK, KIND_MEASUREMENT) and values.shape[0] != 1:
        raise ValueError(f"{_KIND_NAMES[kind]} files must carry a single plane")
    nb, h, w = values.shape
    payload = _f32_payload(values, f"{path}: payload")
    header = CUBE_MAGIC + struct.pack("<BBIII", CUBE_VERSION, kind, h, w, nb)
    Path(path).write_bytes(header + payload)


def load_cube(path, expect_kind: int | None = None):
    """Read an HSIC file; returns (values [bands, H, W] float64, kind)."""
    raw = Path(path).read_bytes()
    if len(raw) < 18:
        raise FileFormatError(f"{path}: truncated header")
    if raw[:4] != CUBE_MAGIC:
        raise FileFormatError(f"{path}: not a HSIC file")
    version, kind, h, w, nb = struct.unpack("<BBIII", raw[4:18])
    if version != CUBE_VERSION:
        raise FileFormatError(f"{path}: unsupported HSIC version {version}")
    if kind not in _KIND_NAMES:
        raise FileFormatError(f"{path}: unknown HSIC kind byte {kind}")
    if not (1 <= h <= MAX_DIM and 1 <= w <= MAX_DIM and 1 <= nb <= MAX_DIM):
        raise FileFormatError(f"{path}: implausible dimensions {h}x{w}x{nb}")
    expected = 4 * h * w * nb
    body = raw[18:]
    if len(body) < expected:
        raise FileFormatError(f"{path}: truncated payload ({len(body)} of {expected} bytes)")
    if len(body) > expected:
        raise FileFormatError(f"{path}: oversized payload ({len(body) - expected} trailing bytes)")
    if expect_kind is not None and kind != expect_kind:
        raise FileFormatError(
            f"{path}: kind mismatch (expected {_KIND_NAMES[expect_kind]}, found {_KIND_NAMES[kind]})")
    values = _f32_values(body).reshape(nb, h, w)
    if not _all_finite(values):
        raise FileFormatError(f"{path}: payload holds NaN or Inf")
    return values, kind


# ---------------------------------------------------------------------------
# CSMW weights

def _config_profile(config: UnfoldConfig) -> np.ndarray:
    net = config.net
    return np.array([
        config.stages, int(config.share_weights), net.bands, net.base_channels,
        net.levels, net.blocks_per_level, net.patch,
        net.cube[0], net.cube[1], net.cube[2], net.state_size, net.expansion,
    ], dtype=np.float64)


def config_from_profile(profile: np.ndarray) -> UnfoldConfig:
    # integral entries become ints; any other is left for the configs to refuse
    p = [int(v) if v.is_integer() else v for v in map(float, np.asarray(profile).ravel())]
    if len(p) != 12:
        raise FileFormatError(f"weights profile has {len(p)} fields, expected 12")
    net = UNetConfig(bands=p[2], base_channels=p[3], levels=p[4], blocks_per_level=p[5],
                     patch=p[6], cube=(p[7], p[8], p[9]), state_size=p[10], expansion=p[11])
    return UnfoldConfig(stages=p[0], net=net, share_weights=p[1])


def config_digest(config: UnfoldConfig) -> bytes:
    net = config.net
    text = (f"stages={config.stages};share={int(config.share_weights)};bands={net.bands};"
            f"base={net.base_channels};levels={net.levels};blocks={net.blocks_per_level};"
            f"patch={net.patch};cube={net.cube[0]}x{net.cube[1]}x{net.cube[2]};"
            f"state={net.state_size};expansion={net.expansion}")
    return hashlib.sha256(text.encode()).digest()


def _mask_meta(mask: FeatureMask) -> np.ndarray:
    """Eight little-endian 16-bit words, each exact in float32: the float64
    bits of zero_ratio, then the seed as a uint64."""
    words = np.frombuffer(struct.pack("<dQ", float(mask.zero_ratio), mask.seed), dtype="<u2")
    return words.astype(np.float64)


def _u16_words(words: np.ndarray) -> bool:
    """True when every entry is an integer in [0, 0xFFFF], as the writers store them."""
    return np.array_equal(words, words.astype("<u2"))


def _load_mask(path, arrays: dict, version: int) -> FeatureMask | None:
    """Pop the feature-mask entries; version 1 stored [ratio, seed & 0xFFFF, seed >> 16]."""
    values = arrays.pop(MASK_VALUES_KEY, None)
    meta = arrays.pop(MASK_META_KEY, None)
    if values is None and meta is None:
        return None
    if values is None or meta is None:
        raise FileFormatError(
            f"{path}: feature mask needs both {MASK_VALUES_KEY!r} and {MASK_META_KEY!r}")
    if version == 1 and meta.shape == (3,) and _u16_words(meta[1:]):
        ratio, seed = float(meta[0]), int(meta[1]) | (int(meta[2]) << 16)
    elif version != 1 and meta.shape == (8,) and _u16_words(meta):
        ratio, seed = struct.unpack("<dQ", meta.astype("<u2").tobytes())
    else:
        raise FileFormatError(f"{path}: malformed feature-mask metadata")
    try:
        return FeatureMask(values, ratio, seed)
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad feature-mask data: {exc}") from None


@dataclass
class LoadedModel:
    config: UnfoldConfig
    arrays: dict
    feature_mask: FeatureMask | None


def save_weights(path, weights, config: UnfoldConfig, feature_mask: FeatureMask | None = None) -> None:
    """Serialize named tensors (f32 payloads) plus config profile and mask."""
    entries = dict(weights.arrays())
    entries[PROFILE_KEY] = _config_profile(config)
    if feature_mask is not None:
        entries[MASK_VALUES_KEY] = feature_mask.values
        entries[MASK_META_KEY] = _mask_meta(feature_mask)
    blob = bytearray()
    blob += WEIGHTS_MAGIC
    blob += struct.pack("<B", WEIGHTS_VERSION)
    blob += config_digest(config)
    blob += struct.pack("<I", len(entries))
    for name in sorted(entries):
        arr = np.asarray(entries[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += _f32_payload(arr, f"{path}: tensor {name!r}")
    Path(path).write_bytes(bytes(blob))


def load_weights(path) -> LoadedModel:
    """Read a CSMW file back; verifies the stored config digest."""
    raw = Path(path).read_bytes()
    if raw[:4] != WEIGHTS_MAGIC:
        raise FileFormatError(f"{path}: not a CSMW file")
    pos = 4

    def take(n: int, what: str) -> bytes:
        """The next n bytes; a read past the end is a truncated `what`."""
        nonlocal pos
        if len(raw) - pos < n:
            raise FileFormatError(f"{path}: truncated weights {what}")
        pos += n
        return raw[pos - n:pos]

    version, digest, count = struct.unpack("<B32sI", take(37, "header"))
    if version not in (1, WEIGHTS_VERSION):
        raise FileFormatError(f"{path}: unsupported CSMW version {version}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "file"))
        encoded = take(name_len, "file")
        try:
            name = encoded.decode("utf-8")
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: tensor name {encoded!r} is not UTF-8") from None
        (rank,) = take(1, "file")
        if rank > MAX_RANK:
            raise FileFormatError(f"{path}: tensor {name!r} has rank {rank}, more than the "
                                  f"{MAX_RANK} dimensions an array may hold")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "file"))
        payload = take(4 * math.prod(dims), "payload")
        if name in arrays:
            raise FileFormatError(f"{path}: duplicate tensor name {name!r}")
        arrays[name] = _f32_values(payload).reshape(dims)
        if not _all_finite(arrays[name]):
            raise FileFormatError(f"{path}: tensor {name!r} holds NaN or Inf")
    if pos != len(raw):
        raise FileFormatError(f"{path}: oversized weights payload ({len(raw) - pos} trailing bytes)")
    if PROFILE_KEY not in arrays:
        raise FileFormatError(f"{path}: missing config profile entry")
    try:
        config = config_from_profile(arrays.pop(PROFILE_KEY))
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad config profile: {exc}") from None
    if config_digest(config) != digest:
        raise FileFormatError(f"{path}: config digest mismatch")
    feature_mask = _load_mask(path, arrays, version)
    return LoadedModel(config=config, arrays=arrays, feature_mask=feature_mask)


# ---------------------------------------------------------------------------
# band export and dataset ingestion

def export_band(cube: np.ndarray, band: int, path) -> None:
    """Write one band as a binary PGM (P5), min-max normalized to [0, 255].

    A constant band has no range and maps to mid-gray (128) by contract.
    """
    cube, band = np.asarray(cube, dtype=np.float64), integer(band, "band")
    if band >= cube.shape[0]:
        raise ValueError(f"band {band} out of range for {cube.shape[0]}-band cube")
    plane = cube[band]
    lo, hi = float(plane.min()), float(plane.max())
    if hi > lo:
        pixels = np.round((plane - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pixels = np.full(plane.shape, 128, dtype=np.uint8)
    h, w = plane.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def ingest_dataset(directory, crop: int, bands: int, seed: int = 0) -> list[np.ndarray]:
    """Load every kind-0 HSIC scene in a directory, cropped and band-limited.

    The crop corner of each scene is drawn from `seed`, reproducible across
    runs.
    """
    crop, bands = integer(crop, "crop and bands", 1), integer(bands, "crop and bands", 1)
    paths = sorted(Path(directory).glob("*.hsic"))
    if not paths:
        raise FileNotFoundError(f"no .hsic scenes found in {directory}")
    rng = np.random.default_rng(seed)
    scenes = []
    for p in paths:
        values, kind = load_cube(p)
        if kind != KIND_CUBE:
            continue
        nb, h, w = values.shape
        if h < crop or w < crop:
            raise ValueError(f"{p}: scene {h}x{w} smaller than crop {crop}")
        if bands > nb:
            raise ValueError(f"{p}: scene has {nb} bands, requested {bands}")
        r0 = int(rng.integers(0, h - crop + 1))
        c0 = int(rng.integers(0, w - crop + 1))
        scenes.append(values[:bands, r0:r0 + crop, c0:c0 + crop].copy())
    if not scenes:
        raise FileNotFoundError(f"no cube-kind scenes found in {directory}")
    return scenes


# ---------------------------------------------------------------------------
# plain key=value config files

def positive_int(text: str) -> int:
    """Parse a size of at least 1, e.g. a patch side."""
    return integer(text, "size", 1)


def non_negative_int(text: str) -> int:
    """Parse a count that may be 0, e.g. the number of U-Net levels."""
    return integer(text, "count")


def zero_or_one(text: str) -> int:
    """Parse a 0/1 switch, e.g. share_weights."""
    return integer(text, "switch", 0, 1)


def cube_dims(text: str) -> tuple:
    """Parse `HxWxC` cube dimensions, e.g. `2x2x4`, each at least 1."""
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"cube must be HxWxC, got {text!r}")
    return tuple(positive_int(p) for p in parts)


_CONFIG_KEYS = {
    "stages": positive_int,
    "base_channels": positive_int,
    "levels": non_negative_int,
    "blocks": positive_int,
    "patch": positive_int,
    "state_size": positive_int,
    "expansion": positive_int,
    "mask_ratio": zero_ratio,
    "mask_seed": feature_mask_seed,
    "share_weights": zero_or_one,
    "cube": cube_dims,
}


def parse_config_file(path) -> dict:
    """Parse `key=value` lines ('#' starts a comment); cube uses HxWxC syntax."""
    out: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out
