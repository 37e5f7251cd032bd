"""Bit-exact file formats: HSIC cubes, CSMW weights, PGM band export.

Payloads are 32-bit little-endian floats on disk (round-to-nearest-even
from the 64-bit working precision); headers are fixed-layout and every
malformed field has its own diagnostic.  `_PROFILE_KEYS` lists the model
settings once: `train`, the CSMW profile, its digest and the loader build or
read a config through that one settings map (`config_from_settings`).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from .checks import integer, switch
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


def _f32_values(payload: bytes, offset: int = 0) -> np.ndarray:
    """Float32 bytes from `offset` on as float64; a signalling NaN is left to
    `_all_finite` rather than raising the cast's invalid-value warning."""
    with np.errstate(invalid="ignore"):
        return np.frombuffer(payload, dtype="<f4", offset=offset).astype(np.float64)


def _f32_payload(values: np.ndarray, where: str) -> np.ndarray:
    """A C-ordered little-endian float32 copy; refuses what `load_cube`/`load_weights` would."""
    with np.errstate(over="ignore"):
        payload = values.astype("<f4", order="C")
    if not _all_finite(payload):
        raise ValueError(f"{where} holds NaN, Inf or a value beyond float32 range")
    return payload


# ---------------------------------------------------------------------------
# HSIC cubes

_CUBE_HEADER = struct.Struct("<4sBBIII")   # magic, version, kind, H, W, bands


def _check_cube_header(path, kind: int, h: int, w: int, nb: int) -> None:
    """The one HSIC header rule, on save and on load: a known kind, every
    dimension in [1, MAX_DIM], and a single plane for a mask or measurement."""
    if kind not in _KIND_NAMES:
        raise FileFormatError(f"{path}: unknown HSIC kind byte {kind}")
    if not (1 <= h <= MAX_DIM and 1 <= w <= MAX_DIM and 1 <= nb <= MAX_DIM):
        raise FileFormatError(f"{path}: implausible dimensions {h}x{w}x{nb}")
    if kind != KIND_CUBE and nb != 1:
        raise FileFormatError(
            f"{path}: {_KIND_NAMES[kind]} files must carry a single plane, not {nb}")


def save_cube(path, values: np.ndarray, kind: int = KIND_CUBE) -> None:
    """Write a [bands, H, W] array (band-major) as a kind-tagged HSIC file."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError(f"expected a 3-D array, got shape {values.shape}")
    nb, h, w = values.shape
    kind = integer(kind, "HSIC kind")
    _check_cube_header(path, kind, h, w, nb)
    payload = _f32_payload(values, f"{path}: payload")
    header = _CUBE_HEADER.pack(CUBE_MAGIC, CUBE_VERSION, kind, h, w, nb)
    with Path(path).open("wb") as f:
        f.write(header)
        f.write(payload)


def load_cube(path, expect_kind: int | None = None):
    """Read an HSIC file; returns (values [bands, H, W] float64, kind)."""
    if expect_kind is not None:
        expect_kind = integer(expect_kind, "expected HSIC kind", 0, len(_KIND_NAMES) - 1)
    raw = Path(path).read_bytes()
    if len(raw) < _CUBE_HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, version, kind, h, w, nb = _CUBE_HEADER.unpack_from(raw)
    if magic != CUBE_MAGIC:
        raise FileFormatError(f"{path}: not a HSIC file")
    if version != CUBE_VERSION:
        raise FileFormatError(f"{path}: unsupported HSIC version {version}")
    _check_cube_header(path, kind, h, w, nb)
    expected = 4 * h * w * nb
    size = len(raw) - _CUBE_HEADER.size
    if size < expected:
        raise FileFormatError(f"{path}: truncated payload ({size} of {expected} bytes)")
    if size > expected:
        raise FileFormatError(f"{path}: oversized payload ({size - expected} trailing bytes)")
    if expect_kind is not None and kind != expect_kind:
        raise FileFormatError(
            f"{path}: kind mismatch (expected {_KIND_NAMES[expect_kind]}, found {_KIND_NAMES[kind]})")
    values = _f32_values(raw, _CUBE_HEADER.size).reshape(nb, h, w)
    if not _all_finite(values):
        raise FileFormatError(f"{path}: payload holds NaN or Inf")
    return values, kind


# ---------------------------------------------------------------------------
# CSMW weights

# the model settings by config-file key, in CSMW profile order (the cube fills
# three slots); the first two are UnfoldConfig fields, the rest UNetConfig fields
_PROFILE_KEYS = ("stages", "share_weights", "bands", "base_channels", "levels", "blocks",
                 "patch", "cube", "state_size", "expansion")
_RENAMED = {"blocks": "blocks_per_level"}   # the one key that is not its field's name
# the twelve profile slots as the digest hashes them; every CSMW file pins this text
_DIGEST_TEXT = ("stages={};share={};bands={};base={};levels={};blocks={};patch={};"
                "cube={}x{}x{};state={};expansion={}")


def config_from_settings(settings: dict) -> UnfoldConfig:
    """The config of a map of `_PROFILE_KEYS` settings; a key left out keeps its
    default, 3 for the stage count.  The network is built, and checked, first."""
    fields = {_RENAMED.get(key, key): value for key, value in settings.items()}
    own = {key: fields.pop(key) for key in _PROFILE_KEYS[:2] if key in fields}
    return UnfoldConfig(net=UNetConfig(**fields), **{"stages": 3, **own})


def _config_profile(config: UnfoldConfig) -> np.ndarray:
    """The twelve profile slots: each of `_PROFILE_KEYS` in turn, the cube as three."""
    fields = {**vars(config), **vars(config.net)}
    return np.hstack([fields[_RENAMED.get(key, key)] for key in _PROFILE_KEYS]).astype(np.float64)


def config_from_profile(profile: np.ndarray) -> UnfoldConfig:
    # integral entries become ints; any other is left for the configs to refuse
    p = [int(v) if v.is_integer() else v for v in map(float, np.asarray(profile).ravel())]
    if len(p) != 12:
        raise FileFormatError(f"weights profile has {len(p)} fields, expected 12")
    slots = iter(p)
    return config_from_settings({key: tuple(islice(slots, 3)) if key == "cube" else next(slots)
                                 for key in _PROFILE_KEYS})


def config_digest(config: UnfoldConfig) -> bytes:
    text = _DIGEST_TEXT.format(*map(int, _config_profile(config)))
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
        blob += _f32_payload(arr, f"{path}: tensor {name!r}").tobytes()
    Path(path).write_bytes(blob)


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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"band {band} holds NaN or Inf")
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
    crop, bands = integer(crop, "crop", 1), integer(bands, "bands", 1)
    seed = integer(seed, "seed")
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

def cube_dims(text: str) -> tuple:
    """Parse `HxWxC` cube dimensions, e.g. `2x2x4`, each at least 1."""
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"cube must be HxWxC, got {text!r}")
    return tuple(integer(p, "cube side", 1) for p in parts)


# key -> the rule of its setting; an integer key is checked under its own name
_CONFIG_KEYS = {
    **{key: partial(integer, what=key, least=1) for key in
       ("stages", "base_channels", "blocks", "patch", "state_size", "expansion")},
    "levels": partial(integer, what="levels"),
    "share_weights": partial(switch, what="share_weights"),
    "mask_ratio": zero_ratio,
    "mask_seed": feature_mask_seed,
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
