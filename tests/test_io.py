"""Container formats: exact round trips and distinct rejection diagnostics."""

import dataclasses
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cassi_ssm import fileio, training, unfolding
from cassi_ssm.denoiser import ModelWeights, UNetConfig
from cassi_ssm.demo import toy_scene

TINY = UNetConfig(bands=2, base_channels=4, levels=1, blocks_per_level=1,
                  patch=2, cube=(1, 1, 2), state_size=2, expansion=1)


class TestCubeFiles:
    def test_round_trip_is_byte_identical(self, tmp_path):
        cube = toy_scene(8, 8, 3, seed=0)
        p1, p2 = tmp_path / "a.hsic", tmp_path / "b.hsic"
        fileio.save_cube(p1, cube)
        loaded, kind = fileio.load_cube(p1)
        assert kind == fileio.KIND_CUBE
        fileio.save_cube(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_exact_at_f32(self, tmp_path):
        cube = np.random.default_rng(1).random((2, 5, 7))
        p = tmp_path / "c.hsic"
        fileio.save_cube(p, cube)
        loaded, _ = fileio.load_cube(p)
        assert np.array_equal(loaded, cube.astype(np.float32).astype(np.float64))

    def test_kind_round_trip(self, tmp_path):
        p = tmp_path / "m.hsic"
        fileio.save_cube(p, np.ones((1, 4, 4)), kind=fileio.KIND_MASK)
        _, kind = fileio.load_cube(p, expect_kind=fileio.KIND_MASK)
        assert kind == fileio.KIND_MASK

    def test_kind_mismatch_diagnostic(self, tmp_path):
        p = tmp_path / "m.hsic"
        fileio.save_cube(p, np.ones((1, 4, 4)), kind=fileio.KIND_MASK)
        with pytest.raises(fileio.FileFormatError, match="kind mismatch"):
            fileio.load_cube(p, expect_kind=fileio.KIND_CUBE)

    # the kind follows the integer rule: True and 1.0 are not read as the mask kind 1
    @pytest.mark.parametrize("kind,message", [
        (True, "HSIC kind must be an integer, got True"),
        (1.0, "HSIC kind must be an integer, got 1.0"),
        (-1, "HSIC kind must be >= 0, got -1"),
    ], ids=["bool", "float", "negative"])
    def test_kind_outside_integer_rule_not_saved(self, tmp_path, kind, message):
        p = tmp_path / "k.hsic"
        with pytest.raises(ValueError, match=f"^{message}$"):
            fileio.save_cube(p, np.ones((1, 4, 4)), kind=kind)
        assert not p.exists()

    def test_unknown_kind_not_saved(self, tmp_path):
        p = tmp_path / "k.hsic"
        with pytest.raises(fileio.FileFormatError, match="unknown HSIC kind byte 7$"):
            fileio.save_cube(p, np.ones((1, 4, 4)), kind=7)
        assert not p.exists()

    def test_decimal_string_kind_saved_as_its_integer(self, tmp_path):
        word, number = tmp_path / "word.hsic", tmp_path / "number.hsic"
        fileio.save_cube(word, np.ones((1, 4, 4)), kind="1")
        fileio.save_cube(number, np.ones((1, 4, 4)), kind=fileio.KIND_MASK)
        assert word.read_bytes() == number.read_bytes()

    @pytest.mark.parametrize("expect,message", [
        (7, r"expected HSIC kind must lie in \[0, 2\], got 7"),
        (-1, r"expected HSIC kind must lie in \[0, 2\], got -1"),
        (True, "expected HSIC kind must be an integer, got True"),
        (1.0, "expected HSIC kind must be an integer, got 1.0"),
    ], ids=["unknown", "negative", "bool", "float"])
    def test_expected_kind_outside_integer_rule_refused(self, tmp_path, expect, message):
        # a cube file, so every expected kind above differs from the one found
        p = tmp_path / "c.hsic"
        fileio.save_cube(p, np.ones((1, 4, 4)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            fileio.load_cube(p, expect_kind=expect)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.hsic"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(fileio.FileFormatError, match="not a HSIC file"):
            fileio.load_cube(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.hsic"
        fileio.save_cube(p, np.ones((1, 4, 4)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(fileio.FileFormatError, match="truncated payload"):
            fileio.load_cube(p)

    def test_oversized_payload(self, tmp_path):
        p = tmp_path / "o.hsic"
        fileio.save_cube(p, np.ones((1, 4, 4)))
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(fileio.FileFormatError, match="oversized payload"):
            fileio.load_cube(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v.hsic"
        raw = bytearray()
        raw += fileio.CUBE_MAGIC + struct.pack("<BBIII", 9, 0, 1, 1, 1) + b"\x00" * 4
        p.write_bytes(bytes(raw))
        with pytest.raises(fileio.FileFormatError, match="version"):
            fileio.load_cube(p)

    def test_bad_kind_byte(self, tmp_path):
        p = tmp_path / "k.hsic"
        p.write_bytes(fileio.CUBE_MAGIC + struct.pack("<BBIII", 1, 7, 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(fileio.FileFormatError, match="unknown HSIC kind"):
            fileio.load_cube(p)

    def test_implausible_dimension(self, tmp_path):
        p = tmp_path / "d.hsic"
        p.write_bytes(fileio.CUBE_MAGIC + struct.pack("<BBIII", 1, 0, 0, 1, 1))
        with pytest.raises(fileio.FileFormatError, match="implausible"):
            fileio.load_cube(p)

    def test_header_fuzz_distinct_diagnostics(self, tmp_path):
        # flip each header field and collect the diagnostics: all must differ
        base = fileio.CUBE_MAGIC + struct.pack("<BBIII", 1, 0, 2, 2, 1) + b"\x00" * 16
        mutations = {
            "magic": b"XSIC" + base[4:],
            "version": base[:4] + struct.pack("<B", 3) + base[5:],
            "kind": base[:5] + struct.pack("<B", 9) + base[6:],
            "dims": base[:6] + struct.pack("<I", 0) + base[10:],
            "short": base[:-4],
            "long": base + b"\x00",
        }
        seen = {}
        for name, raw in mutations.items():
            p = tmp_path / f"{name}.hsic"
            p.write_bytes(raw)
            with pytest.raises(fileio.FileFormatError) as err:
                fileio.load_cube(p)
            # strip the path prefix so only the diagnostic text is compared
            seen[name] = str(err.value).split(": ", 1)[1]
        assert len(set(seen.values())) == len(seen)

    def test_non_finite_payload_rejected(self, tmp_path):
        for bad in (np.nan, np.inf, -np.inf):
            cube = toy_scene(4, 4, 2, seed=0)
            cube[1, 2, 3] = bad
            p = tmp_path / "bad.hsic"
            # written by hand: save_cube refuses these values
            p.write_bytes(fileio.CUBE_MAGIC + struct.pack("<BBIII", 1, 0, 4, 4, 2)
                          + cube.astype("<f4").tobytes())
            with pytest.raises(fileio.FileFormatError, match="NaN or Inf") as err:
                fileio.load_cube(p)
            assert str(p) in str(err.value)

    @pytest.mark.filterwarnings("error")
    def test_signalling_nan_payload_rejected_without_warning(self, tmp_path):
        p = tmp_path / "snan.hsic"
        payload = np.ones(4, dtype="<f4").tobytes()
        p.write_bytes(fileio.CUBE_MAGIC + struct.pack("<BBIII", 1, 0, 2, 2, 1)
                      + struct.pack("<I", 0x7F800001) + payload[4:])
        with pytest.raises(fileio.FileFormatError, match="NaN or Inf"):
            fileio.load_cube(p)

    def test_unloadable_payload_not_saved(self, tmp_path):
        # 1e39 is finite in float64 but Inf in float32
        for bad in (np.nan, np.inf, -np.inf, 1e39, -1e39):
            cube = toy_scene(4, 4, 2, seed=0)
            cube[1, 2, 3] = bad
            p = tmp_path / "bad.hsic"
            with pytest.raises(ValueError, match="NaN, Inf") as err:
                fileio.save_cube(p, cube)
            assert str(p) in str(err.value)
            assert not p.exists()

    def test_float32_extremes_round_trip(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        cube = np.array([[[top, -top], [0.0, 1.0]]])
        p = tmp_path / "x.hsic"
        fileio.save_cube(p, cube)
        assert np.array_equal(fileio.load_cube(p)[0], cube)

    def test_mask_must_be_single_plane(self, tmp_path):
        with pytest.raises(ValueError, match="single plane"):
            fileio.save_cube(tmp_path / "x.hsic", np.ones((2, 3, 3)), kind=fileio.KIND_MASK)


    @pytest.mark.parametrize("kind", [fileio.KIND_MASK, fileio.KIND_MEASUREMENT],
                             ids=["mask", "measurement"])
    def test_single_plane_kind_with_planes_not_loaded(self, tmp_path, kind):
        # written by hand: save_cube refuses it, and load_cube holds the same rule
        p = tmp_path / "planes.hsic"
        p.write_bytes(fileio.CUBE_MAGIC + struct.pack("<BBIII", 1, kind, 2, 2, 3)
                      + np.ones(12, dtype="<f4").tobytes())
        with pytest.raises(fileio.FileFormatError, match="single plane"):
            fileio.load_cube(p, expect_kind=kind)

    # the dimensions load_cube refuses are never written
    @pytest.mark.parametrize("shape", [(1, 0, 4), (0, 2, 2), (1, 1, fileio.MAX_DIM + 1)],
                             ids=["zero-width", "zero-bands", "over-max"])
    def test_implausible_dimensions_not_saved(self, tmp_path, shape):
        p = tmp_path / "d.hsic"
        with pytest.raises(ValueError, match="implausible dimensions"):
            fileio.save_cube(p, np.ones(shape))
        assert not p.exists()

    def test_largest_dimension_round_trips(self, tmp_path):
        p = tmp_path / "wide.hsic"
        fileio.save_cube(p, np.ones((1, 1, fileio.MAX_DIM)), kind=fileio.KIND_MEASUREMENT)
        assert fileio.load_cube(p)[0].shape == (1, 1, fileio.MAX_DIM)

    # the float32 payload is made once, in band order, and written as it is;
    # a transposed view checks that the file still holds [bands, H, W]
    def test_save_holds_one_float32_payload(self, tmp_path):
        cube = np.random.default_rng(5).random((128, 128, 16)).transpose(2, 0, 1)
        tracemalloc.start()
        try:
            fileio.save_cube(tmp_path / "big.hsic", cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 4 * cube.size
        assert np.array_equal(fileio.load_cube(tmp_path / "big.hsic")[0],
                              cube.astype(np.float32))


class TestWeightsFiles:
    def make_model(self, masked=False):
        cfg = unfolding.UnfoldConfig(stages=2, net=TINY, share_weights=True)
        weights = unfolding.init_weights(cfg, seed=3, zero_residual=False)
        mask = training.generate_mask(8, 8, 0.5, seed=77) if masked else None
        return cfg, weights, mask

    def test_round_trip_bit_exact_at_f32(self, tmp_path):
        cfg, weights, _ = self.make_model()
        p = tmp_path / "w.csmw"
        fileio.save_weights(p, weights, cfg)
        loaded = fileio.load_weights(p)
        assert loaded.config == cfg
        for name, node in weights.items():
            f32 = node.value.astype(np.float32)
            assert np.array_equal(loaded.arrays[name].astype(np.float32), f32)

    def test_save_load_save_identical_bytes(self, tmp_path):
        cfg, weights, _ = self.make_model()
        p1, p2 = tmp_path / "a.csmw", tmp_path / "b.csmw"
        fileio.save_weights(p1, weights, cfg)
        loaded = fileio.load_weights(p1)
        restored, _ = unfolding.load_model(loaded.config, loaded.arrays)
        fileio.save_weights(p2, restored, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_feature_mask_persisted_with_seed_and_ratio(self, tmp_path):
        cfg, weights, mask = self.make_model(masked=True)
        p = tmp_path / "m.csmw"
        fileio.save_weights(p, weights, cfg, feature_mask=mask)
        loaded = fileio.load_weights(p)
        assert loaded.feature_mask is not None
        assert np.array_equal(loaded.feature_mask.values, mask.values)
        assert loaded.feature_mask.seed == 77
        assert loaded.feature_mask.zero_ratio == pytest.approx(0.5)
        assert loaded.feature_mask.digest() == mask.digest()

    def test_large_seed_survives(self, tmp_path):
        cfg, weights, _ = self.make_model()
        mask = training.generate_mask(4, 4, 0.5, seed=2**31 - 7)
        p = tmp_path / "s.csmw"
        fileio.save_weights(p, weights, cfg, feature_mask=mask)
        assert fileio.load_weights(p).feature_mask.seed == 2**31 - 7

    # a numpy or integer ratio is stored as the float the file gives back,
    # so the mask digest survives the round trip
    @pytest.mark.parametrize("ratio,seed", [(0.3, 2**33 + 7), (0.1, 2**64 - 1),
                                            (np.float64(0.5), 3), (0, 5)])
    def test_mask_metadata_lossless(self, tmp_path, ratio, seed):
        cfg, weights, _ = self.make_model()
        mask = training.generate_mask(8, 8, ratio, seed=seed)
        p = tmp_path / "m.csmw"
        fileio.save_weights(p, weights, cfg, feature_mask=mask)
        loaded = fileio.load_weights(p).feature_mask
        assert (loaded.zero_ratio, loaded.seed) == (ratio, seed)
        assert loaded.digest() == mask.digest()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_not_saved(self, tmp_path, seed):
        cfg, weights, mask = self.make_model(masked=True)
        p = tmp_path / "s.csmw"
        with pytest.raises(ValueError, match="seed"):
            fileio.save_weights(p, weights, cfg, training.FeatureMask(mask.values, 0.5, seed))
        assert not p.exists()

    @pytest.mark.parametrize("present", [fileio.MASK_VALUES_KEY, fileio.MASK_META_KEY])
    def test_half_a_mask_rejected(self, tmp_path, present):
        # a weight tensor under a reserved name lands in the file as is
        cfg, weights, mask = self.make_model(masked=True)
        weights.add(present, mask.values if present == fileio.MASK_VALUES_KEY
                    else fileio._mask_meta(mask))
        p = tmp_path / "half.csmw"
        fileio.save_weights(p, weights, cfg)
        with pytest.raises(fileio.FileFormatError, match="needs both"):
            fileio.load_weights(p)

    @pytest.mark.parametrize("values", [np.full((8, 8), 0.5),
                                        np.repeat([0.0, 1.0], [48, 16]).reshape(8, 8)],
                             ids=["not-0-1", "zero-count"])
    def test_mask_breaking_its_invariant_rejected(self, tmp_path, values):
        # the metadata says ratio 0.25 (16 zeros of 64); the values disagree
        cfg, weights, _ = self.make_model()
        weights.add(fileio.MASK_VALUES_KEY, values)
        weights.add(fileio.MASK_META_KEY,
                    fileio._mask_meta(training.generate_mask(8, 8, 0.25, seed=3)))
        p = tmp_path / "bad-mask.csmw"
        fileio.save_weights(p, weights, cfg)
        with pytest.raises(fileio.FileFormatError, match="feature mask") as err:
            fileio.load_weights(p)
        assert str(err.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("meta", [[0.5, 77, 0], [0.5] * 8, [0, 0, 0, 0x7FF8, 0, 0, 0, 0]],
                             ids=["v1-layout", "fractional-words", "ratio-nan"])
    def test_malformed_mask_meta_rejected(self, tmp_path, meta):
        cfg, weights, mask = self.make_model(masked=True)
        weights.add(fileio.MASK_VALUES_KEY, mask.values)
        weights.add(fileio.MASK_META_KEY, np.array(meta, dtype=np.float64))
        p = tmp_path / "meta.csmw"
        fileio.save_weights(p, weights, cfg)
        with pytest.raises(fileio.FileFormatError, match="feature-mask"):
            fileio.load_weights(p)

    # a 0x4 mask has round(0.5 * 0) = 0 zeros, so only the zero side refuses it
    def test_mask_with_zero_side_rejected(self, tmp_path):
        cfg, weights, mask = self.make_model(masked=True)
        weights.add(fileio.MASK_VALUES_KEY, np.zeros((0, 4)))
        weights.add(fileio.MASK_META_KEY, fileio._mask_meta(mask))
        p = tmp_path / "empty-mask.csmw"
        fileio.save_weights(p, weights, cfg)
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.load_weights(p)
        assert str(err.value) == (f"{p}: bad feature-mask data: feature mask must be [H, W] "
                                  "with both sides >= 1, got shape (0, 4)")

    def save_version_1(self, path, meta):
        """A version-1 file of the masked model with the given mask meta.

        Version 1 stored the meta as [ratio, seed & 0xFFFF, seed >> 16 & 0xFFFF];
        the version byte follows the magic.  Returns the model's config,
        weight arrays and mask.
        """
        cfg, weights, mask = self.make_model(masked=True)
        arrays = weights.arrays()
        weights.add(fileio.MASK_VALUES_KEY, mask.values)
        weights.add(fileio.MASK_META_KEY, np.array(meta, dtype=np.float64))
        fileio.save_weights(path, weights, cfg)
        raw = bytearray(path.read_bytes())
        raw[4] = 1
        path.write_bytes(bytes(raw))
        return cfg, arrays, mask

    @pytest.mark.parametrize("meta", [[0.5, -3, 0], [0.5, 1.5, 0], [0.5, 70000, 0],
                                      [0.5, 77, 70000]],
                             ids=["negative", "fractional", "low-overflow", "high-overflow"])
    def test_malformed_version_1_mask_meta_rejected(self, tmp_path, meta):
        p = tmp_path / "v1.csmw"
        self.save_version_1(p, meta)
        with pytest.raises(fileio.FileFormatError, match="malformed feature-mask metadata"):
            fileio.load_weights(p)

    def test_version_1_file_loads(self, tmp_path):
        p = tmp_path / "v1.csmw"
        cfg, arrays, mask = self.save_version_1(p, [0.5, 77, 3])
        loaded = fileio.load_weights(p)
        assert loaded.config == cfg
        assert loaded.arrays.keys() == arrays.keys()
        assert np.array_equal(loaded.feature_mask.values, mask.values)
        assert (loaded.feature_mask.zero_ratio, loaded.feature_mask.seed) == (0.5, 3 * 2**16 + 77)

    @pytest.mark.parametrize("field,message", [("stages", "stage count"),
                                               ("base_channels", "base_channels"),
                                               ("patch", "patch")])
    def test_zero_size_profile_rejected(self, tmp_path, field, message):
        # save_weights reads the config's attributes only, so a stand-in
        # writes the profile a config with a zero size would have
        cfg, weights, _ = self.make_model()
        net = dataclasses.asdict(TINY)
        top = {"stages": cfg.stages, "share_weights": True}
        (top if field == "stages" else net)[field] = 0
        p = tmp_path / "zero.csmw"
        fileio.save_weights(p, weights, SimpleNamespace(**top, net=SimpleNamespace(**net)))
        with pytest.raises(fileio.FileFormatError, match=f"bad config profile: {message} must be >= 1"):
            fileio.load_weights(p)

    def test_cube_footprint_not_dividing_patch_rejected(self, tmp_path):
        # a stand-in writes the profile of patch 4 with a 3x3 cube footprint
        cfg, weights, _ = self.make_model()
        net = {**dataclasses.asdict(TINY), "patch": 4, "cube": (3, 3, 2)}
        p = tmp_path / "footprint.csmw"
        fileio.save_weights(p, weights, SimpleNamespace(stages=cfg.stages, share_weights=True,
                                                        net=SimpleNamespace(**net)))
        with pytest.raises(fileio.FileFormatError,
                           match="bad config profile: cube footprint 3x3 must divide patch side 4"):
            fileio.load_weights(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.csmw"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(fileio.FileFormatError, match="not a CSMW file"):
            fileio.load_weights(p)

    def test_missing_tensor_rejected(self, tmp_path):
        cfg, weights, _ = self.make_model()
        partial = ModelWeights()
        for name, value in weights.arrays().items():
            if name != "shared/out/w":
                partial.add(name, value)
        p = tmp_path / "partial.csmw"
        fileio.save_weights(p, partial, cfg)
        loaded = fileio.load_weights(p)
        with pytest.raises(ValueError, match="checkpoint lacks weight tensors: shared/out/w"):
            unfolding.load_model(loaded.config, loaded.arrays)

    def test_non_finite_tensor_rejected(self, tmp_path):
        # save_weights refuses NaN, so the bytes are patched after saving:
        # the entry is name, rank byte, u32 dims, then the float32 payload
        cfg, weights, _ = self.make_model()
        p = tmp_path / "nan.csmw"
        fileio.save_weights(p, weights, cfg)
        raw = bytearray(p.read_bytes())
        name = b"shared/out/b"
        start = raw.index(name) + len(name)
        start += 1 + 4 * raw[start]
        raw[start:start + 4] = struct.pack("<f", np.nan)
        p.write_bytes(bytes(raw))
        with pytest.raises(fileio.FileFormatError, match="NaN or Inf") as err:
            fileio.load_weights(p)
        assert str(p) in str(err.value) and "shared/out/b" in str(err.value)

    def test_unloadable_tensor_not_saved(self, tmp_path):
        # 1e39 is finite in float64 but Inf in float32
        for bad in (np.nan, np.inf, 1e39):
            cfg, weights, _ = self.make_model()
            weights["shared/out/b"].value[0] = bad
            p = tmp_path / "bad.csmw"
            with pytest.raises(ValueError, match="NaN, Inf") as err:
                fileio.save_weights(p, weights, cfg)
            assert str(p) in str(err.value) and "shared/out/b" in str(err.value)
            assert not p.exists()

    def test_name_not_utf8_rejected(self, tmp_path):
        cfg, weights, _ = self.make_model()
        p = tmp_path / "name.csmw"
        fileio.save_weights(p, weights, cfg)
        raw = bytearray(p.read_bytes())
        raw[raw.index(b"shared/out/b")] = 0xFF  # never a UTF-8 byte
        p.write_bytes(bytes(raw))
        with pytest.raises(fileio.FileFormatError, match="is not UTF-8") as err:
            fileio.load_weights(p)
        assert str(p) in str(err.value) and "hared/out/b" in str(err.value)

    def test_truncation_rejected(self, tmp_path):
        cfg, weights, _ = self.make_model()
        p = tmp_path / "t.csmw"
        fileio.save_weights(p, weights, cfg)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(fileio.FileFormatError, match="truncated"):
            fileio.load_weights(p)

    def test_truncation_at_any_point_rejected(self, tmp_path):
        cfg, weights, _ = self.make_model()
        p = tmp_path / "cut.csmw"
        fileio.save_weights(p, weights, cfg)
        raw = p.read_bytes()
        for cut in (3, 5, 20, 40, len(raw) // 2, len(raw) - 1):
            p.write_bytes(raw[:cut])
            with pytest.raises(fileio.FileFormatError):
                fileio.load_weights(p)

    @pytest.mark.parametrize("rank", [255, 70])
    def test_rank_beyond_numpy_rejected(self, tmp_path, rank):
        # the first entry (sorted by name) is a scalar; its rank byte follows the name
        cfg, weights, _ = self.make_model()
        p = tmp_path / "rank.csmw"
        fileio.save_weights(p, weights, cfg)
        raw = bytearray(p.read_bytes())
        name = min(weights.arrays()).encode()
        raw[raw.index(name) + len(name)] = rank
        p.write_bytes(bytes(raw))
        with pytest.raises(fileio.FileFormatError, match=f"rank {rank}"):
            fileio.load_weights(p)

    def test_element_count_beyond_int64_rejected(self, tmp_path):
        # 65536**4 == 2**64, which a fixed-width product wraps to 0
        cfg, weights, _ = self.make_model()
        p = tmp_path / "huge.csmw"
        fileio.save_weights(p, weights, cfg)
        raw = bytearray(p.read_bytes())
        name = b"shared/out/w"
        start = raw.index(name) + len(name)
        assert raw[start] == 4
        raw[start + 1:start + 17] = struct.pack("<4I", *[65536] * 4)
        p.write_bytes(bytes(raw))
        with pytest.raises(fileio.FileFormatError, match="truncated"):
            fileio.load_weights(p)

    def test_digest_mismatch_detected(self, tmp_path):
        cfg, weights, _ = self.make_model()
        p = tmp_path / "d.csmw"
        fileio.save_weights(p, weights, cfg)
        raw = bytearray(p.read_bytes())
        raw[6] ^= 0xFF  # flip a digest byte
        p.write_bytes(bytes(raw))
        with pytest.raises(fileio.FileFormatError, match="digest mismatch"):
            fileio.load_weights(p)

    def test_profile_round_trip(self):
        cfg, _, _ = self.make_model()
        profile = fileio._config_profile(cfg)
        assert fileio.config_from_profile(profile) == cfg

    def test_fractional_profile_entry_refused(self, tmp_path, monkeypatch):
        # the header digest is that of patch 4; the profile's patch slot holds 4.75
        cfg = unfolding.UnfoldConfig(stages=2, net=dataclasses.replace(TINY, patch=4))
        profile = fileio._config_profile(cfg)
        profile[6] = 4.75
        monkeypatch.setattr(fileio, "_config_profile", lambda config: profile)
        p = tmp_path / "frac.csmw"
        fileio.save_weights(p, unfolding.init_weights(cfg, seed=3), cfg)
        with pytest.raises(fileio.FileFormatError,
                           match="bad config profile: patch must be an integer, got 4.75"):
            fileio.load_weights(p)

    # the digest is part of every CSMW file, so these bytes must never move
    @pytest.mark.parametrize("config,digest", [
        (unfolding.UnfoldConfig(stages=3, share_weights=True, net=UNetConfig(
            bands=4, base_channels=8, levels=1, blocks_per_level=1, patch=4, cube=(2, 2, 2),
            state_size=4, expansion=2)),
         "f40d0c7a8e0d37d5f71cd59ed12460e905cc341e00d57e34b530fbfd1cae752c"),
        (unfolding.UnfoldConfig(stages=3, net=UNetConfig(bands=28)),
         "1704e77918b944e1455bb0a815b399e65a340359c374ce45092b2c7aa2b9f542"),
    ], ids=["toy", "default"])
    def test_config_digest_pinned(self, config, digest):
        assert fileio.config_digest(config).hex() == digest


class TestExportBand:
    def test_pgm_header_and_range(self, tmp_path):
        cube = np.zeros((1, 3, 4))
        cube[0, 0, 0] = 1.0
        p = tmp_path / "b.pgm"
        fileio.export_band(cube, 0, p)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.max() == 255 and pixels.min() == 0

    def test_constant_band_mid_gray(self, tmp_path):
        p = tmp_path / "c.pgm"
        fileio.export_band(np.full((1, 2, 2), 0.4), 0, p)
        pixels = np.frombuffer(p.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert (pixels == 128).all()

    def test_binary_band_hits_extremes(self, tmp_path):
        cube = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        p = tmp_path / "e.pgm"
        fileio.export_band(cube, 0, p)
        pixels = np.frombuffer(p.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert set(pixels.tolist()) == {0, 255}

    def test_two_dimensional_cube_refused(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape("expected a 3-D array, got shape (11, 11)")):
            fileio.export_band(np.zeros((11, 11)), 0, tmp_path / "x.pgm")
        assert not (tmp_path / "x.pgm").exists()

    def test_band_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            fileio.export_band(np.zeros((2, 3, 3)), 5, tmp_path / "x.pgm")

    # NaN makes `hi > lo` false, which would write the band as a constant band's gray
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_band_refused(self, tmp_path, bad):
        cube = np.zeros((2, 3, 3))
        cube[1, 1, 2] = bad
        fileio.export_band(cube, 0, tmp_path / "fine.pgm")
        with pytest.raises(ValueError, match="band 1 holds NaN or Inf"):
            fileio.export_band(cube, 1, tmp_path / "x.pgm")
        assert not (tmp_path / "x.pgm").exists()


class TestIngestDataset:
    def write_scene(self, path, seed, h=12, w=12, bands=5):
        fileio.save_cube(path, toy_scene(h, w, bands, seed=seed))

    def test_crop_equal_to_scene_is_identity(self, tmp_path):
        self.write_scene(tmp_path / "s0.hsic", 0)
        scenes = fileio.ingest_dataset(tmp_path, crop=12, bands=5)
        original, _ = fileio.load_cube(tmp_path / "s0.hsic")
        assert np.array_equal(scenes[0], original)

    def test_band_subset_bit_identical(self, tmp_path):
        self.write_scene(tmp_path / "s0.hsic", 1)
        scenes = fileio.ingest_dataset(tmp_path, crop=12, bands=2)
        original, _ = fileio.load_cube(tmp_path / "s0.hsic")
        assert scenes[0].shape == (2, 12, 12)
        assert np.array_equal(scenes[0], original[:2])

    def test_random_crop_reproducible(self, tmp_path):
        self.write_scene(tmp_path / "s0.hsic", 2)
        a = fileio.ingest_dataset(tmp_path, crop=6, bands=3, seed=5)
        b = fileio.ingest_dataset(tmp_path, crop=6, bands=3, seed=5)
        assert np.array_equal(a[0], b[0])

    def test_scene_smaller_than_crop(self, tmp_path):
        self.write_scene(tmp_path / "s0.hsic", 3, h=4, w=4)
        with pytest.raises(ValueError, match="smaller than crop"):
            fileio.ingest_dataset(tmp_path, crop=8, bands=2)

    @pytest.mark.parametrize("crop,bands", [(12, -1), (12, 0), (0, 2), (-4, 2)])
    def test_crop_or_bands_below_one_rejected(self, tmp_path, crop, bands):
        # bands=-1 would otherwise slice away the last band of each scene
        self.write_scene(tmp_path / "s0.hsic", 4)
        refused = "crop" if crop < 1 else "bands"
        with pytest.raises(ValueError, match=f"^{refused} must be >= 1, got {min(crop, bands)}$"):
            fileio.ingest_dataset(tmp_path, crop=crop, bands=bands)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fileio.ingest_dataset(tmp_path, crop=4, bands=1)

    @pytest.mark.parametrize("seed", [True, 2.5, 3.0, -1],
                             ids=["bool", "float", "integral-float", "negative"])
    def test_seed_follows_integer_rule(self, tmp_path, seed):
        self.write_scene(tmp_path / "s0.hsic", 5)
        with pytest.raises(ValueError, match="seed must be"):
            fileio.ingest_dataset(tmp_path, crop=6, bands=3, seed=seed)

    def test_integer_seed_spellings_agree(self, tmp_path):
        for i in range(3):
            self.write_scene(tmp_path / f"s{i}.hsic", 6 + i)
        want = fileio.ingest_dataset(tmp_path, crop=6, bands=3, seed=3)
        for seed in ("3", np.int64(3)):
            got = fileio.ingest_dataset(tmp_path, crop=6, bands=3, seed=seed)
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "profile.cfg"
        p.write_text(
            "# toy profile\n"
            "stages = 3\n"
            "base_channels=8\n"
            "patch=4  # small patches\n"
            "cube=2x2x2\n"
            "state_size=4\n"
            "mask_ratio=0.5\n"
            "mask_seed=7\n"
            "share_weights=1\n")
        opts = fileio.parse_config_file(p)
        assert opts == {"stages": 3, "base_channels": 8, "patch": 4, "cube": (2, 2, 2),
                        "state_size": 4, "mask_ratio": 0.5, "mask_seed": 7,
                        "share_weights": 1}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("warp_factor=9\n")
        with pytest.raises(ValueError, match="unknown config key"):
            fileio.parse_config_file(p)

    def test_duplicate_key_names_path_and_line(self, tmp_path):
        p = tmp_path / "dup.cfg"
        p.write_text("patch=4\nstages=3\npatch=2\n")
        with pytest.raises(ValueError, match="duplicate key 'patch'") as err:
            fileio.parse_config_file(p)
        assert str(err.value).startswith(f"{p}:3: ")

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("stages\n")
        with pytest.raises(ValueError, match="key=value"):
            fileio.parse_config_file(p)

    @pytest.mark.parametrize("line", ["stages=abc", "mask_ratio=half", "cube=2x2",
                                      "cube=2x2xq", "cube=2x2x0", "cube=-2x2x2",
                                      "patch=0", "patch=-4", "stages=0", "base_channels=0",
                                      "blocks=0", "state_size=0", "expansion=-1",
                                      "levels=-1", "mask_seed=-1",
                                      "mask_seed=18446744073709551616", "mask_seed=1.5",
                                      "mask_ratio=1.5", "mask_ratio=nan", "mask_ratio=-0.1",
                                      "share_weights=7", "share_weights=-1"])
    def test_bad_value_names_path_and_line(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(f"# profile\n{line}\n")
        key = line.split("=")[0]
        with pytest.raises(ValueError, match=f"bad value for {key}") as err:
            fileio.parse_config_file(p)
        assert str(err.value).startswith(f"{p}:2: ")

    # an integer key is refused under its own name, not a generic noun
    @pytest.mark.parametrize("line", ["stages=0", "base_channels=0", "levels=-1", "blocks=x",
                                      "patch=1.5", "state_size=0", "expansion=-1",
                                      "share_weights=2"])
    def test_integer_key_named_in_rule_text(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        key = line.split("=")[0]
        with pytest.raises(ValueError) as err:
            fileio.parse_config_file(p)
        assert str(err.value).startswith(f"{p}:1: bad value for {key}: {key} must ")

    def test_every_key_is_a_model_or_mask_setting(self):
        # a key the file parses but no consumer reads would pass silently
        network = set(fileio._PROFILE_KEYS) - {"bands"}
        assert set(fileio._CONFIG_KEYS) == network | {"mask_ratio", "mask_seed"}

    def test_every_network_key_reaches_the_profile(self, tmp_path):
        p = tmp_path / "all.cfg"
        p.write_text("stages=2\nshare_weights=0\nbase_channels=6\nlevels=1\nblocks=2\n"
                     "patch=6\ncube=3x1x2\nstate_size=5\nexpansion=3\n")
        settings = fileio.parse_config_file(p)
        assert set(settings) == set(fileio._PROFILE_KEYS) - {"bands"}
        profile = fileio._config_profile(fileio.config_from_settings({**settings, "bands": 3}))
        assert profile.tolist() == [2, 0, 3, 6, 1, 2, 6, 3, 1, 2, 5, 3]
        # each value differs from its default, so none can be a default left in place
        default = fileio._config_profile(fileio.config_from_settings({"bands": 3}))
        assert default.tolist() == [3, 1, 3, 28, 2, 1, 4, 2, 2, 4, 16, 2]
        assert all(np.delete(profile != default, 2))

    def test_cube_dims(self):
        assert fileio.cube_dims("2X3x4") == (2, 3, 4)
        with pytest.raises(ValueError, match="HxWxC"):
            fileio.cube_dims("2x3")
        for text in ("0x2x2", "2x0x2", "2x2x0", "2x-1x2"):
            with pytest.raises(ValueError, match=">= 1"):
                fileio.cube_dims(text)
