"""Container formats: exact round trips and distinct rejection diagnostics."""

import struct

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
            fileio.save_cube(p, cube)
            with pytest.raises(fileio.FileFormatError, match="NaN or Inf") as err:
                fileio.load_cube(p)
            assert str(p) in str(err.value)

    def test_mask_must_be_single_plane(self, tmp_path):
        with pytest.raises(ValueError, match="single plane"):
            fileio.save_cube(tmp_path / "x.hsic", np.ones((2, 3, 3)), kind=fileio.KIND_MASK)


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
        restored = unfolding.init_weights(cfg, seed=0)
        restored.load_arrays(loaded.arrays)
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

    def test_missing_tensor_rejected(self, tmp_path):
        cfg, weights, _ = self.make_model()
        partial = ModelWeights()
        for name, value in weights.arrays().items():
            if name != "shared/out/w":
                partial.add(name, value)
        p = tmp_path / "partial.csmw"
        fileio.save_weights(p, partial, cfg)
        restored = unfolding.init_weights(cfg, seed=0)
        with pytest.raises(KeyError, match="shared/out/w"):
            restored.load_arrays(fileio.load_weights(p).arrays)

    def test_non_finite_tensor_rejected(self, tmp_path):
        cfg, weights, _ = self.make_model()
        weights["shared/out/b"].value[0] = np.nan
        p = tmp_path / "nan.csmw"
        fileio.save_weights(p, weights, cfg)
        with pytest.raises(fileio.FileFormatError, match="NaN or Inf") as err:
            fileio.load_weights(p)
        assert str(p) in str(err.value) and "shared/out/b" in str(err.value)

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
        restored = unfolding.init_weights(cfg, seed=0)
        with pytest.raises(KeyError, match="shared/out/w"):
            restored.load_arrays(fileio.load_weights(p).arrays)

    def test_non_finite_tensor_rejected(self, tmp_path):
        cfg, weights, _ = self.make_model()
        weights["shared/out/b"].value[0] = np.nan
        p = tmp_path / "nan.csmw"
        fileio.save_weights(p, weights, cfg)
        with pytest.raises(fileio.FileFormatError, match="NaN or Inf") as err:
            fileio.load_weights(p)
        assert str(p) in str(err.value) and "shared/out/b" in str(err.value)

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

    def test_band_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            fileio.export_band(np.zeros((2, 3, 3)), 5, tmp_path / "x.pgm")


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

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fileio.ingest_dataset(tmp_path, crop=4, bands=1)


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

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("stages\n")
        with pytest.raises(ValueError, match="key=value"):
            fileio.parse_config_file(p)
