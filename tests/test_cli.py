"""End-to-end command-line driver tests on the bundled toy scene."""

import argparse
import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

from cassi_ssm import cassi, fileio, metrics, scans, training, unfolding
from cassi_ssm.cli import build_parser, parse_and_dispatch
from cassi_ssm.demo import toy_mask, toy_scene
from cassi_ssm.denoiser import ModelWeights, UNetConfig

TOY_NET = UNetConfig(bands=2, base_channels=4, levels=1, blocks_per_level=1,
                     patch=2, cube=(1, 1, 2), state_size=2, expansion=1)


@pytest.fixture
def workspace(tmp_path):
    scene = toy_scene(16, 16, 2, seed=7)
    mask = toy_mask(16, 16, seed=11)
    fileio.save_cube(tmp_path / "scene.hsic", scene)
    fileio.save_cube(tmp_path / "mask.hsic", mask[None], kind=fileio.KIND_MASK)
    (tmp_path / "toy.cfg").write_text(
        "stages=2\nbase_channels=4\nlevels=1\nblocks=1\npatch=2\n"
        "cube=1x1x2\nstate_size=2\nexpansion=1\nshare_weights=1\n")
    return tmp_path


def run(args):
    return parse_and_dispatch([str(a) for a in args])


class TestSimulate:
    def test_writes_measurement(self, workspace, capsys):
        code = run(["simulate", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--d", "2",
                    "--noise-bits", "11", "--seed", "7",
                    "--out", workspace / "meas.hsic"])
        assert code == 0
        values, kind = fileio.load_cube(workspace / "meas.hsic")
        assert kind == fileio.KIND_MEASUREMENT
        assert values.shape == (1, 16, 16 + 2 * 1)

    def test_deterministic_bytes(self, workspace):
        for name in ("m1.hsic", "m2.hsic"):
            run(["simulate", "--cube", workspace / "scene.hsic",
                 "--mask", workspace / "mask.hsic", "--d", "2",
                 "--noise-bits", "11", "--seed", "7", "--out", workspace / name])
        assert (workspace / "m1.hsic").read_bytes() == (workspace / "m2.hsic").read_bytes()

    def test_missing_file_exit_1(self, workspace, capsys):
        code = run(["simulate", "--cube", workspace / "absent.hsic",
                    "--mask", workspace / "mask.hsic", "--out", workspace / "m.hsic"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    # a 16-column mask over 2 bands: --d 65520 fills an HSIC row, --d 65521 is one column
    # past it and is refused before the projection is built
    @pytest.mark.parametrize("d,fits", [(65520, True), (65521, False)])
    def test_measurement_wider_than_hsic_refused(self, workspace, capsys, monkeypatch, d, fits):
        calls = []
        project = cassi.forward_project
        monkeypatch.setattr(cassi, "forward_project", lambda *a: calls.append(a) or project(*a))
        code = run(["simulate", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--d", d, "--out", workspace / "m.hsic"])
        assert (code == 0, bool(calls), (workspace / "m.hsic").exists()) == (fits, fits, fits)
        if not fits:
            assert capsys.readouterr().err == ("error: measurement width 65537 exceeds the 65536 "
                                               "columns an HSIC file can hold\n")


class TestPipeline:
    def test_train_reconstruct_eval(self, workspace, capsys):
        assert run(["simulate", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--d", "2",
                    "--out", workspace / "meas.hsic"]) == 0
        assert run(["train", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--config", workspace / "toy.cfg",
                    "--d", "2", "--steps", "3", "--lr", "0.02", "--seed", "1",
                    "--out", workspace / "model.csmw"]) == 0
        assert run(["reconstruct", "--meas", workspace / "meas.hsic",
                    "--mask", workspace / "mask.hsic", "--weights", workspace / "model.csmw",
                    "--stages", "2", "--out", workspace / "rec.hsic"]) == 0
        rec, kind = fileio.load_cube(workspace / "rec.hsic")
        assert kind == fileio.KIND_CUBE and rec.shape == (2, 16, 16)

        capsys.readouterr()
        assert run(["eval", "--ref", workspace / "scene.hsic",
                    "--test", workspace / "rec.hsic"]) == 0
        out = capsys.readouterr().out
        assert "psnr_mean=" in out and "ssim_mean=" in out

        # the printed mean matches a direct metric computation
        printed = {line.split("=")[0]: float(line.split("=")[1])
                   for line in out.strip().splitlines()}
        scene, _ = fileio.load_cube(workspace / "scene.hsic")
        report = metrics.evaluate(scene, rec)
        assert printed["psnr_mean"] == pytest.approx(report.psnr_mean, abs=1e-6)

    def test_pipeline_bit_reproducible(self, workspace):
        for tag in ("a", "b"):
            run(["simulate", "--cube", workspace / "scene.hsic",
                 "--mask", workspace / "mask.hsic", "--d", "2", "--noise-bits", "8",
                 "--seed", "5", "--out", workspace / f"meas_{tag}.hsic"])
            run(["train", "--cube", workspace / "scene.hsic",
                 "--mask", workspace / "mask.hsic", "--config", workspace / "toy.cfg",
                 "--d", "2", "--steps", "2", "--lr", "0.02", "--seed", "3",
                 "--out", workspace / f"model_{tag}.csmw"])
            run(["reconstruct", "--meas", workspace / f"meas_{tag}.hsic",
                 "--mask", workspace / "mask.hsic",
                 "--weights", workspace / f"model_{tag}.csmw",
                 "--out", workspace / f"rec_{tag}.hsic"])
        assert (workspace / "meas_a.hsic").read_bytes() == (workspace / "meas_b.hsic").read_bytes()
        assert (workspace / "model_a.csmw").read_bytes() == (workspace / "model_b.csmw").read_bytes()
        assert (workspace / "rec_a.hsic").read_bytes() == (workspace / "rec_b.hsic").read_bytes()

    def test_readme_walkthrough_trains_at_the_default_rate(self, tmp_path, capsys):
        # the README's scene, mask and toy.cfg, masked, with no --lr
        fileio.save_cube(tmp_path / "scene.hsic", toy_scene(32, 32, 4, seed=7))
        fileio.save_cube(tmp_path / "mask.hsic", toy_mask(32, 32, seed=11)[None],
                         kind=fileio.KIND_MASK)
        (tmp_path / "toy.cfg").write_text(
            "stages=3\nbase_channels=8\nlevels=1\nblocks=1\npatch=4\n"
            "cube=2x2x2\nstate_size=4\nexpansion=2\nshare_weights=1\n")
        assert run(["train", "--cube", tmp_path / "scene.hsic", "--mask", tmp_path / "mask.hsic",
                    "--config", tmp_path / "toy.cfg", "--d", "2", "--steps", "8",
                    "--seed", "1", "--masked", "--out", tmp_path / "model.csmw"]) == 0
        first, last = map(float, re.search(r"loss (\S+) -> (\S+)",
                                           capsys.readouterr().out).groups())
        assert last < first

    def test_masked_training_mask_rides_with_weights(self, workspace):
        assert run(["train", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--config", workspace / "toy.cfg",
                    "--d", "2", "--steps", "2", "--lr", "0.02", "--seed", "1",
                    "--masked", "--mask-ratio", "0.5", "--mask-seed", "9",
                    "--out", workspace / "masked.csmw"]) == 0
        model = fileio.load_weights(workspace / "masked.csmw")
        assert model.feature_mask is not None
        assert model.feature_mask.seed == 9
        assert (model.feature_mask.values == 0).sum() == round(0.5 * 16 * 16)

    def test_train_saves_the_mask_training_recorded(self, workspace, monkeypatch):
        # the file must carry the state's mask, and no other mask is made
        states, masks = [], []

        def recording(fn, into):
            def wrapper(*args):
                into.append(fn(*args))
                return into[-1]
            return wrapper

        monkeypatch.setattr(training, "train", recording(training.train, states))
        monkeypatch.setattr(training, "generate_mask", recording(training.generate_mask, masks))
        assert run(["train", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--config", workspace / "toy.cfg",
                    "--d", "2", "--steps", "1", "--lr", "0.02", "--masked",
                    "--mask-ratio", "0.25", "--mask-seed", 2**40,
                    "--out", workspace / "masked.csmw"]) == 0
        (state,) = states
        assert len(masks) == 1 and masks[0] is state.mask
        saved = fileio.load_weights(workspace / "masked.csmw").feature_mask
        assert np.array_equal(saved.values, state.mask.values)
        assert saved.digest() == masks[0].digest()


class TestConfigPrecedence:
    """train: a flag wins over the --config file, which wins over the default."""

    def train(self, workspace, cfg_text, *extra):
        # toy.cfg with `cfg_text` appended; a key may appear once, so the toy
        # lines it sets are blanked, which keeps every line number
        keys = {line.split("=")[0] for line in cfg_text.splitlines()}
        base = ["" if line.split("=")[0] in keys else line
                for line in (workspace / "toy.cfg").read_text().splitlines()]
        cfg = workspace / "prec.cfg"
        cfg.write_text("\n".join(base) + "\n" + cfg_text)
        code = run(["train", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--config", cfg,
                    "--d", "2", "--steps", "1", "--lr", "0.02", "--masked",
                    "--out", workspace / "prec.csmw", *extra])
        return code, cfg

    def test_flags_override_config_file(self, workspace):
        code, _ = self.train(workspace, "stages=1\nmask_ratio=0.2\nmask_seed=5\n",
                             "--stages", "2", "--mask-ratio", "0.5", "--mask-seed", "9")
        assert code == 0
        model = fileio.load_weights(workspace / "prec.csmw")
        assert model.config.stages == 2
        assert model.feature_mask.seed == 9
        assert (model.feature_mask.values == 0).sum() == round(0.5 * 16 * 16)

    def test_config_file_fills_absent_flags(self, workspace):
        code, _ = self.train(workspace, "stages=1\nmask_ratio=0.25\nmask_seed=5\n")
        assert code == 0
        model = fileio.load_weights(workspace / "prec.csmw")
        assert model.config.stages == 1
        assert model.feature_mask.seed == 5
        assert (model.feature_mask.values == 0).sum() == round(0.25 * 16 * 16)

    def test_bad_config_value_names_line_exit_1(self, workspace, capsys):
        code, cfg = self.train(workspace, "stages=abc\n")
        assert code == 1
        lineno = len((workspace / "toy.cfg").read_text().splitlines()) + 1
        assert f"{cfg}:{lineno}: bad value for stages" in capsys.readouterr().err
        assert not (workspace / "prec.csmw").exists()

    @pytest.mark.parametrize("line", ["base_channels=0", "stages=0", "state_size=0",
                                      "expansion=0"])
    def test_size_below_one_in_config_exit_1(self, workspace, capsys, line):
        code, cfg = self.train(workspace, line + "\n")
        assert code == 1
        lineno = len((workspace / "toy.cfg").read_text().splitlines()) + 1
        key = line.split("=")[0]
        assert f"{cfg}:{lineno}: bad value for {key}" in capsys.readouterr().err
        assert not (workspace / "prec.csmw").exists()

    @pytest.mark.parametrize("line", ["mask_ratio=1.5", "mask_ratio=nan", "share_weights=7"])
    def test_out_of_range_ratio_or_switch_in_config_exit_1(self, workspace, capsys, line):
        code, cfg = self.train(workspace, line + "\n")
        assert code == 1
        lineno = len((workspace / "toy.cfg").read_text().splitlines()) + 1
        key = line.split("=")[0]
        assert f"{cfg}:{lineno}: bad value for {key}" in capsys.readouterr().err
        assert not (workspace / "prec.csmw").exists()

    # int() and float() would read each as 10, 0.25, 50 and 2
    @pytest.mark.parametrize("line", ["stages=1_0", "mask_ratio=0.2_5", "mask_seed=5_0",
                                      "cube=1x1x0_2"])
    def test_underscore_in_config_value_exit_1(self, workspace, capsys, line):
        code, cfg = self.train(workspace, line + "\n")
        assert code == 1
        lineno = len((workspace / "toy.cfg").read_text().splitlines()) + 1
        key = line.split("=")[0]
        assert f"{cfg}:{lineno}: bad value for {key}" in capsys.readouterr().err
        assert not (workspace / "prec.csmw").exists()

    def test_zero_cube_depth_in_config_exit_1(self, workspace, capsys):
        code, cfg = self.train(workspace, "cube=2x2x0\n")
        assert code == 1
        lineno = len((workspace / "toy.cfg").read_text().splitlines()) + 1
        assert f"{cfg}:{lineno}: bad value for cube" in capsys.readouterr().err
        assert not (workspace / "prec.csmw").exists()


class TestCheckpointTensors:
    """reconstruct loads exactly the stored tensor set, bar --stages scalars."""

    @pytest.fixture
    def model(self, workspace):
        config = unfolding.UnfoldConfig(stages=2, net=TOY_NET)
        weights = unfolding.init_weights(config, seed=4, zero_residual=False)
        weights["est/alpha_raw1"].value = weights["est/alpha_raw1"].value + 0.5
        op = cassi.SensingOperator(toy_mask(16, 16, seed=11), 2, 2)
        meas = cassi.forward_project(toy_scene(16, 16, 2, seed=7), op)
        fileio.save_cube(workspace / "meas.hsic", meas[None], kind=fileio.KIND_MEASUREMENT)
        return config, weights, op, fileio.load_cube(workspace / "meas.hsic")[0][0]

    def reconstruct(self, workspace, weights_file, *extra):
        return run(["reconstruct", "--meas", workspace / "meas.hsic",
                    "--mask", workspace / "mask.hsic", "--weights", weights_file,
                    "--out", workspace / "rec.hsic", *extra])

    def test_measurement_narrower_than_mask_exit_1(self, workspace, model, capsys):
        # the shift step is inferred from the widths; none fits here
        config, weights, _, meas = model
        fileio.save_weights(workspace / "model.csmw", weights, config)
        fileio.save_cube(workspace / "meas.hsic", meas[None, :, :15], kind=fileio.KIND_MEASUREMENT)
        assert self.reconstruct(workspace, workspace / "model.csmw") == 1
        assert "whole shift step" in capsys.readouterr().err
        assert not (workspace / "rec.hsic").exists()

    def test_shift_step_flag_refused_exit_2(self, workspace, model, capsys):
        config, weights, _, _ = model
        fileio.save_weights(workspace / "model.csmw", weights, config)
        assert self.reconstruct(workspace, workspace / "model.csmw", "--d", "2") == 2
        assert "unrecognized arguments: --d 2" in capsys.readouterr().err

    def test_missing_tensor_exit_1(self, workspace, model, capsys):
        config, weights, _, _ = model
        partial = ModelWeights()
        for name, value in weights.arrays().items():
            if name != "shared/out/w":
                partial.add(name, value)
        fileio.save_weights(workspace / "partial.csmw", partial, config)
        assert self.reconstruct(workspace, workspace / "partial.csmw") == 1
        assert capsys.readouterr().err == "error: checkpoint lacks weight tensors: shared/out/w\n"
        assert not (workspace / "rec.hsic").exists()

    def test_extra_tensor_exit_1(self, workspace, model, capsys):
        config, weights, _, _ = model
        weights.add("shared/extra", np.zeros(3))
        fileio.save_weights(workspace / "extra.csmw", weights, config)
        assert self.reconstruct(workspace, workspace / "extra.csmw") == 1
        assert capsys.readouterr().err == "error: unknown weight name in checkpoint: shared/extra\n"
        assert not (workspace / "rec.hsic").exists()

    def test_zero_patch_profile_exit_1(self, workspace, model, capsys):
        # save_weights reads the config's attributes only, so a stand-in
        # writes the profile a UNetConfig with patch=0 would have
        config, weights, _, _ = model
        net = SimpleNamespace(**{**dataclasses.asdict(TOY_NET), "patch": 0})
        stand_in = SimpleNamespace(stages=config.stages, share_weights=True, net=net)
        fileio.save_weights(workspace / "zero.csmw", weights, stand_in)
        assert self.reconstruct(workspace, workspace / "zero.csmw") == 1
        assert "patch must be >= 1" in capsys.readouterr().err
        assert not (workspace / "rec.hsic").exists()

    # each profile is stored over the model fixture's tensors; a load that built or
    # drew it would ask numpy for GiBs, or never end
    @pytest.mark.parametrize("stages,share,net", [
        (2, True, {"levels": 40}),
        (2, True, {"blocks_per_level": 10 ** 9}),
        (10 ** 9, True, {}),
        (10 ** 9, False, {}),
    ], ids=["levels40", "blocks1e9", "stages1e9", "stages1e9-per-stage"])
    def test_profile_far_larger_than_file_exit_1(self, workspace, model, capsys, stages, share,
                                                 net):
        config, weights, _, _ = model
        stand_in = SimpleNamespace(stages=stages, share_weights=share, net=SimpleNamespace(
            **{**dataclasses.asdict(TOY_NET), **net}))
        fileio.save_weights(workspace / "vast.csmw", weights, stand_in)
        assert self.reconstruct(workspace, workspace / "vast.csmw") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint lacks weight tensors: ")
        assert err.count("\n") == 1
        assert not (workspace / "rec.hsic").exists()

    def test_stage_override_of_per_stage_model_exit_1(self, workspace, model, capsys):
        config = unfolding.UnfoldConfig(stages=2, net=TOY_NET, share_weights=False)
        fileio.save_weights(workspace / "own.csmw", unfolding.init_weights(config, seed=4), config)
        assert self.reconstruct(workspace, workspace / "own.csmw", "--stages", "3") == 1
        assert capsys.readouterr().err == "error: --stages can only override shared-weights models\n"
        assert not (workspace / "rec.hsic").exists()

    @pytest.mark.parametrize("stages", [1, 3])
    def test_stage_override_above_and_below(self, workspace, model, stages):
        config, weights, op, meas = model
        fileio.save_weights(workspace / "model.csmw", weights, config)
        assert self.reconstruct(workspace, workspace / "model.csmw", "--stages", stages) == 0
        rec, _ = fileio.load_cube(workspace / "rec.hsic")
        # the same model built in process: stored tensors, and the documented
        # initialization for a stage the file does not hold
        override = unfolding.UnfoldConfig(stages=stages, net=TOY_NET)
        expected = unfolding.init_weights(override, seed=0)
        stored = fileio.load_weights(workspace / "model.csmw").arrays
        expected.load_arrays({name: stored.get(name, node.value)
                              for name, node in expected.items()})
        assert np.array_equal(expected["est/alpha_raw0"].value, stored["est/alpha_raw0"])
        if stages > 2:
            assert float(expected["est/alpha_raw2"].value) == unfolding.ALPHA_RAW_INIT
            assert float(expected["est/beta_raw2"].value) == unfolding.BETA_RAW_INIT
        want = unfolding.reconstruct(meas, op, expected, override)
        assert np.array_equal(rec, want.astype(np.float32).astype(np.float64))


class TestExportAndDump:
    def test_export_band(self, workspace):
        assert run(["export-band", "--cube", workspace / "scene.hsic",
                    "--band", "1", "--out", workspace / "band.pgm"]) == 0
        assert (workspace / "band.pgm").read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_export_band_out_of_range_exit_1(self, workspace, capsys):
        assert run(["export-band", "--cube", workspace / "scene.hsic",
                    "--band", "9", "--out", workspace / "band.pgm"]) == 1
        assert "out of range" in capsys.readouterr().err

    # a negative index is refused at parse time, before the cube is read
    def test_export_band_negative_exit_2(self, workspace, capsys):
        assert run(["export-band", "--cube", workspace / "scene.hsic",
                    "--band", "-1", "--out", workspace / "band.pgm"]) == 2
        assert "error: argument --band" in capsys.readouterr().err
        assert not (workspace / "band.pgm").exists()

    def test_dump_scan_order(self, capsys):
        assert run(["dump-scan-order", "--kind", "local", "--height", "4",
                    "--width", "4", "--patch", "2"]) == 0
        out = capsys.readouterr().out
        assert "bijection=True" in out
        body = [int(v) for line in out.splitlines()[1:] for v in line.split()]
        assert body == [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]

    def test_dump_cross_order(self, capsys):
        assert run(["dump-scan-order", "--kind", "cross", "--height", "2", "--width", "2",
                    "--channels", "2", "--patch", "2", "--cube", "1x2x2"]) == 0
        body = [int(v) for line in capsys.readouterr().out.splitlines()[1:]
                for v in line.split()]
        assert body == [0, 4, 1, 5, 2, 6, 3, 7]

    # without --channels a cross order spans one default cube depth (2x2x4: 4 channels)
    def test_dump_cross_order_channels_default_to_cube_depth(self, capsys):
        assert run(["dump-scan-order", "--kind", "cross", "--height", "4", "--width", "4"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert "length=64 bijection=True" in header
        assert sorted(int(v) for line in rows for v in line.split()) == list(range(64))


class TestUsageErrors:
    # an allocation numpy cannot make ends in the one error line, as a bad file does;
    # Python's own MemoryError() has no text, so the line names its type
    @pytest.mark.parametrize("module,name,argv,error,line", [
        (scans, "global_order", ["dump-scan-order", "--kind", "global",
                                 "--height", "4", "--width", "4"],
         MemoryError("Unable to allocate 298. GiB for an array"),
         "Unable to allocate 298. GiB for an array"),
        (cassi, "forward_project", ["simulate", "--cube", "scene.hsic", "--mask", "mask.hsic",
                                    "--out", "m.hsic"],
         MemoryError("Unable to allocate 298. GiB for an array"),
         "Unable to allocate 298. GiB for an array"),
        (cassi, "forward_project", ["simulate", "--cube", "scene.hsic", "--mask", "mask.hsic",
                                    "--out", "m.hsic"],
         MemoryError(), "MemoryError"),
    ], ids=["dump-scan-order", "simulate", "simulate-no-text"])
    def test_memory_error_exit_1(self, workspace, capsys, monkeypatch, module, name, argv,
                                 error, line):
        def refuse(*args):
            raise error
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.chdir(workspace)
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_unknown_flag_exit_2(self, capsys):
        assert run(["simulate", "--bogus", "x"]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert run(["transmogrify"]) == 2

    @pytest.mark.parametrize("geometry", [["--kind", "cross", "--cube", "0x2x2"],
                                          ["--kind", "cross", "--cube", "2x2x-1"],
                                          ["--kind", "local", "--patch", "0"],
                                          ["--kind", "cross", "--patch", "-2"],
                                          ["--kind", "local", "--height", "-4"],
                                          ["--kind", "cross", "--width", "0"],
                                          ["--kind", "cross", "--channels", "0"]],
                             ids=["cube0", "cube-neg", "patch0", "patch-neg", "height-neg",
                                  "width0", "channels0"])
    def test_nonpositive_geometry_exit_2(self, capsys, geometry):
        assert run(["dump-scan-order", "--height", "8", "--width", "8", *geometry]) == 2
        assert "error: argument" in capsys.readouterr().err

    # argparse rejects the value before any file is opened
    @pytest.mark.parametrize("command", [
        ["train", "--cube", "scene.hsic", "--mask", "mask.hsic"],
        ["reconstruct", "--meas", "meas.hsic", "--mask", "mask.hsic", "--weights", "m.csmw"],
    ], ids=["train", "reconstruct"])
    def test_zero_stages_flag_exit_2(self, capsys, command):
        assert run([*command, "--stages", "0", "--out", "out.hsic"]) == 2
        assert "error: argument --stages" in capsys.readouterr().err

    # refused before the first training step, so no weights are written
    @pytest.mark.parametrize("flag", [["--steps", "0"], ["--steps", "-2"],
                                      ["--mask-seed", "-1"],
                                      ["--mask-seed", "18446744073709551616"],
                                      ["--mask-ratio", "1.5"], ["--mask-ratio", "nan"],
                                      ["--noise-bits", "-3"], ["--noise-bits", "17"],
                                      ["--lr", "-5"], ["--lr", "nan"], ["--lr", "inf"],
                                      ["--bands", "-1"], ["--bands", "0"], ["--crop", "0"],
                                      ["--d", "-1"], ["--seed", "-1"]],
                             ids=["steps0", "steps-neg", "mask-seed-neg", "mask-seed-2^64",
                                  "mask-ratio-1.5", "mask-ratio-nan",
                                  "noise-bits-neg", "noise-bits-17",
                                  "lr-neg", "lr-nan", "lr-inf", "bands-neg", "bands0", "crop0",
                                  "d-neg", "seed-neg"])
    def test_train_flag_out_of_range_exit_2(self, workspace, capsys, flag):
        code = run(["train", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--config", workspace / "toy.cfg",
                    "--masked", *flag, "--out", workspace / "m.csmw"])
        assert code == 2
        assert f"error: argument {flag[0]}" in capsys.readouterr().err
        assert not (workspace / "m.csmw").exists()

    # only ASCII digits with an optional sign make an integer; a number takes the same
    # text form, so float() never gets to strip the spaces of " 0.02"
    @pytest.mark.parametrize("flag", [["--steps", "1_0"], ["--seed", "\u0663"],
                                      ["--bands", "\uff12"], ["--mask-seed", " 5"],
                                      ["--lr", "0.0_2"], ["--lr", " 0.02"],
                                      ["--mask-ratio", "0.2_5"], ["--mask-ratio", "\u0660.5"]],
                             ids=["steps-underscore", "seed-arabic-indic", "bands-fullwidth",
                                  "mask-seed-space", "lr-underscore", "lr-space",
                                  "mask-ratio-underscore", "mask-ratio-arabic-indic"])
    def test_train_flag_not_ascii_decimal_exit_2(self, workspace, capsys, flag):
        code = run(["train", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--config", workspace / "toy.cfg",
                    "--masked", *flag, "--out", workspace / "m.csmw"])
        assert code == 2
        err = capsys.readouterr().err
        # the rule's own message, not argparse's "invalid value"
        assert f"error: argument {flag[0]}: " in err and f"got {flag[1]!r}" in err
        assert not (workspace / "m.csmw").exists()

    @pytest.mark.parametrize("bits", ["-3", "17"])
    def test_simulate_noise_bits_out_of_range_exit_2(self, workspace, capsys, bits):
        code = run(["simulate", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", "--noise-bits", bits,
                    "--out", workspace / "m.hsic"])
        assert code == 2
        assert "error: argument --noise-bits" in capsys.readouterr().err
        assert not (workspace / "m.hsic").exists()

    # refused at parse time, even where the noiseless default leaves the seed unused
    @pytest.mark.parametrize("flag", ["--d", "--seed"])
    def test_simulate_negative_shift_or_seed_exit_2(self, workspace, capsys, flag):
        code = run(["simulate", "--cube", workspace / "scene.hsic",
                    "--mask", workspace / "mask.hsic", flag, "-1",
                    "--out", workspace / "m.hsic"])
        assert code == 2
        assert f"error: argument {flag}" in capsys.readouterr().err
        assert not (workspace / "m.hsic").exists()

    def test_train_without_scene_source_exit_2(self, workspace, capsys):
        code = run(["train", "--mask", workspace / "mask.hsic",
                    "--out", workspace / "m.csmw"])
        assert code == 2
        assert "one of the arguments --cube --scenes is required" in capsys.readouterr().err

    def test_train_with_both_scene_sources_exit_2(self, workspace, capsys):
        code = run(["train", "--cube", workspace / "scene.hsic", "--scenes", workspace / "absent",
                    "--mask", workspace / "mask.hsic", "--config", workspace / "toy.cfg",
                    "--steps", "1", "--out", workspace / "m.csmw"])
        assert code == 2
        assert "not allowed with argument --cube" in capsys.readouterr().err
        assert not (workspace / "m.csmw").exists()

    def test_corrupt_input_exit_1(self, workspace, capsys):
        bad = workspace / "bad.hsic"
        bad.write_bytes(b"garbage garbage garbage")
        assert run(["eval", "--ref", bad, "--test", bad]) == 1
        assert "not a HSIC file" in capsys.readouterr().err


def typed_flags():
    """(command, flag) for every option of every subcommand that parses its value."""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return [(name, action.option_strings[0]) for name, sub in commands.choices.items()
            for action in sub._actions if action.type is not None]


TYPED_FLAGS = typed_flags()


def test_flag_walk_finds_the_typed_flags():
    assert ("train", "--steps") in TYPED_FLAGS and len(TYPED_FLAGS) >= 20


# a refused flag prints the rule that refused it; a bare type such as `int`
# would print argparse's "invalid int value: 'x'" instead
@pytest.mark.parametrize("command,flag", TYPED_FLAGS,
                         ids=[command + flag for command, flag in TYPED_FLAGS])
def test_refused_flag_prints_its_rule(capsys, command, flag):
    assert run([command, flag, "x"]) == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert re.fullmatch(rf"cassi-ssm {command}: error: argument {flag}: .+, got 'x'", last)
    assert "invalid" not in last
