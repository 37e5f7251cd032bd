"""Acceptance gate: every criterion as a test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime budgets are asserted, not just printed.
"""

import struct
import time

import numpy as np
import pytest

from cassi_ssm import autodiff as ad
from cassi_ssm import cassi, fileio, metrics, scans, ssm, training, unfolding
from cassi_ssm.cli import parse_and_dispatch
from cassi_ssm.denoiser import (
    ModelWeights,
    UNetConfig,
    denoise,
    denoiser_layout,
    gated_ffn,
    spatial_ssm,
    spectral_cube_ssm,
)
from cassi_ssm.demo import toy_mask, toy_scene
from oracles import (
    build_dense_phi, continuous_response_check, dense_oracle_data_step, finite_diff_check,
    selective_scan_oracle, spectral_scan_order, ssim_loop_oracle, total)

GRAD_TOL = 1e-4

NET_8X8X2 = UNetConfig(bands=2, base_channels=4, levels=1, blocks_per_level=1,
                       patch=2, cube=(1, 1, 2), state_size=2, expansion=1)
NET_TOY = UNetConfig(bands=4, base_channels=8, levels=1, blocks_per_level=1,
                     patch=4, cube=(2, 2, 2), state_size=4, expansion=2)


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def random_operator(rng):
    h = int(rng.integers(1, 9))
    w = int(rng.integers(1, 9))
    nb = int(rng.integers(1, 5))
    d = int(rng.choice([0, 1, 2]))
    return cassi.SensingOperator(rng.random((h, w)), d, nb)


def test_criterion_01_adjoint_consistency():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        op = random_operator(rng)
        x = rng.normal(size=(op.bands, op.height, op.width))
        y = rng.normal(size=(op.height, op.detector_width))
        lhs = float(np.sum(cassi.forward_project(x, op) * y))
        rhs = float(np.sum(x * cassi.adjoint_project(y, op)))
        worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y)))
    elapsed = time.time() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, f"adjoint defect {worst:.2e} over 100 operators in {elapsed:.2f}s")


def test_criterion_02_gram_structure():
    rng = np.random.default_rng(102)
    worst_diag = 0.0
    for _ in range(100):
        op = random_operator(rng)
        phi = build_dense_phi(op)
        gram = phi @ phi.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() == 0.0
        worst_diag = max(worst_diag,
                         np.abs(cassi.phi_diag(op).ravel() - np.diag(gram)).max())
    assert worst_diag <= 1e-12
    report(2, f"Phi Phi^T exactly diagonal, phi_diag defect {worst_diag:.2e}")


def test_criterion_03_data_step_oracle():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        op = cassi.SensingOperator(rng.random((4, 5)), 2, 3)
        z = rng.random((3, 4, 5))
        y = rng.random((4, op.detector_width))
        for mu in (0.1, 1.0, 10.0):
            got = unfolding.data_step(z, y, op, mu)
            want = dense_oracle_data_step(z, y, op, mu)
            worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    report(3, f"data step vs dense solve defect {worst:.2e} in {elapsed:.2f}s")


def test_criterion_04_scan_engine():
    rng = np.random.default_rng(104)
    # randomized bijections across all three generators
    for _ in range(30):
        ph, pw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h, w = 2 * ph, 2 * pw
        c = 2 * int(rng.integers(1, 4))
        assert scans.validate_order(scans.global_order(h, w, bool(rng.integers(2)))).is_bijection
        assert scans.validate_order(scans.local_patch_order(h, w, 2, bool(rng.integers(2)))).is_bijection
        assert scans.validate_order(
            scans.cross_cube_order(h, w, c, 2, (1, 1, 2))).is_bijection
    # enumerated fixtures against the nested-loop oracles
    assert scans.local_patch_order(4, 4, 2).forward.tolist() == \
        [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
    assert scans.cross_cube_order(2, 2, 2, 2, (1, 2, 2)).forward.tolist() == \
        [0, 4, 1, 5, 2, 6, 3, 7]
    # locality: cross-cube order vs the naive per-pixel spectral scan
    margins = []
    for h, w, c, patch, cube in [(8, 8, 8, 8, (2, 2, 2)),
                                 (4, 4, 8, 4, (2, 2, 4)),
                                 (8, 8, 4, 8, (1, 2, 2))]:
        cross = scans.validate_order(scans.cross_cube_order(h, w, c, patch, cube)).max_neighbor_distance
        naive = scans.validate_order(spectral_scan_order(h, w, c)).max_neighbor_distance
        assert cross <= naive
        margins.append(f"{cross}<={naive}")
    report(4, f"bijections + fixtures verified; locality margins {', '.join(margins)}")


def test_criterion_05_ssm_correctness():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        length = int(rng.integers(1, 513)) if seed else 4096
        nstate = int(rng.integers(1, 17))
        # a in [-4, -0.2]; the timescale bias spans softplus^-1 of [0.01, 0.8]
        case = {"x": rng.normal(size=(1, length)),
                "a_log": np.log(rng.uniform(0.2, 4.0, size=(1, nstate))),
                **{g: rng.normal(size=(1, nstate)) for g in ("w_b", "b_b", "w_c", "b_c")},
                "w_dt": rng.uniform(-1.0, 1.0, size=1),
                "b_dt": rng.uniform(np.log(np.expm1(0.01)), np.log(np.expm1(0.8)), size=1),
                "d": rng.normal(size=1)}
        got = ssm.selective_scan(**{k: ad.constant(v) for k, v in case.items()}).value
        want = selective_scan_oracle(**case)
        worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    assert worst <= 1e-12

    rng = np.random.default_rng(105)
    worst_zoh = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = -rng.uniform(0.2, 3.0, size=n)
        b = rng.normal(size=n)
        c = rng.normal(size=n)
        dev = continuous_response_check(a, b, c, float(rng.normal()),
                                        u=float(rng.normal()),
                                        delta=float(rng.uniform(0.05, 1.0)), steps=16)
        worst_zoh = max(worst_zoh, dev)
    assert worst_zoh <= 1e-9
    report(5, f"scan vs naive defect {worst:.2e}; ZOH vs analytic {worst_zoh:.2e}")


def test_criterion_06_differentiability():
    start = time.time()
    rng = np.random.default_rng(106)
    results = {}

    # conv2d
    x = rng.normal(size=(2, 5, 5))
    proj = rng.normal(size=(3, 5, 5))
    results["conv2d"] = finite_diff_check(
        lambda w: total(ad.mul(ad.conv2d(ad.constant(x), w, ad.constant(np.zeros(3))),
                            ad.constant(proj))),
        rng.normal(size=(3, 2, 3, 3)))

    # gather_last
    order = scans.local_patch_order(4, 4, 2, reverse=True)
    gproj = rng.normal(size=16)
    results["gather_last"] = finite_diff_check(
        lambda t: total(ad.mul(ad.gather_last(t, order.forward, order.inverse),
                            ad.constant(gproj))),
        rng.normal(size=16))

    # selective_scan (through input, selection and timescale), as a batch of one
    length, nstate = 12, 3
    sx = rng.normal(size=(1, length))
    sweights = {"a_log": np.log(rng.uniform(0.3, 2.0, size=(1, nstate))),
                **{g: rng.normal(size=(1, nstate)) for g in ("w_b", "b_b", "w_c", "b_c")},
                "w_dt": rng.uniform(-0.5, 0.5, size=1),
                "b_dt": rng.uniform(np.log(np.expm1(0.05)), np.log(np.expm1(0.6)), size=1),
                "d": np.array([0.4])}
    sproj = rng.normal(size=(1, length))

    def scan_input(t):
        y = ssm.selective_scan(t, **{k: ad.constant(v) for k, v in sweights.items()})
        return total(ad.mul(y, ad.constant(sproj)))

    results["selective_scan"] = finite_diff_check(scan_input, sx)

    # block pieces on 4x4x4 features
    from cassi_ssm.denoiser import _block_layout
    bcfg = UNetConfig(bands=1, base_channels=4, patch=2, cube=(1, 1, 2), state_size=2,
                      expansion=1)
    bw = ModelWeights.draw(_block_layout("blk", bcfg, 4), np.random.default_rng(60))
    feat = rng.random((4, 4, 4))
    fproj = rng.normal(size=(4, 4, 4))

    results["gdffn"] = finite_diff_check(
        lambda t: total(ad.mul(gated_ffn(t, bw, "blk/ffn"), ad.constant(fproj))),
        feat)
    results["le_ssm"] = finite_diff_check(
        lambda t: total(ad.mul(spatial_ssm(t, bw, "blk/sp", patch=2), ad.constant(fproj))),
        feat)
    results["cs_ssm"] = finite_diff_check(
        lambda t: total(ad.mul(spectral_cube_ssm(t, bw, "blk/cx", 2, (1, 1, 2)),
                            ad.constant(fproj))),
        feat)

    # full 1-level denoiser on an 8x8x2 input: input side and a weight tensor
    dw = ModelWeights.draw(denoiser_layout("net", NET_8X8X2, zero_residual=False),
                           np.random.default_rng(61))
    mask = rng.random((8, 8))
    dproj = rng.normal(size=(2, 8, 8))

    results["denoiser/input"] = finite_diff_check(
        lambda t: total(ad.mul(denoise(t, ad.constant(0.3), mask, dw, NET_8X8X2, "net"),
                            ad.constant(dproj))),
        rng.random((2, 8, 8)))

    x_fixed = ad.constant(rng.random((2, 8, 8)))

    def through_weight(t):
        # splice the probed tensor in as the embedding kernel leaf
        original = dw._store["net/embed/proj_w"]
        dw._store["net/embed/proj_w"] = t
        try:
            return total(ad.mul(denoise(x_fixed, ad.constant(0.3), mask, dw, NET_8X8X2, "net"),
                                ad.constant(dproj)))
        finally:
            dw._store["net/embed/proj_w"] = original

    results["denoiser/weight"] = finite_diff_check(
        through_weight, dw["net/embed/proj_w"].value.copy())

    elapsed = time.time() - start
    assert elapsed < 120.0
    for name, err in results.items():
        assert err <= GRAD_TOL, f"{name}: {err}"
    summary = ", ".join(f"{k}={v:.1e}" for k, v in results.items())
    report(6, f"gradient checks in {elapsed:.1f}s: {summary}")


def test_criterion_07_residual_identity():
    cfg = unfolding.UnfoldConfig(stages=4, net=NET_8X8X2, share_weights=True)
    weights = unfolding.init_weights(cfg, seed=7, zero_residual=True)
    rng = np.random.default_rng(107)
    op = cassi.SensingOperator((rng.random((8, 8)) < 0.5).astype(float), 2, 2)
    cube = rng.random((2, 8, 8))
    y = cassi.forward_project(cube, op) + 0.02 * rng.normal(size=(8, op.detector_width))
    y = np.maximum(y, 0.0)

    # zeroed output conv: denoiser is the identity
    x_probe = rng.random((2, 8, 8))
    assert np.array_equal(
        denoise(ad.constant(x_probe), ad.constant(0.1), op.mask, weights, NET_8X8X2,
                "shared").value, x_probe)

    # reconstruct equals the componentwise replay of pure data steps
    got = unfolding.reconstruct(y, op, weights, cfg)
    z = cassi.shift_back(y, op)
    norms = [np.linalg.norm(y - cassi.forward_project(z, op))]
    for _ in range(cfg.stages):
        z = unfolding.data_step(z, y, op, 1.0)
        norms.append(np.linalg.norm(y - cassi.forward_project(z, op)))
    assert np.array_equal(got, np.maximum(z, 0.0))
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    report(7, f"identity replay exact; residual norms non-increasing {norms[0]:.3f}->{norms[-1]:.3f}")


@pytest.mark.slow
def test_criterion_08_toy_learning():
    start = time.time()
    cfg = unfolding.UnfoldConfig(stages=3, net=NET_TOY, share_weights=True)
    cube = toy_scene(16, 16, 4, seed=21)
    op = cassi.SensingOperator(toy_mask(16, 16, seed=22), 2, 4)
    y = cassi.forward_project(cube, op)
    baseline = metrics.evaluate(cube, np.maximum(cassi.shift_back(y, op), 0.0)).psnr_mean

    weights = unfolding.init_weights(cfg, seed=23)
    tc = training.TrainConfig(learning_rate=0.02, steps=500)
    state = training.train([(cube, op)], weights, cfg, tc)
    recon = unfolding.reconstruct(y, op, weights, cfg)
    trained = metrics.evaluate(cube, recon).psnr_mean

    assert state.losses[-1] < state.losses[0]
    assert trained >= baseline + 3.0

    # masked variant: same run, fixed-seed mask, finite loss throughout
    weights_m = unfolding.init_weights(cfg, seed=23)
    tc_m = training.TrainConfig(learning_rate=0.02, steps=500, masked=True,
                                zero_ratio=0.5, mask_seed=13)
    state_m = training.train([(cube, op)], weights_m, cfg, tc_m)
    assert np.isfinite(state_m.losses).all()
    assert state_m.mask.digest() == training.generate_mask(16, 16, 0.5, seed=13).digest()

    elapsed = time.time() - start
    assert elapsed < 600.0
    report(8, f"PSNR {baseline:.2f} -> {trained:.2f} dB (gain {trained - baseline:+.2f}); "
              f"masked run finite; {elapsed:.0f}s total")


def test_criterion_09_masked_strategy_mechanics():
    for ratio in (0.3, 0.5, 0.8):
        fm = training.generate_mask(16, 16, ratio, seed=5)
        assert (fm.values == 0).sum() == round(ratio * 256)

    # identical digest at train and eval
    cfg = unfolding.UnfoldConfig(stages=2, net=NET_8X8X2, share_weights=True)
    weights = unfolding.init_weights(cfg, seed=9)
    cube = toy_scene(8, 8, 2, seed=31)
    op = cassi.SensingOperator(toy_mask(8, 8, seed=32), 2, 2)
    tc = training.TrainConfig(learning_rate=0.02, steps=3, masked=True,
                              zero_ratio=0.5, mask_seed=17)
    state = training.train([(cube, op)], weights, cfg, tc)
    eval_mask = training.generate_mask(8, 8, 0.5, seed=17)
    assert state.mask.digest() == eval_mask.digest()

    # masked-off path bit-identical to the unmasked model: training with
    # masked=False and training that never touches the mask machinery must
    # produce the same losses, weights and reconstruction
    y = cassi.forward_project(cube, op)
    w_off = unfolding.init_weights(cfg, seed=9)
    s_off = training.train([(cube, op)], w_off, cfg,
                           training.TrainConfig(learning_rate=0.02, steps=3, masked=False))
    rec_off = unfolding.reconstruct(y, op, w_off, cfg, feature_mask=None)
    w_plain = unfolding.init_weights(cfg, seed=9)
    s_plain = training.train([(cube, op)], w_plain, cfg,
                             training.TrainConfig(learning_rate=0.02, steps=3))
    rec_plain = unfolding.reconstruct(y, op, w_plain, cfg)
    assert tuple(s_off.losses) == tuple(s_plain.losses)
    for name, node in w_off.items():
        assert np.array_equal(node.value, w_plain[name].value)
    assert np.array_equal(rec_off, rec_plain)
    report(9, "mask counts exact for 0.3/0.5/0.8; digests match train/eval; "
              "masked-off path bit-identical")


def test_criterion_10_metrics_oracles():
    rng = np.random.default_rng(110)

    # analytic fixtures
    a = np.zeros((12, 12))
    assert metrics.psnr(a, np.full((12, 12), 0.1), 1.0) == pytest.approx(20.0, abs=1e-12)
    x = rng.random((12, 12))
    assert metrics.psnr(x, x, 1.0) == 100.0
    assert metrics.ssim(x, x, 1.0) == pytest.approx(1.0, abs=1e-15)
    c1v, c2v = 0.25, 0.65
    k1 = 1e-4
    want = (2 * c1v * c2v + k1) / (c1v ** 2 + c2v ** 2 + k1)
    assert metrics.ssim(np.full((11, 11), c1v), np.full((11, 11), c2v), 1.0) == \
        pytest.approx(want, abs=1e-12)

    # definitional oracles
    worst = 0.0
    for seed in range(5):
        r = np.random.default_rng(seed)
        img_a = r.random((13, 14))
        img_b = np.clip(img_a + 0.1 * r.normal(size=(13, 14)), 0, 1)
        worst = max(worst, abs(metrics.ssim(img_a, img_b, 1.0)
                               - ssim_loop_oracle(img_a, img_b, 1.0)))
        mse = float(np.mean((img_a - img_b) ** 2))
        worst = max(worst, abs(metrics.psnr(img_a, img_b, 1.0)
                               - 10 * np.log10(1.0 / mse)))
    assert worst <= 1e-9
    report(10, f"metric oracle defect {worst:.2e}; analytic fixtures exact")


def test_criterion_11_cli_round_trip(tmp_path, capsys):
    scene = toy_scene(32, 32, 4, seed=7)
    mask = toy_mask(32, 32, seed=11)
    fileio.save_cube(tmp_path / "scene.hsic", scene)
    fileio.save_cube(tmp_path / "mask.hsic", mask[None], kind=fileio.KIND_MASK)
    (tmp_path / "toy.cfg").write_text(
        "stages=3\nbase_channels=8\nlevels=1\nblocks=1\npatch=4\n"
        "cube=2x2x2\nstate_size=4\nexpansion=1\nshare_weights=1\n")

    def run(args):
        return parse_and_dispatch([str(a) for a in args])

    start = time.time()
    for tag in ("a", "b"):
        assert run(["simulate", "--cube", tmp_path / "scene.hsic",
                    "--mask", tmp_path / "mask.hsic", "--d", "2", "--noise-bits", "11",
                    "--seed", "7", "--out", tmp_path / f"meas_{tag}.hsic"]) == 0
        assert run(["train", "--cube", tmp_path / "scene.hsic",
                    "--mask", tmp_path / "mask.hsic", "--config", tmp_path / "toy.cfg",
                    "--d", "2", "--steps", "2", "--lr", "0.02", "--seed", "3",
                    "--out", tmp_path / f"model_{tag}.csmw"]) == 0
        assert run(["reconstruct", "--meas", tmp_path / f"meas_{tag}.hsic",
                    "--mask", tmp_path / "mask.hsic",
                    "--weights", tmp_path / f"model_{tag}.csmw",
                    "--out", tmp_path / f"rec_{tag}.hsic"]) == 0
        assert run(["eval", "--ref", tmp_path / "scene.hsic",
                    "--test", tmp_path / f"rec_{tag}.hsic"]) == 0
    elapsed = time.time() - start
    for name in ("meas", "model", "rec"):
        ext = "csmw" if name == "model" else "hsic"
        assert (tmp_path / f"{name}_a.{ext}").read_bytes() == \
            (tmp_path / f"{name}_b.{ext}").read_bytes()

    # header fuzz: each mutation rejected with its own diagnostic
    base = fileio.CUBE_MAGIC + struct.pack("<BBIII", 1, 0, 2, 2, 1) + b"\x00" * 16
    mutations = {
        "magic": b"XSIC" + base[4:],
        "version": base[:4] + struct.pack("<B", 3) + base[5:],
        "kind": base[:5] + struct.pack("<B", 9) + base[6:],
        "dims": base[:6] + struct.pack("<I", 0) + base[10:],
        "short": base[:-4],
        "long": base + b"\x00",
    }
    diagnostics = set()
    for name, raw in mutations.items():
        path = tmp_path / f"fuzz_{name}.hsic"
        path.write_bytes(raw)
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.load_cube(path)
        diagnostics.add(str(err.value).split(": ", 1)[1])
        assert run(["eval", "--ref", path, "--test", path]) == 1
    capsys.readouterr()
    assert len(diagnostics) == len(mutations)
    report(11, f"pipeline bit-reproducible twice in {elapsed:.0f}s; "
               f"{len(mutations)} fuzz cases each with a distinct diagnostic")
