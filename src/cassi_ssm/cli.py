"""Command-line driver: simulate, reconstruct, train, eval, export-band,
dump-scan-order.

Exit codes: 0 success, 1 runtime error (bad files, dimension mismatches,
an allocation numpy cannot make; `parse_and_dispatch` prints its one
`error:` line), 2 usage error.  `train`
lays its flags over the `--config` settings for `fileio.config_from_settings`.
Every run is bit-reproducible given the same seeds.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

from . import cassi, fileio, metrics, scans, training, unfolding
from .checks import integer
from .denoiser import UNetConfig


def _load_operator(mask_path: str, bands: int, shift_step: int) -> cassi.SensingOperator:
    mask, _ = fileio.load_cube(mask_path, expect_kind=fileio.KIND_MASK)
    return cassi.SensingOperator(mask[0], shift_step, bands)


def _cmd_simulate(args) -> int:
    cube, _ = fileio.load_cube(args.cube, expect_kind=fileio.KIND_CUBE)
    op = _load_operator(args.mask, cube.shape[0], args.d)
    if op.detector_width > fileio.MAX_DIM:
        raise ValueError(f"measurement width {op.detector_width} exceeds the {fileio.MAX_DIM} "
                         "columns an HSIC file can hold")
    meas = cassi.add_shot_noise(cassi.forward_project(cube, op), args.noise_bits, args.seed)
    fileio.save_cube(args.out, meas[None], kind=fileio.KIND_MEASUREMENT)
    print(f"wrote measurement {meas.shape[0]}x{meas.shape[1]} to {args.out}")
    return 0


# glibc's mallopt parameter: bytes kept mapped above the heap top
_M_TOP_PAD = -2
# A tape-free reconstruct frees each intermediate as soon as it is read.
# Without a pad glibc hands the heap top back to the kernel after those
# frees and faults it in again on the next allocation: about 150k minor
# faults per 64x64x8 toy item, which then runs no faster than with the tape
# kept.  With 256 MiB, items after the first fault under 300 times, at that
# size and at 32x32x28 and 64x64x28 with the default profile; 64 MiB still
# faulted 16k times per item at 32x32x28.
_HEAP_TOP_PAD = 256 << 20


def _keep_heap_mapped() -> None:
    """Set glibc's heap top pad; without `mallopt` in the C library, do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def _cmd_reconstruct(args) -> int:
    _keep_heap_mapped()
    meas, _ = fileio.load_cube(args.meas, expect_kind=fileio.KIND_MEASUREMENT)
    model = fileio.load_weights(args.weights)
    mask, _ = fileio.load_cube(args.mask, expect_kind=fileio.KIND_MASK)
    op = cassi.SensingOperator.for_measurement(mask[0], meas.shape[2], model.config.net.bands)
    weights, config = unfolding.load_model(model.config, model.arrays, args.stages)
    cube = unfolding.reconstruct(meas[0], op, weights, config,
                                 feature_mask=model.feature_mask)
    fileio.save_cube(args.out, cube, kind=fileio.KIND_CUBE)
    print(f"wrote cube {cube.shape[0]}x{cube.shape[1]}x{cube.shape[2]} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if args.cube:
        scenes = [fileio.load_cube(p, expect_kind=fileio.KIND_CUBE)[0] for p in args.cube]
    else:
        scenes = fileio.ingest_dataset(args.scenes, crop=args.crop, bands=args.bands,
                                       seed=args.seed)
    # a flag wins over the config file, which wins over the default
    settings = fileio.parse_config_file(args.config) if args.config else {}
    settings.update((key, getattr(args, key)) for key in ("stages", "mask_ratio", "mask_seed")
                    if getattr(args, key) is not None)
    train_cfg = training.TrainConfig(
        learning_rate=args.lr, steps=args.steps, masked=args.masked,
        zero_ratio=settings.pop("mask_ratio", training.TrainConfig.zero_ratio),
        mask_seed=settings.pop("mask_seed", training.TrainConfig.mask_seed),
        noise_bits=args.noise_bits, noise_seed=args.seed)
    bands = scenes[0].shape[0]
    config = fileio.config_from_settings({**settings, "bands": bands})
    op = _load_operator(args.mask, bands, args.d)
    for scene in scenes:
        op.check_cube(scene)
    weights = unfolding.init_weights(config, seed=args.seed)
    batch = [(scene, op) for scene in scenes]
    state = training.train(batch, weights, config, train_cfg)
    fileio.save_weights(args.out, weights, config, feature_mask=state.mask)
    print(f"trained {args.steps} steps: loss {state.losses[0]:.6g} -> {state.losses[-1]:.6g}")
    print(f"wrote weights to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    ref, _ = fileio.load_cube(args.ref, expect_kind=fileio.KIND_CUBE)
    test, _ = fileio.load_cube(args.test, expect_kind=fileio.KIND_CUBE)
    report = metrics.evaluate(ref, test)
    for i, (p, s) in enumerate(zip(report.band_psnr, report.band_ssim)):
        print(f"psnr_band_{i}={p:.6f}")
        print(f"ssim_band_{i}={s:.6f}")
    print(f"psnr_mean={report.psnr_mean:.6f}")
    print(f"ssim_mean={report.ssim_mean:.6f}")
    print(f"data_range={report.data_range:.6f}")
    return 0


def _cmd_export_band(args) -> int:
    cube, _ = fileio.load_cube(args.cube)
    fileio.export_band(cube, args.band, args.out)
    print(f"wrote band {args.band} to {args.out}")
    return 0


def _cmd_dump_scan_order(args) -> int:
    kind = args.kind
    if kind in ("global", "global-reverse"):
        order = scans.global_order(args.height, args.width, kind.endswith("reverse"))
    elif kind in ("local", "local-reverse"):
        order = scans.local_patch_order(args.height, args.width, args.patch,
                                        kind.endswith("reverse"))
    elif kind == "cross":
        channels = args.cube[2] if args.channels is None else args.channels
        order = scans.cross_cube_order(args.height, args.width, channels, args.patch, args.cube)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    report = scans.validate_order(order)
    fwd = order.forward
    print(f"# {order.descriptor} length={fwd.size} "
          f"bijection={report.is_bijection} max_jump={report.max_neighbor_distance}")
    for start in range(0, fwd.size, 16):
        print(" ".join(str(int(v)) for v in fwd[start:start + 16]))
    return 0


def _flag(rule, *args):
    """An argparse type that parses with `rule(text, *args)`; a refusal prints
    the rule's own message rather than argparse's `invalid <name> value`."""
    def parse(text: str):
        try:
            return rule(text, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cassi-ssm",
                                     description="CASSI simulation and reconstruction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="project a cube into a coded measurement")
    p.add_argument("--cube", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--d", type=_flag(integer, "shift step"), default=2,
                   help="dispersion shift step per band")
    p.add_argument("--noise-bits", type=_flag(cassi.noise_bits), default=0,
                   help=f"shot-noise bit depth in [0, {cassi.MAX_NOISE_BITS}], 0 = noiseless")
    p.add_argument("--seed", type=_flag(integer, "noise seed"), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a cube from a measurement")
    p.add_argument("--meas", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--stages", type=_flag(integer, "stage count", 1), default=None,
                   help="override the stage count of a shared-weights model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("train", help="fit the unfolding model on scenes")
    scenes = p.add_mutually_exclusive_group(required=True)
    scenes.add_argument("--cube", action="append", default=[], help="scene file (repeatable)")
    scenes.add_argument("--scenes", default=None, help="directory of .hsic scenes")
    p.add_argument("--crop", type=_flag(integer, "crop", 1), default=32,
                   help="side of the square crop taken from each --scenes scene")
    p.add_argument("--bands", type=_flag(integer, "bands", 1), default=4,
                   help="leading bands kept from each --scenes scene")
    p.add_argument("--mask", required=True)
    p.add_argument("--config", default=None, help="key=value network profile")
    p.add_argument("--stages", type=_flag(integer, "stage count", 1), default=None,
                   help="stage count; overrides the config file (default 3)")
    p.add_argument("--d", type=_flag(integer, "shift step"), default=2)
    p.add_argument("--steps", type=_flag(integer, "steps", 1),
                   default=training.TrainConfig.steps)
    p.add_argument("--lr", type=_flag(training.learning_rate),
                   default=training.TrainConfig.learning_rate,
                   help="base learning rate, finite and >= 0")
    p.add_argument("--seed", type=_flag(integer, "seed"), default=0)
    p.add_argument("--masked", action="store_true", help="enable masked training")
    p.add_argument("--mask-ratio", type=_flag(training.zero_ratio), default=None,
                   help="zeroed share of the feature mask; overrides the config file (default 0.5)")
    p.add_argument("--mask-seed", type=_flag(training.feature_mask_seed), default=None,
                   help="feature-mask seed; overrides the config file (default 0)")
    p.add_argument("--noise-bits", type=_flag(cassi.noise_bits),
                   default=training.TrainConfig.noise_bits,
                   help=f"shot-noise bit depth in [0, {cassi.MAX_NOISE_BITS}], 0 = noiseless")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="PSNR/SSIM of a reconstruction against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export-band", help="write one band as a PGM image")
    p.add_argument("--cube", required=True)
    p.add_argument("--band", type=_flag(integer, "band"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_band)

    p = sub.add_parser("dump-scan-order", help="print the forward indices of a scan order")
    p.add_argument("--kind", required=True,
                   choices=["global", "global-reverse", "local", "local-reverse", "cross"])
    p.add_argument("--height", type=_flag(integer, "height", 1), required=True)
    p.add_argument("--width", type=_flag(integer, "width", 1), required=True)
    p.add_argument("--channels", type=_flag(integer, "channels", 1),
                   help="channel count of a cross order (default: the cube depth)")
    p.add_argument("--patch", type=_flag(integer, "patch", 1), default=UNetConfig.patch)
    p.add_argument("--cube", type=_flag(fileio.cube_dims), default=UNetConfig.cube,
                   help="cube dims HxWxC")
    p.set_defaults(func=_cmd_dump_scan_order)

    return parser


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
