"""Cost of a default-profile reconstruct by scene size (ROADMAP item 10).

    python3 experiments/cost.py --out cost.json [--sizes 32 64 128]

For each size S the script writes an S x S x 28 `toy_scene`, its coded
measurement and one default-profile model (three shared-weight stages,
`init_weights(seed=0, zero_residual=False)`) to a temporary directory, and
runs the CLI `reconstruct` on them in a fresh interpreter.  That run reports:

- `seconds`: wall time of the command, imports excluded;
- `cpu_seconds`: its CPU time, user plus system, over all its threads; a
  kernel that goes multi-threaded shows as CPU time above wall time;
- `seconds_per_mvoxel`: `seconds` per million voxels of the output cube;
- `vmhwm_mb`: the peak RSS of its own address space (`VmHWM`), not
  `ru_maxrss`, which Linux seeds at exec with the peak of the process that
  spawned it;
- `minor_faults`: minor page faults during the command;
- `sha256`: of the output file, so two commits' outputs can be compared.

The default sizes are 32, 64 and 128; 256, which takes minutes and
gigabytes, runs only when named.  The JSON also records the commit
(when the checkout is a clean git tree), a digest of the package sources and
the numpy version.  Linux only: it reads `/proc/self/status`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from cassi_ssm import cassi, demo, fileio, unfolding  # noqa: E402
from cassi_ssm.denoiser import UNetConfig  # noqa: E402

BANDS = 28
STAGES = 3
SIZES = (32, 64, 128)

RECONSTRUCT = """
import json, resource, sys, time
from cassi_ssm.cli import parse_and_dispatch
before = resource.getrusage(resource.RUSAGE_SELF)
start = time.perf_counter()
code = parse_and_dispatch(sys.argv[1:])
seconds = time.perf_counter() - start
after = resource.getrusage(resource.RUSAGE_SELF)
cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
faults = after.ru_minflt - before.ru_minflt
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "seconds": seconds, "cpu_seconds": cpu,
                  "vmhwm_mb": kib / 1024, "minor_faults": faults}))
"""


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source() -> dict:
    """The commit and a digest of the package sources that were measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cassi_ssm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    dirty = _git("status", "--porcelain", "--", "src")
    return {"commit": _git("rev-parse", "HEAD") if dirty == "" else None,
            "source_sha256": digest.hexdigest()}


def measure(size: int, work: Path, model: Path) -> dict:
    """One default-profile CLI reconstruct of a size x size x 28 scene, in a fresh interpreter."""
    mask = demo.toy_mask(size, size, seed=1)
    op = cassi.SensingOperator(mask, 2, BANDS)
    meas = cassi.forward_project(demo.toy_scene(size, size, BANDS, seed=0), op)
    paths = {name: work / f"{name}{size}.hsic" for name in ("mask", "meas", "out")}
    fileio.save_cube(paths["mask"], mask[None], kind=fileio.KIND_MASK)
    fileio.save_cube(paths["meas"], meas[None], kind=fileio.KIND_MEASUREMENT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RECONSTRUCT, "reconstruct", "--meas", str(paths["meas"]),
         "--mask", str(paths["mask"]), "--weights", str(model), "--out", str(paths["out"])],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"reconstruct at {size}x{size}x{BANDS} failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if report.pop("code") != 0:
        raise RuntimeError(f"reconstruct at {size}x{size}x{BANDS} exited {proc.stdout}")
    report["seconds_per_mvoxel"] = report["seconds"] / (size * size * BANDS / 1e6)
    report["sha256"] = hashlib.sha256(paths["out"].read_bytes()).hexdigest()
    return {"size": f"{size}x{size}x{BANDS}", **report}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                   help="square scene sizes, each a multiple of 16 (default 32 64 128)")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    config = unfolding.UnfoldConfig(stages=STAGES, net=UNetConfig(bands=BANDS))
    result = {"profile": f"default UNetConfig(bands={BANDS}), {STAGES} shared stages, "
                         "init_weights(seed=0, zero_residual=False), toy_scene seed 0, "
                         "toy_mask seed 1, shift step 2, no noise",
              **_source(), "numpy": np.__version__, "sizes": []}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        model = work / "model.csmw"
        fileio.save_weights(model, unfolding.init_weights(config, seed=0, zero_residual=False),
                            config)
        for size in args.sizes:
            result["sizes"].append(measure(size, work, model))
            print(json.dumps(result["sizes"][-1]), flush=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
