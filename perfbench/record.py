"""Record the reference outputs the benchmark checks every item against.

    PYTHONPATH=src python3 perfbench/record.py [--workload NAME ...]

Runs every pooled input of each named workload (all by default) once, plus
its warm-up input, and stores the outputs in `perfbench/reference.json`,
keeping the entries of workloads not named.  Run it only at a commit whose
outputs are known to be right: the references define what `correct` means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads
from workloads import WARMUP, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def pool_keys(name):
    """Every input key a run of the workload can draw, grouped as stored."""
    if name == "train_toy16":
        return [[(e, k) for k in range(workloads.EPISODE_STEPS)]
                for e in range(workloads.TRAIN_POOL)]
    size = {"recon_cli64": workloads.RECON_POOL, "sense_score256": workloads.SENSE_POOL}[name]
    return list(range(size))


def record(name, workdir):
    wl = WORKLOADS[name](0, workdir, None)
    wl.setup()

    def output(key):
        inp = wl.make_input(key)
        return wl.output_record(key, inp, wl.run(inp))

    ref = {WARMUP: output(WARMUP)}
    ref["pool"] = [[output(k) for k in group] if isinstance(group, list) else output(group)
                   for group in pool_keys(name)]
    if name == "train_toy16":
        ref["mask_digest"] = wl.mask.digest()
    return ref


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    workdir = HERE.parent / ".bench_out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload or sorted(WORKLOADS):
            refs[name] = record(name, workdir)
            print(f"recorded {name}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
