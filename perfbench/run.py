"""Benchmark of the cassi_ssm toolkit: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  Workloads are defined in `workloads.py`, and `BENCHMARK.json` lists
the metrics.  Every workload is a closed loop with one client: one process
runs one item at a time and starts the next when the previous has finished.

With `--trace 0` the run starts three fresh processes one after another.
Two only set up (package import, model, operator and files, and one
warm-up item) and report their set-up time and peak RSS; the third sets up
the same way and then runs timed items for S seconds.  `setup_s` is the
median of the three set-up times and `peak_mem_mb` the median peak RSS of
the two set-up processes.  With `--trace 1` one process sets up with each
layer's public functions wrapped (see `spans.py`), then alternates traced
and untraced items for S seconds, and reports the per-layer metrics and
the tracing overhead.  Spans are written to
`.bench_out/` at the end of the run.

Every item's output is checked.  The last line printed is the result; the
line before it holds the run's metadata.  The exit code is 0 when a result
was printed, even if checks failed (`correct` is then false), and non-zero
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_ONLY_PROCESSES = 2
TIME_LIMIT_S = 170.0         # the whole run, all processes included
MIN_ITEMS = 3                # timed items per run, even past --seconds
MIN_TRACED_ITEMS = 2         # and as many untraced, in a traced run


# ---------------------------------------------------------------------------
# the child process: set up, then run items

def _environment():
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Items:
    """Generates, runs and checks items, keeping their times and failures."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.keys = iter(wl.keys)
        self.gen_s = 0.0         # input generation, excluded from every time
        self.attempted = 0
        self.failures = []
        self.run_end = None      # when the last item's run returned

    def one(self, key, trace_id=None, live=False):
        """Run and check one item; returns the wall time of its run."""
        gen_start = time.monotonic()
        inp = self.wl.make_input(key)
        self.gen_s += time.monotonic() - gen_start
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.item = trace_id
        start = time.monotonic()
        try:
            out = self.wl.run(inp)
        except Exception:  # an item that raises counts as failed; the run goes on
            traceback.print_exc()
            self.failures.append(f"item {key!r} raised")
            return time.monotonic() - start
        finally:
            self.run_end = time.monotonic()
            if self.tracer is not None:
                self.tracer.item = None
        problem = self.wl.check(key, inp, out) or (live and self.wl.live_check(key, inp, out))
        if problem:
            self.failures.append(f"item {key!r}: {problem}")
        return self.run_end - start

    def timed(self, seconds, min_items):
        """Items until `seconds` of item time and `min_items` items; their times."""
        times = []
        for key in self.keys:
            times.append(self.one(key))
            if sum(times) >= seconds and len(times) >= min_items:
                break
        return times


def child(args) -> int:
    import shutil

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import spans
        import workloads

        import cassi_ssm

        if not Path(cassi_ssm.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"cassi_ssm imported from {cassi_ssm.__file__}, not {ROOT / 'src'}")
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, reference)
        tracer = None
        if args.child == "trace":
            tracer = spans.Tracer()
            tracer.install()
            tracer.item = spans.SETUP
        items = _Items(wl, tracer)
        wl.setup()
        if tracer is not None:
            tracer.item = None
        items.one(workloads.WARMUP, spans.SETUP, live=args.child != "setup")
        setup_s = items.run_end - args.launched - items.gen_s

        result = {"setup_s": setup_s, "input_gen_s": items.gen_s, "voxels": wl.voxels,
                  "env": _environment()}
        if args.child == "setup":
            result["peak_rss_mb"] = _peak_rss_mb()
        elif args.child == "time":
            result["item_s"] = items.timed(args.seconds, MIN_ITEMS)
        else:
            # traced and untraced items alternate, so drift of the machine's
            # speed during the run cancels out of the overhead; zipping one
            # iterator with itself pairs consecutive keys
            tracer.uninstall()
            traced, untraced = [], []
            for traced_key, untraced_key in zip(items.keys, items.keys):
                tracer.install()
                traced.append(items.one(traced_key, len(traced)))
                tracer.uninstall()
                untraced.append(items.one(untraced_key))
                if (sum(traced) + sum(untraced) >= args.seconds
                        and len(traced) >= MIN_TRACED_ITEMS):
                    break
            layers = tracer.per_item(range(len(traced)))
            mean_traced = sum(traced) / len(traced)
            layers["autodiff.linear_scan.share"] = layers["autodiff.linear_scan.s"] / mean_traced
            layers["metrics.ssim.share"] = layers["metrics.ssim.s"] / mean_traced
            layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans_path)
            result.update(layers=layers, traced_item_s=traced, untraced_item_s=untraced,
                          spans_file=str(spans_path.relative_to(ROOT)),
                          spans=len(tracer.names))
        result.update(attempted=items.attempted, failures=items.failures)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the parent process: start the children and report

def _git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (no .git in the checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _tail(times):
    """The 90th percentile and how many samples lie beyond it.

    With about 100 items (train_toy16) the 90th is the highest percentile
    with ten samples beyond it.  The slower workloads time too few items for
    any percentile above the median to have ten beyond it; their 90th rests
    on fewer, and the count is reported beside it.
    """
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return p90, sum(t > p90 for t in times)


def _run_child(mode, args, deadline) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.setdefault(var, nproc)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--launched", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    results = [line[7:] for line in proc.stdout.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        raise RuntimeError(f"{mode} process exited with {proc.returncode} and no result")
    return json.loads(results[-1])


def parent(args) -> int:
    import spans

    if not (ROOT / "src" / "cassi_ssm" / "__init__.py").is_file():
        print(f"error: no cassi_ssm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            runs = [_run_child("trace", args, deadline)]
        else:
            runs = [_run_child("setup", args, deadline) for _ in range(SETUP_ONLY_PROCESSES)]
            runs.append(_run_child("time", args, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    last = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "git_rev": _git_rev(), **last["env"],
        "load": "closed loop, 1 client, 1 process, items run one after another",
        "queue_wait": "none: one thread and no queue, so no layer waits",
        "failed_ratio": {"value": len(failures) / attempted, "unit": "fraction"},
        "setup_samples_s": [r["setup_s"] for r in runs],
        "input_gen_s": [r["input_gen_s"] for r in runs],
    }
    if args.trace:
        metrics = {name: {"value": last["layers"][name], "unit": unit}
                   for name, unit, _ in spans.metric_specs()}
        meta.update(traced_item_s=last["traced_item_s"], untraced_item_s=last["untraced_item_s"],
                    spans_file=last["spans_file"], spans=last["spans"])
    else:
        times = last["item_s"]
        tail, beyond = _tail(times)
        voxels = last["voxels"]
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in runs), "unit": "s"},
            "item_p50_s": {"value": statistics.median(times), "unit": "s"},
            "item_tail_s": {"value": tail, "unit": "s"},
            "mvox_per_s": {"value": voxels * len(times) / sum(times) / 1e6, "unit": "Mvoxel/s"},
            "peak_mem_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs[:-1]),
                            "unit": "MB"},
        }
        meta.update(items=len(times), item_tail_percentile=90,
                    item_tail_samples_beyond=beyond, voxels_per_item=voxels)
    print(json.dumps(meta))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "time", "trace"), help=argparse.SUPPRESS)
    p.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
