"""Spans around calls into the cassi_ssm layers, for the traced benchmark run.

`Tracer.install` wraps each public function in `TARGETS` and rebinds it in
every loaded `cassi_ssm` module that holds the original object.  That
includes names copied with `from ... import` (`denoiser.selective_scan`,
`unfolding.denoise`, `training.reconstruct_node`, the package re-exports),
so a span is never missed because the caller looks the function up through
another module.  Tape ops also get a span around the backward closure of
the node they return.

Spans are kept in memory as parallel lists and written out at the end of
the run.  One thread runs everything and nothing queues, so no layer has
wait time; the tracer records busy time and counts only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time

POINTWISE = ("add", "sub", "mul", "div", "exp", "softplus", "phi1", "gelu", "relu")

# (module, function, span name); several functions may share one span name
TARGETS = (
    [("autodiff", f, f"autodiff.{f}") for f in
     ("linear_scan", "conv2d", "depthwise_conv2d", "layer_norm", "gather_last",
      "repeat_expand", "backward")]
    + [("autodiff", f, "autodiff.pointwise") for f in POINTWISE]
    + [("ssm", "selective_scan", "ssm.selective_scan")]
    + [("scans", f, "scans.order") for f in
       ("global_order", "local_patch_order", "cross_cube_order")]
    + [("denoiser", f, f"denoiser.{f}") for f in
       ("denoise", "embed_with_mask", "spatial_ssm", "spectral_cube_ssm", "gated_ffn")]
    + [("unfolding", f, f"unfolding.{f}") for f in ("reconstruct_node", "data_step_node")]
    + [("cassi", f, f"cassi.{f}") for f in
       ("forward_project", "adjoint_project", "shift_back", "phi_diag", "add_shot_noise")]
    + [("training", "train_step", "training.train_step")]
    + [("metrics", f, f"metrics.{f}") for f in ("ssim", "psnr")]
    + [("fileio", f, f"fileio.{f}") for f in ("load_cube", "save_cube", "load_weights")]
    + [("cli", "parse_and_dispatch", "cli.parse_and_dispatch")]
)

# span names whose returned node gets a `<name>.bwd` span around its backward closure
TAPE_OPS = frozenset([
    "autodiff.linear_scan", "autodiff.conv2d", "autodiff.depthwise_conv2d",
    "autodiff.layer_norm", "autodiff.gather_last", "autodiff.repeat_expand",
    "autodiff.pointwise",
])

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# counters reported per item besides the span metrics: (name, unit, better)
COUNTERS = (
    ("autodiff.tape_nodes", "count", "lower"),
    ("autodiff.linear_scan.bytes", "B", "lower"),
    ("autodiff.repeat_expand.bytes", "B", "lower"),
    ("fileio.bytes_read", "B", "lower"),
    ("fileio.bytes_written", "B", "lower"),
)

SETUP = -1       # item id of spans recorded during set-up and warm-up


def metric_specs():
    """Every per-layer metric the traced run reports, as (name, unit, better)."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
        if name in TAPE_OPS:
            specs.append((f"{name}.bwd_s", "s", "lower"))
    specs += list(COUNTERS)
    specs += [
        ("scans.order.hit_ratio", "fraction", "higher"),
        ("scans.order.setup_s", "s", "lower"),
        ("autodiff.linear_scan.share", "fraction", "lower"),
        ("metrics.ssim.share", "fraction", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


def count_tape_nodes(node) -> int:
    """Nodes reachable from `node` through the tape's parent links; 0 off the tape."""
    if not node.requires_grad:
        return 0
    seen = {id(node)}
    stack = [node]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Records spans and per-item counters while `item` is not None."""

    def __init__(self):
        self.item = None
        self.names, self.starts, self.ends, self.parents, self.items = [], [], [], [], []
        self.outermost = []          # False when an open span has the same name
        self.counts = {}             # (item, counter) -> value
        self.order_seen = set()
        self._stack = []
        self._open_names = {}
        self._patched = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.outermost.append(self._open_names.get(name, 0) == 0)
        self.ends.append(0.0)
        self._open_names[name] = self._open_names.get(name, 0) + 1
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._open_names[self.names[idx]] -= 1

    def count(self, counter, value):
        key = (self.item, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    def _inside(self, prefix):
        return any(self.names[i].startswith(prefix) for i in self._stack)

    # -- wrapping ------------------------------------------------------------

    def _after(self, name, fname, args, kwargs, out):
        """Counters and backward spans attached to one finished call."""
        if name in TAPE_OPS and getattr(out, "_backward", None) is not None:
            self._wrap_backward(out, f"{name}.bwd")
        if name == "autodiff.linear_scan":
            b, length, n = args[0].shape
            self.count("autodiff.linear_scan.bytes", 8 * (4 * b * length * n + b * length))
        elif name == "autodiff.repeat_expand":
            self.count("autodiff.repeat_expand.bytes", 8 * out.value.size)
        elif name == "scans.order":
            key = (fname, args, tuple(sorted(kwargs.items())))
            self.count("scans.order.hits", int(key in self.order_seen))
            self.order_seen.add(key)
        elif name in ("fileio.load_cube", "fileio.load_weights"):
            self.count("fileio.bytes_read", os.path.getsize(args[0]))
        elif name == "fileio.save_cube":
            self.count("fileio.bytes_written", os.path.getsize(args[0]))
        elif name.startswith("unfolding.") and not self._inside("unfolding."):
            self.count("autodiff.tape_nodes", count_tape_nodes(out))

    def _wrap(self, fn, name, fname):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._after(name, fname, args, kwargs, out)
            return out

        return traced

    def _wrap_backward(self, node, name):
        inner = node._backward
        tracer = self

        def traced_backward(g):
            if tracer.item is None:
                return inner(g)
            idx = tracer._open(name)
            try:
                inner(g)
            finally:
                tracer._close(idx)

        node._backward = traced_backward

    def install(self):
        """Rebind every target in every loaded cassi_ssm module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cassi_ssm" or n.startswith("cassi_ssm."))]
        for modname, fname, name in TARGETS:
            orig = getattr(importlib.import_module(f"cassi_ssm.{modname}"), fname)
            traced = self._wrap(orig, name, fname)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, traced)
                        self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Duration minus the time covered by direct children, per span."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def per_item(self, items):
        """Per-layer metrics averaged over the given item ids (set-up excluded)."""
        items = set(items)
        n = len(items)
        out = {}
        for name in SPAN_NAMES:
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
            if name in TAPE_OPS:
                out[f"{name}.bwd_s"] = 0.0
        selfs = self.self_times()
        for i, name in enumerate(self.names):
            if self.items[i] not in items:
                continue
            dur = self.ends[i] - self.starts[i]
            if name.endswith(".bwd"):
                if self.outermost[i]:
                    out[f"{name[:-4]}.bwd_s"] += dur
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += selfs[i]
            if self.outermost[i]:
                out[f"{name}.s"] += dur
        for counter, _, _ in COUNTERS:
            out[counter] = sum(self.counts.get((i, counter), 0) for i in items)
        hits = sum(self.counts.get((i, "scans.order.hits"), 0) for i in items)
        calls = out["scans.order.calls"]
        out = {k: v / n for k, v in out.items()}
        out["scans.order.hit_ratio"] = hits / calls if calls else 0.0
        out["scans.order.setup_s"] = sum(
            (self.ends[i] - self.starts[i] for i, name in enumerate(self.names)
             if name == "scans.order" and self.items[i] == SETUP and self.outermost[i]), 0.0)
        return out

    def write(self, path):
        """Write every span as one CSV line: name,start,end,parent,item."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,item\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.items):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)
