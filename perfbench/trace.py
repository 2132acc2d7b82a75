"""Spans around calls into the program's layers, recorded from outside.

:func:`install` replaces entry points of ``lingua_ray`` modules (and Ray
Data's ``Dataset.write_parquet``) with timing wrappers; no file of the
program changes.  The driver installs them in-process and the worker set-up
hook installs them in every Ray worker, so spans cover actors and tasks too.

A span is timed only while the flag file ``<trace_dir>/ACTIVE`` exists; its
content names the repetition the span belongs to.  Each process aggregates
its spans by ``name<root`` (``root`` is the outermost span on the stack) and
rewrites ``<trace_dir>/<pid>.json`` whenever an outermost span closes, so a
worker that is killed after its last call has already reported.

A span records wall time (``s``, ``self_s``) and the calling thread's CPU
time (``cpu_s``, ``self_cpu_s``).  On a host where the Ray processes share
one core, a span's wall time also counts the time its process waited while
another one ran; its CPU time does not.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

from perfbench.host import dir_bytes

# (span name, module, attribute path).  A target that no longer exists is
# reported as missing, never as zero.
TARGETS = (
    ("langid", "lingua_ray.stages.langid", "LangIdScorer.__call__"),
    ("langid.init", "lingua_ray.stages.langid", "LangIdScorer.__init__"),
    ("kernel.clean", "lingua_ray.textprep", "clean_batch"),
    ("kernel.rules", "lingua_ray.kernel", "Detector._rule_stage"),
    ("kernel.score", "lingua_ray.kernel", "Detector._score_group"),
    ("kernel.ppl", "lingua_ray.kernel", "Detector._perplexity_from_cleaned"),
    ("models.lookup", "lingua_ray.models", "NgramModels.lookup_hashes"),
    ("quality", "lingua_ray.stages.quality", "quality_batch"),
    ("scrub", "lingua_ray.stages.scrub", "scrub_batch"),
    ("keep", "lingua_ray.stages.keep", "keep_batch"),
    ("exchange.part_id", "lingua_ray.pipelines.quality_filter",
     "conv_partition_ids"),
    ("exchange.finalize_partition", "lingua_ray.pipelines.quality_filter",
     "_finalize_partition"),
    ("exchange.write_ordered", "lingua_ray.pipelines.quality_filter",
     "write_ordered"),
    ("checkpoint.run", "lingua_ray.state.checkpoint", "CheckpointedRun.run"),
    ("checkpoint.commit", "lingua_ray.state.checkpoint",
     "CheckpointedRun._commit_shard"),
    ("checkpoint.finalize_ordered", "lingua_ray.state.checkpoint",
     "CheckpointedRun.finalize_ordered"),
    ("write_parquet", "ray.data", "Dataset.write_parquet"),
)


def _text_bytes(batch, col: str = "text") -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.binary_length(batch.column(col))).as_py() or 0)


def _measure(name: str, args: tuple, out) -> dict:
    """Work counts a span reports next to its time."""
    if name == "langid":
        return {"rows": args[1].num_rows}
    if name in ("quality", "scrub"):
        return {"rows": args[0].num_rows, "bytes": _text_bytes(args[0])}
    if name == "keep":
        return {"rows": args[0].num_rows}
    if name in ("kernel.clean", "exchange.part_id"):
        return {"rows": len(args[0])}
    if name == "kernel.rules":
        return {"rows": len(args[1])}
    if name in ("kernel.score", "kernel.ppl"):
        return {"rows": len(args[2])}
    if name == "models.lookup":
        import numpy as np
        return {"probes": len(args[3]), "hits": int(np.count_nonzero(out))}
    if name == "exchange.finalize_partition":
        return {"rows": int(out)}
    if name == "write_parquet":
        return {"bytes": dir_bytes(args[1])}
    return {}


class Tracer:
    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.flag = self.trace_dir / "ACTIVE"
        self.out = self.trace_dir / f"{os.getpid()}.json"
        self.reps: dict[str, dict[str, dict]] = {}
        # [name, t0, child_s, rep, root, cpu0, child_cpu_s]
        self.stack: list[list] = []

    def _rep(self) -> str | None:
        try:
            return self.flag.read_text()
        except FileNotFoundError:
            return None

    def call(self, target: str, fn, args: tuple, kwargs: dict):
        rep = self.stack[-1][3] if self.stack else self._rep()
        if rep is None:
            return fn(*args, **kwargs)
        name = target
        if target == "write_parquet":
            parent = self.stack[-1][0] if self.stack else ""
            name = ("exchange.write" if parent == "exchange.write_ordered"
                    else "checkpoint.wave")
        root = self.stack[0][4] if self.stack else name
        frame = [name, time.perf_counter(), 0.0, rep, root,
                 time.thread_time(), 0.0]
        self.stack.append(frame)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            dur = time.perf_counter() - frame[1]
            cpu = time.thread_time() - frame[5]
            if self.stack:
                self.stack[-1][2] += dur
                self.stack[-1][6] += cpu
        agg = self.reps.setdefault(rep, {}).setdefault(
            f"{name}<{root}", {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "cpu_s": 0.0, "self_cpu_s": 0.0})
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - frame[2]
        agg["cpu_s"] += cpu
        agg["self_cpu_s"] += cpu - frame[6]
        try:
            counts = _measure(target, args, out)
        except (IndexError, AttributeError, TypeError):
            counts = {}         # the call's signature changed: time only
        for k, v in counts.items():
            agg[k] = agg.get(k, 0) + v
        if not self.stack:
            tmp = self.out.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.reps))
            os.replace(tmp, self.out)
        return out


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(trace_dir: Path) -> dict[str, str]:
    """Wrap every target in this process; returns {span: reason} for the
    targets that could not be found."""
    tracer = Tracer(trace_dir)
    missing = {}
    for name, module, path in TARGETS:
        try:
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError) as e:
            missing[name] = f"{module}.{path} not found ({e})"
            continue
        if getattr(fn, "_perfbench", False):
            continue

        def wrapper(*args, _n=name, _f=fn, **kwargs):
            return tracer.call(_n, _f, args, kwargs)

        functools.update_wrapper(wrapper, fn)
        wrapper._perfbench = True
        setattr(owner, attr, wrapper)
        # Modules that imported a wrapped function by name hold the original:
        # point them at the wrapper too, so that a function the driver
        # pickles by reference resolves to the worker's wrapper.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("lingua_ray.") and \
                    getattr(mod, attr, None) is fn:
                setattr(mod, attr, wrapper)
    return missing


def collect(trace_dir: Path) -> dict[str, dict[str, dict]]:
    """Merge every process's aggregates: {rep: {name<root: totals}}."""
    merged: dict[str, dict[str, dict]] = {}
    for p in Path(trace_dir).glob("*.json"):
        for rep, spans in json.loads(p.read_text()).items():
            dst = merged.setdefault(rep, {})
            for key, agg in spans.items():
                d = dst.setdefault(key, {})
                for k, v in agg.items():
                    d[k] = d.get(k, 0) + v
    return merged
