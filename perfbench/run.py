"""Transcript quality-filter benchmark.

    python3 perfbench/run.py --workload chat-mix --seed 1 --seconds 26 --trace 0

Generates (once per seed, cached under ``perfbench/.cache``) a synthetic
corpus, the model artifact trained from it and the chosen workload's turns,
then runs the production path of ``tools/run_pipeline.py`` on them:
``CheckpointedRun(...).run()`` followed by ``finalize_ordered()``, each time
in a fresh Ray session with a pinned logical-CPU count.  The run repeats
at least ``MIN_REPS`` times, and further while one more repetition is
expected to end within ``--seconds``; every output turn of every repetition
is checked.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  The line
before it is a JSON report with the host, the model identity, the options,
the health gate and every figure measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# Two logical CPUs: the langid actor holds one, the read/quality/scrub/keep/
# write tasks share the other.  At num_cpus=1, apply_stages never finishes
# (a known defect of the program that this benchmark does not cover).
NUM_CPUS = 2
MIN_REPS = 2
WAVE_SIZE = 8
ORACLE_SAMPLE = {"chat-mix": 8, "long-answers": 2, "keep-only-filter": 8}
# The reference host speed: `host.speed_probe()` takes this long.  The
# shared host runs for tens of minutes at a time about twice as slow as at
# other times, and all work slows by a similar factor.  `turns_per_s` and
# `setup_s` are scaled to this speed, so that runs made at different times
# compare; the report keeps the wall-clock figures.
PROBE_REF_S = 0.2


def metric_units() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and of the per-layer metrics, as
    ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def pipeline_options(workload: str):
    from lingua_ray.pipelines.quality_filter import PipelineOptions

    return PipelineOptions(langid_concurrency=1, num_output_partitions=8,
                           keep_only=workload == "keep-only-filter",
                           restore_order=False)


def ray_temp_dir() -> Path:
    """Ray's session directory, removed at exit.  Inside the checkout when
    its Unix-socket paths fit the 107-byte limit (Ray appends up to 66
    bytes); otherwise a fresh directory under the system temp dir."""
    inside = BENCH / ".ray"
    if len(str(inside).encode()) <= 41:
        return inside
    return Path(tempfile.mkdtemp(prefix="pbray-"))


def stop_ray(timeout_s: float = 30.0) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    from perfbench import host

    procs = host.descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while (alive := host.alive(procs)) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while host.alive(procs):
        time.sleep(0.05)


def start_ray(ray_tmp: Path, env: dict) -> None:
    import ray

    ray.init(num_cpus=NUM_CPUS, include_dashboard=False,
             _temp_dir=str(ray_tmp), object_store_memory=256 * 2**20,
             runtime_env={"worker_process_setup_hook": "perfbench.hook.setup",
                          "env_vars": dict(env)},
             log_to_driver=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    # Set-up ends when the session's worker processes are up and have run
    # the set-up hook, so the timed run does not start them on the same core.
    from perfbench.hook import worker_pid
    ready = ray.remote(num_cpus=1)(worker_pid)
    ray.get([ready.remote() for _ in range(NUM_CPUS)])


def _median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def _div(a, b, scale=1.0):
    return None if a is None or not b else a / b * scale


def layer_metrics(spans: dict, oracle: dict, cheap_pass: int,
                  n_turns: int) -> dict:
    """Per-layer figures of one traced repetition (``spans``) and of the
    driver's in-process pass (``oracle``, for the probe counts).  Per-turn and
    per-KiB costs use the spans' CPU time, phase durations their wall time.
    ``cheap_pass`` is the number of input turns that pass every
    language-independent check.  A figure whose span recorded no call is
    None."""

    def tot(src, name, field="self_cpu_s", root=None):
        hits = [a.get(field, 0) for k, a in src.items()
                if k.split("<")[0] == name
                and (root is None or k.split("<")[1] == root)]
        return sum(hits) if hits else None

    turns = tot(spans, "langid", "rows", "langid")
    m = {f"{n}.us_per_turn": _div(tot(spans, n, "cpu_s", "langid"), turns, 1e6)
         for n in ("kernel.clean", "kernel.rules", "kernel.score",
                   "kernel.ppl", "langid")}
    o_turns = tot(oracle, "langid", "rows", "langid")
    probes = tot(oracle, "models.lookup", "probes", "langid")
    m["models.probe_keys_per_turn"] = _div(probes, o_turns)
    m["models.probe_hit_rate"] = _div(
        tot(oracle, "models.lookup", "hits", "langid"), probes)
    m["kernel.scored_turn_frac"] = _div(
        tot(oracle, "kernel.score", "rows", "langid"), o_turns)
    m["langid.wasted_turn_frac"] = (
        None if turns is None else max(turns - cheap_pass, 0) / n_turns)
    for n in ("quality", "scrub"):
        m[f"{n}.us_per_kb"] = _div(tot(spans, n, "cpu_s"),
                                   _div(tot(spans, n, "bytes"), 1024), 1e6)
    for n in ("keep", "exchange.part_id"):
        m[f"{n}.us_per_turn"] = _div(tot(spans, n, "cpu_s"),
                                     tot(spans, n, "rows"), 1e6)
    m["exchange.write_s"] = tot(spans, "exchange.write", "s")
    m["exchange.finalize_s"] = tot(spans, "exchange.finalize_partition", "s")
    m["checkpoint.run_s"] = tot(spans, "checkpoint.run", "s")
    m["checkpoint.commit_s"] = tot(spans, "checkpoint.commit", "s")
    m["checkpoint.finalize_ordered_s"] = tot(
        spans, "checkpoint.finalize_ordered", "s")
    return m


# Driver spans that hand work to Ray and wait for it; their self time is
# Ray's driver-side work, not a layer's.
_WAITING = ("checkpoint.wave", "exchange.write", "exchange.write_ordered")
# The span each per-layer metric is read from (for `missing` reports).
_METRIC_SPAN = {
    "kernel.clean.us_per_turn": "kernel.clean",
    "kernel.rules.us_per_turn": "kernel.rules",
    "kernel.score.us_per_turn": "kernel.score",
    "kernel.ppl.us_per_turn": "kernel.ppl", "langid.us_per_turn": "langid",
    "models.probe_keys_per_turn": "models.lookup",
    "models.probe_hit_rate": "models.lookup",
    "kernel.scored_turn_frac": "kernel.score",
    "langid.wasted_turn_frac": "langid", "quality.us_per_kb": "quality",
    "scrub.us_per_kb": "scrub", "keep.us_per_turn": "keep",
    "exchange.part_id.us_per_turn": "exchange.part_id",
    "exchange.write_s": "exchange.write_ordered",
    "exchange.finalize_s": "exchange.finalize_partition",
    "checkpoint.run_s": "checkpoint.run",
    "checkpoint.commit_s": "checkpoint.commit",
    "checkpoint.finalize_ordered_s": "checkpoint.finalize_ordered",
}


def main(argv=None) -> int:
    os.chdir(ROOT)                      # Ray workers import from the cwd
    # On SIGTERM, unwind through the `finally` that stops Ray's processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(ROOT))
    from perfbench import gen

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import lingua_ray.models as M       # fails when the program is absent
    import numpy as np

    from perfbench import check, hook, host

    phases = {}
    t_phase = time.perf_counter()

    def phase(name):
        nonlocal t_phase
        now = time.perf_counter()
        phases[name] = round(now - t_phase, 3)
        t_phase = now

    inputs = gen.ensure_inputs(BENCH / ".cache", args.seed, args.workload)
    phase("inputs")
    meta = json.loads((inputs / "meta.json").read_text())
    model_dir = inputs / "model"
    input_dir = inputs / args.workload
    work = BENCH / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    mark_dir, trace_dir = work / "marks", work / "trace"
    mark_dir.mkdir(parents=True)
    trace_dir.mkdir()
    ray_tmp = ray_temp_dir()
    default_model_existed = M.DEFAULT_MODEL_DIR.exists()
    # The set-up hook runs before a worker applies the driver's sys.path.
    env = {hook.MODEL_ENV: str(model_dir), hook.MARK_ENV: str(mark_dir),
           "PYTHONPATH": os.pathsep.join(
               [str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}

    opts = pipeline_options(args.workload)
    models = hook.inject(model_dir)
    missing = {}
    if args.trace:
        from perfbench import trace
        missing = trace.install(trace_dir)
        (trace_dir / "ACTIVE").write_text("oracle")
    shards = check.read_shards(input_dir)
    n_turns = sum(s.num_rows for s in shards)
    in_bytes = sum(p.stat().st_size for p in input_dir.glob("*.parquet"))
    expected = check.expected_outputs(shards, opts)
    cheap_pass = int(np.count_nonzero(
        (expected.column("quality_flags").to_numpy() == 0)
        & (expected.column("tox_count").to_numpy() == 0)))
    (trace_dir / "ACTIVE").unlink(missing_ok=True)
    phase("expected")
    n_oracle, oracle_bad = check.oracle_mismatches(
        expected, models, ORACLE_SAMPLE[args.workload], args.seed)
    phase("oracle")

    # Every repetition is a whole job: a fresh Ray session (its set-up is
    # one setup_s sample), one checkpointed run with the ordered finalize,
    # and the shutdown.  Past the minimum count, a repetition is started only
    # while it is expected (from the median cost of the earlier ones) to end
    # within --seconds.  With tracing, odd repetitions are traced, so the
    # untraced ones lead and close.  The host's speed is probed before each
    # repetition and after the last, outside the timed spans.
    reps, setup_s, rep_cost, speeds = [], [], [], []
    cpu0 = host.cpu_times()
    t_start = time.perf_counter()
    min_reps = MIN_REPS + 1 if args.trace else MIN_REPS
    try:
        while len(reps) < min_reps or (time.perf_counter() - t_start
                                       + statistics.median(rep_cost)
                                       <= args.seconds):
            i = len(reps)
            traced = bool(args.trace) and i % 2 == 1
            speeds.append(host.speed_probe())
            t_rep = t0 = time.perf_counter()
            start_ray(ray_tmp, {**env, hook.TRACE_ENV: str(trace_dir)}
                      if traced else env)
            from lingua_ray.state.checkpoint import CheckpointedRun
            hook.inject(model_dir)
            setup_s.append(time.perf_counter() - t0)
            out = work / f"rep{i}"
            if traced:
                (trace_dir / "ACTIVE").write_text(f"rep{i}")
            procs0 = set(host.descendants(os.getpid()))
            with host.PeakRss() as rss:
                t0 = time.perf_counter()
                run = CheckpointedRun(input_dir, out, opts)
                run.run(wave_size=WAVE_SIZE)
                run.finalize_ordered()
                elapsed = time.perf_counter() - t0
            (trace_dir / "ACTIVE").unlink(missing_ok=True)
            stop_ray()
            failed, causes = check.failed_turns(
                out / "ordered", expected, opts.keep_only, oracle_bad)
            rep = {"traced": traced, "s": elapsed, "peak_rss_mb": rss.peak_mb,
                   "procs_started": len(rss.seen - procs0),
                   "failed": failed, "failure_causes": causes}
            if traced:
                import pyarrow.parquet as pq
                rows = [pq.ParquetFile(f).metadata.num_rows
                        for f in (out / "ordered").glob("part-*.parquet")]
                rep["partition_skew"] = max(rows) / (
                    sum(rows) / opts.num_output_partitions)
                rep["ckpt_bytes"] = host.dir_bytes(out / "data")
                rep["ordered_bytes"] = host.dir_bytes(out / "ordered")
            reps.append(rep)
            shutil.rmtree(out)
            rep_cost.append(time.perf_counter() - t_rep)
        speeds.append(host.speed_probe())
    finally:
        stop_ray()
        shutil.rmtree(ray_tmp, ignore_errors=True)
    steal = host.steal_share(cpu0, host.cpu_times())
    phase("reps")
    causes = check.health_causes(
        args.workload, meta["model"], expected, mark_dir, model_dir,
        M.DEFAULT_MODEL_DIR.exists() and not default_model_existed)

    if causes:
        print(f"INVALID RUN: {'; '.join(causes)}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 3

    e2e_units, layer_units = metric_units()
    plain = [r for r in reps if not r["traced"]]
    wall = {"turns_per_s": _median([n_turns / r["s"] for r in plain]),
            "setup_s": _median([s for s, r in zip(setup_s, reps)
                                if not r["traced"]])}
    # Above 1 when the host ran slower than the reference speed.
    slowdown = statistics.median(speeds) / PROBE_REF_S
    e2e = {"turns_per_s": wall["turns_per_s"] * slowdown,
           "setup_s": wall["setup_s"] / slowdown,
           "peak_rss_mb": max(r["peak_rss_mb"] for r in plain)}
    if set(e2e) != set(e2e_units):
        raise RuntimeError("BENCHMARK.json lists other end-to-end metrics")
    attempted = n_turns * len(reps)
    failed = sum(r["failed"] for r in reps)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "model": {"source": f"synthetic, seed {args.seed}",
                  "sha256": meta["model"]["sha256"],
                  "total_keys": meta["model"]["total_keys"]},
        "host": {**host.describe(NUM_CPUS), "cpu_steal_share": steal},
        "options": {**{k: v for k, v in vars(opts).items()
                       if k != "extra_stages"}, "wave_size": WAVE_SIZE},
        "input_turns": n_turns, "input_bytes": in_bytes,
        "oracle_sample": n_oracle, "health": "ok",
        "failed_turn_frac": failed / attempted,
        "setup_s_samples": setup_s, "reps": reps, "phases_s": phases,
        "speed_probe_s": speeds, "host_slowdown": slowdown,
        "wall_clock": wall,
        "end_to_end": e2e,
    }

    if args.trace:
        spans_by_rep = trace.collect(trace_dir)
        per_rep = []
        for i, r in enumerate(reps):
            if not r["traced"]:
                continue
            spans = spans_by_rep.get(f"rep{i}", {})
            m = layer_metrics(spans, spans_by_rep.get("oracle", {}),
                              cheap_pass, n_turns)
            m["exchange.partition_skew"] = r["partition_skew"]
            write_bytes = sum(a.get("bytes", 0) for k, a in spans.items()
                              if k.startswith("exchange.write<"))
            m["exchange.bytes_per_input_byte"] = (
                r["ckpt_bytes"] + write_bytes + r["ordered_bytes"]) / in_bytes
            busy = sum(a["self_cpu_s"] for k, a in spans.items()
                       if k.split("<")[0] not in _WAITING)
            m["trace.ray_overhead_s"] = r["s"] - busy
            m["spans"] = {k: {f: a[f] for f in ("calls", "self_cpu_s",
                                                 "self_s")}
                          for k, a in sorted(spans.items())}
            per_rep.append(m)
        per_layer = {k: _median([m.get(k) for m in per_rep])
                     for k in layer_units}
        per_layer["trace.overhead_us_per_turn"] = (
            _median([r["s"] for r in reps if r["traced"]])
            - _median([r["s"] for r in plain])) / n_turns * 1e6
        report["self_time_by_span"] = per_rep[len(per_rep) // 2]["spans"]
        report["missing_spans"] = missing
        metrics = {}
        for k, unit in layer_units.items():
            metrics[k] = {"value": per_layer[k], "unit": unit}
            if per_layer[k] is None:
                metrics[k]["missing"] = missing.get(
                    _METRIC_SPAN.get(k), "the span recorded no call")
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in e2e_units.items()}

    shutil.rmtree(work, ignore_errors=True)
    for k, m in metrics.items():
        raw = (f"  (wall clock {report['wall_clock'][k]:.6g})"
               if k in report["wall_clock"] else "")
        print(f"{k:34s} {m['value']!s:>22} {m['unit']}{raw}")
    print(f"{'failed_turn_frac':34s} {failed / attempted:>22} ratio")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
