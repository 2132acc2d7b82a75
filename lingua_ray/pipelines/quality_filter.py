"""The flagship transcript quality-filter pipeline, Ray-Data-first.

    read_parquet(turns)
      → map_batches(score_langid)                 # lang, lang_confidence, ppl
      → map_batches(quality_batch)                # heuristic quality flags
      → map_batches(scrub_batch)                  # PII scrub + tox count
      → map_batches(keep_batch)                   # keep/drop decision
      → map_batches(extra_stages...)              # user plug-ins
      → write_ordered                             # stable (conv_id, turn_idx)

With ``keep_only`` the language-independent checks run first, so langid
scores only turns that can still be kept::

    read_parquet(turns)
      → map_batches(reserve_langid_columns)       # null lang/… slots
      → map_batches(quality_batch)
      → map_batches(scrub_batch)
      → map_batches(drop_language_independent_failures)
      → map_batches(score_langid)                 # fills the reserved slots
      → map_batches(keep_batch)
      → map_batches(extra_stages...)              # see only surviving turns
      → map_batches(drop_unkept)

Every turn the early filter drops has ``quality_flags != 0`` or
``tox_count > 0`` and so ``keep = False``: the written rows, values and
column order are those of the default order.  The default mode keeps langid
first because it writes every turn: with quality and scrub first, their
columns would ride through the langid stage for nothing (measured slower,
with a higher peak RSS, on long answers).

Scale notes (designed for 10^12 turns on a multi-node cluster, tested on one
node):

* Detection is embarrassingly row-parallel — no shuffle before the final
  order-restoring partition step.
* The only shuffle is the hash(conv_id) → partition exchange in
  :func:`write_ordered`.  Partition count is explicit; a mega-conversation
  lands wholly in one partition (required for per-conversation ordering) but
  is only *sorted* there — all scoring happened shuffle-free upstream, so
  skew costs O(n log n) sort time, not compute time (the salting scheme from
  SURVEY.md §4).
* Langid runs as stateless tasks (``concurrency`` caps how many batches score
  at once) on the session's long-lived workers.  Each worker process that
  runs one holds its own scorer and merged n-gram index, built on its first
  langid batch and kept across batches, stages and waves; the artifact
  itself is mmap'd, so its pages are shared per node.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

import ray.data

from ..stages.keep import (DEFAULT_PPL_THRESHOLD,
                           drop_language_independent_failures, drop_unkept,
                           keep_batch)
from ..stages.langid import map_langid, reserve_langid_columns
from ..stages.quality import quality_batch
from ..stages.scrub import scrub_batch


@dataclass
class PipelineOptions:
    text_col: str = "text"
    languages: list[str] | None = None
    low_accuracy: bool = False
    ppl_threshold: float = DEFAULT_PPL_THRESHOLD
    batch_size: int = 2048
    # How many langid batches score at once (one CPU each).
    langid_concurrency: int = 4
    # None (default) derives the hash-partition count from the checkpointed
    # row count (see CheckpointedRun.finalize_ordered); set to pin it.  Not
    # part of the checkpoint fingerprint: finalize rewrites every partition.
    num_output_partitions: int | None = None
    # Ignored: ordering is always write_ordered.  Kept only because
    # perfbench/run.py still passes it; deleted with the next benchmark change.
    restore_order: bool = True
    # Write only kept turns.  Also runs quality and scrub before langid and
    # drops their failures there (see apply_stages).
    keep_only: bool = False
    # Column pruning at the read: when set, only these columns leave
    # storage (pass to read_parquet(columns=...)).  None = all columns
    # pass through.  Part of the checkpoint options fingerprint — changing
    # it changes the output schema.
    input_columns: list[str] | None = None
    # User stage plug-ins (SURVEY.md §2.9): callables Table -> Table appended
    # after the built-in stages, each run as a stateless map_batches.  With
    # keep_only they see only turns that pass the language-independent
    # checks (passes_language_independent_checks).
    extra_stages: list = field(default_factory=list)


# Sized so a partition's finalize sort stays comfortably in one task's
# memory (4× under FINALIZE_INMEM_ROWS) while partitions stay big enough
# that per-partition overhead (file open, task dispatch) is noise.
TARGET_PARTITION_ROWS = 2_000_000


def derive_num_partitions(n_rows: int | None, cpus: int,
                          target_rows: int = TARGET_PARTITION_ROWS) -> int:
    """Output-partition count from input size: ceil(rows / target), but at
    least the cluster's CPUs (so finalize parallelizes) and never so many
    that a partition holds < ~1k rows (tiny inputs).  Unknown row count →
    max(16, cpus), the round-2 constant made CPU-aware.  At 10^12 rows
    this derives ~500k partitions of ~2M rows — each an independently
    finalizable, resumable unit — where the old constant 16 would have
    meant 6×10^10-row partitions."""
    if n_rows is None:
        return max(16, cpus)
    by_size = -(-n_rows // target_rows)
    floor_rows = max(1, n_rows // 1_000)
    return int(max(1, min(max(by_size, cpus), floor_rows)))


def conv_partition_ids(conv_ids: list[str], num_partitions: int) -> np.ndarray:
    """Deterministic hash(conv_id) % P — the pipeline's single shuffle key."""
    return np.fromiter(
        (zlib.crc32(c.encode("utf-8")) % num_partitions for c in conv_ids),
        dtype=np.int32, count=len(conv_ids))


def apply_stages(ds: "ray.data.Dataset", opts: PipelineOptions | None = None
                 ) -> "ray.data.Dataset":
    """Attach the scoring stages (no shuffle) to a turns Dataset.

    ``opts.keep_only`` selects the stage order (see the module docstring):
    with it, langid and the extra stages see only the turns that pass the
    language-independent checks."""
    opts = opts or PipelineOptions()
    if opts.keep_only:
        ds = ds.map_batches(reserve_langid_columns, batch_format="pyarrow")
        ds = _language_independent_stages(ds, opts)
        ds = ds.map_batches(drop_language_independent_failures,
                            batch_format="pyarrow")
        ds = _langid_stage(ds, opts)
    else:
        ds = _langid_stage(ds, opts)
        ds = _language_independent_stages(ds, opts)
    ds = ds.map_batches(keep_batch, batch_format="pyarrow",
                        fn_kwargs={"ppl_threshold": opts.ppl_threshold})
    for stage in opts.extra_stages:
        ds = ds.map_batches(stage, batch_format="pyarrow")
    if opts.keep_only:
        ds = ds.map_batches(drop_unkept, batch_format="pyarrow")
    return ds


def _langid_stage(ds: "ray.data.Dataset", opts: PipelineOptions
                  ) -> "ray.data.Dataset":
    return map_langid(ds, opts.langid_concurrency, opts.batch_size,
                      text_col=opts.text_col, languages=opts.languages,
                      low_accuracy=opts.low_accuracy)


def _language_independent_stages(ds: "ray.data.Dataset",
                                 opts: PipelineOptions) -> "ray.data.Dataset":
    ds = ds.map_batches(quality_batch, batch_format="pyarrow",
                        fn_kwargs={"text_col": opts.text_col})
    return ds.map_batches(scrub_batch, batch_format="pyarrow",
                          fn_kwargs={"text_col": opts.text_col})


def _add_part_id(batch: pa.Table, num_partitions: int) -> pa.Table:
    pids = conv_partition_ids(batch.column("conv_id").to_pylist(),
                              num_partitions)
    return batch.append_column("part_id", pa.array(pids, type=pa.int32()))


def conversation_rollup(ds: "ray.data.Dataset",
                        keep_threshold: float = 0.5) -> "ray.data.Dataset":
    """Conversation-level verdict from per-turn scores: dominant language
    (the language of the most turns; ties → lexicographically smallest),
    kept-turn fraction, and a conversation keep decision
    (``keep_frac >= keep_threshold``).

    Input: the scored turns Dataset from :func:`apply_stages` (needs
    ``conv_id``, ``lang``, ``keep``).

    Scale shape: each block collapses to ≤ one row per (conv_id, lang)
    BEFORE the exchange, so the shuffle carries per-language partial
    counts, never turns, and the per-conversation finalize group holds at
    most one row per language — the mega-conversation finalizes over
    ≤ #languages rows, not its turns.
    """
    import pyarrow.compute as pc

    def part(batch: pa.Table) -> pa.Table:
        keep = pc.cast(pc.fill_null(batch.column("keep"), False), pa.int64())
        t = pa.table({"conv_id": batch.column("conv_id"),
                      "lang": pc.cast(pc.fill_null(batch.column("lang"),
                                                   "un"), pa.string()),
                      "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                      "n_keep": keep})
        return t.group_by(["conv_id", "lang"]).aggregate(
            [("n", "sum"), ("n_keep", "sum")])

    def finalize(group: pa.Table) -> pa.Table:
        n = group.column("sum(n_sum)").to_numpy()
        kept_per_lang = group.column("sum(n_keep_sum)").to_numpy()
        langs = group.column("lang").to_numpy(zero_copy_only=False)
        total = int(n.sum())
        kept = int(kept_per_lang.sum())
        # dominant language; ties broken toward the smallest language
        # code (ties only span ≤ #languages rows, so the Python min is
        # O(#ties), never O(turns))
        cand = np.flatnonzero(n == n.max())
        best = min(cand, key=lambda i: langs[i])
        frac = kept / total if total else 0.0
        return pa.table({
            "conv_id": group.column("conv_id").slice(0, 1),
            "lang": pa.array([langs[best]], pa.string()),
            "n_turns": pa.array([total], pa.int64()),
            "n_keep": pa.array([kept], pa.int64()),
            "keep_frac": pa.array([frac], pa.float64()),
            "conv_keep": pa.array([frac >= keep_threshold])})

    partials = ds.map_batches(part, batch_format="pyarrow")
    agg = partials.groupby(["conv_id", "lang"]).sum(["n_sum", "n_keep_sum"])
    return agg.groupby("conv_id").map_groups(finalize, batch_format="pyarrow")


_SORT_KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]
# Above this row count a partition is not loaded whole; it is finalized by
# external merge: per-fragment sorted runs + streaming k-way batch merge.
FINALIZE_INMEM_ROWS = 8_000_000


def _prefix_le(tbl: pa.Table, key: tuple) -> int:
    """Rows with (conv_id, turn_idx) <= key form a PREFIX of a sorted
    table; return its length (vectorized compare, no per-row Python)."""
    cid, tix = key
    cids = tbl.column("conv_id").to_numpy(zero_copy_only=False)
    tixs = tbl.column("turn_idx").to_numpy(zero_copy_only=False)
    mask = (cids < cid) | ((cids == cid) & (tixs <= tix))
    return int(mask.sum())


def _merge_sorted_runs(run_paths: list, out_file: str,
                       batch_rows: int = 65536) -> int:
    """Streaming k-way merge of sorted parquet runs into one sorted file.

    Per iteration: M = min over runs of the last key in the run's head
    batch; every head's prefix ≤ M merges now (prefix property of sorted
    runs), so each step is a bounded concat+sort of ~k head batches —
    memory is O(k · batch_rows), never the partition size.
    """
    import pyarrow.parquet as pq

    readers = [pq.ParquetFile(p) for p in run_paths]
    iters = [r.iter_batches(batch_size=batch_rows) for r in readers]
    heads: list[pa.Table | None] = [None] * len(iters)
    schema = readers[0].schema_arrow
    rows = 0
    with pq.ParquetWriter(out_file, schema) as writer:
        while True:
            for i, it in enumerate(iters):
                while heads[i] is not None and heads[i].num_rows == 0:
                    heads[i] = None
                if heads[i] is None and it is not None:
                    try:
                        heads[i] = pa.Table.from_batches([next(it)], schema)
                    except StopIteration:
                        iters[i] = None
            alive = [i for i, h in enumerate(heads) if h is not None]
            if not alive:
                break
            last_keys = []
            for i in alive:
                h = heads[i]
                last_keys.append((h.column("conv_id")[-1].as_py(),
                                  h.column("turn_idx")[-1].as_py()))
            m = min(last_keys)
            parts = []
            for i in alive:
                n = _prefix_le(heads[i], m)
                if n:
                    parts.append(heads[i].slice(0, n))
                    heads[i] = heads[i].slice(n)
                if heads[i] is not None and heads[i].num_rows == 0:
                    heads[i] = None
            merged = pa.concat_tables(parts).sort_by(_SORT_KEYS)
            writer.write_table(merged)
            rows += merged.num_rows
    return rows


def _finalize_partition(part_dir: str, out_file: str,
                        max_inmem_rows: int = FINALIZE_INMEM_ROWS) -> int:
    """Sort one hash partition by (conv_id, turn_idx) and write it as a
    single parquet file.  Runs as a plain Ray task — partitions are
    independent, so finalization parallelizes perfectly.

    Partitions up to ``max_inmem_rows`` sort in memory.  Bigger ones (a
    mega-conversation blowing the partition budget — SCALE.md "what breaks
    first" #3) fall back to external merge: each fragment is sorted
    individually (bounded memory) into a run, then the runs stream through
    a k-way batch merge.  Output is byte-identical either way."""
    import tempfile
    from pathlib import Path

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    frags = sorted(str(p) for p in Path(part_dir).glob("*.parquet"))
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in frags)
    if total <= max_inmem_rows:
        table = pads.dataset(frags).to_table()
        table = table.sort_by(_SORT_KEYS)
        pq.write_table(table, out_file)
        return table.num_rows

    with tempfile.TemporaryDirectory(dir=str(Path(out_file).parent)) as tmp:
        runs = []
        for j, f in enumerate(frags):
            run = str(Path(tmp) / f"run-{j:05d}.parquet")
            pq.write_table(pq.read_table(f).sort_by(_SORT_KEYS), run)
            runs.append(run)
        return _merge_sorted_runs(runs, out_file)


def _finalize_chunk(jobs: list) -> int:
    """Finalize several partitions sequentially inside one Ray task —
    amortizes worker-process startup over the chunk (see write_ordered)."""
    return sum(_finalize_partition(part_dir, out_file)
               for part_dir, out_file in jobs)


def write_ordered(ds: "ray.data.Dataset", out_dir: str,
                  num_partitions: int) -> int:
    """Scored dataset → order-restored parquet on disk, one file per
    non-empty hash(conv_id) % ``num_partitions`` partition.

    Two-phase manual exchange that avoids Ray's all-to-all operators (which
    impose a full barrier and, measured on this workload, cost 2-3× the
    useful work):

    1. streaming hive-partitioned write by hash(conv_id) % P — overlaps with
       the scoring stages, no barrier;
    2. Ray tasks over CHUNKS of partitions: each task reads a partition's
       fragments, Arrow-sorts by (conv_id, turn_idx), rewrites it as one
       sorted file, then moves to its next partition.

    Partitions are chunked several-per-task rather than one-per-task: the
    per-partition sort is sub-second, so one-task-per-partition pays a fresh
    worker-process spin-up per partition — and those spin-ups land exactly in
    the teardown storm (actor exits + dirty-page writeback) of the phase-1
    pipeline.  Measured at 600k rows / 32 partitions / 32 CPUs: 32×1 tasks
    ≈ 9-11 s, 8×4 tasks ≈ 2.0 s, quiesced lower bound 1.6 s.  Task count
    still scales with cluster CPUs (min(P, max(8, cpus // 4))), so a big
    cluster finalizes thousands of partitions in parallel with startup
    amortized ~4 partitions per worker.

    Each conversation lives wholly inside one partition, so per-conversation
    order is globally correct.  Returns total rows written.
    """
    import shutil
    from pathlib import Path

    import ray

    out = Path(out_dir)
    unsorted = out / "_unsorted"
    shutil.rmtree(out, ignore_errors=True)
    ds = ds.map_batches(_add_part_id, batch_format="pyarrow",
                        fn_kwargs={"num_partitions": num_partitions})
    ds.write_parquet(str(unsorted), partition_cols=["part_id"])

    jobs = []
    for pdir in sorted(unsorted.glob("part_id=*")):
        pid = pdir.name.split("=", 1)[1]
        jobs.append((str(pdir), str(out / f"part-{int(pid):05d}.parquet")))
    cpus = int(ray.cluster_resources().get("CPU", 8))
    n_tasks = min(len(jobs), max(8, cpus // 4)) or 1
    finalize = ray.remote(num_cpus=1)(_finalize_chunk)
    futures = [finalize.remote(jobs[i::n_tasks]) for i in range(n_tasks)]
    # Windowed waits: bounds driver memory at very large partition counts.
    rows = 0
    while futures:
        done, futures = ray.wait(futures, num_returns=min(64, len(futures)))
        rows += sum(ray.get(done))
    shutil.rmtree(unsorted, ignore_errors=True)
    return rows
