"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

``queries()`` entries marked SQL-verified have a matching ``oracle_sql()``
DuckDB statement over the same parquet views; the rest (language detection,
MinHash/SimHash, the full transcript pipeline) are not SQL-expressible and
get the driver's rows-only check — their correctness gate is the pytest
suite, which compares the Ray pipeline against the scalar reference
transcription row-for-row.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


# --------------------------------------------------------------------- utils

def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    """Column-pruned parquet read: only the named columns leave storage.

    Block count is sized to the DATA, not the cluster: Ray's default
    parallelism would split a 5k-row file into 64 blocks of ~80 rows, and
    every downstream sort/groupby then pays 64-partition shuffle overhead
    for kilobytes of payload.  A block should hold ≥ ~25k rows (or the
    whole file); at real scale (many multi-GB files) the clamp is a no-op
    and Ray's own size-based splitting governs.
    """
    import ray
    import ray.data
    path = f"{sf_dir}/{table}.parquet"
    n_rows = pq.ParquetFile(path).metadata.num_rows
    cpus = int(ray.cluster_resources().get("CPU", 4))
    blocks = max(1, min(4 * cpus, n_rows // 25_000))
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=blocks)


def _transcripts_for_sf(sf_dir: str) -> Path:
    """Deterministic transcript table sized to the scale factor (12 turns per
    documents row), cached under /tmp in a directory named after the text
    pool it was drawn from."""
    from lingua_ray.sources.transcripts import ensure_transcripts, pool_name
    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    n_turns = max(2000, n_docs * 12)
    out = Path(f"/tmp/lingua_ray/transcripts-v3-{pool_name()}-{n_turns}")
    return ensure_transcripts(out, n_turns=n_turns, seed=42)


# ------------------------------------------------------------------- queries

def _q_quality_filter_transcripts(sf_dir: str):
    """Flagship: full langid + quality + scrub + keep pipeline, run as the
    production tool runs it (checkpointed waves, then the ordered finalize),
    read back in stable (conv_id, turn_idx) order.  The run lives in a
    per-(sf, pid) spill dir.  [rows-only — langid not in SQL]"""
    import ray.data
    from lingua_ray.models import ensure_models
    from lingua_ray.pipelines.quality_filter import PipelineOptions
    from lingua_ray.stages.spill import spill_path
    from lingua_ray.state.checkpoint import CheckpointedRun

    ensure_models()
    out = Path(spill_path("qfilter", Path(sf_dir).name))
    run = CheckpointedRun(_transcripts_for_sf(sf_dir), out, PipelineOptions(
        langid_concurrency=_langid_concurrency(),
        input_columns=["conv_id", "turn_idx", "text"]))
    run.run()
    run.finalize_ordered()
    return ray.data.read_parquet(str(out / "ordered")).select_columns(
        ["conv_id", "turn_idx", "lang", "ppl", "quality_flags", "tox_count",
         "scrubbed_text", "keep"])


def _q_conversations_assembled(sf_dir: str):
    """Context assembly: transcript turns → one document per
    conversation in turn order (ONE conv-keyed shuffle, vectorized
    join kernel).  [SQL-verified: the oracle string_aggs the same
    generated parquet shards via read_parquet(); also pandas-oracle
    tested in test_assemble.py]"""
    import ray.data
    from lingua_ray.stages.assemble import assemble_conversations
    ds = ray.data.read_parquet(str(_transcripts_for_sf(sf_dir)),
                               columns=["conv_id", "turn_idx", "text"])
    return assemble_conversations(ds)


def _read_transcripts(sf_dir: str, columns: list[str]):
    """Column-pruned read of the deterministic transcript fixture."""
    import ray.data
    return ray.data.read_parquet(str(_transcripts_for_sf(sf_dir)),
                                 columns=columns)


def _q_transcript_scrub(sf_dir: str):
    """Per-turn PII scrub + toxicity counts over the TRANSCRIPTS table —
    the north-rule scrub surface keyed by (conv_id, turn_idx) instead of
    doc_id.  Stateless vectorized RE2 kernels; no shuffle.
    [SQL-verified — both engines run RE2-family regexes]"""
    from lingua_ray.stages.scrub import scrub_batch
    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])
    ds = ds.map_batches(scrub_batch, batch_format="pyarrow")
    return ds.select_columns(["conv_id", "turn_idx", "pii_email", "pii_ip",
                              "pii_ssn", "pii_cc", "pii_phone", "tox_count",
                              "scrubbed_text"])


def _grouped_turn_stats(ds, key: str):
    """(key, conv_id)-level partials → distinct-conversation counting
    without a COUNT(DISTINCT) shuffle of raw rows.

    The per-block combiner collapses each block to one row per
    (key, conv_id) pair, so the exchange carries pairs — bounded by
    #keys × #conversations — never turns.  After the pair-level groupby
    each pair exists exactly once globally, so the per-key conversation
    count is a plain Count() over pairs (tiny second shuffle).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    def part(batch: pa.Table) -> pa.Table:
        chars = pc.cast(pc.utf8_length(pc.fill_null(batch.column("text"),
                                                    "")), pa.int64())
        tools = pc.cast(pc.not_equal(pc.fill_null(batch.column("tool"), ""),
                                     ""), pa.int64())
        t = pa.table({key: batch.column(key),
                      "conv_id": batch.column("conv_id"),
                      "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                      "chars": chars, "tools": tools})
        return t.group_by([key, "conv_id"]).aggregate(
            [("n", "sum"), ("chars", "sum"), ("tools", "sum")])

    pairs = ds.map_batches(part, batch_format="pyarrow") \
              .groupby([key, "conv_id"]) \
              .sum(["n_sum", "chars_sum", "tools_sum"])
    out = pairs.groupby(key).aggregate(
        Count(), Sum("sum(n_sum)"), Sum("sum(chars_sum)"),
        Sum("sum(tools_sum)"))
    return out.rename_columns({"count()": "n_convs",
                               "sum(sum(n_sum))": "n_turns",
                               "sum(sum(chars_sum))": "sum_chars",
                               "sum(sum(tools_sum))": "n_tool_calls"})


def _q_transcript_role_stats(sf_dir: str):
    """Per-role turn/char/tool-call totals + distinct conversations
    touched, via the pair-level combiner (see _grouped_turn_stats).
    [SQL-verified]"""
    ds = _read_transcripts(sf_dir, ["conv_id", "role", "text", "tool"])
    out = _grouped_turn_stats(ds, "role")
    return out.select_columns(["role", "n_turns", "n_convs", "sum_chars",
                               "n_tool_calls"])


def _q_transcript_tool_usage(sf_dir: str):
    """Tool-call frequency: per named tool, call count, conversations
    using it, and total argument chars.  Same pair-level combiner.
    [SQL-verified]"""
    import pyarrow.compute as pc

    def only_tools(batch: pa.Table) -> pa.Table:
        mask = pc.not_equal(pc.fill_null(batch.column("tool"), ""), "")
        return batch.filter(mask)

    ds = _read_transcripts(sf_dir, ["conv_id", "tool", "text"])
    ds = ds.map_batches(only_tools, batch_format="pyarrow")
    out = _grouped_turn_stats(ds, "tool")
    return out.select_columns(["tool", "n_turns", "n_convs", "sum_chars"]) \
              .rename_columns({"n_turns": "n_calls"})


def _q_transcript_conv_stats(sf_dir: str):
    """Per-conversation shape: turn counts by kind, total chars, and the
    µs span between first and last timestamp.  Per-block per-conv
    partials (pa group_by inside map_batches) → one conv-keyed groupby
    of partial rows — the mega-conversation contributes one partial row
    per block, never one group holding all its turns, so the skewed key
    costs nothing extra.  [SQL-verified]"""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    def part(batch: pa.Table) -> pa.Table:
        chars = pc.cast(pc.utf8_length(pc.fill_null(batch.column("text"),
                                                    "")), pa.int64())
        user = pc.cast(pc.equal(batch.column("role"), "user"), pa.int64())
        tool = pc.cast(pc.not_equal(pc.fill_null(batch.column("tool"), ""),
                                    ""), pa.int64())
        ts = batch.column("ts").cast(pa.int64())
        t = pa.table({"conv_id": batch.column("conv_id"),
                      "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                      "user": user, "tool": tool, "chars": chars, "ts": ts})
        return t.group_by(["conv_id"]).aggregate(
            [("n", "sum"), ("user", "sum"), ("tool", "sum"),
             ("chars", "sum"), ("ts", "min"), ("ts", "max")])

    def finalize(batch: pa.Table) -> pa.Table:
        span = pc.subtract(batch.column("max(ts_max)"),
                           batch.column("min(ts_min)"))
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "n_turns": batch.column("sum(n_sum)"),
            "n_user_turns": batch.column("sum(user_sum)"),
            "n_tool_calls": batch.column("sum(tool_sum)"),
            "sum_chars": batch.column("sum(chars_sum)"),
            "span_us": span})

    ds = _read_transcripts(sf_dir,
                           ["conv_id", "turn_idx", "role", "text", "tool",
                            "ts"])
    out = ds.map_batches(part, batch_format="pyarrow") \
            .groupby("conv_id").aggregate(
                Sum("n_sum"), Sum("user_sum"), Sum("tool_sum"),
                Sum("chars_sum"), Min("ts_min"), Max("ts_max"))
    return out.map_batches(finalize, batch_format="pyarrow")


# Turns per adjacency bucket for the transcript lag/transition queries:
# bounds every shuffle group at B+1 rows regardless of conversation
# size, so the mega-conversation (>5% of all turns) never lands in one
# task.  Small here so the sf0.01 gate exercises the multi-bucket path
# (mega conv = 360 turns → 6 buckets); production sizes ~1e5 (group
# memory stays tiny, and larger B amortizes per-group Python overhead).
_TURN_BUCKET = 64


def _q_transcript_role_transitions(sf_dir: str):
    """Global (previous role → role) transition counts within each
    conversation's stable turn order — the role-alternation validation a
    transcript QA pass runs.  Adjacency via the skew-bounded
    stages/adjacency.py primitive (one (conv, turn_idx // B)-keyed
    shuffle, bucket-start clones recover cross-boundary pairs, no group
    exceeds B+1 turns), then a per-block partial count and a tiny
    (prev_role, role) groupby.  [SQL-verified — LAG OVER (PARTITION BY
    conv_id)]"""
    from lingua_ray.stages.adjacency import adjacent_pairs

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "role"])
    pairs = adjacent_pairs(ds, "conv_id", "turn_idx", ["role"],
                           bucket_size=_TURN_BUCKET)

    def part(batch: pa.Table) -> pa.Table:
        t = pa.table({"prev_role": batch.column("prev_role"),
                      "role": batch.column("role"),
                      "n": pa.array(np.ones(batch.num_rows,
                                            dtype=np.int64))})
        g = t.group_by(["prev_role", "role"]).aggregate([("n", "sum")])
        return g.rename_columns(["prev_role", "role", "n"])

    return pairs.map_batches(part, batch_format="pyarrow") \
        .groupby(["prev_role", "role"]).sum("n") \
        .rename_columns({"sum(n)": "n"})


def _q_transcript_turn_gaps(sf_dir: str):
    """Per-turn gap (µs) to the previous turn of the same conversation in
    stable turn order.  Same skew-bounded adjacency primitive as
    role_transitions (no group exceeds _TURN_BUCKET+1 turns,
    mega-conversation-proof); turns with no predecessor, or a NULL ts on
    either side, are dropped (SQL's gap IS NOT NULL).  [SQL-verified]"""
    import pyarrow.compute as pc
    from lingua_ray.stages.adjacency import adjacent_pairs

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "ts"])
    pairs = adjacent_pairs(ds, "conv_id", "turn_idx", ["ts"],
                           bucket_size=_TURN_BUCKET)

    def gaps(batch: pa.Table) -> pa.Table:
        gap = pc.subtract(batch.column("ts").cast(pa.int64()),
                          batch.column("prev_ts").cast(pa.int64()))
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx"),
            "gap_us": gap}).filter(pc.is_valid(gap))

    return pairs.map_batches(gaps, batch_format="pyarrow")


def _q_conv_lookup(sf_dir: str):
    """Point lookup of the mega-conversation's turns — the indexed-access
    pattern: a pyarrow filter expression pushed into the parquet read, so
    row groups without the key never leave storage (every other query
    here scans; a resume/debug workflow reads one conversation).
    [SQL-verified]"""
    import pyarrow.dataset as pads
    import ray.data
    ds = ray.data.read_parquet(
        str(_transcripts_for_sf(sf_dir)),
        columns=["conv_id", "turn_idx", "text"],
        filter=(pads.field("conv_id") == "conv00000000"))
    return ds


def _q_turn_dedup(sf_dir: str):
    """Repeated-turn flagging within each conversation: a turn is a
    duplicate if an earlier turn (smaller turn_idx) of the SAME
    conversation has byte-identical text.  One (conv_id, fp64) keyed
    shuffle of 24-byte fingerprint rows + conv ids — text never rides
    the exchange; each group marks all but its min turn_idx.
    [SQL-verified — min(turn_idx) OVER (PARTITION BY conv_id, text);
    identical as long as the 64-bit fingerprint is collision-free
    within a conversation, which the driver compare would catch]"""
    from lingua_ray.functions.textstats import fingerprint64_array

    def fp(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = pc.fill_null(batch.column("text"), "")
        h = fingerprint64_array(t).view(np.int64)
        return pa.table({"conv_id": batch.column("conv_id"),
                         "turn_idx": batch.column("turn_idx"),
                         "fp64": pa.array(h, type=pa.int64())})

    def flag(group: pa.Table) -> pa.Table:
        idx = group.column("turn_idx").to_numpy()
        return pa.table({"conv_id": group.column("conv_id"),
                         "turn_idx": group.column("turn_idx"),
                         "is_dup": pa.array(idx != idx.min())})

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])
    pairs = ds.map_batches(fp, batch_format="pyarrow")
    return pairs.groupby(["conv_id", "fp64"]).map_groups(
        flag, batch_format="pyarrow")


def _q_conv_dedup(sf_dir: str):
    """Whole-conversation exact dedup: assemble each conversation's text
    in turn order, fingerprint the assembled string, keep the smallest
    conv_id per fingerprint.  The conversation bodies never ride the
    second shuffle — only (fp64, conv_id) pairs do.  [SQL-verified —
    DuckDB groups by the assembled text itself; identical as long as the
    64-bit fingerprint is collision-free on the input, which the driver
    compare would catch]"""
    from lingua_ray.functions.textstats import fingerprint64_array
    from lingua_ray.stages.assemble import assemble_conversations

    def fp(batch: pa.Table) -> pa.Table:
        # int64 view: Arrow has no native uint64 path through the groupby
        # reduce (values past 2^63 hit a slow conversion fallback)
        h = fingerprint64_array(batch.column("text")).view(np.int64)
        return pa.table({"fp64": pa.array(h, type=pa.int64()),
                         "conv_id": batch.column("conv_id")})

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])
    asm = assemble_conversations(ds)
    pairs = asm.map_batches(fp, batch_format="pyarrow")
    return pairs.groupby("fp64").min("conv_id").rename_columns(
        {"min(conv_id)": "conv_id"}).select_columns(["conv_id"])


def _q_transcript_tool_chains(sf_dir: str):
    """Consecutive tool→tool invocation chains: global counts of (prev
    tool, tool) over DIRECTLY adjacent turn pairs where both turns are
    tool calls — the agent-behavior signal (which tools chain into which)
    a transcript-analytics pass extracts.  Same skew-bounded adjacency
    primitive as role_transitions (no group exceeds _TURN_BUCKET+1 turns
    regardless of conversation size), then a per-block partial count and
    a tiny (prev_tool, tool) groupby.  [SQL-verified — LAG OVER
    (PARTITION BY conv_id ORDER BY turn_idx) filtered to both-non-empty]"""
    import pyarrow.compute as pc
    from lingua_ray.stages.adjacency import adjacent_pairs

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "tool"])
    pairs = adjacent_pairs(ds, "conv_id", "turn_idx", ["tool"],
                           bucket_size=_TURN_BUCKET)

    def part(batch: pa.Table) -> pa.Table:
        prev_t = pc.fill_null(batch.column("prev_tool"), "")
        t = pc.fill_null(batch.column("tool"), "")
        mask = pc.and_(pc.not_equal(prev_t, ""), pc.not_equal(t, ""))
        f = batch.filter(mask)
        tbl = pa.table({"prev_tool": f.column("prev_tool"),
                        "tool": f.column("tool"),
                        "n": pa.array(np.ones(f.num_rows, dtype=np.int64))})
        return tbl.group_by(["prev_tool", "tool"]).aggregate(
            [("n", "sum")]).rename_columns(["prev_tool", "tool", "n"])

    return pairs.map_batches(part, batch_format="pyarrow") \
        .groupby(["prev_tool", "tool"]).sum("n") \
        .rename_columns({"sum(n)": "n"})


def _q_conv_context_truncate(sf_dir: str):
    """Per-conversation context-budget truncation — the training-prep
    step that keeps each conversation's leading turns while the running
    character total stays within the context budget (2000 chars here).
    Running totals via the skew-bounded prefix-sum primitive
    (stages/adjacency.py::bounded_cumsum): per-block (conv, bucket)
    partial sums → per-conv bucket-offset prefix (~n/_TURN_BUCKET rows
    per conv) → one (conv, bucket)-keyed groupby adds offset + local
    cumsum, with max_total pruning so buckets past the budget do no
    per-group work — a mega-conversation's tail never costs anything
    beyond its shuffle ride.  [SQL-verified — SUM(length) OVER
    (PARTITION BY conv_id ORDER BY turn_idx ROWS UNBOUNDED PRECEDING)
    <= budget]"""
    import pyarrow.compute as pc
    from lingua_ray.stages.adjacency import bounded_cumsum

    BUDGET = 2000

    def chars(batch: pa.Table) -> pa.Table:
        c = pc.cast(pc.utf8_length(pc.fill_null(batch.column("text"), "")),
                    pa.int64())
        return pa.table({"conv_id": batch.column("conv_id"),
                         "turn_idx": batch.column("turn_idx"),
                         "val": c})

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])
    cum = bounded_cumsum(ds.map_batches(chars, batch_format="pyarrow"),
                         "conv_id", "turn_idx", "val",
                         bucket_size=_TURN_BUCKET, max_total=BUDGET)

    def keep(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.less_equal(batch.column("cum"), BUDGET))
        return pa.table({"conv_id": f.column("conv_id"),
                         "turn_idx": f.column("turn_idx"),
                         "cum_chars": f.column("cum")})

    return cum.map_batches(keep, batch_format="pyarrow")


def _q_conv_role_balance(sf_dir: str):
    """Conversation-level role-balance filter: keep conversations with at
    least one user and one assistant turn whose user-turn share lies in
    [0.2, 0.8] — a transcript QA gate against degenerate monologues and
    runaway agent loops.  Per-block per-conv partials (the conv_stats
    combiner pattern: a mega-conversation contributes one partial row per
    block) → one conv-keyed groupby of tiny rows → integer-only HAVING
    (5*n_user within [n_turns, 4*n_turns]) so no float ratio rides the
    compare.  [SQL-verified — GROUP BY conv_id HAVING]"""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def part(batch: pa.Table) -> pa.Table:
        user = pc.cast(pc.equal(batch.column("role"), "user"), pa.int64())
        asst = pc.cast(pc.equal(batch.column("role"), "assistant"),
                       pa.int64())
        t = pa.table({"conv_id": batch.column("conv_id"),
                      "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                      "user": user, "asst": asst})
        return t.group_by(["conv_id"]).aggregate(
            [("n", "sum"), ("user", "sum"), ("asst", "sum")])

    def having(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n_sum)")
        nu = batch.column("sum(user_sum)")
        na = batch.column("sum(asst_sum)")
        nu5 = pc.multiply(nu, pa.scalar(5, pa.int64()))
        mask = pc.and_(
            pc.and_(pc.greater_equal(nu, pa.scalar(1, pa.int64())),
                    pc.greater_equal(na, pa.scalar(1, pa.int64()))),
            pc.and_(pc.greater_equal(nu5, n),
                    pc.less_equal(nu5, pc.multiply(
                        n, pa.scalar(4, pa.int64())))))
        f = batch.filter(mask)
        return pa.table({"conv_id": f.column("conv_id"),
                         "n_turns": f.column("sum(n_sum)"),
                         "n_user_turns": f.column("sum(user_sum)"),
                         "n_assistant_turns": f.column("sum(asst_sum)")})

    ds = _read_transcripts(sf_dir, ["conv_id", "role"])
    out = ds.map_batches(part, batch_format="pyarrow") \
            .groupby("conv_id").aggregate(
                Sum("n_sum"), Sum("user_sum"), Sum("asst_sum"))
    return out.map_batches(having, batch_format="pyarrow")


def _q_transcript_contamination(sf_dir: str):
    """Benchmark contamination over the TRANSCRIPT table: every turn
    tagged with its distinct word-8-gram count and benchmark overlap
    (turns with turn_idx % 97 == 0 stand in for the eval set — every
    conversation's opening turn plus deep-conversation samples).  Same
    broadcast-small-side plan as the documents query: the benchmark hash
    array ships via ray.put once, the corpus never shuffles; the only
    difference is the composite (conv_id, turn_idx) key riding along.
    [SQL-verified]"""
    import pyarrow.compute as pc
    from lingua_ray.stages.contamination import contamination_check

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])

    def bench_filter(batch: pa.Table) -> pa.Table:
        keep = pc.equal(pc.cast(batch.column("turn_idx"), pa.int64())
                        .to_numpy() % 97, 0)
        return batch.filter(pa.array(keep))

    bench = ds.map_batches(bench_filter, batch_format="pyarrow")
    out = contamination_check(ds, bench, n=8)
    return out.select_columns(["conv_id", "turn_idx", "n_ngrams",
                               "n_hits"])


def _q_transcript_loop_detect(sf_dir: str):
    """Agent-loop detection: maximal runs of the SAME tool invoked on
    CONSECUTIVE turns (turn_idx step exactly 1) within a conversation,
    length >= 2 — the degenerate-agent signal (a tool retried in a tight
    loop) a transcript QA pass flags for removal or truncation.

    Distributed gaps-and-islands with no skew exposure: rank each
    tool-turn within its (conv, tool) key via the skew-bounded
    prefix-sum primitive (stages/adjacency.py::bounded_cumsum, val=1 —
    no shuffle group ever exceeds one turn-bucket), take island =
    turn_idx - rank (constant exactly on runs of consecutive turn_idx,
    strictly increasing across runs), then a per-block partial
    (min(start), count) per island and a tiny island-keyed groupby — a
    10^8-turn tool loop contributes one partial row per block, never one
    task's group.  [SQL-verified — ROW_NUMBER gaps-and-islands]"""
    import pyarrow.compute as pc
    from ray.data.aggregate import Min, Sum

    from lingua_ray.stages.adjacency import bounded_cumsum

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "tool"])

    def tool_turns(batch: pa.Table) -> pa.Table:
        tool = pc.fill_null(batch.column("tool"), "")
        f = batch.filter(pc.not_equal(tool, ""))
        k = pc.binary_join_element_wise(
            f.column("conv_id"), pc.fill_null(f.column("tool"), ""), "\x1f")
        return pa.table({
            "k": k,
            "turn_idx": pc.cast(f.column("turn_idx"), pa.int64()),
            "one": pa.array(np.ones(f.num_rows, dtype=np.int64))})

    cum = bounded_cumsum(ds.map_batches(tool_turns, batch_format="pyarrow"),
                         "k", "turn_idx", "one", bucket_size=_TURN_BUCKET)

    def islands(batch: pa.Table) -> pa.Table:
        isl = pc.subtract(batch.column("turn_idx"), batch.column("cum"))
        t = pa.table({
            "k": batch.column("k"), "isl": isl,
            "start": batch.column("turn_idx"),
            "len": pa.array(np.ones(batch.num_rows, dtype=np.int64))})
        return t.group_by(["k", "isl"]).aggregate(
            [("start", "min"), ("len", "sum")]).rename_columns(
            ["k", "isl", "start", "len"])

    runs = (cum.map_batches(islands, batch_format="pyarrow")
               .groupby(["k", "isl"]).aggregate(Min("start"), Sum("len")))

    def final(batch: pa.Table) -> pa.Table:
        ln = batch.column("sum(len)")
        f = batch.filter(pc.greater_equal(ln, pa.scalar(2, pa.int64())))
        parts = pc.split_pattern(f.column("k"), "\x1f")
        return pa.table({
            "conv_id": pc.list_element(parts, 0),
            "tool": pc.list_element(parts, 1),
            "start_turn": pc.cast(f.column("min(start)"), pa.int32()),
            "run_len": f.column("sum(len)")})

    return runs.map_batches(final, batch_format="pyarrow")


def _q_turn_context_window(sf_dir: str):
    """Rolling context assembly: each turn paired with the concatenation
    of its (up to) 3 preceding turns' text plus its own, in turn order —
    the context window a reward-model or judge pass scores each
    transcript turn against.

    stages/adjacency.py::rolling_join — bucketed (conv, turn_idx // B)
    groups with a k-row tail halo cloned into the next bucket, so no
    task's group exceeds B + k rows for any conversation length and the
    only duplicated text is k/B of the corpus.  Window assembly is a
    vectorized repeat/arange gather + pc.binary_join (no per-row Python).
    [SQL-verified — string_agg OVER (ROWS BETWEEN 3 PRECEDING AND
    CURRENT ROW)]"""
    import pyarrow.compute as pc

    from lingua_ray.stages.adjacency import rolling_join

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])
    ctx = rolling_join(ds, "conv_id", "turn_idx", "text", k=3, sep="\x1f",
                       bucket_size=_TURN_BUCKET)

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": pc.cast(batch.column("turn_idx"), pa.int32()),
            "context": batch.column("context")})

    return ctx.map_batches(final, batch_format="pyarrow")


def _q_transcript_sessionize(sf_dir: str):
    """Within-conversation session segmentation: a new session starts at
    any turn whose gap from the previous turn exceeds 5 minutes — the
    idle-break splitting a long-running agent conversation into training
    episodes.  session_id is the 0-based running count of breaks.

    Composition of the two skew-bounded adjacency primitives, no
    map_groups over whole conversations: adjacent_pairs yields each
    turn's (prev_ts, ts) with bucket-boundary clones, the break
    indicator is a vectorized compare, and bounded_cumsum turns
    indicators into session ids (turn 0 rows union in with indicator 0).
    A NULL ts on either side of a gap is no break, as SQL's CASE WHEN
    NULL > gap takes the ELSE 0 branch.
    A 10^8-turn conversation never forms one task's group at any stage.
    [SQL-verified — SUM(CASE WHEN gap THEN 1) OVER (PARTITION BY conv)]"""
    import pyarrow.compute as pc

    from lingua_ray.stages.adjacency import adjacent_pairs, bounded_cumsum

    GAP_US = 300_000_000
    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": pc.cast(batch.column("turn_idx"), pa.int64()),
            "tsu": batch.column("ts").cast(pa.int64())})

    base = ds.map_batches(to_us, batch_format="pyarrow")
    pairs = adjacent_pairs(base, "conv_id", "turn_idx", ["tsu"],
                           bucket_size=_TURN_BUCKET)

    def breaks(batch: pa.Table) -> pa.Table:
        gap = pc.subtract(batch.column("tsu"), batch.column("prev_tsu"))
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx"),
            "val": pc.cast(pc.fill_null(
                pc.greater(gap, pa.scalar(GAP_US, pa.int64())), False),
                pa.int64())})

    # each conversation's FIRST turn has no adjacent-pairs row, so it is
    # seeded into the cumsum with indicator 0.  The first turn is the
    # per-conv MIN turn_idx — not literally idx 0: a stream whose convs
    # were head-trimmed upstream (dropped system preamble, dedup) starts
    # at arbitrary ordinals, and the idx==0 shortcut silently dropped
    # those convs' first turns (caught by the adversarial transcript
    # sweep).  One 16-byte-row combiner + tiny groupby-min.
    def min_turn_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "turn_idx": pa.array([], pa.int64())})
        conv = np.asarray(batch.column("conv_id")
                          .to_numpy(zero_copy_only=False))
        ti = batch.column("turn_idx").to_numpy()
        uc, codes = np.unique(conv, return_inverse=True)
        mins = np.full(len(uc), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mins, codes, ti)
        return pa.table({"conv_id": pa.array(uc),
                         "turn_idx": pa.array(mins)})

    def heads_final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("min(turn_idx)"),
            "val": pa.array(np.zeros(batch.num_rows, dtype=np.int64))})

    def heads(b):
        return (b.map_batches(min_turn_partial, batch_format="pyarrow")
                .groupby("conv_id").min("turn_idx")
                .map_batches(heads_final, batch_format="pyarrow"))

    # bounded_cumsum consumes its input twice; without a spill that
    # re-executes the adjacent_pairs shuffle.  The marks table is 3 thin
    # columns per turn — spill once, stream twice (stages/spill.py owns
    # the /tmp lifecycle; a production run points this at shared storage).
    from lingua_ray.stages.spill import spill
    # materialize the (one-row-per-conv, 16-byte) heads table BEFORE the
    # union: unioning two live all-to-all branches starves a small CPU
    # reservation into a deadlock (the round-4 two-consumer hang, in
    # union form); sequencing the tiny groupby first costs nothing
    heads_t = heads(base).materialize()
    marks = spill(
        pairs.map_batches(breaks, batch_format="pyarrow").union(heads_t),
        "sessmarks", Path(sf_dir).name)
    cum = bounded_cumsum(marks, "conv_id", "turn_idx", "val",
                         bucket_size=_TURN_BUCKET)

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": pc.cast(batch.column("turn_idx"), pa.int32()),
            "session_id": batch.column("cum")})

    return cum.map_batches(final, batch_format="pyarrow")


def _q_session_turn_dedup(sf_dir: str):
    """Within-session duplicate-turn removal: keep the FIRST occurrence
    of each distinct turn text inside every (conversation, session)
    episode — retries and agent loops inside one working session
    collapse, while a legitimately repeated greeting in a LATER session
    survives.  Composition: the skew-bounded sessionize pipeline →
    shuffle-free fingerprint pass → one hash join on (conv, turn) →
    per-batch min-combiner → 3-key groupby min (16-byte keys + the conv
    id on the wire, never text).  [SQL-verified]"""
    import pyarrow.compute as pc
    import ray

    from lingua_ray.functions.textstats import fingerprint64_array

    sessions = _q_transcript_sessionize(sf_dir)
    base = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": pc.cast(batch.column("turn_idx"), pa.int32()),
            "fp": pa.array(fingerprint64_array(batch.column("text"))
                           .view(np.int64))})

    fps = base.map_batches(fp, batch_format="pyarrow")
    nparts = max(2, int(ray.cluster_resources().get("CPU", 4)) // 4)
    j = sessions.join(fps, "inner", nparts,
                      on=("conv_id", "turn_idx"))

    def min_partial(batch: pa.Table) -> pa.Table:
        c = np.asarray(batch.column("conv_id")
                       .to_numpy(zero_copy_only=False))
        s = batch.column("session_id").to_numpy().astype(np.int64)
        f = batch.column("fp").to_numpy().astype(np.int64)
        t = batch.column("turn_idx").to_numpy().astype(np.int64)
        _, codes = np.unique(c, return_inverse=True)
        order = np.lexsort((t, f, s, codes))
        cc, ss, ff, tt = codes[order], s[order], f[order], t[order]
        first = np.concatenate(
            [[True], (cc[1:] != cc[:-1]) | (ss[1:] != ss[:-1])
             | (ff[1:] != ff[:-1])])
        idx = np.flatnonzero(first)
        take = np.asarray(order)[idx]
        return pa.table({"conv_id": pa.array(c[take]),
                         "session_id": pa.array(s[take]),
                         "fp": pa.array(f[take]),
                         "turn_idx": pa.array(t[take])})

    merged = (j.map_batches(min_partial, batch_format="pyarrow")
              .groupby(["conv_id", "session_id", "fp"]).min("turn_idx"))

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": pc.cast(batch.column("min(turn_idx)"), pa.int32()),
            "session_id": batch.column("session_id")})

    return merged.map_batches(final, batch_format="pyarrow")


def _q_conv_exchange_extract(sf_dir: str):
    """SFT pair extraction: every (user turn, immediately-following
    assistant turn) pair — the prompt/response examples a supervised
    fine-tuning set is built from, with the conversation and prompt turn
    position kept for traceability.

    stages/adjacency.py::adjacent_pairs on (conv, turn_idx) carrying
    (role, text); the pair filter is a vectorized mask.  Prompt and
    response text ride ONE bounded shuffle (group <= bucket+1 rows);
    nothing assembles whole conversations.  [SQL-verified — LAG OVER
    (PARTITION BY conv_id ORDER BY turn_idx)]"""
    import pyarrow.compute as pc

    from lingua_ray.stages.adjacency import adjacent_pairs

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "role", "text"])
    pairs = adjacent_pairs(ds, "conv_id", "turn_idx", ["role", "text"],
                           bucket_size=_TURN_BUCKET)

    def extract(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(batch.column("prev_role"), "user"),
                    pc.equal(batch.column("role"), "assistant"))
        f = batch.filter(m)
        return pa.table({
            "conv_id": f.column("conv_id"),
            "prompt_turn": pc.cast(f.column("prev_turn_idx"), pa.int32()),
            "prompt": f.column("prev_text"),
            "response": f.column("text")})

    return pairs.map_batches(extract, batch_format="pyarrow")


def _q_dpo_pairs(sf_dir: str):
    """Preference-pair (DPO/RLHF) construction: for every prompt (user
    turn) that received ≥ 2 DISTINCT assistant replies anywhere in the
    corpus, emit (prompt, chosen, rejected) — chosen/rejected the
    max/min reply under the deterministic (length, text) order (the
    sandbox stand-in for a reward-model score; same plan).

    Scale shape: SFT pairs via the bucketed adjacency primitive, then a
    per-block min/max combiner — ONE row per distinct prompt per block
    (prompt + two candidate replies) rides the prompt-keyed shuffle, so
    a hot prompt ("hello" × 10^8) costs one row per block, never a
    mega-group of replies.  ≥2-distinct ⟺ global max ≠ global min under
    a total order, so no distinct-count set is ever materialized.
    [SQL-verified]"""
    import pyarrow.compute as pc

    from lingua_ray.functions.textstats import fingerprint64_array
    from lingua_ray.stages.adjacency import adjacent_pairs
    from lingua_ray.stages.util import utf8_filled

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "role", "text"])
    pairs = adjacent_pairs(ds, "conv_id", "turn_idx", ["role", "text"],
                           bucket_size=_TURN_BUCKET)

    def _minmax(t: pa.Table) -> pa.Table:
        """One (prompt, best, worst) row per distinct prompt of t —
        ``best``/``worst`` columns may pre-exist (merge pass) or be the
        raw response (combiner pass)."""
        if t.num_rows == 0:
            # a block can legitimately hold zero user→assistant pairs
            # (all tool/system turns): [True]-seeded run detection would
            # emit index 0 into a 0-row take and crash
            return pa.table({"ph": pa.array([], pa.int64()),
                             "prompt": pa.array([], pa.string()),
                             "worst": pa.array([], pa.string()),
                             "best": pa.array([], pa.string())})
        idx = pc.sort_indices(t, sort_keys=[("ph", "ascending"),
                                            ("len", "ascending"),
                                            ("resp", "ascending")])
        s = t.take(idx)
        ph = s.column("ph").to_numpy()
        first = np.flatnonzero(
            np.concatenate([[True], ph[1:] != ph[:-1]]))
        last = np.concatenate([first[1:] - 1, [len(ph) - 1]])
        lo, hi = s.take(pa.array(first)), s.take(pa.array(last))
        return pa.table({"ph": lo.column("ph"),
                         "prompt": lo.column("prompt"),
                         "worst": lo.column("resp"),
                         "best": hi.column("resp")})

    def combiner(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(batch.column("prev_role"), "user"),
                    pc.equal(batch.column("role"), "assistant"))
        f = batch.filter(m)
        prompt = utf8_filled(f.column("prev_text"))
        resp = utf8_filled(f.column("text"))
        t = pa.table({"ph": pa.array(
                          fingerprint64_array(prompt).view(np.int64)),
                      "prompt": prompt, "resp": resp,
                      "len": pc.utf8_length(resp)})
        return _minmax(t)

    def merge(group: pa.Table) -> pa.Table:
        # re-run the same kernel over the per-block winners: the worst
        # column can only produce the global min, best the global max
        both = pa.table({
            "ph": pa.concat_arrays(
                [group.column("ph").combine_chunks(),
                 group.column("ph").combine_chunks()]),
            "prompt": pa.concat_arrays(
                [group.column("prompt").combine_chunks(),
                 group.column("prompt").combine_chunks()]),
            "resp": pa.concat_arrays(
                [group.column("worst").combine_chunks(),
                 group.column("best").combine_chunks()])})
        both = both.append_column(
            "len", pc.utf8_length(both.column("resp")))
        mm = _minmax(both)
        keep = pc.not_equal(mm.column("best"), mm.column("worst"))
        f = mm.filter(keep)
        return pa.table({"prompt": f.column("prompt"),
                         "chosen": f.column("best"),
                         "rejected": f.column("worst")})

    return (pairs.map_batches(combiner, batch_format="pyarrow")
            .groupby("ph").map_groups(merge, batch_format="pyarrow"))


def _q_conv_lang_switches(sf_dir: str):
    """Per-conversation language consistency: every turn through the
    REAL langid stage (models loaded once per worker), then (a)
    code-switch count — adjacent turns whose detected language differs —
    via the bucketed adjacency primitive, and (b) majority language via
    a per-block (conv, lang) histogram combiner.  Both reduce through
    ONE conv-keyed shuffle of tiny count rows (union-tagged, group size
    ≤ distinct-langs-per-conv + bucket partials — mega-conversation
    proof); turn text never rides an exchange.  [rows-only: langid is
    not SQL-expressible; gated by the crafted-fixture pytest +
    kernel-vs-scalar conformance suite]"""
    from lingua_ray.models import ensure_models
    from lingua_ray.stages.langid import map_langid
    from lingua_ray.stages.langstats import lang_switch_stats

    ensure_models()
    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])
    tagged = map_langid(
        ds, _langid_concurrency(_turn_rows(sf_dir)), with_ppl=False
    ).select_columns(["conv_id", "turn_idx", "lang"])
    return lang_switch_stats(tagged, bucket_size=_TURN_BUCKET,
                             spill_input=Path(sf_dir).name)


def _q_transcript_refusals(sf_dir: str):
    """Boilerplate-refusal detection over assistant turns — the filter
    an SFT curation pass uses to drop or downweight canned refusals.
    The synthetic turns contain no refusal phrases, so markers are
    PLANTED deterministically (assistant turns with turn_idx % 23 == 7
    get a canned apology appended — inlined identically in the oracle,
    the dedup_incremental planting pattern).  One shuffle-free RE2 pass;
    both engines are RE2.  [SQL-verified]"""
    import pyarrow.compute as pc

    from lingua_ray.stages.scrub import refusal_batch

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "role", "text"])

    def prep(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.equal(batch.column("role"), "assistant"))
        if f.num_rows == 0:  # all-user/system block: typed empty, not a
            return pa.table({  # null-typed-literal ArrowNotImplementedError
                "conv_id": f.column("conv_id"),
                "turn_idx": f.column("turn_idx"),
                "text": pa.array([], type=pa.string())})
        planted = pa.array(
            f.column("turn_idx").to_numpy(zero_copy_only=False) % 23 == 7)
        base = pc.cast(pc.fill_null(f.column("text"), ""), pa.string())
        text = pc.if_else(
            planted,
            pc.binary_join_element_wise(
                base, pa.array([" I am sorry, I cannot help with that."]
                               * f.num_rows), ""),
            base)
        return pa.table({"conv_id": f.column("conv_id"),
                         "turn_idx": f.column("turn_idx"),
                         "text": text})

    out = ds.map_batches(prep, batch_format="pyarrow") \
        .map_batches(refusal_batch, batch_format="pyarrow")
    return out.select_columns(["conv_id", "turn_idx",
                               "n_refusal_markers", "is_refusal"])


def _q_transcript_validation(sf_dir: str):
    """Data-quality audit of the transcripts table: null-text turns,
    unknown roles, timestamp disorder within a conversation, duplicate
    (conv, turn) keys — the ingest gate a 100-TB transcript run fails
    fast on.  The clean fixture has zero violations, so each class is
    PLANTED deterministically (mutations first, then duplicate clones
    of the mutated rows — inlined identically in the oracle; disorder
    is counted on the pre-duplication table because LAG over duplicate
    ordinals is order-ambiguous).  Counters are per-block partials
    (one row per block per aggregate) + a key-hashed dup count; only
    12-byte keys ride the one shuffle.  [SQL-verified]"""
    import pyarrow.compute as pc

    def mutate(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column("turn_idx"), pa.int64()).to_numpy()
        role = pc.if_else(pa.array(t % 29 == 11),
                          pa.scalar("robot"),
                          pc.cast(batch.column("role"), pa.string()))
        text = pc.if_else(pa.array(t % 41 == 13),
                          pa.scalar(None, pa.string()),
                          pc.cast(batch.column("text"), pa.string()))
        tsu = batch.column("ts").cast(pa.int64()).to_numpy()
        tsu = np.where(t % 37 == 9, tsu - 3_600_000_000, tsu)
        return pa.table({"conv_id": batch.column("conv_id"),
                         "turn_idx": pa.array(t),
                         "role": role, "text": text,
                         "tsu": pa.array(tsu)})

    m = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "role",
                                   "text", "ts"]) \
        .map_batches(mutate, batch_format="pyarrow")

    def dup_clones(batch: pa.Table) -> pa.Table:
        t = batch.column("turn_idx").to_numpy()
        clone = batch.filter(pa.array(t % 31 == 5))
        return pa.concat_tables([batch, clone])

    full = m.map_batches(dup_clones, batch_format="pyarrow")

    def counters(batch: pa.Table) -> pa.Table:
        role = batch.column("role")
        bad = pc.sum(pc.cast(pc.invert(pc.is_in(
            role, value_set=pa.array(["user", "assistant", "system",
                                      "tool"]))), pa.int64())).as_py() or 0
        nulls = batch.column("text").null_count
        return pa.table({"g": pa.array([0], pa.int32()),
                         "n_turns": pa.array([batch.num_rows], pa.int64()),
                         "n_null_text": pa.array([nulls], pa.int64()),
                         "n_bad_role": pa.array([int(bad)], pa.int64())})

    bc_rows = (full.map_batches(counters, batch_format="pyarrow")
               .groupby("g").sum(["n_turns", "n_null_text",
                                  "n_bad_role"]).take_all())
    base_counts = bc_rows[0] if bc_rows else {
        "sum(n_turns)": 0, "sum(n_null_text)": 0, "sum(n_bad_role)": 0}

    from lingua_ray.stages.adjacency import adjacent_pairs
    pairs = adjacent_pairs(m.select_columns(["conv_id", "turn_idx",
                                             "tsu"]),
                           "conv_id", "turn_idx", ["tsu"],
                           bucket_size=_TURN_BUCKET)

    def disorder(batch: pa.Table) -> pa.Table:
        d = pc.sum(pc.cast(pc.greater(batch.column("prev_tsu"),
                                      batch.column("tsu")),
                           pa.int64())).as_py() or 0
        return pa.table({"g": pa.array([0], pa.int32()),
                         "n": pa.array([int(d)], pa.int64())})

    dis_rows = (pairs.map_batches(disorder, batch_format="pyarrow")
                .groupby("g").sum("n").take_all())
    n_disorder = dis_rows[0]["sum(n)"] if dis_rows else 0

    from lingua_ray.functions.textstats import fingerprint64_array

    def key_counts(batch: pa.Table) -> pa.Table:
        kh = fingerprint64_array(pc.binary_join_element_wise(
            pc.cast(batch.column("conv_id"), pa.string()),
            pc.cast(batch.column("turn_idx"), pa.string()),
            "\x00")).view(np.int64)
        uk, uc = np.unique(kh, return_counts=True)
        return pa.table({"kh": pa.array(uk),
                         "cnt": pa.array(uc.astype(np.int64))})

    dup_rows = (full.map_batches(key_counts, batch_format="pyarrow")
                .groupby("kh").sum("cnt"))

    def over_one(batch: pa.Table) -> pa.Table:
        c = batch.column("sum(cnt)").to_numpy()
        return pa.table({"g": pa.array([0], pa.int32()),
                         "n": pa.array([int((c > 1).sum())], pa.int64())})

    dk_rows = (dup_rows.map_batches(over_one, batch_format="pyarrow")
               .groupby("g").sum("n").take_all())
    n_dup = dk_rows[0]["sum(n)"] if dk_rows else 0

    return pa.table({
        "n_turns": pa.array([base_counts["sum(n_turns)"]], pa.int64()),
        "n_null_text": pa.array([base_counts["sum(n_null_text)"]],
                                pa.int64()),
        "n_bad_role": pa.array([base_counts["sum(n_bad_role)"]],
                               pa.int64()),
        "n_ts_disorder": pa.array([n_disorder], pa.int64()),
        "n_dup_keys": pa.array([n_dup], pa.int64())})


def _q_corpus_datacard(sf_dir: str):
    """One-row corpus data card — the summary a dataset release ships:
    doc/char/token totals, quality keep count (flags == 0 under the
    driver-verified quality kernel), exact-distinct text count, language
    count and majority language.  Three independent shuffle-light
    aggregates (per-block counter partials, a lang histogram, a
    fingerprint-keyed distinct count) combined into one row — the
    transcript_validation pattern over the documents table.
    [SQL-verified — reuses the quality-flag CTE verbatim]"""
    import pyarrow.compute as pc

    from lingua_ray.functions.textstats import fingerprint64_array
    from lingua_ray.stages.quality import quality_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def counters(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        keep = int(pc.sum(pc.cast(pc.equal(
            q.column("quality_flags"), 0), pa.int64())).as_py() or 0)
        col = pc.fill_null(batch.column("text"), "")
        chars = int(pc.sum(pc.utf8_length(col)).as_py() or 0)
        toks = int(pc.sum(pc.count_substring_regex(col, r"[^ ]+"))
                   .as_py() or 0)
        return pa.table({"g": pa.array([0], pa.int32()),
                         "n_docs": pa.array([batch.num_rows], pa.int64()),
                         "n_chars": pa.array([chars], pa.int64()),
                         "n_ws_tokens": pa.array([toks], pa.int64()),
                         "n_keep": pa.array([keep], pa.int64())})

    c_rows = (ds.map_batches(counters, batch_format="pyarrow")
              .groupby("g").sum(["n_docs", "n_chars", "n_ws_tokens",
                                 "n_keep"]).take_all())
    c = c_rows[0] if c_rows else {
        "sum(n_docs)": 0, "sum(n_chars)": 0, "sum(n_ws_tokens)": 0,
        "sum(n_keep)": 0}

    def lang_partial(batch: pa.Table) -> pa.Table:
        l = np.asarray(pc.fill_null(batch.column("lang"), "")
                       .to_numpy(zero_copy_only=False))
        ul, uc = np.unique(l, return_counts=True)
        return pa.table({"lang": pa.array(ul),
                         "n": pa.array(uc.astype(np.int64))})

    langs = (ds.map_batches(lang_partial, batch_format="pyarrow")
             .groupby("lang").sum("n").take_all())
    n_langs = len(langs)
    if langs:  # mode with lang-ascending tie-break
        top = max(r["sum(n)"] for r in langs)
        top_lang = min(r["lang"] for r in langs if r["sum(n)"] == top)
    else:
        top_lang = ""

    def fp_partial(batch: pa.Table) -> pa.Table:
        fp = np.unique(fingerprint64_array(batch.column("text"))
                       .view(np.int64))
        return pa.table({"fp": pa.array(fp)})

    def count_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"g": pa.array([0], pa.int32()),
                         "n": pa.array([batch.num_rows], pa.int64())})

    d_rows = (ds.map_batches(fp_partial, batch_format="pyarrow")
              .groupby("fp").count()
              .map_batches(count_rows, batch_format="pyarrow")
              .groupby("g").sum("n").take_all())
    n_distinct = d_rows[0]["sum(n)"] if d_rows else 0

    return pa.table({
        "n_docs": pa.array([c["sum(n_docs)"]], pa.int64()),
        "n_chars": pa.array([c["sum(n_chars)"]], pa.int64()),
        "n_ws_tokens": pa.array([c["sum(n_ws_tokens)"]], pa.int64()),
        "n_keep": pa.array([c["sum(n_keep)"]], pa.int64()),
        "n_distinct_texts": pa.array([n_distinct], pa.int64()),
        "n_langs": pa.array([n_langs], pa.int64()),
        "top_lang": pa.array([top_lang], pa.string())})


def _q_multilang_turns(sf_dir: str):
    """Mixed-language turn detection over transcripts: every turn
    through the multi-language section scorer (script-boundary split +
    per-section langid, models once per actor) — the per-turn analogue
    of ``multilang_documents``, surfacing code-switching INSIDE a turn
    (``conv_lang_switches`` covers switching ACROSS turns).  Shuffle-
    free.  [rows-only: langid is not SQL-expressible; the section
    machinery is gated by test_multilang.py's 110 ported rule cases]"""
    import pyarrow.compute as pc

    from lingua_ray.models import ensure_models
    from lingua_ray.multilang import MultiLangScorer

    ensure_models()
    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])
    ds = ds.map_batches(
        MultiLangScorer, batch_format="pyarrow", batch_size=256,
        concurrency=_langid_concurrency(_turn_rows(sf_dir),
                                        batch_size=256), num_cpus=1)

    def flatten(batch: pa.Table) -> pa.Table:
        secs = batch.column("sections")
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx"),
            "n_sections": pc.cast(pc.list_value_length(secs), pa.int64()),
            "first_lang": pa.array(
                [(row[0]["lang"] if row else "un")
                 for row in secs.to_pylist()], type=pa.string())})

    return ds.map_batches(flatten, batch_format="pyarrow")


def _q_conv_neardup(sf_dir: str):
    """Near-duplicate CONVERSATIONS: assemble each conversation's text
    in turn order, then the spilled-signature MinHash+LSH+verify plan of
    ``dedup_minhash`` over the assembled documents — retraining-set
    hygiene for agent transcripts, where whole sessions recur with tiny
    diffs (retries, timestamps).  Conversation bodies ride exactly one
    conv-keyed assembly shuffle; afterwards only 512-byte signatures and
    8-byte ids move.  [rows-only; planted near-dup pytest]"""
    import pyarrow.compute as pc
    import ray

    from lingua_ray.stages.assemble import assemble_conversations
    from lingua_ray.stages.dedup import (bucket_pairs_group, lsh_band_batch,
                                         minhash_signature_batch,
                                         verify_minhash_candidates)
    from lingua_ray.stages.spill import spill

    ds = ray.data.read_parquet(str(_transcripts_for_sf(sf_dir)),
                               columns=["conv_id", "turn_idx", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        """The synthetic conversations are all distinct, so near-dup
        sessions are planted deterministically (the dedup_incremental
        pattern): every conv with numeric id % 17 == 3 gets a clone at
        id + 10^8 whose FIRST turn is edited — a retry with a tweaked
        opening, near-identical thereafter."""
        num = pc.cast(pc.utf8_slice_codeunits(batch.column("conv_id"),
                                              4, 99), pa.int64())
        m = pa.array(num.to_numpy() % 17 == 3)
        f = batch.filter(m)
        if f.num_rows == 0:
            return batch
        fnum = pc.add(pc.cast(pc.utf8_slice_codeunits(
            f.column("conv_id"), 4, 99), pa.int64()), 100_000_000)
        cid = pc.binary_join_element_wise(
            pa.array(["conv"] * f.num_rows),
            pc.cast(fnum, pa.string()), "")
        first = pc.equal(f.column("turn_idx"), 0)
        base = pc.cast(f.column("text"), pa.string())
        text = pc.if_else(first,
                          pc.binary_join_element_wise(
                              base,
                              pa.array([" (retry attempt)"] * f.num_rows),
                              ""),
                          base)
        clone = pa.table({"conv_id": cid,
                          "turn_idx": f.column("turn_idx"),
                          "text": text})
        clone = clone.select(batch.column_names).cast(batch.schema)
        return pa.concat_tables([batch, clone])

    conv = assemble_conversations(ds.map_batches(plant,
                                                 batch_format="pyarrow"))

    def to_ids(batch: pa.Table) -> pa.Table:
        # conv_id = "conv%08d": numeric suffix → int64 so the pair
        # machinery shuffles 8-byte keys, not strings
        ids = pc.cast(pc.utf8_slice_codeunits(batch.column("conv_id"),
                                              4, 99), pa.int64())
        return pa.table({"doc_id": ids, "text": batch.column("text")})

    sig = conv.map_batches(to_ids, batch_format="pyarrow") \
        .map_batches(minhash_signature_batch, batch_format="pyarrow")
    sig = spill(sig, "convsig", Path(sf_dir).name,
                columns=["doc_id", "minhash"])
    bands = sig.map_batches(lsh_band_batch, batch_format="pyarrow")
    cand = bands.groupby(["band", "band_hash"]).map_groups(
        bucket_pairs_group, batch_format="pyarrow")
    cand = (cand.groupby(["doc_id", "dup_of"]).count()
                .select_columns(["doc_id", "dup_of"]))
    nparts = max(2, int(ray.cluster_resources().get("CPU", 4)) // 4)
    verified = verify_minhash_candidates(cand, sig, threshold=0.5,
                                         num_partitions=nparts)

    def back(batch: pa.Table) -> pa.Table:
        def name(col):
            return pc.binary_join_element_wise(
                pa.array(["conv"] * batch.num_rows),
                pc.utf8_lpad(pc.cast(col, pa.string()), 8, "0"), "")
        return pa.table({"conv_id": name(batch.column("doc_id")),
                         "dup_of": name(batch.column("dup_of")),
                         "jaccard_est": batch.column("jaccard_est")})

    def _min_verified(group):
        return group.sort_by([("dup_of", "ascending")]).slice(0, 1)

    return (verified.groupby("doc_id")
            .map_groups(_min_verified, batch_format="pyarrow")
            .map_batches(back, batch_format="pyarrow"))


def _q_conv_pack_assign(sf_dir: str):
    """Sequence packing: assign each conversation to a fixed-capacity
    training pack (8192 chars) by the running char total in conv_id
    order — the next-fit-with-splits packing a pretraining data loader
    uses to tile conversations into context windows deterministically.

    Per-block (conv, chars) partials → one tiny conv-keyed groupby →
    functions/prefix.py::global_cumsum (sample-partitioned exact prefix
    sum: boundaries from the data's own key sample affect load balance
    only, never values; one range-keyed shuffle of 24-byte rows).  Text
    never rides any exchange.  [SQL-verified — SUM OVER (ORDER BY) with
    integer division]"""
    import pyarrow.compute as pc

    from lingua_ray.functions.prefix import global_cumsum

    CAP = 8192
    ds = _read_transcripts(sf_dir, ["conv_id", "text"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "conv_id": batch.column("conv_id"),
            "n_chars": pc.cast(pc.utf8_length(
                pc.fill_null(batch.column("text"), "")), pa.int64())})
        return t.group_by("conv_id").aggregate(
            [("n_chars", "sum")]).rename_columns(["conv_id", "n_chars"])

    # global_cumsum consumes its input three times (key sample, range
    # totals, range shuffle); materializing here pins ONE 24-byte row per
    # conversation — a bounded aggregate, not the corpus — so the turns
    # table is scanned once instead of three times.
    totals = (ds.map_batches(partials, batch_format="pyarrow")
                .groupby("conv_id").sum("n_chars")
                .rename_columns(["conv_id", "n_chars"])).materialize()
    cum = global_cumsum(totals, "conv_id", "n_chars")

    def final(batch: pa.Table) -> pa.Table:
        excl = pc.subtract(batch.column("cum"), batch.column("n_chars"))
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "n_chars": batch.column("n_chars"),
            "pack_id": pc.divide(excl, pa.scalar(CAP, pa.int64()))})

    return cum.map_batches(final, batch_format="pyarrow")


def _q_conv_quality_rollup(sf_dir: str):
    """Conversation-level verdict over the scored transcript turns:
    dominant language, kept-turn fraction, conversation keep decision
    (pipelines.quality_filter.conversation_rollup).  [rows-only — inputs
    are langid model outputs; pandas-oracle tested in test_pipeline.py]"""
    from lingua_ray.models import ensure_models
    from lingua_ray.pipelines.quality_filter import (PipelineOptions,
                                                     apply_stages,
                                                     conversation_rollup)
    ensure_models()
    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])
    scored = apply_stages(ds, PipelineOptions(
        langid_concurrency=_langid_concurrency()))
    return conversation_rollup(scored)


def _langid_concurrency(n_rows: int | None = None,
                        batch_size: int = 2048) -> int:
    """How many langid batches score at once: scales with the session's
    CPUs (~7/8, the measured optimum) instead of a hard-coded constant
    that starves a 32-CPU node (round-1 verdict), but never more than
    there are batches to score."""
    import ray
    cpus = int(ray.cluster_resources().get("CPU", 4))
    by_cpu = max(2, cpus * 7 // 8)
    if n_rows is None:
        return by_cpu
    by_data = max(1, -(-n_rows // batch_size))
    return min(by_cpu, by_data)   # by_data caps at 1 for one-batch inputs


def _doc_rows(sf_dir: str) -> int:
    return pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows


def _turn_rows(sf_dir: str) -> int:
    """Transcript fixture row count (the _transcripts_for_sf sizing
    formula) without generating the fixture."""
    return max(2000, _doc_rows(sf_dir) * 12)


def _q_langid_documents(sf_dir: str):
    """Language-ID over the documents table.  [rows-only]"""
    from lingua_ray.models import ensure_models
    from lingua_ray.stages.langid import map_langid
    ensure_models()
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = map_langid(ds, _langid_concurrency(_doc_rows(sf_dir)),
                    text_col="text", with_ppl=True)
    return ds.select_columns(["doc_id", "lang", "lang_confidence", "ppl"])


def _q_langid_confidences(sf_dir: str):
    """Top-3 per-document confidence values as a
    list<struct<lang, score>> column — the reference's sorted confidence
    map (computeLanguageConfidenceValues) as a Ray column.  [rows-only;
    pytest gates ordering + tie-break vs the scalar oracle]"""
    from lingua_ray.models import ensure_models
    from lingua_ray.stages.langid import map_langid
    ensure_models()
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = map_langid(ds, _langid_concurrency(_doc_rows(sf_dir)),
                    text_col="text", with_ppl=False, top_k_confidences=3)

    def flatten(batch: pa.Table) -> pa.Table:
        # nested list<struct> flattened to scalar columns for the driver's
        # sorted-value compare — all-Arrow: per-rank gather from the list
        # child via offset arithmetic, masked where the list is shorter
        cols = {"doc_id": batch.column("doc_id"),
                "lang": batch.column("lang")}
        conf = batch.column("confidences").combine_chunks()
        # .values + raw offsets are the always-consistent pair (flatten()
        # would rebase under slices); null lists are masked out below
        child = conf.values
        offs = conf.offsets.to_numpy().astype(np.int64)
        n = np.diff(offs)
        valid = np.asarray(conf.is_valid())
        langs, scores = child.field("lang"), child.field("score")
        for rank in range(3):
            ok = (n > rank) & valid
            idx = pa.array(offs[:-1] + rank, mask=~ok)
            cols[f"lang_{rank + 1}"] = langs.take(idx)
            cols[f"score_{rank + 1}"] = scores.take(idx).cast(pa.float64())
        return pa.table(cols)

    return ds.map_batches(flatten, batch_format="pyarrow")


def _q_doc_quality(sf_dir: str):
    """Heuristic quality metrics + flags.  [SQL-verified]"""
    from lingua_ray.stages.quality import quality_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(quality_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_chars", "n_words", "n_alpha",
                              "n_digits", "n_logograms", "n_distinct_words",
                              "quality_flags"])


def _q_gopher_filter(sf_dir: str):
    """Consolidated Gopher quality rules (word-count bounds, mean word
    length, symbol ratio, alpha-word fraction, required stopwords) as
    integer signals + the keep decision — one shuffle-free pass.  The
    synthetic corpus carries at most one of the 8 Gopher required
    stopwords per doc, so this query sets min_req_stopwords=1 (and keeps
    the canonical 50-word floor) to exercise every rule with real
    variation; thresholds are integer comparisons, so the oracle matches
    bit-for-bit.  [SQL-verified]"""
    from lingua_ray.stages.quality import gopher_signals_batch

    def fn(batch):
        return gopher_signals_batch(batch, min_req_stopwords=1)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(fn, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_words", "n_alpha_words",
                              "n_req_stopwords", "n_symbols",
                              "gopher_keep"])


_BM25_TERMS = ("scan", "merge", "window", "batch", "vector")


def _q_bm25_topk(sf_dir: str):
    """Top-50 documents by BM25 (k1=1.2, b=0.75, Lucene idf) against a
    fixed broadcast term set — ranked retrieval for curriculum /
    contamination scoring.  Stats pass ships ≤ |Q|+1 rows per block;
    score pass is shuffle-free; top-k cut on the rounded score with
    doc-id tie-break so both engines agree at the boundary.
    [SQL-verified]"""
    from lingua_ray.stages.bm25 import bm25_topk
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(ds, _BM25_TERMS, k=50)


def _q_ccnet_buckets(sf_dir: str):
    """CCNet-style per-language quality bucketing (Wenzek et al. 2020):
    every document ranked within its language by a quality score (word
    entropy, richer = better — the sandbox stand-in for LM perplexity,
    same plan) and cut into head/middle/tail terciles.  Uses the
    partitioned row_number/ntile primitive: sampled range boundaries on
    the composite (lang, score, id) key, per-(range, lang) offset table,
    ONE range-keyed shuffle of 24-byte triples — no global sort, no
    bounded-score-cardinality assumption, text never rides the exchange.
    [SQL-verified — NTILE semantics reproduced exactly]"""
    from lingua_ray.functions.rank import partitioned_row_number
    from lingua_ray.stages.quality import entropy_batch

    def score(batch: pa.Table) -> pa.Table:
        b = entropy_batch(batch)
        su = np.rint(b.column("entropy").to_numpy() * 1e6).astype(np.int64)
        # rank DESC on entropy (head = richest) = ASC on the negation
        return pa.table({"doc_id": b.column("doc_id"),
                         "lang": b.column("lang"),
                         "neg_score": pa.array(-su)})

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    scored = ds.map_batches(score, batch_format="pyarrow")
    # spill_input: the rank primitive reads its input 3x; spill the
    # scored triples once so the entropy pass doesn't re-run per pass
    ranked = partitioned_row_number(scored, "lang", "neg_score", "doc_id",
                                    ntile=3, spill_input=Path(sf_dir).name)

    def label(batch: pa.Table) -> pa.Table:
        tile = batch.column("tile").to_numpy()
        names = np.array(["head", "middle", "tail"])
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
            "score_u": pa.array(-batch.column("neg_score").to_numpy()),
            "rn": batch.column("rn"),
            "bucket": pa.array(names[tile - 1])})

    return ranked.map_batches(label, batch_format="pyarrow")


def _q_nb_lang_classify(sf_dir: str):
    """Train a multinomial Naive Bayes language classifier on the corpus
    (md5-hashed bag-of-words, add-one smoothing) and classify every
    document — distributed training is ONE sparse-count combiner + tiny
    groupby (≤ labels × buckets rows per block, tokens never ride);
    inference is shuffle-free with the broadcast log-prob matrix.
    Argmax on the rounded score with label-asc tie-break keeps both
    engines on the same winner at float boundaries.  [SQL-verified]"""
    from lingua_ray.stages.nbayes import nb_classify
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return nb_classify(ds, "lang")


def _q_bm25_indexed(sf_dir: str):
    """BM25 against a PERSISTED df index: build once (hive-partitioned
    by word-hash bucket, meta-as-commit-marker), then probe reading ONLY
    the query terms' bucket directories — repeated query sets skip the
    corpus stats pass entirely.  Same scores as ``bm25_topk``, so the
    same oracle gates it.  Index lives under the shared spill lifecycle
    (per-(sf, pid), cleared up front, stale-pid sweep).  [SQL-verified]"""
    from lingua_ray.stages.bm25 import bm25_query_index, build_bm25_index
    from lingua_ray.stages.spill import spill_path

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    idx = spill_path("bm25idx", Path(sf_dir).name)
    build_bm25_index(ds, idx)
    return bm25_query_index(ds, idx, _BM25_TERMS, k=50)


def _q_ccnet_ppl_buckets(sf_dir: str):
    """CCNet head/middle/tail with the REAL perplexity: the langid
    stage's fused char-trigram ppl scores every document, then the same
    partitioned ntile primitive cuts per-LANGUAGE terciles (lower ppl =
    better = head, CCNet's actual recipe — ``ccnet_buckets`` is the
    SQL-verifiable entropy twin of this query and gates the ntile
    machinery).  ppl is quantized to micro-units for exact rank
    ordering; detected (not labeled) language partitions the window.
    [rows-only: the ppl model is not SQL-expressible; ntile semantics
    are DuckDB-verified via ccnet_buckets + test_rank.py]"""
    from lingua_ray.functions.rank import partitioned_row_number
    from lingua_ray.models import ensure_models
    from lingua_ray.stages.langid import map_langid

    ensure_models()
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    scored = map_langid(ds, _langid_concurrency(_doc_rows(sf_dir)),
                        text_col="text", with_ppl=True)

    def quantize(batch: pa.Table) -> pa.Table:
        p = batch.column("ppl").to_numpy()
        # non-finite ppl (empty/no-letter docs) ranks worst, determinately
        pu = np.where(np.isfinite(p), p * 1e6, np.float64(2**62))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "lang": batch.column("lang"),
                         "ppl_u": pa.array(np.rint(pu).astype(np.int64))})

    ranked = partitioned_row_number(
        scored.map_batches(quantize, batch_format="pyarrow"),
        "lang", "ppl_u", "doc_id", ntile=3,
        spill_input=Path(sf_dir).name + "-ppl")

    def label(batch: pa.Table) -> pa.Table:
        names = np.array(["head", "middle", "tail"])
        tile = batch.column("tile").to_numpy()
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
            "ppl_u": batch.column("ppl_u"),
            "rn": batch.column("rn"),
            "bucket": pa.array(names[tile - 1])})

    return ranked.map_batches(label, batch_format="pyarrow")


def _q_nb_confusion(sf_dir: str):
    """Confusion matrix of the Naive Bayes language classifier — the
    eval-metrics rollup a model-quality dashboard needs, computed at
    corpus scale: classify (shuffle-free, broadcast model, truth kept)
    → per-block (truth, pred, n) combiner → one tiny groupby (≤ labels²
    rows ride the exchange).  [SQL-verified]"""
    from lingua_ray.stages.nbayes import nb_classify

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    pred = nb_classify(ds, "lang", keep_label=True)

    def confusion_partial(batch: pa.Table) -> pa.Table:
        truth = np.asarray(batch.column("lang")
                           .to_numpy(zero_copy_only=False))
        p = np.asarray(batch.column("pred_lang")
                       .to_numpy(zero_copy_only=False))
        key = np.char.add(np.char.add(truth.astype(str), "\x00"),
                          p.astype(str))
        uk, idx, uc = np.unique(key, return_index=True,
                                return_counts=True)
        return pa.table({"lang": pa.array(truth[idx]),
                         "pred_lang": pa.array(p[idx]),
                         "n": pa.array(uc.astype(np.int64))})

    out = (pred.map_batches(confusion_partial, batch_format="pyarrow")
           .groupby(["lang", "pred_lang"]).sum("n"))

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({"lang": batch.column("lang"),
                         "pred_lang": batch.column("pred_lang"),
                         "n": batch.column("sum(n)")})

    return out.map_batches(final, batch_format="pyarrow")


def _q_dsir_select(sf_dir: str):
    """DSIR importance resampling (arXiv:2302.03169): select the 100 raw
    documents that look most like the lang='en' target under hashed-
    unigram bag LMs — md5-bucketed features (1024 buckets, SQL-parity),
    add-one smoothing, Gumbel top-k with the shared md5-of-id consistent
    uniform.  Count pass ships ≤ 1024 sparse rows per block; score pass
    is shuffle-free; k-safe tree-reduce cut on the rounded score.
    [SQL-verified]"""
    from lingua_ray.stages.dsir import dsir_select
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return dsir_select(ds, "lang", "en", k=100)


def _q_doc_scrub(sf_dir: str):
    """PII scrub + toxicity count.  [SQL-verified — both engines are RE2]"""
    from lingua_ray.stages.scrub import scrub_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(scrub_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "pii_email", "pii_ip", "pii_ssn",
                              "pii_cc", "pii_phone", "tox_count",
                              "scrubbed_text"])


def _q_doc_tokens(sf_dir: str):
    """Token counting (BPE-ish regex + whitespace).  [SQL-verified]"""
    from lingua_ray.functions.textstats import token_count_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_tokens", "n_ws_tokens"])


def _q_doc_fingerprint(sf_dir: str):
    """Document fingerprinting (md5).  [SQL-verified]"""
    from lingua_ray.functions.textstats import fingerprint_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(fingerprint_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "fingerprint"])


# Boilerplate paragraphs planted by the para_dedup query (the synthetic
# documents have no newlines, so cross-document duplicate paragraphs are
# planted deterministically — same prep inlined into the oracle SQL).
_PD_B1 = "subscribe to our newsletter for daily updates"
_PD_B2 = "copyright all rights reserved"


def _pd_plant(batch):
    """Append boilerplate para 1 to docs with doc_id%3==0 and boilerplate
    para 2 to docs with doc_id%4==0 (some docs get both, order B1 then
    B2)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    did = batch.column("doc_id").to_numpy(zero_copy_only=False)
    t = pc.fill_null(batch.column("text"), "")
    nl = pa.scalar("\n")
    t = pc.if_else(pa.array(did % 3 == 0),
                   pc.binary_join_element_wise(t, pa.scalar(_PD_B1), nl), t)
    t = pc.if_else(pa.array(did % 4 == 0),
                   pc.binary_join_element_wise(t, pa.scalar(_PD_B2), nl), t)
    i = batch.schema.get_field_index("text")
    return batch.set_column(i, "text", t)


def _q_para_dedup(sf_dir: str):
    """Paragraph-level exact dedup (RefinedWeb/C4 style): every repeated
    paragraph keeps only its first occurrence by (doc_id, para_idx) and
    documents are rewritten from the survivors — text crosses the wire
    exactly once (see stages/paradedup.py).  [SQL-verified]"""
    from lingua_ray.stages.paradedup import paragraph_dedup
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(_pd_plant, batch_format="pyarrow")
    return paragraph_dedup(ds).select_columns(["doc_id", "text"])


def _para_dedup_sql() -> str:
    return f"""
    WITH prepped AS (
      SELECT doc_id,
        CASE WHEN doc_id % 3 = 0
             THEN coalesce(text, '') || chr(10) || '{_PD_B1}'
             ELSE coalesce(text, '') END
        || CASE WHEN doc_id % 4 = 0 THEN chr(10) || '{_PD_B2}'
                ELSE '' END AS text
      FROM documents),
    split AS (
      SELECT doc_id, string_split(text, chr(10)) AS parts FROM prepped),
    paras AS (
      SELECT doc_id,
             CAST(unnest(range(length(parts))) AS BIGINT) AS para_idx,
             unnest(parts) AS p
      FROM split),
    flagged AS (
      SELECT doc_id, para_idx, p,
        row_number() OVER (PARTITION BY p ORDER BY doc_id, para_idx) AS rn,
        length(p) AS len
      FROM paras)
    SELECT doc_id,
      coalesce(string_agg(p, chr(10) ORDER BY para_idx)
               FILTER (WHERE rn = 1 OR len < 1), '') AS text
    FROM flagged GROUP BY doc_id
    """


def _q_doc_stopwords(sf_dir: str):
    """English stopword counts per document (integer-exact; ratio =
    n_stopwords / n_words_total downstream) — the Gopher-style
    function-word quality signal.  [SQL-verified — the identical frozen
    stopword list is inlined in the oracle]"""
    from lingua_ray.stages.quality import stopword_ratio_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(stopword_ratio_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_stopwords", "n_words_total"])


def _q_word_counts(sf_dir: str):
    """Top-100 corpus word frequencies — the canonical combiner pattern:
    per-batch partial counts (one row per distinct word per batch on the
    wire) → groupby sum → per-block top-k → tiny driver merge.  Ties break
    (count desc, word asc) in both engines.  [SQL-verified]"""
    from lingua_ray.functions.textstats import word_counts_topk
    ds = _read(sf_dir, "documents", columns=["text"])
    return word_counts_topk(ds, k=100)


def _q_doc_shuffle(sf_dir: str):
    """Deterministic global shuffle for training-data sharding: bucket =
    md5 first byte (ONE 256-way hash shuffle), within-bucket (digest,
    id) order; bucket-major + pos-minor IS the md5 permutation.
    [SQL-verified]"""
    from lingua_ray.stages.shuffle import deterministic_shuffle
    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return deterministic_shuffle(ds)


def _q_doc_length_rank(sf_dir: str):
    """Global row_number + decile (ntile 10) under (n_chars, doc_id)
    order — rank decomposed into broadcast histogram base + within-value
    tie rank, one 16-byte-pair shuffle, no global sort.  [SQL-verified]"""
    from lingua_ray.functions.rank import global_row_number
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return global_row_number(ds, "n_chars", "doc_id", ntile=10)


def _q_doc_length_pctrank(sf_dir: str):
    """percent_rank() over document lengths without a sort: broadcast
    cumulative histogram + shuffle-free searchsorted lookup.
    [SQL-verified]"""
    from lingua_ray.functions.quantiles import percent_rank_column
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return percent_rank_column(ds, "n_chars")


def _q_bigram_pmi(sf_dir: str):
    """Bigram PMI collocations (count ≥ 5): bigram/unigram combiners →
    two vocabulary-bounded groupbys → broadcast unigram table →
    shuffle-free scoring actors.  [SQL-verified]"""
    from lingua_ray.functions.collocations import pmi_bigrams
    ds = _read(sf_dir, "documents", columns=["text"])
    return pmi_bigrams(ds, min_count=5)


def _q_doc_chunks(sf_dir: str):
    """Overlapping fixed-size chunking (500 chars / 400 stride) —
    shuffle-free flat-map, kernel vectorized per chunk level.
    [SQL-verified]"""
    from lingua_ray.stages.chunking import chunk_documents
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return chunk_documents(ds, chunk_chars=500, stride=400)


def _q_word_heavy_hitters(sf_dir: str):
    """EXACT top-50 corpus words via a Misra-Gries sketch pipeline: per-
    block k-counter summaries (≤ k+1 rows leave each block, independent
    of vocabulary) certify a candidate set, which a broadcast recount
    pass counts exactly — the full-vocabulary shuffle of word_counts is
    replaced by a sketch exchange + a tiny certified recount.
    [SQL-verified]"""
    from lingua_ray.functions.sketches import heavy_hitters
    ds = _read(sf_dir, "documents", columns=["text"])
    return heavy_hitters(ds, m=50, k=4096)


def _q_source_kl(sf_dir: str):
    """Per-source KL(source ‖ pooled corpus) over word distributions —
    corpus drift diagnostic; everything after the combiner is
    vocabulary-bounded.  [SQL-verified]"""
    from lingua_ray.functions.divergence import source_kl
    ds = _read(sf_dir, "documents", columns=["source", "text"])
    return source_kl(ds)


def _q_doc_budget_selection(sf_dir: str):
    """Greedy data selection under a global cost budget (half the corpus
    chars, longest-first): the boundary score comes from a tiny
    histogram cumsum — no global sort; only the single boundary bucket
    is id-tie-broken.  [SQL-verified]"""
    from lingua_ray.functions.budget import select_under_budget
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    total = int(ds.sum("n_chars") or 0)

    def cols(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("doc_id"),
                         "score": batch.column("n_chars"),
                         "cost": batch.column("n_chars")})

    prepared = ds.map_batches(cols, batch_format="pyarrow")
    return select_under_budget(prepared, "score", "cost", total // 2)


def _q_clean_corpus_stats(sf_dir: str):
    """End-to-end composition: quality filter (flags == 0) → exact
    dedup on the text fingerprint (first occurrence wins) → per-language
    survivor counts.  Text never shuffles — the dedup key is the 8-byte
    fingerprint; the argmin combiner ships ≤ one row per fingerprint per
    block.  [SQL-verified]"""
    from lingua_ray.functions.argmax import first_per_key
    from lingua_ray.functions.textstats import fingerprint64_array
    from lingua_ray.stages.quality import quality_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    clean = ds.map_batches(quality_batch, batch_format="pyarrow") \
        .filter(expr="quality_flags == 0")

    def fp(batch: pa.Table) -> pa.Table:
        fps = fingerprint64_array(batch.column("text"))
        return pa.table({
            "fp": pa.array(fps.view(np.int64)),
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
        })

    keep = first_per_key(clean.map_batches(fp, batch_format="pyarrow"),
                         "fp", ["doc_id"])
    return keep.groupby("lang").count().rename_columns(
        {"count()": "n_docs"})


# Docs per posting-list shard: the skew bound for the inverted index.
# A stopword appears in ~every document, so a plain groupby("word")
# hands one task a group of df(word) rows — O(n_docs) for stopwords.
# Sharding the shuffle key to (word, doc_id // SHARD) caps every
# stage-1 group at SHARD distinct docs regardless of df; stage 2 then
# touches <= n_docs/SHARD pre-sorted shard rows per word.  Small here so
# the test corpora exercise the multi-shard path; production sets ~1e6.
_INVIDX_DOC_SHARD = 128


def _q_inverted_index(sf_dir: str):
    """Search-index build, two-level to kill stopword skew: distinct
    (word, doc_id) pairs in the combiner → ONE (word, doc-range-shard)
    keyed shuffle where every group is ≤ _INVIDX_DOC_SHARD docs → ONE
    word-keyed concat over the ≤ n_docs/SHARD shard rows per word
    (shards are disjoint doc ranges, so shard-ordered concat IS the
    globally sorted posting list and dfs add exactly).  Emitted as a
    comma-joined string so both engines hash it identically.
    [SQL-verified]"""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def pairs(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        col = pc.fill_null(batch.column("text"), "")
        words = pc.split_pattern(col, " ").combine_chunks()
        n_per = np.diff(words.offsets.to_numpy().astype(np.int64))
        flat = pc.list_flatten(words)
        ids = batch.column("doc_id").take(
            pa.array(np.repeat(np.arange(batch.num_rows), n_per)))
        t = pa.table({"word": flat, "doc_id": ids})
        g = pa.TableGroupBy(t, ["word", "doc_id"]).aggregate([])
        shard = pc.divide(g.column("doc_id"),
                          pa.scalar(_INVIDX_DOC_SHARD, pa.int64()))
        return g.append_column("shard", shard)

    def shard_postings(group: pa.Table) -> pa.Table:
        ids = np.unique(group.column("doc_id").to_numpy())
        return pa.table({
            "word": group.column("word").slice(0, 1),
            "shard": group.column("shard").slice(0, 1),
            "df": pa.array([len(ids)], pa.int64()),
            "postings": pa.array([",".join(map(str, ids))], pa.string()),
        })

    def concat_shards(group: pa.Table) -> pa.Table:
        g = group.sort_by("shard")
        return pa.table({
            "word": g.column("word").slice(0, 1),
            "df": pa.array([int(pc.sum(g.column("df")).as_py())],
                           pa.int64()),
            "postings": pa.array(
                [",".join(g.column("postings").to_pylist())], pa.string()),
        })

    import pyarrow.compute as pc
    return ds.map_batches(pairs, batch_format="pyarrow") \
        .groupby(["word", "shard"]).map_groups(shard_postings,
                                               batch_format="pyarrow") \
        .groupby("word").map_groups(concat_shards, batch_format="pyarrow")


def _q_word_counts_by_lang(sf_dir: str):
    """Per-language top-10 words: (lang, word) count combiner → ONE
    multi-key groupby → per-lang top-k in map_groups (group = one
    language's vocabulary, bounded).  [SQL-verified]"""
    from lingua_ray.functions.divergence import source_word_counts
    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    grouped = ds.map_batches(source_word_counts, batch_format="pyarrow",
                             fn_kwargs={"key_col": "lang"}) \
        .groupby(["lang", "word"]).sum("n").rename_columns({"sum(n)": "n"})

    def topk(group: pa.Table) -> pa.Table:
        return group.sort_by([("n", "descending"),
                              ("word", "ascending")]).slice(0, 10)

    return grouped.groupby("lang").map_groups(topk,
                                              batch_format="pyarrow")


def _q_jsonl_roundtrip(sf_dir: str):
    """Sink/source fidelity: documents → streaming JSONL shards under
    /tmp → read back with column pruning.  Values must hash-match the
    parquet originals (the oracle reads parquet directly).
    [SQL-verified]"""
    from lingua_ray.sources.interchange import read_jsonl, write_jsonl
    import hashlib
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/lingua_ray/jsonl-{tag}"
    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "source", "n_chars"])
    write_jsonl(ds, out)
    return read_jsonl(out, columns=["doc_id", "lang", "source", "n_chars"])


def _q_csv_roundtrip(sf_dir: str):
    """Same fidelity check through the CSV sink/source.  [SQL-verified]"""
    from lingua_ray.sources.interchange import read_csv, write_csv
    import hashlib
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/lingua_ray/csv-{tag}"
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    write_csv(ds, out)
    return read_csv(out, columns=["doc_id", "lang", "n_chars"])


def _q_doc_validation(sf_dir: str):
    """Data-quality audit: per-source violation counters (empty text,
    null lang, length mismatch vs n_chars, out-of-range n_chars) — one
    combiner pass, tiny groupby.  [SQL-verified]"""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        text = batch.column("text")
        nc = batch.column("n_chars").to_numpy().astype(np.int64)
        real_len = pc.utf8_length(pc.fill_null(text, "")).to_numpy() \
            .astype(np.int64)
        empty = (pc.is_null(text).to_numpy(zero_copy_only=False)
                 | (real_len == 0))
        null_lang = pc.is_null(batch.column("lang")).to_numpy(
            zero_copy_only=False)
        len_mismatch = real_len != nc
        out_of_range = (nc < 0) | (nc > 1_000_000)
        t = pa.table({
            "source": batch.column("source"),
            "n_rows": pa.array(np.ones(batch.num_rows, np.int64)),
            "n_empty": pa.array(empty.astype(np.int64)),
            "n_null_lang": pa.array(null_lang.astype(np.int64)),
            "n_len_mismatch": pa.array(len_mismatch.astype(np.int64)),
            "n_out_of_range": pa.array(out_of_range.astype(np.int64)),
        })
        g = pa.TableGroupBy(t, ["source"]).aggregate(
            [(c, "sum") for c in ("n_rows", "n_empty", "n_null_lang",
                                  "n_len_mismatch", "n_out_of_range")])
        return g.rename_columns(["source", "n_rows", "n_empty",
                                 "n_null_lang", "n_len_mismatch",
                                 "n_out_of_range"])

    ds = _read(sf_dir, "documents",
               columns=["source", "text", "lang", "n_chars"])
    aggs = [Sum(c) for c in ("n_rows", "n_empty", "n_null_lang",
                             "n_len_mismatch", "n_out_of_range")]
    out = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("source").aggregate(*aggs)
    return out.rename_columns(
        {f"sum({c})": c for c in ("n_rows", "n_empty", "n_null_lang",
                                  "n_len_mismatch", "n_out_of_range")})


def _q_ngram_counts(sf_dir: str):
    """Top-20 character trigrams per language — the distributed n-gram
    counting shape behind model training: per-batch combiner (distinct
    (lang, ngram) partial counts on the wire, never per-window rows) →
    ONE lang-keyed groupby → per-language exact top-k with deterministic
    (cnt desc, ngram asc) tie-break.  [SQL-verified]"""
    from lingua_ray.functions.ngrams import char_ngram_topk
    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    return char_ngram_topk(ds, n=3, k=20)


def _q_train_ngrams(sf_dir: str):
    """Distributed model training (the reference's createLanguageModels
    task as a Ray pipeline): Dataset[(lang, text)] → per-language sorted
    (n, hash, conditional frequency) model rows.  Bit-identical to the
    single-process trainer (pytest-gated).  [rows-only — hash-keyed, no
    SQL analogue; cites GenerateLanguageModelsTask.kt:145-199]"""
    from lingua_ray.functions.ngrams import train_distributed
    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    out = train_distributed(ds)
    # int64 view of the uint64 hash for a driver-stable output schema
    def to_int64(batch: pa.Table) -> pa.Table:
        if "hash" not in batch.column_names:  # Ray's schema-less empty blocks
            return batch
        h = np.asarray(batch.column("hash").to_numpy(zero_copy_only=False),
                       dtype=np.uint64).view(np.int64)
        return batch.set_column(batch.schema.get_field_index("hash"),
                                "hash", pa.array(h, type=pa.int64()))
    return out.map_batches(to_int64, batch_format="pyarrow")


def _q_seq_packing(sf_dir: str):
    """Sequence packing: documents → ≤256-token training bins (next-fit,
    block-local, zero shuffle; bin id = first doc id in the bin so ids
    are globally unique with no coordination).  [rows-only — sequential
    recurrence, not SQL-expressible; invariants pytest-gated]"""
    from lingua_ray.functions.textstats import token_count_batch
    from lingua_ray.stages.packing import pack_sequences
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow")
    out = pack_sequences(ds, cap=256, tokens_col="n_ws_tokens")
    return out.select_columns(["doc_id", "n_ws_tokens", "bin_id",
                               "bin_fill"])


def _q_seq_packing_by_lang(sf_dir: str):
    """Language-homogeneous sequence packing: bins never mix languages
    (ONE lang-keyed shuffle, then the block-local next-fit kernel).
    [rows-only: bin assignment is an algorithmic layout, not SQL;
    invariants hypothesis-tested in test_packing.py]"""
    from lingua_ray.functions.textstats import token_count_batch
    from lingua_ray.stages.packing import pack_sequences_grouped
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow")
    ds = ds.select_columns(["doc_id", "lang", "n_tokens"])
    return pack_sequences_grouped(ds, cap=2048, group_col="lang")


def _q_corpus_mix(sf_dir: str):
    """Weighted corpus mixing: three virtual sources (doc_id mod 3)
    hash-sampled at rates 1.0 / 0.5 / 0.25 and unioned with a source
    label — deterministic md5 thresholds, zero shuffle, Dataset.union.
    [SQL-verified]"""
    import pyarrow.compute as pc

    from lingua_ray.stages.sampling import mix_corpora

    def src(mod: int):
        ds = _read(sf_dir, "documents", columns=["doc_id"])

        def f(batch: pa.Table, _m=mod) -> pa.Table:
            ids = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy()
            return batch.filter(pa.array(ids % 3 == _m))

        return ds.map_batches(f, batch_format="pyarrow")

    out = mix_corpora([("s0", src(0), 1.0), ("s1", src(1), 0.5),
                       ("s2", src(2), 0.25)])
    return out.select_columns(["source", "doc_id"])


def _q_doc_tfidf(sf_dir: str):
    """Per-document TF-IDF score: DF combiner → groupby sum → broadcast
    vocabulary → shuffle-free scoring pass.  [SQL-verified — score
    rounded to 6 decimals in both engines]"""
    from lingua_ray.stages.tfidf import tfidf_scores
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    out = tfidf_scores(ds, n_docs=n_docs)
    return out.select_columns(["doc_id", "tfidf"])


def _q_stratified_sample(sf_dir: str):
    """20 documents per language by consistent md5-of-id rank —
    reproducible stratified subsampling whose shuffle carries at most
    k rows per (language, batch) regardless of corpus size.
    [SQL-verified]"""
    from lingua_ray.stages.sampling import stratified_sample
    ds = _read(sf_dir, "documents", columns=["lang", "doc_id"])
    return stratified_sample(ds, key_col="lang", k=20, id_col="doc_id")


def _q_weighted_sample(sf_dir: str):
    """100 documents by weighted sampling WITHOUT replacement
    (Efraimidis–Spirakis exponential keys, weight = n_chars, uniforms
    derived from md5-of-id so the draw is consistent across runs,
    partitionings and cluster sizes).  Column-pruned to (doc_id,
    n_chars); shuffle carries ≤ k rows per batch.  [SQL-verified —
    DuckDB reproduces the key byte-for-byte]"""
    from lingua_ray.stages.sampling import weighted_sample
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return weighted_sample(ds, k=100, weight_col="n_chars",
                           id_col="doc_id")


def _q_weighted_sample_by_lang(sf_dir: str):
    """20 documents per language by weighted sampling without
    replacement (Efraimidis–Spirakis, weight = n_chars, md5-of-id
    consistent uniforms) — the per-stratum weighted draw a
    temperature-mixed multilingual sampler makes.  Combiner keeps ≤ k
    rows per (lang, batch) on the wire.  [SQL-verified — DuckDB
    reproduces the key byte-for-byte]"""
    from lingua_ray.stages.sampling import weighted_sample_by_key
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return weighted_sample_by_key(ds, "lang", k=20, weight_col="n_chars")


def _q_doc_split(sf_dir: str):
    """Deterministic 80/10/10 train/val/test split by md5 threshold
    bands — shuffle-free, stable across partitionings; thresholds
    inlined identically into the oracle.  [SQL-verified]"""
    from lingua_ray.stages.sampling import split_assign
    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return split_assign(ds, {"train": 0.8, "val": 0.1, "test": 0.1})


def _q_contamination(sf_dir: str):
    """Benchmark-contamination check: every document tagged with its
    distinct word-8-gram count and how many of those appear in the
    benchmark set (docs with doc_id % 97 == 0 stand in for an eval set).
    Broadcast-small-side plan: the benchmark hash array ships via
    ``ray.put`` once, the corpus never shuffles.  [SQL-verified]"""
    from lingua_ray.stages.contamination import contamination_check
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def bench_filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = pc.equal(pc.cast(batch.column("doc_id"), pa.int64())
                        .to_numpy() % 97, 0)
        return batch.filter(pa.array(keep))

    bench = ds.map_batches(bench_filter, batch_format="pyarrow")
    out = contamination_check(ds, bench, n=8)
    return out.select_columns(["doc_id", "n_ngrams", "n_hits"])


def _q_line_dedup(sf_dir: str):
    """C4-style boilerplate line removal: lines present in >= 5 distinct
    documents (planted nav/footer lines via the para_dedup planting rule)
    are stripped from every document; fully-boilerplate documents drop
    out.  Census-combiner + broadcast apply — the corpus text never
    shuffles (stages/paradedup.py::remove_frequent_lines).
    [SQL-verified]"""
    from lingua_ray.stages.paradedup import remove_frequent_lines
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(_pd_plant, batch_format="pyarrow")
    return remove_frequent_lines(ds, min_df=5).select_columns(
        ["doc_id", "text"])


def _line_dedup_sql() -> str:
    return f"""
    WITH prepped AS (
      SELECT doc_id,
        coalesce(text, '')
          || CASE WHEN doc_id % 3 = 0
                  THEN chr(10) || '{_PD_B1}' ELSE '' END
          || CASE WHEN doc_id % 4 = 0
                  THEN chr(10) || '{_PD_B2}' ELSE '' END AS text
      FROM documents),
    lines AS (
      SELECT doc_id,
             unnest(string_split(text, chr(10))) AS line,
             generate_subscripts(string_split(text, chr(10)), 1) AS ord
      FROM prepped),
    freq AS (SELECT line FROM lines GROUP BY line
             HAVING count(DISTINCT doc_id) >= 5)
    SELECT doc_id, string_agg(line, chr(10) ORDER BY ord) AS text
    FROM lines WHERE line NOT IN (SELECT line FROM freq)
    GROUP BY doc_id
    """


def _q_dedup_exact(sf_dir: str):
    """Exact dedup: kept doc_ids (min doc_id per distinct text).  The
    combiner hashes text → fingerprint64 and pre-aggregates per batch, so
    the global groupby shuffles 16-byte (hash, id) rows — never document
    bodies.  [SQL-verified — DuckDB groups by the text itself; identical
    output as long as the 64-bit fingerprint is collision-free on the
    input, which the driver compare would catch]"""
    from lingua_ray.stages.dedup import exact_dedup_local_min
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(exact_dedup_local_min, batch_format="pyarrow")
    return ds.groupby("fp64").min("doc_id").rename_columns(
        {"min(doc_id)": "doc_id"}).select_columns(["doc_id"])


def _q_dedup_normalized(sf_dir: str):
    """Near-exact dedup after normalization (lowercase + whitespace-run
    collapse + trim): normalization and fingerprinting happen in the
    combiner, so the shuffle again moves 16-byte rows, never text.  Both
    engines run RE2-family regexes, so the normal forms agree
    byte-for-byte.  [SQL-verified]"""
    from lingua_ray.functions.argmax import first_per_key
    from lingua_ray.functions.textstats import fingerprint64_array
    import pyarrow.compute as pc

    def norm_fp(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(pc.fill_null(batch.column("text"), ""))
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        # trim exactly the SPACE character, and the oracle says
        # trim(x, ' ') explicitly: DuckDB's bare trim() strips Unicode
        # whitespace (NBSP etc.) that utf8_trim(' ') keeps — the
        # adversarial-input property test caught exactly that divergence
        t = pc.utf8_trim(t, characters=" ")
        fps = fingerprint64_array(t)
        return pa.table({"fp": pa.array(fps.view(np.int64)),
                         "doc_id": batch.column("doc_id")})

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    keep = first_per_key(ds.map_batches(norm_fp, batch_format="pyarrow"),
                         "fp", ["doc_id"])
    return keep.select_columns(["doc_id"])


def _q_lang_hist(sf_dir: str):
    """Language histogram (groupby-count).  [SQL-verified]"""
    ds = _read(sf_dir, "documents", columns=["lang"])
    return ds.groupby("lang").count().rename_columns({"count()": "n"})


def _q_source_stats(sf_dir: str):
    """Per-(source, lang) corpus profile: doc count, total/max chars —
    partial aggregation inside map_batches (≤ |source|×|lang| rows leave
    each block), then a tiny multi-key groupby.  [SQL-verified]"""
    from ray.data.aggregate import Max, Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.TableGroupBy(batch, ["source", "lang"]).aggregate(
            [("n_chars", "count"), ("n_chars", "sum"), ("n_chars", "max")]
        ).rename_columns(["source", "lang", "n", "chars", "mx"])

    ds = _read(sf_dir, "documents", columns=["source", "lang", "n_chars"])
    part = ds.map_batches(partial, batch_format="pyarrow")
    out = (part.groupby(["source", "lang"])
           .aggregate(Sum("n"), Sum("chars"), Max("mx")))
    return out.rename_columns({"sum(n)": "n_docs", "sum(chars)": "n_chars",
                               "max(mx)": "max_chars"})


def _q_dedup_minhash(sf_dir: str):
    """MinHash+LSH near-dup pairs, VERIFIED by estimated Jaccard ≥ 0.5
    (the LSH threshold for 16 bands × 4 rows): (doc_id, dup_of,
    jaccard_est).  Signatures are computed once (id + 512-byte sig, text
    dropped first) and SPILLED TO PARQUET, then re-read by the banding
    pass and both verification joins — at 10^10 docs the signature table
    is TBs, so pinning it in the object store (round-2 `.materialize()`)
    would evict everything else; a storage round-trip costs one
    sequential write + reads and keeps the store free.  [rows-only]"""
    from lingua_ray.stages.dedup import (bucket_pairs_group, lsh_band_batch,
                                         minhash_signature_batch,
                                         verify_minhash_candidates)
    from lingua_ray.stages.spill import spill
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sig = ds.map_batches(minhash_signature_batch, batch_format="pyarrow")
    # Two banding/verification consumers: spill once (path lifecycle —
    # per-(tag, sf, pid), cleared up front, stale-pid sweep — documented
    # in stages/spill.py).
    sig = spill(sig, "minhash-sig", Path(sf_dir).name,
                columns=["doc_id", "minhash"])
    bands = sig.map_batches(lsh_band_batch, batch_format="pyarrow")
    cand = bands.groupby(["band", "band_hash"]).map_groups(
        bucket_pairs_group, batch_format="pyarrow")
    # the same pair can surface in several bands: dedup to distinct
    # pairs, verify ALL of them, and only then keep each doc's smallest
    # VERIFIED partner — reducing to min(dup_of) BEFORE verification
    # would discard a doc entirely when its smallest candidate is an LSH
    # false positive even though another candidate verifies.
    cand = (cand.groupby(["doc_id", "dup_of"]).count()
                .select_columns(["doc_id", "dup_of"]))
    import ray
    nparts = max(2, int(ray.cluster_resources().get("CPU", 4)) // 4)
    verified = verify_minhash_candidates(cand, sig, threshold=0.5,
                                         num_partitions=nparts)

    def _min_verified(group):
        t = group.sort_by([("dup_of", "ascending")])
        return t.slice(0, 1)

    return verified.groupby("doc_id").map_groups(_min_verified,
                                                 batch_format="pyarrow")


def _q_dedup_clusters(sf_dir: str):
    """Transitive near-duplicate clusters: the verified MinHash pairs
    closed under connectivity (iterative min-label propagation — joins +
    groupby per round, int64 pairs only on the wire).  One row per
    clustered document: (doc_id, cluster = min reachable doc_id).
    [rows-only; pytest gates exact equality with a union-find oracle]"""
    from lingua_ray.stages.dedup import connected_components
    import ray
    nparts = max(2, int(ray.cluster_resources().get("CPU", 4)) // 4)
    pairs = _q_dedup_minhash(sf_dir).select_columns(["doc_id", "dup_of"])
    return connected_components(pairs, num_partitions=nparts)


# Shared texts planted by the dedup_incremental query (the synthetic
# documents are all distinct, so base/new duplicate texts are planted
# deterministically — same prep inlined into the oracle SQL).
_DI_PREFIX = "shared boilerplate document "


def _di_plant(batch):
    """Docs with doc_id%5==2 get a shared text keyed by doc_id%3 — some
    land in the base half (even ids), some in the new half (odd ids),
    creating genuine cross-half duplicates."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    did = batch.column("doc_id").to_numpy(zero_copy_only=False)
    key = pc.cast(pa.array(did % 3), pa.string())
    planted = pc.binary_join_element_wise(pa.scalar(_DI_PREFIX), key, "")
    t = pc.if_else(pa.array(did % 5 == 2), planted,
                   pc.fill_null(batch.column("text"), ""))
    i = batch.schema.get_field_index("text")
    return batch.set_column(i, "text", t)


def _q_dedup_incremental(sf_dir: str):
    """Incremental (new-crawl vs base-corpus) exact dedup: even doc_ids
    are the already-ingested base, odd doc_ids the new batch; a new doc
    is kept only if its text does not appear in the base.  Both sides
    reduce to 64-bit fingerprints in map_batches, so the anti-join
    exchange carries 8-byte keys — document text never shuffles.
    [SQL-verified]"""
    import numpy as np
    import pyarrow as pa

    from lingua_ray.functions.textstats import fingerprint64_array
    from lingua_ray.stages.sets import anti_join

    def _fp(batch: pa.Table) -> pa.Table:
        fp = fingerprint64_array(batch.column("text")).view(np.int64)
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "fp": pa.array(fp),
                         "parity": pa.array((did % 2).astype("int32"))})

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    fps = (docs.map_batches(_di_plant, batch_format="pyarrow")
           .map_batches(_fp, batch_format="pyarrow"))
    base = (fps.filter(expr="parity == 0")
            .select_columns(["fp"]).rename_columns({"fp": "base_fp"}))
    new = fps.filter(expr="parity == 1")
    return (anti_join(new, base, on="fp", right_on="base_fp")
            .select_columns(["doc_id"]))


def _parity_batch(batch: pa.Table) -> pa.Table:
    """parity = doc_id % 2 — the even/odd base-vs-increment split shared
    by dedup_incremental_bloom / dedup_indexed / neardup_indexed AND
    their oracles; one copy so the contract cannot diverge."""
    did = batch.column("doc_id").to_numpy(zero_copy_only=False)
    return batch.append_column(
        "parity", pa.array((did % 2).astype("int32")))


def _q_dedup_indexed(sf_dir: str):
    """Persistent-index variant of dedup_incremental — the CROSS-RUN
    production shape: the base half's fingerprints are built ONCE into a
    bucket-partitioned on-disk index (stages/dedup_index.py) and the new
    half dedups against it with a partition-pruned read; the base corpus
    is never rescanned (or re-fingerprinted) per increment.  Identical
    output and oracle as dedup_incremental.  [SQL-verified]"""
    from lingua_ray.stages.dedup_index import (build_fingerprint_index,
                                               dedup_against_index)
    from lingua_ray.stages.spill import spill_path

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    planted = docs.map_batches(_di_plant, batch_format="pyarrow") \
                  .map_batches(_parity_batch, batch_format="pyarrow")
    # per-(sf, pid) dir with the spill lifecycle (cleared up front,
    # stale-pid sweep) so repeated bench/correctness processes don't
    # accumulate index trees under /tmp
    index_dir = spill_path("fp-index", Path(sf_dir).name)
    build_fingerprint_index(planted.filter(expr="parity == 0"), index_dir)
    out = dedup_against_index(planted.filter(expr="parity == 1"),
                              index_dir)
    return out.select_columns(["doc_id"])


def _q_neardup_indexed(sf_dir: str):
    """Near-duplicate probe against the persisted MinHash-LSH index: the
    even half's band/signature index is built once on disk; the odd half
    probes it reading only touched band + signature buckets (directory
    pruning twice) — cross-run NEAR-dedup without rescanning history.
    [rows-only — MinHash estimation is not SQL; planted-edit pytest
    oracle in test_dedup_index.py; the exact-threshold twin semantics
    are SQL-verified via dedup_jaccard]"""
    from lingua_ray.stages.dedup_index import (build_minhash_index,
                                               neardup_against_index)
    from lingua_ray.stages.spill import spill_path

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(_parity_batch, batch_format="pyarrow")
    # same spill-lifecycle dir management as dedup_indexed above
    index_dir = spill_path("mh-index", Path(sf_dir).name)
    build_minhash_index(docs.filter(expr="parity == 0"), index_dir)
    return neardup_against_index(docs.filter(expr="parity == 1"),
                                 index_dir, threshold=0.5)


def _dedup_incremental_sql() -> str:
    return f"""
    WITH prepped AS (
      SELECT doc_id,
        CASE WHEN doc_id % 5 = 2
             THEN '{_DI_PREFIX}' || CAST(doc_id % 3 AS VARCHAR)
             ELSE coalesce(text, '') END AS text
      FROM documents)
    SELECT d.doc_id FROM prepped d
    WHERE d.doc_id % 2 = 1
      AND NOT EXISTS (SELECT 1 FROM prepped b
                      WHERE b.doc_id % 2 = 0 AND b.text = d.text)
    """


def _q_dedup_jaccard(sf_dir: str):
    """EXACT n-gram Jaccard near-dup pairs — the brief's fourth dedup
    flavor, hash-verifiable unlike MinHash estimation: every document
    pair whose distinct char-5-shingle sets (lowercased, space-padded to
    k) have true Jaccard >= 0.8.  Prefix-filtered similarity self-join
    (stages/simjoin.py — SSJoin/PPJoin bound with the df-ascending
    global element order of Vernica et al. broadcast from a stop-shingle
    census): only 8-byte shingle hashes ride the exchanges, the shingle
    pass runs once (spilled to parquet, not pinned), and exact
    verification picks broadcast-lookup vs join layout by set-table
    size, with a dense bool-matrix kernel for template-heavy (tiny
    vocabulary) batches.  [SQL-verified]"""
    from lingua_ray.stages.simjoin import jaccard_similarity_join

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return jaccard_similarity_join(docs, threshold=0.8, k=5)


def _q_dedup_incremental_bloom(sf_dir: str):
    """The broadcast-sketch variant of incremental dedup: the base half's
    text fingerprints become a bloom filter (per-block bitmaps OR-merged,
    ~10 bits/doc), broadcast once with ray.put, and the new half is
    filtered SHUFFLE-FREE in an actor pool — the right tool when the base
    index fits a node's heap (1.25 GB per 10^9 base docs) and the new
    batch is huge.  The bloom is strictly a PREFILTER: docs it clears
    (no false negatives) skip the exchange entirely; only the ~0.8% of
    new docs the bloom flags — true dups plus false positives — ride the
    exact fingerprint anti-join, so the output is IDENTICAL to
    `dedup_incremental` while ~99% of rows never shuffle.
    [SQL-verified — same oracle as dedup_incremental]"""
    import ray

    from lingua_ray.functions.sketches import (BloomMembershipTagger,
                                               bloom_from_text)
    from lingua_ray.functions.textstats import fingerprint64_array
    from lingua_ray.stages.sets import anti_join

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    planted = docs.map_batches(_di_plant, batch_format="pyarrow")

    both = planted.map_batches(_parity_batch, batch_format="pyarrow")
    base = both.filter(expr="parity == 0")
    new = both.filter(expr="parity == 1")
    bitmap, k = bloom_from_text(base)
    ref = ray.put(bitmap)
    tagged = new.map_batches(
        BloomMembershipTagger, batch_format="pyarrow",
        fn_constructor_kwargs={"bitmap_ref": ref, "k": k},
        concurrency=2)
    cleared = (tagged.filter(expr="in_base == False")
               .select_columns(["doc_id"]))

    def _fp(batch: pa.Table) -> pa.Table:
        fp = fingerprint64_array(batch.column("text")).view(np.int64)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "fp": pa.array(fp)})

    suspects = (tagged.filter(expr="in_base == True")
                .map_batches(_fp, batch_format="pyarrow"))
    base_fps = (base.map_batches(_fp, batch_format="pyarrow")
                .select_columns(["fp"]).rename_columns({"fp": "base_fp"}))
    rescued = (anti_join(suspects, base_fps, on="fp", right_on="base_fp")
               .select_columns(["doc_id"]))
    return cleared.union(rescued)


def _q_dedup_fuzzy_keep(sf_dir: str):
    """The end-user fuzzy-dedup operation: documents SURVIVING near-dup
    removal — one representative (min doc_id) per verified MinHash
    cluster, all other cluster members dropped, singletons kept.
    Composition of existing operators: dedup_clusters → losers
    (cluster members that are not the representative) → anti_join
    against the documents table.  [rows-only: MinHash is not
    SQL-expressible; pytest gates the composition on planted dups]"""
    from lingua_ray.stages.sets import anti_join
    clusters = _q_dedup_clusters(sf_dir)
    losers = (clusters
              .filter(expr="doc_id != cluster")
              .select_columns(["doc_id"])
              .rename_columns({"doc_id": "loser_id"}))
    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return anti_join(docs, losers, on="doc_id", right_on="loser_id")


def _q_simhash(sf_dir: str):
    """64-bit SimHash signatures per document.  [rows-only]"""
    from lingua_ray.stages.dedup import simhash_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(simhash_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "simhash"])


def _q_embedding_centroid_by_label(sf_dir: str):
    """Per-label mean embedding (the class-centroid reduction behind
    k-means training, near-dup thresholds, and cluster profiling): one
    map_batches combiner emits (label, sum-vector, count) partials — a
    |labels| × dim matrix per block, never the embeddings — and a tiny
    groupby finishes.  Output unnested to (label, dim, centroid) rows,
    rounded to 6 decimals in both engines.  [SQL-verified]"""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding")
        arr = emb.combine_chunks() if isinstance(emb, pa.ChunkedArray) \
            else emb
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(
            np.float64)
        dim = len(flat) // max(batch.num_rows, 1)
        m = flat.reshape(-1, dim)
        labels = batch.column("label").to_numpy()
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), dim), dtype=np.float64)
        np.add.at(sums, inv, m)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        k = len(uniq)
        return pa.table({
            "label": pa.array(np.repeat(uniq.astype(np.int64), dim)),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), k)),
            "s": pa.array(sums.reshape(-1)),
            "n": pa.array(np.repeat(cnt, dim)),
        })

    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["label", "dim"]).aggregate(Sum("s"), Sum("n")))

    def finish(batch: pa.Table) -> pa.Table:
        c = (batch.column("sum(s)").to_numpy()
             / batch.column("sum(n)").to_numpy())
        return pa.table({"label": batch.column("label"),
                         "dim": batch.column("dim"),
                         "centroid": pa.array(np.round(c, 6))})

    return out.map_batches(finish, batch_format="pyarrow")


_EMBEDDING_CENTROID_SQL = """
    SELECT label, dim, round(avg(x), 6) AS centroid FROM (
      SELECT label,
             CAST(unnest(embedding) AS DOUBLE) AS x,
             generate_subscripts(embedding, 1) - 1 AS dim
      FROM embeddings)
    GROUP BY label, dim
"""


def _q_knn_bruteforce(sf_dir: str):
    """Brute-force cosine top-10 around the vec_id=0 embedding.
    [SQL-verified — id set only, float scores excluded from the compare]"""
    from lingua_ray.stages.ann import knn_bruteforce
    q = _query_vector(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    top = knn_bruteforce(ds, q, k=10)
    return top.select(["vec_id"])


def _planted_neardups(sf_dir: str, n_plant: int = 20,
                      cos_target: float = 0.97) -> pa.Table:
    """Deterministic near-duplicate vectors derived from the input: for the
    first ``n_plant`` embeddings, emit a copy rotated to EXACTLY
    ``cos_target`` cosine against the original, with vec_id = max_id+1+i.
    The synthetic embeddings table has no natural pairs above ~0.60 cosine,
    so without planting the near-dup operator is never exercised
    (round-1 verdict: the query returned 0 rows at every sf)."""
    pf = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    ids = np.asarray(pf.column("vec_id").to_numpy(zero_copy_only=False))
    order = np.argsort(ids)[:n_plant]
    base_ids = ids[order]
    emb = np.stack([np.asarray(pf.column("embedding")[int(i)].as_py(),
                               dtype=np.float64) for i in order])
    v = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    rng = np.random.RandomState(777)
    g = rng.standard_normal(v.shape)
    u = g - (g * v).sum(axis=1, keepdims=True) * v     # orthogonal component
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    theta = np.arccos(cos_target)
    w = np.cos(theta) * v + np.sin(theta) * u
    new_ids = int(ids.max()) + 1 + np.arange(n_plant, dtype=np.int64)
    return pa.table({
        "vec_id": pa.array(new_ids),
        "embedding": pa.array(list(w), type=pf.schema.field("embedding").type),
        "planted_from": pa.array(base_ids.astype(np.int64)),
    })


def _q_embedding_neardup(sf_dir: str):
    """Embedding near-duplicates via size-scaled banded hyperplane LSH with
    bounded in-bucket pairing (all-pairs ≤ 256 members, pivot-linking
    above).  The input is augmented with deterministic planted near-dups
    (cos = 0.97 rotations of the first 20 vectors) so the detector has
    true positives to find.  [rows-only]"""
    import ray.data
    from lingua_ray.stages.ann import embedding_neardup
    meta = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    n = meta.metadata.num_rows
    dim = len(meta.read_row_group(0).column("embedding")[0])
    planted = _planted_neardups(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    ds = ds.union(ray.data.from_arrow(
        planted.select(["vec_id", "embedding"])))
    out = embedding_neardup(ds, dim=dim, n=n + planted.num_rows,
                            threshold=0.95)
    return out.select_columns(["vec_id", "dup_of"])


def _q_embedding_inference(sf_dir: str):
    """Batched model inference: every embedding scored with a logistic
    linear probe (the quality-classifier-over-frozen-embeddings shape).
    Weights are deterministic (Knuth-hash of the index), broadcast once
    via ray.put, materialized per ACTOR — one BLAS matvec per batch,
    shuffle-free.  [SQL-verified — DuckDB rebuilds the identical model
    from integer arithmetic; scores rounded to 6 decimals both sides]"""
    from lingua_ray.stages.inference import score_embeddings
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    meta = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    dim = len(meta.read_row_group(0).column("embedding")[0])
    out = score_embeddings(ds, dim=dim, bias=0.1)
    return out.select_columns(["vec_id", "score"])


def _q_embedding_kmeans_sizes(sf_dir: str):
    """Cluster profile of the embedding table: deterministic spherical
    k-means on a bounded sample, whole-corpus centroid assignment inside
    map_batches, per-cluster counts — the clustering semantic_dedup
    pairs within.  [rows-only: k-means is not SQL-expressible; the
    quantizer is pytest-verified in test_dedup_ann.py]"""
    import ray
    from lingua_ray.stages.ann import (IvfAssigner, _embedding_matrix,
                                       spherical_kmeans)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sample = _embedding_matrix(
        ds.limit(4096).take_batch(4096, batch_format="pyarrow"))
    c = spherical_kmeans(sample, n_list=16)
    assigned = ds.map_batches(
        IvfAssigner, batch_format="pyarrow", concurrency=(1, 4),
        fn_constructor_kwargs={"centroids": ray.put(c)})
    return assigned.groupby("list_id").count().rename_columns(
        {"count()": "n_vectors"})


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540) — semantic
    deduplication over the embedding table: deterministic spherical
    k-means on a bounded sample, whole-corpus centroid assignment inside
    map_batches (centroids broadcast via ray.put, fetched once per
    actor), then per-cluster duplicate components (cosine >= 0.95 edges,
    union-find) with ONE keeper per component — the member least similar
    to its cluster centroid, the paper's keep-the-least-prototypical
    rule.  The k-means pass is what bounds the quadratic pairing: work
    is O(n²/k) per cluster, and oversize clusters degrade to bounded
    sub-bucketed pairing (see semdedup_group).  At 100 TB: n_list scales
    with corpus size (constant expected cluster size), assignment is one
    streaming matmul pass, and only (id, list_id) pairs ride the single
    groupby exchange — embeddings stay in their cluster's blocks.
    [rows-only: k-means + float cosine components are not
    SQL-expressible; planted-pair + partitioning-invariance pytest in
    test_dedup_ann.py]"""
    import ray
    from lingua_ray.stages.ann import (IvfAssigner, _embedding_matrix,
                                       semdedup_group, spherical_kmeans)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sample = _embedding_matrix(
        ds.limit(4096).take_batch(4096, batch_format="pyarrow"))
    c = spherical_kmeans(sample, n_list=16)
    assigned = ds.map_batches(
        IvfAssigner, batch_format="pyarrow", concurrency=(1, 4),
        fn_constructor_kwargs={"centroids": ray.put(c)})
    out = assigned.groupby("list_id").map_groups(
        semdedup_group, batch_format="pyarrow",
        fn_kwargs={"threshold": 0.95, "centroids": c})
    return out.sort("vec_id")


def _q_langid_documents_lowacc(sf_dir: str):
    """Language-ID in low-accuracy (trigram-only) mode.  [rows-only]"""
    from lingua_ray.models import ensure_models
    from lingua_ray.stages.langid import map_langid
    ensure_models()
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = map_langid(ds, _langid_concurrency(_doc_rows(sf_dir)),
                    text_col="text", with_ppl=False, low_accuracy=True)
    return ds.select_columns(["doc_id", "lang"])


def _q_multilang_documents(sf_dir: str):
    """Experimental multi-language section detection per document.
    [rows-only]"""
    import pyarrow.compute as pc
    from lingua_ray.models import ensure_models
    from lingua_ray.multilang import MultiLangScorer
    ensure_models()
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(
        MultiLangScorer, batch_format="pyarrow", batch_size=256,
        concurrency=_langid_concurrency(_doc_rows(sf_dir), batch_size=256),
        num_cpus=1)

    def flatten(batch: pa.Table) -> pa.Table:
        secs = batch.column("sections")
        n_sections = pc.list_value_length(secs)
        first_lang = [
            (row[0]["lang"] if row else "un") for row in secs.to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_sections": pc.cast(n_sections, pa.int32()),
            "first_lang": pa.array(first_lang, type=pa.string()),
        })

    return ds.map_batches(flatten, batch_format="pyarrow")


def _q_doc_entropy(sf_dir: str):
    """Per-document word-distribution entropy + hapax count — quality
    signals for degenerate/templated text; shuffle-free vectorized
    kernel.  [SQL-verified]"""
    from lingua_ray.stages.quality import entropy_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(entropy_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "entropy", "n_hapax"])


def _q_doc_dup_ngrams(sf_dir: str):
    """Gopher-style duplicate-n-gram signal: per document, the fraction
    of its char-5-gram OCCURRENCES that are repeats of a gram already
    seen in the same document (degenerate/looping text scores high).
    Shuffle-free: one lexsort per batch over (row, gram-hash) finds
    within-doc duplicate runs.  Emitted as round-6 fractions, identical
    in both engines.  [SQL-verified]"""

    def frac(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        from lingua_ray.stages.dedup import _shingle_hashes_batch
        # the helper lowercases and space-pads short rows to k itself
        t = pc.fill_null(batch.column("text"), "")
        hashes, offs = _shingle_hashes_batch(t, 5)
        n = batch.num_rows
        counts = np.diff(offs)
        row = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((hashes, row))
        hs, rs = hashes[order], row[order]
        dup = np.zeros(len(hs), dtype=bool)
        dup[1:] = (hs[1:] == hs[:-1]) & (rs[1:] == rs[:-1])
        ndup = np.bincount(rs[dup], minlength=n)
        out = np.where(counts > 0, ndup / np.maximum(counts, 1), 0.0)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "dup_gram_frac": pa.array(np.floor(out * 1e6 + 0.5) / 1e6),
                         "n_grams": pa.array(counts.astype(np.int64))})

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(frac, batch_format="pyarrow")


def _substring_dedup_impl(sf_dir: str, stride: int, winnow: int = 0):
    """Cross-document substring-level duplication (training-data span
    dedup): per document, how many of its 40-char window OCCURRENCES
    also appear in at least one OTHER document, plus the round-6 shared
    fraction.  Boilerplate is planted with the same _pd_plant prep as
    para_dedup so cross-doc sharing actually exists.

    Shape: the per-block combiner collapses windows to distinct
    (doc_id, window-hash, occurrence-count) rows before any exchange;
    the gram bodies never leave the block.  Then (1) a (doc, h) groupby
    finalizes occurrence counts, (2) an h-keyed count finds grams living
    in ≥2 docs, (3) one inner hash join + doc-keyed sum counts each
    doc's shared occurrences, (4) a left join attaches totals.  All
    exchanges carry 8-16-byte keyed rows.

    ``stride`` is the scale knob: stride=1 is the exact census, whose
    spilled (doc, h, occ) table is O(corpus chars) rows — fine up to
    ~TB inputs, a cost cliff at 100 TB.  stride=S samples every S-th
    window start (deterministic, position-based, SQL-expressible — see
    window_hashes_batch), cutting the window table S× and guaranteeing
    detection of shared spans ≥ K + S - 1 chars; only the combiner
    changes, every exchange downstream is identical.  ``winnow=w``
    (overrides stride) instead selects the content-determined winnowing
    fingerprints (see winnow_hashes_batch) — the same ~w/2× reduction
    but shift-robust: spans ≥ K + w - 1 are detected regardless of
    their alignment, where stride needs matching phase."""
    import ray
    import pyarrow.compute as pc
    from lingua_ray.stages.dedup import (window_hashes_batch,
                                         winnow_hashes_batch)

    K = 40

    def pairs(batch: pa.Table) -> pa.Table:
        batch = _pd_plant(batch)
        t = pc.fill_null(batch.column("text"), "")
        if winnow:
            h, offs = winnow_hashes_batch(t, K, winnow)
        else:
            h, offs = window_hashes_batch(t, K, stride=stride)
        n_w = np.diff(offs)
        doc = np.repeat(batch.column("doc_id").to_numpy(), n_w)
        tbl = pa.table({"doc_id": pa.array(doc),
                        "h": pa.array(h.view(np.int64), type=pa.int64()),
                        "occ": pa.array(np.ones(len(h), dtype=np.int64))})
        # one row per doc in the source table, so this per-block group_by
        # IS the global (doc_id, h) occurrence count — a pair can never
        # span blocks and there is no cross-block merge to do.  (The Ray
        # groupby that used to follow shuffled 1.3M nearly-all-distinct
        # keys and cost 169 s at sf0.1 for work this Arrow kernel
        # finishes in 0.2 s.)
        g = tbl.group_by(["doc_id", "h"]).aggregate([("occ", "sum")])
        # reconstruct by NAME: positional rename would silently mislabel
        # if pyarrow's group_by output order (keys-first today) changed
        return pa.table({"doc_id": g.column("doc_id"),
                         "h": g.column("h"),
                         "occ": g.column("occ_sum")})

    from lingua_ray.stages.spill import spill

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    agg = ds.map_batches(pairs, batch_format="pyarrow")
    # two consumers below — spill once instead of recomputing the window
    # pass per consumer or pinning an O(corpus-chars) table in the object
    # store (path lifecycle documented in stages/spill.py).
    tag = f"subdedup-pairs-w{winnow}" if winnow else f"subdedup-pairs-s{stride}"
    agg = spill(agg, tag, Path(sf_dir).name)

    def flag_shared(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.greater_equal(t.column("count()"), 2))
        return pa.table({"h": keep.column("h"),
                         "flag": pa.array(
                             np.ones(keep.num_rows, dtype=np.int8))})

    nparts = max(2, int(ray.cluster_resources().get("CPU", 4)) // 4)
    shared_h = agg.groupby("h").count() \
                  .map_batches(flag_shared, batch_format="pyarrow")
    joined = agg.join(shared_h, "left_outer", nparts, on=("h",))

    def per_doc(batch: pa.Table) -> pa.Table:
        occ = batch.column("occ").to_numpy(zero_copy_only=False) \
                                 .astype(np.int64)
        flag = pc.fill_null(batch.column("flag"), 0) \
                 .to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({"doc_id": batch.column("doc_id"),
                      "occ": pa.array(occ),
                      "shared": pa.array(occ * flag)})
        return t.group_by(["doc_id"]).aggregate(
            [("occ", "sum"), ("shared", "sum")])

    def finalize(batch: pa.Table) -> pa.Table:
        nw = batch.column("sum(occ_sum)").to_numpy(zero_copy_only=False) \
                                         .astype(np.int64)
        ns = batch.column("sum(shared_sum)").to_numpy(zero_copy_only=False) \
                                            .astype(np.int64)
        frac = np.floor(ns / np.maximum(nw, 1) * 1e6 + 0.5) / 1e6
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_windows": pa.array(nw),
                         "n_shared": pa.array(ns),
                         "shared_frac": pa.array(frac)})

    out = joined.map_batches(per_doc, batch_format="pyarrow") \
                .groupby("doc_id").sum(["occ_sum", "shared_sum"])
    return out.map_batches(finalize, batch_format="pyarrow")


# The sampled variant detects shared spans of >= K + SUBSTR_STRIDE - 1
# chars with certainty; 7 is prime so the sample never phase-locks with
# periodic boilerplate.
_SUBSTR_STRIDE = 7


def _substring_dedup_sql(stride: int) -> str:
    """DuckDB oracle for _substring_dedup_impl at the given stride: the
    same _pd_plant prep, the same 1-based window starts ((i-1) % stride
    = 0), comparing the 40-char substrings themselves."""
    sample = f"WHERE (u.i - 1) % {stride} = 0" if stride > 1 else ""
    return f"""
            WITH prepped AS (
              SELECT doc_id,
                CASE WHEN doc_id % 3 = 0
                     THEN coalesce(text, '') || chr(10) || '{_PD_B1}'
                     ELSE coalesce(text, '') END
                || CASE WHEN doc_id % 4 = 0 THEN chr(10) || '{_PD_B2}'
                        ELSE '' END AS text
              FROM documents),
            w AS (
              SELECT doc_id, substring(text, i, 40) AS g
              FROM prepped,
                   unnest(generate_series(1, length(text) - 39)) AS u(i)
              {sample}),
            c AS (SELECT g, count(DISTINCT doc_id) AS nd FROM w GROUP BY g),
            per AS (
              SELECT w.doc_id,
                CAST(count(*) AS BIGINT) AS n_windows,
                CAST(sum(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                  AS n_shared
              FROM w JOIN c ON w.g = c.g GROUP BY w.doc_id)
            SELECT doc_id, n_windows, n_shared,
              round(CAST(n_shared AS DOUBLE) / n_windows, 6) AS shared_frac
            FROM per
        """


def _q_substring_dedup(sf_dir: str):
    """Exact (stride-1) cross-document substring dedup — every 40-char
    window occurrence censused.  Right for ≤ TB inputs; at 100 TB the
    window table is O(corpus chars), so production runs use the sampled
    variants below — `substring_dedup_sampled` (stride-S combiner) or
    the shift-robust `substring_dedup_winnowed` (winnowing combiner);
    both keep this plan byte-identical downstream.  [SQL-verified — DuckDB compares the substrings
    themselves; identical as long as the 64-bit window hash is
    collision-free on the input, which the driver compare would catch]"""
    return _substring_dedup_impl(sf_dir, stride=1)


def _q_substring_dedup_sampled(sf_dir: str):
    """Sampled (stride-7) cross-document substring dedup — the 100-TB
    scale path: windows starting at positions 0, 7, 14, … per document,
    cutting the exchanged/spilled window table ~7× while still
    guaranteeing detection of shared spans ≥ 46 chars.  Deterministic
    position-based sampling, so the oracle samples the same windows in
    SQL.  [SQL-verified]"""
    return _substring_dedup_impl(sf_dir, stride=_SUBSTR_STRIDE)


# Winnowing window width: spans >= 40 + 8 - 1 = 47 chars are always
# detected; expected selection density 2/(w+1) ~ 0.22 of the census.
_WINNOW_W = 8


def _q_substring_dedup_winnowed(sf_dir: str):
    """Winnowed cross-document substring dedup (Schleimer/Wilkerson/Aiken
    SIGMOD'03) — the shift-ROBUST 100-TB scale path: from every run of 8
    consecutive 40-char window starts, keep the rightmost-minimal-hash
    window.  Selection is content-determined, so any shared span ≥ 47
    chars selects at least one identical fingerprint in BOTH documents
    regardless of alignment — stride sampling (substring_dedup_sampled)
    only guarantees that when the shared span covers a sampled phase in
    each.  ~4.5× fewer emitted windows than the exact census; the plan
    downstream of the combiner is byte-identical.  [SQL-verified — the
    oracle recomputes the mod-(2^31-1) selection hash and the same
    combined rightmost-min key with a SQL window function, so it selects
    exactly the same windows, then compares the substrings themselves]"""
    return _substring_dedup_impl(sf_dir, stride=1, winnow=_WINNOW_W)


def _substring_dedup_winnow_sql(w: int) -> str:
    """DuckDB oracle for the winnowed variant: same _pd_plant prep, then
    per-gram selection hash sum(codepoint_j * 31^(40-j)) mod 2^31-1 (the
    BIGINT products stay < 2^56), combined key h*2^32 + (2^32-1-i), and a
    forward ROWS window min per doc — the rightmost-min winnowing choice.
    Selected grams then flow through the same shared-count plan as the
    stride oracle, comparing substrings (not hashes) across docs."""
    from lingua_ray.stages.dedup import WINNOW_BASE, WINNOW_MOD
    K, M, C = 40, WINNOW_MOD, 1 << 32
    plist = "[" + ",".join(
        f"CAST({pow(WINNOW_BASE, K - j, M)} AS BIGINT)"
        for j in range(1, K + 1)) + "]"
    return f"""
            WITH prepped AS (
              SELECT doc_id,
                CASE WHEN doc_id % 3 = 0
                     THEN coalesce(text, '') || chr(10) || '{_PD_B1}'
                     ELSE coalesce(text, '') END
                || CASE WHEN doc_id % 4 = 0 THEN chr(10) || '{_PD_B2}'
                        ELSE '' END AS text
              FROM documents),
            g AS (
              SELECT doc_id, i, substring(text, CAST(i AS INT), {K}) AS g
              FROM prepped,
                   unnest(generate_series(1, length(text) - {K - 1}))
                     AS u(i)),
            k AS (
              SELECT doc_id, i, g,
                (list_sum(list_transform(range(1, {K + 1}),
                   j -> CAST(unicode(substring(g, CAST(j AS INT), 1))
                             AS BIGINT) * {plist}[j])) % {M})
                  * {C} + ({C - 1} - i) AS key
              FROM g),
            m AS (
              SELECT doc_id, i, g,
                min(key) OVER (PARTITION BY doc_id ORDER BY i
                  ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS mn
              FROM k),
            sel AS (
              SELECT DISTINCT doc_id, {C - 1} - (mn % {C}) AS pos FROM m),
            w AS (
              SELECT m.doc_id, m.g
              FROM m JOIN sel ON m.doc_id = sel.doc_id AND m.i = sel.pos),
            c AS (SELECT g, count(DISTINCT doc_id) AS nd FROM w GROUP BY g),
            per AS (
              SELECT w.doc_id,
                CAST(count(*) AS BIGINT) AS n_windows,
                CAST(sum(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                  AS n_shared
              FROM w JOIN c ON w.g = c.g GROUP BY w.doc_id)
            SELECT doc_id, n_windows, n_shared,
              round(CAST(n_shared AS DOUBLE) / n_windows, 6) AS shared_frac
            FROM per
        """


def _q_bpe_train(sf_dir: str):
    """Distributed BPE tokenizer training: ONE corpus-scale pass (the
    word-count combiner → groupby sum), then a fully vectorized merge
    loop over the vocabulary-bounded frequency table — the same
    corpus→word-table compression SentencePiece/HF tokenizers rely on.
    Returns the merge table (rank, left, right, merged, n).  [rows-only:
    iterative; pytest gates it merge-for-merge against a scalar oracle,
    including tie-breaks and overlapping-run semantics]"""
    from lingua_ray.functions.bpe import train_bpe
    ds = _read(sf_dir, "documents", columns=["text"])
    return train_bpe(ds, num_merges=200, min_count=2)


def _q_bpe_token_counts(sf_dir: str):
    """Tokenizer application: per-document BPE token counts under the
    merges learned by `bpe_train`.  Actor-pool encode — merge table via
    ray.put once, rank dict in __init__, per-distinct-word cache so the
    Python merge loop is vocabulary- not token-bounded.  [rows-only:
    depends on the learned merges; pytest asserts lossless token-length
    accounting vs the scalar encoder]"""
    from lingua_ray.functions.bpe import bpe_token_counts, train_bpe
    docs = _read(sf_dir, "documents", columns=["text"])
    merges = train_bpe(docs, num_merges=200, min_count=2)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bpe_token_counts(ds, merges)


_DOC_DUP_NGRAMS_SQL = """
    WITH t AS (SELECT doc_id,
                      CASE WHEN length(lower(coalesce(text, ''))) < 5
                           THEN rpad(lower(coalesce(text, '')), 5, ' ')
                           ELSE lower(coalesce(text, '')) END AS s
               FROM documents),
    grams AS (
      SELECT doc_id, substring(s, i, 5) AS g
      FROM t, unnest(generate_series(1, length(s) - 4)) AS u(i)),
    per AS (SELECT doc_id, count(*) AS n_grams,
                   count(*) - count(DISTINCT g) AS n_dup
            FROM grams GROUP BY doc_id)
    SELECT doc_id,
           round(CAST(n_dup AS DOUBLE) / n_grams, 6) AS dup_gram_frac,
           n_grams FROM per
"""


def _q_doc_repetition(sf_dir: str):
    """Gopher-style repetition signal: the document's most frequent word
    count vs total words (stages/quality.py::repetition_batch — Arrow
    dictionary-encode + segmented reductions, no Python token loop).
    [SQL-verified]"""
    from lingua_ray.stages.quality import repetition_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        repetition_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "top_word_count", "n_words_rep"])


def _q_doc_length_quantiles(sf_dir: str):
    """Exact distributed quantiles via a histogram combiner: each batch
    emits (value, count) pairs for the bounded-cardinality n_chars column,
    the groupby sums partials, and the driver reduces the TINY histogram
    (one row per distinct length — KBs at any corpus size) with a cumsum.
    Matches DuckDB's quantile_disc rank semantics ceil(q*n) exactly — no
    approximation, no full sort, no large exchange.  [SQL-verified]"""
    from lingua_ray.functions.quantiles import exact_quantiles

    ds = _read(sf_dir, "documents", columns=["n_chars"])
    n, found = exact_quantiles(ds, "n_chars",
                               {"p50": 0.5, "p90": 0.9, "p99": 0.99})
    row = {"n_docs": n, **found}
    return pa.table({k: pa.array([v], type=pa.int64())
                     for k, v in row.items()})


def _q_doc_length_minmax_by_lang(sf_dir: str):
    """Per-language min-max normalization: one tiny grouped min/max
    aggregate, broadcast as plain dicts, shuffle-free attach.  Exact
    (integer extrema, one double division, round 6).  [SQL-verified]"""
    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    ext = {r["lang"]: (r["min(n_chars)"], r["max(n_chars)"])
           for r in ds.groupby("lang").aggregate(
               Min("n_chars"), Max("n_chars")).take_all()}

    # broadcast as aligned arrays so the attach is a vectorized gather
    # (pc.index_in + take), not a per-row dict lookup
    ext_langs = pa.array(sorted(ext))
    ext_lo = np.array([ext[l][0] for l in sorted(ext)], np.float64)
    ext_hi = np.array([ext[l][1] for l in sorted(ext)], np.float64)

    def attach(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        code = pc.index_in(batch.column("lang"),
                           ext_langs).to_numpy(zero_copy_only=False)
        v = batch.column("n_chars").to_numpy().astype(np.float64)
        lo = ext_lo[code]
        hi = ext_hi[code]
        rng = hi - lo
        norm = np.where(rng > 0, (v - lo) / np.where(rng > 0, rng, 1.0),
                        0.0)
        # half-AWAY rounding to match DuckDB round(): np.round is half-to-
        # even and diverges on exactly-representable x.xxxxxx5 values
        # (e.g. 97/128 — caught by the sf0.1 gate, invisible at sf0.01)
        return batch.append_column(
            "norm", pa.array(np.floor(norm * 1e6 + 0.5) / 1e6))

    return ds.map_batches(attach, batch_format="pyarrow")


def _q_doc_length_quantiles_by_lang(sf_dir: str):
    """Per-language exact length quantiles — the grouped form of the
    histogram-quantile pattern: (lang, n_chars, cnt) partials, ONE hash
    shuffle, per-group cumsum over a KB-sized histogram.  Same
    ceil(q*n) rank semantics as DuckDB quantile_disc.  [SQL-verified]"""
    from lingua_ray.functions.quantiles import grouped_quantiles
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    return grouped_quantiles(ds, "lang", "n_chars",
                             {"p50": 0.5, "p90": 0.9, "p99": 0.99})


def _q_distinct_words_by_lang(sf_dir: str):
    """Exact per-language distinct-word counts: the per-batch combiner
    emits DISTINCT (lang, word) pairs (vocabulary-bounded), one groupby
    dedups corpus-wide, a per-lang count finishes.  [SQL-verified]"""
    from lingua_ray.functions.divergence import source_word_counts

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    pairs = ds.map_batches(
        source_word_counts, batch_format="pyarrow",
        fn_kwargs={"key_col": "lang"}).groupby(["lang", "word"]).count()
    return pairs.groupby("lang").count().rename_columns(
        {"count()": "n_distinct_words"})


def _q_distinct_words_by_lang_hll(sf_dir: str):
    """Sketch variant of the same statistic: one HLL register row per
    (block, lang) — the exchange is languages × blocks × 16 KiB however
    large each language's vocabulary is; per-lang max-merge + estimate
    in map_groups.  [rows-only: approximate by design; pytest gates the
    error vs the exact query]"""
    import pyarrow.compute as pc
    from lingua_ray.functions.sketches import (hll_estimate, hll_merge,
                                               hll_registers_for_words)

    def per_block(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang")
        enc = (langs.combine_chunks()
               if isinstance(langs, pa.ChunkedArray)
               else langs).dictionary_encode()
        out_lang, out_reg = [], []
        for i, lang in enumerate(enc.dictionary.to_pylist()):
            mask = pc.equal(enc.indices, i)
            sub = batch.filter(mask)
            reg = hll_registers_for_words(sub)
            out_lang.append(lang)
            out_reg.append(reg.column("registers")[0].as_py())
        return pa.table({"lang": pa.array(out_lang, pa.string()),
                         "registers": pa.array(out_reg, pa.binary())})

    def merge_group(group: pa.Table) -> pa.Table:
        blobs = group.column("registers").to_pylist()
        est = hll_estimate(hll_merge(blobs))
        return pa.table({
            "lang": group.column("lang").slice(0, 1),
            "n_distinct_words_est": pa.array([int(round(est))],
                                             pa.int64()),
        })

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    per = ds.map_batches(per_block, batch_format="pyarrow")
    return per.groupby("lang").map_groups(merge_group,
                                          batch_format="pyarrow")


def _q_distinct_words_hll(sf_dir: str):
    """Approximate distinct-word count via a HyperLogLog sketch (p=14,
    ~0.8% std error): one 16 KiB register row per block leaves the
    workers regardless of corpus cardinality, vs a corpus-wide shuffle
    of every distinct word for the exact count.  [rows-only: the
    estimate is approximate by design; pytest gates <5% error vs the
    exact DuckDB count at sf0.001]"""
    from lingua_ray.functions.sketches import distinct_count_hll
    ds = _read(sf_dir, "documents", columns=["text"])
    est = distinct_count_hll(ds)
    return pa.table({"n_distinct_words_est":
                     pa.array([int(round(est))], pa.int64())})


def _q_doc_length_topp(sf_dir: str):
    """Top-decile documents by length — the global-threshold selection
    pattern: exact P90 from the tiny (value, count) histogram (combiner →
    groupby-sum → driver cumsum over KBs), then the threshold is a plain
    scalar in a shuffle-free filter over the corpus.  Matches DuckDB
    ``quantile_disc(0.9)`` rank semantics (ceil(q*n)) exactly.
    [SQL-verified]"""
    from lingua_ray.functions.quantiles import exact_quantiles

    ds = _read(sf_dir, "documents", columns=["n_chars"])
    _, found = exact_quantiles(ds, "n_chars", {"p90": 0.9})
    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return docs.filter(expr=f"n_chars >= {found['p90']}")


def _query_vector(sf_dir: str) -> np.ndarray:
    # predicate-pushdown read: one row-group's worth of IO, never the table
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "==", 0)])
    return np.asarray(t.column("embedding")[0].as_py(), dtype=np.float64)


def _q_linear_probe_stats(sf_dir: str):
    """Distributed model-fitting sufficient statistics: each block of the
    embeddings table collapses to X^T X (i, j, v) + X^T y (i, -1, v)
    rows; the global exchange sums ~d² keys.  The rounded aggregate is
    hash-checked against DuckDB's unnest self-join — the distributed
    PART of training a linear quality probe; the (d × d) driver solve is
    the rows-only twin (linear_probe_train).  [SQL-verified]"""
    from lingua_ray.stages.inference import linear_stats_batch
    from lingua_ray.stages.util import round_half_away

    ds = _read(sf_dir, "embeddings", columns=["embedding", "label"])
    agg = ds.map_batches(linear_stats_batch, batch_format="pyarrow") \
            .groupby(["i", "j"]).sum("v")

    def rounded(batch: pa.Table) -> pa.Table:
        return pa.table({
            "i": batch.column("i"), "j": batch.column("j"),
            "v": pa.array(round_half_away(
                batch.column("sum(v)").to_numpy(zero_copy_only=False)))})

    return agg.map_batches(rounded, batch_format="pyarrow")


def _q_linear_probe_train(sf_dir: str):
    """End-to-end distributed ridge fit over the embeddings table:
    sufficient statistics aggregated cluster-wide, normal equations
    solved once on the driver, weights returned as (i, weight) rows.
    [rows-only — the matrix solve is not SQL; numpy closed-form oracle
    in test_inference.py; the aggregation feeding it IS SQL-verified via
    linear_probe_stats]"""
    from lingua_ray.stages.inference import fit_ridge

    dim = len(_query_vector(sf_dir))
    ds = _read(sf_dir, "embeddings", columns=["embedding", "label"])
    w = fit_ridge(ds, dim, l2=1.0)
    return pa.table({"i": pa.array(np.arange(dim, dtype=np.int32)),
                     "weight": pa.array(np.round(w, 6))})


def _q_accuracy_report(sf_dir: str):
    """The reference's accuracyReport batch job as a Ray pipeline over the
    FULL 79-language × 3-category corpus in BOTH accuracy modes: one row
    per (language, mode) with per-category accuracy % + average
    (SURVEY.md §3.2; AbstractLanguageDetectionAccuracyReport.kt:89-115).
    [rows-only — 158 rows = 79 languages × 2 modes]"""
    from lingua_ray.pipelines.accuracy import (accuracy_confusion_dual,
                                               accuracy_summary)
    conf = accuracy_confusion_dual(
        concurrency=_langid_concurrency()).to_pandas()
    return accuracy_summary(conf)


def _q_distinct_words_exact(sf_dir: str):
    """EXACT distinct-word count — the exact counterpart of the
    ``distinct_words_hll`` sketch.  Per-batch vocabulary combiner (the
    block's DISTINCT words, not its tokens, go on the wire) → one
    word-keyed groupby → the group count.  The exchange carries the
    corpus vocabulary once; nothing but a scalar reaches the driver.
    Use the sketch when ±1% suffices; this when the number must be
    exact.  [SQL-verified]"""
    import pyarrow.compute as pc

    def vocab(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch.column("text"), "")
        words = pc.unique(pc.list_flatten(pc.split_pattern(col, " ")))
        return pa.table({"word": words})

    ds = _read(sf_dir, "documents", columns=["text"])
    n = (ds.map_batches(vocab, batch_format="pyarrow")
         .groupby("word").count().count())
    return pa.table({"n_distinct_words": pa.array([n], pa.int64())})


def _q_docs_per_source_cap(sf_dir: str):
    """Per-source frequency capping — a web-scale staple (keep at most N
    documents per domain/source so one crawl host can't dominate the
    training mix).  Deterministic keep rule: the N smallest doc_ids per
    source.  A per-batch combiner keeps each source's local N-smallest,
    so the shuffle carries ≤ N×|sources| rows per block regardless of
    corpus size; map_groups takes the global N per source.
    [SQL-verified — row_number() OVER (PARTITION BY source ORDER BY
    doc_id) <= N]"""
    CAP = 100

    def local_cap(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_numpy(
            zero_copy_only=False))
        did = batch.column("doc_id").to_numpy()
        o = np.lexsort((did, src))
        src, did = src[o], did[o]
        starts = np.flatnonzero(
            np.concatenate([[True], src[1:] != src[:-1]]))
        pos = np.arange(len(src)) - np.repeat(
            starts, np.diff(np.concatenate([starts, [len(src)]])))
        m = pos < CAP
        return pa.table({"source": pa.array(src[m].tolist(),
                                            type=pa.string()),
                         "doc_id": pa.array(did[m])})

    ds = _read(sf_dir, "documents", columns=["source", "doc_id"])
    return (ds.map_batches(local_cap, batch_format="pyarrow")
            .groupby("source")
            .map_groups(local_cap, batch_format="pyarrow"))


def _q_lang_temperature_mix(sf_dir: str):
    """Temperature-scaled multilingual sampling rates (the mBERT/XLM-R
    exponential-smoothing recipe): per-language document share p_l,
    reweighted as p_l^alpha (alpha=0.3) and renormalized — the sampling
    distribution a multilingual training run would draw from.  One tiny
    count groupby; the arithmetic runs on the driver over |langs| rows.
    Rates rounded to 6 decimals in both engines.  [SQL-verified]"""
    ALPHA = 0.3
    ds = _read(sf_dir, "documents", columns=["lang"])
    counts = (ds.groupby("lang").count()
              .rename_columns({"count()": "n"}).to_pandas())
    n = counts["n"].to_numpy().astype(np.float64)
    w = np.power(n / n.sum(), ALPHA)
    rate = np.round(w / w.sum(), 6)
    return pa.table({"lang": pa.array(counts["lang"], type=pa.string()),
                     "n": pa.array(counts["n"].to_numpy()),
                     "rate": pa.array(rate)})


def _q_embedding_pca_stats(sf_dir: str):
    """Distributed PCA sufficient statistics: each embeddings block
    collapses to X^T X (i, j, v) + per-dim sums (i, -1, v) + one
    (-1, -1, n) count row; the global exchange sums ~d² keys.  The
    distributed HALF of whitening / dimensionality reduction — the
    (d × d) eigensolve is the rows-only twin (embedding_pca_project).
    [SQL-verified vs DuckDB's unnest self-join]"""
    from lingua_ray.stages.inference import pca_stats_batch
    from lingua_ray.stages.util import round_half_away

    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    # vec_id is unused by the kernel, but the oracle joins on it, and
    # the stats need only the embedding column either way
    agg = ds.map_batches(pca_stats_batch, batch_format="pyarrow") \
            .groupby(["i", "j"]).sum("v")

    def rounded(batch: pa.Table) -> pa.Table:
        return pa.table({
            "i": batch.column("i"), "j": batch.column("j"),
            "v": pa.array(round_half_away(
                batch.column("sum(v)").to_numpy(zero_copy_only=False)))})

    return agg.map_batches(rounded, batch_format="pyarrow")


def _q_embedding_pca_project(sf_dir: str):
    """End-to-end distributed PCA: sufficient statistics aggregated
    cluster-wide, driver eigensolve (sign-canonicalized so the result
    is partitioning-independent), then every row projected onto the
    top-4 components via one broadcast + BLAS matmul per batch.
    [rows-only: eigenvectors aren't SQL; gated by the numpy
    closed-form + partitioning-invariance pytest in
    test_inference.py]"""
    from lingua_ray.stages.inference import fit_pca, project_embeddings

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    dim = len(ds.take(1)[0]["embedding"])
    mean, _, comps = fit_pca(ds, dim, k=4)
    out = project_embeddings(ds, mean, comps)

    def rounded(batch: pa.Table) -> pa.Table:
        from lingua_ray.stages.util import round_half_away
        cols = {"vec_id": batch.column("vec_id")}
        for c in range(4):
            cols[f"p{c}"] = pa.array(round_half_away(
                batch.column(f"p{c}").to_numpy(zero_copy_only=False)))
        return pa.table(cols)

    return out.map_batches(rounded, batch_format="pyarrow")


_PCA_STATS_SQL = """
    WITH flat AS (
      SELECT vec_id,
             CAST(unnest(embedding) AS DOUBLE) AS e,
             CAST(generate_subscripts(embedding, 1) - 1 AS INTEGER) AS i
      FROM embeddings)
    SELECT a.i AS i, b.i AS j, round(SUM(a.e * b.e), 6) AS v
    FROM flat a JOIN flat b USING (vec_id)
    GROUP BY a.i, b.i
    UNION ALL
    SELECT i, CAST(-1 AS INTEGER) AS j, round(SUM(e), 6) AS v
    FROM flat GROUP BY i
    UNION ALL
    SELECT CAST(-1 AS INTEGER), CAST(-1 AS INTEGER),
           CAST(COUNT(*) AS DOUBLE)
    FROM embeddings
"""


# ------------------------------------------------- round-5 operator tranche

_CF_SNIPPET = "```\nprint('hello')\n```"
_RP_PREFIX = "You are a helpful AI assistant. "


def _cf_plant(batch):
    """Append a fenced code block to docs with doc_id%7==0 — the
    deterministic-planting pattern (the synthetic corpus has no code
    fences, so the phenomenon is planted identically in both engines;
    see _pd_plant / _di_plant)."""
    import pyarrow.compute as pc
    did = batch.column("doc_id").to_numpy(zero_copy_only=False)
    t = pc.cast(pc.fill_null(batch.column("text"), ""), pa.string())
    t = pc.if_else(pa.array(did % 7 == 0),
                   pc.binary_join_element_wise(
                       t, pa.scalar(_CF_SNIPPET), pa.scalar("\n")), t)
    i = batch.schema.get_field_index("text")
    return batch.set_column(i, "text", t)


def _q_dedup_keep_best(sf_dir: str):
    """Quality-aware dedup: within each NORMALIZED-text duplicate group
    keep the BEST document (max n_chars, tie → min doc_id) rather than
    the first — the production selection rule when near-identical pages
    differ in completeness.  Normalization + fingerprint in the
    combiner (a vectorized per-block argmax leaves ≤1 row per distinct
    fp per block — 24-byte rows on the wire, never text); the global
    pick is NATIVE hash aggregates only (max n_chars per fp → filter
    rows at the max → min doc_id per fp), because a
    ``groupby(fp).map_groups`` finalize would make one Python call per
    duplicate group and group cardinality here is O(n_docs) — the one
    case where the argmax primitive's per-group finalize is the wrong
    tool.  [SQL-verified — DuckDB groups by the normal form itself;
    identical as long as the 64-bit fingerprint is collision-free,
    which the compare catches]"""
    import pyarrow.compute as pc
    import ray
    from lingua_ray.functions.argmax import argmax_local
    from lingua_ray.functions.textstats import fingerprint64_array

    def norm_fp(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(pc.fill_null(batch.column("text"), ""))
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        t = pc.utf8_trim(t, characters=" ")
        cand = pa.table({
            "fp": pa.array(fingerprint64_array(t).view(np.int64)),
            "n_chars": batch.column("n_chars"),
            # max over (n_chars, -doc_id) = max n_chars then MIN doc_id
            "neg_id": pc.negate(batch.column("doc_id")),
            "doc_id": batch.column("doc_id")})
        return argmax_local(cand, "fp", ["n_chars", "neg_id"],
                            keep="max").drop_columns(["neg_id"])

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
    cand = ds.map_batches(norm_fp, batch_format="pyarrow").materialize()
    best_n = (cand.groupby("fp").max("n_chars")
              .rename_columns({"max(n_chars)": "best_n"}))
    nparts = max(2, int(ray.cluster_resources().get("CPU", 4)) // 4)
    def only_max(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("n_chars"),
                                     batch.column("best_n")))

    at_max = (cand.join(best_n, "inner", nparts, on=("fp",))
              .map_batches(only_max, batch_format="pyarrow"))
    # every at_max row already carries the group max, so ONE groupby
    # with two aggregates finishes — no second join to re-attach it
    from ray.data.aggregate import Max, Min
    out = at_max.groupby("fp").aggregate(Min("doc_id"), Max("n_chars"))
    return (out.rename_columns({"min(doc_id)": "doc_id",
                                "max(n_chars)": "n_chars"})
            .select_columns(["doc_id", "n_chars"]))


def _q_pii_leak_report(sf_dir: str):
    """Per-source PII audit: occurrence counts of each scrub class
    (email/IP/SSN/credit-card/phone) using the SAME RE2 patterns the
    scrubber rewrites — the pre-redaction risk report a curation run
    publishes.  Per-block (source × class) combiner rows, one tiny
    groupby; text never shuffles.  [SQL-verified — both engines run
    RE2-family regexes]"""
    import pyarrow.compute as pc
    pats = [("n_email", _EMAIL), ("n_ip", _IP), ("n_ssn", _SSN),
            ("n_cc", _CC), ("n_phone", _PHONE)]

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            cols = {"source": pa.array([], pa.string())}
            cols.update({n: pa.array([], pa.int64()) for n, _ in pats})
            return pa.table(cols)
        t = pc.cast(pc.fill_null(batch.column("text"), ""), pa.string())
        src = np.asarray(batch.column("source")
                         .to_numpy(zero_copy_only=False))
        us, codes = np.unique(src, return_inverse=True)
        cols = {"source": pa.array(us)}
        for name, pat in pats:
            c = (pc.count_substring_regex(t, pat)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
            cols[name] = pa.array(
                np.bincount(codes, weights=c,
                            minlength=len(us)).astype(np.int64))
        return pa.table(cols)

    ds = _read(sf_dir, "documents", columns=["source", "text"])
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("source").sum([n for n, _ in pats]))
    return out.rename_columns({f"sum({n})": n for n, _ in pats})


def _q_token_length_histogram(sf_dir: str):
    """Whitespace-token-count histogram in fixed 32-token buckets per
    language — the length-distribution panel of a data card.  Integer
    bucket arithmetic only (no float log2 — the power-of-two rounding
    trap).  Per-block (lang, bucket) combiner, one tiny groupby.
    [SQL-verified]"""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "bucket": pa.array([], pa.int64()),
                             "n_docs": pa.array([], pa.int64())})
        t = pc.fill_null(batch.column("text"), "")
        ntok = (pc.add(pc.count_substring(t, " "), 1)
                .to_numpy(zero_copy_only=False).astype(np.int64))
        b = ntok // 32
        lang = np.asarray(batch.column("lang")
                          .to_numpy(zero_copy_only=False))
        ul, codes = np.unique(lang, return_inverse=True)
        key = codes.astype(np.int64) * (1 << 32) + b
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "lang": pa.array(ul[(uk >> 32).astype(np.int64)]),
            "bucket": pa.array(uk & ((1 << 32) - 1)),
            "n_docs": pa.array(cnt.astype(np.int64))})

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["lang", "bucket"]).sum("n_docs"))
    return out.rename_columns({"sum(n_docs)": "n_docs"})


def _q_domain_reweight(sf_dir: str):
    """DoReMi-style static domain reweighting table: per source, doc and
    token counts, the source's token share, and the uniform-target
    weight total/(n_sources · tokens).  One combiner + one
    ≤|sources|-row groupby; the driver arithmetic runs on a provably
    tiny table.  [SQL-verified]"""
    import pyarrow.compute as pc
    from lingua_ray.stages.util import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "n_docs": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64())})
        t = pc.fill_null(batch.column("text"), "")
        ntok = (pc.add(pc.count_substring(t, " "), 1)
                .to_numpy(zero_copy_only=False).astype(np.int64))
        src = np.asarray(batch.column("source")
                         .to_numpy(zero_copy_only=False))
        us, codes = np.unique(src, return_inverse=True)
        return pa.table({
            "source": pa.array(us),
            "n_docs": pa.array(np.bincount(
                codes, minlength=len(us)).astype(np.int64)),
            "n_tokens": pa.array(np.bincount(
                codes, weights=ntok, minlength=len(us)).astype(np.int64))})

    ds = _read(sf_dir, "documents", columns=["source", "text"])
    rows = sorted((ds.map_batches(partial, batch_format="pyarrow")
                   .groupby("source").sum(["n_docs", "n_tokens"])
                   .take_all()), key=lambda r: r["source"])
    total = float(sum(r["sum(n_tokens)"] for r in rows))
    n_src = len(rows)
    nt = np.array([r["sum(n_tokens)"] for r in rows], np.float64)
    return pa.table({
        "source": pa.array([r["source"] for r in rows]),
        "n_docs": pa.array([r["sum(n_docs)"] for r in rows], pa.int64()),
        "n_tokens": pa.array([r["sum(n_tokens)"] for r in rows],
                             pa.int64()),
        "token_share": pa.array(round_half_away(nt / total, 6)),
        "weight": pa.array(round_half_away(total / (n_src * nt), 6))})


def _q_code_fence_stats(sf_dir: str):
    """Code-bearing document stats per language (code-data curation):
    docs containing a ``` fence (planted, doc_id%7==0), count and
    fraction.  Shuffle-free combiner + tiny groupby + driver division
    on ≤|langs| rows.  [SQL-verified]"""
    import pyarrow.compute as pc
    from lingua_ray.stages.util import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "n_docs": pa.array([], pa.int64()),
                             "n_fenced": pa.array([], pa.int64())})
        batch = _cf_plant(batch)
        t = batch.column("text")
        fenced = (pc.greater(pc.count_substring(t, "```"), 0)
                  .to_numpy(zero_copy_only=False).astype(np.int64))
        lang = np.asarray(batch.column("lang")
                          .to_numpy(zero_copy_only=False))
        ul, codes = np.unique(lang, return_inverse=True)
        return pa.table({
            "lang": pa.array(ul),
            "n_docs": pa.array(np.bincount(
                codes, minlength=len(ul)).astype(np.int64)),
            "n_fenced": pa.array(np.bincount(
                codes, weights=fenced, minlength=len(ul)).astype(np.int64))})

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    rows = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("lang").sum(["n_docs", "n_fenced"]).take_all())
    nd = np.array([r["sum(n_docs)"] for r in rows], np.float64)
    nf = np.array([r["sum(n_fenced)"] for r in rows], np.float64)
    return pa.table({
        "lang": pa.array([r["lang"] for r in rows]),
        "n_docs": pa.array(nd.astype(np.int64)),
        "n_fenced": pa.array(nf.astype(np.int64)),
        "fenced_frac": pa.array(round_half_away(nf / nd, 6))})


def _q_repeated_prefix_convs(sf_dir: str):
    """Template detection over transcripts: conversation openings (first
    24 chars of turn 0) shared by ≥2 conversations — the boilerplate
    signal for synthetic/system-prompt dedup.  Planted deterministically
    (convs whose id ends in '0' get a shared system prefix).  Only
    turn-0 rows leave the scan; the groupby key is a 24-char prefix.
    [SQL-verified]"""
    import pyarrow.compute as pc

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column("turn_idx"), 0))
        if batch.num_rows == 0:
            return pa.table({"prefix": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        t = pc.cast(pc.fill_null(batch.column("text"), ""), pa.string())
        t = pc.if_else(
            pc.ends_with(batch.column("conv_id"), "0"),
            pc.binary_join_element_wise(pa.scalar(_RP_PREFIX), t,
                                        pa.scalar("")), t)
        pre = pc.utf8_slice_codeunits(t, 0, 24)
        u = np.unique(np.asarray(pre.to_numpy(zero_copy_only=False)),
                      return_counts=True)
        return pa.table({"prefix": pa.array(u[0]),
                         "n": pa.array(u[1].astype(np.int64))})

    ds = _read_transcripts(sf_dir, ["conv_id", "turn_idx", "text"])
    agg = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("prefix").sum("n"))

    def keep_repeated(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2
        batch = batch.filter(pc2.greater_equal(batch.column("sum(n)"), 2))
        return pa.table({"prefix": batch.column("prefix"),
                         "n_convs": batch.column("sum(n)")})

    return agg.map_batches(keep_repeated, batch_format="pyarrow")


def _q_conv_response_latency(sf_dir: str):
    """Per-conversation first-response latency: microseconds between the
    earliest user turn and the earliest assistant turn (negative if the
    log shows the assistant first — both engines agree).  Per-block
    (conv, per-role min-ts) combiner rows, one groupby-min; the shuffle
    carries 24-byte rows.  Convs lacking either role drop out; a NULL
    ts is skipped, as SQL's min() skips it.  [SQL-verified]"""
    import pyarrow.compute as pc
    TS_MAX = np.int64(2**62)

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column("ts")))
        if batch.num_rows == 0:
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "user_us": pa.array([], pa.int64()),
                             "asst_us": pa.array([], pa.int64())})
        role = np.asarray(batch.column("role")
                          .to_numpy(zero_copy_only=False))
        us = (pc.cast(batch.column("ts"), pa.int64())
              .to_numpy(zero_copy_only=False))
        conv = np.asarray(batch.column("conv_id")
                          .to_numpy(zero_copy_only=False))
        uc, codes = np.unique(conv, return_inverse=True)
        umin = np.full(len(uc), TS_MAX, np.int64)
        amin = np.full(len(uc), TS_MAX, np.int64)
        m = role == "user"
        np.minimum.at(umin, codes[m], us[m])
        m = role == "assistant"
        np.minimum.at(amin, codes[m], us[m])
        return pa.table({"conv_id": pa.array(uc),
                         "user_us": pa.array(umin),
                         "asst_us": pa.array(amin)})

    ds = _read_transcripts(sf_dir, ["conv_id", "role", "ts"])
    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("conv_id").min(["user_us", "asst_us"]))

    def finalize(batch: pa.Table) -> pa.Table:
        u = batch.column("min(user_us)").to_numpy()
        a = batch.column("min(asst_us)").to_numpy()
        keep = (u < TS_MAX) & (a < TS_MAX)
        return pa.table({
            "conv_id": batch.column("conv_id").filter(pa.array(keep)),
            "latency_us": pa.array((a - u)[keep])})

    return agg.map_batches(finalize, batch_format="pyarrow")


def _q_length_stratified_split(sf_dir: str):
    """Deterministic 80/10/10 train/val/test split on md5(doc_id) with
    per-(lang, split) counts — the reproducible-split report (hash
    split, not random: stable across runs, partitionings and cluster
    sizes; same md5-threshold primitive as corpus_mix).  A NULL lang is
    its own group, as in SQL's GROUP BY.  [SQL-verified]"""
    from lingua_ray.stages.sampling import _md5_threshold
    from lingua_ray.stages.util import md5_hex_ranks
    t80, t90 = _md5_threshold(0.8), _md5_threshold(0.9)

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "split": pa.array([], pa.string()),
                             "n_docs": pa.array([], pa.int64())})
        d = md5_hex_ranks(batch.column("doc_id").to_pylist())
        split = np.where([x < t80 for x in d], "train",
                         np.where([x < t90 for x in d], "val", "test"))
        keys = pa.table({"lang": batch.column("lang"),
                         "split": pa.array(split)})
        return (keys.group_by(["lang", "split"], use_threads=False)
                .aggregate([([], "count_all")])
                .rename_columns(["lang", "split", "n_docs"]))

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["lang", "split"]).sum("n_docs"))
    return out.rename_columns({"sum(n_docs)": "n_docs"})


def _q_redpajama_signals(sf_dir: str):
    """RedPajama/Gopher-adjacent structural quality signals per doc:
    line count, terminal-punctuation line count, distinct-line count,
    mean word length — all offset-arithmetic over ONE line split (no
    per-row Python), shuffle-free.  Distinct lines use the 64-bit
    fingerprint (collision-free on real input; the SQL compare groups
    the actual strings and would catch a collision).  [SQL-verified]"""
    import pyarrow.compute as pc
    from lingua_ray.functions.textstats import fingerprint64_array
    from lingua_ray.stages.util import round_half_away

    def sig(batch: pa.Table) -> pa.Table:
        t = pc.cast(pc.fill_null(batch.column("text"), ""), pa.string())
        lines = pc.split_pattern(t, "\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        nlines = (pc.list_value_length(lines)
                  .to_numpy(zero_copy_only=False).astype(np.int64))
        flat = pc.list_flatten(lines)
        rowidx = np.repeat(np.arange(len(nlines)), nlines)
        punct = (pc.match_substring_regex(flat, "[.!?]$")
                 .to_numpy(zero_copy_only=False).astype(np.float64))
        npunct = np.bincount(rowidx, weights=punct,
                             minlength=len(nlines)).astype(np.int64)
        fp = fingerprint64_array(flat)
        order = np.lexsort((fp, rowidx))
        fr, fo = rowidx[order], fp[order]
        first = np.ones(len(fr), dtype=bool)
        first[1:] = (fr[1:] != fr[:-1]) | (fo[1:] != fo[:-1])
        nuniq = np.bincount(fr[first],
                            minlength=len(nlines)).astype(np.int64)
        nonspace = (pc.subtract(pc.utf8_length(t),
                                pc.count_substring(t, " "))
                    .to_numpy(zero_copy_only=False).astype(np.float64))
        nwords = (pc.count_substring_regex(t, "[^ ]+")
                  .to_numpy(zero_copy_only=False).astype(np.float64))
        mean = np.where(nwords > 0,
                        nonspace / np.where(nwords > 0, nwords, 1.0), 0.0)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array(nlines),
            "n_punct_lines": pa.array(npunct),
            "n_uniq_lines": pa.array(nuniq),
            "mean_word_len": pa.array(round_half_away(mean, 6))})

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(sig, batch_format="pyarrow")


def _q_turn_length_quantiles_by_role(sf_dir: str):
    """Per-role turn-length quantiles over transcripts (p50/p90/p99):
    the exact histogram-quantile primitive — (role, len, cnt) partials,
    ONE hash shuffle of a KB-scale histogram.  [SQL-verified]"""
    import pyarrow.compute as pc
    from lingua_ray.functions.quantiles import grouped_quantiles

    def prep(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch.column("text"), "")
        return pa.table({"role": batch.column("role"),
                         "len": pc.cast(pc.utf8_length(t), pa.int64())})

    ds = _read_transcripts(sf_dir, ["role", "text"])
    return grouped_quantiles(ds.map_batches(prep, batch_format="pyarrow"),
                             "role", "len",
                             {"p50": 0.5, "p90": 0.9, "p99": 0.99})


# ------------------------------------------- round-5 tranche, second wave

def _q_conv_duration_stats(sf_dir: str):
    """Per-conversation duration and pace: turn count, wall-clock span in
    exact microseconds, and turns/minute (round 6; 0 for zero-span
    convs).  One (conv, n, min, max) combiner row per block per conv —
    24 bytes + key on the wire.  A NULL ts counts as a turn but not in
    the span, as in SQL's count(*) and min/max; a conv without any ts
    has a NULL duration and pace 0.  [SQL-verified]"""
    import pyarrow.compute as pc
    from lingua_ray.stages.util import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "ts_min": pa.array([], pa.int64()),
                             "ts_max": pa.array([], pa.int64())})
        conv = np.asarray(batch.column("conv_id")
                          .to_numpy(zero_copy_only=False))
        ts = batch.column("ts")
        ok = pc.is_valid(ts).to_numpy(zero_copy_only=False)
        us = pc.cast(ts, pa.int64()).fill_null(0).to_numpy()
        uc, codes = np.unique(conv, return_inverse=True)
        n = np.bincount(codes, minlength=len(uc)).astype(np.int64)
        tmin = np.full(len(uc), np.iinfo(np.int64).max, np.int64)
        tmax = np.full(len(uc), np.iinfo(np.int64).min, np.int64)
        np.minimum.at(tmin, codes[ok], us[ok])
        np.maximum.at(tmax, codes[ok], us[ok])
        return pa.table({"conv_id": pa.array(uc), "n": pa.array(n),
                         "ts_min": pa.array(tmin),
                         "ts_max": pa.array(tmax)})

    from ray.data.aggregate import Max, Min, Sum
    ds = _read_transcripts(sf_dir, ["conv_id", "ts"])
    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("conv_id")
           .aggregate(Sum("n"), Min("ts_min"), Max("ts_max")))

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)").to_numpy().astype(np.float64)
        lo = batch.column("min(ts_min)").to_numpy()
        hi = batch.column("max(ts_max)").to_numpy()
        has_ts = lo <= hi
        dur = np.where(has_ts, hi - lo, 0)
        mins = dur / 60_000_000.0
        pace = np.where(mins > 0, n / np.where(mins > 0, mins, 1.0), 0.0)
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "n_turns": pa.array(n.astype(np.int64)),
            "duration_us": pa.array(dur, mask=~has_ts),
            "turns_per_min": pa.array(round_half_away(pace, 6))})

    return agg.map_batches(finalize, batch_format="pyarrow")


def _q_source_lang_entropy(sf_dir: str):
    """Language-mix entropy per source (nats) — the diversity panel of a
    data card: -Σ p·ln p over each source's language distribution.  One
    (source, lang, n) combiner + tiny groupby; the |sources|×|langs|
    table assembles on the driver.  A NULL lang is its own group within
    its source; a NULL source has no row, as the oracle's equi-join on
    source drops it.  [SQL-verified — same -Σ p·ln p shape as the
    hash-green doc_entropy oracle]"""
    from lingua_ray.stages.util import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "lang": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        return (batch.select(["source", "lang"])
                .group_by(["source", "lang"], use_threads=False)
                .aggregate([([], "count_all")])
                .rename_columns(["source", "lang", "n"]))

    ds = _read(sf_dir, "documents", columns=["source", "lang"])
    rows = [r for r in (ds.map_batches(partial, batch_format="pyarrow")
                        .groupby(["source", "lang"]).sum("n").take_all())
            if r["source"] is not None]
    src = np.array([r["source"] for r in rows])
    n = np.array([r["sum(n)"] for r in rows], np.float64)
    us, codes = np.unique(src, return_inverse=True)
    tot = np.bincount(codes, weights=n, minlength=len(us))
    p = n / tot[codes]
    ent = np.bincount(codes, weights=-p * np.log(p), minlength=len(us))
    nl = np.bincount(codes, minlength=len(us)).astype(np.int64)
    return pa.table({
        "source": pa.array(us),
        "n_langs": pa.array(nl),
        "lang_entropy": pa.array(round_half_away(ent, 6))})


def entry() -> Any:
    """Flagship pipeline on sf0.001-scale transcripts."""
    return _q_quality_filter_transcripts("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    # 128 queries, 100 of them SQL-verified: ``oracle_sql()`` holds a
    # DuckDB statement for each, over the same parquet views.  The other
    # 28 are rows-only and gated by pytest instead: model inference
    # (langid, perplexity, k-means, eigensolves), custom hash families
    # (MinHash, SimHash, LSH), approximate sketches with an exact
    # SQL-verified twin, and order-dependent state (packing, BPE merges).
    # COVERAGE.md names each rows-only query and its gate;
    # tests/test_oracle_queries.py checks that every oracle key is a
    # registered query and that COVERAGE.md lists every rows-only one.
    # The order below carries no meaning.
    return {
        "corpus_datacard": _q_corpus_datacard,
        "transcript_tool_chains": _q_transcript_tool_chains,
        "conv_context_truncate": _q_conv_context_truncate,
        "conv_role_balance": _q_conv_role_balance,
        "transcript_contamination": _q_transcript_contamination,
        "transcript_loop_detect": _q_transcript_loop_detect,
        "turn_context_window": _q_turn_context_window,
        "conv_pack_assign": _q_conv_pack_assign,
        "transcript_sessionize": _q_transcript_sessionize,
        "conv_exchange_extract": _q_conv_exchange_extract,
        "embedding_pca_project": _q_embedding_pca_project,
        "conv_lang_switches": _q_conv_lang_switches,
        "multilang_turns": _q_multilang_turns,
        "ccnet_ppl_buckets": _q_ccnet_ppl_buckets,
        "conv_neardup": _q_conv_neardup,
        "bpe_train": _q_bpe_train,
        "bpe_token_counts": _q_bpe_token_counts,
        "conv_quality_rollup": _q_conv_quality_rollup,
        "neardup_indexed": _q_neardup_indexed,
        "linear_probe_train": _q_linear_probe_train,
        "embedding_kmeans_sizes": _q_embedding_kmeans_sizes,
        "distinct_words_hll": _q_distinct_words_hll,
        "distinct_words_by_lang_hll": _q_distinct_words_by_lang_hll,
        "semantic_dedup": _q_semantic_dedup,
        "dedup_keep_best": _q_dedup_keep_best,
        "pii_leak_report": _q_pii_leak_report,
        "token_length_histogram": _q_token_length_histogram,
        "domain_reweight": _q_domain_reweight,
        "code_fence_stats": _q_code_fence_stats,
        "repeated_prefix_convs": _q_repeated_prefix_convs,
        "conv_response_latency": _q_conv_response_latency,
        "length_stratified_split": _q_length_stratified_split,
        "redpajama_signals": _q_redpajama_signals,
        "turn_length_quantiles_by_role": _q_turn_length_quantiles_by_role,
        "conv_duration_stats": _q_conv_duration_stats,
        "source_lang_entropy": _q_source_lang_entropy,
        "langid_documents": _q_langid_documents,
        "doc_length_pctrank": _q_doc_length_pctrank,
        "doc_length_rank": _q_doc_length_rank,
        "langid_documents_lowacc": _q_langid_documents_lowacc,
        "multilang_documents": _q_multilang_documents,
        "accuracy_report": _q_accuracy_report,
        "embedding_neardup": _q_embedding_neardup,
        "quality_filter_transcripts": _q_quality_filter_transcripts,
        "train_ngrams": _q_train_ngrams,
        "seq_packing": _q_seq_packing,
        "dedup_minhash": _q_dedup_minhash,
        "dedup_clusters": _q_dedup_clusters,
        "simhash": _q_simhash,
        "embedding_pca_stats": _q_embedding_pca_stats,
        "doc_length_quantiles": _q_doc_length_quantiles,
        "doc_length_quantiles_by_lang": _q_doc_length_quantiles_by_lang,
        "doc_length_minmax_by_lang": _q_doc_length_minmax_by_lang,
        "doc_length_topp": _q_doc_length_topp,
        "distinct_words_by_lang": _q_distinct_words_by_lang,
        "doc_repetition": _q_doc_repetition,
        "doc_dup_ngrams": _q_doc_dup_ngrams,
        "doc_entropy": _q_doc_entropy,
        "distinct_words_exact": _q_distinct_words_exact,
        "docs_per_source_cap": _q_docs_per_source_cap,
        "lang_temperature_mix": _q_lang_temperature_mix,
        "weighted_sample": _q_weighted_sample,
        "embedding_inference": _q_embedding_inference,
        "gopher_filter": _q_gopher_filter,
        "bm25_topk": _q_bm25_topk,
        "bm25_indexed": _q_bm25_indexed,
        "dsir_select": _q_dsir_select,
        "ccnet_buckets": _q_ccnet_buckets,
        "dpo_pairs": _q_dpo_pairs,
        "nb_lang_classify": _q_nb_lang_classify,
        "nb_confusion": _q_nb_confusion,
        "transcript_refusals": _q_transcript_refusals,
        "transcript_validation": _q_transcript_validation,
        "weighted_sample_by_lang": _q_weighted_sample_by_lang,
        "session_turn_dedup": _q_session_turn_dedup,
        "substring_dedup_sampled": _q_substring_dedup_sampled,
        "substring_dedup_winnowed": _q_substring_dedup_winnowed,
        "conversations_assembled": _q_conversations_assembled,
        "transcript_scrub": _q_transcript_scrub,
        "transcript_role_stats": _q_transcript_role_stats,
        "transcript_tool_usage": _q_transcript_tool_usage,
        "transcript_conv_stats": _q_transcript_conv_stats,
        "transcript_role_transitions": _q_transcript_role_transitions,
        "transcript_turn_gaps": _q_transcript_turn_gaps,
        "conv_lookup": _q_conv_lookup,
        "turn_dedup": _q_turn_dedup,
        "conv_dedup": _q_conv_dedup,
        "substring_dedup": _q_substring_dedup,
        "doc_quality": _q_doc_quality,
        "doc_scrub": _q_doc_scrub,
        "doc_tokens": _q_doc_tokens,
        "doc_fingerprint": _q_doc_fingerprint,
        "para_dedup": _q_para_dedup,
        "line_dedup": _q_line_dedup,
        "doc_stopwords": _q_doc_stopwords,
        "word_counts": _q_word_counts,
        "word_heavy_hitters": _q_word_heavy_hitters,
        "word_counts_by_lang": _q_word_counts_by_lang,
        "inverted_index": _q_inverted_index,
        "clean_corpus_stats": _q_clean_corpus_stats,
        "doc_budget_selection": _q_doc_budget_selection,
        "source_kl": _q_source_kl,
        "doc_validation": _q_doc_validation,
        "jsonl_roundtrip": _q_jsonl_roundtrip,
        "csv_roundtrip": _q_csv_roundtrip,
        "doc_chunks": _q_doc_chunks,
        "bigram_pmi": _q_bigram_pmi,
        "doc_shuffle": _q_doc_shuffle,
        "dedup_exact": _q_dedup_exact,
        "dedup_normalized": _q_dedup_normalized,
        "dedup_incremental": _q_dedup_incremental,
        "dedup_incremental_bloom": _q_dedup_incremental_bloom,
        "dedup_indexed": _q_dedup_indexed,
        "dedup_jaccard": _q_dedup_jaccard,
        "lang_hist": _q_lang_hist,
        "source_stats": _q_source_stats,
        "ngram_counts": _q_ngram_counts,
        "contamination": _q_contamination,
        "stratified_sample": _q_stratified_sample,
        "doc_split": _q_doc_split,
        "doc_tfidf": _q_doc_tfidf,
        "corpus_mix": _q_corpus_mix,
        "knn_bruteforce": _q_knn_bruteforce,
        "embedding_centroid_by_label": _q_embedding_centroid_by_label,
        "linear_probe_stats": _q_linear_probe_stats,
        "langid_confidences": _q_langid_confidences,
        "seq_packing_by_lang": _q_seq_packing_by_lang,
        "dedup_fuzzy_keep": _q_dedup_fuzzy_keep,
    }


def _corpus_mix_sql() -> str:
    """Same md5 thresholds as the Ray query, inlined as hex literals so
    float rounding can't diverge between engines."""
    from lingua_ray.stages.sampling import _md5_threshold
    parts = []
    for mod, name, rate in ((0, "s0", 1.0), (1, "s1", 0.5), (2, "s2", 0.25)):
        pred = ("" if rate >= 1.0 else
                f" AND md5(CAST(doc_id AS VARCHAR)) < '{_md5_threshold(rate)}'")
        parts.append(f"SELECT '{name}' AS source, doc_id FROM documents "
                     f"WHERE doc_id % 3 = {mod}{pred}")
    return " UNION ALL ".join(parts)


# ---------------------------------------------------------------- oracle SQL

_EMAIL = "[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}"
_IP = "\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b"
_SSN = "\\b[0-9]{3}-[0-9]{2}-[0-9]{4}\\b"
_CC = "\\b[0-9]{4}[ -]?[0-9]{4}[ -]?[0-9]{4}[ -]?[0-9]{4}\\b"
_PHONE = ("\\+[0-9]{7,15}|\\([0-9]{3}\\) ?[0-9]{3}[- ][0-9]{4}"
          "|\\b[0-9]{3}[- ][0-9]{3}[- ][0-9]{4}\\b|\\b[0-9]{10,11}\\b")
_TOX = "\\b(?:damn|hell|idiot|stupid|hate|kill)\\b"
_TOKEN = "[A-Za-z0-9]+|[^A-Za-z0-9 ]"


def _doc_split_sql() -> str:
    """Identical hex thresholds as the Ray split_assign bands."""
    from lingua_ray.stages.sampling import _md5_threshold
    t_train = _md5_threshold(0.8)
    t_val = _md5_threshold(0.9)
    return f"""
        SELECT doc_id,
          CASE WHEN md5(CAST(doc_id AS VARCHAR)) < '{t_train}' THEN 'train'
               WHEN md5(CAST(doc_id AS VARCHAR)) < '{t_val}' THEN 'val'
               ELSE 'test' END AS split
        FROM documents
    """


def _transcript_oracle(template: str) -> str:
    """Fill ``{src}`` in an oracle template with the generated transcript
    shards.  The transcripts table is generated (deterministically,
    seed-pinned) rather than a pre-registered view, so the oracle reads
    the SAME parquet shards the Ray query reads — ensure_transcripts() is
    idempotent and needs no Ray session.

    oracle_sql() takes no sf argument, so the transcript SIZE is resolved
    from $GRAFT_ORACLE_SF_DIR (tools/check_queries sets it to the sf under
    test; the driver's own gate runs at the sf0.01 default)."""
    import os
    sf_dir = os.environ.get("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.01")
    try:
        path = _transcripts_for_sf(sf_dir)
    except Exception as e:
        # surface the generation failure in the oracle run itself rather
        # than returning an empty result that reads as a data mismatch
        msg = f"transcript fixture generation failed: {e!r}".replace("'", "")
        return f"SELECT error('{msg}')"
    # str.replace, not str.format: scrub templates contain regex braces
    return template.replace("{src}",
                            f"read_parquet('{path}/part-*.parquet')")


def _conversations_assembled_sql() -> str:
    return _transcript_oracle("""
        SELECT conv_id,
          CAST(count(*) AS BIGINT) AS n_turns,
          string_agg(coalesce(text, ''), chr(10) ORDER BY turn_idx) AS text
        FROM {src}
        GROUP BY conv_id
    """)


def _transcript_scrub_sql() -> str:
    return _transcript_oracle(f"""
    WITH s0 AS (SELECT conv_id, turn_idx, coalesce(text, '') AS t0
                FROM {{src}}),
    s1 AS (SELECT conv_id, turn_idx, t0,
             regexp_replace(t0, '{_EMAIL}', '<EMAIL>', 'g') AS t1 FROM s0),
    s2 AS (SELECT *, regexp_replace(t1, '{_IP}', '<IP>', 'g') AS t2 FROM s1),
    s3 AS (SELECT *, regexp_replace(t2, '{_SSN}', '<SSN>', 'g') AS t3
           FROM s2),
    s4 AS (SELECT *, regexp_replace(t3, '{_CC}', '<CC>', 'g') AS t4 FROM s3),
    s5 AS (SELECT *, regexp_replace(t4, '{_PHONE}', '<PHONE>', 'g') AS t5
           FROM s4)
    SELECT conv_id, turn_idx,
      CAST(length(regexp_extract_all(t0, '{_EMAIL}')) AS INTEGER)
        AS pii_email,
      CAST(length(regexp_extract_all(t1, '{_IP}')) AS INTEGER) AS pii_ip,
      CAST(length(regexp_extract_all(t2, '{_SSN}')) AS INTEGER) AS pii_ssn,
      CAST(length(regexp_extract_all(t3, '{_CC}')) AS INTEGER) AS pii_cc,
      CAST(length(regexp_extract_all(t4, '{_PHONE}')) AS INTEGER)
        AS pii_phone,
      CAST(length(regexp_extract_all(lower(t5), '{_TOX}')) AS INTEGER)
        AS tox_count,
      t5 AS scrubbed_text
    FROM s5
    """)


def _transcript_role_stats_sql() -> str:
    return _transcript_oracle("""
        SELECT role,
          CAST(count(*) AS BIGINT) AS n_turns,
          CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs,
          CAST(sum(length(coalesce(text, ''))) AS BIGINT) AS sum_chars,
          CAST(sum(CASE WHEN coalesce(tool, '') <> '' THEN 1 ELSE 0 END)
               AS BIGINT) AS n_tool_calls
        FROM {src} GROUP BY role
    """)


def _transcript_tool_usage_sql() -> str:
    return _transcript_oracle("""
        SELECT tool,
          CAST(count(*) AS BIGINT) AS n_calls,
          CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs,
          CAST(sum(length(coalesce(text, ''))) AS BIGINT) AS sum_chars
        FROM {src} WHERE coalesce(tool, '') <> '' GROUP BY tool
    """)


def _transcript_conv_stats_sql() -> str:
    return _transcript_oracle("""
        SELECT conv_id,
          CAST(count(*) AS BIGINT) AS n_turns,
          CAST(sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT)
            AS n_user_turns,
          CAST(sum(CASE WHEN coalesce(tool, '') <> '' THEN 1 ELSE 0 END)
               AS BIGINT) AS n_tool_calls,
          CAST(sum(length(coalesce(text, ''))) AS BIGINT) AS sum_chars,
          CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS BIGINT) AS span_us
        FROM {src} GROUP BY conv_id
    """)


def _transcript_role_transitions_sql() -> str:
    return _transcript_oracle("""
        WITH t AS (
          SELECT conv_id, role,
            lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
              AS prev_role
          FROM {src})
        SELECT prev_role, role, CAST(count(*) AS BIGINT) AS n
        FROM t WHERE prev_role IS NOT NULL GROUP BY prev_role, role
    """)


def _transcript_turn_gaps_sql() -> str:
    return _transcript_oracle("""
        WITH t AS (
          SELECT conv_id, turn_idx,
            epoch_us(ts) - lag(epoch_us(ts))
              OVER (PARTITION BY conv_id ORDER BY turn_idx) AS gap_us
          FROM {src})
        SELECT conv_id, turn_idx, CAST(gap_us AS BIGINT) AS gap_us
        FROM t WHERE gap_us IS NOT NULL
    """)


def _turn_dedup_sql() -> str:
    return _transcript_oracle("""
        WITH f AS (
          SELECT conv_id, turn_idx,
            min(turn_idx) OVER (PARTITION BY conv_id, coalesce(text, ''))
              AS first_idx
          FROM {src})
        SELECT conv_id, turn_idx, turn_idx <> first_idx AS is_dup FROM f
    """)


def _conv_dedup_sql() -> str:
    return _transcript_oracle("""
        WITH a AS (
          SELECT conv_id,
            string_agg(coalesce(text, ''), chr(10) ORDER BY turn_idx) AS t
          FROM {src} GROUP BY conv_id)
        SELECT min(conv_id) AS conv_id FROM a GROUP BY t
    """)


def _transcript_tool_chains_sql() -> str:
    return _transcript_oracle("""
        WITH t AS (
          SELECT conv_id, coalesce(tool, '') AS tool,
            lag(coalesce(tool, ''))
              OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_tool
          FROM {src})
        SELECT prev_tool, tool, CAST(count(*) AS BIGINT) AS n
        FROM t WHERE prev_tool <> '' AND tool <> ''
        GROUP BY prev_tool, tool
    """)


def _transcript_loop_detect_sql() -> str:
    return _transcript_oracle("""
        WITH t AS (
          SELECT conv_id, coalesce(tool, '') AS tool, turn_idx,
            CAST(turn_idx AS BIGINT)
              - ROW_NUMBER() OVER (PARTITION BY conv_id, coalesce(tool, '')
                                   ORDER BY turn_idx) AS isl
          FROM {src} WHERE coalesce(tool, '') <> '')
        SELECT conv_id, tool, CAST(min(turn_idx) AS INTEGER) AS start_turn,
               CAST(count(*) AS BIGINT) AS run_len
        FROM t GROUP BY conv_id, tool, isl HAVING count(*) >= 2
    """)


def _turn_context_window_sql() -> str:
    return _transcript_oracle("""
        SELECT conv_id, turn_idx,
               string_agg(text, chr(31)) OVER (
                 PARTITION BY conv_id ORDER BY turn_idx
                 ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS context
        FROM {src}
    """)


def _conv_exchange_extract_sql() -> str:
    return _transcript_oracle("""
        WITH p AS (
          SELECT conv_id, turn_idx, role, text,
            lag(role) OVER w AS prev_role,
            lag(text) OVER w AS prev_text,
            lag(turn_idx) OVER w AS prev_turn
          FROM {src}
          WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
        SELECT conv_id, CAST(prev_turn AS INTEGER) AS prompt_turn,
               prev_text AS prompt, text AS response
        FROM p WHERE prev_role = 'user' AND role = 'assistant'
    """)


def _dpo_pairs_sql() -> str:
    return _transcript_oracle("""
        WITH p AS (
          SELECT conv_id, lag(role) OVER w AS prev_role,
            coalesce(lag(text) OVER w, '') AS prompt,
            coalesce(text, '') AS response, role
          FROM {src}
          WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)),
        pr AS (SELECT prompt, response FROM p
               WHERE prev_role = 'user' AND role = 'assistant'),
        r AS (SELECT prompt, response,
                row_number() OVER (PARTITION BY prompt
                  ORDER BY length(response) DESC, response DESC) AS rbest,
                row_number() OVER (PARTITION BY prompt
                  ORDER BY length(response) ASC, response ASC) AS rworst,
                count(DISTINCT response)
                  OVER (PARTITION BY prompt) AS nd
              FROM pr)
        SELECT prompt,
          max(CASE WHEN rbest = 1 THEN response END) AS chosen,
          max(CASE WHEN rworst = 1 THEN response END) AS rejected
        FROM r WHERE nd >= 2 GROUP BY prompt
    """)


def _transcript_refusals_sql() -> str:
    from lingua_ray.stages.scrub import REFUSAL_PATTERN
    return _transcript_oracle(f"""
        WITH t AS (
          SELECT conv_id, turn_idx,
            lower(coalesce(text, '') ||
                  CASE WHEN turn_idx % 23 = 7
                       THEN ' I am sorry, I cannot help with that.'
                       ELSE '' END) AS lt
          FROM {{src}} WHERE role = 'assistant')
        SELECT conv_id, turn_idx,
          CAST(length(regexp_extract_all(lt, '{REFUSAL_PATTERN}'))
               AS BIGINT) AS n_refusal_markers,
          CAST(CASE WHEN regexp_matches(lt, '{REFUSAL_PATTERN}')
               THEN 1 ELSE 0 END AS INTEGER) AS is_refusal
        FROM t
    """)


def _transcript_sessionize_sql() -> str:
    return _transcript_oracle("""
        WITH g AS (
          SELECT conv_id, turn_idx,
            epoch_us(ts) - lag(epoch_us(ts))
              OVER (PARTITION BY conv_id ORDER BY turn_idx) AS gap_us
          FROM {src})
        SELECT conv_id, turn_idx,
          CAST(sum(CASE WHEN gap_us > 300000000 THEN 1 ELSE 0 END)
                 OVER (PARTITION BY conv_id ORDER BY turn_idx
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
        FROM g
    """)


def _transcript_validation_sql() -> str:
    return _transcript_oracle("""
        WITH m AS (
          SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
            CASE WHEN turn_idx % 29 = 11 THEN 'robot' ELSE role END
              AS role,
            CASE WHEN turn_idx % 41 = 13 THEN NULL ELSE text END AS text,
            epoch_us(ts) - CASE WHEN turn_idx % 37 = 9
                                THEN 3600000000 ELSE 0 END AS tsu
          FROM {src}),
        full_t AS (
          SELECT * FROM m
          UNION ALL SELECT * FROM m WHERE turn_idx % 31 = 5),
        a AS (
          SELECT CAST(count(*) AS BIGINT) AS n_turns,
            CAST(sum(CASE WHEN text IS NULL THEN 1 ELSE 0 END)
                 AS BIGINT) AS n_null_text,
            CAST(sum(CASE WHEN role NOT IN
                  ('user', 'assistant', 'system', 'tool')
                  THEN 1 ELSE 0 END) AS BIGINT) AS n_bad_role
          FROM full_t),
        o AS (
          SELECT CAST(coalesce(sum(CASE WHEN prev_tsu > tsu
                       THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_ts_disorder
          FROM (SELECT tsu, lag(tsu) OVER (PARTITION BY conv_id
                                           ORDER BY turn_idx) AS prev_tsu
                FROM m)),
        d AS (
          SELECT CAST(count(*) AS BIGINT) AS n_dup_keys FROM (
            SELECT conv_id, turn_idx FROM full_t
            GROUP BY conv_id, turn_idx HAVING count(*) > 1))
        SELECT a.n_turns, a.n_null_text, a.n_bad_role, o.n_ts_disorder,
               d.n_dup_keys
        FROM a CROSS JOIN o CROSS JOIN d
    """)


def _session_turn_dedup_sql() -> str:
    return _transcript_oracle("""
        WITH g AS (
          SELECT conv_id, turn_idx,
            epoch_us(ts) - lag(epoch_us(ts))
              OVER (PARTITION BY conv_id ORDER BY turn_idx) AS gap_us
          FROM {src}),
        s AS (
          SELECT conv_id, turn_idx,
            CAST(sum(CASE WHEN gap_us > 300000000 THEN 1 ELSE 0 END)
                   OVER (PARTITION BY conv_id ORDER BY turn_idx
                         ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
          FROM g),
        j AS (
          SELECT s.conv_id, s.turn_idx, s.session_id,
                 coalesce(t.text, '') AS text
          FROM s JOIN {src} t
            ON t.conv_id = s.conv_id AND t.turn_idx = s.turn_idx)
        SELECT conv_id, CAST(min(turn_idx) AS INTEGER) AS turn_idx,
               session_id
        FROM j GROUP BY conv_id, session_id, text
    """)


def _conv_pack_assign_sql() -> str:
    return _transcript_oracle("""
        WITH c AS (
          SELECT conv_id, CAST(sum(length(coalesce(text, ''))) AS BIGINT)
                   AS n_chars
          FROM {src} GROUP BY conv_id)
        SELECT conv_id, n_chars,
               CAST((sum(n_chars) OVER (ORDER BY conv_id
                       ROWS UNBOUNDED PRECEDING) - n_chars) // 8192
                    AS BIGINT) AS pack_id
        FROM c
    """)


def _conv_context_truncate_sql() -> str:
    return _transcript_oracle("""
        WITH c AS (
          SELECT conv_id, turn_idx,
            sum(length(coalesce(text, '')))
              OVER (PARTITION BY conv_id ORDER BY turn_idx
                    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
              AS cum_chars
          FROM {src})
        SELECT conv_id, turn_idx, CAST(cum_chars AS BIGINT) AS cum_chars
        FROM c WHERE cum_chars <= 2000
    """)


def _conv_role_balance_sql() -> str:
    return _transcript_oracle("""
        SELECT conv_id,
          CAST(count(*) AS BIGINT) AS n_turns,
          CAST(sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT)
            AS n_user_turns,
          CAST(sum(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END)
               AS BIGINT) AS n_assistant_turns
        FROM {src} GROUP BY conv_id
        HAVING n_user_turns >= 1 AND n_assistant_turns >= 1
           AND 5 * n_user_turns >= n_turns
           AND 5 * n_user_turns <= 4 * n_turns
    """)


def _transcript_contamination_sql() -> str:
    return _transcript_oracle("""
        WITH w AS (SELECT conv_id, turn_idx,
                          string_split(coalesce(text, ''), ' ') AS ws
                   FROM {src}),
        grams AS (
          SELECT conv_id, turn_idx, array_to_string(ws[gs:gs+7], ' ') AS g
          FROM w, unnest(generate_series(1, greatest(len(ws) - 7, 0)))
                 AS t(gs)
        ),
        dg AS (SELECT DISTINCT conv_id, turn_idx, g FROM grams),
        bench AS (SELECT DISTINCT g FROM dg WHERE turn_idx % 97 = 0),
        s AS (
          SELECT dg.conv_id, dg.turn_idx, count(*) AS n_ngrams,
            CAST(sum(CASE WHEN bench.g IS NOT NULL THEN 1 ELSE 0 END)
                 AS BIGINT) AS n_hits
          FROM dg LEFT JOIN bench ON dg.g = bench.g
          GROUP BY dg.conv_id, dg.turn_idx
        )
        SELECT d.conv_id, d.turn_idx,
               coalesce(s.n_ngrams, 0) AS n_ngrams,
               coalesce(s.n_hits, 0) AS n_hits
        FROM {src} d LEFT JOIN s
          ON d.conv_id = s.conv_id AND d.turn_idx = s.turn_idx
    """)


def _sql_stopword_list() -> str:
    from lingua_ray.stages.quality import STOPWORDS_EN
    return "[" + ", ".join(f"'{w}'" for w in STOPWORDS_EN) + "]"


# Shared CTE chain of the Naive Bayes classifier oracle: hashed-unigram
# counts → per-label smoothed log-probs → per-(doc, label) scores →
# rounded-score argmax rank.  Both nb_lang_classify and nb_confusion
# compose their final projection onto this.
_NB_CTE = """
            WITH w AS (SELECT doc_id, lang,
                              unnest(string_split(text, ' ')) AS word
                       FROM documents),
            b AS (SELECT doc_id, lang,
                    CAST(('0x' || substr(md5(word), 1, 13))::UBIGINT % 1024
                         AS BIGINT) AS bucket
                  FROM w),
            cnt AS (SELECT lang, bucket, count(*) AS n
                    FROM b GROUP BY lang, bucket),
            tok AS (SELECT lang, sum(n) AS tot FROM cnt GROUP BY lang),
            docs AS (SELECT lang, count(*) AS nd
                     FROM documents GROUP BY lang),
            tot AS (SELECT count(*) AS n FROM documents),
            sc AS (SELECT db.doc_id, l.lang,
                     sum(ln((coalesce(cnt.n, 0) + 1.0)
                            / (tok.tot + 1024.0))) AS ll
                   FROM (SELECT doc_id, bucket FROM b) db
                   CROSS JOIN (SELECT lang FROM docs) l
                   LEFT JOIN cnt ON cnt.lang = l.lang
                                AND cnt.bucket = db.bucket
                   JOIN tok ON tok.lang = l.lang
                   GROUP BY db.doc_id, l.lang),
            fin AS (SELECT sc.doc_id, sc.lang,
                      round(sc.ll + ln(CAST(docs.nd AS DOUBLE) / tot.n), 6)
                        AS score
                    FROM sc JOIN docs ON docs.lang = sc.lang
                    CROSS JOIN tot),
            r AS (SELECT doc_id, lang, score,
                    row_number() OVER (PARTITION BY doc_id
                                       ORDER BY score DESC, lang) AS rn
                  FROM fin)
"""


def oracle_sql() -> dict[str, str]:
    from lingua_ray.stages.quality import LOGOGRAM_RE_CLASS
    quality = f"""
    WITH q AS (
      SELECT doc_id,
        length(coalesce(text, '')) AS n_chars,
        length(string_split(coalesce(text, ''), ' ')) AS n_words,
        length(regexp_replace(coalesce(text, ''), '[^A-Za-z]', '', 'g')) AS n_alpha,
        length(regexp_replace(coalesce(text, ''), '[^0-9]', '', 'g')) AS n_digits,
        length(regexp_replace(coalesce(text, ''), '{LOGOGRAM_RE_CLASS}', '', 'g'))
          AS n_logograms,
        length(list_distinct(string_split(coalesce(text, ''), ' '))) AS n_distinct_words,
        length(replace(coalesce(text, ''), ' ', '')) AS word_chars
      FROM documents
    )
    SELECT doc_id, n_chars, n_words, n_alpha, n_digits, n_logograms,
      n_distinct_words,
      CAST(
        CASE WHEN n_chars > 0 AND 2 * n_logograms >= n_chars
             THEN CASE WHEN n_chars < 3 THEN 1 ELSE 0 END
             ELSE CASE WHEN n_words < 3 THEN 1 ELSE 0 END END
      + CASE WHEN n_chars > 20000 THEN 2 ELSE 0 END
      + CASE WHEN NOT (n_chars > 0 AND 2 * n_logograms >= n_chars)
              AND (word_chars < n_words OR word_chars > 12 * n_words)
             THEN 4 ELSE 0 END
      + CASE WHEN 2 * (n_alpha + n_logograms) < n_chars THEN 8 ELSE 0 END
      + CASE WHEN 10 * n_digits > 3 * n_chars THEN 16 ELSE 0 END
      + CASE WHEN NOT (n_chars > 0 AND 2 * n_logograms >= n_chars)
              AND n_words >= 10 AND 10 * n_distinct_words < 3 * n_words
             THEN 32 ELSE 0 END
      AS INTEGER) AS quality_flags
    FROM q
    """
    scrub = f"""
    WITH s0 AS (SELECT doc_id, coalesce(text, '') AS t0 FROM documents),
    s1 AS (SELECT doc_id, t0,
             regexp_replace(t0, '{_EMAIL}', '<EMAIL>', 'g') AS t1 FROM s0),
    s2 AS (SELECT *, regexp_replace(t1, '{_IP}', '<IP>', 'g') AS t2 FROM s1),
    s3 AS (SELECT *, regexp_replace(t2, '{_SSN}', '<SSN>', 'g') AS t3 FROM s2),
    s4 AS (SELECT *, regexp_replace(t3, '{_CC}', '<CC>', 'g') AS t4 FROM s3),
    s5 AS (SELECT *, regexp_replace(t4, '{_PHONE}', '<PHONE>', 'g') AS t5
           FROM s4)
    SELECT doc_id,
      CAST(length(regexp_extract_all(t0, '{_EMAIL}')) AS INTEGER) AS pii_email,
      CAST(length(regexp_extract_all(t1, '{_IP}')) AS INTEGER) AS pii_ip,
      CAST(length(regexp_extract_all(t2, '{_SSN}')) AS INTEGER) AS pii_ssn,
      CAST(length(regexp_extract_all(t3, '{_CC}')) AS INTEGER) AS pii_cc,
      CAST(length(regexp_extract_all(t4, '{_PHONE}')) AS INTEGER) AS pii_phone,
      CAST(length(regexp_extract_all(lower(t5), '{_TOX}')) AS INTEGER)
        AS tox_count,
      t5 AS scrubbed_text
    FROM s5
    """
    tokens = f"""
    SELECT doc_id,
      CAST(length(regexp_extract_all(coalesce(text, ''), '{_TOKEN}')) AS BIGINT) AS n_tokens,
      CAST(length(regexp_extract_all(coalesce(text, ''), '[^ ]+')) AS BIGINT) AS n_ws_tokens
    FROM documents
    """
    clean_corpus = f"""
    WITH qq AS ({quality})
    SELECT d.lang, count(*) AS n_docs FROM (
      SELECT min(qq.doc_id) AS doc_id
      FROM qq JOIN documents dd ON qq.doc_id = dd.doc_id
      WHERE qq.quality_flags = 0
      GROUP BY dd.text
    ) k JOIN documents d ON k.doc_id = d.doc_id
    GROUP BY d.lang
    """
    datacard = f"""
    WITH qq AS ({quality}),
    base AS (
      SELECT CAST(count(*) AS BIGINT) AS n_docs,
        CAST(sum(length(coalesce(text, ''))) AS BIGINT) AS n_chars,
        CAST(sum(length(regexp_extract_all(coalesce(text, ''), '[^ ]+'))) AS BIGINT)
          AS n_ws_tokens,
        CAST(count(DISTINCT md5(coalesce(text, ''))) AS BIGINT)
          AS n_distinct_texts,
        CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
      FROM documents),
    k AS (SELECT CAST(sum(CASE WHEN quality_flags = 0 THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_keep FROM qq),
    m AS (SELECT lang AS top_lang FROM (
            SELECT lang, count(*) AS c FROM documents GROUP BY lang
            ORDER BY c DESC, lang LIMIT 1))
    SELECT base.n_docs, base.n_chars, base.n_ws_tokens, k.n_keep,
           base.n_distinct_texts, base.n_langs, m.top_lang
    FROM base CROSS JOIN k CROSS JOIN m
    """
    sqls = {
        "doc_quality": quality,
        "clean_corpus_stats": clean_corpus,
        "corpus_datacard": datacard,
        "doc_scrub": scrub,
        "doc_tokens": tokens,
        "doc_fingerprint":
            "SELECT doc_id, md5(coalesce(text, '')) AS fingerprint FROM documents",
        "embedding_pca_stats": _PCA_STATS_SQL,
        "para_dedup": _para_dedup_sql(),
        "line_dedup": _line_dedup_sql(),
        "dedup_incremental": _dedup_incremental_sql(),
        "dedup_indexed": _dedup_incremental_sql(),
        "dedup_incremental_bloom": _dedup_incremental_sql(),
        "doc_dup_ngrams": _DOC_DUP_NGRAMS_SQL,
        "embedding_centroid_by_label": _EMBEDDING_CENTROID_SQL,
        "docs_per_source_cap": """
            SELECT source, doc_id FROM (
              SELECT source, doc_id,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY doc_id) AS rn
              FROM documents) WHERE rn <= 100""",
        "lang_temperature_mix": """
            WITH c AS (SELECT lang, count(*) AS n FROM documents
                       GROUP BY lang),
            w AS (SELECT lang, n,
                         pow(n / sum(n) OVER (), 0.3) AS wt FROM c)
            SELECT lang, n,
                   round(wt / sum(wt) OVER (), 6) AS rate FROM w""",
        "dedup_jaccard": """
            WITH t AS (SELECT doc_id,
                         CASE WHEN length(lower(coalesce(text, ''))) < 5
                              THEN rpad(lower(coalesce(text, '')), 5, ' ')
                              ELSE lower(coalesce(text, '')) END AS s
                       FROM documents),
            grams AS (
              SELECT DISTINCT doc_id, substring(s, i, 5) AS g
              FROM t, unnest(generate_series(1, length(s) - 4)) AS u(i)
            ),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS dup_of, b.doc_id AS doc_id,
                             count(*) AS i
                      FROM grams a JOIN grams b
                        ON a.g = b.g AND a.doc_id < b.doc_id
                      GROUP BY 1, 2)
            SELECT i.doc_id, i.dup_of,
                   round(CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i), 6)
                     AS jaccard
            FROM inter i JOIN sizes sa ON sa.doc_id = i.dup_of
                         JOIN sizes sb ON sb.doc_id = i.doc_id
            WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= 0.8
        """,
        "conversations_assembled": _conversations_assembled_sql(),
        "linear_probe_stats": """
            WITH flat AS (
              SELECT vec_id, label,
                     CAST(unnest(embedding) AS DOUBLE) AS e,
                     CAST(generate_subscripts(embedding, 1) - 1 AS INTEGER)
                       AS i
              FROM embeddings)
            SELECT a.i AS i, b.i AS j, round(SUM(a.e * b.e), 6) AS v
            FROM flat a JOIN flat b USING (vec_id)
            GROUP BY a.i, b.i
            UNION ALL
            SELECT i, CAST(-1 AS INTEGER) AS j,
                   round(SUM(e * label), 6) AS v
            FROM flat GROUP BY i
        """,
        "transcript_scrub": _transcript_scrub_sql(),
        "transcript_role_stats": _transcript_role_stats_sql(),
        "transcript_tool_usage": _transcript_tool_usage_sql(),
        "transcript_conv_stats": _transcript_conv_stats_sql(),
        "transcript_role_transitions": _transcript_role_transitions_sql(),
        "transcript_turn_gaps": _transcript_turn_gaps_sql(),
        "transcript_tool_chains": _transcript_tool_chains_sql(),
        "conv_context_truncate": _conv_context_truncate_sql(),
        "conv_role_balance": _conv_role_balance_sql(),
        "transcript_contamination": _transcript_contamination_sql(),
        "transcript_loop_detect": _transcript_loop_detect_sql(),
        "turn_context_window": _turn_context_window_sql(),
        "conv_pack_assign": _conv_pack_assign_sql(),
        "transcript_sessionize": _transcript_sessionize_sql(),
        "conv_exchange_extract": _conv_exchange_extract_sql(),
        "dpo_pairs": _dpo_pairs_sql(),
        "transcript_refusals": _transcript_refusals_sql(),
        "session_turn_dedup": _session_turn_dedup_sql(),
        "transcript_validation": _transcript_validation_sql(),
        "conv_lookup": _transcript_oracle("""
            SELECT conv_id, turn_idx, text FROM {src}
            WHERE conv_id = 'conv00000000'
        """),
        "turn_dedup": _turn_dedup_sql(),
        "conv_dedup": _conv_dedup_sql(),
        "substring_dedup": _substring_dedup_sql(1),
        "substring_dedup_sampled": _substring_dedup_sql(_SUBSTR_STRIDE),
        "substring_dedup_winnowed": _substring_dedup_winnow_sql(_WINNOW_W),
        "dedup_exact":
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY coalesce(text, '')",
        "dedup_normalized": """
            SELECT min(doc_id) AS doc_id FROM documents
            GROUP BY trim(regexp_replace(lower(coalesce(text, '')),
                                         '\\s+', ' ', 'g'), ' ')
        """,
        "doc_stopwords": """
            SELECT doc_id,
              CAST(length(list_filter(string_split(lower(coalesce(text, '')), ' '),
                w -> list_contains({stop}, w))) AS BIGINT) AS n_stopwords,
              CAST(length(string_split(coalesce(text, ''), ' ')) AS BIGINT)
                AS n_words_total
            FROM documents
        """.replace("{stop}", _sql_stopword_list()),
        "word_counts": """
            SELECT word, count(*) AS n
            FROM (SELECT unnest(string_split(coalesce(text, ''), ' ')) AS word
                  FROM documents)
            GROUP BY word
            ORDER BY n DESC, word ASC
            LIMIT 100
        """,
        "doc_shuffle": """
            SELECT doc_id,
              substring(md5(CAST(doc_id AS VARCHAR)), 1, 2) AS bucket,
              CAST(row_number() OVER (
                PARTITION BY substring(md5(CAST(doc_id AS VARCHAR)), 1, 2)
                ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
               AS BIGINT) AS pos
            FROM documents
        """,
        "doc_length_rank": """
            SELECT doc_id, n_chars,
              CAST(row_number() OVER w AS BIGINT) AS rn,
              CAST(ntile(10) OVER w AS BIGINT) AS tile
            FROM documents
            WINDOW w AS (ORDER BY n_chars, doc_id)
        """,
        "doc_length_pctrank": """
            SELECT doc_id, n_chars,
              round(percent_rank() OVER (ORDER BY n_chars), 6) AS pct
            FROM documents
        """,
        "bigram_pmi": """
            WITH w AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS ws
                       FROM documents),
            pairs AS (
              SELECT ws[i] AS w1, ws[i + 1] AS w2
              FROM w, unnest(generate_series(1, greatest(len(ws) - 1, 0)))
                     AS t(i)
            ),
            bg AS (SELECT w1, w2, count(*) AS n2 FROM pairs
                   GROUP BY w1, w2),
            uni AS (SELECT unnest(string_split(coalesce(text, ''), ' ')) AS word
                    FROM documents),
            uc AS (SELECT word, count(*) AS c FROM uni GROUP BY word),
            tot AS (SELECT (SELECT count(*) FROM uni) AS n1,
                           (SELECT sum(n2) FROM bg) AS n2t)
            SELECT b.w1, b.w2, b.n2,
              round(ln((CAST(b.n2 AS DOUBLE) / t.n2t) /
                ((CAST(u1.c AS DOUBLE) / t.n1) *
                 (CAST(u2.c AS DOUBLE) / t.n1))), 6) AS pmi
            FROM bg b
            JOIN uc u1 ON b.w1 = u1.word
            JOIN uc u2 ON b.w2 = u2.word
            CROSS JOIN tot t
            WHERE b.n2 >= 5
        """,
        "source_kl": """
            WITH w AS (SELECT source,
                              unnest(string_split(coalesce(text, ''), ' ')) AS word
                       FROM documents),
            sc AS (SELECT source, word, count(*) AS n FROM w
                   GROUP BY source, word),
            st AS (SELECT source, sum(n) AS tot FROM sc GROUP BY source),
            g AS (SELECT word, sum(n) AS gn FROM sc GROUP BY word),
            gt AS (SELECT sum(n) AS gtot FROM sc)
            SELECT sc.source,
              round(sum((CAST(sc.n AS DOUBLE) / st.tot) *
                        ln((CAST(sc.n AS DOUBLE) / st.tot) /
                           (CAST(g.gn AS DOUBLE) / gt.gtot))), 6) AS kl
            FROM sc
            JOIN st ON sc.source = st.source
            JOIN g ON sc.word = g.word
            CROSS JOIN gt
            GROUP BY sc.source
        """,
        "doc_budget_selection": """
            SELECT doc_id, score, cost FROM (
              SELECT doc_id, n_chars AS score, n_chars AS cost,
                sum(n_chars) OVER (ORDER BY n_chars DESC, doc_id
                                   ROWS UNBOUNDED PRECEDING) AS cum
              FROM documents)
            WHERE cum <= (SELECT sum(n_chars) // 2 FROM documents)
        """,
        "inverted_index": """
            WITH p AS (SELECT DISTINCT word, doc_id FROM (
              SELECT unnest(string_split(coalesce(text, ''), ' ')) AS word, doc_id
              FROM documents))
            SELECT word, count(*) AS df,
              array_to_string(list(doc_id ORDER BY doc_id), ',')
                AS postings
            FROM p GROUP BY word
        """,
        "word_counts_by_lang": """
            WITH c AS (
              SELECT lang, word, count(*) AS n
              FROM (SELECT lang, unnest(string_split(coalesce(text, ''), ' ')) AS word
                    FROM documents)
              GROUP BY lang, word
            )
            SELECT lang, word, n FROM c
            QUALIFY row_number() OVER
              (PARTITION BY lang ORDER BY n DESC, word ASC) <= 10
        """,
        "jsonl_roundtrip":
            "SELECT doc_id, lang, source, n_chars FROM documents",
        "csv_roundtrip":
            "SELECT doc_id, lang, n_chars FROM documents",
        "doc_validation": """
            SELECT source,
              count(*) AS n_rows,
              CAST(sum(CASE WHEN text IS NULL OR length(coalesce(text, '')) = 0
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_empty,
              CAST(sum(CASE WHEN lang IS NULL THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_null_lang,
              CAST(sum(CASE WHEN length(coalesce(text, '')) != n_chars
                            THEN 1 ELSE 0 END) AS BIGINT)
                AS n_len_mismatch,
              CAST(sum(CASE WHEN n_chars < 0 OR n_chars > 1000000
                            THEN 1 ELSE 0 END) AS BIGINT)
                AS n_out_of_range
            FROM documents GROUP BY source
        """,
        "doc_chunks": """
            SELECT doc_id, gs - 1 AS chunk_idx,
              substring(coalesce(text, ''), (gs - 1) * 400 + 1, 500)
                AS chunk_text
            FROM documents,
              unnest(generate_series(1,
                1 + CAST(ceil(greatest(length(coalesce(text, '')) - 500, 0) / 400.0)
                         AS BIGINT))) AS t(gs)
        """,
        "word_heavy_hitters": """
            SELECT word, count(*) AS n
            FROM (SELECT unnest(string_split(coalesce(text, ''), ' ')) AS word
                  FROM documents)
            GROUP BY word
            ORDER BY n DESC, word ASC
            LIMIT 50
        """,
        "corpus_mix": _corpus_mix_sql(),
        "doc_tfidf": """
            WITH w AS (SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS word
                       FROM documents),
            df AS (SELECT word, count(DISTINCT doc_id) AS df
                   FROM w GROUP BY word),
            n AS (SELECT count(*) AS n FROM documents)
            SELECT w.doc_id, round(sum(ln(n.n / df.df)), 6) AS tfidf
            FROM w CROSS JOIN n JOIN df ON w.word = df.word
            GROUP BY w.doc_id
        """,
        "doc_split": _doc_split_sql(),
        "bm25_topk": """
            WITH w AS (SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS word
                       FROM documents),
            dl AS (SELECT doc_id, count(*) AS len FROM w GROUP BY doc_id),
            st AS (SELECT count(*) AS n,
                          CAST(sum(len) AS DOUBLE) / count(*) AS avgdl
                   FROM dl),
            q(term) AS (SELECT unnest(
                ['scan', 'merge', 'window', 'batch', 'vector'])),
            tf AS (SELECT doc_id, word, count(*) AS tf
                   FROM w JOIN q ON w.word = q.term GROUP BY doc_id, word),
            df AS (SELECT word, count(DISTINCT doc_id) AS df
                   FROM w JOIN q ON w.word = q.term GROUP BY word),
            sc AS (SELECT tf.doc_id,
                     round(sum(
                       ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                       * tf.tf * 2.2
                       / (tf.tf + 1.2 * (1 - 0.75
                                         + 0.75 * dl.len / st.avgdl))), 6)
                       AS bm25
                   FROM tf JOIN df USING (word)
                   JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN st
                   GROUP BY tf.doc_id)
            SELECT doc_id, bm25 FROM sc
            ORDER BY bm25 DESC, doc_id LIMIT 50
        """,
        "ccnet_buckets": """
            WITH w AS (SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS word
                       FROM documents),
            c AS (SELECT doc_id, word, count(*) AS n FROM w
                  GROUP BY doc_id, word),
            t AS (SELECT doc_id, sum(n) AS tot FROM c GROUP BY doc_id),
            e AS (SELECT c.doc_id,
                    round(-sum((CAST(n AS DOUBLE) / tot) *
                               ln(CAST(n AS DOUBLE) / tot)), 6) AS entropy
                  FROM c JOIN t ON c.doc_id = t.doc_id GROUP BY c.doc_id),
            s AS (SELECT d.doc_id, d.lang,
                    CAST(round(e.entropy * 1000000.0) AS BIGINT) AS score_u
                  FROM documents d JOIN e ON d.doc_id = e.doc_id),
            r AS (SELECT doc_id, lang, score_u,
                    CAST(row_number() OVER win AS BIGINT) AS rn,
                    ntile(3) OVER win AS tile
                  FROM s
                  WINDOW win AS (PARTITION BY lang
                                 ORDER BY score_u DESC, doc_id))
            SELECT doc_id, lang, score_u, rn,
              CASE tile WHEN 1 THEN 'head' WHEN 2 THEN 'middle'
                   ELSE 'tail' END AS bucket
            FROM r
        """,
        "nb_lang_classify": _NB_CTE + """
            SELECT r.doc_id, r.lang AS pred_lang, r.score,
              CAST(CASE WHEN r.lang = d.lang THEN 1 ELSE 0 END
                   AS INTEGER) AS hit
            FROM r JOIN documents d ON d.doc_id = r.doc_id
            WHERE rn = 1
        """,
        "weighted_sample_by_lang": """
            SELECT lang, doc_id, n_chars, rn FROM (
              SELECT lang, doc_id, n_chars,
                CAST(row_number() OVER (PARTITION BY lang ORDER BY
                  -ln((('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 13)
                       )::UBIGINT + 1) / 4503599627370496.0)
                   / CAST(n_chars AS DOUBLE),
                  doc_id) AS BIGINT) AS rn
              FROM documents WHERE n_chars > 0
            ) WHERE rn <= 20
        """,
        "dsir_select": """
            WITH w AS (SELECT doc_id, lang,
                              unnest(string_split(coalesce(text, ''), ' ')) AS word
                       FROM documents),
            b AS (SELECT doc_id, lang,
                    CAST(('0x' || substr(md5(word), 1, 13))::UBIGINT % 1024
                         AS BIGINT) AS bucket
                  FROM w),
            cnt AS (SELECT bucket,
                      sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS ct,
                      count(*) AS cr
                    FROM b GROUP BY bucket),
            tot AS (SELECT sum(ct) AS t, sum(cr) AS r FROM cnt),
            llr AS (SELECT bucket,
                      ln((ct + 1.0) / (t + 1024.0))
                      - ln((cr + 1.0) / (r + 1024.0)) AS llr
                    FROM cnt CROSS JOIN tot),
            sc AS (SELECT b.doc_id, sum(llr.llr) AS logw
                   FROM b JOIN llr USING (bucket) GROUP BY b.doc_id),
            g AS (SELECT doc_id, logw,
                    -ln(-ln((('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                             1, 13))::UBIGINT + 1)
                            / 4503599627370497.0)) AS gum
                  FROM sc)
            SELECT doc_id, round(logw + gum, 6) AS dsir_score FROM g
            ORDER BY dsir_score DESC, doc_id LIMIT 100
        """,
        "gopher_filter": """
            WITH t AS (SELECT doc_id, coalesce(text, '') AS text
                       FROM documents),
            w AS (SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS word
                  FROM t),
            agg AS (
              SELECT doc_id,
                CAST(sum(CASE WHEN regexp_matches(word, '[A-Za-z]')
                              THEN 1 ELSE 0 END) AS BIGINT)
                  AS n_alpha_words,
                CAST(count(DISTINCT CASE WHEN lower(word) IN
                       ('the','be','to','of','and','that','have','with')
                     THEN lower(word) END) AS BIGINT) AS n_req_stopwords
              FROM w GROUP BY doc_id)
            SELECT t.doc_id,
              CAST(len(string_split(t.text, ' ')) AS BIGINT) AS n_words,
              agg.n_alpha_words, agg.n_req_stopwords,
              CAST((length(t.text) - length(replace(t.text, '#', '')))
                 + (length(t.text) - length(replace(t.text, chr(8230), '')))
                 AS BIGINT) AS n_symbols,
              CAST(CASE WHEN
                  len(string_split(t.text, ' ')) BETWEEN 50 AND 100000
                  AND 3 * len(string_split(t.text, ' '))
                      <= length(t.text) - len(string_split(t.text, ' ')) + 1
                  AND length(t.text) - len(string_split(t.text, ' ')) + 1
                      <= 10 * len(string_split(t.text, ' '))
                  AND 10 * ((length(t.text)
                             - length(replace(t.text, '#', '')))
                          + (length(t.text)
                             - length(replace(t.text, chr(8230), ''))))
                      <= len(string_split(t.text, ' '))
                  AND 5 * agg.n_alpha_words
                      >= 4 * len(string_split(t.text, ' '))
                  AND agg.n_req_stopwords >= 1
                THEN 1 ELSE 0 END AS INT) AS gopher_keep
            FROM t JOIN agg USING (doc_id)
        """,
        "embedding_inference": """
            SELECT vec_id, round(1/(1 + exp(-(s + 0.1))), 6) AS score
            FROM (
              SELECT vec_id,
                sum(CAST(e AS DOUBLE) *
                    ((((idx - 1) * 2654435761) % 4294967296)
                     / 4294967296.0 - 0.5)) AS s
              FROM (SELECT vec_id, unnest(embedding) AS e,
                           generate_subscripts(embedding, 1) AS idx
                    FROM embeddings)
              GROUP BY vec_id
            )
        """,
        "weighted_sample": """
            SELECT doc_id, n_chars, rn FROM (
              SELECT doc_id, n_chars,
                CAST(row_number() OVER (ORDER BY
                  -ln((('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 13)
                       )::UBIGINT + 1) / 4503599627370496.0)
                   / CAST(n_chars AS DOUBLE),
                  doc_id) AS BIGINT) AS rn
              FROM documents WHERE n_chars > 0
            ) WHERE rn <= 100
        """,
        "stratified_sample": """
            SELECT lang, doc_id,
              CAST(row_number() OVER (
                PARTITION BY lang
                ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
               AS BIGINT) AS rn
            FROM documents
            QUALIFY rn <= 20
        """,
        "contamination": """
            WITH w AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS ws
                       FROM documents),
            grams AS (
              SELECT doc_id, array_to_string(ws[gs:gs+7], ' ') AS g
              FROM w, unnest(generate_series(1, greatest(len(ws) - 7, 0)))
                     AS t(gs)
            ),
            dg AS (SELECT DISTINCT doc_id, g FROM grams),
            bench AS (SELECT DISTINCT g FROM dg WHERE doc_id % 97 = 0),
            s AS (
              SELECT dg.doc_id, count(*) AS n_ngrams,
                CAST(sum(CASE WHEN bench.g IS NOT NULL THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_hits
              FROM dg LEFT JOIN bench ON dg.g = bench.g
              GROUP BY dg.doc_id
            )
            SELECT d.doc_id, coalesce(s.n_ngrams, 0) AS n_ngrams,
                   coalesce(s.n_hits, 0) AS n_hits
            FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
        """,
        "ngram_counts": """
            WITH g AS (
              SELECT lang, substring(text, gs, 3) AS ngram
              FROM documents,
                   unnest(generate_series(1, greatest(length(coalesce(text, '')) - 2, 0)))
                     AS t(gs)
            ),
            c AS (SELECT lang, ngram, count(*) AS cnt
                  FROM g GROUP BY lang, ngram)
            SELECT lang, ngram, cnt FROM c
            QUALIFY row_number() OVER
              (PARTITION BY lang ORDER BY cnt DESC, ngram ASC) <= 20
        """,
        "lang_hist":
            "SELECT lang, count(*) AS n FROM documents GROUP BY lang",
        "doc_entropy": """
            WITH w AS (SELECT doc_id,
                              unnest(string_split(coalesce(text, ''), ' ')) AS word
                       FROM documents),
            c AS (SELECT doc_id, word, count(*) AS n FROM w
                  GROUP BY doc_id, word),
            t AS (SELECT doc_id, sum(n) AS tot FROM c GROUP BY doc_id)
            SELECT c.doc_id,
              round(-sum((CAST(n AS DOUBLE) / tot) *
                         ln(CAST(n AS DOUBLE) / tot)), 6) AS entropy,
              CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT)
                AS n_hapax
            FROM c JOIN t ON c.doc_id = t.doc_id
            GROUP BY c.doc_id
        """,
        "distinct_words_by_lang": """
            SELECT lang, count(DISTINCT word) AS n_distinct_words
            FROM (SELECT lang, unnest(string_split(coalesce(text, ''), ' ')) AS word
                  FROM documents)
            GROUP BY lang
        """,
        "source_stats": """
            SELECT source, lang, count(*) AS n_docs,
              CAST(sum(n_chars) AS BIGINT) AS n_chars,
              max(n_chars) AS max_chars
            FROM documents GROUP BY source, lang
        """,
        "knn_bruteforce": """
            SELECT vec_id FROM embeddings
            ORDER BY list_cosine_similarity(
                embedding,
                (SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC,
              vec_id
            LIMIT 10
        """,
        "doc_repetition": """
            SELECT doc_id, max(c) AS top_word_count,
                   CAST(sum(c) AS BIGINT) AS n_words_rep
            FROM (
              SELECT doc_id, w, count(*) AS c FROM (
                SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS w
                FROM documents)
              GROUP BY doc_id, w)
            GROUP BY doc_id
        """,
        "doc_length_quantiles": """
            SELECT count(*) AS n_docs,
              CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50,
              CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90,
              CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99
            FROM documents
        """,
        "doc_length_minmax_by_lang": """
            SELECT doc_id, lang, n_chars,
              round(CASE WHEN max(n_chars) OVER w > min(n_chars) OVER w
                    THEN (n_chars - min(n_chars) OVER w) /
                         CAST(max(n_chars) OVER w - min(n_chars) OVER w
                              AS DOUBLE)
                    ELSE 0.0 END, 6) AS norm
            FROM documents
            WINDOW w AS (PARTITION BY lang)
        """,
        "doc_length_quantiles_by_lang": """
            SELECT lang, count(*) AS n,
              CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50,
              CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90,
              CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99
            FROM documents GROUP BY lang
        """,
        "doc_length_topp": """
            SELECT doc_id, n_chars FROM documents
            WHERE n_chars >= (SELECT quantile_disc(n_chars, 0.9)
                              FROM documents)
        """,
        "distinct_words_exact": """
            SELECT count(DISTINCT word) AS n_distinct_words
            FROM (SELECT unnest(string_split(coalesce(text, ''), ' ')) AS word
                  FROM documents)
        """,
    }
    # identical scores by construction: the persisted-index probe reads
    # the SAME df/stats the in-pipeline pass computes
    sqls["bm25_indexed"] = sqls["bm25_topk"]
    # the confusion matrix reuses the NB classifier's CTE chain (the
    # shared _NB_CTE constant) and only changes the final projection
    sqls["nb_confusion"] = _NB_CTE + """
            SELECT d.lang, r.lang AS pred_lang,
              CAST(count(*) AS BIGINT) AS n
            FROM r JOIN documents d ON d.doc_id = r.doc_id
            WHERE rn = 1 GROUP BY d.lang, r.lang
        """

    # ---- round-5 operator tranche ----
    sqls["dedup_keep_best"] = """
        SELECT doc_id, n_chars FROM (
          SELECT doc_id, n_chars,
                 row_number() OVER (
                   PARTITION BY trim(regexp_replace(
                     lower(coalesce(text, '')), '\\s+', ' ', 'g'), ' ')
                   ORDER BY n_chars DESC, doc_id) AS rn
          FROM documents) WHERE rn = 1
    """
    sqls["pii_leak_report"] = f"""
        SELECT source,
          CAST(sum(length(regexp_extract_all(coalesce(text, ''),
            '{_EMAIL}'))) AS BIGINT) AS n_email,
          CAST(sum(length(regexp_extract_all(coalesce(text, ''),
            '{_IP}'))) AS BIGINT) AS n_ip,
          CAST(sum(length(regexp_extract_all(coalesce(text, ''),
            '{_SSN}'))) AS BIGINT) AS n_ssn,
          CAST(sum(length(regexp_extract_all(coalesce(text, ''),
            '{_CC}'))) AS BIGINT) AS n_cc,
          CAST(sum(length(regexp_extract_all(coalesce(text, ''),
            '{_PHONE}'))) AS BIGINT) AS n_phone
        FROM documents GROUP BY source
    """
    sqls["token_length_histogram"] = """
        SELECT lang,
          CAST(length(string_split(coalesce(text, ''), ' ')) // 32
               AS BIGINT) AS bucket,
          CAST(count(*) AS BIGINT) AS n_docs
        FROM documents GROUP BY lang, bucket
    """
    sqls["domain_reweight"] = """
        WITH s AS (
          SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
            CAST(sum(length(string_split(coalesce(text, ''), ' ')))
                 AS BIGINT) AS n_tokens
          FROM documents GROUP BY source)
        SELECT source, n_docs, n_tokens,
          round(n_tokens / (sum(n_tokens) OVER ()), 6) AS token_share,
          round((sum(n_tokens) OVER ())
                / ((count(*) OVER ()) * n_tokens), 6) AS weight
        FROM s
    """
    sqls["code_fence_stats"] = """
        WITH p AS (
          SELECT lang,
            CASE WHEN doc_id % 7 = 0 THEN coalesce(text, '') || chr(10)
              || '```' || chr(10) || 'print(''hello'')' || chr(10) || '```'
            ELSE coalesce(text, '') END AS text
          FROM documents)
        SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
          CAST(sum(CASE WHEN position('```' in text) > 0 THEN 1 ELSE 0
                   END) AS BIGINT) AS n_fenced,
          round(sum(CASE WHEN position('```' in text) > 0 THEN 1 ELSE 0
                    END) / count(*), 6) AS fenced_frac
        FROM p GROUP BY lang
    """
    sqls["repeated_prefix_convs"] = _transcript_oracle(f"""
        WITH t0 AS (
          SELECT CASE WHEN conv_id LIKE '%0'
                      THEN '{_RP_PREFIX}' || coalesce(text, '')
                      ELSE coalesce(text, '') END AS text
          FROM {{src}} WHERE turn_idx = 0)
        SELECT substr(text, 1, 24) AS prefix,
               CAST(count(*) AS BIGINT) AS n_convs
        FROM t0 GROUP BY prefix HAVING count(*) >= 2
    """)
    sqls["conv_response_latency"] = _transcript_oracle("""
        SELECT conv_id,
          CAST(epoch_us(min(CASE WHEN role = 'assistant' THEN ts END))
             - epoch_us(min(CASE WHEN role = 'user' THEN ts END))
             AS BIGINT) AS latency_us
        FROM {src} GROUP BY conv_id
        HAVING min(CASE WHEN role = 'assistant' THEN ts END) IS NOT NULL
           AND min(CASE WHEN role = 'user' THEN ts END) IS NOT NULL
    """)
    from lingua_ray.stages.sampling import _md5_threshold as _mt
    sqls["length_stratified_split"] = f"""
        SELECT lang,
          CASE WHEN md5(CAST(doc_id AS VARCHAR)) < '{_mt(0.8)}'
               THEN 'train'
               WHEN md5(CAST(doc_id AS VARCHAR)) < '{_mt(0.9)}'
               THEN 'val' ELSE 'test' END AS split,
          CAST(count(*) AS BIGINT) AS n_docs
        FROM documents GROUP BY lang, split
    """
    sqls["redpajama_signals"] = """
        WITH lines AS (
          SELECT doc_id,
                 unnest(string_split(coalesce(text, ''), chr(10))) AS line
          FROM documents),
        l AS (
          SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines,
            CAST(sum(CASE WHEN regexp_matches(line, '[.!?]$')
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_punct_lines,
            CAST(count(DISTINCT line) AS BIGINT) AS n_uniq_lines
          FROM lines GROUP BY doc_id),
        w AS (
          SELECT doc_id,
            length(replace(coalesce(text, ''), ' ', '')) AS nonspace,
            length(regexp_extract_all(coalesce(text, ''), '[^ ]+'))
              AS nwords
          FROM documents)
        SELECT l.doc_id, l.n_lines, l.n_punct_lines, l.n_uniq_lines,
          round(CASE WHEN w.nwords > 0
                THEN CAST(w.nonspace AS DOUBLE) / w.nwords
                ELSE 0 END, 6) AS mean_word_len
        FROM l JOIN w ON l.doc_id = w.doc_id
    """
    sqls["conv_duration_stats"] = _transcript_oracle("""
        SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
          CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS BIGINT)
            AS duration_us,
          round(CASE WHEN epoch_us(max(ts)) - epoch_us(min(ts)) > 0
                THEN count(*) / (CAST(epoch_us(max(ts)) -
                     epoch_us(min(ts)) AS DOUBLE) / 60000000.0)
                ELSE 0 END, 6) AS turns_per_min
        FROM {src} GROUP BY conv_id
    """)
    sqls["source_lang_entropy"] = """
        WITH c AS (
          SELECT source, lang, CAST(count(*) AS BIGINT) AS n
          FROM documents GROUP BY source, lang),
        t AS (SELECT source, sum(n) AS tot,
                     CAST(count(*) AS BIGINT) AS n_langs
              FROM c GROUP BY source)
        SELECT c.source, t.n_langs,
          round(-sum((CAST(n AS DOUBLE) / tot) *
                     ln(CAST(n AS DOUBLE) / tot)), 6) AS lang_entropy
        FROM c JOIN t ON c.source = t.source
        GROUP BY c.source, t.n_langs
    """
    sqls["turn_length_quantiles_by_role"] = _transcript_oracle("""
        SELECT role, count(*) AS n,
          CAST(quantile_disc(length(coalesce(text, '')), 0.5)
               AS BIGINT) AS p50,
          CAST(quantile_disc(length(coalesce(text, '')), 0.9)
               AS BIGINT) AS p90,
          CAST(quantile_disc(length(coalesce(text, '')), 0.99)
               AS BIGINT) AS p99
        FROM {src} GROUP BY role
    """)
    return sqls
