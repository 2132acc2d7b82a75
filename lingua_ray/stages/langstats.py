"""Per-conversation language-consistency statistics.

Composes the langid stage with the bucketed adjacency primitive:
(a) code-switch count — adjacent turns whose DETECTED language differs —
and (b) majority language + distinct-language count per conversation.

Scale shape: both signals reduce to per-block partial counts before the
single conv-keyed shuffle — a mega-conversation contributes one
switch-sum row and ≤ distinct-langs histogram rows per block, so no
group is ever O(conversation length); turn text never rides an
exchange.  The union-tagged rows (lang NULL ⇒ switch partial) let one
``groupby(conv_id)`` finalize both signals without a join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .adjacency import adjacent_pairs


def lang_switch_stats(tagged, bucket_size: int = 64,
                      spill_input: str | None = None):
    """``tagged``: Dataset with (conv_id, turn_idx, lang) — one row per
    turn, ``lang`` already detected.  Returns a Dataset of (conv_id,
    majority_lang, n_langs, n_switches).

    ``tagged`` is consumed by BOTH the adjacency branch and the
    histogram branch; when it is the output of an expensive stage (the
    langid stage), pass ``spill_input`` (a name keying the input,
    e.g. the sf dir) so the table spills to parquet ONCE and both
    branches re-read it lazily — otherwise the upstream stage executes
    twice (observed live when langid was an actor pool: 2 × 14 langid
    actors starving a 16-CPU session into a hang)."""
    def _fill(batch: pa.Table) -> pa.Table:
        # null detections count as "un": lang IS NULL is reserved as the
        # switch-partial sentinel below, so a null-emitting upstream
        # detector must not leak nulls into the histogram rows
        from .util import set_column
        return set_column(batch, "lang",
                          pc.fill_null(pc.cast(batch.column("lang"),
                                               pa.string()), "un"))

    tagged = tagged.map_batches(_fill, batch_format="pyarrow")
    if spill_input is not None:
        from .spill import spill
        tagged = spill(tagged, "langswitch", spill_input)
    pairs = adjacent_pairs(tagged, "conv_id", "turn_idx", ["lang"],
                           bucket_size=bucket_size)

    def switch_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # typed empty — np.unique on an empty object array would
            # yield a null-typed conv_id and break groupby unification
            return pa.table({
                "conv_id": pa.array([],
                                    batch.schema.field("conv_id").type),
                "lang": pa.array([], pa.string()),
                "n": pa.array([], pa.int64())})
        sw = np.asarray(pc.fill_null(
            pc.not_equal(batch.column("prev_lang"), batch.column("lang")),
            False).to_numpy(zero_copy_only=False), dtype=np.int64)
        c = np.asarray(batch.column("conv_id")
                       .to_numpy(zero_copy_only=False))
        uc, codes = np.unique(c, return_inverse=True)
        sums = np.bincount(codes, weights=sw, minlength=len(uc))
        return pa.table({
            "conv_id": pa.array(uc),
            "lang": pa.nulls(len(uc), pa.string()),
            "n": pa.array(sums.astype(np.int64))})

    def lang_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "conv_id": pa.array([],
                                    batch.schema.field("conv_id").type),
                "lang": pa.array([], pa.string()),
                "n": pa.array([], pa.int64())})
        c = np.asarray(batch.column("conv_id")
                       .to_numpy(zero_copy_only=False))
        l = np.asarray(batch.column("lang").to_numpy(zero_copy_only=False))
        key = np.char.add(np.char.add(c.astype(str), "\x00"),
                          l.astype(str))
        uk, idx, ucnt = np.unique(key, return_index=True,
                                  return_counts=True)
        return pa.table({
            "conv_id": pa.array(c[idx]), "lang": pa.array(l[idx]),
            "n": pa.array(ucnt.astype(np.int64))})

    sw = pairs.map_batches(switch_partial, batch_format="pyarrow")
    hist = tagged.map_batches(lang_partial, batch_format="pyarrow")

    def finalize(group: pa.Table) -> pa.Table:
        lang = group.column("lang")
        n = group.column("n").to_numpy()
        is_sw = np.asarray(pc.is_null(lang).to_numpy(zero_copy_only=False))
        n_switches = int(n[is_sw].sum())
        langs = np.asarray(lang.to_numpy(zero_copy_only=False))[~is_sw]
        counts: dict = {}
        for lg, c in zip(langs, n[~is_sw]):
            counts[lg] = counts.get(lg, 0) + int(c)
        top = max(counts.values()) if counts else 0
        major = min(lg for lg, c in counts.items() if c == top) \
            if counts else ""  # tie-break: max count, then lang ascending
        return pa.table({
            "conv_id": group.column("conv_id").slice(0, 1),
            "majority_lang": pa.array([major]),
            "n_langs": pa.array([len(counts)], type=pa.int64()),
            "n_switches": pa.array([n_switches], type=pa.int64())})

    return sw.union(hist).groupby("conv_id").map_groups(
        finalize, batch_format="pyarrow")
