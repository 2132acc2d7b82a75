"""Distributed anti-join (NOT EXISTS) over Ray Data.

Ray Data's `Dataset.join` has no anti mode; this composes one from a
co-partition: the right side is reduced to its DISTINCT keys inside a
per-batch combiner (so the exchange carries keys, never right-side
rows), both sides are unioned with a side tag and hash-shuffled ONCE by
the key, and a trivial map_groups drops each key's left rows when a
right key is present.

Scale shape: the shuffle payload is |left| rows + |distinct right keys|;
a skewed key only concentrates LEFT rows (right contributes one row per
distinct key per block), so the per-group work is bounded by the left
side's own key skew — the same bound any hash join has.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SIDE = "__set_side"


def _tag_left(left, on: str, schema: pa.Schema):
    def tag(batch: pa.Table) -> pa.Table:
        t = batch.select([f.name for f in schema])
        # SQL semantics: a NULL left key matches nothing, so it never
        # enters the exchange (Ray's sort-based groupby would reject it
        # anyway).  anti_join unions these rows back in afterwards.
        col = t.column(on)
        if pa.types.is_null(col.type):
            t = pa.table({f.name: pa.array([], f.type) for f in schema})
        elif col.null_count:
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            t = t.filter(pc.is_valid(col))
        return t.append_column(
            _SIDE, pa.array(np.zeros(t.num_rows, dtype=np.int8)))

    return left.map_batches(tag, batch_format="pyarrow")


def _null_keyed_left(left, on: str, schema: pa.Schema):
    """Left rows whose key IS NULL, cast to the dataset-level schema."""

    def nulls_only(batch: pa.Table) -> pa.Table:
        t = batch.select([f.name for f in schema])
        col = t.column(on)
        if pa.types.is_null(col.type):
            # all-null typed block: every row is null-keyed; re-type the
            # null-typed columns so the union with the join result agrees
            return pa.table({
                f.name: (t.column(f.name).cast(f.type)
                         if pa.types.is_null(t.column(f.name).type)
                         else t.column(f.name))
                for f in schema})
        if col.null_count == 0:
            return t.slice(0, 0)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return t.filter(pc.is_null(col))

    return left.map_batches(nulls_only, batch_format="pyarrow")


def _tag_right_keys(right, on: str, right_on: str, schema: pa.Schema):
    """Combiner: distinct right keys per batch, left columns null-padded."""

    def tag(batch: pa.Table) -> pa.Table:
        # SQL semantics: NULL never matches — and Ray's sort-based
        # groupby rejects null keys anyway
        keys = pc.unique(batch.column(right_on)).drop_null()
        cols = {}
        for f in schema:
            if f.name == on:
                cols[f.name] = keys.cast(f.type)
            else:
                cols[f.name] = pa.nulls(len(keys), type=f.type)
        t = pa.table(cols)
        return t.append_column(
            _SIDE, pa.array(np.ones(t.num_rows, dtype=np.int8)))

    return right.map_batches(tag, batch_format="pyarrow")


def anti_join(left, right, on: str, right_on: str | None = None):
    """Left rows whose key does NOT appear in ``right`` (NOT EXISTS).

    NULL-keyed left rows are kept (they match nothing), routed around
    the exchange by a second filter-scan of ``left`` — map-only, no
    shuffle, emits ~0 rows when keys are non-null; at scale it is a
    column-pruned re-read, the price of SQL NULL semantics without
    polluting the hash exchange with a sentinel key."""
    schema = pa.schema([(f.name, f.type) for f in left.schema().base_schema])

    tagged = _tag_left(left, on, schema).union(
        _tag_right_keys(right, on, right_on or on, schema))

    def pick(group: pa.Table) -> pa.Table:
        side = group.column(_SIDE).to_numpy()
        body = group.drop_columns([_SIDE])
        if (side == 1).any():
            return body.slice(0, 0)
        return body

    joined = tagged.groupby(on).map_groups(pick, batch_format="pyarrow")
    return joined.union(_null_keyed_left(left, on, schema))
