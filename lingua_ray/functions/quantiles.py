"""Exact distributed quantiles, global and per-group.

The pattern (shared with the ``doc_length_quantiles`` query): quantiles
of a bounded-cardinality numeric column need no sort and no large
exchange — each block emits (key, value, count) partial histograms, ONE
hash shuffle groups them by key, and a vectorized per-group reduce does
cumsum + rank lookup over a histogram that is KBs regardless of row
count.  Rank semantics are DuckDB ``quantile_disc``: the value at
1-indexed rank ``ceil(q * n)`` of the sorted column.

Partitioning assumption: one key's distinct-value histogram fits in one
task (distinct values per key, not rows per key — a billion-row group
with 10k distinct lengths is a 10k-row histogram).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.util import round_half_away


def quantile_hist_batch(batch: pa.Table, key_col: str,
                        value_col: str) -> pa.Table:
    """Combiner: one (key, value, cnt) row per distinct pair per block."""
    keys = batch.column(key_col)
    vals = batch.column(value_col).to_numpy().astype(np.int64)
    enc = keys.combine_chunks().dictionary_encode() \
        if isinstance(keys, pa.ChunkedArray) else keys.dictionary_encode()
    if len(vals) == 0:
        return pa.table({key_col: enc.dictionary.slice(0, 0),
                         value_col: pa.array([], pa.int64()),
                         "cnt": pa.array([], pa.int64())})
    kidx = enc.indices.to_numpy().astype(np.int64)
    # composite (key, value) id for one-pass unique: shift values to be
    # non-negative first so the encoding is collision-free.  The range
    # math must happen in Python ints BEFORE the subtraction: vals - vmin
    # itself wraps int64 when the value range exceeds 2**63, which would
    # leave negative "shifted" values that pass a post-hoc guard yet
    # collide composites across keys
    vmin = np.int64(vals.min())
    base_py = int(vals.max()) - int(vmin) + 1  # exact, no wrap
    shifted = vals - vmin  # may wrap when base_py > 2**63 (fallback-only)
    n_keys = len(enc.dictionary)
    if (base_py <= np.iinfo(np.int64).max
            and n_keys * base_py <= np.iinfo(np.int64).max):
        base = np.int64(base_py)
        upair, cnts = np.unique(kidx * base + shifted, return_counts=True)
        uk = (upair // base).astype(np.int64)
        uv = (upair % base).astype(np.int64) + vmin
    else:
        # wide-range values (timestamps, snowflake ids): kidx * base
        # would wrap int64 and silently collide distinct pairs — count
        # runs of the lexsorted pair instead
        order = np.lexsort((shifted, kidx))
        ks, vs = kidx[order], shifted[order]
        first = np.ones(len(ks), dtype=bool)
        first[1:] = (ks[1:] != ks[:-1]) | (vs[1:] != vs[:-1])
        starts = np.flatnonzero(first)
        cnts = np.diff(np.append(starts, len(ks)))
        uk, uv = ks[starts], vs[starts] + vmin
    return pa.table({key_col: enc.dictionary.take(pa.array(uk)),
                     value_col: pa.array(uv),
                     "cnt": pa.array(cnts.astype(np.int64))})


def grouped_quantiles(ds, key_col: str, value_col: str,
                      qs: dict[str, float]):
    """Per-key exact quantiles of an integer column.

    Returns a Dataset with one row per key: ``key_col``, ``n`` (row
    count), and one int64 column per entry of ``qs`` (name -> q).
    """
    hist = ds.map_batches(quantile_hist_batch, batch_format="pyarrow",
                          fn_kwargs={"key_col": key_col,
                                     "value_col": value_col})

    def reduce_group(group: pa.Table) -> pa.Table:
        # the group holds per-block partials for ONE key: merge + cumsum
        v = group.column(value_col).to_numpy()
        c = group.column("cnt").to_numpy()
        uv, inv = np.unique(v, return_inverse=True)
        uc = np.bincount(inv, weights=c).astype(np.int64)
        cum = np.cumsum(uc)
        n = int(cum[-1])
        out = {key_col: group.column(key_col).slice(0, 1),
               "n": pa.array([n], pa.int64())}
        for name, q in qs.items():
            rank = max(1, int(np.ceil(q * n)))
            out[name] = pa.array(
                [int(uv[np.searchsorted(cum, rank)])], pa.int64())
        return pa.table(out)

    return hist.groupby(key_col).map_groups(reduce_group,
                                            batch_format="pyarrow")


def percent_rank_column(ds, value_col: str, out_col: str = "pct"):
    """Attach SQL ``percent_rank() OVER (ORDER BY value_col)`` =
    (count of strictly smaller values) / (n - 1), rounded to 6 decimals.

    No sort: the global (value, count) histogram (combiner → groupby →
    driver cumsum, KBs for a bounded-cardinality column) is broadcast
    as plain scalars into a shuffle-free ``map_batches`` that looks up
    each row's below-count with one ``searchsorted``."""
    import ray

    def hist_partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy().astype(np.int64)
        uv, uc = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(uv),
                         "cnt": pa.array(uc.astype(np.int64))})

    rows = ds.map_batches(hist_partial, batch_format="pyarrow") \
        .groupby("v").sum("cnt").take_all()
    if not rows:
        # empty input: still append the documented out_col
        from ..stages.util import empty_typed_dataset
        cols = {f.name: None for f in ds.schema().base_schema}
        cols[out_col] = pa.float64()
        return empty_typed_dataset(ds, cols)
    rows.sort(key=lambda r: r["v"])
    vals = np.array([r["v"] for r in rows], dtype=np.int64)
    cnts = np.array([r["sum(cnt)"] for r in rows], dtype=np.int64)
    below = np.concatenate([[0], np.cumsum(cnts)[:-1]])
    n = int(cnts.sum())
    denom = max(n - 1, 1)
    ref = ray.put((vals, below))

    def attach(batch: pa.Table) -> pa.Table:
        v_arr, b_arr = ray.get(ref)
        x = batch.column(value_col).to_numpy().astype(np.int64)
        pct = round_half_away(b_arr[np.searchsorted(v_arr, x)] / denom)
        return batch.append_column(out_col, pa.array(pct))

    return ds.map_batches(attach, batch_format="pyarrow")


def exact_quantiles(ds, value_col: str,
                    qs: dict[str, float]) -> tuple[int, dict[str, int]]:
    """Global exact ``quantile_disc`` over an integer column.

    The histogram-combiner shape shared by every exact-quantile query:
    each block ships (value, count) pairs, ONE tiny groupby sums them,
    and the driver cumsums the KB-sized histogram.
    Rank = ceil(q * n), matching DuckDB ``quantile_disc`` exactly.
    Returns ``(n, {name: value})``.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy().astype(np.int64)
        vals, cnts = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(vals),
                         "cnt": pa.array(cnts.astype(np.int64))})

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("v").aggregate(Sum("cnt")).to_pandas())
    if len(hist) == 0:
        return 0, {name: 0 for name in qs}
    hist = hist.sort_values("v")
    vals = hist["v"].to_numpy()
    cum = hist["sum(cnt)"].cumsum().to_numpy()
    n = int(cum[-1])
    return n, {name: int(vals[np.searchsorted(cum, int(np.ceil(q * n)))])
               for name, q in qs.items()}
