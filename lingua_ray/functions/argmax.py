"""First row per key: the full earliest/least row of each group.

``first_per_key(ds, key, order_cols)`` returns, for every distinct key,
the single row that is minimal under the lexicographic order of
``order_cols`` (supply a trailing unique column to make the order
total, e.g. ``["n_chars", "doc_id"]``).  ``argmax_local`` is the block
kernel; it keeps either end of the order.

Scale shape: a per-batch combiner reduces every block to ≤ one row per
key BEFORE the exchange, so the single hash shuffle carries
(keys-per-block × blocks) rows — never the corpus — and the per-group
finalize re-runs the same kernel on a handful of per-block winners.
The kernel is one lexsort + run-boundary take, no Python row loop.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _sort_cols(batch: pa.Table, cols: list[str]) -> np.ndarray:
    """Row order (ascending) under lexicographic cols; np.lexsort takes
    least-significant key first."""
    keys = []
    for c in reversed(cols):
        col = batch.column(c)
        arr = col.to_numpy(zero_copy_only=False)
        keys.append(arr)
    return np.lexsort(keys)


def argmax_local(batch: pa.Table, key_col: str, order_cols: list[str],
                 keep: str = "max") -> pa.Table:
    """≤ one row per distinct key: the block-local winner (``keep`` =
    "max" for the last row under the order, "min" for the first)."""
    if batch.num_rows == 0:
        return batch
    order = _sort_cols(batch, [key_col] + order_cols)
    s = batch.take(pa.array(order))
    k = s.column(key_col).to_numpy(zero_copy_only=False)
    run_end = np.concatenate([k[1:] != k[:-1], [True]])
    if keep == "max":
        idx = np.flatnonzero(run_end)
    else:
        idx = np.flatnonzero(np.concatenate([[True], run_end[:-1]]))
    return s.take(pa.array(idx))


def first_per_key(ds, key_col: str, order_cols: list[str]):
    """One row per key — the arg-min under ``order_cols``."""
    def finalize(group: pa.Table) -> pa.Table:
        return argmax_local(group, key_col, order_cols, keep="min")

    combined = ds.map_batches(argmax_local, batch_format="pyarrow",
                              fn_kwargs={"key_col": key_col,
                                         "order_cols": order_cols,
                                         "keep": "min"})
    return combined.groupby(key_col).map_groups(finalize,
                                                batch_format="pyarrow")
