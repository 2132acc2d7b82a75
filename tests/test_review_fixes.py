"""Regression tests for the round-3 review findings: empty pruned
blocks, narrow-dtype key packing, null join keys, wide-range
quantile histograms, and empty-input output schemas."""

import numpy as np
import pyarrow as pa


def test_brute_force_topk_and_lsh_bucket_empty_batch():
    from lingua_ray.stages.ann import BruteForceTopK
    e = pa.table({"vec_id": pa.array([], pa.int64()),
                  "embedding": pa.array([], pa.list_(pa.float32()))})
    out = BruteForceTopK(np.ones(4), k=3)(e)
    assert out.num_rows == 0
    assert out.column_names == ["vec_id", "query_id", "cos"]


def test_paragraph_keys_int32_doc_id_matches_int64():
    from lingua_ray.stages.paradedup import explode_paragraph_keys
    texts = ["alpha beta\n\ncommon para", "common para\n\ngamma delta"]
    ids = [5000, 7000]  # 5000 << 20 wraps int32
    t32 = pa.table({"doc_id": pa.array(ids, pa.int32()),
                    "text": pa.array(texts)})
    t64 = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts)})
    a = explode_paragraph_keys(t32, min_chars=1)
    b = explode_paragraph_keys(t64, min_chars=1)
    assert a.equals(b)
    assert (np.array(a.column("packed").to_pylist()) >= 0).all()


def test_semi_anti_join_null_right_keys(ray_session):
    import ray.data
    from lingua_ray.stages.sets import anti_join
    left = ray.data.from_items([{"k": 1, "x": "a"}, {"k": 2, "x": "b"},
                                {"k": 3, "x": "c"}])
    right = ray.data.from_items([{"k": 1}, {"k": None}])
    dropped = sorted(r["k"] for r in anti_join(left, right, "k").take_all())
    assert dropped == [2, 3]


def test_quantile_hist_wide_range_values():
    from lingua_ray.functions.quantiles import quantile_hist_batch
    # snowflake-ish values: base ~ 1.6e18, 8 keys -> composite would wrap
    vals = np.array([1_600_000_000_000_000_000 + i * 7 for i in range(40)],
                    dtype=np.int64)
    vals = np.concatenate([vals, [-3, -3, 0]])
    keys = [f"k{i % 8}" for i in range(len(vals))]
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    out = quantile_hist_batch(t, "k", "v")
    got = {(k, v): c for k, v, c in zip(out.column("k").to_pylist(),
                                        out.column("v").to_pylist(),
                                        out.column("cnt").to_pylist())}
    from collections import Counter
    want = Counter(zip(keys, vals.tolist()))
    assert got == dict(want)


def test_empty_input_output_schemas(ray_session):
    import ray.data
    from lingua_ray.functions.budget import select_under_budget
    from lingua_ray.functions.quantiles import percent_rank_column
    from lingua_ray.functions.rank import global_row_number
    empty = ray.data.from_arrow(pa.table({
        "id": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
        "cost": pa.array([], pa.int64())}))
    r = global_row_number(empty, "v", "id", ntile=4)
    assert r.count() == 0
    assert set(r.schema().names) == {"id", "v", "rn", "tile"}
    b = select_under_budget(empty, budget=10, id_col="id",
                            score_col="v", cost_col="cost")
    assert b.count() == 0
    assert set(b.schema().names) == {"id", "v", "cost"}
    p = percent_rank_column(empty, "v")
    assert p.count() == 0
    assert "pct" in p.schema().names


def test_null_typed_text_blocks_tolerated():
    """Ray Data emits null-TYPED blocks when every value in a block is
    null; every text stage must survive them (fill_null has no kernel
    for the null type)."""
    from lingua_ray.stages.chunking import chunk_batch
    from lingua_ray.stages.dedup import (minhash_signature_batch,
                                         simhash_batch)
    from lingua_ray.stages.quality import (entropy_batch,
                                           gopher_signals_batch,
                                           quality_batch,
                                           repetition_batch,
                                           stopword_ratio_batch)
    from lingua_ray.stages.scrub import scrub_batch
    nulls = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                      "text": pa.array([None, None])})
    for fn in (quality_batch, stopword_ratio_batch, gopher_signals_batch,
               entropy_batch, repetition_batch, scrub_batch, chunk_batch,
               minhash_signature_batch, simhash_batch):
        out = fn(nulls)
        assert out.num_rows >= 1, fn.__name__


def test_round_half_away_matches_duckdb_round():
    """round_half_away must reproduce DuckDB round(CAST(v AS DOUBLE), n)
    exactly, including half-cent values where np.round (half-to-even)
    diverges."""
    import duckdb
    from lingua_ray.stages.util import round_half_away
    vals = [0.125, -0.125, 0.135, 2.675, -2.675, 1.005, 0.0,
            123.455, 0.005, 12.5, -12.5]
    ours = round_half_away(np.array(vals), 2).tolist()
    duck = [duckdb.sql(f"SELECT round(CAST({v!r} AS DOUBLE), 2)"
                       ).fetchone()[0] for v in vals]
    assert ours == duck
    assert ours[0] == 0.13 and np.round(0.125, 2) == 0.12  # the gap
