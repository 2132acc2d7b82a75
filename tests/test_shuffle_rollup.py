"""Deterministic shuffle and percent_rank vs scalar oracles."""

import hashlib

import numpy as np
import pyarrow as pa

from lingua_ray.functions.quantiles import percent_rank_column
from lingua_ray.stages.shuffle import deterministic_shuffle


def test_deterministic_shuffle_is_md5_permutation(ray_session):
    import ray.data
    ids = np.arange(300, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    out = deterministic_shuffle(ds.repartition(5)).take_all()
    assert len(out) == 300
    # bucket-major, pos-minor order == global (digest, id) order
    got = [r["doc_id"] for r in
           sorted(out, key=lambda r: (r["bucket"], r["pos"]))]
    want = sorted(ids, key=lambda i: (hashlib.md5(str(i).encode())
                                      .hexdigest(), i))
    assert got == [int(x) for x in want]
    # stable across partitioning
    out2 = deterministic_shuffle(ds.repartition(17)).take_all()
    assert sorted(map(tuple, (r.values() for r in out))) == \
        sorted(map(tuple, (r.values() for r in out2)))


def test_shuffle_bucket_width_preserves_global_order(ray_session):
    import ray.data
    ids = np.arange(200, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    a = deterministic_shuffle(ds, bucket_chars=2).take_all()
    b = deterministic_shuffle(ds, bucket_chars=3).take_all()
    order_a = [r["doc_id"] for r in
               sorted(a, key=lambda r: (r["bucket"], r["pos"]))]
    order_b = [r["doc_id"] for r in
               sorted(b, key=lambda r: (r["bucket"], r["pos"]))]
    assert order_a == order_b  # shard boundaries move, the order doesn't


def test_percent_rank_matches_sql_semantics(ray_session):
    import ray.data
    rng = np.random.default_rng(7)
    v = rng.integers(0, 50, 400)  # many ties
    t = pa.table({"doc_id": pa.array(np.arange(400, dtype=np.int64)),
                  "n_chars": pa.array(v.astype(np.int64))})
    out = percent_rank_column(ray.data.from_arrow(t).repartition(7),
                              "n_chars").take_all()
    assert len(out) == 400
    for r in out:
        below = int((v < r["n_chars"]).sum())
        assert abs(r["pct"] - round(below / 399, 6)) < 1e-9


def test_percent_rank_single_row(ray_session):
    import ray.data
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "n_chars": pa.array([10], pa.int64())})
    out = percent_rank_column(ray.data.from_arrow(t), "n_chars").take_all()
    assert out[0]["pct"] == 0.0
