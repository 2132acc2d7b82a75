"""Arg-max per key vs scalar oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa

from lingua_ray.functions.argmax import argmax_local


def _events(n=2000, seed=13):
    rng = np.random.default_rng(seed)
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(rng.integers(0, 80, n)),
        "ts": pa.array(rng.integers(0, 500, n).astype("datetime64[s]")
                       .astype("datetime64[us]")),
        "event_type": pa.array(rng.choice(["a", "b", "c"], n)),
    })


def test_argmax_local_keeps_block_winners():
    t = pa.table({"k": ["x", "y", "x"], "o": pa.array([1, 5, 3], pa.int64()),
                  "id": pa.array([10, 11, 12], pa.int64())})
    out = argmax_local(t, "k", ["o", "id"])
    got = {r["k"]: (r["o"], r["id"]) for r in out.to_pylist()}
    assert got == {"x": (3, 12), "y": (5, 11)}


def test_first_per_key_matches_pandas(ray_session):
    import ray.data
    from lingua_ray.functions.argmax import first_per_key
    t = _events(seed=14)
    ds = ray.data.from_arrow(t).repartition(9)
    got = pd.DataFrame(
        first_per_key(ds, "user_id", ["ts", "event_id"]).take_all())
    df = t.to_pandas()
    want = (df.sort_values(["ts", "event_id"])
            .groupby("user_id").head(1))
    got = got.sort_values("user_id", ignore_index=True)
    want = want.sort_values("user_id", ignore_index=True)
    pd.testing.assert_frame_equal(
        got[["user_id", "event_id"]], want[["user_id", "event_id"]])
