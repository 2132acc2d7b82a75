"""Salted groupby-sum (skew-proof aggregation) vs exact oracles."""

import numpy as np
import pyarrow as pa

from lingua_ray.functions.salted import salted_sum


def test_salted_sum_exact_under_skew(ray_session):
    import ray.data
    rng = np.random.default_rng(17)
    # 95% of rows share one hot key — the scenario salting exists for
    keys = np.where(rng.random(20_000) < 0.95, "hot",
                    rng.choice(["a", "b", "c"], 20_000))
    vals = rng.integers(-1000, 1000, 20_000)
    t = pa.table({"k": pa.array(keys),
                  "v": pa.array(vals.astype(np.int64))})
    got = {r["k"]: r["sum_v"] for r in
           salted_sum(ray.data.from_arrow(t).repartition(8),
                      "k", "v", salt=16).take_all()}
    for k in set(keys):
        assert got[k] == int(vals[keys == k].sum()), k
    assert len(got) == len(set(keys))


def test_salted_sum_partitioning_and_salt_independent(ray_session):
    import ray.data
    rng = np.random.default_rng(18)
    t = pa.table({"k": pa.array(rng.choice(["x", "y"], 500)),
                  "v": pa.array(rng.integers(0, 9, 500).astype(np.int64))})
    outs = []
    for parts, salt in ((1, 4), (11, 32)):
        outs.append(sorted(
            (r["k"], r["sum_v"]) for r in
            salted_sum(ray.data.from_arrow(t).repartition(parts),
                       "k", "v", salt=salt).take_all()))
    assert outs[0] == outs[1]


def test_salted_sum_keeps_zero_sum_keys(ray_session):
    """A key whose every partial sums to 0 must still appear (SQL SUM
    semantics), both for all-zero values and +x/-x cancellation."""
    import pyarrow as pa
    import ray.data

    from lingua_ray.functions.salted import salted_sum

    t = pa.table({"k": ["a", "a", "b", "c", "c"],
                  "v": [5, -5, 0, 7, 0]})
    out = {r["k"]: r["sum_v"]
           for r in salted_sum(ray.data.from_arrow(t), "k", "v",
                               salt=1).take_all()}
    assert out == {"a": 0, "b": 0, "c": 7}
