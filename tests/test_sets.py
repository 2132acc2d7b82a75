"""Anti-join operator: Dataset composition vs brute force."""

import pyarrow as pa
import pytest


def _mk(ray_session):
    import ray.data
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "name": ["a", "b", "c", "d", "e"],
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([2, 2, 4, 9], type=pa.int64()),
        "junk": ["x", "y", "z", "w"],
    }))
    return left, right


def test_anti_join(ray_session):
    from lingua_ray.stages.sets import anti_join
    left, right = _mk(ray_session)
    out = anti_join(left, right, on="k", right_on="rk").take_all()
    assert sorted(r["k"] for r in out) == [1, 3, 5]


def test_anti_join_empty_right(ray_session):
    import ray.data
    from lingua_ray.stages.sets import anti_join
    left, right = _mk(ray_session)
    empty = right.filter(lambda r: False)
    out = anti_join(left, empty, on="k", right_on="rk").take_all()
    assert sorted(r["k"] for r in out) == [1, 2, 3, 4, 5]


def test_null_left_keys_sql_semantics(ray_session):
    """NULL left keys match nothing, so anti_join (NOT EXISTS) keeps
    them — without crashing the groupby."""
    import ray.data
    from lingua_ray.stages.sets import anti_join
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, None, 2, None, 9], type=pa.int64()),
        "name": ["a", "b", "c", "d", "e"],
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([2, 9, None], type=pa.int64()),
        "junk": ["x", "y", "z"],
    }))
    anti = anti_join(left, right, on="k", right_on="rk").take_all()
    assert sorted(r["name"] for r in anti) == ["a", "b", "d"]
    assert sorted(str(r["k"]) for r in anti) == ["1", "None", "None"]
