"""Local stand-in for the driver's correctness gate: run every queries()
entry and compare row count / schema / sorted values against oracle_sql()
via DuckDB.  Usage: python tools/check_queries.py [sf_dir] [name ...]"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import duckdb
import numpy as np
import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data
    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns), ignore_index=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)

    import __ray_entry__ as E

    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')")

    # size-dependent oracles (generated transcript fixtures) must match
    # the sf under test — oracle_sql() itself takes no sf argument
    os.environ["GRAFT_ORACLE_SF_DIR"] = sf_dir
    oracles = E.oracle_sql()
    failures = 0
    if only:
        unknown = set(only) - set(E.queries())
        if unknown:   # a typo must not read as a silent pass
            raise SystemExit(f"unknown query name(s): {sorted(unknown)}")
    for name, fn in E.queries().items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"ok    {name}: rows={len(got)} cols={list(got.columns)} "
                  f"[rows-only] {dt:.1f}s")
            continue
        want = canon(con.execute(oracles[name]).fetchdf())
        status = "ok   "
        msgs = []
        if len(got) != len(want):
            status, msgs = "FAIL ", [f"rows {len(got)} vs {len(want)}"]
        elif list(got.columns) != list(want.columns):
            status, msgs = "FAIL ", [f"cols {list(got.columns)} vs "
                                     f"{list(want.columns)}"]
        else:
            for c in got.columns:
                g, w = got[c].to_numpy(), want[c].to_numpy()
                # the driver HASHES values, so a dtype divergence (e.g. a
                # DuckDB HUGEINT sum surfacing as object/decimal vs our
                # int64) fails there even when values compare equal here —
                # round-2 lesson; flag it locally
                if g.dtype.kind != w.dtype.kind:
                    status = "FAIL "
                    msgs.append(f"col {c} dtype kind {g.dtype} vs {w.dtype}")
                    continue
                if g.dtype.kind == "f" or w.dtype.kind == "f":
                    same = np.allclose(g.astype(float), w.astype(float),
                                       rtol=0, atol=0, equal_nan=True)
                else:
                    same = (g == w).all()
                if not same:
                    status = "FAIL "
                    bad = np.flatnonzero(~(g == w))[:3] if g.dtype == w.dtype \
                        else [0]
                    msgs.append(f"col {c} mismatch at {bad}: "
                                f"{[ (g[i], w[i]) for i in bad ]}")
        if status.startswith("FAIL"):
            failures += 1
        print(f"{status} {name}: rows={len(got)} {'; '.join(msgs)} {dt:.1f}s")

    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
