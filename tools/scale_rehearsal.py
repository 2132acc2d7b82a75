"""10× scale rehearsal ("sf1"): expand the sf0.1 tables deterministically
to 10× rows under /tmp, then run the headline pipeline (6M turns) and the
most expensive registered queries against the expanded directory.

The sf0.01 → sf0.1 jump caught two real parity/scale bugs; this is the
next 10× jump (spill behavior, object-store pressure, pair-count growth)
without touching /root/testdata.  Results land in BASELINE.md.

Replication is structure-preserving, not degenerate:
- documents: 10 replicas per row, doc_id → doc_id*10+rep, text words
  ROTATED by rep positions (split/join on single spaces — preserves
  length and vocabulary so n_chars stays consistent, and shifts every
  shingle so replicas of ≥REPS-token docs are not near-duplicates;
  docs with fewer tokens than REPS collide by pigeonhole and plant
  exact-duplicate groups — see _rotate_words).
- embeddings: vec_id → vec_id*10+rep, vector np.roll'ed by rep
  (norm-preserving, direction-changing).

Usage:  python tools/scale_rehearsal.py [--queries q1,q2,...]
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SRC = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DST = Path("/tmp/lingua_ray/sf1")
REPS = 10

# the per-round top of the bench cost table + one representative per
# heavy family (langid pool, minhash+CC, substring scale paths,
# sessionize, semantic dedup, retrieval, inverted index)
DEFAULT_QUERIES = [
    "langid_documents", "dedup_minhash", "dedup_clusters",
    "substring_dedup_sampled", "substring_dedup_winnowed",
    "session_turn_dedup", "conv_lang_switches", "conv_neardup",
    "doc_tfidf", "inverted_index", "bm25_topk", "semantic_dedup",
    # round-5 curation tranche representatives
    "dedup_keep_best", "redpajama_signals",
    "conv_duration_stats", "repeated_prefix_convs",
]


def _rotate_words(texts: pa.ChunkedArray, rep: int) -> pa.Array:
    """Rotate each text's space-separated tokens by ``rep`` positions —
    vectorized via Arrow list ops (no per-row Python).

    Pigeonhole caveat: a doc with k < REPS tokens has only k distinct
    rotations, so its replicas at rep and rep+k are byte-identical —
    short docs DO plant exact-duplicate groups in the scaled corpus
    (dedup operators then have real work, which is fine for a timing
    rehearsal, but the expansion is only fully duplicate-free for docs
    with ≥ REPS tokens).  A null text becomes "" (the repo-wide null-text
    convention); list offsets are int64, so the token total is not capped
    at 2^31."""
    texts = pc.fill_null(texts, "")
    if rep == 0:
        return texts.combine_chunks()
    parts = pc.split_pattern(texts, " ")
    n = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    # gather indices: for row with k tokens, order is rep%k..k-1,0..rep%k-1
    flat = parts.combine_chunks().flatten()
    offs = np.concatenate([[0], np.cumsum(n)])
    k = np.maximum(n, 1)
    r = rep % k
    # index array per row: offs[i] + (r[i] + j) % k[i] for j in 0..n[i)-1
    j = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(offs[:-1], n)
    src = np.repeat(offs[:-1], n) + (np.repeat(r, n) + j) % np.repeat(k, n)
    rotated = flat.take(pa.array(src))
    out = pa.LargeListArray.from_arrays(pa.array(offs, pa.int64()), rotated)
    return pc.binary_join(out, " ")


def ensure_scaled(dst: Path = DST, src: str = SRC, reps: int = REPS) -> Path:
    marker = dst / "_complete.json"
    if marker.exists():
        return dst
    dst.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    docs = pq.read_table(f"{src}/documents.parquet")
    outs = []
    for rep in range(reps):
        outs.append(pa.table({
            "doc_id": pc.add(pc.multiply(docs.column("doc_id"), reps), rep),
            "text": _rotate_words(docs.column("text"), rep),
            "lang": docs.column("lang").combine_chunks(),
            "source": docs.column("source").combine_chunks(),
            "n_chars": docs.column("n_chars").combine_chunks()}))
    pq.write_table(pa.concat_tables(outs), dst / "documents.parquet")

    emb = pq.read_table(f"{src}/embeddings.parquet")
    mat = np.array(emb.column("embedding").to_pylist(), dtype=np.float32)
    outs = []
    for rep in range(reps):
        outs.append(pa.table({
            "vec_id": pc.add(pc.multiply(emb.column("vec_id"), reps), rep),
            "embedding": pa.array(list(np.roll(mat, rep, axis=1)),
                                  pa.list_(pa.float32())),
            "label": emb.column("label").combine_chunks()}))
    pq.write_table(pa.concat_tables(outs), dst / "embeddings.parquet")

    marker.write_text(json.dumps({
        "src": src, "reps": reps,
        "build_sec": round(time.perf_counter() - t0, 1)}))
    return dst


def main() -> None:
    names = DEFAULT_QUERIES
    argv = sys.argv[1:]
    for i, a in enumerate(argv):
        if a.startswith("--queries="):
            names = a.split("=", 1)[1].split(",")
        elif a == "--queries":          # space-separated form
            if i + 1 >= len(argv):
                raise SystemExit("--queries needs a comma-separated list")
            names = argv[i + 1].split(",")
        elif not (argv[i - 1] == "--queries" if i else False):
            raise SystemExit(f"unknown argument: {a}")

    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    dst = ensure_scaled()

    import __ray_entry__ as E
    qs = E.queries()
    timings: dict[str, float] = {}
    for name in names:
        t0 = time.perf_counter()
        res = qs[name](str(dst))
        if isinstance(res, ray.data.Dataset):
            res.materialize()
        timings[name] = round(time.perf_counter() - t0, 2)
        print(f"done  {name}: {timings[name]}s", file=sys.stderr)
    print(json.dumps({"metric": "sf1_rehearsal", "unit": "sec",
                      "queries": timings, "sf": str(dst),
                      "num_cpus": int(ray.cluster_resources()["CPU"])}))
    ray.shutdown()


if __name__ == "__main__":
    main()
