"""Similarity search over embedding columns (``list<float>``).

* **Brute-force cosine top-k** — the one nearest-neighbour search, exact
  and checked against DuckDB's ``list_cosine_similarity``: per-batch
  NumPy matmul against a broadcast query matrix (closure-captured /
  ``ray.put`` once — never re-shipped per batch), local top-k inside
  ``map_batches``, one small per-query top-k reduce.  Scales as a single
  streaming pass.
* **Embedding near-duplicate detection** — banded hyperplane LSH with
  size-scaled bits per band (``choose_lsh_params``), bounded in-bucket
  pairing (all-pairs below a cap, pivot-linking above), cross-band pair
  dedup via ``groupby(pair).max(cos)``.
* **Spherical k-means clustering** — a coarse quantizer trained on a
  bounded sample, per-vector cluster assignment in ``map_batches``
  (``IvfAssigner``); the clusters bound SemDeDup's pairwise work.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_PLANE_SEED = 1234


def _embedding_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch.column(col).combine_chunks()
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def hyperplanes(dim: int, n_planes: int = 16) -> np.ndarray:
    rng = np.random.RandomState(_PLANE_SEED)
    return rng.standard_normal((n_planes, dim))


class BruteForceTopK:
    """map_batches task: local top-k cosine rows against the query matrix."""

    def __init__(self, query: np.ndarray, k: int = 10,
                 id_col: str = "vec_id", col: str = "embedding"):
        q = np.atleast_2d(np.asarray(query, dtype=np.float64))
        self.q = _normalize(q)
        self.k = k
        self.id_col = id_col
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:   # an upstream filter can empty a block
            return pa.table({
                self.id_col: batch.column(self.id_col).slice(0, 0),
                "query_id": pa.array([], type=pa.int32()),
                "cos": pa.array([], type=pa.float64()),
            })
        m = _normalize(_embedding_matrix(batch, self.col))
        ids = batch.column(self.id_col).to_numpy()
        sims = m @ self.q.T  # (n, q)
        out_ids, out_q, out_cos = [], [], []
        for qi in range(self.q.shape[0]):
            s = sims[:, qi]
            k = min(self.k, len(s))
            top = np.argpartition(-s, k - 1)[:k] if k else np.zeros(0, int)
            out_ids.append(ids[top])
            out_q.append(np.full(k, qi, dtype=np.int32))
            out_cos.append(s[top])
        return pa.table({
            self.id_col: pa.array(np.concatenate(out_ids)),
            "query_id": pa.array(np.concatenate(out_q)),
            "cos": pa.array(np.concatenate(out_cos), type=pa.float64()),
        })


def knn_bruteforce(ds, query: np.ndarray, k: int = 10,
                   id_col: str = "vec_id",
                   col: str = "embedding") -> pa.Table:
    """Global top-k: streaming local top-k per block, ONE distributed
    per-query reduce (groupby query_id → map_groups top-k), so the driver
    receives O(k) rows per query regardless of block count — at 10^6
    blocks the old flat take_all() held k × n_blocks × n_queries rows."""

    def topk_group(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy()
        cos = group.column("cos").to_numpy()
        qid = group.column("query_id").to_numpy()
        order = np.lexsort((ids, -cos))[:k]
        return pa.table({
            id_col: pa.array(ids[order]),
            "query_id": pa.array(qid[order]),
            "cos": pa.array(cos[order], type=pa.float64()),
        })

    partial = ds.map_batches(
        BruteForceTopK(query, k, id_col, col), batch_format="pyarrow")
    reduced = partial.groupby("query_id").map_groups(
        topk_group, batch_format="pyarrow")
    rows = reduced.take_all()
    if not rows:
        return pa.table({id_col: pa.array([], type=pa.int64()),
                         "query_id": pa.array([], type=pa.int32()),
                         "cos": pa.array([], type=pa.float64())})
    ids = np.array([r[id_col] for r in rows])
    qid = np.array([r["query_id"] for r in rows])
    cos = np.array([r["cos"] for r in rows])
    order = np.lexsort((ids, -cos, qid))
    return pa.table({
        id_col: pa.array(ids[order]),
        "query_id": pa.array(qid[order].astype(np.int32)),
        "cos": pa.array(cos[order], type=pa.float64()),
    })


def choose_lsh_params(n: int, threshold: float = 0.95,
                      target_bucket: int = 256, recall: float = 0.9,
                      max_bands: int = 32) -> tuple[int, int]:
    """Pick (bits_per_band, n_bands) for banded hyperplane LSH.

    ``bits_per_band`` scales with log2(n / target_bucket) so the EXPECTED
    random-bucket size stays ~target_bucket as the dataset grows — the
    fixed-256-global-buckets failure mode (every bucket holds n/256 rows,
    O(n²) pairing explodes) cannot happen.  ``n_bands`` is then the
    smallest count whose union probability reaches ``recall`` for pairs at
    cosine = threshold: P[collide in one band] = (1 - θ/π)^bits.
    """
    bits = max(4, int(np.ceil(np.log2(max(n, 2) / target_bucket))))
    p_bit = 1.0 - np.arccos(min(max(threshold, -1.0), 1.0)) / np.pi
    p_band = p_bit ** bits
    if p_band >= 1.0:
        return bits, 1
    n_bands = int(np.ceil(np.log1p(-recall) / np.log1p(-p_band)))
    return bits, int(np.clip(n_bands, 1, max_bands))


def lsh_bands_batch(batch: pa.Table, dim: int, bits_per_band: int,
                    n_bands: int, id_col: str = "vec_id",
                    col: str = "embedding") -> pa.Table:
    """Expand each vector into ``n_bands`` (band, bucket, id, embedding)
    rows.  All ``n_bands * bits_per_band`` hyperplane signs come from ONE
    matmul; each band hashes its own disjoint bit slice.  The embedding is
    carried so the in-bucket verifier can score cosine without a join —
    the exchange payload is n_bands x the vector (floats), never O(n²).
    """
    n = batch.num_rows
    if n == 0:
        return pa.table({
            "band": pa.array([], type=pa.int32()),
            "bucket": pa.array([], type=pa.int64()),
            id_col: pa.array([], type=batch.schema.field(id_col).type),
            col: pa.array([], type=batch.schema.field(col).type),
        })
    m = _embedding_matrix(batch, col)
    planes = hyperplanes(dim, bits_per_band * n_bands)
    bits = (m @ planes.T) > 0                      # (n, bands*bits)
    w = (1 << np.arange(bits_per_band, dtype=np.int64))
    out_band = np.repeat(np.arange(n_bands, dtype=np.int32), n)
    buckets = np.empty((n_bands, n), dtype=np.int64)
    for b in range(n_bands):
        chunk = bits[:, b * bits_per_band:(b + 1) * bits_per_band]
        buckets[b] = chunk.astype(np.int64) @ w
    idx = np.tile(np.arange(n, dtype=np.int64), n_bands)
    ids = batch.column(id_col).take(pa.array(idx))
    emb = batch.column(col).take(pa.array(idx))
    return pa.table({"band": pa.array(out_band),
                     "bucket": pa.array(buckets.reshape(-1)),
                     id_col: ids, col: emb})


def neardup_pairs_group(batch: pa.Table, threshold: float = 0.95,
                        id_col: str = "vec_id", col: str = "embedding",
                        all_pairs_cap: int = 256) -> pa.Table:
    """Within one LSH bucket: near-duplicate pairs with cosine >= threshold.

    Work per bucket is explicitly bounded: buckets up to ``all_pairs_cap``
    members get the exact all-pairs check (≤ cap² sims); larger buckets
    fall back to pivot linking — every member scored against the bucket's
    min-id member only, O(|bucket| · dim).  Pivot linking under-reports
    pairs inside oversized buckets but keeps the stage linear, and banding
    gives each pair n_bands chances to land in a small bucket.
    """
    n = batch.num_rows
    ids = batch.column(id_col).to_numpy() if n else np.zeros(0, np.int64)
    if n < 2:
        return pa.table({id_col: pa.array([], type=pa.int64()),
                         "dup_of": pa.array([], type=pa.int64()),
                         "cos": pa.array([], type=pa.float64())})
    m = _normalize(_embedding_matrix(batch, col))
    order = np.argsort(ids)
    ids, m = ids[order], m[order]
    if n <= all_pairs_cap:
        sims = m @ m.T
        iu = np.triu_indices(n, k=1)
        hit = sims[iu] >= threshold
        a, b = ids[iu[0][hit]], ids[iu[1][hit]]
        cos = sims[iu][hit]
    else:
        sims = m[1:] @ m[0]
        hit = sims >= threshold
        a, b = np.full(int(hit.sum()), ids[0]), ids[1:][hit]
        cos = sims[hit]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return pa.table({id_col: pa.array(hi, type=pa.int64()),
                     "dup_of": pa.array(lo, type=pa.int64()),
                     "cos": pa.array(cos, type=pa.float64())})


def embedding_neardup(ds, dim: int, n: int, threshold: float = 0.95,
                      id_col: str = "vec_id", col: str = "embedding",
                      target_bucket: int = 256, recall: float = 0.9):
    """Banded-LSH embedding near-duplicate detection, end to end:
    size-scaled band parameters → band expansion → per-(band, bucket)
    bounded pairing → cross-band pair dedup (groupby max cos)."""
    bits, n_bands = choose_lsh_params(n, threshold, target_bucket, recall)
    bands = ds.map_batches(
        lsh_bands_batch, batch_format="pyarrow",
        fn_kwargs={"dim": dim, "bits_per_band": bits, "n_bands": n_bands,
                   "id_col": id_col, "col": col})
    pairs = bands.groupby(["band", "bucket"]).map_groups(
        neardup_pairs_group, batch_format="pyarrow",
        fn_kwargs={"threshold": threshold, "id_col": id_col, "col": col})
    out = pairs.groupby([id_col, "dup_of"]).max("cos")
    return out.rename_columns({"max(cos)": "cos"})


# ---------------------------------------------------- k-means clusters

def spherical_kmeans(sample: np.ndarray, n_list: int, iters: int = 10,
                     seed: int = 4242) -> np.ndarray:
    """Deterministic spherical k-means over a driver-side sample.

    Returns L2-normalized centroids (n_list, dim).  The sample is small
    (a coarse quantizer needs ~10-100 vectors per centroid, independent
    of corpus size); the big table is never collected in one process."""
    x = _normalize(np.asarray(sample, dtype=np.float64))
    rng = np.random.RandomState(seed)
    n_list = min(n_list, len(x))
    c = x[rng.choice(len(x), size=n_list, replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ c.T, axis=1)
        for j in range(n_list):
            members = x[assign == j]
            if len(members):
                c[j] = members.sum(axis=0)
        c = _normalize(c)
    return c


class IvfAssigner:
    """Actor-pool stage: append ``list_id`` = the vector's k-means cluster,
    its nearest centroid (one matmul per batch).  Centroids load once per actor in ``__init__`` — at scale
    pass them via ``ray.put`` and feed the ObjectRef through
    ``fn_constructor_kwargs`` so each node fetches them once."""

    def __init__(self, centroids, col: str = "embedding"):
        import ray
        if isinstance(centroids, ray.ObjectRef):
            centroids = ray.get(centroids)
        self.c = np.asarray(centroids, dtype=np.float64)
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("list_id",
                                       pa.array([], type=pa.int32()))
        m = _normalize(_embedding_matrix(batch, self.col))
        assign = np.argmax(m @ self.c.T, axis=1).astype(np.int32)
        return batch.append_column("list_id", pa.array(assign))


# ------------------------------------------------------------------ SemDeDup

def semdedup_group(batch: pa.Table, threshold: float = 0.95,
                   id_col: str = "vec_id", col: str = "embedding",
                   centroids: np.ndarray | None = None,
                   all_pairs_cap: int = 4096) -> pa.Table:
    """Semantic dedup inside ONE k-means cluster (SemDeDup, Abbas et al.
    2023, arXiv:2303.09540): pairwise cosine >= threshold within the
    cluster defines duplicate edges; connected components are semantic-
    duplicate groups; each group KEEPS exactly one member — the one with
    the LOWEST cosine to the cluster centroid (the paper's choice: keep
    the least prototypical example), ties broken toward the lowest id.

    The cluster bounds the quadratic cost (the whole point of the
    clustering pass): clusters up to ``all_pairs_cap`` members get the
    exact all-pairs check; a larger cluster is deterministically
    sub-bucketed by one sign-LSH band (seeded by its list_id) and paired
    exactly within each sub-bucket — the same bounded-work degradation
    the banded-LSH near-dup stage uses, trading recall on oversize
    clusters for a hard per-task bound.  At scale, size ``n_list`` so the
    expected cluster is far below the cap and this path never triggers.
    """
    n = batch.num_rows
    empty = pa.table({
        id_col: pa.array([], pa.int64()),
        "list_id": pa.array([], pa.int32()),
        "group_id": pa.array([], pa.int64()),
        "group_size": pa.array([], pa.int64()),
        "cent_cos": pa.array([], pa.float64()),
        "keep": pa.array([], pa.bool_()),
    })
    if n == 0:
        return empty
    ids = batch.column(id_col).to_numpy()
    list_id = int(batch.column("list_id")[0].as_py())
    m = _normalize(_embedding_matrix(batch, col))
    order = np.argsort(ids)
    ids, m = ids[order], m[order]
    cent = (m @ centroids[list_id]
            if centroids is not None else np.zeros(n))
    # duplicate edges (as local indices into the sorted-order arrays)
    if n <= all_pairs_cap:
        sims = m @ m.T
        iu = np.triu_indices(n, k=1)
        hit = sims[iu] >= threshold
        ea, eb = iu[0][hit], iu[1][hit]
    else:
        sub_bits = max(1, int(np.ceil(np.log2(n / all_pairs_cap))) + 1)
        planes = hyperplanes(m.shape[1], sub_bits)  # deterministic seed
        w = (1 << np.arange(sub_bits, dtype=np.int64))
        bucket = ((m @ planes.T) > 0).astype(np.int64) @ w
        ea_l, eb_l = [], []
        for b in np.unique(bucket):
            loc = np.flatnonzero(bucket == b)
            if len(loc) < 2:
                continue
            sims = m[loc] @ m[loc].T
            iu = np.triu_indices(len(loc), k=1)
            hit = sims[iu] >= threshold
            ea_l.append(loc[iu[0][hit]])
            eb_l.append(loc[iu[1][hit]])
        ea = np.concatenate(ea_l) if ea_l else np.zeros(0, np.int64)
        eb = np.concatenate(eb_l) if eb_l else np.zeros(0, np.int64)
    # union-find over the (bounded) edge list
    parent = np.arange(n, dtype=np.int64)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in zip(ea.tolist(), eb.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    root = np.array([find(i) for i in range(n)], dtype=np.int64)
    group_id = ids[root]
    # keep = the member with the lowest centroid cosine in its component
    # (ids ascending within equal cent_cos — argsort is stable, so the
    # first hit per root is the lowest-id among minimal-cos members)
    ord2 = np.lexsort((ids, cent))
    first = np.zeros(n, dtype=bool)
    seen: set[int] = set()
    for i in ord2.tolist():
        r = int(root[i])
        if r not in seen:
            seen.add(r)
            first[i] = True
    sizes = np.bincount(root, minlength=n)[root]
    return pa.table({
        id_col: pa.array(ids, pa.int64()),
        "list_id": pa.array(np.full(n, list_id), pa.int32()),
        "group_id": pa.array(group_id, pa.int64()),
        "group_size": pa.array(sizes.astype(np.int64), pa.int64()),
        "cent_cos": pa.array(cent.astype(np.float64), pa.float64()),
        "keep": pa.array(first, pa.bool_()),
    })
