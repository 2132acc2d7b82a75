"""Dedup and similarity-search operator tests (single-process + Ray)."""

import numpy as np
import pyarrow as pa
import pytest

from lingua_ray.stages.ann import (BruteForceTopK, hyperplanes,
                                   knn_bruteforce, neardup_pairs_group)
from lingua_ray.stages.dedup import (bucket_pairs_group, jaccard,
                                     lsh_band_batch, minhash_signature_batch,
                                     simhash_batch)


def _docs(texts):
    return pa.table({
        "doc_id": pa.array(np.arange(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.large_string()),
    })


BASE = ("the quick brown fox jumps over the lazy dog and runs far away "
        "into the deep dark forest tonight")


def test_minhash_near_duplicates_bucket_together():
    texts = [
        BASE,
        BASE.replace("tonight", "today"),          # near-dup of 0
        "completely different text about database query engines and sorting",
        BASE,                                       # exact dup of 0
    ]
    t = minhash_signature_batch(_docs(texts))
    bands = lsh_band_batch(t)
    import pandas as pd
    df = bands.to_pandas()
    pairs = set()
    for (_, _), g in df.groupby(["band", "band_hash"]):
        ids = sorted(g["doc_id"])
        for i in ids[1:]:
            pairs.add((ids[0], i))
    assert (0, 3) in pairs            # exact dup always collides
    assert (0, 1) in pairs            # near-dup collides in some band
    assert not any(2 in p for p in pairs)


def test_minhash_deterministic():
    t1 = minhash_signature_batch(_docs([BASE]))
    t2 = minhash_signature_batch(_docs(["x", BASE]))
    assert t1.column("minhash")[0].as_py() == t2.column("minhash")[1].as_py()


def test_simhash_hamming_close_for_neardups():
    t = simhash_batch(_docs([BASE, BASE.replace("tonight", "today"),
                             "unrelated short junk text"]))
    h = np.array(t.column("simhash").to_pylist(), dtype=np.int64).view(np.uint64)
    d01 = bin(int(h[0] ^ h[1])).count("1")
    d02 = bin(int(h[0] ^ h[2])).count("1")
    assert d01 < d02
    assert d01 <= 12


def test_jaccard():
    assert jaccard(BASE, BASE) == 1.0
    assert jaccard(BASE, "zzzz qqqq") < 0.05
    assert 0.5 < jaccard(BASE, BASE.replace("tonight", "today")) < 1.0


def test_bucket_pairs_group():
    g = pa.table({"doc_id": pa.array([7, 3, 9], type=pa.int64())})
    out = bucket_pairs_group(g)
    assert out.column("doc_id").to_pylist() == [7, 9]
    assert out.column("dup_of").to_pylist() == [3, 3]


def test_brute_force_topk_local():
    rng = np.random.RandomState(0)
    emb = rng.standard_normal((50, 8)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(50), type=pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.reshape(-1)), 8),
    })
    scorer = BruteForceTopK(emb[17], k=5)
    out = scorer(t)
    # the query vector itself must be the top hit
    best = max(zip(out.column("cos").to_pylist(),
                   out.column("vec_id").to_pylist()))
    assert best[1] == 17
    assert best[0] == pytest.approx(1.0)


def test_knn_bruteforce_ray(ray_session):
    ray = ray_session
    rng = np.random.RandomState(1)
    emb = rng.standard_normal((200, 16)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(200), type=pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.reshape(-1)), 16),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    top = knn_bruteforce(ds, emb[42], k=7)
    ids = top.column("vec_id").to_pylist()
    assert ids[0] == 42
    # verify against numpy ground truth
    m = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    q = m[42]
    want = np.argsort(-(m @ q), kind="stable")[:7].tolist()
    assert set(ids) == set(want)


def test_neardup_pairs():
    rng = np.random.RandomState(2)
    base = rng.standard_normal(8).astype(np.float32)
    emb = np.stack([base, base + 0.001, rng.standard_normal(8)]).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array([10, 20, 30], type=pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.reshape(-1)), 8),
    })
    out = neardup_pairs_group(t, threshold=0.99)
    assert out.column("vec_id").to_pylist() == [20]
    assert out.column("dup_of").to_pylist() == [10]


def test_hyperplane_buckets_deterministic():
    # lsh_bands_batch re-derives the planes in every task: they must not
    # depend on the process or the call
    p = hyperplanes(12, 8)
    assert p.shape == (8, 12)
    assert np.array_equal(p, hyperplanes(12, 8))


# ---- round 2: vectorized kernel equivalence vs scalar references ----------

FUZZ_TEXTS = ["", "a", "ab", "abcd", "hello world", "HELLO WORLD",
              "İstanbul'da yaşıyorum", "日本語のテキストです",
              "the quick brown fox jumps over the lazy dog " * 20,
              "aaaaa", "  \t\n ", "ñandú ñandú ñandú", "x" * 4,
              "emoji 🎉🎉 mixed 中文 text"]


def test_shingle_hashes_batch_matches_scalar():
    from lingua_ray.stages.dedup import _shingle_hashes, _shingle_hashes_batch
    hashes, offs = _shingle_hashes_batch(FUZZ_TEXTS, 5)
    for i, t in enumerate(FUZZ_TEXTS):
        got = np.unique(hashes[offs[i]:offs[i + 1]])
        assert (got == _shingle_hashes(t, 5)).all(), t


def test_minhash_batch_matches_scalar():
    from lingua_ray.stages.dedup import (_SIG_SEEDS, _mix, _shingle_hashes,
                                         minhash_signature_batch)
    t = minhash_signature_batch(_docs(FUZZ_TEXTS), num_perm=32)
    sigs = np.array(t.column("minhash").to_pylist(), dtype=np.uint64)
    seeds = _SIG_SEEDS[:32]
    for i, txt in enumerate(FUZZ_TEXTS):
        sh = _shingle_hashes(txt, 5)
        want = _mix(sh[:, None] ^ seeds[None, :]).min(axis=0)
        assert (sigs[i] == want).all(), txt


def test_simhash_batch_matches_scalar():
    from lingua_ray.stages.dedup import _mix, _shingle_hashes, simhash_batch
    t = simhash_batch(_docs(FUZZ_TEXTS))
    got = np.array(t.column("simhash").to_pylist(),
                   dtype=np.int64).view(np.uint64)
    bit_idx = np.arange(64, dtype=np.uint64)
    for i, txt in enumerate(FUZZ_TEXTS):
        sh = _mix(_shingle_hashes(txt, 5))
        bits = ((sh[:, None] >> bit_idx[None, :]) & np.uint64(1)).astype(
            np.int64)
        vote = bits.sum(axis=0) * 2 - len(sh)
        want = np.sum((vote > 0).astype(np.uint64) << bit_idx)
        assert got[i] == want, txt


def test_lsh_band_batch_empty_and_bad_bands():
    from lingua_ray.stages.dedup import lsh_band_batch, minhash_signature_batch
    empty = minhash_signature_batch(_docs([])).slice(0, 0)
    out = lsh_band_batch(empty)
    assert out.num_rows == 0
    assert out.column_names == ["band", "band_hash", "doc_id"]
    with pytest.raises(ValueError, match="not divisible"):
        lsh_band_batch(minhash_signature_batch(_docs(["x"])), num_bands=7)


def test_fingerprint64_batch_matches_scalar():
    from lingua_ray.functions.textstats import (_fingerprint64,
                                                fingerprint64_array)
    col = pa.array(FUZZ_TEXTS + [None], type=pa.string())
    got = fingerprint64_array(col)
    want = np.array([_fingerprint64(t) for t in FUZZ_TEXTS + [""]],
                    dtype=np.uint64)
    assert (got == want).all()
    # distinctness on the fuzz set (sans case/whitespace dupes)
    assert len(np.unique(got)) == len(set(FUZZ_TEXTS + [""]))


def test_exact_dedup_local_min_fp64():
    from lingua_ray.stages.dedup import exact_dedup_local_min
    t = pa.table({"doc_id": pa.array([3, 1, 2, 9], type=pa.int64()),
                  "text": ["same", "same", "other", "same"]})
    out = exact_dedup_local_min(t)
    assert out.column_names == ["fp64", "doc_id"]
    kept = dict(zip(out.column("fp64").to_pylist(),
                    out.column("doc_id").to_pylist()))
    assert sorted(kept.values()) == [1, 2]


def test_estimate_jaccard_batch():
    from lingua_ray.stages.dedup import estimate_jaccard_batch
    sig_t = pa.FixedSizeListArray.from_arrays(
        pa.array(np.arange(8, dtype=np.uint64)), 4)
    half = pa.FixedSizeListArray.from_arrays(
        pa.array(np.array([0, 1, 99, 98, 4, 5, 6, 7], dtype=np.uint64)), 4)
    t = pa.table({"sig_a": sig_t, "sig_b": half})
    est = estimate_jaccard_batch(t).column("jaccard_est").to_pylist()
    assert est == [0.5, 1.0]
    assert estimate_jaccard_batch(t.slice(0, 0)).num_rows == 0


def test_verify_minhash_candidates_e2e(ray_session):
    import ray.data
    from lingua_ray.stages.dedup import (minhash_signature_batch,
                                         verify_minhash_candidates)
    texts = [BASE, BASE.replace("tonight", "today"),
             "completely different content about gardening and soil"]
    sig_tab = minhash_signature_batch(_docs(texts)).select(
        ["doc_id", "minhash"])
    sig = ray.data.from_arrow(sig_tab)
    pairs = ray.data.from_items([
        {"doc_id": 1, "dup_of": 0},   # true near-dup
        {"doc_id": 2, "dup_of": 0},   # false candidate
    ])
    out = verify_minhash_candidates(pairs, sig, threshold=0.5,
                                    num_partitions=2).take_all()
    assert [r["doc_id"] for r in out] == [1]
    assert out[0]["jaccard_est"] >= 0.5


# ---- round 2: banded near-dup LSH, multi-probe kNN, IVF --------------------

def _vec_table(vs, ids=None):
    vs = np.asarray(vs, dtype=np.float64)
    ids = np.arange(len(vs)) if ids is None else np.asarray(ids)
    return pa.table({"vec_id": pa.array(ids, type=pa.int64()),
                     "embedding": pa.array(list(vs),
                                           type=pa.list_(pa.float64()))})


def test_choose_lsh_params_scales_with_n():
    from lingua_ray.stages.ann import choose_lsh_params
    bits_small, _ = choose_lsh_params(1_000)
    bits_big, bands_big = choose_lsh_params(10_000_000_000)
    assert bits_big > bits_small
    # expected random-bucket size stays bounded as n grows
    assert 10_000_000_000 / 2 ** bits_big <= 512
    assert 1 <= bands_big <= 32


def test_neardup_pairs_group_pivot_fallback_bounded():
    from lingua_ray.stages.ann import neardup_pairs_group
    rng = np.random.RandomState(0)
    base = rng.standard_normal(16)
    vs = np.stack([base + rng.standard_normal(16) * 0.01 for _ in range(40)])
    t = _vec_table(vs)
    full = neardup_pairs_group(t, threshold=0.9)          # all-pairs path
    capped = neardup_pairs_group(t, threshold=0.9, all_pairs_cap=8)  # pivot
    assert full.num_rows == 40 * 39 // 2                  # everything close
    assert capped.num_rows == 39                          # one row per member
    assert set(capped.column("dup_of").to_pylist()) == {0}


def test_embedding_neardup_detects_planted(ray_session):
    import ray.data
    from lingua_ray.stages.ann import embedding_neardup
    rng = np.random.RandomState(7)
    vs = rng.standard_normal((300, 32))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    # plant 10 exact-cosine-0.97 rotations of vectors 0..9
    g = rng.standard_normal((10, 32))
    v = vs[:10]
    u = g - (g * v).sum(axis=1, keepdims=True) * v
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    th = np.arccos(0.97)
    planted = np.cos(th) * v + np.sin(th) * u
    allv = np.concatenate([vs, planted])
    ds = ray.data.from_arrow(_vec_table(allv))
    out = embedding_neardup(ds, dim=32, n=len(allv), threshold=0.95,
                            target_bucket=64).take_all()
    got = {(r["dup_of"], r["vec_id"]) for r in out}
    want = {(i, 300 + i) for i in range(10)}
    assert len(got & want) >= 9          # ≥90% recall on planted pairs
    for r in out:
        assert r["cos"] >= 0.95


def test_spherical_kmeans_deterministic():
    from lingua_ray.stages.ann import spherical_kmeans
    x = np.random.RandomState(1).standard_normal((128, 8))
    c1 = spherical_kmeans(x, 4)
    c2 = spherical_kmeans(x, 4)
    assert np.allclose(c1, c2)
    assert np.allclose(np.linalg.norm(c1, axis=1), 1.0)


@pytest.mark.parametrize("driver_limit", [256 << 20, 0])
def test_connected_components_matches_union_find(ray_session, driver_limit):
    """Min-label propagation == a driver-side union-find on random pair
    graphs (chains, cliques, singleton edges) — on BOTH plans: the
    driver pointer-jumping path (default budget) and the distributed
    join loop (budget forced to 0)."""
    import ray.data
    from lingua_ray.stages.dedup import connected_components

    rng = np.random.RandomState(17)
    edges = [(int(a), int(b)) for a, b in rng.randint(0, 30, (40, 2))
             if a != b]
    edges += [(100, 101), (101, 102), (102, 103)]      # explicit chain
    # union-find oracle
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}

    pairs = ray.data.from_items(
        [{"doc_id": a, "dup_of": b} for a, b in edges])
    out = connected_components(pairs, num_partitions=2,
                               driver_limit_bytes=driver_limit).take_all()
    got = {r["doc_id"]: r["cluster"] for r in out}
    assert got == want


def test_connected_components_empty_pairs(ray_session):
    import ray.data
    from lingua_ray.stages.dedup import connected_components
    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "dup_of": pa.array([], type=pa.int64())}))
    out = connected_components(empty)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "cluster"}


def test_fuzzy_keep_composition(ray_session):
    """clusters → losers → anti_join: exactly one representative (min id)
    survives per connected component; singletons survive untouched."""
    import ray.data
    from lingua_ray.stages.dedup import connected_components
    from lingua_ray.stages.sets import anti_join

    # components: {1,2,5}, {3,7}; singletons: 0, 4, 6
    pairs = ray.data.from_items([
        {"doc_id": 2, "dup_of": 1}, {"doc_id": 5, "dup_of": 2},
        {"doc_id": 7, "dup_of": 3},
    ])
    docs = ray.data.from_items(
        [{"doc_id": i, "n_chars": 10 * i} for i in range(8)])
    clusters = connected_components(pairs, num_partitions=2)
    losers = (clusters.filter(expr="doc_id != cluster")
              .select_columns(["doc_id"])
              .rename_columns({"doc_id": "loser_id"}))
    out = anti_join(docs, losers, on="doc_id", right_on="loser_id")
    assert sorted(r["doc_id"] for r in out.take_all()) == [0, 1, 3, 4, 6]


def test_window_hashes_batch_raw_semantics():
    """Raw (case-sensitive, unpadded) window hashes: per-row counts match
    generate_series semantics, identical substrings hash identically, and
    rows shorter than k contribute nothing."""
    import numpy as np
    import pyarrow as pa

    from lingua_ray.stages.dedup import window_hashes_batch

    texts = pa.chunked_array([pa.array(
        ["abcdefg", "xyz", "", "abcdefg", "Abcdefg"])])
    h, offs = window_hashes_batch(texts, 5)
    assert list(np.diff(offs)) == [3, 0, 0, 3, 3]
    a, d, e = h[0:3], h[3:6], h[6:9]
    assert (a == d).all()           # identical text -> identical windows
    assert a[0] != e[0]             # case-sensitive: 'a...' != 'A...'
    assert (a[1:] == e[1:]).all()   # shared suffix windows agree


def test_window_hashes_batch_stride_sampling():
    """stride=S keeps exactly the windows starting at 0, S, 2S, ... per
    row — same hashes as slicing the stride-1 output, per-row counts
    match ceil((len-k+1)/S), and stride never changes a hash value."""
    import numpy as np
    import pyarrow as pa

    from lingua_ray.stages.dedup import window_hashes_batch

    texts = pa.chunked_array([pa.array(
        ["abcdefghijklmnop", "xy", "", "qrstuvwxyz012", "abcde"])])
    k, s = 5, 3
    h1, o1 = window_hashes_batch(texts, k)
    hs, os_ = window_hashes_batch(texts, k, stride=s)
    n1 = np.diff(o1)
    assert list(np.diff(os_)) == [-(-int(n) // s) for n in n1]
    for i in range(len(n1)):
        exact = h1[o1[i]:o1[i + 1]]
        sampled = hs[os_[i]:os_[i + 1]]
        assert (sampled == exact[::s]).all()


def _scalar_winnow(t: str, k: int, w: int) -> list[int]:
    """Independent scalar oracle for winnow_hashes_batch: python-int
    polynomial hashes, explicit per-window min with rightmost tie-break,
    64-bit identity hashes at the selected positions."""
    from lingua_ray.models import HASH_MULT
    from lingua_ray.stages.dedup import WINNOW_BASE, WINNOW_MOD

    n = len(t) - k + 1
    if n <= 0:
        return []
    h31 = []
    for i in range(n):
        v = 0
        for c in t[i:i + k]:
            v = (v * WINNOW_BASE + ord(c)) % WINNOW_MOD
        h31.append(v)
    c32 = 1 << 32
    keys = [h31[i] * c32 + (c32 - 1 - (i + 1)) for i in range(n)]
    sel = {(c32 - 1 - (min(keys[j:j + w]) % c32)) for j in range(n)}
    out = []
    for i in sorted(sel):
        v = 0
        for ch in t[i - 1:i - 1 + k]:
            v = (v * int(HASH_MULT) + ord(ch)) % (1 << 64)
        out.append(v)
    return out


def test_winnow_hashes_batch_vs_scalar():
    """Kernel-vs-scalar: the vectorized winnowing selection (combined
    rightmost-min key, per-row shrinking tail windows, consecutive-min
    dedup) matches an explicit per-window scalar implementation on
    periodic, degenerate, multibyte, short/exact/boundary-length rows."""
    import numpy as np
    import pyarrow as pa

    from lingua_ray.stages.dedup import winnow_hashes_batch

    k, w = 40, 8
    texts = ["abcdefghij" * 20, "the quick brown fox " * 15,
             "aaaaaaaaaa" * 12, "short under forty chars", "x" * 40,
             "x" * 46, "", None,
             "日本語のテキストが混ざる long mixed content " * 3]
    h, offs = winnow_hashes_batch(
        pa.chunked_array([pa.array(texts, type=pa.string())]), k, w)
    for r, t in enumerate(texts):
        got = sorted(h[offs[r]:offs[r + 1]].tolist())
        want = sorted(_scalar_winnow(t or "", k, w))
        assert got == want, f"row {r}"


def test_winnow_shift_robust_guarantee():
    """The winnowing guarantee the stride sampler lacks: ANY shared span
    of >= k + w - 1 chars selects at least one identical fingerprint in
    both documents, for EVERY alignment of the span (stride-S only
    detects spans whose sampled phases line up)."""
    import pyarrow as pa

    from lingua_ray.stages.dedup import winnow_hashes_batch

    k, w = 40, 8
    rng_pad = "qwertyuiopasdfghjklzxcvbnm0123456789"
    span = ("SHARED-BOILERPLATE-" * 4)[:k + w - 1]   # exactly 47 chars
    a = "left context padding " * 3 + span + " right side"
    for shift in range(1, 2 * w + 3):
        b = rng_pad[:shift] + span + " unrelated tail content"
        h, offs = winnow_hashes_batch(
            pa.chunked_array([pa.array([a, b])]), k, w)
        ha = set(h[offs[0]:offs[1]].tolist())
        hb = set(h[offs[1]:offs[2]].tolist())
        assert ha & hb, f"shift {shift}: no common fingerprint"


def test_spill_stale_pid_sweep(tmp_path, monkeypatch):
    """sweep_stale removes sibling spill dirs owned by dead pids, keeps
    this process's dir and unrelated tags; spill_path reserves a clean
    per-pid dir."""
    import os

    from lingua_ray.stages import spill as sp

    monkeypatch.setattr(sp, "_ROOT", str(tmp_path))
    dead = str(tmp_path / "tag-sf-pid999999999")
    live = str(tmp_path / f"tag-sf-pid{os.getpid()}")
    other = str(tmp_path / "othertag-sf-pid999999999")
    for d in (dead, live, other):
        os.makedirs(d)
    path = sp.spill_path("tag", "sf")
    assert path == live and os.path.isdir(live)
    assert not os.path.exists(dead)      # dead pid swept
    assert os.path.isdir(other)          # other tags untouched


def _semdedup_table(vs, list_ids, ids=None):
    t = _vec_table(vs, ids)
    return t.append_column("list_id",
                           pa.array(np.asarray(list_ids), pa.int32()))


def test_semdedup_group_components_and_keep_rule():
    """Within one cluster: cosine>=threshold edges form components, each
    component keeps exactly one member — the one with the LOWEST cosine
    to the centroid (least-prototypical keep rule), ties to lowest id."""
    from lingua_ray.stages.ann import semdedup_group
    e = np.eye(8)
    th = np.arccos(0.97)
    # component A: vectors 0,1,2 mutually ~0.97+ similar around e0
    a0 = e[0]
    a1 = np.cos(th) * e[0] + np.sin(th) * e[1]
    a2 = np.cos(th) * e[0] + np.sin(th) * e[2]
    # component B: 3,4 similar around e3; singleton: 5 orthogonal
    b0 = e[3]
    b1 = np.cos(th) * e[3] + np.sin(th) * e[4]
    solo = e[5]
    cent = np.stack([e[0]])  # cluster 0 centroid = e0
    t = _semdedup_table([a0, a1, a2, b0, b1, solo], [0] * 6)
    out = semdedup_group(t, threshold=0.95, centroids=cent)
    got = {r["vec_id"]: r for r in out.to_pylist()}
    assert {v["group_id"] for v in got.values()} == {0, 3, 5}
    assert [got[i]["group_size"] for i in range(6)] == [3, 3, 3, 2, 2, 1]
    # keep rule: comp A keeps the lowest-cent_cos member.  a1/a2 have
    # cent_cos 0.97 < a0's 1.0 and tie exactly -> lowest id (1) kept.
    keeps = {i for i, v in got.items() if v["keep"]}
    assert 1 in keeps and 0 not in keeps and 2 not in keeps
    # comp B: both members are orthogonal to centroid e0 (cent_cos 0),
    # tie -> lowest id 3; singleton always kept
    assert keeps == {1, 3, 5}


def test_semdedup_group_oversize_cluster_bounded_path():
    """Clusters beyond all_pairs_cap take the sub-bucketed path: still one
    keeper per found component, exact duplicates always collapse (same
    vector -> same sign bucket), output covers every member once."""
    from lingua_ray.stages.ann import semdedup_group
    rng = np.random.RandomState(11)
    vs = rng.standard_normal((120, 16))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    dup = np.concatenate([vs, vs[:7]])           # ids 120..126 exact dups
    cent = vs[:1]
    t = _semdedup_table(dup, [0] * len(dup))
    out = semdedup_group(t, threshold=0.95, centroids=cent,
                         all_pairs_cap=32)
    rows = {r["vec_id"]: r for r in out.to_pylist()}
    assert len(rows) == 127
    for i in range(7):
        assert rows[120 + i]["group_id"] == rows[i]["group_id"]
        assert rows[i]["keep"] != rows[120 + i]["keep"]  # exactly one kept
    n_keep = sum(r["keep"] for r in rows.values())
    assert n_keep == len({r["group_id"] for r in rows.values()})


def test_semantic_dedup_query_partitioning_invariant(ray_session):
    """The registered semantic_dedup query finds planted semantic dups on
    the real embeddings table and its output is independent of input
    block structure (override_num_blocks via repartition upstream would
    be invisible: we just re-run and compare, and check planted rows)."""
    import __ray_entry__ as E
    import pyarrow.parquet as pq
    n_vec = pq.read_metadata(
        "/root/testdata/sf0.001/embeddings.parquet").num_rows
    out = E.queries()["semantic_dedup"]("/root/testdata/sf0.001")
    t = out.take_all()
    assert len(t) == n_vec               # exactly one row per embedding
    by_group: dict[int, list] = {}
    for r in t:
        by_group.setdefault(r["group_id"], []).append(r)
    for g, members in by_group.items():
        assert sum(m["keep"] for m in members) == 1
        assert all(m["group_size"] == len(members) for m in members)
    t2 = E.queries()["semantic_dedup"]("/root/testdata/sf0.001").take_all()
    assert t == t2
