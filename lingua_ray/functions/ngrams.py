"""Distributed character-n-gram counting and model training.

Two layers, both Ray-Data-first:

* :func:`char_ngram_topk` — corpus n-gram statistics as a DuckDB-verifiable
  query: per-batch combiner (distinct (lang, ngram) partial counts — one row
  per distinct n-gram per batch on the wire, never per window) → ONE
  ``groupby(lang).map_groups`` shuffle → per-language exact top-k.
* :func:`train_distributed` — the reference's model build
  (``GenerateLanguageModelsTask.kt:145-199``: count n-grams, derive
  conditional relative frequencies num/denom) re-expressed as a Ray Data
  pipeline so a 100 TB corpus can train models without any single process
  seeing more than (a) one batch of text or (b) one language's distinct
  n-gram counts.  Parity with the single-process
  :func:`lingua_ray.models.train_language` is pytest-gated bit-for-bit.

Scale notes: the only shuffle is keyed by ``lang`` (79 keys).  The combiner
shrinks the exchange from tokens to distinct-(lang, n, hash) partial counts;
the per-language finalize holds one language's distinct n-grams (the model
itself — MBs, since a model that didn't fit in memory couldn't be served by
the detector either).  A mega-language (English at web scale) is still one
group; if that became a straggler the combiner output could be salted and
summed in two rounds — counts are associative — before the finalize.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..chartables import encode_batch
from ..models import MAX_N, rolling_hashes, valid_window_starts
from ..textprep import clean_batch

_CP_BITS = np.uint64(21)  # all Unicode code points < 0x110000 < 2^21


def _window_starts(offs: np.ndarray, n: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Global start index + row id of every length-``n`` window that does
    not cross a row boundary.  ``offs`` is the int64 row-offset array of
    :func:`encode_batch`."""
    lengths = offs[1:] - offs[:-1]
    n_win = np.maximum(lengths - n + 1, 0)
    tot = int(n_win.sum())
    if tot == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    ends = np.cumsum(n_win)
    starts_out = np.concatenate([[0], ends[:-1]])
    within = np.arange(tot, dtype=np.int64) - np.repeat(starts_out, n_win)
    starts = np.repeat(offs[:-1], n_win) + within
    rows = np.repeat(np.arange(len(n_win), dtype=np.int64), n_win)
    return starts, rows


def _pack_windows(cps: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """Pack each window's ``n`` code points into one uint64 (21 bits each,
    exact and invertible for n ≤ 3)."""
    assert n <= 3, "64-bit packing holds 3 code points; hash for larger n"
    packed = np.zeros(len(starts), dtype=np.uint64)
    for j in range(n):
        packed = (packed << _CP_BITS) | cps[starts + j].astype(np.uint64)
    return packed


def _unpack_to_strings(packed: np.ndarray, n: int) -> list[str]:
    mask = (1 << 21) - 1
    out = []
    for p in packed.tolist():
        out.append("".join(chr((p >> (21 * (n - 1 - j))) & mask)
                           for j in range(n)))
    return out


def char_ngram_count_local(batch: pa.Table, n: int = 3,
                           text_col: str = "text",
                           lang_col: str = "lang") -> pa.Table:
    """Combiner: distinct (lang, ngram, cnt) partial counts for one batch.

    Counts EVERY length-``n`` character window of the raw text (spaces and
    punctuation included — this is the corpus-statistics view, matching the
    DuckDB ``substring`` oracle; model training filters to letter windows
    separately).  Vectorized: one batch-level encode, windows packed into
    uint64, ``np.unique`` per language; only the DISTINCT n-grams are
    decoded back to strings.
    """
    texts = ["" if t is None else t
             for t in batch.column(text_col).to_pylist()]
    langs = np.asarray(["" if l is None else l
                        for l in batch.column(lang_col).to_pylist()])
    out_lang: list[str] = []
    out_ngram: list[str] = []
    out_cnt: list[np.ndarray] = []
    if texts:
        cps, offs = encode_batch(texts)
        starts, rows = _window_starts(offs, n)
        packed = _pack_windows(cps, starts, n)
        win_lang = langs[rows] if len(rows) else langs[:0]
        for lang in np.unique(langs):
            vals, cnts = np.unique(packed[win_lang == lang],
                                   return_counts=True)
            if len(vals) == 0:
                continue
            grams = _unpack_to_strings(vals, n)
            out_lang.extend([lang] * len(grams))
            out_ngram.extend(grams)
            out_cnt.append(cnts.astype(np.int64))
    cnt = (np.concatenate(out_cnt) if out_cnt else np.zeros(0, np.int64))
    return pa.table({"lang": pa.array(out_lang, type=pa.string()),
                     "ngram": pa.array(out_ngram, type=pa.string()),
                     "cnt": pa.array(cnt, type=pa.int64())})


def _topk_language_group(group: pa.Table, k: int) -> pa.Table:
    """Finalize for one language: sum the partial counts, exact top-k with
    deterministic (cnt desc, ngram asc) tie-break."""
    summed = group.group_by(["lang", "ngram"]).aggregate([("cnt", "sum")])
    summed = summed.rename_columns(["lang", "ngram", "cnt"])
    return summed.sort_by([("cnt", "descending"),
                           ("ngram", "ascending")]).slice(0, k)


def char_ngram_topk(ds, n: int = 3, k: int = 20,
                    text_col: str = "text", lang_col: str = "lang"):
    """Top-``k`` character ``n``-grams per language over the corpus.

    combiner → single lang-keyed shuffle → per-language exact top-k.
    """
    partial = ds.map_batches(char_ngram_count_local, batch_format="pyarrow",
                             fn_kwargs={"n": n, "text_col": text_col,
                                        "lang_col": lang_col})
    return partial.groupby("lang").map_groups(
        _topk_language_group, batch_format="pyarrow", fn_kwargs={"k": k})


# ---------------------------------------------------------------- training

def ngram_hash_count_local(batch: pa.Table, text_col: str = "text",
                           lang_col: str = "lang") -> pa.Table:
    """Combiner for distributed model training: per-batch distinct
    ``(lang, n, hash, prefix_hash, cnt)`` rows for n = 1..MAX_N.

    Applies the IDENTICAL text pipeline as the single-process trainer
    (:func:`lingua_ray.models.train_language`): ``clean_batch`` → rolling
    hashes → all-letter within-row window mask — so the globally summed
    counts are equal by construction (window validity is per-row, counts
    are additive across batches).  ``prefix_hash`` is the (n−1)-gram hash
    at the same window start — a pure function of the n-gram string, so
    taking any representative after the global sum is exact.
    """
    texts = ["" if t is None else t
             for t in batch.column(text_col).to_pylist()]
    langs = np.asarray(["" if l is None else l
                        for l in batch.column(lang_col).to_pylist()])
    cols: dict[str, list] = {"lang": [], "n": [], "hash": [],
                             "prefix_hash": [], "cnt": []}
    for lang in np.unique(langs) if texts else []:
        idx = np.flatnonzero(langs == lang)
        cb = clean_batch([texts[i] for i in idx])
        hashes = rolling_hashes(cb.cps)
        for n, starts in enumerate(valid_window_starts(cb), 1):
            if len(starts) == 0:
                continue
            h = hashes[n - 1][starts]
            keys, first_idx, cnts = np.unique(h, return_index=True,
                                              return_counts=True)
            if n >= 2:
                prefix = hashes[n - 2][starts[first_idx]]
            else:
                prefix = np.zeros(len(keys), dtype=np.uint64)
            cols["lang"].append(np.full(len(keys), lang, dtype=object))
            cols["n"].append(np.full(len(keys), n, dtype=np.int32))
            cols["hash"].append(keys)
            cols["prefix_hash"].append(prefix)
            cols["cnt"].append(cnts.astype(np.int64))
    if not cols["lang"]:
        return pa.table({"lang": pa.array([], type=pa.string()),
                         "n": pa.array([], type=pa.int32()),
                         "hash": pa.array([], type=pa.uint64()),
                         "prefix_hash": pa.array([], type=pa.uint64()),
                         "cnt": pa.array([], type=pa.int64())})
    return pa.table({
        "lang": pa.array(np.concatenate(cols["lang"]).tolist(),
                         type=pa.string()),
        "n": pa.array(np.concatenate(cols["n"]), type=pa.int32()),
        "hash": pa.array(np.concatenate(cols["hash"]), type=pa.uint64()),
        "prefix_hash": pa.array(np.concatenate(cols["prefix_hash"]),
                                type=pa.uint64()),
        "cnt": pa.array(np.concatenate(cols["cnt"]), type=pa.int64()),
    })


def finalize_language_model(group: pa.Table) -> pa.Table:
    """Per-language finalize: sum partial counts, derive the reference's
    conditional relative frequencies (freq_n(g) = cnt_n(g) /
    cnt_{n-1}(prefix(g)); freq_1(g) = cnt_1(g) / Σ cnt_1) with the same
    float operations as :func:`lingua_ray.models.train_language`, so the
    distributed result is bit-identical."""
    lang = group.column("lang")[0].as_py()
    ns = group.column("n").to_numpy()
    hashes = np.asarray(group.column("hash").to_numpy(zero_copy_only=False),
                        dtype=np.uint64)
    prefixes = np.asarray(
        group.column("prefix_hash").to_numpy(zero_copy_only=False),
        dtype=np.uint64)
    cnts = group.column("cnt").to_numpy()

    summed: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for n in range(1, MAX_N + 1):
        m = ns == n
        keys, inv = np.unique(hashes[m], return_inverse=True)
        tot = np.zeros(len(keys), dtype=np.int64)
        np.add.at(tot, inv, cnts[m])
        rep_prefix = np.zeros(len(keys), dtype=np.uint64)
        rep_prefix[inv] = prefixes[m]  # any representative: constant per key
        summed[n] = (keys, tot, rep_prefix)

    out_n, out_hash, out_freq = [], [], []
    for n in range(1, MAX_N + 1):
        keys, tot, rep_prefix = summed[n]
        if len(keys) == 0:
            continue
        if n == 1:
            freqs = (tot / np.float64(tot.sum())).astype(np.float32)
        else:
            pk, ptot, _ = summed[n - 1]
            idx = np.searchsorted(pk, rep_prefix)
            freqs = (tot / ptot[idx]).astype(np.float32)
        out_n.append(np.full(len(keys), n, dtype=np.int32))
        out_hash.append(keys)
        out_freq.append(freqs)
    return pa.table({
        "lang": pa.array([lang] * sum(map(len, out_n)), type=pa.string()),
        "n": pa.array(np.concatenate(out_n) if out_n
                      else np.zeros(0, np.int32), type=pa.int32()),
        "hash": pa.array(np.concatenate(out_hash) if out_hash
                         else np.zeros(0, np.uint64), type=pa.uint64()),
        "freq": pa.array(np.concatenate(out_freq) if out_freq
                         else np.zeros(0, np.float32), type=pa.float32()),
    })


def train_distributed(ds):
    """Distributed model training: Dataset[(lang, text)] →
    Dataset[(lang, n, hash, freq)] — sorted-ascending hash per (lang, n),
    ready to be written as the flat ``.npy`` artifact the scorer mmaps."""
    partial = ds.map_batches(ngram_hash_count_local, batch_format="pyarrow")
    return partial.groupby("lang").map_groups(finalize_language_model,
                                              batch_format="pyarrow")
