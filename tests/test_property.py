"""Property-based tests: the vectorized kernel must agree with the scalar
transcription on arbitrary Unicode input, and batch composition must not
affect per-row results."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingua_ray import models as M
from lingua_ray import reference_impl as ref
from lingua_ray.kernel import Detector

# Mix of scripts, punctuation, digits, whitespace, emoji, non-BMP letters.
_ALPHABETS = st.sampled_from([
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),       # ASCII
    st.characters(min_codepoint=0xC0, max_codepoint=0x17F),      # Latin ext
    st.characters(min_codepoint=0x370, max_codepoint=0x3FF),     # Greek
    st.characters(min_codepoint=0x400, max_codepoint=0x4FF),     # Cyrillic
    st.characters(min_codepoint=0x590, max_codepoint=0x6FF),     # Heb/Arab
    st.characters(min_codepoint=0x4E00, max_codepoint=0x4FFF),   # Han
    st.characters(min_codepoint=0x3040, max_codepoint=0x30FF),   # Kana
    st.characters(min_codepoint=0x1F300, max_codepoint=0x1F64F),  # emoji
    st.characters(min_codepoint=0x10330, max_codepoint=0x1034A),  # Gothic
])


@st.composite
def mixed_text(draw):
    n_chunks = draw(st.integers(0, 4))
    parts = []
    for _ in range(n_chunks):
        alphabet = draw(_ALPHABETS)
        parts.append(draw(st.text(alphabet=alphabet, min_size=0, max_size=24)))
    return " ".join(parts)


@pytest.fixture(scope="module")
def detector():
    M.ensure_models()
    return Detector(M.NgramModels())


@settings(max_examples=400, deadline=None)
@given(st.lists(mixed_text(), min_size=1, max_size=6))
def test_kernel_equals_scalar_on_fuzzed_text(detector, texts):
    got = detector.detect(texts)["lang"]
    lookup = detector.models.freq_of_str
    want = np.array([ref.detect_language(t, lookup) for t in texts],
                    dtype=np.int16)
    assert (got == want).all(), [
        (texts[i], int(got[i]), int(want[i]))
        for i in np.flatnonzero(got != want)
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(mixed_text(), min_size=2, max_size=8), st.integers(1, 7))
def test_batch_composition_invariance(detector, texts, split):
    split = split % (len(texts) - 1) + 1 if len(texts) > 1 else 1
    whole = detector.detect(texts, with_ppl=True)
    a = detector.detect(texts[:split], with_ppl=True)
    b = detector.detect(texts[split:], with_ppl=True)
    assert (whole["lang"] == np.concatenate([a["lang"], b["lang"]])).all()
    w = whole["ppl"]
    p = np.concatenate([a["ppl"], b["ppl"]])
    assert ((w == p) | (np.isnan(w) & np.isnan(p))).all()


@settings(max_examples=60, deadline=None)
@given(st.text(min_size=0, max_size=120))
def test_scrub_matches_duckdb(texts_one):
    """RE2 parity: pyarrow.compute vs DuckDB on arbitrary strings."""
    import duckdb
    import pyarrow as pa
    from lingua_ray.stages.scrub import PII_PATTERNS, scrub_batch

    t = pa.table({"text": pa.array([texts_one], type=pa.large_string())})
    got = scrub_batch(t).column("scrubbed_text").to_pylist()[0]
    expr = "text"
    for _, pattern, replacement in PII_PATTERNS:
        esc = pattern.replace("'", "''")
        expr = f"regexp_replace({expr}, '{esc}', '{replacement}', 'g')"
    con = duckdb.connect()
    con.register("tt", t)
    want = con.execute(f"SELECT {expr} FROM tt").fetchone()[0]
    assert got == want


@settings(max_examples=120, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=60), min_size=1, max_size=20))
def test_fingerprint64_batch_equals_scalar_fuzzed(texts):
    import pyarrow as pa
    from lingua_ray.functions.textstats import (_fingerprint64,
                                                fingerprint64_array)
    got = fingerprint64_array(pa.array(texts, type=pa.string()))
    want = np.array([_fingerprint64(t) for t in texts], dtype=np.uint64)
    assert (got == want).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(mixed_text(), min_size=1, max_size=10),
       st.integers(2, 7))
def test_shingle_batch_equals_scalar_fuzzed(texts, k):
    from lingua_ray.stages.dedup import _shingle_hashes, _shingle_hashes_batch
    hashes, offs = _shingle_hashes_batch(texts, k)
    for i, t in enumerate(texts):
        got = np.unique(hashes[offs[i]:offs[i + 1]])
        assert (got == _shingle_hashes(t, k)).all(), (t, k)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from(list("ab 日∑xyz")),
                        min_size=0, max_size=50),
                min_size=1, max_size=15))
def test_distinct_tokens_equals_split_fuzzed(texts):
    import pyarrow as pa
    from lingua_ray.stages.quality import quality_batch
    out = quality_batch(pa.table({"text": pa.array(texts, type=pa.string())}))
    nw = out.column("n_words").to_pylist()
    nd = out.column("n_distinct_words").to_pylist()
    for i, t in enumerate(texts):
        toks = t.split(" ")
        assert nw[i] == len(toks), repr(t)
        assert nd[i] == len(set(toks)), repr(t)


def test_distinct_words_thue_morse_pair_is_two_words():
    """A 1024-symbol Thue–Morse word and its complement are distinct
    words; a polynomial hash mod 2^64 maps them to one value, which used
    to undercount ``n_distinct_words`` and set ``low_distinct`` (32)."""
    import pyarrow as pa
    from lingua_ray.stages.quality import quality_batch
    t = [0]
    while len(t) < 1024:
        t += [1 - x for x in t]
    a = "".join("ab"[x] for x in t)
    b = "".join("ba"[x] for x in t)
    out = quality_batch(pa.table(
        {"text": [" ".join([a, b] + ["c"] * 8), f"{a} {b}"]}))
    assert out.column("n_distinct_words").to_pylist() == [3, 2]
    assert out.column("quality_flags").to_pylist()[0] == 4


@given(st.lists(st.floats(min_value=-5, max_value=1e6,
                          allow_nan=False).map(lambda x: round(x, 3)),
                min_size=0, max_size=120),
       st.integers(1, 20), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_weighted_sample_split_invariance_fuzzed(weights, k, cut):
    """Per-batch combiner + global finalize equals the brute-force
    selection for ANY weights (zeros/negatives excluded) at ANY split."""
    import math
    import hashlib
    import pyarrow as pa
    from lingua_ray.stages import sampling as S

    t = pa.table({"doc_id": pa.array(range(len(weights)), pa.int64()),
                  "w": pa.array(weights, pa.float64())})
    brute = []
    for i, w in enumerate(weights):
        if w <= 0:
            continue
        v = int(hashlib.md5(str(i).encode()).hexdigest()[:13], 16)
        brute.append((-math.log((v + 1) / 2.0 ** 52) / w, i))
    expect = [i for _, i in sorted(brute)[:k]]
    partials = []
    for s in range(0, max(t.num_rows, 1), cut):
        p = t.slice(s, cut)
        w = p.column("w").to_numpy(zero_copy_only=False)
        q = p.filter(pa.array(w > 0))
        keys = S._es_keys(q.column("doc_id").to_pylist(),
                          q.column("w").to_pylist())
        q = q.append_column("_key", pa.array(keys, pa.float64()))
        partials.append(S._smallest_k(q, "doc_id", k))
    merged = S._smallest_k(pa.concat_tables(partials), "doc_id", k)
    assert merged.column("doc_id").to_pylist() == expect


@given(st.lists(st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2026),
    max_size=80), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_gopher_signals_equal_scalar_fuzzed(texts):
    import re
    import pyarrow as pa
    from lingua_ray.stages.quality import (GOPHER_REQUIRED_STOPWORDS,
                                           gopher_signals_batch)
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = gopher_signals_batch(t)
    for i, txt in enumerate(texts):
        words = txt.split(" ")
        assert out.column("n_words")[i].as_py() == len(words)
        assert out.column("n_alpha_words")[i].as_py() == sum(
            1 for w in words if re.search("[A-Za-z]", w))
        assert out.column("n_req_stopwords")[i].as_py() == len(
            {w.lower() for w in words} & set(GOPHER_REQUIRED_STOPWORDS))
        assert out.column("n_symbols")[i].as_py() == (
            txt.count("#") + txt.count("…"))


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_text(), min_size=1, max_size=8), st.integers(2, 12))
def test_window_hashes_equality_structure(texts, k):
    """window_hashes_batch must mirror substring equality exactly: same
    k-substring -> same hash, per-row window counts match
    generate_series(1, len-k+1) semantics, and (on fuzz-sized inputs)
    different substrings never collide."""
    import pyarrow as pa

    from lingua_ray.stages.dedup import window_hashes_batch

    h, offs = window_hashes_batch(pa.chunked_array([pa.array(
        texts, type=pa.string())]), k)
    subs = []
    for t in texts:
        subs.extend(t[i:i + k] for i in range(max(len(t) - k + 1, 0)))
    assert list(np.diff(offs)) == [max(len(t) - k + 1, 0) for t in texts]
    assert len(h) == len(subs)
    by_sub: dict[str, int] = {}
    by_hash: dict[int, str] = {}
    for s, hv in zip(subs, h.tolist()):
        if s in by_sub:
            assert by_sub[s] == hv, "equal substrings must hash equal"
        by_sub[s] = hv
        if hv in by_hash:
            assert by_hash[hv] == s, "collision on fuzz-sized input"
        by_hash[hv] = s
