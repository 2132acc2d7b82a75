"""Randomized cross-engine property check for the round-5 documents-table
operators: generate adversarial synthetic documents (nulls, unicode,
NBSP, newlines, repeated spaces, planted PII, single-token and empty
texts), run BOTH the Ray query and its DuckDB oracle on the same table,
and require the canonicalized results to match — the sf-fixture gates
never contain null text or NBSP, so this is the only check that
exercises those edges end-to-end."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

# documents-only, SQL-verified operators with deterministic-exact
# semantics (transcript ones need their own generated fixture, see
# TRANSCRIPT_OPS below; word_heavy_hitters legitimately
# REFUSES tiny inputs it cannot certify; dedup_incremental_bloom is
# superset-semantics by design).  This harness caught three real
# divergences the null-free sf fixtures never could: DuckDB trim()
# strips NBSP while utf8_trim(' ') keeps it, bare `text` in oracles
# propagated SQL NULL where the Ray kernels fill_null('') — in
# quality word_chars, the scrub chain, chunk substring, and the
# incremental-dedup NOT EXISTS equality.
OPS = ["dedup_keep_best", "pii_leak_report", "token_length_histogram",
       "domain_reweight", "code_fence_stats", "length_stratified_split",
       "redpajama_signals", "source_lang_entropy",
       "doc_quality", "doc_scrub", "doc_tokens", "doc_stopwords",
       "dedup_exact", "dedup_normalized", "line_dedup", "para_dedup",
       "doc_entropy", "doc_repetition", "doc_dup_ngrams", "word_counts",
       "corpus_datacard", "doc_chunks", "bigram_pmi", "source_kl",
       "doc_validation", "dedup_incremental", "dedup_indexed",
       "dedup_jaccard", "doc_length_minmax_by_lang",
       "doc_length_quantiles_by_lang", "distinct_words_by_lang",
       "docs_per_source_cap", "clean_corpus_stats", "lang_hist",
       "source_stats", "ngram_counts", "doc_tfidf", "corpus_mix",
       "doc_budget_selection", "doc_length_topp", "gopher_filter",
       "stratified_sample", "doc_split", "doc_shuffle",
       "doc_length_pctrank", "doc_length_rank", "inverted_index",
       "distinct_words_exact", "word_counts_by_lang",
       "lang_temperature_mix", "weighted_sample", "substring_dedup",
       "contamination"]

_WORDS = ["the", "café", "日本語", "naïve", "x", "", "alpha-beta",
          "line.", "Ends!", "mail bob@example.com now", "1.2.3.4",
          "123-45-6789", "4111 1111 1111 1111", "damn", "word?",
          " ", "tab\tsep", "emoji🎉", "ALLCAPS", "123"]


def _random_docs(rng: np.random.Generator, n: int) -> pa.Table:
    texts = []
    for i in range(n):
        kind = rng.integers(0, 8)
        if kind == 0:
            texts.append(None)
        elif kind == 1:
            texts.append("")
        elif kind == 2:
            texts.append(str(rng.choice(_WORDS)))  # single token
        else:
            k = int(rng.integers(1, 30))
            words = [str(w) for w in rng.choice(_WORDS, size=k)]
            sep = rng.choice([" ", "  ", "\n", " \n "])
            texts.append(str(sep).join(words))
    # duplicate some texts verbatim and near-verbatim so keep-best has
    # real groups
    for i in range(0, n, 7):
        j = int(rng.integers(0, n))
        if texts[j] is not None:
            texts[i] = texts[j].upper() if rng.integers(2) else texts[j]
    langs = rng.choice(["en", "de", "ja", "xx"], size=n)
    sources = rng.choice(["web", "books", "code"], size=n)
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([str(x) for x in langs]),
        "source": pa.array([str(x) for x in sources]),
        "n_chars": pa.array([len(t) if t else 0 for t in texts],
                            pa.int64())})


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns),
                          ignore_index=True).round(6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round5_docs_ops_match_oracle_on_adversarial_input(
        ray_session, tmp_path, seed):
    import __ray_entry__ as E
    rng = np.random.default_rng(seed)
    docs = _random_docs(rng, 120)
    d = tmp_path / f"rand{seed}"
    d.mkdir()
    pq.write_table(docs, d / "documents.parquet")

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    oracles = E.oracle_sql()
    qs = E.queries()
    for name in OPS:
        got = qs[name](str(d))
        if not isinstance(got, (pa.Table, pd.DataFrame)):
            got = got.to_pandas()
        elif isinstance(got, pa.Table):
            got = got.to_pandas()
        want = con.execute(oracles[name]).df()
        a, b = _canon(got), _canon(want)
        pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                      obj=f"{name} (seed {seed})")


def _rows(df: pd.DataFrame) -> list[tuple]:
    """The frame's rows, sorted, with NULL kept apart from the string
    'None' (``_canon`` folds them together)."""
    df = df[sorted(df.columns)].round(6)
    rows = [tuple(None if pd.isna(v) else v for v in r)
            for r in df.itertuples(index=False)]
    return sorted(rows, key=lambda r: [(v is None, str(v)) for v in r])


def test_null_keys_form_their_own_group(ray_session, tmp_path):
    """A NULL lang or source is a group of its own (or, for a source the
    oracle's join drops, no row), never the string 'None'."""
    import __ray_entry__ as E
    n = 60
    docs = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(["x"] * n),
        "lang": pa.array([None, "None", "en", "de"] * (n // 4), pa.string()),
        "source": pa.array([None, "None", "web", "books", "web"] * (n // 5),
                           pa.string()),
        "n_chars": pa.array(np.ones(n, dtype=np.int64))})
    pq.write_table(docs, tmp_path / "documents.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    for name in ("length_stratified_split", "source_lang_entropy"):
        got = E.queries()[name](str(tmp_path))
        got = got.to_pandas()
        want = con.execute(E.oracle_sql()[name]).df()
        assert _rows(got) == _rows(want), name


# transcript-table ops: the fixture generator is monkeypatched so BOTH
# engines read the same random shards.  Excluded: conv_lookup (targets
# a fixture-specific conv id — empty-vs-empty on random data),
# turn_context_window (rolling_join documents a DENSE-ordinal contract
# and now raises a clear ValueError on sparse input — tested below),
# weighted_sample_by_lang (reads the documents table).
TRANSCRIPT_OPS = [
    "conv_context_truncate", "conv_exchange_extract", "conv_pack_assign",
    "conv_response_latency", "conv_role_balance", "dpo_pairs",
    "session_turn_dedup", "transcript_contamination",
    "transcript_conv_stats", "transcript_loop_detect",
    "transcript_refusals", "transcript_role_stats",
    "transcript_role_transitions", "transcript_scrub",
    "transcript_sessionize", "transcript_tool_chains",
    "transcript_tool_usage", "transcript_turn_gaps",
    "transcript_validation", "conversations_assembled", "turn_dedup",
    "conv_dedup", "repeated_prefix_convs", "conv_duration_stats",
    "turn_length_quantiles_by_role"]


def _random_transcripts(rng: np.random.Generator, n_convs: int) -> pa.Table:
    """Sparse/gapped turn ordinals, convs NOT starting at 0, system and
    tool roles, null/empty/NBSP texts, exact-timestamp ties, null
    timestamps (one turn of some convs, every turn of one) — this
    caught the idx==0 sessionize seed bug and the dpo_pairs empty-block
    crash that three fixture-green rounds never could."""
    rows = []
    base = np.int64(1_700_000_000_000_000)
    for c in range(n_convs):
        conv = f"rc{c:05d}"
        n = int(rng.integers(1, 12))
        start = base + int(rng.integers(0, 1000)) * np.int64(60_000_000)
        idxs = sorted(rng.choice(np.arange(0, n * 3), size=n,
                                 replace=False).tolist())
        if rng.integers(3) == 0:
            idxs[0] = 0
        for k, ti in enumerate(idxs):
            role = str(rng.choice(["user", "assistant", "system", "tool"]))
            kind = rng.integers(0, 6)
            text = (None if kind == 0 else "" if kind == 1 else
                    str(rng.choice(["I cannot help with that.",
                                    "hello  world", "damn", "ok",
                                    "mail bob@example.com", "日本語 です",
                                    "a\nb", "repeat repeat repeat repeat",
                                    "\xa0 nbsp"])))
            tool = str(rng.choice(["", "", "", "search", "code"]))
            ts = start + k * np.int64(rng.choice([0, 1, 60]) * 1_000_000)
            if c == 7 or (c % 9 == 4 and k == n // 2):
                ts = None
            rows.append((conv, ti, role, text, tool, ts))
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows], pa.large_string()),
        "tool": pa.array([r[4] for r in rows]),
        "ts": pa.array([None if r[5] is None else int(r[5]) for r in rows],
                       pa.int64()).cast(pa.timestamp("us"))})


@pytest.mark.parametrize("seed", [0])
def test_transcript_ops_match_oracle_on_sparse_gapped_input(
        ray_session, tmp_path, monkeypatch, seed):
    import __ray_entry__ as E
    rng = np.random.default_rng(seed)
    tt = _random_transcripts(rng, 60)
    d = tmp_path / f"tr{seed}"
    d.mkdir()
    pq.write_table(tt, d / "part-00000.parquet")
    pq.write_table(tt.slice(0, 0), d / "part-00001.parquet")  # empty shard
    monkeypatch.setattr(E, "_transcripts_for_sf", lambda sf_dir: d)
    con = duckdb.connect()
    oracles = E.oracle_sql()
    qs = E.queries()
    for name in TRANSCRIPT_OPS:
        got = qs[name]("UNUSED")
        if not isinstance(got, (pa.Table, pd.DataFrame)):
            got = got.to_pandas()
        elif isinstance(got, pa.Table):
            got = got.to_pandas()
        want = con.execute(oracles[name]).df()
        pd.testing.assert_frame_equal(_canon(got), _canon(want),
                                      check_dtype=False,
                                      obj=f"{name} (seed {seed})")


def test_rolling_join_sparse_ordinals_fail_loudly(ray_session):
    """rolling_join's dense-ordinal contract violation must surface as
    a clear ValueError, not an ArrowIndexError deep in a worker."""
    import ray.data
    from lingua_ray.stages.adjacency import rolling_join
    t = pa.table({"k": ["a"] * 3, "o": pa.array([3, 7, 9], pa.int64()),
                  "text": ["x", "y", "z"]})
    ds = ray.data.from_arrow(t)
    with pytest.raises(Exception, match="DENSE 0-based"):
        rolling_join(ds, "k", "o", "text", k=2).materialize()
