"""SQL-verified queries run against their ``oracle_sql()`` DuckDB statement
at sf0.001 (the document and embedding families), compared as
sorted frames."""

import re
from pathlib import Path

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
ROOT = Path(__file__).resolve().parent.parent


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns), ignore_index=True)


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    return con


@pytest.mark.parametrize("name", [
    "doc_length_quantiles", "doc_repetition", "para_dedup",
    "dedup_incremental", "doc_length_topp", "distinct_words_exact",
    "docs_per_source_cap", "lang_temperature_mix", "line_dedup",
    "embedding_centroid_by_label", "doc_dup_ngrams", "weighted_sample", "embedding_inference",
    "gopher_filter", "substring_dedup", "substring_dedup_winnowed",
    "dedup_indexed", "bm25_topk", "dsir_select", "ccnet_buckets",
    "nb_lang_classify", "weighted_sample_by_lang", "nb_confusion",
    "corpus_datacard", "bm25_indexed"])
def test_query_matches_duckdb(ray_session, oracle_con, name):
    import __ray_entry__ as E

    got = _canon(E.queries()[name](SF).to_pandas())
    want = _canon(oracle_con.execute(E.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_oracles_and_rows_only_list_match_the_registry():
    """Every ``oracle_sql()`` key is a registered query (a deleted query
    cannot leave its oracle behind, which tools/check_queries.py would
    skip in silence), and every rows-only query is named, and counted, in
    COVERAGE.md's rows-only section."""
    import __ray_entry__ as E

    registered, oracles = set(E.queries()), set(E.oracle_sql())
    assert sorted(oracles - registered) == [], "oracle of no registered query"
    rows_only = registered - oracles
    text = (ROOT / "COVERAGE.md").read_text(encoding="utf-8")
    start = text.index("## Rows-only queries")
    end = text.find("\n## ", start)
    section = text[start:] if end < 0 else text[start:end]
    listed = set(re.findall(r"`(\w+)`", section))
    assert sorted(rows_only - listed) == [], "rows-only query not in COVERAGE.md"
    counts = re.search(r"All (\d+) SQL-expressible queries of the (\d+)"
                       r".*?The (\d+) rows-only queries", section, re.S)
    assert counts is not None
    assert tuple(map(int, counts.groups())) == (
        len(oracles), len(registered), len(rows_only))
