"""The transcript generator without the accuracy corpus: turn text comes
from the word-list pool, and the table keeps the FIXTURES.md §F2
properties the transcript, checkpoint and query tests rely on.  Runs on
every host: the corpus path is pointed at an empty directory."""

import collections
import re

import pytest

from conftest import _write_corpus
from lingua_ray.sources import transcripts as T

SCRIPTS = {"Latin": "[A-Za-z]", "Cyrillic": "[Ѐ-ӿ]",
           "Han": "[一-鿿]", "Kana": "[぀-ヿ]",
           "Arabic": "[؀-ۿ]"}


@pytest.fixture
def no_corpus(tmp_path, monkeypatch):
    monkeypatch.setattr(T, "CORPUS_DIR", tmp_path / "empty")
    (tmp_path / "empty").mkdir()


def test_word_pool_used_without_corpus(no_corpus):
    texts, langs = T._load_pool()
    assert T.pool_name() == "words"
    assert len(texts) == len(set(texts)) == 2400
    assert collections.Counter(langs) == {iso1: 200 for iso1 in T._POOL_LANGS}


def test_fallback_table_has_fixture_properties(no_corpus):
    t = T.generate_transcripts(6000, 150, seed=42)
    assert t.equals(T.generate_transcripts(6000, 150, seed=42))
    texts = t.column("text").to_pylist()
    for script, rx in SCRIPTS.items():
        assert any(re.search(rx, x) for x in texts), script
    assert any(s in x for x in texts for s in T._PII_SNIPPETS)
    assert set(T._JUNK) & set(texts)
    assert set(T._MIXED) & set(texts)
    assert any(len(x) > 120 for x in texts)
    sizes = collections.Counter(t.column("conv_id").to_pylist())
    assert sizes.most_common(1)[0][1] > 0.05 * 6000
    # no two conversations come out with the same text
    df = t.to_pandas().sort_values(["conv_id", "turn_idx"])
    bodies = df.groupby("conv_id")["text"].agg("\n".join)
    assert bodies.is_unique


def test_corpus_pool_used_when_corpus_has_text(tmp_path, monkeypatch):
    _write_corpus(tmp_path)
    monkeypatch.setattr(T, "CORPUS_DIR", tmp_path)
    texts, langs = T._load_pool()
    assert T.pool_name() == "corpus"
    want = (tmp_path / "sentences" / "ja.txt").read_text(
        encoding="utf-8").splitlines()
    assert [x for x, lang in zip(texts, langs) if lang == "ja"][-len(want):] \
        == want
