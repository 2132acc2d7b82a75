"""Per-conversation language-switch stats on a crafted multilingual
fixture — exact expected switch counts and majorities, plus the
langid-composition query's end-to-end smoke."""

import pyarrow as pa
import pytest

from conftest import needs_corpus


def test_lang_switch_stats_exact(ray_session):
    import ray.data

    from lingua_ray.stages.langstats import lang_switch_stats

    rows = [
        # conv a: en en fr en -> 2 switches, majority en (3 vs 1)
        {"conv_id": "a", "turn_idx": 0, "lang": "en"},
        {"conv_id": "a", "turn_idx": 1, "lang": "en"},
        {"conv_id": "a", "turn_idx": 2, "lang": "fr"},
        {"conv_id": "a", "turn_idx": 3, "lang": "en"},
        # conv b: de de -> 0 switches
        {"conv_id": "b", "turn_idx": 0, "lang": "de"},
        {"conv_id": "b", "turn_idx": 1, "lang": "de"},
        # conv c: ja fr -> 1 switch, tie 1-1 -> majority fr (lang asc)
        {"conv_id": "c", "turn_idx": 0, "lang": "ja"},
        {"conv_id": "c", "turn_idx": 1, "lang": "fr"},
    ]
    out = lang_switch_stats(ray.data.from_items(rows).repartition(5),
                            bucket_size=2).to_pandas() \
        .sort_values("conv_id", ignore_index=True)
    assert out["conv_id"].tolist() == ["a", "b", "c"]
    assert out["n_switches"].tolist() == [2, 0, 1]
    assert out["majority_lang"].tolist() == ["en", "de", "fr"]
    assert out["n_langs"].tolist() == [2, 1, 2]


@needs_corpus
def test_conv_lang_switches_detects_real_languages(ray_session, tmp_path):
    """Through the REAL langid kernel: unambiguous monolingual turns."""
    import ray.data

    from lingua_ray.stages.langid import map_langid
    from lingua_ray.stages.langstats import lang_switch_stats

    turns = [
        ("x", 0, "the quick brown fox jumps over the lazy sleeping dog"),
        ("x", 1, "il était une fois une petite fille qui vivait dans la forêt"),
        ("x", 2, "another plain english sentence about nothing in particular"),
        ("y", 0, "日本語のテキストです。これはテストのための文章です。"),
        ("y", 1, "続けてもう一つの日本語の文を書きます。"),
    ]
    ds = ray.data.from_items(
        [{"conv_id": c, "turn_idx": i, "text": t} for c, i, t in turns])
    tagged = map_langid(ds, 1, with_ppl=False) \
        .select_columns(["conv_id", "turn_idx", "lang"])
    out = lang_switch_stats(tagged).to_pandas() \
        .sort_values("conv_id", ignore_index=True)
    x = out[out.conv_id == "x"].iloc[0]
    y = out[out.conv_id == "y"].iloc[0]
    assert x.majority_lang == "en" and x.n_switches == 2 and x.n_langs == 2
    assert y.majority_lang == "ja" and y.n_switches == 0 and y.n_langs == 1


def test_conv_neardup_finds_planted_retries(ray_session, monkeypatch):
    """Every planted clone (conv id + 10^8, first turn edited) must pair
    with its original at high estimated Jaccard."""
    import __ray_entry__ as E

    monkeypatch.setenv("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.001")
    out = E.queries()["conv_neardup"]("/root/testdata/sf0.001").to_pandas()
    assert len(out) > 0
    clones = out[out.conv_id.str.len() > 12]  # conv1000000NN
    assert len(clones) > 0
    for _, r in clones.iterrows():
        assert int(r.conv_id[4:]) - 100_000_000 == int(r.dup_of[4:])
        assert r.jaccard_est >= 0.5


def test_multilang_turns_flags_mixed_turns(ray_session):
    import __ray_entry__ as E

    out = E.queries()["multilang_turns"]("/root/testdata/sf0.001") \
        .to_pandas()
    assert len(out) == 6000
    # the fixture contains known mixed-script turns — some must split
    assert (out.n_sections >= 2).any()
    assert set(out.first_lang) - {""} != set()
