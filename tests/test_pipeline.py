"""End-to-end Ray Data pipeline tests: the distributed result must equal the
single-process oracle (same kernels, no Ray) row-for-row."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import needs_corpus
from lingua_ray import models as M
from lingua_ray.kernel import Detector
from lingua_ray.pipelines.quality_filter import (
    PipelineOptions, apply_stages, write_ordered)
from lingua_ray.sources.transcripts import ensure_transcripts, generate_transcripts
from lingua_ray.stages.keep import keep_batch
from lingua_ray.stages.quality import quality_batch
from lingua_ray.stages.scrub import scrub_batch


@pytest.fixture(scope="module")
def transcripts_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("turns") / "sf_test"
    return ensure_transcripts(d, n_turns=4000, seed=42, n_shards=4)


def _ordered(ds, out_dir, opts: PipelineOptions,
             num_partitions: int) -> pa.Table:
    """Scored, order-restored output of ``ds``, read back partition by
    partition."""
    write_ordered(apply_stages(ds, opts), str(out_dir), num_partitions)
    return pa.concat_tables(pq.read_table(f) for f in
                            sorted(out_dir.glob("part-*.parquet")))


@pytest.fixture(scope="module")
def pipeline_result(ray_session, transcripts_dir, tmp_path_factory):
    ray = ray_session
    ds = ray.data.read_parquet(str(transcripts_dir))
    return _ordered(ds, tmp_path_factory.mktemp("ordered"),
                    PipelineOptions(langid_concurrency=2), 4)


def _oracle(transcripts_dir) -> pa.Table:
    """Single-process run of the identical stage kernels."""
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads
    table = pads.dataset(str(transcripts_dir)).to_table()
    det = Detector(M.NgramModels())
    texts = ["" if t is None else t for t in
             table.column("text").to_pylist()]
    res = det.detect(texts)
    from lingua_ray import constants as C
    iso = np.array(list(C.ISO1_CODES) + ["un"])
    table = table.append_column("lang", pa.array(iso[res["lang"]]))
    table = table.append_column(
        "lang_confidence", pa.array(1.0 - res["conf2"]))
    table = table.append_column(
        "ppl", pa.array(det.trigram_perplexity(texts, res["lang"])))
    table = quality_batch(table)
    table = scrub_batch(table)
    table = keep_batch(table)
    return table


def test_row_count_and_schema(pipeline_result, transcripts_dir):
    assert pipeline_result.num_rows == 4000
    for col in ("lang", "lang_confidence", "ppl", "quality_flags",
                "scrubbed_text", "keep"):
        assert col in pipeline_result.schema.names


def test_order_restored(pipeline_result):
    """Within the output, each conversation's turns appear in turn_idx order."""
    conv = pipeline_result.column("conv_id").to_pylist()
    tix = pipeline_result.column("turn_idx").to_pylist()
    last: dict[str, int] = {}
    for c, t in zip(conv, tix):
        if c in last:
            assert t > last[c], f"conversation {c} out of order"
        last[c] = t


def test_pipeline_matches_oracle(pipeline_result, transcripts_dir):
    want = _oracle(transcripts_dir)
    key = lambda tbl: {
        (c, t): i for i, (c, t) in enumerate(
            zip(tbl.column("conv_id").to_pylist(),
                tbl.column("turn_idx").to_pylist()))
    }
    wk, gk = key(want), key(pipeline_result)
    assert set(wk) == set(gk)
    order_w = [wk[k] for k in sorted(wk)]
    order_g = [gk[k] for k in sorted(wk)]
    for col in ("lang", "scrubbed_text", "keep", "quality_flags", "tox_count",
                "pii_email", "pii_ip", "pii_ssn", "pii_cc", "pii_phone"):
        w = np.asarray(want.column(col).to_pylist(), dtype=object)[order_w]
        g = np.asarray(pipeline_result.column(col).to_pylist(),
                       dtype=object)[order_g]
        mism = np.flatnonzero(w != g)
        assert len(mism) == 0, (col, mism[:5], w[mism[:5]], g[mism[:5]])
    # floats: exact equality expected (same kernel, same inputs)
    for col in ("lang_confidence", "ppl"):
        w = np.array(want.column(col).to_pylist(), dtype=np.float64)[order_w]
        g = np.array(pipeline_result.column(col).to_pylist(),
                     dtype=np.float64)[order_g]
        same = (w == g) | (np.isnan(w) & np.isnan(g))
        assert same.all(), (col, np.flatnonzero(~same)[:5])


def test_generator_determinism():
    a = generate_transcripts(500, 20, seed=7)
    b = generate_transcripts(500, 20, seed=7)
    assert a.equals(b)
    c = generate_transcripts(500, 20, seed=8)
    assert not a.equals(c)


def test_generator_has_mega_conversation():
    t = generate_transcripts(2000, 50, seed=42)
    import collections
    counts = collections.Counter(t.column("conv_id").to_pylist())
    assert counts.most_common(1)[0][1] >= 0.05 * 2000


@needs_corpus
def test_pipeline_junk_input_never_crashes(ray_session, tmp_path):
    """Nulls, empty strings, emoji, pure punctuation through the FULL
    pipeline: junk rows get lang='un' / keep=False, never an exception."""
    import ray.data

    rows = ["", None, "   ", "🎉🎉🎉", "3<856%)§", "È×∑",
            "a perfectly normal english sentence that should pass checks " * 2,
            "\x00\x01", "日本語のテキストです、これは普通の文章です。" * 3]
    t = pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(len(rows))]),
        "turn_idx": pa.array(list(range(len(rows))), type=pa.int32()),
        "text": pa.array(rows, type=pa.large_string()),
    })
    out = _ordered(ray.data.from_arrow(t), tmp_path / "out",
                   PipelineOptions(langid_concurrency=2), 2).to_pylist()
    assert len(out) == len(rows)
    by_turn = {r["turn_idx"]: r for r in out}
    for i in (0, 1, 2, 3, 4):          # junk rows
        assert by_turn[i]["lang"] == "un"
        assert by_turn[i]["keep"] is False
    assert by_turn[6]["lang"] == "en"
    assert by_turn[8]["lang"] == "ja"


@needs_corpus
def test_oov_text_gets_worst_perplexity():
    """Trigrams absent at every backoff level charge the OOV floor: text
    the winning language's model has never seen must score WORSE (higher
    ppl) than fluent text, not a perfect 1.0."""
    from lingua_ray import constants as C
    det = Detector(M.NgramModels())
    en = C.LANG_INDEX["ENGLISH"]
    texts = ["the quick brown fox jumps over the lazy dog",
             "щщщщ ъъъъ щъщъ"]          # Cyrillic salad scored as English
    ppl = det.trigram_perplexity(texts, np.array([en, en]))
    assert ppl[0] < 1e4                  # fluent text: plausible ppl
    assert ppl[1] > 1e8                  # all-OOV: the 1e9 floor
    assert ppl[1] > ppl[0]


def test_conversation_rollup_matches_pandas(ray_session, transcripts_dir,
                                            pipeline_result):
    """conversation_rollup == a pandas recomputation from the same scored
    per-turn output: dominant lang (ties → smallest code), kept fraction,
    threshold verdict."""
    import pandas as pd
    from lingua_ray.pipelines.quality_filter import (
        PipelineOptions, apply_stages, conversation_rollup)

    ray = ray_session
    ds = ray.data.read_parquet(str(transcripts_dir))
    scored = apply_stages(ds, PipelineOptions(langid_concurrency=2))
    got = conversation_rollup(scored, keep_threshold=0.5).to_pandas() \
        .sort_values("conv_id", ignore_index=True)

    turns = pipeline_result.select(["conv_id", "lang", "keep"]).to_pandas()

    def roll(g: pd.DataFrame) -> pd.Series:
        counts = g.groupby("lang").size()
        top = counts[counts == counts.max()].index.min()
        frac = float(g["keep"].sum()) / len(g)
        return pd.Series({"lang": top, "n_turns": len(g),
                          "n_keep": int(g["keep"].sum()),
                          "keep_frac": frac, "conv_keep": frac >= 0.5})

    want = turns.groupby("conv_id").apply(roll, include_groups=False) \
        .reset_index().sort_values("conv_id", ignore_index=True)
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)


def test_conversation_rollup_mega_conversation_skew(ray_session):
    """A conversation far larger than any single block must roll up
    correctly through the per-block partial path (no whole-group
    materialization) — the mega-conversation skew case."""
    import pyarrow as pa

    from lingua_ray.pipelines.quality_filter import conversation_rollup

    ray = ray_session
    n = 60_000
    langs = np.where(np.arange(n) % 3 == 0, "de", "en")
    keep = (np.arange(n) % 4) != 0
    t = pa.table({
        "conv_id": pa.array(["mega"] * n + ["tiny"]),
        "lang": pa.array(list(langs) + ["fr"]),
        "keep": pa.array(list(keep) + [False]),
    })
    ds = ray.data.from_arrow(t).repartition(32)
    out = conversation_rollup(ds, keep_threshold=0.5).to_pandas() \
        .set_index("conv_id").sort_index()
    mega = out.loc["mega"]
    assert mega["lang"] == "en"            # 2/3 of turns
    assert mega["n_turns"] == n
    assert mega["n_keep"] == int(keep.sum())
    assert bool(mega["conv_keep"]) is True     # 3/4 kept
    tiny = out.loc["tiny"]
    assert tiny["lang"] == "fr" and tiny["n_turns"] == 1
    assert bool(tiny["conv_keep"]) is False
