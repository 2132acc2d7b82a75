"""Every per-batch kernel added in round 2 must tolerate the 0-row
batches Ray Data can deliver mid-pipeline, preserving schema."""

import numpy as np
import pyarrow as pa

from lingua_ray.functions.collocations import bigram_count_local
from lingua_ray.functions.divergence import source_word_counts
from lingua_ray.functions.quantiles import quantile_hist_batch
from lingua_ray.functions.reshape import melt_batch
from lingua_ray.functions.sketches import mg_summary_batch
from lingua_ray.functions.argmax import argmax_local
from lingua_ray.stages.chunking import chunk_batch
from lingua_ray.stages.shuffle import shuffle_key_batch


def _empty(**cols):
    return pa.table({k: pa.array([], type=t) for k, t in cols.items()})


def test_text_kernels_empty():
    t = _empty(text=pa.string())
    assert bigram_count_local(t).num_rows == 0
    assert mg_summary_batch(t).num_rows == 0
    t2 = _empty(source=pa.string(), text=pa.string())
    assert source_word_counts(t2).num_rows == 0


def test_tabular_kernels_empty():
    t = _empty(k=pa.string(), v=pa.int64())
    h = quantile_hist_batch(t, "k", "v")
    assert h.num_rows == 0 and h.column_names == ["k", "v", "cnt"]
    t3 = _empty(k=pa.string(), o=pa.int64())
    assert argmax_local(t3, "k", ["o"]).num_rows == 0
    t4 = _empty(id=pa.int64(), a=pa.float64(), b=pa.float64())
    m = melt_batch(t4, ["id"], ["a", "b"])
    assert m.num_rows == 0 and "variable" in m.column_names


def test_doc_kernels_empty():
    t = _empty(doc_id=pa.int64(), text=pa.string())
    c = chunk_batch(t)
    assert c.num_rows == 0
    assert c.column_names == ["doc_id", "chunk_idx", "chunk_text"]
    s = shuffle_key_batch(t)
    assert s.num_rows == 0 and s.column_names == ["doc_id", "bucket",
                                                  "digest"]


def test_salted_combine_empty(ray_session):
    import ray.data
    from lingua_ray.functions.salted import salted_sum
    t = _empty(k=pa.string(), v=pa.int64())
    out = salted_sum(ray.data.from_arrow(t), "k", "v").take_all()
    assert out == []


def test_round3_kernels_empty():
    from lingua_ray.stages.quality import (entropy_batch,
                                           gopher_signals_batch,
                                           repetition_batch)
    from lingua_ray.stages.inference import LinearScorer, golden_weights
    from lingua_ray.stages import sampling as S

    t = _empty(doc_id=pa.int64(), text=pa.string())
    g = gopher_signals_batch(t)
    assert g.num_rows == 0 and "gopher_keep" in g.column_names
    for text in (t.column("text"), pa.array([], pa.null())):
        d = pa.table({"text": text})
        r = repetition_batch(d)
        assert r.num_rows == 0 and r.column_names == [
            "text", "top_word_count", "n_words_rep"]
        e = entropy_batch(d)
        assert e.num_rows == 0 and e.column_names == [
            "text", "entropy", "n_hapax"]
    # all null, typed as null: every row is the one empty word
    d = pa.table({"text": pa.nulls(3)})
    assert repetition_batch(d).column("top_word_count").to_pylist() == [1] * 3
    e = entropy_batch(d)
    assert e.column("entropy").to_pylist() == [0.0] * 3
    assert e.column("n_hapax").to_pylist() == [1] * 3

    e = _empty(vec_id=pa.int64(), embedding=pa.list_(pa.float32()))
    out = LinearScorer(golden_weights(8), bias=0.1)(e)
    assert out.num_rows == 0 and "score" in out.column_names

    w = _empty(doc_id=pa.int64(), w=pa.float64())
    keys = S._es_keys([], [])
    assert keys == []
    q = w.append_column("_key", pa.array([], pa.float64()))
    assert S._smallest_k(q, "doc_id", 5).num_rows == 0


def test_keep_only_stages_empty_and_all_null_text():
    """The keep_only stage order, run batch by batch, on a 0-row batch and
    on a batch whose text is all null (Ray Data may type such a block's
    column as null): no row survives the language-independent checks, the
    langid stage takes the empty batch, and the columns come out in the
    default order's sequence."""
    from lingua_ray.stages.keep import (drop_language_independent_failures,
                                        drop_unkept, keep_batch,
                                        passes_language_independent_checks)
    from lingua_ray.stages.langid import LangIdScorer, reserve_langid_columns
    from lingua_ray.stages.quality import quality_batch
    from lingua_ray.stages.scrub import scrub_batch

    scorer = LangIdScorer(languages=["en", "de"])
    for text in (pa.array([], pa.string()), pa.nulls(3, pa.string()),
                 pa.nulls(3)):
        t = pa.table({"text": text})
        default = keep_batch(scrub_batch(quality_batch(scorer(t))))
        pre = scrub_batch(quality_batch(reserve_langid_columns(t)))
        mask = passes_language_independent_checks(pre)
        assert mask.dtype == bool and len(mask) == len(text)
        assert not mask.any()
        survivors = drop_language_independent_failures(pre)
        assert survivors.num_rows == 0
        assert survivors.schema == pre.schema
        out = drop_unkept(keep_batch(scorer(survivors)))
        assert out.num_rows == 0
        assert out.column_names == default.column_names
