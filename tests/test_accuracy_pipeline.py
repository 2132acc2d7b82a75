"""Accuracy-report pipeline (reference's accuracyReport job): confusion
counts, percentage tables, and report writer."""

import re

import pandas as pd
import pytest

from conftest import needs_corpus
from lingua_ray.pipelines.accuracy import (accuracy_confusion, accuracy_table,
                                           corpus_table, write_report)


@needs_corpus
def test_corpus_table_shape():
    t = corpus_table(langs=("en", "de"), sample_per_file=10)
    assert t.num_rows == 2 * 3 * 10
    assert t.schema.names == ["true_lang", "category", "line_no", "text"]


def test_corpus_table_missing_corpus_names_its_path(tmp_path):
    (tmp_path / "sentences").mkdir()       # a category dir with no files
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path))):
        corpus_table(corpus_dir=tmp_path)
    absent = tmp_path / "absent"
    with pytest.raises(FileNotFoundError, match=re.escape(str(absent))):
        corpus_table(corpus_dir=absent)


@needs_corpus
def test_confusion_and_report(ray_session, tmp_path):
    conf = accuracy_confusion(langs=("en", "de", "el"), sample_per_file=50,
                              concurrency=2).to_pandas()
    assert set(conf.columns) == {"true_lang", "pred_lang", "category", "n"}
    # counts add up to the corpus size
    assert conf["n"].sum() == 3 * 3 * 50
    table = accuracy_table(conf)
    assert set(table["true_lang"]) == {"en", "de", "el"}
    # Greek is mostly decided by script rules -> near-perfect
    el = table[table.true_lang == "el"]
    assert float(el["sentences"].iloc[0]) >= 97.0
    en = table[table.true_lang == "en"]
    assert float(en["sentences"].iloc[0]) >= 95.0

    path = write_report(conf, tmp_path)
    saved = pd.read_csv(path)
    assert "average" in saved.columns
    assert len(saved) == 3


def test_pipeline_extra_stage_plugin(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.compute as pc
    from lingua_ray.pipelines.quality_filter import (PipelineOptions,
                                                     apply_stages)
    from lingua_ray.sources.transcripts import ensure_transcripts

    def shout_stage(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "text_upper", pc.utf8_upper(batch.column("text")))

    turns = ensure_transcripts(tmp_path / "t", n_turns=500, seed=1, n_shards=2)
    ds = ray_session.data.read_parquet(str(turns))
    out = apply_stages(ds, PipelineOptions(langid_concurrency=2,
                                           extra_stages=[shout_stage]))
    res = out.take_batch(10, batch_format="pyarrow")
    assert "text_upper" in res.schema.names


@needs_corpus
def test_dual_mode_summary_and_language_reports(ray_session, tmp_path):
    from lingua_ray.pipelines.accuracy import (accuracy_confusion_dual,
                                               accuracy_summary,
                                               render_language_report,
                                               write_language_reports)
    conf = accuracy_confusion_dual(langs=("en", "el"), sample_per_file=50,
                                   concurrency=2).to_pandas()
    assert set(conf["mode"]) == {"high", "low"}
    assert conf["n"].sum() == 2 * 3 * 50 * 2     # langs x cats x lines x modes
    summary = accuracy_summary(conf)
    # one row per (language, mode), all three categories + average present
    assert len(summary) == 4
    assert {"single-words", "word-pairs", "sentences", "average"} \
        <= set(summary.columns)
    el_high = summary[(summary.true_lang == "el")
                      & (summary["mode"] == "high")]
    assert float(el_high["average"].iloc[0]) >= 95.0
    # summary must agree with the single-mode accuracy_table
    from lingua_ray.pipelines.accuracy import accuracy_table
    high_tab = accuracy_table(conf[conf["mode"] == "high"]
                              .drop(columns=["mode"]))
    merged = summary[summary["mode"] == "high"].reset_index(drop=True)
    for cat in ("single-words", "word-pairs", "sentences"):
        assert (merged[cat].values == high_tab[cat].values).all()

    txt = render_language_report("en", conf)
    assert txt.startswith("#####")
    assert "Legend: 'low accuracy mode | high accuracy mode'" in txt
    assert ">>> Accuracy on average:" in txt
    assert ">> Exact values:" in txt

    paths = write_language_reports(conf, tmp_path / "reports")
    assert len(paths) == 2
    assert all(p.exists() and p.stat().st_size > 100 for p in paths)
