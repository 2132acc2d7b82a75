"""The reference's accuracyReport batch job as a Ray pipeline (SURVEY.md §3.2).

Reference flow (``build.gradle.kts:162-227``, per-language JUnit forks →
per-language txt reports → aggregated CSV): corpus file → detect per line →
confusion counts per (true, predicted, category) → accuracy percentages.

Ray flow: corpus table → ``map_batches(score_langid)`` →
``groupby(true_lang, pred_lang, category).count()`` (cardinality ≤ 79×80×3 —
a tiny shuffle) → driver-side percentage math, mirroring
``AbstractLanguageDetectionAccuracyReport.kt:117-190``.
"""

from __future__ import annotations

from pathlib import Path

import pandas as pd
import pyarrow as pa

from ..models import CORPUS_CATEGORIES, CORPUS_DIR, ensure_models
from ..stages.langid import map_langid


def corpus_table(langs: tuple[str, ...] | None = None,
                 sample_per_file: int | None = None,
                 corpus_dir: Path = CORPUS_DIR) -> pa.Table:
    """FIXTURES.md §F1: (true_lang, category, line_no, text).  Raises
    ``FileNotFoundError`` naming ``corpus_dir`` when it holds no
    ``<category>/*.txt`` file at all."""
    paths = {cat: sorted((corpus_dir / cat).glob("*.txt"))
             for cat in CORPUS_CATEGORIES}
    if not any(paths.values()):
        raise FileNotFoundError(
            f"no accuracy corpus at {corpus_dir}: expected "
            f"<{'|'.join(CORPUS_CATEGORIES)}>/<lang>.txt")
    rows_lang, rows_cat, rows_no, rows_text = [], [], [], []
    for cat in CORPUS_CATEGORIES:
        for path in paths[cat]:
            iso1 = path.stem
            if langs and iso1 not in langs:
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            if sample_per_file:
                lines = lines[:sample_per_file]
            for i, line in enumerate(lines):
                rows_lang.append(iso1)
                rows_cat.append(cat)
                rows_no.append(i)
                rows_text.append(line)
    return pa.table({
        "true_lang": pa.array(rows_lang, type=pa.string()),
        "category": pa.array(rows_cat, type=pa.string()),
        "line_no": pa.array(rows_no, type=pa.int32()),
        "text": pa.array(rows_text, type=pa.large_string()),
    })


def accuracy_confusion(langs: tuple[str, ...] | None = None,
                       sample_per_file: int | None = None,
                       low_accuracy: bool = False,
                       concurrency: int = 4):
    """Ray Dataset of (true_lang, pred_lang, category, n)."""
    import ray.data
    ensure_models()
    table = corpus_table(langs, sample_per_file)
    ds = ray.data.from_arrow(table)
    ds = map_langid(ds, concurrency, with_ppl=False,
                    low_accuracy=low_accuracy)
    ds = ds.map_batches(
        lambda t: t.select(["true_lang", "category", "lang"])
                   .rename_columns(["true_lang", "category", "pred_lang"]),
        batch_format="pyarrow")
    return (ds.groupby(["true_lang", "pred_lang", "category"]).count()
            .rename_columns({"count()": "n"}))


def accuracy_table(confusion: pd.DataFrame) -> pd.DataFrame:
    """Per-(language, category) accuracy % + average, like the reference's
    per-language reports (AbstractLanguageDetectionAccuracyReport.kt:254-291)."""
    totals = confusion.groupby(["true_lang", "category"])["n"].sum()
    correct = (confusion[confusion.true_lang == confusion.pred_lang]
               .set_index(["true_lang", "category"])["n"])
    acc = (correct / totals * 100.0).rename("accuracy").reset_index()
    pivot = acc.pivot(index="true_lang", columns="category",
                      values="accuracy").fillna(0.0)
    pivot["average"] = pivot.mean(axis=1)
    return pivot.reset_index()


def write_report(confusion: pd.DataFrame, out_dir: str | Path) -> Path:
    """Aggregated CSV, the Ray analogue of ``writeAggregatedAccuracyReport``
    (build.gradle.kts:228-235)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = accuracy_table(confusion)
    path = out_dir / "aggregated-accuracy-values.csv"
    table.to_csv(path, index=False)
    return path


def accuracy_confusion_dual(langs: tuple[str, ...] | None = None,
                            sample_per_file: int | None = None,
                            concurrency: int = 4):
    """Both accuracy modes in one Dataset:
    (true_lang, pred_lang, category, mode, n), mode ∈ {high, low} — the
    reference's report runs every language through low- AND high-accuracy
    detectors (``AbstractLanguageDetectionAccuracyReport.kt:89-115``)."""

    def _tag(mode: str):
        def tag(t: pa.Table) -> pa.Table:
            return t.append_column(
                "mode", pa.array([mode] * t.num_rows, type=pa.string()))
        return tag

    high = accuracy_confusion(langs, sample_per_file, False, concurrency)
    low = accuracy_confusion(langs, sample_per_file, True, concurrency)
    return (high.map_batches(_tag("high"), batch_format="pyarrow")
            .union(low.map_batches(_tag("low"), batch_format="pyarrow")))


def accuracy_summary(confusion: pd.DataFrame) -> pd.DataFrame:
    """One row per (language, mode) with per-category accuracy % + average
    — the aggregated CSV shape, covering the whole corpus in both modes."""
    out = []
    for mode, part in confusion.groupby("mode"):
        tab = accuracy_table(part.drop(columns=["mode"]))
        tab.insert(1, "mode", mode)
        out.append(tab)
    return (pd.concat(out, ignore_index=True)
            .sort_values(["true_lang", "mode"], ignore_index=True))


_CAT_TITLES = {"single-words": "single words", "word-pairs": "word pairs",
               "sentences": "sentences"}


def render_language_report(true_lang: str, confusion: pd.DataFrame,
                           avg_len: dict[str, int] | None = None) -> str:
    """Per-language report text in the reference's layout
    (``AbstractLanguageDetectionAccuracyReport.kt:89-115``): legend
    'low | high', per-category accuracy, erroneous classifications sorted
    by high-accuracy share desc, and the exact-values footer."""
    from .. import constants as C
    iso_to_name = dict(zip(C.ISO1_CODES, C.LANGUAGE_NAMES))
    conf = confusion[confusion.true_lang == true_lang]

    def pct(part: pd.DataFrame, mode: str, cat: str, pred: str) -> float:
        sel = part[(part["mode"] == mode) & (part.category == cat)]
        total = sel["n"].sum()
        hit = sel[sel.pred_lang == pred]["n"].sum()
        return 100.0 * hit / total if total else 0.0

    lines = [f"##### {iso_to_name.get(true_lang, true_lang)} #####", "",
             "Legend: 'low accuracy mode | high accuracy mode'", ""]
    cat_acc: dict[str, dict[str, float]] = {}
    for cat in CORPUS_CATEGORIES:
        cat_acc[cat] = {m: pct(conf, m, cat, true_lang)
                        for m in ("low", "high")}
    avg_low = sum(v["low"] for v in cat_acc.values()) / len(CORPUS_CATEGORIES)
    avg_high = sum(v["high"] for v in cat_acc.values()) / len(CORPUS_CATEGORIES)
    lines += [f">>> Accuracy on average: {avg_low:.2f}% | {avg_high:.2f}%",
              ""]
    for cat in CORPUS_CATEGORIES:
        n_texts = int(conf[(conf["mode"] == "high")
                           & (conf.category == cat)]["n"].sum())
        length = f" (average length: {avg_len[cat]} chars)" if avg_len else ""
        lines.append(f">> Detection of {n_texts} {_CAT_TITLES[cat]}{length}")
        lines.append(f"Accuracy: {cat_acc[cat]['low']:.2f}% | "
                     f"{cat_acc[cat]['high']:.2f}%")
        wrong = sorted(
            set(conf[conf.category == cat].pred_lang) - {true_lang})
        parts = []
        for pred in wrong:
            lo = pct(conf, "low", cat, pred)
            hi = pct(conf, "high", cat, pred)
            if lo or hi:
                parts.append((hi, lo,
                              f"{iso_to_name.get(pred, pred)}: "
                              f"{lo:.2f}% | {hi:.2f}%"))
        if parts:
            parts.sort(key=lambda t: (-t[0], -t[1], t[2]))
            lines.append("Erroneously classified as "
                         + ", ".join(p[2] for p in parts))
        lines.append("")
    exact = [avg_low] + [cat_acc[c]["low"] for c in CORPUS_CATEGORIES] \
        + [avg_high] + [cat_acc[c]["high"] for c in CORPUS_CATEGORIES]
    lines.append(">> Exact values: " + " ".join(repr(v) for v in exact))
    return "\n".join(lines) + "\n"


def write_language_reports(confusion: pd.DataFrame,
                           out_dir: str | Path) -> list[Path]:
    """One ``<Language>.txt`` per language (both modes) next to the
    aggregated CSV — the full reference report artifact layout."""
    from .. import constants as C
    iso_to_name = dict(zip(C.ISO1_CODES, C.LANGUAGE_NAMES))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for true_lang in sorted(set(confusion.true_lang)):
        name = iso_to_name.get(true_lang, true_lang).capitalize()
        p = out_dir / f"{name}.txt"
        p.write_text(render_language_report(true_lang, confusion),
                     encoding="utf-8")
        paths.append(p)
    return paths
