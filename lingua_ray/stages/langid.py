"""Language-ID + perplexity stage: a stateful actor-pool ``map_batches`` class.

The Ray-native replacement for the reference's JVM-wide shared model registry
(``api/LanguageDetector.kt:754-776``): each actor loads the n-gram model
artifact once in ``__init__`` (mmap → page-cache shared across actors on a
node) and scores whole Arrow batches per ``__call__``.

Usage::

    ds.map_batches(LangIdScorer, batch_format="pyarrow", batch_size=2048,
                   concurrency=N, num_cpus=1,
                   fn_constructor_kwargs={"text_col": "text"})

Appends columns: ``lang`` (ISO 639-1, "un" for unknown), ``lang_confidence``
(1 − second-best relative confidence, in [0,1]), ``ppl`` (char-trigram
perplexity under the detected language, NaN when unknown), and — when
``top_k_confidences`` > 0 — ``confidences``, a
``list<struct<lang: string, score: float64>>`` of the top-k languages
sorted by descending confidence with enum-order tie-break, mirroring the
reference's sorted confidence map (``api/LanguageDetector.kt:194-217``,
tie-break ``internal/EnumDoubleMap.kt:97-128``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import constants as C
from ..kernel import Detector, DetectorConfig
from ..models import get_models
from .util import set_column

_ISO_LOOKUP = np.array(list(C.ISO1_CODES) + [C.UNKNOWN_CODE])

# Columns LangIdScorer writes with its defaults (with_ppl, no top-k), in order.
LANGID_COLUMNS = {"lang": pa.string(), "lang_confidence": pa.float64(),
                  "ppl": pa.float64()}


def reserve_langid_columns(batch: pa.Table) -> pa.Table:
    """Append typed all-null ``LANGID_COLUMNS`` that the batch lacks.  A
    later LangIdScorer overwrites them in place, so its columns keep the
    position they get when langid is the first stage, even when stages that
    append columns run before it."""
    for name, typ in LANGID_COLUMNS.items():
        if name not in batch.schema.names:
            batch = batch.append_column(name, pa.nulls(batch.num_rows, typ))
    return batch


class LangIdScorer:
    def __init__(self, text_col: str = "text",
                 languages: list[str] | None = None,
                 low_accuracy: bool = False,
                 minimum_relative_distance: float = 0.0,
                 with_ppl: bool = True,
                 top_k_confidences: int = 0):
        cfg = (DetectorConfig.from_iso1(
                   languages,
                   low_accuracy=low_accuracy,
                   minimum_relative_distance=minimum_relative_distance)
               if languages else
               DetectorConfig(low_accuracy=low_accuracy,
                              minimum_relative_distance=minimum_relative_distance))
        self.detector = Detector(get_models(), cfg)
        self.text_col = text_col
        self.with_ppl = with_ppl
        self.top_k = top_k_confidences
        # Warm the kernel once per actor at init (outside the pipeline's
        # critical path): the first detect() in a fresh worker process
        # faults in the kernel's working set — on virtualized hosts with
        # slow first-touch paging that costs seconds, and it would
        # otherwise land on the first real batch of every actor.  64
        # mixed-script rows touch every kernel stage incl. the CJK and
        # multi-byte decode paths.
        warm = pa.array((["the quick brown fox jumps over the lazy dog",
                          "szybki brązowy lis przeskakuje nad leniwym psem",
                          "日本語のテキストを少し含めて温めます",
                          "пример текста на русском языке"] * 16))
        self.detector.detect(warm, with_ppl=with_ppl,
                             with_matrix=top_k_confidences > 0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the Arrow column goes straight to the kernel — codepoints are
        # decoded from the UTF-8 buffers, no per-row Python str objects
        texts = batch.column(self.text_col)
        res = self.detector.detect(texts, with_ppl=self.with_ppl,
                                   with_matrix=self.top_k > 0)
        lang_codes = _ISO_LOOKUP[res["lang"]]
        confidence = 1.0 - res["conf2"]
        batch = set_column(batch,
            "lang", pa.array(lang_codes, type=pa.string()))
        batch = set_column(batch,
            "lang_confidence", pa.array(confidence, type=pa.float64()))
        if self.with_ppl:
            batch = set_column(batch, "ppl",
                               pa.array(res["ppl"], type=pa.float64()))
        if self.top_k:
            batch = set_column(batch, "confidences",
                               _topk_confidences(res["conf_matrix"],
                                                 self.top_k))
        return batch


def _topk_confidences(conf_matrix: np.ndarray, k: int) -> pa.ListArray:
    """conf_matrix (n, L) → list<struct<lang, score>> of the ≤k nonzero
    confidences per row, descending score; ties broken by language enum
    order (stable argsort on the negated matrix)."""
    idx = np.argsort(-conf_matrix, axis=1, kind="stable")[:, :k]
    vals = np.take_along_axis(conf_matrix, idx, axis=1)
    valid = vals > 0.0                       # row-major flatten below
    counts = valid.sum(axis=1)
    offsets = np.zeros(len(conf_matrix) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    child = pa.StructArray.from_arrays(
        [pa.array(_ISO_LOOKUP[idx[valid]], type=pa.string()),
         pa.array(vals[valid], type=pa.float64())],
        ["lang", "score"])
    return pa.ListArray.from_arrays(pa.array(offsets), child)
