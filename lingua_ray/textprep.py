"""Vectorized text cleanup and word segmentation.

Reproduces, over whole Arrow batches at once:

* ``cleanUpInputText`` — trim → lowercase → delete ``\\p{N}|\\p{P}`` → collapse
  Java-regex ``\\s+`` to one space (reference ``api/LanguageDetector.kt:319-327``,
  ``internal/Constant.kt:162-165``).
* ``WordList.build`` — split raw text at ``' '`` (U+0020 only) and around
  logogram chars, each logogram being its own word (reference
  ``internal/util/WordList.kt:18-80``).

Representation: a batch is one concatenated int32 codepoint array plus int64
row offsets; words are (word_row, word_start) arrays plus a per-char word
id.  All downstream rule kernels are NumPy reductions over these arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .chartables import (
    IS_JAVA_REGEX_SPACE,
    IS_LOGOGRAM,
    IS_NUM_PUNCT,
    LOWER_1TO1,
    LOWER_SPECIAL,
    encode_arrow,
    encode_batch,
)

# Java String.trim() removes leading/trailing chars <= U+0020.
_TRIM_CHARS = "".join(map(chr, range(0x21)))


class CharBatch(NamedTuple):
    """Concatenated codepoints for a batch of texts."""

    cps: np.ndarray      # int32, concatenated codepoints
    offsets: np.ndarray  # int64, len = n_rows + 1
    def row_lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row_ids(self) -> np.ndarray:
        return np.repeat(
            np.arange(len(self.offsets) - 1, dtype=np.int64), self.row_lengths()
        )


def encode_texts(texts) -> tuple[np.ndarray, np.ndarray]:
    """list[str] OR Arrow string column → (codepoints, offsets).  The Arrow
    path decodes straight from the UTF-8 buffers — no per-row str objects."""
    if isinstance(texts, list):
        return encode_batch(["" if t is None else t for t in texts])
    return encode_arrow(texts)


def _trim_cps(cps: np.ndarray, offsets: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``str.strip(_TRIM_CHARS)`` (chars ≤ U+0020) per row."""
    n_rows = len(offsets) - 1
    if len(cps) == 0:
        return cps, offsets
    valid = cps > 0x20
    idx = np.arange(len(cps), dtype=np.int64)
    big = np.int64(len(cps) + 1)
    # one identity-valued sentinel keeps every offsets[:-1] index in
    # bounds for reduceat (trailing empty rows start AT len(cps));
    # clipping indices instead would shrink the previous row's segment
    xmin = np.append(np.where(valid, idx, big), big)
    xmax = np.append(np.where(valid, idx, np.int64(-1)), np.int64(-1))
    first = np.minimum.reduceat(xmin, offsets[:-1])
    last = np.maximum.reduceat(xmax, offsets[:-1])
    empty = offsets[:-1] == offsets[1:]
    first = np.where(empty, 0, first)
    last = np.where(empty, -1, last)
    new_len = np.maximum(last - first + 1, 0)
    new_offs = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(new_len, out=new_offs[1:])
    total = int(new_offs[-1])
    gather = (np.repeat(first, new_len)
              + np.arange(total, dtype=np.int64)
              - np.repeat(new_offs[:-1], new_len))
    return cps[gather], new_offs


def _lower_cps(cps: np.ndarray, offsets: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``str.lower()``: one table gather, with a per-row
    str.lower() fallback ONLY for rows containing a codepoint whose lower
    form expands (İ) or is contextual (final sigma) — byte-identical to
    Python on every input."""
    if len(cps) == 0:
        return cps, offsets
    table_lowered = LOWER_1TO1[cps]
    special = LOWER_SPECIAL[cps]
    if not special.any():
        return table_lowered, offsets
    n_rows = len(offsets) - 1
    old_len = np.diff(offsets)
    row_id = np.repeat(np.arange(n_rows, dtype=np.int64), old_len)
    bad_rows = np.unique(row_id[special])
    lowered_rows = {}
    for r in bad_rows:
        s = cps[offsets[r]: offsets[r + 1]]
        txt = s.astype("uint32").tobytes().decode("utf-32-le").lower()
        lowered_rows[int(r)] = np.frombuffer(
            txt.encode("utf-32-le"), dtype=np.uint32).astype(np.int32)
    is_bad = np.zeros(n_rows, dtype=bool)
    is_bad[bad_rows] = True
    new_len = old_len.copy()
    for r, arr in lowered_rows.items():
        new_len[r] = len(arr)
    new_offs = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(new_len, out=new_offs[1:])
    out = np.empty(int(new_offs[-1]), dtype=np.int32)
    # good rows copy in bulk via a shift map; bad rows paste their re-encode
    shift = np.repeat(new_offs[:-1] - offsets[:-1], old_len)
    src = np.flatnonzero(~is_bad[row_id])
    out[src + shift[src]] = table_lowered[src]
    for r, arr in lowered_rows.items():
        out[new_offs[r]: new_offs[r] + len(arr)] = arr
    return out, new_offs


def clean_batch(texts, encoded: tuple[np.ndarray, np.ndarray] | None = None
                ) -> CharBatch:
    """Vectorized ``cleanUpInputText`` over a batch (list[str] or Arrow
    string column); returns cleaned codepoints.  ``encoded`` is the batch's
    :func:`encode_texts` output when the caller already has it."""
    cps, offsets = encoded if encoded is not None else encode_texts(texts)
    cps, offsets = _trim_cps(cps, offsets)
    cps, offsets = _lower_cps(cps, offsets)
    n_rows = len(offsets) - 1
    if len(cps) == 0:
        return CharBatch(cps, offsets)

    row_id = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offsets))

    # Delete \p{N}|\p{P}.
    keep = ~IS_NUM_PUNCT[cps]
    cps = cps[keep]
    row_id = row_id[keep]
    if len(cps) == 0:
        return CharBatch(cps, np.zeros(n_rows + 1, dtype=np.int64))

    # Collapse Java \s+ runs to a single ' '.
    sp = IS_JAVA_REGEX_SPACE[cps]
    cps = np.where(sp, np.int32(0x20), cps)
    prev_sp = np.empty_like(sp)
    prev_sp[0] = False
    prev_sp[1:] = sp[:-1]
    prev_row = np.empty_like(row_id)
    prev_row[0] = -1
    prev_row[1:] = row_id[:-1]
    keep2 = ~(sp & prev_sp & (row_id == prev_row))
    cps = cps[keep2]
    row_id = row_id[keep2]

    new_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_id, minlength=n_rows), out=new_offsets[1:])
    return CharBatch(cps, new_offsets)


class WordBatch(NamedTuple):
    """Word segmentation of a batch of *raw* texts (WordList semantics)."""

    cps: np.ndarray        # int32 codepoints of the raw texts, concatenated
    char_row: np.ndarray   # int64 row id per char
    char_word: np.ndarray  # int64 word id per char (-1 for the ' ' separators)
    word_row: np.ndarray   # int64 row id per word
    word_start: np.ndarray  # int64 index into cps of each word's first char
    word_is_logogram: np.ndarray  # bool per word (a one-char logogram word)
    n_rows: int


def build_word_batch(texts, encoded: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> WordBatch:
    """Vectorized ``WordList.build`` over a batch of raw texts (list[str]
    or Arrow string column); ``encoded`` as in :func:`clean_batch`."""
    cps, offsets = encoded if encoded is not None else encode_texts(texts)
    n_rows = len(offsets) - 1
    if len(cps) == 0:
        e = np.zeros(0, dtype=np.int64)
        return WordBatch(cps, e, e, e, e, np.zeros(0, dtype=bool), n_rows)

    row_id = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offsets))
    sep = cps == 0x20
    logo = IS_LOGOGRAM[cps]

    first_in_row = np.zeros(len(cps), dtype=bool)
    first_in_row[offsets[:-1][np.diff(offsets) > 0]] = True

    prev_sep = np.empty_like(sep)
    prev_sep[0] = True
    prev_sep[1:] = sep[:-1]
    prev_logo = np.empty_like(logo)
    prev_logo[0] = False
    prev_logo[1:] = logo[:-1]

    new_word = ~sep & (first_in_row | prev_sep | prev_logo | logo)
    word_id_incl = np.cumsum(new_word) - 1
    char_word = np.where(sep, -1, word_id_incl)

    starts = np.flatnonzero(new_word)
    # a logogram always starts a word and ends it, so a word that starts
    # with one is that one char
    return WordBatch(cps, row_id, char_word, row_id[starts], starts,
                     logo[starts], n_rows)

