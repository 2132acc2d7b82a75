"""Heuristic quality rules (Gopher/C4-style), stateless ``map_batches`` fn.

All metrics are defined with integer arithmetic (or exact integer-ratio
comparisons) so the DuckDB oracle SQL in ``__ray_entry__`` reproduces them
bit-for-bit.  Appends:

* ``n_chars``  — codepoint count
* ``n_words``  — single-space split token count (empties included)
* ``n_alpha``  — ASCII letter count
* ``n_digits`` — ASCII digit count
* ``n_logograms`` — CJK/kana/Hangul codepoint count (``LOGOGRAM_RANGES``)
* ``n_distinct_words`` — distinct single-space-split tokens, as the
  oracle's ``list_distinct(string_split(...))``
* ``quality_flags`` — bitmask, 0 = passes all rules
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..chartables import encode_arrow
from .util import set_column, utf8_filled

QUALITY_FLAG_NAMES = {
    1: "too_few_words",        # space-script: n_words < 3; CJK: n_chars < 3
    2: "too_long",             # n_chars > 20000
    4: "bad_mean_word_len",    # space-script only: word-chars < n_words or > 12*n_words
    8: "low_letter",           # 2*(n_alpha + n_logograms) < n_chars
    16: "high_digit",          # 10*n_digits > 3*n_chars
    32: "low_distinct",        # space-script only: n_words >= 10, 10*distinct < 3*n_words
}

# Word-based rules are meaningless for space-free logographic scripts; a row
# is "CJK-dominant" when logogram chars are at least half its chars, and the
# word-count rules are replaced by a plain char-count floor.  Logogram ranges
# are fixed codepoint intervals (identical in NumPy and DuckDB's RE2) so the
# oracle stays bit-exact: CJK Unified (+ext A), Hiragana/Katakana, Hangul.
LOGOGRAM_RANGES = ((0x3040, 0x30FF), (0x3400, 0x4DBF), (0x4E00, 0x9FFF),
                   (0xAC00, 0xD7A3))
LOGOGRAM_RE_CLASS = (r"[^\x{3040}-\x{30FF}\x{3400}-\x{4DBF}"
                     r"\x{4E00}-\x{9FFF}\x{AC00}-\x{D7A3}]")

_ASCII_ALPHA = np.zeros(0x110000, dtype=bool)
_ASCII_ALPHA[ord("A"): ord("Z") + 1] = True
_ASCII_ALPHA[ord("a"): ord("z") + 1] = True
_ASCII_DIGIT = np.zeros(0x110000, dtype=bool)
_ASCII_DIGIT[ord("0"): ord("9") + 1] = True
_IS_LOGOGRAM_Q = np.zeros(0x110000, dtype=bool)
for _lo, _hi in LOGOGRAM_RANGES:
    _IS_LOGOGRAM_Q[_lo: _hi + 1] = True


def _word_runs(col) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a text column (nulls already filled) on single spaces, exactly
    as the oracle's ``string_split(text, ' ')`` (empties count).  Returns
    the words per row, and per distinct (row, word) in (row, word code)
    order the row and the word's occurrences in it.  Arrow split +
    dictionary-encode gives integer word codes, one sort of the combined
    (row, code) key gives the runs."""
    import pyarrow.compute as pc
    words = pc.split_pattern(col, " ")
    lens = np.asarray(
        pc.list_value_length(words).to_numpy(zero_copy_only=False),
        dtype=np.int64)
    enc = pc.dictionary_encode(pc.list_flatten(words))
    if len(enc) == 0:               # a 0-row batch has no words at all
        none = np.zeros(0, dtype=np.int64)
        return lens, none, none
    n_codes = len(enc.dictionary)
    key = np.repeat(np.arange(len(lens), dtype=np.int64) * n_codes, lens)
    key += np.asarray(enc.indices.to_numpy(zero_copy_only=False),
                      dtype=np.int64)
    key.sort()
    run_start = np.flatnonzero(
        np.concatenate([[True], key[1:] != key[:-1]]))
    run_len = np.diff(np.append(run_start, len(key)))
    return lens, key[run_start] // n_codes, run_len


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    n = batch.num_rows
    col = utf8_filled(batch.column(text_col))
    cps, offsets = encode_arrow(col)
    row_id = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    n_chars = np.diff(offsets).astype(np.int64)
    n_alpha = np.bincount(row_id[_ASCII_ALPHA[cps]], minlength=n).astype(np.int64)
    n_digits = np.bincount(row_id[_ASCII_DIGIT[cps]], minlength=n).astype(np.int64)
    n_logograms = np.bincount(
        row_id[_IS_LOGOGRAM_Q[cps]], minlength=n).astype(np.int64)
    n_words, run_row, _ = _word_runs(col)
    n_distinct = np.bincount(run_row, minlength=n).astype(np.int64)

    word_chars = n_chars - (n_words - 1)    # split(' '): spaces = words - 1
    cjk = 2 * n_logograms >= n_chars
    cjk &= n_chars > 0
    flags = np.zeros(n, dtype=np.int32)
    flags |= np.where(np.where(cjk, n_chars < 3, n_words < 3),
                      1, 0).astype(np.int32)
    flags |= np.where(n_chars > 20000, 2, 0).astype(np.int32)
    flags |= np.where(~cjk & ((word_chars < n_words)
                              | (word_chars > 12 * n_words)),
                      4, 0).astype(np.int32)
    flags |= np.where(2 * (n_alpha + n_logograms) < n_chars,
                      8, 0).astype(np.int32)
    flags |= np.where(10 * n_digits > 3 * n_chars, 16, 0).astype(np.int32)
    flags |= np.where(~cjk & (n_words >= 10)
                      & (10 * n_distinct < 3 * n_words),
                      32, 0).astype(np.int32)

    for name, arr, typ in (
        ("n_chars", n_chars, pa.int64()),
        ("n_words", n_words, pa.int64()),
        ("n_alpha", n_alpha, pa.int64()),
        ("n_digits", n_digits, pa.int64()),
        ("n_logograms", n_logograms, pa.int64()),
        ("n_distinct_words", n_distinct, pa.int64()),
        ("quality_flags", flags, pa.int32()),
    ):
        batch = set_column(batch, name, pa.array(arr, type=typ))
    return batch


# Standard English stopword list (public domain; the 40 highest-frequency
# English function words).  Kept short and frozen so the DuckDB oracle can
# inline the identical list.
STOPWORDS_EN = (
    "the", "of", "and", "to", "in", "a", "is", "that", "it", "was",
    "for", "on", "are", "with", "as", "at", "be", "this", "have", "from",
    "or", "by", "one", "had", "not", "but", "what", "all", "were", "when",
    "we", "there", "can", "an", "your", "which", "their", "if", "do", "will",
)


def stopword_ratio_batch(batch: pa.Table, text_col: str = "text",
                         stopwords: tuple = STOPWORDS_EN) -> pa.Table:
    """Append ``n_stopwords`` / ``n_words_total`` (integer-exact, so the
    DuckDB oracle reproduces them bit-for-bit; compute the float ratio
    downstream).  A low stopword share on English text is a strong
    machine-generated/keyword-stuffing signal (Gopher quality rules)."""
    import pyarrow.compute as pc
    col = utf8_filled(batch.column(text_col))
    words = pc.split_pattern(col, " ")
    total = pc.cast(pc.list_value_length(words), pa.int64())
    flat = pc.utf8_lower(pc.list_flatten(words))
    hit = pc.is_in(flat, value_set=pa.array(stopwords, type=pa.string()))
    n = batch.num_rows
    lens = np.asarray(total.to_numpy(zero_copy_only=False))
    row_id = np.repeat(np.arange(n, dtype=np.int64), lens)
    hits = np.asarray(hit.to_numpy(zero_copy_only=False))
    n_stop = np.bincount(row_id[hits], minlength=n).astype(np.int64)
    batch = set_column(batch, "n_stopwords", pa.array(n_stop))
    batch = set_column(batch, "n_words_total", total)
    return batch


def repetition_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``top_word_count`` / ``n_words_rep``: occurrences of the
    document's single most frequent word and the total word count
    (Gopher-style repetition signal; a high ratio flags keyword-stuffed
    or degenerate machine text).  The per-row maximum of
    ``_word_runs``' run lengths."""
    lens, run_row, run_len = _word_runs(utf8_filled(batch.column(text_col)))
    top = np.zeros(len(lens), dtype=np.int64)
    np.maximum.at(top, run_row, run_len)
    batch = set_column(batch, "top_word_count", pa.array(top))
    batch = set_column(batch, "n_words_rep", pa.array(lens))
    return batch


def entropy_batch(batch: pa.Table, text_col: str = "text",
                  ndigits: int = 6) -> pa.Table:
    """Append ``entropy`` (Shannon entropy of the document's word
    distribution, nats) and ``n_hapax`` (words occurring exactly once in
    the document) — degenerate/templated text scores low entropy, rich
    prose high.  Shuffle-free: ``_word_runs``' per-(doc, word) run
    lengths folded into per-doc sums."""
    lens, run_row, run_len = _word_runs(utf8_filled(batch.column(text_col)))
    p = run_len / lens[run_row]
    entropy = np.zeros(len(lens), dtype=np.float64)
    np.add.at(entropy, run_row, -p * np.log(p))
    hapax = np.bincount(run_row[run_len == 1],
                        minlength=len(lens)).astype(np.int64)
    batch = set_column(batch, "entropy",
                       pa.array(np.round(entropy, ndigits)))
    batch = set_column(batch, "n_hapax", pa.array(hapax))
    return batch


# The 8 "required" English words of the Gopher quality rules (Rae et al.
# 2021, appendix A): a document must contain at least 2 distinct ones.
# Frozen so the DuckDB oracle can inline the identical list.
GOPHER_REQUIRED_STOPWORDS = ("the", "be", "to", "of", "and", "that",
                             "have", "with")


def gopher_signals_batch(batch: pa.Table, text_col: str = "text",
                         min_words: int = 50, max_words: int = 100_000,
                         min_req_stopwords: int = 2) -> pa.Table:
    """Consolidated Gopher document-quality rules as INTEGER signals plus
    the final keep decision — shuffle-free, one pass, no Python loops
    over rows or tokens.

    Rules applied (word-level subset — the corpus has no line structure,
    so the line-based bullet/ellipsis rules are n/a and documented out):

    * 50 <= n_words <= 100_000
    * mean word length in [3, 10]   -> 3*n_words <= word_chars <= 10*n_words
    * symbol-to-word ratio <= 0.1   -> 10*n_symbols <= n_words  ('#', '…')
    * >= 80% of words contain an ASCII letter -> 5*n_alpha_words >= 4*n_words
    * >= 2 distinct required stopwords present

    Every signal is an integer and every threshold an integer comparison,
    so the DuckDB oracle reproduces the decision bit-for-bit (no float
    rounding anywhere).
    """
    import pyarrow.compute as pc

    n = batch.num_rows
    col = utf8_filled(batch.column(text_col))
    n_chars = pc.cast(pc.utf8_length(col), pa.int64()).to_numpy(
        zero_copy_only=False)
    words = pc.split_pattern(col, " ")
    n_words = pc.cast(pc.list_value_length(words), pa.int64()).to_numpy(
        zero_copy_only=False)
    flat = pc.list_flatten(words)
    row_id = np.repeat(np.arange(n, dtype=np.int64), n_words)

    has_alpha = pc.match_substring_regex(
        flat, "[A-Za-z]").to_numpy(zero_copy_only=False)
    n_alpha_words = np.bincount(row_id[has_alpha], minlength=n) \
        .astype(np.int64)

    flat_lower = pc.utf8_lower(flat)
    n_req = np.zeros(n, dtype=np.int64)
    for sw in GOPHER_REQUIRED_STOPWORDS:
        eq = pc.equal(flat_lower, sw).to_numpy(zero_copy_only=False)
        n_req += (np.bincount(row_id[eq], minlength=n) > 0)

    n_symbols = (
        pc.cast(pc.count_substring(col, "#"), pa.int64()).to_numpy(
            zero_copy_only=False)
        + pc.cast(pc.count_substring(col, "…"), pa.int64()).to_numpy(
            zero_copy_only=False))

    word_chars = n_chars - (n_words - 1)  # split(' '): spaces = words - 1
    keep = ((n_words >= min_words) & (n_words <= max_words)
            & (3 * n_words <= word_chars) & (word_chars <= 10 * n_words)
            & (10 * n_symbols <= n_words)
            & (5 * n_alpha_words >= 4 * n_words)
            & (n_req >= min_req_stopwords))

    for name, arr, typ in (
        ("n_words", n_words, pa.int64()),
        ("n_alpha_words", n_alpha_words, pa.int64()),
        ("n_req_stopwords", n_req, pa.int64()),
        ("n_symbols", n_symbols, pa.int64()),
        ("gopher_keep", keep.astype(np.int32), pa.int32()),
    ):
        batch = set_column(batch, name, pa.array(arr, type=typ))
    return batch
