"""Frozen codepoint → property lookup tables.

The reference consults JVM Unicode tables per char (``Character.UnicodeScript.of``,
``Character.isLetter``, regex classes ``\\p{N}|\\p{P}`` — reference
``internal/Constant.kt:162-165``, ``api/LanguageDetector.kt:319-327``).  We bake the
equivalent data into dense NumPy arrays once (via the public ``regex`` module's
Unicode property support) and cache them to an ``.npz`` artifact so every Ray
actor loads them in milliseconds.  All rule-engine kernels are then pure NumPy
gathers over these tables — no per-char Python in the hot path.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from . import constants as C

_DATA_DIR = Path(__file__).resolve().parent / "data"
_CACHE = _DATA_DIR / "chartables.npz"
_MAX_CP = 0x110000
# Accent-char lookup tables only need to span the BMP ranges the constants use.
MASK_TABLE_SIZE = 0x2000

_JAVA_SCRIPT_TO_UNICODE = {
    "LATIN": "Latin", "CYRILLIC": "Cyrillic", "ARABIC": "Arabic",
    "ARMENIAN": "Armenian", "BENGALI": "Bengali", "DEVANAGARI": "Devanagari",
    "ETHIOPIC": "Ethiopic", "GEORGIAN": "Georgian", "GREEK": "Greek",
    "GUJARATI": "Gujarati", "GURMUKHI": "Gurmukhi", "HAN": "Han",
    "HANGUL": "Hangul", "HEBREW": "Hebrew", "HIRAGANA": "Hiragana",
    "KATAKANA": "Katakana", "SINHALA": "Sinhala", "TAMIL": "Tamil",
    "TELUGU": "Telugu", "THAI": "Thai",
}


def _all_codepoint_chunks() -> list[tuple[int, str]]:
    """(start_codepoint, string_of_consecutive_codepoints) chunks, skipping surrogates."""
    return [
        (0, "".join(map(chr, range(0, 0xD800)))),
        (0xE000, "".join(map(chr, range(0xE000, _MAX_CP)))),
    ]


def _mark(table: np.ndarray, pattern, chunks, value) -> None:
    for start, chunk in chunks:
        for m in pattern.finditer(chunk):
            table[start + m.start(): start + m.end()] = value


def _build() -> dict[str, np.ndarray]:
    import regex  # public PyPI module with Unicode property classes

    chunks = _all_codepoint_chunks()

    script_id = np.full(_MAX_CP, C.SCRIPT_NONE, dtype=np.uint8)
    for name in C.ALL_SCRIPTS:
        uni = _JAVA_SCRIPT_TO_UNICODE[name]
        pat = regex.compile(rf"[\p{{Script={uni}}}]+")
        _mark(script_id, pat, chunks, C.SCRIPT_INDEX[name])

    is_letter = np.zeros(_MAX_CP, dtype=bool)
    _mark(is_letter, regex.compile(r"\p{L}+"), chunks, True)

    is_num_punct = np.zeros(_MAX_CP, dtype=bool)
    _mark(is_num_punct, regex.compile(r"[\p{N}\p{P}]+"), chunks, True)

    # Java regex \s (no UNICODE_CHARACTER_CLASS) = ASCII [ \t\n\x0B\f\r].
    is_java_regex_space = np.zeros(_MAX_CP, dtype=bool)
    for cp in (0x20, 0x09, 0x0A, 0x0B, 0x0C, 0x0D):
        is_java_regex_space[cp] = True

    # Java Character.isWhitespace: Zs/Zl/Zp except NBSP family, plus controls.
    is_java_whitespace = np.zeros(_MAX_CP, dtype=bool)
    _mark(is_java_whitespace, regex.compile(r"[\p{Zs}\p{Zl}\p{Zp}]+"), chunks, True)
    for cp in (0x00A0, 0x2007, 0x202F):
        is_java_whitespace[cp] = False
    for cp in (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F):
        is_java_whitespace[cp] = True

    # Logogram chars: scripts of CJK languages, excluding whitespace
    # (CharExtensions.kt:32-39).
    logogram_script_ids = [C.SCRIPT_INDEX[s] for s in C.SCRIPTS_WITH_LOGOGRAMS]
    is_logogram = np.isin(script_id, logogram_script_ids) & ~is_java_whitespace

    # Accent char → candidate-language bitmask (Constant.kt:77-140).
    charlang = np.zeros((MASK_TABLE_SIZE, 2), dtype=np.uint64)
    for chars, lang_names in C.CHARS_TO_LANGUAGES.items():
        mask = C.langs_to_mask(C.LANG_INDEX[n] for n in lang_names)
        for ch in chars:
            assert ord(ch) < MASK_TABLE_SIZE
            charlang[ord(ch)] = mask

    # Unique-character → owning-language bitmask (Language.kt uniqueCharacters).
    uniq = np.zeros((MASK_TABLE_SIZE, 2), dtype=np.uint64)
    for i, uchars in enumerate(C.UNIQUE_CHARS):
        if not uchars:
            continue
        for ch in uchars:
            assert ord(ch) < MASK_TABLE_SIZE
            uniq[ord(ch), i >> 6] |= np.uint64(1 << (i & 63))

    # Python-exact lowercase: 1:1 mapping table plus a "special" mask for
    # the handful of codepoints str.lower() expands to >1 char (e.g. İ) or
    # maps context-dependently (Σ → ς when final).  Rows containing a
    # special cp fall back to str.lower(); everything else is one gather.
    lower_1to1 = np.arange(_MAX_CP, dtype=np.int32)
    lower_special = np.zeros(_MAX_CP, dtype=bool)
    for start, chunk in _all_codepoint_chunks():
        for i, ch in enumerate(chunk):
            low = ch.lower()
            if len(low) == 1:
                lower_1to1[start + i] = ord(low)
            else:
                lower_special[start + i] = True
    lower_special[0x3A3] = True  # capital sigma: final-form is contextual

    return {
        "script_id": script_id,
        "is_letter": is_letter,
        "is_num_punct": is_num_punct,
        "is_java_regex_space": is_java_regex_space,
        "is_java_whitespace": is_java_whitespace,
        "is_logogram": is_logogram,
        "charlang": charlang,
        "uniq": uniq,
        "lower_1to1": lower_1to1,
        "lower_special": lower_special,
    }


_REQUIRED_KEYS = ("script_id", "is_letter", "is_num_punct",
                  "is_java_regex_space", "is_java_whitespace", "is_logogram",
                  "charlang", "uniq", "lower_1to1", "lower_special")


def _constants_fingerprint() -> str:
    """Content hash of every constants.py input the build consumes — a
    cache whose fingerprint mismatches was built from OLD constants and
    must be rebuilt, or the kernel's masks silently diverge from the
    scalar oracle (which always reads constants fresh)."""
    import hashlib
    payload = repr((tuple(C.ALL_SCRIPTS),
                    tuple(sorted(C.CHARS_TO_LANGUAGES.items())),
                    tuple(C.UNIQUE_CHARS),
                    tuple(C.SCRIPTS_WITH_LOGOGRAMS),
                    C.SCRIPT_NONE)).encode()
    return hashlib.sha256(payload).hexdigest()


def _load() -> dict[str, np.ndarray]:
    fp = _constants_fingerprint()
    if _CACHE.exists():
        with np.load(_CACHE) as z:
            if (all(k in z.files for k in _REQUIRED_KEYS)
                    and "constants_fp" in z.files
                    and str(z["constants_fp"]) == fp):
                return {k: z[k] for k in z.files}
            # stale cache (older build or edited constants): rebuild
    tables = _build()
    tables["constants_fp"] = np.array(fp)
    _DATA_DIR.mkdir(parents=True, exist_ok=True)
    tmp = _DATA_DIR / f"chartables.tmp.{os.getpid()}.npz"
    np.savez_compressed(tmp, **tables)
    os.replace(tmp, _CACHE)
    return tables


_T = _load()

SCRIPT_ID: np.ndarray = _T["script_id"]
IS_LETTER: np.ndarray = _T["is_letter"]
IS_NUM_PUNCT: np.ndarray = _T["is_num_punct"]
IS_JAVA_REGEX_SPACE: np.ndarray = _T["is_java_regex_space"]
IS_JAVA_WHITESPACE: np.ndarray = _T["is_java_whitespace"]
IS_LOGOGRAM: np.ndarray = _T["is_logogram"]
CHARLANG_MASK: np.ndarray = _T["charlang"]      # (0x2000, 2) uint64
UNIQUE_CHAR_MASK: np.ndarray = _T["uniq"]       # (0x2000, 2) uint64


LOWER_1TO1: np.ndarray = _T["lower_1to1"]
LOWER_SPECIAL: np.ndarray = _T["lower_special"]


def encode_arrow(col) -> tuple[np.ndarray, np.ndarray]:
    """Arrow string column → (int32 codepoints, int64 offsets) WITHOUT
    per-row Python str objects: the whole UTF-8 data buffer goes through
    one C-level UTF-8 → UTF-32 transcode, with a zero-arithmetic fast
    path for all-ASCII buffers, and each row's codepoint offset is the
    number of UTF-8 start bytes before it.  Nulls count as empty
    strings.  Invalid UTF-8, including a sequence split across two rows,
    raises ``UnicodeDecodeError``.  Same contract as :func:`encode_batch`."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_null(col.type):
        # Ray Data emits null-TYPED blocks when every value is null;
        # fill_null has no kernel for them — cast first
        col = col.cast(pa.string())
    if col.null_count:
        col = pc.fill_null(col, "")
    n = len(col)
    if n == 0:
        return np.zeros(0, np.int32), np.zeros(1, np.int64)
    if pa.types.is_large_string(col.type):
        odtype = np.int64
    elif pa.types.is_string(col.type):
        odtype = np.int32
    else:
        col = pc.cast(col, pa.large_string())
        odtype = np.int64
    bufs = col.buffers()
    isz = np.dtype(odtype).itemsize
    off = np.frombuffer(bufs[1], dtype=odtype, count=n + 1,
                        offset=col.offset * isz).astype(np.int64)
    off0 = off - off[0]
    if bufs[2] is None or off0[-1] == 0:
        return np.zeros(0, np.int32), off0
    b = np.frombuffer(bufs[2], dtype=np.uint8,
                      count=int(off[-1] - off[0]), offset=int(off[0]))
    if int(b.max()) < 0x80:
        return b.astype(np.int32), off0

    is_start = (b & 0xC0) != 0x80
    row_start = off0[:-1][off0[:-1] < len(b)]
    if not is_start[row_start].all():
        bad = int(row_start[~is_start[row_start]][0])
        raise UnicodeDecodeError("utf-8", b[bad:bad + 1].tobytes(), 0, 1,
                                 f"row starts mid-sequence at byte {bad}")
    cps = np.frombuffer(b.tobytes().decode("utf-8").encode("utf-32-le"),
                        dtype=np.int32).copy()
    starts_before = np.zeros(len(b) + 1, np.int64)
    np.cumsum(is_start, out=starts_before[1:])
    return cps, starts_before[off0]


def encode_batch(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """List of strings → (concatenated int32 codepoint array, int64 offsets).

    ``offsets`` has ``len(texts) + 1`` entries; row *i* spans
    ``codepoints[offsets[i]:offsets[i+1]]``.  One C-level UTF-32 encode for the
    whole batch — no per-char Python.
    """
    joined = "".join(texts)
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(np.int32)
    lengths = np.fromiter((len(t) for t in texts), dtype=np.int64, count=len(texts))
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return cps, offsets
