"""Language metadata constants.

Pure-data reproduction of the reference's language inventory and rule tables:

* 79 languages + UNKNOWN, declaration order preserved (tie-breaks depend on it)
  — see reference ``api/Language.kt:196-289``.
* Per-language Unicode scripts and ``uniqueCharacters``
  — ``api/Language.kt:196-288``.
* ``CHARS_TO_LANGUAGES_MAPPING`` accent-char → candidate languages
  — ``internal/Constant.kt:77-140``.
* ``LANGUAGES_SUPPORTING_LOGOGRAMS`` = {CHINESE, JAPANESE, KOREAN}
  — ``internal/Constant.kt:159``.

Everything here is a frozen Python literal; NumPy lookup tables derived from
these constants live in :mod:`lingua_ray.chartables`.
"""

from __future__ import annotations

import numpy as np

# Script names use Java Character.UnicodeScript naming (upper snake).
# (name, iso639_1, iso639_3, scripts, unique_characters)
_LANGUAGE_DEFS: list[tuple[str, str, str, tuple[str, ...], str | None]] = [
    ("AFRIKAANS", "af", "afr", ("LATIN",), None),
    ("ALBANIAN", "sq", "sqi", ("LATIN",), None),
    ("AMHARIC", "am", "amh", ("ETHIOPIC",), None),
    ("ARABIC", "ar", "ara", ("ARABIC",), None),
    ("ARMENIAN", "hy", "hye", ("ARMENIAN",), None),
    ("AZERBAIJANI", "az", "aze", ("LATIN",), "Əə"),
    ("BASQUE", "eu", "eus", ("LATIN",), None),
    ("BELARUSIAN", "be", "bel", ("CYRILLIC",), None),
    ("BENGALI", "bn", "ben", ("BENGALI",), None),
    ("BOKMAL", "nb", "nob", ("LATIN",), None),
    ("BOSNIAN", "bs", "bos", ("LATIN",), None),
    ("BULGARIAN", "bg", "bul", ("CYRILLIC",), None),
    ("CATALAN", "ca", "cat", ("LATIN",), "Ïï"),
    ("CHINESE", "zh", "zho", ("HAN",), None),
    ("CROATIAN", "hr", "hrv", ("LATIN",), None),
    ("CZECH", "cs", "ces", ("LATIN",), "ĚěŘřŮů"),
    ("DANISH", "da", "dan", ("LATIN",), None),
    ("DUTCH", "nl", "nld", ("LATIN",), None),
    ("ENGLISH", "en", "eng", ("LATIN",), None),
    ("ESPERANTO", "eo", "epo", ("LATIN",), "ĈĉĜĝĤĥĴĵŜŝŬŭ"),
    ("ESTONIAN", "et", "est", ("LATIN",), None),
    ("FINNISH", "fi", "fin", ("LATIN",), None),
    ("FRENCH", "fr", "fra", ("LATIN",), None),
    ("GANDA", "lg", "lug", ("LATIN",), None),
    ("GEORGIAN", "ka", "kat", ("GEORGIAN",), None),
    ("GERMAN", "de", "deu", ("LATIN",), "ß"),
    ("GREEK", "el", "ell", ("GREEK",), None),
    ("GUJARATI", "gu", "guj", ("GUJARATI",), None),
    ("HEBREW", "he", "heb", ("HEBREW",), None),
    ("HINDI", "hi", "hin", ("DEVANAGARI",), None),
    ("HUNGARIAN", "hu", "hun", ("LATIN",), "ŐőŰű"),
    ("ICELANDIC", "is", "isl", ("LATIN",), None),
    ("INDONESIAN", "id", "ind", ("LATIN",), None),
    ("IRISH", "ga", "gle", ("LATIN",), None),
    ("ITALIAN", "it", "ita", ("LATIN",), None),
    ("JAPANESE", "ja", "jpn", ("HIRAGANA", "KATAKANA", "HAN"), None),
    ("KAZAKH", "kk", "kaz", ("CYRILLIC",), "ӘәҒғҚқҢңҰұ"),
    ("KOREAN", "ko", "kor", ("HANGUL",), None),
    ("LATIN", "la", "lat", ("LATIN",), None),
    ("LATVIAN", "lv", "lav", ("LATIN",), "ĢģĶķĻļŅņ"),
    ("LITHUANIAN", "lt", "lit", ("LATIN",), "ĖėĮįŲų"),
    ("MACEDONIAN", "mk", "mkd", ("CYRILLIC",), "ЃѓЅѕЌќЏџ"),
    ("MALAY", "ms", "msa", ("LATIN",), None),
    ("MAORI", "mi", "mri", ("LATIN",), None),
    ("MARATHI", "mr", "mar", ("DEVANAGARI",), "ळ"),
    ("MONGOLIAN", "mn", "mon", ("CYRILLIC",), "ӨөҮү"),
    ("NYNORSK", "nn", "nno", ("LATIN",), None),
    ("OROMO", "om", "orm", ("LATIN",), None),
    ("PERSIAN", "fa", "fas", ("ARABIC",), None),
    ("POLISH", "pl", "pol", ("LATIN",), "ŁłŃńŚśŹź"),
    ("PORTUGUESE", "pt", "por", ("LATIN",), None),
    ("PUNJABI", "pa", "pan", ("GURMUKHI",), None),
    ("ROMANIAN", "ro", "ron", ("LATIN",), "Țţ"),
    ("RUSSIAN", "ru", "rus", ("CYRILLIC",), None),
    ("SERBIAN", "sr", "srp", ("CYRILLIC",), "ЂђЋћ"),
    ("SHONA", "sn", "sna", ("LATIN",), None),
    ("SINHALA", "si", "sin", ("SINHALA",), None),
    ("SLOVAK", "sk", "slk", ("LATIN",), "ĹĺĽľŔŕ"),
    ("SLOVENE", "sl", "slv", ("LATIN",), None),
    ("SOMALI", "so", "som", ("LATIN",), None),
    ("SOTHO", "st", "sot", ("LATIN",), None),
    ("SPANISH", "es", "spa", ("LATIN",), "¿¡"),
    ("SWAHILI", "sw", "swa", ("LATIN",), None),
    ("SWEDISH", "sv", "swe", ("LATIN",), None),
    ("TAGALOG", "tl", "tgl", ("LATIN",), None),
    ("TAMIL", "ta", "tam", ("TAMIL",), None),
    ("TELUGU", "te", "tel", ("TELUGU",), None),
    ("THAI", "th", "tha", ("THAI",), None),
    ("TIGRINYA", "ti", "tir", ("ETHIOPIC",), None),
    ("TSONGA", "ts", "tso", ("LATIN",), None),
    ("TSWANA", "tn", "tsn", ("LATIN",), None),
    ("TURKISH", "tr", "tur", ("LATIN",), None),
    ("UKRAINIAN", "uk", "ukr", ("CYRILLIC",), "ҐґЄєЇї"),
    ("URDU", "ur", "urd", ("ARABIC",), None),
    (
        "VIETNAMESE",
        "vi",
        "vie",
        ("LATIN",),
        "ẰằẦầẲẳẨẩẴẵẪẫẮắẤấẠạẶặẬậỀềẺẻỂểẼẽỄễẾếỆệỈỉĨĩỊịƠơỒồỜờỎỏỔổỞởỖỗỠỡỐốỚớỘộỢợ"
        "ƯưỪừỦủỬửŨũỮữỨứỤụỰựỲỳỶỷỸỹỴỵ",
    ),
    ("WELSH", "cy", "cym", ("LATIN",), None),
    ("XHOSA", "xh", "xho", ("LATIN",), None),
    ("YORUBA", "yo", "yor", ("LATIN",), "Ṣṣ"),
    ("ZULU", "zu", "zul", ("LATIN",), None),
]

LANGUAGE_NAMES: tuple[str, ...] = tuple(d[0] for d in _LANGUAGE_DEFS)
NUM_LANGUAGES: int = len(LANGUAGE_NAMES)  # 79
UNKNOWN: int = NUM_LANGUAGES  # sentinel index for the imaginary UNKNOWN language
UNKNOWN_CODE = "un"

ISO1_CODES: tuple[str, ...] = tuple(d[1] for d in _LANGUAGE_DEFS)
ISO3_CODES: tuple[str, ...] = tuple(d[2] for d in _LANGUAGE_DEFS)

LANG_INDEX: dict[str, int] = {name: i for i, name in enumerate(LANGUAGE_NAMES)}
ISO1_INDEX: dict[str, int] = {c: i for i, c in enumerate(ISO1_CODES)}

LANG_SCRIPTS: tuple[tuple[str, ...], ...] = tuple(d[3] for d in _LANGUAGE_DEFS)
UNIQUE_CHARS: tuple[str | None, ...] = tuple(d[4] for d in _LANGUAGE_DEFS)

# All scripts used by any language, in first-appearance order (order is
# irrelevant to semantics; a char belongs to exactly one script).
ALL_SCRIPTS: tuple[str, ...] = tuple(
    dict.fromkeys(s for scripts in LANG_SCRIPTS for s in scripts)
)
SCRIPT_INDEX: dict[str, int] = {s: i for i, s in enumerate(ALL_SCRIPTS)}
NUM_SCRIPTS: int = len(ALL_SCRIPTS)
# Script id used for "not one of ALL_SCRIPTS" (Common, digits, punctuation, …).
SCRIPT_NONE: int = NUM_SCRIPTS

# Scripts claimed by exactly one language — reference api/Language.kt:316-335.
SCRIPTS_SUPPORTING_EXACTLY_ONE_LANGUAGE: dict[str, int] = {}
for _script in ALL_SCRIPTS:
    _claimants = [i for i, ss in enumerate(LANG_SCRIPTS) if _script in ss]
    if len(_claimants) == 1:
        SCRIPTS_SUPPORTING_EXACTLY_ONE_LANGUAGE[_script] = _claimants[0]

# internal/Constant.kt:77-140 — accent chars → candidate languages.
CHARS_TO_LANGUAGES: dict[str, tuple[str, ...]] = {
    "Ãã": ("PORTUGUESE", "VIETNAMESE"),
    "ĄąĘę": ("LITHUANIAN", "POLISH"),
    "Żż": ("POLISH", "ROMANIAN"),
    "Îî": ("FRENCH", "ROMANIAN"),
    "Ññ": ("BASQUE", "SPANISH"),
    "ŇňŤť": ("CZECH", "SLOVAK"),
    "Ăă": ("ROMANIAN", "VIETNAMESE"),
    "İıĞğ": ("AZERBAIJANI", "TURKISH"),
    "ЈјЉљЊњ": ("MACEDONIAN", "SERBIAN"),
    "ẸẹỌọ": ("VIETNAMESE", "YORUBA"),
    "ÐðÞþ": ("ICELANDIC", "TURKISH"),
    "Ûû": ("FRENCH", "HUNGARIAN"),
    "Ōō": ("MAORI", "YORUBA"),
    "ĀāĒēĪī": ("LATVIAN", "MAORI", "YORUBA"),
    "Şş": ("AZERBAIJANI", "ROMANIAN", "TURKISH"),
    "Ďď": ("CZECH", "ROMANIAN", "SLOVAK"),
    "Ćć": ("BOSNIAN", "CROATIAN", "POLISH"),
    "Đđ": ("BOSNIAN", "CROATIAN", "VIETNAMESE"),
    "Іі": ("BELARUSIAN", "KAZAKH", "UKRAINIAN"),
    "Ìì": ("ITALIAN", "VIETNAMESE", "YORUBA"),
    "Øø": ("BOKMAL", "DANISH", "NYNORSK"),
    "Ūū": ("LATVIAN", "LITHUANIAN", "MAORI", "YORUBA"),
    "Ëë": ("AFRIKAANS", "ALBANIAN", "DUTCH", "FRENCH"),
    "ÈèÙù": ("FRENCH", "ITALIAN", "VIETNAMESE", "YORUBA"),
    "Êê": ("AFRIKAANS", "FRENCH", "PORTUGUESE", "VIETNAMESE"),
    "Õõ": ("ESTONIAN", "HUNGARIAN", "PORTUGUESE", "VIETNAMESE"),
    "Ôô": ("FRENCH", "PORTUGUESE", "SLOVAK", "VIETNAMESE"),
    "ЁёЫыЭэ": ("BELARUSIAN", "KAZAKH", "MONGOLIAN", "RUSSIAN"),
    "Щщ": ("BULGARIAN", "KAZAKH", "MONGOLIAN", "RUSSIAN", "UKRAINIAN"),
    "Ъъ": ("BULGARIAN", "KAZAKH", "MONGOLIAN", "RUSSIAN"),
    "Òò": ("CATALAN", "ITALIAN", "VIETNAMESE", "YORUBA"),
    "Ææ": ("BOKMAL", "DANISH", "ICELANDIC", "NYNORSK"),
    "Åå": ("BOKMAL", "DANISH", "NYNORSK", "SWEDISH"),
    "Ýý": ("CZECH", "ICELANDIC", "SLOVAK", "TURKISH", "VIETNAMESE"),
    "Ää": ("ESTONIAN", "FINNISH", "GERMAN", "SLOVAK", "SWEDISH"),
    "Àà": ("CATALAN", "FRENCH", "ITALIAN", "PORTUGUESE", "VIETNAMESE"),
    "Ââ": ("FRENCH", "PORTUGUESE", "ROMANIAN", "TURKISH", "VIETNAMESE"),
    "Üü": (
        "AZERBAIJANI", "CATALAN", "ESTONIAN", "GERMAN", "HUNGARIAN",
        "SPANISH", "TURKISH",
    ),
    "ČčŠšŽž": (
        "BOSNIAN", "CZECH", "CROATIAN", "LATVIAN", "LITHUANIAN",
        "SLOVAK", "SLOVENE",
    ),
    "Çç": (
        "ALBANIAN", "AZERBAIJANI", "BASQUE", "CATALAN", "FRENCH",
        "PORTUGUESE", "TURKISH",
    ),
    "Öö": (
        "AZERBAIJANI", "ESTONIAN", "FINNISH", "GERMAN", "HUNGARIAN",
        "ICELANDIC", "SWEDISH", "TURKISH",
    ),
    "Óó": (
        "CATALAN", "HUNGARIAN", "ICELANDIC", "IRISH", "POLISH",
        "PORTUGUESE", "SLOVAK", "SPANISH", "VIETNAMESE", "YORUBA",
    ),
    "ÁáÍíÚú": (
        "CATALAN", "CZECH", "ICELANDIC", "IRISH", "HUNGARIAN",
        "PORTUGUESE", "SLOVAK", "SPANISH", "VIETNAMESE", "YORUBA",
    ),
    "Éé": (
        "CATALAN", "CZECH", "FRENCH", "HUNGARIAN", "ICELANDIC", "IRISH",
        "ITALIAN", "PORTUGUESE", "SLOVAK", "SPANISH", "VIETNAMESE", "YORUBA",
    ),
}

LANGUAGES_SUPPORTING_LOGOGRAMS: tuple[str, ...] = ("CHINESE", "JAPANESE", "KOREAN")
# Scripts of the logogram languages — util/extension/CharExtensions.kt:25-30.
SCRIPTS_WITH_LOGOGRAMS: tuple[str, ...] = ("HAN", "HIRAGANA", "KATAKANA", "HANGUL")
JAPANESE_SCRIPTS: tuple[str, ...] = ("HIRAGANA", "KATAKANA", "HAN")

# Word weights — api/LanguageDetector.kt:57-66.
FULL_WORD_VALUE = 1.0
LOGOGRAM_WORD_VALUE = 0.7

# Long-text cutover — api/LanguageDetector.kt:755.
HIGH_ACCURACY_MODE_MAX_TEXT_LENGTH = 120

# ---------------------------------------------------------------------------
# Derived NumPy bitmask helpers.  Language sets are represented as uint64[2]
# bitmask pairs (79 languages < 128 bits).

ALL_LANGS_MASK = np.zeros(2, dtype=np.uint64)
for _i in range(NUM_LANGUAGES):
    ALL_LANGS_MASK[_i >> 6] |= np.uint64(1 << (_i & 63))


def langs_to_mask(indices) -> np.ndarray:
    """Language index iterable → uint64[2] bitmask."""
    mask = np.zeros(2, dtype=np.uint64)
    for i in indices:
        mask[i >> 6] |= np.uint64(1 << (i & 63))
    return mask


# Languages that possess unique characters, declaration order
# (api/LanguageDetector.kt:81-83).
LANGUAGES_WITH_UNIQUE_CHARS: tuple[int, ...] = tuple(
    i for i in range(NUM_LANGUAGES) if UNIQUE_CHARS[i]
)
