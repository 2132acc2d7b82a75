"""Seeded, corpus-free inputs for the transcript-filter benchmark.

One call to :func:`ensure_inputs` builds, for a seed:

* a synthetic training corpus in the accuracy-corpus layout
  (``{single-words,word-pairs,sentences}/<iso1>.txt`` for all 79 languages).
  Every language gets its own alphabet drawn from its script, its own letter
  skew, its own letter-transition matrix and its own vocabulary;
* the n-gram model artifact, trained from that corpus with the program's
  public ``lingua_ray.models.build_model_artifact``;
* the three workloads as shuffled ``part-*.parquet`` shards with the columns
  ``conv_id``, ``turn_idx`` and ``text`` and nothing else.

Everything is a pure function of the seed: the same seed gives byte-identical
files.  The language popularity order is fixed and only the draws depend on
the seed, so workloads of different seeds cost about the same to process.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GENERATOR_VERSION = 3
CATEGORIES = ("single-words", "word-pairs", "sentences")
WORKLOADS = ("chat-mix", "long-answers", "keep-only-filter")

# Lowercase letter blocks per script.  Latin and Cyrillic start from the
# plain a-z / а-я alphabet; a language's own unique and accented letters are
# added on top, so no language borrows another one's rule-deciding letters.
_SCRIPT_BLOCKS = {
    "LATIN": (0x61, 0x7A), "CYRILLIC": (0x430, 0x44F),
    "ARABIC": (0x621, 0x6D3), "ARMENIAN": (0x561, 0x586),
    "BENGALI": (0x985, 0x9B9), "DEVANAGARI": (0x905, 0x939),
    "ETHIOPIC": (0x1200, 0x135A), "GEORGIAN": (0x10D0, 0x10FA),
    "GREEK": (0x3B1, 0x3C9), "GUJARATI": (0xA85, 0xAB9),
    "GURMUKHI": (0xA05, 0xA39), "HAN": (0x4E00, 0x9FFF),
    "HANGUL": (0xAC00, 0xD7A3), "HEBREW": (0x5D0, 0x5EA),
    "HIRAGANA": (0x3041, 0x3096), "KATAKANA": (0x30A1, 0x30FA),
    "SINHALA": (0xD85, 0xDC6), "TAMIL": (0xB85, 0xBB9),
    "TELUGU": (0xC05, 0xC39), "THAI": (0xE01, 0xE2E),
}
# Scripts with far more letters than a language's working alphabet: each
# language samples its own subset.
_SUBSET_SIZE = {"HAN": 1500, "HANGUL": 1200, "ETHIOPIC": 120, "ARABIC": 40}

# Chat-traffic popularity order (rank 0 is the most frequent language);
# the remaining languages follow in declaration order.
_POPULAR = ("en", "zh", "es", "ru", "de", "fr", "ja", "pt", "ar", "it",
            "ko", "hi", "tr", "pl", "nl", "vi", "id", "uk", "fa", "sv")
LANG_ZIPF_S = 1.1
WORD_ZIPF_S = 1.05

CORPUS_LINES = 1000         # lines per (language, category)
VOCAB_SIZE = 1000
BATCH_ROWS = 2048           # the pipeline's default batch size
N_SHARDS = 4
# Input turns per workload.
WORKLOAD_TURNS = {"chat-mix": 6 * BATCH_ROWS, "long-answers": 6 * BATCH_ROWS // 8,
                  "keep-only-filter": 6 * BATCH_ROWS}

_EMOJI = ("🙂", "👍", "🎉", "🔥", "😂", "🙏", "✨", "❤️")
_JUNK = ("", "   ", "\t\n", "!!! ??? ...", "§$%&/()=?", "... ... ...",
         "?!", "-- -- --", "***", "#$%^&*")


@dataclass(frozen=True)
class Language:
    iso1: str
    logographic: bool
    alphabet: np.ndarray        # int32 codepoints
    start: np.ndarray           # first-letter distribution
    trans: np.ndarray           # cumulative letter-transition rows
    vocab: tuple[str, ...]
    word_cdf: np.ndarray        # Zipf over vocab rank


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    c = np.cumsum(w)
    return c / c[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, size) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"),
                      len(cdf) - 1)


def _grid(rng: np.random.Generator, n: int) -> np.ndarray:
    """n stratified uniforms in [0, 1), in seeded order.  Turn-level choices
    use it so that a workload's mix (languages, kinds, lengths) is the same
    for every seed and only which turn gets what varies."""
    return (rng.permutation(n) + 0.5) / n


def _script_letters(script: str) -> list[int]:
    from lingua_ray import constants as C
    from lingua_ray.chartables import IS_LETTER, SCRIPT_ID

    lo, hi = _SCRIPT_BLOCKS[script]
    sid = C.SCRIPT_INDEX[script]
    return [cp for cp in range(lo, hi + 1)
            if IS_LETTER[cp] and SCRIPT_ID[cp] == sid
            and chr(cp).lower() == chr(cp)]


def _own_letters(li: int) -> list[int]:
    """The language's unique characters and the accented letters the rule
    tables associate with it (lowercase only)."""
    from lingua_ray import constants as C

    name = C.LANGUAGE_NAMES[li]
    chars = set(C.UNIQUE_CHARS[li] or "")
    for key, names in C.CHARS_TO_LANGUAGES.items():
        if name in names:
            chars.update(key)
    return sorted(ord(c) for c in chars if c.lower() == c and c.isalpha())


def _make_language(rng: np.random.Generator, li: int,
                   script_cache: dict) -> Language:
    from lingua_ray import constants as C

    letters: list[int] = []
    for script in C.LANG_SCRIPTS[li]:
        pool = script_cache.setdefault(script, _script_letters(script))
        k = _SUBSET_SIZE.get(script)
        if k is not None and k < len(pool):
            pool = sorted(rng.choice(pool, size=k, replace=False).tolist())
        letters.extend(pool)
    letters.extend(cp for cp in _own_letters(li) if cp not in letters)
    alphabet = np.array(letters, dtype=np.int32)
    a = len(alphabet)
    # Letter skew: Zipf weights over a language-specific letter ranking.
    skew = np.empty(a)
    skew[rng.permutation(a)] = 1.0 / np.arange(1, a + 1) ** 0.9
    # Sparse, language-specific transitions on top of the skew.
    trans = skew[None, :] * rng.gamma(0.3, size=(a, a))
    trans /= trans.sum(axis=1, keepdims=True)
    start = np.cumsum(skew / skew.sum())
    ctrans = np.cumsum(trans, axis=1)
    logographic = C.LANGUAGE_NAMES[li] in C.LANGUAGES_SUPPORTING_LOGOGRAMS
    lo, hi = (1, 3) if logographic else (2, 10)
    lengths = rng.integers(lo, hi + 1, size=VOCAB_SIZE)
    vocab = _spell(rng, alphabet, start, ctrans, lengths)
    return Language(C.ISO1_CODES[li], logographic, alphabet, start, ctrans,
                    tuple(vocab), _zipf_cdf(len(vocab), WORD_ZIPF_S))


def _spell(rng: np.random.Generator, alphabet: np.ndarray, start: np.ndarray,
           ctrans: np.ndarray, lengths: np.ndarray) -> list[str]:
    """Words of the given lengths from a letter chain (cumulative start and
    transition distributions over ``alphabet``)."""
    n, width = len(lengths), int(lengths.max())
    idx = np.empty((n, width), dtype=np.int64)
    idx[:, 0] = _draw(rng, start, n)
    for j in range(1, width):
        u = rng.random(n)[:, None]
        idx[:, j] = np.minimum((ctrans[idx[:, j - 1]] < u).sum(axis=1),
                               len(alphabet) - 1)
    cps = alphabet[idx]
    return ["".join(map(chr, row[:k])) for row, k in zip(cps, lengths)]


def make_languages(seed: int) -> list[Language]:
    from lingua_ray import constants as C

    rng = np.random.default_rng([seed, 1])
    cache: dict = {}
    return [_make_language(rng, li, cache) for li in range(C.NUM_LANGUAGES)]


def _words(rng, lang: Language, n: int) -> list[str]:
    return [lang.vocab[i] for i in _draw(rng, lang.word_cdf, n)]


def _join(lang: Language, words: list[str]) -> str:
    return ("" if lang.logographic else " ").join(words)


def _sentence(rng, lang: Language, lo: int = 5, hi: int = 15) -> str:
    return _join(lang, _words(rng, lang, int(rng.integers(lo, hi + 1))))


def write_corpus(langs: list[Language], corpus_dir: Path, seed: int) -> None:
    rng = np.random.default_rng([seed, 2])
    for cat in CATEGORIES:
        (corpus_dir / cat).mkdir(parents=True, exist_ok=True)
    for lang in langs:
        words = _words(rng, lang, CORPUS_LINES)
        pairs = [_join(lang, _words(rng, lang, 2)) for _ in range(CORPUS_LINES)]
        sents = [_sentence(rng, lang) for _ in range(CORPUS_LINES)]
        for cat, lines in zip(CATEGORIES, (words, pairs, sents)):
            (corpus_dir / cat / f"{lang.iso1}.txt").write_text(
                "\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------------ turns

def _lang_order(langs: list[Language]) -> list[int]:
    iso = [lang.iso1 for lang in langs]
    head = [iso.index(c) for c in _POPULAR]
    return head + [i for i in range(len(langs)) if i not in head]


def _pii(rng) -> str:
    def d(k: int) -> str:
        return "".join(map(str, rng.integers(0, 10, size=k)))

    kind = int(rng.integers(0, 6))
    return (f"mail me at user{d(4)}@example{d(2)}.com",
            f"my number is 555-{d(3)}-{d(4)}",
            f"server at 10.{rng.integers(0, 256)}.{rng.integers(0, 256)}."
            f"{rng.integers(1, 255)} is down",
            f"ssn {d(3)}-{d(2)}-{d(4)} on file",
            f"card 4111 {d(4)} {d(4)} {d(4)} expires soon",
            f"call +49{d(10)} tomorrow")[kind]


def _junk(rng) -> str:
    if rng.random() < 0.4:
        k = int(rng.integers(1, 6))
        return " ".join(_EMOJI[i] for i in rng.integers(0, len(_EMOJI), k))
    return _JUNK[int(rng.integers(0, len(_JUNK)))]


def _long_text(rng, lang: Language, target: int) -> str:
    parts, size = [], 0
    while size <= target:
        s = _sentence(rng, lang)
        parts.append(s)
        size += len(s) + 1
    return " ".join(parts)


def _turn_langs(rng, langs: list[Language], n: int) -> list[Language]:
    order = _lang_order(langs)
    cdf = _zipf_cdf(len(order), LANG_ZIPF_S)
    ranks = np.minimum(np.searchsorted(cdf, _grid(rng, n), side="right"),
                       len(order) - 1)
    return [langs[order[r]] for r in ranks]


def chat_texts(rng, langs: list[Language], n: int) -> list[str]:
    """Short chat turns with the FIXTURES §F2 properties mixed in."""
    from lingua_ray import constants as C

    tl = _turn_langs(rng, langs, n)
    kind, size = _grid(rng, n), _grid(rng, n)
    out = []
    for lang, k, u in zip(tl, kind, size):
        if k < 0.03:                                   # >120-char turn
            out.append(_long_text(rng, lang, int(130 + 270 * u)))
        elif k < 0.07:                                 # PII
            out.append(f"{_sentence(rng, lang, 2, 12)} {_pii(rng)}")
        elif k < 0.10:                                 # junk / emoji
            out.append(_junk(rng))
        elif k < 0.12:                                 # mixed script
            other = langs[int(rng.integers(0, len(langs)))]
            while C.LANG_SCRIPTS[C.ISO1_INDEX[other.iso1]] == \
                    C.LANG_SCRIPTS[C.ISO1_INDEX[lang.iso1]]:
                other = langs[int(rng.integers(0, len(langs)))]
            out.append(f"{_sentence(rng, lang, 2, 6)} "
                       f"{_sentence(rng, other, 2, 6)}")
        else:
            out.append(_join(lang, _words(rng, lang, 1 + int(25 * u))))
    return out


def long_texts(rng, langs: list[Language], n: int) -> list[str]:
    """Assistant-style answers of 300-3000 characters."""
    tl = _turn_langs(rng, langs, n)
    out = []
    for lang, u, k in zip(tl, _grid(rng, n), _grid(rng, n)):
        text = _long_text(rng, lang, int(300 + 2500 * u))[:3000]
        if k < 0.04:
            text = f"{text} {_pii(rng)}"
        out.append(text)
    return out


def filter_texts(rng, langs: list[Language], n: int) -> list[str]:
    """The chat mix with about half the turns failing a cheap check."""
    from lingua_ray.stages.scrub import TOX_WORDS

    base = chat_texts(rng, langs, n)
    tl = _turn_langs(rng, langs, n)
    out = []
    for text, lang, k in zip(base, tl, _grid(rng, n)):
        if k < 0.15:                                   # 1-2 words
            out.append(_join(lang, _words(rng, lang, int(rng.integers(1, 3)))))
        elif k < 0.25:                                 # junk
            out.append(_junk(rng))
        elif k < 0.37:                                 # digit-heavy
            nums = [str(int(x)) for x in rng.integers(10**5, 10**9, size=4)]
            out.append(f"{_sentence(rng, lang, 1, 2)} {' '.join(nums)}")
        elif k < 0.50:                                 # toxic term
            words = text.split(" ") if text.strip() else []
            pos = int(rng.integers(0, len(words) + 1))
            tox = TOX_WORDS[int(rng.integers(0, len(TOX_WORDS)))]
            out.append(" ".join(words[:pos] + [tox] + words[pos:]))
        else:
            out.append(text)
    return out


_TEXTS = {"chat-mix": chat_texts, "long-answers": long_texts,
          "keep-only-filter": filter_texts}


def conversation_layout(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(conv_of_turn, turn_idx): one mega-conversation holding 6% of the
    turns, then Zipf-sized conversations."""
    mega = int(0.06 * n)
    n_convs = max(2, n // 12)
    w = 1.0 / np.arange(1, n_convs, dtype=np.float64) ** 1.2
    sizes = np.concatenate([[mega], rng.multinomial(n - mega, w / w.sum())])
    sizes = sizes[sizes > 0]
    conv = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    turn_idx = (np.arange(n) - starts).astype(np.int32)
    return conv, turn_idx


def make_turns(seed: int, workload: str, langs: list[Language],
               n: int) -> pa.Table:
    """A workload's turns, shuffled row order."""
    rng = np.random.default_rng([seed, 3, WORKLOADS.index(workload)])
    conv, turn_idx = conversation_layout(rng, n)
    texts = _TEXTS[workload](rng, langs, n)
    order = rng.permutation(n)
    return pa.table({
        "conv_id": pa.array([f"c{c:07d}" for c in conv[order]], pa.string()),
        "turn_idx": pa.array(turn_idx[order], pa.int32()),
        "text": pa.array([texts[i] for i in order], pa.large_string()),
    })


def write_shards(table: pa.Table, out_dir: Path,
                 n_shards: int = N_SHARDS) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_shards + 1).astype(np.int64)
    for i in range(n_shards):
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]),
                       out_dir / f"part-{i:05d}.parquet")


# -------------------------------------------------------------- artifact

def artifact_identity(model_dir: Path) -> dict:
    """Hash over every array file of the artifact, plus its total keys."""
    import lingua_ray.constants as C
    from lingua_ray.models import MAX_N

    h = hashlib.sha256()
    total = 0
    per_table = {}
    for iso1 in C.ISO1_CODES:
        for n in range(1, MAX_N + 1):
            for kind in ("keys", "vals"):
                p = model_dir / f"{iso1}_{n}_{kind}.npy"
                h.update(p.read_bytes())
            keys = np.load(model_dir / f"{iso1}_{n}_keys.npy", mmap_mode="r")
            per_table[f"{iso1}_{n}"] = int(len(keys))
            total += len(keys)
    return {"sha256": h.hexdigest()[:16], "total_keys": total,
            "min_table_keys": min(per_table.values()),
            "empty_tables": sorted(k for k, v in per_table.items() if v == 0)}


def write_model(seed: int, out_dir: Path, langs: list[Language]) -> None:
    """Corpus, artifact and ``meta.json`` (with the artifact's identity)."""
    from lingua_ray.models import build_model_artifact

    write_corpus(langs, out_dir / "corpus", seed)
    build_model_artifact(out_dir / "model", out_dir / "corpus")
    meta = {"generator_version": GENERATOR_VERSION, "seed": seed,
            "model": artifact_identity(out_dir / "model")}
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2))


def write_workload(seed: int, workload: str, shard_dir: Path,
                   langs: list[Language]) -> None:
    write_shards(make_turns(seed, workload, langs, WORKLOAD_TURNS[workload]),
                 shard_dir)


def generate(seed: int, out_dir: Path) -> None:
    """Write corpus, artifact and every workload for ``seed``."""
    langs = make_languages(seed)
    write_model(seed, out_dir, langs)
    for w in WORKLOADS:
        write_workload(seed, w, out_dir / w, langs)


def _publish(tmp: Path, dst: Path) -> None:
    try:
        os.replace(tmp, dst)
    except OSError:             # another process finished first; keep theirs
        shutil.rmtree(tmp, ignore_errors=True)


def ensure_inputs(cache_root: Path, seed: int, workload: str) -> Path:
    """Return the seed's input directory, generating (once per seed) the
    corpus and artifact and (once per seed and workload) the turns."""
    out = cache_root / f"v{GENERATOR_VERSION}-seed-{seed}"
    tag = f".tmp{os.getpid()}"
    langs = None
    if not (out / "meta.json").exists():
        langs = make_languages(seed)
        tmp = cache_root / (out.name + tag)
        shutil.rmtree(tmp, ignore_errors=True)
        write_model(seed, tmp, langs)
        _publish(tmp, out)
    if not (out / workload).exists():
        tmp = out / (workload + tag)
        shutil.rmtree(tmp, ignore_errors=True)
        write_workload(seed, workload, tmp, langs or make_languages(seed))
        _publish(tmp, out / workload)
    return out
