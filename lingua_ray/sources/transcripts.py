"""Deterministic synthetic transcript tables (FIXTURES.md §F2).

Schema (BASELINE.json ``input_hint``)::

    conv_id: string, turn_idx: int32, role: string,
    text: large_string, tool: string, ts: timestamp[us]

Turn text is drawn from the reference's language-labeled accuracy corpus
(``models.CORPUS_DIR``).  Where that corpus holds no text, it comes from a
seeded pool of 2,400 distinct lines built from the per-language word lists
in :mod:`.wordlists` (:func:`pool_name` says which pool a host uses; cache
paths carry it).  Either way the table has injected PII,
empty/punctuation-only/emoji turns, >120-char concatenations (long-text
trigram path), and mixed-script lines.
Conversation sizes are zipf-distributed with one mega-conversation holding
>5% of all turns (skew-salting exercise).  Rows are shuffled on disk so
stable (conv_id, turn_idx) order restoration is actually tested.  Output is
sharded into ``part-*.parquet`` so resume logic has real partitions to skip.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..models import CORPUS_DIR
from .wordlists import WORDS

_POOL_LANGS = ("en", "de", "fr", "es", "it", "pt", "ru", "zh", "ja", "ar",
               "nl", "sv")
_PII_SNIPPETS = (
    "contact me at john.doe@example.com",
    "my number is 555-123-4567",
    "server at 192.168.10.25 is down",
    "ssn 123-45-6789 on file",
    "card 4111 1111 1111 1111 expires soon",
    "call +4915123456789 tomorrow",
)
_JUNK = ("", "   ", "\t\n", "!!! ??? ...", "§$%&/()=?", "1234567890 0987654321",
         "🙂🙂🙂 👍👍", ". . . . . . . . . . . .")
_MIXED = (
    "mixed латиница and кириллица in one line",
    "hello 世界 this is mixed",
    "bonjour مرحبا hello",
)
# Word-list pool: fixed seed, and per language (words per line, lines);
# 0 words means a 4-14-word sentence.  12 languages x 200 = 2,400 lines.
_WORD_POOL_SEED = 20_240_917
_WORD_POOL_SHAPE = ((1, 20), (2, 40), (0, 140))
_ROLES = ("user", "assistant", "tool", "system")
_TOOLS = ("", "", "", "search", "calculator", "browser")


def _corpus_pool() -> tuple[list[str], list[str]]:
    texts, langs = [], []
    for iso1 in _POOL_LANGS:
        for cat in ("single-words", "word-pairs", "sentences"):
            path = CORPUS_DIR / cat / f"{iso1}.txt"
            if not path.exists():
                continue
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    texts.append(line)
                    langs.append(iso1)
    return texts, langs


def _word_pool() -> tuple[list[str], list[str]]:
    """The corpus-free pool: per language, seeded single words, word pairs
    and 4-14-word sentences from :data:`.wordlists.WORDS`, in the corpus
    pool's (language, category) order.  No line repeats, also across
    languages: unrelated conversations must not come out identical."""
    rng = np.random.RandomState(_WORD_POOL_SEED)
    pool: dict[str, str] = {}  # line -> language, in insertion order
    for iso1 in _POOL_LANGS:
        words = np.array(WORDS[iso1], dtype=object)
        sep, stop = ("", "。") if iso1 in ("zh", "ja") else (" ", ".")
        for size, n_lines in _WORD_POOL_SHAPE:
            target = len(pool) + n_lines
            while len(pool) < target:
                line = sep.join(rng.choice(words, size=size or
                                           rng.randint(4, 15)))
                if not size:
                    line = line[0].upper() + line[1:] + stop
                pool.setdefault(line, iso1)
    return list(pool), list(pool.values())


def _load_pool() -> tuple[list[str], list[str]]:
    """(texts, languages) every turn's text is drawn from: the accuracy
    corpus's lines, or the word-list pool where the corpus has no text."""
    texts, langs = _corpus_pool()
    return (texts, langs) if texts else _word_pool()


def pool_name() -> str:
    """``"corpus"`` or ``"words"``: which pool :func:`generate_transcripts`
    draws from on this host.  Cache directories of generated tables carry
    it, so tables from one pool are never reused for the other."""
    return "corpus" if _corpus_pool()[0] else "words"


def generate_transcripts(n_turns: int, n_convs: int,
                         seed: int = 42) -> pa.Table:
    rng = np.random.RandomState(seed)
    pool_texts, pool_langs = _load_pool()
    pool_texts = np.array(pool_texts, dtype=object)

    # Conversation sizes: one mega-conversation (>5% of turns) + zipf tail.
    mega = max(2, int(0.06 * n_turns))
    rest = n_turns - mega
    weights = 1.0 / np.arange(1, n_convs, dtype=np.float64) ** 1.3
    weights /= weights.sum()
    sizes = rng.multinomial(rest, weights)
    sizes = np.concatenate([[mega], sizes])
    conv_of_turn = np.repeat(np.arange(len(sizes)), sizes)
    turn_idx = np.concatenate([np.arange(s, dtype=np.int32) for s in sizes])

    n = len(conv_of_turn)
    pick = rng.randint(0, len(pool_texts), size=n)
    texts = pool_texts[pick].copy()

    kind = rng.rand(n)
    # 4% PII-injected, 3% junk, 2% mixed script, 3% long concatenation
    pii_rows = np.flatnonzero(kind < 0.04)
    junk_rows = np.flatnonzero((kind >= 0.04) & (kind < 0.07))
    mixed_rows = np.flatnonzero((kind >= 0.07) & (kind < 0.09))
    long_rows = np.flatnonzero((kind >= 0.09) & (kind < 0.12))
    for i in pii_rows:
        texts[i] = f"{texts[i]} {_PII_SNIPPETS[rng.randint(len(_PII_SNIPPETS))]}"
    for i in junk_rows:
        texts[i] = _JUNK[rng.randint(len(_JUNK))]
    for i in mixed_rows:
        texts[i] = _MIXED[rng.randint(len(_MIXED))]
    for i in long_rows:
        parts = pool_texts[rng.randint(0, len(pool_texts), size=4)]
        texts[i] = " ".join(parts)

    roles = np.array(_ROLES, dtype=object)[
        np.where(rng.rand(n) < 0.9, turn_idx % 2, rng.randint(2, 4, size=n))]
    tools = np.array(_TOOLS, dtype=object)[rng.randint(0, len(_TOOLS), size=n)]
    tools = np.where(roles == "tool", tools, "")

    # Injected agent loops: ~1/1000 turns anchors a run of 2-5 consecutive
    # turns by the SAME named tool inside one conversation — the runaway
    # tool-retry pattern loop detection (transcript_loop_detect) must
    # find, present at every scale factor.  Turn layout is per-conversation
    # contiguous here (the shuffle comes later), so consecutive array
    # indices are consecutive turn_idx as long as the run stays within one
    # conversation (the boundary guard below).
    named = [t for t in _TOOLS if t]
    for a in rng.randint(0, max(1, n - 6), size=max(1, n // 1000)):
        run = 2 + int(rng.randint(0, 4))
        if a + run > n or conv_of_turn[a] != conv_of_turn[a + run - 1]:
            continue
        roles[a:a + run] = "tool"
        tools[a:a + run] = named[rng.randint(len(named))]

    # Per-turn timestamps: jittered 5-30 s inter-turn gaps plus ~1/200
    # idle gaps of 5-60 min — the break signal session segmentation
    # (transcript_sessionize) keys on; constant gaps would make every
    # conversation one session.  Increments accumulate per conversation
    # (turns are conv-contiguous here; the shuffle comes later), and
    # conversations start a day apart so inter-conv deltas never look
    # like in-conv gaps.
    inc = rng.randint(5_000_000, 30_000_000, size=n).astype(np.int64)
    idle = rng.rand(n) < 1.0 / 200
    inc = np.where(idle, inc + rng.randint(
        300_000_000, 3_600_000_000, size=n), inc)
    cs_excl = np.cumsum(inc) - inc
    first = np.concatenate([[True], conv_of_turn[1:] != conv_of_turn[:-1]])
    starts = np.flatnonzero(first)
    counts = np.diff(np.concatenate([starts, [n]]))
    rel = cs_excl - np.repeat(cs_excl[starts], counts)
    base = np.int64(1_700_000_000_000_000)  # µs epoch
    ts = base + conv_of_turn.astype(np.int64) * 86_400_000_000 + rel

    order = rng.permutation(n)
    table = pa.table({
        "conv_id": pa.array([f"conv{c:08d}" for c in conv_of_turn[order]],
                            type=pa.string()),
        "turn_idx": pa.array(turn_idx[order], type=pa.int32()),
        "role": pa.array(roles[order], type=pa.string()),
        "text": pa.array(texts[order].tolist(), type=pa.large_string()),
        "tool": pa.array(tools[order], type=pa.string()),
        "ts": pa.array(ts[order], type=pa.timestamp("us")),
    })
    return table


def ensure_transcripts(out_dir: str | Path, n_turns: int,
                       n_convs: int | None = None, seed: int = 42,
                       n_shards: int = 8) -> Path:
    """Write (once) a sharded transcript table; returns the directory."""
    out_dir = Path(out_dir)
    marker = out_dir / "_SUCCESS"
    if marker.exists():
        return out_dir
    if n_convs is None:
        n_convs = max(10, n_turns // 40)
    table = generate_transcripts(n_turns, n_convs, seed)
    tmp = out_dir.parent / f"{out_dir.name}.tmp.{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    n = table.num_rows
    bounds = np.linspace(0, n, n_shards + 1).astype(np.int64)
    for i in range(n_shards):
        shard = table.slice(bounds[i], bounds[i + 1] - bounds[i])
        pq.write_table(shard, tmp / f"part-{i:05d}.parquet")
    (tmp / "_SUCCESS").touch()
    try:
        os.replace(tmp, out_dir)
    except OSError:
        import shutil
        shutil.rmtree(tmp, ignore_errors=True)
    return out_dir
