"""N-gram frequency models: deterministic training, artifact, vectorized lookup.

Reference semantics (``buildSrc/.../GenerateLanguageModelsTask.kt:176-187``
consuming upstream lingua's ``"num/denom"`` JSON fractions, produced by
upstream's TrainingDataLanguageModel): *conditional* relative frequencies —
freq(g) = count(g) / count(prefix(g)) for n ≥ 2, count(g)/total for unigrams
— converted to float32.  The reference ships these as JVM
byte/short/int/long sorted-array maps built from an upstream corpus clone; we
train deterministically from the reference's own accuracy-report corpus
(``src/accuracyReport/resources/language-testdata/``) since the upstream
models are generated at build time and not present in the repo.

Storage: per (language, n) a pair of flat arrays — sorted ``uint64`` keys and
``float32`` frequencies — written as raw ``.npy`` files so workers can
``np.load(mmap_mode="r")`` them: one page-cache copy per node, zero-copy
across worker processes (the Ray-native replacement for the reference's
JVM-wide shared model registry, ``api/LanguageDetector.kt:754-776``).

Keys are 64-bit polynomial rolling hashes of the codepoint sequence
(``h = h*M + cp``, M = FNV-1a prime).  Unigram keys are raw codepoints.  The
prefix property gives the reference's backoff chain (5→4→3→2→1, first
``n-1`` chars — ``internal/Ngram.kt:47-55,140-159``) for free: the hash of a
window's prefix of length k is the k-step partial product, all computable as
vectorized prefix passes.

Scoring probes every language at once: per n, :attr:`NgramModels.index`
merges the 79 tables into one sorted array of distinct keys with CSR rows of
(language, frequency), built from the same arrays on first use.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from . import constants as C
from .chartables import IS_LETTER
from .textprep import CharBatch, clean_batch

HASH_MULT = np.uint64(1099511628211)  # FNV-1a 64 prime, odd
MAX_N = 5
MODEL_VERSION = 2

_DATA_DIR = Path(__file__).resolve().parent / "data"
DEFAULT_MODEL_DIR = _DATA_DIR / "models" / f"v{MODEL_VERSION}"

# Staleness threshold for reclaiming an orphaned build lock.  Fixed and
# far above any real build duration (~45 s single-core) so a waiter can
# never mistake a LIVE builder's lock for an orphan; deliberately NOT
# tied to ensure_models' caller timeout, which shrinks on recursion.
_STALE_LOCK_S = 1800.0
CORPUS_DIR = Path("/root/reference/src/accuracyReport/resources/language-testdata")
CORPUS_CATEGORIES = ("single-words", "word-pairs", "sentences")


def rolling_hashes(cps: np.ndarray, max_n: int = MAX_N) -> list[np.ndarray]:
    """Return [H1, H2, ..., Hmax_n]; Hk[i] = hash of cps[i:i+k] (uint64).

    Hk has ``len(cps) - k + 1`` entries (empty array when cps is shorter).
    """
    u = cps.astype(np.uint64)
    out = [u]
    h = u
    for k in range(2, max_n + 1):
        if len(u) < k:
            out.append(np.zeros(0, dtype=np.uint64))
            h = out[-1]
            continue
        h = h[: len(u) - k + 1] * HASH_MULT + u[k - 1:]
        out.append(h)
    return out


def hash_ngram_str(ngram: str) -> np.uint64:
    h = 0
    first = True
    for ch in ngram:
        c = ord(ch)
        h = c if first else (h * int(HASH_MULT) + c) & 0xFFFFFFFFFFFFFFFF
        first = False
    return np.uint64(h)


def valid_window_starts(batch: CharBatch, max_n: int = MAX_N,
                        min_n: int = 1) -> list[np.ndarray | None]:
    """Return [S1, ..., Smax_n]; Sn = starts of the all-letter n-windows that
    lie within one row (sorted int64).  Orders below ``min_n`` are not
    computed (None)."""
    cps = batch.cps
    cum = np.zeros(len(cps) + 1, dtype=np.int64)
    np.cumsum(IS_LETTER[cps], out=cum[1:])
    row_id = batch.row_ids()
    out = [None] * (min_n - 1)
    for n in range(min_n, max_n + 1):
        n_windows = len(cps) - n + 1
        if n_windows <= 0:
            out.append(np.zeros(0, dtype=np.int64))
            continue
        all_letters = (cum[n:] - cum[:-n]) == n
        # Window must not cross a row boundary: start and end in the same row.
        same_row = row_id[:n_windows] == row_id[n - 1:]
        out.append(np.flatnonzero(all_letters & same_row))
    return out


def train_language(texts: list[str]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Train (keys, freqs) per n from a list of raw corpus texts.

    Frequency semantics follow upstream lingua's TrainingDataLanguageModel:
    *conditional* relative frequencies — for n ≥ 2,
    freq(g) = count_n(g) / count_{n-1}(prefix(g)); for n = 1,
    freq(g) = count_1(g) / total unigrams.  (The reference consumes these as
    the "num/denom" fractions of the upstream JSON models —
    GenerateLanguageModelsTask.kt:176-187.)
    """
    batch = clean_batch(texts)
    hashes = rolling_hashes(batch.cps)
    counts_per_n: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for n, starts in enumerate(valid_window_starts(batch), 1):
        h = hashes[n - 1][starts] if len(starts) else np.zeros(0, np.uint64)
        if len(h) == 0:
            counts_per_n[n] = (np.zeros(0, np.uint64), np.zeros(0, np.int64),
                               np.zeros(0, np.int64))
            continue
        keys, first_idx, counts = np.unique(h, return_index=True,
                                            return_counts=True)
        counts_per_n[n] = (keys, counts.astype(np.int64), starts[first_idx])

    result: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for n in range(1, MAX_N + 1):
        keys, counts, first_start = counts_per_n[n]
        if len(keys) == 0:
            result[n] = (keys, np.zeros(0, dtype=np.float32))
            continue
        if n == 1:
            denom = np.float64(counts.sum())
            freqs = (counts / denom).astype(np.float32)
        else:
            pk, pc, _ = counts_per_n[n - 1]
            prefix_hash = hashes[n - 2][first_start]
            idx = np.searchsorted(pk, prefix_hash)
            # every valid n-window start is a valid (n-1)-window start
            assert (pk[idx] == prefix_hash).all()
            freqs = (counts / pc[idx]).astype(np.float32)
        result[n] = (keys, freqs)
    return result


def read_corpus_language(iso1: str, corpus_dir: Path = CORPUS_DIR) -> list[str]:
    texts: list[str] = []
    for category in CORPUS_CATEGORIES:
        path = corpus_dir / category / f"{iso1}.txt"
        if path.exists():
            with open(path, encoding="utf-8") as f:
                texts.extend(line.rstrip("\n") for line in f if line.strip())
    return texts


def corpus_has_text(corpus_dir: Path | None = None) -> bool:
    """Whether any language has training text in the corpus (default
    :data:`CORPUS_DIR`, read at call time)."""
    corpus_dir = CORPUS_DIR if corpus_dir is None else corpus_dir
    return any(read_corpus_language(iso1, corpus_dir)
               for iso1 in C.ISO1_CODES)


def _has_keys(model_dir: Path) -> bool:
    """Whether any n-gram table of the artifact holds a key, read from the
    ``.npy`` headers alone (no array is loaded or mapped)."""
    for path in model_dir.glob("*_keys.npy"):
        with open(path, "rb") as f:
            major, _ = np.lib.format.read_magic(f)
            read = (np.lib.format.read_array_header_1_0 if major == 1
                    else np.lib.format.read_array_header_2_0)
            if read(f)[0][0]:
                return True
    return False


def _needs_build(model_dir: Path) -> bool:
    """No finished artifact, or one trained without text (no keys) while
    the corpus now has text."""
    if not (model_dir / "_SUCCESS").exists():
        return True
    return corpus_has_text() and not _has_keys(model_dir)


def build_model_artifact(model_dir: Path = DEFAULT_MODEL_DIR,
                         corpus_dir: Path | None = None) -> None:
    """Train every language from ``corpus_dir`` (default
    :data:`CORPUS_DIR`, read at call time) into ``model_dir``."""
    corpus_dir = CORPUS_DIR if corpus_dir is None else corpus_dir
    tmp = model_dir.parent / f"{model_dir.name}.building.{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    for iso1 in C.ISO1_CODES:
        texts = read_corpus_language(iso1, corpus_dir)
        per_n = train_language(texts)
        for n, (keys, vals) in per_n.items():
            np.save(tmp / f"{iso1}_{n}_keys.npy", keys)
            np.save(tmp / f"{iso1}_{n}_vals.npy", vals)
    meta = {
        "version": MODEL_VERSION,
        "hash_mult": int(HASH_MULT),
        "max_n": MAX_N,
        "languages": list(C.ISO1_CODES),
        "corpus": str(corpus_dir),
    }
    with open(tmp / "meta.json", "w") as f:
        json.dump(meta, f, indent=2)
    (tmp / "_SUCCESS").touch()
    try:
        os.replace(tmp, model_dir)
    except OSError:
        # Another process won the race; keep theirs.
        shutil.rmtree(tmp, ignore_errors=True)


def ensure_models(model_dir: Path = DEFAULT_MODEL_DIR,
                  timeout_s: float = 900.0) -> Path:
    """Build the model artifact if missing (deterministic, race-safe).

    An artifact with no keys (built while the corpus had no text) is
    rebuilt once the corpus has text: it is moved aside under the lock
    first, since the build's final rename cannot replace a non-empty
    directory."""
    if not _needs_build(model_dir):
        return model_dir
    lock = model_dir.parent / f"v{MODEL_VERSION}.lock"
    model_dir.parent.mkdir(parents=True, exist_ok=True)
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        holder = True
    except FileExistsError:
        holder = False
    if holder:
        try:
            if _needs_build(model_dir):
                if model_dir.exists():
                    stale = model_dir.parent / (
                        f"{model_dir.name}.stale.{os.getpid()}")
                    os.replace(model_dir, stale)
                    shutil.rmtree(stale)
                build_model_artifact(model_dir)
        finally:
            try:
                os.unlink(lock)
            except FileNotFoundError:
                pass  # a waiter mis-reclaimed it; the build still succeeded
        return model_dir
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not _needs_build(model_dir):
            return model_dir
        remaining = max(1.0, deadline - time.monotonic())
        try:
            age = time.time() - lock.stat().st_mtime
        except FileNotFoundError:
            # Holder finished or exited cleanly; retry for the REMAINING
            # time (not a fresh full timeout).
            return ensure_models(model_dir, remaining)
        if age > _STALE_LOCK_S:
            # Orphaned lock: the holder died without its `finally`
            # (SIGKILL / OOM-killed worker).  The staleness threshold is
            # a FIXED constant far above any real build duration — never
            # the caller's (possibly shrunk-by-recursion) timeout_s,
            # which could reclaim a LIVE builder's lock and run two
            # concurrent writers into model_dir.  Re-stat right before
            # the unlink so a lock another reclaimer just recreated is
            # not swept away with the stale one.
            try:
                if time.time() - lock.stat().st_mtime > _STALE_LOCK_S:
                    os.unlink(lock)
            except FileNotFoundError:
                pass
            return ensure_models(model_dir, remaining)
        time.sleep(0.5)
    raise TimeoutError(f"model artifact {model_dir} not built within {timeout_s}s")


class NgramModels:
    """Loaded per-process model state: sorted key/value arrays per (lang, n).

    Loading is mmap-based — the arrays live in page cache, shared across
    every worker process on a node.
    """

    def __init__(self, model_dir: Path | str = DEFAULT_MODEL_DIR):
        model_dir = Path(model_dir)
        if not (model_dir / "_SUCCESS").exists():
            raise FileNotFoundError(
                f"model artifact missing at {model_dir}; run "
                "tools/build_models.py or lingua_ray.models.ensure_models()"
            )
        self.model_dir = model_dir
        self.keys: list[list[np.ndarray]] = []
        self.vals: list[list[np.ndarray]] = []
        for iso1 in C.ISO1_CODES:
            ks, vs = [], []
            for n in range(1, MAX_N + 1):
                ks.append(np.load(model_dir / f"{iso1}_{n}_keys.npy", mmap_mode="r"))
                vs.append(np.load(model_dir / f"{iso1}_{n}_vals.npy", mmap_mode="r"))
            self.keys.append(ks)
            self.vals.append(vs)

    def lookup_hashes(self, lang: int, n: int, hashes: np.ndarray) -> np.ndarray:
        """Vectorized frequency lookup; 0.0 where absent. Returns float64."""
        keys = self.keys[lang][n - 1]
        vals = self.vals[lang][n - 1]
        out = np.zeros(len(hashes), dtype=np.float64)
        if len(keys) == 0 or len(hashes) == 0:
            return out
        idx = np.searchsorted(keys, hashes)
        idx_c = np.minimum(idx, len(keys) - 1)
        hit = keys[idx_c] == hashes
        out[hit] = vals[idx_c[hit]]
        return out

    @cached_property
    def index(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per n, every language's n-gram table merged into one CSR index:
        ``(keys, offsets, lang, freq)``.  ``keys`` are the distinct keys,
        sorted; key ``i``'s entries are ``lang[offsets[i]:offsets[i + 1]]``
        (ascending) with frequencies ``freq[...]``.  Built from the artifact
        arrays on first use, once per process, so loading a model stays
        mmap-only.  A stored frequency of 0.0 reads as absent, as in
        :meth:`lookup_hashes`."""
        out = []
        for n in range(1, MAX_N + 1):
            tables = [self.keys[li][n - 1] for li in range(C.NUM_LANGUAGES)]
            keys = np.concatenate(tables).astype(np.uint64, copy=False)
            freq = np.concatenate(
                [self.vals[li][n - 1] for li in range(C.NUM_LANGUAGES)]
            ).astype(np.float32, copy=False)
            lang = np.repeat(np.arange(C.NUM_LANGUAGES, dtype=np.int16),
                             [len(t) for t in tables])
            live = freq > 0
            # Stable: a key's entries stay in language order.
            order = np.flatnonzero(live)[
                np.argsort(keys[live], kind="stable")]
            keys = keys[order]
            new_key = np.ones(len(keys), dtype=bool)
            new_key[1:] = keys[1:] != keys[:-1]
            first = np.flatnonzero(new_key)
            offsets = np.append(first, len(keys)).astype(np.int32)
            out.append((keys[first], offsets, lang[order], freq[order]))
        return out

    def lookup_all_languages(self, n: int, hashes: np.ndarray):
        """Every (hash, language) hit of ``hashes`` in the n-gram tables, in
        one probe of :attr:`index`.  Returns ``(pos, lang, freq)``: one entry
        per hit, ordered by position in ``hashes`` and then by language;
        ``freq`` is float32 as stored.  Agrees with :meth:`lookup_hashes` for
        every language."""
        keys, offsets, lang, freq = self.index[n - 1]
        if len(keys) == 0 or len(hashes) == 0:
            return (np.zeros(0, dtype=np.int64), lang[:0], freq[:0])
        at = np.searchsorted(keys, hashes)
        np.minimum(at, len(keys) - 1, out=at)
        pos = np.flatnonzero(keys[at] == hashes)
        lo = offsets[at[pos]].astype(np.int64)
        cnt = offsets[at[pos] + 1] - lo
        ends = np.cumsum(cnt)
        entry = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
        entry += np.repeat(lo - (ends - cnt), cnt)
        return np.repeat(pos, cnt), lang[entry], freq[entry]

    def freq_of_str(self, lang: int, ngram: str) -> float:
        """Scalar lookup by n-gram string (for the scalar oracle / tests)."""
        n = len(ngram)
        if n < 1 or n > MAX_N:
            return 0.0
        h = np.asarray([hash_ngram_str(ngram)], dtype=np.uint64)
        return float(self.lookup_hashes(lang, n, h)[0])


_MODELS: NgramModels | None = None


def get_models() -> NgramModels:
    """Process-wide lazily-built singleton (the worker-side entry point)."""
    global _MODELS
    if _MODELS is None:
        ensure_models()
        _MODELS = NgramModels()
    return _MODELS
