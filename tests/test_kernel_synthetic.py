"""The n-gram scoring kernel against its previous per-language walk.

Corpus-free: the module uses the ``synthetic_model`` artifact (``conftest.py``),
trained with ``build_model_artifact`` from a small seeded corpus, so it runs
on any host.  The oracles
below are the kernel's earlier ``Detector._score_group`` (one
``lookup_hashes`` per (language, level), backoff walked per window) and
``Detector._lang_trigram_stats`` (windows deduplicated with ``lexsort``),
kept verbatim; the current kernel must match them bit for bit.
"""

import json

import numpy as np
import pytest

from lingua_ray import constants as C
from lingua_ray import reference_impl as ref
from lingua_ray.chartables import IS_LETTER
from lingua_ray.kernel import (_CJK_BOOST_LANGS, _OOV_LOG_P, Detector,
                               DetectorConfig, _gather_rows)
from lingua_ray.models import MAX_N, MODEL_VERSION, NgramModels, rolling_hashes
from lingua_ray.textprep import CharBatch, clean_batch


def _score_group_oracle(self, cleaned: CharBatch, rows: np.ndarray,
                 cand: np.ndarray, ns: list[int], with_unigrams: bool):
    """N-gram Naive-Bayes scoring for one row group.

    rows: global row indices; cand: (len(rows), NUM_LANGUAGES) bool.
    Returns (totals float64[g, L], unigram counts int64[g, L]).

    Model probes are deduplicated *batch-globally*: per backoff level k
    the distinct hashes across all rows are looked up ONCE per language
    (one searchsorted on the distinct set), and the per-window backoff
    walk becomes pure integer gathers.
    """
    g = len(rows)
    totals = np.zeros((g, C.NUM_LANGUAGES), dtype=np.float64)
    unicnt = np.zeros((g, C.NUM_LANGUAGES), dtype=np.int64)
    if g == 0:
        return totals, unicnt

    sub = _gather_rows(cleaned, rows)
    H = rolling_hashes(sub.cps, MAX_N)
    is_letter = IS_LETTER[sub.cps] if len(sub.cps) else np.zeros(0, bool)
    cum = np.zeros(len(sub.cps) + 1, dtype=np.int64)
    np.cumsum(is_letter, out=cum[1:])
    row_id = sub.row_ids()
    n_pos = len(sub.cps)
    max_n = max(ns) if ns else 0

    # Per level k: valid-window starts, distinct hashes, start→index map.
    level_distinct: dict[int, np.ndarray] = {}
    level_idx: dict[int, np.ndarray] = {}
    valid_starts: dict[int, np.ndarray] = {}
    for k in range(1, max_n + 1):
        n_windows = n_pos - k + 1
        if n_windows <= 0:
            level_distinct[k] = np.zeros(0, dtype=np.uint64)
            level_idx[k] = np.zeros(0, dtype=np.int64)
            valid_starts[k] = np.zeros(0, dtype=np.int64)
            continue
        all_letters = (cum[k:] - cum[:-k]) == k
        same_row = row_id[:n_windows] == row_id[k - 1:]
        starts_k = np.flatnonzero(all_letters & same_row)
        valid_starts[k] = starts_k
        D, inv = np.unique(H[k - 1][starts_k], return_inverse=True)
        idx = np.full(n_pos, -1, dtype=np.int64)
        idx[starts_k] = inv
        level_distinct[k] = D
        level_idx[k] = idx

    # Deduplicated probe windows per (row, n0), with per-level distinct
    # indices precomputed ONCE (shared by all languages — the backoff
    # walk then only gathers into per-language frequency vectors).
    uniq: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    probe_idx: dict[int, list[np.ndarray]] = {}
    for n in ns:
        starts = valid_starts.get(n, np.zeros(0, dtype=np.int64))
        if len(starts) == 0:
            uniq[n] = (starts, starts)
            probe_idx[n] = []
            continue
        h = H[n - 1][starts]
        r = row_id[starts]
        order = np.lexsort((h, r))
        hs, rs, ss = h[order], r[order], starts[order]
        first = np.concatenate(
            [[True], (hs[1:] != hs[:-1]) | (rs[1:] != rs[:-1])])
        u_starts = ss[first]
        uniq[n] = (u_starts, rs[first])
        # probe_idx[n][k-1][j] = index into level_distinct[k] for the
        # k-prefix of probe window j
        probe_idx[n] = [level_idx[k][u_starts] for k in range(1, n + 1)]

    cjk_set = set(_CJK_BOOST_LANGS.tolist())
    for lang in range(C.NUM_LANGUAGES):
        rows_l = cand[:, lang]
        if not rows_l.any():
            continue
        # One distinct-set lookup per level for this language; log is
        # taken ONCE on the distinct frequencies (misses -> +inf
        # sentinel), so the per-window backoff walk below does integer
        # gathers only — no repeated np.log over gathered windows.
        logf = {}
        for k in range(1, max_n + 1):
            if not len(level_distinct[k]):
                continue
            f = self.models.lookup_hashes(lang, k, level_distinct[k])
            logf[k] = np.log(f, out=np.full_like(f, np.inf),
                             where=f > 0)
        for n0 in ns:
            starts, rids = uniq[n0]
            if len(starts) == 0:
                continue
            p_pos = np.flatnonzero(rows_l[rids])
            p_row = rids[p_pos]
            logsum = np.zeros(g, dtype=np.float64)
            for k in range(n0, 0, -1):
                if len(p_pos) == 0:
                    break
                if k not in logf:
                    break
                lf = logf[k][probe_idx[n0][k - 1][p_pos]]
                hit = lf != np.inf
                if hit.any():
                    logsum += np.bincount(
                        p_row[hit], weights=lf[hit], minlength=g)
                    if with_unigrams and n0 == 1:
                        unicnt[:, lang] += np.bincount(
                            p_row[hit], minlength=g)
                keep = ~hit
                p_pos, p_row = p_pos[keep], p_row[keep]
            if lang in cjk_set:
                logsum *= 0.85  # LanguageDetector.kt:577-586
            totals[:, lang] += logsum

    # unigram-count division (LanguageDetector.kt:353-371)
    div = unicnt > 0
    totals = np.where(div, totals / np.where(div, unicnt, 1), totals)
    return totals, unicnt


def _lang_trigram_stats_oracle(self, cleaned: CharBatch, rows: np.ndarray,
                        lang: int):
    g = len(rows)
    sub = _gather_rows(cleaned, rows)

    logsum = np.zeros(g, dtype=np.float64)
    count = np.zeros(g, dtype=np.int64)
    n = 3
    n_windows = len(sub.cps) - n + 1
    if n_windows <= 0:
        return logsum, count
    H = rolling_hashes(sub.cps, n)
    is_letter = IS_LETTER[sub.cps]
    cum = np.zeros(len(sub.cps) + 1, dtype=np.int64)
    np.cumsum(is_letter, out=cum[1:])
    row_id = sub.row_ids()
    all_letters = (cum[n:] - cum[:-n]) == n
    same_row = row_id[:n_windows] == row_id[n - 1:]
    starts = np.flatnonzero(all_letters & same_row)
    if len(starts) == 0:
        return logsum, count
    h = H[n - 1][starts]
    r = row_id[starts]
    order = np.lexsort((h, r))
    hs, rs, ss = h[order], r[order], starts[order]
    first = np.concatenate([[True], (hs[1:] != hs[:-1]) | (rs[1:] != rs[:-1])])
    p_start, p_row = ss[first], rs[first]
    count = np.bincount(p_row, minlength=g)
    for k in range(n, 0, -1):
        if len(p_start) == 0:
            break
        f = self.models.lookup_hashes(lang, k, H[k - 1][p_start])
        hit = f > 0
        if hit.any():
            logsum += np.bincount(p_row[hit], weights=np.log(f[hit]),
                                  minlength=g)
        p_start, p_row = p_start[~hit], p_row[~hit]
    if len(p_start):
        # Trigrams that miss at every backoff level are OUT of the
        # language's vocabulary: charge the OOV floor instead of the
        # implicit ln P = 0, which would hand all-OOV gibberish the
        # best possible perplexity (1.0) and defeat the ppl keep-gate.
        logsum += _OOV_LOG_P * np.bincount(p_row, minlength=g)
    return logsum, count


class OracleDetector(Detector):
    _score_group = _score_group_oracle
    _lang_trigram_stats = _lang_trigram_stats_oracle


# --------------------------------------------------------------- artifacts

def _write_artifact(model_dir, tables) -> NgramModels:
    """An artifact holding ``tables[(lang, n)] = (keys, vals)``; every other
    table is empty."""
    model_dir.mkdir(parents=True)
    for li, iso1 in enumerate(C.ISO1_CODES):
        for n in range(1, MAX_N + 1):
            keys, vals = tables.get((li, n), ([], []))
            np.save(model_dir / f"{iso1}_{n}_keys.npy",
                    np.asarray(keys, dtype=np.uint64))
            np.save(model_dir / f"{iso1}_{n}_vals.npy",
                    np.asarray(vals, dtype=np.float32))
    (model_dir / "meta.json").write_text(json.dumps(
        {"version": MODEL_VERSION, "max_n": MAX_N}))
    (model_dir / "_SUCCESS").touch()
    return NgramModels(model_dir)


@pytest.fixture(scope="module")
def trained(synthetic_model):
    model_dir, vocab = synthetic_model
    return NgramModels(model_dir), vocab


def _adversarial_texts(vocab) -> list[str]:
    rng = np.random.default_rng(11)
    texts = ["", "   \t", "123 456 !!! ...", "😀😀 🎉", "a", "ab", "z y",
             "ababababab abab ababab", "aaaaaaaaaaaa", "ｘ", "ß",
             "上海大学是一个好大学", "日本語のテキストです", "사랑해요 사랑",
             "上上上上上上", "hello мир 世界 שלום", "abc абв αβγ",
             "email me at foo@bar.com, call +1 555 0199!"]
    for li in sorted(vocab):
        words = vocab[li]
        texts.append(" ".join(rng.choice(words, size=int(rng.integers(1, 6)))))
        texts.append(words[0] * 3)
    for li in (C.ISO1_INDEX["en"], C.ISO1_INDEX["de"], C.ISO1_INDEX["ru"],
               C.ISO1_INDEX["zh"], C.ISO1_INDEX["ja"]):
        long = " ".join(rng.choice(vocab[li], size=200))
        for n in (119, 120, 121):
            texts.append(long[:n])
    # mixed script within one row
    texts.append(" ".join(vocab[C.ISO1_INDEX["en"]][:3]
                          + vocab[C.ISO1_INDEX["ru"]][:3]
                          + vocab[C.ISO1_INDEX["zh"]][:2]))
    return texts


CONFIGS = {
    "default": lambda: DetectorConfig(),
    "low_accuracy": lambda: DetectorConfig(low_accuracy=True),
    "en_de": lambda: DetectorConfig.from_iso1(["en", "de"]),
    "cjk_ru": lambda: DetectorConfig.from_iso1(["zh", "ja", "ko", "ru"]),
    "min_distance": lambda: DetectorConfig(minimum_relative_distance=0.1),
}


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a


def _assert_same_detect(models, config, texts):
    det = Detector(models, config)
    calls = []
    score = det._score_group

    def spy(cleaned, rows, cand, ns, with_unigrams):
        out = score(cleaned, rows, cand, ns, with_unigrams)
        calls.append(((cleaned, rows, cand, ns, with_unigrams), out))
        return out

    det._score_group = spy
    got = det.detect(texts, with_ppl=True, with_matrix=True)
    oracle = OracleDetector(models, config)
    want = oracle.detect(texts, with_ppl=True, with_matrix=True)
    assert got.keys() == want.keys()
    for k in want:
        assert got[k].dtype == want[k].dtype, k
        np.testing.assert_array_equal(_bits(got[k]), _bits(want[k]), err_msg=k)
    assert calls
    for args, (totals, unicnt) in calls:
        o_totals, o_unicnt = oracle._score_group(*args)
        np.testing.assert_array_equal(_bits(totals), _bits(o_totals))
        np.testing.assert_array_equal(unicnt, o_unicnt)
    return got


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_score_group_bit_equal_to_oracle(trained, name):
    models, vocab = trained
    texts = _adversarial_texts(vocab)
    got = _assert_same_detect(models, CONFIGS[name](), texts)
    # the texts reach the scoring path and hit the model
    assert (got["n_values"] > 1).any()


def test_cjk_boost_rows_scored(trained):
    models, vocab = trained
    zh = C.ISO1_INDEX["zh"]
    det = Detector(models)
    cleaned = clean_batch(["".join(vocab[zh][:4]), "".join(vocab[zh][4:9])])
    rows = np.arange(2)
    cand = np.zeros((2, C.NUM_LANGUAGES), dtype=bool)
    cand[:, _CJK_BOOST_LANGS] = True
    cand[:, C.ISO1_INDEX["ru"]] = True
    args = (cleaned, rows, cand, [1, 2, 3, 4, 5], True)
    totals, unicnt = det._score_group(*args)
    o_totals, o_unicnt = _score_group_oracle(det, *args)
    assert (totals[:, zh] != 0).all()
    np.testing.assert_array_equal(_bits(totals), _bits(o_totals))
    np.testing.assert_array_equal(unicnt, o_unicnt)


def test_lang_matches_scalar_reference(trained):
    models, vocab = trained
    texts = _adversarial_texts(vocab)[::3]
    for config, languages in (
            (DetectorConfig(), None),
            (DetectorConfig.from_iso1(["en", "de"]),
             {C.ISO1_INDEX["en"], C.ISO1_INDEX["de"]})):
        got = Detector(models, config).detect(texts)["lang"]
        want = [ref.detect_language(t, models.freq_of_str,
                                    languages=languages) for t in texts]
        np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int16))


def test_zero_key_artifact(tmp_path):
    models = _write_artifact(tmp_path / "model", {})
    texts = ["", "hello world", "日本語", "x" * 130, "abc абв"]
    for name in sorted(CONFIGS):
        got = _assert_same_detect(models, CONFIGS[name](), texts)
        assert (got["n_values"] <= 1).all()


# -------------------------------------------------------- merged probe

def _dense(models, n, hashes, li):
    pos, lang, freq = models.lookup_all_languages(n, hashes)
    out = np.zeros(len(hashes), dtype=np.float64)
    out[pos[lang == li]] = freq[lang == li]
    return out


def _assert_probe_agrees(models, hashes):
    hashes = np.asarray(hashes, dtype=np.uint64)
    for n in range(1, MAX_N + 1):
        pos, lang, freq = models.lookup_all_languages(n, hashes)
        assert pos.dtype == np.int64 and freq.dtype == np.float32
        order = np.lexsort((lang, pos))
        np.testing.assert_array_equal(order, np.arange(len(pos)))
        for li in range(C.NUM_LANGUAGES):
            np.testing.assert_array_equal(
                _dense(models, n, hashes, li),
                models.lookup_hashes(li, n, hashes))


def test_merged_probe_matches_lookup_hashes(tmp_path):
    shared = 1000
    tables = {
        (li, 2): ([5, shared, 2000 + li], [0.5, 0.01 * (li + 1), 0.25])
        for li in range(0, C.NUM_LANGUAGES, 3)
    }
    tables[(4, 3)] = ([7, 8, 9], [0.1, 0.2, 0.3])
    tables[(6, 3)] = ([8, 2**64 - 1], [0.4, 0.6])
    tables[(1, 2)] = ([6, 7], [0.0, 0.9])  # a stored 0.0 reads as absent
    models = _write_artifact(tmp_path / "model", tables)
    assert "index" not in vars(models)  # built on first use, not on load
    _assert_probe_agrees(models, [shared, 0, 4, 5, 6, 7, 8, 9, 10, 2002,
                                  2**64 - 1, 2**64 - 2, shared, 8])
    pos, lang, _ = models.lookup_all_languages(2, np.asarray([shared],
                                                             np.uint64))
    assert lang.tolist() == list(range(0, C.NUM_LANGUAGES, 3))
    assert (pos == 0).all()
    _assert_probe_agrees(models, [0, 1, 2, 3, 4])          # below the first
    _assert_probe_agrees(models, [2**64 - 2, 2**63, 3000])  # above the last
    _assert_probe_agrees(models, [])
    # orders 1, 4 and 5 are empty in every language
    assert len(models.index[0][0]) == 0 and len(models.index[4][0]) == 0


def test_merged_probe_zero_key_artifact(tmp_path):
    models = _write_artifact(tmp_path / "model", {})
    _assert_probe_agrees(models, [0, 1, 2**64 - 1])
    _assert_probe_agrees(models, [])


def test_merged_probe_on_trained_artifact(trained):
    models, _ = trained
    rng = np.random.default_rng(3)
    for n in range(1, MAX_N + 1):
        stored = np.concatenate([np.asarray(models.keys[li][n - 1])
                                 for li in range(C.NUM_LANGUAGES)])
        hashes = np.concatenate([
            rng.choice(stored, size=min(300, len(stored)), replace=False),
            rng.integers(0, 2**63, size=100).astype(np.uint64)])
        for li in range(C.NUM_LANGUAGES):
            np.testing.assert_array_equal(
                _dense(models, n, hashes, li),
                models.lookup_hashes(li, n, hashes))
