"""The language-detection kernel against its earlier implementations.

Corpus-free: the module uses the ``synthetic_model`` artifact (``conftest.py``),
trained with ``build_model_artifact`` from a small seeded corpus, so it runs
on any host.  The oracles
below are the kernel's earlier ``Detector._score_group`` (one
``lookup_hashes`` per (language, level), backoff walked per window),
``Detector._lang_trigram_stats`` (windows deduplicated with ``lexsort``) and
``Detector._rule_stage`` (a dense (words × vote columns) count matrix and a
loop per accent language), kept verbatim; the current kernel must match them
bit for bit.
"""

import json

import numpy as np
import pyarrow as pa
import pytest
from conftest import _script_pool

from lingua_ray import constants as C
from lingua_ray import reference_impl as ref
from lingua_ray.chartables import (CHARLANG_MASK, IS_LETTER, IS_LOGOGRAM,
                                   MASK_TABLE_SIZE, SCRIPT_ID, UNIQUE_CHAR_MASK)
from lingua_ray.kernel import (_ACCENT_LANGS, _CHINESE, _CJK_BOOST_LANGS,
                               _JAPANESE, _LATIN_CYR_DEV, _OOV_LOG_P, Detector,
                               DetectorConfig, _gather_rows, _top_two)
from lingua_ray.models import MAX_N, MODEL_VERSION, NgramModels, rolling_hashes
from lingua_ray.textprep import (CharBatch, build_word_batch, clean_batch,
                                 encode_texts)


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


def _rule_stage_oracle(self, texts: list[str], encoded=None):
    """Vectorized detectLanguageWithRules + filterLanguagesByRules.

    Returns (rule_lang int16[n] with -1 = undecided,
             cand bool[n, NUM_LANGUAGES] candidate sets).
    """
    cfg = self.config
    n_rows = len(texts)
    wb = build_word_batch(texts)
    n_words = len(wb.word_row)
    ncol = len(self._vote_langs)

    rule_lang = np.full(n_rows, -1, dtype=np.int16)
    cand = np.broadcast_to(cfg.languages, (n_rows, C.NUM_LANGUAGES)).copy()
    if n_words == 0:
        return rule_lang, cand

    sid = SCRIPT_ID[wb.cps]
    in_word = wb.char_word >= 0
    cw = wb.char_word[in_word]
    sid_w = sid[in_word].astype(np.int64)
    cps_w = wb.cps[in_word]

    # --- per-word language vote counts ---------------------------------
    sv = self._script_vote[np.minimum(sid_w, C.NUM_SCRIPTS)]
    has_sv = sv >= 0
    vote_word = [cw[has_sv]]
    vote_col = [self._lang_to_col[sv[has_sv]]]
    # unique-char votes for Latin/Cyrillic/Devanagari chars
    lcd = np.isin(sid_w, _LATIN_CYR_DEV) & ~has_sv
    if lcd.any():
        cps_l = cps_w[lcd]
        cw_l = cw[lcd]
        small = cps_l < MASK_TABLE_SIZE
        cps_l, cw_l = cps_l[small], cw_l[small]
        um = UNIQUE_CHAR_MASK[cps_l]  # (m, 2) uint64
        any_bit = (um[:, 0] | um[:, 1]) != 0
        cps_l, cw_l, um = cps_l[any_bit], cw_l[any_bit], um[any_bit]
        for li in self._uniq_langs:
            bit = np.uint64(1 << (int(li) & 63))
            hit = (um[:, int(li) >> 6] & bit) != 0
            if hit.any():
                vote_word.append(cw_l[hit])
                vote_col.append(
                    np.full(int(hit.sum()), self._lang_to_col[li],
                            dtype=np.int64))
    vw = np.concatenate(vote_word)
    vc = np.concatenate(vote_col)
    Wc = np.bincount(vw * ncol + vc, minlength=n_words * ncol) \
        .reshape(n_words, ncol).astype(np.int32)

    nz = (Wc > 0).sum(axis=1)
    c1 = Wc.max(axis=1)
    l1col = Wc.argmax(axis=1)
    W2 = Wc.copy()
    W2[np.arange(n_words), l1col] = -1
    c2 = W2.max(axis=1)
    l1 = np.where(c1 > 0, self._vote_langs[l1col], -1)
    l1_configured = (l1 >= 0) & cfg.languages[np.maximum(l1, 0)]

    # word vote: -2 = UNKNOWN
    word_vote = np.full(n_words, -2, dtype=np.int64)
    single = (nz == 1) & l1_configured
    word_vote[single] = l1[single]
    multi = (nz >= 2) & (c1 > c2) & l1_configured
    word_vote[multi] = l1[multi]

    # logogram word value only in the single-configured-language branch
    # (LanguageDetector.kt:417-426)
    wv = np.where(single & wb.word_is_logogram,
                  C.LOGOGRAM_WORD_VALUE, C.FULL_WORD_VALUE)

    # --- per-row totals -------------------------------------------------
    voted = word_vote >= 0
    T = np.bincount(
        wb.word_row[voted] * ncol + self._lang_to_col[word_vote[voted]],
        weights=wv[voted], minlength=n_rows * ncol
    ).reshape(n_rows, ncol)
    U = np.bincount(wb.word_row[~voted], weights=wv[~voted],
                    minlength=n_rows).astype(np.float64)
    adjusted = np.bincount(wb.word_row, weights=wv,
                           minlength=n_rows).astype(np.float64)

    U_eff = np.where(U < 0.4 * adjusted, 0.0, U)
    TU = np.concatenate([T, U_eff[:, None]], axis=1)  # UNKNOWN col last

    nz_total = (TU > 0).sum(axis=1)
    v1 = TU.max(axis=1)
    a1 = TU.argmax(axis=1)
    TU2 = TU.copy()
    TU2[np.arange(n_rows), a1] = -1.0
    v2 = TU2.max(axis=1)

    col_ch = self._lang_to_col[_CHINESE]
    col_ja = self._lang_to_col[_JAPANESE]
    zh_ja = np.zeros(n_rows, dtype=bool)
    if col_ch >= 0 and col_ja >= 0:
        zh_ja = (nz_total == 2) & (T[:, col_ch] > 0) & (T[:, col_ja] > 0)

    top_is_lang = a1 < ncol
    top_lang = np.where(top_is_lang, self._vote_langs[np.minimum(a1, ncol - 1)],
                        -1)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_ok = np.where(v1 > 0, v2 / np.where(v1 > 0, v1, 1.0), 1.0) <= 0.8

    decided = np.zeros(n_rows, dtype=bool)
    # exactly one entry and it is a language
    one = (nz_total == 1) & top_is_lang
    rule_lang[one] = top_lang[one].astype(np.int16)
    decided |= one
    # Chinese+Japanese ⇒ Japanese (LanguageDetector.kt:456-461)
    rule_lang[zh_ja & ~decided] = _JAPANESE
    decided |= zh_ja
    # clear leader
    lead = (nz_total >= 2) & ~zh_ja & ratio_ok & top_is_lang
    lead &= ~decided
    rule_lang[lead] = top_lang[lead].astype(np.int16)
    decided |= lead

    # --- candidate filtering (filterLanguagesByRules) -------------------
    undec = ~decided
    # word script uniformity via segment reduction over in-word chars
    order_ok = cw  # non-decreasing
    seg_starts = np.flatnonzero(
        np.concatenate([[True], np.diff(order_ok) > 0]))
    smin = np.minimum.reduceat(sid_w, seg_starts)
    smax = np.maximum.reduceat(sid_w, seg_starts)
    uniform = (smin == smax) & (smin < C.NUM_SCRIPTS)
    wv_f = np.where(wb.word_is_logogram,
                    C.LOGOGRAM_WORD_VALUE, C.FULL_WORD_VALUE)
    A = np.bincount(
        wb.word_row[uniform] * C.NUM_SCRIPTS
        + smin[uniform].astype(np.int64),
        weights=wv_f[uniform], minlength=n_rows * C.NUM_SCRIPTS
    ).reshape(n_rows, C.NUM_SCRIPTS)
    adjusted_f = np.bincount(wb.word_row, weights=wv_f,
                             minlength=n_rows).astype(np.float64)

    has_alpha = A.sum(axis=1) > 0
    m = A.max(axis=1)
    kept = A >= (0.8 * np.where(m > 0, m, 1.0))[:, None]
    kept &= A > 0
    script_cand = kept @ self._lang_scripts.T.astype(np.float64) > 0
    script_cand &= cfg.languages
    cand_new = np.where(has_alpha[:, None], script_cand, cand)

    # accent-char counting (count a language once per word)
    hits = np.zeros((n_rows, len(self._accent_langs)), dtype=np.float64)
    small_all = cps_w < MASK_TABLE_SIZE
    am = CHARLANG_MASK[np.where(small_all, cps_w, 0)]
    am[~small_all] = 0
    any_acc = (am[:, 0] | am[:, 1]) != 0
    if any_acc.any():
        cw_a = cw[any_acc]
        am_a = am[any_acc]
        wrow = wb.word_row
        for j, li in enumerate(self._accent_langs):
            bit = np.uint64(1 << (int(li) & 63))
            h = (am_a[:, int(li) >> 6] & bit) != 0
            if h.any():
                words_hit = np.unique(cw_a[h])
                np.add.at(hits, (wrow[words_hit], j), 1.0)

    half = adjusted_f / 2.0
    acc_cand = cand_new[:, self._accent_langs]
    subset = acc_cand & (hits >= half[:, None]) & (half > 0)[:, None]
    has_subset = subset.any(axis=1)
    # Reference returns the full language set early when NO word is
    # script-uniform (LanguageDetector.kt:494-496,
    # detectedAlphabets.hasOnlyZeroValues() -> return languages) --
    # the accent-char narrowing below must be skipped for those rows,
    # just as the script narrowing above already is (cand_new keeps
    # `cand` where ~has_alpha).
    has_subset &= has_alpha
    cand_final = cand_new.copy()
    rows_sub = np.flatnonzero(has_subset)
    if len(rows_sub):
        narrowed = np.zeros((len(rows_sub), C.NUM_LANGUAGES), dtype=bool)
        narrowed[:, self._accent_langs] = subset[rows_sub]
        cand_final[rows_sub] = cand_new[rows_sub] & narrowed

    cand_out = np.where(undec[:, None], cand_final, cand)
    return rule_lang, cand_out


class OracleDetector(Detector):
    """The kernel with its earlier rule stage, scoring and trigram stats."""

    def __init__(self, models, config=None):
        super().__init__(models, config)
        self._accent_langs = np.array(
            [li for li in _ACCENT_LANGS], dtype=np.int64)

    _rule_stage = _rule_stage_oracle
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
    # long rows: one word over and over (every trigram repeats, also across
    # rows), rows ending in a two-letter word (a bigram at the row end), and
    # letter runs whose trigrams the model lacks (backoff to 2- and 1-grams)
    for li in (C.ISO1_INDEX["en"], C.ISO1_INDEX["ru"], C.ISO1_INDEX["el"]):
        words = vocab[li]
        letters = sorted(set("".join(words)))
        texts += [" ".join([max(words, key=len)] * 40)] * 2
        texts.append(" ".join(rng.choice(words, size=60)) + " "
                     + "".join(rng.choice(letters, size=2)))
        texts.append("".join(rng.choice(letters, size=150)) + " "
                     + "".join(rng.choice(letters, size=2)))
        texts.append("".join(rng.choice(letters, size=3)) * 3)
    return texts


def _rule_texts() -> list:
    """Rows for the branches of the rule stage, nulls included."""
    one = {s: chr(int(_script_pool(s)[0]))
           for s in C.SCRIPTS_SUPPORTING_EXACTLY_ONE_LANGUAGE
           if s not in C.SCRIPTS_WITH_LOGOGRAMS}
    el, hy, ka = one["GREEK"], one["ARMENIAN"], one["GEORGIAN"]
    uniq = "".join(C.UNIQUE_CHARS[li][-1] for li in C.LANGUAGES_WITH_UNIQUE_CHARS)
    accents = "".join(chars[-1] for chars in C.CHARS_TO_LANGUAGES)
    return [
        # vote ties between columns, and clear leaders
        el + hy, hy + el, el * 2 + hy * 2, el + hy + ka, el * 2 + hy,
        hy * 3 + el * 2 + ka, f"{el}{hy} {el}{hy} {ka}", f"{el}{hy} {el}",
        el + "ß", "ßß" + el, "ßő", "őßő",
        # words voting in every column a non-logogram char can vote in
        "".join(one.values()) + uniq, "".join(one.values()) * 2 + uniq,
        uniq + " " + uniq[::-1],
        # codepoints >= MASK_TABLE_SIZE next to unique and accented chars
        "\uff58ß", "ß\uff58", "\ua641ѓ", el + "\U0001d41a", "\U0001d41añ",
        "\uff58" * 3 + " ñ",
        # unique and accented chars of several languages in one word
        uniq, accents, accents + " " + accents[::-1] + " plain", "ñãąßő ñ ã",
        "ñ ñ ñ plain", "żîñ żîñ", "ěř " * 4, "ñññ a b c d", "ããñ ã b c d e",
        # logogram words
        "上海大学", "日本語のテキスト", "사랑해요", "漢字kana", "ひらがな 漢字",
        "上 ひ", "漢" + el,
        # no script-uniform word
        "a" + el, f"a{el} b{hy}", "😀 🎉", "123 !!", "a1b2", "ñ😀",
        # empty and null rows
        "", None, "   ", "\t\n",
    ]


CONFIGS = {
    "default": lambda: DetectorConfig(),
    "low_accuracy": lambda: DetectorConfig(low_accuracy=True),
    "en_de": lambda: DetectorConfig.from_iso1(["en", "de"]),
    "cjk_ru": lambda: DetectorConfig.from_iso1(["zh", "ja", "ko", "ru"]),
    "min_distance": lambda: DetectorConfig(minimum_relative_distance=0.1),
    "scripts_accents": lambda: DetectorConfig.from_iso1(
        ["el", "hy", "ka", "de", "hu", "pl", "es", "pt", "vi", "uk"]),
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rule_stage_bit_equal_to_oracle(trained, name):
    models, vocab = trained
    texts = _rule_texts() + _adversarial_texts(vocab)
    det = Detector(models, CONFIGS[name]())
    want = OracleDetector(models, CONFIGS[name]())._rule_stage(texts)
    arrow = pa.array(texts, type=pa.string())
    for got in (det._rule_stage(texts), det._rule_stage(arrow),
                det._rule_stage(arrow, encoded=encode_texts(arrow))):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
    rule_lang, cand = want
    assert (rule_lang >= 0).any() and (rule_lang < 0).any()
    # some undecided rows keep fewer candidates than configured
    undecided = cand[rule_lang < 0]
    assert (undecided.sum(axis=1) < CONFIGS[name]().languages.sum()).any()
    _assert_same_detect(models, CONFIGS[name](), texts)


def test_word_batch_matches_word_lengths(trained):
    """``word_start`` and ``word_is_logogram`` equal what the per-word char
    counts gave: each word's first in-word char, and a one-char word whose
    char is a logogram."""
    _, vocab = trained
    texts = _rule_texts() + _adversarial_texts(vocab)
    wb = build_word_batch(texts)
    in_word = np.flatnonzero(wb.char_word >= 0)
    word_len = np.bincount(wb.char_word[in_word], minlength=len(wb.word_row))
    np.testing.assert_array_equal(
        wb.word_start, in_word[np.cumsum(word_len) - word_len])
    np.testing.assert_array_equal(
        wb.word_is_logogram, (word_len == 1) & IS_LOGOGRAM[wb.cps[wb.word_start]])
    assert wb.word_is_logogram.any() and (word_len > 1).any()


def _top_two_dense(key, cnt, ncol, n_words):
    """The rule stage's earlier dense per-word reduction, for voting words."""
    Wc = np.bincount(key, weights=cnt, minlength=n_words * ncol) \
        .reshape(n_words, ncol).astype(np.int64)
    nz = (Wc > 0).sum(axis=1)
    c1 = Wc.max(axis=1)
    l1col = Wc.argmax(axis=1)
    W2 = Wc.copy()
    W2[np.arange(n_words), l1col] = -1
    c2 = W2.max(axis=1)
    w = np.flatnonzero(nz)
    return w, nz[w], c1[w], l1col[w], c2[w]


def test_top_two_matches_dense_argmax():
    rng = np.random.default_rng(5)
    cases = [
        # word 0: tie between columns 1 and 3; word 1 votes in every column
        # with a tie at the top; word 2 in every column, all counts equal;
        # word 4 in one column
        (4, [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16], [2, 2, 1, 3, 3, 1, 2, 2, 2, 2, 5]),
        (1, [0, 2, 3], [4, 1, 1]),       # one column: every word votes in all
        (3, [], []),
    ]
    for _ in range(20):
        ncol = int(rng.integers(1, 6))
        key = np.unique(rng.integers(0, 30 * ncol, size=40))
        cases.append((ncol, key, rng.integers(1, 4, size=len(key))))
    for ncol, key, cnt in cases:
        key = np.asarray(key, dtype=np.int64)
        cnt = np.asarray(cnt, dtype=np.int64)
        n_words = int(key.max()) // ncol + 1 if len(key) else 0
        word, nz, c1, col, c2 = _top_two(key, cnt.copy(), ncol)
        w, d_nz, d_c1, d_col, d_c2 = _top_two_dense(key, cnt, ncol, n_words)
        for a, b in ((word, w), (nz, d_nz), (c1, d_c1), (col, d_col)):
            np.testing.assert_array_equal(a, b)
        # the rule stage reads the second count only where nz >= 2
        np.testing.assert_array_equal(c2[nz >= 2], d_c2[nz >= 2])
        assert (c2[nz == 1] == 0).all()


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
