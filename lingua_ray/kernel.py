"""The vectorized language-detection kernel.

One call processes a whole Arrow batch of texts with NumPy array ops only —
the reference's per-string, per-(language, n) fan-out
(``api/LanguageDetector.kt:223-295``) collapses into array axes:

* rule voting (``detectLanguageWithRules``, ``:376-473``) becomes bincount
  reductions over (word, language) vote pairs;
* candidate filtering (``filterLanguagesByRules``, ``:475-543``) becomes
  segment reductions + a (rows × scripts) @ (scripts × languages) mask matmul;
* n-gram scoring with prefix backoff (``:593-659``) probes each order's
  distinct rolling hashes once against all languages' tables merged
  (:meth:`~lingua_ray.models.NgramModels.lookup_all_languages`), resolves
  the n → n−1 backoff per language on those distinct sets through a parent
  map, and then costs one gather and one (row, level) ``bincount`` per
  deduplicated window and candidate language.

Semantics are validated row-for-row against the scalar transcription in
:mod:`lingua_ray.reference_impl` by ``tests/test_kernel_vs_scalar.py``, and
the scoring bit for bit against its previous per-(language, level) walk by
``tests/test_kernel_synthetic.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants as C
from .chartables import CHARLANG_MASK, IS_LETTER, MASK_TABLE_SIZE, SCRIPT_ID, UNIQUE_CHAR_MASK
from .models import NgramModels, rolling_hashes, valid_window_starts
from .textprep import CharBatch, build_word_batch, clean_batch

_HAN = C.SCRIPT_INDEX["HAN"]
_KANA = (C.SCRIPT_INDEX["HIRAGANA"], C.SCRIPT_INDEX["KATAKANA"])
_LATIN_CYR_DEV = np.array(
    [C.SCRIPT_INDEX["LATIN"], C.SCRIPT_INDEX["CYRILLIC"],
     C.SCRIPT_INDEX["DEVANAGARI"]], dtype=np.int64)
_CHINESE = C.LANG_INDEX["CHINESE"]
_JAPANESE = C.LANG_INDEX["JAPANESE"]
# Perplexity floor for trigrams absent at every backoff level (3->2->1):
# ln(1e-9), i.e. rarer than anything a real model stores (the smallest
# stored relative frequency is bounded below by 1/corpus_ngrams ~ 1e-8).
# All-OOV text then scores ppl = 1e9, the worst value, not the best.
_OOV_LOG_P = float(np.log(1e-9))

_CJK_BOOST_LANGS = np.array(
    [C.LANG_INDEX[n] for n in C.LANGUAGES_SUPPORTING_LOGOGRAMS], dtype=np.int64)

# Languages that appear in CHARS_TO_LANGUAGES values, ordinal order.
_ACCENT_LANGS: tuple[int, ...] = tuple(sorted({
    C.LANG_INDEX[n] for names in C.CHARS_TO_LANGUAGES.values() for n in names
}))


def _gather_rows(cleaned: CharBatch, rows: np.ndarray) -> CharBatch:
    """Sub-batch of selected rows' codepoints, without per-row Python loops."""
    offs = cleaned.offsets
    lens = (offs[rows + 1] - offs[rows]).astype(np.int64)
    sub_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=sub_offsets[1:])
    total = int(sub_offsets[-1])
    base = np.repeat(offs[rows], lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(sub_offsets[:-1], lens)
    return CharBatch(cleaned.cps[base + within], sub_offsets)


def _distinct_windows(row: np.ndarray, rank: np.ndarray, n_distinct: int):
    """Distinct windows per row, in (row, hash) order.

    ``row`` and ``rank`` give each window's row and the rank of its hash
    among the ``n_distinct`` distinct hashes (``np.unique`` order, so rank
    order is hash order).  Returns (row, rank), one entry per distinct pair.
    """
    key = np.unique(row * n_distinct + rank)
    return key // n_distinct, key % n_distinct


@dataclass
class DetectorConfig:
    languages: np.ndarray = field(
        default_factory=lambda: np.ones(C.NUM_LANGUAGES, dtype=bool))
    minimum_relative_distance: float = 0.0
    low_accuracy: bool = False

    @classmethod
    def from_iso1(cls, codes: list[str], **kw) -> "DetectorConfig":
        mask = np.zeros(C.NUM_LANGUAGES, dtype=bool)
        for c in codes:
            mask[C.ISO1_INDEX[c]] = True
        return cls(languages=mask, **kw)


class Detector:
    """Batch detector; holds model arrays + config-derived vote tables."""

    def __init__(self, models: NgramModels, config: DetectorConfig | None = None):
        self.models = models
        self.config = config or DetectorConfig()
        cfg = self.config

        # Per-script single-language vote (LanguageDetector.kt:386-409).
        vote = np.full(C.NUM_SCRIPTS + 1, -1, dtype=np.int16)
        for script, lang in C.SCRIPTS_SUPPORTING_EXACTLY_ONE_LANGUAGE.items():
            if cfg.languages[lang]:
                vote[C.SCRIPT_INDEX[script]] = lang
        if vote[_HAN] < 0:
            vote[_HAN] = _CHINESE
        for k in _KANA:
            if vote[k] < 0:
                vote[k] = _JAPANESE
        self._script_vote = vote

        self._uniq_langs = np.array(
            [li for li in C.LANGUAGES_WITH_UNIQUE_CHARS if cfg.languages[li]],
            dtype=np.int64)

        # Vote-column layout: voted languages (ordinal order) + UNKNOWN last.
        vote_langs = sorted(
            set(int(v) for v in vote if v >= 0) | set(self._uniq_langs.tolist())
        )
        self._vote_langs = np.array(vote_langs, dtype=np.int64)
        self._lang_to_col = np.full(C.NUM_LANGUAGES, -1, dtype=np.int64)
        self._lang_to_col[self._vote_langs] = np.arange(len(vote_langs))

        # (languages × scripts) membership for candidate filtering.
        S = np.zeros((C.NUM_LANGUAGES, C.NUM_SCRIPTS), dtype=bool)
        for li, scripts in enumerate(C.LANG_SCRIPTS):
            for s in scripts:
                S[li, C.SCRIPT_INDEX[s]] = True
        self._lang_scripts = S

        self._accent_langs = np.array(
            [li for li in _ACCENT_LANGS], dtype=np.int64)

    # ------------------------------------------------------------------ rules

    def _rule_stage(self, texts: list[str]):
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

    # ---------------------------------------------------------------- scoring

    def _score_group(self, cleaned: CharBatch, rows: np.ndarray,
                     cand: np.ndarray, ns: list[int], with_unigrams: bool):
        """N-gram Naive-Bayes scoring for one row group.

        rows: global row indices; cand: (len(rows), NUM_LANGUAGES) bool.
        Returns (totals float64[g, L], unigram counts int64[g, L]).

        Per order k the group's distinct k-grams are probed once against
        every language (:meth:`NgramModels.lookup_all_languages`).  A parent
        map sends each distinct k-gram to its (k−1)-prefix, so the backoff
        resolves on the distinct sets: per language, each distinct k-gram
        gets the ln f and level of its longest prefix the language stores.
        A deduplicated (row, n0) window then costs one gather, and one
        bincount keyed by (row, level) keeps the reference's summation
        order: per level in (row, hash) order, levels from n0 down to 1.
        The parent map assumes no 64-bit hash collision among one group's
        k-grams of the same length (the model build already merges such
        keys).
        """
        g = len(rows)
        totals = np.zeros((g, C.NUM_LANGUAGES), dtype=np.float64)
        unicnt = np.zeros((g, C.NUM_LANGUAGES), dtype=np.int64)
        if g == 0:
            return totals, unicnt

        # Rows with equal candidate sets side by side: a language's
        # candidate windows are then a few contiguous runs.  Sums stay per
        # row, so the row order changes no bit of the result.
        perm = np.lexsort(cand.T)
        rows, cand = rows[perm], cand[perm]
        sub = _gather_rows(cleaned, rows)
        max_n = max(ns)
        H = rolling_hashes(sub.cps, max_n)
        valid = valid_window_starts(sub, max_n)
        row_id = sub.row_ids()

        # Per order k: the parent map D_k -> D_{k-1} of the distinct
        # k-grams D_k, the distinct (row, k-gram) windows with each row's
        # offset among them, and per language its hits as (rank in D_k, ln f).
        parent, windows, hits = {}, {}, {}
        prev_rank = None
        for k in range(1, max_n + 1):
            starts = valid[k - 1]
            D, rank = np.unique(H[k - 1][starts], return_inverse=True)
            if k == 1:
                n_unigrams = len(D)
            else:
                parent[k] = np.empty(len(D), dtype=np.int64)
                parent[k][rank] = prev_rank[starts]
            prev_rank = np.empty(len(sub.cps), dtype=np.int64)
            prev_rank[starts] = rank
            if k in ns:
                w_row, w_rank = _distinct_windows(row_id[starts], rank, len(D))
                windows[k] = (w_row, w_rank,
                              np.searchsorted(w_row, np.arange(g + 1)))
            pos, hit_lang, freq = self.models.lookup_all_languages(k, D)
            by_lang = np.argsort(hit_lang, kind="stable")
            bounds = np.searchsorted(hit_lang[by_lang],
                                     np.arange(C.NUM_LANGUAGES + 1))
            hits[k] = (bounds, pos[by_lang],
                       np.log(freq[by_lang].astype(np.float64)))

        cjk_set = set(_CJK_BOOST_LANGS.tolist())
        for lang in np.flatnonzero(cand.any(axis=0)):
            # [start, end) row ranges where the language is a candidate
            runs = np.flatnonzero(np.diff(cand[:, lang], prepend=False,
                                          append=False)).reshape(-1, 2)
            # best[k] = (ln f, level) of each distinct k-gram's longest
            # stored prefix; level 0 (ln f 0) where no prefix is stored.
            best = {}
            lnf = np.zeros(n_unigrams, dtype=np.float64)
            level = np.zeros(n_unigrams, dtype=np.int8)
            for k in range(1, max_n + 1):
                if k > 1:
                    lnf, level = lnf[parent[k]], level[parent[k]]
                bounds, pos, logf = hits[k]
                lo, hi = bounds[lang], bounds[lang + 1]
                lnf[pos[lo:hi]] = logf[lo:hi]
                level[pos[lo:hi]] = k
                best[k] = (lnf, level)
            for n0 in ns:
                lnf, level = best[n0]
                w_row, w_rank, w_off = windows[n0]
                spans = [slice(w_off[a], w_off[b]) for a, b in runs]
                p_row = np.concatenate([w_row[s] for s in spans])
                p_rank = np.concatenate([w_rank[s] for s in spans])
                p_level = level[p_rank]
                per_level = np.bincount(
                    p_row * (n0 + 1) + p_level, weights=lnf[p_rank],
                    minlength=g * (n0 + 1)).reshape(g, n0 + 1)
                logsum = np.zeros(g, dtype=np.float64)
                for k in range(n0, 0, -1):
                    logsum += per_level[:, k]
                if with_unigrams and n0 == 1:
                    unicnt[:, lang] = np.bincount(p_row[p_level == 1],
                                                  minlength=g)
                if lang in cjk_set:
                    logsum *= 0.85  # LanguageDetector.kt:577-586
                totals[:, lang] += logsum

        # unigram-count division (LanguageDetector.kt:353-371)
        div = unicnt > 0
        totals = np.where(div, totals / np.where(div, unicnt, 1), totals)
        back = np.empty_like(perm)
        back[perm] = np.arange(g)
        return totals[back], unicnt[back]

    # ------------------------------------------------------------------ main

    def detect(self, texts: list[str],
               with_ppl: bool = False,
               with_matrix: bool = False) -> dict[str, np.ndarray]:
        """Detect languages for a batch.  Returns columns:

        lang (int16, C.UNKNOWN for unknown), conf1, conf2 (float64),
        n_values (int32 — number of confidence entries), and with
        ``with_ppl`` also ppl (char-trigram perplexity under the winning
        language, computed on the same cleaned batch — no re-cleaning).
        """
        cfg = self.config
        n_rows = len(texts)
        lang = np.full(n_rows, C.UNKNOWN, dtype=np.int16)
        conf1 = np.zeros(n_rows, dtype=np.float64)
        conf2 = np.zeros(n_rows, dtype=np.float64)
        n_values = np.zeros(n_rows, dtype=np.int32)

        conf_matrix = (np.zeros((n_rows, C.NUM_LANGUAGES), dtype=np.float64)
                       if with_matrix else None)

        cleaned = clean_batch(texts)
        clen = cleaned.row_lengths()
        letters_per_row = np.bincount(
            cleaned.row_ids()[IS_LETTER[cleaned.cps]], minlength=n_rows
        ) if len(cleaned.cps) else np.zeros(n_rows, dtype=np.int64)
        viable = (clen > 0) & (letters_per_row > 0)

        rule_lang, cand = self._rule_stage(texts)
        rule_hit = (rule_lang >= 0) & viable
        lang[rule_hit] = rule_lang[rule_hit]
        conf1[rule_hit] = 1.0
        n_values[rule_hit] = 1
        if conf_matrix is not None:
            conf_matrix[np.flatnonzero(rule_hit),
                        rule_lang[rule_hit].astype(np.int64)] = 1.0

        # single-candidate short-circuit (LanguageDetector.kt:241-244)
        open_rows = viable & ~rule_hit
        ncand = cand.sum(axis=1)
        single_cand = open_rows & (ncand == 1)
        if single_cand.any():
            only = cand[single_cand].argmax(axis=1)
            lang[single_cand] = only.astype(np.int16)
            conf1[single_cand] = 1.0
            n_values[single_cand] = 1
            if conf_matrix is not None:
                conf_matrix[np.flatnonzero(single_cand), only] = 1.0
        open_rows &= ~single_cand

        if cfg.low_accuracy:
            open_rows &= clen >= 3

        long_rows = np.flatnonzero(
            open_rows & ((clen >= C.HIGH_ACCURACY_MODE_MAX_TEXT_LENGTH)
                         | cfg.low_accuracy))
        short_rows = np.flatnonzero(
            open_rows & (clen < C.HIGH_ACCURACY_MODE_MAX_TEXT_LENGTH)
            & ~cfg.low_accuracy)

        for rows, ns, with_uni in (
            (long_rows, [3], False),
            (short_rows, [1, 2, 3, 4, 5], True),
        ):
            if len(rows) == 0:
                continue
            totals, _ = self._score_group(
                cleaned, rows, cand[rows], ns, with_uni)
            nonzero = totals != 0.0
            any_nz = nonzero.any(axis=1)
            highest = np.where(
                any_nz, np.where(nonzero, totals, -np.inf).max(axis=1), 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                confs = np.where(nonzero, highest[:, None] / totals, 0.0)
            v1 = confs.max(axis=1)
            a1 = confs.argmax(axis=1)
            c2m = confs.copy()
            c2m[np.arange(len(rows)), a1] = -1.0
            v2 = np.maximum(c2m.max(axis=1), 0.0)
            nv = nonzero.sum(axis=1).astype(np.int32)

            decided_lang = np.where(
                (nv == 1)
                | ((v1 != v2) & ((v1 - v2) >= cfg.minimum_relative_distance)),
                a1, C.UNKNOWN).astype(np.int16)
            decided_lang = np.where(any_nz, decided_lang, C.UNKNOWN)
            lang[rows] = decided_lang
            conf1[rows] = np.where(any_nz, v1, 0.0)
            conf2[rows] = np.where(nv > 1, v2, 0.0)
            n_values[rows] = nv
            if conf_matrix is not None:
                conf_matrix[rows] = confs

        out = {
            "lang": lang,
            "conf1": conf1,
            "conf2": conf2,
            "n_values": n_values,
        }
        if with_ppl:
            out["ppl"] = self._perplexity_from_cleaned(cleaned, lang)
        if conf_matrix is not None:
            out["conf_matrix"] = conf_matrix
        return out

    def confidence_values(self, text: str) -> list[tuple[int, float]]:
        """Full descending (lang, confidence) list for one text — the batch
        analogue of ``computeLanguageConfidenceValues``."""
        m = self.detect([text], with_matrix=True)["conf_matrix"][0]
        nz = np.flatnonzero(m)
        order = nz[np.lexsort((nz, -m[nz]))]
        return [(int(i), float(m[i])) for i in order]

    # ------------------------------------------------------------ perplexity

    def _perplexity_from_cleaned(self, cleaned: CharBatch,
                                 langs: np.ndarray) -> np.ndarray:
        n_rows = len(cleaned.offsets) - 1
        ppl = np.full(n_rows, np.nan, dtype=np.float64)
        for lang in np.unique(langs):
            if lang >= C.UNKNOWN or lang < 0:
                continue
            rows = np.flatnonzero(langs == lang)
            logsum, count = self._lang_trigram_stats(cleaned, rows, int(lang))
            ok = count > 0
            ppl[rows[ok]] = np.exp(-logsum[ok] / count[ok])
        return ppl

    def trigram_perplexity(self, texts: list[str],
                           langs: np.ndarray) -> np.ndarray:
        """Char-trigram perplexity of each text under its assigned language.

        KenLM-style stand-in built from the same n-gram tables (SURVEY.md §2.3
        T3): ppl = exp(−mean ln P(trigram)) over the text's distinct trigrams,
        with the reference's 3→2→1 backoff on misses.  Rows with UNKNOWN
        language or no trigrams get NaN.
        """
        return self._perplexity_from_cleaned(clean_batch(texts),
                                             np.asarray(langs))

    def _lang_trigram_stats(self, cleaned: CharBatch, rows: np.ndarray,
                            lang: int):
        g = len(rows)
        sub = _gather_rows(cleaned, rows)

        logsum = np.zeros(g, dtype=np.float64)
        count = np.zeros(g, dtype=np.int64)
        n = 3
        H = rolling_hashes(sub.cps, n)
        starts = valid_window_starts(sub, n)[n - 1]
        if len(starts) == 0:
            return logsum, count
        D, rank = np.unique(H[n - 1][starts], return_inverse=True)
        p_row, p_rank = _distinct_windows(sub.row_ids()[starts], rank, len(D))
        # prefix[k - 1][d] = hash of distinct trigram d's k-prefix (the
        # parent map of _score_group, as hashes).
        prefix = [np.empty(len(D), dtype=np.uint64) for _ in range(n - 1)]
        for k in range(1, n):
            prefix[k - 1][rank] = H[k - 1][starts]
        prefix.append(D)
        count = np.bincount(p_row, minlength=g)
        for k in range(n, 0, -1):
            if len(p_rank) == 0:
                break
            f = self.models.lookup_hashes(lang, k, prefix[k - 1][p_rank])
            hit = f > 0
            if hit.any():
                logsum += np.bincount(p_row[hit], weights=np.log(f[hit]),
                                      minlength=g)
            p_rank, p_row = p_rank[~hit], p_row[~hit]
        if len(p_rank):
            # Trigrams that miss at every backoff level are OUT of the
            # language's vocabulary: charge the OOV floor instead of the
            # implicit ln P = 0, which would hand all-OOV gibberish the
            # best possible perplexity (1.0) and defeat the ppl keep-gate.
            logsum += _OOV_LOG_P * np.bincount(p_row, minlength=g)
        return logsum, count
