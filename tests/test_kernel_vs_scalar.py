"""Row-for-row equivalence between the vectorized kernel and the scalar
transcription of the reference algorithm, over a diverse corpus sample."""

import numpy as np
import pytest

from conftest import needs_corpus
from lingua_ray import constants as C
from lingua_ray import models as M
from lingua_ray import reference_impl as ref
from lingua_ray.kernel import Detector, DetectorConfig


@pytest.fixture(scope="session")
def models():
    M.ensure_models()
    return M.NgramModels()


@pytest.fixture(scope="session")
def detector(models):
    return Detector(models)


def sample_texts() -> list[str]:
    """A deterministic slice of the reference corpus plus edge cases."""
    rng = np.random.RandomState(42)
    texts = []
    for iso1 in ("en", "de", "fr", "zh", "ja", "ru", "ar", "th", "vi", "el",
                 "ko", "hi", "tr", "pl", "he", "es"):
        for cat in M.CORPUS_CATEGORIES:
            path = M.CORPUS_DIR / cat / f"{iso1}.txt"
            lines = path.read_text(encoding="utf-8").splitlines()
            picks = rng.choice(len(lines), size=6, replace=False)
            texts.extend(lines[i] for i in picks)
    texts += [
        "", " \n  \t;", "3<856%)§", "проарплап", "house",
        "上海大学是一个好大学 this is a sentence",
        "Weltweit    gibt es ungefähr 6.000 Sprachen.",
        "this is a short test",
        "a",
        "ab",
        "groß",
        "ヴェダイヤモンド",
        "사랑해요",
        "x" * 200,  # long-text trigram-only path
        ("this is a very long english sentence that easily exceeds the one "
         "hundred and twenty character cutoff used by the high accuracy mode "
         "so the detector only scores trigrams here"),
        "email me at foo@bar.com, call +1 555 0199!",
        "mixed латиница and кириллица in one line",
    ]
    return texts


def scalar_labels(texts, models, low_accuracy=False, languages=None):
    lookup = models.freq_of_str
    out = []
    for t in texts:
        out.append(ref.detect_language(t, lookup, languages=languages,
                                       low_accuracy=low_accuracy))
    return np.array(out, dtype=np.int16)


@needs_corpus
def test_kernel_matches_scalar_high_accuracy(models, detector):
    texts = sample_texts()
    got = detector.detect(texts)["lang"]
    want = scalar_labels(texts, models)
    mism = np.flatnonzero(got != want)
    detail = [
        (texts[i][:40], C.LANGUAGE_NAMES[got[i]] if got[i] < C.UNKNOWN else "UN",
         C.LANGUAGE_NAMES[want[i]] if want[i] < C.UNKNOWN else "UN")
        for i in mism[:10]
    ]
    assert len(mism) == 0, detail


@needs_corpus
def test_kernel_matches_scalar_low_accuracy(models):
    texts = sample_texts()
    det = Detector(models, DetectorConfig(low_accuracy=True))
    got = det.detect(texts)["lang"]
    want = scalar_labels(texts, models, low_accuracy=True)
    mism = np.flatnonzero(got != want)
    assert len(mism) == 0, [(texts[i][:40], got[i], want[i]) for i in mism[:10]]


@needs_corpus
def test_kernel_matches_scalar_language_subset(models):
    texts = sample_texts()
    cfg = DetectorConfig.from_iso1(["en", "de"])
    det = Detector(models, cfg)
    got = det.detect(texts)["lang"]
    langs = {C.ISO1_INDEX["en"], C.ISO1_INDEX["de"]}
    want = scalar_labels(texts, models, languages=langs)
    mism = np.flatnonzero(got != want)
    assert len(mism) == 0, [(texts[i][:40], got[i], want[i]) for i in mism[:10]]


def test_no_letter_rows_unknown(detector):
    res = detector.detect(["", " \n  \t;", "3<856%)§"])
    assert (res["lang"] == C.UNKNOWN).all()
    assert (res["n_values"] == 0).all()


@needs_corpus
def test_determinism(detector):
    texts = sample_texts()
    a = detector.detect(texts)
    for _ in range(3):
        b = detector.detect(texts)
        assert (a["lang"] == b["lang"]).all()
        assert np.array_equal(a["conf1"], b["conf1"])
