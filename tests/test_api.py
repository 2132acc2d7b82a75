"""Builder/API surface parity tests (LanguageDetectorBuilderTest semantics)."""

import pytest

from conftest import needs_corpus
from lingua_ray import constants as C
from lingua_ray.api import LanguageDetectorBuilder


def test_builder_validation():
    with pytest.raises(ValueError):
        LanguageDetectorBuilder.from_languages("GERMAN")
    with pytest.raises(ValueError):
        LanguageDetectorBuilder.from_iso_codes_639_1("en")
    with pytest.raises(ValueError):
        LanguageDetectorBuilder.from_all_languages() \
            .with_minimum_relative_distance(1.5)


def test_builder_language_sets():
    b = LanguageDetectorBuilder.from_all_languages()
    assert len(b._languages) == 79
    b = LanguageDetectorBuilder.from_all_spoken_languages()
    assert len(b._languages) == 78
    assert C.LANG_INDEX["LATIN"] not in b._languages
    b = LanguageDetectorBuilder.from_all_languages_without("TURKISH", "ROMANIAN")
    assert len(b._languages) == 77
    b = LanguageDetectorBuilder.from_all_languages_with_cyrillic_script()
    assert set(b._languages) == {
        i for i in range(C.NUM_LANGUAGES) if "CYRILLIC" in C.LANG_SCRIPTS[i]}


def test_detector_basics():
    det = LanguageDetectorBuilder.from_all_languages().build()
    assert det.detect_language_of("σχέδια") == "el"
    assert det.detect_language_of("ヴェダイヤモンド") == "ja"
    assert det.detect_language_of("") == "un"
    assert det.detect_language_of("3<856%)§") == "un"


def test_detector_subset_unknown_when_no_probabilities():
    # LanguageDetectorTest.kt:549-563 — Cyrillic text with only en/de.
    det = LanguageDetectorBuilder.from_iso_codes_639_1("en", "de").build()
    assert det.detect_language_of("проарплап") == "un"
    assert det.compute_language_confidence_values("проарплап") == []


@needs_corpus
def test_confidence_values_sorted():
    det = LanguageDetectorBuilder.from_all_languages().build()
    values = det.compute_language_confidence_values("this is a short test")
    assert values[0][1] == 1.0
    confs = [v for _, v in values]
    assert confs == sorted(confs, reverse=True)


def test_determinism_101_runs():
    # LanguageDetectorTest.kt:565-604 — repeated detection is stable.
    det = LanguageDetectorBuilder.from_iso_codes_639_1("en", "ur").build()
    text = "ام وی با نیکی میناج تیزر داشت؟؟؟؟؟؟ i vote for bts ( _ ) as the _ via ( _ )"
    labels = {det.detect_language_of(text) for _ in range(101)}
    assert len(labels) == 1
