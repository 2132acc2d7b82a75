"""Multi-language section detection tests (reference's experimental
detectMultiLanguageOf — golden section structure, not model-dependent
confidence strings)."""

import pytest

from conftest import needs_corpus
from lingua_ray import constants as C
from lingua_ray import models as M
from lingua_ray.kernel import Detector
from lingua_ray.multilang import (MultiLanguageDetector,
                                  split_potential_sections,
                                  is_potential_language_boundary)


@pytest.fixture(scope="module")
def ml():
    M.ensure_models()
    return MultiLanguageDetector(Detector(M.NgramModels()))


def test_boundary_chars():
    assert is_potential_language_boundary(":", "a", "b")
    assert is_potential_language_boundary("\n", "a", "b")
    assert is_potential_language_boundary('"', "a", "b")
    assert is_potential_language_boundary("«", "a", "b")
    # apostrophe between letters is NOT a boundary
    assert not is_potential_language_boundary("'", "a", "b")
    assert is_potential_language_boundary("'", " ", "b")
    assert not is_potential_language_boundary("x", "a", "b")
    assert not is_potential_language_boundary(" ", "a", "b")


def test_split_script_change():
    text = "hello world Привет мир"
    secs = split_potential_sections(text)
    assert len(secs) == 2
    # script-change close uses the new-script char index, so the intermediate
    # space belongs to the first section (MultiLanguageDetection.kt:205-208)
    assert secs[0].text == "hello world "
    assert secs[1].text == "Привет мир"


def test_split_min_letters():
    # short runs don't split (min 3 letters), logograms always can
    secs = split_potential_sections("ab Я")
    assert len(secs) == 1


@needs_corpus
def test_detect_two_languages(ml):
    text = ("this is a longer english sentence about the weather today. "
            "Привет как дела сегодня в москве очень холодно")
    sections = ml.detect(text)
    langs = [C.ISO1_CODES[s.language] if s.language < C.UNKNOWN else "un"
             for s in sections]
    assert "en" in langs
    assert any(l in ("ru", "uk", "bg", "be", "sr", "mk") for l in langs)
    # sections cover disjoint, increasing ranges
    for a, b in zip(sections, sections[1:]):
        assert a.end <= b.start
    # russian section should be exactly russian
    ru = [s for s in sections
          if s.language < C.UNKNOWN and C.ISO1_CODES[s.language] == "ru"]
    assert ru and "Привет" in ru[0].section_text


@needs_corpus
def test_detect_cjk_and_latin(ml):
    text = "上海大学是一个很好的大学 this is clearly an english sentence here"
    sections = ml.detect(text)
    assert len(sections) >= 2
    langs = {C.ISO1_CODES[s.language] for s in sections
             if s.language < C.UNKNOWN}
    assert "zh" in langs
    assert "en" in langs


@needs_corpus
def test_single_language_single_section(ml):
    sections = ml.detect("this is just one english sentence with many words")
    assert len(sections) == 1
    assert C.ISO1_CODES[sections[0].language] == "en"


def test_empty_and_no_letters(ml):
    assert ml.detect("") == []
    assert ml.detect("12345 !!! ???") == []


def test_api_surface():
    from lingua_ray.api import LanguageDetectorBuilder
    det = LanguageDetectorBuilder.from_all_languages().build()
    sections = det.detect_multi_language_of(
        "short english text here. Привет как дела сегодня")
    assert len(sections) >= 1
