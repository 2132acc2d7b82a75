"""User-facing API mirroring the reference's builder surface
(``api/LanguageDetectorBuilder.kt:176-278``), so a user of the reference can
switch with the same configuration vocabulary.

The JVM-specific knobs map as follows (SURVEY.md §2.9):

* ``with_preloaded_language_models`` — the models load once per process
  (``models.get_models``) and each worker keeps its langid scorer across
  batches; kept as a no-op for API compatibility.
* ``with_executor`` — superseded by Ray (``concurrency=`` / ``num_cpus=`` on
  ``map_batches``); not exposed.
* ``with_increased_detection_speed`` — moot (lookups are vectorized
  searchsorted); kept as a no-op flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants as C
from .kernel import Detector, DetectorConfig
from .models import get_models


@dataclass
class LanguageDetectorBuilder:
    _languages: list[int] = field(default_factory=list)
    _minimum_relative_distance: float = 0.0
    _low_accuracy: bool = False

    # ---- from_* constructors (LanguageDetectorBuilder.kt:176-278) ----

    @classmethod
    def from_all_languages(cls) -> "LanguageDetectorBuilder":
        return cls(list(range(C.NUM_LANGUAGES)))

    @classmethod
    def from_all_spoken_languages(cls) -> "LanguageDetectorBuilder":
        return cls([i for i in range(C.NUM_LANGUAGES)
                    if C.LANGUAGE_NAMES[i] != "LATIN"])

    @classmethod
    def from_all_languages_with_latin_script(cls) -> "LanguageDetectorBuilder":
        return cls([i for i in range(C.NUM_LANGUAGES)
                    if "LATIN" in C.LANG_SCRIPTS[i]])

    @classmethod
    def from_all_languages_with_arabic_script(cls) -> "LanguageDetectorBuilder":
        return cls([i for i in range(C.NUM_LANGUAGES)
                    if "ARABIC" in C.LANG_SCRIPTS[i]])

    @classmethod
    def from_all_languages_with_cyrillic_script(cls) -> "LanguageDetectorBuilder":
        return cls([i for i in range(C.NUM_LANGUAGES)
                    if "CYRILLIC" in C.LANG_SCRIPTS[i]])

    @classmethod
    def from_all_languages_with_devanagari_script(cls) -> "LanguageDetectorBuilder":
        return cls([i for i in range(C.NUM_LANGUAGES)
                    if "DEVANAGARI" in C.LANG_SCRIPTS[i]])

    @classmethod
    def from_all_languages_without(cls, *names: str) -> "LanguageDetectorBuilder":
        excluded = {C.LANG_INDEX[n.upper()] for n in names}
        langs = [i for i in range(C.NUM_LANGUAGES) if i not in excluded]
        if len(langs) < 2:
            raise ValueError("LanguageDetector needs at least 2 languages")
        return cls(langs)

    @classmethod
    def from_languages(cls, *names: str) -> "LanguageDetectorBuilder":
        langs = sorted({C.LANG_INDEX[n.upper()] for n in names})
        if len(langs) < 2:
            raise ValueError("LanguageDetector needs at least 2 languages")
        return cls(langs)

    @classmethod
    def from_iso_codes_639_1(cls, *codes: str) -> "LanguageDetectorBuilder":
        langs = sorted({C.ISO1_INDEX[c.lower()] for c in codes})
        if len(langs) < 2:
            raise ValueError("LanguageDetector needs at least 2 languages")
        return cls(langs)

    @classmethod
    def from_iso_codes_639_3(cls, *codes: str) -> "LanguageDetectorBuilder":
        idx = {c: i for i, c in enumerate(C.ISO3_CODES)}
        langs = sorted({idx[c.lower()] for c in codes})
        if len(langs) < 2:
            raise ValueError("LanguageDetector needs at least 2 languages")
        return cls(langs)

    # ---- with_* options (LanguageDetectorBuilder.kt:72-144) ----

    def with_minimum_relative_distance(self, d: float) -> "LanguageDetectorBuilder":
        if not (0.0 <= d <= 0.99):
            raise ValueError(
                "minimum relative distance must lie in between 0.0 and 0.99")
        self._minimum_relative_distance = d
        return self

    def with_low_accuracy_mode(self) -> "LanguageDetectorBuilder":
        self._low_accuracy = True
        return self

    def with_preloaded_language_models(self) -> "LanguageDetectorBuilder":
        return self  # models load once per process and stay loaded

    def with_increased_detection_speed(self) -> "LanguageDetectorBuilder":
        return self  # lookups are already vectorized

    def build(self) -> "LanguageDetector":
        mask = np.zeros(C.NUM_LANGUAGES, dtype=bool)
        mask[self._languages] = True
        cfg = DetectorConfig(
            languages=mask,
            minimum_relative_distance=self._minimum_relative_distance,
            low_accuracy=self._low_accuracy)
        return LanguageDetector(Detector(get_models(), cfg))


class LanguageDetector:
    """Single-process convenience API over the batch kernel (the Ray path
    runs :func:`lingua_ray.stages.langid.score_langid` tasks)."""

    def __init__(self, detector: Detector):
        self._detector = detector

    def detect_language_of(self, text: str) -> str:
        """ISO 639-1 code, or "un" for unknown."""
        return self.detect_languages_of([text])[0]

    def detect_languages_of(self, texts: list[str]) -> list[str]:
        res = self._detector.detect(list(texts))
        iso = list(C.ISO1_CODES) + [C.UNKNOWN_CODE]
        return [iso[i] for i in res["lang"]]

    def compute_language_confidence_values(
            self, text: str) -> list[tuple[str, float]]:
        """Descending (iso1, confidence) pairs — top language is 1.0.

        Reference: ``computeLanguageConfidenceValues``
        (api/LanguageDetector.kt:215-217).  Computed via the scalar path for
        exactness of the full distribution.
        """
        from .reference_impl import compute_confidence_values
        models = self._detector.models
        values = compute_confidence_values(
            text, models.freq_of_str,
            languages=set(np.flatnonzero(self._detector.config.languages)),
            low_accuracy=self._detector.config.low_accuracy)
        return [(C.ISO1_CODES[lang], conf) for lang, conf in values]

    def detect_multi_language_of(self, text: str):
        """Sections of a mixed-language text — the reference's experimental
        ``detectMultiLanguageOf`` (api/LanguageDetector.kt:187-191)."""
        from .multilang import MultiLanguageDetector
        return MultiLanguageDetector(self._detector).detect(text)

    def unload_language_models(self) -> None:
        pass  # models are mmap-backed; the page cache handles this
