from .langid import LangIdScorer, map_langid, score_langid
from .quality import quality_batch, QUALITY_FLAG_NAMES
from .scrub import scrub_batch, PII_PATTERNS, TOX_PATTERN
from .keep import keep_batch, DEFAULT_PPL_THRESHOLD

__all__ = [
    "LangIdScorer", "map_langid", "score_langid", "quality_batch", "QUALITY_FLAG_NAMES",
    "scrub_batch", "PII_PATTERNS", "TOX_PATTERN",
    "keep_batch", "DEFAULT_PPL_THRESHOLD",
]
