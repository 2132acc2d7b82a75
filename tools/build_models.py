"""Build the n-gram model artifact (idempotent, deterministic).

The Ray analogue of the reference's ``createLanguageModels`` Gradle task
(``GenerateLanguageModelsTask.kt``): trains unigram..fivegram conditional
frequencies per language from the reference's accuracy-report corpus and
writes flat sorted-array ``.npy`` files for mmap loading by workers.

Usage: python tools/build_models.py [--force]
"""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from lingua_ray.models import DEFAULT_MODEL_DIR, ensure_models  # noqa: E402

if __name__ == "__main__":
    if "--force" in sys.argv:
        shutil.rmtree(DEFAULT_MODEL_DIR, ignore_errors=True)
    path = ensure_models()
    n_files = len(list(path.glob("*.npy")))
    size = sum(f.stat().st_size for f in path.glob("*")) / 1e6
    print(f"models ready at {path} ({n_files} arrays, {size:.1f} MB)")
