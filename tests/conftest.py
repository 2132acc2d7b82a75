import numpy as np
import pytest

from lingua_ray import models as M

# Tests that score real languages need models trained from the accuracy
# corpus; they run wherever it is installed.
needs_corpus = pytest.mark.skipif(
    not M.corpus_has_text(),
    reason=f"needs the accuracy corpus at {M.CORPUS_DIR}")


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True)
    yield ray
    ray.shutdown()


def _script_pool(script: str) -> np.ndarray:
    from lingua_ray import constants as C
    from lingua_ray.chartables import IS_LETTER, SCRIPT_ID

    bmp = np.arange(0x10000)
    sid = C.SCRIPT_INDEX[script]
    return bmp[IS_LETTER[:0x10000] & (SCRIPT_ID[:0x10000] == sid)]


def _write_corpus(root, seed: int = 7) -> dict[int, list[str]]:
    """Per language: a seeded alphabet from its scripts (plus its unique
    characters), a 30-word vocabulary, and single-word, word-pair and
    sentence files in the accuracy-corpus layout.  Returns the vocabularies."""
    from lingua_ray import constants as C

    rng = np.random.default_rng(seed)
    pools = {s: _script_pool(s) for s in C.SCRIPT_INDEX}
    vocab = {}
    for li, iso1 in enumerate(C.ISO1_CODES):
        pool = np.concatenate([pools[s] for s in C.LANG_SCRIPTS[li]])
        letters = [chr(c) for c in rng.choice(pool, size=min(12, len(pool)),
                                             replace=False)]
        letters += list(C.UNIQUE_CHARS[li] or "")
        words = ["".join(rng.choice(letters, size=int(rng.integers(1, 7))))
                 for _ in range(30)]
        vocab[li] = words
        lines = {
            "single-words": words,
            "word-pairs": [" ".join(rng.choice(words, size=2))
                           for _ in range(20)],
            "sentences": [" ".join(rng.choice(words,
                                              size=int(rng.integers(3, 9))))
                          for _ in range(20)],
        }
        for cat, rows in lines.items():
            (root / cat).mkdir(parents=True, exist_ok=True)
            (root / cat / f"{iso1}.txt").write_text(
                "\n".join(rows) + "\n", encoding="utf-8")
    return vocab


@pytest.fixture(scope="session")
def synthetic_model(tmp_path_factory):
    """(model_dir, vocab): a model artifact trained with
    ``build_model_artifact`` from a small seeded corpus written here, and
    each language's vocabulary (by language index).  Needs no training
    corpus."""
    from lingua_ray.models import build_model_artifact

    root = tmp_path_factory.mktemp("synthetic")
    vocab = _write_corpus(root / "corpus")
    build_model_artifact(root / "model", root / "corpus")
    return root / "model", vocab
