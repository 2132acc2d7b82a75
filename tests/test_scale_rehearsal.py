"""``tools/scale_rehearsal.py``: the word rotation that expands documents."""

import importlib.util
from pathlib import Path

import pyarrow as pa

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_rehearsal.py"


def _tool():
    spec = importlib.util.spec_from_file_location("scale_rehearsal", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_rotate_words_null_text():
    texts = pa.chunked_array([["a b c", None], ["", "x y"]])
    rotate = _tool()._rotate_words
    for rep, want in ((0, ["a b c", "", "", "x y"]),
                      (1, ["b c a", "", "", "y x"]),
                      (2, ["c a b", "", "", "x y"])):
        assert rotate(texts, rep).to_pylist() == want
