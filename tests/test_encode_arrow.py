"""``chartables.encode_arrow`` (Arrow UTF-8 → codepoints) against
``encode_batch`` over Python strings, on the layouts Ray Data hands the
kernel, and its refusal of invalid UTF-8."""

import numpy as np
import pyarrow as pa
import pytest

from lingua_ray.chartables import encode_arrow, encode_batch

TEXTS = ["hello", "", None, "naïve café", "日本語のテキスト", "😀🎉 emoji",
         "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 \U0010ffff", None, "ascii only", "ß́", ""]


def _want(texts):
    return encode_batch(["" if t is None else t for t in texts])


def _assert_same(col, texts):
    got, want = encode_arrow(col), _want(texts)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_matches_encode_batch(typ):
    _assert_same(pa.array(TEXTS, typ), TEXTS)
    _assert_same(pa.chunked_array([pa.array(TEXTS[:4], typ),
                                   pa.array(TEXTS[4:], typ)]), TEXTS)
    ascii_ = ["abc", None, "", "de f"]
    _assert_same(pa.array(ascii_, typ), ascii_)


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_sliced_array(typ):
    arr = pa.array(TEXTS, typ)
    for lo, hi in [(3, 7), (4, 5), (5, len(TEXTS)), (1, 3), (2, 2)]:
        sl = arr.slice(lo, hi - lo)
        assert sl.offset == lo
        _assert_same(sl, TEXTS[lo:hi])


def test_nulls_and_null_type():
    _assert_same(pa.array([None, None], pa.string()), [None, None])
    cps, offs = encode_arrow(pa.nulls(3))
    assert cps.dtype == np.int32 and len(cps) == 0
    np.testing.assert_array_equal(offs, [0, 0, 0, 0])
    cps, offs = encode_arrow(pa.array([], pa.string()))
    assert len(cps) == 0 and offs.tolist() == [0]


def _from_bytes(rows: list[bytes]) -> pa.Array:
    offs = np.zeros(len(rows) + 1, np.int32)
    np.cumsum([len(r) for r in rows], out=offs[1:])
    return pa.Array.from_buffers(pa.string(), len(rows),
                                 [None, pa.py_buffer(offs.tobytes()),
                                  pa.py_buffer(b"".join(rows))])


@pytest.mark.parametrize("rows", [
    [b"ok", b"bad \xff byte"],
    [b"caf\xc3", b"trunc"],             # sequence cut at the buffer's end
    [b"surrogate \xed\xa0\x80"],
    [b"overlong \xc0\xaf"],
    [b"a\xc3", b"\xa9b"],               # valid bytes, split across two rows
])
def test_invalid_utf8_raises(rows):
    with pytest.raises(UnicodeDecodeError):
        encode_arrow(_from_bytes(rows))
    # the valid parts of the same layout decode
    _assert_same(_from_bytes([b"a", "é".encode()]), ["a", "é"])
