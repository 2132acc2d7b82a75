"""VP8L (lossless WebP) codec: encoder-oracle round-trips must be
BIT-EXACT (the format is lossless) across every transform, packing
width, the color cache, LZ77 backrefs and the meta-Huffman path, plus
malformed-stream rejection and decode_image integration."""

import numpy as np
import pytest

from lingua_ray.stages.vp8l import (decode_webp, decode_webp_pixels,
                                    encode_vp8l)


def _img(h, w, seed=3):
    return np.random.RandomState(seed).randint(0, 256, (h, w, 3),
                                               dtype=np.uint8)


def _rt(img, **kw):
    out = decode_webp_pixels(encode_vp8l(img, **kw))
    assert out is not None
    want = img[..., :3] if img.ndim == 3 else np.stack([img] * 3, -1)
    assert out.shape == want.shape
    assert (out == want).all()


def test_plain_literals_roundtrip():
    _rt(_img(11, 13))
    _rt(_img(1, 1))
    _rt(_img(1, 40))
    _rt(_img(40, 1))


@pytest.mark.parametrize("mode", list(range(14)))
def test_predictor_modes_roundtrip(mode):
    _rt(_img(14, 9, seed=mode), transform="predictor",
        predictor_mode=mode)


def test_subtract_green_and_color_transform():
    _rt(_img(10, 17), transform="subtract_green")
    _rt(_img(10, 17), transform="color", cte=(23, 200, 133))
    _rt(_img(10, 17), transform="color", cte=(255, 1, 128))


@pytest.mark.parametrize("ncol", [2, 3, 4, 9, 16, 17, 200, 256])
def test_palette_all_packing_widths(ncol):
    rng = np.random.RandomState(ncol)
    pal = rng.randint(0, 256, (ncol, 3), dtype=np.uint8)
    # force exactly ncol distinct colors so the packing width is exercised
    idx = np.concatenate([np.arange(ncol),
                          rng.randint(0, ncol, 16 * 17 - ncol)])
    _rt(pal[idx.reshape(16, 17)], transform="palette")


def test_color_cache_and_backrefs():
    rng = np.random.RandomState(7)
    # few distinct colors -> cache hits are frequent
    pal = rng.randint(0, 256, (5, 3), dtype=np.uint8)
    img = pal[rng.randint(0, 5, (12, 18))]
    _rt(img, cache_bits=4)
    _rt(img, cache_bits=11)
    # repeated rows -> row-level LZ77 backrefs (with and without cache)
    img2 = np.repeat(_img(4, 18, seed=8), 5, axis=0)
    _rt(img2, backref_rows=True)
    _rt(img2, backref_rows=True, cache_bits=6)


def test_meta_huffman_path():
    _rt(_img(20, 20, seed=11), use_meta=True)


def test_rgba_alpha_dropped_rgb_exact():
    rng = np.random.RandomState(13)
    rgba = rng.randint(0, 256, (7, 9, 4), dtype=np.uint8)
    out = decode_webp_pixels(encode_vp8l(rgba))
    assert (out == rgba[..., :3]).all()


def test_decode_webp_summary_contract():
    img = _img(6, 8)
    w, h, luma = decode_webp(encode_vp8l(img))
    assert (w, h) == (8, 6)
    want = (img.reshape(-1, 3).astype(np.float64)
            @ np.array([0.299, 0.587, 0.114])).mean() / 255.0
    assert abs(luma - want) < 1e-12


def test_malformed_streams_return_none():
    p = encode_vp8l(_img(9, 9))
    assert decode_webp_pixels(p) is not None
    for cut in (10, 21, len(p) - 3):
        assert decode_webp_pixels(p[:cut]) is None
    assert decode_webp_pixels(b"RIFF\x00\x00\x00\x00WEBP") is None
    assert decode_webp_pixels(b"") is None
    # lossy VP8 chunk stays the documented boundary
    lossy = (b"RIFF" + (20).to_bytes(4, "little") + b"WEBP"
             + b"VP8 " + (8).to_bytes(4, "little") + bytes(8))
    assert decode_webp_pixels(lossy) is None
    # reserved version bits must be zero
    body = bytearray(p)
    # VP8L payload starts at offset 20 (RIFF hdr 12 + chunk hdr 8);
    # version bits are bits 29-31 of the post-signature stream
    body[20 + 1 + 3] |= 0x40
    assert decode_webp_pixels(bytes(body)) is None
