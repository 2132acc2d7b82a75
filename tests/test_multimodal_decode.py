"""Baseline JPEG codec (stages/jpeg.py): encoder-oracle round trips for
sequential, progressive and 12-bit Huffman streams, full pixel decode,
and rejection of malformed or out-of-subset streams."""

import numpy as np


def _jpeg_luma(img: np.ndarray) -> float:
    f = img.astype(np.float64)
    if img.ndim == 3:
        f = f @ np.array([0.299, 0.587, 0.114])
    return float(f.mean() / 255.0)


def test_jpeg_roundtrip_matrix():
    """Encoder-oracle round trip: gray + RGB, 4:4:4 + 4:2:0, with and
    without restart intervals, odd (non-MCU-aligned) sizes."""
    from lingua_ray.stages.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.RandomState(0)
    cases = [
        np.full((16, 16), 200, np.uint8),
        np.tile(np.linspace(0, 255, 37, dtype=np.uint8), (23, 1)),
        rng.randint(0, 256, (24, 31, 3)).astype(np.uint8),
        np.full((10, 7, 3), (30, 180, 90), np.uint8),
    ]
    for img in cases:
        for sub in ([False, True] if img.ndim == 3 else [False]):
            for ri in (0, 2):
                p = encode_jpeg(img, quality=90, subsample=sub,
                                restart_interval=ri)
                out = decode_jpeg(p)
                assert out is not None
                w, h, luma = out
                assert (w, h) == (img.shape[1], img.shape[0])
                assert abs(luma - _jpeg_luma(img)) < 0.02


def test_jpeg_flat_gray_luma_near_exact():
    from lingua_ray.stages.jpeg import decode_jpeg, encode_jpeg

    p = encode_jpeg(np.full((16, 16), 200, np.uint8), quality=90)
    w, h, luma = decode_jpeg(p)
    assert (w, h) == (16, 16)
    assert abs(luma - 200 / 255) < 1e-9


def test_jpeg_rejects_out_of_subset():
    from lingua_ray.stages.jpeg import decode_jpeg, encode_jpeg

    good = encode_jpeg(np.full((8, 8), 99, np.uint8))
    assert decode_jpeg(good) is not None
    # truncated entropy stream
    assert decode_jpeg(good[:-20]) is None
    # SOF2 marker forged onto a sequential stream: the full-band SOS
    # (Ss=0, Se=63) is illegal for a progressive DC scan → None
    prog = good.replace(b"\xff\xc0", b"\xff\xc2", 1)
    assert decode_jpeg(prog) is None
    # arithmetic-coded SOF10 is outside the supported subset -> None
    arith = good.replace(b"\xff\xc0", b"\xff\xca", 1)
    assert decode_jpeg(arith) is None
    # not a JPEG at all
    assert decode_jpeg(b"\x89PNG\r\n\x1a\n") is None


def test_jpeg_fuzz_never_raises():
    """decode_jpeg returns None (never raises) on garbage, truncations,
    and bit-flipped corruptions of a valid stream — including a crafted
    SOF whose dimensions would allocate gigabytes if honored."""
    from lingua_ray.stages.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.RandomState(11)
    for n in (0, 1, 2, 16, 300):
        decode_jpeg(bytes(rng.randint(0, 256, n, dtype=np.uint8)))
        decode_jpeg(b"\xff\xd8" + bytes(rng.randint(0, 256, n,
                                                    dtype=np.uint8)))
    good = encode_jpeg(rng.randint(0, 256, (16, 16, 3)).astype(np.uint8))
    for cut in range(0, len(good), 37):
        decode_jpeg(good[:cut])
    for _ in range(60):
        b = bytearray(good)
        b[rng.randint(2, len(b))] ^= 1 << rng.randint(8)
        decode_jpeg(bytes(b))
    # 65535x65535 SOF: must reject, not allocate
    import struct as _s
    huge = bytearray(good)
    sof = huge.find(b"\xff\xc0")
    huge[sof + 5:sof + 9] = _s.pack(">HH", 65535, 65535)
    assert decode_jpeg(bytes(huge)) is None


def test_jpeg_zero_sampling_factor_rejected():
    """A corrupt SOF with h/v sampling factor 0 must return None, not
    decode to an empty luma plane whose mean is NaN."""
    from lingua_ray.stages.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.RandomState(5)
    good = encode_jpeg(rng.randint(0, 256, (16, 16, 3)).astype(np.uint8))
    b = bytearray(good)
    sof = b.find(b"\xff\xc0")
    b[sof + 11] = 0x00              # luma component h=0, v=0
    assert decode_jpeg(bytes(b)) is None
    b2 = bytearray(good)
    b2[sof + 11] = 0x10             # v=0 only
    assert decode_jpeg(bytes(b2)) is None


def test_jpeg_truncated_entropy_returns_none_every_cut():
    """Truncating the entropy stream at ANY byte boundary must yield
    None, never a phantom-block decode from peek16's zero padding (the
    old fuzz only asserted no exception; a cut inside the final MCU
    could complete the scan with fabricated DC-only blocks)."""
    import numpy as np

    from lingua_ray.stages.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.RandomState(5)
    img = rng.randint(0, 256, (24, 24), dtype=np.uint8)
    p = encode_jpeg(img, quality=90)
    assert decode_jpeg(p) is not None
    # locate SOS; cut everywhere between scan start and EOI
    sos = p.find(b"\xff\xda")
    assert sos > 0
    scan_start = sos + 2 + int.from_bytes(p[sos + 2:sos + 4], "big")
    for cut in range(scan_start + 1, len(p) - 2):
        assert decode_jpeg(p[:cut]) is None, f"cut at {cut} decoded"


def _gradient_rgb(h, w):
    import numpy as np
    yy, xx = np.mgrid[0:h, 0:w]
    r = (xx * 255 / max(w - 1, 1))
    g = (yy * 255 / max(h - 1, 1))
    b = ((xx + yy) * 255 / max(h + w - 2, 1))
    return np.stack([r, g, b], axis=-1).astype(np.uint8)


def test_jpeg_pixels_flat_color_near_exact():
    """DC-only content: full RGB decode must reproduce a flat color to
    within the DC quantization step, for 4:4:4, 4:2:0 and restarts, at
    non-multiple-of-16 sizes (crop path)."""
    import numpy as np

    from lingua_ray.stages.jpeg import decode_jpeg_pixels, encode_jpeg

    img = np.empty((17, 13, 3), np.uint8)
    img[:] = (180, 90, 40)
    for sub in (False, True):
        for rst in (0, 3):
            p = encode_jpeg(img, quality=90, subsample=sub,
                            restart_interval=rst)
            out = decode_jpeg_pixels(p)
            assert out is not None and out.shape == (17, 13, 3)
            assert out.dtype == np.uint8
            err = np.abs(out.astype(int) - img.astype(int))
            assert err.max() <= 6, (sub, rst, err.max())


def test_jpeg_pixels_gradient_roundtrip():
    """Smooth content survives quality-95 4:4:4 with small per-pixel
    error; 4:2:0 adds chroma replication error but channel means must
    still track."""
    import numpy as np

    from lingua_ray.stages.jpeg import decode_jpeg_pixels, encode_jpeg

    img = _gradient_rgb(40, 56)
    out = decode_jpeg_pixels(encode_jpeg(img, quality=95))
    err = np.abs(out.astype(int) - img.astype(int))
    assert err.mean() < 4 and err.max() < 24
    out420 = decode_jpeg_pixels(encode_jpeg(img, quality=95,
                                            subsample=True))
    for ch in range(3):
        assert abs(out420[..., ch].mean() - img[..., ch].mean()) < 3


def test_jpeg_pixels_grayscale_and_luma_consistency():
    import numpy as np

    from lingua_ray.stages.jpeg import (decode_jpeg, decode_jpeg_pixels,
                                        encode_jpeg)

    rng = np.random.RandomState(9)
    gray = np.clip(rng.normal(128, 20, (24, 24)), 0, 255).astype(np.uint8)
    p = encode_jpeg(gray, quality=92)
    out = decode_jpeg_pixels(p)
    assert out.shape == (24, 24) and out.dtype == np.uint8
    assert np.abs(out.astype(int) - gray.astype(int)).mean() < 6
    # the cheap mean-luma contract and the full decode must agree
    w, h, luma = decode_jpeg(p)
    assert abs(luma - out.mean() / 255.0) < 0.01


def test_jpeg_pixels_rejects_out_of_subset():
    import numpy as np

    from lingua_ray.stages.jpeg import decode_jpeg_pixels, encode_jpeg

    good = encode_jpeg(np.full((8, 8), 99, np.uint8))
    assert decode_jpeg_pixels(good) is not None
    assert decode_jpeg_pixels(good[:-10]) is None
    prog = good.replace(b"\xff\xc0", b"\xff\xc2", 1)
    assert decode_jpeg_pixels(prog) is None
    assert decode_jpeg_pixels(b"\x89PNG") is None


def test_jpeg_progressive_matches_sequential_matrix():
    """The progressive encoder-oracle emits a 9-scan SOF2 stream
    (spectral selection + two successive-approximation levels, EOB
    runs, refinement correction bits); its full pixel decode must be
    bit-identical to the sequential decode of the same image, since
    both quantize with the same tables."""
    from lingua_ray.stages.jpeg import (decode_jpeg, decode_jpeg_pixels,
                                        encode_jpeg)

    rng = np.random.RandomState(7)
    cases = [
        (8, 8, False, False, 90), (16, 16, False, False, 85),
        (24, 17, False, False, 75), (16, 16, True, False, 85),
        (32, 24, True, True, 85), (40, 33, True, True, 70),
        (64, 48, True, True, 60), (9, 9, False, False, 95),
        (17, 31, True, False, 50),
    ]
    for h, w, color, sub, q in cases:
        img = rng.randint(0, 256, (h, w, 3) if color else (h, w))
        img = (img * 0.3 + 128).astype(np.uint8)   # sparse-ish coefs
        seq = encode_jpeg(img, quality=q, subsample=sub)
        prog = encode_jpeg(img, quality=q, subsample=sub,
                           progressive=True)
        assert prog != seq and b"\xff\xc2" in prog[:200]
        ps, pp = decode_jpeg_pixels(seq), decode_jpeg_pixels(prog)
        assert ps is not None and pp is not None
        assert np.array_equal(ps, pp), (h, w, color, sub, q)
        ms, mp = decode_jpeg(seq), decode_jpeg(prog)
        assert ms[:2] == mp[:2] == (w, h)
        assert abs(ms[2] - mp[2]) < 1e-12


def test_jpeg_progressive_busy_image():
    """Full-range noise exercises dense coefficient blocks (ZRL inside
    refinement, long correction-bit buffers)."""
    from lingua_ray.stages.jpeg import decode_jpeg_pixels, encode_jpeg

    rng = np.random.RandomState(13)
    img = rng.randint(0, 256, (48, 40, 3)).astype(np.uint8)
    for sub, q in ((False, 95), (True, 30)):
        seq = encode_jpeg(img, quality=q, subsample=sub)
        prog = encode_jpeg(img, quality=q, subsample=sub,
                           progressive=True)
        assert np.array_equal(decode_jpeg_pixels(seq),
                              decode_jpeg_pixels(prog))


def test_jpeg_progressive_flat_images_all_eob_runs():
    """Flat images make every AC scan a pure EOB-run stream — the exact
    shape that exposed the run-count double decrement."""
    from lingua_ray.stages.jpeg import decode_jpeg, decode_jpeg_pixels, \
        encode_jpeg

    for val in (0, 99, 255):
        img = np.full((32, 32), val, np.uint8)
        prog = encode_jpeg(img, quality=90, progressive=True)
        px = decode_jpeg_pixels(prog)
        assert px is not None and abs(int(px.mean()) - val) <= 1
        w, h, luma = decode_jpeg(prog)
        assert (w, h) == (32, 32)


def test_jpeg_progressive_truncation_returns_none():
    """Cutting the stream anywhere (dropping EOI or mid-scan) returns
    None, never raises and never yields a partially-assembled image."""
    from lingua_ray.stages.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.RandomState(5)
    img = (rng.randint(0, 256, (24, 24, 3)) * 0.3 + 100).astype(np.uint8)
    prog = encode_jpeg(img, quality=80, progressive=True)
    assert decode_jpeg(prog) is not None
    for cut in range(1, len(prog), 97):
        assert decode_jpeg(prog[:cut]) is None
    assert decode_jpeg(prog[:-1]) is None      # EOI clipped


def test_jpeg_12bit_precision():
    """Extended-sequential 12-bit (SOF1, Pq=1 DQT, 2048 level shift):
    mean-luma is precision-normalized and the uint8 pixel contract
    scales from the 12-bit range."""
    from lingua_ray.stages.jpeg import (decode_jpeg, decode_jpeg_pixels,
                                        encode_jpeg)

    rng = np.random.RandomState(2)
    img = rng.randint(0, 4096, (16, 16)).astype(np.uint16)
    p = encode_jpeg(img, quality=95, precision=12)
    w, h, luma = decode_jpeg(p)
    assert (w, h) == (16, 16)
    assert abs(luma - float(img.mean()) / 4095.0) < 1e-3
    # smooth ramps survive quantization: scaled pixels within 1 LSB
    smooth = (np.add.outer(np.arange(24), np.arange(24)) * 80) \
        .astype(np.uint16)
    px = decode_jpeg_pixels(encode_jpeg(smooth, quality=95, precision=12))
    want = np.round(smooth.astype(np.float64) * 255 / 4095)
    assert np.abs(px.astype(np.float64) - want).max() <= 1.0
    # 12-bit with baseline SOF0 is malformed -> None
    bad = bytearray(encode_jpeg(img, precision=12))
    bad[bad.find(b"\xff\xc1") + 1] = 0xC0
    assert decode_jpeg(bytes(bad)) is None
    # 8-bit paths still reject precision-12-only features gracefully
    assert encode_jpeg(img.astype(np.uint8) >> 0, quality=85) is not None
