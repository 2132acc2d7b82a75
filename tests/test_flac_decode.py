"""FLAC codec round-trips: the encoder oracle exercises every decode
path (subframe types, stereo modes, partition orders, escapes, wasted
bits, bit depths) and the decoder must reproduce the input samples
bit-exactly."""
import numpy as np

from lingua_ray.stages.flac import decode_flac, encode_flac, parse_streaminfo


def _sine(n=2000, sr=8000, amp=0.6, freq=440.0, nch=1, bps=16, seed=0):
    t = np.arange(n) / sr
    s = amp * np.sin(2 * np.pi * freq * t)
    full = 1 << (bps - 1)
    out = np.round(s * (full - 1)).astype(np.int64)
    if nch == 2:
        rng = np.random.RandomState(seed)
        out = np.stack([out, out + rng.randint(-40, 40, n)], axis=1)
        np.clip(out, -full, full - 1, out=out)
    return out


def _rt(samples, sr=8000, bps=16, **kw):
    """Encode, decode, compare ints exactly; returns the decode tuple."""
    p = encode_flac(samples, sr, bps=bps, **kw)
    dec = decode_flac(p)
    assert dec is not None
    dsr, dnch, s = dec
    assert dsr == sr
    got = np.round(s * (1 << (bps - 1))).astype(np.int64)
    want = np.asarray(samples, dtype=np.int64)
    if want.ndim == 2:
        assert dnch == want.shape[1]
        want = want.reshape(-1)
    else:
        assert dnch == 1
    np.testing.assert_array_equal(got, want)
    return dec


def test_streaminfo_parse():
    p = encode_flac(_sine(500), 44100, bps=16, block_size=256)
    sr, nch, bps, total, off = parse_streaminfo(p)
    assert (sr, nch, bps, total) == (44100, 1, 16, 500)
    assert p[off:off + 2] == b"\xff\xf8"  # first frame sync


def test_fixed_mono_roundtrip_multiframe():
    _rt(_sine(3000), block_size=1024)  # 3 frames, last one short


def test_constant_and_silence():
    _rt(np.zeros(700, dtype=np.int64), mode="constant", block_size=512)
    _rt(np.full(300, -12345, dtype=np.int64), mode="constant")


def test_verbatim_noise():
    rng = np.random.RandomState(7)
    _rt(rng.randint(-32768, 32768, 900), mode="verbatim", block_size=450)


def test_lpc_subframe():
    s = _sine(1500, amp=0.4)
    _rt(s, mode="lpc", lpc=(2, 12, 4, [2 << 4, -(1 << 4)]), block_size=750)
    _rt(s, mode="lpc", lpc=(8, 14, 6, [64, -32, 16, -8, 4, -2, 1, 1]))


def test_stereo_modes():
    s = _sine(1200, nch=2)
    for st in ("independent", "left_side", "right_side", "mid_side"):
        _rt(s, stereo=st, block_size=600)


def test_partition_orders_and_escape():
    s = _sine(2048)
    _rt(s, partition_order=2, block_size=1024)
    _rt(s, partition_order=3, escape_partitions=True, block_size=2048)


def test_wasted_bits():
    s = _sine(800, amp=0.09) << 3  # 3 low zero bits, still fits 16 bits
    _rt(s, mode="wasted", block_size=400)


def test_bit_depths():
    for bps, amp in ((8, 0.5), (16, 0.5), (24, 0.5)):
        _rt(_sine(600, amp=amp, bps=bps), bps=bps, block_size=300)


def test_corrupt_and_foreign_payloads():
    assert decode_flac(b"") is None
    assert decode_flac(b"fLaC") is None
    assert decode_flac(b"ID3\x04" + bytes(64)) is None
    assert decode_flac(b"RIFF" + bytes(64)) is None
    p = bytearray(encode_flac(_sine(400), 8000))
    p[-3] ^= 0xFF  # flip a bit inside the last frame -> CRC-16 mismatch
    assert decode_flac(bytes(p)) is None
    assert decode_flac(bytes(p[: len(p) // 2])) is None  # truncated
