"""Pure-NumPy + stdlib FLAC codec (no external audio library).

Decoder: full native-FLAC subset a metadata-complete stream uses —
STREAMINFO parse, frame-header walk (all blocksize / sample-rate /
sample-size codes, UTF-8 coded frame numbers, CRC-8 verified),
CONSTANT / VERBATIM / FIXED(0-4) / LPC subframes, wasted bits, rice
residuals at any partition order incl. escape partitions, left/side /
right/side / mid/side stereo decorrelation, and the frame CRC-16.
Format per the public spec (RFC 9639 / xiph.org FLAC format); no code
derives from any decoder implementation.

Encoder (:func:`encode_flac`) is the test oracle for the decoder — it
can emit every subframe type, stereo mode, partition order, escape
partitions and wasted bits, so round-trip tests cover each decode
path bit-exactly.

No pipeline stage or query imports this module; the transcript filter
has no audio path.
"""
from __future__ import annotations

import struct

import numpy as np

_POW2 = 1 << np.arange(63, -1, -1, dtype=np.int64)


def _crc_table(poly: int, width: int) -> np.ndarray:
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    t = np.empty(256, dtype=np.int64)
    for b in range(256):
        r = b << (width - 8)
        for _ in range(8):
            r = ((r << 1) ^ poly) if r & top else (r << 1)
        t[b] = r & mask
    return t


_CRC8_T = _crc_table(0x07, 8)
_CRC16_T = _crc_table(0x8005, 16)


def _crc8(data: bytes) -> int:
    c = 0
    for b in data:
        c = int(_CRC8_T[c ^ b])
    return c


def _crc16(data: bytes) -> int:
    c = 0
    for b in data:
        c = int(_CRC16_T[((c >> 8) ^ b) & 0xFF]) ^ ((c << 8) & 0xFFFF)
    return c


class _BitReader:
    """MSB-first reader over unpacked bits with a ones-index so rice
    unary runs are O(log n) jumps, not per-bit Python steps."""

    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.ones = np.flatnonzero(self.bits)
        self.n = len(self.bits)
        self.pos = 0

    def read(self, k: int) -> int:
        if k == 0:
            return 0
        if self.pos + k > self.n:
            raise EOFError("flac: bitstream exhausted")
        v = int(self.bits[self.pos:self.pos + k].astype(np.int64)
                @ _POW2[64 - k:])
        self.pos += k
        return v

    def read_signed(self, k: int) -> int:
        v = self.read(k)
        return v - (1 << k) if v >= 1 << (k - 1) else v

    def unary(self) -> int:
        i = np.searchsorted(self.ones, self.pos)
        if i >= len(self.ones):
            raise EOFError("flac: unary run past end")
        q = int(self.ones[i]) - self.pos
        self.pos = int(self.ones[i]) + 1
        return q

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7


# frame-header code tables (public spec)
_BLOCKSIZES = [0, 192, 576, 1152, 2304, 4608, -1, -2,
               256, 512, 1024, 2048, 4096, 8192, 16384, 32768]
_RATES = [0, 88200, 176400, 192000, 8000, 16000, 22050, 24000,
          32000, 44100, 48000, 96000, -1, -2, -3, None]
_BPS = [0, 8, 12, None, 16, 20, 24, 32]


def parse_streaminfo(p: bytes):
    """(sample_rate, n_channels, bits_per_sample, total_samples,
    frames_offset) from the fLaC header, or None."""
    if len(p) < 8 or p[:4] != b"fLaC":
        return None
    i = 4
    info = None
    while i + 4 <= len(p):
        hdr = p[i]
        size = int.from_bytes(p[i + 1:i + 4], "big")
        body = p[i + 4:i + 4 + size]
        if hdr & 0x7F == 0 and size >= 34:  # STREAMINFO
            sr = int.from_bytes(body[10:13], "big") >> 4
            nch = ((body[12] >> 1) & 0x07) + 1
            bps = (((body[12] & 0x01) << 4) | (body[13] >> 4)) + 1
            total = ((body[13] & 0x0F) << 32) \
                | int.from_bytes(body[14:18], "big")
            info = (sr, nch, bps, total)
        i += 4 + size
        if hdr & 0x80:  # last-metadata flag
            break
    if info is None or i > len(p):
        return None
    return (*info, i)


def _utf8_number(br: _BitReader) -> int:
    b0 = br.read(8)
    if b0 < 0x80:
        return b0
    nbytes = 0
    m = 0x40
    while b0 & m:
        nbytes += 1
        m >>= 1
    if nbytes < 1 or nbytes > 6:
        raise ValueError("flac: bad utf8-coded number")
    v = b0 & (m - 1)
    for _ in range(nbytes):
        b = br.read(8)
        if b & 0xC0 != 0x80:
            raise ValueError("flac: bad utf8 continuation")
        v = (v << 6) | (b & 0x3F)
    return v


def _read_residual(br: _BitReader, blocksize: int, order: int):
    method = br.read(2)
    if method > 1:
        raise ValueError("flac: reserved residual method")
    pbits = 4 if method == 0 else 5
    escape = (1 << pbits) - 1
    po = br.read(4)
    if blocksize % (1 << po) or (blocksize >> po) <= order:
        raise ValueError("flac: bad partition order")
    out = np.empty(blocksize - order, dtype=np.int64)
    w = 0
    for part in range(1 << po):
        cnt = (blocksize >> po) - (order if part == 0 else 0)
        param = br.read(pbits)
        if param == escape:
            raw = br.read(5)
            if raw == 0:
                out[w:w + cnt] = 0
            else:
                for j in range(cnt):
                    out[w + j] = br.read_signed(raw)
        else:
            for j in range(cnt):
                u = (br.unary() << param) | br.read(param)
                out[w + j] = (u >> 1) ^ -(u & 1)
        w += cnt
    return out


def _undiff(warmup: np.ndarray, res: np.ndarray, order: int) -> np.ndarray:
    """Fixed predictor of order o = o-fold integration of the residual,
    seeded by the warmup's difference pyramid."""
    if order == 0:
        return res.copy()
    seeds = [warmup.astype(np.int64)]
    for _ in range(order - 1):
        seeds.append(np.diff(seeds[-1]))
    cur = res.astype(np.int64)
    for k in range(order, 0, -1):
        cur = seeds[k - 1][-1] + np.cumsum(cur)
    return np.concatenate([warmup, cur])


def _decode_subframe(br: _BitReader, blocksize: int, bps: int) -> np.ndarray:
    if br.read(1):
        raise ValueError("flac: bad subframe pad bit")
    code = br.read(6)
    wasted = 0
    if br.read(1):
        wasted = br.unary() + 1
    eff = bps - wasted
    if eff <= 0:
        raise ValueError("flac: wasted bits exceed bps")
    if code == 0:  # CONSTANT
        out = np.full(blocksize, br.read_signed(eff), dtype=np.int64)
    elif code == 1:  # VERBATIM
        out = np.fromiter((br.read_signed(eff) for _ in range(blocksize)),
                          dtype=np.int64, count=blocksize)
    elif 8 <= code <= 12:  # FIXED, order 0-4
        order = code - 8
        if order > blocksize:
            raise ValueError("flac: fixed order exceeds blocksize")
        warm = np.fromiter((br.read_signed(eff) for _ in range(order)),
                           dtype=np.int64, count=order)
        out = _undiff(warm, _read_residual(br, blocksize, order), order)
    elif code >= 32:  # LPC, order 1-32
        order = (code & 0x1F) + 1
        if order > blocksize:
            raise ValueError("flac: lpc order exceeds blocksize")
        warm = [br.read_signed(eff) for _ in range(order)]
        prec = br.read(4) + 1
        if prec == 16:
            raise ValueError("flac: invalid qlp precision")
        shift = br.read(5)
        if shift >= 16:
            shift -= 32           # 5-bit two's complement
        if shift < 0:
            raise ValueError("flac: negative qlp shift")
        coefs = [br.read_signed(prec) for _ in range(order)]
        res = _read_residual(br, blocksize, order)
        s = warm + [0] * (blocksize - order)
        for i in range(order, blocksize):
            acc = 0
            for j in range(order):
                acc += coefs[j] * s[i - 1 - j]
            s[i] = (acc >> shift) + int(res[i - order])
        out = np.asarray(s, dtype=np.int64)
    else:
        raise ValueError("flac: reserved subframe type")
    return out << wasted if wasted else out


def _decode_frame(br: _BitReader, data: bytes, stream_sr: int,
                  stream_bps: int):
    """One frame at the reader's (byte-aligned) position →
    (channel-interleaved int64 samples, n_channels) or None at EOS."""
    start = br.pos >> 3
    if br.pos + 32 > br.n:
        return None
    if br.read(14) != 0x3FFE:
        return None
    br.read(1)                       # reserved
    br.read(1)                       # blocking strategy
    bs_code = br.read(4)
    sr_code = br.read(4)
    ch_code = br.read(4)
    bps_code = br.read(3)
    br.read(1)                       # reserved
    _utf8_number(br)
    if bs_code == 0:
        raise ValueError("flac: reserved blocksize code")
    blocksize = _BLOCKSIZES[bs_code]
    if blocksize == -1:
        blocksize = br.read(8) + 1
    elif blocksize == -2:
        blocksize = br.read(16) + 1
    if sr_code == 0:
        pass                          # from STREAMINFO
    elif _RATES[sr_code] == -1:
        br.read(8)
    elif _RATES[sr_code] in (-2, -3):
        br.read(16)
    elif _RATES[sr_code] is None:
        raise ValueError("flac: invalid sample-rate code")
    bps = _BPS[bps_code] or stream_bps
    if _BPS[bps_code] is None and bps_code == 3:
        raise ValueError("flac: reserved sample-size code")
    hdr_end = (br.pos + 7) >> 3
    if _crc8(data[start:hdr_end]) != br.read(8):
        raise ValueError("flac: frame header CRC mismatch")

    if ch_code <= 7:
        chans = [_decode_subframe(br, blocksize, bps)
                 for _ in range(ch_code + 1)]
    elif ch_code <= 10:
        # one side channel carries +1 bit
        b0 = bps + (1 if ch_code == 9 else 0)
        b1 = bps + (1 if ch_code in (8, 10) else 0)
        c0 = _decode_subframe(br, blocksize, b0)
        c1 = _decode_subframe(br, blocksize, b1)
        if ch_code == 8:              # left/side
            chans = [c0, c0 - c1]
        elif ch_code == 9:            # right/side (side first)
            chans = [c1 + c0, c1]
        else:                         # mid/side
            m2 = (c0 << 1) | (c1 & 1)
            chans = [(m2 + c1) >> 1, (m2 - c1) >> 1]
    else:
        raise ValueError("flac: reserved channel assignment")
    br.align()
    if _crc16(data[start:br.pos >> 3]) != br.read(16):
        raise ValueError("flac: frame CRC-16 mismatch")
    inter = np.empty(blocksize * len(chans), dtype=np.int64)
    for c, arr in enumerate(chans):
        inter[c::len(chans)] = arr
    return inter, len(chans)


def decode_flac(p: bytes):
    """REAL pure-NumPy FLAC decode.  Returns (sample_rate, n_channels,
    samples) with samples float64 in [-1, 1], channel-interleaved, or
    None when the payload is not (valid) FLAC."""
    info = parse_streaminfo(p)
    if info is None:
        return None
    sr, nch, bps, total, off = info
    if sr == 0 or nch == 0:
        return None
    frames = p[off:]
    br = _BitReader(frames)
    parts = []
    got = 0
    try:
        while (total == 0 or got < total) and br.pos + 32 <= br.n:
            dec = _decode_frame(br, frames, sr, bps)
            if dec is None:
                break
            inter, fch = dec
            if fch != nch:
                return None
            parts.append(inter)
            got += len(inter) // nch
    except (EOFError, ValueError):
        return None
    if not parts:
        return None
    s = np.concatenate(parts)
    if total:
        s = s[: total * nch]
    return sr, nch, s.astype(np.float64) / float(1 << (bps - 1))


# --------------------------------------------------------------------------
# Encoder — the decoder's test oracle.

class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nb = 0

    def write(self, v: int, k: int) -> None:
        self.acc = (self.acc << k) | (v & ((1 << k) - 1))
        self.nb += k
        while self.nb >= 8:
            self.nb -= 8
            self.buf.append((self.acc >> self.nb) & 0xFF)
        self.acc &= (1 << self.nb) - 1

    def unary(self, q: int) -> None:
        while q >= 32:
            self.write(0, 32)
            q -= 32
        self.write(1, q + 1)

    def align(self) -> None:
        if self.nb:
            self.write(0, 8 - self.nb)

    def bytes(self) -> bytes:
        assert self.nb == 0
        return bytes(self.buf)


_FIXED_COEFS = {0: [], 1: [1], 2: [2, -1], 3: [3, -3, 1], 4: [4, -6, 4, -1]}


def _utf8_encode(bw: _BitWriter, v: int) -> None:
    if v < 0x80:
        bw.write(v, 8)
        return
    # k total bytes hold 5k+1 value bits (generalized UTF-8, k<=7)
    k = 2
    while v >= 1 << (5 * k + 1):
        k += 1
    cont = []
    for _ in range(k - 1):
        cont.append(0x80 | (v & 0x3F))
        v >>= 6
    bw.write(((0xFF << (8 - k)) & 0xFF) | v, 8)
    for c in reversed(cont):
        bw.write(c, 8)


def _write_residual(bw: _BitWriter, res: np.ndarray, blocksize: int,
                    order: int, partition_order: int,
                    escape_partitions: bool) -> None:
    bw.write(0, 2)                    # 4-bit rice params
    bw.write(partition_order, 4)
    w = 0
    for part in range(1 << partition_order):
        cnt = (blocksize >> partition_order) - (order if part == 0 else 0)
        seg = res[w:w + cnt]
        w += cnt
        if escape_partitions:
            raw = max(2, int(max((int(x).bit_length() + 1 for x in seg),
                                 default=2)))
            raw = min(raw, 31)
            bw.write(0xF, 4)
            bw.write(raw, 5)
            for x in seg:
                bw.write(int(x), raw)
            continue
        u = (seg.astype(np.int64) << 1) ^ (seg.astype(np.int64) >> 63)
        mean = int(u.mean()) if len(seg) else 0
        param = max(0, mean.bit_length() - 1)
        param = min(param, 14)
        bw.write(param, 4)
        for x in u:
            bw.unary(int(x) >> param)
            bw.write(int(x), param)


def _write_subframe(bw: _BitWriter, s: np.ndarray, bps: int, mode: str,
                    partition_order: int, escape_partitions: bool,
                    lpc: tuple | None) -> None:
    wasted = 0
    if mode == "wasted" and len(s):
        nz = s[s != 0]
        if len(nz):
            wasted = min(int(np.min(
                [(int(x) & -int(x)).bit_length() - 1 for x in nz])),
                bps - 2)
        if wasted <= 0:
            wasted, mode = 0, "fixed"
        else:
            s = s >> wasted
            mode = "fixed"
    eff = bps - wasted

    def header(code: int) -> None:
        bw.write(0, 1)
        bw.write(code, 6)
        if wasted:
            bw.write(1, 1)
            bw.unary(wasted - 1)
        else:
            bw.write(0, 1)

    if mode == "constant":
        header(0)
        bw.write(int(s[0]), eff)
    elif mode == "verbatim":
        header(1)
        for x in s:
            bw.write(int(x), eff)
    elif mode == "lpc":
        order, prec, shift, coefs = lpc
        header(32 + order - 1)
        for x in s[:order]:
            bw.write(int(x), eff)
        bw.write(prec - 1, 4)
        bw.write(shift, 5)
        for c in coefs:
            bw.write(int(c), prec)
        res = np.empty(len(s) - order, dtype=np.int64)
        for i in range(order, len(s)):
            acc = sum(coefs[j] * int(s[i - 1 - j]) for j in range(order))
            res[i - order] = int(s[i]) - (acc >> shift)
        _write_residual(bw, res, len(s), order, partition_order,
                        escape_partitions)
    else:                             # fixed, pick the best order 0-4
        best, border = None, 0
        for order in range(min(4, len(s) - 1) + 1):
            d = s.astype(np.int64)
            for _ in range(order):
                d = np.diff(d)
            cost = int(np.abs(d[order:] if order == 0 else d).sum())
            if best is None or cost < best:
                best, border = cost, order
        order = border
        header(8 + order)
        for x in s[:order]:
            bw.write(int(x), eff)
        d = s.astype(np.int64)
        for _ in range(order):
            d = np.diff(d)
        _write_residual(bw, d, len(s), order, partition_order,
                        escape_partitions)


def encode_flac(samples: np.ndarray, sample_rate: int, bps: int = 16,
                block_size: int = 1024, mode: str = "fixed",
                stereo: str = "independent", partition_order: int = 0,
                escape_partitions: bool = False,
                lpc: tuple | None = None) -> bytes:
    """FLAC encoder (decoder test oracle).  ``samples``: int array,
    shape (n,) mono or (n, nch); values must fit ``bps`` signed bits.
    mode: fixed | constant | verbatim | lpc | wasted.  stereo:
    independent | left_side | right_side | mid_side.  ``lpc`` =
    (order, precision, shift, [coefs]) for mode='lpc'."""
    s = np.asarray(samples, dtype=np.int64)
    if s.ndim == 1:
        s = s[:, None]
    n, nch = s.shape
    if stereo != "independent" and nch != 2:
        raise ValueError("stereo decorrelation needs 2 channels")

    out = bytearray(b"fLaC")
    si = bytearray()
    si += struct.pack(">HH", min(block_size, n or block_size), block_size)
    si += b"\x00" * 6                 # min/max framesize unknown
    si += bytes([(sample_rate >> 12) & 0xFF, (sample_rate >> 4) & 0xFF,
                 ((sample_rate & 0xF) << 4) | ((nch - 1) << 1)
                 | ((bps - 1) >> 4),
                 (((bps - 1) & 0xF) << 4) | ((n >> 32) & 0xF)])
    si += struct.pack(">I", n & 0xFFFFFFFF)
    si += b"\x00" * 16                # md5 unknown
    out += bytes([0x80]) + len(si).to_bytes(3, "big") + bytes(si)

    ch_code = {"independent": nch - 1, "left_side": 8,
               "right_side": 9, "mid_side": 10}[stereo]
    bps_code = {8: 1, 12: 2, 16: 4, 20: 5, 24: 6, 32: 7}[bps]

    for f, off in enumerate(range(0, n, block_size)):
        blk = s[off:off + block_size]
        bs = len(blk)
        bw = _BitWriter()
        bw.write(0x3FFE, 14)
        bw.write(0, 1)                # reserved
        bw.write(0, 1)                # fixed blocking
        bw.write(7, 4)                # 16-bit blocksize follows
        bw.write(0, 4)                # sample rate from STREAMINFO
        bw.write(ch_code, 4)
        bw.write(bps_code, 3)
        bw.write(0, 1)                # reserved
        _utf8_encode(bw, f)
        bw.write(bs - 1, 16)
        hdr = bytes(bw.buf)
        bw.write(_crc8(hdr), 8)

        if stereo == "independent":
            chans = [(blk[:, c], bps) for c in range(nch)]
        else:
            left = blk[:, 0]
            right = blk[:, 1]
            side = left - right
            if stereo == "left_side":
                chans = [(left, bps), (side, bps + 1)]
            elif stereo == "right_side":
                chans = [(side, bps + 1), (right, bps)]
            else:
                chans = [((left + right) >> 1, bps), (side, bps + 1)]
        for arr, cbps in chans:
            m = mode
            if m == "constant" and len(np.unique(arr)) > 1:
                m = "fixed"
            _write_subframe(bw, arr, cbps, m, partition_order,
                            escape_partitions, lpc)
        bw.align()
        frame = bytes(bw.buf)
        bw.write(_crc16(frame), 16)
        out += bw.bytes()
    return bytes(out)
