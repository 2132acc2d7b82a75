"""VP8L (lossless WebP) codec, pure NumPy + stdlib — no external codecs.

Decoder (:func:`decode_webp_pixels`): the full VP8L spatially-coded
image per RFC 9649 — RIFF chunk walk (VP8X containers included),
LSB-first bit reader, simple and code-length-coded canonical Huffman
codes through a 15-bit lookahead table, color cache, LZ77 backward
references with the two-level prefix coding, meta-Huffman groups via
the entropy image, and all four transforms (predictor, color,
subtract-green, color indexing incl. sub-byte pixel packing) applied
inverse in reverse bitstream order.  Lossy VP8 payloads return ``None``
— that boundary needs a full DCT video-intra codec.

Encoder (:func:`encode_vp8l`): the TEST ORACLE (same encoder-oracle
pattern as jpeg.py): literal pixels under
flat complete Huffman codes (a symbols at L bits + b at L+1 so Kraft
closes exactly), simple 1-2-symbol codes where a channel is
near-constant, optional color cache, repeated-row LZ77 backrefs,
an all-zero entropy image for the meta-Huffman path, and each of the
four transforms in its forward form.  Round-trips must be bit-exact —
the format is lossless.

Two conventions are GENERATED from the spec's construction rather than
transcribed, and encoder/decoder share the helpers (documented so the
caveat is auditable): the 120-entry LZ77 distance neighborhood
(8-neighborhood pairs sorted by squared distance, then |dx|, positive
dx first) and the right-edge TR pixel (flat-array wraparound: TR of
(w-1, y) is (0, y), the RFC's offset arithmetic).  Verifying both
against libwebp requires the real codec, which this container does not
ship.

Reference: RFC 9649 (WebP lossless bitstream).  No pipeline stage or
query imports this module; the transcript filter has no image path.
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------- bit io


class _Bits:
    """LSB-first bit reader (RIFF/VP8L convention, as in DEFLATE)."""

    __slots__ = ("d", "n", "pos")

    def __init__(self, data: bytes):
        self.d = data
        self.n = len(data) * 8
        self.pos = 0

    def read(self, k: int) -> int:
        if self.pos + k > self.n:
            raise EOFError("VP8L stream exhausted")
        byte = self.pos >> 3
        v = int.from_bytes(self.d[byte:byte + 5], "little")
        out = (v >> (self.pos & 7)) & ((1 << k) - 1)
        self.pos += k
        return out

    def peek15(self) -> int:
        byte = self.pos >> 3
        v = int.from_bytes(self.d[byte:byte + 4], "little")
        return (v >> (self.pos & 7)) & 0x7FFF


class _BitW:
    """LSB-first bit writer."""

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, v: int, k: int) -> None:
        self.acc |= (v & ((1 << k) - 1)) << self.nbits
        self.nbits += k
        while self.nbits >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def code(self, c: int, length: int) -> None:
        """Huffman codes enter the stream MSB-of-code first."""
        for i in range(length - 1, -1, -1):
            self.write((c >> i) & 1, 1)

    def flush(self) -> bytes:
        if self.nbits:
            self.out.append(self.acc & 0xFF)
            self.acc = 0
            self.nbits = 0
        return bytes(self.out)


# --------------------------------------------------------------- huffman

_CL_ORDER = (17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12, 13,
             14, 15)


def _build_lut(lengths: np.ndarray):
    """Canonical Huffman → 15-bit lookahead LUT keyed by the next 15
    stream bits (code bits reversed, DEFLATE convention).  Entry =
    (symbol << 4) | length.  A single used symbol is the spec's trivial
    code (0 bits per read); otherwise Kraft must close exactly."""
    nz = np.flatnonzero(lengths)
    if len(nz) == 0:
        raise ValueError("empty huffman code")
    if len(nz) == 1:
        return (int(nz[0]), None)
    ls = lengths[nz]
    if int((1 << (15 - ls.astype(np.int64))).sum()) != (1 << 15):
        raise ValueError("huffman code not complete")
    lut = np.zeros(1 << 15, dtype=np.int32)
    code = 0
    prev = 0
    for ln, sym in sorted((int(lengths[s]), int(s)) for s in nz):
        code <<= (ln - prev)
        prev = ln
        pat = int(f"{code:0{ln}b}"[::-1], 2)
        lut[pat::1 << ln] = (sym << 4) | ln
        code += 1
    return (None, lut)


def _read_sym(br: _Bits, code) -> int:
    trivial, lut = code
    if lut is None:
        return trivial
    e = int(lut[br.peek15()])
    ln = e & 15
    if ln == 0:
        raise ValueError("invalid huffman code in stream")
    br.pos += ln
    if br.pos > br.n:
        raise EOFError("VP8L stream exhausted")
    return e >> 4


def _simple_lut(s0: int, s1: int):
    """Simple 2-symbol code: first-read symbol takes code 0 (read
    order, NOT canonical-by-value order)."""
    lut = np.zeros(1 << 15, dtype=np.int32)
    lut[0::2] = (s0 << 4) | 1
    lut[1::2] = (s1 << 4) | 1
    return (None, lut)


def _read_code(br: _Bits, alphabet: int):
    """One Huffman code descriptor (simple or code-length-coded)."""
    if br.read(1):                       # simple
        num = br.read(1) + 1
        s0 = br.read(8) if br.read(1) else br.read(1)
        if s0 >= alphabet:
            raise ValueError("simple code symbol out of range")
        if num == 1:
            return (s0, None)
        s1 = br.read(8)
        if s1 >= alphabet or s1 == s0:
            raise ValueError("simple code symbol out of range")
        return _simple_lut(s0, s1)
    ncl = 4 + br.read(4)
    cl_lengths = np.zeros(19, dtype=np.int64)
    for i in range(ncl):
        cl_lengths[_CL_ORDER[i]] = br.read(3)
    cl_code = _build_lut(cl_lengths)
    if br.read(1):                       # explicit symbol-count limit
        length_nbits = 2 + 2 * br.read(3)
        max_symbol = 2 + br.read(length_nbits)
    else:
        max_symbol = alphabet
    lengths = np.zeros(alphabet, dtype=np.int64)
    prev = 8
    sym = 0
    while sym < alphabet and max_symbol > 0:
        max_symbol -= 1
        s = _read_sym(br, cl_code)
        if s < 16:
            lengths[sym] = s
            sym += 1
            if s:
                prev = s
        elif s == 16:
            rep = 3 + br.read(2)
            if sym + rep > alphabet:
                raise ValueError("code length repeat overflow")
            lengths[sym:sym + rep] = prev
            sym += rep
        elif s == 17:
            sym += 3 + br.read(3)
        else:
            sym += 11 + br.read(7)
    if sym > alphabet:
        raise ValueError("code length overflow")
    return _build_lut(lengths)


# --------------------------------------------- prefix + distance mapping


def _prefix_value(br: _Bits, code: int) -> int:
    """LZ77 length/distance two-level prefix decode."""
    if code < 4:
        return code + 1
    eb = (code - 2) >> 1
    offset = (2 + (code & 1)) << eb
    return offset + br.read(eb) + 1


def _prefix_encode(v: int) -> tuple[int, int, int]:
    """Inverse of :func:`_prefix_value`: value → (code, extra, n_extra)."""
    if v <= 4:
        return v - 1, 0, 0
    x = v - 1
    b = x.bit_length() - 1
    if x < 3 << (b - 1):
        return 2 * b, x - (1 << b), b - 1
    return 2 * b + 1, x - (3 << (b - 1)), b - 1


def _dist_neighborhood() -> list[tuple[int, int]]:
    """The 120 near-pixel (dx, dy) offsets behind distance codes 1-120,
    generated from the spec's construction (see module docstring)."""
    cand = [(x, y) for y in range(8) for x in range(-8, 9)
            if y > 0 or x > 0]
    cand.sort(key=lambda p: (p[0] * p[0] + p[1] * p[1], abs(p[0]),
                             p[0] < 0))
    return cand[:120]


_NEIGHBORS = _dist_neighborhood()


def _dist_from_code(code: int, w: int) -> int:
    if code > 120:
        return code - 120
    dx, dy = _NEIGHBORS[code - 1]
    return max(dy * w + dx, 1)


def _code_from_dist(d: int) -> int:
    """Encoder side: the always-valid plain mapping (code = d + 120)."""
    return d + 120


def _cache_hash(px: int, bits: int) -> int:
    return ((0x1E35A7BD * px) & 0xFFFFFFFF) >> (32 - bits)


# ------------------------------------------------------- pixel decoding


def _decode_pixels(br: _Bits, w: int, h: int, is_main: bool) -> list[int]:
    """One entropy-coded image: cache bit, (main-only) meta-Huffman
    groups, 5 Huffman codes per group, then the literal/backref/cache
    pixel loop.  Returns row-major ARGB ints."""
    cache_bits = 0
    if br.read(1):
        cache_bits = br.read(4)
        if not 1 <= cache_bits <= 11:
            raise ValueError("bad color cache size")
    meta = None
    hbits = mw = 0
    n_groups = 1
    if is_main and br.read(1):
        hbits = br.read(3) + 2
        mw = -(-w >> hbits) if False else -(-w // (1 << hbits))
        mh = -(-h // (1 << hbits))
        meta_px = _decode_pixels(br, mw, mh, False)
        meta = [(p >> 8) & 0xFFFF for p in meta_px]
        n_groups = max(meta) + 1
    green_size = 256 + 24 + ((1 << cache_bits) if cache_bits else 0)
    groups = []
    for _ in range(n_groups):
        groups.append((_read_code(br, green_size), _read_code(br, 256),
                       _read_code(br, 256), _read_code(br, 256),
                       _read_code(br, 40)))
    cache = [0] * (1 << cache_bits) if cache_bits else None
    n = w * h
    out = [0] * n
    pos = 0
    grp = groups[0]
    while pos < n:
        if n_groups > 1:
            x, y = pos % w, pos // w
            grp = groups[meta[(y >> hbits) * mw + (x >> hbits)]]
        g = _read_sym(br, grp[0])
        if g < 256:
            red = _read_sym(br, grp[1])
            blue = _read_sym(br, grp[2])
            alpha = _read_sym(br, grp[3])
            px = (alpha << 24) | (red << 16) | (g << 8) | blue
            out[pos] = px
            pos += 1
            if cache is not None:
                cache[_cache_hash(px, cache_bits)] = px
        elif g < 280:
            length = _prefix_value(br, g - 256)
            dcode = _prefix_value(br, _read_sym(br, grp[4]))
            dist = _dist_from_code(dcode, w)
            if dist > pos or pos + length > n:
                raise ValueError("backward reference out of range")
            for _ in range(length):
                px = out[pos - dist]
                out[pos] = px
                pos += 1
                if cache is not None:
                    cache[_cache_hash(px, cache_bits)] = px
        else:
            if cache is None:
                raise ValueError("cache symbol without color cache")
            out[pos] = cache[g - 280]
            pos += 1
    return out


# --------------------------------------------------- inverse transforms


def _avg2(a: int, b: int) -> int:
    return (((a ^ b) & 0xFEFEFEFE) >> 1) + (a & b)


def _add_px(a: int, b: int) -> int:
    """Per-channel byte addition mod 256 (SWAR)."""
    return ((((a & 0x00FF00FF) + (b & 0x00FF00FF)) & 0x00FF00FF)
            | ((((a >> 8) & 0x00FF00FF) + ((b >> 8) & 0x00FF00FF)
                & 0x00FF00FF) << 8))


def _sub_px(a: int, b: int) -> int:
    """Per-channel byte subtraction mod 256 (SWAR)."""
    return ((((a | 0x01000100) - (b & 0x00FF00FF)) & 0x00FF00FF)
            | (((((a >> 8) | 0x01000100) - ((b >> 8) & 0x00FF00FF))
                & 0x00FF00FF) << 8))


def _clamp_add_sub_full(a: int, b: int, c: int) -> int:
    out = 0
    for sh in (24, 16, 8, 0):
        v = ((a >> sh) & 0xFF) + ((b >> sh) & 0xFF) - ((c >> sh) & 0xFF)
        out |= max(0, min(255, v)) << sh
    return out


def _clamp_add_sub_half(ave: int, c: int) -> int:
    out = 0
    for sh in (24, 16, 8, 0):
        av = (ave >> sh) & 0xFF
        v = av + ((av - ((c >> sh) & 0xFF)) >> 1)
        out |= max(0, min(255, v)) << sh
    return out


def _select(t: int, l: int, tl: int) -> int:
    pl = pt = 0
    for sh in (24, 16, 8, 0):
        lc = (l >> sh) & 0xFF
        tc = (t >> sh) & 0xFF
        tlc = (tl >> sh) & 0xFF
        p = lc + tc - tlc
        pl += abs(p - lc)
        pt += abs(p - tc)
    return l if pl < pt else t


def _predict(mode: int, l: int, t: int, tl: int, tr: int) -> int:
    if mode == 0:
        return 0xFF000000
    if mode == 1:
        return l
    if mode == 2:
        return t
    if mode == 3:
        return tr
    if mode == 4:
        return tl
    if mode == 5:
        return _avg2(_avg2(l, tr), t)
    if mode == 6:
        return _avg2(l, tl)
    if mode == 7:
        return _avg2(l, t)
    if mode == 8:
        return _avg2(tl, t)
    if mode == 9:
        return _avg2(t, tr)
    if mode == 10:
        return _avg2(_avg2(l, tl), _avg2(t, tr))
    if mode == 11:
        return _select(t, l, tl)
    if mode == 12:
        return _clamp_add_sub_full(l, t, tl)
    if mode == 13:
        return _clamp_add_sub_half(_avg2(l, t), tl)
    raise ValueError("invalid predictor mode")


def _pred_neighbors(out: list[int], pos: int, x: int, w: int):
    """L, T, TL, TR of the pixel at scan position ``pos``.  TR for the
    last column is out[pos - w + 1] == leftmost pixel of the CURRENT row
    (flat-array wraparound, already reconstructed — module docstring)."""
    return (out[pos - 1], out[pos - w], out[pos - w - 1],
            out[pos - w + 1])


def _inv_predictor(px: list[int], w: int, h: int, bits: int,
                   tiles: list[int]) -> list[int]:
    tw = -(-w // (1 << bits))
    out = px
    for pos in range(w * h):
        x, y = pos % w, pos // w
        if pos == 0:
            pred = 0xFF000000
        elif y == 0:
            pred = out[pos - 1]
        elif x == 0:
            pred = out[pos - w]
        else:
            mode = (tiles[(y >> bits) * tw + (x >> bits)] >> 8) & 0xFF
            l, t, tl, tr = _pred_neighbors(out, pos, x, w)
            pred = _predict(mode, l, t, tl, tr)
        out[pos] = _add_px(out[pos], pred)
    return out


def _ctd(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """ColorTransformDelta: both operands as signed 8-bit, product
    arithmetic-shifted by 5."""
    return ((t.astype(np.int8).astype(np.int32)
             * c.astype(np.int8).astype(np.int32)) >> 5)


def _inv_color(px: list[int], w: int, h: int, bits: int,
               tiles: list[int]) -> list[int]:
    a = np.array(px, dtype=np.uint32).reshape(h, w)
    tw = -(-w // (1 << bits))
    tl = np.array(tiles, dtype=np.uint32).reshape(-1, tw)
    ys, xs = np.mgrid[0:h, 0:w]
    cte = tl[ys >> bits, xs >> bits]
    g2r = (cte & 0xFF).astype(np.uint8)
    g2b = ((cte >> 8) & 0xFF).astype(np.uint8)
    r2b = ((cte >> 16) & 0xFF).astype(np.uint8)
    g = ((a >> 8) & 0xFF).astype(np.uint8)
    r = (((a >> 16) & 0xFF).astype(np.int32) + _ctd(g2r, g)) & 0xFF
    b = ((a & 0xFF).astype(np.int32) + _ctd(g2b, g)) & 0xFF
    b = (b + _ctd(r2b, r.astype(np.uint8))) & 0xFF
    a = ((a & np.uint32(0xFF00FF00))
         | (r.astype(np.uint32) << 16) | b.astype(np.uint32))
    return [int(v) for v in a.reshape(-1)]


def _inv_subtract_green(px: list[int]) -> list[int]:
    a = np.array(px, dtype=np.uint32)
    g = (a >> 8) & 0xFF
    r = (((a >> 16) & 0xFF) + g) & 0xFF
    b = ((a & 0xFF) + g) & 0xFF
    a = (a & np.uint32(0xFF00FF00)) | (r << 16) | b
    return [int(v) for v in a]


def _palette_xbits(size: int) -> int:
    if size <= 2:
        return 3
    if size <= 4:
        return 2
    if size <= 16:
        return 1
    return 0


def _inv_color_index(px: list[int], w_coded: int, h: int, w: int,
                     pal: np.ndarray, xbits: int) -> list[int]:
    g = (np.array(px, dtype=np.uint32).reshape(h, w_coded) >> 8) & 0xFF
    if xbits:
        per = 1 << xbits
        bpp = 8 >> xbits
        mask = (1 << bpp) - 1
        idx = np.stack([(g >> (i * bpp)) & mask for i in range(per)],
                       axis=-1).reshape(h, w_coded * per)[:, :w]
    else:
        idx = g
    if int(idx.max(initial=0)) >= len(pal):
        raise ValueError("palette index out of range")
    return [int(v) for v in pal[idx.reshape(-1).astype(np.int64)]]


def _decode_argb(br: _Bits, w: int, h: int, is_main: bool) -> list[int]:
    """Transforms (main only) + entropy-coded image + inverse transform
    chain.  Width shrinks at a packing color-index transform for
    everything read after it, and is restored by its inverse."""
    transforms = []
    cur_w = w
    seen = set()
    while is_main and br.read(1):
        t = br.read(2)
        if t in seen:
            raise ValueError("duplicate transform")
        seen.add(t)
        if t == 2:                     # subtract green
            transforms.append((2, None))
        elif t == 3:                   # color indexing
            psize = br.read(8) + 1
            raw = _decode_pixels(br, psize, 1, False)
            quads = np.array(raw, dtype=np.uint32)
            chans = np.stack([(quads >> s) & 0xFF for s in (24, 16, 8, 0)])
            pal_c = np.cumsum(chans.astype(np.int64), axis=1) & 0xFF
            pal = ((pal_c[0] << 24) | (pal_c[1] << 16)
                   | (pal_c[2] << 8) | pal_c[3]).astype(np.uint32)
            xbits = _palette_xbits(psize)
            w_before = cur_w
            cur_w = -(-cur_w // (1 << xbits)) if xbits else cur_w
            transforms.append((3, (pal, xbits, w_before, cur_w)))
        elif t in (0, 1):              # predictor / color
            bits = br.read(3) + 2
            tw = -(-cur_w // (1 << bits))
            th = -(-h // (1 << bits))
            sub = _decode_pixels(br, tw, th, False)
            transforms.append((t, (bits, sub)))
    px = _decode_pixels(br, cur_w, h, is_main)
    for t, data in reversed(transforms):
        if t == 0:
            px = _inv_predictor(px, cur_w, h, data[0], data[1])
        elif t == 1:
            px = _inv_color(px, cur_w, h, data[0], data[1])
        elif t == 2:
            px = _inv_subtract_green(px)
        else:
            pal, xbits, w_before, w_coded = data
            px = _inv_color_index(px, w_coded, h, w_before, pal, xbits)
            cur_w = w_before
    return px


# ------------------------------------------------------------ container


def _find_vp8l_chunk(p: bytes):
    if len(p) < 20 or p[:4] != b"RIFF" or p[8:12] != b"WEBP":
        return None
    i = 12
    while i + 8 <= len(p):
        tag = p[i:i + 4]
        size = int.from_bytes(p[i + 4:i + 8], "little")
        body = p[i + 8:i + 8 + size]
        if tag == b"VP8L":
            return body if len(body) == size else None
        i += 8 + size + (size & 1)
    return None


def decode_webp_pixels(p: bytes):
    """Decode a lossless (VP8L) WebP to a uint8 (H, W, 3) RGB array
    (alpha dropped), or None for lossy VP8 / damaged
    streams / anything outside the subset."""
    try:
        body = _find_vp8l_chunk(p)
        if body is None or len(body) < 5 or body[0] != 0x2F:
            return None
        br = _Bits(body[1:])
        w = br.read(14) + 1
        h = br.read(14) + 1
        br.read(1)                      # alpha hint
        if br.read(3) != 0:
            return None                 # reserved version bits
        if w * h > 64_000_000:
            return None                 # same 64 MP guard as jpeg.py
        px = np.array(_decode_argb(br, w, h, True), dtype=np.uint32)
        rgb = np.stack([(px >> 16) & 0xFF, (px >> 8) & 0xFF, px & 0xFF],
                       axis=-1).astype(np.uint8)
        return rgb.reshape(h, w, 3)
    except (EOFError, ValueError, IndexError):
        return None


def decode_webp(p: bytes):
    """(width, height, mean_luma) for lossless WebP — the same summary
    contract as the other image decoders."""
    px = decode_webp_pixels(p)
    if px is None:
        return None
    luma = (px.reshape(-1, 3).astype(np.float64)
            @ np.array([0.299, 0.587, 0.114])).mean() / 255.0
    return int(px.shape[1]), int(px.shape[0]), float(luma)


# -------------------------------------------------------------- encoder


def _flat_lengths(n: int) -> np.ndarray:
    """Complete two-level code over the whole alphabet: a symbols at L
    bits + (n - a) at L + 1, with a = 2^(L+1) - n (Kraft closes)."""
    if n == 1:
        return np.ones(1, dtype=np.int64)
    lo = (n - 1).bit_length() - 1 if (n & (n - 1)) else n.bit_length() - 1
    if 1 << lo == n:
        return np.full(n, lo, dtype=np.int64)
    a = (1 << (lo + 1)) - n
    lengths = np.full(n, lo + 1, dtype=np.int64)
    lengths[:a] = lo
    return lengths


def _canonical_from_lengths(lengths: np.ndarray) -> dict[int, tuple]:
    codes = {}
    code = 0
    prev = 0
    for ln, sym in sorted((int(lengths[s]), int(s))
                          for s in np.flatnonzero(lengths)):
        code <<= (ln - prev)
        prev = ln
        codes[sym] = (code, ln)
        code += 1
    return codes


def _write_code(bw: _BitW, used: set[int], alphabet: int) -> dict:
    """Emit one Huffman code descriptor; returns symbol → (code, len)
    (len 0 = trivial single-symbol code, no payload bits)."""
    syms = sorted(used) if used else [0]
    if len(syms) == 1 and syms[0] < 256:
        bw.write(1, 1)                  # simple
        bw.write(0, 1)                  # one symbol
        if syms[0] <= 1:
            bw.write(0, 1)
            bw.write(syms[0], 1)
        else:
            bw.write(1, 1)
            bw.write(syms[0], 8)
        return {syms[0]: (0, 0)}
    if len(syms) == 2 and syms[1] < 256:
        bw.write(1, 1)
        bw.write(1, 1)                  # two symbols
        if syms[0] <= 1:
            bw.write(0, 1)
            bw.write(syms[0], 1)
        else:
            bw.write(1, 1)
            bw.write(syms[0], 8)
        bw.write(syms[1], 8)
        return {syms[0]: (0, 1), syms[1]: (1, 1)}
    # normal: flat complete code over the full alphabet, code lengths
    # sent with a 1-bit-per-symbol code-length code over {L, L+1}
    bw.write(0, 1)
    lengths = _flat_lengths(alphabet)
    cl_used = sorted(set(int(v) for v in lengths))
    max_pos = max(_CL_ORDER.index(v) for v in cl_used)
    bw.write(max_pos + 1 - 4, 4)
    for i in range(max_pos + 1):
        bw.write(1 if _CL_ORDER[i] in cl_used else 0, 3)
    bw.write(0, 1)                      # no explicit max-symbol limit
    if len(cl_used) == 1:
        cl_codes = {cl_used[0]: (0, 0)}  # trivial CL code: 0 bits each
    else:
        cl_codes = {cl_used[0]: (0, 1), cl_used[1]: (1, 1)}
    for v in lengths:
        c, ln = cl_codes[int(v)]
        bw.code(c, ln)
    return _canonical_from_lengths(lengths)


def _emit_pixels(bw: _BitW, px: list[int], w: int, h: int,
                 is_main: bool, cache_bits: int = 0,
                 backref_rows: bool = False,
                 use_meta: bool = False) -> None:
    """Entropy-code one image: simulate the op stream first (so Huffman
    codes cover exactly the used symbols), then write."""
    ops: list[tuple] = []
    used: list[set[int]] = [set() for _ in range(5)]
    cache = [None] * (1 << cache_bits) if cache_bits else None

    def insert(v):
        if cache is not None:
            cache[_cache_hash(v, cache_bits)] = v

    pos = 0
    n = w * h
    while pos < n:
        y = pos // w
        if (backref_rows and pos % w == 0 and y > 0
                and px[pos:pos + w] == px[pos - w:pos]):
            lc, lx, lnb = _prefix_encode(w)
            dc, dx, dnb = _prefix_encode(_code_from_dist(w))
            ops.append(("g", 256 + lc))
            used[0].add(256 + lc)
            if lnb:
                ops.append(("b", lx, lnb))
            ops.append(("d", dc))
            used[4].add(dc)
            if dnb:
                ops.append(("b", dx, dnb))
            for v in px[pos:pos + w]:
                insert(v)
            pos += w
            continue
        v = px[pos]
        hidx = _cache_hash(v, cache_bits) if cache is not None else 0
        if cache is not None and cache[hidx] == v:
            ops.append(("g", 280 + hidx))
            used[0].add(280 + hidx)
        else:
            g, r, b, a = ((v >> 8) & 0xFF, (v >> 16) & 0xFF, v & 0xFF,
                          (v >> 24) & 0xFF)
            ops.append(("lit", g, r, b, a))
            used[0].add(g)
            used[1].add(r)
            used[2].add(b)
            used[3].add(a)
            insert(v)
        pos += 1

    bw.write(1 if cache_bits else 0, 1)
    if cache_bits:
        bw.write(cache_bits, 4)
    if is_main:
        bw.write(1 if use_meta else 0, 1)
        if use_meta:
            hbits = 2
            bw.write(hbits - 2, 3)
            mw, mh = -(-w // (1 << hbits)), -(-h // (1 << hbits))
            # all-zero entropy image: every tile uses huffman group 0
            _emit_pixels(bw, [0] * (mw * mh), mw, mh, False)
    green_size = 256 + 24 + ((1 << cache_bits) if cache_bits else 0)
    cmaps = [_write_code(bw, used[0], green_size),
             _write_code(bw, used[1], 256),
             _write_code(bw, used[2], 256),
             _write_code(bw, used[3], 256),
             _write_code(bw, used[4], 40)]
    for op in ops:
        if op[0] == "lit":
            for ci, sym in zip((0, 1, 2, 3), op[1:]):
                c, ln = cmaps[ci][sym]
                bw.code(c, ln)
        elif op[0] == "g":
            c, ln = cmaps[0][op[1]]
            bw.code(c, ln)
        elif op[0] == "d":
            c, ln = cmaps[4][op[1]]
            bw.code(c, ln)
        else:                           # raw extra bits, LSB-first
            bw.write(op[1], op[2])


def _fwd_predict(px: list[int], w: int, h: int, mode: int) -> list[int]:
    out = [0] * (w * h)
    for pos in range(w * h):
        x, y = pos % w, pos // w
        if pos == 0:
            pred = 0xFF000000
        elif y == 0:
            pred = px[pos - 1]
        elif x == 0:
            pred = px[pos - w]
        else:
            l, t, tl, tr = _pred_neighbors(px, pos, x, w)
            pred = _predict(mode, l, t, tl, tr)
        out[pos] = _sub_px(px[pos], pred)
    return out


def encode_vp8l(img: np.ndarray, transform: str | None = None,
                cache_bits: int = 0, backref_rows: bool = False,
                use_meta: bool = False, predictor_mode: int = 7,
                cte: tuple[int, int, int] = (0, 0, 0)) -> bytes:
    """Encode (H, W, 3) RGB or (H, W, 4) RGBA uint8 into a lossless
    WebP.  ``transform`` ∈ {None, 'subtract_green', 'predictor',
    'color', 'palette'} selects one forward transform; 'predictor' uses
    one ``predictor_mode`` for every tile and 'color' one
    ``cte = (green_to_red, green_to_blue, red_to_blue)``.  'palette'
    requires ≤256 distinct colors and packs sub-byte indices when ≤16."""
    img = np.asarray(img)
    h, w = img.shape[:2]
    if img.ndim == 2:
        img = np.stack([img] * 3, axis=-1)
    alpha = (img[..., 3].astype(np.uint32) if img.shape[2] == 4
             else np.full((h, w), 255, np.uint32))
    argb = ((alpha << 24) | (img[..., 0].astype(np.uint32) << 16)
            | (img[..., 1].astype(np.uint32) << 8)
            | img[..., 2].astype(np.uint32))
    px = [int(v) for v in argb.reshape(-1)]

    bw = _BitW()
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write(1 if img.shape[2] == 4 else 0, 1)
    bw.write(0, 3)                      # version

    cur_w = w
    if transform == "subtract_green":
        bw.write(1, 1)
        bw.write(2, 2)
        a = np.array(px, dtype=np.uint32)
        g = (a >> 8) & 0xFF
        r = (((a >> 16) & 0xFF) - g) & 0xFF
        b = ((a & 0xFF) - g) & 0xFF
        px = [int(v) for v in
              ((a & np.uint32(0xFF00FF00)) | (r << 16) | b)]
    elif transform == "predictor":
        bits = 4
        bw.write(1, 1)
        bw.write(0, 2)
        bw.write(bits - 2, 3)
        tw, th = -(-w // (1 << bits)), -(-h // (1 << bits))
        tiles = [0xFF000000 | (predictor_mode << 8)] * (tw * th)
        _emit_pixels(bw, tiles, tw, th, False)
        px = _fwd_predict(px, w, h, predictor_mode)
    elif transform == "color":
        bits = 3
        bw.write(1, 1)
        bw.write(1, 2)
        bw.write(bits - 2, 3)
        tw, th = -(-w // (1 << bits)), -(-h // (1 << bits))
        g2r, g2b, r2b = cte
        tile = 0xFF000000 | (r2b << 16) | (g2b << 8) | g2r
        _emit_pixels(bw, [tile] * (tw * th), tw, th, False)
        a = np.array(px, dtype=np.uint32).reshape(h, w)
        gch = ((a >> 8) & 0xFF).astype(np.uint8)
        r0 = ((a >> 16) & 0xFF).astype(np.int32)
        b0 = (a & 0xFF).astype(np.int32)
        t_g2r = np.full((h, w), g2r, np.uint8)
        t_g2b = np.full((h, w), g2b, np.uint8)
        t_r2b = np.full((h, w), r2b, np.uint8)
        r1 = (r0 - _ctd(t_g2r, gch)) & 0xFF
        b1 = (b0 - _ctd(t_g2b, gch)
              - _ctd(t_r2b, r0.astype(np.uint8))) & 0xFF
        a = ((a & np.uint32(0xFF00FF00)) | (r1.astype(np.uint32) << 16)
             | b1.astype(np.uint32))
        px = [int(v) for v in a.reshape(-1)]
    elif transform == "palette":
        uniq = sorted(set(px))
        if len(uniq) > 256:
            raise ValueError("palette transform needs <=256 colors")
        lut = {v: i for i, v in enumerate(uniq)}
        bw.write(1, 1)
        bw.write(3, 2)
        bw.write(len(uniq) - 1, 8)
        quads = np.array(uniq, dtype=np.uint32)
        chans = np.stack([(quads >> s) & 0xFF for s in (24, 16, 8, 0)])
        deltas = np.diff(chans.astype(np.int64), prepend=0, axis=1) & 0xFF
        dpx = [int((deltas[0, i] << 24) | (deltas[1, i] << 16)
                   | (deltas[2, i] << 8) | deltas[3, i])
               for i in range(len(uniq))]
        _emit_pixels(bw, dpx, len(uniq), 1, False)
        idx = np.array([lut[v] for v in px],
                       dtype=np.uint32).reshape(h, w)
        xbits = _palette_xbits(len(uniq))
        if xbits:
            per = 1 << xbits
            bpp = 8 >> xbits
            wr = -(-w // per)
            packed = np.zeros((h, wr), dtype=np.uint32)
            for i in range(per):
                part = idx[:, i::per]
                packed[:, :part.shape[1]] |= part << (i * bpp)
            cur_w = wr
            gpx = packed
        else:
            gpx = idx
        px = [int(0xFF000000 | (v << 8)) for v in gpx.reshape(-1)]
    elif transform is not None:
        raise ValueError(f"unknown transform {transform!r}")
    bw.write(0, 1)                      # no more transforms

    _emit_pixels(bw, px, cur_w, h, True, cache_bits=cache_bits,
                 backref_rows=backref_rows, use_meta=use_meta)
    body = b"\x2f" + bw.flush()
    chunk = b"VP8L" + len(body).to_bytes(4, "little") + body
    if len(body) & 1:
        chunk += b"\x00"
    riff = b"WEBP" + chunk
    return b"RIFF" + len(riff).to_bytes(4, "little") + riff
