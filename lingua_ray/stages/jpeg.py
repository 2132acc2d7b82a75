"""Baseline JPEG codec, pure NumPy + stdlib — no external codecs.

Decoder: Huffman JPEG, sequential (SOF0/SOF1) AND progressive (SOF2) —
marker walk, DQT/DHT/SOS parsing,
byte-unstuffing with restart-marker segmentation, canonical-Huffman
entropy decode through a 16-bit lookahead table, dequantization, and
batched-matmul 2-D IDCTs.
Progressive streams accumulate coefficients scan by scan (spectral
selection + successive approximation per T.81 §G.2: DC first/refine,
AC first with EOBn end-of-band runs, AC refinement with correction
bits) and assemble at EOI.  :func:`decode_jpeg` keeps the cheap
(width, height, mean_luma) contract (luma IDCT only; chroma blocks are
entropy-decoded to keep the bitstream in sync); :func:`decode_jpeg_pixels`
is the FULL decode — chroma IDCT, replication upsampling to the luma
grid, BT.601 YCbCr→RGB — returning the uint8 pixel array.
Extended-sequential 12-bit precision decodes too (16-bit DQT, 2048
level shift; pixel outputs scale to the uint8 contract).
Arithmetic-coded (SOF9/SOF10), hierarchical, lossless and CMYK streams
return ``None`` — an honest boundary, not a crash.

Encoder (:func:`encode_jpeg`): the TEST ORACLE — grayscale or YCbCr 4:4:4 /
4:2:0, optional restart intervals, orthonormal FDCT, and self-built
canonical Huffman tables written into DHT (fixed-length code sets: 12 DC
categories at 4 bits, the 256 run/size symbols at 9-10 bits — valid Huffman
tables by construction, so the decoder's canonical-code machinery is
exercised without transcribing the T.81 Annex K code tables).
``progressive=True`` emits a 9-scan SOF2 stream (interleaved DC at Al=1
+ refinement, split luma spectral bands with two successive-approximation
levels, per-chroma AC bands) mirroring libjpeg's emission discipline —
EOB-run folding, ZRL inside refinement, buffered correction bits — so the
decoder's §G.2 paths are all exercised by round-trip against the
sequential decode of the same image.

The per-symbol entropy loop is Python (Huffman decoding is inherently
bit-serial); throughput is bounded per payload, which is the documented
trade for a dependency-free decoder.  Reference: ITU-T T.81 §B (syntax),
§F (sequential DCT decoding).  No pipeline stage or query imports this
module; the transcript filter has no image path.
"""

from __future__ import annotations

import struct

import numpy as np

# ----------------------------------------------------------------- tables


def _zigzag() -> np.ndarray:
    """Zigzag scan order, generated (not transcribed): zz[k] = raster
    index of the k-th coefficient in scan order."""
    order = sorted(((i + j, (j if (i + j) % 2 else i), i, j)
                    for i in range(8) for j in range(8)))
    return np.array([i * 8 + j for (_, _, i, j) in order], dtype=np.int64)


_ZZ = _zigzag()

# Annex-K-style luminance table (any positive table is legal — the
# encoder writes it into DQT and the decoder reads DQT, so correctness
# never depends on these exact values).
_QLUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)
_QCHROM = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)


def _dct_matrix() -> np.ndarray:
    k = np.arange(8).reshape(8, 1)
    j = np.arange(8).reshape(1, 8)
    c = np.cos((2 * j + 1) * k * np.pi / 16) * np.sqrt(2 / 8)
    c[0, :] = np.sqrt(1 / 8)
    return c


_C = _dct_matrix()


def _scaled_q(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG-style quality scaling (50 → base table)."""
    quality = min(max(int(quality), 1), 100)
    s = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (base * s + 50) // 100
    return np.clip(q, 1, 255)


# ----------------------------------------------------------- huffman core


def _canonical_codes(bits: list[int], vals: list[int]):
    """(symbol -> (code, length)) per T.81 C.2 canonical assignment."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


def _lookahead_table(bits: list[int], vals: list[int]) -> np.ndarray:
    """65536-entry (symbol << 5 | length) lookup keyed by the next 16
    bits — one table probe per Huffman symbol instead of bit-by-bit
    tree walking."""
    lut = np.zeros(1 << 16, dtype=np.int32)
    for sym, (code, length) in _canonical_codes(bits, vals).items():
        lo = code << (16 - length)
        hi = (code + 1) << (16 - length)
        lut[lo:hi] = (sym << 5) | length
    return lut


def _extend(v: int, t: int) -> int:
    if t == 0:
        return 0
    return v - (1 << t) + 1 if v < (1 << (t - 1)) else v


class _BitReader:
    """MSB-first bit reader over an unstuffed entropy segment."""

    __slots__ = ("data", "n", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.n = len(data) * 8
        self.pos = 0

    def peek16(self) -> int:
        byte = self.pos >> 3
        # 3 bytes always cover a 16-bit window at any bit offset
        chunk = self.data[byte:byte + 3]
        v = int.from_bytes(chunk + b"\x00" * (3 - len(chunk)), "big")
        return (v >> (8 - (self.pos & 7))) & 0xFFFF

    def take(self, k: int) -> int:
        if self.pos + k > self.n:
            raise EOFError("entropy segment exhausted")
        v = self.peek16() >> (16 - k) if k else 0
        self.pos += k
        return v


def _split_entropy(p: bytes, start: int):
    """Unstuff 0xFF00 and split at RSTn markers.  Returns (segments,
    stop) — DC predictors and EOB runs reset at each segment boundary;
    ``stop`` is the offset of the marker that ended the scan, so a
    progressive decoder can resume the marker walk there."""
    segs = []
    cur = bytearray()
    i = start
    n = len(p)
    while i < n:
        b = p[i]
        if b != 0xFF:
            cur.append(b)
            i += 1
            continue
        if i + 1 >= n:
            break
        m = p[i + 1]
        if m == 0x00:
            cur.append(0xFF)
            i += 2
        elif 0xD0 <= m <= 0xD7:
            segs.append(bytes(cur))
            cur = bytearray()
            i += 2
        else:                       # EOI or any other marker ends the scan
            break
    segs.append(bytes(cur))
    return segs, i


# ---------------------------------------------------------------- decoder


def decode_jpeg(p: bytes):
    """Decode a Huffman JPEG (sequential SOF0/SOF1 or progressive SOF2);
    returns (width, height, mean_luma in [0,1]) or None for streams
    outside the supported subset."""
    try:
        return _decode_jpeg_inner(p, pixels=False)
    except (EOFError, IndexError, ValueError, KeyError, struct.error):
        return None


def decode_jpeg_pixels(p: bytes):
    """FULL pixel decode of a Huffman JPEG (sequential or progressive):
    every component's coefficients are dequantized and IDCTed (not just
    luma), chroma is
    upsampled by replication to the luma grid, and YCbCr converts back
    to RGB (ITU-R BT.601, the T.81 Annex companion transform).  Returns
    uint8 (H, W) for grayscale or (H, W, 3) RGB, or None outside the
    supported subset (incl. sampling factors that don't divide the max —
    never seen from real encoders)."""
    try:
        return _decode_jpeg_inner(p, pixels=True)
    except (EOFError, IndexError, ValueError, KeyError, struct.error):
        return None


def _decode_jpeg_inner(p: bytes, pixels: bool = False):
    if len(p) < 4 or p[:2] != b"\xff\xd8":
        return None
    qt: dict[int, np.ndarray] = {}
    hdc: dict[int, np.ndarray] = {}
    hac: dict[int, np.ndarray] = {}
    frame = None
    dri = 0
    i = 2
    prog_started = False
    while i + 2 <= len(p):
        if p[i] != 0xFF:
            return None
        m = p[i + 1]
        if m == 0xD9:               # EOI
            if prog_started:        # all progressive scans accumulated
                return _assemble(frame, pixels)
            return None             # EOI before any SOS
        if m == 0x01 or 0xD0 <= m <= 0xD7:
            i += 2
            continue
        if i + 4 > len(p):
            return None
        seglen = struct.unpack(">H", p[i + 2:i + 4])[0]
        seg = p[i + 4:i + 2 + seglen]
        if m == 0xDB:               # DQT
            j = 0
            while j < len(seg):
                pq, tq = seg[j] >> 4, seg[j] & 15
                if pq == 0:         # 8-bit entries
                    tbl = np.frombuffer(seg[j + 1:j + 65],
                                        dtype=np.uint8).astype(np.int64)
                    j += 65
                elif pq == 1:       # 16-bit entries (12-bit precision)
                    tbl = np.frombuffer(seg[j + 1:j + 129],
                                        dtype=">u2").astype(np.int64)
                    j += 129
                else:
                    return None
                raster = np.zeros(64, dtype=np.int64)
                raster[_ZZ] = tbl
                qt[tq] = raster
        elif m == 0xC4:             # DHT
            j = 0
            while j + 17 <= len(seg):
                tc, th = seg[j] >> 4, seg[j] & 15
                bits = list(seg[j + 1:j + 17])
                nv = sum(bits)
                vals = list(seg[j + 17:j + 17 + nv])
                (hdc if tc == 0 else hac)[th] = _lookahead_table(bits, vals)
                j += 17 + nv
        elif m in (0xC0, 0xC1, 0xC2):   # Huffman SOFs
            prec, h, w, nc = struct.unpack(">BHHB", seg[:6])
            if prec not in (8, 12) or nc not in (1, 3) \
                    or w == 0 or h == 0:
                return None
            if prec == 12 and m == 0xC0:
                return None         # baseline SOF0 is 8-bit only
            if w * h > 64_000_000:
                return None         # 64 MP guard — reject before
                                    # allocating coefficient planes for
                                    # a crafted SOF
            comps = []
            for c in range(nc):
                cid, hv, tq = seg[6 + 3 * c:9 + 3 * c]
                if (hv >> 4) == 0 or (hv & 15) == 0:
                    return None     # zero sampling factor: an empty luma
                                    # plane would yield mean-of-[] = NaN
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 15,
                              "tq": tq})
            frame = {"w": w, "h": h, "comps": comps, "qt": qt,
                     "prog": m == 0xC2, "prec": prec, "pixels": pixels}
        elif m in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE,
                   0xCF):
            return None             # lossless / hierarchical / arithmetic
        elif m == 0xDD:             # DRI
            dri = struct.unpack(">H", seg[:2])[0]
        elif m == 0xDA:             # SOS
            if frame is None:
                return None
            ns = seg[0]
            sel = {}
            order = []
            for c in range(ns):
                cid, tt = seg[1 + 2 * c:3 + 2 * c]
                sel[cid] = (tt >> 4, tt & 15)
                order.append(cid)
            if not frame["prog"]:   # sequential: one scan and done
                return _decode_scan(p, i + 2 + seglen, frame, sel, qt,
                                    hdc, hac, dri, pixels=pixels)
            if not prog_started:
                _init_prog_state(frame)
                prog_started = True
            band = (seg[1 + 2 * ns], seg[2 + 2 * ns],
                    seg[3 + 2 * ns] >> 4, seg[3 + 2 * ns] & 15)
            i = _progressive_scan(p, i + 2 + seglen, frame, order,
                                  sel, qt, hdc, hac, dri, band)
            continue
        i += 2 + seglen
    return None


def _idct_plane(coef: np.ndarray, q: np.ndarray, bw: int,
                bh: int, level: float = 128.0) -> np.ndarray:
    """Batched-matmul dequantize + 2-D IDCT: (n_blocks, 64) coefficients
    → (bh*8, bw*8) float plane, level-shifted but unclipped."""
    blocks = (coef * q).reshape(-1, 8, 8).astype(np.float64)
    pix = np.einsum("ij,njk,kl->nil", _C.T, blocks, _C) + level
    return (pix.reshape(bh, bw, 8, 8).transpose(0, 2, 1, 3)
               .reshape(bh * 8, bw * 8))


def _decode_scan(p, start, frame, sel, qt, hdc, hac, dri,
                 pixels: bool = False):
    comps = frame["comps"]
    if len(sel) != len(comps):
        return None                 # multi-scan out of subset
    w, h = frame["w"], frame["h"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    if hmax == 0 or vmax == 0:
        return None
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    for ci, c in enumerate(comps):
        c["dc_lut"], c["ac_lut"] = (hdc[sel[c["id"]][0]],
                                    hac[sel[c["id"]][1]])
        c["pred"] = 0
        c["bw"], c["bh"] = mcux * c["h"], mcuy * c["v"]
        # mean-luma mode stores (and later IDCTs) luma only; pixel mode
        # keeps every component's coefficients for the chroma IDCT
        c["coef"] = (np.zeros((c["bh"] * c["bw"], 64), dtype=np.int64)
                     if pixels or ci == 0 else None)

    segs, _ = _split_entropy(p, start)
    n_mcu = mcux * mcuy
    per_seg = dri if dri else n_mcu
    mcu = 0
    for seg in segs:
        if mcu >= n_mcu:
            break
        br = _BitReader(seg)
        for c in comps:
            c["pred"] = 0
        end = min(n_mcu, mcu + per_seg)
        while mcu < end:
            my, mx = divmod(mcu, mcux)
            for c in comps:
                for by in range(c["v"]):
                    for bx in range(c["h"]):
                        blk = _decode_block(br, c)
                        if c["coef"] is not None:
                            row = my * c["v"] + by
                            col = mx * c["h"] + bx
                            c["coef"][row * c["bw"] + col] = blk
            mcu += 1
    if mcu < n_mcu:
        return None                 # truncated stream
    return _assemble(frame, pixels)


def _assemble(frame, pixels: bool):
    """Dequantize + IDCT + (pixel mode) chroma upsample + YCbCr→RGB —
    shared by the sequential one-scan path and the progressive
    accumulate-until-EOI path."""
    comps = frame["comps"]
    w, h = frame["w"], frame["h"]
    qt = frame["qt"]
    prec = frame.get("prec", 8)
    level = float(1 << (prec - 1))
    maxv = float((1 << prec) - 1)
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    if not pixels:
        luma = comps[0]
        plane = _idct_plane(luma["coef"], qt[luma["tq"]], luma["bw"],
                            luma["bh"], level)
        yw = -(-w * luma["h"] // hmax)
        yh = -(-h * luma["v"] // vmax)
        plane = np.clip(plane[:yh, :yw], 0.0, maxv)
        return w, h, float(plane.mean() / maxv)

    planes = []
    for c in comps:
        if hmax % c["h"] or vmax % c["v"]:
            return None     # non-divisor sampling: legal per T.81 but
                            # emitted by no real encoder; upsampling
                            # would need fractional interpolation
        plane = _idct_plane(c["coef"], qt[c["tq"]], c["bw"], c["bh"],
                            level)
        fx, fy = hmax // c["h"], vmax // c["v"]
        if fy > 1:
            plane = plane.repeat(fy, axis=0)
        if fx > 1:
            plane = plane.repeat(fx, axis=1)
        # 12-bit planes scale to the uint8 output contract
        planes.append(plane[:h, :w] * (255.0 / maxv))
    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    half = 255.0 * level / maxv
    y, cb, cr = (planes[0], planes[1] - half, planes[2] - half)
    rgb = np.stack([y + 1.402 * cr,
                    y - 0.344136 * cb - 0.714136 * cr,
                    y + 1.772 * cb], axis=-1)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def _decode_block(br: _BitReader, c) -> np.ndarray:
    coef = np.zeros(64, dtype=np.int64)
    lut = int(c["dc_lut"][br.peek16()])
    sym, ln = lut >> 5, lut & 31
    if ln == 0:
        raise ValueError("invalid DC code")
    br.pos += ln
    if br.pos > br.n:
        # peek16 zero-pads past EOF, so a truncated final MCU could
        # otherwise decode 1-2 phantom DC-only blocks from the padding
        # and return a slightly-wrong mean instead of None — mirror the
        # bounds check in take()
        raise EOFError("entropy segment exhausted")
    diff = _extend(br.take(sym), sym)
    c["pred"] += diff
    coef[_ZZ[0]] = c["pred"]
    k = 1
    ac = c["ac_lut"]
    while k < 64:
        lut = int(ac[br.peek16()])
        sym, ln = lut >> 5, lut & 31
        if ln == 0:
            raise ValueError("invalid AC code")
        br.pos += ln
        if br.pos > br.n:
            raise EOFError("entropy segment exhausted")
        r, s = sym >> 4, sym & 15
        if s == 0:
            if r == 15:
                k += 16
                continue
            break                   # EOB
        k += r
        if k > 63:
            raise ValueError("AC run past block end")
        coef[_ZZ[k]] = _extend(br.take(s), s)
        k += 1
    return coef


# ------------------------------------------------------ progressive scans


def _init_prog_state(frame) -> None:
    """Allocate per-component coefficient planes once, before the first
    progressive scan; every later scan accumulates into them.  All
    components are stored even in mean-luma mode — chroma refinement
    bits must be consumed to keep the stream in sync, which needs the
    chroma coefficient history."""
    comps = frame["comps"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    frame["mcux"] = -(-frame["w"] // (8 * hmax))
    frame["mcuy"] = -(-frame["h"] // (8 * vmax))
    for c in comps:
        c["bw"], c["bh"] = frame["mcux"] * c["h"], frame["mcuy"] * c["v"]
        cw = -(-frame["w"] * c["h"] // hmax)
        ch = -(-frame["h"] * c["v"] // vmax)
        # non-interleaved scans cover only the useful block grid, not
        # the MCU-padded grid (T.81 A.2.2)
        c["nw"], c["nh"] = -(-cw // 8), -(-ch // 8)
        c["coef"] = np.zeros((c["bh"] * c["bw"], 64), dtype=np.int64)
        c["pred"] = 0


def _progressive_scan(p, start, frame, order, sel, qt, hdc, hac, dri,
                      band) -> int:
    """One progressive SOS (spectral band Ss..Se at successive-
    approximation Ah→Al); returns the stream offset where the marker
    walk resumes.  T.81 §G.2."""
    ss, se, ah, al = band
    if se > 63 or al > 13 or ah > 13 or (ah and ah != al + 1):
        raise ValueError("bad progressive scan parameters")
    byid = {c["id"]: c for c in frame["comps"]}
    scomps = [byid[cid] for cid in order]
    segs, end = _split_entropy(p, start)
    if ss == 0:
        if se != 0:
            raise ValueError("progressive DC scan must have Se=0")
        _prog_dc_scan(segs, frame, scomps, sel, hdc, dri, ah, al)
    else:
        if len(scomps) != 1:
            raise ValueError("progressive AC scans are single-component")
        _prog_ac_scan(segs, scomps[0], sel, hac, dri, ss, se, ah, al)
    return end


def _dc_unit(br: _BitReader, c, idx: int, ah: int, al: int) -> None:
    if ah == 0:
        lut = int(c["dc_lut"][br.peek16()])
        sym, ln = lut >> 5, lut & 31
        if ln == 0:
            raise ValueError("invalid DC code")
        br.pos += ln
        if br.pos > br.n:
            raise EOFError("entropy segment exhausted")
        c["pred"] += _extend(br.take(sym), sym)
        c["coef"][idx, 0] = c["pred"] << al
    elif br.take(1):
        # two's complement makes |= correct for negative DCs too:
        # the bit is bit Al of the true signed value
        c["coef"][idx, 0] |= 1 << al


def _prog_dc_scan(segs, frame, scomps, sel, hdc, dri, ah, al) -> None:
    interleaved = len(scomps) > 1
    if interleaved:
        mcux = frame["mcux"]
        units = mcux * frame["mcuy"]
    else:
        units = scomps[0]["nw"] * scomps[0]["nh"]
    if ah == 0:
        for c in scomps:
            c["dc_lut"] = hdc[sel[c["id"]][0]]
    per_seg = dri if dri else units
    u = 0
    for seg in segs:
        if u >= units:
            break
        br = _BitReader(seg)
        for c in scomps:
            c["pred"] = 0
        endu = min(units, u + per_seg)
        while u < endu:
            if interleaved:
                my, mx = divmod(u, mcux)
                for c in scomps:
                    for by in range(c["v"]):
                        for bx in range(c["h"]):
                            idx = ((my * c["v"] + by) * c["bw"]
                                   + mx * c["h"] + bx)
                            _dc_unit(br, c, idx, ah, al)
            else:
                c = scomps[0]
                my, mx = divmod(u, c["nw"])
                _dc_unit(br, c, my * c["bw"] + mx, ah, al)
            u += 1
    if u < units:
        raise EOFError("truncated progressive DC scan")


def _ac_sym(br: _BitReader, ac) -> int:
    lut = int(ac[br.peek16()])
    sym, ln = lut >> 5, lut & 31
    if ln == 0:
        raise ValueError("invalid AC code")
    br.pos += ln
    if br.pos > br.n:
        raise EOFError("entropy segment exhausted")
    return sym


def _ac_first(br, ac, coef, ss, se, al, eobrun) -> int:
    """AC first scan for one block (T.81 G.1.2.2): sequential RS coding
    plus EOBn end-of-band runs; values enter shifted by Al."""
    if eobrun:
        return eobrun - 1
    k = ss
    while k <= se:
        sym = _ac_sym(br, ac)
        r, s = sym >> 4, sym & 15
        if s == 0:
            if r == 15:
                k += 16
                continue
            return (1 << r) - 1 + br.take(r)
        k += r
        if k > se:
            raise ValueError("AC run past band end")
        coef[_ZZ[k]] = _extend(br.take(s), s) << al
        k += 1
    return 0


def _ac_refine(br, ac, coef, ss, se, al, eobrun) -> int:
    """AC refinement for one block (T.81 G.1.2.3): newly-significant
    coefficients arrive as ±2^Al; every already-nonzero coefficient
    crossed on the way contributes one correction bit."""
    p1 = 1 << al
    k = ss
    if eobrun == 0:
        while k <= se:
            sym = _ac_sym(br, ac)
            r, s = sym >> 4, sym & 15
            val = 0
            if s == 0:
                if r < 15:
                    # full run count incl. the current block — the tail
                    # walk below handles this block, then returns run-1
                    eobrun = (1 << r) + br.take(r)
                    break
                # r == 15: skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError("refinement magnitude > 1")
                val = p1 if br.take(1) else -p1
            while k <= se:
                z = _ZZ[k]
                if coef[z] != 0:
                    if br.take(1) and not (coef[z] & p1):
                        coef[z] += p1 if coef[z] > 0 else -p1
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if val and k <= se:
                coef[_ZZ[k]] = val
            k += 1
    if eobrun:
        while k <= se:
            z = _ZZ[k]
            if coef[z] != 0:
                if br.take(1) and not (coef[z] & p1):
                    coef[z] += p1 if coef[z] > 0 else -p1
            k += 1
        return eobrun - 1
    return 0


def _prog_ac_scan(segs, c, sel, hac, dri, ss, se, ah, al) -> None:
    ac = hac[sel[c["id"]][1]]
    units = c["nw"] * c["nh"]
    per_seg = dri if dri else units
    u = 0
    for seg in segs:
        if u >= units:
            break
        br = _BitReader(seg)
        eobrun = 0
        endu = min(units, u + per_seg)
        while u < endu:
            my, mx = divmod(u, c["nw"])
            coef = c["coef"][my * c["bw"] + mx]
            if ah == 0:
                eobrun = _ac_first(br, ac, coef, ss, se, al, eobrun)
            else:
                eobrun = _ac_refine(br, ac, coef, ss, se, al, eobrun)
            u += 1
    if u < units:
        raise EOFError("truncated progressive AC scan")


# ---------------------------------------------------------------- encoder


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)      # byte stuffing
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            self.put(0x7F >> (7 - ((8 - self.nbits) % 8)), (-self.nbits) % 8)


def _fixed_tables(precision: int = 8):
    """Self-built canonical Huffman tables (see module docstring):
    DC categories at 4 bits (12 of them; 16 at 5 bits for 12-bit
    precision), all 256 AC run/size symbols at 9-10 bits."""
    if precision == 12:
        dc_bits = [0, 0, 0, 0, 16] + [0] * 11
        dc_vals = list(range(16))
    else:
        dc_bits = [0, 0, 0, 12] + [0] * 12
        dc_vals = list(range(12))
    # DHT stores one count byte per code length, so 256 symbols cannot
    # share one length: 255 nine-bit codes + 1 ten-bit code (canonical,
    # and the max code is never the all-ones pattern)
    ac_bits = [0] * 8 + [255, 1] + [0] * 6
    ac_vals = list(range(256))
    return (dc_bits, dc_vals, _canonical_codes(dc_bits, dc_vals),
            ac_bits, ac_vals, _canonical_codes(ac_bits, ac_vals))


def _category(v: int) -> int:
    return int(abs(v)).bit_length()


def _encode_block(bw: _BitWriter, coef: np.ndarray, pred: int,
                  dc_codes, ac_codes) -> int:
    zz = coef[_ZZ]
    dc = int(zz[0])
    diff = dc - pred
    t = _category(diff)
    code, ln = dc_codes[t]
    bw.put(code, ln)
    if t:
        bw.put(diff if diff >= 0 else diff + (1 << t) - 1, t)
    run = 0
    nz = np.flatnonzero(zz[1:])
    last = nz[-1] + 1 if len(nz) else 0
    for k in range(1, last + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_codes[0xF0]
            bw.put(code, ln)
            run -= 16
        s = _category(v)
        code, ln = ac_codes[(run << 4) | s]
        bw.put(code, ln)
        bw.put(v if v >= 0 else v + (1 << s) - 1, s)
        run = 0
    if last < 63:
        code, ln = ac_codes[0x00]
        bw.put(code, ln)
    return dc


def _fdct_quant(plane: np.ndarray, q: np.ndarray,
                level: float = 128.0) -> np.ndarray:
    """plane (H,W) multiple of 8 → (n_blocks_y, n_blocks_x, 64) quantized
    coefficients (raster order within block)."""
    h, w = plane.shape
    blocks = (plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
                   .reshape(-1, 8, 8).astype(np.float64) - level)
    coef = np.einsum("ij,njk,kl->nil", _C, blocks, _C.T).reshape(-1, 64)
    qc = np.round(coef / q).astype(np.int64)
    return qc.reshape(h // 8, w // 8, 64)


# ------------------------------------------------- progressive encoder
# (test oracle for the §G.2 decode path: spectral selection +
# successive approximation, incl. EOB runs and buffered correction
# bits, mirroring the emission order the decoder must consume)


def _enc_dc_scan(coefs, samp, mcux, mcuy, dc_codes, ah, al) -> bytes:
    bw = _BitWriter()
    preds = [0] * len(coefs)
    for mcu in range(mcux * mcuy):
        my, mx = divmod(mcu, mcux)
        for ci, (sh, sv) in enumerate(samp):
            for by in range(sv):
                for bx in range(sh):
                    dc = int(coefs[ci][my * sv + by, mx * sh + bx][0])
                    if ah == 0:
                        v = dc >> al          # arithmetic: floor, like C
                        diff = v - preds[ci]
                        preds[ci] = v
                        t = _category(diff)
                        code, ln = dc_codes[t]
                        bw.put(code, ln)
                        if t:
                            bw.put(diff if diff >= 0
                                   else diff + (1 << t) - 1, t)
                    else:
                        bw.put((dc >> al) & 1, 1)
    bw.flush()
    return bytes(bw.out)


def _pt(v: int, al: int) -> int:
    """AC point transform: truncation toward zero (T.81 G.1.1.2)."""
    return v >> al if v >= 0 else -((-v) >> al)


def _enc_ac_first(blocks, ac_codes, ss, se, al) -> bytes:
    bw = _BitWriter()
    eobrun = 0

    def flush_eob():
        nonlocal eobrun
        if eobrun:
            r = eobrun.bit_length() - 1
            code, ln = ac_codes[r << 4]
            bw.put(code, ln)
            if r:
                bw.put(eobrun & ((1 << r) - 1), r)
            eobrun = 0

    for blk in blocks:
        zz = blk[_ZZ]
        vals = [_pt(int(v), al) for v in zz[ss:se + 1]]
        nz = [i for i, v in enumerate(vals) if v]
        if not nz:
            eobrun += 1
            if eobrun == 0x7FFF:
                flush_eob()
            continue
        flush_eob()
        r = 0
        for i in range(nz[-1] + 1):
            v = vals[i]
            if v == 0:
                r += 1
                continue
            while r > 15:
                code, ln = ac_codes[0xF0]
                bw.put(code, ln)
                r -= 16
            s = _category(v)
            code, ln = ac_codes[(r << 4) | s]
            bw.put(code, ln)
            bw.put(v if v >= 0 else v + (1 << s) - 1, s)
            r = 0
        if nz[-1] < se - ss:
            eobrun += 1
    flush_eob()
    bw.flush()
    return bytes(bw.out)


def _enc_ac_refine(blocks, ac_codes, ss, se, al) -> bytes:
    bw = _BitWriter()
    eobrun = 0
    be_bits: list[int] = []

    def flush_eob():
        nonlocal eobrun, be_bits
        if eobrun:
            r = eobrun.bit_length() - 1
            code, ln = ac_codes[r << 4]
            bw.put(code, ln)
            if r:
                bw.put(eobrun & ((1 << r) - 1), r)
            for b in be_bits:
                bw.put(b, 1)
            eobrun = 0
            be_bits = []

    for blk in blocks:
        zz = blk[_ZZ]
        vals = [_pt(int(v), al) for v in zz[ss:se + 1]]
        absv = [abs(v) for v in vals]
        eob = -1                         # last NEWLY significant coef
        for i, t in enumerate(absv):
            if t == 1:
                eob = i
        r = 0
        br_bits: list[int] = []
        for i, t in enumerate(absv):
            if t == 0:
                r += 1
                continue
            # ZRLs needed before a coming new coef; beyond the last new
            # coef they fold into the EOB run instead
            while r > 15 and i <= eob:
                flush_eob()
                code, ln = ac_codes[0xF0]
                bw.put(code, ln)
                r -= 16
                for b in br_bits:
                    bw.put(b, 1)
                br_bits = []
            if t > 1:                    # history-nonzero: correction bit
                br_bits.append(t & 1)
                continue
            flush_eob()
            code, ln = ac_codes[(r << 4) | 1]
            bw.put(code, ln)
            r = 0
            bw.put(1 if vals[i] > 0 else 0, 1)
            for b in br_bits:
                bw.put(b, 1)
            br_bits = []
        if r > 0 or br_bits:
            eobrun += 1
            be_bits.extend(br_bits)
            if eobrun == 0x7FFF:
                flush_eob()
    flush_eob()
    bw.flush()
    return bytes(bw.out)


def _pad_to(plane: np.ndarray, mh: int, mw: int) -> np.ndarray:
    h, w = plane.shape
    ph, pw = -(-h // mh) * mh, -(-w // mw) * mw
    return np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")


def encode_jpeg(img: np.ndarray, quality: int = 85,
                subsample: bool = False, restart_interval: int = 0,
                progressive: bool = False, precision: int = 8) -> bytes:
    """Encode (H,W) grayscale or (H,W,3) RGB uint8 to baseline JPEG.
    ``subsample=True`` uses 4:2:0 chroma (multi-block interleaved MCUs);
    ``restart_interval`` emits DRI + RSTn markers every N MCUs
    (sequential mode only).  ``progressive=True`` emits an SOF2
    multi-scan stream — interleaved DC first scan at Al=1 + DC
    refinement, per-component spectral AC bands with two successive-
    approximation levels for luma — exercising EOB runs, ZRL folding
    and buffered correction bits."""
    img = np.asarray(img)
    gray = img.ndim == 2
    if precision == 12 and not gray:
        raise ValueError("12-bit oracle is grayscale-only")
    maxv = (1 << precision) - 1
    level = float(1 << (precision - 1))
    qy = _scaled_q(_QLUM, quality).astype(np.float64)
    qc = _scaled_q(_QCHROM, quality).astype(np.float64)
    h, w = img.shape[:2]
    if gray:
        planes = [img.astype(np.float64)]
        samp = [(1, 1)]
        qsel = [0]
    else:
        rgb = img.astype(np.float64)
        y = rgb @ np.array([0.299, 0.587, 0.114])
        cb = (rgb @ np.array([-0.168736, -0.331264, 0.5])) + 128.0
        cr = (rgb @ np.array([0.5, -0.418688, -0.081312])) + 128.0
        if subsample:
            pe = _pad_to(cb, 2, 2)
            cb = pe.reshape(pe.shape[0] // 2, 2,
                            pe.shape[1] // 2, 2).mean(axis=(1, 3))
            pe = _pad_to(cr, 2, 2)
            cr = pe.reshape(pe.shape[0] // 2, 2,
                            pe.shape[1] // 2, 2).mean(axis=(1, 3))
            samp = [(2, 2), (1, 1), (1, 1)]
        else:
            samp = [(1, 1), (1, 1), (1, 1)]
        planes = [y, cb, cr]
        qsel = [0, 1, 1]
    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    coefs = []
    for pl, (sh, sv), qs in zip(planes, samp, qsel):
        pl = _pad_to(np.clip(pl, 0, maxv), mcuy * sv * 8, mcux * sh * 8)
        coefs.append(_fdct_quant(pl, qy if qs == 0 else qc, level))

    dc_bits, dc_vals, dc_codes, ac_bits, ac_vals, ac_codes = \
        _fixed_tables(precision)
    out = bytearray(b"\xff\xd8")

    def seg(marker: int, body: bytes):
        out.extend(b"\xff" + bytes([marker]))
        out.extend(struct.pack(">H", len(body) + 2))
        out.extend(body)

    if precision == 12:
        # Pq=1: 16-bit table entries, exercising the wide DQT parse
        seg(0xDB, bytes([0x10]) +
            _scaled_q(_QLUM, quality)[_ZZ].astype(">u2").tobytes())
    else:
        seg(0xDB, bytes([0x00]) +
            _scaled_q(_QLUM, quality)[_ZZ].astype(np.uint8).tobytes())
    if not gray:
        seg(0xDB, bytes([0x01]) +
            _scaled_q(_QCHROM, quality)[_ZZ].astype(np.uint8).tobytes())
    sof = struct.pack(">BHHB", precision, h, w, len(planes))
    for c, (sh, sv) in enumerate(samp):
        sof += bytes([c + 1, (sh << 4) | sv, qsel[c]])
    seg(0xC2 if progressive else (0xC1 if precision == 12 else 0xC0),
        sof)
    for tc_th, (bits, vals) in ((0x00, (dc_bits, dc_vals)),
                                (0x10, (ac_bits, ac_vals))):
        seg(0xC4, bytes([tc_th]) + bytes(bits) + bytes(vals))
    if restart_interval and not progressive:
        seg(0xDD, struct.pack(">H", restart_interval))

    if progressive:
        def comp_blocks(ci):
            # non-interleaved scans walk the USEFUL block grid
            # ceil(ceil(dim * sampling / max) / 8), not the padded one
            sh, sv = samp[ci]
            cw, ch = -(-w * sh // hmax), -(-h * sv // vmax)
            nw, nh = -(-cw // 8), -(-ch // 8)
            return [coefs[ci][r, c] for r in range(nh)
                    for c in range(nw)]

        def sos_scan(comp_ids, ss_, se_, ah_, al_, payload):
            hdr = bytes([len(comp_ids)])
            for cid in comp_ids:
                hdr += bytes([cid + 1, 0x00])
            hdr += bytes([ss_, se_, (ah_ << 4) | al_])
            seg(0xDA, hdr)
            out.extend(payload)

        all_ids = list(range(len(planes)))
        sos_scan(all_ids, 0, 0, 0, 1,
                 _enc_dc_scan(coefs, samp, mcux, mcuy, dc_codes, 0, 1))
        # luma AC: two spectral bands at Al=2, then 2->1->0 refinements
        lb = comp_blocks(0)
        sos_scan([0], 1, 5, 0, 2, _enc_ac_first(lb, ac_codes, 1, 5, 2))
        sos_scan([0], 6, 63, 0, 2, _enc_ac_first(lb, ac_codes, 6, 63, 2))
        for ci in range(1, len(planes)):
            sos_scan([ci], 1, 63, 0, 1,
                     _enc_ac_first(comp_blocks(ci), ac_codes, 1, 63, 1))
        sos_scan([0], 1, 63, 2, 1, _enc_ac_refine(lb, ac_codes, 1, 63, 1))
        sos_scan([0], 1, 63, 1, 0, _enc_ac_refine(lb, ac_codes, 1, 63, 0))
        sos_scan(all_ids, 0, 0, 1, 0,
                 _enc_dc_scan(coefs, samp, mcux, mcuy, dc_codes, 1, 0))
        for ci in range(1, len(planes)):
            sos_scan([ci], 1, 63, 1, 0,
                     _enc_ac_refine(comp_blocks(ci), ac_codes, 1, 63, 0))
        out.extend(b"\xff\xd9")
        return bytes(out)

    sos = bytes([len(planes)])
    for c in range(len(planes)):
        sos += bytes([c + 1, 0x00])   # DC table 0, AC table 0 for all
    sos += bytes([0, 63, 0])
    seg(0xDA, sos)

    bw = _BitWriter()
    preds = [0] * len(planes)
    n_mcu = mcux * mcuy
    rst = 0
    for mcu in range(n_mcu):
        if restart_interval and mcu and mcu % restart_interval == 0:
            bw.flush()
            out.extend(bw.out)
            bw = _BitWriter()
            out.extend(b"\xff" + bytes([0xD0 + (rst & 7)]))
            rst += 1
            preds = [0] * len(planes)
        my, mx = divmod(mcu, mcux)
        for ci, (sh, sv) in enumerate(samp):
            for by in range(sv):
                for bx in range(sh):
                    blk = coefs[ci][my * sv + by, mx * sh + bx]
                    raster = np.zeros(64, dtype=np.int64)
                    raster[:] = blk
                    preds[ci] = _encode_block(bw, raster, preds[ci],
                                              dc_codes, ac_codes)
    bw.flush()
    out.extend(bw.out)
    out.extend(b"\xff\xd9")
    return bytes(out)
