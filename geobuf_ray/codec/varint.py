"""Vectorized protobuf varint / zigzag kernels (numpy).

These are the hot inner loops of the geobuf codec, re-expressed as
batch-at-a-time numpy array programs instead of the reference's
hand-unrolled per-value Go writers (see ``/root/reference/geobuf_raw/
write_primitives.go:43-198`` ``WritePackedUint64`` and the ``pbf``
dependency's readers).  Semantics are wire-identical: little-endian
base-128 varints, max 10 bytes, zigzag ``(v << 1) ^ (v >> 63)``.

Everything here is pure numpy over flat buffers — no Ray, no Python
per-value loops.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MAX_VARINT_BYTES = 10


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """int64 -> uint64 zigzag, matching ``paramEnc`` (geom.go:182-184).

    int32 in, uint32 out — half-width delta streams stay half-width
    through the downstream ``varint_encode`` passes."""
    if values.dtype == np.int32:
        v = np.ascontiguousarray(values)
        return ((v.view(np.uint32) << np.uint32(1))
                ^ (v >> np.int32(31)).view(np.uint32))
    v = np.ascontiguousarray(values, dtype=np.int64)
    # .view is a zero-copy reinterpret (astype would copy)
    return (v.view(_U64) << _U64(1)) ^ (v >> np.int64(63)).view(_U64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """uint64 zigzag -> int64 (uint32 in, int32 out — half-width
    streams from ``varint_decode_stream`` stay half-width; consumers
    upcast at their accumulate step)."""
    # (u >> 1) ^ -(u & 1) in signed space (views are free; one fewer
    # full-array pass than the ~x + 1 formulation)
    if values.dtype == np.uint32:
        u = np.ascontiguousarray(values)
        one = np.uint32(1)
        return ((u >> one).view(np.int32) ^ -((u & one).view(np.int32)))
    u = np.ascontiguousarray(values, dtype=_U64)
    return ((u >> _U64(1)).view(np.int64)
            ^ -((u & _U64(1)).view(np.int64)))


def varint_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode a uint64 (or uint32 — half the pass traffic, same bytes)
    array to a flat varint byte stream.

    Returns ``(flat_bytes uint8[:], lengths int64[n])`` where
    ``lengths[i]`` is the encoded byte length of ``values[i]``.
    """
    if values.dtype == np.uint32:
        v = np.ascontiguousarray(values)
    else:
        v = np.ascontiguousarray(values, dtype=_U64)
    dt = v.dtype.type
    n = len(v)
    if n == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    # ONE threshold compare per byte position, kept and reused three
    # ways: summed (as uint8 — 8x less traffic than the old int64
    # accumulate) for the byte lengths, as the round's selection mask,
    # and as the round's continuation bit.  Offsets run in int32 when
    # the stream can't reach 2 GiB (blocks never do) — halves the
    # index-math traffic of the cumsum and every scatter.
    vmax = int(v.max())
    masks: list[np.ndarray] = []
    nb8 = np.ones(n, np.uint8)
    max_k = 4 if v.dtype == np.uint32 else 9
    for k in range(1, max_k + 1):
        if vmax < (1 << (7 * k)):
            break
        m = v >= dt(1 << (7 * k))
        masks.append(m)
        nb8 += m
    maxnb = len(masks) + 1
    nb = nb8.astype(np.int64)
    idx_t = np.int32 if maxnb * n < 2**31 else np.int64
    ends = np.cumsum(nb8, dtype=idx_t)
    total = int(ends[-1])
    starts = ends - nb8
    # DESCENDING full-array rounds into a padded buffer: round k
    # writes byte k of EVERY value — a write past value i's last byte
    # lands inside a later value's range and is overwritten by a
    # later (smaller-k) round, so no per-round validity mask or length
    # compare exists at all.  Rounds that touch only a sparse tail
    # (long values in a mostly-short stream) switch to an
    # index-selected scatter, which writes only valid positions and
    # therefore composes with the overwrite-descending scheme.
    out = np.empty(total + maxnb, dtype=np.uint8)
    for k in range(maxnb - 1, 0, -1):
        m = masks[k - 1]
        cont = masks[k] if k < maxnb - 1 else None
        if int(np.count_nonzero(m)) * 4 < n:
            sel = np.flatnonzero(m)
            vs = v[sel]
            byte = ((vs >> dt(7 * k)) & dt(0x7F)).astype(np.uint8)
            if cont is not None:
                byte |= cont[sel].view(np.uint8) << np.uint8(7)
            out[starts[sel] + idx_t(k)] = byte
        else:
            byte = ((v >> dt(7 * k)) & dt(0x7F)).astype(np.uint8)
            if cont is not None:
                byte |= cont.view(np.uint8) << np.uint8(7)
            out[starts + idx_t(k)] = byte
    byte0 = (v & dt(0x7F)).astype(np.uint8)
    if maxnb > 1:
        byte0 |= masks[0].view(np.uint8) << np.uint8(7)
    out[starts] = byte0
    return out[:total], nb


def varint_decode_stream(
    buf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode a flat byte stream of back-to-back varints.

    Returns ``(values_u32, start_offsets, big_idx, big_vals_u64)``;
    ``start_offsets[i]`` is the byte offset where value i begins.  The
    stream must end exactly on a value boundary.

    The bulk accumulates in uint32 (values < 2^28, 4 varint bytes —
    true of all but ~1 per ring of a geometry delta stream): half the
    memory traffic on the hot accumulation passes.  The rare >= 5-byte
    lanes (a ring start's absolute delta) carry their exact value in
    the ``big_vals`` side channel, so downstream zigzag/cumsum run at
    half width with an O(rings) patch (measured ~8x cheaper than the
    full-width pipeline).  ``values[big_idx]`` holds only the low 28
    bits — callers MUST patch before use."""
    b = np.ascontiguousarray(buf, dtype=np.uint8)
    if len(b) == 0:
        return (np.empty(0, np.uint32), np.empty(0, np.int64),
                np.empty(0, np.int64), np.empty(0, _U64))
    # terminator positions ARE the value ends: starts/lengths follow
    # with one shift + one subtract (no len(b)-sized shifted bool, no
    # append-copy + diff)
    ends = np.flatnonzero(b < 0x80)
    n = len(ends)
    # the docstring contract: the stream ends exactly on a value
    # boundary.  A terminator-less or mid-varint-truncated stream is
    # corrupt input — raise the same class of error the scalar walk
    # did instead of IndexError / silently dropping the tail.
    if n == 0 or ends[-1] != len(b) - 1:
        raise ValueError("truncated varint stream (no terminator on "
                         "the final value)")
    start_idx = np.empty(n, dtype=np.int64)
    start_idx[0] = 0
    np.add(ends[:-1], 1, out=start_idx[1:])
    # accumulate per byte POSITION.  Two cost tricks, worth ~2x on the
    # coords shape (mostly 2-3-byte deltas, where round 1 touches ~all
    # lanes so per-pass cost dominates):
    #   * the previous gathered byte's CONTINUATION BIT is the round's
    #     validity mask — a uint8 multiply (~10x cheaper than a uint64
    #     mask pass), so no per-round `nb > j` compare or fancy-index
    #     scatter (`values[sel] |= ...` is gather+or+scatter)
    #   * round j gathers from the padded VIEW bp[j:] at start_idx —
    #     no start_idx+j temporary per round
    # Rounds go full-array while most lanes continue, then switch to a
    # shrinking selection for the sparse tail.
    bp = np.empty(len(b) + _MAX_VARINT_BYTES, np.uint8)
    bp[:len(b)] = b
    bp[len(b):] = 0
    b0 = bp[start_idx]
    values = (b0 & np.uint8(0x7F)).astype(np.uint32)
    m = b0 >> np.uint8(7)  # uint8: 1 while the value's chain continues
    big_idx = np.empty(0, np.int64)
    big_vals = np.empty(0, _U64)
    j = 1
    while True:
        cnt = int(np.count_nonzero(m))
        if cnt == 0:
            return values, start_idx, big_idx, big_vals
        if j >= 4:
            break  # big lanes go to the side-channel sparse walk
        if cnt * 3 < n:
            break
        gj = bp[j:][start_idx]
        values |= ((gj & np.uint8(0x7F)) * m).astype(np.uint32) \
            << np.uint32(7 * j)
        m = (gj >> np.uint8(7)) & m
        j += 1
    sel = np.flatnonzero(m)
    ssel = start_idx[sel]
    while len(sel):
        if j >= 4:
            # side-channel the >= 5-byte lanes: finish their chains in
            # a u64 accumulator aligned with sel; the u32 bulk keeps
            # only their low 28 bits
            big_idx = sel
            big = values[sel].astype(_U64)
            pos = np.arange(len(sel))
            while len(sel):
                if j >= _MAX_VARINT_BYTES:
                    raise ValueError(
                        "varint longer than 10 bytes in stream")
                gj = bp[j:][ssel]
                big[pos] |= (gj & np.uint8(0x7F)).astype(_U64) \
                    << _U64(7 * j)
                keep = gj >= 0x80
                sel, ssel, pos = sel[keep], ssel[keep], pos[keep]
                j += 1
            big_vals = big
            break
        gj = bp[j:][ssel]
        values[sel] |= (gj & np.uint8(0x7F)).astype(np.uint32) \
            << np.uint32(7 * j)
        keep = gj >= 0x80
        sel, ssel = sel[keep], ssel[keep]
        j += 1
    return values, start_idx, big_idx, big_vals


def gather_varints(buf: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode ONE varint starting at each of n arbitrary positions.

    Vectorized: 10-byte window gather per position, terminator argmax,
    masked base-128 dot.  Returns ``(values uint64[n], nbytes
    int64[n])``.  A varint whose value needs more than 64 bits (no
    terminator in its 10 bytes, or a 10th byte above 1) gets
    ``nbytes`` 0 and a meaningless value.  Positions past the end of
    ``buf`` read its last byte.
    """
    n = len(pos)
    if n == 0:
        return np.empty(0, _U64), np.empty(0, np.int64)
    cap = len(buf) - 1
    # tiered windows: in the structure scan most varints are 1 byte
    # (key lengths, small record lengths), so a full (n, 10) gather is
    # ~10x the needed work — try 1 byte, then 5, then 10 for stragglers
    b0 = buf[np.minimum(pos, cap)]
    values = (b0 & np.uint8(0x7F)).astype(_U64)
    nbytes = np.ones(n, np.int64)
    rem = np.flatnonzero(b0 >= 0x80)
    for width in (5, _MAX_VARINT_BYTES):
        if len(rem) == 0:
            return values, nbytes
        k = np.arange(width, dtype=np.int64)
        win = pos[rem, None] + k
        np.minimum(win, cap, out=win)
        w = buf[win]  # (len(rem), width)
        term = (w & 0x80) == 0
        first = term.argmax(axis=1)
        done = term.any(axis=1)
        mask = (k <= first[:, None]).astype(_U64)
        contrib = (w.astype(_U64) & _U64(0x7F)) << (_U64(7) * k.astype(_U64))
        v = (contrib * mask).sum(axis=1, dtype=_U64)
        hit = np.flatnonzero(done) if not done.all() else slice(None)
        values[rem[hit]] = v[hit]
        nbytes[rem[hit]] = first[hit] + 1
        if width == _MAX_VARINT_BYTES:
            nbytes[rem[~done | ((first == width - 1) & (w[:, -1] > 1))]] = 0
        rem = rem[~done] if not done.all() else rem[:0]
    return values, nbytes


def encode_varint_scalar(x: int) -> bytes:
    """Scalar varint encode for headers / framing (uint64 semantics)."""
    x &= (1 << 64) - 1
    out = bytearray()
    while x > 127:
        out.append(0x80 | (x & 0x7F))
        x >>= 7
    out.append(x)
    return bytes(out)


def decode_varint_scalar(buf, pos: int = 0) -> tuple[int, int]:
    """Scalar varint decode; returns (value, next_pos)."""
    shift = 0
    val = 0
    while True:
        byte = buf[pos]
        val |= (byte & 0x7F) << shift
        pos += 1
        if byte < 0x80:
            return val, pos
        shift += 7


def gather_spans(data: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """``concat(data[starts[i] : starts[i]+lengths[i]])`` fused.

    Builds the gather index with ONE total-size cumsum (unit increments
    with a jump scattered at each segment boundary) instead of the
    repeat + arange + add chain — ~2x fewer full-size passes on the
    codec's hottest gathers.
    """
    lengths = np.ascontiguousarray(lengths, np.int64)
    keep = lengths > 0
    if not keep.all():
        starts, lengths = starts[keep], lengths[keep]
    if len(lengths) == 0:
        return np.empty(0, data.dtype)
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    # Dense sorted spans (a batch's geometry or value fields: they
    # tile most of the record bytes): build a BOOLEAN keep-mask with an
    # int8 +1/-1 boundary scatter + cumsum instead of materializing a
    # full int64 gather index — 8x less scratch (int8 vs int64 per
    # stream byte, and no index output), which is what keeps decode
    # peak memory ~2x the block size instead of ~17x at 64 MB blocks.
    span_ends = starts + lengths
    if len(starts) > 1:
        sorted_disjoint = bool((starts[1:] >= span_ends[:-1]).all())
    else:
        sorted_disjoint = True
    if sorted_disjoint:
        lo = int(starts[0])
        hi = int(span_ends[-1])
        if total * 2 >= hi - lo:  # dense enough for the mask pass
            # the mask is an alternating span/gap RUN-LENGTH sequence:
            # one np.repeat builds it directly — measured ~10x cheaper
            # than the previous +1/-1 boundary scatter + int8 cumsum
            # (cumsum has no SIMD path) and than the gap-index scatter
            runs = np.empty(2 * len(starts), np.int64)
            runs[0::2] = lengths
            runs[1:-1:2] = starts[1:] - span_ends[:-1]
            runs[-1] = 0
            flags = np.empty(2 * len(starts), bool)
            flags[0::2] = True
            flags[1::2] = False
            mask = np.repeat(flags, runs)
            return data[lo:hi][mask]
    inc = np.ones(total, np.int64)
    inc[0] = starts[0]
    if len(lengths) > 1:
        # at each segment's first output byte, jump from the previous
        # segment's last input index to this segment's start
        inc[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return data[np.cumsum(inc)]


def ramp(lengths: np.ndarray) -> np.ndarray:
    """[0..l0-1, 0..l1-1, ...] — per-segment arange, vectorized."""
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if len(lengths) == 0:
        return np.empty(0, np.int64)
    ends = np.cumsum(lengths)
    total = ends[-1]
    starts = ends - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def rowwise_concat(
    segments: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Interleave k variable-length byte streams row-wise.

    ``segments`` is a list of ``(flat uint8[:], lengths int64[n])`` all
    with the same row count n.  Returns ``(out uint8[:], row_lengths
    int64[n])`` where row i is the concatenation of segment_0[i],
    segment_1[i], ... — the vectorized replacement for the reference's
    ``AppendAll`` (write_primitives.go:24-38) applied across a whole
    batch at once.
    """
    if not segments:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    n = len(segments[0][1])
    row_lens = np.zeros(n, dtype=np.int64)
    for _, l in segments:
        row_lens += l
    total = int(row_lens.sum())
    out = np.empty(total, dtype=np.uint8)
    # int32 index math (blocks are far below 2 GiB) and a single
    # repeat per segment: within a segment the source bytes are already
    # consecutive, so dst = arange(seg_total) + per-row shift — no
    # second repeat for a position ramp
    idx_t = np.int32 if total < 2**31 else np.int64
    row_starts = np.cumsum(row_lens, dtype=idx_t) - row_lens.astype(idx_t)
    offset_within = np.zeros(n, dtype=idx_t)
    for flat, l in segments:
        if len(flat) == 0:
            continue  # empty flat => all-zero lens; no offset to add
        seg_starts = np.cumsum(l, dtype=idx_t) - l.astype(idx_t)
        shift = row_starts + offset_within - seg_starts
        dst = np.repeat(shift, l)
        dst += np.arange(len(flat), dtype=idx_t)
        out[dst] = flat
        offset_within += l.astype(idx_t)
    return out, row_lens


def segmented_cumsum(values: np.ndarray, seg_starts_mask: np.ndarray) -> np.ndarray:
    """Cumulative sum that restarts where ``seg_starts_mask`` is True.

    Vectorized via global cumsum minus per-segment base — the
    replacement for the reference's per-ring delta accumulator reset
    (``readline``'s fresh ``pt``, geom.go:127-157).  Integer input
    accumulates in int64 (int32 delta streams would overflow at the
    running-coordinate step).
    """
    dt = np.int64 if values.dtype.kind in "iu" else None
    c = np.cumsum(values, dtype=dt)
    starts = np.flatnonzero(seg_starts_mask)
    if len(starts) == 0:
        return c
    seg_lens = np.diff(np.append(starts, len(values)))
    base = np.repeat(c[starts] - values[starts], seg_lens)
    return c - base
