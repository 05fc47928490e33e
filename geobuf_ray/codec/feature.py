"""Vectorized geobuf feature codec: Arrow batch <-> protobuf record bytes.

Wire format (studied from ``/root/reference/``, re-implemented from
scratch as numpy batch kernels — see SURVEY.md §1.2):

record   := [0x08 varint(id)]? keyvalue* [0x18 geomcode]?
            [0x22 varint(len) packed_geometry]? [0x2A varint(len) bbox]?
keyvalue := 0x12 varint(len) 0x0A varint(len(key)) key value
value    := 0x12 varint(len) inner            (write_primitives.go:244-286)
inner    := 0x0A varint(len) utf8      — string  (field 1)
           | 0x15 f32le                — float   (field 2)
           | 0x19 f64le                — double  (field 3)
           | 0x20 varint(uint64(v))    — int64   (field 4)
           | 0x28 varint(v)            — uint64  (field 5)
           | 0x30 varint(zigzag(v))    — sint64  (field 6, read-only legacy)
           | 0x38 0|1                  — bool    (field 7)
geomcode := geom_type (1..6) when dim==2 else (geom_type<<4)|dim
            (geom.go:59-76)
packed_geometry (geom.go:187-302), every value a varint:
  Point            zigzag(q(x)) zigzag(q(y))          — 2 dims always
  Line/MultiPoint  first point absolute, then per-dim deltas
  Poly/MultiLine   per ring: varint(n_pts*dim) then delta stream,
                   delta accumulator RESET per ring
  MultiPolygon     per polygon: varint(n_rings), then rings as above
bbox     := packed zigzag(q(W)) q(S) q(E) q(N)        (bb.go:137-154;
            README's "N,S,E,W" comment is wrong — code order is W,S,E,N)
q(v)     := int64(v * 1e7)   — TRUNCATION toward zero (geom.go:173-179)
decode   := cumsum(deltas) / 1e7 — we accumulate quantized int64 exactly,
            so the result is within 1e-7 of the reference's float
            accumulate+round(half-up, 7dp) (geom.go:78-90,127-157)

Framing (one stream record): 0x0A varint(len) record  (writer.go:73-89).
"""

from __future__ import annotations

from array import array

import numpy as np
import pyarrow as pa

from . import varint as vi
from .schema import (
    GEOM_COLUMNS,
    MULTIPOLYGON,
    MULTILINESTRING,
    POINT,
    POLYGON,
    property_columns,
    list_column_parts,
)

_POWER = 1e7
_U64 = np.uint64


def quantize(coords: np.ndarray) -> np.ndarray:
    """float64 -> int64 via truncation toward zero (``ConvertPt``).

    The float->int astype IS truncation toward zero (C cast
    semantics), so no separate np.trunc pass."""
    return (coords * _POWER).astype(np.int64)


def dequantize(q: np.ndarray) -> np.ndarray:
    """int64 -> float64, adjusted so ``quantize(dequantize(q)) == q``.

    ``q / 1e7`` rounds to the nearest double, which can land a hair on
    the WRONG side of the decimal (e.g. 3276049/1e7 ->
    0.32760489999...): the reference's truncating ``ConvertPt`` then
    re-quantizes it to q∓1, so every encode∘decode cycle drifts one
    quantum (the Go reference drifts identically — geom.go:173-179
    truncates the same float product).  Nudging those lanes one ulp
    toward the true decimal keeps the value strictly CLOSER to
    q * 10^-7 and makes encode∘decode the identity on the quantized
    domain (for |q| < 2^53; beyond float64's exact-integer range no
    double can requantize exactly — geographic coordinates quantize
    to |q| <= 1.8e9, far inside)."""
    qf = q.astype(np.float64)  # exact for |q| < 2^53
    d = qf / _POWER
    if len(d) == 0:
        return d
    # re-quantization IS trunc(d * 10^7): detect wrong lanes by the
    # definition directly — one trunc + one compare (the previous
    # two-abs + subtract + two-compare sign fold measured ~25% slower
    # end-to-end).  |q| >= 2^53 is outside float64's exact-integer
    # range — no double can requantize to q, the identity contract
    # ends there (geographic coordinates quantize to |q| <= 1.8e9) —
    # that guard runs only on the rare wrong lanes.
    e = d * _POWER
    sel = np.flatnonzero(np.trunc(e) != qf)
    if len(sel):
        sel = sel[np.abs(q[sel]) < (1 << 53)]
    r = np.trunc(e[sel]).astype(np.int64)  # only the wrong lanes
    # one nudge suffices in practice; bounded anyway.  Only the
    # detection pass above is full-array — the re-check loop runs on
    # the ~6% of lanes whose nearest-double landed on the wrong side.
    qs, rs = q[sel], r
    for _ in range(3):
        if len(sel) == 0:
            break
        # one-ulp step toward the true decimal, as IEEE-754 bit
        # arithmetic (np.nextafter costs ~50 ns/lane — this is the
        # whole function's former hot spot): for a positive double,
        # +1 on the int64 view steps toward +inf; for a negative one
        # the directions flip (sign-magnitude ordering)
        dsel = d[sel]
        toward_pinf = qs > rs
        step = np.where(toward_pinf == (dsel >= 0.0),
                        np.int64(1), np.int64(-1))
        ds = (dsel.view(np.int64) + step).view(np.float64)
        d[sel] = ds
        rs = np.trunc(ds * _POWER).astype(np.int64)
        still = rs != qs
        sel, qs, rs = sel[still], qs[still], rs[still]
    return d


# ---------------------------------------------------------------------------
# property value segment builders (column-vectorized)
# ---------------------------------------------------------------------------


def _varint_segment(vals_u64: np.ndarray, valid: np.ndarray, tag: int):
    """value bytes ``0x12 varint(n+1) tag varint(v)`` per row (nulls→0).

    Returns LEAF segments ``[(flat, lens), ...]`` — assembled once in
    ``encode_batch``'s single ``rowwise_concat`` so each byte moves
    exactly once (the old nested-concat path moved property bytes
    three times)."""
    n = len(vals_u64)
    body_flat, body_lens = vi.varint_encode(vals_u64)
    head = np.zeros((n, 3), np.uint8)
    head[:, 0] = 0x12
    head[:, 1] = (body_lens + 1).astype(np.uint8)
    head[:, 2] = tag
    # drop null body bytes
    if not valid.all():
        keep = np.repeat(valid, body_lens)
        body_flat = body_flat[keep]
        body_lens = np.where(valid, body_lens, 0)
        head_lens = np.where(valid, 3, 0).astype(np.int64)
        head = head[valid]
    else:
        head_lens = np.full(n, 3, np.int64)
    return [(head.reshape(-1), head_lens), (body_flat, body_lens)]


def _fixed_segment(raw: np.ndarray, valid: np.ndarray, tag: int, width: int):
    """value bytes ``0x12 (width+1) tag <width raw bytes>`` per row.

    Returns leaf segments (see ``_varint_segment``)."""
    n = len(valid)
    out = np.zeros((n, width + 3), np.uint8)
    out[:, 0] = 0x12
    out[:, 1] = width + 1
    out[:, 2] = tag
    out[:, 3:] = raw.reshape(n, width)
    lens = np.where(valid, width + 3, 0).astype(np.int64)
    flat = out[valid].reshape(-1)
    return [(flat, lens)]


def _string_segment(col: pa.Array, valid: np.ndarray):
    """value bytes ``0x12 varint(n) 0x0A varint(len) utf8`` per row."""
    arr = col
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.string())
    offsets = arr.buffers()[1]
    offs = np.frombuffer(offsets, np.int32, len(arr) + 1, arr.offset * 4).astype(
        np.int64
    )
    data = np.frombuffer(arr.buffers()[2], np.uint8) if arr.buffers()[2] else np.empty(0, np.uint8)
    s_lens = np.diff(offs)
    s_lens = np.where(valid, s_lens, 0)
    # gather string bytes (handles sliced arrays / null gaps)
    starts = offs[:-1]
    src = np.repeat(starts, s_lens) + vi.ramp(s_lens)
    s_flat = data[src]
    len_pref_flat, len_pref_lens = vi.varint_encode(s_lens.astype(_U64))
    inner_lens = 1 + len_pref_lens + s_lens  # 0x0A varint(len) utf8
    outer_pref_flat, outer_pref_lens = vi.varint_encode(inner_lens.astype(_U64))
    n = len(s_lens)
    # the two 1-byte tags and the (always-1-byte here? no — varint)
    # prefixes stay separate leaves; ``encode_batch``'s single concat
    # interleaves them.  Fuse the constant tags with nothing — they're
    # 1 byte/row and cheap.
    if valid.all():
        tag12 = np.full(n, 0x12, np.uint8)
        tag0a = np.full(n, 0x0A, np.uint8)
        one = np.ones(n, np.int64)
        return [
            (tag12, one),
            (outer_pref_flat, outer_pref_lens),
            (tag0a, one),
            (len_pref_flat, len_pref_lens),
            (s_flat, s_lens),
        ]
    nvalid = int(valid.sum())
    tag_lens = valid.astype(np.int64)
    tag12 = np.full(nvalid, 0x12, np.uint8)
    tag0a = np.full(nvalid, 0x0A, np.uint8)
    outer_pref_flat = outer_pref_flat[np.repeat(valid, outer_pref_lens)]
    outer_pref_lens = np.where(valid, outer_pref_lens, 0)
    len_pref_flat = len_pref_flat[np.repeat(valid, len_pref_lens)]
    len_pref_lens = np.where(valid, len_pref_lens, 0)
    # s_flat / s_lens already zero out null rows (s_lens was masked)
    return [
        (tag12, tag_lens),
        (outer_pref_flat, outer_pref_lens),
        (tag0a, tag_lens.copy()),
        (len_pref_flat, len_pref_lens),
        (s_flat, s_lens),
    ]


def _valid_mask(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count == 0:
        return np.ones(len(col), bool)
    return ~col.is_null().to_numpy(zero_copy_only=False)


def encode_property_column(name: str, col) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-row keyvalue byte LEAF SEGMENTS for one property column.

    Returns ``[(flat uint8, lengths int64), ...]`` to be interleaved by
    ``encode_batch``'s single ``rowwise_concat``; null rows contribute
    0 bytes in every leaf (a Go map simply lacks the key).
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = _valid_mask(col)
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        val_segs = _string_segment(col, valid)
    elif pa.types.is_float64(t):
        raw = col.fill_null(0.0).to_numpy(zero_copy_only=False).astype("<f8").view(np.uint8)
        val_segs = _fixed_segment(raw, valid, 0x19, 8)
    elif pa.types.is_float32(t):
        raw = col.fill_null(0.0).to_numpy(zero_copy_only=False).astype("<f4").view(np.uint8)
        val_segs = _fixed_segment(raw, valid, 0x15, 4)
    elif pa.types.is_boolean(t):
        vals = col.fill_null(False).to_numpy(zero_copy_only=False).astype(np.uint8)
        n = len(vals)
        out = np.zeros((n, 4), np.uint8)
        out[:, 0] = 0x12
        out[:, 1] = 2
        out[:, 2] = 0x38
        out[:, 3] = vals
        val_lens = np.where(valid, 4, 0).astype(np.int64)
        val_segs = [(out[valid].reshape(-1), val_lens)]
    elif pa.types.is_unsigned_integer(t):
        vals = col.fill_null(0).to_numpy(zero_copy_only=False).astype(_U64)
        val_segs = _varint_segment(vals, valid, 0x28)
    elif pa.types.is_integer(t):
        vals = col.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64).astype(_U64)
        val_segs = _varint_segment(vals, valid, 0x20)
    else:
        raise TypeError(f"unsupported property type {t} for column {name!r}")

    val_lens = val_segs[0][1].copy()
    for _, l in val_segs[1:]:
        val_lens += l
    key = name.encode("utf-8")
    key_hdr = bytes([0x0A]) + vi.encode_varint_scalar(len(key)) + key
    n = len(valid)
    inner_lens = len(key_hdr) + val_lens
    inner_lens = np.where(valid, inner_lens, 0)
    pref_flat, pref_lens = vi.varint_encode(inner_lens.astype(_U64))
    if valid.all():
        tag = np.full(n, 0x12, np.uint8)
        tag_lens = np.ones(n, np.int64)
        key_flat = np.tile(np.frombuffer(key_hdr, np.uint8), n)
        key_lens = np.full(n, len(key_hdr), np.int64)
    else:
        nvalid = int(valid.sum())
        tag = np.full(nvalid, 0x12, np.uint8)
        tag_lens = valid.astype(np.int64)
        pref_flat = pref_flat[np.repeat(valid, pref_lens)]
        pref_lens = np.where(valid, pref_lens, 0)
        key_flat = np.tile(np.frombuffer(key_hdr, np.uint8), nvalid)
        key_lens = np.where(valid, len(key_hdr), 0).astype(np.int64)
    return [
        (tag, tag_lens),
        (pref_flat, pref_lens),
        (key_flat, key_lens),
        *val_segs,
    ]


# ---------------------------------------------------------------------------
# geometry encode
# ---------------------------------------------------------------------------


def _raise_at(c_offs: np.ndarray, value: int, what: str):
    record = int(np.searchsorted(c_offs, value, "right")) - 1
    raise ValueError(f"record {record}: {what}")


def _quantize_checked(coords: np.ndarray, c_offs: np.ndarray):
    """``(quantize(coords), wide)``; raises ``ValueError`` naming the
    record of a null, NaN or infinite coordinate, or of one whose
    quantized value does not fit int64 (the cast would give garbage,
    not an error).  ``wide`` says some |value| reaches 2^62, the only
    case where a delta of two quantized values can wrap."""
    scaled = coords * _POWER
    ok = (scaled >= -(2.0**63)) & (scaled < 2.0**63)  # False for NaN
    if not ok.all():
        j = int(np.argmin(ok))
        _raise_at(c_offs, j, f"coordinate {coords[j]!r} is null, not "
                  "finite or out of int64 range when quantized")
    wide = bool(np.abs(scaled).max() >= 2.0**62)
    return scaled.astype(np.int64), wide


def _geometry_segments(table: pa.Table):
    """Build (geom_flat, geom_lens, bbox_flat, bbox_lens) per feature."""
    n = table.num_rows
    geom_type = table["geom_type"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    if "dim" in table.column_names:
        dim = table["dim"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        dim = np.full(n, 2, np.int64)
    coords, c_offs = list_column_parts(table["coords"], np.float64)
    ring_sizes, r_offs = list_column_parts(table["ring_sizes"], np.int64)
    if "poly_sizes" in table.column_names:
        poly_sizes, p_offs = list_column_parts(table["poly_sizes"], np.int64)
    else:
        poly_sizes = np.ones(len(ring_sizes), np.int64)
        p_offs = r_offs

    coords_per_feat = np.diff(c_offs)
    rings_per_feat = np.diff(r_offs)
    polys_per_feat = np.diff(p_offs)
    has_geom = coords_per_feat > 0
    if (poly_sizes == 0).any():
        # empty polygons are dropped at encode: in this columnar stream
        # layout the polygon's ring-count prefix lives in its FIRST
        # ring's slot, which an empty polygon does not have.  (The
        # reference would emit num_rings=0; decode handles that form.)
        pf = np.repeat(np.arange(n), polys_per_feat)
        keep_poly = poly_sizes > 0
        poly_sizes = poly_sizes[keep_poly]
        polys_per_feat = np.bincount(pf[keep_poly], minlength=n).astype(np.int64)

    # per-ring feature index & geom metadata
    ring_feat = np.repeat(np.arange(n), rings_per_feat)
    ring_g = geom_type[ring_feat]
    ring_d = dim[ring_feat]
    n_rings = len(ring_sizes)

    # per-point arrays (points may have mixed dims across the batch).
    # The universal uniform-dim-2 batch skips every per-point gather
    # (pt_feat / pt_dim / pt_base are only needed for mixed-dim or
    # dim>2 batches — building them is three 10-byte-per-point passes).
    uniform2 = bool(n) and int(dim.max()) == 2 and int(dim.min()) == 2
    if uniform2:
        pts_per_feat = coords_per_feat >> 1
        total_pts = len(coords) >> 1
        pt_feat = pt_dim = pt_base = None
    else:
        pts_per_feat = np.where(dim > 0, coords_per_feat // np.maximum(dim, 1), 0)
        pt_feat = np.repeat(np.arange(n), pts_per_feat)
        pt_dim = dim[pt_feat]
        pt_base = np.concatenate(([0], np.cumsum(pt_dim)[:-1])) if len(pt_dim) else np.empty(0, np.int64)
        total_pts = len(pt_dim)
    # offset of each feature's first coord must match c_offs
    # (true because coords are concatenated in feature order)

    # per-value (coordinate scalar) arrays laid out point-major
    total_vals = len(coords)
    # ring start positions in point units
    ring_pt_ends = np.cumsum(ring_sizes)
    ring_pt_starts = ring_pt_ends - ring_sizes
    # deltas per dimension with reset at ring starts
    zz = None
    dim2 = uniform2 if uniform2 else (
        bool(total_pts) and int(pt_dim.max()) == 2
        and int(pt_dim.min()) == 2)
    if total_vals and dim2:
        # Quantized geographic coordinates fit int32 (|q| <= 1.8e9 <
        # 2^31): quantize straight to int32 and run the whole
        # delta/zigzag pipeline at half width — same bytes, half the
        # memory traffic of the int64 lane.  Delta overflow (a
        # consecutive jump > 214.7 degrees) is caught by the exact
        # int32-subtract overflow test ((a^b)&(a^(a-b)))<0 and falls
        # back to the int64 path (NaN/inf coords also fall back: the
        # min/max compare below is False for them).
        cmin, cmax = coords.min(), coords.max()
        if cmin * _POWER > -(2.0**31) and cmax * _POWER < 2.0**31 - 1:
            q32 = (coords * _POWER).astype(np.int32)
            delta = np.empty(total_vals, np.int32)
            delta[:2] = q32[:2]
            np.subtract(q32[2:], q32[:-2], out=delta[2:])
            # span-bounded: no int32 delta can overflow.  The margin of
            # a few quanta covers the float rounding of the span product
            # against the truncated per-coordinate quantization.
            if (cmax - cmin) * _POWER < 2.0**31 - 4:
                ok = True
            else:
                ov = ((q32[2:] ^ q32[:-2]) & (q32[2:] ^ delta[2:])) < 0
                ok = not ov.any()
            if ok:
                rs = ring_pt_starts[ring_pt_starts < total_pts] * 2
                delta[rs] = q32[rs]
                delta[rs + 1] = q32[rs + 1]
                zz = vi.zigzag_encode(delta)
    if total_vals and zz is None:
        q, wide = _quantize_checked(coords, c_offs)
        delta = np.empty(total_vals, np.int64)
        # value index of each point's dim-j coord: pt_base + j
        # compute deltas pointwise: d[p] = q[p] - q[p-1] per dim, reset at ring start
        if dim2:
            # dim-2 fast path (the universal case): point-major layout
            # means q[p] - q[p-2] IS the same-dim previous-point delta
            # for both x and y — one strided subtract, then restore the
            # absolute value at each ring's first point
            delta[:] = q
            delta[2:] -= q[:-2]
            rs = ring_pt_starts[ring_pt_starts < total_pts] * 2
            delta[rs] = q[rs]
            delta[rs + 1] = q[rs + 1]
        else:
            delta[:] = q
            # previous point same-dim index
            prev_idx = pt_base - pt_dim  # start of previous point
            ring_start_mask_pt = np.zeros(len(pt_dim), bool)
            ring_start_mask_pt[ring_pt_starts[ring_pt_starts < len(pt_dim)]] = True
            interior = ~ring_start_mask_pt
            ii = np.flatnonzero(interior)
            if len(ii):
                for j in range(int(pt_dim.max()) if len(pt_dim) else 0):
                    sel = ii[pt_dim[ii] > j]
                    delta[pt_base[sel] + j] = q[pt_base[sel] + j] - q[prev_idx[sel] + j]
        if wide:
            # a - b wrapped iff a and b differ in sign and so do a and
            # a - b; b = q - delta recovers the subtrahend (0 at a ring
            # start, where delta is q itself)
            wrapped = ((q ^ (q - delta)) & (q ^ delta)) < 0
            if wrapped.any():
                _raise_at(c_offs, int(np.argmax(wrapped)),
                          "a coordinate delta does not fit int64")
        # deltas almost always fit int32 (a >=2^31 delta is a
        # >214-degree jump): zigzag + the whole varint_encode pipeline
        # below then run at half width — same bytes, half the traffic
        if -(1 << 31) <= int(delta.min()) and int(delta.max()) < (1 << 31):
            zz = vi.zigzag_encode(delta.astype(np.int32))
        else:
            zz = vi.zigzag_encode(delta)
    if zz is None:
        zz = np.empty(0, np.uint32)

    # which coordinate values are actually emitted: Points emit 2 dims
    # only.  Uniform dim-2 batches keep everything — ring_kept is just
    # 2 values per vertex, no per-point cumsum / where passes at all.
    if uniform2:
        keep_all = True
        ring_kept = ring_sizes * 2
    else:
        keep = np.ones(total_vals, bool)
        pt_is_point_extra = (geom_type[pt_feat] == POINT) & (pt_dim > 2)
        for j in range(2, int(pt_dim.max()) if len(pt_dim) else 2):
            sel = np.flatnonzero(pt_is_point_extra & (pt_dim > j))
            keep[pt_base[sel] + j] = False
        kept_per_pt = np.where(geom_type[pt_feat] == POINT, np.minimum(pt_dim, 2), pt_dim)
        keep_all = bool(keep.all())

        # per-ring emitted value counts
        kept_cum = np.concatenate(([0], np.cumsum(kept_per_pt)))
        ring_kept = kept_cum[np.minimum(ring_pt_ends, len(kept_per_pt))] - kept_cum[ring_pt_starts]

    # prefixes: ring-size prefix for 3/5/6; polygon ring-count prefix
    # for 6.  Features with NO coordinates emit no geometry section at
    # all (has_geom False), so their rings must not contribute prefix
    # varints either — otherwise the prefix bytes land in the stream but
    # are excluded from payload_lens and corrupt the concat
    ring_live = has_geom[ring_feat]
    ring_has_size_prefix = np.isin(
        ring_g, (POLYGON, MULTILINESTRING, MULTIPOLYGON)) & ring_live
    # first ring of each polygon (only for multipolygon)
    poly_feat = np.repeat(np.arange(n), polys_per_feat)
    poly_ring_ends = np.cumsum(poly_sizes)
    poly_ring_starts = poly_ring_ends - poly_sizes
    ring_is_poly_start = np.zeros(n_rings, bool)
    mp_polys = (geom_type[poly_feat] == MULTIPOLYGON) & has_geom[poly_feat]
    ring_is_poly_start[poly_ring_starts[mp_polys]] = True
    ring_prefix_count = ring_has_size_prefix.astype(np.int64) + ring_is_poly_start.astype(np.int64)

    # value-stream layout per ring
    ring_stream_len = ring_prefix_count + ring_kept
    ring_stream_ends = np.cumsum(ring_stream_len)
    ring_stream_starts = ring_stream_ends - ring_stream_len
    stream_total = int(ring_stream_ends[-1]) if n_rings else 0
    # prefixes (ring sizes * dim, poly ring counts) are tiny — the
    # stream dtype follows the vertex values' width
    sdt = zz.dtype if total_vals else _U64
    if stream_total and stream_total == total_vals \
            and not ring_prefix_count.any() and keep_all:
        # no prefixes, nothing dropped (Point/LineString/MultiPoint
        # batches): the stream IS the zigzag delta array — no
        # allocation, no prefix scatters, no 3-pass scatter-index build
        stream = zz
    else:
        stream = np.empty(stream_total, sdt)
        # polygon ring-count prefixes (first slot of the poly's first
        # ring)
        if mp_polys.any():
            stream[ring_stream_starts[poly_ring_starts[mp_polys]]] = poly_sizes[mp_polys].astype(sdt)
        # ring size prefixes (after the optional poly prefix)
        if ring_has_size_prefix.any():
            pos = ring_stream_starts + ring_is_poly_start.astype(np.int64)
            sel = ring_has_size_prefix
            stream[pos[sel]] = (ring_sizes[sel] * ring_d[sel]).astype(sdt)
        # vertex values
        if stream_total:
            dst = np.repeat(ring_stream_starts + ring_prefix_count,
                            ring_kept) + vi.ramp(ring_kept)
            stream[dst] = zz if keep_all else zz[keep]

    # varint-encode the whole stream at once
    flat, vlens = vi.varint_encode(stream)
    # bytes per ring (zero-length rings handled explicitly: reduceat
    # misbehaves on empty segments), then per feature
    ring_byte_lens = np.zeros(n_rings, np.int64)
    nz_rings = ring_stream_len > 0
    if nz_rings.any():
        ring_byte_lens[nz_rings] = np.add.reduceat(
            vlens, ring_stream_starts[nz_rings]
        )
    geom_payload_lens = np.zeros(n, np.int64)
    if n_rings:
        np.add.at(geom_payload_lens, ring_feat, ring_byte_lens)

    # geometry section: 0x18 geomcode [0x22 varint(len) payload].
    # The geomcode is emitted even for empty geometries so geom_type
    # survives a round trip; the 0x22 packed field only when there are
    # coordinates (byte-identical to before for non-empty features)
    geomcode = np.where(dim == 2, geom_type, (geom_type << 4) | dim).astype(np.uint8)
    head_a = np.zeros((n, 2), np.uint8)
    head_a[:, 0] = 0x18
    head_a[:, 1] = geomcode
    head_a_lens = np.full(n, 2, np.int64)
    open_b = np.full(int(has_geom.sum()), 0x22, np.uint8)
    open_lens = has_geom.astype(np.int64)
    pref_flat, pref_lens = vi.varint_encode(geom_payload_lens.astype(_U64))
    if not has_geom.all():
        pref_flat = pref_flat[np.repeat(has_geom, pref_lens)]
        pref_lens = np.where(has_geom, pref_lens, 0)
    payload_lens = np.where(has_geom, geom_payload_lens, 0)
    # returned as separate (flat, lens) pass-through segments so the
    # payload bytes are scattered ONCE in encode_batch's final concat
    geom_segments = [
        (head_a.reshape(-1), head_a_lens),
        (open_b, open_lens),
        (pref_flat, pref_lens),
        (flat, payload_lens),
    ]

    # ---- bbox section (W,S,E,N), from FLOAT coords then truncate ----
    if total_pts:
        feat_pt_starts = np.concatenate(([0], np.cumsum(pts_per_feat)[:-1]))
        nz = pts_per_feat > 0
        starts_nz = feat_pt_starts[nz]
        if uniform2:
            # one 2-D reduceat per extreme instead of two x/y gathers
            # plus four 1-D reduceats
            c2 = coords.reshape(-1, 2)
            if nz.any():
                mins = np.minimum.reduceat(c2, starts_nz, axis=0)
                maxs = np.maximum.reduceat(c2, starts_nz, axis=0)
                west, south = mins[:, 0], mins[:, 1]
                east, north = maxs[:, 0], maxs[:, 1]
            else:
                west = east = south = north = np.empty(0)
        else:
            x = coords[pt_base]
            y = coords[pt_base + 1]
            west = np.minimum.reduceat(x, starts_nz) if nz.any() else np.empty(0)
            east = np.maximum.reduceat(x, starts_nz) if nz.any() else np.empty(0)
            south = np.minimum.reduceat(y, starts_nz) if nz.any() else np.empty(0)
            north = np.maximum.reduceat(y, starts_nz) if nz.any() else np.empty(0)
        bq = np.empty((int(nz.sum()), 4), np.int64)
        bq[:, 0] = quantize(west)
        bq[:, 1] = quantize(south)
        bq[:, 2] = quantize(east)
        bq[:, 3] = quantize(north)
        bz = vi.zigzag_encode(bq.reshape(-1))
        bflat, blens = vi.varint_encode(bz)
        per_feat_b = blens.reshape(-1, 4).sum(axis=1)
        bbox_payload_lens = np.zeros(n, np.int64)
        bbox_payload_lens[nz] = per_feat_b
        bhead = np.zeros((int(nz.sum()), 2), np.uint8)
        bhead[:, 0] = 0x2A
        bhead[:, 1] = per_feat_b.astype(np.uint8)  # always < 41 < 128
        bhead_lens = np.where(nz, 2, 0).astype(np.int64)
        bbox_segments = [
            (bhead.reshape(-1), bhead_lens),
            (bflat, np.where(nz, bbox_payload_lens, 0)),
        ]
    else:
        bbox_segments = [(np.empty(0, np.uint8), np.zeros(n, np.int64))]

    return geom_segments, bbox_segments


def encode_batch(
    table: pa.Table,
    prop_cols: list[str] | None = None,
    write_id: bool = True,
    write_bbox: bool = True,
) -> pa.Array:
    """Encode one Arrow batch of features to geobuf record bytes.

    Returns a ``pa.binary()`` array of unframed records (one per row).
    Property key order is the column order (canonical — the reference's
    Go map iteration order is nondeterministic, SURVEY.md §7).
    ``write_bbox=False`` reproduces older reference streams that omit
    field 5 (``test_data/county.geobuf`` has no bbox sections; the
    current writer at write_feature.go:249-260 always emits them).
    """
    n = table.num_rows
    segments: list[tuple[np.ndarray, np.ndarray]] = []

    # id section
    if write_id and "id" in table.column_names:
        idcol = table["id"].combine_chunks()
        valid = _valid_mask(idcol)
        ids_u = idcol.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64).astype(_U64)
        id_flat, id_lens = vi.varint_encode(ids_u)
        tag_lens = np.where(valid, 1, 0).astype(np.int64)
        tag_flat = np.full(int(valid.sum()), 0x08, np.uint8)
        keep_b = np.repeat(valid, id_lens)
        id_flat = id_flat[keep_b]
        id_lens = np.where(valid, id_lens, 0)
        segments.append((tag_flat, tag_lens))
        segments.append((id_flat, id_lens))

    # property sections, canonical order = column order.  Each column
    # contributes LEAF segments — one final rowwise_concat moves every
    # byte exactly once (the nested per-column concat moved them 3x).
    if prop_cols is None:
        prop_cols = property_columns(table)
    for name in prop_cols:
        segments.extend(encode_property_column(name, table[name]))

    # geometry + bbox
    if "coords" in table.column_names:
        geom_segments, bbox_segments = _geometry_segments(table)
        segments.extend(geom_segments)
        if write_bbox:
            segments.extend(bbox_segments)

    flat, row_lens = vi.rowwise_concat(segments)
    total = int(row_lens.sum())
    if total >= 2**31:  # int32 binary offsets would wrap silently
        raise ValueError(
            f"encoded batch is {total} bytes (>= 2 GiB); reduce batch_size")
    offsets = np.concatenate(([0], np.cumsum(row_lens))).astype(np.int32)
    return pa.Array.from_buffers(
        pa.binary(),
        n,
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(flat.tobytes())],
    )


def frame_records(records: pa.Array) -> bytes:
    """Frame records into a geobuf stream: 0x0A varint(len) record ...

    One walk over the records writes each frame's tag, length varint
    and payload into one growing buffer (the reference's framing loop,
    writer.go:73-89); a length under 128 is its own one-byte varint."""
    if isinstance(records, pa.ChunkedArray):
        records = records.combine_chunks()
    if pa.types.is_large_binary(records.type):  # int64 offsets
        records = records.cast(pa.binary())
    n = len(records)
    if n == 0:
        return b""
    offs = memoryview(records.buffers()[1]).cast("i")[
        records.offset: records.offset + n + 1]
    body = memoryview(records.buffers()[2] or b"")
    out = bytearray()
    a = offs[0]
    for b in offs[1:]:
        ln = b - a
        out.append(0x0A)
        while ln >= 0x80:
            out.append(ln & 0x7F | 0x80)
            ln >>= 7
        out.append(ln)
        out += body[a:b]
        a = b
    return bytes(out)


def _chain_state(data: np.ndarray):
    """Per-candidate frame-chain state over a framed stream: every
    ``0x0A`` byte is a candidate start; one windowed gather decodes
    its length varint; ``succ`` is the successor function in
    candidate-index space (sentinel ``m`` = dead end / stream end).

    Returns ``(cand, vlen, pay_start, nxt, complete, succ)``."""
    total = len(data)
    cand = np.flatnonzero(data == 0x0A).astype(np.int64)
    m = len(cand)
    # decode ONE length varint per candidate: 10-byte window gather
    k = np.arange(10, dtype=np.int64)
    win = cand[:, None] + 1 + k
    inb = win < total
    w = data[np.minimum(win, total - 1)]
    term = ((w & 0x80) == 0) & inb
    has_term = term.any(axis=1)
    first = term.argmax(axis=1)
    nb = first + 1
    mask = ((k <= first[:, None]) & inb).astype(np.uint64)
    contrib = (w.astype(np.uint64) & np.uint64(0x7F)) << (
        np.uint64(7) * k.astype(np.uint64))
    vlen = (contrib * mask).sum(axis=1, dtype=np.uint64).astype(np.int64)
    pay_start = cand + 1 + nb
    nxt = pay_start + vlen
    # vlen < 0 = uint64 overflow from a corrupted near-10-byte length
    # varint; without this guard nxt < cand can chain BACKWARD (even
    # cycle) and return garbage spans instead of raising (advisory
    # find).  Dead-ending the candidate routes it to the error paths.
    complete = has_term & (vlen >= 0) & (nxt <= total)
    # successor in candidate-index space; sentinel m = chain end / dead
    succ = np.full(m, m, np.int64)
    j = np.searchsorted(cand, nxt)
    ok = complete & (j < m)
    ok_idx = np.flatnonzero(ok)
    hit = cand[j[ok_idx]] == nxt[ok_idx]
    succ[ok_idx[hit]] = j[ok_idx][hit]
    return cand, vlen, pay_start, nxt, complete, succ


def sync_candidates(data: np.ndarray) -> np.ndarray:
    """Byte positions that start a VALID frame chain — the resync
    primitive for byte-range reads landing mid-frame.

    A candidate is valid iff following the successor chain from it
    terminates cleanly: at the exact buffer end, or at a trailing cut
    frame (partial) — never on a bad tag inside the buffer.  One
    vectorized pass classifies every ``0x0A`` byte (terminal-of-chain
    via pointer doubling on an absorbing successor map), so callers
    iterate only genuine sync points instead of chain-walking each
    payload byte that happens to be ``0x0A``."""
    total = len(data)
    if total == 0:
        return np.empty(0, np.int64)
    cand, vlen, pay_start, nxt, complete, succ = _chain_state(data)
    m = len(cand)
    if m == 0:
        return np.empty(0, np.int64)
    # absorbing successor: terminals map to themselves, then double
    g = np.where(succ == m, np.arange(m), succ)
    while True:
        g2 = g[g]
        if (g2 == g).all():
            break
        g = g2
    term = g  # terminal candidate of each chain
    # terminal ok: cut trailing frame (not complete) or exact end;
    # complete-with-bytes-after = bad tag at nxt (else there'd be a
    # successor)
    terminal_ok = (~complete) | (nxt == total)
    return cand[terminal_ok[term]]


def _byte_view(buf) -> memoryview:
    """A flat byte view of ``buf`` (bytes-like or uint8 array), no copy
    for contiguous input."""
    if isinstance(buf, np.ndarray):
        buf = np.ascontiguousarray(buf, np.uint8)
    return memoryview(buf).cast("B")


def _walk_frames(buf: memoryview, partial: bool):
    """Walk ``0x0A varint(len) payload`` frames from byte 0 of ``buf``,
    one frame at a time (the protoscan walk, reader.go:84-93).

    Returns ``(payload_starts, payload_lens, consumed)``, the spans as
    ``array('q')``.  A length varint without a terminator in its 10
    bytes, or one whose payload runs past the buffer, makes a cut
    frame: it ends the walk with ``partial=True`` and raises
    otherwise."""
    total = len(buf)
    starts, lens = array("q"), array("q")
    pos = 0
    while pos < total:
        if buf[pos] != 0x0A:
            raise ValueError(f"bad frame tag {buf[pos]:#x} at byte {pos}")
        p = pos + 2
        ln = buf[pos + 1] if p <= total else 0x80
        if ln >= 0x80:  # a length of two or more varint bytes
            ln &= 0x7F
            shift = 7
            while True:
                if p >= total or shift == 70:
                    ln = total  # no terminator: a cut frame
                    break
                b = buf[p]
                p += 1
                ln |= (b & 0x7F) << shift
                if b < 0x80:
                    break
                shift += 7
        end = p + ln
        if end > total:
            if not partial:
                raise ValueError("truncated geobuf stream")
            break
        starts.append(p)
        lens.append(ln)
        pos = end
    return starts, lens, pos


def frame_boundaries(
    data, partial: bool = False
) -> tuple[np.ndarray, np.ndarray, int]:
    """Frame walk over a ``0x0A varint(len) payload`` stream.

    ``data`` is any bytes-like buffer or uint8 array; it is read in
    place.  The walk steps from frame to frame: a payload is never
    looked at, so ``0x0A`` bytes inside it cost nothing (there are
    about 6.5 of them per frame in a typical feature stream).

    Returns ``(payload_starts, payload_lens, consumed_bytes)``.  With
    ``partial=True`` a trailing cut-off frame is left unconsumed
    (``consumed < len(data)``); otherwise it raises.  A bad tag at a
    true frame boundary raises in both modes.
    """
    starts, lens, consumed = _walk_frames(_byte_view(data), partial)
    return (np.frombuffer(starts, np.int64), np.frombuffer(lens, np.int64),
            consumed)


def scan_frames(buf: bytes | np.ndarray) -> pa.Array:
    """Split a framed geobuf stream into a binary array of records.

    One frame walk finds the payloads, which are copied once into the
    records' buffer; record payloads are not parsed — the protoscan
    equivalent (reader.go:84-93).
    """
    data = _byte_view(buf)
    starts, lens, _ = _walk_frames(data, False)
    return _payload_spans(data, np.frombuffer(starts, np.int64),
                         np.frombuffer(lens, np.int64))


def _payload_spans(data, starts: np.ndarray, lens: np.ndarray) -> pa.Array:
    """``data[starts[i] : starts[i] + lens[i]]`` for sorted, disjoint
    spans of a bytes-like ``data``, as one binary array.

    The spans and the gaps between them form a binary array over
    ``data`` itself (offsets only, no copy); Arrow's filter copies
    every other value, the spans, out in one pass."""
    n = len(starts)
    if n == 0:
        return pa.array([], pa.binary())
    if len(data) >= 1 << 31:  # int32 binary offsets would wrap
        raise ValueError(f"framed buffer is {len(data)} bytes (>= 2 GiB)")
    bounds = np.empty(2 * n, np.int32)
    bounds[0::2] = starts
    bounds[1::2] = starts + lens
    spans = pa.Array.from_buffers(
        pa.binary(), 2 * n - 1,
        [None, pa.py_buffer(bounds), pa.py_buffer(data)])
    # keep values 0, 2, 4, ...: 0x55 sets the even bits of an Arrow
    # (LSB-first) bitmap
    every_other = pa.Array.from_buffers(
        pa.bool_(), 2 * n - 1, [None, pa.py_buffer(b"\x55" * ((n + 3) // 4))])
    return spans.filter(every_other)
