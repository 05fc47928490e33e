"""Vectorized rectangle clipping — the tileclip.ClipFeature semantics.

The reference's flagship tiling pipeline clips every feature to each
covering tile (``splitcombine/demo.md``: ``tileclip.ClipFeature(feature,
zoom, false)``; ``splitcombine/split_combine.go:244-257``).  This module
re-expresses the clip as batch numpy kernels over the canonical flat
geometry layout:

- :func:`clip_rings`   — Sutherland–Hodgman polygon clip of MANY rings
  against per-ring rectangles in four vectorized half-plane passes (no
  per-ring Python; every ring of the batch advances together).
- :func:`clip_lines`   — Liang–Barsky segment clip of many polylines,
  stitching surviving sub-segments into parts (MultiLineString pieces).
- :func:`clip_points`  — bounds filter.

All kernels take flat ``x``/``y`` arrays + ``offsets`` (ring/line
boundaries) + per-ring rect arrays ``(west, south, east, north)`` and
return the same layout, with empty outputs allowed — an empty clip IS
the exact-cover signal (a bbox-cover candidate tile that does not
actually intersect the geometry clips to nothing and is dropped).
"""

from __future__ import annotations

import numpy as np


def _successors(offsets: np.ndarray) -> np.ndarray:
    """Ring-wrapped successor index for every vertex.

    EMPTY rings contribute no vertices — their ``offsets[r+1]-1`` slot
    belongs to the previous ring, so the wrap scatter must skip them or
    it corrupts the neighbor's closure (caught by the random test).
    """
    total = int(offsets[-1])
    nxt = np.arange(1, total + 1, dtype=np.int64)
    nz = np.flatnonzero(np.diff(offsets) > 0)
    nxt[offsets[1:][nz] - 1] = offsets[:-1][nz]
    return nxt


def _half_plane_pass(x, y, offsets, bound, axis, keep_ge):
    """One Sutherland–Hodgman pass clipping all rings at a half-plane.

    ``axis`` 0 clips on x, 1 on y; ``bound`` is the per-VERTEX bound
    value (already repeated per ring); ``keep_ge`` True keeps values >=
    bound, False keeps <= bound.  Returns (x, y, offsets, bound_per_ring
    index map) with the pass applied.
    """
    nring = len(offsets) - 1
    sizes = np.diff(offsets)
    if sizes.sum() == 0:
        return x, y, offsets
    nxt = _successors(offsets)
    v = x if axis == 0 else y
    ins_cur = (v >= bound) if keep_ge else (v <= bound)
    ins_nxt = ins_cur[nxt]
    cross = ins_cur != ins_nxt
    # per-edge output counts: both in -> 1 (next vertex); cur in, next
    # out -> 1 (intersection); cur out, next in -> 2 (intersection +
    # next); both out -> 0
    counts = ins_nxt.astype(np.int64) + cross.astype(np.int64)
    out_total = int(counts.sum())
    ox = np.empty(out_total, np.float64)
    oy = np.empty(out_total, np.float64)
    pos = np.cumsum(counts) - counts
    # intersection points for crossing edges
    ci = np.flatnonzero(cross)
    if len(ci):
        x0, y0 = x[ci], y[ci]
        x1, y1 = x[nxt[ci]], y[nxt[ci]]
        b = bound[ci]
        with np.errstate(divide="ignore", invalid="ignore"):
            if axis == 0:
                t = (b - x0) / (x1 - x0)
                ix = b
                iy = y0 + t * (y1 - y0)
            else:
                t = (b - y0) / (y1 - y0)
                iy = b
                ix = x0 + t * (x1 - x0)
        ox[pos[ci]] = ix
        oy[pos[ci]] = iy
    # next-vertex emissions land after the intersection when present
    ni = np.flatnonzero(ins_nxt)
    if len(ni):
        slot = pos[ni] + cross[ni].astype(np.int64)
        ox[slot] = x[nxt[ni]]
        oy[slot] = y[nxt[ni]]
    ring_id = np.repeat(np.arange(nring), sizes)
    out_sizes = np.bincount(ring_id, weights=counts, minlength=nring).astype(np.int64)
    out_offsets = np.zeros(nring + 1, np.int64)
    np.cumsum(out_sizes, out=out_offsets[1:])
    return ox, oy, out_offsets


def clip_rings(x, y, offsets, west, south, east, north):
    """Sutherland–Hodgman clip of many rings against per-ring rects.

    ``offsets`` are the int64 ring boundaries over the flat OPEN rings
    (no duplicated closing vertex — use :func:`open_rings` first);
    ``west/south/east/north`` are per-RING rect bounds.  Returns
    ``(x, y, offsets)`` of the clipped open rings; rings clipped away
    entirely come back with size 0 (exact-cover signal).
    """
    sizes = np.diff(offsets)
    for axis, bound_ring, keep_ge in (
        (0, west, True), (0, east, False), (1, south, True), (1, north, False),
    ):
        sizes = np.diff(offsets)
        bound = np.repeat(bound_ring, sizes)
        x, y, offsets = _half_plane_pass(x, y, offsets, bound, axis, keep_ge)
    # degenerate outputs (< 3 vertices) are not polygons — empty them
    sizes = np.diff(offsets)
    bad = sizes < 3
    if bad.any():
        keep_vert = np.repeat(~bad, sizes)
        x, y = x[keep_vert], y[keep_vert]
        sizes = np.where(bad, 0, sizes)
        offsets = np.zeros(len(sizes) + 1, np.int64)
        np.cumsum(sizes, out=offsets[1:])
    return x, y, offsets


def open_rings(x, y, offsets):
    """Drop the duplicated GeoJSON closing vertex from closed rings."""
    sizes = np.diff(offsets)
    starts = offsets[:-1]
    ends = offsets[1:] - 1
    # compare ends only where a ring has two vertices: an empty last
    # ring's start is len(x), past the coordinates
    closed = sizes > 1
    s, e = starts[closed], ends[closed]
    closed[closed] = (x[s] == x[e]) & (y[s] == y[e])
    drop = np.zeros(len(x), bool)
    drop[ends[closed]] = True
    new_sizes = sizes - closed.astype(np.int64)
    new_offsets = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(new_sizes, out=new_offsets[1:])
    return x[~drop], y[~drop], new_offsets, closed


def close_rings(x, y, offsets):
    """Re-append the closing vertex to every non-empty ring."""
    sizes = np.diff(offsets)
    nz = sizes > 0
    out_sizes = sizes + nz.astype(np.int64)
    out_offsets = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(out_sizes, out=out_offsets[1:])
    total = int(out_offsets[-1])
    ox = np.empty(total, np.float64)
    oy = np.empty(total, np.float64)
    # scatter original vertices: position = old index + ring id shift
    ring_id = np.repeat(np.arange(len(sizes)), sizes)
    shift = out_offsets[:-1] - offsets[:-1]
    dst = np.arange(len(x), dtype=np.int64) + shift[ring_id]
    ox[dst] = x
    oy[dst] = y
    # closing vertices
    nzi = np.flatnonzero(nz)
    ox[out_offsets[1:][nzi] - 1] = x[offsets[:-1][nzi]]
    oy[out_offsets[1:][nzi] - 1] = y[offsets[:-1][nzi]]
    return ox, oy, out_offsets


def clip_points(x, y, west, south, east, north):
    """Inclusion mask of points in per-point rects (closed bounds)."""
    return (x >= west) & (x <= east) & (y >= south) & (y <= north)


def clip_lines(x, y, offsets, west, south, east, north):
    """Liang–Barsky clip of many polylines against per-LINE rects.

    Returns ``(x, y, part_offsets, line_of_part)``: clipped coordinates,
    part boundaries (a clipped line may split into several parts), and
    each part's source line index.  Lines clipped away entirely simply
    contribute no parts.
    """
    nline = len(offsets) - 1
    sizes = np.diff(offsets)
    if sizes.sum() == 0:
        return (np.empty(0, np.float64), np.empty(0, np.float64),
                np.zeros(1, np.int64), np.empty(0, np.int64))
    # segments: consecutive vertex pairs inside each line
    seg_mask = np.ones(int(offsets[-1]), bool)
    seg_mask[offsets[1:] - 1] = False  # last vertex of each line
    seg_i = np.flatnonzero(seg_mask)  # segment start vertex index
    line_id = np.repeat(np.arange(nline), np.maximum(sizes - 1, 0))
    x0, y0 = x[seg_i], y[seg_i]
    x1, y1 = x[seg_i + 1], y[seg_i + 1]
    w, s = west[line_id], south[line_id]
    e, n = east[line_id], north[line_id]
    dx, dy = x1 - x0, y1 - y0
    t0 = np.zeros(len(seg_i), np.float64)
    t1 = np.ones(len(seg_i), np.float64)
    valid = np.ones(len(seg_i), bool)
    for p, q in ((-dx, x0 - w), (dx, e - x0), (-dy, y0 - s), (dy, n - y0)):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = q / p
        par_out = (p == 0) & (q < 0)  # parallel and outside
        valid &= ~par_out
        enter = p < 0
        leave = p > 0
        t0 = np.where(enter & valid, np.maximum(t0, r), t0)
        t1 = np.where(leave & valid, np.minimum(t1, r), t1)
    valid &= t0 <= t1
    vi = np.flatnonzero(valid)
    if len(vi) == 0:
        return (np.empty(0, np.float64), np.empty(0, np.float64),
                np.zeros(1, np.int64), np.empty(0, np.int64))
    cx0 = x0[vi] + t0[vi] * dx[vi]
    cy0 = y0[vi] + t0[vi] * dy[vi]
    cx1 = x0[vi] + t1[vi] * dx[vi]
    cy1 = y0[vi] + t1[vi] * dy[vi]
    lid = line_id[vi]
    # stitch: a new part starts when the line changes, the segments are
    # not consecutive in the source, or the previous clipped end does
    # not meet this clipped start
    consec = np.zeros(len(vi), bool)
    if len(vi) > 1:
        consec[1:] = (lid[1:] == lid[:-1]) & (vi[1:] == vi[:-1] + 1) \
            & (cx0[1:] == cx1[:-1]) & (cy0[1:] == cy1[:-1])
    new_part = ~consec
    part_id = np.cumsum(new_part) - 1
    nparts = int(part_id[-1]) + 1
    # each part: 1 leading vertex + 1 vertex per segment
    seg_per_part = np.bincount(part_id, minlength=nparts)
    part_sizes = seg_per_part + 1
    part_offsets = np.zeros(nparts + 1, np.int64)
    np.cumsum(part_sizes, out=part_offsets[1:])
    total = int(part_offsets[-1])
    ox = np.empty(total, np.float64)
    oy = np.empty(total, np.float64)
    starts_of_part = np.flatnonzero(new_part)
    ox[part_offsets[:-1]] = cx0[starts_of_part]
    oy[part_offsets[:-1]] = cy0[starts_of_part]
    rank = np.arange(len(vi), dtype=np.int64) - starts_of_part[part_id]
    dst = part_offsets[:-1][part_id] + 1 + rank
    ox[dst] = cx1
    oy[dst] = cy1
    line_of_part = lid[starts_of_part]
    return ox, oy, part_offsets, line_of_part
