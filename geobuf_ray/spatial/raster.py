"""Raster <-> vector (north_rule: "raster<->vector").

Rasterization side: polygons -> per-tile occupancy masks on a fixed
linear lon/lat grid (``ntiles`` x ``ntiles`` tiles of ``px`` x ``px``
pixels over [-180,180] x [-85,85]).  A pixel is set iff its CENTER is
inside the polygon (even-odd ray casting — the same kernel as the PIP
join), which is also what a SQL center-in-rect predicate computes, so
the rect query is hash-checkable against DuckDB.

Vectorization side: masks -> horizontal run boxes (degree-space
rectangles), the exact inverse decomposition of the set pixels.

Everything is batch-vectorized: the per-batch kernel fans (polygon,
tile) pairs with one ``cover_expand``, generates all pair pixel centers
at once, and calls the ring kernel once per distinct polygon (few) over
all its candidate centers (many).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .geometry import feature_bbox, point_in_rings
from .tiles import cover_expand

LON0, LON1 = -180.0, 180.0
LAT0, LAT1 = -85.0, 85.0


def grid_spec(ntiles: int, px: int):
    """(tile_w, tile_h, pix_w, pix_h) in degrees for the linear grid."""
    tw = (LON1 - LON0) / ntiles
    th = (LAT1 - LAT0) / ntiles
    return tw, th, tw / px, th / px


def rasterize_batch(batch: pa.Table, *, ntiles: int = 16, px: int = 16,
                    id_col: str = "id", emit_mask: bool = True) -> pa.Table:
    """Per-batch rasterize kernel over the canonical feature-table
    layout (coords / ring_sizes / dim).

    Returns one row per (polygon, tile) with >=1 set pixel:
    ``polygon_id, tile_x, tile_y, n_pixels`` and (optionally) ``mask``
    — the px*px bitmap packed row-major into ``px*px/8`` bytes.
    """
    from ..codec.schema import list_column_parts

    n = batch.num_rows
    empty_cols = {
        "polygon_id": pa.array([], pa.int64()),
        "tile_x": pa.array([], pa.int64()),
        "tile_y": pa.array([], pa.int64()),
        "n_pixels": pa.array([], pa.int64()),
    }
    if emit_mask:
        empty_cols["mask"] = pa.array([], pa.binary())
    if n == 0:
        return pa.table(empty_cols)
    coords, offs = list_column_parts(batch["coords"], np.float64)
    dim = (batch["dim"].combine_chunks().to_numpy(zero_copy_only=False)
           .astype(np.int64) if "dim" in batch.column_names
           else np.full(n, 2, np.int64))
    rs, rs_offs = list_column_parts(batch["ring_sizes"], np.int64)
    pids = (batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
            .astype(np.int64))
    bb = feature_bbox(coords, offs, dim)
    tw, th, pw, ph = grid_spec(ntiles, px)
    # tiles whose pixel centers could be inside: tiles intersecting the
    # bbox (a center inside the polygon is inside the bbox)
    ok = np.isfinite(bb).all(axis=1)
    idx = np.flatnonzero(ok)
    if len(idx) == 0:
        return pa.table(empty_cols)
    tx0 = np.clip(((bb[idx, 0] - LON0) // tw).astype(np.int64), 0, ntiles - 1)
    tx1 = np.clip(((bb[idx, 2] - LON0) // tw).astype(np.int64), 0, ntiles - 1)
    ty0 = np.clip(((bb[idx, 1] - LAT0) // th).astype(np.int64), 0, ntiles - 1)
    ty1 = np.clip(((bb[idx, 3] - LAT0) // th).astype(np.int64), 0, ntiles - 1)
    row_local, gx, gy = cover_expand(tx0, tx1, ty0, ty1)
    rows = idx[row_local]                     # polygon row per pair
    npairs = len(rows)
    if npairs == 0:
        return pa.table(empty_cols)
    # all pair pixel centers at once: (npairs, px, px)
    sub = np.arange(px, dtype=np.float64) + 0.5
    cx = (LON0 + gx[:, None] * tw)[:, :, None] + (sub * pw)[None, None, :]
    cy = (LAT0 + gy[:, None] * th)[:, None, :] + (sub * ph)[None, :, None]
    cx = np.broadcast_to(cx, (npairs, px, px)).reshape(npairs, -1)
    cy = np.broadcast_to(cy, (npairs, px, px)).reshape(npairs, -1)
    # vertex x/y buffers + per-feature ring offsets (shared layout with
    # PolygonIndex)
    counts = np.diff(offs)
    local = np.arange(len(coords)) - np.repeat(offs[:-1], counts)
    d = np.repeat(np.maximum(dim, 1), counts)
    xs = coords[(local % d) == 0]
    ys = coords[(local % d) == 1]
    ring_offsets = np.concatenate(([0], np.cumsum(rs))).astype(np.int64)
    feat_ring_offsets = rs_offs.astype(np.int64)
    inside = np.zeros((npairs, px * px), bool)
    order = np.argsort(rows, kind="stable")
    srows = rows[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], srows[1:] != srows[:-1])))
    bounds = np.append(starts, npairs)
    for s, e in zip(bounds[:-1], bounds[1:]):
        pair_ids = order[s:e]
        u = srows[s]
        r0, r1 = feat_ring_offsets[u], feat_ring_offsets[u + 1]
        ro = ring_offsets[r0:r1 + 1]
        flat_in = point_in_rings(cx[pair_ids].reshape(-1),
                                 cy[pair_ids].reshape(-1), xs, ys, ro)
        inside[pair_ids] = flat_in.reshape(len(pair_ids), -1)
    npix = inside.sum(axis=1).astype(np.int64)
    keep = npix > 0
    cols = {
        "polygon_id": pa.array(pids[rows[keep]], pa.int64()),
        "tile_x": pa.array(gx[keep], pa.int64()),
        "tile_y": pa.array(gy[keep], pa.int64()),
        "n_pixels": pa.array(npix[keep], pa.int64()),
    }
    if emit_mask:
        # row-major (y, x) bit order, packed to px*px/8 bytes
        nbytes = px * px // 8
        packed = np.packbits(inside[keep], axis=None).reshape(-1, nbytes)
        cols["mask"] = pa.array([packed[i].tobytes()
                                 for i in range(len(packed))], pa.binary())
    return pa.table(cols)


def rasterize_polygons(ds, *, ntiles: int = 16, px: int = 16,
                       id_col: str = "id", emit_mask: bool = True,
                       **map_kwargs):
    """Dataset stage: polygons -> (polygon, tile, mask) raster rows."""
    def fn(batch: pa.Table) -> pa.Table:
        return rasterize_batch(batch, ntiles=ntiles, px=px, id_col=id_col,
                               emit_mask=emit_mask)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          **map_kwargs)


def masks_to_boxes(tile_x: np.ndarray, tile_y: np.ndarray,
                   masks: list[bytes], *, ntiles: int = 16,
                   px: int = 16) -> pa.Table:
    """Raster -> vector: decompose each tile mask into horizontal
    run rectangles in degree space.

    Output rows: ``row_idx, west, south, east, north`` — one per
    maximal horizontal run of set pixels.  The union of a mask's boxes
    is exactly its set pixels (test invariant).  Vectorized across the
    whole batch (runs found with one diff over the padded bit matrix).
    """
    nmask = len(masks)
    tw, th, pw, ph = grid_spec(ntiles, px)
    if nmask == 0:
        return pa.table({
            "row_idx": pa.array([], pa.int64()),
            "west": pa.array([], pa.float64()),
            "south": pa.array([], pa.float64()),
            "east": pa.array([], pa.float64()),
            "north": pa.array([], pa.float64()),
        })
    bits = np.unpackbits(
        np.frombuffer(b"".join(masks), np.uint8).reshape(nmask, -1),
        axis=1)[:, :px * px].reshape(nmask, px, px)
    # pad each row with zeros on both sides, diff -> run starts/ends
    padded = np.zeros((nmask, px, px + 2), np.int8)
    padded[:, :, 1:-1] = bits
    d = np.diff(padded, axis=2)
    mi, yi, xs_ = np.nonzero(d == 1)      # run starts (x index)
    mi2, yi2, xe_ = np.nonzero(d == -1)   # run ends (exclusive)
    # starts and ends pair up in scan order
    west = LON0 + tile_x[mi] * tw + xs_ * pw
    east = LON0 + tile_x[mi] * tw + xe_ * pw
    # mask bit rows are packed top-row-first in rasterize_batch's
    # (y, x) layout where y indexes ascending latitude rows
    south = LAT0 + tile_y[mi] * th + yi * ph
    north = south + ph
    return pa.table({
        "row_idx": pa.array(mi.astype(np.int64)),
        "west": pa.array(west),
        "south": pa.array(south),
        "east": pa.array(east),
        "north": pa.array(north),
    })


def focal_box_sum(occ_ds, *, ntiles: int, px: int, nbuckets: int = 16,
                  **map_kwargs):
    """Focal (moving-window) 3x3 box sum over a tiled binary raster —
    the classic distributed-raster HALO EXCHANGE: a tile's window
    touches up to one pixel of each of its 8 neighbors, so every set
    pixel ships to its home tile plus any adjacent tile whose halo it
    sits in (edge pixels only fan out), one hash co-group on the tile
    key re-assembles each tile WITH its halo, and the window sum is 9
    shifted adds over the padded local grid.

    Input: unioned occupancy rows (tile_x, tile_y, mask) (see
    ``union_tile_masks``).  Output: one row per SET pixel
    (gx, gy, focal) where ``focal`` counts set pixels in the 3x3
    neighborhood INCLUDING the pixel itself.
    """
    from ..functions.exchange import grouped_exchange
    from .polygonize import _mask_bits

    out_schema = pa.schema([("gx", pa.int64()), ("gy", pa.int64()),
                            ("focal", pa.int64())])
    row_schema = pa.schema([("tile", pa.int64()), ("gx", pa.int64()),
                            ("gy", pa.int64())])

    def fan(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return row_schema.empty_table()
        tx = batch["tile_x"].to_numpy(zero_copy_only=False).astype(np.int64)
        ty = batch["tile_y"].to_numpy(zero_copy_only=False).astype(np.int64)
        bits = _mask_bits(batch["mask"], n, px)
        mi, y, x = np.nonzero(bits)
        gx = tx[mi] * px + x
        gy = ty[mi] * px + y
        # tiles needing this pixel: those covering [g-1, g+1] per axis
        txlo = np.clip((gx - 1) // px, 0, ntiles - 1)
        txhi = np.clip((gx + 1) // px, 0, ntiles - 1)
        tylo = np.clip((gy - 1) // px, 0, ntiles - 1)
        tyhi = np.clip((gy + 1) // px, 0, ntiles - 1)
        # the four corner combos collapse for interior pixels; stack
        # all candidates and keep unique (tile, pixel) rows
        t_all = np.concatenate([ay * ntiles + ax
                                for ax, ay in ((txlo, tylo), (txlo, tyhi),
                                               (txhi, tylo), (txhi, tyhi))])
        gx_all = np.tile(gx, 4)
        gy_all = np.tile(gy, 4)
        z = t_all * np.int64(ntiles * px) * np.int64(ntiles * px) \
            + gy_all * np.int64(ntiles * px) + gx_all
        _, ui = np.unique(z, return_index=True)
        return pa.table({"tile": pa.array(t_all[ui]),
                         "gx": pa.array(gx_all[ui]),
                         "gy": pa.array(gy_all[ui])})

    rows = occ_ds.map_batches(fan, batch_format="pyarrow",
                              zero_copy_batch=True, **map_kwargs)

    def group_fn(tbl: pa.Table) -> pa.Table:
        t = int(tbl["tile"][0].as_py())
        tx, ty = t % ntiles, t // ntiles
        gx = tbl["gx"].to_numpy(zero_copy_only=False)
        gy = tbl["gy"].to_numpy(zero_copy_only=False)
        lx = gx - tx * px + 1          # halo-padded local coords
        ly = gy - ty * px + 1
        grid = np.zeros((px + 2, px + 2), np.int64)
        grid[ly, lx] = 1
        s = np.zeros((px, px), np.int64)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                s += grid[1 + dy:1 + dy + px, 1 + dx:1 + dx + px]
        own = grid[1:-1, 1:-1].astype(bool)
        oy, ox = np.nonzero(own)
        return pa.table({
            "gx": pa.array(tx * px + ox),
            "gy": pa.array(ty * px + oy),
            "focal": pa.array(s[oy, ox])})

    return grouped_exchange(rows, "tile", group_fn, nbuckets=nbuckets,
                            schema=out_schema)


def distance_transform_l1(occ_ds, *, ntiles: int, px: int,
                          nbuckets: int = 16, **map_kwargs):
    """EXACT L1 (city-block) distance transform of a tiled binary
    raster: for every grid cell, the distance to the nearest SET
    pixel — the classic raster operator behind proximity zoning,
    buffer rasterization and nearest-feature maps.

    The L1 metric makes the transform SEPARABLE, and each 1-D pass
    collapses to running extrema (no per-cell loop):

    * pass 1, per grid ROW:  ``d1(x) = min over set x' of |x - x'|``
      = ``min(x - maxacc(set? x : -inf),  minacc-reversed(set? x :
      +inf) - x)`` — two ``accumulate`` calls vectorized across all
      rows of a band at once;
    * pass 2, per COLUMN:  ``d(y) = min over y' of d1(y') + |y - y'|``
      = ``min(minacc(d1 - y') + y,  minacc-reversed(d1 + y') - y)`` —
      the same two accumulates down the other axis.

    Distribution is one exchange per pass: set pixels route to ROW
    bands (a band owns complete rows, so pass 1 finishes in-bucket and
    emits d1 only for rows that contain at least one set pixel —
    empty rows are +inf everywhere and contribute nothing to pass 2),
    then d1 rows route to COLUMN bands where pass 2 finishes in-bucket
    and emits the DENSE field (the transform is defined everywhere; an
    all-empty raster yields an empty result).  All arithmetic int64
    with a +inf sentinel far above any achievable distance.

    Input: occupancy rows (tile_x, tile_y, mask) from
    ``union_tile_masks``.  Output: Dataset of (gx, gy, dist), one row
    per grid cell.
    """
    from ..functions.exchange import hash_exchange
    from .polygonize import _mask_bits

    N = ntiles * px
    INF = np.int64(1) << np.int64(40)
    band_h = max(N // nbuckets, 1)

    def fan_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty = pa.table({"band": pa.array([], pa.int64()),
                          "gx": pa.array([], pa.int64()),
                          "gy": pa.array([], pa.int64())})
        if n == 0:
            return empty
        tx = batch["tile_x"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ty = batch["tile_y"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        bits = _mask_bits(batch["mask"], n, px)
        mi, y, x = np.nonzero(bits)
        gx = tx[mi] * px + x
        gy = ty[mi] * px + y
        return pa.table({"band": pa.array(gy // band_h),
                         "gx": pa.array(gx), "gy": pa.array(gy)})

    def pass1(t: pa.Table) -> pa.Table:
        empty = pa.table({"band": pa.array([], pa.int64()),
                          "gx": pa.array([], pa.int64()),
                          "gy": pa.array([], pa.int64()),
                          "d1": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        gx = t["gx"].to_numpy(zero_copy_only=False).astype(np.int64)
        gy = t["gy"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows = np.unique(gy)
        ridx = np.searchsorted(rows, gy)
        occ = np.zeros((len(rows), N), bool)
        occ[ridx, gx] = True
        col = np.arange(N, dtype=np.int64)
        # forward: nearest set at or left of x
        last = np.where(occ, col, -INF)
        np.maximum.accumulate(last, axis=1, out=last)
        f = col - last
        # backward: nearest set at or right of x
        nxt = np.where(occ, col, INF)
        nxt = np.flip(np.minimum.accumulate(np.flip(nxt, 1), axis=1), 1)
        d1 = np.minimum(f, nxt - col)
        out_gy = np.repeat(rows, N)
        out_gx = np.tile(col, len(rows))
        return pa.table({"band": pa.array(out_gx // band_h),
                         "gx": pa.array(out_gx),
                         "gy": pa.array(out_gy),
                         "d1": pa.array(d1.reshape(-1))})

    def pass2(t: pa.Table) -> pa.Table:
        empty = pa.table({"gx": pa.array([], pa.int64()),
                          "gy": pa.array([], pa.int64()),
                          "dist": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        gx = t["gx"].to_numpy(zero_copy_only=False).astype(np.int64)
        gy = t["gy"].to_numpy(zero_copy_only=False).astype(np.int64)
        d1 = t["d1"].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = np.unique(gx)
        cidx = np.searchsorted(cols, gx)
        grid = np.full((N, len(cols)), INF, np.int64)
        grid[gy, cidx] = d1
        row = np.arange(N, dtype=np.int64)[:, None]
        f = np.minimum.accumulate(grid - row, axis=0) + row
        b = np.flip(np.minimum.accumulate(
            np.flip(grid + row, 0), axis=0), 0) - row
        d = np.minimum(f, b)
        out_gx = np.tile(cols, N)
        out_gy = np.repeat(np.arange(N, dtype=np.int64), len(cols))
        return pa.table({"gx": pa.array(out_gx),
                         "gy": pa.array(out_gy),
                         "dist": pa.array(d.reshape(-1))})

    rows = occ_ds.map_batches(fan_rows, batch_format="pyarrow",
                              zero_copy_batch=True, **map_kwargs)
    d1 = hash_exchange(rows, nbuckets=nbuckets, on="band",
                       reduce_fn=pass1)
    return hash_exchange(d1, nbuckets=nbuckets, on="band",
                         reduce_fn=pass2)


# binary marching-squares case table.  Corner bits: SW=1, SE=2, NE=4,
# NW=8.  Edges by midpoint in DOUBLED grid coords: W=(2x,2y+1),
# S=(2x+1,2y), E=(2x+2,2y+1), N=(2x+1,2y+2).  Saddles (5, 10) use the
# pinned disconnect convention {W-S, E-N} / {S-E, N-W} so output is
# deterministic.  Segment = (edge, edge) or (-1, -1) for none.
_MS_SEGS = [
    [(-1, -1), (-1, -1)],  # 0
    [(0, 1), (-1, -1)],    # 1  SW        : W-S
    [(1, 2), (-1, -1)],    # 2  SE        : S-E
    [(0, 2), (-1, -1)],    # 3  SW SE     : W-E
    [(2, 3), (-1, -1)],    # 4  NE        : E-N
    [(0, 1), (2, 3)],      # 5  SW NE     : saddle
    [(1, 3), (-1, -1)],    # 6  SE NE     : S-N
    [(0, 3), (-1, -1)],    # 7  SW SE NE  : W-N
    [(3, 0), (-1, -1)],    # 8  NW        : N-W
    [(1, 3), (-1, -1)],    # 9  SW NW     : S-N
    [(1, 2), (3, 0)],      # 10 SE NW     : saddle
    [(2, 3), (-1, -1)],    # 11 SW SE NW  : E-N
    [(2, 0), (-1, -1)],    # 12 NE NW     : E-W
    [(1, 2), (-1, -1)],    # 13 SW NE NW  : S-E
    [(0, 1), (-1, -1)],    # 14 SE NE NW  : W-S
    [(-1, -1), (-1, -1)],  # 15
]


def marching_squares(occ_ds, *, ntiles: int, px: int,
                     nbuckets: int = 16, **map_kwargs):
    """Binary marching squares over a tiled occupancy raster: the
    vector-from-raster CONTOUR of the set-pixel region at pixel
    resolution.  Every 2x2 corner quad is a cell; its 4-bit case
    indexes the pinned segment table above; segment endpoints are edge
    midpoints in DOUBLED integer coordinates (so everything stays
    exact int64 and hashable).

    Distribution is the halo-exchange shape shared with
    ``focal_box_sum``: a cell at column x needs columns x and x+1, so
    a set pixel on a column band's FIRST column also ships to the band
    to its left (halo width 1, set pixels only); each bucket then owns
    the cells whose x falls in its band and reads the dense
    (band+halo) x N local grid.  Output rows: one per segment,
    ``(x0, y0, x1, y1)`` in doubled coords with endpoints in
    lexicographic order — canonical, partition-invariant.
    """
    from ..functions.exchange import hash_exchange
    from .polygonize import _mask_bits

    N = ntiles * px
    bw = max(N // nbuckets, 1)

    def fan(batch: pa.Table) -> pa.Table:
        empty = pa.table({"band": pa.array([], pa.int64()),
                          "gx": pa.array([], pa.int64()),
                          "gy": pa.array([], pa.int64())})
        n = batch.num_rows
        if n == 0:
            return empty
        tx = batch["tile_x"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ty = batch["tile_y"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        bits = _mask_bits(batch["mask"], n, px)
        mi, y, x = np.nonzero(bits)
        gx = tx[mi] * px + x
        gy = ty[mi] * px + y
        band = gx // bw
        halo = (gx % bw == 0) & (gx > 0)
        return pa.table({
            "band": pa.array(np.concatenate([band, band[halo] - 1])),
            "gx": pa.array(np.concatenate([gx, gx[halo]])),
            "gy": pa.array(np.concatenate([gy, gy[halo]]))})

    def cells(t: pa.Table) -> pa.Table:
        empty = pa.table({"x0": pa.array([], pa.int64()),
                          "y0": pa.array([], pa.int64()),
                          "x1": pa.array([], pa.int64()),
                          "y1": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        gx_all = t["gx"].to_numpy(zero_copy_only=False).astype(np.int64)
        gy_all = t["gy"].to_numpy(zero_copy_only=False).astype(np.int64)
        bands = t["band"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # a hash bucket can hold several bands — process each band's
        # rows on its own local grid
        exo = np.array([0, 1, 2, 1], np.int64)
        eyo = np.array([1, 0, 1, 2], np.int64)
        e0 = np.full(16, -1, np.int64)
        f0 = np.full(16, -1, np.int64)
        e1 = np.full(16, -1, np.int64)
        f1 = np.full(16, -1, np.int64)
        for c, ((a, b), (c2, d2)) in enumerate(_MS_SEGS):
            e0[c], f0[c] = a, b
            e1[c], f1[c] = c2, d2
        out = []
        for band in np.unique(bands):
            m = bands == band
            gx, gy = gx_all[m], gy_all[m]
            x0b = int(band) * bw
            # local dense grid: band columns + one halo column right
            w = min(bw + 1, N - x0b)
            grid = np.zeros((w, N), bool)
            grid[gx - x0b, gy] = True
            # cells owned by this band: x in [x0b, x0b+bw), x+1 < N
            cw = min(bw, N - 1 - x0b)
            if cw <= 0:
                continue
            sw = grid[:cw, :-1]
            se = grid[1:cw + 1, :-1]
            ne = grid[1:cw + 1, 1:]
            nw = grid[:cw, 1:]
            case = (sw.astype(np.int8) + 2 * se.astype(np.int8)
                    + 4 * ne.astype(np.int8) + 8 * nw.astype(np.int8))
            cx, cy = np.nonzero(case)
            cs = case[cx, cy]
            for etab, ftab in ((e0, f0), (e1, f1)):
                ea, fa = etab[cs], ftab[cs]
                has = ea >= 0
                if not has.any():
                    continue
                bx = (cx[has] + x0b) * 2
                by = cy[has] * 2
                ax0 = bx + exo[ea[has]]
                ay0 = by + eyo[ea[has]]
                ax1 = bx + exo[fa[has]]
                ay1 = by + eyo[fa[has]]
                out.append((ax0, ay0, ax1, ay1))
        if not out:
            return empty
        x0 = np.concatenate([o[0] for o in out])
        y0 = np.concatenate([o[1] for o in out])
        x1 = np.concatenate([o[2] for o in out])
        y1 = np.concatenate([o[3] for o in out])
        # canonical endpoint order
        swp = (x0 > x1) | ((x0 == x1) & (y0 > y1))
        x0s = np.where(swp, x1, x0)
        y0s = np.where(swp, y1, y0)
        x1s = np.where(swp, x0, x1)
        y1s = np.where(swp, y0, y1)
        return pa.table({"x0": pa.array(x0s), "y0": pa.array(y0s),
                         "x1": pa.array(x1s), "y1": pa.array(y1s)})

    rows = occ_ds.map_batches(fan, batch_format="pyarrow",
                              zero_copy_batch=True, **map_kwargs)
    return hash_exchange(rows, nbuckets=nbuckets, on="band",
                         reduce_fn=cells)


def rasterize_lines_dda(batch: pa.Table, *, cell: int = 64,
                        cols=("x0", "y0", "x1", "y1")) -> pa.Table:
    """Rasterize line segments to visited grid cells by sampled DDA:
    each segment walks ``steps = max(|dx|, |dy|)`` unit increments of
    its major axis, the minor coordinate following as the exact
    floored division ``c0 + (t*dc) // steps`` — every step lands one
    cell, the major coordinate never repeats, and the rule is pinned
    to be SQL-reproducible (float-division floor is provably exact
    while |t*dc| < 2^26, guarded).  Output: one row per (input row,
    step) with the COARSE cell coords ``cx = x // cell`` (floored, so
    negative coordinates bucket consistently with SQL's
    floor(x/cell.0)); callers dedup per group as needed.  Degenerate
    zero-length segments emit their single cell.

    The fan-out is output-proportional (a map stage over a segment
    table — the classic vector->raster shape, the line twin of
    rasterize_polygons)."""
    from ..codec.varint import ramp

    n = batch.num_rows
    x0 = batch[cols[0]].to_numpy(zero_copy_only=False).astype(np.int64)
    y0 = batch[cols[1]].to_numpy(zero_copy_only=False).astype(np.int64)
    x1 = batch[cols[2]].to_numpy(zero_copy_only=False).astype(np.int64)
    y1 = batch[cols[3]].to_numpy(zero_copy_only=False).astype(np.int64)
    dx, dy = x1 - x0, y1 - y0
    steps = np.maximum(np.abs(dx), np.abs(dy))
    if steps.size and int(steps.max()) * max(
            int(np.abs(dx).max(initial=0)),
            int(np.abs(dy).max(initial=0))) >= 1 << 52:
        raise OverflowError("rasterize_lines_dda: t*dc must stay well "
                            "under 2^53 for the SQL float-floor twin")
    div = np.maximum(steps, 1)
    counts = steps + 1
    row = np.repeat(np.arange(n), counts)
    t = ramp(counts)
    x = x0[row] + (t * dx[row]) // div[row]
    y = y0[row] + (t * dy[row]) // div[row]
    keep = [c for c in batch.column_names if c not in cols]
    out = {c: batch[c].take(pa.array(row, pa.int64())) for c in keep}
    out["cx"] = pa.array(x // cell)
    out["cy"] = pa.array(y // cell)
    return pa.table(out)


def morphology_open(occ_ds, *, ntiles: int, px: int, nbuckets: int = 16,
                    **map_kwargs):
    """Morphological OPENING (3x3 erosion then dilation) of a tiled
    binary raster — the despeckle/smoothing primitive, COMPOSED from
    the engine's own parts: erosion = the focal halo-exchange with a
    full-window test (a set pixel survives iff its 3x3 box sum is 9 —
    grid-boundary pixels can never satisfy it, matching the SQL
    neighborhood-count semantics), dilation = each survivor fans to
    its in-grid 3x3 neighborhood and ONE hash exchange dedups cells.
    Returns a Dataset of (gx, gy) opened set pixels."""
    from ..functions.exchange import hash_exchange

    n = ntiles * px
    focal = focal_box_sum(occ_ds, ntiles=ntiles, px=px,
                          nbuckets=nbuckets, **map_kwargs)
    out_schema = pa.schema([("gx", pa.int64()), ("gy", pa.int64())])

    def fan(batch: pa.Table):
        f = batch["focal"].to_numpy(zero_copy_only=False)
        gx = batch["gx"].to_numpy(zero_copy_only=False)[f == 9]
        gy = batch["gy"].to_numpy(zero_copy_only=False)[f == 9]
        dx, dy = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2),
                             indexing="ij")
        nx = (gx[:, None] + dx.ravel()[None, :]).ravel()
        ny = (gy[:, None] + dy.ravel()[None, :]).ravel()
        ok = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
        nx, ny = nx[ok], ny[ok]
        cell = nx * n + ny
        tbl = pa.table({"gx": pa.array(nx), "gy": pa.array(ny)})
        return (cell % nbuckets).astype(np.int64), tbl

    def dedup(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        gx = tbl["gx"].to_numpy(zero_copy_only=False)
        gy = tbl["gy"].to_numpy(zero_copy_only=False)
        u = np.unique(gx * n + gy)
        return pa.table({"gx": pa.array(u // n), "gy": pa.array(u % n)})

    return hash_exchange(focal, nbuckets=nbuckets, bucket_fn=fan,
                         reduce_fn=dedup, schema=out_schema)


def affine_warp_nn(occ_ds, *, ntiles: int, px: int,
                   coeffs: tuple = (4, 3, -3, 4, 5),
                   center: tuple | None = None, nbuckets: int = 16,
                   **map_kwargs):
    """Nearest-neighbor AFFINE WARP of a tiled binary raster in exact
    fixed-point arithmetic — the resample/rotate primitive.  Output
    pixel (ox, oy) samples input ``(cx + floor((a*(ox-cx) + b*(oy-cy))
    / den), cy + floor((c*(ox-cx) + d*(oy-cy)) / den))``; the default
    coefficients are the 3-4-5 Pythagorean rotation (cos = 4/5, sin =
    3/5), so every division is an exact small-integer floor and the
    rule reproduces bit-for-bit in SQL.

    Distribution is OUTPUT-DRIVEN with a forward-image halo: each set
    input pixel ships to every output tile overlapping its forward
    image ±2 pixels (the unit-cell image has per-axis diameter
    (|a|+|b|)/den < 2, so the slack provably covers all output pixels
    whose preimage floors to it — shipping volume is the only thing
    the slack costs, the reduce re-evaluates the exact rule).  One
    hash exchange on the output tile key; a bucket may hold several
    tiles, so the reduce groups by tile internally.  Returns set
    OUTPUT pixels (gx, gy)."""
    from ..functions.exchange import hash_exchange
    from .polygonize import _mask_bits

    a, b, c, d, den = (int(v) for v in coeffs)
    det = a * d - b * c
    if det == 0:
        raise ValueError("affine_warp_nn: singular transform")
    n = ntiles * px
    cx = cy = n // 2 if center is None else None
    if center is not None:
        cx, cy = int(center[0]), int(center[1])
    out_schema = pa.schema([("gx", pa.int64()), ("gy", pa.int64())])
    # forward map (preimage rule inverted): o - c = den/det * [[d,-b],
    # [-c,a]] . (i - c); slack covers the floor cell image (per-axis
    # deviation < (|b|+|d|)*den/det, conservatively rounded up)
    slack = 2 + (abs(a) + abs(b) + abs(c) + abs(d)) // den
    if px < 2 * slack:
        raise ValueError("affine_warp_nn: px must be >= 2*slack so the "
                         "4-corner tile fan covers the halo window")

    def fan(batch: pa.Table):
        m = batch.num_rows
        if m == 0:
            return (np.empty(0, np.int64),
                    pa.table({"ix": pa.array([], pa.int64()),
                              "iy": pa.array([], pa.int64()),
                              "tile": pa.array([], pa.int64())}))
        tx = batch["tile_x"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ty = batch["tile_y"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        bits = _mask_bits(batch["mask"], m, px)
        mi, y, x = np.nonzero(bits)
        ix = tx[mi] * px + x
        iy = ty[mi] * px + y
        # forward position (real) = c + (den * M^-1 (i-c)) / det
        fx = cx + (den * (d * (ix - cx) - b * (iy - cy))) / det
        fy = cy + (den * (-c * (ix - cx) + a * (iy - cy))) / det
        txlo = np.clip(((fx - slack) // px).astype(np.int64), 0,
                       ntiles - 1)
        txhi = np.clip(((fx + slack) // px).astype(np.int64), 0,
                       ntiles - 1)
        tylo = np.clip(((fy - slack) // px).astype(np.int64), 0,
                       ntiles - 1)
        tyhi = np.clip(((fy + slack) // px).astype(np.int64), 0,
                       ntiles - 1)
        # forward tiles span at most 2 per axis at px >= 4
        parts_t, parts_i = [], []
        for ax in range(2):
            for ay in range(2):
                ttx = np.where(ax == 0, txlo, txhi)
                tty = np.where(ay == 0, tylo, tyhi)
                parts_t.append(ttx * ntiles + tty)
                parts_i.append(np.arange(len(ix)))
        t_all = np.concatenate(parts_t)
        i_all = np.concatenate(parts_i)
        u = np.unique(np.stack([t_all, i_all], axis=1), axis=0)
        tbl = pa.table({"ix": pa.array(ix[u[:, 1]]),
                        "iy": pa.array(iy[u[:, 1]]),
                        "tile": pa.array(u[:, 0])})
        return (u[:, 0] % nbuckets).astype(np.int64), tbl

    def reduce_fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        ix = tbl["ix"].to_numpy(zero_copy_only=False)
        iy = tbl["iy"].to_numpy(zero_copy_only=False)
        tile = tbl["tile"].to_numpy(zero_copy_only=False)
        outs = []
        for t in np.unique(tile):  # a bucket can hold several tiles
            sel = tile == t
            have = np.unique(ix[sel] * n + iy[sel])
            tx0, ty0 = (t // ntiles) * px, (t % ntiles) * px
            oy, ox = np.meshgrid(np.arange(px), np.arange(px),
                                 indexing="ij")
            ox = (ox + tx0).ravel()
            oy = (oy + ty0).ravel()
            sx = cx + (a * (ox - cx) + b * (oy - cy)) // den
            sy = cy + (c * (ox - cx) + d * (oy - cy)) // den
            ok = (sx >= 0) & (sx < n) & (sy >= 0) & (sy < n)
            packed = sx * n + sy
            pos = np.searchsorted(have, packed)
            pos = np.clip(pos, 0, len(have) - 1)
            hit = ok & (have[pos] == packed)
            if hit.any():
                outs.append(pa.table({"gx": pa.array(ox[hit]),
                                      "gy": pa.array(oy[hit])}))
        if not outs:
            return out_schema.empty_table()
        return pa.concat_tables(outs)

    return hash_exchange(occ_ds, nbuckets=nbuckets, bucket_fn=fan,
                         reduce_fn=reduce_fn, schema=out_schema)


def box_density(occ_ds, *, ntiles: int, px: int, radius: int = 2,
                nbuckets: int = 16, **map_kwargs):
    """Windowed density field (kernel density with a box kernel): for
    every grid cell, the COUNT of set pixels within Chebyshev radius
    ``radius`` — separable like the L1 distance transform, so each
    axis is one prefix-sum difference per band and the distribution
    is the same two exchanges (row bands, then column bands; a band
    owns complete rows/columns, so each pass finishes in-bucket).
    Only cells with nonzero density materialize (output is
    O(set pixels · (2r+1)²) worst case, sparse-friendly)."""
    from ..functions.exchange import hash_exchange
    from .polygonize import _mask_bits

    N = ntiles * px
    r = int(radius)
    band = max(N // nbuckets, 1)

    def fan_rows(batch: pa.Table):
        empty = pa.table({"gx": pa.array([], pa.int64()),
                          "gy": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return np.empty(0, np.int64), empty
        tx = batch["tile_x"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ty = batch["tile_y"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        bits = _mask_bits(batch["mask"], batch.num_rows, px)
        mi, y, x = np.nonzero(bits)
        gx = tx[mi] * px + x
        gy = ty[mi] * px + y
        return (gy // band) % nbuckets, pa.table(
            {"gx": pa.array(gx), "gy": pa.array(gy)})

    p1_schema = pa.schema([("gx", pa.int64()), ("gy", pa.int64()),
                           ("c1", pa.int64())])

    def pass1(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return p1_schema.empty_table()
        gx = t["gx"].to_numpy(zero_copy_only=False).astype(np.int64)
        gy = t["gy"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows = np.unique(gy)
        ridx = np.searchsorted(rows, gy)
        occ = np.zeros((len(rows), N), np.int64)
        occ[ridx, gx] = 1
        pref = np.zeros((len(rows), N + 1), np.int64)
        np.cumsum(occ, axis=1, out=pref[:, 1:])
        hi = np.minimum(np.arange(N) + r + 1, N)
        lo = np.maximum(np.arange(N) - r, 0)
        c1 = pref[:, hi] - pref[:, lo]
        ri, xs = np.nonzero(c1)
        return pa.table({"gx": pa.array(xs.astype(np.int64)),
                         "gy": pa.array(rows[ri]),
                         "c1": pa.array(c1[ri, xs])})

    rows1 = hash_exchange(occ_ds, nbuckets=nbuckets,
                          bucket_fn=fan_rows, reduce_fn=pass1,
                          schema=p1_schema, **map_kwargs)

    out_schema = pa.schema([("gx", pa.int64()), ("gy", pa.int64()),
                            ("density", pa.int64())])

    def fan_cols(batch: pa.Table):
        gx = batch["gx"].to_numpy(zero_copy_only=False)
        return (gx // band) % nbuckets, batch

    def pass2(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        gx = t["gx"].to_numpy(zero_copy_only=False).astype(np.int64)
        gy = t["gy"].to_numpy(zero_copy_only=False).astype(np.int64)
        c1 = t["c1"].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = np.unique(gx)
        cidx = np.searchsorted(cols, gx)
        dense = np.zeros((len(cols), N), np.int64)
        dense[cidx, gy] = c1
        pref = np.zeros((len(cols), N + 1), np.int64)
        np.cumsum(dense, axis=1, out=pref[:, 1:])
        hi = np.minimum(np.arange(N) + r + 1, N)
        lo = np.maximum(np.arange(N) - r, 0)
        d = pref[:, hi] - pref[:, lo]
        ci, ys = np.nonzero(d)
        return pa.table({"gx": pa.array(cols[ci]),
                         "gy": pa.array(ys.astype(np.int64)),
                         "density": pa.array(d[ci, ys])})

    return hash_exchange(rows1, nbuckets=nbuckets, bucket_fn=fan_cols,
                         reduce_fn=pass2, schema=out_schema)


D8_DIRS = np.array([(1, 0), (1, 1), (0, 1), (-1, 1),
                    (-1, 0), (-1, -1), (0, -1), (1, -1)], np.int64)


def d8_table(dens_ds, *, grid: int, nbuckets: int = 16):
    """D8 terrain table over a sparse elevation field ``(gx, gy,
    density)``: per nonzero cell the steepest-descent drop ``max(z -
    z_nbr)`` over the 8 neighbors (absent cells = elevation 0), its
    direction as the MINIMUM index among argmax ties (``D8_DIRS``
    order pinned E,NE,N,NW,W,SW,S,SE; flats/pits emit -1), and the
    strictly-higher-neighbor count — exact integers throughout.

    The field STREAMS: each block fans its cells' elevations to the
    9 affected targets (slot 8 = self; slot i = "I am your neighbor
    in direction i", so source c serves target c - dir_i), one key
    exchange co-locates each target's slots, the per-bucket kernel
    scatters into a (cells x 9) matrix.  Output rows only for cells
    that exist (z > 0).  Returns a Dataset ``(gx, gy, z, steepest,
    aspect, n_higher)``."""
    from ..functions.exchange import hash_exchange

    N = grid

    def fan(b: pa.Table) -> pa.Table:
        gx = b["gx"].to_numpy(zero_copy_only=False)
        gy = b["gy"].to_numpy(zero_copy_only=False)
        z = b["density"].to_numpy(zero_copy_only=False)
        n = len(gx)
        tx = np.concatenate(
            [gx - D8_DIRS[i, 0] for i in range(8)] + [gx])
        ty = np.concatenate(
            [gy - D8_DIRS[i, 1] for i in range(8)] + [gy])
        slot = np.concatenate(
            [np.full(n, i, np.int64) for i in range(8)]
            + [np.full(n, 8, np.int64)])
        zz = np.tile(z, 9)
        keep = (tx >= 0) & (tx < N) & (ty >= 0) & (ty < N)
        return pa.table({"cell": pa.array(tx[keep] * N + ty[keep]),
                         "slot": pa.array(slot[keep]),
                         "z": pa.array(zz[keep])})

    def reduce_cells(t: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            ("gx", pa.int64()), ("gy", pa.int64()), ("z", pa.int64()),
            ("steepest", pa.int64()), ("aspect", pa.int64()),
            ("n_higher", pa.int64())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        cell = t["cell"].to_numpy(zero_copy_only=False)
        slot = t["slot"].to_numpy(zero_copy_only=False)
        z = t["z"].to_numpy(zero_copy_only=False)
        uc, inv = np.unique(cell, return_inverse=True)
        zmat = np.zeros((len(uc), 9), np.int64)
        zmat[inv, slot] = z
        has_self = np.zeros(len(uc), bool)
        has_self[inv[slot == 8]] = True
        zmat = zmat[has_self]
        uc = uc[has_self]
        zs = zmat[:, 8]
        drops = zs[:, None] - zmat[:, :8]
        steepest = drops.max(axis=1)
        aspect = np.where(steepest > 0, np.argmax(drops, axis=1), -1)
        n_higher = (zmat[:, :8] > zs[:, None]).sum(axis=1)
        return pa.table({
            "gx": pa.array(uc // N), "gy": pa.array(uc % N),
            "z": pa.array(zs),
            "steepest": pa.array(steepest),
            "aspect": pa.array(aspect.astype(np.int64)),
            "n_higher": pa.array(n_higher.astype(np.int64))})

    return hash_exchange(
        dens_ds.map_batches(fan, batch_format="pyarrow",
                            zero_copy_batch=True),
        nbuckets=nbuckets, on="cell", reduce_fn=reduce_cells)


def flow_accumulation(d8: pa.Table, *, grid: int) -> np.ndarray:
    """D8 flow accumulation over a BOUNDED terrain table (the same
    driver-fold contract the viewshed uses): acc(c) = number of cells
    whose steepest-descent pointer chain passes through c, including
    c itself.  Pointers go strictly downhill (drop > 0 means the
    target's z is strictly smaller), so the pointer graph is a forest
    of in-trees and one pass over cells in DECREASING z order
    finalizes each accumulation before it is pushed: all of a cell's
    contributors sit strictly above it.  Chains pointing at absent
    (zero) cells exit the field and accumulate nowhere.  Returns the
    acc array aligned with the input rows."""
    N = grid
    gx = d8["gx"].to_numpy(zero_copy_only=False)
    gy = d8["gy"].to_numpy(zero_copy_only=False)
    z = d8["z"].to_numpy(zero_copy_only=False)
    asp = d8["aspect"].to_numpy(zero_copy_only=False)
    cells = gx * N + gy
    order = np.argsort(cells)
    scells = cells[order]
    has_ptr = asp >= 0
    tgt = np.where(has_ptr,
                   (gx + D8_DIRS[np.maximum(asp, 0), 0]) * N
                   + (gy + D8_DIRS[np.maximum(asp, 0), 1]),
                   np.int64(-1))
    pos = np.clip(np.searchsorted(scells, tgt), 0, len(scells) - 1)
    tgt_idx = np.where(has_ptr & (scells[pos] == tgt),
                       order[pos], np.int64(-1))
    acc = np.ones(len(cells), np.int64)
    # strictly-decreasing-z levels: all contributors of a cell live
    # in strictly higher levels, so per-level scatter-adds are final
    for lvl in np.unique(z)[::-1]:
        m = np.flatnonzero((z == lvl) & (tgt_idx >= 0))
        if len(m):
            np.add.at(acc, tgt_idx[m], acc[m])
    return acc


def watershed_labels(d8: pa.Table, *, grid: int):
    """Watershed basin labels over a BOUNDED terrain table — the
    segmentation that flow accumulation's counts imply: every cell is
    labeled by the TERMINAL cell of its steepest-descent pointer
    chain.  A chain ends at a pit (aspect == -1; basin = that cell's
    id ``gx*grid+gy``) or by stepping onto an absent cell, leaving
    the field (basin = -1, the shared "exit" basin).  Pointers go
    strictly downhill, so one pass in INCREASING z order finalizes
    every label before it is read: a cell's target sits strictly
    below it and was already resolved (the mirror of the
    decreasing-z accumulation pass).  Bounded driver arithmetic over
    the O(nonzero cells) table — the viewshed/accumulation fold's
    contract.  Returns (basin, is_exit) arrays aligned with the
    input rows."""
    N = grid
    gx = d8["gx"].to_numpy(zero_copy_only=False)
    gy = d8["gy"].to_numpy(zero_copy_only=False)
    z = d8["z"].to_numpy(zero_copy_only=False)
    asp = d8["aspect"].to_numpy(zero_copy_only=False)
    cells = gx * N + gy
    order = np.argsort(cells)
    scells = cells[order]
    has_ptr = asp >= 0
    tgt = np.where(has_ptr,
                   (gx + D8_DIRS[np.maximum(asp, 0), 0]) * N
                   + (gy + D8_DIRS[np.maximum(asp, 0), 1]),
                   np.int64(-1))
    pos = np.clip(np.searchsorted(scells, tgt), 0, len(scells) - 1)
    tgt_idx = np.where(has_ptr & (scells[pos] == tgt),
                       order[pos], np.int64(-1))
    # pits own their cell id; pointers onto absent cells exit (-1)
    basin = np.where(asp < 0, cells, np.int64(-1))
    for lvl in np.unique(z):
        m = np.flatnonzero((z == lvl) & (tgt_idx >= 0))
        if len(m):
            basin[m] = basin[tgt_idx[m]]
    return basin, basin == -1


def voronoi_label_grid(sites: pa.Table, *, gx: int, gy: int,
                       x0: int, y0: int, cw: int, ch: int,
                       id_col: str = "id", x_col: str = "x",
                       y_col: str = "y", batch_rows: int = 8192):
    """Discrete Voronoi labeling: every cell of a ``gx x gy`` grid is
    assigned its NEAREST site by squared planar distance from the
    cell's center ``(x0 + cx*cw + cw//2, y0 + cy*ch + ch//2)``, ties
    broken by the smallest site id — all integer arithmetic, so the
    labeling is bit-stable and a CROSS JOIN + QUALIFY SQL twin is
    exact.

    Shape: the (small) site table rides on the stage instance
    (shipped once per operator), pre-sorted by id so ``argmin``'s first-occurrence rule IS the
    min-id tie-break; the grid itself never materializes — cells
    stream from ``ray.data.range(gx*gy)`` and each batch computes its
    ``(batch, nsites)`` distance matrix vectorized, so memory is
    O(batch_rows x nsites) per task regardless of grid size.  Returns
    a Dataset ``(cx, cy, site)``."""
    import ray

    order = np.argsort(sites[id_col].to_numpy(zero_copy_only=False))
    ids = sites[id_col].to_numpy(zero_copy_only=False)[order] \
        .astype(np.int64)
    sx = sites[x_col].to_numpy(zero_copy_only=False)[order] \
        .astype(np.int64)
    sy = sites[y_col].to_numpy(zero_copy_only=False)[order] \
        .astype(np.int64)

    class LabelFn:
        def __init__(self, ids, sx, sy):
            self.ids, self.sx, self.sy = ids, sx, sy

        def __call__(self, batch) -> pa.Table:
            cell = batch["id"].astype(np.int64)
            cx = cell // gy
            cy = cell % gy
            px = x0 + cx * cw + cw // 2
            py = y0 + cy * ch + ch // 2
            d2 = ((px[:, None] - self.sx[None, :]) ** 2
                  + (py[:, None] - self.sy[None, :]) ** 2)
            near = np.argmin(d2, axis=1)
            return pa.table({"cx": pa.array(cx), "cy": pa.array(cy),
                             "site": pa.array(self.ids[near])})

    grid = ray.data.range(gx * gy, override_num_blocks=max(
        1, (gx * gy) // batch_rows))
    # a task stage, like every map stage: it holds no CPU while the
    # ReadRange tasks that feed it wait for one
    return grid.map_batches(LabelFn(ids, sx, sy), batch_format="numpy",
                            batch_size=batch_rows)
