"""Tiling (split-combine) engine — the reference's flagship pipeline
re-expressed as ONE Ray Data shuffle.

The reference (``splitcombine/split_combine.go:425-559``) routes
features to per-tile subfiles through a fd-bounded (≈750 open files)
hierarchical multi-pass split, then byte-concatenates subfiles with a
gob index.  Ray Data replaces all of that with:

    assign tiles (vectorized flat-map)  →  hash exchange on
    (tile_key, tile_salt)  →  per-tile output file + manifest row

One all-to-all shuffle on the raw-task hash exchange
(``functions.exchange.grouped_exchange``: rows co-locate by key hash,
no distributed sort), no fd bound, no multi-round refinement
(SURVEY.md §3.2).  The TILEID property stamp (split_combine.go:385-389)
becomes a plain ``tile_key`` column.

Tile split, key split and the checkpointed split share one write path:
the clip/assign step (:func:`_tile_rows`), the shuffle-write
(:func:`_write_groups`, :func:`_split_write`) and the Combine step
(:func:`_combine`), which the pyramid rollup reuses.

Scale notes (100 TB): the shuffle key is the packed uint64 tile at the
TARGET zoom (pick one key, reuse it downstream); features covering many
tiles fan out in the map stage (bbox cover × exact bbox-intersect
refinement), so block sizes stay bounded by `batch_size`; hot tiles can
be salted via ``salt_bits`` which splits a tile's output into 2^bits
files that remain key-prefix addressable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codec.schema import list_column_parts
from ..spatial import tiles
from ..spatial.geometry import feature_bbox

def assign_tiles_batch(
    batch: pa.Table,
    zoom: int,
    bounds: tuple[float, float, float, float] | None = None,
    salt_bits: int = 0,
) -> pa.Table:
    """Fan each feature out to its covering tiles at ``zoom``.

    Output: input columns replicated per covering tile + ``tile_key``
    (uint64 packed) and ``tile_str`` ("x-y-z") columns.  Features whose
    bbox misses ``bounds`` are dropped (the reference's job-bounds
    ``Intersect`` filter, split_combine.go:377-383).
    """
    n = batch.num_rows
    if n == 0:
        return _with_tile_cols(batch, np.empty(0, np.int64),
                               np.empty(0, np.uint64), np.empty(0, np.uint8))
    coords, offs = list_column_parts(batch["coords"], np.float64)
    dim = (
        batch["dim"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        if "dim" in batch.column_names
        else np.full(n, 2, np.int64)
    )
    bb = feature_bbox(coords, offs, dim)
    if bounds is not None:
        w, s, e, nn = bounds
        with np.errstate(invalid="ignore"):
            out_of_bounds = ~((bb[:, 0] <= e) & (bb[:, 2] >= w)
                              & (bb[:, 1] <= nn) & (bb[:, 3] >= s))
        bb = bb.copy()
        bb[out_of_bounds] = np.nan
    row_idx, keys = tiles.bbox_cover_rows(bb, zoom)
    if salt_bits > 0 and len(keys):
        # salt from feature CONTENT (id when present, else the
        # quantized first coordinate pair) — batch-local row indices
        # would change with block boundaries across runs and break
        # checkpoint resume (a feature could re-salt into an
        # already-committed partition and be dropped).  The salt rides
        # in its OWN column (shuffles group on [tile_key, tile_salt]):
        # bit-packing it into the key would shift the zoom bits
        # (pack() uses bits 58-63) off the top for zoom >= 16.
        if "id" in batch.column_names:
            ident = (batch["id"].combine_chunks().fill_null(0)
                     .to_numpy(zero_copy_only=False).astype(np.int64))
        else:
            ident = np.zeros(n, np.int64)
        first = offs[:-1].copy()
        has = np.diff(offs) >= 2
        fx = np.zeros(n, np.int64)
        fy = np.zeros(n, np.int64)
        fx[has] = (coords[first[has]] * 1e7).astype(np.int64)
        fy[has] = (coords[first[has] + 1] * 1e7).astype(np.int64)
        h = (ident.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             ^ fx.view(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
             ^ fy.view(np.uint64) * np.uint64(0x165667B19E3779F9))
        salt = (h[row_idx] >> np.uint64(64 - salt_bits)).astype(np.uint8)
    else:
        salt = np.zeros(len(keys), np.uint8)
    return _with_tile_cols(batch, row_idx, keys, salt)


def _with_tile_cols(batch, row_idx, keys, salt):
    taken = batch.take(pa.array(row_idx, pa.int64()))
    tile_strs = tiles.tile_key_str(keys)
    taken = taken.append_column("tile_key", pa.array(keys, pa.uint64()))
    taken = taken.append_column("tile_str", pa.array(tile_strs, pa.string()))
    taken = taken.append_column("tile_salt", pa.array(salt, pa.uint8()))
    return taken


def assign_tiles(ds, zoom: int, bounds=None, salt_bits: int = 0, **map_kwargs):
    """Dataset stage: feature rows -> (feature x covering-tile) rows."""
    return ds.map_batches(
        lambda b: assign_tiles_batch(b, zoom, bounds, salt_bits),
        batch_format="pyarrow",
        zero_copy_batch=True,
        **map_kwargs,
    )


def split_combine(
    ds,
    out_dir: str,
    zoom: int,
    *,
    bounds=None,
    salt_bits: int = 0,
    write_bbox: bool = True,
    clip: bool = False,
    combine_path: str | None = None,
    map_kwargs: dict | None = None,
):
    """Full tiling pipeline: assign -> shuffle by tile -> per-tile
    geobuf file + manifest (replaces MapGeobuf, split_combine.go:425-559).

    ``clip=True`` runs the tileclip.ClipFeature semantics (exact cover,
    per-tile clipped geometry) instead of whole-feature bbox fan-out.
    ``combine_path`` additionally combines the per-tile files into ONE
    reference-style gob-indexed geobuf (the Combine step,
    split_combine.go:196-228) readable by the reference's
    SubFileSeek — and by :func:`~..io.geobuf_file.read_subfile`.

    Returns the manifest table (one row per tile file: key, count,
    bounds, size, timing).
    """
    tiled = _tile_rows(ds, zoom, bounds, salt_bits, clip, map_kwargs)
    # tile_str names the output file, so a salted hot tile yields
    # several prefix-addressable files
    return _split_write(tiled, out_dir, ["tile_key", "tile_salt"],
                        "tile_str", write_bbox, combine_path)


def _tile_rows(ds, zoom: int, bounds, salt_bits: int, clip: bool,
               map_kwargs: dict | None):
    """The split's clip/assign step: feature rows -> (feature x tile)
    rows carrying ``tile_key``, ``tile_str`` and ``tile_salt`` (all
    zero for clipped tiles)."""
    if not clip:
        return assign_tiles(ds, zoom, bounds, salt_bits, **(map_kwargs or {}))
    if salt_bits:
        raise ValueError("salt_bits is a bbox-fanout feature; "
                         "clipped tiles are already bounded per tile")
    return tile_clip(ds, zoom, bounds, **(map_kwargs or {})).map_batches(
        lambda b: b.append_column(
            "tile_salt", pa.array(np.zeros(b.num_rows, np.uint8))),
        batch_format="pyarrow", zero_copy_batch=True)


def _write_groups(keyed, group_cols, write_fn) -> pa.Table:
    """The split's one shuffle: rows that already carry their keys
    co-locate by ``group_cols`` on the raw-task hash exchange (no
    distributed sort, unlike Ray's groupby); ``write_fn`` writes each
    group's file and returns its manifest row.  Returns the manifest,
    zero rows (with the manifest columns) when no group was written."""
    from ..collect import collect_table
    from ..functions.exchange import grouped_exchange
    from ..io.geobuf_file import _MANIFEST_SCHEMA

    return collect_table(
        grouped_exchange(keyed, group_cols, write_fn, nbuckets=64,
                         schema=_MANIFEST_SCHEMA),
        _MANIFEST_SCHEMA)


def _split_write(keyed, out_dir: str, group_cols, key_column: str,
                 write_bbox: bool, combine_path: str | None) -> pa.Table:
    """Shuffle-write keyed rows as one geobuf file per group, commit
    ``out_dir/_manifest.parquet`` and optionally Combine."""
    import os

    import pyarrow.parquet as pq

    from ..io.geobuf_file import _WriteGeobufFn

    manifest = _write_groups(
        keyed, group_cols, _WriteGeobufFn(out_dir, write_bbox, key_column))
    pq.write_table(manifest, os.path.join(out_dir, "_manifest.parquet"))
    if combine_path is not None:
        _combine(manifest, combine_path)
    return manifest


def _combine(manifest: pa.Table, combine_path: str) -> None:
    """The Combine step (split_combine.go:196-228): the manifest's files
    concatenated in key order into ONE gob-indexed geobuf whose header
    carries the manifest's data bounds (NaN / null bounds skipped)."""
    from ..io.geobuf_file import write_indexed_geobuf

    def subfiles():
        for row in manifest.sort_by("key").select(["key", "path"]).to_pylist():
            with open(row["path"], "rb") as f:
                yield row["key"], f.read()

    sides = [manifest[c].to_numpy(zero_copy_only=False).astype(np.float64)
             for c in ("west", "south", "east", "north")]
    bb = None
    if not any(np.isnan(v).all() for v in sides):  # also: zero rows
        w, s, e, n = sides
        bb = (float(np.nanmin(w)), float(np.nanmin(s)),
              float(np.nanmax(e)), float(np.nanmax(n)))
    write_indexed_geobuf(subfiles(), combine_path, bounds=bb)


def tile_clip_batch(
    batch: pa.Table,
    zoom: int,
    bounds: tuple[float, float, float, float] | None = None,
    emit: str = "clipped",
) -> pa.Table:
    """Fan each feature to its covering tiles with geometry CLIPPED to
    every tile — the ``tileclip.ClipFeature`` semantics of the
    reference's flagship pipeline (splitcombine/demo.md,
    split_combine.go:244-257).

    bbox cover supplies the candidate tiles; the vectorized clip kernels
    (:mod:`..spatial.clip`) cut each candidate's geometry to the tile
    rect, and candidates whose clip comes back empty are dropped — so
    the output is the EXACT tile cover (a diagonal/concave geometry
    does not land in bbox-only tiles), with per-tile clipped geometry.
    Only dim-2 geometry is supported (the reference clips GeoJSON 2D).

    ``emit="original"`` keeps the exact cover but fans the WHOLE
    (unclipped) feature to each covered tile — the reference's
    ``SplitCombineTiles`` semantics (tilecover.TileCover without
    clipping, split_combine.go:244-257).
    """
    from ..codec.schema import (
        LINESTRING, MULTILINESTRING, MULTIPOINT, MULTIPOLYGON, POINT,
        POLYGON,
    )
    from ..spatial import clip as cl

    n = batch.num_rows
    coords, offs = (list_column_parts(batch["coords"], np.float64)
                    if n else (np.empty(0, np.float64), np.zeros(1, np.int64)))
    rs_flat, rs_offs = (list_column_parts(batch["ring_sizes"], np.int64)
                        if n else (np.empty(0, np.int64), np.zeros(1, np.int64)))
    ps_flat, ps_offs = (list_column_parts(batch["poly_sizes"], np.int64)
                        if n else (np.empty(0, np.int64), np.zeros(1, np.int64)))
    gtype = (batch["geom_type"].combine_chunks()
             .to_numpy(zero_copy_only=False).astype(np.int64)
             if n else np.empty(0, np.int64))
    dim = (batch["dim"].combine_chunks()
           .to_numpy(zero_copy_only=False).astype(np.int64)
           if "dim" in batch.column_names and n else np.full(n, 2, np.int64))
    if n and (dim != 2).any():
        raise ValueError("tile_clip supports dim-2 geometry only")
    bb = feature_bbox(coords, offs, dim) if n else np.empty((0, 4))
    if bounds is not None and n:
        w, s, e, nn = bounds
        with np.errstate(invalid="ignore"):
            oob = ~((bb[:, 0] <= e) & (bb[:, 2] >= w)
                    & (bb[:, 1] <= nn) & (bb[:, 3] >= s))
        bb = bb.copy()
        bb[oob] = np.nan
    row_idx, keys = tiles.bbox_cover_rows(bb, zoom)
    _, tx, ty = tiles.unpack(keys)
    tw, ts_, te, tn = tiles.tile_bounds(tx, ty, zoom)

    # global ring bookkeeping (record-major, matching the flat coords)
    ring_vals = rs_flat * 2
    ring_vstart = np.cumsum(ring_vals) - ring_vals
    nrings_rec = np.diff(rs_offs)
    rings_per_poly = ps_flat
    poly_of_ring = (np.repeat(np.arange(len(ps_flat)), rings_per_poly)
                    if len(ps_flat) else np.empty(0, np.int64))

    cg = gtype[row_idx] if len(row_idx) else np.empty(0, np.int64)

    def _cand_rings(sel):
        """(cand_local, ring_gidx) for the candidate subset ``sel``."""
        rows = row_idx[sel]
        cnt = nrings_rec[rows]
        cand_of_ring = np.repeat(np.arange(len(sel)), cnt)
        from ..codec import varint as vi

        ring_gidx = np.repeat(rs_offs[:-1][rows], cnt) + vi.ramp(cnt)
        return cand_of_ring, ring_gidx

    def _gather_xy(ring_gidx):
        from ..codec import varint as vi

        sizes = rs_flat[ring_gidx]
        starts = ring_vstart[ring_gidx]
        base = np.repeat(starts, sizes) + 2 * vi.ramp(sizes)
        return coords[base], coords[base + 1], sizes

    # group tuples: (cand_positions, coords_flat, ring_sizes[ring-major],
    #                ring_offs[cand+1], poly_flat, poly_counts[cand], gtype_out)
    out_groups = []

    # ---- points: bbox cover of a point IS its tile; geometry unchanged
    sel = np.flatnonzero(np.isin(cg, (POINT,)))
    if len(sel):
        rows = row_idx[sel]
        pc = np.empty(2 * len(sel))
        pc[0::2] = coords[offs[rows]]
        pc[1::2] = coords[offs[rows] + 1]
        out_groups.append((sel, pc, np.ones(len(sel), np.int64),
                           np.arange(len(sel) + 1, dtype=np.int64),
                           np.ones(len(sel), np.int64),
                           np.ones(len(sel), np.int64),
                           np.full(len(sel), POINT, np.int64)))

    # ---- multipoints: member filter per tile
    sel = np.flatnonzero(cg == MULTIPOINT)
    if len(sel):
        cand_of_ring, ring_gidx = _cand_rings(sel)
        x, y, sizes = _gather_xy(ring_gidx)
        cand_of_pt = np.repeat(cand_of_ring, sizes)
        keep = cl.clip_points(
            x, y, tw[sel][cand_of_pt], ts_[sel][cand_of_pt],
            te[sel][cand_of_pt], tn[sel][cand_of_pt])
        kept_per_cand = np.bincount(cand_of_pt[keep], minlength=len(sel))
        nz = np.flatnonzero(kept_per_cand > 0)
        if len(nz):
            pc = np.empty(2 * int(keep.sum()))
            pc[0::2] = x[keep]
            pc[1::2] = y[keep]
            out_groups.append((sel[nz], pc, kept_per_cand[nz],
                               np.arange(len(nz) + 1, dtype=np.int64),
                               np.ones(len(nz), np.int64),
                               np.ones(len(nz), np.int64),
                               np.full(len(nz), MULTIPOINT, np.int64)))

    # ---- lines: Liang–Barsky with part splitting
    sel = np.flatnonzero(np.isin(cg, (LINESTRING, MULTILINESTRING)))
    if len(sel):
        cand_of_ring, ring_gidx = _cand_rings(sel)
        x, y, sizes = _gather_xy(ring_gidx)
        roffs = np.zeros(len(sizes) + 1, np.int64)
        np.cumsum(sizes, out=roffs[1:])
        cx, cy, poffs, line_of_part = cl.clip_lines(
            x, y, roffs, tw[sel][cand_of_ring], ts_[sel][cand_of_ring],
            te[sel][cand_of_ring], tn[sel][cand_of_ring])
        cand_of_part = cand_of_ring[line_of_part]
        parts_per_cand = np.bincount(cand_of_part, minlength=len(sel))
        nz = np.flatnonzero(parts_per_cand > 0)
        if len(nz):
            # parts arrive cand-major (lines were expanded cand-major)
            part_sizes = np.diff(poffs)
            pc = np.empty(2 * len(cx))
            pc[0::2] = cx
            pc[1::2] = cy
            gt_src = cg[sel[nz]]
            gt_out = np.where((gt_src == LINESTRING) & (parts_per_cand[nz] > 1),
                              MULTILINESTRING, gt_src)
            ring_offs = np.zeros(len(nz) + 1, np.int64)
            np.cumsum(parts_per_cand[nz], out=ring_offs[1:])
            out_groups.append((sel[nz], pc, part_sizes, ring_offs,
                               parts_per_cand[nz],
                               np.ones(len(nz), np.int64), gt_out))

    # ---- polygons: Sutherland–Hodgman per ring
    sel = np.flatnonzero(np.isin(cg, (POLYGON, MULTIPOLYGON)))
    if len(sel):
        cand_of_ring, ring_gidx = _cand_rings(sel)
        x, y, sizes = _gather_xy(ring_gidx)
        roffs = np.zeros(len(sizes) + 1, np.int64)
        np.cumsum(sizes, out=roffs[1:])
        ox, oy, ooffs, _closed = cl.open_rings(x, y, roffs)
        cx, cy, coffs = cl.clip_rings(
            ox, oy, ooffs, tw[sel][cand_of_ring], ts_[sel][cand_of_ring],
            te[sel][cand_of_ring], tn[sel][cand_of_ring])
        cx, cy, coffs = cl.close_rings(cx, cy, coffs)
        out_sizes = np.diff(coffs)
        alive = out_sizes > 0
        ai = np.flatnonzero(alive)
        cands_alive = np.unique(cand_of_ring[ai])
        if len(ai):
            # surviving rings stay cand-major / poly-ordered; group
            # counts per (cand, source poly) for the rebuilt poly_sizes
            gpoly = poly_of_ring[ring_gidx[ai]]
            cand_a = cand_of_ring[ai]
            pair_change = np.concatenate(
                ([True], (cand_a[1:] != cand_a[:-1])
                 | (gpoly[1:] != gpoly[:-1])))
            pair_id = np.cumsum(pair_change) - 1
            rings_per_pair = np.bincount(pair_id)
            cand_of_pair = cand_a[pair_change]
            # coords of surviving rings
            from ..codec import varint as vi

            flat_idx = np.repeat(coffs[:-1][ai], out_sizes[ai]) \
                + vi.ramp(out_sizes[ai])
            pc = np.empty(2 * len(flat_idx))
            pc[0::2] = cx[flat_idx]
            pc[1::2] = cy[flat_idx]
            rings_per_cand = np.bincount(cand_a, minlength=len(sel))[cands_alive]
            ring_offs = np.zeros(len(cands_alive) + 1, np.int64)
            np.cumsum(rings_per_cand, out=ring_offs[1:])
            # cand_of_pair is nondecreasing: pairs-per-cand via bincount
            pairs_per_cand = np.bincount(
                cand_of_pair, minlength=len(sel))[cands_alive]
            out_groups.append((sel[cands_alive], pc, out_sizes[ai],
                               ring_offs, rings_per_pair, pairs_per_cand,
                               cg[sel[cands_alive]]))

    # ---- assemble (column order: aux, geometry, tile keys — identical
    # in the empty path so Ray's block schema unification holds)
    geom_names = ("geom_type", "dim", "coords", "ring_sizes", "poly_sizes")
    if not out_groups:
        taken = batch.take(pa.array([], pa.int64()))
        aux = [c for c in batch.column_names if c not in geom_names]
        taken = taken.select(aux + [c for c in geom_names
                                    if c in batch.column_names])
        taken = taken.append_column("tile_key", pa.array([], pa.uint64()))
        return taken.append_column("tile_str", pa.array([], pa.string()))

    all_pos = np.concatenate([g[0] for g in out_groups])
    order = np.argsort(all_pos, kind="stable")
    # build per-candidate structures group by group, then reorder
    cand_tables = []
    for g_pos, g_coords, g_rsizes, g_roffs, g_pflat, g_pcnt, g_gtype in out_groups:
        ncand = len(g_pos)
        ring_counts = np.diff(g_roffs)
        # coords per cand = 2 * sum of its ring sizes
        cand_of_ring_out = np.repeat(np.arange(ncand), ring_counts)
        coord_counts = 2 * np.bincount(cand_of_ring_out, weights=g_rsizes,
                                       minlength=ncand).astype(np.int64)
        c_offs = np.concatenate(([0], np.cumsum(coord_counts))).astype(np.int32)
        r_offs = np.concatenate(([0], np.cumsum(ring_counts))).astype(np.int32)
        p_offs = np.concatenate(([0], np.cumsum(g_pcnt))).astype(np.int32)
        tbl = pa.table({
            "geom_type": pa.array(g_gtype.astype(np.int8)),
            "dim": pa.array(np.full(ncand, 2, np.int8)),
            "coords": pa.ListArray.from_arrays(
                pa.array(c_offs), pa.array(g_coords)),
            "ring_sizes": pa.ListArray.from_arrays(
                pa.array(r_offs), pa.array(g_rsizes.astype(np.int32))),
            "poly_sizes": pa.ListArray.from_arrays(
                pa.array(p_offs), pa.array(g_pflat.astype(np.int32))),
        })
        cand_tables.append(tbl)
    pos_sorted = all_pos[order]
    aux_cols = [c for c in batch.column_names if c not in geom_names]
    out = batch.select(aux_cols).take(pa.array(row_idx[pos_sorted], pa.int64()))
    if emit == "original":
        # exact cover, whole-feature fan-out (TileCover semantics)
        geom = batch.select([c for c in geom_names
                             if c in batch.column_names]).take(
            pa.array(row_idx[pos_sorted], pa.int64()))
    else:
        geom = pa.concat_tables(cand_tables).take(
            pa.array(order, pa.int64()))
    for name in geom.column_names:
        out = out.append_column(name, geom[name])
    out = out.append_column("tile_key", pa.array(keys[pos_sorted], pa.uint64()))
    return out.append_column(
        "tile_str", pa.array(tiles.tile_key_str(keys[pos_sorted]), pa.string()))


def tile_clip(ds, zoom: int, bounds=None, emit: str = "clipped",
              **map_kwargs):
    """Dataset stage: features -> (clipped feature x exact covering
    tile) rows — the reference's TileMap/ClipFeature flagship.
    ``emit="original"`` = exact cover with whole features
    (SplitCombineTiles / tilecover.TileCover parity)."""
    return ds.map_batches(
        lambda b: tile_clip_batch(b, zoom, bounds, emit),
        batch_format="pyarrow",
        zero_copy_batch=True,
        **map_kwargs,
    )


def tile_cover(ds, zoom: int, bounds=None, **map_kwargs):
    """Exact tile cover, whole-feature fan-out — SplitCombineTiles
    (split_combine.go:244-257) re-expressed over the clip kernel."""
    return tile_clip(ds, zoom, bounds, emit="original", **map_kwargs)


def split_combine_keys(
    ds,
    out_dir: str,
    key_fn,
    *,
    write_bbox: bool = True,
    combine_path: str | None = None,
    map_kwargs: dict | None = None,
):
    """Generic key-based split-combine — the reference's user splitting
    hook ``myfunc func(*geojson.Feature) []string``
    (split_combine.go:235-241; §2.10): each feature fans out to the
    string keys a user BATCH function assigns, then one shuffle writes
    one subfile per key (and optionally one combined gob-indexed file).

    ``key_fn(batch) -> (row_idx int64[], keys str[])`` is the
    batch-vectorized form of the per-feature hook: row ``row_idx[i]``
    lands in subfile ``keys[i]`` (a row may appear under many keys).
    """
    def assign(batch: pa.Table) -> pa.Table:
        row_idx, keys = key_fn(batch)
        taken = batch.take(pa.array(np.asarray(row_idx, np.int64)))
        taken = taken.append_column(
            "split_key", pa.array(list(keys), pa.string()))
        return taken

    keyed = ds.map_batches(assign, batch_format="pyarrow",
                           zero_copy_batch=True, **(map_kwargs or {}))
    return _split_write(keyed, out_dir, "split_key", "split_key",
                        write_bbox, combine_path)


def tile_counts(ds, zoom: int, bounds=None, **map_kwargs):
    """Per-tile feature counts — the manifest aggregate
    (groupby(tile).count(), SURVEY.md §2.6 A3)."""
    tiled = assign_tiles(ds, zoom, bounds, **map_kwargs)
    return tiled.groupby("tile_str").count()


def adaptive_tile_assign(points, *, lon_col: str = "lon",
                         lat_col: str = "lat", zmin: int, zmax: int,
                         cap: int, id_col: str | None = None):
    """Count-bounded ADAPTIVE quadtree tiling — the skew handler for
    dense cells (north_rule: "salted repartitioning for skewed dense
    cells", expressed as splitting instead of salting): a point is
    assigned at the SHALLOWEST zoom in [zmin, zmax] whose tile holds
    <= ``cap`` points, else at ``zmax``.  Deterministic and
    order-independent (the rule depends only on full per-tile counts).

    Scale shape: hot tiles are found LEVEL BY LEVEL — the level-z pass
    counts only points whose whole ancestor chain is hot (points in a
    non-hot ancestor are already assigned shallower and can never
    split deeper), so every count table and every broadcast hot set is
    bounded by (#points / cap) * 4 rows, never by 4^z.  The input is
    scanned zmax - zmin + 1 times (materialized once).

    Returns a Dataset of per-point rows (``id_col`` if given, zoom,
    tile_x, tile_y).
    """
    import ray

    from ..collect import collect_table
    from ..spatial import tiles as _t

    if not (zmin <= zmax):
        raise ValueError("need zmin <= zmax")
    pts = points.materialize()
    hot: dict[int, np.ndarray] = {}      # z -> sorted packed hot tiles

    def _packed(batch, z):
        x, y = _t.lonlat_to_tile(batch[lon_col].to_numpy(),
                                 batch[lat_col].to_numpy(), z)
        return (x.astype(np.int64) << 32) | y.astype(np.int64)

    def _chain_hot(p, z):
        """True where the point's ancestors at zmin..z-1 are ALL hot
        (p = packed tile at z)."""
        x, y = p >> 32, p & 0xFFFFFFFF
        ok = np.ones(len(p), bool)
        for zp in range(zmin, z):
            hp = hot[zp]
            a = ((x >> (z - zp)) << 32) | (y >> (z - zp))
            pos = np.searchsorted(hp, a)
            pos = np.clip(pos, 0, max(len(hp) - 1, 0))
            ok &= len(hp) > 0
            if len(hp):
                ok &= hp[pos] == a
        return ok

    for z in range(zmin, zmax):          # zmax never splits further
        def partial(batch: pa.Table, z=z) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"t": pa.array([], pa.int64()),
                                 "n": pa.array([], pa.int64())})
            p = _packed(batch, z)
            if z > zmin:
                p = p[_chain_hot(p, z)]
            uniq, cnt = np.unique(p, return_counts=True)
            return pa.table({"t": pa.array(uniq),
                             "n": pa.array(cnt.astype(np.int64))})

        parts = collect_table(pts.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True))
        agg = parts.group_by("t").aggregate([("n", "sum")])
        t = agg["t"].to_numpy(zero_copy_only=False)
        n = agg["n_sum"].to_numpy(zero_copy_only=False)
        hot[z] = np.sort(t[n > cap])

    hot_ref = ray.put(hot)

    def assign(batch: pa.Table) -> pa.Table:
        nrows = batch.num_rows
        h = ray.get(hot_ref) if nrows else {}
        zoom = np.full(nrows, zmax, np.int64)
        tx = np.zeros(nrows, np.int64)
        ty = np.zeros(nrows, np.int64)
        undecided = np.ones(nrows, bool)
        lon = batch[lon_col].to_numpy()
        lat = batch[lat_col].to_numpy()
        for z in range(zmin, zmax + 1):
            x, y = _t.lonlat_to_tile(lon, lat, z)
            p = (x.astype(np.int64) << 32) | y.astype(np.int64)
            if z < zmax:
                hz = h[z]
                pos = np.clip(np.searchsorted(hz, p), 0,
                              max(len(hz) - 1, 0))
                is_hot = (hz[pos] == p) if len(hz) else \
                    np.zeros(nrows, bool)
                take = undecided & ~is_hot
            else:
                take = undecided
            zoom[take] = z
            tx[take] = x[take]
            ty[take] = y[take]
            undecided &= ~take
            if not undecided.any():
                break
        cols = {}
        if id_col is not None:
            cols[id_col] = batch[id_col]
        cols.update({"zoom": pa.array(zoom), "tile_x": pa.array(tx),
                     "tile_y": pa.array(ty)})
        return pa.table(cols)

    return pts.map_batches(assign, batch_format="pyarrow",
                           zero_copy_batch=True)


def make_mvt_tiles(ds, zoom: int, *, extent: int = 4096,
                   layer_name: str = "layer", prop_cols=None,
                   id_col: str = "id", bounds=None, nbuckets: int = 64,
                   order_by: tuple = ("tile_key", "id"),
                   map_kwargs: dict | None = None):
    """Features -> one Mapbox Vector Tile blob per slippy tile — the
    serving-side continuation of the reference's split-combine tiling
    (split_combine.go:244-257 writes per-tile geobuf subfiles; a web
    map consumes exactly this layout as MVT).

    Shape: ``tile_clip`` fans features to their EXACT covering tiles
    with per-tile clipped geometry, then ONE exchange on ``tile_key``
    lands every row of a tile in one bucket — the per-layer value
    dictionary and feature order are complete in-bucket, so each MVT
    encodes in a single vectorized pass (codec/mvt).  Rows sort by
    ``order_by`` in-bucket, making tile BYTES deterministic and
    partition-invariant.  Output: one row per non-empty tile
    (``codec.mvt.MVT_TILE_SCHEMA``).
    """
    from ..codec.mvt import MVT_TILE_SCHEMA, encode_mvt_batch
    from ..functions.exchange import hash_exchange

    clipped = tile_clip(ds, zoom, bounds, **(map_kwargs or {}))

    def enc(tbl: pa.Table) -> pa.Table:
        keys = [(c, "ascending") for c in order_by
                if c in tbl.column_names]
        if keys:
            tbl = tbl.sort_by(keys)
        return encode_mvt_batch(tbl, zoom, extent=extent,
                                layer_name=layer_name,
                                prop_cols=prop_cols, id_col=id_col)

    return hash_exchange(clipped, nbuckets=nbuckets, on="tile_key",
                         reduce_fn=enc, schema=MVT_TILE_SCHEMA)


def _rollup_level(manifest: pa.Table, out_dir: str,
                  combine_path: str | None = None,
                  resume: bool = False) -> pa.Table:
    """One pyramid level up: each parent tile's stream is the byte
    CONCATENATION of its children's frame streams, written in child-key
    order (geobuf frames are self-delimiting, so the rollup is pure
    I/O — no decode, no re-encode, no second feature shuffle).

    Exact for DISJOINT assignments (points, or ``clip=True`` pieces);
    a bbox-fanout feature covering several child tiles would appear
    once per child in the parent — use the clipped pipeline for
    area features.  Distributed: one ``map_groups`` over the (small)
    manifest, each parent task streams only its own children."""
    import os
    import time
    import uuid

    import pyarrow.parquet as pq
    import ray

    from ..collect import collect_table
    from ..io.geobuf_file import _MANIFEST_SCHEMA, _write_atomic
    from ..state import checkpoint as ck

    os.makedirs(out_dir, exist_ok=True)
    parents = []
    for k in manifest["key"].to_pylist():
        x, y, z = (int(p) for p in k.split("-"))
        parents.append(f"{x // 2}-{y // 2}-{z - 1}")
    mt = manifest.append_column("parent", pa.array(parents, pa.string()))

    done_rows = _MANIFEST_SCHEMA.empty_table()
    if resume:
        # per-parent atomic commits (state/checkpoint manifest rows)
        # make a killed rollup resumable: committed parents are
        # dropped from the group-walk and their durable rows reused
        done = ck.completed_keys(out_dir)
        if done:
            done_rows = pa.Table.from_pylist(
                [r for r in ck.load_manifest(out_dir).to_pylist()
                 if r["key"] in done], schema=_MANIFEST_SCHEMA)
            keep = [p not in done for p in mt["parent"].to_pylist()]
            mt = mt.filter(pa.array(keep))

    def write_parent(group: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        t0 = time.perf_counter()
        rows = sorted(group.to_pylist(),
                      key=lambda r: (r["key"], r["path"]))
        pkey = rows[0]["parent"]
        stream = b"".join(open(r["path"], "rb").read() for r in rows)
        path = os.path.join(out_dir, f"{pkey}-{uuid.uuid4().hex[:12]}.geobuf")
        _write_atomic(path, stream)

        def _mm(vals, fn):
            vs = [v for v in vals if v == v]
            return fn(vs) if vs else float("nan")

        row = {
            "path": path,
            "key": pkey,
            "num_features": sum(r["num_features"] for r in rows),
            "size_bytes": len(stream),
            "west": _mm([r["west"] for r in rows], min),
            "south": _mm([r["south"] for r in rows], min),
            "east": _mm([r["east"] for r in rows], max),
            "north": _mm([r["north"] for r in rows], max),
            "write_seconds": time.perf_counter() - t0,
        }
        ck.write_manifest_row(out_dir, pkey,
                              {k: v for k, v in row.items() if k != "key"})
        return pa.Table.from_pylist([row], schema=_MANIFEST_SCHEMA)

    fresh = _MANIFEST_SCHEMA.empty_table()
    if mt.num_rows:
        fresh = collect_table(
            ray.data.from_arrow(mt).groupby("parent").map_groups(
                write_parent, batch_format="pyarrow"),
            _MANIFEST_SCHEMA)
    pm = pa.concat_tables([fresh, done_rows])
    pq.write_table(pm, os.path.join(out_dir, "_manifest.parquet"))
    if combine_path is not None:
        _combine(pm, combine_path)
    return pm


def tile_pyramid(ds, out_dir: str, zoom: int, *, levels: int = 3,
                 bounds=None, write_bbox: bool = True,
                 resume: bool = False,
                 map_kwargs: dict | None = None):
    """Multi-level Combine pyramid — the reference's hierarchical
    refinement (split_combine.go:425-559) as ONE feature shuffle plus
    a parent-walk rollup: leaf tiles at ``zoom`` are written by
    :func:`split_combine` (per-tile files + gob-indexed combined
    file), then every coarser level z-1 .. z-levels+1 derives by
    byte-concatenating child streams (:func:`_rollup_level` — no
    re-encode, no second shuffle; exact for disjoint assignments).
    Each level directory ``z{n}/`` holds the per-tile files, a
    ``_manifest.parquet`` and a reference-layout ``combined.geobuf``
    whose subfiles are key-addressable per level.

    ``resume=True`` re-runs skip work already durable: a level whose
    ``_manifest.parquet`` committed is loaded, not recomputed (a crash
    during a rollup never re-shuffles the leaf level), and a partially
    written rollup level resumes parent-by-parent from its
    state/checkpoint manifest rows.  A resume assumes the same input
    (and zoom, levels, bounds) as the run it resumes: durable state is
    not fingerprinted.  A non-resume run therefore first removes every
    level's ``_manifest.parquet`` and ``_manifest/`` rows under
    ``out_dir``, so resuming it can never pick up an earlier run's
    tiles.

    Returns ``{zoom_level: manifest_table}``."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from ..state.checkpoint import manifest_dir

    if levels < 1:
        raise ValueError("levels >= 1")
    if zoom - levels + 1 < 0:
        raise ValueError(f"levels={levels} underflows zoom 0 from "
                         f"zoom={zoom}")
    if not resume and os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            level = os.path.join(out_dir, name)
            if name[:1] == "z" and name[1:].isdigit() and os.path.isdir(level):
                shutil.rmtree(manifest_dir(level), ignore_errors=True)
                parquet = os.path.join(level, "_manifest.parquet")
                if os.path.exists(parquet):
                    os.remove(parquet)

    def _level_manifest(z: int):
        p = os.path.join(out_dir, f"z{z}", "_manifest.parquet")
        if resume and os.path.exists(p):
            return pq.read_table(p)
        return None

    manifests = {}
    m = _level_manifest(zoom)
    if m is None:
        m = split_combine(
            ds, os.path.join(out_dir, f"z{zoom}"), zoom, bounds=bounds,
            write_bbox=write_bbox,
            combine_path=os.path.join(out_dir, f"z{zoom}",
                                      "combined.geobuf"),
            map_kwargs=map_kwargs)
    manifests[zoom] = m
    for z in range(zoom - 1, zoom - levels, -1):
        done = _level_manifest(z)
        m = done if done is not None else _rollup_level(
            m, os.path.join(out_dir, f"z{z}"),
            combine_path=os.path.join(out_dir, f"z{z}",
                                      "combined.geobuf"),
            resume=resume)
        manifests[z] = m
    return manifests
