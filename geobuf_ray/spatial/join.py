"""Cell-indexed spatial join + kNN engine (north_rule).

The reference has no relational join (SURVEY.md §2.5); its join-like
construct is the feature→tile flat-map.  This module generalizes it:

- **cell key** = packed slippy tile at a chosen zoom (quadtree cell —
  the same role H3/S2 res-N cells play; zoom 12 cells are ~10 km,
  zoom 15 ~1 km).
- **point-in-polygon join**: the cell-bucketed polygon index (small
  side) rides on the stage instance, which Ray Data ships once per
  operator; points stream through ``map_batches`` tasks that prune by
  cell then refine with exact ray-casting PIP — broadcast hash join,
  no shuffle.
- **S2 shuffle joins** (``pip_s2_join``, ``knn_s2_join``): when
  neither side fits a broadcast, both sides key on S2 cells and
  co-group on the hash exchange (``functions/exchange.py``), with
  exact refinement per cell.
- **kNN**: exact broadcast top-k (``knn_join``), or the S2 shuffle,
  where refs fan out to every cell within a radius and rows the
  radius cannot certify come back ``truncated``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import tiles
from .geometry import haversine_m, point_in_rings


# ---------------------------------------------------------------------------
# broadcast polygon index
# ---------------------------------------------------------------------------


class PolygonIndex:
    """Cell-bucketed polygon set for broadcast PIP joins.

    Built once driver-side from a (small) polygon table and carried by
    the join stage, which Ray Data ships once per operator — read per
    task, never re-shipped per batch (SURVEY.md §4).  Polygons are
    stored as flat numpy buffers; the bucket map sends each cell to the
    polygon ids whose bbox covers it.
    """

    def __init__(self, table: pa.Table, zoom: int = 9,
                 id_column: str = "id"):
        from ..codec.schema import list_column_parts
        from .geometry import feature_bbox

        self.zoom = zoom
        n = table.num_rows
        coords, offs = list_column_parts(table["coords"], np.float64)
        dim = (
            table["dim"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
            if "dim" in table.column_names
            else np.full(n, 2, np.int64)
        )
        rs, rs_offs = list_column_parts(table["ring_sizes"], np.int64)
        self.poly_ids = table[id_column].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        self.bbox = feature_bbox(coords, offs, dim)
        # flat x/y vertex buffers + per-feature ring offset slices
        # (dims beyond 2 are ignored for PIP)
        counts = np.diff(offs)
        local = np.arange(len(coords)) - np.repeat(offs[:-1], counts)
        d = np.repeat(np.maximum(dim, 1), counts)
        self.xs = coords[(local % d) == 0]
        self.ys = coords[(local % d) == 1]
        # per-ring vertex offsets into xs/ys (global)
        ring_counts = rs
        self.ring_offsets = np.concatenate(([0], np.cumsum(ring_counts))).astype(np.int64)
        # feature -> ring index range
        self.feat_ring_offsets = rs_offs.astype(np.int64)
        # cell buckets from bbox cover (shared kernel, full NaN filter)
        rows, keys = tiles.bbox_cover_rows(self.bbox, zoom)
        order = np.argsort(keys, kind="stable")
        self._bucket_keys, bucket_starts = np.unique(keys[order], return_index=True)
        self._bucket_offsets = np.append(bucket_starts, len(keys)).astype(np.int64)
        self._bucket_rows = rows[order]

    def candidates(self, cell_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point_row_idx, polygon_row_idx) candidate pairs by cell."""
        pos = np.searchsorted(self._bucket_keys, cell_keys)
        pos = np.clip(pos, 0, len(self._bucket_keys) - 1)
        hit = self._bucket_keys[pos] == cell_keys if len(self._bucket_keys) else np.zeros(len(cell_keys), bool)
        pt_idx = np.flatnonzero(hit)
        if not len(pt_idx):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        b = pos[pt_idx]
        counts = self._bucket_offsets[b + 1] - self._bucket_offsets[b]
        pt_rep = np.repeat(pt_idx, counts)
        gather = np.repeat(self._bucket_offsets[b], counts) + (
            np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        return pt_rep, self._bucket_rows[gather]

    def contains(self, lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact PIP of points vs all indexed polygons.

        Returns (point_row_idx, polygon_id) match pairs.
        """
        cx, cy = tiles.lonlat_to_tile(lon, lat, self.zoom)
        cells = tiles.pack(np.full(len(lon), self.zoom, np.int64), cx, cy)
        pt_rep, poly_rows = self.candidates(cells)
        if not len(pt_rep):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        # bbox refine
        bb = self.bbox[poly_rows]
        ok = (
            (lon[pt_rep] >= bb[:, 0]) & (lon[pt_rep] <= bb[:, 2])
            & (lat[pt_rep] >= bb[:, 1]) & (lat[pt_rep] <= bb[:, 3])
        )
        pt_rep, poly_rows = pt_rep[ok], poly_rows[ok]
        # exact PIP per polygon over its candidate points (few polygons,
        # vectorized over points within each)
        out_pt: list[np.ndarray] = []
        out_poly: list[np.ndarray] = []
        order = np.argsort(poly_rows, kind="stable")
        poly_sorted = poly_rows[order]
        pt_sorted = pt_rep[order]
        uniq, starts = np.unique(poly_sorted, return_index=True)
        bounds = np.append(starts, len(poly_sorted))
        for u, s, e in zip(uniq, bounds[:-1], bounds[1:]):
            pts = pt_sorted[s:e]
            r0 = self.feat_ring_offsets[u]
            r1 = self.feat_ring_offsets[u + 1]
            ro = self.ring_offsets[r0 : r1 + 1]
            inside = point_in_rings(lon[pts], lat[pts], self.xs, self.ys, ro)
            out_pt.append(pts[inside])
            out_poly.append(np.full(int(inside.sum()), self.poly_ids[u], np.int64))
        if not out_pt:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(out_pt), np.concatenate(out_poly)


class _PIPJoinFn:
    """Map stage: the broadcast polygon index rides on the instance,
    points stream through __call__ per batch."""

    def __init__(self, index: PolygonIndex, lon_col: str, lat_col: str):
        self.index = index
        self.lon_col = lon_col
        self.lat_col = lat_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[self.lat_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64)
        pt_idx, poly_id = self.index.contains(lon, lat)
        out = batch.take(pa.array(pt_idx, pa.int64()))
        return out.append_column("polygon_id", pa.array(poly_id, pa.int64()))


def point_in_polygon_join(
    points_ds,
    polygons: pa.Table,
    *,
    lon_col: str = "lon",
    lat_col: str = "lat",
    zoom: int = 9,
    poly_id_column: str = "id",
    **map_kwargs,
):
    """Broadcast PIP join: points Dataset x small polygon table.

    The polygon index is built once on the driver and rides on the
    stage instance.  Output = point rows (inside any polygon) with a
    ``polygon_id`` column; points in k polygons emit k rows.
    """
    index = PolygonIndex(polygons, zoom=zoom, id_column=poly_id_column)
    return points_ds.map_batches(
        _PIPJoinFn(index, lon_col, lat_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        **map_kwargs,
    )


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------


class _KNNFn:
    """Map stage: brute-force exact kNN of each streamed point
    against a broadcast reference point set (haversine).

    Exact (no pruning) — the oracle-matching baseline.  For large
    reference sets use :func:`knn_s2_join`, which prunes by S2 cell
    first.
    """

    def __init__(self, ref_points, k: int, lon_col: str, lat_col: str):
        self.ref_lon, self.ref_lat, self.ref_ids = ref_points
        self.k = k
        self.lon_col, self.lat_col = lon_col, lat_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[self.lat_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(lon)
        k = min(self.k, len(self.ref_ids))
        if n == 0 or k == 0:
            # empty batches arrive from upstream filters; emit the
            # output schema with zero rows instead of crashing concat
            out = batch.take(pa.array([], pa.int64()))
            out = out.append_column("neighbor_id", pa.array([], pa.int64()))
            out = out.append_column("distance_m", pa.array([], pa.float64()))
            out = out.append_column("rank", pa.array([], pa.int32()))
            return out
        # (n x m) distance matrix in blocks to bound memory
        out_rows, out_nbr, out_dist, out_rank = [], [], [], []
        blk = max(1, (1 << 22) // max(len(self.ref_ids), 1))
        for s in range(0, n, blk):
            e = min(n, s + blk)
            d = haversine_m(
                lon[s:e, None], lat[s:e, None], self.ref_lon[None, :], self.ref_lat[None, :]
            )
            part = np.argpartition(d, kth=k - 1, axis=1)[:, :k]
            dd = np.take_along_axis(d, part, axis=1)
            order = np.argsort(dd, axis=1, kind="stable")
            nbrs = np.take_along_axis(part, order, axis=1)
            dists = np.take_along_axis(dd, order, axis=1)
            out_rows.append(np.repeat(np.arange(s, e), k))
            out_nbr.append(self.ref_ids[nbrs].reshape(-1))
            out_dist.append(dists.reshape(-1))
            out_rank.append(np.tile(np.arange(1, k + 1), e - s))
        rows = np.concatenate(out_rows)
        out = batch.take(pa.array(rows, pa.int64()))
        out = out.append_column("neighbor_id", pa.array(np.concatenate(out_nbr), pa.int64()))
        out = out.append_column("distance_m", pa.array(np.concatenate(out_dist), pa.float64()))
        out = out.append_column("rank", pa.array(np.concatenate(out_rank), pa.int32()))
        return out


def knn_join(
    points_ds,
    ref_table: pa.Table,
    k: int = 5,
    *,
    lon_col: str = "lon",
    lat_col: str = "lat",
    ref_lon_col: str = "lon",
    ref_lat_col: str = "lat",
    ref_id_col: str = "id",
    **map_kwargs,
):
    """Exact kNN of every streamed point against a broadcast reference
    set.  Output: one row per (point, neighbor) with rank + distance."""
    ref = (
        ref_table[ref_lon_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64),
        ref_table[ref_lat_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64),
        ref_table[ref_id_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64),
    )
    return points_ds.map_batches(
        _KNNFn(ref, k, lon_col, lat_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        **map_kwargs,
    )


# ---------------------------------------------------------------------------
# S2-indexed PIP join (north_rule: "H3/S2 index ... point-in-polygon")
# ---------------------------------------------------------------------------


def pip_s2_join(
    points_ds,
    polygons_ds,
    *,
    level: int = 8,
    nbuckets: int = 64,
    lon_col: str = "lon",
    lat_col: str = "lat",
    point_id_col: str = "custkey",
    poly_id_col: str = "id",
    salt_bits: int = 0,
):
    """Point-in-polygon join partitioned on **S2 cells** (spatial/s2.py).

    Points key on their level-``level`` cell; polygons fan out to the
    exact covering cells of their bbox (``s2.cover_rects`` — analytic
    cell bounds, so no covering cell is ever missed).  One raw-task
    hash co-group (`functions/exchange.py`) co-locates cell-equal rows;
    each bucket refines with exact ray-casting PIP.  Results are
    identical to the broadcast :func:`point_in_polygon_join` — the
    index only prunes candidates.  That join is the path for a polygon
    set small enough to ship to every task; this one is the path for
    one that is not.

    Scale notes: S2 cells are near-equal-area (no polar row blowup, cf.
    slippy tiles), and the cell id's prefix property gives ancestor
    ranges for free — `cell_range` pruning composes with gob/manifest
    range addressing.  Buckets hash the cell id, so dense-cell skew is
    bounded by one cell's content; ``salt_bits`` (north_rule "salted
    repartitioning for skewed dense cells") splits every bucket's
    POINT rows into ``2^salt_bits`` sub-buckets by a content hash of
    the point id while polygon rows replicate to all salts — a
    pathological cell's refine runs on ``2^salt_bits`` workers with
    identical output (polygon fan-out cost x2^salt_bits).
    """
    from ..codec.schema import list_column_parts
    from ..functions.exchange import hash_cogroup
    from . import s2
    from .geometry import feature_bbox

    def points_bucket(batch: pa.Table):
        lon = batch[lon_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        lat = batch[lat_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        cell = s2.s2_cell_id(lon, lat, level)
        # the reduce kernel needs no cell column (see pip_bucket) —
        # ship only the payload
        pid_col = batch[point_id_col].cast(pa.int64())
        tbl = pa.table({
            "pid": pid_col,
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        })
        bkt = (cell % np.uint64(nbuckets)).astype(np.int64)
        if salt_bits > 0:
            pid = pid_col.combine_chunks().to_numpy(zero_copy_only=False)
            slt = ((pid.astype(np.uint64)
                    * np.uint64(0x9E3779B97F4A7C15))
                   >> np.uint64(64 - salt_bits)).astype(np.int64)
            bkt = bkt * (1 << salt_bits) + slt
        return bkt, tbl

    def polys_bucket(batch: pa.Table):
        n = batch.num_rows
        coords, offs = list_column_parts(batch["coords"], np.float64)
        dim = (batch["dim"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
            if "dim" in batch.column_names else np.full(n, 2, np.int64))
        bb = feature_bbox(coords, offs, dim)
        rows, cells = s2.cover_rects(bb[:, 0], bb[:, 1], bb[:, 2],
                                     bb[:, 3], level)
        # a polygon covering c cells lands in min(c, nbuckets) buckets
        # — dedupe (row, bucket) BEFORE taking the geometry payload, so
        # fan-out (and the shuffle) is bounded by nbuckets per polygon,
        # not by its covering-cell count
        bkt = (cells % np.uint64(nbuckets)).astype(np.int64)
        order = np.lexsort((bkt, rows))
        rows, bkt = rows[order], bkt[order]
        keep = np.concatenate(([True], (rows[1:] != rows[:-1])
                               | (bkt[1:] != bkt[:-1])))
        rows, bkt = rows[keep], bkt[keep]
        if salt_bits > 0:
            # polygons replicate to every point-salt sub-bucket
            nsalt = 1 << salt_bits
            nded = len(rows)
            rep = np.repeat(np.arange(nded), nsalt)
            rows = rows[rep]
            bkt = bkt[rep] * nsalt + np.tile(
                np.arange(nsalt, dtype=np.int64), nded)
        taken = batch.take(pa.array(rows, pa.int64()))
        tbl = pa.table({
            "pid": taken[poly_id_col].cast(pa.int64()),
            "coords": taken["coords"],
            "ring_sizes": taken["ring_sizes"],
            "dim": (taken["dim"].cast(pa.int8())
                    if "dim" in taken.column_names
                    else pa.array(np.full(len(rows), 2, np.int8))),
        })
        return bkt, tbl

    lschema = pa.schema([("pid", pa.int64()),
                         ("lon", pa.float64()), ("lat", pa.float64())])
    rschema = pa.schema([("pid", pa.int64()),
                         ("coords", pa.list_(pa.float64())),
                         ("ring_sizes", pa.list_(pa.int32())),
                         ("dim", pa.int8())])

    def pip_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        empty = pa.table({point_id_col: pa.array([], pa.int64()),
                          "polygon_id": pa.array([], pa.int64())})
        if lt.num_rows == 0 or rt.num_rows == 0:
            return empty
        # Pairs are complete and unique without any cell bookkeeping:
        # every point lives in exactly ONE bucket (its cell's hash),
        # and a containing polygon always covers that cell (cover is a
        # superset of bbox-intersecting cells) so it is present here.
        # A polygon covering several same-bucket cells appears once per
        # cell — dedup by pid, then exact PIP refines candidates.
        ppid = rt["pid"].to_numpy(zero_copy_only=False)
        _, uniq_rows = np.unique(ppid, return_index=True)
        polys = rt.take(pa.array(uniq_rows, pa.int64()))
        index = PolygonIndex(
            polys.select(["pid", "coords", "ring_sizes", "dim"]),
            zoom=9, id_column="pid")
        lon = lt["lon"].to_numpy(zero_copy_only=False)
        lat = lt["lat"].to_numpy(zero_copy_only=False)
        pt_idx, poly_id = index.contains(lon, lat)
        if len(pt_idx) == 0:
            return empty
        pid_arr = lt["pid"].to_numpy(zero_copy_only=False)[pt_idx]
        return pa.table({point_id_col: pa.array(pid_arr, pa.int64()),
                         "polygon_id": pa.array(poly_id, pa.int64())})

    return hash_cogroup(
        points_ds, polygons_ds, nbuckets=nbuckets << salt_bits,
        left_bucket_fn=points_bucket, right_bucket_fn=polys_bucket,
        reduce_fn=pip_bucket, left_schema=lschema, right_schema=rschema)


_S2_LEVEL0_EDGE_M = 4.0075e7 / 4.0  # ~level-0 cell edge (C/4)


def clamp_level_for_radius(level: int, radius_m: float,
                           max_span_cells: float = 8.0) -> int:
    """Coarsen ``level`` so a ``radius_m`` disk spans at most
    ``max_span_cells`` cells across (edge(L) ~= C/(4*2^L)).

    The disk-cover joins' correctness contract is level-independent
    (the RADIUS defines which pairs meet; the level only picks the
    partition granularity), but their COST is not: a radius many cells
    wide fans every ref to O((r/edge)^2) cells — at level 5 a 7,000 km
    disk is ~4,000 cells, i.e. a megabyte-scale fan-out and seconds of
    driver-side cover BFS per thousand refs.  Clamping keeps the
    fan-out O(max_span_cells^2) per ref regardless of the radius the
    caller (or an escalation rung) asks for."""
    edge_needed = 2.0 * radius_m / max_span_cells
    if edge_needed <= 0:
        return level
    lv = int(np.floor(np.log2(max(_S2_LEVEL0_EDGE_M / edge_needed, 1.0))))
    return max(0, min(level, lv))


def _disk_cover_cells(rlon: np.ndarray, rlat: np.ndarray,
                      radius_m: float, level: int):
    """Level-``level`` cells intersecting each point's ``radius_m``
    disk: (row, cell) fan-out pairs, deduplicated.

    Conservative degree padding: 110 km/degree underestimates the true
    meters-per-degree everywhere (so the degree pad overestimates), lon
    pads at the most poleward latitude the disk reaches, and disks
    reaching past lat 89 take the full lon range.  Antimeridian-
    wrapping disks split into two rects before the cover."""
    from . import s2

    dlat = radius_m / 110_000.0
    lat_edge = np.abs(rlat) + dlat
    dlon = radius_m / (110_000.0 * np.cos(np.radians(
        np.minimum(lat_edge, 89.0))))
    full = (dlon >= 180.0) | (lat_edge >= 89.0)
    dlon = np.minimum(dlon, 180.0)
    w = rlon - dlon
    e = rlon + dlon
    s_ = np.maximum(rlat - dlat, -90.0)
    n_ = np.minimum(rlat + dlat, 90.0)
    rect_ref, rw, rs, re_, rn = [], [], [], [], []
    base = np.arange(len(rlon))
    main_w = np.where(full, -180.0, np.maximum(w, -180.0))
    main_e = np.where(full, 180.0, np.minimum(e, 180.0))
    rect_ref.append(base)
    rw.append(main_w); rs.append(s_); re_.append(main_e); rn.append(n_)
    wrap_lo = np.flatnonzero(~full & (w < -180.0))
    if len(wrap_lo):
        rect_ref.append(wrap_lo)
        rw.append(w[wrap_lo] + 360.0); rs.append(s_[wrap_lo])
        re_.append(np.full(len(wrap_lo), 180.0)); rn.append(n_[wrap_lo])
    wrap_hi = np.flatnonzero(~full & (e > 180.0))
    if len(wrap_hi):
        rect_ref.append(wrap_hi)
        rw.append(np.full(len(wrap_hi), -180.0)); rs.append(s_[wrap_hi])
        re_.append(e[wrap_hi] - 360.0); rn.append(n_[wrap_hi])
    rows, cells = s2.cover_rects(
        np.concatenate(rw), np.concatenate(rs), np.concatenate(re_),
        np.concatenate(rn), level, rect_ids=np.concatenate(rect_ref))
    # a split disk can cover one cell twice -> dedupe (row, cell)
    order = np.lexsort((cells, rows))
    rows, cells = rows[order], cells[order]
    keep = np.concatenate(([True], (rows[1:] != rows[:-1])
                           | (cells[1:] != cells[:-1])))
    return rows[keep], cells[keep]


def knn_s2_join(
    points_ds,
    ref_table: pa.Table,
    k: int = 5,
    *,
    level: int = 7,
    radius_m: float = 500_000.0,
    lon_col: str = "lon",
    lat_col: str = "lat",
    id_col: str = "custkey",
    ref_lon_col: str = "lon",
    ref_lat_col: str = "lat",
    ref_id_col: str = "id",
    salt_bits: int = 0,
    auto_level: bool = True,
):
    """Shuffle kNN partitioned on **S2 cells** with radius
    certification (north_rule: "kNN via groupby-on-cell").

    Each reference point fans out to every level-``level`` cell whose
    bound intersects the ref's ``radius_m`` disk (conservative degree
    padding; antimeridian-wrapping disks split into two rects), so a
    point's group provably holds EVERY ref within ``radius_m`` of it.
    Local exact haversine top-k follows; a row whose kth distance is
    within ``radius_m`` is therefore exact, anything else is flagged
    ``truncated=True`` for a re-run with a larger radius / coarser
    level.  The radius is an explicit metric distance (S2 cells are
    near-equal-area, so one radius serves every latitude).

    ``salt_bits`` handles skewed dense cells (north_rule "salted
    repartitioning"): point rows split into ``2^salt_bits`` sub-groups
    by a content hash of their id while every fanned ref row
    replicates to all salts, so a hot cell's O(q x r) kernel runs on
    ``2^salt_bits`` workers with bit-identical results (ref fan-out
    cost x2^salt_bits — keep it 0 for uniform data).
    """
    import ray

    from . import s2

    if auto_level:
        level = clamp_level_for_radius(level, radius_m)
    rlon = ref_table[ref_lon_col].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.float64)
    rlat = ref_table[ref_lat_col].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.float64)
    rid = ref_table[ref_id_col].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.int64)
    rows, cells = _disk_cover_cells(rlon, rlat, radius_m, level)
    nsalt = 1 << salt_bits
    if salt_bits > 0:
        rep = np.repeat(np.arange(len(rows)), nsalt)
        ref_salt = np.tile(np.arange(nsalt, dtype=np.uint8), len(rows))
        rows, cells = rows[rep], cells[rep]
    else:
        ref_salt = np.zeros(len(rows), np.uint8)
    ref_rows = pa.table({
        "cell": pa.array(cells, pa.uint64()),
        "salt": pa.array(ref_salt, pa.uint8()),
        "lon": pa.array(rlon[rows]),
        "lat": pa.array(rlat[rows]),
        "pid": pa.array(rid[rows]),
        "is_ref": pa.array(np.ones(len(rows), bool)),
    })

    def to_common(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        lat = batch[lat_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        pid = batch[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        key = s2.s2_cell_id(lon, lat, level)
        if salt_bits > 0:
            # content hash of the point id — stable across resumes
            slt = ((pid.astype(np.uint64)
                    * np.uint64(0x9E3779B97F4A7C15))
                   >> np.uint64(64 - salt_bits)).astype(np.uint8)
        else:
            slt = np.zeros(len(lon), np.uint8)
        return pa.table({
            "cell": pa.array(key, pa.uint64()),
            "salt": pa.array(slt, pa.uint8()),
            "lon": pa.array(lon), "lat": pa.array(lat),
            "pid": pa.array(pid),
            "is_ref": pa.array(np.zeros(len(lon), bool)),
        })

    pts = points_ds.map_batches(to_common, batch_format="pyarrow",
                                zero_copy_batch=True)
    both = pts.union(ray.data.from_arrow(ref_rows))

    def local_knn(group: pa.Table) -> pa.Table:
        is_ref = group["is_ref"].to_numpy(zero_copy_only=False)
        if is_ref.all():
            return pa.table({id_col: pa.array([], pa.int64()),
                             "rank": pa.array([], pa.int32()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "distance_m": pa.array([], pa.float64()),
                             "truncated": pa.array([], pa.bool_())})
        lon = group["lon"].to_numpy(zero_copy_only=False)
        lat = group["lat"].to_numpy(zero_copy_only=False)
        pid = group["pid"].to_numpy(zero_copy_only=False)
        qm = ~is_ref
        qlon, qlat, qid = lon[qm], lat[qm], pid[qm]
        if not is_ref.any():
            return pa.table({
                id_col: pa.array(qid.astype(np.int64)),
                "rank": pa.array(np.zeros(len(qid), np.int32)),
                "neighbor_id": pa.array(np.full(len(qid), -1, np.int64)),
                "distance_m": pa.array(np.full(len(qid), np.inf)),
                "truncated": pa.array(np.ones(len(qid), bool)),
            })
        rl, rt, ri = lon[is_ref], lat[is_ref], pid[is_ref]
        kk = min(k, len(ri))
        blk = max(1, (1 << 22) // max(len(ri), 1))
        nbr_parts, dist_parts = [], []
        for b0 in range(0, len(qid), blk):
            b1 = min(len(qid), b0 + blk)
            d = haversine_m(qlon[b0:b1, None], qlat[b0:b1, None],
                            rl[None, :], rt[None, :])
            part = np.argpartition(d, kth=kk - 1, axis=1)[:, :kk]
            dd = np.take_along_axis(d, part, axis=1)
            # deterministic tie-break: (distance, neighbor id), matching
            # the SQL ORDER BY dist, id oracle regardless of group order
            order = np.lexsort((ri[part], dd), axis=1)
            nbr_parts.append(np.take_along_axis(part, order, axis=1))
            dist_parts.append(np.take_along_axis(dd, order, axis=1))
        nbrs = np.concatenate(nbr_parts)
        dists = np.concatenate(dist_parts)
        # radius certification: every ref within radius_m of any point
        # of this cell is present, so kth-dist <= radius_m  =>  exact
        truncated = (dists[:, kk - 1] > radius_m) | (len(ri) < k)
        return pa.table({
            id_col: pa.array(np.repeat(qid, kk)),
            "rank": pa.array(np.tile(np.arange(1, kk + 1, dtype=np.int32),
                                     len(qid))),
            "neighbor_id": pa.array(ri[nbrs].reshape(-1)),
            "distance_m": pa.array(dists.reshape(-1)),
            "truncated": pa.array(np.repeat(truncated, kk)),
        })

    from ..functions.exchange import grouped_exchange

    # hash exchange, not Ray's sort-shuffle groupby (same win as
    # within_distance_join below)
    return grouped_exchange(both, ["cell", "salt"], local_knn,
                            nbuckets=64)


def within_distance_join(
    points_ds,
    ref_table: pa.Table,
    radius_m: float,
    *,
    level: int = 7,
    lon_col: str = "lon",
    lat_col: str = "lat",
    id_col: str = "custkey",
    ref_lon_col: str = "lon",
    ref_lat_col: str = "lat",
    ref_id_col: str = "id",
    salt_bits: int = 0,
    auto_level: bool = True,
):
    """Radius join (ST_DWithin shape): every (point, ref) pair with
    haversine distance <= ``radius_m``, EXACT — no truncation flag
    needed, unlike kNN, because the radius itself defines the fan-out.

    Refs fan to every level-``level`` cell intersecting their disk
    (:func:`_disk_cover_cells` — the kNN machinery's cover); each
    point lives in exactly ONE cell, so every qualifying pair meets in
    exactly one group and is emitted exactly once (no dedup pass).
    ``salt_bits`` splits dense point cells exactly as in
    :func:`knn_s2_join` (points sub-bucket by id hash, fanned refs
    replicate to all salts) — identical output, parallel hot cells.
    Output: (id_col, neighbor_id, distance_m) rows.
    """
    import ray

    from . import s2

    if auto_level:
        level = clamp_level_for_radius(level, radius_m)
    rlon = ref_table[ref_lon_col].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.float64)
    rlat = ref_table[ref_lat_col].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.float64)
    rid = ref_table[ref_id_col].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.int64)
    rows, cells = _disk_cover_cells(rlon, rlat, radius_m, level)
    nsalt = 1 << salt_bits
    if salt_bits > 0:
        rep = np.repeat(np.arange(len(rows)), nsalt)
        ref_salt = np.tile(np.arange(nsalt, dtype=np.uint8), len(rows))
        rows, cells = rows[rep], cells[rep]
    else:
        ref_salt = np.zeros(len(rows), np.uint8)
    ref_rows = pa.table({
        "cell": pa.array(cells, pa.uint64()),
        "salt": pa.array(ref_salt, pa.uint8()),
        "lon": pa.array(rlon[rows]),
        "lat": pa.array(rlat[rows]),
        "pid": pa.array(rid[rows]),
        "is_ref": pa.array(np.ones(len(rows), bool)),
    })

    def to_common(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        lat = batch[lat_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        pid = batch[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if salt_bits > 0:
            slt = ((pid.astype(np.uint64)
                    * np.uint64(0x9E3779B97F4A7C15))
                   >> np.uint64(64 - salt_bits)).astype(np.uint8)
        else:
            slt = np.zeros(len(lon), np.uint8)
        return pa.table({
            "cell": pa.array(s2.s2_cell_id(lon, lat, level), pa.uint64()),
            "salt": pa.array(slt, pa.uint8()),
            "lon": pa.array(lon), "lat": pa.array(lat),
            "pid": pa.array(pid),
            "is_ref": pa.array(np.zeros(len(lon), bool)),
        })

    pts = points_ds.map_batches(to_common, batch_format="pyarrow",
                                zero_copy_batch=True)
    both = pts.union(ray.data.from_arrow(ref_rows))

    def local_within(group: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "neighbor_id": pa.array([], pa.int64()),
                          "distance_m": pa.array([], pa.float64())})
        is_ref = group["is_ref"].to_numpy(zero_copy_only=False)
        if is_ref.all() or not is_ref.any():
            return empty
        lon = group["lon"].to_numpy(zero_copy_only=False)
        lat = group["lat"].to_numpy(zero_copy_only=False)
        pid = group["pid"].to_numpy(zero_copy_only=False)
        qm = ~is_ref
        qlon, qlat, qid = lon[qm], lat[qm], pid[qm]
        rl, rt, ri = lon[is_ref], lat[is_ref], pid[is_ref]
        blk = max(1, (1 << 22) // max(len(ri), 1))
        out_q, out_r, out_d = [], [], []
        for b0 in range(0, len(qid), blk):
            b1 = min(len(qid), b0 + blk)
            d = haversine_m(qlon[b0:b1, None], qlat[b0:b1, None],
                            rl[None, :], rt[None, :])
            qq, rr = np.nonzero(d <= radius_m)
            out_q.append(qid[b0:b1][qq])
            out_r.append(ri[rr])
            out_d.append(d[qq, rr])
        return pa.table({
            id_col: pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_r)),
            "distance_m": pa.array(np.concatenate(out_d)),
        })

    from ..functions.exchange import grouped_exchange

    # raw-task hash exchange instead of Ray groupby: co-location needs
    # only hash-bucketing, not the range-SORT shuffle groupby pays
    return grouped_exchange(both, ["cell", "salt"], local_within,
                            nbuckets=64)


def bbox_intersection_join(
    left_ds,
    right_ds,
    *,
    level: int = 6,
    nbuckets: int = 64,
    left_id_col: str = "id",
    right_id_col: str = "id",
):
    """Feature x feature bbox-intersection join on S2 cells — the
    filter stage of a polygon-polygon spatial join (exact for
    axis-aligned rectangles; layer an exact-geometry refine on the
    output pairs for general shapes).

    Both sides fan their bboxes to level-``level`` covering cells and
    co-group by cell hash.  Candidates match on exact cell equality;
    a pair may share MANY cells, so emission is deduplicated with the
    standard reference-point rule: emit only in the cell containing
    the SW corner of ``bbox(l) & bbox(r)`` — that corner lies in
    exactly one cell, which both covers provably contain (it is inside
    both bboxes), so every intersecting pair is emitted exactly once
    with no second dedup shuffle.

    Expects feature tables in the canonical layout (``coords`` +
    ``ring_sizes`` [+ ``dim``]); output is (left_id, right_id).
    """
    from ..codec.schema import list_column_parts
    from ..functions.exchange import hash_cogroup
    from . import s2
    from .geometry import feature_bbox

    def side_bucket_fn(id_col):
        def fn(batch: pa.Table):
            n = batch.num_rows
            coords, offs = list_column_parts(batch["coords"], np.float64)
            dim = (batch["dim"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
                if "dim" in batch.column_names
                else np.full(n, 2, np.int64))
            bb = feature_bbox(coords, offs, dim)
            rows, cells = s2.cover_rects(bb[:, 0], bb[:, 1], bb[:, 2],
                                         bb[:, 3], level)
            ids = batch[id_col].cast(pa.int64()).combine_chunks(
            ).to_numpy(zero_copy_only=False)
            tbl = pa.table({
                "cell": pa.array(cells, pa.uint64()),
                "pid": pa.array(ids[rows]),
                "w": pa.array(bb[rows, 0]), "s": pa.array(bb[rows, 1]),
                "e": pa.array(bb[rows, 2]), "n": pa.array(bb[rows, 3]),
            })
            return (cells % np.uint64(nbuckets)).astype(np.int64), tbl
        return fn

    schema = pa.schema([("cell", pa.uint64()), ("pid", pa.int64()),
                        ("w", pa.float64()), ("s", pa.float64()),
                        ("e", pa.float64()), ("n", pa.float64())])

    def reduce_fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        empty = pa.table({"left_id": pa.array([], pa.int64()),
                          "right_id": pa.array([], pa.int64())})
        if lt.num_rows == 0 or rt.num_rows == 0:
            return empty
        lcell = lt["cell"].to_numpy(zero_copy_only=False)
        rcell = rt["cell"].to_numpy(zero_copy_only=False)
        order = np.argsort(rcell, kind="stable")
        rs_ = rcell[order]
        lo = np.searchsorted(rs_, lcell, side="left")
        hi = np.searchsorted(rs_, lcell, side="right")
        cnt = hi - lo
        li = np.flatnonzero(cnt > 0)
        if len(li) == 0:
            return empty
        c = cnt[li]
        l_rep = np.repeat(li, c)
        gather = (np.repeat(lo[li], c)
                  + np.arange(int(c.sum())) - np.repeat(np.cumsum(c) - c, c))
        r_rep = order[gather]
        lw = lt["w"].to_numpy(zero_copy_only=False)[l_rep]
        ls = lt["s"].to_numpy(zero_copy_only=False)[l_rep]
        le = lt["e"].to_numpy(zero_copy_only=False)[l_rep]
        ln = lt["n"].to_numpy(zero_copy_only=False)[l_rep]
        rw = rt["w"].to_numpy(zero_copy_only=False)[r_rep]
        rss = rt["s"].to_numpy(zero_copy_only=False)[r_rep]
        re = rt["e"].to_numpy(zero_copy_only=False)[r_rep]
        rn = rt["n"].to_numpy(zero_copy_only=False)[r_rep]
        overlap = (lw <= re) & (le >= rw) & (ls <= rn) & (ln >= rss)
        if not overlap.any():
            return empty
        keep = np.flatnonzero(overlap)
        # reference-point dedup: SW corner of the bbox intersection
        ref_lon = np.maximum(lw[keep], rw[keep])
        ref_lat = np.maximum(ls[keep], rss[keep])
        ref_cell = s2.s2_cell_id(ref_lon, ref_lat, level)
        here = ref_cell == lcell[l_rep[keep]]
        keep = keep[here]
        if len(keep) == 0:
            return empty
        lid = lt["pid"].to_numpy(zero_copy_only=False)[l_rep[keep]]
        rid = rt["pid"].to_numpy(zero_copy_only=False)[r_rep[keep]]
        return pa.table({"left_id": pa.array(lid),
                         "right_id": pa.array(rid)})

    return hash_cogroup(
        left_ds, right_ds, nbuckets=nbuckets,
        left_bucket_fn=side_bucket_fn(left_id_col),
        right_bucket_fn=side_bucket_fn(right_id_col),
        reduce_fn=reduce_fn, left_schema=schema, right_schema=schema)
