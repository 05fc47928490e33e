"""Hexagonal grid index (H3-style axial cells over the lon/lat plane).

The cell-index family the engine already has — slippy tiles
(spatial/tiles), Z-order/Morton (spatial/curves), geohash, S2
(spatial/s2) — are all SQUARE decompositions.  Hex cells are the
H3-class alternative the north rule names: every neighbor shares a
full edge, all 6 neighbors are equidistant (no diagonal ambiguity),
which is why hex is the standard for kNN-ish spatial aggregation and
skew-aware partitioning keys.

This is a flat axial hex grid over the equirectangular lon/lat plane
(pointy-top, edge length ``size`` in degrees) — the same planar
treatment the engine's tile/Morton/geohash keys use, so hex keys
compose with the existing hash-exchange co-groups unchanged.  A true
sphere-partitioning H3 (icosahedron base cells, aperture-7 hierarchy)
differs only in the lonlat->cell map; the partitioning algebra
(assign -> hash-exchange on cell -> per-cell kernel, k-ring for
boundary spill) is identical and is what the engine exercises.

The fractional->integer cell snap is CUBE ROUNDING (round each of
q, r, s = -q-r to nearest int, then fix the axis with the largest
rounding error so q+r+s == 0 stays true).  Rounding is half-away
``floor(v + 0.5)`` — the one rounding rule a SQL twin can reproduce
verbatim (numpy's ``np.round`` half-to-even cannot be written as a
DuckDB expression without CASE gymnastics).

All kernels are vectorized numpy over Arrow batches; nothing here
loops rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# pointy-top axial basis (Red Blob Games' standard formulation —
# public-domain hex-grid math): x = size*(sqrt3*q + sqrt3/2*r),
# y = size*(3/2*r)
SQRT3 = float(np.sqrt(3.0))
K_Q = SQRT3 / 3.0   # dq/dx
K_Y = 1.0 / 3.0     # dq/dy is -K_Y; dr/dy is 2*K_Y


def hex_axial(lon: np.ndarray, lat: np.ndarray, size: float):
    """Vectorized lonlat -> axial (q, r) int64 cell ids.

    Fractional axial coordinates then cube rounding with half-away
    ``floor(v+0.5)`` — bit-reproducible against the SQL twin built by
    ``hex_axial_sql``.
    """
    x = np.asarray(lon, np.float64)
    y = np.asarray(lat, np.float64)
    qf = (K_Q * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    sf = -qf - rf
    q1 = np.floor(qf + 0.5)
    r1 = np.floor(rf + 0.5)
    s1 = np.floor(sf + 0.5)
    dq = np.abs(q1 - qf)
    dr = np.abs(r1 - rf)
    ds_ = np.abs(s1 - sf)
    fix_q = (dq > dr) & (dq > ds_)
    fix_r = ~fix_q & (dr > ds_)
    q = np.where(fix_q, -r1 - s1, q1)
    r = np.where(fix_r, -q1 - s1, r1)
    return q.astype(np.int64), r.astype(np.int64)


def hex_axial_sql(lon_expr: str, lat_expr: str, size: float):
    """The exact-twin DuckDB expressions for ``hex_axial`` —
    (q_sql, r_sql) strings over ``lon_expr``/``lat_expr``.  Constants
    are embedded via ``repr`` (17 significant digits round-trips
    float64 exactly) and every arithmetic op appears in the same
    order as the numpy kernel, so the doubles are bit-identical."""
    qf = f"(({K_Q!r} * {lon_expr} - {lat_expr} / 3.0) / {size!r})"
    rf = f"((2.0 / 3.0 * {lat_expr}) / {size!r})"
    sf = f"(-{qf} - {rf})"
    q1, r1, s1 = (f"floor({v} + 0.5)" for v in (qf, rf, sf))
    dq, dr, ds_ = (f"abs({a} - {b})" for a, b in
                   ((q1, qf), (r1, rf), (s1, sf)))
    fix_q = f"({dq} > {dr} AND {dq} > {ds_})"
    q = f"CAST(CASE WHEN {fix_q} THEN -{r1} - {s1} ELSE {q1} END AS BIGINT)"
    r = (f"CAST(CASE WHEN NOT {fix_q} AND {dr} > {ds_} "
         f"THEN -{q1} - {s1} ELSE {r1} END AS BIGINT)")
    return q, r


def hex_center(q: np.ndarray, r: np.ndarray, size: float):
    """Axial cell -> center lonlat (inverse of the fractional map)."""
    q = np.asarray(q, np.float64)
    r = np.asarray(r, np.float64)
    x = size * (SQRT3 * q + SQRT3 / 2.0 * r)
    y = size * (1.5 * r)
    return x, y


def hex_distance(q1, r1, q2, r2) -> np.ndarray:
    """Hex grid distance (number of cell steps) between axial cells."""
    dq = np.asarray(q1, np.int64) - np.asarray(q2, np.int64)
    dr = np.asarray(r1, np.int64) - np.asarray(r2, np.int64)
    return (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2


def hex_k_ring(k: int):
    """All axial offsets within hex distance ``k`` of a cell —
    1 + 3k(k+1) offsets.  The boundary-spill set for hex co-group
    joins (the hex twin of tiles.k_ring)."""
    qs, rs = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1),
                         indexing="ij")
    qs, rs = qs.ravel(), rs.ravel()
    keep = hex_distance(qs, rs, 0, 0) <= k
    return qs[keep].astype(np.int64), rs[keep].astype(np.int64)


def _pack_cells(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Collision-free int64 packing of axial cells (|q|,|r| < 2^31)."""
    return q * np.int64(1) << np.int64(32) | (r & np.int64(0xFFFFFFFF))


def hex_within_k_count(left, right, *, id_col: str, size: float,
                       k: int = 1, lon_col: str = "lon",
                       lat_col: str = "lat", nbuckets: int = 32,
                       out_col: str = "n_neighbors"):
    """Count, per left row, the right rows whose hex cell lies within
    hex distance ``k`` of the left row's cell — the hex co-group join
    (kNN-style gather with k-ring boundary spill, north_rule's
    "groupby-on-cell plus boundary-ring shuffle").

    Exactly-once by construction: each left row fans out to its
    1+3k(k+1) ring cells, each right row is stamped with its OWN cell,
    and a qualifying pair meets only in the right row's cell — no
    post-filter, no dedup shuffle.  Left rows with zero qualifying
    right rows are absent (inner semantics, matches the SQL twin's
    plain JOIN).

    Returns per-bucket PARTIAL (id, out_col) rows: a left row's ring
    cells hash to different buckets, so the caller sums per id
    (``_final_combine`` shape).  The wire carries 1+3k(k+1) skinny
    (id, q, r) rows per left row and one (q, r) row per right row —
    never geometry.
    """
    from ..functions.exchange import hash_cogroup

    oq, orr = hex_k_ring(k)
    nring = len(oq)

    def fan(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        q, r = hex_axial(batch[lon_col].to_numpy(zero_copy_only=False),
                         batch[lat_col].to_numpy(zero_copy_only=False),
                         size)
        return pa.table({
            id_col: pa.array(np.repeat(ids, nring)),
            "q": pa.array((q[:, None] + oq[None, :]).ravel()),
            "r": pa.array((r[:, None] + orr[None, :]).ravel()),
        })

    def stamp(batch: pa.Table) -> pa.Table:
        q, r = hex_axial(batch[lon_col].to_numpy(zero_copy_only=False),
                         batch[lat_col].to_numpy(zero_copy_only=False),
                         size)
        return pa.table({"q": pa.array(q), "r": pa.array(r)})

    lf = left.map_batches(fan, batch_format="pyarrow",
                          zero_copy_batch=True)
    rf = right.map_batches(stamp, batch_format="pyarrow",
                           zero_copy_batch=True)

    def reduce(lt: pa.Table, rt: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          out_col: pa.array([], pa.int64())})
        if lt.num_columns == 0 or rt.num_columns == 0 \
                or lt.num_rows == 0 or rt.num_rows == 0:
            return empty
        lc = _pack_cells(lt["q"].to_numpy(zero_copy_only=False),
                         lt["r"].to_numpy(zero_copy_only=False))
        rc = _pack_cells(rt["q"].to_numpy(zero_copy_only=False),
                         rt["r"].to_numpy(zero_copy_only=False))
        cells, counts = np.unique(rc, return_counts=True)
        pos = np.searchsorted(cells, lc)
        pos_c = np.minimum(pos, len(cells) - 1)
        hit = cells[pos_c] == lc
        if not hit.any():
            return empty
        ids = lt[id_col].to_numpy(zero_copy_only=False)[hit]
        n = counts[pos_c[hit]].astype(np.int64)
        uids, inv = np.unique(ids, return_inverse=True)
        return pa.table({
            id_col: pa.array(uids.astype(np.int64)),
            out_col: pa.array(np.bincount(inv, weights=n).astype(np.int64)),
        })

    return hash_cogroup(lf, rf, nbuckets=nbuckets, reduce_fn=reduce,
                        left_on=["q", "r"], right_on=["q", "r"])
