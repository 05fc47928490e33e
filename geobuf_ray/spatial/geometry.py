"""Vectorized geometry kernels: bbox, point-in-polygon, haversine.

The reference's only geometric predicates are 1-D interval overlap
(``Intersect`` / ``Overlapping_1D``, splitcombine/split_combine.go:
314-331) and the bbox aggregates (geobuf_raw/bb.go).  The PIP and
distance kernels are new (north_rule: ray-casting point-in-polygon with
cell-prefix pruning, kNN).  All kernels are numpy over flat coordinate
buffers — no per-row Python in the hot path.
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_M = 6371008.8


def feature_bbox(coords: np.ndarray, feat_offsets: np.ndarray, dim: np.ndarray):
    """Per-feature (west, south, east, north) from interleaved coords.

    ``coords`` is the flat interleaved value buffer; ``feat_offsets``
    (len n+1) bounds each feature's values; ``dim`` is per-feature.
    Mirrors ``Get_BoundingBox`` (bb.go:137-154).
    """
    n = len(feat_offsets) - 1
    counts = np.diff(feat_offsets)
    out = np.full((n, 4), np.nan)
    nz = counts > 0
    if not nz.any():
        return out
    # x values: positions where (idx - feat_start) % dim == 0
    feat_idx = np.repeat(np.arange(n), counts)
    local = np.arange(len(coords)) - np.repeat(feat_offsets[:-1], counts)
    d = np.repeat(np.maximum(dim, 1), counts)
    is_x = (local % d) == 0
    is_y = (local % d) == 1
    xs = coords[is_x]
    ys = coords[is_y]
    fx = feat_idx[is_x]
    fy = feat_idx[is_y]
    # reduceat over per-feature segments of xs/ys
    x_starts = np.searchsorted(fx, np.arange(n))
    y_starts = np.searchsorted(fy, np.arange(n))
    nz_x = np.flatnonzero(np.diff(np.append(x_starts, len(fx))) > 0)
    out[nz_x, 0] = np.minimum.reduceat(xs, x_starts[nz_x])
    out[nz_x, 2] = np.maximum.reduceat(xs, x_starts[nz_x])
    nz_y = np.flatnonzero(np.diff(np.append(y_starts, len(fy))) > 0)
    out[nz_y, 1] = np.minimum.reduceat(ys, y_starts[nz_y])
    out[nz_y, 3] = np.maximum.reduceat(ys, y_starts[nz_y])
    return out


def point_in_rings(
    px: np.ndarray,
    py: np.ndarray,
    ring_x: np.ndarray,
    ring_y: np.ndarray,
    ring_offsets: np.ndarray,
) -> np.ndarray:
    """Ray-casting PIP of each point against ONE polygon's rings.

    ``ring_offsets`` (len r+1) bounds each ring in the flat vertex
    arrays.  Even-odd rule: holes flip containment.  Boundary
    convention: points exactly on a right-edge may count either side
    (standard crossing-number half-open rule: an edge spans
    [min(y), max(y)) in y).

    Vectorized points x edges: O(P*E) bools — use only after cell/bbox
    pruning has cut E and P down.
    """
    inside = np.zeros(len(px), dtype=bool)
    for r in range(len(ring_offsets) - 1):
        s, e = ring_offsets[r], ring_offsets[r + 1]
        if e - s < 3:
            continue
        x1 = ring_x[s:e]
        y1 = ring_y[s:e]
        x2 = np.roll(x1, -1)
        y2 = np.roll(y1, -1)
        # crossing test per point against all edges of this ring
        yy = py[:, None]
        cond = (y1[None, :] > yy) != (y2[None, :] > yy)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1[None, :] + (yy - y1[None, :]) / (y2[None, :] - y1[None, :]) * (
                x2[None, :] - x1[None, :]
            )
        cross = cond & (px[:, None] < xint)
        inside ^= cross.sum(axis=1).astype(np.int64) % 2 == 1
    return inside


def haversine_m(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Great-circle distance in meters, broadcasting numpy arrays."""
    lon1, lat1, lon2, lat2 = (np.radians(np.asarray(a, np.float64)) for a in (lon1, lat1, lon2, lat2))
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
