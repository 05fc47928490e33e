"""Per-feature reference for the GeoJSON table builder.

``geobuf_ray.io.geojson.features_to_table`` builds its tables column by
column.  This module keeps the straightforward per-feature form of the
same rules, so tests can check the column-wise builder against it with
``Table.equals`` and build single geometries by hand:

- :func:`geometry_from_nested` flattens one GeoJSON geometry;
- :func:`features_to_table` loops over features and calls it.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import pyarrow as pa

from geobuf_ray.codec.schema import (
    GEOM_TYPE_CODES,
    LINESTRING,
    MULTILINESTRING,
    MULTIPOINT,
    MULTIPOLYGON,
    POINT,
    POLYGON,
)


def geometry_from_nested(
    geom_type: str, coordinates, dim: int | None = None
) -> dict:
    """Convert GeoJSON-style nested coordinate lists to the flat layout.

    Returns a dict with keys geom_type/dim/coords/ring_sizes/poly_sizes.
    ``dim`` defaults to the first position's length; longer positions
    are truncated to it.  An unknown type, coordinates nested to the
    wrong depth, or a position with fewer than 2 values or fewer than
    ``dim``, raises ``ValueError``.
    """
    code = GEOM_TYPE_CODES.get(geom_type)
    try:
        if code == POINT:
            rings = [[coordinates]]
            polys = [1]
        elif code in (LINESTRING, MULTIPOINT):
            rings = [coordinates]
            polys = [1]
        elif code in (POLYGON, MULTILINESTRING):
            rings = list(coordinates)
            polys = [len(rings)]
        elif code == MULTIPOLYGON:
            rings = [r for poly in coordinates for r in poly]
            polys = [len(poly) for poly in coordinates]
        else:
            raise ValueError(f"unsupported geometry type {geom_type!r}")
        if dim is None:
            dim = len(rings[0][0]) if rings and rings[0] else 2
        pts = [pt for ring in rings for pt in ring]
        lens = list(map(len, pts))
    except TypeError as e:  # a number where a list belongs
        raise ValueError(f"{geom_type} coordinates nest wrongly: {e}") from e
    need = max(dim, 2)
    if pts and min(lens) < need:
        raise ValueError(f"{geom_type} has a position with fewer than "
                         f"{need} values")
    flat = [v for pt in pts for v in pt[:dim]]
    return {
        "geom_type": code,
        "dim": dim,
        "coords": flat,
        "ring_sizes": [len(r) for r in rings],
        "poly_sizes": polys,
    }


def _id(fid):
    """A numeric id that fits int64, truncated toward zero; else None."""
    if isinstance(fid, bool) or not isinstance(fid, (int, float)):
        return None
    if isinstance(fid, float) and not math.isfinite(fid):
        return None
    fid = int(fid)
    return fid if -(1 << 63) <= fid < (1 << 63) else None


def features_to_table(features: Iterable[dict]) -> pa.Table:
    """The canonical feature table, built one feature at a time."""
    ids: list[int | None] = []
    gt: list[int] = []
    dims: list[int] = []
    coords: list[list[float]] = []
    ring_sizes: list[list[int]] = []
    poly_sizes: list[list[int]] = []
    prop_rows: list[dict] = []
    for f in features:
        geom = f.get("geometry")
        if not geom or geom.get("coordinates") in (None, []):
            continue
        g = geometry_from_nested(geom["type"], geom["coordinates"])
        ids.append(_id(f.get("id")))
        gt.append(g["geom_type"])
        dims.append(g["dim"])
        coords.append(g["coords"])
        ring_sizes.append(g["ring_sizes"])
        poly_sizes.append(g["poly_sizes"])
        props = {}
        for k, v in (f.get("properties") or {}).items():
            if isinstance(v, bool):
                props[k] = v
            elif isinstance(v, (int, float)):
                props[k] = float(v)
            elif isinstance(v, str):
                props[k] = v
        prop_rows.append(props)

    cols: dict[str, Any] = {
        "id": pa.array(ids, type=pa.int64()),
        "geom_type": pa.array(gt, type=pa.int8()),
        "dim": pa.array(dims, type=pa.int8()),
        "coords": pa.array(coords, type=pa.list_(pa.float64())),
        "ring_sizes": pa.array(ring_sizes, type=pa.list_(pa.int32())),
        "poly_sizes": pa.array(poly_sizes, type=pa.list_(pa.int32())),
    }
    keys: list[str] = []
    for r in prop_rows:
        for k in r:
            if k not in keys:
                keys.append(k)
    for k in keys:
        vals = [r.get(k) for r in prop_rows]
        kinds = [type(v) for v in vals if v is not None]
        if len(set(kinds)) > 1:
            counts = {t: kinds.count(t) for t in (bool, float, str)}
            win = max((bool, float, str), key=lambda t: (counts.get(t, 0),
                                                         (bool, float, str).index(t)))
            vals = [v if isinstance(v, win) and not (
                win is float and isinstance(v, bool)) else None for v in vals]
        cols[k] = pa.array(vals)
    return pa.table(cols)
