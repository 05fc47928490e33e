"""Canonical Arrow feature schema for the geobuf codec.

One GeoJSON feature = one Arrow row (SURVEY.md §1.4).  Geometry is held
in a flat, vectorization-friendly layout instead of nested Python
objects:

- ``id``         int64, nullable — numeric feature id (string ids are
                 dropped, matching ``write_feature.go:195-209``).
- ``geom_type``  int8: 1=Point 2=LineString 3=Polygon 4=MultiPoint
                 5=MultiLineString 6=MultiPolygon (README.md:48-56).
- ``dim``        int8 coordinate dimension (2..4), geomcode-packed on
                 the wire as in ``geom.go:59-76``.
- ``coords``     list<float64> — interleaved vertex values
                 [x0,y0,(z0,m0),x1,...] across all rings of the feature.
- ``ring_sizes`` list<int32> — vertex count per ring, in ring order.
- ``poly_sizes`` list<int32> — rings per polygon (MultiPolygon); for
                 other types a single entry = total ring count.

Every other column is a feature property; supported Arrow types map to
the protobuf ``Value`` oneof (README.md:36-45): string→field 1,
float32→2, float64→3, int→4, uint→5, bool→7.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

GEOM_COLUMNS = ("geom_type", "dim", "coords", "ring_sizes", "poly_sizes")
RESERVED_COLUMNS = ("id",) + GEOM_COLUMNS + ("geobuf", "bbox")

POINT = 1
LINESTRING = 2
POLYGON = 3
MULTIPOINT = 4
MULTILINESTRING = 5
MULTIPOLYGON = 6

GEOM_TYPE_NAMES = {
    POINT: "Point",
    LINESTRING: "LineString",
    POLYGON: "Polygon",
    MULTIPOINT: "MultiPoint",
    MULTILINESTRING: "MultiLineString",
    MULTIPOLYGON: "MultiPolygon",
}
GEOM_TYPE_CODES = {v: k for k, v in GEOM_TYPE_NAMES.items()}


def property_columns(table: pa.Table) -> list[str]:
    """Columns of ``table`` that are feature properties."""
    return [c for c in table.column_names if c not in RESERVED_COLUMNS]


def list_column_parts(col: pa.ChunkedArray | pa.Array, dtype=None):
    """Zero-copy (flat_values, offsets) of a list column as numpy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.LargeListArray):
        offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = col.values.to_numpy(zero_copy_only=False)
    # re-base a sliced list array: downstream consumers derive value
    # positions by cumsum from 0 and assume the values buffer exactly
    # covers the rows (offsets[0] > 0 would silently mis-index coords —
    # advisory find; every Table-column caller is normalized by
    # combine_chunks, this guards bare sliced-Array misuse)
    if len(offsets) and (offsets[0] != 0 or offsets[-1] != len(values)):
        values = values[offsets[0]: offsets[-1]]
        offsets = offsets - offsets[0]
    if dtype is not None:
        values = values.astype(dtype, copy=False)
    return values, offsets


def nested_from_flat(
    geom_type: int, dim: int, coords, ring_sizes, poly_sizes
):
    """Nested GeoJSON coordinates of one flat-layout geometry
    (test/driver helper)."""
    pts = np.asarray(coords, dtype=np.float64).reshape(-1, dim)
    rings = []
    i = 0
    for rs in ring_sizes:
        rings.append(pts[i : i + rs].tolist())
        i += rs
    if geom_type == POINT:
        return rings[0][0]
    if geom_type in (LINESTRING, MULTIPOINT):
        return rings[0]
    if geom_type in (POLYGON, MULTILINESTRING):
        return rings
    if geom_type == MULTIPOLYGON:
        out, j = [], 0
        for ps in poly_sizes:
            out.append(rings[j : j + ps])
            j += ps
        return out
    raise ValueError(f"unsupported geom_type {geom_type}")
