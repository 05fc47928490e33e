"""GeoJSON <-> canonical Arrow feature table bridge.

Replaces the reference's streaming brace-splitting GeoJSON converter
(``convert_geojson.go:25-139``) with: driver/test-side helpers here, and
a Ray source for GeoJSON files in
:class:`geobuf_ray.io.geojson_io.GeojsonDatasource`.

Property-number semantics: go.geojson parses every JSON number to
float64, so integer-looking JSON properties round-trip as protobuf
doubles (verified against ``test_data/county.geobuf``, SURVEY.md §1.2).
``features_to_table`` mirrors that with ``json_numbers_as_double=True``.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

import numpy as np
import pyarrow as pa

from ..codec.schema import (
    GEOM_TYPE_NAMES,
    geometry_from_nested,
    nested_from_flat,
    property_columns,
)


def features_to_table(
    features: Iterable[dict],
    json_numbers_as_double: bool = True,
) -> pa.Table:
    """Build the canonical flat Arrow feature table from GeoJSON dicts.

    Features without geometry are dropped (``AddFeatures`` skips them,
    convert_geojson.go:120-127).  Non-numeric ids are dropped
    (write_feature.go:195-209).  Non-scalar property values are dropped
    (the reference corrupts them, write_primitives.go:274-282 — we
    choose to drop cleanly and document the deviation).
    """
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
        fid = f.get("id")
        if isinstance(fid, bool) or not isinstance(fid, (int, float)):
            fid = None
        ids.append(int(fid) if fid is not None else None)
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
                props[k] = float(v) if json_numbers_as_double else v
            elif isinstance(v, str):
                props[k] = v
            # other types dropped
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
        # one Arrow type per key per batch: resolve mixed-typed keys by
        # majority (bool < float < str priority on ties), nulling the
        # rest — the decoder applies the same majority-tag rule
        # (decode.py _decode_properties), so round-trips agree
        kinds = [type(v) for v in vals if v is not None]
        if len(set(kinds)) > 1:
            counts = {t: kinds.count(t) for t in (bool, float, str)}
            win = max((bool, float, str), key=lambda t: (counts.get(t, 0),
                                                         (bool, float, str).index(t)))
            vals = [v if isinstance(v, win) and not (
                win is float and isinstance(v, bool)) else None for v in vals]
        cols[k] = pa.array(vals)
    return pa.table(cols)


def table_to_features(table: pa.Table) -> list[dict]:
    """Canonical flat table -> list of GeoJSON feature dicts."""
    pc = property_columns(table)
    d = table.to_pydict()
    n = table.num_rows
    out = []
    for i in range(n):
        gtype = d["geom_type"][i]
        geom = None
        if d["coords"][i]:
            geom = {
                "type": GEOM_TYPE_NAMES[gtype],
                "coordinates": nested_from_flat(
                    gtype,
                    d["dim"][i],
                    d["coords"][i],
                    d["ring_sizes"][i],
                    d["poly_sizes"][i],
                ),
            }
        feat = {
            "type": "Feature",
            "geometry": geom,
            "properties": {
                k: d[k][i] for k in pc if d[k][i] is not None
            },
        }
        if d.get("id") and d["id"][i] is not None:
            feat["id"] = d["id"][i]
        out.append(feat)
    return out


def load_feature_collection(path: str) -> list[dict]:
    with open(path) as f:
        fc = json.load(f)
    return fc["features"] if isinstance(fc, dict) and "features" in fc else [fc]


def load_line_delimited(path: str) -> list[dict]:
    feats = []
    with open(path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if line.startswith("{"):
                feats.append(json.loads(line))
    return feats
