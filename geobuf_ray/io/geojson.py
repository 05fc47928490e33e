"""GeoJSON <-> canonical Arrow feature table bridge.

Replaces the reference's streaming brace-splitting GeoJSON converter
(``convert_geojson.go:25-139``) with: driver/test-side helpers here, and
a Ray source for GeoJSON files in
:class:`geobuf_ray.io.geojson_io.GeojsonDatasource`.

``features_to_table`` builds the table column by column.  One Python
loop sorts the features by geometry type; each type's nested
coordinates then convert to Arrow in one ``pa.array`` call, and ring,
polygon and coordinate counts come from the list offsets with NumPy.
Ids and properties convert one column each; a per-value path runs only
where Arrow cannot apply the rule exactly (an integer past 2^53, mixed
types in one key).

Property-number semantics: go.geojson parses every JSON number to
float64, so integer-looking JSON properties round-trip as protobuf
doubles (verified against ``test_data/county.geobuf``, SURVEY.md §1.2).
``features_to_table`` does the same.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Any, Iterable

import numpy as np
import pyarrow as pa

from ..codec.schema import (
    GEOM_TYPE_CODES,
    GEOM_TYPE_NAMES,
    LINESTRING,
    MULTILINESTRING,
    MULTIPOINT,
    MULTIPOLYGON,
    POINT,
    POLYGON,
    nested_from_flat,
    property_columns,
)
from ..codec.varint import ramp

# nesting depth of each type's coordinates (a position is depth 1)
_DEPTH = {POINT: 1, LINESTRING: 2, MULTIPOINT: 2, POLYGON: 3,
          MULTILINESTRING: 3, MULTIPOLYGON: 4}


def _nested(depth: int) -> pa.DataType:
    t = pa.float64()
    for _ in range(depth):
        t = pa.list_(t)
    return t


_NESTED = {code: _nested(d) for code, d in _DEPTH.items()}
_I32_LIST = pa.list_(pa.int32())
_GEOM_COLUMNS = {"geom_type": pa.int8(), "dim": pa.int8(),
                 "coords": pa.list_(pa.float64()), "ring_sizes": _I32_LIST,
                 "poly_sizes": _I32_LIST}
# what Arrow's conversion can do alone, by the set of a key's value
# types: numbers become float64, bools and strings stay
_EXACT = {frozenset({float}): pa.float64(), frozenset({int}): pa.float64(),
          frozenset({int, float}): pa.float64(),
          frozenset({bool}): pa.bool_(), frozenset({str}): pa.string()}
_CONVERT_ERRORS = (pa.ArrowException, TypeError, ValueError, OverflowError)
_INT64 = (-(1 << 63), 1 << 63)


def features_to_table(features: Iterable[dict]) -> pa.Table:
    """Build the canonical flat Arrow feature table from GeoJSON dicts.

    Features without geometry are dropped (``AddFeatures`` skips them,
    convert_geojson.go:120-127).  An id is kept when it is a number
    that fits int64 (a float truncates toward zero); any other id
    (a string, a bool, NaN, an infinity, a number past int64) becomes
    null, as non-numeric ids are dropped (write_feature.go:195-209).
    Property numbers become float64, bools and strings stay, and other
    values are dropped (the reference corrupts them,
    write_primitives.go:274-282 — we choose to drop cleanly and
    document the deviation).  A key with mixed types keeps its majority
    type (ties: bool < float < str) and nulls the rest; keys keep the
    order they are first seen with a kept value in.

    A geometry's ``dim`` is the length of its first ring's first
    position (2 if that ring is empty); longer positions are cut to it.
    A feature, geometry or properties that is not an object, an unknown
    geometry type, a shorter position, a null position or ring, or
    coordinates that do not convert to float64 at the type's depth
    raise ``ValueError`` naming the feature's index.
    """
    groups: dict[int, tuple[list, list]] = {c: ([], []) for c in _DEPTH}
    ids: list = []
    props: list = []
    for i, f in enumerate(features):
        if not isinstance(f, dict):
            raise ValueError(f"feature {i}: a {type(f).__name__}, not an "
                             "object")
        geom = f.get("geometry")
        if not geom:
            continue
        if not isinstance(geom, dict):
            raise ValueError(f"feature {i}: geometry is a "
                             f"{type(geom).__name__}, not an object")
        coords = geom.get("coordinates")
        if coords is None or coords == []:
            continue
        kind = geom.get("type")
        code = GEOM_TYPE_CODES.get(kind) if isinstance(kind, str) else None
        if code is None:
            raise ValueError(f"feature {i}: unsupported geometry type "
                             f"{kind!r}")
        at, cs = groups[code]
        at.append(i)
        cs.append(coords)
        ids.append(f.get("id"))
        p = f.get("properties") or {}
        if not isinstance(p, dict):
            raise ValueError(f"feature {i}: properties is a "
                             f"{type(p).__name__}, not an object")
        props.append(p)

    parts = [_geometry_columns(code, cs, at)
             for code, (at, cs) in groups.items() if at]
    if not parts:
        geometry = pa.table({k: pa.array([], t)
                             for k, t in _GEOM_COLUMNS.items()})
    elif len(parts) == 1:
        geometry = parts[0][1]
    else:
        # one take puts the per-type pieces back in input order
        order = np.argsort(np.concatenate([at for at, _ in parts]),
                           kind="stable")
        geometry = pa.concat_tables([t for _, t in parts]).take(order)
    cols: dict[str, Any] = {"id": _id_column(ids)}
    for k in _GEOM_COLUMNS:
        cols[k] = geometry[k].combine_chunks()
    for k, arr in _property_columns(props):
        cols[k] = arr
    return pa.table(cols)


def _geometry_columns(code: int, coords: list, at: list):
    """``(input indices, geometry table)`` of one geometry type's
    features, in input order."""
    name = GEOM_TYPE_NAMES[code]
    try:
        arr = pa.array(coords, type=_NESTED[code])
    except _CONVERT_ERRORS as err:
        raise _conversion_error(code, coords, at, err) from err
    n = len(coords)
    # offsets from the feature level down to the positions
    levels = []
    a = arr
    for depth in range(_DEPTH[code]):
        if a.null_count and depth:
            j = int(np.flatnonzero(a.is_null().to_numpy(
                zero_copy_only=False))[0])
            for off in reversed(levels):
                j = int(np.searchsorted(off, j, "right")) - 1
            raise ValueError(f"feature {at[j]}: {name} has a null "
                             "position, ring or polygon")
        levels.append(a.offsets.to_numpy())
        a = a.values
    values = a
    one = np.arange(n + 1, dtype=np.int32)
    pos_off = levels[-1]
    ring_pos = levels[-2] if len(levels) >= 2 else one
    if code == MULTIPOLYGON:
        feat_poly, feat_ring = levels[0], levels[1][levels[0]]
        poly_sizes = np.diff(levels[1])
    else:
        feat_poly = one
        feat_ring = levels[0] if len(levels) == 3 else one
        poly_sizes = np.diff(feat_ring)
    pos_len = np.diff(pos_off)
    # dim: the first ring's first position, 2 if that ring is empty
    dim = np.full(n, 2, np.int64)
    has = np.flatnonzero(np.diff(feat_ring) > 0)
    first = ring_pos[feat_ring[has]]
    live = ring_pos[feat_ring[has] + 1] > first
    dim[has[live]] = pos_len[first[live]]
    npos = (ring_pos[feat_ring[1:]] - ring_pos[feat_ring[:-1]]).astype(np.int64)
    pos_dim = np.repeat(dim, npos)
    if len(pos_len) and (dim.min() < 2 or (pos_len != pos_dim).any()):
        need = np.maximum(pos_dim, 2)
        short = np.flatnonzero(pos_len < need)
        if len(short):
            f = int(np.searchsorted(np.cumsum(npos), short[0], "right"))
            raise ValueError(f"feature {at[f]}: {name} has a position with "
                             f"fewer than {need[short[0]]} values")
        # longer positions are cut to the feature's dim
        values = values.filter(pa.array(ramp(pos_len)
                                        < np.repeat(pos_dim, pos_len)))
    if n and dim.max() > 127:
        f = int(np.argmax(dim))
        raise ValueError(f"feature {at[f]}: {name} has {dim[f]} values "
                         "per position")
    coord_off = np.zeros(n + 1, np.int32)
    coord_off[1:] = np.cumsum(npos * dim)
    table = pa.table({
        "geom_type": pa.array(np.full(n, code, np.int8)),
        "dim": pa.array(dim.astype(np.int8)),
        "coords": pa.ListArray.from_arrays(coord_off, values),
        "ring_sizes": pa.ListArray.from_arrays(
            feat_ring, np.diff(ring_pos).astype(np.int32)),
        "poly_sizes": pa.ListArray.from_arrays(
            feat_poly, poly_sizes.astype(np.int32)),
    })
    return np.asarray(at, np.int64), table


def _conversion_error(code: int, coords: list, at: list, err: Exception):
    """A ``ValueError`` naming the first feature whose coordinates do
    not convert alone (the error path pays one conversion per feature)."""
    for i, c in zip(at, coords):
        try:
            pa.array([c], type=_NESTED[code])
        except _CONVERT_ERRORS as e:
            return ValueError(f"feature {i}: {GEOM_TYPE_NAMES[code]} "
                              f"coordinates do not convert: {e}")
    return err


def _int64_id(v):
    """A numeric id that fits int64, truncated toward zero; else None."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        v = int(v)
    except (ValueError, OverflowError):  # NaN, infinities
        return None
    return v if _INT64[0] <= v < _INT64[1] else None


def _id_column(ids: list) -> pa.Array:
    if set(map(type, ids)) <= {int, type(None)}:
        try:
            return pa.array(ids, pa.int64())
        except (OverflowError, pa.ArrowInvalid):
            pass
    return pa.array([_int64_id(v) for v in ids], pa.int64())


def _scalar(v):
    """A property value as the table keeps it: bools and strings as
    they are, numbers as float, anything else dropped (None)."""
    if isinstance(v, (bool, str)):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    return None


def _property_column(vals: list):
    """``(array, first row with a kept value)`` of one key, or
    ``(None, None)`` when no value is kept."""
    t = _EXACT.get(frozenset(set(map(type, vals)) - {type(None)}))
    if t is not None:
        try:
            arr = pa.array(vals, t)
        except (pa.ArrowInvalid, OverflowError):
            pass  # an integer past 2^53: float() rounds, Arrow refuses
        else:
            valid = arr.is_valid().to_numpy(zero_copy_only=False)
            return arr, int(np.argmax(valid))
    vals = [_scalar(v) for v in vals]
    kinds = [type(v) for v in vals if v is not None]
    if not kinds:
        return None, None
    first = next(i for i, v in enumerate(vals) if v is not None)
    if len(set(kinds)) > 1:
        # one Arrow type per key per batch: resolve mixed-typed keys by
        # majority (bool < float < str priority on ties), nulling the
        # rest — the decoder applies the same majority-tag rule
        # (decode.py _decode_properties), so round-trips agree
        rank = (bool, float, str)
        win = max(rank, key=lambda t: (kinds.count(t), rank.index(t)))
        vals = [v if isinstance(v, win) else None for v in vals]
    return pa.array(vals), first


def _property_columns(props: list) -> list[tuple[str, pa.Array]]:
    """Property columns, in the order keys are first seen with a kept
    value."""
    found = []
    for k in dict.fromkeys(chain.from_iterable(props)):
        arr, first = _property_column(list(map(dict.get, props, repeat(k))))
        if arr is not None:
            found.append((first, list(props[first]).index(k), k, arr))
    found.sort(key=lambda r: r[:2])
    return [(k, arr) for _, _, k, arr in found]


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
