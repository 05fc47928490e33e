"""A small deterministic feature corpus the test suite owns.

It stands in for the reference county corpus wherever a test needs a
real multi-feature stream but not byte parity with the Go encoder:

- every geometry type, in 2-D and 3-D, spread over the globe;
- every property kind the wire format writes (string, float, double,
  int64, uint64 and bool), with null values;
- polygons whose last ring is empty.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

KINDS = ("Point", "LineString", "Polygon", "MultiPoint",
         "MultiLineString", "MultiPolygon")


def _ring(rng, cx: float, cy: float, r: float, n: int, dim: int) -> list:
    """A closed ring of ``n`` distinct points around (cx, cy)."""
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    pts = []
    for a in angles:
        pt = [round(cx + r * np.cos(a), 7), round(cy + r * np.sin(a), 7)]
        if dim == 3:
            pt.append(round(float(rng.uniform(0.0, 500.0)), 3))
        pts.append(pt)
    return pts + [pts[0]]


def _coordinates(rng, kind: str, dim: int, empty_ring: bool) -> list:
    cx = float(rng.uniform(-170.0, 170.0))
    cy = float(rng.uniform(-75.0, 75.0))
    if kind == "Point":
        return _ring(rng, cx, cy, 0.0, 1, dim)[0]
    if kind in ("LineString", "MultiPoint"):
        return _ring(rng, cx, cy, 0.5, 4, dim)[:-1]
    if kind == "Polygon":
        rings = [_ring(rng, cx, cy, 1.0, 6, dim),
                 _ring(rng, cx, cy, 0.3, 4, dim)]
        return rings + [[]] if empty_ring else rings
    if kind == "MultiLineString":
        return [_ring(rng, cx, cy, 0.5, 3, dim)[:-1],
                _ring(rng, cx + 1.0, cy, 0.5, 4, dim)[:-1]]
    return [[_ring(rng, cx, cy, 1.0, 5, dim)],
            [_ring(rng, cx + 3.0, cy, 1.0, 4, dim),
             _ring(rng, cx + 3.0, cy, 0.2, 3, dim)]]


def features(n: int = 240, seed: int = 7) -> list[dict]:
    """``n`` GeoJSON features cycling through every geometry type.

    Every fifth feature is 3-D and every twelfth is a Polygon with an
    empty last ring.  Properties carry the JSON kinds: string, number
    and bool."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        kind = KINDS[i % len(KINDS)]
        coords = _coordinates(rng, kind, 3 if i % 5 == 4 else 2,
                              i % 12 == 2)
        out.append({
            "type": "Feature",
            "id": i,
            "geometry": {"type": kind, "coordinates": coords},
            "properties": {
                "name": f"feature-{i:04d}",
                "count": int(rng.integers(0, 10**6)),
                "score": round(float(rng.normal(0.0, 100.0)), 6),
                "flag": i % 3 == 0,
            },
        })
    return out


def stream() -> bytes:
    """The corpus encoded by the engine as one framed geobuf stream,
    with every wire property kind: the JSON-derived string / double /
    bool columns plus int64 (negative), uint64 (past 2^63), float32 and
    a mostly-null string."""
    from geobuf_ray.codec import feature as fc
    from geobuf_ray.io import geojson as gj

    t = gj.features_to_table(features())
    n = t.num_rows
    i = np.arange(n)
    t = (t.append_column("neg", pa.array(-i * 1_000_003, pa.int64()))
         .append_column("big", pa.array(i.astype(np.uint64)
                                        + np.uint64(2**63), pa.uint64()))
         .append_column("f32", pa.array(np.linspace(-1.0, 1.0, n),
                                        pa.float32()))
         .append_column("maybe", pa.array(
             [None if k % 4 else f"s{k}" for k in range(n)], pa.string())))
    return fc.frame_records(fc.encode_batch(t))


def write_geojson(path: str) -> int:
    """Write :func:`features` as one FeatureCollection; returns the
    feature count."""
    feats = features()
    with open(path, "w") as f:
        json.dump({"type": "FeatureCollection", "features": feats}, f)
    return len(feats)
