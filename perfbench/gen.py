"""Seeded input generators for the benchmark.

Everything here is a pure function of its seed: the same seed writes
byte-identical files.  The engine only ever sees the files written here.
"""

from __future__ import annotations

import json
import os

import numpy as np

# geometry mix of the GeoJSON corpus (type, share)
GEOM_MIX = (
    ("Point", 0.34),
    ("LineString", 0.20),
    ("Polygon", 0.20),
    ("MultiPoint", 0.09),
    ("MultiLineString", 0.08),
    ("MultiPolygon", 0.09),
)
HOT_SHARE = 0.20  # share of features inside the one dense hot cluster
HOT_RADIUS_DEG = 0.05
HOT_TILE_ZOOM = 8
REGION_DEG = (100.0, 50.0)  # lon x lat extent of the rest of the corpus
MAX_LAT = 85.05112877980659  # Web-Mercator clamp, as the slippy tile math


def _tile_centre(lon: float, lat: float, zoom: int) -> tuple[float, float]:
    """Centre (lon, lat) of the slippy tile at ``zoom`` holding a point."""
    n = 1 << zoom
    x = np.floor((lon + 180.0) / 360.0 * n) + 0.5
    r = np.radians(lat)
    y = np.floor((1.0 - np.log(np.tan(r) + 1.0 / np.cos(r)) / np.pi)
                 / 2.0 * n) + 0.5
    lat_c = np.degrees(np.arctan(np.sinh(np.pi * (1.0 - 2.0 * y / n))))
    return float(x / n * 360.0 - 180.0), float(lat_c)


def _ring(rng, cx, cy, r, n):
    """Closed ring of ``n`` distinct vertices around (cx, cy)."""
    ang = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    rad = r * rng.uniform(0.5, 1.0, n)
    pts = [[round(cx + a * np.cos(t), 7), round(cy + a * np.sin(t), 7)]
           for a, t in zip(rad, ang)]
    return pts + [pts[0]]


def _path(rng, cx, cy, step, n):
    xy = np.cumsum(rng.normal(0.0, step, (n, 2)), axis=0)
    return [[round(cx + float(x), 7), round(cy + float(y), 7)] for x, y in xy]


def _geometry(rng, kind, cx, cy, scale):
    if kind == "Point":
        return [round(cx, 7), round(cy, 7)]
    if kind == "LineString":
        return _path(rng, cx, cy, scale, int(rng.integers(2, 12)))
    if kind == "Polygon":
        rings = [_ring(rng, cx, cy, scale * 4, int(rng.integers(4, 10)))]
        if rng.random() < 0.1:  # a hole
            rings.append(_ring(rng, cx, cy, scale, 4))
        return rings
    if kind == "MultiPoint":
        return _path(rng, cx, cy, scale * 2, int(rng.integers(2, 6)))
    if kind == "MultiLineString":
        return [_path(rng, cx, cy, scale, int(rng.integers(2, 8)))
                for _ in range(int(rng.integers(2, 4)))]
    # MultiPolygon: two or three small disjoint-ish parts
    return [[_ring(rng, cx + 8 * scale * i, cy, scale * 3,
                   int(rng.integers(4, 8)))]
            for i in range(int(rng.integers(2, 4)))]


def _flat(kind, coordinates):
    if kind == "Point":
        return [coordinates]
    if kind in ("LineString", "MultiPoint"):
        return coordinates
    if kind in ("Polygon", "MultiLineString"):
        return [p for ring in coordinates for p in ring]
    return [p for poly in coordinates for ring in poly for p in ring]


def geojson_corpus(prefix: str, n: int, seed: int, shards: int = 1) -> dict:
    """Write ``n`` line-delimited GeoJSON features to ``shards`` files
    ``<prefix>-<i>.ndjson`` (consecutive features per file).

    Mixed Point / LineString / Polygon / Multi* geometries with string,
    int, float and bool properties.  The features spread over one
    ``REGION_DEG`` box, and ``HOT_SHARE`` of them sit in one dense
    cluster inside it; the box's longitude and the cluster's position
    depend on the seed.  Returns what the checks need: the paths,
    per-feature flat coordinates (as the parsed doubles) keyed by id,
    and the total size in bytes.
    """
    rng = np.random.default_rng([seed, 1])
    kinds = [k for k, _ in GEOM_MIX]
    probs = np.array([p for _, p in GEOM_MIX])
    kind_of = rng.choice(len(kinds), n, p=probs / probs.sum())
    hot = rng.random(n) < HOT_SHARE
    rw, rh = REGION_DEG
    # only the longitude is seeded: Mercator tiles shrink with latitude,
    # so a seeded latitude would change the tile (and index key) count
    rx, ry = rng.uniform(-170 + rw / 2, 170 - rw / 2), 0.0
    # the hot cluster sits at the centre of a z8 tile (inside one z6
    # tile too), so for every seed it lands in a single tile key
    hx, hy = _tile_centre(rx + rng.uniform(-rw / 4, rw / 4),
                          ry + rng.uniform(-rh / 4, rh / 4), HOT_TILE_ZOOM)
    coords: dict[int, np.ndarray] = {}
    ids = rng.permutation(n * 4)[:n].astype(np.int64)  # sparse, unsorted
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    paths = [f"{prefix}-{i}.ndjson" for i in range(shards)]
    files = [open(p, "w") for p in paths]
    try:
        for i in range(n):
            kind = kinds[kind_of[i]]
            if hot[i]:
                cx = hx + rng.uniform(-HOT_RADIUS_DEG, HOT_RADIUS_DEG)
                cy = hy + rng.uniform(-HOT_RADIUS_DEG, HOT_RADIUS_DEG)
                scale = 0.001
            else:
                cx = rx + rng.uniform(-rw / 2, rw / 2)
                cy = ry + rng.uniform(-rh / 2, rh / 2)
                scale = 0.02
            geom = _geometry(rng, kind, cx, cy, scale)
            fid = int(ids[i])
            feat = {
                "type": "Feature",
                "id": fid,
                "geometry": {"type": kind, "coordinates": geom},
                "properties": {
                    "name": f"f{fid:07d}-{kinds[kind_of[i]][:3].lower()}",
                    "rank": int(rng.integers(0, 1_000_000)),
                    "score": round(float(rng.normal(0.0, 100.0)), 6),
                    "hot": bool(hot[i]),
                },
            }
            files[i * shards // n].write(
                json.dumps(feat, separators=(",", ":")) + "\n")
            coords[fid] = np.asarray(_flat(kind, geom), np.float64).ravel()
    finally:
        for f in files:
            f.close()
    return {"paths": paths, "n": n, "coords": coords,
            "bytes": sum(os.path.getsize(p) for p in paths)}


def expected_tile_rows(coords: dict[int, np.ndarray], zoom: int) -> int:
    """Number of (feature, covering tile) rows the bbox fan-out at
    ``zoom`` must produce, from the slippy-map formula."""
    n = 1 << zoom
    total = 0
    for flat in coords.values():
        xs, ys = flat[0::2], flat[1::2]
        w, e = xs.min(), xs.max()
        s, no = ys.min(), ys.max()

        def tx(lon):
            return min(max(int(np.floor((lon + 180.0) / 360.0 * n)), 0), n - 1)

        def ty(lat):
            lat = np.radians(min(max(lat, -MAX_LAT), MAX_LAT))
            y = np.floor((1.0 - np.log(np.tan(lat) + 1.0 / np.cos(lat))
                          / np.pi) / 2.0 * n)
            return min(max(int(y), 0), n - 1)

        total += (tx(e) - tx(w) + 1) * (ty(s) - ty(no) + 1)
    return total


def tile_keys(lon: np.ndarray, lat: np.ndarray, zoom: int) -> np.ndarray:
    """``"x-y-z"`` slippy tile key of each point."""
    n = 1 << zoom
    x = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0, n - 1).astype(int)
    r = np.radians(np.clip(lat, -MAX_LAT, MAX_LAT))
    y = np.floor((1.0 - np.log(np.tan(r) + 1.0 / np.cos(r)) / np.pi)
                 / 2.0 * n)
    y = np.clip(y, 0, n - 1).astype(int)
    return np.array([f"{a}-{b}-{zoom}" for a, b in zip(x, y)])


def zipf_keys(sizes: dict[str, int], passes: int, per_pass: int, seed: int,
              a: float = 1.2) -> list[str]:
    """``passes`` x ``per_pass`` keys drawn from a Zipf(``a``) law over
    the keys of ``sizes``, ranked by size (rank 1 = the largest key, as
    dense map tiles are the most read), ties in a seeded order.

    Each pass is a stratified sample: ``per_pass`` evenly spaced points
    of the Zipf CDF from a seeded offset, in seeded order.  So every pass
    reads each popular key the same number of times (within one) and
    differs from the next only in which rarely read keys it picks: the
    work of a pass, and the share of reads that hit the hot-cluster
    key, do not depend on the seed.
    """
    rng = np.random.default_rng([seed, 2])
    keys = sorted(sizes)
    tie = rng.permutation(len(keys))
    order = sorted(range(len(keys)), key=lambda i: (-sizes[keys[i]], tie[i]))
    p = np.arange(1, len(keys) + 1, dtype=np.float64) ** -a
    cdf = np.cumsum(p / p.sum())
    out = []
    for _ in range(passes):
        u = (np.arange(per_pass) + rng.random()) / per_pass
        ranks = np.minimum(np.searchsorted(cdf, u, side="right"), len(keys) - 1)
        out.extend(keys[order[r]] for r in rng.permutation(ranks))
    return out


# ---------------------------------------------------------------------------
# TPC-H-like tables for the spatial query mix
# ---------------------------------------------------------------------------

SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")


def tpch_tables(out_dir: str, seed: int, *, customers: int = 1500,
                suppliers: int = 100, orders: int = 15000,
                lineitems: int = 60000, parts: int = 2000) -> dict:
    """Write region / nation / customer / supplier / part / orders /
    lineitem parquet files with the schemas the query mix reads.

    Customer and supplier keys are mostly seeded samples of a ten times
    wider key range: the engine derives point locations from the keys,
    so each seed moves the points while the row counts stay fixed.
    """
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng([seed, 3])
    os.makedirs(out_dir, exist_ok=True)

    def money(lo, hi, k):
        return np.round(rng.uniform(lo, hi, k), 2)

    def days(k, start=dt.datetime(1995, 1, 1), span=2400):
        d = rng.integers(0, span, k).astype("timedelta64[D]")
        return pa.array(np.datetime64(start, "us") + d, pa.timestamp("us"))

    def keys(n, fixed):
        # the kNN queries probe customers with keys 0..20: keep the
        # lowest keys, sample the rest
        rest = rng.choice(np.arange(fixed, n * 10), n - fixed, replace=False)
        return np.sort(np.concatenate([np.arange(fixed), rest]))

    ck = keys(customers, min(100, customers))
    sk = keys(suppliers, min(5, suppliers))
    tables = {
        "region": pa.table({
            "r_regionkey": pa.array(np.arange(5), pa.int32()),
            "r_name": list(REGIONS)}),
        "nation": pa.table({
            "n_nationkey": pa.array(np.arange(25), pa.int32()),
            "n_name": [f"NATION_{i}" for i in range(25)],
            "n_regionkey": pa.array(np.arange(25) % 5, pa.int32())}),
        "customer": pa.table({
            "c_custkey": pa.array(ck, pa.int64()),
            "c_name": [f"Customer#{k:09d}" for k in ck],
            "c_nationkey": pa.array(rng.integers(0, 25, customers), pa.int32()),
            "c_acctbal": money(-999.99, 9999.99, customers),
            "c_mktsegment": rng.choice(SEGMENTS, customers).tolist()}),
        "supplier": pa.table({
            "s_suppkey": pa.array(sk, pa.int64()),
            "s_name": [f"Supplier#{k:09d}" for k in sk],
            "s_nationkey": pa.array(rng.integers(0, 25, suppliers), pa.int32()),
            "s_acctbal": money(-999.99, 9999.99, suppliers)}),
        "part": pa.table({
            "p_partkey": pa.array(np.arange(parts), pa.int64()),
            "p_name": rng.choice(["small ring", "large gizmo", "steel bolt",
                                  "brass nut"], parts).tolist(),
            "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, parts)],
            "p_type": rng.choice(["ECONOMY", "LARGE", "STANDARD", "PROMO"],
                                 parts).tolist(),
            "p_size": pa.array(rng.integers(1, 51, parts), pa.int32()),
            "p_retailprice": money(900.0, 2000.0, parts)}),
        "orders": pa.table({
            "o_orderkey": pa.array(np.arange(orders), pa.int64()),
            "o_custkey": pa.array(rng.choice(ck, orders), pa.int64()),
            "o_orderstatus": rng.choice(["F", "O", "P"], orders).tolist(),
            "o_totalprice": money(1000.0, 500000.0, orders),
            "o_orderdate": days(orders),
            "o_orderpriority": rng.choice(PRIORITIES, orders).tolist()}),
    }
    qty = rng.integers(1, 51, lineitems).astype(np.float64)
    tables["lineitem"] = pa.table({
        "l_orderkey": pa.array(rng.integers(0, orders, lineitems), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, parts, lineitems), pa.int64()),
        "l_suppkey": pa.array(rng.choice(sk, lineitems), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, lineitems), pa.int32()),
        "l_quantity": qty,
        "l_extendedprice": np.round(qty * rng.uniform(900.0, 2100.0,
                                                      lineitems), 2),
        "l_discount": np.round(rng.integers(0, 11, lineitems) / 100.0, 2),
        "l_tax": np.round(rng.integers(0, 9, lineitems) / 100.0, 2),
        "l_returnflag": rng.choice(["A", "N", "R"], lineitems).tolist(),
        "l_linestatus": rng.choice(["F", "O"], lineitems).tolist(),
        "l_shipdate": days(lineitems, span=2500)})
    for name, tbl in tables.items():
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))
    return {name: t.num_rows for name, t in tables.items()}
