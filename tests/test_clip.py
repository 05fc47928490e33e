"""Clip kernel tests: vectorized batch clip vs scalar references.

The scalar Sutherland–Hodgman / Liang–Barsky implementations below are
independent re-derivations used ONLY as test oracles (the reference
delegates to the tileclip package; semantics per
splitcombine/demo.md)."""

import numpy as np
import pytest

from geobuf_ray.spatial import clip


def sh_clip_scalar(ring, west, south, east, north):
    """Scalar Sutherland–Hodgman of one OPEN ring; returns vertex list."""
    def one_pass(pts, inside, intersect):
        out = []
        m = len(pts)
        for i in range(m):
            cur, nxt = pts[i], pts[(i + 1) % m]
            if inside(nxt):
                if not inside(cur):
                    out.append(intersect(cur, nxt))
                out.append(nxt)
            elif inside(cur):
                out.append(intersect(cur, nxt))
        return out

    def ix(bound):
        def f(a, b):
            t = (bound - a[0]) / (b[0] - a[0])
            return (bound, a[1] + t * (b[1] - a[1]))
        return f

    def iy(bound):
        def f(a, b):
            t = (bound - a[1]) / (b[1] - a[1])
            return (a[0] + t * (b[0] - a[0]), bound)
        return f

    pts = list(ring)
    for inside, inter in (
        (lambda p: p[0] >= west, ix(west)),
        (lambda p: p[0] <= east, ix(east)),
        (lambda p: p[1] >= south, iy(south)),
        (lambda p: p[1] <= north, iy(north)),
    ):
        if not pts:
            return []
        pts = one_pass(pts, inside, inter)
    return pts if len(pts) >= 3 else []


def _rings_to_flat(rings):
    x = np.array([p[0] for r in rings for p in r], np.float64)
    y = np.array([p[1] for r in rings for p in r], np.float64)
    offs = np.zeros(len(rings) + 1, np.int64)
    np.cumsum([len(r) for r in rings], out=offs[1:])
    return x, y, offs


def test_clip_rings_matches_scalar_random():
    rng = np.random.default_rng(7)
    rings, rects = [], []
    for _ in range(300):
        m = rng.integers(3, 9)
        # star-ish (possibly concave) polygon around a random center
        cx, cy = rng.uniform(-5, 5, 2)
        ang = np.sort(rng.uniform(0, 2 * np.pi, m))
        rad = rng.uniform(0.5, 4.0, m)
        rings.append(list(zip(cx + rad * np.cos(ang), cy + rad * np.sin(ang))))
        w, s = rng.uniform(-6, 4, 2)
        rects.append((w, s, w + rng.uniform(0.5, 5), s + rng.uniform(0.5, 5)))
    x, y, offs = _rings_to_flat(rings)
    rect_arr = np.array(rects)
    cx, cy, coffs = clip.clip_rings(x, y, offs, rect_arr[:, 0], rect_arr[:, 1],
                                    rect_arr[:, 2], rect_arr[:, 3])
    for i, (ring, (w, s, e, n)) in enumerate(zip(rings, rects)):
        exp = sh_clip_scalar(ring, w, s, e, n)
        got = list(zip(cx[coffs[i]:coffs[i + 1]], cy[coffs[i]:coffs[i + 1]]))
        assert len(got) == len(exp), (i, got, exp)
        for (gx, gy), (ex, ey) in zip(got, exp):
            assert gx == pytest.approx(ex, abs=1e-12)
            assert gy == pytest.approx(ey, abs=1e-12)


def test_clip_rings_exact_cover_signal():
    # concave L-shape: a rect inside the bbox but outside the polygon
    # must clip to EMPTY (this is what bbox-cover alone gets wrong)
    ring = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
    x, y, offs = _rings_to_flat([ring, ring])
    w = np.array([2.0, 0.2]); s = np.array([2.0, 0.2])
    e = np.array([3.0, 0.8]); n = np.array([3.0, 0.8])
    cx, cy, coffs = clip.clip_rings(x, y, offs, w, s, e, n)
    assert coffs[1] - coffs[0] == 0          # outside the L: empty
    got = set(zip(cx[coffs[1]:coffs[2]], cy[coffs[1]:coffs[2]]))
    assert got == {(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)}  # tile inside polygon -> the tile


def test_open_close_rings_roundtrip():
    rings = [[(0, 0), (2, 0), (1, 2), (0, 0)], [(5, 5), (6, 5), (6, 6), (5, 5)]]
    x, y, offs = _rings_to_flat(rings)
    ox, oy, ooffs, closed = clip.open_rings(x, y, offs)
    assert closed.all()
    assert np.diff(ooffs).tolist() == [3, 3]
    bx, by, boffs = clip.close_rings(ox, oy, ooffs)
    assert np.array_equal(bx, x) and np.array_equal(by, y)
    assert np.array_equal(boffs, offs)


def test_open_rings_empty_last_ring():
    """A polygon whose last ring is empty (the reference writes them)
    ends the buffer with a ring that starts past the coordinates."""
    x, y, offs = _rings_to_flat([[(0, 0), (2, 0), (1, 2), (0, 0)], []])
    ox, oy, ooffs, closed = clip.open_rings(x, y, offs)
    assert closed.tolist() == [True, False]
    assert np.diff(ooffs).tolist() == [3, 0]
    bx, by, boffs = clip.close_rings(ox, oy, ooffs)
    assert np.array_equal(bx, x) and np.array_equal(boffs, offs)


def lb_clip_scalar(line, west, south, east, north):
    """Scalar Liang–Barsky polyline clip -> list of parts."""
    parts = []
    cur = None
    for (x0, y0), (x1, y1) in zip(line[:-1], line[1:]):
        dx, dy = x1 - x0, y1 - y0
        t0, t1, ok = 0.0, 1.0, True
        for p, q in ((-dx, x0 - west), (dx, east - x0),
                     (-dy, y0 - south), (dy, north - y0)):
            if p == 0:
                if q < 0:
                    ok = False
                    break
            else:
                r = q / p
                if p < 0:
                    t0 = max(t0, r)
                else:
                    t1 = min(t1, r)
        if not ok or t0 > t1:
            cur = None
            continue
        a = (x0 + t0 * dx, y0 + t0 * dy)
        b = (x0 + t1 * dx, y0 + t1 * dy)
        if cur is not None and cur[-1] == a:
            cur.append(b)
        else:
            cur = [a, b]
            parts.append(cur)
    return parts


def test_clip_lines_matches_scalar_random():
    rng = np.random.default_rng(11)
    lines, rects = [], []
    for _ in range(200):
        m = rng.integers(2, 10)
        pts = rng.uniform(-5, 5, (m, 2))
        lines.append([tuple(p) for p in pts])
        w, s = rng.uniform(-6, 3, 2)
        rects.append((w, s, w + rng.uniform(1, 6), s + rng.uniform(1, 6)))
    x, y, offs = _rings_to_flat(lines)
    r = np.array(rects)
    cx, cy, poffs, line_of_part = clip.clip_lines(
        x, y, offs, r[:, 0], r[:, 1], r[:, 2], r[:, 3])
    got_by_line = {}
    for p in range(len(poffs) - 1):
        got_by_line.setdefault(int(line_of_part[p]), []).append(
            list(zip(cx[poffs[p]:poffs[p + 1]], cy[poffs[p]:poffs[p + 1]])))
    for i, (line, (w, s, e, n)) in enumerate(zip(lines, rects)):
        exp = lb_clip_scalar(line, w, s, e, n)
        exp = [p for p in exp if len(p) >= 2]
        got = got_by_line.get(i, [])
        assert len(got) == len(exp), (i, got, exp)
        for gp, ep in zip(got, exp):
            assert len(gp) == len(ep)
            for (gx, gy), (ex, ey) in zip(gp, ep):
                assert gx == pytest.approx(ex, abs=1e-12)
                assert gy == pytest.approx(ey, abs=1e-12)


def test_clip_points():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 2.0, 3.0])
    m = clip.clip_points(x, y, np.full(4, 0.5), np.full(4, 0.5),
                         np.full(4, 2.5), np.full(4, 2.5))
    assert m.tolist() == [False, True, True, False]


# ---------------------------------------------------------------------------
# tile_clip_batch (pipeline-level, no Ray needed: pure batch kernel)
# ---------------------------------------------------------------------------

import pyarrow as pa

from feature_oracle import geometry_from_nested
from geobuf_ray.pipelines.tiling import assign_tiles_batch, tile_clip_batch
from geobuf_ray.spatial import tiles


def _feature_batch(feats):
    rows = []
    for fid, (gtype, coords) in enumerate(feats):
        g = geometry_from_nested(gtype, coords)
        rows.append({"id": fid, **g})
    return pa.table({
        "id": pa.array([r["id"] for r in rows], pa.int64()),
        "geom_type": pa.array([r["geom_type"] for r in rows], pa.int8()),
        "dim": pa.array([r["dim"] for r in rows], pa.int8()),
        "coords": pa.array([r["coords"] for r in rows], pa.list_(pa.float64())),
        "ring_sizes": pa.array([r["ring_sizes"] for r in rows], pa.list_(pa.int32())),
        "poly_sizes": pa.array([r["poly_sizes"] for r in rows], pa.list_(pa.int32())),
    })


def _shoelace(ring):
    a = 0.0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
        a += x0 * y1 - x1 * y0
    return abs(a) / 2


def test_tile_clip_exact_cover_beats_bbox_cover():
    # thin diagonal polygon: bbox covers a block of tiles, the geometry
    # itself misses the off-diagonal ones
    zoom = 6
    diag = [[[-50.0, -40.0], [-49.0, -40.0], [10.0, 40.0],
             [-50.0, -39.0], [-50.0, -40.0]]]
    batch = _feature_batch([("Polygon", diag)])
    bbox_cov = assign_tiles_batch(batch, zoom)
    exact = tile_clip_batch(batch, zoom)
    assert 0 < exact.num_rows < bbox_cov.num_rows
    assert set(exact["tile_str"].to_pylist()) <= set(bbox_cov["tile_str"].to_pylist())


def test_tile_clip_geometry_within_tile_and_area_preserved():
    zoom = 5
    ring = [[-50.0, -40.0], [20.0, -35.0], [25.0, 30.0], [-40.0, 38.0],
            [-50.0, -40.0]]
    batch = _feature_batch([("Polygon", [ring])])
    out = tile_clip_batch(batch, zoom)
    assert out.num_rows > 4
    total_area = 0.0
    for i in range(out.num_rows):
        key = out["tile_key"][i].as_py()
        _, tx, ty = tiles.unpack(np.array([key], np.uint64))
        w, s, e, n = (float(v[0]) for v in tiles.tile_bounds(tx, ty, zoom))
        coords = out["coords"][i].as_py()
        rs = out["ring_sizes"][i].as_py()
        pos = 0
        for m in rs:
            pts = [(coords[2 * (pos + j)], coords[2 * (pos + j) + 1])
                   for j in range(m)]
            pos += m
            for x, yv in pts:
                assert w - 1e-9 <= x <= e + 1e-9
                assert s - 1e-9 <= yv <= n + 1e-9
            assert pts[0] == pts[-1]  # closed ring
            total_area += _shoelace(pts[:-1])
    src = _shoelace(ring[:-1])
    assert total_area == pytest.approx(src, rel=1e-9)


def test_tile_clip_matches_scalar_oracle_per_tile():
    zoom = 4
    ring = [[-10.0, -10.0], [40.0, -5.0], [35.0, 30.0], [-10.0, -10.0]]
    batch = _feature_batch([("Polygon", [ring])])
    out = tile_clip_batch(batch, zoom)
    seen = set()
    for i in range(out.num_rows):
        key = out["tile_key"][i].as_py()
        seen.add(key)
        _, tx, ty = tiles.unpack(np.array([key], np.uint64))
        w, s, e, n = (float(v[0]) for v in tiles.tile_bounds(tx, ty, zoom))
        exp = sh_clip_scalar(ring[:-1], w, s, e, n)
        coords = out["coords"][i].as_py()
        m = out["ring_sizes"][i].as_py()[0]
        got = [(coords[2 * j], coords[2 * j + 1]) for j in range(m - 1)]
        assert len(got) == len(exp)
        for (gx, gy), (ex, ey) in zip(got, exp):
            assert gx == pytest.approx(ex, abs=1e-9)
            assert gy == pytest.approx(ey, abs=1e-9)
    # every bbox-cover tile with non-empty scalar clip must be present
    bbox_cov = assign_tiles_batch(batch, zoom)
    for key in bbox_cov["tile_key"].to_pylist():
        _, tx, ty = tiles.unpack(np.array([key], np.uint64))
        w, s, e, n = (float(v[0]) for v in tiles.tile_bounds(tx, ty, zoom))
        nonempty = bool(sh_clip_scalar(ring[:-1], w, s, e, n))
        assert (key in seen) == nonempty


def test_tile_clip_linestring_splits():
    zoom = 4
    # zigzag line crossing several tiles
    line = [[-40.0, 0.5], [-20.0, 20.0], [0.0, 0.5], [20.0, 20.0]]
    batch = _feature_batch([("LineString", line)])
    out = tile_clip_batch(batch, zoom)
    assert out.num_rows >= 2
    for i in range(out.num_rows):
        key = out["tile_key"][i].as_py()
        _, tx, ty = tiles.unpack(np.array([key], np.uint64))
        w, s, e, n = (float(v[0]) for v in tiles.tile_bounds(tx, ty, zoom))
        coords = out["coords"][i].as_py()
        for j in range(len(coords) // 2):
            assert w - 1e-9 <= coords[2 * j] <= e + 1e-9
            assert s - 1e-9 <= coords[2 * j + 1] <= n + 1e-9
        # part structure consistent
        assert sum(out["ring_sizes"][i].as_py()) * 2 == len(coords)
        assert sum(out["poly_sizes"][i].as_py()) == len(out["ring_sizes"][i].as_py())


def test_tile_clip_multipoint_and_point():
    zoom = 3
    batch = _feature_batch([
        ("Point", [10.0, 20.0]),
        ("MultiPoint", [[-100.0, -50.0], [100.0, 50.0], [101.0, 51.0]]),
    ])
    out = tile_clip_batch(batch, zoom)
    pts = out.filter(pa.compute.equal(out["id"], 0))
    assert pts.num_rows == 1
    mp = out.filter(pa.compute.equal(out["id"], 1))
    # the two east points share a tile at zoom 3; the west one is alone
    assert mp.num_rows == 2
    sizes = sorted(sum(r) for r in mp["ring_sizes"].to_pylist())
    assert sizes == [1, 2]


def test_tile_clip_county_area_preserved():
    """Real reference data: county MultiPolygons clipped at zoom 7 —
    per-tile vertices stay inside bounds and the summed clipped area
    equals each source polygon's area (clip partitions the polygon)."""
    import os

    path = "/root/reference/test_data/county.geobuf"
    if not os.path.exists(path):
        pytest.skip("reference county data unavailable")
    from geobuf_ray.codec import decode as dc, feature as fc

    recs = fc.scan_frames(open(path, "rb").read())
    batch = dc.decode_batch(recs.slice(0, 40))
    keep = ["id", "geom_type", "dim", "coords", "ring_sizes", "poly_sizes"]
    batch = batch.select([c for c in keep if c in batch.column_names])
    if "id" not in batch.column_names:
        batch = batch.add_column(0, "id", pa.array(np.arange(batch.num_rows)))
    zoom = 7
    out = tile_clip_batch(batch, zoom)
    assert out.num_rows >= batch.num_rows  # fan-out happened

    def rings_of(tbl, i):
        coords = tbl["coords"][i].as_py()
        rs = tbl["ring_sizes"][i].as_py()
        pos, rings = 0, []
        for m in rs:
            rings.append([(coords[2 * (pos + j)], coords[2 * (pos + j) + 1])
                          for j in range(m)])
            pos += m
        return rings

    src_area = {}
    for i in range(batch.num_rows):
        a = sum(_shoelace(r[:-1] if r[0] == r[-1] else r)
                for r in rings_of(batch, i))
        src_area[batch["id"][i].as_py()] = a
    got_area = {}
    for i in range(out.num_rows):
        key = out["tile_key"][i].as_py()
        _, tx, ty = tiles.unpack(np.array([key], np.uint64))
        w, s, e, n = (float(v[0]) for v in tiles.tile_bounds(tx, ty, zoom))
        fid = out["id"][i].as_py()
        for r in rings_of(out, i):
            for x, yv in r:
                assert w - 1e-9 <= x <= e + 1e-9 and s - 1e-9 <= yv <= n + 1e-9
            got_area[fid] = got_area.get(fid, 0.0) + _shoelace(
                r[:-1] if r[0] == r[-1] else r)
    for fid, a in src_area.items():
        # exterior minus holes: counties store holes as extra rings, and
        # the shoelace sums exterior+hole areas identically on both
        # sides, so totals must agree
        assert got_area.get(fid, 0.0) == pytest.approx(a, rel=1e-6), fid


def test_tile_cover_exact_whole_features():
    """emit="original": exact cover tiles carry the UNCLIPPED feature
    (SplitCombineTiles semantics) — same tile set as the clip path,
    identical geometry to the source on every row."""
    from geobuf_ray.pipelines.tiling import tile_clip_batch

    zoom = 6
    diag = [[[-50.0, -40.0], [-49.0, -40.0], [10.0, 40.0],
             [-50.0, -39.0], [-50.0, -40.0]]]
    batch = _feature_batch([("Polygon", diag)])
    clipped = tile_clip_batch(batch, zoom)
    whole = tile_clip_batch(batch, zoom, emit="original")
    assert sorted(whole["tile_str"].to_pylist()) == \
        sorted(clipped["tile_str"].to_pylist())
    src_coords = batch["coords"][0].as_py()
    for i in range(whole.num_rows):
        assert whole["coords"][i].as_py() == src_coords
        assert whole["ring_sizes"][i].as_py() == batch["ring_sizes"][0].as_py()
