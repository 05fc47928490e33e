"""From-scratch S2 cell index: projection round-trips, Hilbert
identity, prefix/range arithmetic, analytic bounds, covering
completeness, and join-path equivalence (the property the engine's
partitioning correctness rests on)."""

import numpy as np
import pyarrow as pa

from geobuf_ray.spatial import s2

RNG = np.random.default_rng(7)
LON = RNG.uniform(-180, 180, 20000)
LAT = RNG.uniform(-89.9, 89.9, 20000)


def test_face_uv_roundtrip():
    face, u, v = s2.lonlat_to_face_uv(LON, LAT)
    assert np.abs(u).max() <= 1.0 + 1e-12 and np.abs(v).max() <= 1.0 + 1e-12
    lon2, lat2 = s2.face_uv_to_lonlat(face, u, v)
    dl = np.abs((lon2 - LON + 180) % 360 - 180)
    assert dl.max() < 1e-9
    assert np.abs(lat2 - LAT).max() < 1e-9


def test_hilbert_identity():
    i = RNG.integers(0, 2**30, 10000)
    j = RNG.integers(0, 2**30, 10000)
    f = RNG.integers(0, 6, 10000)
    ids = s2.face_ij_to_id(f, i, j)
    f2, i2, j2, _ = s2.id_to_face_ij(ids)
    assert (f2 == f).all() and (i2 == i).all() and (j2 == j).all()


def test_leaf_cell_center_near_input():
    ids = s2.s2_cell_id(LON, LAT)
    assert (s2.cell_level(ids) == 30).all()
    face, i, j, _ = s2.id_to_face_ij(ids)
    u = s2._st_to_uv((i + 0.5) / 2**30)
    v = s2._st_to_uv((j + 0.5) / 2**30)
    lon2, lat2 = s2.face_uv_to_lonlat(face, u, v)
    # leaf cells are ~1e-8 deg; scale lon error by cos(lat)
    dl = np.abs((lon2 - LON + 180) % 360 - 180) * np.cos(np.radians(LAT))
    assert dl.max() < 1e-7
    assert np.abs(lat2 - LAT).max() < 1e-7


def test_parent_range_contains_descendants():
    ids = s2.s2_cell_id(LON, LAT)
    for level in (3, 11, 25):
        p = s2.parent(ids, level)
        assert (s2.cell_level(p) == level).all()
        mn, mx = s2.cell_range(p)
        assert ((ids >= mn) & (ids <= mx)).all()
        # children partition the parent range
        ch = s2.children(p[:100])
        cmn, _ = s2.cell_range(ch.reshape(-1))
        assert (cmn.reshape(-1, 4)[:, 0] == mn[:100]).all()


def test_cell_bounds_contain_points():
    ids = s2.s2_cell_id(LON, LAT)
    for level in (1, 4, 8, 15):
        c = s2.parent(ids, level)
        w, s, e, n, full = s2.cell_bounds(c, level)
        lat_ok = (LAT >= s - 1e-9) & (LAT <= n + 1e-9)
        wraps = w > e
        lng_ok = full | np.where(
            wraps, (LON >= w - 1e-9) | (LON <= e + 1e-9),
            (LON >= w - 1e-9) & (LON <= e + 1e-9))
        assert (lat_ok & lng_ok).all(), level


def test_cover_rects_complete():
    """point in rect  =>  the point's cell is in the rect's cover."""
    rng = np.random.default_rng(3)
    R = 80
    w = rng.uniform(-180, 170, R)
    s = rng.uniform(-85, 75, R)
    e = np.minimum(w + rng.uniform(0.01, 40, R), 180.0)
    n = np.minimum(s + rng.uniform(0.01, 30, R), 85.0)
    lon = rng.uniform(-180, 180, 5000)
    lat = rng.uniform(-85, 85, 5000)
    for level in (4, 8):
        ridx, cells = s2.cover_rects(w, s, e, n, level)
        covers = {}
        for r, c in zip(ridx, cells):
            covers.setdefault(int(r), set()).add(int(c))
        pc = s2.s2_cell_id(lon, lat, level)
        for r in range(R):
            inside = np.flatnonzero((lon >= w[r]) & (lon <= e[r])
                                    & (lat >= s[r]) & (lat <= n[r]))
            cs = covers.get(r, set())
            assert all(int(pc[k]) in cs for k in inside), (level, r)


def test_pip_s2_join_matches_broadcast(ray_session):
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.pipelines import queries as q
    from geobuf_ray.spatial.join import pip_s2_join

    SF = "/root/testdata/sf0.001"
    pts = q.customer_points(SF)
    polys = ray.data.from_arrow(q.supplier_rects(SF))
    out = pip_s2_join(pts, polys, level=8, nbuckets=16, poly_id_col="id")
    got = {(r["custkey"], r["polygon_id"])
           for r in collect_table(out).to_pylist()}
    want = {(r["custkey"], r["polygon_id"])
            for r in collect_table(q.pip_rect_join(SF)).to_pylist()}
    assert got == want and len(got) > 0


def test_knn_s2_join_vs_brute_force(ray_session):
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.spatial.geometry import haversine_m
    from geobuf_ray.spatial.join import knn_s2_join

    rng = np.random.default_rng(9)
    nq, nr, k = 400, 300, 3
    qlon = rng.uniform(-179, 179, nq)
    qlat = rng.uniform(-84, 84, nq)
    rlon = rng.uniform(-179, 179, nr)
    rlat = rng.uniform(-84, 84, nr)
    pts = ray.data.from_arrow(pa.table({
        "custkey": pa.array(np.arange(nq), pa.int64()),
        "lon": pa.array(qlon), "lat": pa.array(qlat)})).repartition(3)
    refs = pa.table({"id": pa.array(np.arange(nr), pa.int64()),
                     "lon": pa.array(rlon), "lat": pa.array(rlat)})
    radius = 2_000_000.0
    out = collect_table(knn_s2_join(
        pts, refs, k=k, level=6, radius_m=radius)).to_pandas()
    d = haversine_m(qlon[:, None], qlat[:, None],
                    rlon[None, :], rlat[None, :])
    order = np.argsort(d, axis=1)[:, :k]
    certified = 0
    for q in range(nq):
        rows = out[out["custkey"] == q].sort_values("rank")
        true_kth = d[q, order[q, k - 1]]
        if true_kth <= radius:
            # certification completeness: must be exact, not truncated
            assert not rows["truncated"].any(), q
            assert rows["neighbor_id"].tolist() == order[q].tolist(), q
            certified += 1
        elif not rows["truncated"].any():
            # uncertified-but-untruncated: still exact by the radius
            # rule (kth candidate within radius implies completeness)
            assert rows["neighbor_id"].tolist() == order[q].tolist(), q
    assert certified > nq // 2  # the radius actually certifies most


def test_knn_s2_join_salted_equivalence(ray_session):
    """salt_bits splits dense-cell groups but must not change results:
    a skewed corpus (60% of queries in one ~tile) gives bit-identical
    (custkey, rank, neighbor, truncated) with and without salting."""
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.spatial.join import knn_s2_join

    rng = np.random.default_rng(17)
    nq, nr, k = 500, 120, 3
    hot = int(nq * 0.6)
    qlon = np.concatenate([rng.uniform(10.0, 10.2, hot),
                           rng.uniform(-179, 179, nq - hot)])
    qlat = np.concatenate([rng.uniform(45.0, 45.2, hot),
                           rng.uniform(-84, 84, nq - hot)])
    rlon = rng.uniform(-179, 179, nr)
    rlat = rng.uniform(-84, 84, nr)
    refs = pa.table({"id": pa.array(np.arange(nr), pa.int64()),
                     "lon": pa.array(rlon), "lat": pa.array(rlat)})

    def run(salt_bits):
        pts = ray.data.from_arrow(pa.table({
            "custkey": pa.array(np.arange(nq), pa.int64()),
            "lon": pa.array(qlon), "lat": pa.array(qlat)})).repartition(4)
        t = collect_table(knn_s2_join(
            pts, refs, k=k, level=6, radius_m=4_000_000.0,
            salt_bits=salt_bits))
        return t.to_pandas().sort_values(
            ["custkey", "rank"]).reset_index(drop=True)

    plain, salted = run(0), run(3)
    for col in ("custkey", "rank", "neighbor_id", "truncated"):
        assert (plain[col] == salted[col]).all(), col


def test_pip_s2_join_salted_equivalence(ray_session):
    """salt_bits on the PIP path: a hot cell's points split across
    sub-buckets, polygons replicate — join output is identical."""
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.pipelines import queries as q
    from geobuf_ray.spatial.join import pip_s2_join

    SF = "/root/testdata/sf0.001"

    def run(salt_bits):
        pts = q.customer_points(SF)
        polys = ray.data.from_arrow(q.supplier_rects(SF))
        out = pip_s2_join(pts, polys, level=8, nbuckets=16,
                          poly_id_col="id", salt_bits=salt_bits)
        return {(r["custkey"], r["polygon_id"])
                for r in collect_table(out).to_pylist()}

    plain, salted = run(0), run(3)
    assert plain == salted and len(plain) > 0


def test_pip_s2_join_mixed_polygon_sizes(ray_session):
    """Polygons spanning 0.05..60 degrees, from sub-cell parcels to
    ones covering many level-8 cells, join identically to the
    broadcast-exact path, and no (point, polygon) pair is ever emitted
    twice (each point lives in one bucket, and each bucket dedupes its
    polygons)."""
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.io.geojson import features_to_table
    from geobuf_ray.spatial.join import pip_s2_join, point_in_polygon_join

    rng = np.random.default_rng(23)
    npts, npoly = 4000, 60
    lon = rng.uniform(-179, 179, npts)
    lat = rng.uniform(-80, 80, npts)
    sizes = np.exp(rng.uniform(np.log(0.05), np.log(60.0), npoly))
    w = rng.uniform(-179, 119, npoly)
    s = rng.uniform(-80, 20, npoly)
    e, n = w + sizes, s + np.minimum(sizes, 55.0)
    feats = [
        {"type": "Feature", "id": int(i), "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [[
             [w[i], s[i]], [e[i], s[i]], [e[i], n[i]],
             [w[i], n[i]], [w[i], s[i]]]]}}
        for i in range(npoly)
    ]
    polys = features_to_table(feats)
    pts_tbl = pa.table({
        "custkey": pa.array(np.arange(npts), pa.int64()),
        "lon": pa.array(lon), "lat": pa.array(lat)})

    out = collect_table(pip_s2_join(
        ray.data.from_arrow(pts_tbl).repartition(4),
        ray.data.from_arrow(polys), level=8, nbuckets=16))
    got = [(r["custkey"], r["polygon_id"]) for r in out.to_pylist()]
    assert len(got) == len(set(got))  # uniqueness, no cross-bucket dups
    want = {(r["custkey"], r["polygon_id"]) for r in collect_table(
        point_in_polygon_join(ray.data.from_arrow(pts_tbl),
                              polys, poly_id_column="id")).to_pylist()}
    assert set(got) == want and len(want) > 0


def test_within_distance_join_vs_brute_force(ray_session):
    """Radius join is exact: matches the dense haversine predicate,
    each pair exactly once, including refs near the antimeridian and
    poles (disk-cover wrap/pole paths)."""
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.spatial.geometry import haversine_m
    from geobuf_ray.spatial.join import within_distance_join

    rng = np.random.default_rng(31)
    nq, nr = 600, 150
    qlon = rng.uniform(-180, 180, nq)
    qlat = rng.uniform(-88, 88, nq)
    rlon = np.concatenate([rng.uniform(-180, 180, nr - 6),
                           [179.9, -179.9, 0.0, 10.0, -170.0, 170.0]])
    rlat = np.concatenate([rng.uniform(-88, 88, nr - 6),
                           [2.0, -3.0, 89.5, -89.5, 87.0, -87.0]])
    radius = 1_500_000.0
    pts = ray.data.from_arrow(pa.table({
        "custkey": pa.array(np.arange(nq), pa.int64()),
        "lon": pa.array(qlon), "lat": pa.array(qlat)})).repartition(3)
    refs = pa.table({"id": pa.array(np.arange(nr), pa.int64()),
                     "lon": pa.array(rlon), "lat": pa.array(rlat)})
    out = collect_table(within_distance_join(
        pts, refs, radius, level=6)).to_pylist()
    got = [(r["custkey"], r["neighbor_id"]) for r in out]
    assert len(got) == len(set(got))  # exactly-once emission
    d = haversine_m(qlon[:, None], qlat[:, None],
                    rlon[None, :], rlat[None, :])
    want = set(zip(*np.nonzero(d <= radius)))
    assert set(got) == {(int(a), int(b)) for a, b in want}
    assert len(want) > 100


def test_bbox_intersection_join_vs_brute_force(ray_session):
    """Rect x rect intersection join matches dense numpy overlap and
    emits each pair exactly once (reference-point dedup)."""
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.io.geojson import features_to_table
    from geobuf_ray.spatial.join import bbox_intersection_join

    rng = np.random.default_rng(41)

    def rects(n, smin, smax, seed_ofs):
        w = rng.uniform(-175, 120, n)
        s = rng.uniform(-80, 40, n)
        sz1 = np.exp(rng.uniform(np.log(smin), np.log(smax), n))
        sz2 = np.exp(rng.uniform(np.log(smin), np.log(smax), n))
        e, nn = w + sz1, s + np.minimum(sz2, 40.0)
        feats = [
            {"type": "Feature", "id": int(i + seed_ofs), "properties": {},
             "geometry": {"type": "Polygon", "coordinates": [[
                 [w[i], s[i]], [e[i], s[i]], [e[i], nn[i]],
                 [w[i], nn[i]], [w[i], s[i]]]]}}
            for i in range(n)
        ]
        return features_to_table(feats), np.stack([w, s, e, nn], axis=1)

    lt, lbb = rects(200, 0.1, 30.0, 0)
    rt, rbb = rects(150, 0.1, 30.0, 10_000)
    out = collect_table(bbox_intersection_join(
        ray.data.from_arrow(lt).repartition(3),
        ray.data.from_arrow(rt).repartition(2),
        level=6, nbuckets=16)).to_pylist()
    got = [(r["left_id"], r["right_id"]) for r in out]
    assert len(got) == len(set(got))  # exactly-once
    ov = ((lbb[:, None, 0] <= rbb[None, :, 2])
          & (lbb[:, None, 2] >= rbb[None, :, 0])
          & (lbb[:, None, 1] <= rbb[None, :, 3])
          & (lbb[:, None, 3] >= rbb[None, :, 1]))
    want = {(int(i), int(j) + 10_000) for i, j in zip(*np.nonzero(ov))}
    assert set(got) == want and len(want) > 50


def test_within_distance_join_salted_equivalence(ray_session):
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.spatial.join import within_distance_join

    rng = np.random.default_rng(53)
    nq, nr = 400, 80
    hot = int(nq * 0.5)
    qlon = np.concatenate([rng.uniform(20.0, 20.3, hot),
                           rng.uniform(-179, 179, nq - hot)])
    qlat = np.concatenate([rng.uniform(-30.0, -29.7, hot),
                           rng.uniform(-80, 80, nq - hot)])
    refs = pa.table({"id": pa.array(np.arange(nr), pa.int64()),
                     "lon": pa.array(rng.uniform(-179, 179, nr)),
                     "lat": pa.array(rng.uniform(-80, 80, nr))})

    def run(sb):
        pts = ray.data.from_arrow(pa.table({
            "custkey": pa.array(np.arange(nq), pa.int64()),
            "lon": pa.array(qlon), "lat": pa.array(qlat)})).repartition(3)
        t = collect_table(within_distance_join(
            pts, refs, 2_500_000.0, level=6, salt_bits=sb))
        return sorted((r["custkey"], r["neighbor_id"])
                      for r in t.to_pylist())

    assert run(0) == run(3) and len(run(0)) > 50


def test_s2_invariants_randomized():
    """Hypothesis-style randomized invariants of the cell index:
    ancestor prefix ranges nest, children partition their parent,
    bounds of a child lie within (padded) parent bounds, and covers of
    a point's tiny neighborhood always contain the point's cell."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from geobuf_ray.spatial import s2

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-180, 180), st.floats(-89.9, 89.9),
           st.integers(1, 29))
    def check(lon, lat, level):
        lonv = np.array([lon]); latv = np.array([lat])
        leaf = s2.s2_cell_id(lonv, latv, s2.MAX_LEVEL)
        cell = s2.parent(leaf, level)
        # (1) direct id at level == parent(leaf)
        assert s2.s2_cell_id(lonv, latv, level)[0] == cell[0]
        # (2) range nesting: leaf within every ancestor's range
        for lv in (0, level // 2, level):
            anc = s2.parent(leaf, lv)
            lo, hi = s2.cell_range(anc)
            assert lo[0] <= leaf[0] <= hi[0]
        # (3) children partition the parent range exactly
        ch = s2.children(cell).reshape(-1)
        clo, chi = s2.cell_range(ch)
        plo, phi = s2.cell_range(cell)
        order = np.argsort(clo)
        clo, chi = clo[order], chi[order]
        assert clo[0] == plo[0] and chi[-1] == phi[0]
        # leaf ids are odd and step by 2 -> adjacent sibling ranges
        # are separated by exactly one leaf step
        assert (clo[1:] == chi[:-1] + np.uint64(2)).all()
        # (4) the cell's analytic bound contains the point
        w, s_, e, n, full = s2.cell_bounds(cell, level)
        assert s_[0] - 1e-9 <= lat <= n[0] + 1e-9

        def in_rng(x):
            if full[0]:
                return True
            if w[0] <= e[0]:
                return w[0] - 1e-9 <= x <= e[0] + 1e-9
            return x >= w[0] - 1e-9 or x <= e[0] + 1e-9  # wrap

        # lon 180 == lon -180 (and points within an ulp of the seam
        # project onto either side face-dependently) — forgive the
        # wrapped representation ONLY near the seam, otherwise a
        # wrap-range cell would accept any lon vacuously
        near_seam = abs(abs(lon) - 180.0) <= 1e-9
        assert in_rng(lon) or (near_seam and (in_rng(180.0)
                                              or in_rng(-180.0)))

    check()


def test_clamp_level_for_radius_bounds_fanout():
    """The disk-cover joins' level self-coarsens to the radius: at the
    clamped level a disk spans <= ~max_span_cells cells across, so the
    per-ref fan-out stays O(span^2) no matter how large an escalation
    rung's radius gets (the 7,000 km rung used to fan each ref to
    ~4,000 level-5 cells and spend seconds of driver-side cover BFS)."""
    from geobuf_ray.spatial.join import (_disk_cover_cells,
                                         clamp_level_for_radius)

    # monotone: bigger radius -> coarser (never finer) level
    lvs = [clamp_level_for_radius(7, r)
           for r in (1e4, 5e5, 1.5e6, 7e6, 2.1e7)]
    assert lvs == sorted(lvs, reverse=True)
    assert lvs[0] == 7          # small radius: caller's level wins
    assert lvs[-1] == 0         # whole-globe radius: face cells

    rng = np.random.default_rng(3)
    lon = rng.uniform(-179, 179, 200)
    lat = rng.uniform(-84, 84, 200)
    for radius in (5e5, 2e6, 7e6, 2.1e7):
        lv = clamp_level_for_radius(7, radius)
        rows, _ = _disk_cover_cells(lon, lat, radius, lv)
        # conservative padding (110km/deg + poleward lon) inflates the
        # rect beyond the disk, but the fan-out must stay bounded
        assert len(rows) / 200 <= 150, (radius, lv, len(rows) / 200)


def test_hilbert_curve_properties_and_scalar_replay():
    """hilbert_d is a true Hilbert curve on the full grid: a
    BIJECTION onto [0, 4^bits) whose consecutive indices are always
    EDGE-ADJACENT cells (|dx|+|dy| == 1 — the locality property
    Z-order lacks across quadrant seams); plus a scalar xy2d replay
    and the lon/lat wrapper's quantization contract."""
    from geobuf_ray.spatial.curves import hilbert_d, hilbert_key

    def scalar_xy2d(n, x, y):
        d = 0
        s = n // 2
        while s > 0:
            rx = 1 if (x & s) > 0 else 0
            ry = 1 if (y & s) > 0 else 0
            d += s * s * ((3 * rx) ^ ry)
            if ry == 0:
                if rx == 1:
                    x, y = n - 1 - x, n - 1 - y
                x, y = y, x
            s //= 2
        return d

    for b in (2, 4):
        n = 1 << b
        xx, yy = np.meshgrid(np.arange(n), np.arange(n))
        d = hilbert_d(xx.ravel(), yy.ravel(), bits=b)
        assert sorted(d) == list(range(n * n))
        o = np.argsort(d)
        step = (np.abs(np.diff(xx.ravel()[o]))
                + np.abs(np.diff(yy.ravel()[o])))
        assert (step == 1).all()
        for x, y in [(0, 0), (n-1, 0), (3 % n, 2 % n), (n-1, n-1)]:
            assert hilbert_d(np.array([x]), np.array([y]),
                             bits=b)[0] == scalar_xy2d(n, x, y)

    # wrapper: corners of the lon/lat domain land in corner cells
    k = hilbert_key(np.array([-180.0, 179.99]),
                    np.array([-90.0, 89.99]), bits=8)
    assert k[0] == 0 and 0 <= k[1] < 1 << 16
