"""Generic hash equi-join tests (round-1 missing item #3)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geobuf_ray.functions.join import hash_join


def _ds(tbl, parts=4):
    import ray

    return ray.data.from_arrow(tbl).repartition(parts)


def test_inner_join_matches_duckdb(ray_session, shuffle_joins, many_buckets):
    import duckdb

    rng = np.random.default_rng(5)
    left = pa.table({"k": pa.array(rng.integers(0, 200, 2000), pa.int64()),
                     "lv": pa.array(rng.integers(0, 10**6, 2000), pa.int64())})
    right = pa.table({"k": pa.array(rng.integers(0, 200, 500), pa.int64()),
                      "rv": pa.array(rng.integers(0, 10**6, 500), pa.int64())})
    with many_buckets(4096):
        out = hash_join(_ds(left), _ds(right), on="k")
        got = out.to_pandas().sort_values(["k", "lv", "rv"]) \
            .reset_index(drop=True)
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp = con.execute(
        "SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k "
        "ORDER BY l.k, lv, rv").fetchdf()
    assert len(got) == len(exp)
    assert (got[["k", "lv", "rv"]].values == exp.values).all()


def test_left_join_null_fills(ray_session, shuffle_joins, many_buckets):
    left = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                     "lv": pa.array([10, 20, 30, 40], pa.int64())})
    right = pa.table({"k": pa.array([2, 2, 4], pa.int64()),
                      "rv": pa.array([200, 201, 400], pa.int64())})
    with many_buckets(8):
        out = hash_join(_ds(left, 2), _ds(right, 2), on="k", how="left")
        df = out.to_pandas().sort_values(["k", "rv"]).reset_index(drop=True)
    assert len(df) == 5  # 1->null, 2->200, 2->201, 3->null, 4->400
    assert df[df.k == 1]["rv"].isna().all()
    assert df[df.k == 3]["rv"].isna().all()
    assert sorted(df[df.k == 2]["rv"].tolist()) == [200, 201]


def test_string_key_join(ray_session, shuffle_joins, many_buckets):
    left = pa.table({"k": pa.array(["a", "b", "c", "a"]),
                     "lv": pa.array([1, 2, 3, 4], pa.int64())})
    right = pa.table({"k": pa.array(["a", "c", "z"]),
                      "rv": pa.array([10, 30, 99], pa.int64())})
    with many_buckets(8):
        out = hash_join(_ds(left, 2), _ds(right, 2), on="k")
        df = out.to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    assert df[["k", "lv", "rv"]].values.tolist() == [
        ["a", 1, 10], ["a", 4, 10], ["c", 3, 30]]


def test_name_collision_suffix(ray_session, shuffle_joins, many_buckets):
    left = pa.table({"k": pa.array([1], pa.int64()),
                     "v": pa.array([10], pa.int64())})
    right = pa.table({"k": pa.array([1], pa.int64()),
                      "v": pa.array([20], pa.int64())})
    with many_buckets(8):
        out = hash_join(_ds(left, 1), _ds(right, 1), on="k")
        df = out.to_pandas()
    assert sorted(df.columns) == ["k", "v", "v_r"]
    assert df.iloc[0]["v"] == 10 and df.iloc[0]["v_r"] == 20


def test_null_keys_never_match(ray_session, shuffle_joins, many_buckets):
    import duckdb

    left = pa.table({"k": pa.array([1, None, 3, None], pa.int64()),
                     "lv": pa.array([10, 20, 30, 40], pa.int64())})
    right = pa.table({"k": pa.array([1, None, 3], pa.int64()),
                      "rv": pa.array([100, 200, 300], pa.int64())})
    with many_buckets(8):
        inner = hash_join(_ds(left, 2), _ds(right, 2), on="k").to_pandas()
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp = con.execute("SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k "
                      "ORDER BY l.k").fetchdf()
    got = inner.sort_values("k").reset_index(drop=True)
    assert len(got) == len(exp) == 2
    assert (got[["k", "lv", "rv"]].values == exp.values).all()

    with many_buckets(8):
        lj = hash_join(_ds(left, 2), _ds(right, 2), on="k",
                       how="left").to_pandas()
    assert len(lj) == 4  # every left row survives; null keys unmatched
    nulls = lj[lj["k"].isna()]
    assert len(nulls) == 2 and nulls["rv"].isna().all()


def test_asof_join_small_known(ray_session, shuffle_joins, many_buckets):
    from geobuf_ray.functions.join import asof_join

    left = pa.table({"k": pa.array([1, 1, 1, 2, 3], pa.int64()),
                     "lt": pa.array([5, 10, 2, 7, 4], pa.int64()),
                     "ev": pa.array([100, 101, 102, 103, 104], pa.int64())})
    right = pa.table({"k": pa.array([1, 1, 1, 2], pa.int64()),
                      "rt": pa.array([3, 5, 9, 8], pa.int64()),
                      "rv": pa.array([30, 50, 90, 80], pa.int64())})
    with many_buckets(8):
        out = asof_join(_ds(left, 2), _ds(right, 2), on="k",
                        left_time="lt", right_time="rt")
        got = {r["ev"]: r["rv"] for r in out.take_all()}
    # ev100 t=5: latest right t<=5 is (5,50); ev101 t=10 -> (9,90);
    # ev102 t=2 -> none; ev103 k=2 t=7 < 8 -> none; ev104 k=3 -> none
    assert got == {100: 50, 101: 90}


def test_asof_join_equal_time_matches(ray_session, shuffle_joins,
                                      many_buckets):
    from geobuf_ray.functions.join import asof_join

    left = pa.table({"k": pa.array([1], pa.int64()),
                     "lt": pa.array([5], pa.int64()),
                     "ev": pa.array([1], pa.int64())})
    right = pa.table({"k": pa.array([1], pa.int64()),
                      "rt": pa.array([5], pa.int64()),
                      "rv": pa.array([55], pa.int64())})
    with many_buckets(8):
        out = asof_join(_ds(left, 1), _ds(right, 1), on="k",
                        left_time="lt", right_time="rt")
        rows = out.take_all()
    assert rows[0]["rv"] == 55  # equal time IS a match


def test_range_join_matches_duckdb(ray_session, shuffle_joins, no_ray_groupby):
    import duckdb

    from geobuf_ray.functions.join import range_join

    rng = np.random.default_rng(9)
    pts = pa.table({"v": pa.array(rng.uniform(0, 1000, 3000)),
                    "pid": pa.array(np.arange(3000), pa.int64())})
    lo = rng.uniform(0, 950, 80)
    iv = pa.table({"lo": pa.array(lo), "hi": pa.array(lo + rng.uniform(5, 120, 80)),
                   "iid": pa.array(np.arange(80), pa.int64())})
    out = range_join(_ds(pts, 3), _ds(iv, 2), value="v", lo="lo", hi="hi",
                     bin_width=50.0)
    got = out.to_pandas().sort_values(["pid", "iid"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("p", pts); con.register("i", iv)
    exp = con.execute("SELECT pid, iid FROM p JOIN i ON v >= lo AND v < hi "
                      "ORDER BY pid, iid").fetchdf()
    assert len(got) == len(exp)
    assert (got[["pid", "iid"]].values == exp.values).all()


def test_asof_join_random_matches_duckdb(ray_session, shuffle_joins,
                                         many_buckets):
    import duckdb

    from geobuf_ray.functions.join import asof_join

    rng = np.random.default_rng(21)
    nl, nr = 500, 300
    left = pa.table({"k": pa.array(rng.integers(0, 40, nl), pa.int64()),
                     "lt": pa.array(rng.integers(0, 1000, nl), pa.int64()),
                     "ev": pa.array(np.arange(nl), pa.int64())})
    # unique (k, rt) pairs so "latest" is unambiguous without tiebreak
    pairs = set()
    while len(pairs) < nr:
        pairs.add((int(rng.integers(0, 40)), int(rng.integers(0, 1000))))
    ks, ts = zip(*sorted(pairs))
    right = pa.table({"k": pa.array(ks, pa.int64()),
                      "rt": pa.array(ts, pa.int64()),
                      "rv": pa.array(np.arange(nr), pa.int64())})
    with many_buckets(4096):
        out = asof_join(_ds(left, 3), _ds(right, 2), on="k",
                        left_time="lt", right_time="rt")
        got = out.to_pandas().sort_values("ev").reset_index(drop=True)
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp = con.execute("""
        SELECT ev, rv FROM (
            SELECT l.ev, r.rv,
                   row_number() OVER (PARTITION BY l.ev ORDER BY r.rt DESC) rn
            FROM l JOIN r ON l.k = r.k AND r.rt <= l.lt
        ) WHERE rn = 1 ORDER BY ev""").fetchdf()
    assert len(got) == len(exp)
    assert (got[["ev", "rv"]].values == exp[["ev", "rv"]].values).all()


def test_asof_join_null_times_match_nothing(ray_session, shuffle_joins,
                                            many_buckets):
    from geobuf_ray.functions.join import asof_join

    left = pa.table({"k": pa.array([1, 1], pa.int64()),
                     "lt": pa.array([10, None], pa.int64()),
                     "ev": pa.array([1, 2], pa.int64())})
    right = pa.table({"k": pa.array([1, 1], pa.int64()),
                      "rt": pa.array([5, None], pa.int64()),
                      "rv": pa.array([50, 99], pa.int64())})
    with many_buckets(8):
        out = asof_join(_ds(left, 1), _ds(right, 1), on="k",
                        left_time="lt", right_time="rt")
        rows = out.take_all()
    assert len(rows) == 1           # null-time left row drops (inner)
    assert rows[0]["ev"] == 1 and rows[0]["rv"] == 50  # null right unseen


def test_asof_join_int64_microsecond_epochs_above_2p53(ray_session,
                                                       shuffle_joins,
                                                       many_buckets):
    """VERDICT r2 finding #1: int64 times ~1.7e18 (>2^53) with right
    rows <1 ms apart must not mis-order through a float64 cast."""
    import duckdb

    from geobuf_ray.functions.join import asof_join

    base = 1_700_000_000_000_000_000  # ns-epoch-scale int64, ulp@f64 ~256
    left = pa.table({"k": pa.array([1, 1, 1], pa.int64()),
                     "lt": pa.array([base + 150, base + 90, base + 260],
                                    pa.int64()),
                     "ev": pa.array([1, 2, 3], pa.int64())})
    # right rows 100 apart — inside one float64 ulp at this magnitude
    right = pa.table({"k": pa.array([1, 1, 1], pa.int64()),
                      "rt": pa.array([base + 100, base + 200, base + 300],
                                     pa.int64()),
                      "rv": pa.array([10, 20, 30], pa.int64())})
    with many_buckets(8):
        out = asof_join(_ds(left, 1), _ds(right, 1), on="k",
                        left_time="lt", right_time="rt")
        got = {r["ev"]: r["rv"] for r in out.take_all()}
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp_df = con.execute("""
        SELECT ev, rv FROM (
            SELECT l.ev, r.rv,
                   row_number() OVER (PARTITION BY l.ev ORDER BY r.rt DESC) rn
            FROM l JOIN r ON l.k = r.k AND r.rt <= l.lt
        ) WHERE rn = 1""").fetchdf()
    exp = dict(zip(exp_df.ev, exp_df.rv))
    assert got == exp == {1: 10, 3: 20}


def test_asof_join_timestamp_nulls_match_nothing(ray_session, shuffle_joins,
                                                 many_buckets):
    """ADVICE r2 (medium): NaT on the datetime path must be masked via
    the Arrow validity bitmap, not slip through as INT64_MIN."""
    from geobuf_ray.functions.join import asof_join

    ts = pa.timestamp("us")
    left = pa.table({"k": pa.array([1, 1], pa.int64()),
                     "lt": pa.array([1_000_000, None], ts),
                     "ev": pa.array([1, 2], pa.int64())})
    right = pa.table({"k": pa.array([1, 1], pa.int64()),
                      "rt": pa.array([500_000, None], ts),
                      "rv": pa.array([50, 99], pa.int64())})
    with many_buckets(8):
        out = asof_join(_ds(left, 1), _ds(right, 1), on="k",
                        left_time="lt", right_time="rt")
        rows = out.take_all()
    # NaT right row must NOT win (INT64_MIN would sort first and a
    # later accumulate could surface it); NaT left row must drop
    assert len(rows) == 1
    assert rows[0]["ev"] == 1 and rows[0]["rv"] == 50


def test_float_key_join_no_truncation(ray_session, shuffle_joins,
                                      many_buckets):
    """ADVICE r2 (low): float64 keys must join on value, not on
    astype(int64) truncation (1.2 vs 1.9 are distinct keys)."""
    import duckdb

    left = pa.table({"k": pa.array([1.2, 1.9, -0.0, 2.5], pa.float64()),
                     "lv": pa.array([1, 2, 3, 4], pa.int64())})
    right = pa.table({"k": pa.array([1.2, 0.0, 2.5], pa.float64()),
                      "rv": pa.array([10, 30, 40], pa.int64())})
    with many_buckets(8):
        out = hash_join(_ds(left, 2), _ds(right, 2), on="k")
        got = out.to_pandas().sort_values(["lv", "rv"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp = con.execute("SELECT lv, rv FROM l JOIN r ON l.k = r.k "
                      "ORDER BY lv, rv").fetchdf()
    # 1.2->10, -0.0 == 0.0 -> 30, 2.5->40; 1.9 matches nothing
    assert got[["lv", "rv"]].values.tolist() == exp.values.tolist() == [
        [1, 10], [3, 30], [4, 40]]


def test_float_key_nan_matches_nothing(ray_session, shuffle_joins,
                                       many_buckets):
    """NaN keys: IEEE semantics (NaN != NaN) — a NaN left row is a
    left-join miss, not a silent drop.  (DuckDB deviates here: it
    treats NaN = NaN as true, so no oracle comparison.)"""
    left = pa.table({"k": pa.array([float("nan"), 1.0], pa.float64()),
                     "lv": pa.array([1, 2], pa.int64())})
    right = pa.table({"k": pa.array([float("nan"), 1.0], pa.float64()),
                      "rv": pa.array([10, 20], pa.int64())})
    with many_buckets(8):
        inner = hash_join(_ds(left, 1), _ds(right, 1), on="k").to_pandas()
        lj = hash_join(_ds(left, 1), _ds(right, 1), on="k", how="left") \
            .to_pandas().sort_values("lv")
    assert inner[["lv", "rv"]].values.tolist() == [[2, 20]]
    assert len(lj) == 2
    assert lj[lj.lv == 1]["rv"].isna().all()  # NaN row -> miss, kept


def test_composite_key_join_matches_duckdb(ray_session, shuffle_joins,
                                           many_buckets):
    """VERDICT r2 item #7: hash_join(on=[two columns])."""
    import duckdb

    rng = np.random.default_rng(11)
    n = 2000
    left = pa.table({"k1": pa.array(rng.integers(0, 20, n), pa.int64()),
                     "k2": pa.array(rng.integers(0, 20, n), pa.int64()),
                     "lv": pa.array(np.arange(n), pa.int64())})
    right = pa.table({"k1": pa.array(rng.integers(0, 20, 300), pa.int64()),
                      "k2": pa.array(rng.integers(0, 20, 300), pa.int64()),
                      "rv": pa.array(np.arange(300), pa.int64())})
    with many_buckets(4096):
        out = hash_join(_ds(left, 3), _ds(right, 2), on=["k1", "k2"])
        got = out.to_pandas().sort_values(["lv", "rv"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp = con.execute(
        "SELECT lv, rv FROM l JOIN r ON l.k1 = r.k1 AND l.k2 = r.k2 "
        "ORDER BY lv, rv").fetchdf()
    assert len(got) == len(exp)
    assert (got[["lv", "rv"]].values == exp.values).all()
    # left join: misses survive with nulls
    with many_buckets(4096):
        lj = hash_join(_ds(left, 3), _ds(right, 2), on=["k1", "k2"],
                       how="left").to_pandas()
    exp_lj = con.execute(
        "SELECT lv, rv FROM l LEFT JOIN r ON l.k1 = r.k1 AND l.k2 = r.k2"
    ).fetchdf()
    assert len(lj) == len(exp_lj)


def test_composite_key_asof_matches_duckdb(ray_session, shuffle_joins,
                                           many_buckets):
    import duckdb

    from geobuf_ray.functions.join import asof_join

    rng = np.random.default_rng(13)
    nl, nr = 400, 250
    left = pa.table({"k1": pa.array(rng.integers(0, 8, nl), pa.int64()),
                     "k2": pa.array(rng.integers(0, 8, nl), pa.int64()),
                     "lt": pa.array(rng.integers(0, 500, nl), pa.int64()),
                     "ev": pa.array(np.arange(nl), pa.int64())})
    pairs = set()
    while len(pairs) < nr:
        pairs.add((int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                   int(rng.integers(0, 500))))
    k1, k2, ts = zip(*sorted(pairs))
    right = pa.table({"k1": pa.array(k1, pa.int64()),
                      "k2": pa.array(k2, pa.int64()),
                      "rt": pa.array(ts, pa.int64()),
                      "rv": pa.array(np.arange(nr), pa.int64())})
    with many_buckets(4096):
        out = asof_join(_ds(left, 3), _ds(right, 2), on=["k1", "k2"],
                        left_time="lt", right_time="rt")
        got = out.to_pandas().sort_values("ev").reset_index(drop=True)
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp = con.execute("""
        SELECT ev, rv FROM (
            SELECT l.ev, r.rv,
                   row_number() OVER (PARTITION BY l.ev ORDER BY r.rt DESC) rn
            FROM l JOIN r ON l.k1 = r.k1 AND l.k2 = r.k2 AND r.rt <= l.lt
        ) WHERE rn = 1 ORDER BY ev""").fetchdf()
    assert len(got) == len(exp)
    assert (got[["ev", "rv"]].values == exp[["ev", "rv"]].values).all()


def test_broadcast_join_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    from geobuf_ray.functions.join import broadcast_join

    rng = np.random.default_rng(1)
    n = 5000
    left = pa.table({
        "k": pa.array(rng.integers(0, 300, n)),
        "f": pa.array(rng.normal(0, 1, n)),
        "name": pa.array([f"s{i % 7}" for i in range(n)]),
    })
    mask = pa.array(rng.random(n) < 0.02)
    left = left.set_column(0, "k", pc.if_else(
        mask, pa.nulls(n, pa.int64()), left["k"]))
    right = pa.table({
        "k": pa.array(np.arange(0, 280, dtype=np.int64)),
        "name": pa.array([f"s{i % 5}" for i in range(280)]),
        "w": pa.array(rng.normal(5, 1, 280)),
    })
    lds = ray.data.from_arrow(left).repartition(4)
    con = duckdb.connect()
    con.register("l", left.to_pandas())
    con.register("r", right.to_pandas())

    def cmp(out, sql):
        o = con.execute(sql).df()
        cols = sorted(out.columns)
        assert cols == sorted(o.columns)
        a = out[cols].sort_values(cols).reset_index(drop=True)
        b = o[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)

    cmp(broadcast_join(lds, right, "k").to_pandas(),
        "SELECT l.k, l.f, l.name, r.name AS name_r, r.w "
        "FROM l JOIN r ON l.k = r.k")
    cmp(broadcast_join(lds, right, "k", how="left").to_pandas(),
        "SELECT l.k, l.f, l.name, r.name AS name_r, r.w "
        "FROM l LEFT JOIN r ON l.k = r.k")
    cmp(broadcast_join(lds, right, ["k", "name"]).to_pandas(),
        "SELECT l.k, l.f, l.name, r.w FROM l JOIN r "
        "ON l.k = r.k AND l.name = r.name")


def test_asof_join_forward_vs_duckdb(ray_session, shuffle_joins, many_buckets):
    import duckdb

    from geobuf_ray.functions.join import asof_join

    rng = np.random.default_rng(23)
    nl, nr = 1500, 500
    left = pa.table({
        "k": pa.array(rng.integers(0, 30, nl), pa.int64()),
        "tl": pa.array(rng.integers(0, 10**6, nl), pa.int64()),
        "lv": pa.array(np.arange(nl), pa.int64())})
    right = pa.table({
        "k": pa.array(rng.integers(0, 30, nr), pa.int64()),
        "tr": pa.array(rng.integers(0, 10**6, nr), pa.int64()),
        "rv": pa.array(np.arange(nr), pa.int64())})
    with many_buckets(4096):
        out = asof_join(
            _ds(left, 4), _ds(right, 3),
            on="k", left_time="tl", right_time="tr",
            direction="forward").to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp = con.execute("""
        SELECT l.k, tl, lv, tr, rv FROM l
        ASOF JOIN r ON l.k = r.k AND l.tl <= r.tr
    """).fetchdf()
    cols = ["k", "tl", "lv", "tr", "rv"]
    a = out[cols].sort_values(cols).reset_index(drop=True)
    b = exp[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_asof_join_nearest_vs_reference(ray_session, shuffle_joins,
                                        many_buckets):
    from geobuf_ray.functions.join import asof_join

    rng = np.random.default_rng(29)
    nl, nr = 800, 300
    lk = rng.integers(0, 20, nl)
    lt_ = rng.integers(0, 10**4, nl)
    rk = rng.integers(0, 20, nr)
    rt_ = rng.integers(0, 10**4, nr)
    left = pa.table({"k": pa.array(lk, pa.int64()),
                     "tl": pa.array(lt_, pa.int64()),
                     "lv": pa.array(np.arange(nl), pa.int64())})
    right = pa.table({"k": pa.array(rk, pa.int64()),
                      "tr": pa.array(rt_, pa.int64()),
                      "rv": pa.array(np.arange(nr), pa.int64())})
    with many_buckets(4096):
        out = asof_join(
            _ds(left, 4), _ds(right, 3),
            on="k", left_time="tl", right_time="tr",
            direction="nearest").to_pandas()
        got = {r.lv: (r.tr, abs(r.tr - r.tl)) for r in out.itertuples()}
    # scalar reference: nearest |tr - tl| per key, ties backward
    for i in range(nl):
        cand = rt_[rk == lk[i]]
        if len(cand) == 0:
            assert i not in got
            continue
        dist = np.abs(cand.astype(np.int64) - int(lt_[i]))
        best = dist.min()
        assert i in got
        assert got[i][1] == best
        # ties prefer backward (tr <= tl)
        winners = cand[dist == best]
        if len(np.unique(winners)) > 1 and (winners <= lt_[i]).any():
            assert got[i][0] <= lt_[i]


def test_asof_join_nearest_int64_extremes(ray_session, shuffle_joins,
                                          many_buckets):
    from geobuf_ray.functions.join import asof_join

    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    left = pa.table({"k": pa.array([1, 1], pa.int64()),
                     "tl": pa.array([lo + 2, hi - 2], pa.int64()),
                     "lv": pa.array([0, 1], pa.int64())})
    right = pa.table({"k": pa.array([1, 1], pa.int64()),
                      "tr": pa.array([lo, hi], pa.int64()),
                      "rv": pa.array([10, 11], pa.int64())})
    with many_buckets(8):
        out = asof_join(
            _ds(left, 1), _ds(right, 1),
            on="k", left_time="tl", right_time="tr",
            direction="nearest").to_pandas() \
            .sort_values("lv")
    # each left row's nearest is its own end of the domain; a
    # wrapped/float distance would cross the whole range and pick wrong
    assert out["rv"].tolist() == [10, 11]


@pytest.mark.parametrize("bin_width", [1, 7, 64, 100000])
def test_interval_overlap_join_vs_brute_force(ray_session, bin_width):
    from geobuf_ray.functions.join import interval_overlap_join

    rng = np.random.default_rng(31 + bin_width)
    na, nb = 300, 250
    alo = rng.integers(-500, 500, na)
    ahi = alo + rng.integers(0, 120, na)      # zero-length allowed
    blo = rng.integers(-500, 500, nb)
    bhi = blo + rng.integers(0, 120, nb)
    a = pa.table({"aid": pa.array(np.arange(na), pa.int64()),
                  "alo": pa.array(alo, pa.int64()),
                  "ahi": pa.array(ahi, pa.int64())})
    b = pa.table({"bid": pa.array(np.arange(nb), pa.int64()),
                  "blo": pa.array(blo, pa.int64()),
                  "bhi": pa.array(bhi, pa.int64())})
    out = interval_overlap_join(
        _ds(a, 4), _ds(b, 3), a_lo="alo", a_hi="ahi",
        b_lo="blo", b_hi="bhi", bin_width=bin_width,
        nbuckets=4).to_pandas()
    got = list(zip(out["aid"], out["bid"]))
    assert len(got) == len(set(got)), "pair emitted more than once"
    want = {(i, j) for i in range(na) for j in range(nb)
            if alo[i] <= bhi[j] and blo[j] <= ahi[i]}
    assert set(got) == want
    assert len(want) > 1000


def test_interval_overlap_join_touching_endpoints(ray_session):
    from geobuf_ray.functions.join import interval_overlap_join

    # closed-interval semantics: [0,10] and [10,20] DO overlap;
    # [0,10] and [11,20] do not
    a = pa.table({"aid": pa.array([1, 2], pa.int64()),
                  "alo": pa.array([0, 0], pa.int64()),
                  "ahi": pa.array([10, 10], pa.int64())})
    b = pa.table({"bid": pa.array([1, 2], pa.int64()),
                  "blo": pa.array([10, 11], pa.int64()),
                  "bhi": pa.array([20, 20], pa.int64())})
    out = interval_overlap_join(
        _ds(a, 1), _ds(b, 1), a_lo="alo", a_hi="ahi",
        b_lo="blo", b_hi="bhi", bin_width=4, nbuckets=2).to_pandas()
    got = sorted(zip(out["aid"], out["bid"]))
    assert got == [(1, 1), (2, 1)]


def test_broadcast_range_join_vs_shuffle_range_join(ray_session, shuffle_joins,
                                                    no_ray_groupby):
    """The two range-join regimes agree pair-for-pair on random
    overlapping intervals, and both match brute force."""
    import numpy as np
    import pyarrow as pa
    import ray

    from geobuf_ray.functions.join import broadcast_range_join, range_join

    rng = np.random.default_rng(53)
    nb, npt = 80, 5000
    lo = rng.integers(0, 10_000, nb).astype(np.int64)
    hi = lo + rng.integers(0, 3_000, nb)
    bands = pa.table({"band_id": pa.array(np.arange(nb, dtype=np.int64)),
                      "lo": pa.array(lo), "hi": pa.array(hi)})
    p = rng.integers(-500, 13_000, npt).astype(np.int64)
    pts_tbl = pa.table({"pid": pa.array(np.arange(npt, dtype=np.int64)),
                        "v": pa.array(p)})
    want = set()
    for b in range(nb):
        for i in np.flatnonzero((p >= lo[b]) & (p < hi[b])):
            want.add((int(i), b))

    pts = ray.data.from_arrow(pts_tbl).repartition(4)
    bc = broadcast_range_join(pts, bands, value="v", lo="lo", hi="hi",
                              id_cols=["band_id"]).to_pandas()
    got_bc = set(zip(bc["pid"].astype(int), bc["band_id"].astype(int)))
    assert got_bc == want

    sh = range_join(
        pts, ray.data.from_arrow(bands), value="v", lo="lo", hi="hi",
        bin_width=1000.0,
        points_schema=pa.schema([("pid", pa.int64()), ("v", pa.int64())]),
        intervals_schema=pa.schema([("band_id", pa.int64()),
                                    ("lo", pa.int64()),
                                    ("hi", pa.int64())])).to_pandas()
    got_sh = set(zip(sh["pid"].astype(int), sh["band_id"].astype(int)))
    assert got_sh == want


def test_salted_join_equals_plain(ray_session, shuffle_joins, many_buckets):
    """One key holding half the rows (the boilerplate-skew shape):
    the salted join must be row-for-row identical to the unsalted
    join for inner AND left, including left misses."""
    rng = np.random.default_rng(11)
    n = 4000
    lk = rng.integers(0, 100, n)
    lk[: n // 2] = 7                      # planted hot key
    lk[-5:] = np.arange(900, 905)         # keys absent on the right
    left = pa.table({"k": pa.array(lk, pa.int64()),
                     "lv": pa.array(np.arange(n), pa.int64())})
    rk = np.repeat(np.arange(100), 3)     # 3 right rows per key
    right = pa.table({"k": pa.array(rk, pa.int64()),
                      "rv": pa.array(np.arange(len(rk)), pa.int64())})
    for how in ("inner", "left"):
        with many_buckets(4096):
            plain = hash_join(_ds(left), _ds(right), on="k",
                              how=how).to_pandas()
            salted = hash_join(_ds(left), _ds(right), on="k", how=how,
                               hot_keys=np.array([7, 42]),
                               salt=4).to_pandas()
        key = ["k", "lv", "rv"]
        p = plain.sort_values(key).reset_index(drop=True)
        s = salted.sort_values(key).reset_index(drop=True)
        assert len(p) == len(s)
        assert p.equals(s), how


def test_detect_hot_keys_finds_planted(ray_session):
    from geobuf_ray.functions.join import detect_hot_keys

    rng = np.random.default_rng(3)
    k = rng.integers(0, 10_000, 20_000)
    k[:8000] = 77
    ds = _ds(pa.table({"k": pa.array(k, pa.int64())}), parts=8)
    hot = detect_hot_keys(ds, "k", threshold=4000)
    assert 77 in hot.tolist()
    # uniform keys (~2 rows each) must NOT qualify
    assert len(hot) == 1


def test_salted_join_rejects_unsupported(ray_session):
    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "lv": pa.array([1, 2], pa.int64())})
    right = pa.table({"k": pa.array([1, 2], pa.int64()),
                      "rv": pa.array([1, 2], pa.int64())})
    with pytest.raises(ValueError, match="inner"):
        hash_join(_ds(left, 1), _ds(right, 1), on="k", how="full",
                  hot_keys=np.array([1]))
    left2 = pa.table({"a": pa.array([1], pa.int64()),
                      "b": pa.array([1], pa.int64()),
                      "lv": pa.array([1], pa.int64())})
    right2 = pa.table({"a": pa.array([1], pa.int64()),
                       "b": pa.array([1], pa.int64()),
                       "rv": pa.array([1], pa.int64())})
    with pytest.raises(ValueError, match="single integer"):
        hash_join(_ds(left2, 1), _ds(right2, 1), on=["a", "b"],
                  hot_keys=np.array([1]))


def test_theta_join_inner_vs_duckdb(ray_session):
    import duckdb

    from geobuf_ray.functions.join import theta_join

    rng = np.random.default_rng(11)
    left = pa.table({
        "a": pa.array(rng.integers(-50, 50, 3000), pa.int64()),
        "b": pa.array(rng.integers(0, 7, 3000), pa.int64())})
    right = pa.table({
        "lo": pa.array([-60, -20, 0, 10, 30], pa.int64()),
        "hi": pa.array([-10, 15, 35, 40, 60], pa.int64()),
        "m": pa.array([0, 1, 2, 3, 4], pa.int64())})

    def pred(lt, rt):
        a = lt["a"].to_numpy(zero_copy_only=False)
        b = lt["b"].to_numpy(zero_copy_only=False)
        lo = rt["lo"].to_numpy(zero_copy_only=False)
        hi = rt["hi"].to_numpy(zero_copy_only=False)
        m = rt["m"].to_numpy(zero_copy_only=False)
        return (a >= lo) & (a < hi) & (b != m)

    # tiny chunk_cells forces the chunked cross-product path
    out = theta_join(_ds(left), right, pred, chunk_cells=16)
    got = out.to_pandas().sort_values(["a", "b", "m"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp = con.execute(
        "SELECT a, b, lo, hi, m FROM l JOIN r "
        "ON a >= lo AND a < hi AND b <> m "
        "ORDER BY a, b, m").fetchdf()
    assert len(got) == len(exp)
    assert (got[["a", "b", "lo", "hi", "m"]].values == exp.values).all()


def test_theta_join_left_null_extends(ray_session):
    import duckdb

    from geobuf_ray.functions.join import theta_join

    rng = np.random.default_rng(12)
    left = pa.table({
        "a": pa.array(rng.integers(0, 100, 800), pa.int64()),
        "id": pa.array(np.arange(800), pa.int64())})
    right = pa.table({
        "lo": pa.array([10, 40], pa.int64()),
        "hi": pa.array([20, 55], pa.int64())})

    def pred(lt, rt):
        a = lt["a"].to_numpy(zero_copy_only=False)
        return (a >= rt["lo"].to_numpy(zero_copy_only=False)) & \
               (a < rt["hi"].to_numpy(zero_copy_only=False))

    out = theta_join(_ds(left), right, pred, how="left", chunk_cells=32)
    got = out.to_pandas().sort_values(
        ["id", "lo"], na_position="last").reset_index(drop=True)
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp = con.execute(
        "SELECT id, a, lo, hi FROM l LEFT JOIN r ON a >= lo AND a < hi "
        "ORDER BY id, lo NULLS LAST").fetchdf()
    assert len(got) == len(exp)
    assert (got["id"].values == exp["id"].values).all()
    assert got["lo"].isna().equals(exp["lo"].isna())
    ok = ~got["lo"].isna()
    assert (got.loc[ok, "lo"].values == exp.loc[ok, "lo"].values).all()


def test_theta_join_empty_right(ray_session):
    from geobuf_ray.functions.join import theta_join

    left = pa.table({"a": pa.array([1, 2, 3], pa.int64())})
    right = pa.table({"lo": pa.array([], pa.int64())})

    def pred(lt, rt):
        return np.ones(lt.num_rows, bool)

    assert theta_join(_ds(left, 2), right, pred).count() == 0
    out = theta_join(_ds(left, 2), right, pred, how="left").to_pandas()
    assert len(out) == 3 and out["lo"].isna().all()


def test_broadcast_asof_matches_exchange_asof(ray_session, shuffle_joins,
                                              many_buckets):
    from geobuf_ray.functions.join import asof_join, broadcast_asof_join

    rng = np.random.default_rng(21)
    left = pa.table({
        "k": pa.array(rng.integers(0, 25, 3000), pa.int64()),
        "t": pa.array(rng.integers(0, 10**6, 3000), pa.int64()),
        "lv": pa.array(np.arange(3000), pa.int64())})
    right = pa.table({
        "k": pa.array(rng.integers(0, 25, 400), pa.int64()),
        "t": pa.array(rng.integers(0, 10**6, 400), pa.int64()),
        "rv": pa.array(np.arange(400), pa.int64())})
    for direction in ("backward", "forward", "nearest"):
        got = broadcast_asof_join(
            _ds(left), right, "k", left_time="t", right_time="t",
            direction=direction).to_pandas() \
            .sort_values(["k", "t", "lv"]).reset_index(drop=True)
        with many_buckets(4096):
            exp = asof_join(_ds(left), _ds(right), "k", left_time="t",
                            right_time="t", direction=direction) \
                .to_pandas().sort_values(["k", "t", "lv"]) \
                .reset_index(drop=True)
        assert len(got) == len(exp), direction
        assert (got[["k", "t", "lv", "rv"]].values
                == exp[["k", "t", "lv", "rv"]].values).all(), direction


def test_broadcast_asof_nulls_and_duckdb(ray_session):
    import duckdb

    from geobuf_ray.functions.join import broadcast_asof_join

    left = pa.table({
        "k": pa.array([1, 1, None, 2], pa.int64()),
        "t": pa.array([10, 5, 7, None], pa.int64()),
        "lv": pa.array([0, 1, 2, 3], pa.int64())})
    right = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "t": pa.array([4, 9, None], pa.int64()),
        "rv": pa.array([100, 200, 300], pa.int64())})
    got = broadcast_asof_join(_ds(left, 2), right, "k",
                              left_time="t", right_time="t") \
        .to_pandas().sort_values("lv").reset_index(drop=True)
    # lv=0 (t=10) -> rv=200; lv=1 (t=5) -> rv=100; null key/time drop;
    # right null-time row matches nothing
    assert got["lv"].tolist() == [0, 1]
    assert got["rv"].tolist() == [200, 100]
    # DuckDB cross-check on the non-null domain (its ASOF matches
    # null-time right rows; this engine pins NULLs-match-nothing,
    # proven identical to the exchange asof above)
    con = duckdb.connect()
    con.register("l", left); con.register("r", right)
    exp = con.execute(
        "SELECT lv, rv FROM l ASOF JOIN r "
        "ON l.k = r.k AND l.t >= r.t "
        "WHERE l.k IS NOT NULL AND l.t IS NOT NULL "
        "AND r.t IS NOT NULL ORDER BY lv").fetchdf()
    assert got["rv"].tolist() == exp["rv"].tolist()


def test_broadcast_asof_empty_and_all_null_right(ray_session):
    from geobuf_ray.functions.join import broadcast_asof_join

    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "t": pa.array([5, 6], pa.int64())})
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "t": pa.array([], pa.int64()),
                      "rv": pa.array([], pa.int64())})
    for d in ("backward", "forward", "nearest"):
        out = broadcast_asof_join(_ds(left, 2), empty, "k",
                                  left_time="t", right_time="t",
                                  direction=d)
        assert out.count() == 0, d
    allnull = pa.table({"k": pa.array([1], pa.int64()),
                        "t": pa.array([None], pa.int64()),
                        "rv": pa.array([9], pa.int64())})
    out = broadcast_asof_join(_ds(left, 2), allnull, "k",
                              left_time="t", right_time="t",
                              direction="nearest")
    assert out.count() == 0
