"""Outer joins, semi/anti joins, set ops, moving/rank windows vs DuckDB."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _ds(tbl, parts=4):
    import ray

    return ray.data.from_arrow(tbl).repartition(parts)


def _rand_sides(seed, n_l=2000, n_r=600, keyspace=150, with_nulls=True):
    rng = np.random.default_rng(seed)
    lk = rng.integers(0, keyspace, n_l).astype(np.int64)
    rk = rng.integers(0, keyspace, n_r).astype(np.int64)
    left = pa.table({
        "k": pa.array(pd.Series(lk).mask(
            rng.random(n_l) < (0.05 if with_nulls else 0)), pa.int64()),
        "lv": pa.array(rng.integers(0, 10**6, n_l), pa.int64())})
    right = pa.table({
        "k": pa.array(pd.Series(rk).mask(
            rng.random(n_r) < (0.05 if with_nulls else 0)), pa.int64()),
        "rv": pa.array(rng.integers(0, 10**6, n_r), pa.int64())})
    return left, right


def _canon(df, cols):
    return (df[cols].sort_values(cols).reset_index(drop=True)
            .astype("float64"))


def test_full_and_right_join_vs_duckdb(ray_session, shuffle_joins,
                                       many_buckets):
    import duckdb

    from geobuf_ray.functions.join import hash_join

    left, right = _rand_sides(11, keyspace=120)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for how, sql_kw in [("full", "FULL"), ("right", "RIGHT")]:
        with many_buckets(4096):
            out = hash_join(_ds(left), _ds(right), on="k",
                            how=how).to_pandas()
        exp = con.execute(
            f"SELECT COALESCE(l.k, r.k) AS k, lv, rv "
            f"FROM l {sql_kw} JOIN r ON l.k = r.k").fetchdf()
        # our USING-style output puts the right key into k on right-miss
        # rows; null-key right rows keep k NULL on both sides
        a = _canon(out, ["k", "lv", "rv"])
        b = _canon(exp, ["k", "lv", "rv"])
        assert len(a) == len(b), how
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_full_join_string_keys_collision_verify(ray_session, shuffle_joins,
                                                many_buckets):
    import duckdb

    from geobuf_ray.functions.join import hash_join

    rng = np.random.default_rng(3)
    keys = np.array([f"key_{i}" for i in range(40)])
    left = pa.table({"k": pa.array(keys[rng.integers(0, 40, 300)]),
                     "lv": pa.array(np.arange(300), pa.int64())})
    right = pa.table({"k": pa.array(
        np.concatenate([keys[rng.integers(20, 40, 80)],
                        np.array(["only_right_1", "only_right_2"])])),
        "rv": pa.array(np.arange(82), pa.int64())})
    with many_buckets(4096):
        out = hash_join(_ds(left, 3), _ds(right, 3), on="k",
                        how="full").to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp = con.execute(
        "SELECT COALESCE(l.k, r.k) AS k, lv, rv FROM l FULL JOIN r "
        "ON l.k = r.k").fetchdf()
    for df in (out, exp):
        df["k"] = df["k"].fillna("<null>")
    a = out.sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    b = exp.sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a[["k", "lv", "rv"]],
                                  b[["k", "lv", "rv"]], check_dtype=False)


def test_semi_anti_join_vs_duckdb(ray_session, many_buckets):
    import duckdb

    from geobuf_ray.functions.join import anti_join, semi_join

    left, right = _rand_sides(7, keyspace=400)  # many left-only keys
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    with many_buckets(4096):
        semi = semi_join(_ds(left), _ds(right), on="k").to_pandas()
    exp_semi = con.execute(
        "SELECT k, lv FROM l WHERE EXISTS "
        "(SELECT 1 FROM r WHERE r.k = l.k)").fetchdf()
    pd.testing.assert_frame_equal(_canon(semi, ["k", "lv"]),
                                  _canon(exp_semi, ["k", "lv"]),
                                  check_dtype=False)
    with many_buckets(4096):
        anti = anti_join(_ds(left), _ds(right), on="k").to_pandas()
    exp_anti = con.execute(
        "SELECT k, lv FROM l WHERE NOT EXISTS "
        "(SELECT 1 FROM r WHERE r.k = l.k)").fetchdf()
    assert len(semi) + len(anti) == left.num_rows
    pd.testing.assert_frame_equal(_canon(anti, ["k", "lv"]),
                                  _canon(exp_anti, ["k", "lv"]),
                                  check_dtype=False)


def test_semi_join_string_right_on(ray_session, many_buckets):
    from geobuf_ray.functions.join import semi_join

    left = pa.table({"name": pa.array(["a", "b", "c", None, "d"]),
                     "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    right = pa.table({"other": pa.array(["b", "d", "zz"]),
                      "junk": pa.array([0, 0, 0], pa.int64())})
    with many_buckets(8):
        out = semi_join(_ds(left, 2), _ds(right, 2), on="name",
                        right_on="other").to_pandas()
    assert sorted(out["name"].tolist()) == ["b", "d"]
    # anti keeps the NULL-key row (NOT EXISTS semantics)
    from geobuf_ray.functions.join import anti_join

    with many_buckets(8):
        anti = anti_join(_ds(left, 2), _ds(right, 2), on="name",
                         right_on="other").to_pandas()
    assert sorted(anti["v"].tolist()) == [1, 3, 4]


def test_setops_vs_duckdb(ray_session, many_buckets):
    import duckdb

    from geobuf_ray.functions.setops import except_distinct, \
        intersect_distinct

    rng = np.random.default_rng(9)
    mk = lambda seed_off, n: pa.table({  # noqa: E731
        "a": pa.array(pd.Series(rng.integers(0, 12, n)).mask(
            rng.random(n) < 0.1), pa.int64()),
        "b": pa.array(np.array(["x", "y", "z"])[rng.integers(0, 3, n)]),
    })
    left, right = mk(0, 900), mk(1, 700)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)

    with many_buckets(4096):
        inter = intersect_distinct(_ds(left), _ds(right)).to_pandas()
    exp = con.execute("SELECT a, b FROM l INTERSECT "
                      "SELECT a, b FROM r").fetchdf()
    key = lambda df: sorted(  # noqa: E731
        (("N" if pd.isna(a) else f"{int(a):05d}"), b) for a, b in df.values)
    assert key(inter) == key(exp)

    with many_buckets(4096):
        exc = except_distinct(_ds(left), _ds(right)).to_pandas()
    exp2 = con.execute("SELECT a, b FROM l EXCEPT "
                       "SELECT a, b FROM r").fetchdf()
    assert key(exc) == key(exp2)


def test_setops_all_vs_duckdb(ray_session, many_buckets):
    import duckdb

    from geobuf_ray.functions.setops import except_all, intersect_all

    rng = np.random.default_rng(21)
    mk = lambda n: pa.table({  # noqa: E731
        "a": pa.array(pd.Series(rng.integers(0, 8, n)).mask(
            rng.random(n) < 0.1), pa.int64()),
        "b": pa.array(np.array(["x", "y"])[rng.integers(0, 2, n)]),
    })
    left, right = mk(900), mk(700)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    key = lambda df: sorted(  # noqa: E731
        (("N" if pd.isna(a) else f"{int(a):05d}"), b) for a, b in df.values)

    with many_buckets(4096):
        inter = intersect_all(_ds(left), _ds(right)).to_pandas()
    exp = con.execute("SELECT a, b FROM l INTERSECT ALL "
                      "SELECT a, b FROM r").fetchdf()
    assert key(inter) == key(exp) and len(inter) > 0

    with many_buckets(4096):
        exc = except_all(_ds(left), _ds(right)).to_pandas()
    exp2 = con.execute("SELECT a, b FROM l EXCEPT ALL "
                       "SELECT a, b FROM r").fetchdf()
    assert key(exc) == key(exp2) and len(exc) > 0

    # empty right: INTERSECT ALL empties, EXCEPT ALL passes the bag
    empty = left.slice(0, 0)
    with many_buckets(4096):
        assert intersect_all(_ds(left), _ds(empty)).count() == 0
        assert except_all(_ds(left), _ds(empty)).count() == len(left)


def test_range_moving_agg_vs_duckdb(ray_session, many_buckets):
    import duckdb

    from geobuf_ray.functions.window import range_moving_agg

    rng = np.random.default_rng(33)
    n = 3000
    # duplicate times on purpose: RANGE frames include AFTER-sorting
    # peers, the semantic ROWS frames can't express
    tbl = pa.table({
        "rid": pa.array(np.arange(n, dtype=np.int64)),
        "k": pa.array(rng.integers(0, 40, n), pa.int64()),
        "t": pa.array(rng.integers(0, 500, n), pa.int64()),
        "v": pa.array(rng.integers(-50, 100, n), pa.int64()),
    })
    with many_buckets():
        out = range_moving_agg(_ds(tbl, 6), key="k", order="t",
                               value="v", span=25).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute("""
        SELECT rid, CAST(SUM(v) OVER w AS BIGINT) AS rv_sum,
               COUNT(*) OVER w AS rv_n
        FROM t WINDOW w AS (PARTITION BY k ORDER BY t
                            RANGE BETWEEN 25 PRECEDING AND CURRENT ROW)
    """).fetchdf()
    got = out.sort_values("rid").reset_index(drop=True)
    exp = exp.sort_values("rid").reset_index(drop=True)
    assert got["rv_sum"].tolist() == exp["rv_sum"].tolist()
    assert got["rv_n"].tolist() == exp["rv_n"].tolist()


def test_range_moving_agg_int64_extremes(ray_session, many_buckets):
    # t - span saturates at INT64_MIN instead of wrapping: rows near
    # the bottom of the int64 domain must still see their peers
    from geobuf_ray.functions.window import range_moving_agg

    lo = np.iinfo(np.int64).min
    hi = np.iinfo(np.int64).max
    tbl = pa.table({
        "rid": pa.array(np.arange(6, dtype=np.int64)),
        "k": pa.array(np.zeros(6, np.int64)),
        "t": pa.array(np.array([lo, lo + 1, lo + 10, hi - 1, hi, hi],
                               np.int64)),
        "v": pa.array(np.ones(6, np.int64)),
    })
    with many_buckets(8):
        out = range_moving_agg(_ds(tbl, 2), key="k", order="t",
                               value="v", span=5).to_pandas() \
            .sort_values("rid")
    # frames: [lo]=1, [lo,lo+1]=2, [lo+10 alone]=1 (lo+1 is 9 away? no:
    # lo+10-5=lo+5 > lo+1 -> alone), [hi-1]=1, [hi-1,hi,hi]=3 twice
    assert out["rv_sum"].tolist() == [1, 2, 1, 1, 3, 3]
    assert out["rv_n"].tolist() == [1, 2, 1, 1, 3, 3]
    # span larger than the whole domain: every prior row is in-frame
    with many_buckets(8):
        out2 = range_moving_agg(_ds(tbl, 2), key="k", order="t",
                                value="v", span=hi).to_pandas() \
            .sort_values("rid")
    # t=lo+10: target saturates to INT64_MIN -> all three low rows
    assert out2["rv_n"].tolist()[2] == 3


def test_moving_agg_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.window import moving_agg

    rng = np.random.default_rng(4)
    n = 6000
    tbl = pa.table({
        "u": pa.array(rng.integers(0, 250, n), pa.int64()),
        "t": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(pd.Series(rng.integers(0, 100, n)).mask(
            rng.random(n) < 0.05), pa.int64()),
    })
    with many_buckets():
        out = moving_agg(ray.data.from_arrow(tbl).repartition(5), key="u",
                         order="t", value="v", window=4).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute(
        "SELECT u, t, v, COALESCE(SUM(v) OVER w, 0) AS mv_sum, "
        "COUNT(*) OVER w AS mv_n FROM t WINDOW w AS (PARTITION BY u "
        "ORDER BY t ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)").fetchdf()
    cols = ["u", "t", "mv_sum", "mv_n"]
    a = out.sort_values(["u", "t"]).reset_index(drop=True)[cols]
    b = exp.sort_values(["u", "t"]).reset_index(drop=True)[cols]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_stratified_sample_deterministic(ray_session, many_buckets):
    import ray

    from geobuf_ray.functions.sample import stratified_sample

    rng = np.random.default_rng(21)
    n = 5000
    tbl = pa.table({
        "g": pa.array(rng.integers(0, 40, n), pa.int64()),
        "id": pa.array(rng.permutation(10 * n)[:n].astype(np.int64)),
        "v": pa.array(rng.normal(0, 1, n)),
    })
    ds = ray.data.from_arrow(tbl)
    a = stratified_sample(ds.repartition(4), key="g", id_col="id",
                          n_per_key=5).to_pandas()
    # chunking-independent: different partitioning, same sample
    with many_buckets():
        b = stratified_sample(ds.repartition(9), key="g", id_col="id",
                              n_per_key=5).to_pandas()
    ka = a.sort_values(["g", "id"]).reset_index(drop=True)
    kb = b.sort_values(["g", "id"]).reset_index(drop=True)
    assert (ka[["g", "id"]].values == kb[["g", "id"]].values).all()
    cnt = a.groupby("g").size()
    full = tbl.to_pandas().groupby("g").size()
    assert (cnt == np.minimum(full.loc[cnt.index], 5)).all()
    assert set(cnt.index) == set(full.index)


def test_rollup_agg_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.agg import rollup_agg

    rng = np.random.default_rng(12)
    n = 4000
    tbl = pa.table({
        "a": pa.array(np.array(["p", "q", "r"])[rng.integers(0, 3, n)]),
        "b": pa.array(rng.integers(0, 4, n), pa.int64()),
        "v": pa.array(pd.Series(rng.integers(0, 50, n)).mask(
            rng.random(n) < 0.08), pa.int64()),
    })
    with many_buckets(16):
        out = rollup_agg(ray.data.from_arrow(tbl).repartition(4),
                         ["a", "b"], {"sv": "v"},
                         count_col="cnt").to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute(
        "SELECT a, b, CAST(COALESCE(SUM(v), 0) AS BIGINT) AS sv, "
        "COUNT(*) AS cnt FROM t GROUP BY ROLLUP(a, b)").fetchdf()
    canon = lambda df: df.assign(  # noqa: E731
        a=df["a"].fillna("<T>"), b=df["b"].fillna(-1).astype(int)
    ).sort_values(["a", "b"]).reset_index(drop=True)[
        ["a", "b", "sv", "cnt"]]
    a, b = canon(out), canon(exp)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_grouping_sets_cube_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.agg import cube_agg, grouping_sets_agg

    rng = np.random.default_rng(13)
    n = 4000
    tbl = pa.table({
        "a": pa.array(np.array(["p", "q", "r"])[rng.integers(0, 3, n)]),
        "b": pa.array(rng.integers(0, 4, n), pa.int64()),
        "v": pa.array(pd.Series(rng.integers(0, 50, n)).mask(
            rng.random(n) < 0.08), pa.int64()),
    })
    ds = ray.data.from_arrow(tbl).repartition(4)
    con = duckdb.connect()
    con.register("t", tbl)

    canon = lambda df: df.assign(  # noqa: E731
        a=df["a"].fillna("<T>"), b=df["b"].fillna(-1).astype(int)
    ).sort_values(["a", "b", "sv", "cnt"]).reset_index(drop=True)[
        ["a", "b", "sv", "cnt"]]

    with many_buckets(16):
        out = cube_agg(ds, ["a", "b"], {"sv": "v"},
                       count_col="cnt").to_pandas()
    exp = con.execute(
        "SELECT a, b, CAST(COALESCE(SUM(v), 0) AS BIGINT) AS sv, "
        "COUNT(*) AS cnt FROM t GROUP BY CUBE(a, b)").fetchdf()
    a, b = canon(out), canon(exp)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)

    # non-hierarchical sets (b-only is not a prefix) + duplicate set
    with many_buckets(16):
        out = grouping_sets_agg(ds, [["b"], ["a", "b"], ["b"]],
                                {"sv": "v"}, count_col="cnt").to_pandas()
    exp = con.execute(
        "SELECT a, b, CAST(COALESCE(SUM(v), 0) AS BIGINT) AS sv, "
        "COUNT(*) AS cnt FROM t "
        "GROUP BY GROUPING SETS ((b), (a, b), (b))").fetchdf()
    a, b = canon(out), canon(exp)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_pivot_agg_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.agg import pivot_agg

    rng = np.random.default_rng(14)
    n = 6000
    tbl = pa.table({
        "g": pa.array(rng.integers(0, 50, n), pa.int64()),
        # includes a value OUTSIDE the pivot list ("z" -> dropped)
        "p": pa.array(np.array(["x", "y", "z"])[rng.integers(0, 3, n)]),
        "v": pa.array(pd.Series(rng.integers(0, 100, n)).mask(
            rng.random(n) < 0.05), pa.int64()),
    })
    with many_buckets():
        out = pivot_agg(ray.data.from_arrow(tbl).repartition(5),
                        index="g", pivot="p", value="v",
                        values=["x", "y"], prefix="v_",
                        count_suffix="_n").to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute("""
        SELECT g,
               CAST(COALESCE(SUM(CASE WHEN p='x' THEN COALESCE(v,0) END), 0)
                    AS BIGINT) AS v_x,
               COUNT(CASE WHEN p='x' THEN 1 END) AS v_x_n,
               CAST(COALESCE(SUM(CASE WHEN p='y' THEN COALESCE(v,0) END), 0)
                    AS BIGINT) AS v_y,
               COUNT(CASE WHEN p='y' THEN 1 END) AS v_y_n
        FROM t GROUP BY g""").fetchdf()
    a = out.sort_values("g").reset_index(drop=True)
    b = exp.sort_values("g").reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_moments_agg_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.agg import moments_agg

    rng = np.random.default_rng(15)
    n = 8000
    tbl = pa.table({
        "g": pa.array(rng.integers(0, 40, n), pa.int64()),
        "v": pa.array(pd.Series(rng.integers(-500, 500, n)).mask(
            rng.random(n) < 0.04), pa.int64()),
    })
    with many_buckets():
        out = moments_agg(ray.data.from_arrow(tbl).repartition(6),
                          ["g"], "v").to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute("""
        SELECT g, COUNT(v) AS n,
               CAST(COALESCE(SUM(v), 0) AS BIGINT) AS sum_v,
               CAST(COALESCE(SUM(v*v), 0) AS BIGINT) AS sumsq_v,
               MIN(v) AS min_v, MAX(v) AS max_v,
               CAST(COUNT(v)*COALESCE(SUM(v*v),0)
                    - COALESCE(SUM(v),0)*COALESCE(SUM(v),0) AS BIGINT)
                   AS var_num,
               AVG(v) AS mean, STDDEV_SAMP(v) AS stddev_samp
        FROM t GROUP BY g""").fetchdf()
    a = out.sort_values("g").reset_index(drop=True)
    b = exp.sort_values("g").reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                  check_exact=False, rtol=1e-12)


def test_unpivot_vs_duckdb(ray_session):
    import duckdb
    import ray

    from geobuf_ray.functions.agg import unpivot

    rng = np.random.default_rng(16)
    n = 3000
    tbl = pa.table({
        "id": pa.array(np.arange(n), pa.int64()),
        "a": pa.array(pd.Series(rng.integers(0, 100, n)).mask(
            rng.random(n) < 0.1), pa.int64()),
        "b": pa.array(rng.integers(-50, 50, n), pa.int64()),
    })
    out = unpivot(ray.data.from_arrow(tbl).repartition(5),
                  id_cols=["id"], value_cols=["a", "b"]).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute("""
        SELECT id, 'a' AS measure, a AS value FROM t WHERE a IS NOT NULL
        UNION ALL
        SELECT id, 'b', b FROM t""").fetchdf()
    a = out.sort_values(["id", "measure"]).reset_index(drop=True)
    b = exp.sort_values(["id", "measure"]).reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_mode_agg_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.agg import mode_agg

    rng = np.random.default_rng(19)
    n = 9000
    # tiny value domain -> guaranteed cross-group ties exercising the
    # smallest-value tie-break; nulls ignored; string + int variants
    tbl = pa.table({
        "g": pa.array(rng.integers(0, 30, n), pa.int64()),
        "v": pa.array(pd.Series(rng.integers(0, 6, n)).mask(
            rng.random(n) < 0.08), pa.int64()),
        "s": pa.array(np.array(["aa", "bb", "cc"])[rng.integers(0, 3, n)]),
    })
    con = duckdb.connect()
    con.register("t", tbl)
    for val in ["v", "s"]:
        with many_buckets():
            out = mode_agg(ray.data.from_arrow(tbl).repartition(7),
                           ["g"], val).to_pandas()
        exp = con.execute(f"""
            SELECT g, mode, mode_n FROM (
                SELECT g, {val} AS mode, COUNT(*) AS mode_n,
                       ROW_NUMBER() OVER (PARTITION BY g
                           ORDER BY COUNT(*) DESC, {val} ASC) AS rn
                FROM t WHERE {val} IS NOT NULL GROUP BY g, {val}) q
            WHERE rn = 1""").fetchdf()
        a = out.sort_values("g").reset_index(drop=True)
        b = exp.sort_values("g").reset_index(drop=True)[a.columns]
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # global mode (no keys)
    out = mode_agg(ray.data.from_arrow(tbl).repartition(7),
                   [], "v").to_pandas()
    exp = con.execute("""
        SELECT v AS mode, COUNT(*) AS mode_n FROM t
        WHERE v IS NOT NULL GROUP BY v
        ORDER BY mode_n DESC, mode ASC LIMIT 1""").fetchdf()
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  exp[out.columns], check_dtype=False)


def _brute_skyline(mat: np.ndarray) -> np.ndarray:
    """O(n^2) reference dominance check, all-max orientation."""
    n = len(mat)
    keep = np.ones(n, bool)
    for i in range(n):
        dom = (mat >= mat[i]).all(axis=1) & (mat > mat[i]).any(axis=1)
        if dom.any():
            keep[i] = False
    return keep


def test_skyline_vs_bruteforce(ray_session):
    import ray

    from geobuf_ray.functions.skyline import skyline

    rng = np.random.default_rng(17)
    for d, n in [(2, 4000), (3, 1500)]:
        # small integer domain -> many exact duplicates + heavy ties
        mat = rng.integers(0, 30, (n, d)).astype(np.int64)
        cols = {f"c{j}": pa.array(mat[:, j]) for j in range(d)}
        cols["id"] = pa.array(np.arange(n, dtype=np.int64))
        tbl = pa.table(cols)
        out = skyline(ray.data.from_arrow(tbl).repartition(6),
                      [f"c{j}" for j in range(d)]).to_pandas()
        exp_ids = np.flatnonzero(_brute_skyline(mat))
        assert sorted(out["id"]) == sorted(exp_ids)


def test_skyline_directions_and_nulls(ray_session):
    import ray

    from geobuf_ray.functions.skyline import skyline

    rng = np.random.default_rng(18)
    n = 2000
    mat = rng.integers(-100, 100, (n, 2)).astype(np.int64)
    tbl = pa.table({
        "x": pa.array(pd.Series(mat[:, 0]).mask(rng.random(n) < 0.05),
                      pa.int64()),
        "y": pa.array(mat[:, 1]),
        "id": pa.array(np.arange(n, dtype=np.int64))})
    out = skyline(ray.data.from_arrow(tbl).repartition(4),
                  ["x", "y"], directions=["min", "max"]).to_pandas()
    valid = tbl["x"].is_valid().to_numpy(zero_copy_only=False)
    sub = np.column_stack([-mat[valid, 0], mat[valid, 1]])
    exp_ids = np.arange(n)[valid][_brute_skyline(sub)]
    assert sorted(out["id"]) == sorted(exp_ids)


def test_rank_window_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.window import rank_window

    rng = np.random.default_rng(6)
    n = 5000
    tbl = pa.table({
        "u": pa.array(rng.integers(0, 200, n), pa.int64()),
        "s": pa.array(rng.integers(0, 12, n), pa.int64()),  # heavy ties
        "id": pa.array(np.arange(n), pa.int64()),
    })
    with many_buckets():
        out = rank_window(ray.data.from_arrow(tbl).repartition(5),
                          key="u", order="s").to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute(
        "SELECT id, RANK() OVER w AS rnk, DENSE_RANK() OVER w AS drnk "
        "FROM t WINDOW w AS (PARTITION BY u ORDER BY s)").fetchdf()
    a = out.sort_values("id").reset_index(drop=True)
    b = exp.sort_values("id").reset_index(drop=True)
    assert (a["rnk"].values == b["rnk"].values).all()
    assert (a["drnk"].values == b["drnk"].values).all()


def test_percent_rank_cume_dist_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.window import rank_window

    rng = np.random.default_rng(8)
    n = 3000
    tbl = pa.table({
        "u": pa.array(rng.integers(0, 150, n), pa.int64()),
        "s": pa.array(rng.integers(0, 9, n), pa.int64()),
        "id": pa.array(np.arange(n), pa.int64()),
    })
    with many_buckets():
        out = rank_window(ray.data.from_arrow(tbl).repartition(4),
                          key="u", order="s", percent=True).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute(
        "SELECT id, PERCENT_RANK() OVER w AS pct_rank, "
        "CUME_DIST() OVER w AS cume_dist "
        "FROM t WINDOW w AS (PARTITION BY u ORDER BY s)").fetchdf()
    a = out.sort_values("id").reset_index(drop=True)
    b = exp.sort_values("id").reset_index(drop=True)
    assert np.allclose(a["pct_rank"].values, b["pct_rank"].values,
                       rtol=0, atol=0)
    assert np.allclose(a["cume_dist"].values, b["cume_dist"].values,
                       rtol=0, atol=0)


def test_distinct_agg_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import pandas as pd
    import ray

    from geobuf_ray.functions.agg import distinct_agg

    rng = np.random.default_rng(23)
    n = 9000
    # NULL values sprinkled in (COUNT DISTINCT ignores them); every
    # group keeps at least one non-null value so the SQL twin emits
    # the same group set
    v = rng.integers(0, 40, n).astype(np.float64)
    tbl = pa.table({"k": pa.array(rng.integers(0, 97, n)),
                    "v": pa.array(v, mask=rng.random(n) < 0.05)})
    ds = ray.data.from_arrow(tbl).repartition(6)
    with many_buckets():
        out = distinct_agg(ds, ["k"], "v", out_col="nd").to_pandas()
    con = duckdb.connect()
    con.register("t", tbl.to_pandas())
    exp = con.execute(
        "SELECT k, COUNT(DISTINCT v) AS nd FROM t "
        "WHERE v IS NOT NULL GROUP BY k").df()
    a = out.sort_values("k").reset_index(drop=True)
    b = exp.sort_values("k").reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # global (no keys) variant
    g = distinct_agg(ds, [], "v", out_col="nd").to_pandas()
    eg = con.execute("SELECT COUNT(DISTINCT v) AS nd FROM t").df()
    assert int(g.nd.iloc[0]) == int(eg.nd.iloc[0])


def test_distinct_agg_null_keys_group(ray_session, many_buckets):
    import ray

    from geobuf_ray.functions.agg import distinct_agg

    tbl = pa.table({"k": pa.array([1, 1, None, None, 2]),
                    "v": pa.array([10, 10, 5, 7, None])})
    with many_buckets(8):
        out = distinct_agg(ray.data.from_arrow(tbl), ["k"], "v",
                           out_col="nd").to_pandas()
    got = {(None if pd_isna(r.k) else int(r.k)): int(r.nd)
           for r in out.itertuples()}
    # group 2's only value is NULL -> group absent (documented caveat)
    assert got == {1: 1, None: 2}


def pd_isna(x):
    import pandas as pd
    return pd.isna(x)


def test_group_quantile_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.agg import group_quantile

    rng = np.random.default_rng(31)
    n = 11000
    tbl = pa.table({
        "k": pa.array(rng.integers(0, 60, n)),
        "v": pa.array(rng.integers(-500, 500, n).astype(np.float64),
                      mask=rng.random(n) < 0.03),
    })
    ds = ray.data.from_arrow(tbl).repartition(6)
    qs = {"p10": 0.125, "p50": 0.5, "p90": 0.875, "pmin": 0.0,
          "pmax": 1.0}
    with many_buckets():
        out = group_quantile(ds, ["k"], "v", qs).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl.to_pandas())
    exp = con.execute(
        "SELECT k, quantile_disc(v, 0.125) AS p10, "
        "quantile_disc(v, 0.5) AS p50, quantile_disc(v, 0.875) AS p90, "
        "quantile_disc(v, 0.0) AS pmin, quantile_disc(v, 1.0) AS pmax "
        "FROM t GROUP BY k").df()
    a = out.sort_values("k").reset_index(drop=True)
    b = exp.sort_values("k").reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_group_quantile_global_and_singleton(ray_session, many_buckets):
    import ray

    from geobuf_ray.functions.agg import group_quantile

    tbl = pa.table({"v": pa.array([5.0, 1.0, 3.0])})
    out = group_quantile(ray.data.from_arrow(tbl), [], "v",
                         {"med": 0.5}).to_pandas()
    assert list(out.med) == [3.0]
    one = pa.table({"k": pa.array([7]), "v": pa.array([42.0])})
    with many_buckets(8):
        o2 = group_quantile(ray.data.from_arrow(one), ["k"], "v",
                            {"p25": 0.25, "p75": 0.75}).to_pandas()
    assert list(o2.p25) == [42.0] and list(o2.p75) == [42.0]


def test_unnest_with_ordinal_and_empty_lists(ray_session):
    import ray

    from geobuf_ray.functions.listops import unnest

    tbl = pa.table({
        "id": pa.array([1, 2, 3, 4], pa.int64()),
        "xs": pa.array([[10, 20], [], None, [30]],
                       pa.list_(pa.int64())),
    })
    out = unnest(ray.data.from_arrow(tbl).repartition(2), "xs",
                 value_name="x", ordinal="pos").to_pandas()
    out = out.sort_values(["id", "pos"]).reset_index(drop=True)
    assert list(out.id) == [1, 1, 4]
    assert list(out.x) == [10, 20, 30]
    assert list(out.pos) == [1, 2, 1]


def test_collect_list_roundtrip_unnest(ray_session):
    import ray

    from geobuf_ray.functions.listops import collect_list, unnest

    rng = np.random.default_rng(41)
    n = 5000
    tbl = pa.table({
        "k": pa.array(rng.integers(0, 80, n), pa.int64()),
        "o": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })
    ds = ray.data.from_arrow(tbl).repartition(5)
    lists = collect_list(ds, ["k"], "v", order="o", out_col="vs")
    back = unnest(lists, "vs", value_name="v").to_pandas()
    a = back.sort_values(["k", "v"]).reset_index(drop=True)
    b = tbl.to_pandas()[["k", "v"]].sort_values(["k", "v"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(a[["k", "v"]], b, check_dtype=False)
    # element order within a group follows the order column
    one = lists.to_pandas()
    row = one[one.k == one.k.iloc[0]].iloc[0]
    df = tbl.to_pandas()
    exp = df[df.k == row.k].sort_values(["o", "v"]).v.tolist()
    assert list(row.vs) == exp


def test_corr_agg_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.agg import corr_agg

    rng = np.random.default_rng(47)
    n = 8000
    k = rng.integers(0, 30, n)
    x = rng.integers(0, 100, n)
    y = (3 * x + rng.integers(-50, 50, n)).astype(np.int64)
    tbl = pa.table({"k": pa.array(k), "x": pa.array(x.astype(np.int64)),
                    "y": pa.array(y)})
    with many_buckets():
        out = corr_agg(ray.data.from_arrow(tbl).repartition(6),
                       ["k"], "x", "y", corr_col="c",
                       slope_col="m").to_pandas()
    con = duckdb.connect()
    con.register("t", tbl.to_pandas())
    exp = con.execute(
        "SELECT k, corr(y, x) AS c, regr_slope(y, x) AS m "
        "FROM t GROUP BY k").df()
    a = out.sort_values("k").reset_index(drop=True)
    b = exp.sort_values("k").reset_index(drop=True)
    assert np.allclose(a.c, b.c, rtol=1e-9)
    assert np.allclose(a.m, b.m, rtol=1e-9)


def test_corr_agg_zero_variance_is_null(ray_session, many_buckets):
    import ray

    from geobuf_ray.functions.agg import corr_agg

    tbl = pa.table({"k": pa.array([1, 1, 1, 2, 2]),
                    "x": pa.array([5, 5, 5, 1, 2], pa.int64()),
                    "y": pa.array([1, 2, 3, 4, 9], pa.int64())})
    with many_buckets(8):
        out = corr_agg(ray.data.from_arrow(tbl), ["k"], "x", "y",
                       corr_col="c").to_pandas().sort_values("k")
    assert np.isnan(out.c.iloc[0])      # constant x -> NULL
    assert abs(out.c.iloc[1] - 1.0) < 1e-12


def test_group_quantile_cont_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.agg import group_quantile

    rng = np.random.default_rng(53)
    n = 9000
    tbl = pa.table({"k": pa.array(rng.integers(0, 50, n)),
                    "v": pa.array(rng.normal(0, 100, n))})
    with many_buckets():
        out = group_quantile(ray.data.from_arrow(tbl).repartition(5),
                             ["k"], "v", {"p50": 0.5, "p90": 0.9},
                             interpolate=True).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl.to_pandas())
    exp = con.execute(
        "SELECT k, quantile_cont(v, 0.5) AS p50, "
        "quantile_cont(v, 0.9) AS p90 FROM t GROUP BY k").df()
    a = out.sort_values("k").reset_index(drop=True)
    b = exp.sort_values("k").reset_index(drop=True)[a.columns]
    # bit-equality expected (same interpolation shape)
    assert (a.p50.to_numpy() == b.p50.to_numpy()).all()
    assert (a.p90.to_numpy() == b.p90.to_numpy()).all()


def test_weighted_sample_k1_proportional(ray_session):
    import ray

    from geobuf_ray.functions.sample import weighted_sample

    # 4 items with weights 1,2,3,4: over many seeds the k=1 pick
    # frequency converges to w/sum(w) (exact for k=1 under A-Res)
    tbl = pa.table({"id": pa.array([0, 1, 2, 3], pa.int64()),
                    "w": pa.array([1.0, 2.0, 3.0, 4.0])})
    ds = ray.data.from_arrow(tbl).repartition(2)
    counts = np.zeros(4)
    trials = 400
    for seed in range(trials):
        out = weighted_sample(ds, weight="w", k=1, id_col="id",
                              seed=seed).to_pandas()
        counts[int(out.id.iloc[0])] += 1
    freq = counts / trials
    expect = np.array([1, 2, 3, 4]) / 10.0
    assert np.abs(freq - expect).max() < 0.07, freq


def test_weighted_sample_partition_invariant(ray_session):
    import ray

    from geobuf_ray.functions.sample import weighted_sample

    rng = np.random.default_rng(71)
    n = 3000
    tbl = pa.table({"id": pa.array(np.arange(n, dtype=np.int64)),
                    "w": pa.array(rng.exponential(1.0, n) + 0.01)})
    a = weighted_sample(ray.data.from_arrow(tbl).repartition(2),
                        weight="w", k=25, id_col="id",
                        seed=7).to_pandas()
    b = weighted_sample(ray.data.from_arrow(tbl).repartition(11),
                        weight="w", k=25, id_col="id",
                        seed=7).to_pandas()
    assert sorted(a.id) == sorted(b.id)
    assert len(set(a.id)) == 25
    # zero/negative/NULL weights never qualify
    t2 = pa.table({"id": pa.array([1, 2, 3], pa.int64()),
                   "w": pa.array([0.0, -1.0, None], pa.float64())})
    out = weighted_sample(ray.data.from_arrow(t2), weight="w", k=3,
                          id_col="id", seed=1).to_pandas()
    assert len(out) == 0


def test_cohort_retention_hand_case(ray_session):
    import ray

    from geobuf_ray.functions.behavior import cohort_retention

    us_day = 86_400_000_000
    # user 1: days 0, 0 (dup), 2; user 2: days 1, 1; user 3: day 2
    rows = [(1, 0), (1, 0), (1, 2), (2, 1), (2, 1), (3, 2)]
    tbl = pa.table({
        "user_id": pa.array([u for u, _ in rows], pa.int64()),
        "ts": pa.array([d * us_day + 5 for _, d in rows],
                       pa.timestamp("us")),
    })
    out = cohort_retention(
        ray.data.from_arrow(tbl).repartition(3)).to_pandas()
    got = {(r.cohort_day, r.day_offset): r.n_users
           for r in out.itertuples()}
    assert got == {(0, 0): 1, (0, 2): 1, (1, 0): 1, (2, 0): 1}


def test_funnel_strict_ordering_and_skips(ray_session):
    import ray

    from geobuf_ray.functions.behavior import funnel_counts

    # u1 completes A->B->C; u2 has B at the SAME time as A (strict >
    # excludes it); u3 does B before A (never qualifies); u4 only A
    ev = [(1, 10, "A"), (1, 20, "B"), (1, 30, "C"),
          (2, 10, "A"), (2, 10, "B"),
          (3, 5, "B"), (3, 10, "A"),
          (4, 10, "A"), (4, 11, "C")]  # u4 skips B: C must not count
    tbl = pa.table({
        "user_id": pa.array([u for u, _, _ in ev], pa.int64()),
        "ts": pa.array([t for _, t, _ in ev], pa.timestamp("us")),
        "event_type": pa.array([s for _, _, s in ev], pa.string()),
    })
    out = funnel_counts(ray.data.from_arrow(tbl).repartition(4),
                        ["A", "B", "C"]).to_pandas()
    assert out.n_users.tolist() == [4, 1, 1]
    # partition invariance
    out2 = funnel_counts(ray.data.from_arrow(tbl).repartition(1),
                         ["A", "B", "C"]).to_pandas()
    assert out2.n_users.tolist() == [4, 1, 1]


def test_funnel_greedy_vs_duckdb_random(ray_session):
    import duckdb
    import ray

    from geobuf_ray.functions.behavior import funnel_counts

    rng = np.random.default_rng(3)
    n = 4000
    tbl = pa.table({
        "user_id": pa.array(rng.integers(0, 300, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 10_000, n), pa.timestamp("us")),
        "event_type": pa.array(
            np.array(["s", "v", "c"])[rng.integers(0, 3, n)],
            pa.string()),
    })
    out = funnel_counts(ray.data.from_arrow(tbl).repartition(5),
                        ["s", "v", "c"]).to_pandas()
    con = duckdb.connect()
    con.register("ev", tbl)
    exp = con.execute("""
        WITH s1 AS (SELECT user_id, MIN(ts) t FROM ev
                    WHERE event_type='s' GROUP BY 1),
        s2 AS (SELECT e.user_id, MIN(e.ts) t FROM ev e JOIN s1 USING(user_id)
               WHERE e.event_type='v' AND e.ts > s1.t GROUP BY 1),
        s3 AS (SELECT e.user_id, MIN(e.ts) t FROM ev e JOIN s2 USING(user_id)
               WHERE e.event_type='c' AND e.ts > s2.t GROUP BY 1)
        SELECT (SELECT COUNT(*) FROM s1), (SELECT COUNT(*) FROM s2),
               (SELECT COUNT(*) FROM s3)
    """).fetchone()
    assert out.n_users.tolist() == list(exp)


def test_interval_coalesce_hand_and_random(ray_session, many_buckets):
    import duckdb
    import ray

    from geobuf_ray.functions.window import interval_coalesce

    # hand case: overlap, touch (merges), gap, second key
    rows = [(1, 0, 10), (1, 5, 12), (1, 12, 15), (1, 20, 25),
            (2, 0, 3)]
    tbl = pa.table({"k": pa.array([r[0] for r in rows], pa.int64()),
                    "s": pa.array([r[1] for r in rows], pa.int64()),
                    "e": pa.array([r[2] for r in rows], pa.int64())})
    with many_buckets(8):
        out = interval_coalesce(ray.data.from_arrow(tbl).repartition(3),
                                key="k", start="s", end="e").to_pandas() \
            .sort_values(["k", "island_start"]).reset_index(drop=True)
    assert out.values.tolist() == [[1, 0, 15, 3], [1, 20, 25, 1],
                                   [2, 0, 3, 1]]

    # random vs DuckDB window oracle (contained intervals, ties)
    rng = np.random.default_rng(17)
    n = 5000
    s = rng.integers(0, 10_000, n)
    tbl = pa.table({
        "k": pa.array(rng.integers(0, 40, n), pa.int64()),
        "s": pa.array(s, pa.int64()),
        "e": pa.array(s + rng.integers(0, 300, n), pa.int64()),
    })
    with many_buckets():
        out = interval_coalesce(ray.data.from_arrow(tbl).repartition(6),
                                key="k", start="s", end="e").to_pandas()
    con = duckdb.connect()
    con.register("iv", tbl)
    exp = con.execute("""
        WITH m AS (SELECT *, MAX(e) OVER (PARTITION BY k ORDER BY s, e
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                     AS pmax FROM iv),
        isl AS (SELECT *, SUM(CASE WHEN pmax IS NULL OR s > pmax
                              THEN 1 ELSE 0 END) OVER (
                  PARTITION BY k ORDER BY s, e
                  ROWS UNBOUNDED PRECEDING) AS island FROM m)
        SELECT k, MIN(s) AS island_start, MAX(e) AS island_end,
               COUNT(*) AS n_intervals
        FROM isl GROUP BY k, island
    """).fetchdf()
    cols = ["k", "island_start", "island_end", "n_intervals"]
    a = out[cols].sort_values(cols).reset_index(drop=True)
    b = exp[cols].astype("int64").sort_values(cols) \
        .reset_index(drop=True)
    assert a.equals(b)


def test_zscore_outliers_exact_boundary(ray_session):
    import math

    import ray

    from geobuf_ray.functions.agg import zscore_outliers

    # engineered so some |n*x - S| lands EXACTLY on the isqrt
    # boundary: predicate must be strict (> not >=)
    vals = np.array([0, 0, 0, 0, 10], dtype=np.int64)
    tbl = pa.table({"id": pa.array(np.arange(5), pa.int64()),
                    "v": pa.array(vals)})
    n, S, Q = 5, 10, 100
    V = n * Q - S * S  # 400
    # z=2: D = |5x - 10|; x=10 -> D=40; isqrt(4*400)=40 -> NOT > -> kept out
    out = zscore_outliers(ray.data.from_arrow(tbl), "v",
                          z_num=2, z_den=1).to_pandas()
    assert len(out) == 0
    # z slightly below 2 (199/100): x=10 qualifies, x=0 does not
    out = zscore_outliers(ray.data.from_arrow(tbl), "v",
                          z_num=199, z_den=100).to_pandas()
    assert out.v.tolist() == [10]


def test_zscore_outliers_random_vs_numpy(ray_session):
    import ray

    from geobuf_ray.functions.agg import zscore_outliers

    rng = np.random.default_rng(23)
    v = rng.integers(-1000, 1000, 4000).astype(np.int64)
    v[::97] += 50_000  # plant a heavy tail
    tbl = pa.table({"id": pa.array(np.arange(len(v)), pa.int64()),
                    "v": pa.array(v)})
    out = zscore_outliers(ray.data.from_arrow(tbl).repartition(7),
                          "v", z_num=3, z_den=1).to_pandas()
    mu = v.mean()
    sd = v.std()
    expect = np.sort(tbl.to_pandas().id[np.abs(v - mu) > 3 * sd])
    assert np.array_equal(np.sort(out.id.to_numpy()), expect)


def test_histogram_exact_and_empty_bins(ray_session):
    import ray

    from geobuf_ray.functions.agg import histogram

    rng = np.random.default_rng(31)
    v = rng.integers(-50, 150, 3000).astype(np.int64)
    tbl = pa.table({"v": pa.array(v)})
    out = histogram(ray.data.from_arrow(tbl).repartition(5), "v",
                    lo=0, hi=100, nbins=10).to_pandas()
    assert len(out) == 10
    keep = v[(v >= 0) & (v < 100)]
    expect = np.bincount(keep // 10, minlength=10)
    assert out.n_rows.tolist() == expect.tolist()
    assert out.bin_lo.tolist() == list(range(0, 100, 10))
    # all-out-of-range input -> all-zero bins, still 10 rows
    t2 = pa.table({"v": pa.array([-5, 200], pa.int64())})
    out2 = histogram(ray.data.from_arrow(t2), "v",
                     lo=0, hi=100, nbins=10).to_pandas()
    assert out2.n_rows.sum() == 0 and len(out2) == 10


def test_upsert_semantics(ray_session):
    import ray

    from geobuf_ray.functions.dedup import upsert

    base = pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([10, 20, 30, 40], pa.int64()),
        "ver": pa.array([0, 0, 5, 0], pa.int64()),
    })
    upd = pa.table({
        "k": pa.array([2, 3, 5, 2], pa.int64()),
        "v": pa.array([21, 29, 50, 22], pa.int64()),
        # k=2: two update versions (1 and 2) -> keep 22@2
        # k=3: update version 4 < base 5 -> base wins
        # k=5: insert
        "ver": pa.array([1, 4, 0, 2], pa.int64()),
    })
    out = upsert(ray.data.from_arrow(base).repartition(2),
                 ray.data.from_arrow(upd).repartition(2),
                 ["k"], "ver", nbuckets=4).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert out.k.tolist() == [1, 2, 3, 4, 5]
    assert out.v.tolist() == [10, 22, 30, 40, 50]
    # version tie: updates side must win
    base2 = pa.table({"k": pa.array([9], pa.int64()),
                      "v": pa.array([1], pa.int64()),
                      "ver": pa.array([7], pa.int64())})
    upd2 = pa.table({"k": pa.array([9], pa.int64()),
                     "v": pa.array([2], pa.int64()),
                     "ver": pa.array([7], pa.int64())})
    out2 = upsert(ray.data.from_arrow(base2),
                  ray.data.from_arrow(upd2), ["k"], "ver",
                  nbuckets=2).to_pandas()
    assert out2.v.tolist() == [2]


def test_upsert_string_keys(ray_session):
    import ray

    from geobuf_ray.functions.dedup import upsert

    base = pa.table({"k": pa.array(["a", "b"], pa.string()),
                     "v": pa.array([1, 2], pa.int64()),
                     "ver": pa.array([0, 0], pa.int64())})
    upd = pa.table({"k": pa.array(["b", "c"], pa.string()),
                    "v": pa.array([20, 30], pa.int64()),
                    "ver": pa.array([1, 1], pa.int64())})
    out = upsert(ray.data.from_arrow(base), ray.data.from_arrow(upd),
                 ["k"], "ver", nbuckets=2).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert out.v.tolist() == [1, 20, 30]


def test_global_rank_vs_numpy(ray_session):
    import ray

    from geobuf_ray.functions.sort import global_rank

    rng = np.random.default_rng(41)
    n = 8000
    v = rng.integers(-100, 100, n).astype(np.int64)  # heavy ties
    tbl = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                    "v": pa.array(v)})
    for desc in (True, False):
        out = global_rank(ray.data.from_arrow(tbl).repartition(6),
                          "v", "k", descending=desc,
                          nbuckets=8).to_pandas().sort_values("k")
        key = -v if desc else v
        expect = np.empty(n, np.int64)
        expect[np.lexsort((np.arange(n), key))] = \
            np.arange(1, n + 1)
        assert np.array_equal(out["rank"].to_numpy(), expect), desc
    # extreme values survive the ~v descending transform
    t2 = pa.table({"k": pa.array([0, 1, 2], pa.int64()),
                   "v": pa.array([np.iinfo(np.int64).min, 0,
                                  np.iinfo(np.int64).max], pa.int64())})
    out = global_rank(ray.data.from_arrow(t2), "v", "k",
                      descending=True, nbuckets=2).to_pandas() \
        .sort_values("k")
    assert out["rank"].tolist() == [3, 2, 1]


def test_table_digest_order_invariance_and_sensitivity(ray_session,
                                                        many_buckets):
    from geobuf_ray.functions.agg import table_digest

    rng = np.random.default_rng(12)
    n = 5000
    tbl = pa.table({
        "g": pa.array(np.array(["a", "b", "c"])[rng.integers(0, 3, n)]),
        "v": pa.array(rng.integers(0, 10**12, n), pa.int64()),
    })

    def run(t, parts):
        out = table_digest(_ds(t, parts), ["g"], "v").to_pandas()
        return out.sort_values("g").reset_index(drop=True)

    base = run(tbl, 4)
    # permuted rows + different partitioning + many buckets ->
    # identical digests
    perm = tbl.take(pa.array(rng.permutation(n)))
    with many_buckets():
        assert run(perm, 9).equals(base)
    # one changed value flips its group's digest but no other group's
    v2 = tbl["v"].to_numpy().copy()
    v2[123] += 1
    changed = pa.table({"g": tbl["g"], "v": pa.array(v2)})
    mut = run(changed, 4)
    g_changed = tbl["g"][123].as_py()
    for _, row in mut.iterrows():
        same = base[base.g == row.g].iloc[0]
        if row.g == g_changed:
            assert (row.digest_sum != same.digest_sum
                    or row.digest_xor != same.digest_xor)
        else:
            assert row.digest_sum == same.digest_sum
            assert row.digest_xor == same.digest_xor
    # counts exact
    assert base.n_rows.sum() == n
    # negative values rejected
    bad = pa.table({"g": pa.array(["a"]), "v": pa.array([-1], pa.int64())})
    import pytest as _pt
    with _pt.raises(Exception):
        table_digest(_ds(bad, 1), ["g"], "v").to_pandas()


def _u2_oracle(rows):
    """Brute-force 2*U_A per key: sum over (a, b) pairs of
    2*(b < a) + (b == a)."""
    from collections import defaultdict
    groups = defaultdict(lambda: ([], []))
    for k, v, s in rows:
        groups[k][s].append(v)
    out = {}
    for k, (A, B) in groups.items():
        u2 = sum(2 * sum(1 for b in B if b < a) +
                 sum(1 for b in B if b == a) for a in A)
        out[k] = (len(A), len(B), u2)
    return out


def test_rank_sum_u2_brute_force(ray_session, many_buckets):
    import random

    import pyarrow as pa
    import ray

    from geobuf_ray.functions.agg import rank_sum_u2

    rng = random.Random(5)
    # heavy ties: values drawn from a tiny domain
    rows = [(f"k{rng.randrange(4)}", rng.randrange(-3, 6),
             rng.randrange(2)) for _ in range(800)]
    tbl = pa.table({"key": pa.array([r[0] for r in rows], pa.string()),
                    "v": pa.array([r[1] for r in rows], pa.int64()),
                    "side": pa.array([r[2] for r in rows], pa.int64())})
    with many_buckets():
        got = pa.concat_tables(ray.get(rank_sum_u2(
            ray.data.from_arrow(tbl).repartition(6)).to_arrow_refs()))
    by = {k: (a, b, u) for k, a, b, u in
          zip(got["key"].to_pylist(), got["n_a"].to_pylist(),
              got["n_b"].to_pylist(), got["u2_a"].to_pylist())}
    assert by == _u2_oracle(rows)


def test_rank_sum_u2_one_sided_and_invariance(ray_session,
                                              many_buckets):
    import pyarrow as pa
    import ray

    from geobuf_ray.functions.agg import rank_sum_u2

    # key with only side-0 rows: u2_a = 0, n_b = 0
    tbl = pa.table({"key": pa.array(["x"] * 5 + ["y"] * 4, pa.string()),
                    "v": pa.array([1, 2, 3, 4, 5, 9, 9, 1, 1], pa.int64()),
                    "side": pa.array([0, 0, 0, 0, 0, 0, 0, 1, 1],
                                     pa.int64())})

    def run(parts):
        t = pa.concat_tables(ray.get(rank_sum_u2(
            ray.data.from_arrow(tbl).repartition(parts)).to_arrow_refs()))
        return {k: (a, b, u) for k, a, b, u in
                zip(t["key"].to_pylist(), t["n_a"].to_pylist(),
                    t["n_b"].to_pylist(), t["u2_a"].to_pylist())}

    got = run(1)
    assert got["x"] == (5, 0, 0)
    assert got["y"] == (2, 2, 8)  # both 9s beat both 1s: 2 * 2 * 2
    with many_buckets(16):
        assert got == run(4)


def test_watermark_window_scalar_reference(ray_session):
    import random

    import numpy as np
    import pyarrow as pa
    import ray

    from geobuf_ray.functions.window import watermark_window_agg

    rng = random.Random(17)
    n, nwaves, W, D = 500, 4, 100, 150
    ts = [rng.randrange(0, 3000) for _ in range(n)]
    wave = [rng.randrange(nwaves) for _ in range(n)]
    cents = [rng.randrange(-50, 200) for _ in range(n)]
    tbl = pa.table({"tus": pa.array(ts, pa.int64()),
                    "wave": pa.array(wave, pa.int64()),
                    "cents": pa.array(cents, pa.int64())})
    out = pa.concat_tables(ray.get(watermark_window_agg(
        ray.data.from_arrow(tbl).repartition(6), ts_col="tus",
        wave_col="wave", cents_col="cents", window_us=W, delay_us=D,
        nwaves=nwaves).to_arrow_refs()))
    agg = {}
    for w, a, c, l in zip(out["window_id"].to_pylist(),
                          out["n_ontime"].to_pylist(),
                          out["cents_ontime"].to_pylist(),
                          out["n_late"].to_pylist()):
        p = agg.setdefault(w, [0, 0, 0])
        p[0] += a; p[1] += c; p[2] += l

    # scalar replay
    mx = {}
    for t, wv in zip(ts, wave):
        mx[wv] = max(mx.get(wv, -1 << 62), t)
    want = {}
    for t, wv, c in zip(ts, wave, cents):
        pmax = max((mx[u] for u in mx if u < wv), default=None)
        win = t // W
        late = pmax is not None and (win + 1) * W <= pmax - D
        p = want.setdefault(win, [0, 0, 0])
        if late:
            p[2] += 1
        else:
            p[0] += 1; p[1] += c
    assert agg == want
    assert sum(v[2] for v in want.values()) > 0  # scenario has lates


def test_watermark_window_wave0_never_late(ray_session):
    import pyarrow as pa
    import ray

    from geobuf_ray.functions.window import watermark_window_agg

    # everything in wave 0: no watermark exists, nothing can be late
    tbl = pa.table({"tus": pa.array([5, 500, 999], pa.int64()),
                    "wave": pa.array([0, 0, 0], pa.int64()),
                    "cents": pa.array([1, 2, 3], pa.int64())})
    out = pa.concat_tables(ray.get(watermark_window_agg(
        ray.data.from_arrow(tbl), ts_col="tus", wave_col="wave",
        cents_col="cents", window_us=10, delay_us=0,
        nwaves=3).to_arrow_refs()))
    assert sum(out["n_late"].to_pylist()) == 0
    assert sum(out["n_ontime"].to_pylist()) == 3


def test_group_gini_scalar_and_tie_invariance(ray_session, many_buckets):
    import random

    import pyarrow as pa
    import ray

    from geobuf_ray.functions.agg import group_gini

    rng = random.Random(7)
    rows = [(f"g{rng.randrange(3)}", rng.randrange(0, 20))
            for _ in range(600)]  # heavy ties

    def scalar(rows):
        from collections import defaultdict
        g = defaultdict(list)
        for k, v in rows:
            g[k].append(v)
        out = {}
        for k, xs in g.items():
            xs = sorted(xs)
            n, s = len(xs), sum(xs)
            rsum = sum((i + 1) * x for i, x in enumerate(xs))
            out[k] = (n, s, 2 * rsum - (n + 1) * s)
        return out

    tbl = pa.table({"key": pa.array([r[0] for r in rows], pa.string()),
                    "v": pa.array([r[1] for r in rows], pa.int64())})
    with many_buckets(16):
        got = pa.concat_tables(ray.get(group_gini(
            ray.data.from_arrow(tbl).repartition(7)).to_arrow_refs()))
    by = {k: (n, s, g) for k, n, s, g in
          zip(got["key"].to_pylist(), got["n"].to_pylist(),
              got["sum_v"].to_pylist(), got["gini_num"].to_pylist())}
    assert by == scalar(rows)
    # uniform values: gini_num must be exactly 0
    u = pa.table({"key": pa.array(["u"] * 50, pa.string()),
                  "v": pa.array([7] * 50, pa.int64())})
    with many_buckets(8):
        g2 = pa.concat_tables(ray.get(group_gini(
            ray.data.from_arrow(u)).to_arrow_refs()))
    assert g2["gini_num"].to_pylist() == [0]


def test_orders_fd_audit_pk_holds(ray_session):
    from geobuf_ray.pipelines import queries as q

    out = q.orders_fd_audit("/root/testdata/sf0.001")
    d = {out["fd"][i].as_py(): (out["extra_pairs"][i].as_py(),
                                out["holds"][i].as_py())
         for i in range(out.num_rows)}
    # the primary key determines everything
    assert d["o_orderkey->o_custkey"] == (0, 1)
    # a customer with >1 order can hit >1 status: genuinely violated
    assert d["o_custkey->o_orderstatus"][0] > 0
    assert d["o_custkey->o_orderstatus"][1] == 0


def test_allen_relations_scalar_replay(ray_session, tmp_path):
    """orders_allen_relations vs a scalar classifier on a synthetic
    orders file engineered to hit ALL EIGHT reachable relations,
    including equals (identical start AND end)."""
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    # one customer, handcrafted intervals: e = s + okey % 20 + 1
    # (cust, okey, day) chosen so consecutive start-sorted pairs
    # produce each relation at least once
    rows = [
        # precedes: [0,3) then [10,12)
        (1, 2, 0), (1, 1, 10),
        # meets: [12,14) starts where previous ends
        (1, 21, 12),
        # overlaps: [13,18)
        (1, 4, 13),
        # contains: [14,16) inside [13,18)? pair order: (13,18)->(14,16)
        (1, 41, 14),
        # started_by / starts / equals on a fresh customer
        (2, 4, 0),   # [0,5)
        (2, 2, 0),   # [0,3)  -> starts (sorted: [0,3) then [0,5))
        (2, 22, 0),  # [0,3)  -> equals with (2,2)
        # finished_by: s1<s2, e1==e2: [10,15) then [12,15)
        (2, 24, 10), (2, 42, 12),
    ]
    tbl = pa.table({
        "o_custkey": pa.array([r[0] for r in rows], pa.int64()),
        "o_orderkey": pa.array([r[1] for r in rows], pa.int64()),
        "o_orderdate": pa.array(
            [np.datetime64(r[2] * 86_400_000_000, "us")
             for r in rows], pa.timestamp("us"))})
    pq.write_table(tbl, tmp_path / "orders.parquet")
    out = q.orders_allen_relations(str(tmp_path))
    got = {r["relation"]: r["n"] for r in out.to_pylist()}

    def classify(p, n):
        (s1, e1), (s2, e2) = p, n
        if e1 < s2:
            return "precedes"
        if e1 == s2:
            return "meets"
        if s1 < s2 and s2 < e1 and e1 < e2:
            return "overlaps"
        if s1 < s2 and e1 == e2:
            return "finished_by"
        if s1 < s2 and e2 < e1:
            return "contains"
        if s1 == s2 and e1 < e2:
            return "starts"
        if s1 == s2 and e1 == e2:
            return "equals"
        return "started_by"

    want = {}
    for cust in (1, 2):
        ivs = sorted([(d, d + k % 20 + 1, k)
                      for c, k, d in rows if c == cust])
        for p, n in zip(ivs, ivs[1:]):
            r = classify((p[0], p[1]), (n[0], n[1]))
            want[r] = want.get(r, 0) + 1
    assert got == want
    for r in ("precedes", "meets", "overlaps", "contains", "starts",
              "equals", "finished_by"):
        assert r in got, r


def test_stats_collection_scalar_replay(ray_session, tmp_path):
    """lineitem_stats_collection vs a pandas replay on a small
    synthetic lineitem with engineered MCV ties (equal counts must
    break to the smaller value) and a skewed distribution."""
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    rng = np.random.RandomState(23)
    qty = np.concatenate([np.full(40, 7), np.full(40, 3),
                          rng.randint(1, 30, 120)]).astype(np.float64)
    price = np.concatenate([np.full(30, 12.34),
                            rng.uniform(1, 500, 170)])
    tbl = pa.table({"l_quantity": pa.array(qty),
                    "l_extendedprice": pa.array(price)})
    pq.write_table(tbl, tmp_path / "lineitem.parquet")
    out = q.lineitem_stats_collection(str(tmp_path)).to_pylist()
    got = {(r["col"], r["stat"], r["slot"]): r["value"] for r in out}

    for col, arr in (("l_quantity", qty.astype(np.int64)),
                     ("price_cents",
                      np.round(price * 100).astype(np.int64))):
        n = len(arr)
        assert got[(col, "n", 0)] == n
        assert got[(col, "ndv", 0)] == len(np.unique(arr))
        assert got[(col, "min", 0)] == arr.min()
        assert got[(col, "max", 0)] == arr.max()
        assert got[(col, "sum", 0)] == arr.sum()
        vals, cnts = np.unique(arr, return_counts=True)
        mo = np.lexsort((vals, -cnts))[:5]
        for r, i in enumerate(mo):
            assert got[(col, "mcv_value", r)] == vals[i]
            assert got[(col, "mcv_count", r)] == cnts[i]
        sa = np.sort(arr)
        for k in range(1, 8):
            rank = max(int(np.ceil(k / 8 * n)), 1)
            assert got[(col, "edh_bound", k)] == sa[rank - 1], (col, k)
    # engineered tie: qty 3 and 7 both appear 40+ times; whichever
    # counts tie exactly must order value-ascending
    mv = [got[("l_quantity", "mcv_value", r)] for r in range(5)]
    mc = [got[("l_quantity", "mcv_count", r)] for r in range(5)]
    for a in range(4):
        assert (mc[a], -mv[a]) >= (mc[a + 1], -mv[a + 1])


def test_rank_tau_scalar_replay(ray_session, tmp_path):
    """suppliers_rank_tau vs an all-pairs scalar replay on a tiny
    synthetic pair of files with engineered ties in both rankings
    and a supplier with NO lineitems (revenue 0)."""
    import itertools

    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    keys = np.arange(1, 13, dtype=np.int64)
    bal = np.array([5, 5, 3, 9, 9, 9, 1, 2, 2, 7, 8, 4],
                   np.float64)
    pq.write_table(pa.table({"s_suppkey": pa.array(keys),
                             "s_acctbal": pa.array(bal)}),
                   tmp_path / "supplier.parquet")
    # supplier 7 gets no lineitems; others get idx-derived revenue
    sk, pr = [], []
    for k in keys:
        if k == 7:
            continue
        for j in range((k % 4) + 1):
            sk.append(k)
            pr.append(float((k * 13 + j * 7) % 50) + 0.25)
    pq.write_table(pa.table({"l_suppkey": pa.array(sk, pa.int64()),
                             "l_extendedprice": pa.array(pr)}),
                   tmp_path / "lineitem.parquet")
    out = q.suppliers_rank_tau(str(tmp_path)).to_pylist()[0]

    va = np.round(bal * 100).astype(int)
    vb = np.zeros(len(keys), int)
    for k, p in zip(sk, pr):
        vb[k - 1] += round(p * 100)
    C = D = Ta = Tb = Tboth = 0
    for i, j in itertools.combinations(range(len(keys)), 2):
        da = np.sign(va[i] - va[j])
        db = np.sign(vb[i] - vb[j])
        if da == 0 and db == 0:
            Tboth += 1
        elif da == 0:
            Ta += 1
        elif db == 0:
            Tb += 1
        elif da == db:
            C += 1
        else:
            D += 1
    assert (out["concordant"], out["discordant"], out["tie_a"],
            out["tie_b"], out["tie_both"]) == (C, D, Ta, Tb, Tboth)
    assert out["n"] == 12
    total = C + D + Ta + Tb + Tboth
    assert total == 12 * 11 // 2
