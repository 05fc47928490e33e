"""lag_lead vs DuckDB window functions."""

import numpy as np
import pyarrow as pa


def test_lag_lead_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import pandas as pd
    import ray

    from geobuf_ray.functions.window import lag_lead

    rng = np.random.default_rng(2)
    n = 8000
    tbl = pa.table({
        "u": pa.array(rng.integers(0, 300, n)),
        "t": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(rng.normal(0, 1, n)),
    })
    ds = ray.data.from_arrow(tbl).repartition(5)
    con = duckdb.connect()
    con.register("t", tbl.to_pandas())
    for lead, fn in [(False, "LAG"), (True, "LEAD")]:
        col = ("lead_" if lead else "lag_") + "v"
        with many_buckets():
            out = lag_lead(ds, key="u", order="t", value="v",
                           lead=lead).to_pandas()
        o = con.execute(
            f"SELECT u, t, v, {fn}(v) OVER (PARTITION BY u ORDER BY t) "
            f"AS {col} FROM t").df()
        cols = sorted(out.columns)
        a = out.sort_values(["u", "t"]).reset_index(drop=True)[cols]
        b = o.sort_values(["u", "t"]).reset_index(drop=True)[cols]
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_lag_timestamp_order(ray_session, many_buckets):
    import ray

    from geobuf_ray.functions.window import lag_lead

    ts = pa.array(np.arange(10).astype("datetime64[us]"))
    tbl = pa.table({"u": pa.array([1] * 5 + [2] * 5),
                    "ts": ts, "v": pa.array(np.arange(10.0))})
    with many_buckets(16):
        out = lag_lead(ray.data.from_arrow(tbl), key="u", order="ts",
                       value="v").to_pandas().sort_values(["u", "ts"])
    assert np.isnan(out.lag_v.iloc[0]) and np.isnan(out.lag_v.iloc[5])
    assert out.lag_v.iloc[1] == 0.0 and out.lag_v.iloc[6] == 5.0


def test_running_agg_int_exact_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import pandas as pd
    import ray

    from geobuf_ray.functions.window import running_agg

    rng = np.random.default_rng(7)
    n = 6000
    tbl = pa.table({"u": pa.array(rng.integers(0, 200, n)),
                    "t": pa.array(rng.permutation(n).astype(np.int64)),
                    "v": pa.array(rng.integers(-1000, 1000, n))})
    ds = ray.data.from_arrow(tbl).repartition(4)
    with many_buckets():
        out = running_agg(ds, key="u", order="t", value="v").to_pandas()
    con = duckdb.connect()
    con.register("t", tbl.to_pandas())
    o = con.execute(
        "SELECT u, t, v, CAST(SUM(v) OVER (PARTITION BY u ORDER BY t "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_v, "
        "ROW_NUMBER() OVER (PARTITION BY u ORDER BY t) AS row_num "
        "FROM t").df()
    cols = sorted(out.columns)
    a = out.sort_values(["u", "t"]).reset_index(drop=True)[cols]
    b = o.sort_values(["u", "t"]).reset_index(drop=True)[cols]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_value_window_vs_duckdb(ray_session, many_buckets):
    import duckdb
    import pandas as pd
    import ray

    from geobuf_ray.functions.window import value_window

    rng = np.random.default_rng(11)
    n = 7000
    tbl = pa.table({
        "u": pa.array(rng.integers(0, 250, n)),
        "t": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(rng.normal(0, 1, n)),
    })
    ds = ray.data.from_arrow(tbl).repartition(5)
    with many_buckets():
        out = value_window(ds, key="u", order="t", value="v",
                           ntile=7).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl.to_pandas())
    o = con.execute(
        "SELECT u, t, v, FIRST_VALUE(v) OVER w AS first_v, "
        "LAST_VALUE(v) OVER w AS last_v, "
        "NTILE(7) OVER (PARTITION BY u ORDER BY t) AS ntile7 FROM t "
        "WINDOW w AS (PARTITION BY u ORDER BY t ROWS BETWEEN UNBOUNDED "
        "PRECEDING AND UNBOUNDED FOLLOWING)").df()
    cols = sorted(out.columns)
    a = out.sort_values(["u", "t"]).reset_index(drop=True)[cols]
    b = o.sort_values(["u", "t"]).reset_index(drop=True)[cols]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_value_window_ntile_tiny_partitions(ray_session, many_buckets):
    # fewer rows than tiles: each row lands in its own 1-row tile
    import ray

    from geobuf_ray.functions.window import value_window

    tbl = pa.table({"u": pa.array([1, 1, 2]),
                    "t": pa.array([10, 20, 5]),
                    "v": pa.array([1.0, 2.0, 3.0])})
    with many_buckets(8):
        out = value_window(ray.data.from_arrow(tbl), key="u", order="t",
                           value="v", ntile=5).to_pandas()
    out = out.sort_values(["u", "t"]).reset_index(drop=True)
    assert list(out.ntile5) == [1, 2, 1]
    assert list(out.first_v) == [1.0, 1.0, 3.0]
    assert list(out.last_v) == [2.0, 2.0, 3.0]


def _transitions_scalar(u, t, s):
    """Scalar reference: per-key ordered next-state pair counts."""
    from collections import Counter, defaultdict

    per = defaultdict(list)
    for uu, tt, ss in zip(u, t, s):
        per[uu].append((tt, ss))
    c = Counter()
    for uu, rows in per.items():
        rows.sort()
        for (_, a), (_, b) in zip(rows, rows[1:]):
            c[(a, b)] += 1
    return c


def test_transition_counts_vs_scalar_and_partitions(ray_session,
                                                    many_buckets):
    import contextlib

    import ray

    from geobuf_ray.functions.window import transition_counts

    rng = np.random.default_rng(7)
    n = 6000
    u = rng.integers(0, 250, n)
    t = rng.permutation(n).astype(np.int64)
    s = rng.choice(["a", "b", "c", "d"], n)
    want = _transitions_scalar(u, t, s)
    tbl = pa.table({"u": pa.array(u), "t": pa.array(t), "s": pa.array(s)})
    got_prev = None
    for nparts, spread in ((1, contextlib.nullcontext), (7, many_buckets)):
        ds = ray.data.from_arrow(tbl).repartition(nparts)
        with spread():
            out = transition_counts(ds, key="u", order="t",
                                    state="s").to_pandas()
        agg = out.groupby(["state", "next_state"])["n"].sum()
        got = {k: int(v) for k, v in agg.items()}
        assert got == dict(want)
        if got_prev is not None:
            assert got == got_prev
        got_prev = got


def test_transition_counts_null_states(ray_session, many_buckets):
    import ray

    from geobuf_ray.functions.window import transition_counts

    tbl = pa.table({
        "u": pa.array([1, 1, 1, 2, 2]),
        "t": pa.array([0, 1, 2, 0, 1]),
        "s": pa.array(["x", None, "x", None, None]),
    })
    with many_buckets(8):
        out = transition_counts(ray.data.from_arrow(tbl), key="u",
                                order="t", state="s").to_pandas()
    got = {(a if a == a and a is not None else None,
            b if b == b and b is not None else None): int(n)
           for a, b, n in out.itertuples(index=False)}
    # u=1: x->NULL, NULL->x ; u=2: NULL->NULL
    assert got == {("x", None): 1, (None, "x"): 1, (None, None): 1}


def test_gap_fill_scalar_and_partitions(ray_session, many_buckets):
    import contextlib

    import ray

    from geobuf_ray.functions.window import gap_fill

    rng = np.random.default_rng(11)
    n = 4000
    k = rng.integers(0, 40, n)
    t = rng.integers(0, 100, n) * 5 + 10  # spine 10..505 step 5
    v = rng.integers(1, 50, n)
    tbl = pa.table({"k": pa.array(k), "t": pa.array(t),
                    "c": pa.array(np.ones(n, np.int64)),
                    "v": pa.array(v)})

    # scalar reference
    import collections
    csum = collections.Counter()
    vsum = collections.Counter()
    for kk, tt, vv in zip(k, t, v):
        csum[(kk, tt)] += 1
        vsum[(kk, tt)] += vv
    got_prev = None
    for nparts, spread in ((1, contextlib.nullcontext), (6, many_buckets)):
        ds = ray.data.from_arrow(tbl).repartition(nparts)
        with spread():
            out = gap_fill(ds, key="k", tick="t", start=10, stop=505,
                           step=5, zero_cols=("c",),
                           ffill_cols=("v",)).to_pandas()
        out = out.sort_values(["k", "t"]).reset_index(drop=True)
        nticks = (505 - 10) // 5 + 1
        assert len(out) == len(np.unique(k)) * nticks
        # zero-filled counts exact; ffill = most recent observed sum
        lastv = {}
        for row in out.itertuples(index=False):
            assert row.c == csum.get((row.k, row.t), 0)
            if (row.k, row.t) in vsum:
                lastv[row.k] = vsum[(row.k, row.t)]
            if row.k in lastv:
                assert row.v == lastv[row.k]
            else:
                assert row.v != row.v or row.v is None  # NaN before first
        if got_prev is not None:
            import pandas as pd

            pd.testing.assert_frame_equal(out, got_prev,
                                          check_dtype=False)
        got_prev = out


def test_gap_fill_off_grid_raises(ray_session, many_buckets):
    import pytest
    import ray

    from geobuf_ray.functions.window import gap_fill

    tbl = pa.table({"k": pa.array([1]), "t": pa.array([13]),
                    "c": pa.array([1])})
    with many_buckets(8), pytest.raises(Exception):
        gap_fill(ray.data.from_arrow(tbl), key="k", tick="t", start=10,
                 stop=20, step=5, zero_cols=("c",)).to_pandas()


def test_scd2_intervals_vs_scalar(ray_session, many_buckets):
    import contextlib

    import ray

    from geobuf_ray.functions.window import scd2_intervals

    rng = np.random.default_rng(31)
    n = 5000
    k = rng.integers(0, 120, n)
    t = rng.permutation(n).astype(np.int64)
    v = rng.choice(["a", "b", None, "c"], n, p=[0.4, 0.3, 0.1, 0.2])
    # scalar reference
    from collections import defaultdict
    per = defaultdict(list)
    for kk, tt, vv in zip(k, t, v):
        per[int(kk)].append((int(tt), vv))
    want = set()
    for kk, rows in per.items():
        rows.sort(key=lambda x: x[0])
        runs = []
        for tt, vv in rows:
            if not runs or runs[-1][1] != vv:
                runs.append([tt, vv])
        for i, (tt, vv) in enumerate(runs):
            nxt = runs[i + 1][0] if i + 1 < len(runs) else None
            want.add((kk, vv, tt, nxt))

    tbl = pa.table({"k": pa.array(k), "t": pa.array(t),
                    "v": pa.array(v)})
    prev = None
    for nparts, spread in ((1, contextlib.nullcontext), (6, many_buckets)):
        ds = ray.data.from_arrow(tbl).repartition(nparts)
        with spread():
            out = scd2_intervals(ds, key="k", order="t",
                                 value="v").to_pandas()
        got = set((int(r.k), None if r.v is None else r.v,
                   int(r.valid_from),
                   None if r.valid_to != r.valid_to else int(r.valid_to))
                  for r in out.itertuples(index=False))
        assert got == want
        if prev is not None:
            assert got == prev
        prev = got


def test_cusum_alarms_vs_scalar_and_duckdb(ray_session, many_buckets):
    import duckdb
    import pandas as pd
    import ray

    from geobuf_ray.functions.window import cusum_alarms

    rng = np.random.default_rng(61)
    n = 6000
    tbl = pa.table({
        "u": pa.array(rng.integers(0, 120, n)),
        "t": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(rng.integers(-50, 80, n)),
    })
    drift, thresh = 10, 120
    with many_buckets():
        out = cusum_alarms(ray.data.from_arrow(tbl).repartition(5),
                           key="u", order="t", value="v", drift=drift,
                           threshold=thresh).to_pandas()
    # scalar recurrence reference
    df = tbl.to_pandas().sort_values(["u", "t"])
    want = []
    cur_u, c = None, 0
    for r in df.itertuples(index=False):
        if r.u != cur_u:
            cur_u, c = r.u, 0
        c = max(0, c + int(r.v) - drift)
        want.append((r.u, r.t, c, c > thresh))
    wdf = pd.DataFrame(want, columns=["u", "t", "cusum", "alarm"])
    got = out.sort_values(["u", "t"]).reset_index(drop=True)[
        ["u", "t", "cusum", "alarm"]]
    pd.testing.assert_frame_equal(got, wdf, check_dtype=False)
    # and the SUM-OVER/MIN-OVER SQL identity
    con = duckdb.connect()
    con.register("t", tbl.to_pandas())
    o = con.execute(f"""
        WITH s AS (SELECT u, t,
                      SUM(v - {drift}) OVER (PARTITION BY u ORDER BY t)
                        AS ps FROM t)
        SELECT u, t,
               CAST(ps - LEAST(MIN(ps) OVER (PARTITION BY u ORDER BY t),
                               0) AS BIGINT) AS cusum
        FROM s""").df().sort_values(["u", "t"]).reset_index(drop=True)
    assert (got["cusum"].to_numpy() == o["cusum"].to_numpy()).all()


def test_gap_fill_float_cols_with_empty_buckets(ray_session, many_buckets):
    import ray

    from geobuf_ray.functions.window import gap_fill

    # 2 keys over 9 buckets -> most buckets empty; float value column
    tbl = pa.table({"k": pa.array([1, 1, 2], pa.int64()),
                    "t": pa.array([0, 2, 1], pa.int64()),
                    "f": pa.array([1.5, 2.5, 3.5])})
    with many_buckets(8):
        out = gap_fill(ray.data.from_arrow(tbl), key="k", tick="t",
                       start=0, stop=3, zero_cols=("f",)).to_pandas() \
            .sort_values(["k", "t"])
    assert list(out[out.k == 1].f) == [1.5, 0.0, 2.5, 0.0]
    assert list(out[out.k == 2].f) == [0.0, 3.5, 0.0, 0.0]


def test_ewma_vs_pandas(ray_session, many_buckets):
    import pandas as pd
    import ray

    from geobuf_ray.functions.window import ewma

    rng = np.random.default_rng(71)
    n = 9000
    tbl = pa.table({
        "u": pa.array(rng.integers(0, 8, n)),   # long segments -> many chunks
        "t": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(rng.normal(0, 10, n)),
    })
    for alpha in (0.3, 0.05, 1.0):
        with many_buckets():
            out = ewma(ray.data.from_arrow(tbl).repartition(4), key="u",
                       order="t", value="v", alpha=alpha,
                       chunk_len=64).to_pandas()
        got = out.sort_values(["u", "t"]).reset_index(drop=True)
        df = tbl.to_pandas().sort_values(["u", "t"]).reset_index(drop=True)
        want = df.groupby("u")["v"].transform(
            lambda s: s.ewm(alpha=alpha, adjust=False).mean())
        assert np.allclose(got["ewma"].to_numpy(), want.to_numpy(),
                           rtol=1e-10, atol=1e-10), alpha


def test_gap_fill_interp_vs_scalar(ray_session, many_buckets):
    import ray

    from geobuf_ray.functions.window import gap_fill

    rng = np.random.default_rng(101)
    # sparse observations on a 0..40 spine, two keys
    k = np.array([1] * 5 + [2] * 3, np.int64)
    t = np.array([0, 10, 15, 30, 40, 5, 20, 35], np.int64)
    v = rng.uniform(-10, 10, len(k))
    tbl = pa.table({"k": pa.array(k), "t": pa.array(t),
                    "v": pa.array(v)})
    with many_buckets(16):
        out = gap_fill(ray.data.from_arrow(tbl).repartition(3), key="k",
                       tick="t", start=0, stop=40, step=5,
                       interp_cols=("v",)).to_pandas()
    out = out.sort_values(["k", "t"]).reset_index(drop=True)
    obs = {(int(kk), int(tt)): vv for kk, tt, vv in zip(k, t, v)}
    for r in out.itertuples(index=False):
        ticks = sorted(tt for (kk, tt) in obs if kk == r.k)
        prevs = [x for x in ticks if x <= r.t]
        nxts = [x for x in ticks if x >= r.t]
        if not prevs or not nxts:
            assert r.v != r.v  # NaN outside the observed range
            continue
        pt, nt = prevs[-1], nxts[0]
        pv, nv = obs[(r.k, pt)], obs[(r.k, nt)]
        want = pv if nt == pt else pv + (nv - pv) * (r.t - pt) / (nt - pt)
        assert abs(r.v - want) < 1e-12, (r.k, r.t)


def test_autocorr_ingredients_vs_scalar(ray_session, many_buckets):
    import contextlib

    import pandas as pd
    import ray

    from geobuf_ray.functions.window import autocorr_ingredients

    rng = np.random.default_rng(11)
    n, lag = 5000, 4
    tbl = pa.table({
        "u": pa.array(rng.integers(0, 80, n)),
        "t": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(rng.integers(-500, 500, n)),
    })
    # scalar reference: per key, sort by t, pair i with i+lag
    ref = {}
    df = tbl.to_pandas()
    for u, g in df.groupby("u"):
        v = g.sort_values("t")["v"].to_numpy().astype(np.int64)
        if len(v) <= lag:
            continue
        x, y = v[:-lag], v[lag:]
        ref[u] = (len(x), x.sum(), y.sum(), (x * y).sum(),
                  (x * x).sum(), (y * y).sum())

    for nparts, spread in ((1, contextlib.nullcontext), (7, many_buckets)):
        ds = ray.data.from_arrow(tbl).repartition(nparts)
        with spread():
            out = autocorr_ingredients(ds, key="u", order="t", value="v",
                                       lag=lag).to_pandas()
        got = {r.u: (r.npairs, r.sum_x, r.sum_y, r.sum_xy,
                     r.sum_xx, r.sum_yy)
               for r in out.itertuples()}
        assert got == ref

    # lag longer than every series: empty result, schema intact
    short = pa.table({"u": pa.array([1, 1, 2], pa.int64()),
                      "t": pa.array([0, 1, 0], pa.int64()),
                      "v": pa.array([5, 6, 7], pa.int64())})
    from geobuf_ray.collect import collect_table

    with many_buckets(8):
        out = collect_table(
            autocorr_ingredients(ray.data.from_arrow(short), key="u",
                                 order="t", value="v", lag=5)).to_pandas()
    assert len(out) == 0
    assert list(out.columns) == ["u", "npairs", "sum_x", "sum_y",
                                 "sum_xy", "sum_xx", "sum_yy"]

    # float value column rejected
    fl = pa.table({"u": pa.array([1, 1], pa.int64()),
                   "t": pa.array([0, 1], pa.int64()),
                   "v": pa.array([1.5, 2.5])})
    try:
        autocorr_ingredients(ray.data.from_arrow(fl), key="u",
                             order="t", value="v", lag=1).to_pandas()
        raise AssertionError("float value column must raise")
    except Exception as e:
        assert "integer-typed" in str(e)


def test_debounce_scalar_reference(ray_session, many_buckets):
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.functions.window import debounce

    rng = np.random.default_rng(13)
    n = 4000
    tbl = pa.table({
        "k": pa.array(rng.integers(0, 40, n), pa.int64()),
        "t": pa.array(rng.integers(0, 5000, n), pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(6)
    out = collect_table(debounce(ds, "k", "t", 137))
    got = sorted(zip(out["k"].to_pylist(), out["t"].to_pylist()))
    with many_buckets():
        many = collect_table(debounce(ds, "k", "t", 137))
    assert sorted(zip(many["k"].to_pylist(), many["t"].to_pylist())) == got

    exp = []
    df = tbl.to_pandas().sort_values(["k", "t"])
    for k, g in df.groupby("k"):
        last = None
        for t in g["t"]:
            if last is None or t >= last + 137:
                exp.append((k, t))
                last = t
    assert got == sorted(exp)


def test_debounce_same_time_burst_and_guard(ray_session, many_buckets):
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.functions.window import debounce

    tbl = pa.table({"k": pa.array([1] * 5, pa.int64()),
                    "t": pa.array([7, 7, 7, 7, 200], pa.int64())})
    with many_buckets(8):
        out = collect_table(debounce(ray.data.from_arrow(tbl), "k", "t",
                                     100))
    assert sorted(zip(out["k"].to_pylist(), out["t"].to_pylist())) == \
        [(1, 7), (1, 200)]
    import pytest as _pt

    with _pt.raises(ValueError):
        debounce(ray.data.from_arrow(tbl), "k", "t", 0)


def test_sliding_median_scalar_and_boundaries(ray_session, many_buckets):
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.functions.window import sliding_median

    rng = np.random.default_rng(33)
    n = 3000
    tbl = pa.table({
        "k": pa.array(rng.integers(0, 20, n), pa.int64()),
        "t": pa.array(rng.permutation(n), pa.int64()),
        "v": pa.array(rng.integers(-100, 100, n), pa.int64())})
    with many_buckets():
        out = collect_table(sliding_median(
            ray.data.from_arrow(tbl).repartition(5), "k", ["t"], "v",
            w=5)).to_pandas().sort_values(["k", "t"])

    df = tbl.to_pandas().sort_values(["k", "t"])
    exp = []
    for k, g in df.groupby("k"):
        vs = g["v"].tolist()
        ts = g["t"].tolist()
        for i in range(4, len(vs)):
            exp.append((k, ts[i], int(np.median(vs[i - 4:i + 1]))))
    got = list(zip(out["k"], out["t"], out["median"]))
    assert sorted(got) == sorted(exp)

    import pytest as _pt

    with _pt.raises(ValueError):
        sliding_median(ray.data.from_arrow(tbl), "k", ["t"], "v", w=4)


def test_pattern_match_counts_brute_force(ray_session, many_buckets):
    """pattern_match_counts vs a per-user re.findall replay on random
    sequences — including bucket invariance, an empty-match pattern,
    and a user whose events interleave across input blocks."""
    import contextlib
    import re

    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.functions.window import pattern_match_counts

    rng = np.random.RandomState(7)
    n = 4000
    users = rng.randint(0, 80, n)
    ts = rng.permutation(n).astype(np.int64)
    types = np.array(["alpha", "beta", "gamma"])[rng.randint(0, 3, n)]
    tbl = pa.table({"u": pa.array(users), "t": pa.array(ts),
                    "i": pa.array(np.arange(n)),
                    "s": pa.array(types)})
    pats = ["ab+", "g", "zz", "a[bg]*a"]

    want = {p: [0, 0, 0] for p in pats}
    df = tbl.to_pandas().sort_values(["u", "t", "i"])
    for _, g in df.groupby("u"):
        s = "".join(x[0] for x in g["s"])
        for p in pats:
            k = len(re.findall(p, s))
            want[p][0] += k
            want[p][1] += k > 0
            want[p][2] = max(want[p][2], k)

    for spread in (contextlib.nullcontext, many_buckets):
        ds = ray.data.from_arrow(tbl).repartition(6)
        with spread():
            out = collect_table(pattern_match_counts(
                ds, key="u", order="t", state="s", patterns=pats,
                tiebreak="i"))
        agg = out.group_by(["pattern"]).aggregate(
            [("n_matches", "sum"), ("n_users", "sum"),
             ("max_per_user", "max")])
        got = {r["pattern"]: (r["n_matches_sum"], r["n_users_sum"],
                              r["max_per_user_max"])
               for r in agg.to_pylist()}
        for p in pats:
            assert got[p] == tuple(want[p]), (spread, p, got[p], want[p])
        assert got["zz"] == (0, 0, 0)


def test_runs_test_scalar_replay(ray_session, tmp_path):
    """events_runs_test vs a scalar replay on a handcrafted file:
    a strictly alternating series (max runs), a monotone series
    (exactly 2 runs: below-block then above-block) and a constant
    series (ties fall below -> 1 run, zero above)."""
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    rows = []
    # alternating around median for type 'alt': 1,9,1,9,...
    for i in range(10):
        rows.append(("alt", i, [1.0, 9.0][i % 2]))
    # monotone for 'mono': 1..8
    for i in range(8):
        rows.append(("mono", i, float(i + 1)))
    # constant for 'const'
    for i in range(6):
        rows.append(("const", i, 4.0))
    tbl = pa.table({
        "event_type": pa.array([r[0] for r in rows]),
        "ts": pa.array([np.datetime64(r[1] * 1_000_000, "us")
                        for r in rows], pa.timestamp("us")),
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "value": pa.array([r[2] for r in rows])})
    pq.write_table(tbl, tmp_path / "events.parquet")
    out = {r["event_type"]: r for r in
           q.events_runs_test(str(tmp_path)).to_pylist()}
    # alt: median (disc, lower) = 1 -> above iff 9: runs = 10
    assert (out["alt"]["n_above"], out["alt"]["n_runs"]) == (5, 10)
    # mono 1..8: median = 4 -> 4 above, runs = 2
    assert (out["mono"]["n_above"], out["mono"]["n_runs"]) == (4, 2)
    # const: nothing strictly above the median, single run
    assert (out["const"]["n_above"], out["const"]["n_below"],
            out["const"]["n_runs"]) == (0, 6, 1)


def test_pattern_match_counts_non_latin1_state(ray_session, many_buckets):
    """State values whose first code point is above U+00FF render as
    \\x00 (documented contract) instead of raising
    UnicodeEncodeError, and never match printable patterns."""
    import ray

    from geobuf_ray.collect import collect_table
    from geobuf_ray.functions.window import pattern_match_counts

    tbl = pa.table({
        "u": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "t": pa.array([0, 1, 2, 0, 1], pa.int64()),
        "s": pa.array(["alpha", "中文", "beta",
                       "āx", "alpha"])})
    ds = ray.data.from_arrow(tbl).repartition(2)
    with many_buckets(8):
        out = collect_table(pattern_match_counts(
            ds, key="u", order="t", state="s",
            patterns=["ab", "a.b", "a"]))
    got = {}
    for r in out.to_pylist():   # sum bucket partials (the contract)
        m, u = got.get(r["pattern"], (0, 0))
        got[r["pattern"]] = (m + r["n_matches"], u + r["n_users"])
    # user 1 renders "a\x00b", user 2 renders "\x00a"
    assert got["ab"] == (0, 0)
    assert got["a.b"] == (1, 1)   # '.' matches \x00 (re semantics)
    assert got["a"] == (2, 2)
