"""Joins pick broadcast or shuffle from their build side's bytes: both
regimes give the same rows and columns, the choice follows
``_BROADCAST_BYTES``, only the joins a broadcast can answer take it, and
an empty side that Ray reports without a schema joins like any empty
side."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geobuf_ray.functions import exchange, join
from geobuf_ray.functions.join import anti_join, asof_join, hash_join, \
    range_join, semi_join


def _ds(tbl, parts=3):
    import ray

    return ray.data.from_arrow(tbl).repartition(parts)


def _frame(ds):
    """The result's columns in order, and its rows as sorted strings."""
    from geobuf_ray.collect import collect_table

    df = collect_table(ds).to_pandas()
    rows = df.astype(str).sort_values(list(df.columns)) \
        .reset_index(drop=True)
    return list(df.columns), rows


@pytest.fixture
def cogroups(monkeypatch):
    """The calls made to ``exchange._cogroup``, the shuffle's entry."""
    calls = []
    real = exchange._cogroup

    def spy(*args, **kwargs):
        calls.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(exchange, "_cogroup", spy)
    return calls


def _regimes(monkeypatch, many_buckets, cogroups, op):
    """``op()``'s result under the broadcast regime, then under the
    shuffle spread over many buckets; each regime must be the one run."""
    out = []
    for limit, shuffled in ((join._BROADCAST_BYTES, False), (-1, True)):
        with monkeypatch.context() as m, many_buckets(2048):
            m.setattr(join, "_BROADCAST_BYTES", limit)
            del cogroups[:]
            out.append(_frame(op()))
            assert bool(cogroups) == shuffled
    return out


def _keyed_sides(seed=7):
    rng = np.random.default_rng(seed)

    def side(n, val, null_every):
        k = rng.integers(0, 80, n)
        names = np.array([f"name_{i}" for i in range(30)])
        s = names[rng.integers(0, 30, n)].astype(object)
        s[::null_every] = None
        ki = pa.array(k, pa.int64(),
                      mask=np.arange(n) % (null_every + 1) == 0)
        return pa.table({"k": ki, "s": pa.array(s, pa.string()),
                         "t": pa.array(rng.integers(0, 500, n), pa.int64()),
                         val: pa.array(np.arange(n), pa.int64())})

    return side(1500, "lv", 13), side(300, "rv", 17)


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("on", ["k", "s", ["k", "s"]])
def test_hash_join_regimes_agree(ray_session, monkeypatch, many_buckets,
                                 cogroups, how, on):
    """Inner and left joins on an integer, a string and a composite key,
    each with NULL keys, give equal rows and columns either way; the
    colliding ``t`` column takes the suffix in both."""
    left, right = _keyed_sides()
    bc, sh = _regimes(monkeypatch, many_buckets, cogroups,
                      lambda: hash_join(_ds(left), _ds(right), on=on,
                                        how=how))
    assert bc[0] == sh[0] and "t_r" in bc[0]
    pd.testing.assert_frame_equal(bc[1], sh[1])
    assert len(bc[1]) > 0


@pytest.mark.parametrize("direction", ["backward", "forward", "nearest"])
def test_asof_join_regimes_agree(ray_session, monkeypatch, many_buckets,
                                 cogroups, direction):
    """Every direction gives equal rows and columns either way, over
    NULL keys and times and tied right times."""
    left, right = _keyed_sides(11)
    tmask = np.arange(right.num_rows) % 23 == 5
    right = right.set_column(2, "t", pa.array(
        right["t"].to_numpy() // 4 * 4, pa.int64(), mask=tmask))
    bc, sh = _regimes(monkeypatch, many_buckets, cogroups,
                      lambda: asof_join(_ds(left), _ds(right), on="k",
                                        left_time="t", right_time="t",
                                        direction=direction))
    assert bc[0] == sh[0] == ["k", "s", "t", "lv", "s_r", "t_r", "rv"]
    pd.testing.assert_frame_equal(bc[1], sh[1])
    assert len(bc[1]) > 0


@pytest.mark.parametrize("value_type", [pa.int64(), pa.float64()])
def test_range_join_regimes_agree(ray_session, monkeypatch, many_buckets,
                                  cogroups, value_type):
    """Integer bounds, overlapping and empty intervals, negative points
    (integer, and float ones that match where their floor does) and NULL
    points: equal rows and columns either way."""
    rng = np.random.default_rng(5)
    lo = rng.integers(-2_000, 8_000, 60)
    hi = lo + rng.integers(-50, 1_500, 60)
    bands = pa.table({"band": pa.array(np.arange(60), pa.int64()),
                      "lo": pa.array(lo, pa.int64()),
                      "hi": pa.array(hi, pa.int64())})
    v = rng.uniform(-2_500, 10_000, 2_000)
    if pa.types.is_integer(value_type):
        v = np.round(v)
    pts = pa.table({"pid": pa.array(np.arange(2_000), pa.int64()),
                    "v": pa.array(v, value_type,
                                  mask=np.arange(2_000) % 97 == 0),
                    "lo": pa.array(np.zeros(2_000, np.int64))})
    bc, sh = _regimes(monkeypatch, many_buckets, cogroups,
                      lambda: range_join(_ds(pts), _ds(bands, 2), value="v",
                                         lo="lo", hi="hi",
                                         bin_width=500.0))
    assert bc[0] == sh[0] == ["pid", "v", "lo", "band", "lo_r", "hi"]
    pd.testing.assert_frame_equal(bc[1], sh[1])
    vals = pts["v"].to_numpy(zero_copy_only=False)
    want = sum(int(((lo <= np.floor(x)) & (np.floor(x) < hi)).sum())
               for x in vals if not np.isnan(x))
    assert len(bc[1]) == want > 0


def _build_bytes(tbl):
    return _ds(tbl).materialize().size_bytes()


def test_choice_follows_build_side_bytes(ray_session, monkeypatch,
                                         cogroups):
    """A few-KB build side is broadcast and never reaches the co-group
    under the module constant.  A side of exactly the constant still
    broadcasts; one byte over it co-groups."""
    left, right = _keyed_sides()
    bands = pa.table({"lo": pa.array([0, 100], pa.int64()),
                      "hi": pa.array([50, 300], pa.int64())})
    ops = [
        (right, lambda r: hash_join(_ds(left), r, on="k")),
        (right, lambda r: hash_join(_ds(left), r, on="k", how="left")),
        (right, lambda r: asof_join(_ds(left), r, on="k", left_time="t",
                                    right_time="t")),
        (bands, lambda r: range_join(_ds(left), r, value="t", lo="lo",
                                     hi="hi", bin_width=100.0)),
    ]
    for build, op in ops:
        nbytes = _build_bytes(build)
        assert 0 < nbytes < join._BROADCAST_BYTES
        del cogroups[:]
        op(_ds(build)).materialize()
        assert cogroups == []
        for limit, shuffled in ((nbytes, False), (nbytes - 1, True)):
            with monkeypatch.context() as m:
                m.setattr(join, "_BROADCAST_BYTES", limit)
                del cogroups[:]
                op(_ds(build)).materialize()
                assert bool(cogroups) == shuffled, (limit, nbytes)


def test_broadcast_threshold_stays_under_sizing_cap():
    """The choice reads no more of the build side than sizing does."""
    assert 0 < join._BROADCAST_BYTES <= (exchange._MAX_BUCKETS
                                         * exchange._BUCKET_BYTES)


def test_right_full_and_salted_joins_always_shuffle(ray_session, cogroups):
    """A broadcast probe keeps left rows only, and salting needs the
    co-group's buckets: right and full joins and ``hot_keys`` co-group
    whatever the sizes, as do float interval bounds."""
    left, right = _keyed_sides()
    for how in ("right", "full"):
        hash_join(_ds(left), _ds(right), on="k", how=how).materialize()
    hash_join(_ds(left), _ds(right), on="k", how="left",
              hot_keys=np.array([7]), salt=2).materialize()
    bands = pa.table({"lo": pa.array([0.0, 100.0]),
                      "hi": pa.array([50.0, 300.0])})
    range_join(_ds(left), _ds(bands, 1), value="t", lo="lo", hi="hi",
               bin_width=100.0).materialize()
    assert len(cogroups) == 4


_EMPTY = pa.table({"k": pa.array([], pa.int64()),
                   "t": pa.array([], pa.int64())})
_ROWS = pa.table({"k": pa.array([1, 2, 2, None], pa.int64()),
                  "t": pa.array([5, 6, 7, 8], pa.int64()),
                  "v": pa.array([10, 20, 30, 40], pa.int64())})
_EMPTY_OPS = {
    "inner": (lambda x, y: hash_join(x, y, on="k"), False),
    "left": (lambda x, y: hash_join(x, y, on="k", how="left"), True),
    "semi": (lambda x, y: semi_join(x, y, on="k"), False),
    "anti": (lambda x, y: anti_join(x, y, on="k"), True),
    "asof": (lambda x, y: asof_join(x, y, on="k", left_time="t",
                                    right_time="t"), False),
    "range": (lambda x, y: range_join(x, y, value="t", lo="k", hi="t",
                                      bin_width=10.0), False),
}


@pytest.mark.parametrize("empty_side", ["left", "right"])
@pytest.mark.parametrize("op", sorted(_EMPTY_OPS))
def test_schemaless_empty_side(ray_session, op, empty_side):
    """Ray reports no schema for an empty table after a repartition.
    As either side it matches nothing: inner, semi, as-of and range
    joins give no rows, left and anti joins every left row."""
    empty = _ds(_EMPTY)
    assert empty.schema() is None
    fn, keeps_left = _EMPTY_OPS[op]
    if empty_side == "left":
        out, want = fn(empty, _ds(_ROWS, 2)), 0
    else:
        out, want = fn(_ds(_ROWS, 2), empty), 4 if keeps_left else 0
    assert out.count() == want
    if want:
        assert sorted(out.to_pandas()["v"]) == [10, 20, 30, 40]
