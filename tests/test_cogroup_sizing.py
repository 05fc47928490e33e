"""The two-sided exchange sizes itself from both inputs' bytes: every
join and set operation gives the same rows on one bucket as spread over
many (an empty side included), and a few-KB join runs on one bucket."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geobuf_ray.functions.join import anti_join, asof_join, hash_join, \
    semi_join
from geobuf_ray.functions.setops import except_all, except_distinct, \
    intersect_all, intersect_distinct

_SALT = 4


def _ds(tbl, parts=3):
    import ray

    ds = ray.data.from_arrow(tbl)
    # an empty table keeps its schema only unrepartitioned
    return ds.repartition(parts) if tbl.num_rows else ds


def _sides(n_l=600, n_r=200):
    rng = np.random.default_rng(3)

    def side(n, val):
        k = rng.integers(0, 60, n)
        k[: n // 4] = 7  # a hot key for the salted join
        return pa.table({"k": pa.array(k, pa.int64()),
                         "t": pa.array(rng.integers(0, 1000, n), pa.int64()),
                         val: pa.array(np.arange(n), pa.int64())})

    return side(n_l, "lv"), side(n_r, "rv")


def _rows(ds):
    return ds.select_columns(["k"])


OPS = {
    "inner": lambda x, y: hash_join(x, y, on="k"),
    "left": lambda x, y: hash_join(x, y, on="k", how="left"),
    "right": lambda x, y: hash_join(x, y, on="k", how="right"),
    "full": lambda x, y: hash_join(x, y, on="k", how="full"),
    "salted": lambda x, y: hash_join(x, y, on="k", how="left",
                                     hot_keys=np.array([7]), salt=_SALT),
    "semi": lambda x, y: semi_join(x, y, on="k"),
    "anti": lambda x, y: anti_join(x, y, on="k"),
    "asof": lambda x, y: asof_join(x, y, on="k", left_time="t",
                                   right_time="t"),
    "intersect_distinct": lambda x, y: intersect_distinct(_rows(x),
                                                          _rows(y)),
    "except_distinct": lambda x, y: except_distinct(_rows(x), _rows(y)),
    "intersect_all": lambda x, y: intersect_all(_rows(x), _rows(y)),
    "except_all": lambda x, y: except_all(_rows(x), _rows(y)),
}


def _canon(ds):
    df = ds.to_pandas()
    if len(df) == 0:
        return None
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


@pytest.mark.parametrize("op", sorted(OPS))
def test_many_buckets_equal_one_bucket(ray_session, shuffle_joins,
                                       many_buckets, op):
    """Each operator's rows spread over many buckets equal its rows on
    the one bucket these few KB size to, also with an empty side."""
    left, right = _sides()
    extra = _SALT if op == "salted" else 0
    for lt, rt in ((left, right), (left, right.slice(0, 0)),
                   (left.slice(0, 0), right)):
        one = OPS[op](_ds(lt), _ds(rt))
        assert one.num_blocks() == 1 + extra
        with many_buckets(512):
            many = OPS[op](_ds(lt), _ds(rt))
            assert many.num_blocks() > 1 + extra
            got = _canon(many)
        want = _canon(one)
        if want is None:
            assert got is None
        else:
            pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("op", [hash_join, semi_join, anti_join, asof_join,
                                intersect_distinct, except_distinct,
                                intersect_all, except_all])
def test_operators_take_no_count(op):
    """No join or set operation takes a bucket count, and none swallows
    one through ``**kwargs``: a stale ``nbuckets=`` raises TypeError."""
    import inspect

    params = inspect.signature(op).parameters.values()
    assert "nbuckets" not in [p.name for p in params]
    assert all(p.kind != p.VAR_KEYWORD for p in params)


def test_small_join_runs_on_one_bucket(ray_session, shuffle_joins):
    """A join of a few KB is one reduce task, so one output block."""
    left, right = _sides()
    out = hash_join(_ds(left), _ds(right), on="k")
    assert out.num_blocks() == 1
    assert out.count() == len(left.to_pandas().merge(right.to_pandas(),
                                                     on="k"))


def test_cogroup_sizes_from_both_sides(ray_session, many_buckets):
    """The count is ``clamp(ceil((L + R) / _BUCKET_BYTES), 1,
    _MAX_BUCKETS)`` from both sides' block metadata; a custom bucket
    function still needs an explicit count."""
    import geobuf_ray.functions.exchange as ex
    from geobuf_ray.collect import collect_table

    left, right = _sides()
    lds, rds = _ds(left).materialize(), _ds(right).materialize()
    nbytes = lds.size_bytes() + rds.size_bytes()

    def count(lt, rt):
        return pa.table({"n": [lt.num_rows + rt.num_rows]})

    with many_buckets(1024):
        want = min(ex._MAX_BUCKETS, -(-nbytes // ex._BUCKET_BYTES))
        assert -(-lds.size_bytes() // ex._BUCKET_BYTES) < want
        assert 1 < want < ex._MAX_BUCKETS
        out = ex.hash_cogroup(lds, rds, left_on="k", right_on="k",
                              reduce_fn=count)
        assert out.num_blocks() == want
        n = collect_table(out)["n"].to_pylist()
    assert sum(n) == left.num_rows + right.num_rows
    with pytest.raises(ValueError, match="nbuckets"):
        ex.hash_cogroup(lds, rds, left_bucket_fn=ex._zero_bucket,
                        right_on="k", reduce_fn=count)
