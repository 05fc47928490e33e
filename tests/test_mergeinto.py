"""MERGE INTO keyed layout: correctness, pruning, atomic replace."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from geobuf_ray.state.mergeinto import (build_keyed_layout, merge_into,
                                        read_keyed_layout)


def _base(n=500):
    k = np.arange(n, dtype=np.int64)
    return pa.table({"id": pa.array(k),
                     "ver": pa.array(np.zeros(n, np.int64)),
                     "val": pa.array(k * 10)})


def _fingerprints(d):
    out = {}
    for f in os.listdir(d):
        if f.startswith("part-"):
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                out[f] = fh.read()
    return out


def test_merge_into_latest_wins_and_prunes(ray_session, tmp_path):
    import ray

    d = str(tmp_path / "layout")
    build_keyed_layout(ray.data.from_arrow(_base()).repartition(4),
                       d, key="id", version="ver", npartitions=32)
    before = _fingerprints(d)

    # delta: update ids 0..9 (ver 2), stale update id 10 at SAME ver 0
    # (delta wins ties), insert new ids 1000..1004
    ids = list(range(10)) + [10] + list(range(1000, 1005))
    delta = pa.table({
        "id": pa.array(ids, pa.int64()),
        "ver": pa.array([2] * 10 + [0] + [1] * 5, pa.int64()),
        "val": pa.array([i * 100 for i in ids], pa.int64())})
    res = merge_into(d, ray.data.from_arrow(delta).repartition(3))
    assert res["touched"] and res["untouched"] >= 1

    got = {r["id"]: (r["ver"], r["val"])
           for r in read_keyed_layout(d).take_all()}
    assert len(got) == 505
    for i in range(10):
        assert got[i] == (2, i * 100)      # update won by version
    assert got[10] == (0, 1000)            # tie: delta wins
    for i in range(1000, 1005):
        assert got[i] == (1, i * 100)      # inserts
    assert got[11] == (0, 110)             # untouched row intact

    # pruning proof: partitions with no delta rows are byte-identical
    after = _fingerprints(d)
    from geobuf_ray.state.mergeinto import _part_ids

    dp = set(_part_ids(delta, "id", 32).tolist())
    for f, blob in before.items():
        i = int(f.split("-")[1].split(".")[0])
        if i not in dp:
            assert after[f] == blob, f


def test_merge_into_empty_delta_touches_nothing(ray_session, tmp_path):
    import ray

    d = str(tmp_path / "layout")
    build_keyed_layout(ray.data.from_arrow(_base(50)), d, key="id",
                       version="ver", npartitions=4)
    before = _fingerprints(d)
    res = merge_into(d, ray.data.from_arrow(_base(0)))
    assert res["touched"] == [] and res["untouched"] == 4
    assert _fingerprints(d) == before


def test_merge_into_stale_delta_loses(ray_session, tmp_path):
    import ray

    d = str(tmp_path / "layout")
    base = pa.table({"id": pa.array([1, 2], pa.int64()),
                     "ver": pa.array([5, 5], pa.int64()),
                     "val": pa.array([10, 20], pa.int64())})
    build_keyed_layout(ray.data.from_arrow(base), d, key="id",
                       version="ver", npartitions=2)
    delta = pa.table({"id": pa.array([1], pa.int64()),
                      "ver": pa.array([3], pa.int64()),  # older
                      "val": pa.array([999], pa.int64())})
    merge_into(d, ray.data.from_arrow(delta))
    got = {r["id"]: r["val"] for r in read_keyed_layout(d).take_all()}
    assert got == {1: 10, 2: 20}


def test_delete_from_prunes_and_is_idempotent(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import delete_from

    d = str(tmp_path / "layout")
    build_keyed_layout(ray.data.from_arrow(_base(300)), d, key="id",
                       version="ver", npartitions=16)
    before = _fingerprints(d)
    res = delete_from(d, np.array([5, 6, 7, 9999], dtype=np.int64))
    assert res["deleted"] == 3            # 9999 absent: no-op
    got = {r["id"] for r in read_keyed_layout(d).take_all()}
    assert got == set(range(300)) - {5, 6, 7}
    # pruned partitions byte-identical
    from geobuf_ray.state.mergeinto import _part_ids

    ktbl = pa.table({"id": pa.array([5, 6, 7, 9999], pa.int64())})
    dp = set(_part_ids(ktbl, "id", 16).tolist())
    after = _fingerprints(d)
    for f, blob in before.items():
        i = int(f.split("-")[1].split(".")[0])
        if i not in dp:
            assert after[f] == blob
    # replay: nothing left to delete, nothing rewritten
    mid = _fingerprints(d)
    res2 = delete_from(d, np.array([5, 6, 7], dtype=np.int64))
    assert res2["deleted"] == 0
    assert _fingerprints(d) == mid


def test_merge_on_read_equals_copy_on_write(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import (append_delta,
                                            compact_keyed_layout)

    d1 = pa.table({"id": pa.array([0, 1, 10, 2000], pa.int64()),
                   "ver": pa.array([5, 5, 0, 1], pa.int64()),
                   "val": pa.array([7, 8, 9, 10], pa.int64())})
    # second delta overlaps id 0 at the SAME version 5: the later
    # append must win; id 10 at ver 0 ties the BASE row and must win
    d2 = pa.table({"id": pa.array([0, 10, 2001], pa.int64()),
                   "ver": pa.array([5, 0, 1], pa.int64()),
                   "val": pa.array([70, 90, 11], pa.int64())})

    # copy-on-write reference: eager merges on a twin layout
    cow = str(tmp_path / "cow")
    build_keyed_layout(ray.data.from_arrow(_base()), cow, key="id",
                       version="ver", npartitions=16)
    merge_into(cow, ray.data.from_arrow(d1))
    merge_into(cow, ray.data.from_arrow(d2))
    want = {r["id"]: (r["ver"], r["val"])
            for r in read_keyed_layout(cow).take_all()}

    mor = str(tmp_path / "mor")
    build_keyed_layout(ray.data.from_arrow(_base()), mor, key="id",
                       version="ver", npartitions=16)
    before = _fingerprints(mor)
    append_delta(mor, ray.data.from_arrow(d1))
    append_delta(mor, ray.data.from_arrow(d2))
    # append never touches a base file — EVERY base file byte-identical
    assert _fingerprints(mor) == before
    got = {r["id"]: (r["ver"], r["val"])
           for r in read_keyed_layout(mor).take_all()}
    assert got == want
    assert got[0] == (5, 70)       # later append wins the version tie
    assert got[10] == (0, 90)      # delta beats base on a tie
    assert got[2000] == (1, 10) and got[2001] == (1, 11)   # inserts

    # pending deltas block the copy-on-write paths
    from geobuf_ray.state.mergeinto import delete_from

    with pytest.raises(ValueError, match="pending"):
        merge_into(mor, ray.data.from_arrow(d1))
    with pytest.raises(ValueError, match="pending"):
        delete_from(mor, np.array([0], np.int64))

    # compaction folds deltas in: same logical rows, no delta files,
    # untouched partitions byte-identical
    touched_parts = {int(f.split("-")[1]) for f in os.listdir(mor)
                     if f.startswith("delta-")}
    res = compact_keyed_layout(mor)
    assert sorted(touched_parts) == res["compacted"]
    assert not [f for f in os.listdir(mor) if f.startswith("delta-")]
    after = _fingerprints(mor)
    for f, blob in before.items():
        if int(f.split("-")[1].split(".")[0]) not in touched_parts:
            assert after[f] == blob
    got2 = {r["id"]: (r["ver"], r["val"])
            for r in read_keyed_layout(mor).take_all()}
    assert got2 == want

    # compacted layout accepts copy-on-write writes again
    merge_into(mor, ray.data.from_arrow(
        pa.table({"id": pa.array([3000], pa.int64()),
                  "ver": pa.array([9], pa.int64()),
                  "val": pa.array([1], pa.int64())})))
    assert read_keyed_layout(mor).count() == len(want) + 1


def test_append_delta_intra_file_last_wins(ray_session, tmp_path):
    """Two rows for one key inside ONE delta: the later row wins a
    version tie (merge_into's stable-sort order)."""
    import ray

    from geobuf_ray.state.mergeinto import (append_delta,
                                            compact_keyed_layout)

    d = str(tmp_path / "layout")
    build_keyed_layout(ray.data.from_arrow(_base(50)), d, key="id",
                       version="ver", npartitions=4)
    delta = pa.table({"id": pa.array([7, 7, 7], pa.int64()),
                      "ver": pa.array([3, 3, 2], pa.int64()),
                      "val": pa.array([100, 200, 300], pa.int64())})
    append_delta(d, ray.data.from_arrow(delta).repartition(1))
    got = {r["id"]: (r["ver"], r["val"])
           for r in read_keyed_layout(d).take_all()}
    assert got[7] == (3, 200)
    compact_keyed_layout(d)
    got = {r["id"]: (r["ver"], r["val"])
           for r in read_keyed_layout(d).take_all()}
    assert got[7] == (3, 200)


def test_time_travel_snapshots(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import (append_delta,
                                            compact_keyed_layout)

    d = str(tmp_path / "tt")
    build_keyed_layout(ray.data.from_arrow(_base(100)), d, key="id",
                       version="ver", npartitions=8)

    d1 = pa.table({"id": pa.array([3, 200], pa.int64()),
                   "ver": pa.array([1, 1], pa.int64()),
                   "val": pa.array([333, 2000], pa.int64())})
    d2 = pa.table({"id": pa.array([3, 7], pa.int64()),
                   "ver": pa.array([2, 2], pa.int64()),
                   "val": pa.array([444, 777], pa.int64())})
    r1 = append_delta(d, ray.data.from_arrow(d1))
    r2 = append_delta(d, ray.data.from_arrow(d2))
    assert (r1["snapshot"], r2["snapshot"]) == (1, 2)

    def state(**kw):
        return {r["id"]: r["val"]
                for r in read_keyed_layout(d, **kw).take_all()}

    s0 = state(as_of=0)
    assert s0[3] == 30 and 200 not in s0 and len(s0) == 100
    s1 = state(as_of=1)
    assert s1[3] == 333 and s1[200] == 2000 and s1[7] == 70
    s2 = state(as_of=2)
    assert s2[3] == 444 and s2[7] == 777 and s2[200] == 2000
    assert state() == s2                     # latest == newest snapshot
    assert state(as_of=99) == s2             # beyond current == latest

    res = compact_keyed_layout(d)
    assert res["compacted_at"] == 2
    assert state() == s2                     # compaction preserves latest
    assert state(as_of=2) == s2              # watermark itself readable
    with pytest.raises(ValueError, match="expired"):
        read_keyed_layout(d, as_of=1)        # history gone

    # a post-compaction append continues the global numbering
    d3 = pa.table({"id": pa.array([3], pa.int64()),
                   "ver": pa.array([9], pa.int64()),
                   "val": pa.array([555], pa.int64())})
    r3 = append_delta(d, ray.data.from_arrow(d3))
    assert r3["snapshot"] == 3
    assert state(as_of=2) == s2
    assert state(as_of=3)[3] == 555


def test_change_feed_types_and_pruning(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import (append_delta,
                                            compact_keyed_layout,
                                            table_changes)

    d = str(tmp_path / "cdf")
    build_keyed_layout(ray.data.from_arrow(_base(100)), d, key="id",
                       version="ver", npartitions=8)
    # snap 1: update id 3; snap 2: update id 7 (real change),
    # touch id 3 with an IDENTICAL row (no change), insert id 500
    append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([3], pa.int64()),
        "ver": pa.array([1], pa.int64()),
        "val": pa.array([333], pa.int64())})))
    append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([7, 3, 500], pa.int64()),
        "ver": pa.array([2, 1, 1], pa.int64()),
        "val": pa.array([777, 333, 5000], pa.int64())})))

    rows = table_changes(d, from_snapshot=1, to_snapshot=2).take_all()
    got = {(r["_change_type"], r["id"]): (r["ver"], r["val"])
           for r in rows}
    assert got == {
        ("insert", 500): (1, 5000),
        ("update_preimage", 7): (0, 70),
        ("update_postimage", 7): (2, 777),
    }  # id 3's identical re-write must NOT appear

    # snapshot-1 churn invisible; from==to is empty
    full = table_changes(d, from_snapshot=0).take_all()
    assert ("update_postimage", 3) in {(r["_change_type"], r["id"])
                                       for r in full}
    assert table_changes(d, from_snapshot=2, to_snapshot=2).count() == 0

    with pytest.raises(ValueError, match=">="):
        table_changes(d, from_snapshot=2, to_snapshot=1)
    compact_keyed_layout(d)
    with pytest.raises(ValueError, match="expired"):
        table_changes(d, from_snapshot=1)


def test_schema_evolution_initial_default(ray_session, tmp_path):
    import pyarrow.parquet as pq_

    import ray

    from geobuf_ray.state.mergeinto import (add_column, append_delta,
                                            compact_keyed_layout,
                                            merge_into)

    d = str(tmp_path / "evo")
    build_keyed_layout(ray.data.from_arrow(_base(40)), d, key="id",
                       version="ver", npartitions=4)
    before = _fingerprints(d)
    add_column(d, "flag", "int64", default=7)
    assert _fingerprints(d) == before      # metadata-only: no file touched

    # pre-evolution rows read as the default
    got = {r["id"]: r["flag"]
           for r in read_keyed_layout(d).take_all()}
    assert set(got.values()) == {7} and len(got) == 40

    # post-evolution append: physical value 9, explicit NULL stays NULL
    append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([100, 101], pa.int64()),
        "ver": pa.array([1, 1], pa.int64()),
        "val": pa.array([1, 2], pa.int64()),
        "flag": pa.array([9, None], pa.int64())})))
    got = {r["id"]: r["flag"]
           for r in read_keyed_layout(d).take_all()}
    assert got[100] == 9 and got[101] is None and got[0] == 7

    # append WITHOUT the column: write-time default fill
    append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([102], pa.int64()),
        "ver": pa.array([1], pa.int64()),
        "val": pa.array([3], pa.int64())})))
    got = {r["id"]: r["flag"]
           for r in read_keyed_layout(d).take_all()}
    assert got[102] == 7
    dfiles = [f for f in os.listdir(d) if f.startswith("delta-")]
    for f in dfiles:  # post-evolution delta files carry it physically
        assert "flag" in pq_.read_schema(os.path.join(d, f)).names

    # compaction materializes (in the partitions it rewrites —
    # delta-free partitions are pruned and keep default-on-read)
    res = compact_keyed_layout(d)
    assert res["compacted"]
    i = res["compacted"][0]
    assert "flag" in pq_.read_schema(
        os.path.join(d, f"part-{i}.parquet")).names
    got2 = {r["id"]: r["flag"]
            for r in read_keyed_layout(d).take_all()}
    assert got2 == got

    # CoW merge also fills at write time
    merge_into(d, ray.data.from_arrow(pa.table({
        "id": pa.array([0], pa.int64()),
        "ver": pa.array([5], pa.int64()),
        "val": pa.array([99], pa.int64())})))
    got3 = {r["id"]: (r["val"], r["flag"])
            for r in read_keyed_layout(d).take_all()}
    assert got3[0] == (99, 7)

    with pytest.raises(ValueError, match="already exists"):
        add_column(d, "flag", "int64", default=0)
    with pytest.raises(ValueError, match="already exists"):
        add_column(d, "val", "int64", default=0)


def test_cow_writes_advance_snapshot_and_watermark(ray_session,
                                                   tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import (append_delta, delete_from,
                                            table_changes)

    d = str(tmp_path / "cowsnap")
    build_keyed_layout(ray.data.from_arrow(_base(50)), d, key="id",
                       version="ver", npartitions=4)
    res = merge_into(d, ray.data.from_arrow(pa.table({
        "id": pa.array([1], pa.int64()),
        "ver": pa.array([9], pa.int64()),
        "val": pa.array([111], pa.int64())})))
    assert res["snapshot"] == 1
    # the rewrite destroyed snapshot 0: historical reads must raise,
    # never silently serve post-merge state as 'the base build'
    with pytest.raises(ValueError, match="expired"):
        read_keyed_layout(d, as_of=0)
    with pytest.raises(ValueError, match="expired"):
        table_changes(d, from_snapshot=0)
    assert {r["id"]: r["val"]
            for r in read_keyed_layout(d, as_of=1).take_all()}[1] == 111

    res2 = delete_from(d, np.array([2], np.int64))
    assert res2["snapshot"] == 2
    with pytest.raises(ValueError, match="expired"):
        read_keyed_layout(d, as_of=1)
    # a no-op CoW write (nothing matched) is NOT a new snapshot
    res3 = delete_from(d, np.array([99999], np.int64))
    assert "snapshot" not in res3
    assert read_keyed_layout(d, as_of=2).count() == 49

    # MoR append after CoW writes continues the numbering
    r = append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([3], pa.int64()),
        "ver": pa.array([9], pa.int64()),
        "val": pa.array([333], pa.int64())})))
    assert r["snapshot"] == 3


def test_append_snapshot_floor_survives_orphan_files(ray_session,
                                                     tmp_path):
    """A crashed append (delta files on disk, meta not advanced) must
    not have its files overwritten by snapshot-id reuse."""
    import ray

    from geobuf_ray.state.mergeinto import append_delta

    d = str(tmp_path / "orphan")
    build_keyed_layout(ray.data.from_arrow(_base(20)), d, key="id",
                       version="ver", npartitions=2)
    # simulate the crash: a delta file exists at seq 2, meta says 0
    orphan = pa.table({"id": pa.array([999], pa.int64()),
                       "ver": pa.array([1], pa.int64()),
                       "val": pa.array([9], pa.int64())})
    import pyarrow.parquet as pq_
    pq_.write_table(orphan, os.path.join(d, "delta-0-00002.parquet"))
    before = open(os.path.join(d, "delta-0-00002.parquet"), "rb").read()

    r = append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([5], pa.int64()),
        "ver": pa.array([1], pa.int64()),
        "val": pa.array([55], pa.int64())})))
    assert r["snapshot"] == 3  # floor over disk seqs, not meta
    after = open(os.path.join(d, "delta-0-00002.parquet"), "rb").read()
    assert after == before  # orphan never clobbered


def test_rebalance_grow_shrink_and_guards(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import (add_column, append_delta,
                                            _part_ids,
                                            rebalance_keyed_layout)

    d = str(tmp_path / "rebal")
    build_keyed_layout(ray.data.from_arrow(_base(300)), d, key="id",
                       version="ver", npartitions=4)
    add_column(d, "flag", "int64", default=7)

    def state():
        return {r["id"]: (r["val"], r["flag"])
                for r in read_keyed_layout(d).take_all()}

    before = state()
    res = rebalance_keyed_layout(d, 12)          # grow
    assert res["rows"] == 300 and res["snapshot"] == 1
    assert state() == before
    files = [f for f in os.listdir(d)
             if f.startswith("part-") and f.endswith(".parquet")]
    assert len(files) == 12
    for f in files:  # every key routed to its pinned-hash partition
        i = int(f.split("-")[1].split(".")[0])
        t = pq.read_table(os.path.join(d, f))
        if t.num_rows:
            assert (_part_ids(t, "id", 12) == i).all()
            assert "flag" in t.column_names  # evolution materialized

    res2 = rebalance_keyed_layout(d, 3)          # shrink
    assert res2["rows"] == 300 and state() == before
    assert len([f for f in os.listdir(d) if f.startswith("part-")
                and f.endswith(".parquet")]) == 3

    # pending deltas refuse a rebalance
    append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([1], pa.int64()),
        "ver": pa.array([9], pa.int64()),
        "val": pa.array([1], pa.int64()),
        "flag": pa.array([1], pa.int64())})))
    with pytest.raises(ValueError, match="pending"):
        rebalance_keyed_layout(d, 6)


def test_vacuum_removes_debris_only(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import (append_delta,
                                            compact_keyed_layout,
                                            vacuum_keyed_layout)

    d = str(tmp_path / "vac")
    build_keyed_layout(ray.data.from_arrow(_base(50)), d, key="id",
                       version="ver", npartitions=4)
    append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([1], pa.int64()),
        "ver": pa.array([9], pa.int64()),
        "val": pa.array([11], pa.int64())})))
    compact_keyed_layout(d)
    # live delta ABOVE the watermark + crash debris
    append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([2], pa.int64()),
        "ver": pa.array([9], pa.int64()),
        "val": pa.array([22], pa.int64())})))
    open(os.path.join(d, ".part-0.parquet.tmp"), "wb").write(b"junk")
    # an expired delta a crashed compact left behind (seq <= watermark)
    pq.write_table(pa.table({"id": pa.array([1], pa.int64()),
                             "ver": pa.array([9], pa.int64()),
                             "val": pa.array([11], pa.int64())}),
                   os.path.join(d, "delta-1-00001.parquet"))

    before = {r["id"]: r["val"]
              for r in read_keyed_layout(d).take_all()}
    res = vacuum_keyed_layout(d)
    assert res["staging"] == [".part-0.parquet.tmp"]
    assert res["expired_deltas"] == ["delta-1-00001.parquet"]
    live = [f for f in os.listdir(d) if f.startswith("delta-")]
    assert len(live) >= 1  # the above-watermark delta survives
    assert {r["id"]: r["val"]
            for r in read_keyed_layout(d).take_all()} == before
    assert vacuum_keyed_layout(d) == {"staging": [],
                                      "expired_deltas": []}


def test_rebalance_crash_windows_roll_forward(ray_session, tmp_path):
    """Two-phase commit: before the pending marker the old layout is
    live and the stage is debris; after it, ANY reader completes the
    swap — and vacuum must never delete staged files that are the
    only copy."""
    import json
    import shutil

    import ray

    from geobuf_ray.state.mergeinto import (_write_meta,
                                            vacuum_keyed_layout)

    d = str(tmp_path / "crash")
    build_keyed_layout(ray.data.from_arrow(_base(100)), d, key="id",
                       version="ver", npartitions=4)
    want = {r["id"]: r["val"] for r in read_keyed_layout(d).take_all()}

    # window 1: stage written, marker NOT yet committed -> old layout
    # is authoritative; vacuum removes the uncommitted stage
    os.makedirs(os.path.join(d, "rebalance.tmp"))
    pq.write_table(pa.table({"junk": pa.array([1])}),
                   os.path.join(d, "rebalance.tmp/part-0.parquet"))
    assert {r["id"]: r["val"]
            for r in read_keyed_layout(d).take_all()} == want
    res = vacuum_keyed_layout(d)
    assert "rebalance.tmp/" in res["staging"]
    assert not os.path.isdir(os.path.join(d, "rebalance.tmp"))

    # window 2: marker committed, swap interrupted mid-move -> the
    # next reader rolls forward; vacuum moves (never deletes) staged
    # files. Simulate: stage a REAL 2-partition re-bucketing, commit
    # the marker, move only one file, and delete one old file.
    full = pa.concat_tables([pq.read_table(os.path.join(d, f))
                             for f in sorted(os.listdir(d))
                             if f.startswith("part-")])
    from geobuf_ray.state.mergeinto import _part_ids

    pid = _part_ids(full, "id", 2)
    os.makedirs(os.path.join(d, "rebalance.tmp"))
    for i in range(2):
        pq.write_table(full.filter(pa.array(pid == i)),
                       os.path.join(d, f"rebalance.tmp/part-{i}.parquet"))
    with open(os.path.join(d, "meta.json")) as f:
        meta = json.load(f)
    meta["rebalance_pending"] = 2
    meta["snapshot"] = meta["compacted_at"] = 1
    _write_meta(d, meta)
    # interrupted swap: one staged file moved, one old file removed
    os.replace(os.path.join(d, "rebalance.tmp/part-0.parquet"),
               os.path.join(d, "part-0.parquet"))
    os.remove(os.path.join(d, "part-3.parquet"))

    got = {r["id"]: r["val"] for r in read_keyed_layout(d).take_all()}
    assert got == want                       # roll-forward completed
    files = sorted(f for f in os.listdir(d) if f.startswith("part-"))
    assert files == ["part-0.parquet", "part-1.parquet"]
    with open(os.path.join(d, "meta.json")) as f:
        m2 = json.load(f)
    assert m2["npartitions"] == 2 and "rebalance_pending" not in m2
    assert not os.path.isdir(os.path.join(d, "rebalance.tmp"))


def test_point_lookup_prunes_and_sees_deltas(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import _part_ids, append_delta

    d = str(tmp_path / "lookup")
    build_keyed_layout(ray.data.from_arrow(_base(500)), d, key="id",
                       version="ver", npartitions=16)
    append_delta(d, ray.data.from_arrow(pa.table({
        "id": pa.array([7], pa.int64()),
        "ver": pa.array([9], pa.int64()),
        "val": pa.array([777], pa.int64())})))

    want_keys = np.array([7, 123, 456, 99999], np.int64)  # one absent
    ds = read_keyed_layout(d, keys=want_keys)
    got = {r["id"]: r["val"] for r in ds.take_all()}
    assert got == {7: 777, 123: 1230, 456: 4560}  # delta visible

    # pruning: output blocks == partitions the hash routes to, only
    ktbl = pa.table({"id": pa.array(want_keys, pa.int64())})
    wanted = set(np.unique(_part_ids(ktbl, "id", 16)).tolist())
    assert ds.num_blocks() == len(wanted) <= 4

    # empty key set: empty result with the right schema, no error
    empty = read_keyed_layout(d, keys=np.array([], np.int64))
    assert empty.count() == 0
    assert set(empty.schema().names) == {"id", "ver", "val"}


def test_lookup_join_inner_left_and_delta_visibility(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import (append_delta,
                                            build_keyed_layout,
                                            lookup_join)

    d = str(tmp_path / "lkj")
    build_keyed_layout(ray.data.from_arrow(_base(200)), d, key="id",
                       version="ver", npartitions=8)
    # MoR delta: ids 0,10,..,190 get val boosted
    delta = pa.table({"id": pa.array(np.arange(0, 200, 10), pa.int64()),
                      "ver": pa.array(np.ones(20, np.int64)),
                      "val": pa.array(np.arange(0, 200, 10) * 10 + 7)})
    append_delta(d, ray.data.from_arrow(delta))

    probe = pa.table({"l": pa.array([0, 5, 10, 10, 250, 42], pa.int64()),
                      "tag": pa.array(list("abcdef"), pa.string())})
    inner = lookup_join(ray.data.from_arrow(probe).repartition(3),
                        d, "l").to_pandas() \
        .sort_values(["l", "tag"]).reset_index(drop=True)
    # 250 is absent -> dropped; delta'd vals visible
    assert inner["l"].tolist() == [0, 5, 10, 10, 42]
    assert inner["val"].tolist() == [7, 50, 107, 107, 420]

    left = lookup_join(ray.data.from_arrow(probe), d, "l",
                       how="left").to_pandas() \
        .sort_values(["l", "tag"]).reset_index(drop=True)
    assert len(left) == 6
    assert left[left.l == 250]["val"].isna().all()


def test_lookup_join_prunes_partitions(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.mergeinto import (LookupJoinFn,
                                            build_keyed_layout)

    d = str(tmp_path / "prune")
    build_keyed_layout(ray.data.from_arrow(_base(400)), d, key="id",
                       version="ver", npartitions=16)
    fn = LookupJoinFn(d, "l")
    probe = pa.table({"l": pa.array([3, 3, 3, 7], pa.int64())})
    out = fn(probe)
    assert out.num_rows == 4
    # only the partitions those two keys hash to were resolved
    assert len(fn._cache) <= 2

    with pytest.raises(ValueError, match="null"):
        fn(pa.table({"l": pa.array([1, None], pa.int64())}))


def test_zonemap_prunes_and_reads_exact(ray_session, tmp_path):
    import ray

    from geobuf_ray.state.zonemap import (read_with_zonemap,
                                          zonemap_build, zonemap_files)

    d = str(tmp_path / "zm")
    rng = np.random.default_rng(3)
    tbl = pa.table({"v": pa.array(rng.permutation(5000), pa.int64()),
                    "w": pa.array(np.arange(5000), pa.int64())})
    zonemap_build(ray.data.from_arrow(tbl).repartition(4), d,
                  columns=["v"], sort_by="v", rows_per_file=500)
    files, total = zonemap_files(d, "v", 1200, 1399)
    # sorted layout: zones are disjoint, the 200-row window touches
    # only a couple of files (block-boundary slivers allowed)
    assert total >= 10 and 1 <= len(files) <= 3 and len(files) < total
    out = read_with_zonemap(d, "v", 1200, 1399).to_pandas()
    assert sorted(out["v"]) == list(range(1200, 1400))

    # unsorted layout: zones overlap, pruning degrades but stays exact
    d2 = str(tmp_path / "zm2")
    zonemap_build(ray.data.from_arrow(tbl).repartition(4), d2,
                  columns=["v"], rows_per_file=500)
    out2 = read_with_zonemap(d2, "v", 1200, 1399).to_pandas()
    assert sorted(out2["v"]) == list(range(1200, 1400))

    with pytest.raises(KeyError):
        zonemap_files(d, "w", 0, 1)
