"""Distributed SQL set operations (INTERSECT / EXCEPT, distinct forms).

The reference engine has no set operations (SURVEY.md §2.7: absent);
these complete the relational surface next to union (`ds.union`).
Semantics are SQL's: both inputs are deduplicated, NULLs compare equal
(IS NOT DISTINCT FROM), and the output holds each qualifying row once.

Shape: one hash exchange per side on ALL columns (rows that are equal
hash to the same bucket), then an exact Arrow ``group_by`` over the
whole row per bucket — the hash only routes; membership is decided by
Arrow's own multi-column hash kernel, so hash collisions cannot merge
distinct rows.  Nothing centralizes: each bucket resolves its own
membership independently.
"""

from __future__ import annotations

import pyarrow as pa


def _setop(left, right, *, keep_both: bool, schema: pa.Schema | None):
    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_rows == 0 or lt.num_columns == 0:
            return (schema.empty_table() if schema is not None
                    else lt.slice(0, 0))
        names = lt.column_names
        ldist = lt.group_by(names).aggregate([])
        if rt.num_rows == 0 or rt.num_columns == 0:
            return ldist.slice(0, 0) if keep_both else ldist
        rdist = rt.select(names).group_by(names).aggregate([])
        # tag the sides, group the union by the whole row: a group
        # whose min(side)==0 came from the left; max(side)==1 means the
        # right also has it
        tagged = pa.concat_tables([
            ldist.append_column("__side", pa.array([0] * ldist.num_rows,
                                                   pa.int8())),
            rdist.append_column("__side", pa.array([1] * rdist.num_rows,
                                                   pa.int8())),
        ], promote_options="default")
        g = tagged.group_by(names).aggregate(
            [("__side", "min"), ("__side", "max")])
        import pyarrow.compute as pc

        in_left = pc.equal(g["__side_min"], 0)
        in_right = pc.equal(g["__side_max"], 1)
        mask = pc.and_(in_left, in_right) if keep_both else \
            pc.and_(in_left, pc.invert(in_right))
        return g.filter(mask).select(names)

    return _cogroup_rows(left, right, kernel, schema)


def _cogroup_rows(left, right, kernel, schema: pa.Schema | None):
    """Self-sized co-group on the combined hash of every column (per
    table, so left/right just need the same column NAMES — the exchange
    key is the whole row)."""
    import numpy as np

    from .exchange import _cogroup
    from .join import _combined_hash

    def route(nbuckets: int):
        def fn(tbl: pa.Table):
            names = sorted(tbl.column_names)
            h = _combined_hash(tbl, names) % np.uint64(nbuckets)
            return h.astype(np.int64), tbl

        return nbuckets, fn, fn

    return _cogroup(left, right, route, kernel, schema, schema)


def _setop_all(left, right, *, keep_both: bool, schema: pa.Schema | None):
    """Bag-semantics kernel: INTERSECT ALL emits each row
    min(count_left, count_right) times, EXCEPT ALL emits it
    max(count_left - count_right, 0) times (SQL:2016 7.13).  Only
    DISTINCT rows plus two int64 counts cross the wire per bucket —
    duplicates are collapsed to multiplicities before the repeat."""
    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        import numpy as np

        if lt.num_rows == 0 or lt.num_columns == 0:
            return (schema.empty_table() if schema is not None
                    else lt.slice(0, 0))
        names = lt.column_names
        lc = lt.group_by(names).aggregate([([], "count_all")]) \
            .rename_columns(names + ["__lc"])
        if rt.num_rows == 0 or rt.num_columns == 0:
            if keep_both:
                return lt.slice(0, 0)
            return lc.select(names).take(
                np.repeat(np.arange(lc.num_rows),
                          lc["__lc"].to_numpy(zero_copy_only=False)))
        rc = rt.select(names).group_by(names) \
            .aggregate([([], "count_all")]) \
            .rename_columns(names + ["__rc"])
        zero = pa.array(np.zeros(max(lc.num_rows, rc.num_rows), np.int64))
        tagged = pa.concat_tables([
            lc.append_column("__rc", zero.slice(0, lc.num_rows)),
            rc.append_column("__lc", zero.slice(0, rc.num_rows))
            .select(names + ["__lc", "__rc"]),
        ], promote_options="default")
        g = tagged.group_by(names).aggregate(
            [("__lc", "sum"), ("__rc", "sum")])
        nl = g["__lc_sum"].to_numpy(zero_copy_only=False)
        nr = g["__rc_sum"].to_numpy(zero_copy_only=False)
        reps = (np.minimum(nl, nr) if keep_both
                else np.maximum(nl - nr, 0))
        idx = np.repeat(np.arange(g.num_rows), reps)
        return g.select(names).take(idx)

    return _cogroup_rows(left, right, kernel, schema)


def intersect_distinct(left, right, *, schema: pa.Schema | None = None):
    """SQL ``left INTERSECT right``: distinct rows present in both
    inputs.  Column NAMES must match (order may differ; the right is
    re-projected to the left's order).  NULLs compare equal, as in
    SQL set operations."""
    return _setop(left, right, keep_both=True, schema=schema)


def except_distinct(left, right, *, schema: pa.Schema | None = None):
    """SQL ``left EXCEPT right``: distinct left rows absent from the
    right."""
    return _setop(left, right, keep_both=False, schema=schema)


def intersect_all(left, right, *, schema: pa.Schema | None = None):
    """SQL ``left INTERSECT ALL right``: each row min(count_left,
    count_right) times.  NULLs compare equal; column names must match
    (the right is re-projected to the left's order)."""
    return _setop_all(left, right, keep_both=True, schema=schema)


def except_all(left, right, *, schema: pa.Schema | None = None):
    """SQL ``left EXCEPT ALL right``: each left row max(count_left -
    count_right, 0) times."""
    return _setop_all(left, right, keep_both=False, schema=schema)
