"""Distributed hierarchical aggregates (SQL GROUP BY ROLLUP / CUBE /
GROUPING SETS).

Shape (the one that survives 100 TB): every block first collapses to a
per-block partial at the FINEST grouping level — from then on only
(group, partial-sum) rows move.  One hash exchange makes the finest
level exact and distributed; every coarser grouping re-aggregates an
ALREADY-AGGREGATED level (cardinality shrinks monotonically), so no
stage ever re-reads the input and the grand total reduces a
|distinct(keys)|-row table.  ROLLUP chains each level off the previous
one; GROUPING SETS / CUBE compute each requested set off the finest
level.  Output matches SQL: one row set per grouping with the
rolled-up key columns NULL.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _group_sum(tbl: pa.Table, keys: list[str], vals: list[str],
               out_schema: pa.Schema) -> pa.Table:
    if tbl.num_rows == 0 or tbl.num_columns == 0:
        # project to THIS level's columns — a full-schema empty table
        # would mismatch the non-empty buckets of a coarser level
        return pa.schema([out_schema.field(n)
                          for n in list(keys) + list(vals)]).empty_table()
    if keys:
        g = tbl.group_by(keys).aggregate([(v, "sum") for v in vals])
        g = g.rename_columns(keys + vals)
    else:
        cols = {v: pa.array([tbl[v].to_numpy(zero_copy_only=False).sum()])
                for v in vals}
        g = pa.table(cols)
    return g.cast(pa.schema([out_schema.field(n)
                             for n in g.column_names]))


def _finest_level(ds, key_list: list[str], sums: dict[str, str],
                  count_col: str | None, schema: pa.Schema | None):
    """Per-block partials at the finest grouping, then one skinny
    exchange: returns (finest Dataset, out_schema, types, vals)."""
    from .exchange import hash_exchange

    out_vals = list(sums)
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}

    def sum_type(t: pa.DataType) -> pa.DataType:
        return pa.int64() if pa.types.is_integer(t) else pa.float64()

    full_fields = [(k, types[k]) for k in key_list]
    full_fields += [(o, sum_type(types[c])) for o, c in sums.items()]
    if count_col:
        full_fields.append((count_col, pa.int64()))
    out_schema = pa.schema(full_fields)

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        work = {k: batch[k] for k in key_list}
        for o, c in sums.items():
            col = batch[c].combine_chunks()
            if col.null_count:
                col = col.fill_null(0)
            work[o] = pa.array(col.to_numpy(zero_copy_only=False).astype(
                np.int64 if pa.types.is_integer(col.type) else np.float64))
        if count_col:
            work[count_col] = pa.array(np.ones(batch.num_rows, np.int64))
        return _group_sum(pa.table(work), key_list,
                          out_vals + ([count_col] if count_col else []),
                          out_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    vals = out_vals + ([count_col] if count_col else [])
    finest = hash_exchange(
        partials, on=key_list,
        reduce_fn=lambda t: _group_sum(t, key_list, vals, out_schema),
        schema=out_schema)
    return finest, out_schema, types, vals


def _null_pad(key_list: list[str], level_keys: list[str], vals: list[str],
              types: dict, out_schema: pa.Schema):
    """Project one grouping's aggregate into the full output schema
    (absent key columns become NULL, SQL ROLLUP/CUBE style)."""
    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for k in key_list:
            cols[k] = batch[k] if k in level_keys else pa.nulls(n, types[k])
        for v in vals:
            cols[v] = batch[v]
        return pa.table(cols).cast(out_schema)
    return fn


def rollup_agg(ds, keys: list[str], sums: dict[str, str], *,
               count_col: str | None = "n_rows",
               schema: pa.Schema | None = None):
    """SQL ``GROUP BY ROLLUP(keys...)``: sum aggregates at every key
    prefix level plus the grand total, rolled-up key columns NULL.

    ``sums`` maps output column name -> input column (summed).
    ``count_col`` (if not None) adds a row count per group.  Integer
    inputs stay int64, so results hash-match SQL.  Genuine NULL key
    values are indistinguishable from rollup NULLs in the output (SQL
    has GROUPING() for that; pick non-null keys when exactness of that
    distinction matters).

    Returns a Ray Dataset holding len(keys)+1 levels.
    """
    from .exchange import hash_exchange

    key_list = list(keys)
    finest, out_schema, types, vals = _finest_level(
        ds, key_list, sums, count_col, schema)

    def with_nulls(level_keys: list[str]):
        return _null_pad(key_list, level_keys, vals, types, out_schema)

    levels = [finest]
    prev = finest
    for i in range(len(key_list) - 1, -1, -1):
        lk = key_list[:i]
        # a keyed level sizes its exchange from its own, smaller input;
        # the grand total (no key) gets one bucket from the exchange
        lvl = hash_exchange(
            prev, on=lk,
            reduce_fn=lambda t, lk=lk: _group_sum(t, lk, vals, out_schema),
            schema=None)
        # each coarser level re-aggregates the previous one (cheap:
        # cardinality shrinks), then pads the rolled-up keys with NULL
        levels.append(lvl.map_batches(with_nulls(lk),
                                      batch_format="pyarrow",
                                      zero_copy_batch=True))
        prev = lvl

    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out


def grouping_sets_agg(ds, sets: list[list[str]], sums: dict[str, str], *,
                      count_col: str | None = "n_rows",
                      schema: pa.Schema | None = None):
    """SQL ``GROUP BY GROUPING SETS(sets...)``: one aggregate row set
    per requested key combination, absent key columns NULL.

    The input is read ONCE: block partials collapse to the finest
    grouping (the ordered union of all set columns), one skinny
    exchange makes that exact, and every requested set re-aggregates
    the finest table (already tiny — |distinct groups| rows).  The
    finest set itself, when requested, is emitted without a second
    exchange.  Same NULL/typing semantics as :func:`rollup_agg`;
    duplicate sets emit duplicate row sets, as in SQL.
    """
    from .exchange import hash_exchange

    set_lists = [list(s) for s in sets]
    key_list: list[str] = []
    for s in set_lists:
        for k in s:
            if k not in key_list:
                key_list.append(k)
    for s in set_lists:
        if len(set(s)) != len(s):
            raise ValueError(f"duplicate column in grouping set {s}")

    finest, out_schema, types, vals = _finest_level(
        ds, key_list, sums, count_col, schema)

    pieces = []
    for s in set_lists:
        if len(s) == len(key_list):
            # column ORDER inside a set doesn't change the grouping
            pieces.append(finest)
            continue
        lvl = hash_exchange(
            finest, on=s,
            reduce_fn=lambda t, s=s: _group_sum(t, s, vals, out_schema),
            schema=None)
        pieces.append(lvl.map_batches(
            _null_pad(key_list, s, vals, types, out_schema),
            batch_format="pyarrow", zero_copy_batch=True))

    out = pieces[0]
    for p in pieces[1:]:
        out = out.union(p)
    return out


def pivot_agg(ds, *, index: str, pivot: str, value: str,
              values: list, prefix: str = "", count_suffix: str | None = None,
              schema: pa.Schema | None = None):
    """SQL ``PIVOT`` (crosstab): one output row per ``index`` value,
    one SUM column per entry of ``values`` (the static pivot-column
    domain, as SQL PIVOT requires), named ``f"{prefix}{v}"``.  Missing
    (index, pivot) cells are 0, matching
    ``COALESCE(SUM(CASE WHEN pivot = v THEN value END), 0)``.
    ``count_suffix`` additionally emits ``f"{prefix}{v}{count_suffix}"``
    row counts per cell.  Rows whose pivot value is outside ``values``
    are dropped (SQL PIVOT ... IN does the same).

    Scale shape: blocks collapse to skinny (index, pivot, sum, cnt)
    partials, ONE hash exchange on ``index``, and the per-bucket reduce
    widens with a numpy scatter — the wide table never moves.
    """
    from .exchange import hash_exchange

    vlist = list(values)
    if len(set(map(str, vlist))) != len(vlist):
        raise ValueError("duplicate pivot values")
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}
    vt = types[value]
    sum_np = np.int64 if pa.types.is_integer(vt) else np.float64
    sum_pa = pa.int64() if pa.types.is_integer(vt) else pa.float64()

    part_schema = pa.schema([("__idx", types[index]), ("__piv", types[pivot]),
                             ("__sum", sum_pa), ("__cnt", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        col = batch[value].combine_chunks()
        if col.null_count:
            col = col.fill_null(0)
        t = pa.table({"__idx": batch[index], "__piv": batch[pivot],
                      "__sum": pa.array(col.to_numpy(
                          zero_copy_only=False).astype(sum_np)),
                      "__cnt": pa.array(np.ones(batch.num_rows, np.int64))})
        g = t.group_by(["__idx", "__piv"]).aggregate(
            [("__sum", "sum"), ("__cnt", "sum")])
        return g.rename_columns(["__idx", "__piv", "__sum", "__cnt"]) \
                .cast(part_schema)

    out_fields = [(index, types[index])]
    for v in vlist:
        out_fields.append((f"{prefix}{v}", sum_pa))
        if count_suffix:
            out_fields.append((f"{prefix}{v}{count_suffix}", pa.int64()))
    out_schema = pa.schema(out_fields)
    pv_arr = pa.array(vlist).cast(types[pivot])

    def widen(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return out_schema.empty_table()
        # pivot code = position in the static values list (-1 = drop)
        pcode = pc.index_in(tbl["__piv"].combine_chunks(),
                            value_set=pv_arr).fill_null(-1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keep = pcode >= 0
        ienc = tbl["__idx"].combine_chunks().dictionary_encode()
        icode = ienc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nidx = len(ienc.dictionary)
        sums = np.zeros((nidx, len(vlist)), sum_np)
        cnts = np.zeros((nidx, len(vlist)), np.int64)
        flat = icode[keep] * len(vlist) + pcode[keep]
        np.add.at(sums.reshape(-1), flat,
                  tbl["__sum"].to_numpy(zero_copy_only=False)[keep])
        np.add.at(cnts.reshape(-1), flat,
                  tbl["__cnt"].to_numpy(zero_copy_only=False)[keep])
        cols = {index: ienc.dictionary}
        for j, v in enumerate(vlist):
            cols[f"{prefix}{v}"] = pa.array(sums[:, j])
            if count_suffix:
                cols[f"{prefix}{v}{count_suffix}"] = pa.array(cnts[:, j])
        return pa.table(cols).cast(out_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return hash_exchange(partials, on="__idx",
                         reduce_fn=widen, schema=out_schema)


def moments_agg(ds, keys: list[str], value: str, *,
                schema: pa.Schema | None = None,
                exact_only: bool = False):
    """Distributed second-moment aggregate: per group emits ``n``,
    ``sum_v``, ``sumsq_v``, ``min_v``, ``max_v`` and the EXACT integer
    variance numerator ``var_num = n*sumsq - sum^2`` (population
    variance = var_num / n^2; sample variance = var_num / (n*(n-1))).
    For integer inputs every emitted column is exact int64 arithmetic —
    bit-identical to the same SQL expressions, so results hash-check
    against an oracle with no float tolerance.  Unless ``exact_only``,
    float ``mean`` / ``stddev_samp`` convenience columns are appended
    (computed from the exact numerators in one final map).

    Scale shape: each block collapses to one partial row per group
    (five scalars), partials re-merge per hash bucket (sum/sum/sum/
    min/max are all associative) — classic numerically-safe parallel
    variance without ever shipping raw rows.
    """
    from .exchange import hash_exchange

    key_list = list(keys)
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}
    vt = types[value]
    is_int = pa.types.is_integer(vt)
    acc_np = np.int64 if is_int else np.float64
    acc_pa = pa.int64() if is_int else pa.float64()

    part_schema = pa.schema(
        [(k, types[k]) for k in key_list]
        + [("n", pa.int64()), ("sum_v", acc_pa), ("sumsq_v", acc_pa),
           ("min_v", acc_pa), ("max_v", acc_pa)])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        col = batch[value].combine_chunks()
        valid = np.ones(len(col), bool)
        if col.null_count:
            valid = ~col.is_null().to_numpy(zero_copy_only=False)
        v = col.to_numpy(zero_copy_only=False).astype(acc_np)
        t = pa.table({**{k: batch[k] for k in key_list},
                      "n": pa.array(valid.astype(np.int64)),
                      "sum_v": pa.array(np.where(valid, v, 0)),
                      "sumsq_v": pa.array(np.where(valid, v * v, 0)),
                      # NULL rows must not touch min/max
                      "min_v": pa.array(np.where(valid, v, 0),
                                        mask=~valid),
                      "max_v": pa.array(np.where(valid, v, 0),
                                        mask=~valid)})
        g = t.group_by(key_list).aggregate(
            [("n", "sum"), ("sum_v", "sum"), ("sumsq_v", "sum"),
             ("min_v", "min"), ("max_v", "max")])
        return g.rename_columns(part_schema.names).cast(part_schema)

    def merge(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return part_schema.empty_table()
        g = tbl.group_by(key_list).aggregate(
            [("n", "sum"), ("sum_v", "sum"), ("sumsq_v", "sum"),
             ("min_v", "min"), ("max_v", "max")])
        return g.rename_columns(part_schema.names).cast(part_schema)

    out_fields = list(part_schema) + [pa.field("var_num", acc_pa)]
    if not exact_only:
        out_fields += [pa.field("mean", pa.float64()),
                       pa.field("stddev_samp", pa.float64())]
    out_schema = pa.schema(out_fields)

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        n = batch["n"].to_numpy(zero_copy_only=False)
        s = batch["sum_v"].to_numpy(zero_copy_only=False)
        ss = batch["sumsq_v"].to_numpy(zero_copy_only=False)
        if is_int and (np.any(np.abs(ss).max(initial=0) > 2**62 // max(
                int(n.max(initial=1)), 1))):
            raise OverflowError("moments_agg: n*sumsq exceeds int64; "
                                "pre-scale the value column")
        var_num = n * ss - s * s
        cols = {f.name: batch[f.name] for f in part_schema}
        cols["var_num"] = pa.array(var_num.astype(acc_np))
        if not exact_only:
            nf = n.astype(np.float64)
            cols["mean"] = pa.array(
                np.divide(s, nf, out=np.full(len(nf), np.nan),
                          where=n > 0))
            denom = nf * (nf - 1.0)
            cols["stddev_samp"] = pa.array(np.sqrt(np.divide(
                var_num.astype(np.float64), denom,
                out=np.full(len(nf), np.nan), where=n > 1)))
        return pa.table(cols).cast(out_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    merged = hash_exchange(partials, on=key_list,
                           reduce_fn=merge, schema=part_schema)
    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def unpivot(ds, *, id_cols: list[str], value_cols: list[str],
            var_name: str = "measure", value_name: str = "value",
            schema: pa.Schema | None = None):
    """SQL ``UNPIVOT`` (melt): wide -> long.  Each input row becomes
    ``len(value_cols)`` rows carrying (id_cols..., measure-name,
    value).  NULL cells are dropped, matching SQL UNPIVOT's default
    EXCLUDE NULLS.  Values are cast to a common type (int64 if all
    value columns are integers, else float64).

    Pure per-batch map — no shuffle; the long table is produced
    block-local and streams straight into whatever consumes it.
    """
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}
    all_int = all(pa.types.is_integer(types[c]) for c in value_cols)
    out_vt = pa.int64() if all_int else pa.float64()
    out_schema = pa.schema([(c, types[c]) for c in id_cols]
                           + [(var_name, pa.string()),
                              (value_name, out_vt)])

    def melt(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        parts = []
        ids = [batch[c] for c in id_cols]
        for c in value_cols:
            col = batch[c].cast(out_vt)
            t = pa.table({**dict(zip(id_cols, ids)),
                          var_name: pa.nulls(batch.num_rows,
                                             pa.string()).fill_null(c),
                          value_name: col})
            if col.null_count:
                t = t.filter(pc.is_valid(t[value_name]))
            parts.append(t)
        return pa.concat_tables(parts).cast(out_schema)

    return ds.map_batches(melt, batch_format="pyarrow",
                          zero_copy_batch=True)


def mode_agg(ds, keys: list[str], value: str, *,
             schema: pa.Schema | None = None):
    """Exact distributed per-group mode: the most frequent ``value``
    per group, ties broken by the smallest value (deterministic, same
    as ``ORDER BY cnt DESC, value ASC LIMIT 1`` per group).  Emits
    ``(keys..., mode, mode_n)``.

    Shape: blocks collapse to (group, value, count) partials — the only
    rows that ever move — one hash exchange on the GROUP key co-locates
    each group's distinct values, and the per-bucket reduce re-sums then
    takes the argmax per group.  Skew note: a group with a huge distinct
    ``value`` domain widens its bucket, not the driver.
    """
    from .exchange import hash_exchange

    key_list = list(keys)
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}

    part_schema = pa.schema([(k, types[k]) for k in key_list]
                            + [("__val", types[value]),
                               ("__cnt", pa.int64())])
    out_schema = pa.schema([(k, types[k]) for k in key_list]
                           + [("mode", types[value]),
                              ("mode_n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        col = batch[value].combine_chunks()
        t = pa.table({**{k: batch[k] for k in key_list}, "__val": col,
                      "__cnt": pa.array(np.ones(batch.num_rows, np.int64))})
        if col.null_count:   # SQL mode() ignores NULLs
            t = t.filter(pc.is_valid(t["__val"]))
        g = t.group_by(key_list + ["__val"]).aggregate([("__cnt", "sum")])
        return g.rename_columns(part_schema.names).cast(part_schema)

    def pick(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return out_schema.empty_table()
        g = tbl.group_by(key_list + ["__val"]).aggregate([("__cnt", "sum")])
        g = g.rename_columns(part_schema.names)
        # per group: argmax count, smallest value on ties — sort by
        # (keys, -cnt, val) and keep the first row of each group
        order = [(k, "ascending") for k in key_list] + \
                [("__cnt", "descending"), ("__val", "ascending")]
        g = g.sort_by(order)
        if key_list:
            # keep the first sorted row per group: any key differing
            # from the previous row starts a new group (NULL keys sort
            # together; not_equal -> NULL on nulls, treated as a break
            # only when validity changes, handled by fill_null(False)
            # plus an explicit validity-diff term)
            first = np.ones(g.num_rows, bool)
            diff = np.zeros(max(g.num_rows - 1, 0), bool)
            for k in key_list:
                col = g[k].combine_chunks()
                a, b = col.slice(1), col.slice(0, len(col) - 1)
                neq = pc.not_equal(a, b).fill_null(False) \
                    .to_numpy(zero_copy_only=False)
                vdiff = pc.xor(pc.is_valid(a), pc.is_valid(b)) \
                    .to_numpy(zero_copy_only=False)
                diff |= neq | vdiff
            first[1:] = diff
            g = g.filter(pa.array(first))
        else:
            g = g.slice(0, 1)
        return g.rename_columns(key_list + ["mode", "mode_n"]) \
                .cast(out_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    # no keys: one global group; the exchange gives it one bucket
    return hash_exchange(partials, on=key_list, reduce_fn=pick,
                         schema=out_schema)


def distinct_agg(ds, keys: list[str], value: str, *,
                 schema: pa.Schema | None = None,
                 out_col: str = "n_distinct"):
    """Exact ``COUNT(DISTINCT value)`` per group.  Emits
    ``(keys..., out_col)``.

    Shape: each block locally dedups to its distinct (group, value)
    pairs BEFORE anything moves — on a corpus where a group's value
    domain is small relative to its row count (users per hour, SKUs
    per store) the exchange carries the distinct pairs, not the rows.
    One hash exchange on the GROUP key, then a second dedup + count per
    bucket.  NULL values don't count (SQL); NULL group keys form a
    group (SQL GROUP BY).  A group with a huge distinct domain widens
    its bucket, never the driver.
    """
    from .exchange import hash_exchange

    key_list = list(keys)
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}

    part_schema = pa.schema([(k, types[k]) for k in key_list]
                            + [("__val", types[value])])
    out_schema = pa.schema([(k, types[k]) for k in key_list]
                           + [(out_col, pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        col = batch[value].combine_chunks()
        t = pa.table({**{k: batch[k] for k in key_list}, "__val": col})
        if col.null_count:
            t = t.filter(pc.is_valid(t["__val"]))
        return t.group_by(key_list + ["__val"]).aggregate([]) \
                .rename_columns(part_schema.names).cast(part_schema)

    def count(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return out_schema.empty_table()
        g = tbl.group_by(key_list + ["__val"]).aggregate([]) \
               .rename_columns(part_schema.names)
        if not key_list:
            return pa.table({out_col: pa.array([g.num_rows], pa.int64())})
        out = g.group_by(key_list).aggregate([("__val", "count")])
        return out.rename_columns(key_list + [out_col]).cast(out_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    # no keys: one global group; the exchange gives it one bucket
    return hash_exchange(partials, on=key_list, reduce_fn=count,
                         schema=out_schema)


def corr_agg(ds, keys: list[str], x: str, y: str, *,
             schema: pa.Schema | None = None,
             corr_col: str = "corr", slope_col: str | None = None):
    """Exact-moment per-group Pearson correlation (and optionally the
    least-squares slope, SQL ``regr_slope``).  ``x`` and ``y`` MUST be
    integer-valued columns (scale floats to cents/units first): the
    five moment sums accumulate as exact int64, merge associatively
    across blocks, and the float formula runs ONCE per group on
    arbitrary-precision Python ints — so the result is bit-stable and
    hash-matches a SQL twin that computes the same expression from the
    same integer sums (final ops: CAST-to-double of the exact integer
    numerator/denominators, one sqrt, one divide).

    Overflow bound: per-block partial sums are int64, so
    ``rows_per_block * max(x*y, x*x, y*y)`` must stay below 2^63 —
    scale accordingly.  NULL-x or NULL-y rows are skipped (SQL corr).
    Zero-variance groups emit NULL (SQL).
    """
    from .exchange import hash_exchange

    key_list = list(keys)
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}
    sums = ["__n", "__sx", "__sy", "__sxy", "__sxx", "__syy"]
    part_schema = pa.schema([(k, types[k]) for k in key_list]
                            + [(s, pa.int64()) for s in sums])
    out_cols = [corr_col] + ([slope_col] if slope_col else [])
    out_schema = pa.schema([(k, types[k]) for k in key_list]
                           + [(c, pa.float64()) for c in out_cols])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        xc = batch[x].combine_chunks()
        yc = batch[y].combine_chunks()
        ok = pc.and_(pc.is_valid(xc), pc.is_valid(yc))
        t = batch
        if not pc.all(ok).as_py():
            t = batch.filter(ok)
            xc, yc = t[x].combine_chunks(), t[y].combine_chunks()
        xv = xc.to_numpy(zero_copy_only=False).astype(np.int64)
        yv = yc.to_numpy(zero_copy_only=False).astype(np.int64)
        pt = pa.table({**{k: t[k] for k in key_list},
                       "__n": pa.array(np.ones(len(xv), np.int64)),
                       "__sx": pa.array(xv), "__sy": pa.array(yv),
                       "__sxy": pa.array(xv * yv),
                       "__sxx": pa.array(xv * xv),
                       "__syy": pa.array(yv * yv)})
        g = pt.group_by(key_list).aggregate([(s, "sum") for s in sums])
        return g.rename_columns(key_list + sums).cast(part_schema)

    def finish(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return out_schema.empty_table()
        g = tbl.group_by(key_list).aggregate([(s, "sum") for s in sums])
        g = g.rename_columns(key_list + sums)
        n = g["__n"].to_pylist()
        sx, sy = g["__sx"].to_pylist(), g["__sy"].to_pylist()
        sxy = g["__sxy"].to_pylist()
        sxx, syy = g["__sxx"].to_pylist(), g["__syy"].to_pylist()
        corr, slope = [], []
        for i in range(g.num_rows):
            # exact in Python ints; float exactly once at the end
            num = n[i] * sxy[i] - sx[i] * sy[i]
            d1 = n[i] * sxx[i] - sx[i] * sx[i]
            d2 = n[i] * syy[i] - sy[i] * sy[i]
            corr.append(float(num) / math.sqrt(float(d1) * float(d2))
                        if d1 > 0 and d2 > 0 else None)
            slope.append(float(num) / float(d1) if d1 > 0 else None)
        cols = {k: g[k] for k in key_list}
        cols[corr_col] = pa.array(corr, pa.float64())
        if slope_col:
            cols[slope_col] = pa.array(slope, pa.float64())
        return pa.table(cols).cast(out_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    # no keys: one global group; the exchange gives it one bucket
    return hash_exchange(partials, on=key_list, reduce_fn=finish,
                         schema=out_schema)


def group_quantile(ds, keys: list[str], value: str,
                   quantiles: dict[str, float], *,
                   schema: pa.Schema | None = None,
                   interpolate: bool = False):
    """Exact per-group ``PERCENTILE_DISC`` (SQL's / DuckDB
    ``quantile_disc`` rank rule: the value at 1-based rank
    ``max(ceil(q*n), 1)`` in sorted order).  ``quantiles`` maps output
    column name -> q in [0, 1].  Emits ``(keys..., <name>...)``, one
    row per group.  ``interpolate=True`` switches to
    ``PERCENTILE_CONT`` (``quantile_cont``): the value linearly
    interpolated at 0-based position ``q*(n-1)`` — output columns
    become float64 and match DuckDB's ``lo + (hi-lo)*frac``
    evaluation bit-for-bit.

    Shape: blocks collapse to (group, value, count) partials — the
    exchange carries each group's DISTINCT values with multiplicities,
    not its rows — then one sort + segmented-cumsum rank lookup per
    bucket.  Exact for any distribution; when a group's distinct-value
    domain approaches its row count the partials stop compressing but
    the bucket (not the driver) absorbs it.  NULL values are ignored
    (SQL); all-NULL groups are absent.  Use exact binary-float q
    values (0.25, 0.5, ...) for bit-stable ranks.
    """
    from .exchange import hash_exchange

    key_list = list(keys)
    qnames = list(quantiles)
    qvals = np.array([quantiles[nm] for nm in qnames], np.float64)
    if ((qvals < 0) | (qvals > 1)).any():
        raise ValueError("quantiles must be in [0, 1]")
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}

    part_schema = pa.schema([(k, types[k]) for k in key_list]
                            + [("__val", types[value]),
                               ("__cnt", pa.int64())])
    q_type = pa.float64() if interpolate else types[value]
    out_schema = pa.schema([(k, types[k]) for k in key_list]
                           + [(nm, q_type) for nm in qnames])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        col = batch[value].combine_chunks()
        t = pa.table({**{k: batch[k] for k in key_list}, "__val": col,
                      "__cnt": pa.array(np.ones(batch.num_rows, np.int64))})
        if col.null_count:
            t = t.filter(pc.is_valid(t["__val"]))
        g = t.group_by(key_list + ["__val"]).aggregate([("__cnt", "sum")])
        return g.rename_columns(part_schema.names).cast(part_schema)

    def pick(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return out_schema.empty_table()
        g = tbl.group_by(key_list + ["__val"]).aggregate([("__cnt", "sum")])
        g = g.rename_columns(part_schema.names)
        order = [(k, "ascending") for k in key_list] + \
                [("__val", "ascending")]
        g = g.sort_by(order)
        n = g.num_rows
        cnt = g["__cnt"].to_numpy(zero_copy_only=False)
        if key_list:
            first = np.ones(n, bool)
            diff = np.zeros(max(n - 1, 0), bool)
            for k in key_list:
                col = g[k].combine_chunks()
                a, b = col.slice(1), col.slice(0, n - 1)
                neq = pc.not_equal(a, b).fill_null(False) \
                    .to_numpy(zero_copy_only=False)
                vdiff = pc.xor(pc.is_valid(a), pc.is_valid(b)) \
                    .to_numpy(zero_copy_only=False)
                diff |= neq | vdiff
            first[1:] = diff
        else:
            first = np.zeros(n, bool)
            first[0] = True
        starts = np.flatnonzero(first)
        cum = np.cumsum(cnt)
        base = np.concatenate(([0], cum[starts[1:] - 1])) \
            if len(starts) > 1 else np.zeros(1, np.int64)
        n_g = np.append(cum[starts[1:] - 1], cum[-1]) - base \
            if len(starts) > 1 else np.array([cum[-1]])
        head = g.take(pa.array(starts, pa.int64()))
        cols = {k: head[k] for k in key_list}
        vals = g["__val"].combine_chunks()
        for nm, q in zip(qnames, qvals):
            if interpolate:
                # PERCENTILE_CONT: 0-based position q*(n-1); the two
                # bracketing ranks are exact ints, the blend runs in
                # the same lo*(1-frac) + hi*frac shape DuckDB uses
                # (the lo + (hi-lo)*frac variant differs by 1 ulp on
                # ~3% of real groups — measured)
                pos = q * (n_g - 1).astype(np.float64)
                lo_rank = np.floor(pos).astype(np.int64) + 1
                frac = pos - np.floor(pos)
                hi_rank = np.minimum(lo_rank + 1, n_g)
                ilo = np.searchsorted(cum, base + lo_rank, side="left")
                ihi = np.searchsorted(cum, base + hi_rank, side="left")
                vlo = vals.take(pa.array(ilo, pa.int64())) \
                    .to_numpy(zero_copy_only=False).astype(np.float64)
                vhi = vals.take(pa.array(ihi, pa.int64())) \
                    .to_numpy(zero_copy_only=False).astype(np.float64)
                cols[nm] = pa.array(vlo * (1.0 - frac) + vhi * frac)
            else:
                rank = np.maximum(np.ceil(q * n_g).astype(np.int64), 1)
                # first sorted row i of the segment with
                # cum[i] >= base+rank
                idx = np.searchsorted(cum, base + rank, side="left")
                cols[nm] = vals.take(pa.array(idx, pa.int64()))
        return pa.table(cols).cast(out_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    # no keys: one global group; the exchange gives it one bucket
    return hash_exchange(partials, on=key_list, reduce_fn=pick,
                         schema=out_schema)


def cube_agg(ds, keys: list[str], sums: dict[str, str], *,
             count_col: str | None = "n_rows",
             schema: pa.Schema | None = None):
    """SQL ``GROUP BY CUBE(keys...)``: all 2^len(keys) grouping sets
    (finest computed once from the input; every other set
    re-aggregates it)."""
    from itertools import combinations

    key_list = list(keys)
    sets = [list(c) for r in range(len(key_list), -1, -1)
            for c in combinations(key_list, r)]
    return grouping_sets_agg(ds, sets, sums, count_col=count_col,
                             schema=schema)


def zscore_outliers(ds, value: str, *, z_num: int = 3, z_den: int = 1,
                    schema: pa.Schema | None = None):
    """EXACT z-score outlier filter over an integer column: keep rows
    with ``|x - mean| > (z_num/z_den) * sigma`` (population sigma),
    decided by pure integer arithmetic — no float ever enters the
    predicate, so the result is bit-reproducible and matches a
    HUGEINT SQL twin:

        |x - S/n| > z*sqrt((nQ - S^2)/n^2)
          <=>  (z_den * |n*x - S|)^2 > z_num^2 * (nQ - S^2)
          <=>   z_den * |n*x - S|   > isqrt(z_num^2 * (nQ - S^2))

    (the last step is exact: for integers D, T — D^2 > T iff
    D > floor(sqrt(T))).

    Two streaming passes: per-block int64 (n, S, Q) partials merged in
    arbitrary-precision Python ints, then a broadcast-threshold filter
    map.  ``n * x`` and ``z_den * |n*x - S|`` must fit int64 — true
    for count x value ranges up to ~1e18; the threshold itself is
    arbitrary precision.
    """
    import math

    import ray

    from ..collect import collect_table

    part_schema = pa.schema([("n", pa.int64()), ("s", pa.int64()),
                             ("q", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return part_schema.empty_table()
        x = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"n": pa.array([len(x)], pa.int64()),
                         "s": pa.array([int(x.sum())], pa.int64()),
                         "q": pa.array([int((x * x).sum())], pa.int64())})

    parts = collect_table(ds.map_batches(partial, batch_format="pyarrow",
                                         zero_copy_batch=True))
    n = int(parts["n"].to_numpy(zero_copy_only=False).sum())
    out_schema = schema
    if n == 0:
        return ds  # nothing to filter
    S = sum(int(v) for v in parts["s"].to_pylist())
    Q = sum(int(v) for v in parts["q"].to_pylist())
    V = n * Q - S * S  # n^2 * variance, exact
    r = math.isqrt(z_num * z_num * V)
    thresh = ray.put((n, S, r, z_den))

    def keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch if out_schema is None else \
                out_schema.empty_table()
        nn, ss, rr, zd = ray.get(thresh) if isinstance(
            thresh, ray.ObjectRef) else thresh
        x = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)
        d = np.abs(nn * x - ss) * np.int64(zd)
        # rr may exceed int64 (then nothing qualifies)
        if rr >= np.iinfo(np.int64).max:
            mask = np.zeros(len(x), bool)
        else:
            mask = d > np.int64(rr)
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)



def mad_outliers(ds, value: str, *, k_num: int = 3, k_den: int = 1):
    """EXACT median-absolute-deviation outlier filter over an integer
    column: keep rows with ``|x - med| > (k_num/k_den) * MAD`` where
    ``med`` is the PERCENTILE_DISC 0.5 of ``x`` and ``MAD`` the
    PERCENTILE_DISC 0.5 of ``|x - med|`` — the robust twin of
    ``zscore_outliers`` (a single 1e18 corruption moves a mean/sigma
    gate arbitrarily; it moves med/MAD by at most one rank).

    All-integer: med and MAD are actual data values (disc rank rule),
    the predicate is ``k_den * |x - med| > k_num * MAD`` — floats
    never decide, so the filter hash-matches a
    ``percentile_disc ... WITHIN GROUP`` SQL twin bit-for-bit.

    Three streaming passes over ``ds`` (median, deviation median,
    filter); each pass moves only (distinct value, count) partials
    through ``group_quantile``'s exchange, never rows.
    """
    import ray

    if k_num < 0 or k_den <= 0:
        raise ValueError("need k_num >= 0 and k_den > 0")

    def _median(dev_of=None):
        def stamp(batch: pa.Table) -> pa.Table:
            x = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)
            if dev_of is not None:
                x = np.abs(x - dev_of)
            return pa.table({"g": np.zeros(len(x), np.int64),
                             "v": pa.array(x)})

        flat = ds.map_batches(stamp, batch_format="pyarrow",
                              zero_copy_batch=True)
        qt = group_quantile(flat, ["g"], "v", {"m": 0.5},
                            schema=pa.schema([("g", pa.int64()),
                                              ("v", pa.int64())]))
        from ..collect import collect_table

        t = collect_table(qt)
        return int(t["m"][0].as_py()) if t.num_rows else 0

    med = _median()
    mad = _median(dev_of=med)
    lim = np.int64(k_num) * np.int64(mad)

    def keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        x = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.int64(k_den) * np.abs(x - np.int64(med)) > lim
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)



def arg_max_agg(ds, keys: list[str], order: str, payload: list[str], *,
                tiebreak: str | None = None,
                schema: pa.Schema | None = None):
    """Per-group ARGMAX: the ``payload`` columns of the row with the
    maximum ``(order, tiebreak)`` per key group — SQL's
    ``ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order DESC,
    tiebreak DESC) = 1``.  The tiebreak makes the answer a TOTAL order
    (``arg_max``/``max_by`` alone is nondeterministic under ties, which
    is exactly what breaks partition invariance).

    Shape: per-block partial argmax (one lexsort, last-row-per-group —
    one surviving row per group per block crosses the wire), then the
    identical kernel per bucket after one skinny exchange.  ``order``
    and ``tiebreak`` must be integer/timestamp-typed and non-null.
    """
    from .exchange import hash_exchange

    key_list = list(keys)
    pay = [c for c in payload if c not in key_list]
    cols = key_list + [order] + ([tiebreak] if tiebreak else []) + pay

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_columns == 0 or tbl.num_rows == 0:
            return (schema.empty_table() if schema is not None
                    else tbl.select(cols) if tbl.num_columns else
                    pa.table({}))
        n = tbl.num_rows
        # joint group code over the key columns (NULL keys group,
        # window._key_codes semantics); order axes via the shared
        # decoder so timestamp/date32 handling lives in one place
        from .window import _key_codes, _order_values

        codes = np.zeros(n, np.int64)
        for k in key_list:
            enc = tbl[k].combine_chunks().dictionary_encode()
            c = enc.indices.fill_null(-1).to_numpy(
                zero_copy_only=False).astype(np.int64) + 1
            codes = codes * (len(enc.dictionary) + 1) + c
        axis = lambda name: _order_values(tbl, name)  # noqa: E731
        sort_keys = (axis(order), codes) if tiebreak is None else \
            (axis(tiebreak), axis(order), codes)
        sel = np.lexsort(sort_keys)
        cs = codes[sel]
        last = np.concatenate((cs[:-1] != cs[1:], [True])) if n > 1 \
            else np.array([True])
        return tbl.select(cols).take(pa.array(sel[last]))

    partials = ds.select_columns(cols).map_batches(
        kernel, batch_format="pyarrow", zero_copy_batch=True)
    return hash_exchange(partials, on=key_list,
                         reduce_fn=kernel, schema=schema)



def group_mad_outliers(ds, keys: list[str], value: str, *,
                       k_num: int = 3, k_den: int = 1):
    """Per-GROUP median-absolute-deviation outlier filter: keep rows
    with ``|x - med_g| > (k_num/k_den) * MAD_g`` where med_g / MAD_g
    are the row's group's exact PERCENTILE_DISC medians — the grouped
    generalization of :func:`mad_outliers` (one global gate misses a
    group whose whole distribution sits inside another's spread).

    Three streaming passes: per-group median via
    :func:`group_quantile`, per-group deviation median with the
    (small) median table broadcast into the deviation stamp, then a
    broadcast-threshold filter.  All-integer predicate — hash-matches
    a percentile_disc-per-group SQL twin.  Group cardinality must fit
    a broadcast (it is the AGGREGATE's output size; beyond that,
    thresholds become a hash_join instead — same algebra).
    """
    import ray

    from ..collect import collect_table

    if k_num < 0 or k_den <= 0:
        raise ValueError("need k_num >= 0 and k_den > 0")
    key_list = list(keys)

    def _lookup(tbl: pa.Table):
        """(joint group key tuple) -> row index map for a small table."""
        cols = [tbl[k].to_pylist() for k in key_list]
        return {t: i for i, t in enumerate(zip(*cols))}

    med_t = collect_table(group_quantile(
        ds, key_list, value, {"m": 0.5}))
    med_map = _lookup(med_t)
    med_v = med_t["m"].to_numpy(zero_copy_only=False).astype(np.int64)
    mref = ray.put((med_map, med_v))

    def _group_rows(batch: pa.Table, table_ref):
        mmap, mv = ray.get(table_ref) if isinstance(
            table_ref, ray.ObjectRef) else table_ref
        cols = [batch[k].to_pylist() for k in key_list]
        idx = np.fromiter((mmap.get(t, -1) for t in zip(*cols)),
                          np.int64, batch.num_rows)
        return idx, mv

    def dev_stamp(batch: pa.Table) -> pa.Table:
        idx, mv = _group_rows(batch, mref)
        x = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = idx >= 0
        dev = np.abs(x - mv[np.maximum(idx, 0)])
        t = pa.table({**{k: batch[k] for k in key_list},
                      "__dev": pa.array(dev)})
        return t.filter(pa.array(ok))

    devs = ds.map_batches(dev_stamp, batch_format="pyarrow",
                          zero_copy_batch=True)
    mad_t = collect_table(group_quantile(
        devs, key_list, "__dev", {"m": 0.5}))
    mad_map = _lookup(mad_t)
    mad_v = mad_t["m"].to_numpy(zero_copy_only=False).astype(np.int64)
    tref = ray.put((med_map, med_v, mad_map, mad_v))

    def keep(batch: pa.Table) -> pa.Table:
        mmap, mv, dmap, dv = ray.get(tref) if isinstance(
            tref, ray.ObjectRef) else tref
        cols = [batch[k].to_pylist() for k in key_list]
        mi = np.fromiter((mmap.get(t, -1) for t in zip(*cols)),
                         np.int64, batch.num_rows)
        di = np.fromiter((dmap.get(t, -1) for t in zip(*cols)),
                         np.int64, batch.num_rows)
        x = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = (mi >= 0) & (di >= 0)
        lhs = np.int64(k_den) * np.abs(x - mv[np.maximum(mi, 0)])
        rhs = np.int64(k_num) * dv[np.maximum(di, 0)]
        return batch.filter(pa.array(ok & (lhs > rhs)))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def histogram(ds, value: str, *, lo: int, hi: int, nbins: int):
    """Fixed-width integer histogram: counts per bin over
    ``[lo, hi)`` with ``width = (hi - lo) / nbins`` (must divide
    evenly), rows outside the range dropped.  One streaming pass:
    per-block ``np.bincount`` partials (nbins int64 each), exact
    driver sum.  Returns (bin, bin_lo, n_rows) — empty bins included
    with n_rows = 0, so the shape is always ``nbins`` rows.
    """
    from ..collect import collect_table

    if (hi - lo) % nbins:
        raise ValueError("nbins must divide the range evenly")
    width = (hi - lo) // nbins
    part_schema = pa.schema([("counts", pa.list_(pa.int64()))])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return part_schema.empty_table()
        x = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)
        x = x[(x >= lo) & (x < hi)]
        c = np.bincount((x - lo) // width, minlength=nbins)
        return pa.table({"counts": pa.array([c.tolist()],
                                            pa.list_(pa.int64()))})

    parts = collect_table(ds.map_batches(partial, batch_format="pyarrow",
                                         zero_copy_batch=True))
    total = np.zeros(nbins, np.int64)
    for row in parts["counts"].to_pylist():
        total += np.asarray(row, np.int64)
    bins = np.arange(nbins, dtype=np.int64)
    return pa.table({"bin": bins,
                     "bin_lo": lo + bins * width,
                     "n_rows": total})


def table_digest(ds, keys: list[str], value: str):
    """Order-invariant grouped table checksum — the validation
    primitive a 100 TB CDC merge / replication pipeline needs: two
    tables agree per group iff (row count, wrapping hash sum, hash
    XOR) agree, with NO sort and no row shipping.

    Per block, rows collapse to per-group partials of three
    order-invariant folds over ``h = sample_hash32(value)``:
    ``n_rows``, ``SUM(h) mod 2^64`` (uint64 wraparound == the exact
    sum mod 2^64), and ``XOR(h)``.  One skinny exchange merges the
    partials per key.  ``value`` must be a non-negative int64 column
    (ids, cents); the mix chain is SQL-reproducible (see
    functions/sample.sample_hash32), so the digest can be recomputed
    by any engine for cross-system validation.
    """
    from .exchange import hash_exchange
    from .sample import sample_hash32

    def partial(batch: pa.Table) -> pa.Table:
        cols = [batch[k] for k in keys]
        v = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(v) and v.min() < 0:
            raise ValueError("table_digest: value must be non-negative")
        h = sample_hash32(v)
        order = np.lexsort(tuple(
            batch[k].to_numpy(zero_copy_only=False) for k in reversed(keys)))
        # vectorized per-group fold: sort rows by key, reduceat folds
        ks = [batch[k].to_numpy(zero_copy_only=False)[order] for k in keys]
        hs = h[order]
        if len(hs) == 0:
            return pa.table(
                {**{k: batch[k].slice(0, 0) for k in keys},
                 "n_rows": pa.array([], pa.int64()),
                 "digest_sum": pa.array([], pa.int64()),
                 "digest_xor": pa.array([], pa.int64())})
        newg = np.zeros(len(hs), bool)
        newg[0] = True
        for karr in ks:
            newg[1:] |= karr[1:] != karr[:-1]
        starts = np.flatnonzero(newg)
        n = np.diff(np.append(starts, len(hs))).astype(np.int64)
        dsum = np.add.reduceat(hs, starts, dtype=np.uint64)
        dxor = np.bitwise_xor.reduceat(hs, starts)
        return pa.table(
            {**{k: batch[k].take(pa.array(order[starts]))
                for k in keys},
             "n_rows": pa.array(n),
             "digest_sum": pa.array(dsum.view(np.int64)),
             "digest_xor": pa.array(dxor.view(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return tbl
        order = np.lexsort(tuple(
            tbl[k].to_numpy(zero_copy_only=False) for k in reversed(keys)))
        ks = [tbl[k].to_numpy(zero_copy_only=False)[order] for k in keys]
        n = tbl["n_rows"].to_numpy(zero_copy_only=False)[order]
        s = tbl["digest_sum"].to_numpy(zero_copy_only=False)[order] \
            .view(np.uint64)
        x = tbl["digest_xor"].to_numpy(zero_copy_only=False)[order]
        newg = np.zeros(len(n), bool)
        newg[0] = True
        for karr in ks:
            newg[1:] |= karr[1:] != karr[:-1]
        starts = np.flatnonzero(newg)
        return pa.table(
            {**{k: tbl[k].take(pa.array(order[starts])) for k in keys},
             "n_rows": pa.array(np.add.reduceat(n, starts)),
             "digest_sum": pa.array(
                 np.add.reduceat(s, starts, dtype=np.uint64)
                 .view(np.int64)),
             "digest_xor": pa.array(np.bitwise_xor.reduceat(x, starts))})

    return hash_exchange(partials, on=keys,
                         reduce_fn=merge, schema=None)


def rank_sum_u2(ds, *, key: str = "key", value: str = "v",
                side: str = "side"):
    """Exact Mann-Whitney U between two samples per key — the
    distribution-comparison gate of an A/B pipeline, kept in integer
    arithmetic by reporting ``u2_a = 2*U_A`` (ties contribute the half
    step as +1): ``u2_a = sum over side-0 rows of (2*#{side-1 < v} +
    #{side-1 = v})``.

    Shape: per-block partials compress rows to the (key, v) DISTINCT
    distribution (counts per side), a key-hash exchange lands each
    key's whole compressed distribution in one bucket (the exchange
    ships O(distinct values), not O(rows)), the in-bucket kernel is
    one lexsort + exclusive cumsum per key run, and only per-key
    SCALARS leave.  Input ``value`` must be integer-typed (quantize
    floats upstream — cents, not raw doubles); NULL values must be
    filtered upstream so both engines agree on the population."""
    import pyarrow as pa

    from .exchange import hash_exchange

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table({key: b[key].slice(0, 0),
                          "v": pa.array([], pa.int64()),
                          "n_a": pa.array([], pa.int64()),
                          "n_b": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        v = b[value].to_numpy(zero_copy_only=False)
        if not np.issubdtype(v.dtype, np.integer):
            raise TypeError("rank_sum_u2: value must be integer-typed")
        v = v.astype(np.int64)
        s = b[side].to_numpy(zero_copy_only=False).astype(np.int64)
        if ((s != 0) & (s != 1)).any():
            raise ValueError("rank_sum_u2: side must be 0/1")
        kenc = b[key].combine_chunks().dictionary_encode()
        kc = kenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((s, v, kc))
        kc_s, v_s, s_s = kc[order], v[order], s[order]
        new = np.ones(len(kc_s), bool)
        new[1:] = (kc_s[1:] != kc_s[:-1]) | (v_s[1:] != v_s[:-1])
        gid = np.cumsum(new) - 1
        n_a = np.bincount(gid[s_s == 0]).astype(np.int64)
        n_a = np.pad(n_a, (0, gid[-1] + 1 - len(n_a)))
        n_b = np.bincount(gid[s_s == 1]).astype(np.int64)
        n_b = np.pad(n_b, (0, gid[-1] + 1 - len(n_b)))
        starts = np.flatnonzero(new)
        return pa.table({
            key: kenc.dictionary.take(pa.array(kc_s[starts])),
            "v": pa.array(v_s[starts]),
            "n_a": pa.array(n_a), "n_b": pa.array(n_b)})

    def reduce_fn(t: pa.Table) -> pa.Table:
        empty = pa.table({key: t[key].slice(0, 0),
                          "n_a": pa.array([], pa.int64()),
                          "n_b": pa.array([], pa.int64()),
                          "u2_a": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        kenc = t[key].combine_chunks().dictionary_encode()
        kc = kenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        na = t["n_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = t["n_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((v, kc))
        kc, v, na, nb = kc[order], v[order], na[order], nb[order]
        # merge equal (key, v) rows from different blocks
        new = np.ones(len(kc), bool)
        new[1:] = (kc[1:] != kc[:-1]) | (v[1:] != v[:-1])
        gid = np.cumsum(new) - 1
        ng = gid[-1] + 1
        na = np.bincount(gid, weights=na, minlength=ng).astype(np.int64)
        nb = np.bincount(gid, weights=nb, minlength=ng).astype(np.int64)
        kc = kc[new]
        # exclusive per-key prefix of n_b over ascending v
        cum = np.cumsum(nb) - nb
        kstart = np.ones(ng, bool)
        kstart[1:] = kc[1:] != kc[:-1]
        base = np.repeat(cum[kstart], np.diff(
            np.append(np.flatnonzero(kstart), ng)))
        b_less = cum - base
        contrib = na * (2 * b_less + nb)
        nkeys = int(kstart.sum())
        kidx = np.cumsum(kstart) - 1
        u2 = np.bincount(kidx, weights=contrib, minlength=nkeys) \
            .astype(np.int64)
        ta = np.bincount(kidx, weights=na, minlength=nkeys) \
            .astype(np.int64)
        tb = np.bincount(kidx, weights=nb, minlength=nkeys) \
            .astype(np.int64)
        # the float64-weighted bincount sums are exact only below
        # 2^53; u2_a <= 2*n_a*n_b, so guard the product
        if len(ta) and (ta.astype(np.float64) * tb > 2.0 ** 52).any():
            raise OverflowError(
                "rank_sum_u2: 2*n_a*n_b exceeds the exact-float64 "
                "summation bound; shard the key upstream")
        return pa.table({
            key: kenc.dictionary.take(pa.array(kc[kstart])),
            "n_a": pa.array(ta), "n_b": pa.array(tb),
            "u2_a": pa.array(u2)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return hash_exchange(partials, on=key,
                         reduce_fn=reduce_fn)


def group_gini(ds, *, key: str = "key", value: str = "v"):
    """Exact per-group Gini inequality ingredients: ``gini_num =
    2*sum(rank_i * x_(i)) - (n+1)*sum(x)`` and the consumer divides by
    ``gini_den = n*sum(x)`` — all int64, and TIE-ORDER INVARIANT
    (swapping equal values never changes the rank-weighted sum, so
    the statistic is well-defined without a tie rule).

    Same distribution shape as :func:`rank_sum_u2`: block partials
    compress rows to the per-(key, value) DISTINCT distribution, one
    key-hash exchange lands each key's whole distribution in a bucket,
    and the closed form per distinct value v with count c after
    c_prev smaller values — ``v * (c*c_prev + c*(c+1)/2)`` — needs one
    lexsort + an exclusive prefix.  Values must be nonnegative
    integers (Gini is undefined below zero; quantize upstream)."""
    import pyarrow as pa

    from .exchange import hash_exchange

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table({key: b[key].slice(0, 0),
                          "v": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        v = b[value].to_numpy(zero_copy_only=False)
        if not np.issubdtype(v.dtype, np.integer):
            raise TypeError("group_gini: value must be integer-typed")
        v = v.astype(np.int64)
        if (v < 0).any():
            raise ValueError("group_gini: negative values")
        kenc = b[key].combine_chunks().dictionary_encode()
        kc = kenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((v, kc))
        kc_s, v_s = kc[order], v[order]
        new = np.ones(len(kc_s), bool)
        new[1:] = (kc_s[1:] != kc_s[:-1]) | (v_s[1:] != v_s[:-1])
        gid = np.cumsum(new) - 1
        cnt = np.bincount(gid).astype(np.int64)
        starts = np.flatnonzero(new)
        return pa.table({key: kenc.dictionary.take(pa.array(kc_s[starts])),
                         "v": pa.array(v_s[starts]),
                         "cnt": pa.array(cnt)})

    def reduce_fn(t: pa.Table) -> pa.Table:
        empty = pa.table({key: t[key].slice(0, 0),
                          "n": pa.array([], pa.int64()),
                          "sum_v": pa.array([], pa.int64()),
                          "gini_num": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        kenc = t[key].combine_chunks().dictionary_encode()
        kc = kenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((v, kc))
        kc, v, cnt = kc[order], v[order], cnt[order]
        new = np.ones(len(kc), bool)
        new[1:] = (kc[1:] != kc[:-1]) | (v[1:] != v[:-1])
        gid = np.cumsum(new) - 1
        ng = gid[-1] + 1
        c = np.zeros(ng, np.int64)
        np.add.at(c, gid, cnt)
        kc, v = kc[new], v[new]
        kstart = np.ones(ng, bool)
        kstart[1:] = kc[1:] != kc[:-1]
        kidx = np.cumsum(kstart) - 1
        nkeys = int(kstart.sum())
        cum = np.cumsum(c) - c
        base = np.repeat(cum[kstart], np.diff(
            np.append(np.flatnonzero(kstart), ng)))
        c_prev = cum - base
        n = np.zeros(nkeys, np.int64)
        np.add.at(n, kidx, c)
        sv = np.zeros(nkeys, np.int64)
        np.add.at(sv, kidx, v * c)
        # int64 bound: sum(rank*x) <= n^2 * vmax
        nk = n[kidx]
        if len(v) and (nk.astype(np.float64) ** 2
                       * v.astype(np.float64) > 2.0 ** 62).any():
            raise OverflowError("group_gini: rank-weighted sum "
                                "exceeds int64; rescale values")
        rsum = np.zeros(nkeys, np.int64)
        np.add.at(rsum, kidx, v * (c * c_prev + c * (c + 1) // 2))
        gnum = 2 * rsum - (n + 1) * sv
        return pa.table({key: kenc.dictionary.take(
                            pa.array(kc[kstart])),
                         "n": pa.array(n), "sum_v": pa.array(sv),
                         "gini_num": pa.array(gnum)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    return hash_exchange(partials, on=key,
                         reduce_fn=reduce_fn)


def group_power_sums(ds, keys: list[str], value: str, *,
                     max_power: int = 4, **map_kwargs) -> pa.Table:
    """Exact per-group power sums ``s1..s{max_power}`` (+ ``n``) of an
    INTEGER column — the streaming ingredients of skewness / kurtosis
    (central moments follow algebraically: m3 = (n^2*s3 - 3n*s1*s2 +
    2*s1^3)/n^3 etc.), with the division left to the consumer so the
    emitted table is bit-exact and SQL-twinnable as plain
    ``SUM(v*v*v)`` expressions.

    Per block: one Arrow group_by collapses rows to a partial row per
    group, guarded so ``|v|^max_power * block_rows`` provably fits
    int64.  The driver merge sums partials with PYTHON ints (groups
    are driver-sized by contract) and re-checks the int64 range, so a
    global overflow raises instead of silently wrapping.  NULL values
    don't count (SQL aggregate semantics)."""
    from ..collect import collect_table

    key_list = list(keys)
    names = ["n"] + [f"s{p}" for p in range(1, max_power + 1)]

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [(k, batch.schema.field(k).type) for k in key_list]
            + [(c, pa.int64()) for c in names])
        if batch.num_rows == 0:
            return schema.empty_table()
        col = batch[value].combine_chunks()
        if not pa.types.is_integer(col.type):
            raise TypeError("group_power_sums: integer columns only")
        valid = np.ones(len(col), bool)
        if col.null_count:
            valid = ~col.is_null().to_numpy(zero_copy_only=False)
        v = col.to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.where(valid, v, 0)
        vmax = int(np.abs(v).max(initial=0))
        if vmax and vmax ** max_power > 2**62 // max(len(v), 1):
            raise OverflowError(
                "group_power_sums: |v|^p * block_rows exceeds int64; "
                "pre-scale the value column")
        cols = {**{k: batch[k] for k in key_list},
                "n": pa.array(valid.astype(np.int64))}
        pw = np.ones(len(v), np.int64)
        for p in range(1, max_power + 1):
            pw = pw * v
            cols[f"s{p}"] = pa.array(np.where(valid, pw, 0))
        t = pa.table(cols)
        g = t.group_by(key_list).aggregate([(c, "sum") for c in names])
        return g.rename_columns(key_list + names).cast(schema)

    parts = collect_table(ds.map_batches(partial, batch_format="pyarrow",
                                         zero_copy_batch=True,
                                         **map_kwargs))
    df = parts.to_pandas()
    for c in names:  # Python-int merge: no silent int64 wrap
        df[c] = df[c].astype(object)
    out = df.groupby(key_list, as_index=False, sort=True)[names].sum()
    for c in names:
        if len(out) and out[c].map(abs).max() >= 2**63:
            raise OverflowError(f"group_power_sums: {c} exceeds int64")
        out[c] = out[c].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def ks_statistic(ds, *, key: str = "key", value: str = "v",
                 side: str = "side"):
    """Exact two-sample Kolmogorov–Smirnov statistic per key, in the
    cross-multiplied integer form: ``D_num = max over values of
    |cum_a·n_b − cum_b·n_a|`` with ``D = D_num/(n_a·n_b)`` left to
    the consumer — completes the two-sample family (rank-sum for
    location, Q–Q for shape, KS for the supremum gap).  Same
    compressed-distribution exchange as :func:`rank_sum_u2`: the wire
    carries each key's DISTINCT (value, per-side counts), the
    in-bucket kernel is one lexsort + per-key cumulative sums, only
    per-key scalars leave.  Guarded to keep cum·n products exact
    int64."""
    import pyarrow as pa

    from .exchange import hash_exchange

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table({key: b[key].slice(0, 0),
                          "v": pa.array([], pa.int64()),
                          "n_a": pa.array([], pa.int64()),
                          "n_b": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        v = b[value].to_numpy(zero_copy_only=False)
        if not np.issubdtype(v.dtype, np.integer):
            raise TypeError("ks_statistic: value must be integer-typed")
        v = v.astype(np.int64)
        s = b[side].to_numpy(zero_copy_only=False).astype(np.int64)
        if ((s != 0) & (s != 1)).any():
            raise ValueError("ks_statistic: side must be 0/1")
        kenc = b[key].combine_chunks().dictionary_encode()
        kc = kenc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.lexsort((s, v, kc))
        kc_s, v_s, s_s = kc[order], v[order], s[order]
        new = np.ones(len(kc_s), bool)
        new[1:] = (kc_s[1:] != kc_s[:-1]) | (v_s[1:] != v_s[:-1])
        gid = np.cumsum(new) - 1
        n_a = np.bincount(gid[s_s == 0]).astype(np.int64)
        n_a = np.pad(n_a, (0, gid[-1] + 1 - len(n_a)))
        n_b = np.bincount(gid[s_s == 1]).astype(np.int64)
        n_b = np.pad(n_b, (0, gid[-1] + 1 - len(n_b)))
        starts = np.flatnonzero(new)
        return pa.table({
            key: kenc.dictionary.take(pa.array(kc_s[starts])),
            "v": pa.array(v_s[starts]),
            "n_a": pa.array(n_a), "n_b": pa.array(n_b)})

    out_schema_cols = ["n_a", "n_b", "d_num"]

    def reduce_fn(t: pa.Table) -> pa.Table:
        empty = pa.table({key: t[key].slice(0, 0),
                          "n_a": pa.array([], pa.int64()),
                          "n_b": pa.array([], pa.int64()),
                          "d_num": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        kenc = t[key].combine_chunks().dictionary_encode()
        kc = kenc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        na = t["n_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = t["n_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((v, kc))
        kc, v, na, nb = kc[order], v[order], na[order], nb[order]
        # merge duplicate (key, v) partials from different blocks
        new = np.ones(len(kc), bool)
        new[1:] = (kc[1:] != kc[:-1]) | (v[1:] != v[:-1])
        gid = np.cumsum(new) - 1
        na = np.bincount(gid, weights=na.astype(np.float64)) \
            .astype(np.int64)
        nb = np.bincount(gid, weights=nb.astype(np.float64)) \
            .astype(np.int64)
        starts = np.flatnonzero(new)
        kc = kc[starts]
        key_new = np.ones(len(kc), bool)
        key_new[1:] = kc[1:] != kc[:-1]
        kseg = np.cumsum(key_new) - 1
        # per-key totals + cumulative counts (segment-reset cumsums)
        tot_a = np.bincount(kseg, weights=na.astype(np.float64)) \
            .astype(np.int64)
        tot_b = np.bincount(kseg, weights=nb.astype(np.float64)) \
            .astype(np.int64)
        if len(tot_a) and int(tot_a.max()) * int(tot_b.max()) \
                >= 1 << 62:
            raise OverflowError("ks_statistic: n_a*n_b exceeds int64")
        cum_a = np.cumsum(na)
        cum_b = np.cumsum(nb)
        kstart = np.flatnonzero(key_new)
        base_a = np.repeat(np.concatenate(
            ([0], cum_a[kstart[1:] - 1])) if len(kstart) else [],
            np.diff(np.concatenate((kstart, [len(na)]))))
        base_b = np.repeat(np.concatenate(
            ([0], cum_b[kstart[1:] - 1])) if len(kstart) else [],
            np.diff(np.concatenate((kstart, [len(nb)]))))
        ca = cum_a - base_a
        cb = cum_b - base_b
        gap = np.abs(ca * tot_b[kseg] - cb * tot_a[kseg])
        d_num = np.zeros(len(kstart), np.int64)
        np.maximum.at(d_num, kseg, gap)
        return pa.table({
            key: kenc.dictionary.take(pa.array(kc[kstart])),
            "n_a": pa.array(tot_a), "n_b": pa.array(tot_b),
            "d_num": pa.array(d_num)})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    return hash_exchange(parts, on=key,
                         reduce_fn=reduce_fn)


def weighted_median(ds, keys: list[str], value: str, weight: str):
    """Exact per-group WEIGHTED median of an integer column: the
    smallest value v with ``2·cumweight(v) >= total_weight`` (the
    lower weighted median — deterministic, division-free).  Same
    compressed-distribution exchange as the quantile family: blocks
    collapse to (group, value, weight-sum) partials, the group's
    distribution lands in one bucket, one lexsort + cumulative sum
    finds the crossing.  Integer weights only (exactness)."""
    from ..collect import collect_table
    from .exchange import hash_exchange

    key_list = list(keys)

    def partial(b: pa.Table) -> pa.Table:
        schema = pa.schema([(k, b.schema.field(k).type)
                            for k in key_list]
                           + [("v", pa.int64()), ("w", pa.int64())])
        if b.num_rows == 0:
            return schema.empty_table()
        v = b[value].to_numpy(zero_copy_only=False)
        w = b[weight].to_numpy(zero_copy_only=False)
        if not (np.issubdtype(v.dtype, np.integer)
                and np.issubdtype(w.dtype, np.integer)):
            raise TypeError("weighted_median: integer value/weight")
        if (w < 0).any():
            raise ValueError("weighted_median: negative weight")
        t = pa.table({**{k: b[k] for k in key_list},
                      "v": pa.array(v.astype(np.int64)),
                      "w": pa.array(w.astype(np.int64))})
        g = t.group_by(key_list + ["v"]).aggregate([("w", "sum")])
        return g.rename_columns(key_list + ["v", "w"]).cast(schema)

    def reduce_fn(t: pa.Table) -> pa.Table:
        schema = pa.schema([(f.name, f.type) for f in t.schema
                            if f.name in key_list]
                           + [("wmedian", pa.int64()),
                              ("total_w", pa.int64())])
        if t.num_rows == 0:
            return schema.empty_table()
        kenc = None
        # pack composite keys via dictionary encode of a struct-free
        # concat: use pandas groupby for the driver-free in-bucket
        # walk (a bucket's groups are bounded by the exchange)
        df = t.to_pandas()
        df = df.groupby(key_list + ["v"], as_index=False)["w"].sum()
        df = df.sort_values(key_list + ["v"])
        out = []
        for kv, g in df.groupby(key_list, sort=True):
            w = g["w"].to_numpy().astype(np.int64)
            v = g["v"].to_numpy().astype(np.int64)
            tot = int(w.sum())
            cum = np.cumsum(w)
            pos = int(np.searchsorted(2 * cum, tot, side="left"))
            row = kv if isinstance(kv, tuple) else (kv,)
            out.append(row + (int(v[pos]), tot))
        cols = {}
        for i, k in enumerate(key_list):
            cols[k] = pa.array([r[i] for r in out],
                               t.schema.field(k).type)
        cols["wmedian"] = pa.array([r[-2] for r in out], pa.int64())
        cols["total_w"] = pa.array([r[-1] for r in out], pa.int64())
        return pa.table(cols)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    return hash_exchange(parts, on=key_list,
                         reduce_fn=reduce_fn)


def mann_kendall(ds, keys: list[str], t: str, y: str, *,
                 schema: pa.Schema | None = None):
    """Exact per-group Mann–Kendall trend test ingredients: the S
    statistic ``sum over time pairs t_i < t_j of sign(y_j - y_i)`` and
    the tie-corrected variance NUMERATOR ``var18 = n(n-1)(2n+5) -
    sum_ties c(c-1)(2c+5)`` (the classic variance is var18/18; the
    division — and the Z normalization — stays with the consumer, so
    everything this emits is exact int64 and hash-stable).  The
    monotone-trend detector that least-squares regression is not:
    S depends only on sign agreements, so one outlier moves it by at
    most n-1.

    Pinned rules: rows with NULL ``t`` or ``y`` are skipped; pairs
    with EQUAL times are excluded from S (the SQL twin's
    ``a.t < b.t`` join); ``var18`` uses the distinct-time formula
    with the y-tie correction only (the usual form — if the caller
    feeds tied times, both engines still agree because the expression
    is pinned, but the statistical variance interpretation assumes
    distinct times, which per-group time series built by a counting
    pass satisfy by construction).

    Each group's series must fit one task (it is typically the OUTPUT
    of a time-bucket pre-aggregation, so it is bounded by the time
    domain, not the data size); the pair scan is chunk-vectorized
    O(n^2) with bounded memory.  Output: keys + ``s`` + ``var18`` +
    ``n`` (valid rows).
    """
    from .exchange import grouped_exchange

    key_list = list(keys)
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}
    out_schema = pa.schema([(k, types[k]) for k in key_list]
                           + [("s", pa.int64()), ("var18", pa.int64()),
                              ("n", pa.int64())])

    def group_fn(g: pa.Table) -> pa.Table:
        tc = g[t].combine_chunks()
        yc = g[y].combine_chunks()
        ok = pc.and_(pc.is_valid(tc), pc.is_valid(yc))
        if not pc.all(ok).as_py():
            sel = pa.array(np.flatnonzero(
                ok.to_numpy(zero_copy_only=False)), pa.int64())
            tc, yc = tc.take(sel), yc.take(sel)
        tv = tc.to_numpy(zero_copy_only=False).astype(np.int64)
        yv = yc.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(tv)
        order = np.lexsort((yv, tv))
        tv, yv = tv[order], yv[order]
        s = 0
        # chunked pair scan: rows i vs all j, masked to t_i < t_j
        step = max(1, (1 << 22) // max(n, 1))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            dy = yv[None, :] - yv[lo:hi, None]
            mask = tv[None, :] > tv[lo:hi, None]
            s += int(np.sign(dy[mask]).sum())
        _, cnt = np.unique(yv, return_counts=True)
        c = cnt.astype(object)  # exact Python ints, no int64 risk
        var18 = (n * (n - 1) * (2 * n + 5)
                 - int((c * (c - 1) * (2 * c + 5)).sum()))
        cols = {k: g[k].slice(0, 1) for k in key_list}
        cols["s"] = pa.array([s], pa.int64())
        cols["var18"] = pa.array([int(var18)], pa.int64())
        cols["n"] = pa.array([n], pa.int64())
        return pa.table(cols).cast(out_schema)

    return grouped_exchange(ds, key_list, group_fn, schema=out_schema)


def theil_sen(ds, keys: list[str], x: str, y: str, *,
              schema: pa.Schema | None = None):
    """Per-group Theil–Sen robust slope: the LOWER MEDIAN of the
    pairwise slopes ``(y_j - y_i) / (x_j - x_i)`` over pairs with
    ``x_i < x_j`` — the estimator that pairs with [[mann_kendall]]
    (up to ~29% contaminated points cannot move it, where one outlier
    owns the least-squares slope).

    Pinned total order (so a SQL twin hash-matches bit-for-bit): the
    slope is the IEEE double ``CAST(dy AS DOUBLE) / CAST(dx AS
    DOUBLE)`` — exactly-rounded and engine-independent — ordered by
    ``(slope, dy, dx)``, and the lower median is the element at
    0-based index ``(m-1)//2``, i.e. ``ROW_NUMBER = (m+1)//2``.
    Rows with NULL x or y are skipped; pairs with equal x are
    excluded; a group with no pairs emits nothing (the SQL pair join
    drops it).  Output: keys + ``slope`` (float64) + ``n_pairs``.

    Same size contract as mann_kendall: a group's series fits one
    task (pre-aggregated time buckets), pair enumeration is
    chunk-vectorized with bounded memory.
    """
    from .exchange import grouped_exchange

    key_list = list(keys)
    if schema is None:
        in_schema = ds.schema()
        types = dict(zip(in_schema.names, in_schema.types))
    else:
        types = {f.name: f.type for f in schema}
    out_schema = pa.schema([(k, types[k]) for k in key_list]
                           + [("slope", pa.float64()),
                              ("n_pairs", pa.int64())])

    def group_fn(g: pa.Table) -> pa.Table:
        xc = g[x].combine_chunks()
        yc = g[y].combine_chunks()
        ok = pc.and_(pc.is_valid(xc), pc.is_valid(yc))
        if not pc.all(ok).as_py():
            sel = pa.array(np.flatnonzero(
                ok.to_numpy(zero_copy_only=False)), pa.int64())
            xc, yc = xc.take(sel), yc.take(sel)
        xv = xc.to_numpy(zero_copy_only=False).astype(np.int64)
        yv = yc.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(xv)
        order = np.lexsort((yv, xv))
        xv, yv = xv[order], yv[order]
        dys, dxs = [], []
        step = max(1, (1 << 22) // max(n, 1))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            dx = xv[None, :] - xv[lo:hi, None]
            dy = yv[None, :] - yv[lo:hi, None]
            m = dx > 0  # x_i < x_j exactly once per unordered pair
            dys.append(dy[m])
            dxs.append(dx[m])
        dy = np.concatenate(dys) if dys else np.empty(0, np.int64)
        dx = np.concatenate(dxs) if dxs else np.empty(0, np.int64)
        m = len(dy)
        if m == 0:
            return out_schema.empty_table()
        slope = dy.astype(np.float64) / dx.astype(np.float64)
        pick = np.lexsort((dx, dy, slope))[(m - 1) // 2]
        cols = {k: g[k].slice(0, 1) for k in key_list}
        cols["slope"] = pa.array([float(slope[pick])], pa.float64())
        cols["n_pairs"] = pa.array([m], pa.int64())
        return pa.table(cols).cast(out_schema)

    return grouped_exchange(ds, key_list, group_fn, schema=out_schema)
