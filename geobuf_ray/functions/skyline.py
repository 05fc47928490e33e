"""Distributed skyline (Pareto frontier) operator.

A row is in the skyline iff no other row dominates it: better-or-equal
in every dimension and strictly better in at least one ("better" per
the requested direction, max or min).  Skyline is union-stable —
``skyline(A ∪ B) == skyline(skyline(A) ∪ skyline(B))`` — so it
distributes as: each block keeps only its LOCAL skyline (tiny on real
data: expected O(log^d n) points for independent dims), and one final
reduce computes the exact frontier over the union of the local
survivors.  On anti-correlated dimensions the frontier itself is large
and the final reduce grows with it — that is inherent to the operator
(the ANSWER is that big), not to this plan.

The kernel is exact and vectorized: repeated pivot rounds.  Each round
picks the candidate maximizing the dimension sum (provably
non-dominated), moves it — and its exact duplicates — to the skyline,
and drops every candidate it dominates in one numpy broadcast.  Rounds
= number of distinct frontier points; each is O(n·d).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _skyline_mask(vals: np.ndarray) -> np.ndarray:
    """Boolean skyline mask over an (n, d) float array, all-max
    orientation.  NaNs must be filtered by the caller.

    Pivot = the lexicographically greatest alive point: any dominator q
    of p satisfies q >= p componentwise with q != p, hence q > p
    lexicographically — so the lex max among alive points is never
    dominated by an alive point, and (dominance being transitive) never
    by an already-dropped one either.
    """
    n = vals.shape[0]
    # np.lexsort: LAST key is primary -> reversed row order puts dim 0
    # as the primary sort key
    lexpos = np.empty(n, np.int64)
    lexpos[np.lexsort(vals.T[::-1])] = np.arange(n)
    keep = np.zeros(n, bool)
    alive = np.ones(n, bool)
    while alive.any():
        idx = np.flatnonzero(alive)
        p = idx[np.argmax(lexpos[idx])]
        pv = vals[p]
        sub = vals[idx]
        dominated = (sub <= pv).all(axis=1)   # includes exact dups
        eq = (sub == pv).all(axis=1)
        keep[idx[eq]] = True          # pivot + exact duplicates
        alive[idx[dominated]] = False
    return keep


def skyline(ds, cols: list[str], *, directions: list[str] | None = None,
            schema: pa.Schema | None = None):
    """Exact distributed Pareto frontier over ``cols``.

    ``directions``: one of ``"max"`` / ``"min"`` per column (default
    all ``"max"``).  Rows with a NULL/NaN in any skyline column are
    excluded (SQL ``NOT EXISTS`` dominance queries never return them
    as frontier rows against a non-degenerate corpus, and their
    ordering is undefined).  All non-skyline columns pass through.
    """
    from .exchange import hash_exchange

    dirs = list(directions) if directions is not None else ["max"] * len(cols)
    if len(dirs) != len(cols):
        raise ValueError("directions must match cols")
    sign = np.array([1.0 if d == "max" else -1.0 for d in dirs])
    if not set(dirs) <= {"max", "min"}:
        raise ValueError("directions must be 'max' or 'min'")

    def local(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return tbl
        mat = np.column_stack([
            tbl[c].combine_chunks().to_numpy(zero_copy_only=False)
            .astype(np.float64) for c in cols]) * sign
        ok = np.isfinite(mat).all(axis=1)
        if not ok.all():
            tbl = tbl.filter(pa.array(ok))
            mat = mat[ok]
        if tbl.num_rows == 0:
            return tbl
        return tbl.filter(pa.array(_skyline_mask(mat)))

    out_schema = schema if schema is not None else ds.schema()
    if hasattr(out_schema, "base_schema"):   # ray Schema wrapper
        out_schema = pa.schema(list(zip(out_schema.names,
                                        out_schema.types)))
    locals_ds = ds.map_batches(local, batch_format="pyarrow",
                               zero_copy_batch=True)
    return hash_exchange(locals_ds, nbuckets=1, reduce_fn=local,
                         schema=out_schema)
