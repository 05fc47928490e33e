"""Distributed grid DBSCAN over integer planar points.

Exact DBSCAN (Ester et al. 1996, the public classic) composed from the
engine's own primitives — the same recipe as ``segment_intersect_join``
and ``polygonize``: a uniform eps-sized grid bounds the candidate set
(any pair within ``eps`` lies in adjacent cells), one fan-out co-group
generates candidate pairs exactly once, and the core-point graph is
resolved by ``functions.graph.connected_components``.

Semantics (all EXACT, integer coordinates required so floats never
decide a distance):

- neighbor:   dx^2 + dy^2 <= eps^2 (closed ball, self included)
- core:       |neighbors| >= min_pts
- cluster:    connected component of the core-core neighbor graph,
              labeled by the component's minimum core id
- border:     non-core point with >= 1 core neighbor, assigned to the
              cluster of its MINIMUM-id core neighbor — classic DBSCAN
              leaves border assignment order-dependent; the min-id rule
              makes it deterministic and partition-invariant (and SQL-
              expressible, so the whole operator hash-checks)
- noise:      everything else (absent from the output)

Scale shape: two co-group passes (neighbor counting, then edge/border
generation over core-flagged points) moving only (id, x, y, flag)
rows; per-bucket kernels are fully vectorized (the ragged
searchsorted-window pair expansion — output-proportional, no per-cell
Python loop).  A pathologically dense single cell makes the candidate
set quadratic in that cell — the same documented caveat as the LSH
``bucket_cap`` and SemDeDup ``cluster_cap``; dense-cell capping can be
layered on the fan stage without touching the algebra.  The final
(node -> cluster) assembly is driver-side and O(clustered points),
the same contract as ``connected_components`` itself.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_NINE = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def _window_pairs(pcell: np.ndarray, dcell: np.ndarray):
    """Index pairs (pi, di) with pcell[pi] == dcell[di] — the ragged
    searchsorted-window expansion, output-proportional."""
    order = np.argsort(dcell, kind="stable")
    dsorted = dcell[order]
    s = np.searchsorted(dsorted, pcell, side="left")
    e = np.searchsorted(dsorted, pcell, side="right")
    ln = e - s
    tot = int(ln.sum())
    if tot == 0:
        z = np.zeros(0, np.int64)
        return z, z
    pi = np.repeat(np.arange(len(pcell), dtype=np.int64), ln)
    off = np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(ln) - ln, ln)
    di = order[np.repeat(s, ln) + off]
    return pi, di


from .hexgrid import _pack_cells as _pack  # shared int64 cell packer


def _cells(x: np.ndarray, y: np.ndarray, eps: int):
    return x // eps, y // eps  # floor division (exact for ints)


def grid_dbscan(pts, *, id_col: str = "id", x_col: str = "x",
                y_col: str = "y", eps: int, min_pts: int,
                nbuckets: int = 32) -> pa.Table:
    """Run exact DBSCAN; returns a pyarrow Table
    ``(id, cluster, is_core)`` — noise points absent.  ``pts`` needs
    integer ``x``/``y`` columns (quantize upstream; the codec's 1e7
    grid or any fixed-point scale works)."""
    import ray

    from ..functions.exchange import hash_cogroup, hash_exchange
    from ..functions.graph import connected_components

    eps = int(eps)
    eps2 = np.int64(eps) * np.int64(eps)

    def probe_fan(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cx, cy = _cells(x, y, eps)
        cols = {"id": [], "x": [], "y": [], "cx": [], "cy": []}
        for dx, dy in _NINE:
            cols["id"].append(ids)
            cols["x"].append(x)
            cols["y"].append(y)
            cols["cx"].append(cx + dx)
            cols["cy"].append(cy + dy)
        return pa.table({k: pa.array(np.concatenate(v))
                         for k, v in cols.items()})

    def home_stamp(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cx, cy = _cells(x, y, eps)
        return pa.table({"id": pa.array(ids), "x": pa.array(x),
                         "y": pa.array(y), "cx": pa.array(cx),
                         "cy": pa.array(cy)})

    def _neighbor_pairs(lt: pa.Table, rt: pa.Table):
        """(probe idx, data idx) pairs within eps inside this bucket."""
        pc = _pack(lt["cx"].to_numpy(zero_copy_only=False),
                   lt["cy"].to_numpy(zero_copy_only=False))
        dc = _pack(rt["cx"].to_numpy(zero_copy_only=False),
                   rt["cy"].to_numpy(zero_copy_only=False))
        pi, di = _window_pairs(pc, dc)
        px = lt["x"].to_numpy(zero_copy_only=False)
        py = lt["y"].to_numpy(zero_copy_only=False)
        dx_ = rt["x"].to_numpy(zero_copy_only=False)
        dy_ = rt["y"].to_numpy(zero_copy_only=False)
        ddx = px[pi] - dx_[di]
        ddy = py[pi] - dy_[di]
        keep = ddx * ddx + ddy * ddy <= eps2
        return pi[keep], di[keep]

    count_schema = pa.schema([("id", pa.int64()), ("n", pa.int64())])

    def count_reduce(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_columns == 0 or rt.num_columns == 0 \
                or lt.num_rows == 0 or rt.num_rows == 0:
            return count_schema.empty_table()
        pi, _ = _neighbor_pairs(lt, rt)
        if len(pi) == 0:
            return count_schema.empty_table()
        ids = lt["id"].to_numpy(zero_copy_only=False)
        uid, inv = np.unique(ids[pi], return_inverse=True)
        return pa.table({"id": pa.array(uid),
                         "n": pa.array(np.bincount(inv).astype(np.int64))})

    # pass A: neighbor counts (a pair meets once, in the data point's
    # home cell), then one skinny exchange to a full count per id
    probes = pts.map_batches(probe_fan, batch_format="pyarrow",
                             zero_copy_batch=True)
    homes = pts.map_batches(home_stamp, batch_format="pyarrow",
                            zero_copy_batch=True)
    parts = hash_cogroup(probes, homes, nbuckets=nbuckets,
                         left_on=["cx", "cy"], right_on=["cx", "cy"],
                         reduce_fn=count_reduce)

    def sum_counts(tbl: pa.Table) -> pa.Table:
        if tbl.num_columns == 0 or tbl.num_rows == 0:
            return count_schema.empty_table()
        g = tbl.group_by("id").aggregate([("n", "sum")])
        return g.rename_columns(["id", "n"]).cast(count_schema)

    flags = hash_exchange(parts, nbuckets=nbuckets, on="id",
                          reduce_fn=sum_counts, schema=count_schema)

    # pass B: re-fan with is_core attached (one hash join on id),
    # emit core-core edges + per-bucket border candidate minima
    from ..functions.join import hash_join

    flagged = hash_join(
        pts.map_batches(home_stamp, batch_format="pyarrow",
                        zero_copy_batch=True),
        flags, "id")

    def core_stamp(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False)
        return batch.drop_columns(["n"]).append_column(
            "is_core", pa.array(n >= min_pts))

    fl = flagged.map_batches(core_stamp, batch_format="pyarrow",
                             zero_copy_batch=True)

    def probe_fan2(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return pa.table({c: pa.array([], pa.int64())
                             for c in ("id", "x", "y", "cx", "cy")}
                            ).append_column("is_core",
                                            pa.array([], pa.bool_()))
        tbls = []
        cx = batch["cx"].to_numpy(zero_copy_only=False)
        cy = batch["cy"].to_numpy(zero_copy_only=False)
        base = batch.drop_columns(["cx", "cy"])
        for dx, dy in _NINE:
            tbls.append(base.append_column("cx", pa.array(cx + dx))
                        .append_column("cy", pa.array(cy + dy)))
        return pa.concat_tables(tbls)

    pair_schema = pa.schema([("kind", pa.int8()), ("u", pa.int64()),
                             ("v", pa.int64())])

    def edge_reduce(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_columns == 0 or rt.num_columns == 0 \
                or lt.num_rows == 0 or rt.num_rows == 0:
            return pair_schema.empty_table()
        pi, di = _neighbor_pairs(lt, rt)
        if len(pi) == 0:
            return pair_schema.empty_table()
        lid = lt["id"].to_numpy(zero_copy_only=False)
        rid = rt["id"].to_numpy(zero_copy_only=False)
        lcore = lt["is_core"].to_numpy(zero_copy_only=False)
        rcore = rt["is_core"].to_numpy(zero_copy_only=False)
        u, v = lid[pi], rid[di]
        pc, dc = lcore[pi], rcore[di]
        # keep the u == v self-loop: every core meets itself once in
        # its home cell, so isolated cores still reach the component
        # table as singletons labeled by themselves
        em = pc & dc                      # core-core edge
        bm = ~pc & dc                     # border candidate
        out = [pa.table({"kind": pa.array(np.zeros(int(em.sum()), np.int8)),
                         "u": pa.array(u[em]), "v": pa.array(v[em])})]
        if bm.any():
            bu, bv = u[bm], v[bm]
            ub, inv = np.unique(bu, return_inverse=True)
            mn = np.full(len(ub), np.iinfo(np.int64).max, np.int64)
            np.minimum.at(mn, inv, bv)
            out.append(pa.table({
                "kind": pa.array(np.ones(len(ub), np.int8)),
                "u": pa.array(ub), "v": pa.array(mn)}))
        return pa.concat_tables(out).cast(pair_schema)

    # fl feeds both co-group sides — materialize once instead of
    # re-executing the join+flag pipeline per side
    fl = fl.materialize()
    probes2 = fl.map_batches(probe_fan2, batch_format="pyarrow",
                             zero_copy_batch=True)
    pairs = hash_cogroup(probes2, fl, nbuckets=nbuckets,
                         left_on=["cx", "cy"], right_on=["cx", "cy"],
                         reduce_fn=edge_reduce).materialize()

    edges = pairs.map_batches(
        lambda b: b.filter(pa.compute.equal(b["kind"], 0))
        .select(["u", "v"]),
        batch_format="pyarrow", zero_copy_batch=True)
    comp = connected_components(edges, src="u", dst="v",
                                nbuckets=nbuckets)

    # border minima: per-bucket partial mins -> tiny driver combine
    from ..collect import collect_table

    borders = collect_table(pairs.map_batches(
        lambda b: b.filter(pa.compute.equal(b["kind"], 1))
        .select(["u", "v"]),
        batch_format="pyarrow", zero_copy_batch=True))

    node = comp["node"].to_numpy(zero_copy_only=False)
    clab = comp["component"].to_numpy(zero_copy_only=False)
    order = np.argsort(node)
    node, clab = node[order], clab[order]

    out_id = [node]
    out_cl = [clab]
    out_core = [np.ones(len(node), bool)]
    if borders.num_rows:
        bu = borders["u"].to_numpy(zero_copy_only=False)
        bv = borders["v"].to_numpy(zero_copy_only=False)
        ub, inv = np.unique(bu, return_inverse=True)
        mn = np.full(len(ub), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mn, inv, bv)
        # every border's min core neighbor is in comp (cores always
        # carry their self-loop edge), so the lookup always hits
        pos = np.searchsorted(node, mn)
        bcl = clab[pos]
        out_id.append(ub)
        out_cl.append(bcl)
        out_core.append(np.zeros(len(ub), bool))

    return pa.table({
        "id": pa.array(np.concatenate(out_id)),
        "cluster": pa.array(np.concatenate(out_cl)),
        "is_core": pa.array(np.concatenate(out_core)),
    })
