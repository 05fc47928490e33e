"""Distributed connected components over an edge Dataset.

The clustering step a dedup pipeline needs downstream of candidate
pairs (MinHash / SimHash / phash emit PAIRS; keep-one-per-component
needs the transitive closure).  The reference has no graph ops; this
is new-engine surface.

Algorithm: hash-min label propagation with POINTER DOUBLING —
``L(v) <- min(L(v), min_{(u,v) in E} L(u))`` each round, then
``L(v) <- min(L(v), L(L(v)))`` — which converges in O(log n) rounds
even on path graphs (plain propagation needs O(diameter) rounds).

Every step is a hash-bucket exchange (``hash_cogroup``), so neither
the edge set nor the label table ever centralizes; the label table is
exactly one row per node after every round, and the driver only reads
a per-round (count, sum) checksum for convergence (labels decrease
monotonically, so an unchanged sum IS the fixed point).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_I64 = pa.int64()
_EDGE_SCHEMA = pa.schema([("a", _I64), ("b", _I64)])
_LAB_SCHEMA = pa.schema([("node", _I64), ("label", _I64)])


def _first_per_node(node: np.ndarray, lab: np.ndarray) -> pa.Table:
    order = np.lexsort((lab, node))
    node, lab = node[order], lab[order]
    first = np.concatenate(([True], node[1:] != node[:-1])) \
        if len(node) else np.empty(0, bool)
    return pa.table({"node": pa.array(node[first]),
                     "label": pa.array(lab[first])})


def _np(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


def _local_cc(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """In-memory CC for the small-graph regime: min-label iteration
    with pointer jumping, fully vectorized.  ``nodes`` is sorted
    ascending, so min over indices IS min over node ids."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = inv[:len(a)], inv[len(a):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        l2 = lab.copy()
        np.minimum.at(l2, ea, lab[eb])
        for _ in range(3):         # pointer jumping: halve chains
            l2 = l2[l2]
        if np.array_equal(l2, lab):
            break
        lab = l2
    return pa.table({"node": pa.array(nodes),
                     "component": pa.array(nodes[lab])})


def connected_components(edges, *, src: str = "src", dst: str = "dst",
                         nbuckets: int = 32, max_rounds: int = 64,
                         local_threshold: int = 2_000_000):
    """Components of the undirected graph given by an edge Dataset.

    Returns a pyarrow Table ``(node, component)`` where ``component``
    is the minimum node id reachable from ``node``.  Nodes appear iff
    they occur in an edge (self-loops fine).  Node ids must be int64.

    Two regimes (the engine's broadcast-vs-shuffle discipline): at or
    below ``local_threshold`` symmetrized edge rows the graph collects
    once and resolves with a vectorized local pointer-jumping kernel —
    the label table was going to be driver-sized anyway (this
    function's contract), so collecting the same-order edge set buys
    back the multi-round exchange latency that dominates small graphs
    (measured: 4-5s of chained barriers for a 370k-edge DBSCAN graph).
    Above it, the distributed pointer-doubling loop runs — identical
    results (both compute min-reachable), only the schedule differs.
    """
    import ray

    from ..collect import collect_table
    from .exchange import hash_cogroup

    def sym(batch: pa.Table) -> pa.Table:
        u = batch[src].combine_chunks().cast(_I64)
        v = batch[dst].combine_chunks().cast(_I64)
        return pa.table({"a": pa.concat_arrays([u, v]),
                         "b": pa.concat_arrays([v, u])})

    sedges = edges.map_batches(sym, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()

    if sedges.count() <= local_threshold:
        t = collect_table(sedges)
        return _local_cc(_np(t["a"]), _np(t["b"])) if t.num_rows else \
            pa.table({"node": pa.array([], _I64),
                      "component": pa.array([], _I64)})

    # initial labels: L(v) = min(v, min neighbor) — one exchange-free
    # partial per block + a bucket combine folded into round 1's merge
    def init_labels(batch: pa.Table) -> pa.Table:
        a, b = _np(batch["a"]), _np(batch["b"])
        return _first_per_node(a, np.minimum(a, b))

    labels = sedges.map_batches(init_labels, batch_format="pyarrow",
                                zero_copy_batch=True)

    def merge_min(new: pa.Table, cur: pa.Table) -> pa.Table:
        node = np.concatenate([_np(new["node"]), _np(cur["node"])])
        lab = np.concatenate([_np(new["label"]), _np(cur["label"])])
        return _first_per_node(node, lab)

    # fold duplicate per-block init rows into one row per node
    empty = ray.data.from_arrow(pa.table({"node": pa.array([], _I64),
                                          "label": pa.array([], _I64)}))
    labels = hash_cogroup(labels, empty, nbuckets=nbuckets,
                          left_on="node", right_on="node",
                          reduce_fn=merge_min,
                          left_schema=_LAB_SCHEMA,
                          right_schema=_LAB_SCHEMA).materialize()

    def propagate(e: pa.Table, l: pa.Table) -> pa.Table:
        """edges bucketed on ``a`` meet labels bucketed on ``node``:
        emit (b, label(a)) candidate rows (bucketed arbitrarily —
        merged per node next step)."""
        a, b = _np(e["a"]), _np(e["b"])
        node, lab = _np(l["node"]), _np(l["label"])
        order = np.argsort(node)
        node, lab = node[order], lab[order]
        if not len(node):
            return pa.table({"node": pa.array([], _I64),
                             "label": pa.array([], _I64)})
        pos = np.clip(np.searchsorted(node, a), 0, len(node) - 1)
        hit = node[pos] == a
        return pa.table({"node": pa.array(b[hit]),
                         "label": pa.array(lab[pos[hit]])})

    def double(l_by_label: pa.Table, l_by_node: pa.Table) -> pa.Table:
        """rows bucketed on their LABEL meet the label table bucketed
        on node: rewrite label -> min(label, L(label)).  One row per
        node in, one out."""
        node1, lab1 = _np(l_by_label["node"]), _np(l_by_label["label"])
        node2, lab2 = _np(l_by_node["node"]), _np(l_by_node["label"])
        order = np.argsort(node2)
        node2, lab2 = node2[order], lab2[order]
        if len(node2):
            pos = np.clip(np.searchsorted(node2, lab1), 0, len(node2) - 1)
            hit = node2[pos] == lab1
            lab1 = np.where(hit, np.minimum(lab1, lab2[pos]), lab1)
        return pa.table({"node": pa.array(node1),
                         "label": pa.array(lab1.astype(np.int64))})

    def checksum(ds) -> tuple[int, int]:
        """(row count, label sum) via per-block partials — only a
        handful of tiny rows reach the driver, never the label table."""
        def part(b: pa.Table) -> pa.Table:
            return pa.table({"c": pa.array([b.num_rows], _I64),
                             "s": pa.array([int(_np(b["label"]).sum())
                                            if b.num_rows else 0], _I64)})

        t = collect_table(ds.map_batches(part, batch_format="pyarrow",
                                         zero_copy_batch=True,
                                         batch_size=None))
        return (int(_np(t["c"]).sum()), int(_np(t["s"]).sum()))

    # the edge set never changes: hash + ship it ONCE and reuse the
    # bucket refs every round (re-exchanging |E| per round was the
    # dominant redundant cost of the loop)
    from .exchange import cogroup_presplit, presplit

    edge_maps = presplit(sedges, nbuckets=nbuckets, on="a")

    prev = None
    for _ in range(max_rounds):
        cand = cogroup_presplit(edge_maps, labels, nbuckets=nbuckets,
                                right_on="node", reduce_fn=propagate,
                                left_schema=_EDGE_SCHEMA,
                                right_schema=_LAB_SCHEMA)
        labels = hash_cogroup(cand, labels, nbuckets=nbuckets,
                              left_on="node", right_on="node",
                              reduce_fn=merge_min,
                              left_schema=_LAB_SCHEMA,
                              right_schema=_LAB_SCHEMA).materialize()
        labels = hash_cogroup(labels, labels, nbuckets=nbuckets,
                              left_on="label", right_on="node",
                              reduce_fn=double,
                              left_schema=_LAB_SCHEMA,
                              right_schema=_LAB_SCHEMA).materialize()
        cur = checksum(labels)
        if cur == prev:
            break
        prev = cur

    out = collect_table(labels) if hasattr(labels, "iter_batches") else labels
    if not isinstance(out, pa.Table):
        out = pa.concat_tables(out)
    node, lab = _np(out["node"]), _np(out["label"])
    t = _first_per_node(node, lab)
    return t.rename_columns(["node", "component"])


def bfs_hops(edges, sources, *, src: str = "src", dst: str = "dst",
             directed: bool = False, nbuckets: int = 32,
             max_rounds: int = 64):
    """Minimum HOP DISTANCE from a source node set (multi-source BFS).

    Returns a pyarrow Table ``(node, dist)`` covering every node
    reachable from ``sources`` within ``max_rounds`` hops (sources
    themselves at dist 0); unreachable nodes are absent.  Frontier
    BFS: each round only the rows discovered LAST round probe the
    (pre-split, shipped-once) edge buckets, so a round moves
    O(|frontier| + touched edges), not O(|V|).  Runs O(diameter)
    exchange rounds — use :func:`connected_components` (pointer
    doubling, O(log n) rounds) when only reachability matters; BFS
    has to pay diameter rounds because distances aren't min-foldable
    across doubled pointers.
    """
    import ray

    from ..collect import collect_table
    from .exchange import cogroup_presplit, hash_cogroup, presplit

    def sym(batch: pa.Table) -> pa.Table:
        u = batch[src].combine_chunks().cast(_I64)
        v = batch[dst].combine_chunks().cast(_I64)
        if directed:
            return pa.table({"a": u, "b": v})
        return pa.table({"a": pa.concat_arrays([u, v]),
                         "b": pa.concat_arrays([v, u])})

    sedges = edges.map_batches(sym, batch_format="pyarrow",
                               zero_copy_batch=True)
    edge_maps = presplit(sedges, nbuckets=nbuckets, on="a")

    srcs = np.unique(np.asarray(sources, dtype=np.int64))
    init = pa.table({"node": pa.array(srcs),
                     "label": pa.array(np.zeros(len(srcs), np.int64))})
    dist = ray.data.from_arrow(init).materialize()
    frontier = dist

    def merge_min(new: pa.Table, cur: pa.Table) -> pa.Table:
        node = np.concatenate([_np(new["node"]), _np(cur["node"])])
        lab = np.concatenate([_np(new["label"]), _np(cur["label"])])
        return _first_per_node(node, lab)

    for r in range(max_rounds):
        nxt = np.int64(r + 1)

        def propagate(e: pa.Table, f: pa.Table, nxt=nxt) -> pa.Table:
            a, b = _np(e["a"]), _np(e["b"])
            node = np.sort(_np(f["node"]))
            if not len(node):
                return pa.table({"node": pa.array([], _I64),
                                 "label": pa.array([], _I64)})
            pos = np.clip(np.searchsorted(node, a), 0, len(node) - 1)
            hit = node[pos] == a
            out = np.unique(b[hit])  # block-local dedup pre-exchange
            return pa.table({"node": pa.array(out),
                             "label": pa.array(
                                 np.full(len(out), nxt, np.int64))})

        cand = cogroup_presplit(edge_maps, frontier, nbuckets=nbuckets,
                                right_on="node", reduce_fn=propagate,
                                left_schema=_EDGE_SCHEMA,
                                right_schema=_LAB_SCHEMA)
        dist = hash_cogroup(cand, dist, nbuckets=nbuckets,
                            left_on="node", right_on="node",
                            reduce_fn=merge_min,
                            left_schema=_LAB_SCHEMA,
                            right_schema=_LAB_SCHEMA).materialize()

        def newly(batch: pa.Table, nxt=nxt) -> pa.Table:
            keep = _np(batch["label"]) == nxt
            return batch.filter(pa.array(keep))

        frontier = dist.map_batches(newly, batch_format="pyarrow",
                                    zero_copy_batch=True).materialize()
        if frontier.count() == 0:
            break

    out = collect_table(dist)
    return out.rename_columns(["node", "dist"])


def pagerank(edges, *, src: str = "src", dst: str = "dst",
             damping: float = 0.85, iters: int = 20,
             nbuckets: int = 32) -> pa.Table:
    """PageRank of the directed graph given by an edge Dataset.

    Returns ``(node, rank)`` over every node appearing in an edge;
    ranks sum to 1.  Standard damped formulation with dangling-node
    mass redistributed uniformly:

        r'(v) = (1-d)/N + d * (sum_{u->v} r(u)/deg(u) + dangling/N)

    Shape per iteration: the edge set is hashed and shipped ONCE
    (presplit on ``src``) and reused every round; one cogroup joins
    edge buckets with the rank table to emit per-destination
    contribution sums (pre-aggregated inside the bucket, so the second
    exchange carries at most one row per (bucket, dst)); a second
    cogroup folds contributions into the rank table.  The driver only
    ever sees a per-round scalar (the dangling mass), never the rank
    table.  Fixed ``iters`` rounds keep the result deterministic.
    """
    import ray

    from ..collect import collect_table
    from .exchange import cogroup_presplit, hash_cogroup, presplit

    _RANK_SCHEMA = pa.schema([("node", _I64), ("rank", pa.float64()),
                              ("deg", _I64)])
    _CONTRIB_SCHEMA = pa.schema([("node", _I64), ("c", pa.float64())])

    def edge_cast(batch: pa.Table) -> pa.Table:
        return pa.table({"a": batch[src].combine_chunks().cast(_I64),
                         "b": batch[dst].combine_chunks().cast(_I64)})

    E = edges.map_batches(edge_cast, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()

    # node table with out-degree: per-block (node, deg-partial) rows
    # for sources plus (node, 0) rows for destinations, sum-merged
    def deg_partial(batch: pa.Table) -> pa.Table:
        a, b = _np(batch["a"]), _np(batch["b"])
        ua, cnt = np.unique(a, return_counts=True)
        ub = np.unique(b)
        return pa.table({
            "node": pa.array(np.concatenate([ua, ub])),
            "deg": pa.array(np.concatenate(
                [cnt.astype(np.int64), np.zeros(len(ub), np.int64)]))})

    def deg_merge(new: pa.Table, _: pa.Table) -> pa.Table:
        node, deg = _np(new["node"]), _np(new["deg"])
        order = np.argsort(node)
        node, deg = node[order], deg[order]
        first = np.concatenate(([True], node[1:] != node[:-1])) \
            if len(node) else np.empty(0, bool)
        seg = np.cumsum(first) - 1
        return pa.table({"node": pa.array(node[first]),
                         "deg": pa.array(np.bincount(
                             seg, weights=deg).astype(np.int64))})

    parts = E.map_batches(deg_partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    empty = ray.data.from_arrow(pa.table({"node": pa.array([], _I64),
                                          "deg": pa.array([], _I64)}))
    deg_schema = pa.schema([("node", _I64), ("deg", _I64)])
    nodes = hash_cogroup(parts, empty, nbuckets=nbuckets,
                         left_on="node", right_on="node",
                         reduce_fn=deg_merge, left_schema=deg_schema,
                         right_schema=deg_schema).materialize()
    n_total = nodes.count()
    if not n_total:
        return pa.table({"node": pa.array([], _I64),
                         "rank": pa.array([], pa.float64())})

    def init_rank(batch: pa.Table) -> pa.Table:
        r = np.full(batch.num_rows, 1.0 / n_total)
        return pa.table({"node": batch["node"], "rank": pa.array(r),
                         "deg": batch["deg"]})

    ranks = nodes.map_batches(init_rank, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

    edge_maps = presplit(E, nbuckets=nbuckets, on="a")

    def contribs(e: pa.Table, r: pa.Table) -> pa.Table:
        a, b = _np(e["a"]), _np(e["b"])
        node = _np(r["node"])
        rank = r["rank"].to_numpy(zero_copy_only=False)
        deg = _np(r["deg"])
        order = np.argsort(node)
        node, rank, deg = node[order], rank[order], deg[order]
        if not len(node) or not len(a):
            return _CONTRIB_SCHEMA.empty_table()
        pos = np.clip(np.searchsorted(node, a), 0, len(node) - 1)
        hit = node[pos] == a
        share = rank[pos[hit]] / np.maximum(deg[pos[hit]], 1)
        # pre-aggregate per destination before the exchange
        ub, inv = np.unique(b[hit], return_inverse=True)
        sums = np.bincount(inv, weights=share)
        return pa.table({"node": pa.array(ub), "c": pa.array(sums)})

    def dangling_mass(rds) -> float:
        def part(bt: pa.Table) -> pa.Table:
            deg = _np(bt["deg"])
            rank = bt["rank"].to_numpy(zero_copy_only=False)
            return pa.table({"m": pa.array(
                [float(rank[deg == 0].sum())], pa.float64())})

        t = collect_table(rds.map_batches(part, batch_format="pyarrow",
                                          zero_copy_batch=True,
                                          batch_size=None))
        return float(t["m"].to_numpy(zero_copy_only=False).sum())

    for _ in range(iters):
        dang = dangling_mass(ranks)
        base = (1.0 - damping) / n_total + damping * dang / n_total

        def apply(cand: pa.Table, r: pa.Table) -> pa.Table:
            node = _np(r["node"])
            rank = np.full(len(node), base)
            cn, cc = _np(cand["node"]), \
                cand["c"].to_numpy(zero_copy_only=False)
            if len(cn) and len(node):
                # cand may hold one row per upstream map per node
                ucn, inv = np.unique(cn, return_inverse=True)
                csum = np.bincount(inv, weights=cc)
                order = np.argsort(node)
                pos = np.clip(np.searchsorted(node[order], ucn),
                              0, len(node) - 1)
                hit = node[order[pos]] == ucn
                rank[order[pos[hit]]] += damping * csum[hit]
            return pa.table({"node": pa.array(node),
                             "rank": pa.array(rank), "deg": r["deg"]})

        cand = cogroup_presplit(edge_maps, ranks, nbuckets=nbuckets,
                                right_on="node", reduce_fn=contribs,
                                left_schema=_EDGE_SCHEMA,
                                right_schema=_RANK_SCHEMA)
        ranks = hash_cogroup(cand, ranks, nbuckets=nbuckets,
                             left_on="node", right_on="node",
                             reduce_fn=apply,
                             left_schema=_CONTRIB_SCHEMA,
                             right_schema=_RANK_SCHEMA).materialize()

    out = collect_table(ranks)
    node = _np(out["node"])
    order = np.argsort(node)
    return pa.table({
        "node": pa.array(node[order]),
        "rank": out["rank"].take(pa.array(order, pa.int64()))})


def _compact_pair_keys(au, av, bu, bv):
    """Map two int64 pair sets onto collision-free int64 keys by
    compacting node ids over their union (codes < 2^31 each, so
    ``cu * n + cv`` stays exact in int64)."""
    allu = np.concatenate([au, bu])
    allv = np.concatenate([av, bv])
    uniq, codes = np.unique(np.concatenate([allu, allv]),
                            return_inverse=True)
    n = len(uniq)
    cu, cv = codes[:len(allu)], codes[len(allu):]
    keys = cu * np.int64(n) + cv
    return keys[:len(au)], keys[len(au):]


def triangle_count(edges, *, src: str = "src", dst: str = "dst",
                   nbuckets: int = 32):
    """Exact triangle count of the undirected simple graph given by an
    edge Dataset (self-loops and duplicate/reverse edges ignored).

    Degree-oriented node-iterator algorithm — the MapReduce-classic
    shape (Suri & Vassilvitskii's partitioned variant is the published
    reference): orient each edge from its lower (degree, id)-ranked
    endpoint to the higher, so every out-degree is O(sqrt(m)); each
    triangle is then counted exactly once, at its lowest-ranked vertex.

    Stages (every one a bounded hash exchange, nothing centralizes):
      1. canonicalize + dedupe edges        (exchange on (a, b))
      2. degrees                            (exchange on node)
      3. attach deg to both endpoints       (two cogroups)
      4. orient; wedges per source u        (exchange on u; the
         per-bucket kernel emits ordered out-neighbor pairs, k^2-class
         work bounded by orientation)
      5. wedge x oriented-edge membership   (cogroup on the pair)
    The driver sees one (n_tri, n_edges) row per bucket.

    Returns a 1-row pyarrow Table (n_triangles, n_edges).
    """
    from ..collect import collect_table
    from .exchange import hash_cogroup, hash_exchange

    def canon(batch: pa.Table) -> pa.Table:
        u = _np(batch[src])
        v = _np(batch[dst])
        keep = u != v
        u, v = u[keep], v[keep]
        a, b = np.minimum(u, v), np.maximum(u, v)
        key = np.unique(np.stack([a, b], axis=1), axis=0)
        return pa.table({"a": key[:, 0], "b": key[:, 1]})

    pairs = edges.map_batches(canon, batch_format="pyarrow",
                              zero_copy_batch=True)

    def dedup_bucket(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return _EDGE_SCHEMA.empty_table()
        key = np.unique(np.stack([_np(tbl["a"]), _np(tbl["b"])],
                                 axis=1), axis=0)
        return pa.table({"a": key[:, 0], "b": key[:, 1]})

    e0 = hash_exchange(pairs, nbuckets=nbuckets, on=["a", "b"],
                       reduce_fn=dedup_bucket, schema=_EDGE_SCHEMA)
    e0 = e0.materialize()  # reused by three downstream exchanges

    _DEG_SCHEMA = pa.schema([("node", _I64), ("deg", _I64)])

    def endpoints(batch: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            batch["a"].combine_chunks(), batch["b"].combine_chunks()])})

    def count_deg(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return _DEG_SCHEMA.empty_table()
        node, cnt = np.unique(_np(tbl["node"]), return_counts=True)
        return pa.table({"node": node, "deg": cnt.astype(np.int64)})

    degs = hash_exchange(
        e0.map_batches(endpoints, batch_format="pyarrow",
                       zero_copy_batch=True),
        nbuckets=nbuckets, on="node", reduce_fn=count_deg,
        schema=_DEG_SCHEMA).materialize()  # consumed by two cogroups

    _EA_SCHEMA = pa.schema([("a", _I64), ("b", _I64), ("da", _I64)])
    _EAB_SCHEMA = pa.schema([("a", _I64), ("b", _I64), ("da", _I64),
                             ("db", _I64)])

    def _attach(col, out_name, out_schema):
        def fn(left: pa.Table, right: pa.Table) -> pa.Table:
            if left.num_rows == 0:
                return out_schema.empty_table()
            node = _np(right["node"])
            dv = _np(right["deg"])
            order = np.argsort(node)
            node, dv = node[order], dv[order]
            x = _np(left[col])
            pos = np.searchsorted(node, x)
            return left.append_column(out_name,
                                      pa.array(dv[pos], _I64))
        return fn

    ea = hash_cogroup(e0, degs, nbuckets=nbuckets, left_on="a",
                      right_on="node", reduce_fn=_attach("a", "da", _EA_SCHEMA),
                      left_schema=_EDGE_SCHEMA, right_schema=_DEG_SCHEMA)
    eab = hash_cogroup(ea, degs, nbuckets=nbuckets, left_on="b",
                       right_on="node",
                       reduce_fn=_attach("b", "db", _EAB_SCHEMA),
                       left_schema=_EA_SCHEMA, right_schema=_DEG_SCHEMA)

    # orient: u -> v with rank(u) = (deg, id) < rank(v); carry dv for
    # canonical wedge ordering downstream
    _OR_SCHEMA = pa.schema([("u", _I64), ("v", _I64), ("dv", _I64)])

    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _OR_SCHEMA.empty_table()
        a, b = _np(batch["a"]), _np(batch["b"])
        da, db = _np(batch["da"]), _np(batch["db"])
        a_first = (da < db) | ((da == db) & (a < b))
        u = np.where(a_first, a, b)
        v = np.where(a_first, b, a)
        dv = np.where(a_first, db, da)
        return pa.table({"u": u, "v": v, "dv": dv})

    oe = eab.map_batches(orient, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()

    _W_SCHEMA = pa.schema([("x", _I64), ("y", _I64)])

    def wedges(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return _W_SCHEMA.empty_table()
        u, v, dv = _np(tbl["u"]), _np(tbl["v"]), _np(tbl["dv"])
        order = np.lexsort((v, dv, u))
        u, v = u[order], v[order]
        # segment = one source u; within it v is rank-sorted, so pair
        # (i < j) is already in canonical (lower-rank, higher-rank)
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        k = np.diff(np.concatenate((starts, [len(u)])))
        k2 = k * k
        seg = np.repeat(np.arange(len(k)), k2)
        off = np.arange(int(k2.sum())) - np.repeat(
            np.concatenate(([0], np.cumsum(k2[:-1]))), k2)
        i = off // k[seg]
        j = off % k[seg]
        keep = i < j
        base = starts[seg[keep]]
        return pa.table({"x": v[base + i[keep]], "y": v[base + j[keep]]})

    wd = hash_exchange(oe, nbuckets=nbuckets, on="u",
                       reduce_fn=wedges, schema=_W_SCHEMA)

    _CNT_SCHEMA = pa.schema([("n_tri", _I64), ("n_edges", _I64)])

    def close(wtbl: pa.Table, etbl: pa.Table) -> pa.Table:
        ne = etbl.num_rows
        if wtbl.num_rows == 0 or ne == 0:
            return pa.table({"n_tri": pa.array([0], _I64),
                             "n_edges": pa.array([ne], _I64)})
        wk, ek = _compact_pair_keys(_np(wtbl["x"]), _np(wtbl["y"]),
                                    _np(etbl["u"]), _np(etbl["v"]))
        ek = np.sort(ek)
        pos = np.searchsorted(ek, wk)
        pos[pos == len(ek)] = 0
        ntri = int((ek[pos] == wk).sum()) if len(ek) else 0
        return pa.table({"n_tri": pa.array([ntri], _I64),
                         "n_edges": pa.array([ne], _I64)})

    cnt = hash_cogroup(wd, oe, nbuckets=nbuckets,
                       left_on=["x", "y"], right_on=["u", "v"],
                       reduce_fn=close, left_schema=_W_SCHEMA,
                       right_schema=_OR_SCHEMA)
    t = collect_table(cnt)
    return pa.table({
        "n_triangles": pa.array(
            [int(t["n_tri"].to_numpy(zero_copy_only=False).sum())], _I64),
        "n_edges": pa.array(
            [int(t["n_edges"].to_numpy(zero_copy_only=False).sum())], _I64),
    })


_WEDGE_SCHEMA = pa.schema([("a", _I64), ("b", _I64), ("w", _I64)])


def weighted_sssp(edges, sources, *, src: str = "src", dst: str = "dst",
                  weight: str = "w", directed: bool = False,
                  nbuckets: int = 32, max_rounds: int = 64) -> pa.Table:
    """Single/multi-source shortest paths with non-negative integer
    edge weights — distributed Bellman-Ford with frontier relaxation
    (the weighted generalization of :func:`bfs_hops`).

    Returns ``(node, dist)`` for every node reachable within
    ``max_rounds`` relaxation rounds (a round settles all paths of one
    more EDGE, so max_rounds bounds path length in hops, not weight).
    Each round only last round's IMPROVED rows probe the pre-split,
    shipped-once edge buckets; candidates pre-minimize per block
    before the skinny (node, dist) exchange.  Integer weights keep
    every distance exact int64 (hash-matches a recursive-CTE SQL
    twin).  Negative weights raise.
    """
    import ray

    from ..collect import collect_table
    from .exchange import cogroup_presplit, hash_cogroup, presplit

    def sym(batch: pa.Table) -> pa.Table:
        u = batch[src].combine_chunks().cast(_I64)
        v = batch[dst].combine_chunks().cast(_I64)
        w = batch[weight].combine_chunks().cast(_I64)
        wn = w.to_numpy(zero_copy_only=False)
        if len(wn) and wn.min() < 0:
            raise ValueError("weighted_sssp: negative edge weight")
        if directed:
            return pa.table({"a": u, "b": v, "w": w})
        return pa.table({"a": pa.concat_arrays([u, v]),
                         "b": pa.concat_arrays([v, u]),
                         "w": pa.concat_arrays([w, w])})

    sedges = edges.map_batches(sym, batch_format="pyarrow",
                               zero_copy_batch=True)
    edge_maps = presplit(sedges, nbuckets=nbuckets, on="a")

    srcs = np.unique(np.asarray(sources, dtype=np.int64))
    init = pa.table({"node": pa.array(srcs),
                     "label": pa.array(np.zeros(len(srcs), np.int64))})
    dist = ray.data.from_arrow(init).materialize()
    frontier = dist

    def merge_min(new: pa.Table, cur: pa.Table) -> pa.Table:
        node = np.concatenate([_np(new["node"]), _np(cur["node"])])
        lab = np.concatenate([_np(new["label"]), _np(cur["label"])])
        return _first_per_node(node, lab)

    def improved_only(new: pa.Table, old: pa.Table) -> pa.Table:
        """rows of new strictly better than (or absent from) old."""
        nn, nl = _np(new["node"]), _np(new["label"])
        on, ol = _np(old["node"]), _np(old["label"])
        order = np.argsort(on)
        on, ol = on[order], ol[order]
        if len(on):
            pos = np.clip(np.searchsorted(on, nn), 0, len(on) - 1)
            hit = on[pos] == nn
            keep = ~hit | (nl < np.where(hit, ol[pos], 0))
        else:
            keep = np.ones(len(nn), bool)
        # several improved candidates can target one node (one per
        # edge bucket) — keep the min, or relax() would read whichever
        # sorts first
        return _first_per_node(nn[keep], nl[keep])

    for _ in range(max_rounds):
        def relax(e: pa.Table, f: pa.Table) -> pa.Table:
            a, b, w = _np(e["a"]), _np(e["b"]), _np(e["w"])
            node = _np(f["node"])
            lab = _np(f["label"])
            order = np.argsort(node)
            node, lab = node[order], lab[order]
            if not len(node):
                return pa.table({"node": pa.array([], _I64),
                                 "label": pa.array([], _I64)})
            pos = np.clip(np.searchsorted(node, a), 0, len(node) - 1)
            hit = node[pos] == a
            cand_n = b[hit]
            cand_d = lab[pos[hit]] + w[hit]
            return _first_per_node(cand_n, cand_d)  # per-block min

        cand = cogroup_presplit(edge_maps, frontier, nbuckets=nbuckets,
                                right_on="node", reduce_fn=relax,
                                left_schema=_WEDGE_SCHEMA,
                                right_schema=_LAB_SCHEMA)
        # improved candidates (vs current dist) become the frontier;
        # then fold them into dist
        frontier = hash_cogroup(cand, dist, nbuckets=nbuckets,
                                left_on="node", right_on="node",
                                reduce_fn=improved_only,
                                left_schema=_LAB_SCHEMA,
                                right_schema=_LAB_SCHEMA).materialize()
        if frontier.count() == 0:
            break
        dist = hash_cogroup(frontier, dist, nbuckets=nbuckets,
                            left_on="node", right_on="node",
                            reduce_fn=merge_min,
                            left_schema=_LAB_SCHEMA,
                            right_schema=_LAB_SCHEMA).materialize()

    out = collect_table(dist)
    return out.rename_columns(["node", "dist"])


def kcore(edges, k: int, *, src: str = "src", dst: str = "dst",
          nbuckets: int = 32, max_rounds: int = 10_000) -> pa.Table:
    """k-core decomposition by distributed peeling: repeatedly remove
    nodes of degree < ``k`` until none remain; returns ``(node, deg)``
    for the survivors, ``deg`` being each node's degree WITHIN the
    core subgraph.

    Edges are symmetrized, self-loop-free and deduplicated inside the
    initial degree exchange (a multi-edge counts once — every copy of
    (a, b) lands in a's bucket, so the dedup is exact).  After that,
    each peeling wave is frontier-shaped like :func:`bfs_hops`: only
    the nodes removed LAST round probe the pre-split, shipped-once
    edge buckets, decrement candidates pre-aggregate per bucket, and
    the degree table updates through one skinny cogroup — removed
    nodes leave the table, so a stale decrement aimed at an
    already-removed neighbor joins nothing and is ignored by
    construction.  Rounds = number of peel waves (data-dependent, not
    O(log n) — degrees aren't foldable across doubled pointers)."""
    import ray

    from ..collect import collect_table
    from .exchange import cogroup_presplit, hash_cogroup, hash_exchange, presplit

    if k < 1:
        raise ValueError("k must be >= 1")

    def sym(batch: pa.Table) -> pa.Table:
        u = _np(batch[src].combine_chunks().cast(_I64))
        v = _np(batch[dst].combine_chunks().cast(_I64))
        keep = u != v
        u, v = u[keep], v[keep]
        if len(u) and (min(u.min(), v.min()) < 0
                       or max(u.max(), v.max()) >= (1 << 31)):
            raise ValueError("kcore packs node pairs into int64: ids "
                             "must be in [0, 2^31)")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        # canonical (lo, hi) per block pre-dedups before symmetrizing
        code = np.unique(lo * (np.int64(1) << 32) + hi)
        lo = code >> 32
        hi = code & ((np.int64(1) << 32) - 1)
        return pa.table({"a": pa.array(np.concatenate([lo, hi])),
                         "b": pa.array(np.concatenate([hi, lo]))})

    sedges = edges.map_batches(sym, batch_format="pyarrow",
                               zero_copy_batch=True)
    edge_maps = presplit(sedges, nbuckets=nbuckets, on="a")

    def degree0(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return _LAB_SCHEMA.empty_table()
        a = _np(t["a"])
        b = _np(t["b"])
        code = np.unique(a * (np.int64(1) << 32)
                         + (b & ((np.int64(1) << 32) - 1)))
        ua, cnt = np.unique(code >> 32, return_counts=True)
        return pa.table({"node": pa.array(ua),
                         "label": pa.array(cnt.astype(np.int64))})

    deg = hash_exchange(sedges, nbuckets=nbuckets, on="a",
                        reduce_fn=degree0,
                        schema=_LAB_SCHEMA).materialize()

    def split_alive(batch: pa.Table) -> pa.Table:
        keep = _np(batch["label"]) >= k
        return batch.filter(pa.array(keep))

    def split_dead(batch: pa.Table) -> pa.Table:
        keep = _np(batch["label"]) < k
        return batch.filter(pa.array(keep))

    frontier = deg.map_batches(split_dead, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()
    deg = deg.map_batches(split_alive, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()

    for _ in range(max_rounds):
        if frontier.count() == 0:
            break

        def decrements(e: pa.Table, f: pa.Table) -> pa.Table:
            a, b = _np(e["a"]), _np(e["b"])
            node = np.sort(_np(f["node"]))
            if not len(node) or not len(a):
                return _LAB_SCHEMA.empty_table()
            # dedup this bucket's (a, b) again: presplit concatenated
            # blocks, so a pair may appear once per source block
            code = np.unique(a * (np.int64(1) << 32) + b)
            a = code >> 32
            b = code & ((np.int64(1) << 32) - 1)
            pos = np.clip(np.searchsorted(node, a), 0, len(node) - 1)
            hit = node[pos] == a
            ub, cnt = np.unique(b[hit], return_counts=True)
            return pa.table({"node": pa.array(ub),
                             "label": pa.array(cnt.astype(np.int64))})

        cand = cogroup_presplit(edge_maps, frontier, nbuckets=nbuckets,
                                right_on="node", reduce_fn=decrements,
                                left_schema=_EDGE_SCHEMA,
                                right_schema=_LAB_SCHEMA)

        def apply_dec(c: pa.Table, d: pa.Table) -> pa.Table:
            if d.num_columns == 0 or d.num_rows == 0:
                return _LAB_SCHEMA.empty_table()
            node = _np(d["node"])
            dv = _np(d["label"])
            if c.num_rows:
                # a node collects decrements from EVERY edge bucket
                # holding one of its removed neighbors — sum the per-
                # bucket rows before the lookup (a lone searchsorted
                # would silently keep only one of them)
                cn_raw = _np(c["node"])
                cv_raw = _np(c["label"])
                cn, inv = np.unique(cn_raw, return_inverse=True)
                cv = np.zeros(len(cn), np.int64)
                np.add.at(cv, inv, cv_raw)
                pos = np.clip(np.searchsorted(cn, node), 0,
                              len(cn) - 1)
                hit = cn[pos] == node
                dv = dv - np.where(hit, cv[pos], 0)
            return pa.table({"node": pa.array(node),
                             "label": pa.array(dv)})

        deg = hash_cogroup(cand, deg, nbuckets=nbuckets,
                           left_on="node", right_on="node",
                           reduce_fn=apply_dec,
                           left_schema=_LAB_SCHEMA,
                           right_schema=_LAB_SCHEMA).materialize()
        frontier = deg.map_batches(split_dead, batch_format="pyarrow",
                                   zero_copy_batch=True).materialize()
        deg = deg.map_batches(split_alive, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

    out = collect_table(deg, schema=_LAB_SCHEMA)
    return out.rename_columns(["node", "deg"])


def random_walks(edges, starts, nsteps: int, *, src: str = "src",
                 dst: str = "dst", directed: bool = True,
                 nbuckets: int = 32,
                 score_consts: tuple[int, int, int, int] =
                 (2654435761, 97, 40503, 2147483647)):
    """Fixed-length DETERMINISTIC walks from every start node — the
    neighbor-sampling primitive of GNN / node2vec-style training
    pipelines, made reproducible (and therefore SQL-checkable and
    partition-invariant) by replacing the RNG with a pinned integer
    score: at node u on step t the walk moves to the out-neighbor v
    minimizing ``(u*A + (t+1)*B + v*C) mod M`` — FLOORED mod (numpy
    semantics; a SQL twin over signed ids needs the
    ``((x % M) + M) % M`` wrap) — with ties to smallest v.
    That is exactly how production samplers get restartable walks:
    hash(state) pseudo-randomness, not shared RNG state.

    Shape: edges pre-split ONCE by hash(src) (:func:`presplit` — the
    iterative-algorithm contract shared with bfs/kcore), then one
    cogroup per step ships only the live frontier (start, cur) rows;
    each bucket fans its frontier rows to their neighbor lists
    (searchsorted spans over the bucket-sorted edges) and takes the
    per-walk argmin vectorized (one lexsort).  A walk reaching a node
    with no out-edges stops; all arithmetic is exact int64 (u, v <
    2^31 guarded so u*A cannot overflow).

    Returns a pyarrow Table ``(start, step, node)`` with step 0 = the
    start itself, sorted by (start, step).
    """
    import ray

    from ..collect import collect_table
    from .exchange import cogroup_presplit, presplit

    A, B, C, M = (np.int64(x) for x in score_consts)

    def sym(batch: pa.Table) -> pa.Table:
        u = batch[src].combine_chunks().cast(_I64)
        v = batch[dst].combine_chunks().cast(_I64)
        if directed:
            return pa.table({"a": u, "b": v})
        return pa.table({"a": pa.concat_arrays([u, v]),
                         "b": pa.concat_arrays([v, u])})

    edge_maps = presplit(
        edges.map_batches(sym, batch_format="pyarrow",
                          zero_copy_batch=True),
        nbuckets=nbuckets, on="a")

    starts = np.unique(np.asarray(starts, dtype=np.int64))
    frontier = ray.data.from_arrow(pa.table({
        "start": pa.array(starts),
        "node": pa.array(starts.copy())})).materialize()
    _F = pa.schema([("start", _I64), ("node", _I64)])

    traces = [pa.table({"start": pa.array(starts),
                        "step": pa.array(np.zeros(len(starts), np.int64)),
                        "node": pa.array(starts.copy())})]
    for t in range(nsteps):
        tt = np.int64(t + 1)

        def advance(e: pa.Table, f: pa.Table, tt=tt) -> pa.Table:
            empty = pa.table({"start": pa.array([], _I64),
                              "node": pa.array([], _I64)})
            if f.num_rows == 0 or e.num_rows == 0:
                return empty
            a, b = _np(e["a"]), _np(e["b"])
            eo = np.lexsort((b, a))
            a, b = a[eo], b[eo]
            cur = _np(f["node"])
            st = _np(f["start"])
            if (np.abs(cur) >= (1 << 31)).any() or \
                    (np.abs(b) >= (1 << 31)).any():
                raise ValueError("random_walks: node ids must fit "
                                 "31 bits for exact int64 scoring")
            lo = np.searchsorted(a, cur, side="left")
            hi = np.searchsorted(a, cur, side="right")
            deg = hi - lo
            alive = deg > 0
            if not alive.any():
                return empty
            from ..codec import varint as vi

            dega = deg[alive]
            idx = np.repeat(lo[alive], dega) + vi.ramp(dega)
            v = b[idx]
            rid = np.repeat(np.flatnonzero(alive), dega)
            score = (cur[rid] * A + tt * B + v * C) % M
            order = np.lexsort((v, score, rid))
            rid_s = rid[order]
            first = np.ones(len(rid_s), bool)
            first[1:] = rid_s[1:] != rid_s[:-1]
            pick = order[first]
            return pa.table({"start": pa.array(st[rid[pick]]),
                             "node": pa.array(v[pick])})

        frontier = cogroup_presplit(
            edge_maps, frontier, nbuckets=nbuckets, right_on="node",
            reduce_fn=advance, left_schema=_EDGE_SCHEMA,
            right_schema=_F).materialize()
        step_tbl = collect_table(frontier)
        if step_tbl.num_rows == 0:
            break
        traces.append(pa.table({
            "start": step_tbl["start"],
            "step": pa.array(np.full(step_tbl.num_rows, tt)),
            "node": step_tbl["node"]}))

    out = pa.concat_tables(traces)
    s = _np(out["start"])
    p = _np(out["step"])
    o = np.lexsort((p, s))
    sel = pa.array(o)
    return pa.table({"start": out["start"].take(sel),
                     "step": out["step"].take(sel),
                     "node": out["node"].take(sel)})


def minimum_spanning_forest(edges, *, src: str = "src",
                            dst: str = "dst", weight: str = "w",
                            nbuckets: int = 32,
                            max_rounds: int = 48) -> pa.Table:
    """Distributed minimum spanning forest — Borůvka rounds: every
    component picks its minimum outgoing edge under the total order
    (w, min(u,v), max(u,v)), chosen edges merge components, repeat;
    O(log n) rounds.  DISTINCT weights make the forest unique — break
    weight ties upstream (e.g. w' = w·K + edge_id) or accept any
    valid forest.

    Scale shape: the edge set streams every round through a pure map
    against the BROADCAST component labels (one ray.put per round,
    O(nodes) — the same driver-sized-labels contract as
    connected_components' small regime); blocks pre-minimize per
    component so only one candidate row per (component, block)
    returns, and the per-round union-find runs over <= #components
    chosen edges.  Returns the forest's (src, dst, w) rows."""
    import ray

    from ..collect import collect_table

    tbl = collect_table(edges.map_batches(
        lambda b: pa.table({
            "u": b[src].combine_chunks().cast(pa.int64()),
            "v": b[dst].combine_chunks().cast(pa.int64()),
            "w": b[weight].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)) \
        if edges.count() <= 2_000_000 else None
    if tbl is None:
        raise ValueError("minimum_spanning_forest: edge set exceeds "
                         "the local-regime bound; pre-aggregate first")
    u = tbl["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    v = tbl["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    w = tbl["w"].to_numpy(zero_copy_only=False).astype(np.int64)
    nodes = np.unique(np.concatenate((u, v)))
    comp = np.arange(len(nodes), dtype=np.int64)
    ui = np.searchsorted(nodes, u)
    vi = np.searchsorted(nodes, v)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    chosen = np.zeros(len(u), bool)

    def find_root(c):
        while True:
            p = comp[c]
            pp = comp[p]
            if (p == pp).all():
                return p
            comp[c] = pp

    for _ in range(max_rounds):
        cu = find_root(ui)
        cv = find_root(vi)
        cross = cu != cv
        if not cross.any():
            break
        idx = np.flatnonzero(cross)
        # min edge per component under (w, lo, hi): one lexsort over
        # the doubled candidate rows (per-block pre-minimize at scale)
        cc = np.concatenate((cu[idx], cv[idx]))
        ee = np.concatenate((idx, idx))
        # ee joins the total order so exact-duplicate parallel edges
        # resolve to the SAME pick for both endpoint components (two
        # different picks of equal-key parallels would form a 2-cycle)
        order = np.lexsort((ee, hi[ee], lo[ee], w[ee], cc))
        cc_s, ee_s = cc[order], ee[order]
        first = np.concatenate(([True], cc_s[1:] != cc_s[:-1]))
        pick = np.unique(ee_s[first])
        chosen[pick] = True
        # contract: union each picked edge's components (min root wins)
        for e in pick:
            ra, rb = int(find_root(np.array([ui[e]]))[0]), \
                int(find_root(np.array([vi[e]]))[0])
            if ra != rb:
                comp[max(ra, rb)] = min(ra, rb)
    return pa.table({src: pa.array(u[chosen]),
                     dst: pa.array(v[chosen]),
                     weight: pa.array(w[chosen])})


def temporal_reachability(edges, sources, *, src: str = "src",
                          dst: str = "dst", time: str = "t",
                          directed: bool = True, nbuckets: int = 32,
                          max_rounds: int = 64) -> pa.Table:
    """Time-respecting reachability — FOREMOST arrival times over a
    temporal graph: a path is valid only if edge timestamps are
    non-decreasing along it, so ``arrival[v] = min t of an edge
    (u, v, t) with t >= arrival[u]`` (sources arrive at 0).  The static
    shortest path is a LOWER bound; temporal reachability can differ
    wildly (an early edge that departs before you arrive is useless —
    the property plain BFS/SSSP cannot express).

    Same frontier shape as :func:`weighted_sssp`: pre-split edges
    shipped once, each round only improved arrivals probe their edge
    buckets, candidates pre-minimize per block, arrivals merge by
    min.  Exact int64 times; hash-matches a recursive-CTE GROUP BY
    MIN twin."""
    import ray

    from ..collect import collect_table
    from .exchange import cogroup_presplit, hash_cogroup, presplit

    def prep(batch: pa.Table) -> pa.Table:
        u = batch[src].combine_chunks().cast(_I64)
        v = batch[dst].combine_chunks().cast(_I64)
        t = batch[time].combine_chunks().cast(_I64)
        tn = t.to_numpy(zero_copy_only=False)
        if len(tn) and tn.min() < 0:
            raise ValueError("temporal_reachability: negative time")
        if directed:
            return pa.table({"a": u, "b": v, "w": t})
        return pa.table({"a": pa.concat_arrays([u, v]),
                         "b": pa.concat_arrays([v, u]),
                         "w": pa.concat_arrays([t, t])})

    sedges = edges.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
    edge_maps = presplit(sedges, nbuckets=nbuckets, on="a")
    srcs = np.unique(np.asarray(sources, dtype=np.int64))
    init = pa.table({"node": pa.array(srcs),
                     "label": pa.array(np.zeros(len(srcs), np.int64))})
    arrival = ray.data.from_arrow(init).materialize()
    frontier = arrival

    def merge_min(new: pa.Table, cur: pa.Table) -> pa.Table:
        node = np.concatenate([_np(new["node"]), _np(cur["node"])])
        lab = np.concatenate([_np(new["label"]), _np(cur["label"])])
        return _first_per_node(node, lab)

    def improved_only(new: pa.Table, old: pa.Table) -> pa.Table:
        nn, nl = _np(new["node"]), _np(new["label"])
        on, ol = _np(old["node"]), _np(old["label"])
        order = np.argsort(on)
        on, ol = on[order], ol[order]
        if len(on):
            pos = np.clip(np.searchsorted(on, nn), 0, len(on) - 1)
            hit = on[pos] == nn
            keep = ~hit | (nl < np.where(hit, ol[pos], 0))
        else:
            keep = np.ones(len(nn), bool)
        return _first_per_node(nn[keep], nl[keep])

    for _ in range(max_rounds):
        def relax(e: pa.Table, f: pa.Table) -> pa.Table:
            a, b, t = _np(e["a"]), _np(e["b"]), _np(e["w"])
            node = _np(f["node"])
            lab = _np(f["label"])
            order = np.argsort(node)
            node, lab = node[order], lab[order]
            if not len(node):
                return pa.table({"node": pa.array([], _I64),
                                 "label": pa.array([], _I64)})
            pos = np.clip(np.searchsorted(node, a), 0, len(node) - 1)
            hit = node[pos] == a
            # time-respecting: only edges departing at or after the
            # tail's arrival carry
            ok = hit & (t >= np.where(hit, lab[pos], 0))
            return _first_per_node(b[ok], t[ok])

        cand = cogroup_presplit(edge_maps, frontier, nbuckets=nbuckets,
                                right_on="node", reduce_fn=relax,
                                left_schema=_WEDGE_SCHEMA,
                                right_schema=_LAB_SCHEMA)
        frontier = hash_cogroup(cand, arrival, nbuckets=nbuckets,
                                left_on="node", right_on="node",
                                reduce_fn=improved_only,
                                left_schema=_LAB_SCHEMA,
                                right_schema=_LAB_SCHEMA).materialize()
        if frontier.count() == 0:
            break
        arrival = hash_cogroup(frontier, arrival, nbuckets=nbuckets,
                               left_on="node", right_on="node",
                               reduce_fn=merge_min,
                               left_schema=_LAB_SCHEMA,
                               right_schema=_LAB_SCHEMA).materialize()

    out = collect_table(arrival)
    return out.rename_columns(["node", "arrival"])


def _local_scc(u: np.ndarray, v: np.ndarray) -> pa.Table:
    """In-memory SCC for the small-graph regime: the FW-BW
    min-propagation peel, fully vectorized.  Each outer round
    computes F(x) = min active node that can REACH x (forward
    min-label fixpoint with pointer doubling — valid directed: if
    L(x) reaches x and L(L(x)) reaches L(x), it reaches x) and B(x) =
    min active node x can reach (same fixpoint over reversed edges);
    x resolves iff F(x) == B(x) == r (r reaches x and x reaches r, so
    x is in SCC(r)).  The minimum active node's whole SCC provably
    resolves every round (nothing smaller can color it), so the peel
    terminates."""
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    eu, ev = inv[:len(u)], inv[len(u):]
    n = len(nodes)
    idx = np.arange(n, dtype=np.int64)
    scc = np.full(n, -1, np.int64)
    active = np.ones(n, bool)

    def minprop(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
        lab = idx.copy()
        while True:
            l2 = lab.copy()
            np.minimum.at(l2, sb, lab[sa])
            l2 = np.minimum(l2, l2[l2])
            l2 = np.minimum(l2, l2[l2])
            if np.array_equal(l2, lab):
                return lab
            lab = l2

    while active.any():
        keep = active[eu] & active[ev]
        au, av = eu[keep], ev[keep]
        f = minprop(au, av)
        b = minprop(av, au)
        done = active & (f == b)
        scc[done] = f[done]
        active &= ~done
    return pa.table({"node": pa.array(nodes),
                     "scc": pa.array(nodes[scc])})


def strongly_connected_components(edges, *, src: str = "src",
                                  dst: str = "dst", nbuckets: int = 32,
                                  max_rounds: int = 64,
                                  local_threshold: int = 2_000_000):
    """SCCs of a DIRECTED edge Dataset: ``(node, scc)`` where ``scc``
    is the minimum node id in the component (mutual reachability).
    The cycle-structure question behind dependency graphs, retry
    loops, and ownership chains that plain (undirected) components
    cannot answer — A reaching B does not put them in one SCC unless
    B also reaches A.

    Same two regimes as :func:`connected_components`: small graphs
    collect once into the vectorized local peel; big graphs run the
    FW-BW min-propagation peel distributed — per outer round two
    directed min-label fixpoints (each the CC loop shape: pre-split
    edges shipped ONCE and reused across all rounds and both
    directions' probes never re-exchange |E|; labels merge by min
    with pointer doubling; driver reads only (count, sum) checksums),
    then F meets B in one key exchange: F==B rows retire with their
    scc, the rest re-arm.  Inactive nodes simply lose their label
    rows, so the static edge buckets need no re-filtering — probes
    against retired endpoints miss and contribute nothing."""
    import ray

    from ..collect import collect_table
    from .exchange import cogroup_presplit, hash_cogroup, presplit

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": batch[src].combine_chunks().cast(_I64),
            "b": batch[dst].combine_chunks().cast(_I64)})

    dedges = edges.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()

    if dedges.count() <= local_threshold:
        t = collect_table(dedges)
        return _local_scc(_np(t["a"]), _np(t["b"])) if t.num_rows else \
            pa.table({"node": pa.array([], _I64),
                      "scc": pa.array([], _I64)})

    def rev(batch: pa.Table) -> pa.Table:
        return pa.table({"a": batch["b"], "b": batch["a"]})

    fwd_maps = presplit(dedges, nbuckets=nbuckets, on="a")
    bwd_maps = presplit(dedges.map_batches(rev, batch_format="pyarrow",
                                           zero_copy_batch=True),
                        nbuckets=nbuckets, on="a")

    def node_init(batch: pa.Table) -> pa.Table:
        a, b = _np(batch["a"]), _np(batch["b"])
        nn = np.unique(np.concatenate([a, b]))
        return pa.table({"node": pa.array(nn), "label": pa.array(nn)})

    def merge_min(new: pa.Table, cur: pa.Table) -> pa.Table:
        node = np.concatenate([_np(new["node"]), _np(cur["node"])])
        lab = np.concatenate([_np(new["label"]), _np(cur["label"])])
        return _first_per_node(node, lab)

    def propagate(e: pa.Table, l: pa.Table) -> pa.Table:
        a, b = _np(e["a"]), _np(e["b"])
        node, lab = _np(l["node"]), _np(l["label"])
        order = np.argsort(node)
        node, lab = node[order], lab[order]
        if not len(node):
            return pa.table({"node": pa.array([], _I64),
                             "label": pa.array([], _I64)})
        pos = np.clip(np.searchsorted(node, a), 0, len(node) - 1)
        hit = node[pos] == a
        # only propagate to targets that are STILL ACTIVE: b must
        # also hold a label row — enforced by merge (candidates for
        # retired nodes are dropped there)
        return pa.table({"node": pa.array(b[hit]),
                         "label": pa.array(lab[pos[hit]])})

    def merge_min_active(new: pa.Table, cur: pa.Table) -> pa.Table:
        """merge_min but rows only survive for nodes present in
        ``cur`` (the active set) — retired nodes accept no labels."""
        if cur.num_rows == 0:
            return pa.table({"node": pa.array([], _I64),
                             "label": pa.array([], _I64)})
        t = merge_min(new, cur)
        node = _np(t["node"])
        curn = np.sort(_np(cur["node"]))
        pos = np.clip(np.searchsorted(curn, node), 0, len(curn) - 1)
        return t.filter(pa.array(curn[pos] == node))

    def double(l_by_label: pa.Table, l_by_node: pa.Table) -> pa.Table:
        node1, lab1 = _np(l_by_label["node"]), _np(l_by_label["label"])
        node2, lab2 = _np(l_by_node["node"]), _np(l_by_node["label"])
        order = np.argsort(node2)
        node2, lab2 = node2[order], lab2[order]
        if len(node2):
            pos = np.clip(np.searchsorted(node2, lab1), 0,
                          len(node2) - 1)
            hit = node2[pos] == lab1
            lab1 = np.where(hit, np.minimum(lab1, lab2[pos]), lab1)
        return pa.table({"node": pa.array(node1),
                         "label": pa.array(lab1.astype(np.int64))})

    def checksum(ds) -> tuple[int, int]:
        def part(b: pa.Table) -> pa.Table:
            return pa.table({
                "c": pa.array([b.num_rows], _I64),
                "s": pa.array([int(_np(b["label"]).sum())
                               if b.num_rows else 0], _I64)})

        t = collect_table(ds.map_batches(part, batch_format="pyarrow",
                                         zero_copy_batch=True,
                                         batch_size=None))
        return (int(_np(t["c"]).sum()), int(_np(t["s"]).sum()))

    def fixpoint(edge_maps, active):
        labels = active
        prev = checksum(labels)
        for _ in range(max_rounds):
            cand = cogroup_presplit(edge_maps, labels,
                                    nbuckets=nbuckets, right_on="node",
                                    reduce_fn=propagate,
                                    left_schema=_EDGE_SCHEMA,
                                    right_schema=_LAB_SCHEMA)
            labels = hash_cogroup(cand, labels, nbuckets=nbuckets,
                                  left_on="node", right_on="node",
                                  reduce_fn=merge_min_active,
                                  left_schema=_LAB_SCHEMA,
                                  right_schema=_LAB_SCHEMA).materialize()
            labels = hash_cogroup(labels, labels, nbuckets=nbuckets,
                                  left_on="label", right_on="node",
                                  reduce_fn=double,
                                  left_schema=_LAB_SCHEMA,
                                  right_schema=_LAB_SCHEMA).materialize()
            cur = checksum(labels)
            if cur == prev:
                return labels
            prev = cur
        return labels

    # initial active label table: one row per node
    active = hash_cogroup(
        dedges.map_batches(node_init, batch_format="pyarrow",
                           zero_copy_batch=True),
        ray.data.from_arrow(pa.table({"node": pa.array([], _I64),
                                      "label": pa.array([], _I64)})),
        nbuckets=nbuckets, left_on="node", right_on="node",
        reduce_fn=merge_min, left_schema=_LAB_SCHEMA,
        right_schema=_LAB_SCHEMA).materialize()

    done_parts: list = []
    for _ in range(max_rounds):
        cnt = active.count()
        if cnt == 0:
            break
        f = fixpoint(fwd_maps, active)
        bk = fixpoint(bwd_maps, active)

        def meet(ft: pa.Table, bt: pa.Table) -> pa.Table:
            nf, lf = _np(ft["node"]), _np(ft["label"])
            order = np.argsort(nf)
            nf, lf = nf[order], lf[order]
            nb, lb = _np(bt["node"]), _np(bt["label"])
            order = np.argsort(nb)
            nb, lb = nb[order], lb[order]
            # identical node sets by construction
            same = lf == lb
            return pa.table({"node": pa.array(nf),
                             "label": pa.array(np.where(same, lf, -1)),
                             "done": pa.array(same.astype(np.int64))})

        met = hash_cogroup(f, bk, nbuckets=nbuckets, left_on="node",
                           right_on="node", reduce_fn=meet,
                           left_schema=_LAB_SCHEMA,
                           right_schema=_LAB_SCHEMA).materialize()
        done = met.filter(lambda r: r["done"] == 1) \
            .map_batches(lambda b: pa.table({"node": b["node"],
                                             "scc": b["label"]}),
                         batch_format="pyarrow", zero_copy_batch=True)
        done_parts.append(done.materialize())

        def rearm(b: pa.Table) -> pa.Table:
            nn = _np(b["node"])
            return pa.table({"node": pa.array(nn), "label": pa.array(nn)})

        active = met.filter(lambda r: r["done"] == 0) \
            .map_batches(rearm, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()

    out = done_parts[0]
    for d in done_parts[1:]:
        out = out.union(d)
    t = collect_table(out)
    node = _np(t["node"])
    return t.take(pa.array(np.argsort(node)))


def all_pairs_hops(edges, sources, *, src: str = "src",
                   dst: str = "dst", directed: bool = True,
                   max_rounds: int = 64, batch_sources: int = 64,
                   max_nodes: int = 8192):
    """Exact farness / closeness ingredients from every source: BFS
    hop distances to all reachable nodes, collapsed per source to
    ``(node, farness, n_reached)`` where farness = sum of hop
    distances (exact int) and n_reached counts reachable nodes
    (including the source at distance 0).

    Regime: the edge list is collected ONCE, compacted to a dense
    node index + boolean adjacency, and broadcast via ``ray.put`` —
    the metadata-scale-graph regime (supplier networks, admin
    hierarchies) where per-source BFS becomes embarrassingly
    parallel: sources stream in batches and each task runs a
    LEVEL-SYNCHRONOUS matrix BFS for its whole batch at once (one
    uint8 matmul per round for all its sources — no per-node Python).
    Graphs too large to broadcast belong to :func:`bfs_hops`'s
    pre-split edge-bucket rounds instead; ``max_nodes`` guards the
    O(N^2) adjacency against silent misuse."""
    import ray

    from ..collect import collect_table

    et = collect_table(edges.select_columns([src, dst]))
    a = et[src].to_numpy(zero_copy_only=False).astype(np.int64)
    b = et[dst].to_numpy(zero_copy_only=False).astype(np.int64)
    if not directed:
        a, b = np.concatenate([a, b]), np.concatenate([b, a])
    srcs = np.asarray(sources, np.int64)
    nodes = np.unique(np.concatenate([a, b, srcs]))
    n = len(nodes)
    if n > max_nodes:
        raise ValueError(
            f"all_pairs_hops broadcast regime is for graphs that fit "
            f"a worker ({n} nodes > max_nodes={max_nodes}); use "
            f"bfs_hops' exchange rounds for larger graphs")
    adj = np.zeros((n, n), np.uint8)
    adj[np.searchsorted(nodes, a), np.searchsorted(nodes, b)] = 1
    ref = ray.put((nodes, adj))

    def bfs_batch(batch) -> pa.Table:
        # stateless task: the broadcast tuple is a zero-copy plasma
        # get per call (cached node-locally)
        g_nodes, g_adj = ray.get(ref)
        s = batch["node"].astype(np.int64)
        si = np.searchsorted(g_nodes, s)
        m = len(s)
        nn = len(g_nodes)
        dist = np.full((m, nn), -1, np.int64)
        frontier = np.zeros((m, nn), bool)
        frontier[np.arange(m), si] = True
        dist[np.arange(m), si] = 0
        r = 0
        # bool matmul is logical OR (exact) — a uint8 accumulator
        # would wrap mod 256 when a node's in-frontier in-degree is a
        # multiple of 256, silently mis-assigning its BFS distance
        adj_b = g_adj.astype(bool)
        while frontier.any() and r < max_rounds:
            r += 1
            hit = frontier @ adj_b
            new = hit & (dist < 0)
            dist[new] = r
            frontier = new
        if frontier.any() and ((frontier @ adj_b) & (dist < 0)).any():
            raise ValueError(
                f"all_pairs_hops: undiscovered nodes remain after "
                f"max_rounds={max_rounds} — the graph's diameter "
                f"exceeds the round budget; raise max_rounds (and "
                f"align any SQL twin's depth bound) or use bfs_hops")
        reached = dist >= 0
        big = np.int64(1) << 62
        return pa.table({
            "node": pa.array(s),
            "farness": pa.array(
                np.where(reached, dist, 0).sum(axis=1)),
            "n_reached": pa.array(
                reached.sum(axis=1).astype(np.int64)),
            # eccentricity + min reachable node id (== the component
            # label for symmetric graphs, by the CC min-label rule)
            "ecc": pa.array(dist.max(axis=1)),
            "comp": pa.array(np.where(
                reached, g_nodes[None, :], big).min(axis=1))})

    ds = ray.data.from_arrow(pa.table({"node": pa.array(srcs)}))
    return ds.map_batches(bfs_batch, batch_format="numpy",
                          batch_size=batch_sources)


def _canonical_edges(edges, src, dst):
    """Collect, symmetrize and canonicalize (a < b) the bounded edge
    list; self-loops drop (they join no triangle)."""
    from ..collect import collect_table

    et = collect_table(edges.select_columns([src, dst]))
    a = et[src].to_numpy(zero_copy_only=False).astype(np.int64)
    b = et[dst].to_numpy(zero_copy_only=False).astype(np.int64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keep = lo != hi
    e = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return e


def edge_triangle_support(edges, *, src: str = "src",
                          dst: str = "dst",
                          max_nodes: int = 8192) -> pa.Table:
    """Per-edge triangle support — the edge-cohesion measure k-core's
    node degrees cannot see: for every undirected edge (a, b) the
    number of common neighbors |N(a) ∩ N(b)|.  Same broadcast regime
    as :func:`all_pairs_hops` (metadata-scale graphs; the dense
    boolean adjacency makes support one row-gather AND + popcount
    per edge batch, fully vectorized); the exchange-based triangle
    counter remains the path for broadcast-too-big graphs.  Returns
    (src, dst, support) with src < dst."""
    e = _canonical_edges(edges, src, dst)
    nodes = np.unique(e)
    if len(nodes) > max_nodes:
        raise ValueError("edge_triangle_support broadcast regime "
                         f"({len(nodes)} nodes > {max_nodes})")
    n = len(nodes)
    ia = np.searchsorted(nodes, e[:, 0])
    ib = np.searchsorted(nodes, e[:, 1])
    adj = np.zeros((n, n), bool)
    adj[ia, ib] = True
    adj[ib, ia] = True
    sup = (adj[ia] & adj[ib]).sum(axis=1).astype(np.int64)
    return pa.table({"src": pa.array(e[:, 0]),
                     "dst": pa.array(e[:, 1]),
                     "support": pa.array(sup)})


def ktruss_summary(edges, ks, *, src: str = "src", dst: str = "dst",
                   max_nodes: int = 8192) -> pa.Table:
    """k-truss sizes: for each k, the maximal subgraph where EVERY
    edge closes >= k-2 triangles *within the subgraph* — the
    cohesive-core family one step above k-core (a star passes k-core
    but has zero trusses).  Standard support peeling: drop every
    edge below threshold, recompute support on the survivor graph,
    repeat to fixpoint — the iteration runs on the bounded canonical
    edge list (the CC/MST label contract) with the same vectorized
    dense-adjacency support kernel per round.  Returns (k, n_edges,
    n_nodes) per requested k."""
    e0 = _canonical_edges(edges, src, dst)
    nodes_all = np.unique(e0)
    if len(nodes_all) > max_nodes:
        raise ValueError("ktruss broadcast regime exceeded")
    rows_k, rows_e, rows_n = [], [], []
    for k in ks:
        e = e0.copy()
        while len(e):
            nodes = np.unique(e)
            n = len(nodes)
            ia = np.searchsorted(nodes, e[:, 0])
            ib = np.searchsorted(nodes, e[:, 1])
            adj = np.zeros((n, n), bool)
            adj[ia, ib] = True
            adj[ib, ia] = True
            sup = (adj[ia] & adj[ib]).sum(axis=1)
            keep = sup >= k - 2
            if keep.all():
                break
            e = e[keep]
        rows_k.append(k)
        rows_e.append(len(e))
        rows_n.append(len(np.unique(e)) if len(e) else 0)
    return pa.table({"k": pa.array(rows_k, pa.int64()),
                     "n_edges": pa.array(rows_e, pa.int64()),
                     "n_nodes": pa.array(rows_n, pa.int64())})


def betweenness_centrality(edges, *, src: str = "src",
                           dst: str = "dst", directed: bool = True,
                           batch_sources: int = 32,
                           max_nodes: int = 4096,
                           max_rounds: int = 64):
    """Exact betweenness centrality (Brandes 2001), vectorized over
    source batches — the broker/bottleneck score a supply-chain or
    routing analysis ranks nodes by.  For every source the forward
    pass runs the level-synchronous matrix BFS counting shortest
    paths (``sigma`` accumulates via one float matmul per level —
    path counts, not bits, so bool OR does not suffice), the backward
    pass folds dependencies level by level (``delta_v = sigma_v *
    sum_w adj[v,w] (1+delta_w)/sigma_w`` over next-level successors),
    and each batch emits ONE per-node partial vector; the caller sums
    partials.  Standard convention: endpoints excluded; undirected
    graphs halve the total (each pair counted from both endpoints).

    Regime: same broadcast dense-adjacency regime as
    :func:`all_pairs_hops` (metadata-scale graphs; ``max_nodes``
    guards the O(N^2) adjacency, sources stream in batches so work is
    embarrassingly parallel).  Returns a Dataset of ``(node, bc)``
    partial rows — sum per node for the final score."""
    import ray

    from ..collect import collect_table

    et = collect_table(edges.select_columns([src, dst]))
    a = et[src].to_numpy(zero_copy_only=False).astype(np.int64)
    b = et[dst].to_numpy(zero_copy_only=False).astype(np.int64)
    if not directed:
        a, b = np.concatenate([a, b]), np.concatenate([b, a])
    nodes = np.unique(np.concatenate([a, b]))
    n = len(nodes)
    if n > max_nodes:
        raise ValueError(
            f"betweenness broadcast regime is for graphs that fit a "
            f"worker ({n} nodes > max_nodes={max_nodes})")
    adj = np.zeros((n, n), bool)
    adj[np.searchsorted(nodes, a), np.searchsorted(nodes, b)] = True
    ref = ray.put((nodes, adj))
    half = not directed

    def brandes_batch(batch) -> pa.Table:
        g_nodes, g_adj = ray.get(ref)
        s = batch["node"].astype(np.int64)
        si = np.searchsorted(g_nodes, s)
        m = len(s)
        nn = len(g_nodes)
        adj_f = g_adj.astype(np.float64)
        dist = np.full((m, nn), -1, np.int64)
        sigma = np.zeros((m, nn), np.float64)
        frontier = np.zeros((m, nn), bool)
        frontier[np.arange(m), si] = True
        dist[np.arange(m), si] = 0
        sigma[np.arange(m), si] = 1.0
        levels = [frontier.copy()]
        r = 0
        while frontier.any() and r < max_rounds:
            r += 1
            paths = (sigma * frontier) @ adj_f
            new = (paths > 0) & (dist < 0)
            dist[new] = r
            sigma[new] = paths[new]
            frontier = new
            levels.append(frontier.copy())
        if frontier.any() and \
                ((frontier @ g_adj) & (dist < 0)).any():
            raise ValueError(
                f"betweenness: undiscovered nodes remain after "
                f"max_rounds={max_rounds}")
        delta = np.zeros((m, nn), np.float64)
        safe_sigma = np.where(sigma > 0, sigma, 1.0)
        for lvl in range(len(levels) - 2, -1, -1):
            nxt = levels[lvl + 1]
            t = np.where(nxt, (1.0 + delta) / safe_sigma, 0.0)
            contrib = sigma * (t @ adj_f.T)
            delta[levels[lvl]] += contrib[levels[lvl]]
        # exclude the source itself
        delta[np.arange(m), si] = 0.0
        bc = delta.sum(axis=0)
        if half:
            bc *= 0.5
        return pa.table({"node": pa.array(g_nodes),
                         "bc": pa.array(bc)})

    ds = ray.data.from_arrow(pa.table({"node": pa.array(nodes)}))
    return ds.map_batches(brandes_batch, batch_format="numpy",
                          batch_size=batch_sources)


def max_flow(edges, pairs, *, src: str = "src", dst: str = "dst",
             cap: str = "cap", max_nodes: int = 4096):
    """Exact max-flow / min-cut (Edmonds-Karp: BFS shortest augmenting
    paths, O(V·E²) bound) for a BATCH of (source, sink) pairs — the
    capacity/bottleneck question (how much can this supply network
    move from s to t, and which edges form the choke point?).

    Regime: augmenting-path search is inherently sequential per
    problem, so the parallel axis is the PAIR — the capacity matrix
    broadcasts once (``ray.put``) and each (s, t) problem runs in its
    own task with a vectorized BFS per augmentation.  ``max_nodes``
    guards the dense O(N²) residual matrix, same contract as
    :func:`all_pairs_hops`.

    Emits per pair: ``(s, t, max_flow, min_cut_capacity,
    n_cut_edges)`` — min-cut is recomputed INDEPENDENTLY from the
    final residual graph (s-side reachable set, crossing capacity),
    so ``max_flow == min_cut_capacity`` certifies the result by LP
    duality rather than trusting the loop."""
    import ray

    from ..collect import collect_table

    et = collect_table(edges.select_columns([src, dst, cap]))
    a = et[src].to_numpy(zero_copy_only=False).astype(np.int64)
    b = et[dst].to_numpy(zero_copy_only=False).astype(np.int64)
    c = et[cap].to_numpy(zero_copy_only=False).astype(np.int64)
    if (c < 0).any():
        raise ValueError("negative capacity")
    nodes = np.unique(np.concatenate([a, b]))
    n = len(nodes)
    if n > max_nodes:
        raise ValueError(
            f"max_flow dense regime is for graphs that fit a worker "
            f"({n} nodes > max_nodes={max_nodes})")
    C = np.zeros((n, n), np.int64)
    # parallel edges sum (standard multigraph collapse)
    np.add.at(C, (np.searchsorted(nodes, a), np.searchsorted(nodes, b)), c)
    ref = ray.put((nodes, C))

    def solve(batch) -> pa.Table:
        g_nodes, g_cap = ray.get(ref)
        nn = len(g_nodes)
        out_s, out_t, out_f, out_cut, out_ne = [], [], [], [], []
        for s, t in zip(batch["s"], batch["t"]):
            si = int(np.searchsorted(g_nodes, s))
            ti = int(np.searchsorted(g_nodes, t))
            R = g_cap.copy()
            flow = 0
            while True:
                # BFS on the residual graph, parents for path recovery
                parent = np.full(nn, -1, np.int64)
                parent[si] = si
                frontier = np.zeros(nn, bool)
                frontier[si] = True
                while frontier.any() and parent[ti] < 0:
                    reach = (R[frontier] > 0).any(axis=0) \
                        & (parent < 0)
                    if not reach.any():
                        break
                    # assign a parent: first frontier node with
                    # residual capacity into each newly reached node
                    fidx = np.flatnonzero(frontier)
                    for v in np.flatnonzero(reach):
                        pv = fidx[np.argmax(R[fidx, v] > 0)]
                        parent[v] = pv
                    frontier = reach
                if parent[ti] < 0:
                    break
                # bottleneck along the path, then augment
                path = []
                v = ti
                while v != si:
                    path.append((int(parent[v]), int(v)))
                    v = int(parent[v])
                bott = min(R[u, w] for u, w in path)
                for u, w in path:
                    R[u, w] -= bott
                    R[w, u] += bott
                flow += int(bott)
            # independent certificate: s-reachable set in the residual
            # graph; cut = original capacity crossing the frontier
            reach = np.zeros(nn, bool)
            reach[si] = True
            while True:
                nxt = ((R[reach] > 0).any(axis=0)) & ~reach
                if not nxt.any():
                    break
                reach |= nxt
            cross = np.outer(reach, ~reach)
            cut = int(g_cap[cross].sum())
            ncut = int(((g_cap > 0) & cross).sum())
            out_s.append(int(s)); out_t.append(int(t))
            out_f.append(flow); out_cut.append(cut); out_ne.append(ncut)
        return pa.table({
            "s": pa.array(out_s, pa.int64()),
            "t": pa.array(out_t, pa.int64()),
            "max_flow": pa.array(out_f, pa.int64()),
            "min_cut_capacity": pa.array(out_cut, pa.int64()),
            "n_cut_edges": pa.array(out_ne, pa.int64())})

    pt = pa.table({"s": pa.array([p[0] for p in pairs], pa.int64()),
                   "t": pa.array([p[1] for p in pairs], pa.int64())})
    ds = ray.data.from_arrow(pt)
    return ds.map_batches(solve, batch_format="numpy", batch_size=1)
