"""Exact string-similarity self-join: all pairs of distinct strings
within Levenshtein distance ``k`` — the entity-resolution /
fuzzy-dedup primitive.

Candidate generation is the PassJoin pigeonhole (Li, Deng, Feng —
published segment-filter family): split every string into ``k+1``
segments; ``k`` edits can corrupt at most ``k`` of them, so any
match must contain one segment VERBATIM, shifted by at most ``k``
positions.  Each string therefore emits its ``k+1`` segments (as the
"indexed" side) and all compatible substrings for nearby lengths (as
the "probe" side); candidates meet on substring-hash equality in one
cogroup and are verified with a bit-parallel Myers/Hyyrö automaton
(vectorized ACROSS pairs, one uint64 lane per pair).

Everything per-block is vectorized: substring hashes come from a
rolling polynomial prefix-hash matrix (O(1) per probe after one
O(len) sweep), so no Python string slicing ever runs per row; the
loops that remain are over the O(k^2)-sized combo grid and the
<=64-char automaton rounds, never over rows.

Constraints (documented): byte-oriented (exact for ASCII; for
non-ASCII UTF-8 the unit is bytes, not codepoints) and strings up to
64 bytes (one Myers word).  Longer keys raise.

Exactness: the pigeonhole emission has NO false negatives; hash
collisions only ADD candidates, and the Myers verify removes them,
so the output is exactly the brute-force join.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from .dedup import _mix

_B = np.uint64(0x100000001B3)          # rolling-hash base (FNV prime)
_MAXLEN = 64


def _byte_matrix(col) -> tuple[np.ndarray, np.ndarray]:
    """(bytes (n, maxlen) uint8 zero-padded, lengths (n,)) for a
    string column; vectorized via the flat data buffer."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_string(arr.type):
        arr = arr.cast(pa.large_string())
    # offsets buffer is index 1 (validity 0, data 2); slice-aware
    offs = np.frombuffer(arr.buffers()[1], np.int64)[
        arr.offset:arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2] or b"", np.uint8)
    lens = np.diff(offs)
    n = len(lens)
    if n == 0:
        return np.zeros((0, 1), np.uint8), lens
    maxlen = int(lens.max()) if len(lens) else 0
    if maxlen > _MAXLEN:
        raise ValueError(
            f"edit_distance_join supports keys up to {_MAXLEN} bytes "
            f"(got {maxlen}); hash or truncate longer keys upstream")
    maxlen = max(maxlen, 1)
    idx = offs[:-1, None] + np.arange(maxlen)[None, :]
    valid = np.arange(maxlen)[None, :] < lens[:, None]
    mat = np.zeros((n, maxlen), np.uint8)
    np.copyto(mat, data[np.minimum(idx, len(data) - 1)], where=valid)
    return mat, lens


def _prefix_hashes(mat: np.ndarray, lens: np.ndarray):
    """(H (n, maxlen+1) uint64 rolling prefix hashes, pow (maxlen+1,))
    with H[r, j] covering bytes [0, j)."""
    n, maxlen = mat.shape
    H = np.zeros((n, maxlen + 1), np.uint64)
    for j in range(maxlen):
        H[:, j + 1] = H[:, j] * _B + mat[:, j].astype(np.uint64) \
            + np.uint64(1)
    pows = np.empty(maxlen + 1, np.uint64)
    pows[0] = 1
    with np.errstate(over="ignore"):  # uint64 wraparound intended
        for j in range(maxlen):
            pows[j + 1] = pows[j] * _B
    return H, pows


def _sub_hash(H, pows, rows, start, length):
    """Rolling hash of mat[rows, start:start+length), vectorized."""
    return H[rows, start + length] - H[rows, start] * pows[length]


def _seg_geometry(lt: np.ndarray, i: int, k: int):
    """PassJoin segment i of a length-``lt`` string split into k+1
    parts, shorter parts first: (start, length) vectors."""
    m = k + 1
    base = lt // m
    rem = lt % m
    length = base + (i >= (m - rem)).astype(np.int64)
    start = i * base + np.maximum(0, i - (m - rem))
    return start, length


def _emit_keys(batch_col, k: int, probe: bool):
    """(key int64 array, row-index array) — segment keys
    (probe=False) or probe substring keys (probe=True); deduped per
    (row, key)."""
    mat, lens = _byte_matrix(batch_col)
    n = len(lens)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    H, pows = _prefix_hashes(mat, lens)
    rows_all, keys_all = [], []

    def key_of(hs, lt, i):
        x = hs ^ (lt.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) \
            ^ np.uint64((i * 0xBF58476D1CE4E5B9)
                        & 0xFFFFFFFFFFFFFFFF)
        return _mix(x, 0x5E9F).view(np.int64)

    short_tag = np.uint64(0xFEEDFACECAFEBEEF)
    deltas = range(-k, k + 1) if probe else (0,)
    for d in deltas:
        lt = lens - d
        for i in range(k + 1):
            if probe:
                starts_rel = range(-k, k + 1)
            else:
                starts_rel = (0,)
            p, L = _seg_geometry(np.maximum(lt, 0), i, k)
            for w in starts_rel:
                s = p + w
                ok = (lt >= k + 1) & (s >= 0) & (L >= 1) \
                    & (s + L <= lens)
                r = np.flatnonzero(ok)
                if len(r):
                    hs = _sub_hash(H, pows, r, s[r], L[r])
                    rows_all.append(r)
                    keys_all.append(key_of(hs, lt[r], i))
        # short-string path: lengths < k+1 can't be segmented; they
        # meet on a per-length rendezvous key instead
        if probe:
            ok = (lt >= 0) & (lt <= k)
        else:
            ok = (lt <= k) if d == 0 else np.zeros(n, bool)
        r = np.flatnonzero(ok)
        if len(r):
            rows_all.append(r)
            keys_all.append(_mix(
                short_tag + lt[r].astype(np.uint64), 0x5E9F)
                .view(np.int64))
    rows = np.concatenate(rows_all)
    keys = np.concatenate(keys_all)
    pair = np.unique(np.stack([rows, keys], axis=1), axis=0)
    return pair[:, 1], pair[:, 0]


def levenshtein_pairs(a_col, b_col) -> np.ndarray:
    """Vectorized Levenshtein over aligned string pairs (bit-parallel
    Myers/Hyyrö, one uint64 lane per pair; both sides <= 64 bytes)."""
    A, la = _byte_matrix(a_col)
    Bm, lb = _byte_matrix(b_col)
    m = len(la)
    if m == 0:
        return np.empty(0, np.int64)
    one = np.uint64(1)
    # pattern = A; text = B
    Peq = np.zeros((m, 256), np.uint64)
    rr = np.repeat(np.arange(m), la)
    cc = A[np.arange(A.shape[1])[None, :]
           < la[:, None]].astype(np.int64)
    bits = np.zeros(len(rr), np.uint64)
    pos = (np.arange(len(rr))
           - np.repeat(np.concatenate(([0], np.cumsum(la[:-1]))), la))
    bits = one << pos.astype(np.uint64)
    np.bitwise_or.at(Peq, (rr, cc), bits)

    full = np.uint64(0xFFFFFFFFFFFFFFFF)
    Pv = np.where(la >= 64, full,
                  (one << la.astype(np.uint64)) - one)
    Mv = np.zeros(m, np.uint64)
    score = la.astype(np.int64).copy()
    hibit = one << np.maximum(la - 1, 0).astype(np.uint64)
    act_pat = la > 0
    rows = np.arange(m)
    for j in range(int(lb.max()) if len(lb) else 0):
        actj = act_pat & (j < lb)
        Eq = Peq[rows, Bm[:, min(j, Bm.shape[1] - 1)].astype(np.int64)]
        Xv = Eq | Mv
        Xh = (((Eq & Pv) + Pv) ^ Pv) | Eq
        Ph = Mv | ~(Xh | Pv)
        Mh = Pv & Xh
        inc = (Ph & hibit) != 0
        dec = (Mh & hibit) != 0
        score = np.where(actj, score + inc.astype(np.int64)
                         - dec.astype(np.int64), score)
        Ph = (Ph << one) | one
        Mh = Mh << one
        nPv = Mh | ~(Xv | Ph)
        nMv = Ph & Xv
        Pv = np.where(actj, nPv, Pv)
        Mv = np.where(actj, nMv, Mv)
    return np.where(act_pat, score, lb.astype(np.int64))


def edit_distance_self_join(ds, on: str, *, k: int = 2,
                            nbuckets: int = 32):
    """All unordered pairs of DISTINCT values of column ``on`` with
    Levenshtein distance <= k.  Returns a Dataset
    ``(s_a, s_b, dist)`` with ``s_a < s_b`` lexicographically.
    """
    from .exchange import hash_cogroup, hash_exchange

    val_schema = pa.schema([("s", pa.large_string())])
    pair_schema = pa.schema([("s_a", pa.large_string()),
                             ("s_b", pa.large_string()),
                             ("dist", pa.int64())])

    def project(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return val_schema.empty_table()
        return pa.table(
            {"s": batch[on].combine_chunks()
             .cast(pa.large_string()).unique()})

    def distinct_bucket(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return val_schema.empty_table()
        return pa.table({"s": tbl["s"].combine_chunks().unique()})

    d = hash_exchange(
        ds.map_batches(project, batch_format="pyarrow",
                       zero_copy_batch=True),
        nbuckets=nbuckets, on="s", reduce_fn=distinct_bucket,
        schema=val_schema).materialize()

    key_schema = pa.schema([("key", pa.int64()),
                            ("s", pa.large_string())])

    def emit(probe: bool):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return key_schema.empty_table()
            keys, rows = _emit_keys(batch["s"], k, probe)
            return pa.table({
                "key": keys,
                "s": batch["s"].combine_chunks()
                     .cast(pa.large_string())
                     .take(pa.array(rows, pa.int64())),
            })
        return fn

    probes = d.map_batches(emit(True), batch_format="pyarrow",
                           zero_copy_batch=True)
    segs = d.map_batches(emit(False), batch_format="pyarrow",
                         zero_copy_batch=True)

    def verify(ptbl: pa.Table, stbl: pa.Table) -> pa.Table:
        if ptbl.num_rows == 0 or stbl.num_rows == 0:
            return pair_schema.empty_table()
        pk = ptbl["key"].to_numpy(zero_copy_only=False)
        sk = stbl["key"].to_numpy(zero_copy_only=False)
        po = np.argsort(pk, kind="stable")
        so = np.argsort(sk, kind="stable")
        pk, sk = pk[po], sk[so]
        # equal-key run expansion (probe x seg within each key run)
        lo = np.searchsorted(sk, pk, "left")
        hi = np.searchsorted(sk, pk, "right")
        cnt = hi - lo
        tot = int(cnt.sum())
        if tot == 0:
            return pair_schema.empty_table()
        pi = np.repeat(np.arange(len(pk)), cnt)
        si = np.repeat(lo, cnt) + (np.arange(tot) - np.repeat(
            np.concatenate(([0], np.cumsum(cnt[:-1]))), cnt))
        a = ptbl["s"].take(pa.array(po[pi], pa.int64())) \
            .combine_chunks()
        b = stbl["s"].take(pa.array(so[si], pa.int64())) \
            .combine_chunks()
        # canonicalize + dedupe via dictionary RANKS (never string
        # concat — numpy fixed-width strings strip nulls and collide)
        import pyarrow.compute as pc
        both = pa.concat_arrays([a.cast(pa.large_string()),
                                 b.cast(pa.large_string())])
        dic = both.dictionary_encode()
        codes = dic.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nd = len(dic.dictionary)
        rank_of = np.empty(nd, np.int64)
        rank_of[pc.sort_indices(dic.dictionary).to_numpy(
            zero_copy_only=False)] = np.arange(nd)
        ra, rb = rank_of[codes[:tot]], rank_of[codes[tot:]]
        lo_r = np.minimum(ra, rb)
        hi_r = np.maximum(ra, rb)
        keep = lo_r != hi_r  # drop identical strings
        pairkey = lo_r[keep] * np.int64(nd) + hi_r[keep]
        _, first = np.unique(pairkey, return_index=True)
        # map ranks back to the dictionary's values
        inv_rank = np.empty(nd, np.int64)
        inv_rank[rank_of] = np.arange(nd)
        lo_arr = dic.dictionary.take(
            pa.array(inv_rank[lo_r[keep][first]], pa.int64()))
        hi_arr = dic.dictionary.take(
            pa.array(inv_rank[hi_r[keep][first]], pa.int64()))
        if len(lo_arr) == 0:
            return pair_schema.empty_table()
        dist = levenshtein_pairs(lo_arr, hi_arr)
        ok = np.flatnonzero(dist <= k)
        take = pa.array(ok, pa.int64())
        return pa.table({
            "s_a": lo_arr.take(take),
            "s_b": hi_arr.take(take),
            "dist": pa.array(dist[ok], pa.int64()),
        })

    pairs = hash_cogroup(probes, segs, nbuckets=nbuckets,
                         left_on="key", right_on="key",
                         reduce_fn=verify, left_schema=key_schema,
                         right_schema=key_schema)

    def dedupe_pairs(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pair_schema.empty_table()
        key = np.asarray(
            [f"{a}\x00{b}" for a, b in
             zip(tbl["s_a"].to_pylist(), tbl["s_b"].to_pylist())],
            object)
        _, first = np.unique(key, return_index=True)
        return tbl.take(pa.array(np.sort(first), pa.int64()))

    return hash_exchange(pairs, nbuckets=max(nbuckets // 4, 1),
                         on=["s_a", "s_b"], reduce_fn=dedupe_pairs,
                         schema=pair_schema)


def jaccard_set_join(ds, *, id_col: str = "doc_id",
                     text_col: str = "text", threshold: float = 0.8,
                     nbuckets: int = 32, bucket_cap: int = 4096):
    """EXACT token-set similarity self-join: all document pairs with
    ``|A ∩ B| / |A ∪ B| >= threshold`` over their DISTINCT whitespace
    token sets (the SSJoin/PPJoin family, composed from this engine's
    own join operators).

    Shape at scale:

    1. one tokenizing pass -> skinny distinct ``(doc, term, n)`` rows
       (n = set size), materialized once and reused;
    2. a vocabulary-sized df aggregate, broadcast — tokens are ranked
       RAREST-FIRST, the PPJoin trick that keeps prefix buckets small;
    3. prefix filter: a doc of set size n emits only its
       ``n - ceil(t*n) + 1`` rarest tokens (provably lossless: two
       sets with Jaccard >= t must share a token in these prefixes);
       candidate pairs form per prefix token (with the length filter
       ``t * max(na, nb) <= min(na, nb)``), then dedup by pair key;
    4. exact verification by composition: ``hash_join`` pairs with A's
       token rows, ``semi_join`` against B's on (doc, term) — the
       surviving row count per pair IS ``|A ∩ B|`` — and the final
       predicate ``inter * t_den >= t_num * (na + nb - inter)`` is
       integer-exact (threshold as a fraction, floats never decide).

    Oversized prefix buckets (> ``bucket_cap`` docs behind one token)
    are truncated and flagged via the returned table's ``truncated``
    column on affected pairs' generation — with df ordering this only
    fires on degenerate corpora.  Empty token sets never match
    (SQL-twin semantics: no token rows, no pairs).
    Returns a Dataset of ``(doc_a, doc_b, inter, size_a, size_b)``.
    """
    from fractions import Fraction

    import ray

    from ..collect import collect_table
    from .exchange import hash_exchange
    from .join import hash_join, semi_join
    from .text import _tokens_per_doc

    fr = Fraction(threshold).limit_denominator(10**6)
    t_num, t_den = fr.numerator, fr.denominator

    def tok_rows(batch: pa.Table) -> pa.Table:
        flat, doc_of = _tokens_per_doc(batch, text_col)
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nterm = len(enc.dictionary)
        pair = doc_of * nterm + codes
        uniq = np.unique(pair)
        ud, ut = uniq // nterm, uniq % nterm
        n_per_doc = np.bincount(ud, minlength=batch.num_rows)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc": pa.array(ids[ud]),
            "term": enc.dictionary.take(pa.array(ut)),
            "n": pa.array(n_per_doc[ud].astype(np.int64)),
        })

    tokens = ds.map_batches(tok_rows, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    # --- global df, broadcast (vocabulary-sized) --------------------
    def df_partial(batch: pa.Table) -> pa.Table:
        enc = batch["term"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        return pa.table({
            "term": enc.dictionary,
            "df": pa.array(np.bincount(
                codes, minlength=len(enc.dictionary)).astype(np.int64))})

    def df_merge(tbl: pa.Table) -> pa.Table:
        enc = tbl["term"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        return pa.table({
            "term": enc.dictionary,
            "df": pa.array(np.bincount(
                codes, weights=tbl["df"].to_numpy(zero_copy_only=False),
                minlength=len(enc.dictionary)).astype(np.int64))})

    df_tbl = collect_table(hash_exchange(
        tokens.map_batches(df_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        nbuckets=max(4, nbuckets // 4), on="term", reduce_fn=df_merge,
        schema=None))
    vocab = np.asarray(df_tbl["term"].to_pylist(), object)
    vorder = np.argsort(vocab)
    vocab_sorted = vocab[vorder]
    dfs = df_tbl["df"].to_numpy(zero_copy_only=False)[vorder]
    # rank: rarest first, ties by term (total order)
    rank = np.empty(len(vocab_sorted), np.int64)
    rank[np.lexsort((vocab_sorted, dfs))] = np.arange(len(vocab_sorted))
    df_ref = ray.put((vocab_sorted, rank))

    def prefix_rows(batch: pa.Table) -> pa.Table:
        vs, rk = ray.get(df_ref)
        terms = np.asarray(batch["term"].to_pylist(), object)
        pos = np.searchsorted(vs, terms)
        r = rk[pos]
        doc = batch["doc"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((r, doc))
        ds_, rs_ = doc[order], r[order]
        first = np.concatenate(([True], ds_[1:] != ds_[:-1])) \
            if len(ds_) else np.empty(0, bool)
        seg = np.cumsum(first) - 1
        seg_start = np.flatnonzero(first)
        posn = np.arange(len(ds_)) - seg_start[seg] if len(ds_) else \
            np.empty(0, np.int64)
        ns_ = n[order]
        ceil_tn = (t_num * ns_ + t_den - 1) // t_den
        plen = ns_ - ceil_tn + 1
        keep = posn < plen
        sel = order[keep]
        return pa.table({
            "term": batch["term"].take(pa.array(sel)),
            "doc": pa.array(doc[sel]),
            "n": pa.array(n[sel]),
        })

    # batch_size=None: whole blocks — a doc's token rows are contiguous
    # within one tok_rows output block and must not be re-sliced, or
    # the per-doc prefix positions would reset mid-doc
    prefixes = tokens.map_batches(prefix_rows, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=None)

    def gen_pairs(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "na": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "nb": pa.array([], pa.int64()),
                             "truncated": pa.array([], pa.bool_())})
        enc = tbl["term"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc = tbl["doc"].to_numpy(zero_copy_only=False)
        n = tbl["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, codes))
        cs, dsod, nsod = codes[order], doc[order], n[order]
        first = np.concatenate(([True], cs[1:] != cs[:-1])) \
            if len(cs) else np.empty(0, bool)
        starts = np.flatnonzero(first)
        lens = np.diff(np.append(starts, len(cs)))
        A, NA, B, NB, TR = [], [], [], [], []
        for s, ln in zip(starts, lens):
            if ln < 2:
                continue
            trunc = ln > bucket_cap
            ln = min(int(ln), bucket_cap)
            dd = dsod[s:s + ln]
            nn = nsod[s:s + ln]
            ii, jj = np.triu_indices(ln, k=1)
            da, db = dd[ii], dd[jj]
            na_, nb_ = nn[ii], nn[jj]
            lo = np.minimum(na_, nb_)
            hi = np.maximum(na_, nb_)
            ok = t_num * hi <= t_den * lo
            # canonical orientation doc_a < doc_b
            sw = da > db
            da2 = np.where(sw, db, da)[ok]
            db2 = np.where(sw, da, db)[ok]
            na2 = np.where(sw, nb_, na_)[ok]
            nb2 = np.where(sw, na_, nb_)[ok]
            A.append(da2)
            B.append(db2)
            NA.append(na2)
            NB.append(nb2)
            TR.append(np.full(len(da2), trunc))
        if not A:
            return pa.table({"a": pa.array([], pa.int64()),
                             "na": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "nb": pa.array([], pa.int64()),
                             "truncated": pa.array([], pa.bool_())})
        return pa.table({"a": pa.array(np.concatenate(A)),
                         "na": pa.array(np.concatenate(NA)),
                         "b": pa.array(np.concatenate(B)),
                         "nb": pa.array(np.concatenate(NB)),
                         "truncated": pa.array(np.concatenate(TR))})

    cand = hash_exchange(prefixes, nbuckets=nbuckets, on="term",
                         reduce_fn=gen_pairs, schema=None)

    def dedup_pairs(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return tbl
        g = tbl.group_by(["a", "b", "na", "nb"]).aggregate(
            [("truncated", "max")])
        return g.rename_columns(["a", "b", "na", "nb", "truncated"])

    pairs = hash_exchange(cand, nbuckets=nbuckets, on=["a", "b"],
                          reduce_fn=dedup_pairs, schema=None) \
        .materialize()

    # --- exact verification by operator composition -----------------
    tok_a = tokens.map_batches(
        lambda b: pa.table({"a": b["doc"], "term": b["term"]}),
        batch_format="pyarrow", zero_copy_batch=True)
    tok_b = tokens.map_batches(
        lambda b: pa.table({"b": b["doc"], "term": b["term"]}),
        batch_format="pyarrow", zero_copy_batch=True)
    expanded = hash_join(pairs, tok_a, on="a")
    both = semi_join(expanded, tok_b, on=["b", "term"])

    def count_inter(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64()),
                             "inter": pa.array([], pa.int64()),
                             "size_a": pa.array([], pa.int64()),
                             "size_b": pa.array([], pa.int64())})
        g = tbl.group_by(["a", "b", "na", "nb"]).aggregate(
            [([], "count_all")])
        a = g["a"].to_numpy(zero_copy_only=False)
        b_ = g["b"].to_numpy(zero_copy_only=False)
        na = g["na"].to_numpy(zero_copy_only=False)
        nb = g["nb"].to_numpy(zero_copy_only=False)
        inter = g["count_all"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ok = inter * t_den >= t_num * (na + nb - inter)
        return pa.table({"doc_a": pa.array(a[ok]),
                         "doc_b": pa.array(b_[ok]),
                         "inter": pa.array(inter[ok]),
                         "size_a": pa.array(na[ok]),
                         "size_b": pa.array(nb[ok])})

    return hash_exchange(both, nbuckets=nbuckets, on=["a", "b"],
                         reduce_fn=count_inter, schema=None)
