"""Text-analysis batch kernels for training-data pipelines.

New surface beyond the reference (SURVEY.md notes the reference's only
scalar is geometry rounding): language-ID, quality scoring, token
counting, rolling-hash fingerprinting — each a vectorized
``map_batches`` kernel over the ``documents`` table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# token counting
# ---------------------------------------------------------------------------

# BPE-ish pre-tokenizer: word pieces, numbers, or single non-space symbols
# (the GPT-2 pretokenizer family, simplified to ASCII-safe re2 syntax)
_BPE_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count + regex (BPE-ish) token count per row."""
    text = batch[text_col]
    # NB: "" splits to [''] -> count 1, matching SQL len(string_split())
    ws = pc.list_value_length(pc.split_pattern_regex(text, r"\s+"))
    bpe = pc.count_substring_regex(text, _BPE_RE)
    out = batch.select([c for c in batch.column_names if c != text_col])
    out = out.append_column("n_tokens_ws", ws.combine_chunks().cast(pa.int64()))
    out = out.append_column("n_tokens_bpe", bpe.combine_chunks().cast(pa.int64()))
    return out


# ---------------------------------------------------------------------------
# quality scoring
# ---------------------------------------------------------------------------

_STOPWORDS = (
    "the a an and or of to in is are was were be for with on at by from as "
    "that this it not"
).split()
_STOP_RE = r"\b(?:" + "|".join(_STOPWORDS) + r")\b"


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Length / punctuation / stopword heuristics per document.

    Columns: n_chars_q, n_tokens_ws, punct_ratio, stop_ratio,
    mean_token_len, quality (0..1 composite).
    """
    text = batch[text_col]
    n_chars = pc.utf8_length(text).combine_chunks().cast(pa.int64())
    n_tok = pc.list_value_length(pc.split_pattern_regex(text, r"\s+")).combine_chunks().cast(pa.int64())
    n_punct = pc.count_substring_regex(text, r"[^\w\s]").combine_chunks().cast(pa.int64())
    n_stop = pc.count_substring_regex(text, _STOP_RE).combine_chunks().cast(pa.int64())

    nc = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
    nt = np.maximum(n_tok.to_numpy(zero_copy_only=False).astype(np.float64), 1.0)
    npu = n_punct.to_numpy(zero_copy_only=False).astype(np.float64)
    ns = n_stop.to_numpy(zero_copy_only=False).astype(np.float64)

    punct_ratio = npu / np.maximum(nc, 1.0)
    stop_ratio = ns / nt
    mean_tok = nc / nt
    # composite: reasonable length, some stopwords, not punctuation soup
    quality = (
        np.clip(nc / 500.0, 0.0, 1.0) * 0.4
        + np.clip(stop_ratio * 5.0, 0.0, 1.0) * 0.3
        + (1.0 - np.clip(punct_ratio * 10.0, 0.0, 1.0)) * 0.3
    )
    out = batch.select([c for c in batch.column_names if c != text_col])
    out = out.append_column("n_chars_q", n_chars)
    out = out.append_column("n_tokens_ws", n_tok)
    out = out.append_column("punct_ratio", pa.array(punct_ratio))
    out = out.append_column("stop_ratio", pa.array(stop_ratio))
    out = out.append_column("mean_token_len", pa.array(mean_tok))
    out = out.append_column("quality", pa.array(quality))
    return out


# ---------------------------------------------------------------------------
# language identification (stopword-profile heuristic)
# ---------------------------------------------------------------------------

_LANG_MARKERS: dict[str, list[str]] = {
    "en": ["the", "and", "of", "to", "is", "that", "for", "with"],
    "es": ["el", "la", "de", "que", "y", "los", "las", "una"],
    "fr": ["le", "la", "les", "des", "et", "que", "une", "est"],
    "de": ["der", "die", "das", "und", "ist", "nicht", "ein", "mit"],
    "zh": ["的", "是", "了", "在", "我", "有", "和", "不"],
}


class LangIdFn:
    """Language-ID stage: marker regexes compiled ONCE in ``__init__``,
    on the driver, and shipped with the instance (SURVEY.md §2.4
    stateful-stage rule)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        # \b is an ASCII word boundary in RE2 and CJK chars are not
        # word chars, so boundary-anchored zh markers never matched;
        # character-based scripts match markers bare
        self.patterns = {
            lang: ("(?:" + "|".join(m) + ")") if lang == "zh"
            else (r"\b(?:" + "|".join(m) + r")\b")
            for lang, m in _LANG_MARKERS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        n = batch.num_rows
        scores = np.zeros((len(self.patterns), n), np.float64)
        ws = pc.list_value_length(pc.split_pattern_regex(text, r"\s+"))
        nt = np.maximum(ws.combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64), 1.0)
        langs = list(self.patterns)
        for i, lang in enumerate(langs):
            hits = pc.count_substring_regex(text, self.patterns[lang])
            scores[i] = hits.combine_chunks().to_numpy(zero_copy_only=False) / nt
        best = np.argmax(scores, axis=0)
        conf = scores[best, np.arange(n)]
        pred = np.where(conf > 0.0, np.asarray(langs, object)[best], "und")
        out = batch.select([c for c in batch.column_names if c != self.text_col])
        out = out.append_column("lang_pred", pa.array(pred.tolist(), pa.string()))
        out = out.append_column("lang_conf", pa.array(conf))
        return out


# ---------------------------------------------------------------------------
# fingerprinting (rolling polynomial hash)
# ---------------------------------------------------------------------------

_FP_BASE = np.uint64(1099511628211)       # FNV prime as poly base
_FP_OFFSET = np.uint64(14695981039346656037)


def _string_parts(col) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_large_string(col.type):
        col = col.cast(pa.string())
    offs = np.frombuffer(col.buffers()[1], np.int32, len(col) + 1, col.offset * 4).astype(np.int64)
    data = np.frombuffer(col.buffers()[2], np.uint8) if col.buffers()[2] else np.empty(0, np.uint8)
    return data, offs


def fingerprint64(col) -> np.ndarray:
    """Per-row FNV-1a 64-bit hash of the utf8 bytes, vectorized by
    byte-position round (max len iterations of numpy ops, no Python
    per-row loop)."""
    data, offs = _string_parts(col)
    n = len(offs) - 1
    lens = np.diff(offs)
    h = np.full(n, _FP_OFFSET, np.uint64)
    maxlen = int(lens.max()) if n else 0
    live = np.arange(n)
    for j in range(maxlen):
        live = live[lens[live] > j]
        if not len(live):
            break
        b = data[offs[live] + j].astype(np.uint64)
        h[live] = (h[live] ^ b) * _FP_BASE
    # null rows must not collide with '' (both would sit at the FNV
    # offset basis): mark them with a distinct constant
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        nulls = np.asarray(arr.is_null())
        h[nulls] ^= np.uint64(0x9E3779B97F4A7C15)
    return h


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    h = fingerprint64(batch[text_col])
    out = batch.select([c for c in batch.column_names if c != text_col])
    return out.append_column("fingerprint", pa.array(h, pa.uint64()))


# ---------------------------------------------------------------------------
# corpus vocabulary (document frequency / term frequency)
# ---------------------------------------------------------------------------


def term_stats_batch(batch: pa.Table,
                     text_col: str = "text") -> pa.Table:
    """Per-block (term, tf, df) partials: tf = token occurrences,
    df = distinct documents containing the term INSIDE this block.
    Documents never span blocks (one row per doc), so summing block
    partials is the exact corpus df.  Tokens are ``\\s+``-separated,
    case-sensitive, empties dropped — the same split the quality /
    langid stages use, and exactly DuckDB's ``regexp_split_to_array``."""
    toks = pc.split_pattern_regex(batch[text_col], r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.values
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    ndoc = len(offs) - 1
    doc_of_tok = np.repeat(np.arange(ndoc), np.diff(offs))
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    if not keep.all():
        sel = np.flatnonzero(keep)
        flat = flat.take(pa.array(sel))
        doc_of_tok = doc_of_tok[sel]
    enc = flat.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    terms = enc.dictionary
    nterm = len(terms)
    tf = np.bincount(codes, minlength=nterm).astype(np.int64)
    # distinct (doc, term) pairs -> df
    pair = doc_of_tok * nterm + codes
    df = np.bincount(np.unique(pair) % nterm,
                     minlength=nterm).astype(np.int64)
    return pa.table({"term": terms, "tf": pa.array(tf), "df": pa.array(df)})


def top_terms(ds, k: int = 50, *, text_col: str = "text",
              nbuckets: int = 64) -> pa.Table:
    """Corpus top-k vocabulary by document frequency (ties break to the
    lexically smaller term).

    Shape at scale: block partials shrink the stream to (term, tf, df)
    rows; a hash exchange on the term bucket sums each term's
    partials AND emits only that bucket's local top-k, so the driver
    merges a bounded k x nbuckets candidate set — the unbounded
    web-scale vocabulary never centralizes (same partial-top-k shape as
    queries.top_orders)."""
    from .join import _key_hash

    partials = ds.map_batches(
        lambda b: term_stats_batch(b, text_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    mask = np.int64(nbuckets - 1)

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = _key_hash(batch["term"])
        return batch.append_column(
            "bucket", pa.array((h & np.uint64(mask)).astype(np.int64)))

    def bucket_topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64()),
                             "df": pa.array([], pa.int64())})
        enc = group["term"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nterm = len(enc.dictionary)
        tf = np.bincount(codes, weights=group["tf"].to_numpy(
            zero_copy_only=False), minlength=nterm).astype(np.int64)
        df = np.bincount(codes, weights=group["df"].to_numpy(
            zero_copy_only=False), minlength=nterm).astype(np.int64)
        terms_np = np.asarray(enc.dictionary.to_pylist(), object)
        order = np.lexsort((terms_np, -df))[:k]
        return pa.table({"term": pa.array(terms_np[order].tolist(),
                                          pa.string()),
                         "tf": pa.array(tf[order]),
                         "df": pa.array(df[order])})

    # raw-task hash exchange, not Ray's sort-shuffle groupby: the
    # per-reduce top-k stays a superset of the global top-k within its
    # rows even when several buckets co-locate in one reduce
    from .exchange import hash_exchange

    cand = hash_exchange(
        partials.map_batches(add_bucket, batch_format="pyarrow",
                             zero_copy_batch=True),
        nbuckets=min(nbuckets, 64), on="bucket", reduce_fn=bucket_topk)
    from ..collect import collect_table

    tbl = collect_table(cand)
    terms_np = np.asarray(tbl["term"].to_pylist(), object)
    df = tbl["df"].to_numpy(zero_copy_only=False)
    order = np.lexsort((terms_np, -df))[:k]
    return pa.table({"term": pa.array(terms_np[order].tolist(), pa.string()),
                     "tf": pa.array(tbl["tf"].to_numpy(
                         zero_copy_only=False)[order]),
                     "df": pa.array(df[order])})


def doc_term_tf(batch: pa.Table, doc_col: str = "doc_id",
                text_col: str = "text") -> pa.Table:
    """Per-(document, term) frequency rows — exact block-locally, since
    one input row is one whole document.  Tokenization matches
    :func:`term_stats_batch` (``\\s+`` split, case-sensitive, empties
    dropped — DuckDB's ``regexp_split_to_array`` twin)."""
    toks = pc.split_pattern_regex(batch[text_col], r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.values
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    ndoc = len(offs) - 1
    doc_of_tok = np.repeat(np.arange(ndoc), np.diff(offs))
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    if not keep.all():
        sel = np.flatnonzero(keep)
        flat = flat.take(pa.array(sel))
        doc_of_tok = doc_of_tok[sel]
    enc = flat.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nterm = len(enc.dictionary)
    pair = doc_of_tok * nterm + codes
    uniq, cnt = np.unique(pair, return_counts=True)
    return pa.table({
        doc_col: batch[doc_col].take(pa.array(uniq // nterm)),
        "term": enc.dictionary.take(pa.array(uniq % nterm)),
        "tf": pa.array(cnt.astype(np.int64))})


def tfidf_topk(ds, *, doc_col: str = "doc_id", text_col: str = "text",
               k: int = 3, nbuckets: int = 32):
    """Per-document top-k TF-IDF-ranked terms, EXACT integer ranking:
    (tf desc, df asc, term asc) — the tf-idf ordering with the idf
    monotonicity made integral, so results hash-check against SQL with
    no float log in the comparison.  Emits (doc, rank, term, tf, df).

    Shape at scale: documents tokenize block-locally into skinny
    (doc, term, tf) rows (exact — docs never span blocks); df is a
    grouped count of those rows; ONE term-keyed join staples df on;
    ONE doc-keyed exchange ranks per document.  The corpus text moves
    zero times; only (doc, term, tf[, df]) triples do.
    """
    from .agg import grouping_sets_agg
    from .exchange import hash_exchange
    from .join import hash_join

    tf_schema = pa.schema([(doc_col, pa.int64()), ("term", pa.string()),
                           ("tf", pa.int64())])
    tf = ds.map_batches(
        lambda b: doc_term_tf(b, doc_col, text_col).cast(tf_schema),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None).materialize()
    df = grouping_sets_agg(tf, sets=[["term"]], sums={}, count_col="df",
                           schema=tf_schema)
    joined = hash_join(
        tf, df, on="term", left_schema=tf_schema,
        right_schema=pa.schema([("term", pa.string()),
                                ("df", pa.int64())]))

    out_schema = pa.schema([(doc_col, pa.int64()), ("rank", pa.int32()),
                            ("term", pa.string()), ("tf", pa.int64()),
                            ("df", pa.int64())])

    def rank_topk(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return out_schema.empty_table()
        doc = tbl[doc_col].to_numpy(zero_copy_only=False)
        tfv = tbl["tf"].to_numpy(zero_copy_only=False)
        dfv = tbl["df"].to_numpy(zero_copy_only=False)
        terms = np.asarray(tbl["term"].to_pylist(), object)
        order = np.lexsort((terms, dfv, -tfv, doc))
        d = doc[order]
        new_grp = np.concatenate(([True], d[1:] != d[:-1]))
        grp_first = np.flatnonzero(new_grp)
        rank = np.arange(len(d)) - grp_first[np.cumsum(new_grp) - 1]
        keep = rank < k
        sel = order[keep]
        return pa.table({
            doc_col: pa.array(doc[sel]),
            "rank": pa.array((rank[keep] + 1).astype(np.int32)),
            "term": pa.array(terms[sel].tolist(), pa.string()),
            "tf": pa.array(tfv[sel]),
            "df": pa.array(dfv[sel])}).cast(out_schema)

    return hash_exchange(joined, nbuckets=nbuckets, on=doc_col,
                         reduce_fn=rank_topk, schema=out_schema)


def _tokens_per_doc(batch: pa.Table, text_col: str):
    """Shared tokenizer: flat non-empty tokens + owning doc row index
    (the ``\\s+`` split every text stage uses — DuckDB's
    ``regexp_split_to_array`` twin)."""
    toks = pc.split_pattern_regex(batch[text_col], r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.values
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    doc_of_tok = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    if not keep.all():
        sel = np.flatnonzero(keep)
        flat = flat.take(pa.array(sel))
        doc_of_tok = doc_of_tok[sel]
    return flat, doc_of_tok


def bm25_topk(ds, terms: list[str], *, k: int = 10,
              k1: float = 1.2, b: float = 0.75,
              doc_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Distributed BM25 top-k retrieval for a broadcast term set.

    Returns ``(term, rank, doc_id, tf, dl, score)`` — the ``k`` best
    documents per query term under the Robertson/Sparck-Jones BM25
    with Lucene's non-negative idf ``ln((N - df + 0.5)/(df + 0.5) + 1)``.

    Shape at scale: ONE tokenizing pass emits (a) candidate rows
    (doc, term_idx, tf, dl) only for documents containing a query
    term — output-proportional, the corpus text never re-ships —
    plus (b) tiny per-block carrier rows holding (ndocs, total_len)
    and per-term df partials (documents never span blocks, so block
    df sums are exact).  The driver folds the carriers into global
    stats (len(terms)+1 scalars), then a second pass over the SKINNY
    candidate set scores vectorized and keeps a per-block top-k per
    term, so the driver merge is bounded by k x blocks x terms.
    Ties break to the smaller doc_id (deterministic).
    """
    from ..collect import collect_table

    term_arr = pa.array(list(terms), pa.string())
    nterms = len(terms)
    if nterms == 0:
        raise ValueError("bm25_topk: empty term set")

    def emit(batch: pa.Table) -> pa.Table:
        flat, doc_of_tok = _tokens_per_doc(batch, text_col)
        ndocs = batch.num_rows
        ntoks = len(flat)
        dl = np.bincount(doc_of_tok, minlength=ndocs).astype(np.int64)
        # match tokens against the query terms (Arrow hash index)
        tidx = pc.index_in(flat, value_set=term_arr)
        tnp = tidx.to_numpy(zero_copy_only=False)
        hit = ~np.isnan(tnp) if tnp.dtype.kind == "f" else \
            ~tidx.is_null().to_numpy(zero_copy_only=False)
        hit = np.asarray(hit)
        hd = doc_of_tok[hit]
        ht = tnp[hit].astype(np.int64)
        pair = hd * nterms + ht
        uniq, cnt = np.unique(pair, return_counts=True)
        docs = batch[doc_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cand_doc = docs[(uniq // nterms)]
        cand_term = (uniq % nterms).astype(np.int64)
        cand_dl = dl[(uniq // nterms)]
        dfp = np.bincount(cand_term, minlength=nterms).astype(np.int64)
        # carriers: kind 1 = (ndocs, total_len); kind 2 = df per term
        kinds = np.concatenate([
            np.zeros(len(uniq), np.int8), [1],
            np.full(nterms, 2, np.int8)])
        return pa.table({
            "kind": pa.array(kinds, pa.int8()),
            "doc_id": pa.array(np.concatenate(
                [cand_doc, [-1], np.full(nterms, -1)]).astype(np.int64)),
            "term_idx": pa.array(np.concatenate(
                [cand_term, [-1], np.arange(nterms)]).astype(np.int64)),
            "tf": pa.array(np.concatenate(
                [cnt.astype(np.int64), [ndocs], dfp]).astype(np.int64)),
            "dl": pa.array(np.concatenate(
                [cand_dl, [int(ntoks)], np.zeros(nterms)]).astype(np.int64)),
        })

    skinny = ds.map_batches(emit, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    def carriers_only(batch: pa.Table) -> pa.Table:
        kd = batch["kind"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(kd >= 1))

    stats = collect_table(skinny.map_batches(
        carriers_only, batch_format="pyarrow", zero_copy_batch=True))
    kind = stats["kind"].to_numpy(zero_copy_only=False)
    n_total = int(stats["tf"].to_numpy(zero_copy_only=False)[kind == 1].sum())
    len_total = int(stats["dl"].to_numpy(zero_copy_only=False)[kind == 1].sum())
    df = np.zeros(nterms, np.int64)
    t2 = stats.filter(pa.array(kind == 2))
    np.add.at(df, t2["term_idx"].to_numpy(zero_copy_only=False),
              t2["tf"].to_numpy(zero_copy_only=False))
    idf = np.log((n_total - df + 0.5) / (df + 0.5) + 1.0)
    inv_len = float(len_total) if len_total else 1.0

    def score_topk(batch: pa.Table) -> pa.Table:
        kd = batch["kind"].to_numpy(zero_copy_only=False)
        cand = batch.filter(pa.array(kd == 0))
        t = cand["term_idx"].to_numpy(zero_copy_only=False)
        tf = cand["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dln = cand["dl"].to_numpy(zero_copy_only=False) * np.int64(n_total)
        norm = dln.astype(np.float64) / inv_len
        score = idf[t] * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * norm))
        docs = cand["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((docs, -score, t))
        # per-term top-k within this block
        ts = t[order]
        posn = np.arange(len(ts)) - np.searchsorted(
            ts, ts, side="left") if len(ts) else np.empty(0, np.int64)
        sel = order[posn < k]
        return pa.table({
            "term_idx": pa.array(t[sel]),
            "doc_id": pa.array(docs[sel]),
            "tf": pa.array(cand["tf"].to_numpy(zero_copy_only=False)[sel]),
            "dl": pa.array(cand["dl"].to_numpy(zero_copy_only=False)[sel]),
            "score": pa.array(score[sel]),
        })

    parts = collect_table(skinny.map_batches(
        score_topk, batch_format="pyarrow", zero_copy_batch=True))
    t = parts["term_idx"].to_numpy(zero_copy_only=False)
    sc = parts["score"].to_numpy(zero_copy_only=False)
    docs = parts["doc_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((docs, -sc, t))
    ts = t[order]
    posn = (np.arange(len(ts)) - np.searchsorted(ts, ts, side="left")
            if len(ts) else np.empty(0, np.int64))
    keep = order[posn < k]
    rank = (posn[posn < k] + 1).astype(np.int64)
    terms_np = np.asarray(list(terms), object)
    return pa.table({
        "term": pa.array(terms_np[t[keep]].tolist(), pa.string()),
        "rank": pa.array(rank),
        "doc_id": pa.array(docs[keep]),
        "tf": pa.array(parts["tf"].to_numpy(zero_copy_only=False)[keep]),
        "dl": pa.array(parts["dl"].to_numpy(zero_copy_only=False)[keep]),
        "score": pa.array(sc[keep]),
    })


def inverted_index_build(ds, out_dir: str, *, doc_col: str = "doc_id",
                         text_col: str = "text",
                         nbuckets: int = 64) -> str:
    """Write a term-bucket-partitioned INVERTED INDEX (posting lists).

    One tokenizing pass emits (term, doc_id, tf) posting rows (exact
    block-locally — one input row is one whole document), each stamped
    with ``term_bucket = hash(term) % nbuckets``; ``write_parquet``
    lays them out one hive directory per bucket, so a term lookup
    reads ONLY its bucket's files — the text-search twin of the IVF
    vector layout (``ann.ivf_build``): build once, query many times,
    true partition pruning.  ``nbuckets`` is recorded next to the
    data so lookups can't mis-hash."""
    import json
    import os

    from .join import _key_hash

    mask = np.uint64(nbuckets - 1)
    if nbuckets & (nbuckets - 1):
        raise ValueError("nbuckets must be a power of two")

    def postings(batch: pa.Table) -> pa.Table:
        rows = doc_term_tf(batch, doc_col=doc_col, text_col=text_col)
        h = _key_hash(rows["term"])
        return rows.append_column(
            "term_bucket", pa.array((h & mask).astype(np.int64)))

    ds.map_batches(postings, batch_format="pyarrow",
                   zero_copy_batch=True) \
        .write_parquet(out_dir, partition_cols=["term_bucket"])
    with open(os.path.join(out_dir, "_index_meta.json"), "w") as f:
        json.dump({"nbuckets": nbuckets, "doc_col": doc_col}, f)
    return out_dir


def inverted_lookup(index_dir: str, terms: list[str]):
    """Posting rows for a term set, reading ONLY the buckets the query
    terms hash to (partition pruning; everything else never leaves
    storage).  Returns a Ray Dataset of (term, doc_id, tf)."""
    import glob
    import json
    import os

    import ray

    from .join import _key_hash

    with open(os.path.join(index_dir, "_index_meta.json")) as f:
        meta = json.load(f)
    mask = np.uint64(meta["nbuckets"] - 1)
    term_arr = pa.array(list(terms), pa.string())
    buckets = np.unique((_key_hash(term_arr) & mask).astype(np.int64))
    paths = []
    for b in buckets:
        d = os.path.join(index_dir, f"term_bucket={int(b)}")
        if os.path.isdir(d):
            paths.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
    if not paths:
        return ray.data.from_arrow(pa.table({
            "term": pa.array([], pa.string()),
            meta["doc_col"]: pa.array([], pa.int64()),
            "tf": pa.array([], pa.int64())}))

    def only_terms(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        keep = _pc.is_in(batch["term"], value_set=term_arr)
        return batch.filter(keep).select(
            ["term", meta["doc_col"], "tf"])

    return ray.data.read_parquet(paths).map_batches(
        only_terms, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# PII detection / redaction
# ---------------------------------------------------------------------------

# Ordered (class, RE2 pattern, replacement) rules.  Email first so a
# user@10.0.0.1-style address is classed as email, not chewed by the
# IP rule; phone before IP so dotted phone separators never leave a
# digit run the IP rule could claim half of.  Patterns are plain RE2
# (no lookaround) so DuckDB's regexp functions — also RE2 — reproduce
# the exact same match set, which is what makes the driver query
# hash-checkable.
PII_RULES: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("phone", r"\b\d{3}[-. ]\d{3}[-. ]\d{4}\b", "<PHONE>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
)


def pii_scrub_batch(batch: pa.Table, text_col: str = "text",
                    out_col: str = "clean",
                    rules: tuple[tuple[str, str, str], ...] = PII_RULES
                    ) -> pa.Table:
    """Detect and redact PII-shaped substrings (vectorized, Arrow RE2
    kernels — no per-row Python).  Rules apply IN ORDER, each counting
    matches on the text as left by the previous rule and replacing
    every non-overlapping occurrence with its class token; per-row
    match counts come out as ``n_<class>`` int64 columns next to the
    redacted ``out_col``.  The staged count-then-replace semantics are
    exactly reproducible in SQL as nested ``regexp_replace(..., 'g')``
    + split-length counts, so pipelines built on this stage stay
    oracle-checkable."""
    text = batch[text_col].combine_chunks()
    if isinstance(text, pa.ChunkedArray):  # 0-chunk edge
        text = pa.concat_arrays([c for c in text.chunks]) if text.num_chunks \
            else pa.array([], pa.string())
    out = batch.select([c for c in batch.column_names if c != text_col])
    for name, pattern, token in rules:
        n = pc.count_substring_regex(text, pattern)
        text = pc.replace_substring_regex(text, pattern, token)
        out = out.append_column(f"n_{name}", n.cast(pa.int64()))
    return out.append_column(out_col, text)


def pii_scrub(ds, *, text_col: str = "text", out_col: str = "clean",
              rules: tuple[tuple[str, str, str], ...] = PII_RULES,
              **map_kwargs):
    """Dataset-level PII scrub: pure map stage (no shuffle), patterns
    compiled once inside Arrow's RE2."""
    return ds.map_batches(
        lambda b: pii_scrub_batch(b, text_col, out_col, rules),
        batch_format="pyarrow", zero_copy_batch=True, **map_kwargs)


# ---------------------------------------------------------------------------
# repetition / duplication quality metrics (Gopher-style filters)
# ---------------------------------------------------------------------------

def repetition_stats_batch(batch: pa.Table, text_col: str = "text",
                           doc_col: str = "doc_id") -> pa.Table:
    """Per-document word-repetition metrics — the Gopher-family
    quality gates ("fraction of duplicated n-grams / most-common-word
    mass") over whitespace tokens, all-integer so the SQL twin
    hash-checks bit-for-bit:

    - ``n_words`` / ``n_distinct``: total and distinct word counts,
    - ``dup_words`` / ``dup_chars``: occurrences (and their chars) of
      words appearing more than once in the document,
    - ``top_chars``: count*length mass of the most frequent word
      (ties broken by lexicographically smallest word, the same total
      order as SQL ``ORDER BY cnt DESC, w ASC``).

    One split + one dictionary-encode + one lexsort per batch; a doc
    never spans rows, so this is a pure map stage (no shuffle)."""
    n = batch.num_rows
    if n == 0:
        return pa.table({doc_col: pa.array([], pa.int64()),
                         "n_words": pa.array([], pa.int64()),
                         "n_distinct": pa.array([], pa.int64()),
                         "dup_words": pa.array([], pa.int64()),
                         "dup_chars": pa.array([], pa.int64()),
                         "top_chars": pa.array([], pa.int64())})
    words = pc.split_pattern(batch[text_col], " ").combine_chunks()
    offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values
    denc = pc.dictionary_encode(flat)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dict_arr = denc.dictionary
    wlen = pc.utf8_length(dict_arr).to_numpy(zero_copy_only=False
                                             ).astype(np.int64)
    # lexicographic rank of each dictionary code (ASCII corpus: numpy
    # codepoint order == DuckDB binary collation)
    lex_rank = np.empty(len(dict_arr), np.int64)
    lex_rank[np.argsort(np.asarray(dict_arr), kind="stable")] = \
        np.arange(len(dict_arr))
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
    # per-(doc, word) occurrence counts: one lexsort + run lengths
    sel = np.lexsort((codes, doc_idx))
    d_s, c_s = doc_idx[sel], codes[sel]
    new = np.concatenate(([True], (d_s[1:] != d_s[:-1])
                          | (c_s[1:] != c_s[:-1])))
    starts = np.flatnonzero(new)
    cnt = np.diff(np.append(starts, len(sel)))
    gd, gc = d_s[starts], c_s[starts]          # one row per (doc, word)
    glen = wlen[gc]
    n_words = np.bincount(gd, weights=cnt, minlength=n).astype(np.int64)
    n_distinct = np.bincount(gd, minlength=n).astype(np.int64)
    dup = cnt > 1
    dup_words = np.bincount(gd[dup], weights=cnt[dup],
                            minlength=n).astype(np.int64)
    dup_chars = np.bincount(gd[dup], weights=cnt[dup] * glen[dup],
                            minlength=n).astype(np.int64)
    # top word per doc under (cnt DESC, lex ASC): lexsort then first
    top_sel = np.lexsort((lex_rank[gc], -cnt, gd))
    first = np.concatenate(([True], gd[top_sel][1:] != gd[top_sel][:-1]))
    top_rows = top_sel[first]
    top_chars = np.zeros(n, np.int64)
    top_chars[gd[top_rows]] = cnt[top_rows] * glen[top_rows]
    return pa.table({
        doc_col: batch[doc_col],
        "n_words": n_words, "n_distinct": n_distinct,
        "dup_words": dup_words, "dup_chars": dup_chars,
        "top_chars": top_chars})


# ---------------------------------------------------------------------------
# boilerplate token pruning (corpus-frequency stopword removal)
# ---------------------------------------------------------------------------

def _df_partial(batch: pa.Table, text_col: str, doc_col: str) -> pa.Table:
    """Per-block partial document frequency: each doc is one row, so
    block-level (doc, token) dedup is exact and per-token partials sum
    to the true DF across blocks."""
    words = pc.split_pattern(batch[text_col], " ").combine_chunks()
    offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    denc = pc.dictionary_encode(words.values)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    doc_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                        np.diff(offs))
    pair = np.unique(codes * np.int64(batch.num_rows) + doc_idx)
    u, df = np.unique(pair // np.int64(batch.num_rows),
                      return_counts=True)
    return pa.table({"token": denc.dictionary.take(pa.array(u)),
                     "df": df.astype(np.int64)})


def frequent_tokens(ds, *, n_docs: int, frac_num: int, frac_den: int,
                    text_col: str = "text", doc_col: str = "doc_id",
                    nbuckets: int = 32) -> pa.Table:
    """Tokens whose document frequency satisfies
    ``df * frac_den >= frac_num * n_docs`` (integer predicate).  One
    skinny (token, df) exchange; the hot set is bounded by
    total-occurrences / (frac * n_docs), never vocabulary-sized."""
    from ..collect import collect_table
    from .exchange import hash_exchange

    parts = ds.map_batches(
        lambda b: _df_partial(b, text_col, doc_col),
        batch_format="pyarrow", zero_copy_batch=True)

    def reduce_hot(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by("token").aggregate([("df", "sum")])
        df = g["df_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = df * np.int64(frac_den) >= np.int64(frac_num) * n_docs
        return pa.table({"token": g["token"].filter(pa.array(keep)),
                         "df": pa.array(df[keep])})

    hot = collect_table(hash_exchange(parts, nbuckets=nbuckets,
                                      on="token", reduce_fn=reduce_hot))
    return hot.sort_by("token")


def prune_frequent_tokens(ds, *, n_docs: int, frac_num: int = 1,
                          frac_den: int = 3, text_col: str = "text",
                          doc_col: str = "doc_id", out_col: str = "clean",
                          nbuckets: int = 32, **map_kwargs):
    """Boilerplate removal: drop every token appearing in at least
    ``frac_num/frac_den`` of the corpus' documents (CCNet-style
    corpus-frequency pruning generalized to tokens).  Two passes: a
    skinny (token, df) hash exchange finds the hot set (bounded by
    definition, shipped once via ``ray.put``), then a pure map pass
    rebuilds each document from its surviving tokens — no reassembly
    shuffle, a doc never leaves its block."""
    import ray as _ray

    hot = frequent_tokens(ds, n_docs=n_docs, frac_num=frac_num,
                          frac_den=frac_den, text_col=text_col,
                          doc_col=doc_col, nbuckets=nbuckets)
    hot_ref = _ray.put(hot["token"].combine_chunks())

    def scrub(batch: pa.Table) -> pa.Table:
        hot_arr = _ray.get(hot_ref)
        words = pc.split_pattern(batch[text_col], " ").combine_chunks()
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.values
        drop = pc.is_in(flat, value_set=hot_arr).to_numpy(
            zero_copy_only=False)
        doc_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                            np.diff(offs))
        kept = np.bincount(doc_idx[~drop], minlength=batch.num_rows)
        new_offs = np.zeros(batch.num_rows + 1, np.int64)
        np.cumsum(kept, out=new_offs[1:])
        kept_words = flat.filter(pa.array(~drop))
        lst = pa.ListArray.from_arrays(
            pa.array(new_offs, pa.int32()), kept_words)
        clean = pc.binary_join(
            lst, pa.scalar(" ", pa.string()))
        removed = np.bincount(doc_idx[drop],
                              minlength=batch.num_rows).astype(np.int64)
        out = batch.select([c for c in batch.column_names
                            if c != text_col])
        return (out.append_column("n_removed", pa.array(removed))
                .append_column(out_col, clean))

    return ds.map_batches(scrub, batch_format="pyarrow",
                          zero_copy_batch=True, **map_kwargs)


# ---------------------------------------------------------------------------
# bigram collocations (PMI-family counts)
# ---------------------------------------------------------------------------

def bigram_counts_batch(batch: pa.Table, text_col: str = "text"
                        ) -> pa.Table:
    """Per-block adjacent-word-pair counts: one split + one
    dictionary-encode; pair identity is an int64 code product key, so
    counting is a single ``np.unique`` (no Python string pairs until
    the block's distinct bigrams materialize)."""
    words = pc.split_pattern(batch[text_col], " ").combine_chunks()
    offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    denc = pc.dictionary_encode(words.values)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    W = len(codes)
    if W < 2:
        return pa.table({"w1": pa.array([], pa.string()),
                         "w2": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64())})
    doc_of = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                       np.diff(offs))
    same = doc_of[:-1] == doc_of[1:]
    V = np.int64(len(denc.dictionary))
    key = codes[:-1][same] * V + codes[1:][same]
    u, tf = np.unique(key, return_counts=True)
    d = denc.dictionary
    return pa.table({"w1": d.take(pa.array(u // V)),
                     "w2": d.take(pa.array(u % V)),
                     "tf": pa.array(tf.astype(np.int64))})


def top_bigrams(ds, k: int = 40, *, text_col: str = "text",
                nbuckets: int = 64) -> pa.Table:
    """Corpus top-k bigram collocations by raw count (the count table
    of PMI / collocation mining; ties break (tf DESC, w1 ASC, w2
    ASC) so the result is a total order).  Same partial-top-k shape
    as :func:`top_terms`: block partials -> bigram-hash bucket
    exchange summing true counts + local top-k -> bounded k x buckets
    driver merge; the unbounded bigram vocabulary never
    centralizes."""
    from ..collect import collect_table
    from .exchange import hash_exchange
    from .join import _key_hash

    partials = ds.map_batches(
        lambda b: bigram_counts_batch(b, text_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    mask = np.int64(min(nbuckets, 64) - 1)

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = _key_hash(batch["w1"]) * np.uint64(31) ^ _key_hash(
            batch["w2"])
        return batch.append_column(
            "bucket", pa.array((h & np.uint64(mask)).astype(np.int64)))

    def bucket_topk(group: pa.Table) -> pa.Table:
        empty = pa.table({"w1": pa.array([], pa.string()),
                          "w2": pa.array([], pa.string()),
                          "tf": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        w1 = np.asarray(group["w1"].to_pylist(), object)
        w2 = np.asarray(group["w2"].to_pylist(), object)
        joint = np.char.add(np.char.add(w1.astype(str), "\x00"),
                            w2.astype(str))
        u, inv = np.unique(joint, return_inverse=True)
        tf = np.bincount(inv, weights=group["tf"].to_numpy(
            zero_copy_only=False), minlength=len(u)).astype(np.int64)
        first = np.zeros(len(u), np.int64)
        first[inv[::-1]] = np.arange(len(inv) - 1, -1, -1)
        order = np.lexsort((u, -tf))[:k]
        rows = first[order]
        return pa.table({"w1": pa.array(w1[rows].tolist(), pa.string()),
                         "w2": pa.array(w2[rows].tolist(), pa.string()),
                         "tf": pa.array(tf[order])})

    cand = hash_exchange(
        partials.map_batches(add_bucket, batch_format="pyarrow",
                             zero_copy_batch=True),
        nbuckets=min(nbuckets, 64), on="bucket", reduce_fn=bucket_topk)
    tbl = collect_table(cand)
    w1 = np.asarray(tbl["w1"].to_pylist(), object)
    w2 = np.asarray(tbl["w2"].to_pylist(), object)
    tf = tbl["tf"].to_numpy(zero_copy_only=False)
    order = np.lexsort((w2, w1, -tf))[:k]
    return pa.table({"w1": pa.array(w1[order].tolist(), pa.string()),
                     "w2": pa.array(w2[order].tolist(), pa.string()),
                     "tf": pa.array(tf[order])})


def bpe_train(ds, k: int = 12, *, text_col: str = "text",
              nbuckets: int = 32):
    """Train ``k`` byte-pair-encoding merges over the corpus — the
    tokenizer-training step of an LLM-data pipeline, distributed the
    way the classic algorithm factors:

    * the WORD VOCABULARY (distinct ``\\s+`` tokens + counts) builds
      once via a word-hash exchange and stays a materialized Dataset;
    * each round counts adjacent symbol pairs weighted by word count
      (per-block partials -> skinny pair exchange -> per-bucket best),
      takes the exact global argmax under the (count DESC, pair-code
      ASC) total order — only bucket BESTS reach the driver — and
      applies the merge as a pure map over the vocab (greedy
      left-to-right non-overlap, the canonical rule, vectorized via
      run parity);
    * symbol codes are deterministic (sorted initial characters, then
      merges in rank order), which is what makes the tie-break — and
      therefore the whole merge sequence — reproducible and
      partition-invariant.

    Returns (merges, symtab): ``merges`` is a pyarrow table with rank,
    left/right/new symbol strings and the pair count; ``symtab`` the
    final symbol list.  Stops early when no pair repeats."""
    import ray

    from ..collect import collect_table
    from .exchange import hash_exchange
    from .join import _key_hash

    # 1. word vocabulary (distinct token + count), distributed
    def word_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[text_col], r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.values
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        if not keep.all():
            flat = flat.take(pa.array(np.flatnonzero(keep)))
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = np.bincount(codes, minlength=len(enc.dictionary)) \
            .astype(np.int64)
        t = pa.table({"word": enc.dictionary, "n": pa.array(n)})
        h = _key_hash(t["word"])
        return t.append_column("bucket", pa.array(
            (h % np.uint64(nbuckets)).astype(np.int64)))

    def word_sum(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        enc = t["word"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = np.bincount(codes, weights=t["n"].to_numpy(
            zero_copy_only=False),
            minlength=len(enc.dictionary)).astype(np.int64)
        return pa.table({"word": enc.dictionary, "n": pa.array(n)})

    vocab_words = hash_exchange(
        ds.map_batches(word_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        nbuckets=nbuckets, on="bucket", reduce_fn=word_sum)

    # 2. deterministic initial symbol table: sorted distinct chars
    def char_partial(t: pa.Table) -> pa.Table:
        chars = set()
        for w in t["word"].to_pylist():
            chars.update(w)
        return pa.table({"ch": pa.array(sorted(chars), pa.string())})

    chars = sorted(set(collect_table(vocab_words.map_batches(
        char_partial, batch_format="pyarrow",
        zero_copy_batch=True))["ch"].to_pylist()))
    symtab = list(chars)
    code_of = {c: i for i, c in enumerate(chars)}
    code_ref = ray.put(code_of)

    def to_segs(t: pa.Table) -> pa.Table:
        cm = ray.get(code_ref)
        words = t["word"].to_pylist()
        flat = np.fromiter(
            (cm[c] for w in words for c in w), np.int32,
            count=sum(len(w) for w in words))
        offs = np.zeros(len(words) + 1, np.int32)
        np.cumsum([len(w) for w in words], out=offs[1:])
        return pa.table({
            "n": t["n"],
            "syms": pa.ListArray.from_arrays(pa.array(offs),
                                             pa.array(flat))})

    segs = vocab_words.map_batches(
        to_segs, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None).materialize()

    PACK = np.int64(1) << np.int64(21)  # codes < 2M by construction

    def pair_partial(t: pa.Table) -> pa.Table:
        syms = t["syms"].combine_chunks()
        flat = syms.values.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        offs = syms.offsets.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = t["n"].to_numpy().astype(np.int64)
        if len(flat) < 2:
            return pa.table({"pack": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        wid = np.repeat(np.arange(len(n)), np.diff(offs))
        a, b = flat[:-1], flat[1:]
        same = wid[:-1] == wid[1:]
        pack = (a * PACK + b)[same]
        w = n[wid[:-1][same]]
        uu, inv = np.unique(pack, return_inverse=True)
        cnt = np.zeros(len(uu), np.int64)
        np.add.at(cnt, inv, w)
        return pa.table({"pack": pa.array(uu), "cnt": pa.array(cnt)})

    def bucket_best(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"pack": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        pk = t["pack"].to_numpy().astype(np.int64)
        ct = t["cnt"].to_numpy().astype(np.int64)
        uu, inv = np.unique(pk, return_inverse=True)
        s = np.zeros(len(uu), np.int64)
        np.add.at(s, inv, ct)
        best = np.lexsort((uu, -s))[0]
        return pa.table({"pack": pa.array(uu[best:best + 1]),
                         "cnt": pa.array(s[best:best + 1])})

    merges = []
    for rank in range(k):
        cand = collect_table(hash_exchange(
            segs.map_batches(pair_partial, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None),
            nbuckets=16, on="pack", reduce_fn=bucket_best))
        if cand.num_rows == 0:
            break
        pk = cand["pack"].to_numpy().astype(np.int64)
        ct = cand["cnt"].to_numpy().astype(np.int64)
        best = np.lexsort((pk, -ct))[0]
        if ct[best] < 2:
            break
        bp, bc = int(pk[best]), int(ct[best])
        ca, cb = bp // int(PACK), bp % int(PACK)
        new_code = len(symtab)
        merges.append((rank, symtab[ca], symtab[cb],
                       symtab[ca] + symtab[cb], bc))
        symtab.append(symtab[ca] + symtab[cb])

        def apply_merge(t: pa.Table, ca=ca, cb=cb,
                        new_code=new_code) -> pa.Table:
            syms = t["syms"].combine_chunks()
            flat = syms.values.to_numpy(zero_copy_only=False) \
                .astype(np.int32).copy()
            offs = syms.offsets.to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if len(flat) >= 2:
                wid = np.repeat(np.arange(len(offs) - 1),
                                np.diff(offs))
                m = np.zeros(len(flat), bool)
                m[:-1] = (flat[:-1] == ca) & (flat[1:] == cb) & \
                    (wid[:-1] == wid[1:])
                # greedy left-to-right non-overlap: within each run
                # of consecutive matches keep even positions only
                if m.any():
                    starts = m & ~np.concatenate(([False], m[:-1]))
                    run_id = np.cumsum(starts) - 1
                    pos_raw = np.arange(len(flat))
                    run_start = np.zeros(len(flat), np.int64)
                    run_start[m] = pos_raw[starts][run_id[m]] \
                        if starts.any() else 0
                    keep_merge = m & (
                        (pos_raw - run_start) % 2 == 0)
                    flat[keep_merge] = new_code
                    drop = np.zeros(len(flat), bool)
                    drop[1:] = keep_merge[:-1]
                    kept = ~drop
                    new_flat = flat[kept]
                    new_counts = np.add.reduceat(
                        kept.astype(np.int64), offs[:-1]) \
                        if len(offs) > 1 else np.array([], np.int64)
                    new_offs = np.zeros(len(offs), np.int32)
                    np.cumsum(new_counts, out=new_offs[1:])
                    return pa.table({
                        "n": t["n"],
                        "syms": pa.ListArray.from_arrays(
                            pa.array(new_offs),
                            pa.array(new_flat.astype(np.int32)))})
            return t

        segs = segs.map_batches(
            apply_merge, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None).materialize()

    tbl = pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "left_sym": pa.array([m[1] for m in merges], pa.string()),
        "right_sym": pa.array([m[2] for m in merges], pa.string()),
        "new_sym": pa.array([m[3] for m in merges], pa.string()),
        "count": pa.array([m[4] for m in merges], pa.int64())})
    return tbl, symtab


def _bpe_merge_pass(flat: np.ndarray, wid: np.ndarray, ca: int, cb: int,
                    new_code: int) -> tuple[np.ndarray, np.ndarray]:
    """One merge rank applied greedily left-to-right non-overlapping
    over a flat symbol stream with word ids (the canonical BPE rule,
    run-parity vectorized — identical semantics to the trainer's
    per-rank pass in :func:`bpe_train`).  Returns (flat', wid')."""
    if len(flat) < 2:
        return flat, wid
    m = np.zeros(len(flat), bool)
    m[:-1] = (flat[:-1] == ca) & (flat[1:] == cb) & (wid[:-1] == wid[1:])
    if not m.any():
        return flat, wid
    starts = m & ~np.concatenate(([False], m[:-1]))
    run_id = np.cumsum(starts) - 1
    pos = np.arange(len(flat), dtype=np.int64)
    run_start = np.zeros(len(flat), np.int64)
    run_start[m] = pos[starts][run_id[m]]
    keep_merge = m & ((pos - run_start) % 2 == 0)
    flat = flat.copy()
    flat[keep_merge] = new_code
    drop = np.zeros(len(flat), bool)
    drop[1:] = keep_merge[:-1]
    kept = ~drop
    return flat[kept], wid[kept]


def bpe_encode_batch(batch: pa.Table, merges_codes: list[tuple[int, int, int]],
                     char_code: dict[str, int], *, id_col: str = "doc_id",
                     text_col: str = "text",
                     passthrough: tuple[str, ...] = ()) -> pa.Table:
    """Encode one batch of documents with a TRAINED merge list: split
    on ``\\s+``, map chars to initial symbol codes (unseen chars ->
    UNK = -1, which no merge rule can touch), then apply every merge
    in rank order — each pass greedy left-to-right non-overlapping
    within word boundaries, exactly the trainer's convention, so
    ``bpe_encode(corpus, bpe_train(corpus))`` reproduces the trainer's
    final segmentation.  Emits per-doc exact integers: post-merge
    token count, UNK count, and a positional checksum
    ``sum (i+1)*(code+2)`` over the doc's token sequence (i = token
    position within the doc) — sequence-sensitive, so two docs with
    permuted tokens hash apart."""
    if batch.num_rows == 0:
        cols = {id_col: pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "n_unk": pa.array([], pa.int64()),
                "checksum": pa.array([], pa.int64())}
        for c in passthrough:
            cols[c] = batch[c]
        return pa.table(cols)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    toks = pc.split_pattern_regex(batch[text_col], r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    words = toks.values
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    doc_of_word = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                            np.diff(offs))
    keep = pc.not_equal(words, "").to_numpy(zero_copy_only=False)
    if not keep.all():
        words = words.take(pa.array(np.flatnonzero(keep)))
        doc_of_word = doc_of_word[keep]
    # chars -> codes without a Python loop per char: one big codepoint
    # array from the concatenated word bytes is overkill for the tiny
    # vocab here — per-word fromiter is the trainer's own shape
    wl = pc.utf8_length(words).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    wstrs = words.to_pylist()
    total = int(wl.sum())
    flat = np.fromiter(
        (char_code.get(c, -1) for w in wstrs for c in w),
        np.int32, count=total)
    wid = np.repeat(np.arange(len(wstrs), dtype=np.int64), wl)
    for ca, cb, new_code in merges_codes:
        flat, wid = _bpe_merge_pass(flat, wid, ca, cb, new_code)
    doc_of_tok = doc_of_word[wid] if len(wid) else wid
    n_tok = np.bincount(doc_of_tok, minlength=batch.num_rows) \
        .astype(np.int64)
    n_unk = np.bincount(doc_of_tok[flat == -1],
                        minlength=batch.num_rows).astype(np.int64)
    # position within doc: doc_of_tok is nondecreasing (words stay in
    # text order), so a per-doc ramp aligns
    from ..codec import varint as vi

    pos_in_doc = vi.ramp(n_tok)
    # float64-weighted bincount is exact only below 2^53: the largest
    # per-doc checksum is bounded by maxtok*(maxtok+1)/2 * (maxcode+2)
    mt = int(n_tok.max()) if len(n_tok) else 0
    maxcode = max((c for _, _, c in merges_codes),
                  default=len(char_code))
    if mt * (mt + 1) // 2 * (maxcode + 2) > (1 << 52):
        raise OverflowError("bpe_encode: positional checksum exceeds "
                            "the exact-float64 bound for this doc "
                            "length / vocabulary")
    checksum = np.bincount(
        doc_of_tok, weights=(pos_in_doc + 1) * (flat.astype(np.int64) + 2),
        minlength=batch.num_rows).astype(np.int64)
    cols = {id_col: pa.array(ids),
            "n_tokens": pa.array(n_tok),
            "n_unk": pa.array(n_unk),
            "checksum": pa.array(checksum)}
    for c in passthrough:  # output is row-aligned with the input batch
        cols[c] = batch[c]
    return pa.table(cols)


def bpe_encode(ds, merges_tbl: pa.Table, symtab: list[str], *,
               id_col: str = "doc_id", text_col: str = "text",
               passthrough: tuple[str, ...] = ()):
    """Apply a :func:`bpe_train` result to a corpus as a PURE MAP stage
    (the merge table is tokenizer-sized — kilobytes — so it travels in
    the task closure; no shuffle, no state).  Returns a Dataset of
    per-doc (n_tokens, n_unk, checksum) exact integers."""
    code_of = {s: i for i, s in enumerate(symtab)}
    merges_codes = [
        (code_of[l], code_of[r], code_of[n])
        for l, r, n in zip(merges_tbl["left_sym"].to_pylist(),
                           merges_tbl["right_sym"].to_pylist(),
                           merges_tbl["new_sym"].to_pylist())]
    char_code = {s: i for i, s in enumerate(symtab) if len(s) == 1}

    return ds.map_batches(
        lambda b: bpe_encode_batch(b, merges_codes, char_code,
                                   id_col=id_col, text_col=text_col,
                                   passthrough=passthrough),
        batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# phonetic encoding (record-linkage blocking keys)
# ---------------------------------------------------------------------------

# letter -> soundex digit class; 7 = H/W (collapse-transparent,
# removed before coding except at position 0), 0 = vowels + Y
_SDX_LUT = np.zeros(256, np.uint8)
for _c, _d in [("AEIOUY", 0), ("BFPV", 1), ("CGJKQSXZ", 2), ("DT", 3),
               ("L", 4), ("MN", 5), ("R", 6), ("HW", 7)]:
    for _ch in _c:
        _SDX_LUT[ord(_ch)] = _d


def soundex_batch(col) -> pa.Array:
    """American Soundex codes (the SQL-Server-compatible variant),
    fully vectorized over the flat utf8 byte buffer — no per-row
    Python.  The variant is pinned to be expressible as plain SQL
    (``translate`` + one run-collapsing ``regexp_replace``), which is
    what makes blocking pipelines built on it hash-checkable:

    1. upper-case, strip non-A-Z,
    2. drop H/W everywhere EXCEPT position 0 (codes collapse across
       them — the classic quirk),
    3. code every letter (including the first) to its digit class,
       collapse adjacent equal digits,
    4. result = first letter + first 3 non-vowel digits of the rest,
       zero-padded; '' encodes to '000' (the SQL expression's value).

    Nulls propagate."""
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return pa.array([], pa.string())
    null_mask = np.asarray(arr.is_null()) if arr.null_count else None
    u = pc.replace_substring_regex(
        pc.utf8_upper(arr.fill_null("").cast(pa.string())), "[^A-Z]", "")
    data, offs = _string_parts(u)
    lens = np.diff(offs)
    total = int(offs[-1] - offs[0])
    data = data[offs[0]:offs[-1]]
    offs = offs - offs[0]
    sid = np.repeat(np.arange(n), lens)
    pos = np.arange(total)
    is_start = pos == offs[sid]

    # step 2: drop non-leading H/W
    c = _SDX_LUT[data]
    keep = is_start | (c != 7)
    data, c, sid, is_start = data[keep], c[keep], sid[keep], is_start[keep]
    # step 3: collapse adjacent equal digit classes (a leading H/W is
    # the only code-7 left; it never equals a digit so never collapses)
    prev = np.empty_like(c)
    prev[1:] = c[:-1]
    keep = is_start | (c != prev[:len(c)] if len(c) else is_start)
    data, c, sid, is_start = data[keep], c[keep], sid[keep], is_start[keep]
    # step 4: drop vowel-class positions after the first
    keep = is_start | (c != 0)
    data, c, sid, is_start = data[keep], c[keep], sid[keep], is_start[keep]

    out = np.full((n, 4), ord("0"), np.uint8)
    out[sid[is_start], 0] = data[is_start]
    # rank of each kept digit within its string (start = rank 0)
    new_lens = np.bincount(sid, minlength=n)
    new_offs = np.concatenate(([0], np.cumsum(new_lens)))
    rank = np.arange(len(sid)) - new_offs[sid]
    dig = ~is_start & (rank <= 3)
    out[sid[dig], rank[dig]] = 48 + c[dig]

    if (lens == 0).any():
        vals = [bytes(out[i, 1:]).decode() if lens[i] == 0
                else bytes(out[i]).decode() for i in range(n)]
        res = pa.array(vals, pa.string())
    else:
        flat = pa.py_buffer(out.tobytes())
        o = pa.py_buffer((np.arange(n + 1, dtype=np.int32) * 4).tobytes())
        res = pa.Array.from_buffers(pa.string(), n, [None, o, flat])
    if null_mask is not None:
        res = pa.array(res.to_pylist(), pa.string(),
                       mask=null_mask)
    return res


def rrf_fuse(ranked: pa.Table, *, list_col: str = "term",
             id_col: str = "doc_id", rank_col: str = "rank",
             kconst: int = 60, scale: int = 10**9,
             topk: int = 10) -> pa.Table:
    """Reciprocal-rank fusion (Cormack et al. 2009) of several ranked
    lists into one consensus ranking — the standard hybrid-retrieval
    combiner.  Scores are the PINNED integer ``scale // (kconst +
    rank)`` per appearance (floored division, so both engines agree
    bit-for-bit; the float 1/(k+r) classic differs only by the
    quantization), summed per id across lists; ties break to the
    smaller id.  Input is the stacked (list, rank, id) table the
    retrieval stages emit (bounded: lists x k rows), so fusion is
    driver-sized by contract — the distributed work lives in the
    retrieval stages that produced the lists."""
    ids = ranked[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    rnk = ranked[rank_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if (rnk < 1).any():
        raise ValueError("rrf_fuse: ranks must be 1-based")
    pts = scale // (kconst + rnk)
    uid = np.unique(ids)
    pos = np.searchsorted(uid, ids)
    score = np.bincount(pos, weights=pts.astype(np.float64),
                        minlength=len(uid)).astype(np.int64)
    if len(ranked) and int(pts.max()) * len(ranked) >= 1 << 53:
        raise OverflowError("rrf_fuse: score sum exceeds exact float64")
    nlists = np.bincount(pos, minlength=len(uid)).astype(np.int64)
    sel = np.lexsort((uid, -score))[:topk]
    return pa.table({
        id_col: pa.array(uid[sel]),
        "rrf_score": pa.array(score[sel]),
        "n_lists": pa.array(nlists[sel]),
        "fused_rank": pa.array(np.arange(1, len(sel) + 1))})


def skipgram_counts(ds, *, window: int = 2, k: int = 20,
                    text_col: str = "text", nbuckets: int = 64,
                    **map_kwargs) -> pa.Table:
    """Top-k skip-gram co-occurrence pairs (the word2vec / GloVe
    training-table ingredient): ordered (center, context) pairs at
    token distance 1..window within a document, counted exactly.
    Blocks pre-aggregate pair counts (shifted-array comparisons — no
    token loop), ONE pair-hash exchange sums true counts and each
    bucket emits only its local top-k (the pair vocabulary never
    centralizes), bounded driver merge under (count DESC, a, b)."""
    from ..collect import collect_table
    from ..functions.exchange import hash_exchange

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                            ("cnt", pa.int64())])
        flat, doc_of = _tokens_per_doc(batch, text_col)
        if len(flat) == 0:
            return schema.empty_table()
        parts = []
        for d in range(1, window + 1):
            same = doc_of[d:] == doc_of[:-d] if len(flat) > d else \
                np.zeros(0, bool)
            sel = np.flatnonzero(same)
            if not len(sel):
                continue
            parts.append(pa.table({
                "a": flat.take(pa.array(sel)),
                "b": flat.take(pa.array(sel + d))}))
        if not parts:
            return schema.empty_table()
        t = pa.concat_tables(parts)
        t = t.append_column("cnt", pa.array(
            np.ones(t.num_rows, np.int64)))
        g = t.group_by(["a", "b"]).aggregate([("cnt", "sum")])
        return g.rename_columns(["a", "b", "cnt"]).cast(schema)

    pairs = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, **map_kwargs)

    def bucket_topk(t: pa.Table) -> pa.Table:
        schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                            ("cnt", pa.int64())])
        if t.num_rows == 0:
            return schema.empty_table()
        g = t.group_by(["a", "b"]).aggregate([("cnt", "sum")]) \
            .rename_columns(["a", "b", "cnt"])
        df = g.to_pandas().sort_values(
            ["cnt", "a", "b"], ascending=[False, True, True],
            kind="stable").head(k)
        return pa.Table.from_pandas(df, preserve_index=False) \
            .cast(schema)

    def pair_bucket(batch: pa.Table):
        from .dedup import _mix

        h = _mix(fingerprint64(batch["a"]) * np.uint64(0x9E3779B1)
                 ^ fingerprint64(batch["b"]), 0xC0FE)
        return (h % np.uint64(nbuckets)).astype(np.int64), batch

    merged = collect_table(hash_exchange(
        pairs, nbuckets=nbuckets, bucket_fn=pair_bucket,
        reduce_fn=bucket_topk))
    df = merged.to_pandas().sort_values(
        ["cnt", "a", "b"], ascending=[False, True, True],
        kind="stable").head(k).reset_index(drop=True)
    df["rank"] = np.arange(1, len(df) + 1)
    return pa.Table.from_pandas(df[["rank", "a", "b", "cnt"]],
                                preserve_index=False)


def huffman_lengths(counts: np.ndarray) -> np.ndarray:
    """Optimal prefix-code lengths for symbol frequencies (Huffman,
    deterministic: the heap orders by (weight, smallest contained
    symbol), so ties merge identically everywhere).  Zero-count
    symbols get length 0 (absent); a single-symbol alphabet gets
    length 1.  Driver-sized by contract — the alphabet, not the
    corpus, bounds the work; counts come from a distributed pass."""
    import heapq

    n = len(counts)
    live = [(int(c), int(s), s) for s, c in enumerate(counts) if c > 0]
    lengths = np.zeros(n, np.int64)
    if not live:
        return lengths
    if len(live) == 1:
        lengths[live[0][2]] = 1
        return lengths
    heap = [(c, s, [s]) for c, s, s2 in live]
    heapq.heapify(heap)
    while len(heap) > 1:
        c1, s1, m1 = heapq.heappop(heap)
        c2, s2, m2 = heapq.heappop(heap)
        lengths[m1] += 1
        lengths[m2] += 1
        heapq.heappush(heap, (c1 + c2, min(s1, s2), m1 + m2))
    return lengths
