"""Rows-only queries still get oracles here: IVF recall vs brute
force, raster<->vector PIP vs a direct rectangle check."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_ivf_recall_vs_brute_force(ray_session):
    from geobuf_ray.pipelines import queries as q

    exact = q.embeddings_topk(SF, k=5, n_queries=5)
    approx = q.embeddings_topk_ivf(SF, k=5, n_queries=5)
    ex = {(r["query_id"], r["vec_id"]) for r in exact.to_pylist()}
    ap = {(r["query_id"], r["vec_id"]) for r in approx.to_pylist()}
    recall = len(ex & ap) / len(ex)
    assert recall >= 0.6, f"IVF recall {recall}"


def test_images_in_rects_matches_direct_check(ray_session):
    from geobuf_ray.io import images as im
    from geobuf_ray.pipelines import queries as q

    got = {(r["image_id"], r["polygon_id"])
           for r in q.images_in_rects(SF).take_all()}
    # direct oracle: every (centroid, rect) containment pair
    import duckdb

    keys = duckdb.connect().execute(
        f"SELECT s_suppkey FROM '{SF}/supplier.parquet' ORDER BY s_suppkey"
    ).fetchnumpy()["s_suppkey"].astype(np.int64)
    west = -180.0 + (keys * 37) % 300
    south = -85.0 + (keys * 53) % 160
    east = west + 5.0 + (keys % 7) * 3.0
    north = south + 4.0 + (keys % 5) * 3.0
    want = set()
    for i in range(100):
        iid = f"img{i:012d}"
        lon, lat = im.image_centroid(iid)
        hit = (lon >= west) & (lon <= east) & (lat >= south) & (lat <= north)
        for k in keys[hit]:
            want.add((iid, int(k)))
    assert got == want


def test_images_phash_pairs_vs_brute_force(ray_session):
    """Query-level oracle: LSH pairs over the image corpus's phash
    column == brute-force Hamming pairs; planted near-dups found."""
    from geobuf_ray.functions.dedup import hamming_distance
    from geobuf_ray.io.images import synthesize_image_table
    from geobuf_ray.pipelines import queries as q

    got = {(r["image_id_a"], r["image_id_b"])
           for r in q.images_phash_pairs(SF).to_pylist()}
    ph = (synthesize_image_table(100)["phash"]
          .to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64))
    want = set()
    for i in range(len(ph)):
        d = hamming_distance(ph[i], ph[i + 1:])
        for off in np.flatnonzero(d <= 3):
            want.add((f"img{i:012d}", f"img{i + 1 + int(off):012d}"))
    assert got == want
    # the planted rule (i-7, i) for i%23==11 must be present
    planted = {(f"img{i - 7:012d}", f"img{i:012d}")
               for i in range(23, 100) if i % 23 == 11}
    assert planted <= got


def test_images_zonal_stats_direct_oracle(ray_session):
    """Zonal stats vs a direct recompute: per-polygon member sets from
    the centroid-in-rect predicate, channel means from decoded pixels."""
    import duckdb

    from geobuf_ray.io import images as im
    from geobuf_ray.pipelines import queries as q

    got = {r["polygon_id"]: r for r in q.images_zonal_stats(SF).to_pylist()}
    keys = duckdb.connect().execute(
        f"SELECT s_suppkey FROM '{SF}/supplier.parquet' ORDER BY s_suppkey"
    ).fetchnumpy()["s_suppkey"].astype(np.int64)
    west = -180.0 + (keys * 37) % 300
    south = -85.0 + (keys * 53) % 160
    east = west + 5.0 + (keys % 7) * 3.0 + 0.005
    north = south + 4.0 + (keys % 5) * 3.0 + 0.005
    tbl = im.synthesize_image_table(100)
    blobs = tbl["bytes"].to_pylist()
    want = {}
    for i in range(100):
        iid = f"img{i:012d}"
        lon, lat = im.image_centroid(iid)
        px = im.decode_image(blobs[i]).reshape(-1, 3).mean(axis=0)
        hit = (lon >= west) & (lon <= east) & (lat >= south) & (lat <= north)
        for k in keys[hit]:
            e = want.setdefault(int(k), [0, 0.0, 0.0, 0.0])
            e[0] += 1
            e[1] += px[0]
            e[2] += px[1]
            e[3] += px[2]
    assert set(got) == set(want)
    for k, (cnt, sr, sg, sb) in want.items():
        g = got[k]
        assert g["n_images"] == cnt
        assert np.isclose(g["mean_r"], sr / cnt)
        assert np.isclose(g["mean_g"], sg / cnt)
        assert np.isclose(g["mean_b"], sb / cnt)


def test_customers_map_match_vs_scalar(ray_session):
    """Brute-force scalar point-to-segment assignment (Python floats,
    same clamp formula) must reproduce the distributed result exactly,
    including clamp-at-endpoint cases and (d2, seg_id) ties."""
    from geobuf_ray.pipelines import queries as q

    got = {int(r["seg_id"]): (int(r["n_customers"]),
                              int(r["sum_custkey"]))
           for r in q.customers_map_match(SF).to_pylist()}

    import duckdb

    sk = duckdb.connect().execute(
        f"SELECT s_suppkey FROM '{SF}/supplier.parquet' ORDER BY 1"
    ).fetchnumpy()["s_suppkey"].astype(np.int64)
    ck = duckdb.connect().execute(
        f"SELECT c_custkey FROM '{SF}/customer.parquet'"
    ).fetchnumpy()["c_custkey"].astype(np.int64)
    sx = (sk * 7919) % 36000 - 18000
    sy = (sk * 104729) % 17000 - 8500
    segs = [(int(sk[i]), sx[i], sy[i], sx[i + 1], sy[i + 1])
            for i in range(len(sk) - 1)]
    want = {}
    for k in ck.tolist():
        px = (k * 7919) % 36000 - 18000
        py = (k * 104729) % 17000 - 8500
        best = None
        for sid, ax, ay, bx, by in segs:
            abx, aby = bx - ax, by - ay
            t = ((px - ax) * abx + (py - ay) * aby) / float(
                abx * abx + aby * aby)
            t = min(max(t, 0.0), 1.0)
            dx = px - (ax + t * abx)
            dy = py - (ay + t * aby)
            d2 = dx * dx + dy * dy
            if best is None or (d2, sid) < best:
                best = (d2, sid)
        e = want.setdefault(best[1], [0, 0])
        e[0] += 1
        e[1] += k
    assert got == {s: (n, sc) for s, (n, sc) in want.items()}


def test_line_interpolate_vs_scalar(ray_session):
    """Scalar arc-length walk per nation polyline must reproduce the
    distributed result; interpolated points sit exactly at
    fraction * total length."""
    import duckdb

    from geobuf_ray.pipelines import queries as q

    got = {(int(r["nationkey"]), int(r["fr_pct"])):
           (r["px"], r["py"])
           for r in q.suppliers_line_interpolate(SF).to_pylist()}
    sup = duckdb.connect().execute(
        f"SELECT s_suppkey, s_nationkey FROM '{SF}/supplier.parquet' "
        "ORDER BY s_suppkey").df()
    want = {}
    for nation, grp in sup.groupby("s_nationkey"):
        sk = np.sort(grp["s_suppkey"].to_numpy().astype(np.int64))
        if len(sk) < 2:
            continue
        x = (sk * 7919) % 36000 - 18000
        y = (sk * 104729) % 17000 - 8500
        ln = [float(np.hypot(x[i + 1] - x[i], y[i + 1] - y[i]))
              for i in range(len(sk) - 1)]
        total = sum(ln)
        for fr in (0.25, 0.5, 0.75):
            tgt, acc, i = fr * total, 0.0, 0
            while i < len(ln) - 1 and acc + ln[i] < tgt:
                acc += ln[i]
                i += 1
            u = (tgt - acc) / ln[i]
            want[(int(nation), int(fr * 100))] = (
                x[i] + u * (x[i + 1] - x[i]),
                y[i] + u * (y[i + 1] - y[i]))
    assert set(got) == set(want)
    for k, (px, py) in want.items():
        assert abs(got[k][0] - px) < 1e-6 and abs(got[k][1] - py) < 1e-6


def test_images_dedup_survivors_vs_scalar(ray_session):
    """Scalar recompute: brute-force Hamming<=3 phash pairs ->
    union-find -> per-cluster (max pixels, min idx) survivor; the
    planted near-duplicates copy w/h from their base row, so their
    pixel counts tie and the LOWER index must survive."""
    from geobuf_ray.io import images as im
    from geobuf_ray.pipelines import queries as q

    got = {r["cluster_id"]: r
           for r in q.images_dedup_survivors(SF).to_pylist()}

    tbl = im.synthesize_image_table(100)
    ph = np.array(tbl["phash"].to_pylist(), np.int64).astype(np.uint64)
    w = np.array(tbl["w"].to_pylist(), np.int64)
    h = np.array(tbl["h"].to_pylist(), np.int64)
    parent = list(range(100))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(100):
        for j in range(i + 1, 100):
            if bin(int(ph[i] ^ ph[j])).count("1") <= 3:
                parent[find(i)] = find(j)
    clusters = {}
    for i in range(100):
        clusters.setdefault(find(i), []).append(i)
    want = {}
    for members in clusters.values():
        cid = min(members)
        px = w[members] * h[members]
        best = min(zip(-px, members))[1]
        want[f"img{cid:012d}"] = (f"img{best:012d}", len(members),
                                  int((w[best] * h[best])))
    assert set(got) == set(want)
    for cid, (sid, nm, mp) in want.items():
        g = got[cid]
        assert g["survivor_id"] == sid and g["n_members"] == nm \
            and g["max_pixels"] == mp
    # at least one planted pair must have collapsed with the BASE
    # (lower) index surviving the pixel tie
    multi = [c for c, (s, n, m) in want.items() if n >= 2]
    assert multi


def test_subtree_sums_vs_scalar(ray_session):
    """Scalar ancestor-walk reference (including the node-0 self-root
    edge) must match the vectorized shift fan-out exactly."""
    import duckdb

    from geobuf_ray.pipelines import queries as q

    got = {int(r["s_suppkey"]): (int(r["n_nodes"]),
                                 int(r["subtree_cents"]))
           for r in q.suppliers_subtree_sums(SF).to_pylist()}
    df = duckdb.connect().execute(
        f"SELECT s_suppkey, CAST(round(s_acctbal*100) AS BIGINT) c "
        f"FROM '{SF}/supplier.parquet'").df()
    want = {}
    for k, c in zip(df["s_suppkey"].astype(int), df["c"].astype(int)):
        a = k
        while True:
            e = want.setdefault(a, [0, 0])
            e[0] += 1
            e[1] += c
            if a < 2:
                break
            a //= 2
    assert got == {a: (n, s) for a, (n, s) in want.items()}


def test_copurchase_pairs_vs_scalar(ray_session):
    """itertools.combinations reference over DISTINCT (order, part)
    must reproduce the triangular repeat+ramp fan-out's top-k."""
    from itertools import combinations

    import duckdb

    from geobuf_ray.pipelines import queries as q

    got = [(int(r["p1"]), int(r["p2"]), int(r["n_orders"]))
           for r in q.parts_copurchase_top(SF, k=20).to_pylist()]
    df = duckdb.connect().execute(
        f"SELECT DISTINCT l_orderkey, l_partkey "
        f"FROM '{SF}/lineitem.parquet'").df()
    counts = {}
    for _, grp in df.groupby("l_orderkey"):
        for a, b in combinations(sorted(grp["l_partkey"].astype(int)), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    want = sorted(((n, p1, p2) for (p1, p2), n in counts.items()),
                  key=lambda t: (-t[0], t[1], t[2]))[:20]
    assert got == [(p1, p2, n) for n, p1, p2 in want]


def test_images_caption_quality_vs_scalar(ray_session):
    """Scalar recompute of per-format caption token sums and quality
    passes from the pinned synthesis."""
    from geobuf_ray.functions.text import quality_batch, token_count_batch
    from geobuf_ray.io import images as im
    from geobuf_ray.pipelines import queries as q

    got = {r["fmt"]: (r["n_captions"], r["tokens_ws"],
                      r["quality_pass"])
           for r in q.images_caption_quality(SF).to_pylist()}
    tbl = im.synthesize_image_table(100)
    toks = token_count_batch(pa.table({"text": tbl["caption"]}))
    qual = quality_batch(pa.table({"text": tbl["caption"]}))
    want = {}
    for fmt, ws, qv in zip(tbl["fmt"].to_pylist(),
                           toks["n_tokens_ws"].to_pylist(),
                           qual["quality"].to_pylist()):
        e = want.setdefault(fmt, [0, 0, 0])
        e[0] += 1
        e[1] += int(ws)
        e[2] += int(qv >= 0.5)
    assert got == {f: tuple(v) for f, v in want.items()}


def test_seasonal_anomalies_scalar_reference(ray_session):
    """Pure-Python reference: hourly counts per (type, day, hour),
    PERCENTILE_DISC(0.5) per (type, hour), gate 2n > 3m."""
    from collections import Counter, defaultdict

    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    t = pq.read_table(f"{SF}/events.parquet", columns=["ts", "event_type"])
    cnt = Counter()
    for ts, et in zip(t["ts"].to_pylist(), t["event_type"].to_pylist()):
        cnt[(et, ts.day, ts.hour)] += 1
    byhour = defaultdict(list)
    for (et, day, hour), n in cnt.items():
        byhour[(et, hour)].append(n)
    med = {k: sorted(v)[(len(v) + 1) // 2 - 1] for k, v in byhour.items()}
    want = {(et, day, hour, n, med[(et, hour)])
            for (et, day, hour), n in cnt.items()
            if 2 * n > 3 * med[(et, hour)]}

    got = {(r["event_type"], r["day"], r["hour"], r["n_events"],
            r["med_n"])
           for r in q.events_seasonal_anomalies(SF).to_pylist()}
    assert got == want


def test_token_drift_scalar_reference(ray_session):
    """Pure-Python reference: re2-equivalent split, exact cross-
    multiplied drift, top-20 under (drift DESC, term ASC)."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["source", "text"])
    ca, cb = Counter(), Counter()
    for src, txt in zip(t["source"].to_pylist(), t["text"].to_pylist()):
        c = ca if int(src[3:]) < 10 else cb
        for w in re.split(r"\s+", txt):
            if w:
                c[w] += 1
    P, Q = sum(ca.values()), sum(cb.values())
    vocab = set(ca) | set(cb)
    scored = sorted(
        ((abs(ca[w] * Q - cb[w] * P), w) for w in vocab),
        key=lambda x: (-x[0], x[1]))[:20]
    want = [(w, ca[w], cb[w], d) for d, w in scored]

    out = q.docs_token_drift(SF)
    got = list(zip(out["term"].to_pylist(), out["n_a"].to_pylist(),
                   out["n_b"].to_pylist(), out["drift"].to_pylist()))
    assert got == want


def test_curation_funnel_scalar_reference(ray_session):
    """Pure-Python funnel: raw-piece token count (\\s+ split, empties
    KEPT — the len(string_split_regex) convention), integer quality
    gate, min-id-per-(lang,source) dedup, %8 split."""
    import re

    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text", "lang", "source"])
    rows = []
    for did, txt, lg, src in zip(t["doc_id"].to_pylist(),
                                 t["text"].to_pylist(),
                                 t["lang"].to_pylist(),
                                 t["source"].to_pylist()):
        toks = len(re.split(r"\s+", txt))
        chars = len(txt)
        rows.append((did, lg, src, toks, chars))
    qual = [r for r in rows
            if r[4] >= 100 and 3 * r[3] <= r[4] <= 12 * r[3]]
    best = {}
    for did, lg, src, toks, chars in qual:
        k = (lg, src)
        if k not in best or did < best[k][0]:
            best[k] = (did, toks)
    ded = list(best.values())
    spl = [d for d in ded if d[0] % 8 == 0]
    want = [("a_total", len(rows), sum(r[3] for r in rows)),
            ("b_quality", len(qual), sum(r[3] for r in qual)),
            ("c_dedup", len(ded), sum(d[1] for d in ded)),
            ("d_split", len(spl), sum(d[1] for d in spl))]

    out = q.docs_curation_funnel(SF)
    got = list(zip(out["stage"].to_pylist(), out["n_docs"].to_pylist(),
                   out["n_tokens"].to_pylist()))
    assert got == want


def test_unigram_surprise_scalar_reference(ray_session):
    """Pure-Python reference: df per term, bit_length(N // df) per
    occurrence, per-doc sums, top-20 under (surprise DESC, doc_id)."""
    import re
    from collections import Counter, defaultdict

    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    docs = {did: [w for w in re.split(r"\s+", txt) if w]
            for did, txt in zip(t["doc_id"].to_pylist(),
                                t["text"].to_pylist())}
    N = len(docs)
    df = Counter()
    for words in docs.values():
        for w in set(words):
            df[w] += 1
    scores = {}
    for did, words in docs.items():
        scores[did] = (sum((N // df[w]).bit_length() for w in words),
                       len(words))
    want = sorted(((did, ntok, s) for did, (s, ntok) in scores.items()),
                  key=lambda x: (-x[2], x[0]))[:20]

    out = q.docs_unigram_surprise(SF)
    got = list(zip(out["doc_id"].to_pylist(),
                   out["n_tokens"].to_pylist(),
                   out["surprise"].to_pylist()))
    assert got == want


def test_bpe_merges_scalar_reference(ray_session):
    """Canonical greedy BPE in pure Python (same deterministic code
    assignment: sorted initial chars, merges appended in rank order;
    ties by (count DESC, (code_a, code_b) ASC)) must produce the
    identical merge sequence."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    vocab = Counter()
    for txt in t["text"].to_pylist():
        for w in re.split(r"\s+", txt):
            if w:
                vocab[w] += 1
    chars = sorted({c for w in vocab for c in w})
    code = {c: i for i, c in enumerate(chars)}
    symtab = list(chars)
    segs = {w: [code[c] for c in w] for w in vocab}
    want = []
    for rank in range(12):
        pairs = Counter()
        for w, syms in segs.items():
            n = vocab[w]
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += n
        if not pairs:
            break
        (ca, cb), cnt = min(pairs.items(),
                            key=lambda kv: (-kv[1], kv[0]))
        if cnt < 2:
            break
        new = len(symtab)
        want.append((rank, symtab[ca], symtab[cb],
                     symtab[ca] + symtab[cb], cnt))
        symtab.append(symtab[ca] + symtab[cb])
        for w, syms in segs.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == ca \
                        and syms[i + 1] == cb:
                    out.append(new)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            segs[w] = out

    out = q.docs_bpe_merges(SF)
    got = list(zip(out["rank"].to_pylist(), out["left_sym"].to_pylist(),
                   out["right_sym"].to_pylist(),
                   out["new_sym"].to_pylist(),
                   out["count"].to_pylist()))
    assert got == want


def test_constraints_vs_duckdb_and_nonzero(ray_session):
    """Every audit row must equal direct SQL at sf0.001, and at least
    one violation count must be NONZERO (the corpus's PK duplicates)
    so an under-counting bug can't hide behind zeros."""
    import duckdb

    from geobuf_ray.pipelines import queries as q

    out = {r["check"]: (r["n_checked"], r["n_violations"])
           for r in q.lineitem_constraints(SF).to_pylist()}
    con = duckdb.connect()
    n, pk_v = con.execute(f"""
        SELECT COUNT(*),
               COUNT(*) - COUNT(DISTINCT l_orderkey * 8 + l_linenumber)
        FROM '{SF}/lineitem.parquet'""").fetchone()
    fk2_v = con.execute(f"""
        SELECT SUM(CASE WHEN s.s_suppkey IS NULL THEN 1 ELSE 0 END)
        FROM '{SF}/lineitem.parquet' l
        LEFT JOIN (SELECT s_suppkey FROM '{SF}/supplier.parquet'
                   WHERE s_acctbal >= 0) s
          ON l.l_suppkey = s.s_suppkey""").fetchone()[0]
    fk1_v = con.execute(f"""
        SELECT COUNT(DISTINCT l.l_orderkey)
        FROM '{SF}/lineitem.parquet' l
        LEFT JOIN '{SF}/orders.parquet' o
          ON l.l_orderkey = o.o_orderkey
        WHERE o.o_orderkey IS NULL""").fetchone()[0]
    assert out["pk_orderkey_linenumber"] == (n, pk_v)
    assert out["fk_suppkey_posbal"] == (n, fk2_v)
    assert out["fk_orderkey"] == (n, fk1_v)
    assert pk_v > 0  # the distinguishing nonzero row


def test_compression_ratio_scalar_replay(ray_session):
    import zlib

    import numpy as np
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    out = q.docs_compression_ratio(SF)
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["text", "lang"])
    want = {}
    for txt, lang in zip(t["text"].to_pylist(), t["lang"].to_pylist()):
        raw = len(txt.encode("utf-8"))
        comp = len(zlib.compress(txt.encode("utf-8"), 6))
        p = want.setdefault(lang, [0, 0, 0, 0])
        p[0] += 1
        p[1] += raw
        p[2] += comp
        p[3] += 10 * comp < 3 * raw
    got = {r["lang"]: [r["n_docs"], r["sum_raw"], r["sum_comp"],
                       r["n_flagged"]] for r in out.to_pylist()}
    assert got == want


def test_l_diversity_brute_force_replay(ray_session):
    """Every (nation, segment) row must match a pandas brute force of
    the ordinal-EMD numerator and distinct-band count at sf0.001, and
    the corpus must exercise both gate outcomes somewhere."""
    import pandas as pd
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines.queries import customers_l_diversity

    out = customers_l_diversity(SF).to_pandas()
    c = pq.read_table(
        f"{SF}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment", "c_acctbal"]).to_pandas()
    cents = np.round(c["c_acctbal"].to_numpy() * 100).astype(np.int64)
    c["band"] = np.floor_divide(cents, 200000)
    bands = np.sort(c["band"].unique())
    big_n = len(c)
    m = len(bands)
    glob_cum = np.cumsum(
        c["band"].value_counts().reindex(bands, fill_value=0)
        .to_numpy())
    assert len(out) == c.groupby(["c_nationkey", "c_mktsegment"]) \
        .ngroups
    for _, row in out.iterrows():
        grp = c[(c["c_nationkey"] == row["nation"])
                & (c["c_mktsegment"] == row["segment"])]
        h = grp["band"].value_counts().reindex(bands, fill_value=0) \
            .to_numpy()
        ng = len(grp)
        assert row["n_rows"] == ng
        assert row["distinct_bands"] == int((h > 0).sum())
        emd = int(np.abs(np.cumsum(h).astype(object) * big_n
                         - glob_cum.astype(object) * ng).sum())
        assert row["emd_num"] == emd
        assert row["l_ok"] == int(row["distinct_bands"] >= 3)
        assert row["t_ok"] == int(5 * emd <= ng * big_n * (m - 1))
    # the audit must discriminate: a uniform pass (or fail) of every
    # gate would make it vacuous on this corpus
    assert 0 < out["t_ok"].sum() or 0 < (1 - out["l_ok"]).sum() \
        or out["emd_num"].max() > 0


def test_time_to_convert_exchange_path(ray_session, monkeypatch):
    """events_time_to_convert must never centralize per-user rows:
    per-user first-view/first-purchase state folds inside bucket
    tasks, and the ONLY driver collect is the 3-row quartile result.
    Also hash-checks the quartiles vs a scalar replay."""
    import duckdb

    import geobuf_ray.collect as collect_mod
    from geobuf_ray.pipelines import queries as q

    collected = []
    real = collect_mod.collect_table

    def spy(ds, *a, **kw):
        t = real(ds, *a, **kw)
        collected.append(t.num_rows)
        return t

    monkeypatch.setattr(collect_mod, "collect_table", spy)
    out = q.events_time_to_convert(SF)
    assert collected, "expected the final collect to be observed"
    assert max(collected) <= 3, \
        f"driver collected {max(collected)} rows (per-user leak?)"

    con = duckdb.connect()
    rep = con.execute(f"""
        WITH e AS (SELECT user_id, event_type, ts
                   FROM '{SF}/events.parquet'
                   WHERE event_type IN ('view', 'purchase')),
        fv AS (SELECT user_id, MIN(ts) AS t0 FROM e
               WHERE event_type = 'view' GROUP BY user_id),
        fp AS (SELECT e.user_id, MIN(e.ts) AS t1
               FROM e JOIN fv ON fv.user_id = e.user_id
               WHERE e.event_type = 'purchase' AND e.ts >= fv.t0
               GROUP BY e.user_id),
        g AS (SELECT (epoch_us(fp.t1) - epoch_us(fv.t0)) // 1000000
                     AS gap
              FROM fv JOIN fp ON fp.user_id = fv.user_id)
        SELECT quantile_disc(gap, 0.25), quantile_disc(gap, 0.5),
               quantile_disc(gap, 0.75), COUNT(*) FROM g
    """).fetchone()
    got = {r["q"]: (r["gap_seconds"], r["n_converters"])
           for r in out.to_pylist()}
    assert got[25] == (rep[0], rep[3])
    assert got[50] == (rep[1], rep[3])
    assert got[75] == (rep[2], rep[3])


def test_kruskal_wallis_scalar_replay(ray_session):
    """events_kruskal_wallis vs a scipy-free scalar midrank replay,
    including the H statistic a consumer would derive."""
    import duckdb

    from geobuf_ray.pipelines import queries as q

    out = {r["event_type"]: r for r in
           q.events_kruskal_wallis(SF).to_pylist()}

    con = duckdb.connect()
    df = con.execute(f"""
        SELECT event_type, CAST(round(value*100) AS BIGINT) AS v
        FROM '{SF}/events.parquet' WHERE value IS NOT NULL
    """).fetchdf()
    import numpy as np
    v = df["v"].to_numpy()
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    sv = v[order]
    i = 0
    while i < len(sv):
        j = i
        while j < len(sv) and sv[j] == sv[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0   # midrank
        i = j
    tie = 0
    for t in np.unique(v, return_counts=True)[1]:
        tie += int(t) ** 3 - int(t)
    for et in df["event_type"].unique():
        sel = df["event_type"].to_numpy() == et
        n = int(sel.sum())
        rs2 = int(round(2 * ranks[sel].sum()))
        assert out[et]["n"] == n, et
        assert out[et]["ranksum2"] == rs2, et
        assert out[et]["tie_term"] == tie, et
    # consumer-side H: exact ingredients give the textbook statistic
    N = sum(r["n"] for r in out.values())
    h = (12.0 / (N * (N + 1))
         * sum((r["ranksum2"] / 2.0) ** 2 / r["n"]
               for r in out.values()) - 3 * (N + 1))
    corr = 1.0 - next(iter(out.values()))["tie_term"] / (N**3 - N)
    assert corr > 0 and np.isfinite(h / corr)


def test_rate_limiter_burst_and_refill(ray_session, tmp_path):
    """Token-bucket recurrence pinned on crafted sequences: a burst of
    capacity+3 instant events admits exactly `capacity`; after a full
    refill window the bucket readmits; a slow uniform stream admits
    everything.  Runs the real query against a synthetic events
    parquet + a scalar replay of the corpus."""
    import duckdb
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    cap, refill = 5, 60
    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = []
    eid = 0
    # user 1: burst of 8 at t0 -> 5 admitted; then one event per
    # refill window -> each admitted
    for i in range(8):
        rows.append((1, base, eid)); eid += 1
    for i in range(1, 4):
        rows.append((1, base + np.timedelta64(i * refill * 1_000_000,
                                              "us"), eid)); eid += 1
    # user 2: slow stream, one event every 2 windows -> all admitted
    for i in range(6):
        rows.append((2, base + np.timedelta64(
            i * 2 * refill * 1_000_000, "us"), eid)); eid += 1
    # user 3: sub-window spacing after the burst empties the bucket
    for i in range(12):
        rows.append((3, base + np.timedelta64(
            i * (refill // 2) * 1_000_000, "us"), eid)); eid += 1
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows],
                       pa.timestamp("us")),
        "event_id": pa.array([r[2] for r in rows], pa.int64())})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(tbl, str(d / "events.parquet"))

    out = {r["user_id"]: r for r in
           q.events_rate_limiter(str(d)).to_pylist()}

    def replay(ts_list):
        cap_us, cost = cap * refill * 1_000_000, refill * 1_000_000
        tok, adm, prev = cap_us, 0, None
        for t in ts_list:
            if prev is not None:
                tok = min(cap_us, tok + (t - prev))
            if tok >= cost:
                tok -= cost
                adm += 1
            prev = t
        return adm

    by_user = {}
    for uid, t, _ in rows:
        by_user.setdefault(uid, []).append(
            t.astype("datetime64[us]").astype(np.int64))
    for uid, ts_list in by_user.items():
        assert out[uid]["n_events"] == len(ts_list)
        assert out[uid]["n_admitted"] == replay(sorted(ts_list)), uid
    # structural pins
    assert out[1]["n_admitted"] == cap + 3      # burst caps at 5
    assert out[2]["n_admitted"] == 6            # slow stream: all
    # user 3: 30s spacing = half a refill -> every OTHER event after
    # the first 5 drains
    assert out[3]["n_admitted"] == replay(sorted(by_user[3]))


def test_value_entropy_uniform_and_constant(ray_session, tmp_path):
    """Entropy pins: a uniform k-value distribution reads ln(k); a
    constant column reads 0."""
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    vals = ([float(i) for i in range(8)] * 10        # uniform 8
            + [3.0] * 40)                            # constant
    types = ["uni"] * 80 + ["const"] * 40
    tbl = pa.table({
        "event_type": pa.array(types),
        "value": pa.array(vals)})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(tbl, str(d / "events.parquet"))
    out = {r["event_type"]: r for r in
           q.events_value_entropy(str(d)).to_pylist()}
    assert out["const"]["entropy_nats"] == 0.0
    assert out["const"]["n_distinct"] == 1
    assert abs(out["uni"]["entropy_nats"] - round(np.log(8), 6)) < 1e-9
    assert out["uni"]["n_distinct"] == 8


def test_dp_histogram_noise_properties(ray_session):
    """DP release: noise is a deterministic seeded discrete Laplace —
    a scalar replay of the draw reproduces it exactly, a different
    seed redraws, and n_noisy = n_true + noise always."""
    from geobuf_ray.functions.dedup import _mix
    from geobuf_ray.functions.text import fingerprint64
    from geobuf_ray.pipelines import queries as q

    out = q.customers_dp_histogram(SF)
    d = out.to_pylist()
    assert all(r["n_noisy"] == r["n_true"] + r["noise"] for r in d)

    # scalar replay of the two-sided geometric draw per cell
    nk = np.array([r["nationkey"] for r in d], np.int64)
    segf = fingerprint64(
        pa.array([r["segment"] for r in d], pa.string()))
    cell = (nk.view(np.uint64) * np.uint64(31)) ^ segf
    for i, r in enumerate(d):
        def g(salt):
            h = _mix(cell[i:i+1], 7 * 1_000_003 + salt)
            u = ((h >> np.uint64(11)).astype(np.float64) + 1.0) \
                * 2.0**-53
            return int(np.floor(np.log(u) / -1.0)[0])
        assert r["noise"] == g(1) - g(2), r

    out2 = q.customers_dp_histogram(SF, seed=8)
    d2 = {(r["nationkey"], r["segment"]): r["noise"]
          for r in out2.to_pylist()}
    diffs = sum(d2[(r["nationkey"], r["segment"])] != r["noise"]
                for r in d)
    assert diffs > len(d) // 4, "seed change must redraw noise"


def test_bipartite_matching_vs_scalar(ray_session):
    """suppliers_customer_matching vs an independent scalar
    augmenting-path (Kuhn's) maximum-matching over the same
    deterministic preference edges."""
    import duckdb

    from geobuf_ray.pipelines import queries as q

    out = q.suppliers_customer_matching(SF).to_pylist()[0]
    assert out["matching_size"] == out["min_vertex_cover"]

    sk = duckdb.connect().execute(
        f"SELECT s_suppkey FROM '{SF}/supplier.parquet' "
        "ORDER BY s_suppkey").fetchnumpy()["s_suppkey"] \
        .astype(np.int64)[:100]
    ck = duckdb.connect().execute(
        f"SELECT c_custkey FROM '{SF}/customer.parquet' "
        "ORDER BY c_custkey LIMIT 200").fetchnumpy()["c_custkey"] \
        .astype(np.int64)
    adj = {}
    for s in sk:
        wants = {int(s) % 100, (int(s) * 3) % 100, (int(s) * 7) % 100}
        adj[int(s)] = [int(c) for c in ck if int(c) % 100 in wants]
    match_of = {}

    def try_kuhn(u, seen):
        for v in adj.get(u, ()):
            if v in seen:
                continue
            seen.add(v)
            if v not in match_of or try_kuhn(match_of[v], seen):
                match_of[v] = u
                return True
        return False

    size = sum(try_kuhn(int(s), set()) for s in sk)
    assert out["matching_size"] == size
    assert out["n_pref_edges"] == sum(len(v) for v in adj.values())


def test_entity_keyed_finishes_collect_only_finished_groups(
        ray_session, monkeypatch):
    """The entity-keyed aggregations (partkey / custkey / suppkey
    finals) must finish INSIDE the key-hash exchange: the driver may
    collect only one finished row per key, never the |keys| x |blocks|
    partial table.  Spy on collect_table and bound every observed
    collect by the true distinct-key count."""
    import duckdb

    import geobuf_ray.collect as collect_mod
    from geobuf_ray.pipelines import queries as q

    con = duckdb.connect()
    n_parts = con.execute(
        f"SELECT COUNT(DISTINCT l_partkey) FROM '{SF}/lineitem.parquet'"
    ).fetchone()[0]
    n_custs = con.execute(
        f"SELECT COUNT(DISTINCT o_custkey) FROM '{SF}/orders.parquet'"
    ).fetchone()[0]
    n_supps = con.execute(
        f"SELECT COUNT(DISTINCT l_suppkey) FROM '{SF}/lineitem.parquet'"
    ).fetchone()[0]

    real = collect_mod.collect_table

    def run(fn, bound):
        collected = []

        def spy(ds, *a, **kw):
            t = real(ds, *a, **kw)
            collected.append(t.num_rows)
            return t

        monkeypatch.setattr(collect_mod, "collect_table", spy)
        try:
            out = fn(SF)
        finally:
            monkeypatch.setattr(collect_mod, "collect_table", real)
        assert collected, "expected the final collect to be observed"
        assert max(collected) <= bound, \
            f"driver collected {max(collected)} rows > {bound} keys " \
            "(partial-table leak?)"
        return out

    out = run(q.parts_price_dispersion, n_parts)
    assert out.num_rows <= n_parts
    out = run(q.parts_abc_analysis, n_parts)
    assert out.num_rows == 3
    out = run(q.suppliers_scorecard, n_supps)
    assert out.num_rows == n_supps
    run(q.customers_rfm, n_custs)


def test_frequent_triples_apriori_lossless(ray_session):
    """The item-level a-priori prune must be lossless: engine output
    == a direct pandas 3-way enumeration on the same corpus, and every
    reported triple's parts each meet the support threshold."""
    import itertools

    import duckdb

    from geobuf_ray.pipelines import queries as q

    out = q.parts_frequent_triples(SF, min_support=2, k=20)
    lp = duckdb.connect().execute(
        f"SELECT DISTINCT l_orderkey AS o, l_partkey AS p "
        f"FROM '{SF}/lineitem.parquet'").df()
    from collections import Counter

    counts = Counter()
    for _, grp in lp.groupby("o"):
        for tri in itertools.combinations(sorted(grp["p"]), 3):
            counts[tri] += 1
    want = sorted(((n, t) for t, n in counts.items() if n >= 2),
                  key=lambda x: (-x[0], x[1]))[:20]
    got = [(r["n_orders"], (r["p1"], r["p2"], r["p3"]))
           for r in out.to_pylist()]
    assert got == want
    part_support = lp.groupby("p")["o"].nunique()
    for n, (a, b, c) in got:
        assert min(part_support[a], part_support[b],
                   part_support[c]) >= 2


def test_markov_stationary_laws(ray_session):
    """Stationary vector sums to 1, is non-negative, and one more
    application of the empirical transition matrix moves it by less
    than the power-iteration contraction bound implies for 12 steps
    on this corpus (sanity, not exactness — exactness is the CTE
    oracle's job)."""
    import duckdb

    import numpy as np

    from geobuf_ray.pipelines import queries as q

    out = q.events_markov_stationary(SF)
    p = np.array([r["prob"] for r in out.to_pylist()])
    assert abs(p.sum() - 1.0) < 1e-12 and (p >= 0).all()
    # applying P once more changes the vector only a little once
    # 12 iterations have mixed the (small, dense) chain
    df = duckdb.connect().execute(f"""
        WITH seq AS (SELECT event_type AS s,
               LEAD(event_type) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS t
               FROM '{SF}/events.parquet')
        SELECT s, t, COUNT(*) AS n FROM seq WHERE t IS NOT NULL
        GROUP BY s, t""").df()
    types = [r["event_type"] for r in out.to_pylist()]
    idx = {t: i for i, t in enumerate(types)}
    P = np.zeros((len(types), len(types)))
    for _, r in df.iterrows():
        P[idx[r["s"]], idx[r["t"]]] = r["n"]
    rows = P.sum(axis=1)
    dead = rows == 0
    P[dead, :] = 0.0
    P[np.flatnonzero(dead), np.flatnonzero(dead)] = 1.0
    P /= np.where(dead, 1.0, rows)[:, None]
    assert np.abs(p @ P - p).max() < 1e-3


def test_int_sums_exact_past_2_53(ray_session, tmp_path):
    """Counts documented as exact stay exact past 2^53: the shared
    int64 scatter-add, and the broadcast-lookup aggregate built on it
    (a float64 ``np.bincount`` rounds these sums)."""
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines.queries import (_broadcast_lookup_aggregate,
                                              _int_sums)

    big = 2**53 + 1
    codes = np.array([0, 0, 1, 1])
    vals = np.array([big, 1, big, 3], np.int64)
    want = [big + 1, big + 3]
    assert _int_sums(codes, vals, 2).tolist() == want
    assert np.bincount(codes, weights=vals).astype(np.int64).tolist() \
        != want

    path = str(tmp_path / "fact.parquet")
    pq.write_table(pa.table({"k": pa.array([1, 1, 2, 2, 3], pa.int64()),
                             "v": pa.array([big, 1, big, 3, 5], pa.int64())}),
                   path)
    out = _broadcast_lookup_aggregate(
        "SELECT * FROM (VALUES (1, 'a'), (2, 'b')) t(k, label)", "label",
        path, ["k", "v"], "k", [("s", lambda b: b["v"].to_numpy())], "n",
        ["s", "n"])
    got = {r["label"]: (r["s"], r["n"]) for r in out.to_pylist()}
    assert got == {"a": (big + 1, 2), "b": (big + 3, 2)}


def test_min_price_lineitems_matches_oracle(ray_session, no_ray_groupby):
    """The per-(part, supp) min-price aggregate routes its partials
    through the hash exchange, and the join keeps exactly the rows the
    SQL oracle keeps."""
    import duckdb

    import __ray_entry__ as e
    from geobuf_ray.collect import collect_table
    from geobuf_ray.pipelines import queries as q

    cols = ["l_orderkey", "l_partkey", "l_suppkey", "price_cents"]
    got = collect_table(q.min_price_lineitems(SF)).to_pandas()[cols]
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    want = con.execute(e.oracle_sql()["min_price_lineitems"]).fetchdf()[cols]
    assert len(want) > 0
    assert sorted(map(tuple, got.to_numpy().tolist())) \
        == sorted(map(tuple, want.to_numpy().tolist()))


def test_events_user_freq_cms_exact_counts_match_sql(ray_session,
                                                     no_ray_groupby):
    """The exact side of the Count-Min query sums its probe counts with
    the driver combine, and matches SQL counts for user ids 0..9; the
    sketch never under-counts and stays within its bound."""
    import duckdb

    from geobuf_ray.pipelines import queries as q

    out = q.events_user_freq_cms(SF)
    want = dict(duckdb.connect().execute(
        f"SELECT user_id, COUNT(*) FROM '{SF}/events.parquet' "
        "WHERE user_id BETWEEN 0 AND 9 GROUP BY user_id").fetchall())
    assert out["user_id"].to_pylist() == list(range(10))
    assert out["exact"].to_pylist() == [want.get(u, 0) for u in range(10)]
    assert sum(want.values()) > 0
    assert all(out["within_bound"].to_pylist())


def test_tpch_q19_no_matching_part_is_null_revenue(ray_session, tmp_path):
    """When no part falls in any of Q19's brand/size cases, the
    (partkey, case) map is empty and no line item qualifies: revenue is
    NULL, as SQL's SUM over no rows (an index into the empty map once
    failed the line item tasks)."""
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import queries as q

    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2, 3], pa.int64()),
        "p_brand": ["Brand#11", "Brand#12", "Brand#99"],
        "p_size": pa.array([3, 40, 5], pa.int32()),
    }), tmp_path / "part.parquet")
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 2, 3, 2], pa.int64()),
        "l_quantity": [5.0, 5.0, 5.0, 15.0],
        "l_extendedprice": [100.0, 200.0, 300.0, 400.0],
        "l_discount": [0.05, 0.0, 0.1, 0.02],
    }), tmp_path / "lineitem.parquet")
    out = q.tpch_q19(str(tmp_path))
    assert out["revenue_c2"].to_pylist() == [None]
