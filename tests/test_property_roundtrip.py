"""Property-based codec round-trip (SURVEY.md §5d): random features,
geometry within 1e-7/coordinate, exact property survival, re-encode
fixpoint."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from geobuf_ray.codec import decode as dc
from geobuf_ray.codec import feature as fc
from geobuf_ray.io import geojson as gj

coord = st.tuples(
    st.floats(min_value=-179.9999999, max_value=179.9999999,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=-89.9999999, max_value=89.9999999,
              allow_nan=False, allow_infinity=False),
)
ring = st.lists(coord, min_size=4, max_size=8).map(
    lambda pts: [list(p) for p in pts] + [list(pts[0])])

geometry = st.one_of(
    st.builds(lambda c: {"type": "Point", "coordinates": list(c)}, coord),
    st.builds(lambda cs: {"type": "LineString",
                          "coordinates": [list(c) for c in cs]},
              st.lists(coord, min_size=2, max_size=10)),
    st.builds(lambda cs: {"type": "MultiPoint",
                          "coordinates": [list(c) for c in cs]},
              st.lists(coord, min_size=1, max_size=6)),
    st.builds(lambda rs: {"type": "Polygon", "coordinates": rs},
              st.lists(ring, min_size=1, max_size=3)),
    st.builds(lambda ls: {"type": "MultiLineString", "coordinates": ls},
              st.lists(st.lists(coord, min_size=2, max_size=5).map(
                  lambda pts: [list(p) for p in pts]), min_size=1, max_size=3)),
    st.builds(lambda ps: {"type": "MultiPolygon", "coordinates": ps},
              st.lists(st.lists(ring, min_size=1, max_size=2),
                       min_size=1, max_size=3)),
)

props = st.dictionaries(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
    st.one_of(
        st.text(max_size=20),
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e12, max_value=1e12),
        st.booleans(),
    ),
    max_size=4,
)

feature = st.builds(
    lambda i, g, p: {"type": "Feature", "id": i, "geometry": g,
                     "properties": p},
    st.integers(min_value=0, max_value=2**53), geometry, props,
)


def _flat_coords(geom):
    t, c = geom["type"], geom["coordinates"]
    if t == "Point":
        return list(c)
    if t in ("LineString", "MultiPoint"):
        return [v for pt in c for v in pt]
    if t in ("Polygon", "MultiLineString"):
        return [v for r in c for pt in r for v in pt]
    return [v for poly in c for r in poly for pt in r for v in pt]


@settings(max_examples=40, deadline=None)
@given(st.lists(feature, min_size=1, max_size=12))
def test_random_feature_roundtrip(feats):
    tbl = gj.features_to_table(feats)
    if tbl.num_rows == 0:
        return
    enc = fc.encode_batch(tbl)
    dec = dc.decode_batch(enc)
    assert dec.num_rows == tbl.num_rows
    # geometry: each coordinate within 1e-7 (reference tolerance)
    want = tbl["coords"].combine_chunks()
    got = dec["coords"].combine_chunks()
    wa = want.values.to_numpy(zero_copy_only=False)
    ga = got.values.to_numpy(zero_copy_only=False)
    assert len(wa) == len(ga)
    if len(wa):
        assert np.abs(wa - ga).max() <= 1.0000001e-7
    assert dec["geom_type"].to_pylist() == tbl["geom_type"].to_pylist()
    # properties: string/bool exact; numbers as double (go.geojson rule)
    from geobuf_ray.codec.schema import property_columns

    for name in property_columns(tbl):
        w = tbl[name].to_pylist()
        g = dec[name].to_pylist() if name in dec.column_names else [None] * len(w)
        for wi, gi in zip(w, g):
            if wi is None:
                assert gi is None
            elif isinstance(wi, float):
                assert gi == wi or abs(gi - wi) < 1e-9 * max(abs(wi), 1)
            else:
                assert gi == wi
    # re-encode fixpoint: encoding the decoded table reproduces bytes
    enc2 = fc.encode_batch(dec, prop_cols=sorted(property_columns(tbl)))
    enc1 = fc.encode_batch(
        dc.decode_batch(enc2), prop_cols=sorted(property_columns(tbl)))
    assert enc2.equals(enc1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=300), min_size=1, max_size=30),
       st.integers(min_value=0, max_value=400))
def test_frame_scan_roundtrip_and_partial(payloads, cut):
    """The frame-by-frame walk must recover arbitrary payloads
    (including ones full of 0x0A false-candidate bytes) and, in partial
    mode, consume exactly the longest complete-frame prefix."""
    recs = pa.array(payloads, pa.binary())
    stream = fc.frame_records(recs)
    back = fc.scan_frames(stream)
    assert [b.as_py() for b in back] == payloads

    data = np.frombuffer(stream, np.uint8)
    cut = min(cut, len(stream))
    if cut == 0:
        return
    prefix = data[:cut]
    if prefix[0] != 0x0A:
        return
    try:
        starts, lens, consumed = fc.frame_boundaries(prefix, partial=True)
    except ValueError:
        # a cut landing inside a payload can expose a non-0x0A byte at
        # a frame boundary only if the cut corrupted the stream; for a
        # pure prefix of a valid stream this must not happen
        raise
    # consumed must be a frame boundary: re-scanning it strictly works
    full_starts, full_lens, _ = fc.frame_boundaries(data, partial=False)
    boundaries = np.concatenate(([0], full_starts + full_lens))
    assert consumed in boundaries
    k = int(np.searchsorted(boundaries, consumed))
    assert [bytes(data[s:s + l]) for s, l in zip(starts, lens)] == payloads[:k]
