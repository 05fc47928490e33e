"""Image+caption table support (BASELINE.json input_hint).

Schema (exact): ``image_id:string, bytes:binary, w:int32, h:int32,
fmt:string, caption:string, phash:int64``.

Storage: Lance when the ``lance`` package is available (it is not in
this container — gated behind import-try), else parquet with the same
schema; either way the table reads as a ``ray.data.Dataset`` of Arrow
blocks.

Codec: the container has no image libraries (PIL/cv2 absent), so the
pixel payloads use two deterministic internal encodings that preserve
the REAL pipeline shape (binary column in, pixel array out, per-row
fidelity invariant):

- ``fmt="rawz"``  — lossless: zlib(raw RGB) + 12-byte header.  Exact
  pixel round-trip (stands in for PNG).
- ``fmt="quantz"`` — lossy: 5-bit/channel quantization + zlib (stands
  in for JPEG); reconstruction PSNR ≈ 42 dB, above the ≥40 dB
  invariant.
- real ``png``/``jpeg`` bytes — decoded via PIL when importable, else
  a clearly-marked NotImplementedError (STUB, per round-1 brief).

Spatial payload: centroid lon/lat is a deterministic hash of
``image_id`` (uniform over the world box, plus a skewed hot cell for
salting tests — FIXTURES.md F6); footprint = centroid-anchored
(w·eps x h·eps) rectangle; ``phash`` is a block-mean perceptual hash.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

_MAGIC_RAWZ = b"GRz1"
_MAGIC_QUANTZ = b"GQz1"

try:  # pragma: no cover - not present in this container
    from PIL import Image  # noqa: F401

    _HAVE_PIL = True
except ImportError:
    _HAVE_PIL = False


# ---------------------------------------------------------------------------
# procedural pixels + codecs
# ---------------------------------------------------------------------------


def procedural_pixels(image_id: str, w: int, h: int) -> np.ndarray:
    """Deterministic RGB uint8 array for an image id (seeded pattern)."""
    seed = zlib.crc32(image_id.encode()) & 0xFFFFFFFF
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    fx, fy = rng.uniform(0.02, 0.2, 2)
    phase = rng.uniform(0, 2 * np.pi, 3)
    base = np.stack(
        [
            127.5 + 127.5 * np.sin(fx * xx + fy * yy + phase[0]),
            127.5 + 127.5 * np.sin(fx * xx - fy * yy + phase[1]),
            127.5 + 127.5 * np.sin(fy * xx + fx * yy + phase[2]),
        ],
        axis=-1,
    )
    noise = rng.integers(0, 16, (h, w, 3))
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def encode_rawz(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return (
        _MAGIC_RAWZ
        + np.array([w, h], "<i4").tobytes()
        + zlib.compress(pixels.tobytes(), 6)
    )


def encode_quantz(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    q = (pixels >> 3).astype(np.uint8)  # 5 bits/channel
    return (
        _MAGIC_QUANTZ
        + np.array([w, h], "<i4").tobytes()
        + zlib.compress(q.tobytes(), 6)
    )


def decode_image(data: bytes) -> np.ndarray:
    """binary payload -> (h, w, 3) uint8 pixels."""
    magic = data[:4]
    if magic == _MAGIC_RAWZ:
        w, h = np.frombuffer(data, "<i4", 2, 4)
        return np.frombuffer(zlib.decompress(data[12:]), np.uint8).reshape(h, w, 3)
    if magic == _MAGIC_QUANTZ:
        w, h = np.frombuffer(data, "<i4", 2, 4)
        q = np.frombuffer(zlib.decompress(data[12:]), np.uint8).reshape(h, w, 3)
        # dequantize to bin centers: x*8 + 4 (max error 4 -> PSNR ~42dB)
        return (q.astype(np.uint16) * 8 + 4).clip(0, 255).astype(np.uint8)
    if magic[:2] == b"\x89P":  # real PNG: pure-Python RFC 2083 codec
        from .png import decode_png

        try:
            return decode_png(data)
        except NotImplementedError:
            # palette / 16-bit / interlaced variants the pure-Python
            # decoder declines: keep the pre-png.py capability on
            # PIL-equipped installs instead of regressing to a raise
            if not _HAVE_PIL:
                raise
            import io

            from PIL import Image

            return np.asarray(Image.open(io.BytesIO(data)).convert("RGB"))
    if magic[:2] == b"\xff\xd8":  # real JPEG: pure-Python T.81 codec
        from .jpeg import decode_jpeg

        try:
            return decode_jpeg(data)
        except NotImplementedError:
            # progressive / exotic frame types the pure decoder
            # declines: use PIL when available instead of regressing
            if not _HAVE_PIL:
                raise
            import io

            from PIL import Image

            return np.asarray(Image.open(io.BytesIO(data)).convert("RGB"))
    if _HAVE_PIL:  # pragma: no cover
        import io

        from PIL import Image

        return np.asarray(Image.open(io.BytesIO(data)).convert("RGB"))
    raise ValueError(
        f"unknown image payload magic {magic!r} — corrupted/truncated "
        "data, not a missing decoder"
    )


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


def phash64(pixels: np.ndarray) -> int:
    """Block-mean perceptual hash: grayscale -> 8x8 block means ->
    median threshold -> 64 bits (deterministic, rotation-variant)."""
    g = pixels.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    h, w = g.shape
    ys = (np.arange(9) * h) // 8
    xs = (np.arange(9) * w) // 8
    means = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            means[i, j] = g[ys[i] : max(ys[i + 1], ys[i] + 1),
                            xs[j] : max(xs[j + 1], xs[j] + 1)].mean()
    bits = (means > np.median(means)).astype(np.uint64).reshape(-1)
    return int((bits << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64).view(np.int64))


# ---------------------------------------------------------------------------
# synthesis (FIXTURES.md F6)
# ---------------------------------------------------------------------------

_SIZES = np.array([32, 64, 128, 256])
_CAPTION_WORDS = (
    "sunset over mountain lake city street portrait of a cat dog bridge "
    "forest river skyline abstract pattern texture aerial view night day"
).split()


def image_centroid(image_id: str) -> tuple[float, float]:
    """Deterministic lon/lat from the id hash; 20% of images land in a
    hot cell near (10E, 50N) to exercise salting (FIXTURES.md F6)."""
    hsh = zlib.crc32(image_id.encode())
    u1 = ((hsh * 2654435761) & 0xFFFFFFFF) / 2**32
    u2 = ((hsh * 40503) & 0xFFFFFFFF) / 2**32
    if hsh % 5 == 0:  # hot cluster
        return 10.0 + u1 * 0.2, 50.0 + u2 * 0.2
    return -180.0 + u1 * 360.0, -85.0 + u2 * 170.0


def _crc32_table() -> np.ndarray:
    t = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        t = np.where(t & 1, np.uint32(0xEDB88320) ^ (t >> np.uint32(1)),
                     t >> np.uint32(1))
    return t


_CRC_TABLE = _crc32_table()


def image_hash64(indices: np.ndarray) -> np.ndarray:
    """CRC-32 of the ``img%012d`` id bytes as uint64 — the per-image
    seed behind centroids and footprints, fully vectorized (the id
    bytes form an (n, 15) digit matrix; CRC-32 runs as 15 table-lookup
    rounds, no per-row Python)."""
    idx = np.ascontiguousarray(indices, np.int64)
    n = len(idx)
    mat = np.empty((n, 15), np.uint32)
    mat[:, 0], mat[:, 1], mat[:, 2] = ord("i"), ord("m"), ord("g")
    rem = idx.copy()
    for j in range(14, 2, -1):
        mat[:, j] = (rem % 10).astype(np.uint32) + ord("0")
        rem //= 10
    crc = np.full(n, 0xFFFFFFFF, np.uint32)
    for j in range(15):
        crc = (crc >> np.uint32(8)) ^ _CRC_TABLE[(crc ^ mat[:, j]) & np.uint32(0xFF)]
    return (crc ^ np.uint32(0xFFFFFFFF)).astype(np.uint64)


def image_centroids(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch :func:`image_centroid` for integer image indices (equal
    output to the scalar version, asserted in tests)."""
    hsh = image_hash64(indices)
    u1 = ((hsh * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)) / 2**32
    u2 = ((hsh * np.uint64(40503)) & np.uint64(0xFFFFFFFF)) / 2**32
    hot = hsh % np.uint64(5) == 0
    lon = np.where(hot, 10.0 + u1 * 0.2, -180.0 + u1 * 360.0)
    lat = np.where(hot, 50.0 + u2 * 0.2, -85.0 + u2 * 170.0)
    return lon, lat


def _row_meta(i: int, seed: int = 42):
    """(w, h, lossy, caption) for index i.  Planted near-duplicate rows
    (i % 23 == 11, i >= 23 — web-scale corpora are full of them) take
    w/h/caption from their base row i-7; lossy stays the row's own."""
    r = np.random.default_rng(seed * 1_000_003 + i)
    w = int(_SIZES[r.integers(0, len(_SIZES))])
    h = int(_SIZES[r.integers(0, len(_SIZES))])
    lossy = bool(r.integers(0, 2))
    cap = " ".join(r.choice(_CAPTION_WORDS, 6 + int(r.integers(0, 6))))
    if i >= 23 and i % 23 == 11:
        w, h, _, cap = _row_meta(i - 7, seed)
    return w, h, lossy, cap


def source_pixels(image_id: str, w: int, h: int) -> np.ndarray:
    """The SOURCE pixels of an image row — the single derivation shared
    by synthesis and the decode fidelity check (PSNR compares decoded
    pixels against this).  Near-duplicate rows re-derive their base
    row's image with a one-block brightness nudge; the rule is a pure
    function of the id, so it stays chunking-independent."""
    i = int(image_id[3:])
    if i >= 23 and i % 23 == 11:
        px = procedural_pixels(f"img{i - 7:012d}", w, h).copy()
        # brighten one phash block's worth of pixels: most planted
        # pairs stay at Hamming distance 0, some land at 1-3 bits
        px[: h // 8, : w // 8] = np.minimum(
            px[: h // 8, : w // 8].astype(np.int16) + 4 + (i % 5),
            255).astype(np.uint8)
        return px
    return procedural_pixels(image_id, w, h)


def synthesize_rows(indices) -> pa.Table:
    """Deterministic image+caption rows for arbitrary indices.

    Each row is derived from its own jumping generator, so any slice /
    shuffle of indices reproduces identical rows — the property that
    makes distributed synthesis chunking-independent."""
    ids, blobs, ws, hs, fmts, caps, ph = [], [], [], [], [], [], []
    for i in (int(x) for x in indices):
        image_id = f"img{i:012d}"
        w, h, lossy, cap = _row_meta(i)
        px = source_pixels(image_id, w, h)
        data = encode_quantz(px) if lossy else encode_rawz(px)
        ids.append(image_id)
        blobs.append(data)
        ws.append(w)
        hs.append(h)
        fmts.append("quantz" if lossy else "rawz")
        caps.append(cap)
        ph.append(phash64(px))
    return pa.table({
        "image_id": pa.array(ids, pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "w": pa.array(ws, pa.int32()),
        "h": pa.array(hs, pa.int32()),
        "fmt": pa.array(fmts, pa.string()),
        "caption": pa.array(caps, pa.string()),
        "phash": pa.array(ph, pa.int64()),
    })


def synthesize_image_table(n: int, seed: int = 42, start: int = 0) -> pa.Table:
    """Driver-side slice [start, start+n) — tests / small fixtures."""
    assert seed == 42, "row derivation is pinned to seed 42"
    return synthesize_rows(range(start, start + n))


def synthesize_image_dataset(n: int, **map_kwargs):
    """DISTRIBUTED synthesis: the Lance-shaped table as a Dataset.

    ``ray.data.range`` supplies the index space; each block synthesizes
    its own rows (pixels, payload compress, phash) in parallel — the
    generation cost never lands on the driver."""
    import ray

    ds = ray.data.range(n)

    def gen(batch: pa.Table) -> pa.Table:
        return synthesize_rows(batch["id"].to_numpy(zero_copy_only=False))

    return ds.map_batches(gen, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=64, **map_kwargs)


def read_image_table(path: str, **kwargs):
    """Read an image+caption table as a Ray Dataset — Lance when
    available, else parquet (same schema)."""
    import ray

    try:  # pragma: no cover
        import lance  # noqa: F401

        return ray.data.read_lance(path, **kwargs)
    except ImportError:
        return ray.data.read_parquet(path, **kwargs)


# ---------------------------------------------------------------------------
# map stages: callable instances built on the driver, run as Ray Data
# tasks (Ray ships each instance once per operator)
# ---------------------------------------------------------------------------


class DecodeImagesFn:
    """Decode stage (the T4-style stateful decoder).

    __init__ once on the driver; __call__ decodes each row's payload and
    emits derived features: mean channel intensities, recomputed phash,
    PSNR vs the procedural source (fidelity metric), centroid lon/lat.
    Large binary batches: use small batch_size (payloads are MBs).
    """

    def __init__(self, check_fidelity: bool = True):
        self.check_fidelity = check_fidelity

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        n = len(ids)
        means = np.empty((n, 3))
        ph = np.empty(n, np.int64)
        # NaN when fidelity is not checked — np.empty leaked heap
        # garbage into the psnr_db column (review find)
        fid = np.full(n, np.nan)
        lons = np.empty(n)
        lats = np.empty(n)
        for i in range(n):  # per-row: decode is inherently per-payload
            px = decode_image(blobs[i])
            means[i] = px.reshape(-1, 3).mean(axis=0)
            ph[i] = phash64(px)
            if self.check_fidelity:
                src = source_pixels(ids[i], px.shape[1], px.shape[0])
                fid[i] = psnr(src, px)
            lons[i], lats[i] = image_centroid(ids[i])
        out = batch.drop_columns(["bytes"])
        out = out.append_column("mean_r", pa.array(means[:, 0]))
        out = out.append_column("mean_g", pa.array(means[:, 1]))
        out = out.append_column("mean_b", pa.array(means[:, 2]))
        out = out.append_column("phash_decoded", pa.array(ph, pa.int64()))
        out = out.append_column("psnr_db", pa.array(fid))
        out = out.append_column("lon", pa.array(lons))
        out = out.append_column("lat", pa.array(lats))
        return out


def decode_images(ds, *, batch_size: int = 64,
                  check_fidelity: bool = True, **map_kwargs):
    """Dataset stage: image rows -> decoded feature rows.

    Small ``batch_size`` keeps (payload x concurrent tasks) inside
    worker heaps — the memory-aware rule for binary columns."""
    return ds.map_batches(
        DecodeImagesFn(check_fidelity=check_fidelity),
        batch_format="pyarrow",
        batch_size=batch_size,
        **map_kwargs,
    )


class TranscodePngFn:
    """Transcode stage: decode each row's payload (rawz /
    quantz / png) and re-encode as a REAL PNG (io/png.py — the public
    RFC 2083 wire format).  Same table schema out; ``src_fmt`` keeps
    the original format, ``fmt`` becomes ``png``.  The transcode is
    pixel-lossless, so every fidelity invariant of the source payload
    carries over to the PNG byte stream."""

    def __init__(self, level: int = 6):
        self.level = level

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .png import encode_png

        blobs = batch["bytes"].to_pylist()
        out = [encode_png(decode_image(b), level=self.level)
               for b in blobs]
        t = batch.drop_columns(["bytes"])
        t = t.append_column("bytes", pa.array(out, pa.binary()))
        t = t.append_column("src_fmt", t["fmt"])
        return t.set_column(t.column_names.index("fmt"), "fmt",
                            pa.array(["png"] * len(out), pa.string()))


def transcode_png(ds, *, batch_size: int = 32, level: int = 6,
                  **map_kwargs):
    """Dataset stage: any image rows -> the same rows with real PNG
    payloads (pixel-lossless)."""
    return ds.map_batches(
        TranscodePngFn(level=level), batch_format="pyarrow",
        batch_size=batch_size, **map_kwargs)


class TranscodeJpegFn:
    """Transcode stage: decode each row's payload and
    re-encode as a REAL baseline JPEG (io/jpeg.py — the public ITU-T
    T.81 wire format).  Same table schema out; ``src_fmt`` keeps the
    original format, ``fmt`` becomes ``jpeg``.  The transcode is
    LOSSY (DCT quantization at ``quality``) — fidelity is bounded by
    the quality setting, pinned in-query by the psnr assert."""

    def __init__(self, quality: int = 90):
        self.quality = quality

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .jpeg import encode_jpeg

        blobs = batch["bytes"].to_pylist()
        out = [encode_jpeg(decode_image(b), quality=self.quality)
               for b in blobs]
        t = batch.drop_columns(["bytes"])
        t = t.append_column("bytes", pa.array(out, pa.binary()))
        t = t.append_column("src_fmt", t["fmt"])
        return t.set_column(t.column_names.index("fmt"), "fmt",
                            pa.array(["jpeg"] * len(out), pa.string()))


def transcode_jpeg(ds, *, batch_size: int = 32, quality: int = 90,
                   **map_kwargs):
    """Dataset stage: any image rows -> the same rows with real
    baseline JPEG payloads (lossy at ``quality``)."""
    return ds.map_batches(
        TranscodeJpegFn(quality=quality), batch_format="pyarrow",
        batch_size=batch_size, **map_kwargs)


class ResizeImagesFn:
    """Resize stage: nearest-neighbor downsample to
    (target, target) then re-encode lossless — the feature-extraction
    shape for thumbnailing pipelines."""

    def __init__(self, target: int = 32):
        self.target = target

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        out_blobs = []
        for data in blobs:
            px = decode_image(data)
            h, w, _ = px.shape
            yi = (np.arange(self.target) * h) // self.target
            xi = (np.arange(self.target) * w) // self.target
            small = px[yi][:, xi]
            out_blobs.append(encode_rawz(small))
        drop = [c for c in ("bytes", "w", "h", "fmt") if c in batch.column_names]
        out = batch.drop_columns(drop)
        out = out.append_column("bytes", pa.array(out_blobs, pa.binary()))
        out = out.append_column("w", pa.array([self.target] * len(out_blobs), pa.int32()))
        out = out.append_column("h", pa.array([self.target] * len(out_blobs), pa.int32()))
        # thumbnails are re-encoded lossless; carrying the source fmt
        # forward would mislabel the new payloads
        out = out.append_column(
            "fmt", pa.array(["rawz"] * len(out_blobs), pa.string()))
        return out


def _dct_matrix(n: int = 32) -> np.ndarray:
    """Orthonormal DCT-II matrix (the classic pHash transform)."""
    k = np.arange(n, dtype=np.float64)
    m = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    m *= np.sqrt(2.0 / n)
    m[0] *= np.sqrt(0.5)
    return m


def _resample_gray32(px: np.ndarray, n: int = 32) -> np.ndarray:
    """Grayscale + exact area mean-pool to (n, n) — vectorized via
    two axis reduceat passes, any input size >= 1."""
    g = px.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    h, w = g.shape
    ys = (np.arange(n) * h) // n
    xs = (np.arange(n) * w) // n
    # reduceat sums each [ys[i], ys[i+1]) slab; counts divide exactly
    ycnt = np.diff(np.append(ys, h)).astype(np.float64)
    xcnt = np.diff(np.append(xs, w)).astype(np.float64)
    ycnt = np.maximum(ycnt, 1.0)
    xcnt = np.maximum(xcnt, 1.0)
    rows = np.add.reduceat(g, ys, axis=0) / ycnt[:, None]
    return np.add.reduceat(rows, xs, axis=1) / xcnt[None, :]


def dct_phash64(stack: np.ndarray, dct: np.ndarray | None = None) -> np.ndarray:
    """Classic DCT perceptual hash for a (k, 32, 32) grayscale stack:
    2-D DCT-II, keep the 8x8 low-frequency block, threshold at the
    block's median EXCLUDING the DC term, pack 64 bits.  One einsum
    across the whole stack — per-image work is the decode, not the
    hash.  Robust to re-encoding / mild noise where the block-mean
    :func:`phash64` is robust only to exact pixel equality."""
    if dct is None:
        dct = _dct_matrix(stack.shape[-1])
    coef = np.einsum("ij,njk,lk->nil", dct, stack, dct, optimize=True)
    low = coef[:, :8, :8].reshape(len(stack), 64)
    med = np.median(low[:, 1:], axis=1, keepdims=True)
    bits = (low > med).astype(np.uint64)
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    return (bits * weights).sum(axis=1, dtype=np.uint64).view(np.int64)


class DctPhashFn:
    """Map stage: decode each payload, area-resample to 32x32
    grayscale, batched DCT hash.  The DCT matrix is built once, on the
    driver, and rides on the instance (T4 stateful-stage shape)."""

    def __init__(self, n: int = 32):
        self.n = n
        self.dct = _dct_matrix(n)

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        k = len(blobs)
        stack = np.empty((k, self.n, self.n))
        for i in range(k):  # decode is inherently per-payload
            stack[i] = _resample_gray32(decode_image(blobs[i]), self.n)
        ph = dct_phash64(stack, self.dct) if k else np.empty(0, np.int64)
        out = batch.drop_columns(["bytes"])
        return out.append_column("dct_phash", pa.array(ph, pa.int64()))


def dct_phash_images(ds, *, batch_size: int = 64, **map_kwargs):
    """Dataset stage: image rows -> (row, dct_phash) — the
    near-duplicate signature feeding ``hash64_candidate_pairs``."""
    return ds.map_batches(
        DctPhashFn(), batch_format="pyarrow", batch_size=batch_size,
        **map_kwargs)


def mean_pool2(px: np.ndarray) -> np.ndarray:
    """One pyramid level: 2x2 mean-pool with round-half-up integer
    arithmetic ((a+b+c+d+2)//4 — exact, no float path), odd trailing
    row/col cropped (the gdaladdo-overview convention)."""
    h, w, c = px.shape
    h2, w2 = h // 2, w // 2
    if h2 == 0 or w2 == 0:
        # nothing to pool along a 1-pixel axis: identity, not a crop
        return px
    q = px[: h2 * 2, : w2 * 2].astype(np.uint16)
    s = (q[0::2, 0::2] + q[0::2, 1::2] + q[1::2, 0::2]
         + q[1::2, 1::2] + 2) // 4
    return s.astype(np.uint8)


class PyramidImagesFn:
    """Overview-pyramid stage (the raster tile-pyramid /
    mipmap shape): each input image row fans out to ``levels + 1``
    rows — level 0 is the source, level L halves level L-1 via exact
    2x2 integer mean-pooling — re-encoded lossless with per-level
    mean intensity.

    Output amplifies rows but SHRINKS bytes (a full pyramid adds only
    ~1/3 of the base payload), so downstream batch sizing is unchanged.
    Levels stop early when a dimension reaches 1 pixel.
    """

    def __init__(self, levels: int = 3):
        self.levels = levels

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        o_id, o_lvl, o_w, o_h, o_bytes, o_mean = [], [], [], [], [], []
        for image_id, data in zip(ids, blobs):
            px = decode_image(data)
            for lvl in range(self.levels + 1):
                if lvl:
                    if px.shape[0] < 2 or px.shape[1] < 2:
                        break
                    px = mean_pool2(px)
                o_id.append(image_id)
                o_lvl.append(lvl)
                o_h.append(px.shape[0])
                o_w.append(px.shape[1])
                # level 0 passes the source payload through — the
                # full-size re-compress would dominate the whole stage
                # (overviews add ~1/3 of the base pixels; a level-0
                # re-encode doubles the compress bytes for nothing)
                o_bytes.append(data if lvl == 0 else encode_rawz(px))
                o_mean.append(float(px.mean()))
        return pa.table({
            "image_id": pa.array(o_id, pa.string()),
            "level": pa.array(o_lvl, pa.int32()),
            "w": pa.array(o_w, pa.int32()),
            "h": pa.array(o_h, pa.int32()),
            "bytes": pa.array(o_bytes, pa.binary()),
            "mean_px": pa.array(o_mean, pa.float64()),
        })


def build_pyramid(ds, *, levels: int = 3, batch_size: int = 32,
                  **map_kwargs):
    """Dataset stage: image rows -> per-level pyramid rows (bounded
    batches: payload x concurrent tasks stays inside worker heaps)."""
    return ds.map_batches(
        PyramidImagesFn(levels=levels), batch_format="pyarrow",
        batch_size=batch_size, **map_kwargs)


def mosaic_tiles(ds, *, zoom: int = 4, cell: int = 32, max_images: int = 16,
                 ncols: int = 4, **map_kwargs):
    """Per-tile image mosaics — the tile-server composite shape: group
    images by centroid slippy tile, stitch up to ``max_images``
    thumbnails (``cell`` px, nearest-neighbor) row-major into an
    ``ncols``-wide grid, one lossless payload per tile.

    Group key and member order are deterministic (image_id ascending),
    so the mosaic bytes are reproducible regardless of chunking.  The
    pixel work runs inside ``grouped_exchange`` on ``tile`` — one shuffle
    of (small) image payloads keyed by tile, bounded per-group memory
    (``max_images`` x cell^2 x 3).
    """
    import ray  # noqa: F401  (Dataset in, Dataset out)

    from ..spatial import tiles as tl

    def assign(batch: pa.Table) -> pa.Table:
        """Decode + thumbnail BEFORE the shuffle: the exchange ships a
        fixed cell^2 x 3 raw thumbnail (~3 KB at 32 px) per image
        instead of the full payload — at corpus scale the mosaic
        shuffle weight is the thumbnail, not the image."""
        ids = batch["image_id"].to_pylist()
        idx = np.array([int(s[3:]) for s in ids], np.int64)
        lon, lat = image_centroids(idx)
        x, y = tl.lonlat_to_tile(lon, lat, zoom)
        packed = (x.astype(np.int64) << 32) | y.astype(np.int64)
        thumbs = []
        for data in batch["bytes"].to_pylist():
            px = decode_image(data)
            h, w, _ = px.shape
            yi = (np.arange(cell) * h) // cell
            xi = (np.arange(cell) * w) // cell
            thumbs.append(px[yi][:, xi].tobytes())
        return pa.table({
            "tile": pa.array(packed),
            "image_id": batch["image_id"],
            "thumb": pa.array(thumbs, pa.binary()),
        })

    def stitch(group: pa.Table) -> pa.Table:
        order = np.argsort(np.asarray(group["image_id"].to_pylist(),
                                      object), kind="stable")
        take = order[:max_images]
        thumbs = group["thumb"].take(pa.array(take)).to_pylist()
        k = len(thumbs)
        cols_n = min(k, ncols)
        rows_n = -(-k // ncols)
        canvas = np.zeros((rows_n * cell, cols_n * cell, 3), np.uint8)
        for i, data in enumerate(thumbs):
            r, c = divmod(i, ncols)
            canvas[r * cell:(r + 1) * cell, c * cell:(c + 1) * cell] = \
                np.frombuffer(data, np.uint8).reshape(cell, cell, 3)
        tile = int(group["tile"][0].as_py())
        return pa.table({
            "tile_x": pa.array([tile >> 32], pa.int64()),
            "tile_y": pa.array([tile & 0xFFFFFFFF], pa.int64()),
            "n_images": pa.array([k], pa.int64()),
            "mosaic_w": pa.array([cols_n * cell], pa.int64()),
            "mosaic_h": pa.array([rows_n * cell], pa.int64()),
            "bytes": pa.array([encode_rawz(canvas)], pa.binary()),
        })

    from ..functions.exchange import grouped_exchange

    assigned = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True, **map_kwargs)
    # hash exchange + per-tile segments, not the range-sort shuffle
    return grouped_exchange(assigned, "tile", stitch, nbuckets=64)


class PatchifyImagesFn:
    """ViT-style patch extraction stage: each image row fans out
    to its non-overlapping ``patch x patch`` tiles (bottom/right
    remainders cropped, the standard discipline), one row per patch
    with (patch_row, patch_col) grid coordinates and a lossless
    payload.  The pixel cut is one reshape+transpose per image (no
    per-patch indexing); only the re-encode is per-payload.
    """

    def __init__(self, patch: int = 16, emit_payload: bool = True):
        self.patch = patch
        self.emit_payload = emit_payload

    def __call__(self, batch: pa.Table) -> pa.Table:
        p = self.patch
        ids, rows, cols, blobs, sums = [], [], [], [], []
        for image_id, data in zip(batch["image_id"].to_pylist(),
                                  batch["bytes"].to_pylist()):
            px = decode_image(data)
            h, w, _ = px.shape
            gh, gw = h // p, w // p
            if gh == 0 or gw == 0:
                continue
            grid = px[:gh * p, :gw * p].reshape(gh, p, gw, p, 3) \
                .transpose(0, 2, 1, 3, 4)  # (gh, gw, p, p, 3)
            ids.extend([image_id] * (gh * gw))
            rr, cc = np.divmod(np.arange(gh * gw), gw)
            rows.extend(rr.tolist())
            cols.extend(cc.tolist())
            flat = grid.reshape(gh * gw, p, p, 3)
            sums.extend(flat.reshape(gh * gw, -1)
                        .sum(axis=1, dtype=np.int64).tolist())
            if self.emit_payload:
                blobs.extend(encode_rawz(t) for t in flat)
        out = {
            "image_id": pa.array(ids, pa.string()),
            "patch_row": pa.array(rows, pa.int64()),
            "patch_col": pa.array(cols, pa.int64()),
            "px_sum": pa.array(sums, pa.int64()),
        }
        if self.emit_payload:
            out["bytes"] = pa.array(blobs, pa.binary())
            out["w"] = pa.array([self.patch] * len(ids), pa.int32())
            out["h"] = pa.array([self.patch] * len(ids), pa.int32())
            out["fmt"] = pa.array(["rawz"] * len(ids), pa.string())
        return pa.table(out)


def patchify_images(ds, *, patch: int = 16, emit_payload: bool = True,
                    batch_size: int = 16, **map_kwargs):
    """Dataset stage: image rows -> patch rows.  Small batch_size:
    each input row fans out to (w/p)*(h/p) payload rows."""
    return ds.map_batches(
        PatchifyImagesFn(patch=patch, emit_payload=emit_payload),
        batch_format="pyarrow", batch_size=batch_size, **map_kwargs)


_AUG_NAMES = ("identity", "hflip", "vflip", "rot90", "rot180",
              "rot270", "center_crop")


def apply_augment(px: np.ndarray, aug: str) -> np.ndarray:
    """One deterministic augmentation; pure numpy views where
    possible."""
    if aug == "identity":
        return px
    if aug == "hflip":
        return px[:, ::-1]
    if aug == "vflip":
        return px[::-1]
    if aug == "rot90":
        return np.rot90(px, 1)
    if aug == "rot180":
        return np.rot90(px, 2)
    if aug == "rot270":
        return np.rot90(px, 3)
    if aug == "center_crop":
        h, w, _ = px.shape
        ch, cw = max(h // 2, 1), max(w // 2, 1)
        y0, x0 = (h - ch) // 2, (w - cw) // 2
        return px[y0:y0 + ch, x0:x0 + cw]
    raise ValueError(f"unknown augmentation {aug!r}")


class AugmentImagesFn:
    """Augmentation stage: each image row emits one
    augmented row per requested op (or a deterministic hash-chosen
    subset with ``per_image``), payload re-encoded lossless and the
    op recorded in an ``aug`` column — the training-data augmentation
    fan-out shape.
    """

    def __init__(self, ops=("hflip", "rot90"), per_image: int | None = None):
        for o in ops:
            if o not in _AUG_NAMES:
                raise ValueError(f"unknown augmentation {o!r}")
        self.ops = tuple(ops)
        self.per_image = per_image

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids_in = batch["image_id"].to_pylist()
        blobs_in = batch["bytes"].to_pylist()
        ids, augs, blobs, ws, hs = [], [], [], [], []
        if self.per_image is not None:
            idx = np.array([int(s[3:]) for s in ids_in], np.int64)
            pick0 = image_hash64(idx) % np.uint64(len(self.ops))
        for r, (image_id, data) in enumerate(zip(ids_in, blobs_in)):
            px = decode_image(data)
            if self.per_image is None:
                chosen = self.ops
            else:
                k0 = int(pick0[r])
                chosen = tuple(self.ops[(k0 + t) % len(self.ops)]
                               for t in range(self.per_image))
            for aug in chosen:
                out = np.ascontiguousarray(apply_augment(px, aug))
                ids.append(image_id)
                augs.append(aug)
                blobs.append(encode_rawz(out))
                hs.append(out.shape[0])
                ws.append(out.shape[1])
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "aug": pa.array(augs, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(["rawz"] * len(ids), pa.string()),
        })


def augment_images(ds, *, ops=("hflip", "rot90"),
                   per_image: int | None = None, batch_size: int = 16,
                   **map_kwargs):
    """Dataset stage: image rows -> augmented rows (one per op)."""
    return ds.map_batches(
        AugmentImagesFn(ops=ops, per_image=per_image),
        batch_format="pyarrow", batch_size=batch_size, **map_kwargs)


class EmbedImagesFn:
    """Embedding stage — the CLIP-inference shape.

    A real image-embedding model loads ONCE in ``__init__`` (weights,
    device) and runs a batched forward pass in ``__call__``; this
    container has no model libs, so the forward pass is a
    deterministic stand-in with the same contract: decode -> 32x32
    gray resample -> ``pool x pool`` mean pool -> L2-normalized
    float vector.  Near-duplicate pixels land at cosine ~1, so the
    output drives the engine's embedding-dedup machinery exactly the
    way CLIP vectors would.  Small batch_size keeps payload x
    concurrent tasks inside worker heaps."""

    def __init__(self, pool: int = 8):
        if pool < 1 or 32 % pool != 0:
            raise ValueError("pool must divide 32")
        self.pool = pool
        self.dct = None  # a real model's weights would load here

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        n = len(ids)
        p = self.pool
        step = 32 // p
        out = np.empty((n, p * p))
        for i in range(n):  # decode is inherently per-payload
            px = decode_image(blobs[i])
            g32 = _resample_gray32(px)  # grayscale + 32x32 area pool
            out[i] = g32.reshape(p, step, p, step).mean(
                axis=(1, 3)).reshape(-1)
        norm = np.sqrt((out * out).sum(axis=1, keepdims=True))
        out = out / np.maximum(norm, 1e-12)
        idx = np.array([int(s[3:]) for s in ids], np.int64)
        return pa.table({
            "img_idx": pa.array(idx),
            "embedding": pa.array(out.tolist(),
                                  pa.list_(pa.float64())),
        })


def embed_images(ds, *, pool: int = 8, batch_size: int = 64,
                 **map_kwargs):
    """Dataset stage: image rows -> (img_idx, embedding)."""
    return ds.map_batches(
        EmbedImagesFn(pool=pool), batch_format="pyarrow",
        batch_size=batch_size, **map_kwargs)


def caption_embed_batch(captions, dim: int = 64) -> np.ndarray:
    """Deterministic text-tower stand-in: signed feature-hashed bag of
    words (``\\s+`` tokens; token j adds ±1 at slot fp64(token) % dim,
    sign from the fingerprint's top bit), L2-normalized.  The contract
    a real text encoder slots into — batched forward, unit-norm rows —
    with vectorized token hashing (no per-row Python).  Empty captions
    embed to the zero vector (cosine 0 against everything)."""
    import pyarrow.compute as pc

    from ..functions.text import fingerprint64

    if not isinstance(captions, (pa.Array, pa.ChunkedArray)):
        captions = pa.array(list(captions), pa.string())
    if isinstance(captions, pa.ChunkedArray):
        captions = captions.combine_chunks()
    n = len(captions)
    toks = pc.split_pattern_regex(captions, r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.values
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    if not keep.all():
        flat = flat.take(pa.array(np.flatnonzero(keep)))
        row_of = row_of[keep]
    out = np.zeros((n, dim))
    if len(row_of):
        fp = fingerprint64(flat)
        slot = (fp % np.uint64(dim)).astype(np.int64)
        sign = np.where((fp >> np.uint64(63)).astype(bool), -1.0, 1.0)
        np.add.at(out, (row_of, slot), sign)
    norm = np.sqrt((out * out).sum(axis=1, keepdims=True))
    return out / np.maximum(norm, 1e-12)


class ClipScoreFn:
    """CLIP-score stage: BOTH towers run in one batched
    forward over paired rows — image tower = the :class:`EmbedImagesFn`
    stand-in (decode → 32×32 → pooled, unit norm), text tower =
    :func:`caption_embed_batch` — and the per-row cosine is their dot
    product (both unit vectors).  This is the LAION-style pairing
    filter shape: a real deployment swaps the two stand-ins for CLIP's
    encoders and nothing else changes (state loads once per stage,
    batches stay bounded by payload size).  Scores are quantized to
    exact integers ``floor(score * 2^20)`` so downstream aggregation is
    bit-deterministic and partition-invariant."""

    def __init__(self, pool: int = 8):
        self.img_tower = EmbedImagesFn(pool=pool)
        self.dim = pool * pool

    def __call__(self, batch: pa.Table) -> pa.Table:
        img = self.img_tower(batch)
        iv = np.asarray(img["embedding"].to_pylist())
        tv = caption_embed_batch(batch["caption"], dim=self.dim)
        score = (iv * tv).sum(axis=1)
        q = np.floor(score * (1 << 20)).astype(np.int64)
        return pa.table({
            "img_idx": img["img_idx"],
            "fmt": batch["fmt"],
            "score_q": pa.array(q)})


def clip_scores(ds, *, pool: int = 8, batch_size: int = 64,
                **map_kwargs):
    """Dataset stage: paired image+caption rows -> (img_idx, fmt,
    score_q) with score_q = floor(cosine(img_emb, txt_emb) * 2^20)."""
    return ds.map_batches(
        ClipScoreFn(pool=pool), batch_format="pyarrow",
        batch_size=batch_size, **map_kwargs)


# ---------------------------------------------------------------------------
# detection boxes + non-maximum suppression (the detector-output dedup
# primitive: at training-data scale, NMS is how raw per-image detector
# candidates collapse to a clean label set)
# ---------------------------------------------------------------------------

_BOX_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_BOX_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> np.uint64(33)
    x *= _BOX_MIX1
    x ^= x >> np.uint64(33)
    x *= _BOX_MIX2
    x ^= x >> np.uint64(33)
    return x


def synthesize_boxes(indices: np.ndarray, w: np.ndarray, h: np.ndarray,
                     kb: int = 8):
    """Deterministic detection boxes for image rows: ``kb`` boxes per
    image derived from the image's CRC seed — a pure function of
    (index, w, h), so any chunking or shuffle reproduces identical
    boxes (the same contract as the procedural pixels).  Returns
    (x0, y0, x1, y1, score) int64 arrays of shape (n, kb) with
    4 <= box extent, boxes inside [0,w]x[0,h], scores in [0, 1000)."""
    idx = np.ascontiguousarray(indices, np.int64)
    wid = np.ascontiguousarray(w, np.int64)[:, None]
    hei = np.ascontiguousarray(h, np.int64)[:, None]
    base = image_hash64(idx)[:, None]
    slot = (np.arange(kb, dtype=np.uint64) + np.uint64(1))[None, :]
    hx = _mix64(base * _BOX_MIX2 + slot)
    h2 = _mix64(hx)
    h3 = _mix64(h2)
    h4 = _mix64(h3)
    h5 = _mix64(h4)
    x0 = (hx % np.maximum(wid - 8, 1).astype(np.uint64)).astype(np.int64)
    y0 = (h2 % np.maximum(hei - 8, 1).astype(np.uint64)).astype(np.int64)
    bw = 4 + (h3 % np.maximum(wid // 2, 1).astype(np.uint64)).astype(np.int64)
    bh = 4 + (h4 % np.maximum(hei // 2, 1).astype(np.uint64)).astype(np.int64)
    x1 = np.minimum(x0 + bw, wid)
    y1 = np.minimum(y0 + bh, hei)
    score = (h5 % np.uint64(1000)).astype(np.int64)
    return x0, y0, x1, y1, score


def nms_dense(x0: np.ndarray, y0: np.ndarray, x1: np.ndarray,
              y1: np.ndarray, score: np.ndarray, *,
              thr_num: int = 1, thr_den: int = 2) -> np.ndarray:
    """Greedy non-maximum suppression over DENSE (n_images, kb) box
    arrays, vectorized across images: boxes sort per image by
    (score desc, slot asc — a stable argsort, the deterministic
    tie-break), then kb sequential acceptance rounds each compare one
    sorted slot against every earlier KEPT box with the exact integer
    IoU test ``inter * thr_den > thr_num * union`` (floats never
    decide; coordinates must stay < 2^15 so products fit int64).
    Cost is O(kb^2) vectorized passes over n-length arrays — the
    per-image box count is the small fixed dimension, images are the
    parallel one.  Returns a bool keep mask in ORIGINAL slot order."""
    g, kb = score.shape
    if max(int(np.abs(x1).max(initial=0)),
           int(np.abs(y1).max(initial=0))) >= 1 << 15:
        raise OverflowError("nms_dense: coordinates must be < 2^15")
    order = np.argsort(-score, axis=1, kind="stable")
    ar = np.arange(g)[:, None]
    xs0, ys0 = x0[ar, order], y0[ar, order]
    xs1, ys1 = x1[ar, order], y1[ar, order]
    area = (xs1 - xs0) * (ys1 - ys0)
    keep_s = np.ones((g, kb), bool)
    for s in range(1, kb):
        supp = np.zeros(g, bool)
        for e in range(s):
            iw = np.minimum(xs1[:, s], xs1[:, e]) \
                - np.maximum(xs0[:, s], xs0[:, e])
            ih = np.minimum(ys1[:, s], ys1[:, e]) \
                - np.maximum(ys0[:, s], ys0[:, e])
            inter = np.maximum(iw, 0) * np.maximum(ih, 0)
            union = area[:, s] + area[:, e] - inter
            supp |= keep_s[:, e] & (inter * thr_den > thr_num * union)
        keep_s[:, s] = ~supp
    keep = np.zeros((g, kb), bool)
    keep[ar, order] = keep_s
    return keep


class BoxSumsFn:
    """Map stage composing decode -> integral image -> per-box
    pixel sums for the image's NMS-kept detection boxes: the
    summed-area table makes every box reduction O(1) corner lookups
    after one O(w*h) cumsum per image — the classic trick when MANY
    regions query one image.  Per row emits exact int64 kept-box
    statistics; one probe box per image is re-verified against the
    direct pixel-slice sum in-stage (the corner formula cannot drift).
    """

    def __init__(self, kb: int = 8):
        self.kb = kb

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        n = len(ids)
        idx = np.asarray([int(s[3:]) for s in ids], np.int64)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        x0, y0, x1, y1, sc = synthesize_boxes(idx, w, h, kb=self.kb)
        keep = nms_dense(x0, y0, x1, y1, sc)
        n_kept = keep.sum(axis=1).astype(np.int64)
        kept_sum = np.zeros(n, np.int64)
        kept_max = np.zeros(n, np.int64)
        total = np.zeros(n, np.int64)
        for i in range(n):  # decode is inherently per-payload
            px = decode_image(blobs[i]).astype(np.int64).sum(axis=2)
            ii = np.zeros((px.shape[0] + 1, px.shape[1] + 1), np.int64)
            np.cumsum(np.cumsum(px, axis=0), axis=1, out=ii[1:, 1:])
            total[i] = ii[-1, -1]
            bs = (ii[y1[i], x1[i]] - ii[y0[i], x1[i]]
                  - ii[y1[i], x0[i]] + ii[y0[i], x0[i]])
            probe = int(px[y0[i, 0]:y1[i, 0], x0[i, 0]:x1[i, 0]].sum())
            if probe != int(bs[0]):
                raise AssertionError("integral-image corner formula "
                                     "disagrees with the direct sum")
            kept_sum[i] = bs[keep[i]].sum()
            kept_max[i] = bs[keep[i]].max(initial=0)
        out = batch.drop_columns(["bytes"])
        out = out.append_column("n_kept", pa.array(n_kept))
        out = out.append_column("kept_pixel_sum", pa.array(kept_sum))
        out = out.append_column("max_box_sum", pa.array(kept_max))
        out = out.append_column("image_pixel_sum", pa.array(total))
        return out


def box_pixel_sums(ds, *, kb: int = 8, batch_size: int = 32,
                   **map_kwargs):
    """Dataset stage: decode + integral image + NMS-kept box sums."""
    return ds.map_batches(BoxSumsFn(kb=kb), batch_format="pyarrow",
                          batch_size=batch_size, **map_kwargs)


def blob_stats(mask: np.ndarray) -> tuple[int, int]:
    """(n_blobs, largest_blob_pixels) of a 2-D bool mask under
    4-connectivity — run-based CCL: rows decompose into maximal True
    runs (vectorized), consecutive-row runs union where their column
    intervals overlap (two-pointer via searchsorted), a tiny
    union-find over the RUN graph (runs, not pixels) resolves labels.
    The per-image twin of the tiled polygonize CCL."""
    h, w = mask.shape
    pad = np.zeros((h, w + 2), bool)
    pad[:, 1:-1] = mask
    d = np.diff(pad.view(np.int8), axis=1)
    ri, cs = np.nonzero(d == 1)
    _, ce = np.nonzero(d == -1)
    if len(ri) == 0:
        return 0, 0
    # runs are emitted row-major: starts/ends align pairwise
    starts, ends = cs, ce  # [start, end) in original columns
    row_of = ri
    nruns = len(ri)
    parent = np.arange(nruns)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    row_begin = np.searchsorted(row_of, np.arange(h + 1))
    for r in range(1, h):
        a0, a1 = row_begin[r - 1], row_begin[r]
        b0, b1 = row_begin[r], row_begin[r + 1]
        if a0 == a1 or b0 == b1:
            continue
        i, j = a0, b0
        while i < a1 and j < b1:  # two-pointer interval overlap
            if starts[i] < ends[j] and starts[j] < ends[i]:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            if ends[i] <= ends[j]:
                i += 1
            else:
                j += 1
    roots = np.array([find(i) for i in range(nruns)])
    lens = ends - starts
    sizes = np.bincount(roots, weights=lens.astype(np.float64),
                        minlength=nruns).astype(np.int64)
    labels = np.unique(roots)
    return len(labels), int(sizes[labels].max())


class BlobStatsFn:
    """Map stage: decode -> brightness threshold -> per-image
    connected-component blob statistics (count + largest)."""

    def __init__(self, threshold: int = 384):
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        n = len(blobs)
        nb = np.zeros(n, np.int64)
        lg = np.zeros(n, np.int64)
        for i in range(n):  # decode is inherently per-payload
            px = decode_image(blobs[i]).astype(np.int64).sum(axis=2)
            nb[i], lg[i] = blob_stats(px > self.threshold)
        out = batch.drop_columns(["bytes"])
        out = out.append_column("n_blobs", pa.array(nb))
        out = out.append_column("largest_blob", pa.array(lg))
        return out


class SharpnessFn:
    """Blur/sharpness scoring stage — the LAION-style image
    quality gate: per image the EXACT integer variance numerator of
    the 4-neighbor Laplacian over interior gray pixels (blurry images
    have small high-frequency response).  All arithmetic int64
    (gray = channel sum <= 765, |lap| <= 4*765, lap^2 <= ~9.4e6; the
    per-image sums are guarded), so the score is bit-deterministic —
    division by n^2 stays with the consumer."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        n = len(blobs)
        ns = np.zeros(n, np.int64)
        s1 = np.zeros(n, np.int64)
        s2 = np.zeros(n, np.int64)
        for i in range(n):  # decode is inherently per-payload
            px = decode_image(blobs[i]).astype(np.int64).sum(axis=2)
            lap = (px[:-2, 1:-1] + px[2:, 1:-1] + px[1:-1, :-2]
                   + px[1:-1, 2:] - 4 * px[1:-1, 1:-1])
            m = lap.size
            if m == 0:
                continue
            # n*sumsq and sum^2 both bounded by m^2 * (4*765)^2
            if m * m > (1 << 62) // (4 * 765) ** 2:
                raise OverflowError("sharpness: image too large for "
                                    "exact int64 sums")
            ns[i] = m
            s1[i] = int(lap.sum())
            s2[i] = int((lap * lap).sum())
        out = batch.drop_columns(["bytes"])
        out = out.append_column("lap_n", pa.array(ns))
        out = out.append_column("lap_sum", pa.array(s1))
        out = out.append_column("lap_sumsq", pa.array(s2))
        # exact variance numerator n*sumsq - sum^2 (var = num / n^2)
        out = out.append_column("sharp_num", pa.array(ns * s2 - s1 * s1))
        return out


class QuarantineDecodeFn:
    """Dead-letter decode stage: the fault-tolerant ingestion shape —
    a corrupted payload must NOT kill a 100 TB job, nor silently
    vanish.  Each row decodes under a try; failures emit a
    ``decode_error`` string (the exception's message head) with null
    feature columns, successes a null error — ONE output schema, so
    good rows and the dead-letter channel split downstream with a
    plain filter, never a second scan."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        n = len(blobs)
        mean = np.zeros(n)
        ph = np.zeros(n, np.int64)
        ok = np.zeros(n, bool)
        errs: list = [None] * n
        for i in range(n):  # decode is inherently per-payload
            try:
                px = decode_image(blobs[i])
                mean[i] = px.mean()
                ph[i] = phash64(px)
                ok[i] = True
            except Exception as e:  # noqa: BLE001 — the dead letter
                errs[i] = f"{type(e).__name__}: {str(e)[:80]}"
        out = batch.drop_columns(["bytes"])
        out = out.append_column(
            "mean_px", pa.array(np.where(ok, mean, 0.0), mask=~ok))
        out = out.append_column(
            "phash_decoded", pa.array(np.where(ok, ph, 0), mask=~ok))
        out = out.append_column("decode_error",
                                pa.array(errs, pa.string()))
        return out


# ---------------------------------------------------------------------------
# sharded sample storage (the WebDataset pattern: size-bounded shards +
# a byte-offset index for random access — how training loaders actually
# consume image corpora; the same seek discipline as the geobuf gob
# SubFile index, reference reader.go:277-304)
# ---------------------------------------------------------------------------

_SHARD_MAGIC = b"GSH1"


def write_shards(ds, out_dir: str, *, target_bytes: int = 1 << 20,
                 **map_kwargs) -> "pa.Table":
    """Write image rows into size-bounded shard files, one Ray block
    per writer task (no shuffle): each shard is a flat concatenation
    of payloads and its SIDE-CAR index records (image_id, offset,
    length) — random access never scans.  Shards commit atomically
    (tmp + rename, the checkpoint discipline); returns the manifest
    (shard, n_samples, bytes)."""
    import os
    import uuid

    import ray

    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        shards, counts, sizes = [], [], []
        i = 0
        while i < len(ids):
            name = f"shard-{uuid.uuid4().hex[:12]}"
            buf, idx_rows, start = [], [], 0
            total = 0
            j = i
            while j < len(ids) and (total == 0
                                    or total < target_bytes):
                b = blobs[j]
                idx_rows.append((ids[j], total, len(b)))
                buf.append(b)
                total += len(b)
                j += 1
            data = _SHARD_MAGIC + b"".join(buf)
            tmp = os.path.join(out_dir, name + ".bin.tmp")
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, os.path.join(out_dir, name + ".bin"))
            itbl = pa.table({
                "image_id": pa.array([r[0] for r in idx_rows]),
                "offset": pa.array([r[1] for r in idx_rows],
                                   pa.int64()),
                "length": pa.array([r[2] for r in idx_rows],
                                   pa.int64())})
            import pyarrow.parquet as pq

            tmpx = os.path.join(out_dir, name + ".idx.tmp")
            pq.write_table(itbl, tmpx)
            os.replace(tmpx, os.path.join(out_dir, name + ".idx"))
            shards.append(name)
            counts.append(len(idx_rows))
            sizes.append(total)
            i = j
        return pa.table({"shard": pa.array(shards, pa.string()),
                         "n_samples": pa.array(counts, pa.int64()),
                         "bytes": pa.array(sizes, pa.int64())})

    from ..collect import collect_table

    return collect_table(ds.map_batches(
        write_block, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None, **map_kwargs))


def read_shard_member(out_dir: str, shard: str, image_id: str) -> bytes:
    """Random access: ONE index lookup + ONE byte-range read (seek,
    never a scan) — the SubFile contract for sample shards."""
    import os

    import pyarrow.parquet as pq

    idx = pq.read_table(os.path.join(out_dir, shard + ".idx"))
    ids = idx["image_id"].to_pylist()
    try:
        row = ids.index(image_id)
    except ValueError:
        raise KeyError(f"{image_id!r} not in shard {shard}")
    off = idx["offset"][row].as_py() + len(_SHARD_MAGIC)
    ln = idx["length"][row].as_py()
    with open(os.path.join(out_dir, shard + ".bin"), "rb") as f:
        f.seek(off)
        data = f.read(ln)
    if len(data) != ln:
        raise IOError("short read — shard truncated")
    return data


def equalize_pixels(px: np.ndarray) -> np.ndarray:
    """Classic integer histogram equalization, per channel: LUT(v) =
    floor((cdf(v) - cdf_min) * 255 / (npx - cdf_min)) — every step
    exact integer arithmetic, so the remap is deterministic
    bit-for-bit.  A flat channel (all pixels one value, cdf_min ==
    npx) is pinned to identity.  The LUT is monotone non-decreasing,
    so pixel ORDER is preserved, and any channel with >= 2 distinct
    values stretches to the full [0, 255] span."""
    out = np.empty_like(px)
    npx = px.shape[0] * px.shape[1]
    for c in range(px.shape[2]):
        ch = px[:, :, c]
        hist = np.bincount(ch.reshape(-1), minlength=256)
        cdf = np.cumsum(hist)
        cdf_min = int(cdf[np.flatnonzero(hist)[0]])
        if cdf_min == npx:
            out[:, :, c] = ch
            continue
        lut = ((cdf - cdf_min) * 255 // (npx - cdf_min)) \
            .astype(np.uint8)
        out[:, :, c] = lut[ch]
    return out


class EqualizeImagesFn:
    """Histogram-equalization stage: decode -> exact
    integer per-channel CDF remap (equalize_pixels) -> lossless
    re-encode, with span/variance audit columns.  The contrast-
    normalization prep a vision corpus runs before training when
    sources mix exposure levels.  Per-payload decode in a bounded
    batch; only the re-encoded payload + audit scalars leave."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        n = len(ids)
        cols = {k: np.zeros(n, np.int64)
                for k in ("pre_span", "post_span", "pre_var_num",
                          "post_var_num", "distinct_vals",
                          "nonflat_ch")}
        eq_blobs = []
        for i in range(n):
            px = decode_image(blobs[i])
            eq = equalize_pixels(px)
            eq_blobs.append(encode_rawz(eq))
            g0 = px.astype(np.int64).reshape(-1)
            g1 = eq.astype(np.int64).reshape(-1)
            m = len(g0)
            cols["pre_span"][i] = int(g0.max() - g0.min())
            cols["post_span"][i] = int(g1.max() - g1.min())
            cols["pre_var_num"][i] = int(m * (g0 * g0).sum()
                                         - int(g0.sum()) ** 2)
            cols["post_var_num"][i] = int(m * (g1 * g1).sum()
                                          - int(g1.sum()) ** 2)
            cols["distinct_vals"][i] = len(np.unique(g0))
            cols["nonflat_ch"][i] = sum(
                int(px[:, :, c].max() != px[:, :, c].min())
                for c in range(px.shape[2]))
        out = batch.drop_columns(["bytes"])
        out = out.append_column("bytes_eq",
                                pa.array(eq_blobs, pa.binary()))
        for k, v in cols.items():
            out = out.append_column(k, pa.array(v))
        return out


def trim_margins(px: np.ndarray) -> tuple[int, int, int, int]:
    """Uniform-border (letterbox) margins of one image, the
    crop-to-content rule pinned for replay: top counts leading rows
    every pixel of which equals the [0,0] corner pixel; bottom counts
    trailing rows equal to the [-1,-1] corner; left/right count
    columns of the ROW-TRIMMED region against ITS corner pixels (so a
    full frame is one ring, not rows-then-stale-columns).  A single
    pass removes exactly one uniform ring per side color — nested
    rings of different colors need repeated calls (pinned by test).
    An all-uniform image is BLANK: returns (h, 0, 0, 0)."""
    h, w = px.shape[0], px.shape[1]

    def run_len(eq_rows: np.ndarray) -> int:
        bad = np.flatnonzero(~eq_rows)
        return int(bad[0]) if len(bad) else len(eq_rows)

    top = run_len(np.all(px == px[0, 0], axis=(1, 2)))
    if top == h:
        return h, 0, 0, 0
    bot = run_len(np.all(px == px[-1, -1], axis=(1, 2))[::-1])
    core = px[top:h - bot]
    left = run_len(np.all(core == core[0, 0], axis=(0, 2)))
    right = run_len(np.all(core == core[-1, -1], axis=(0, 2))[::-1])
    return top, bot, left, right


def add_border(px: np.ndarray, top: int, bot: int, left: int,
               right: int, color: int) -> np.ndarray:
    """Constant-gray padding (the letterbox planter)."""
    return np.pad(px, ((top, bot), (left, right), (0, 0)),
                  constant_values=np.uint8(color))


def pixel_checksum(px: np.ndarray) -> int:
    """Order-sensitive exact checksum: sum of pixel value * (1 +
    flat index mod 8191) in int64 — cheap, vectorized, and position
    sensitive so a crop that is off by one row cannot collide."""
    v = px.astype(np.int64).reshape(-1)
    return int((v * (1 + np.arange(len(v), dtype=np.int64) % 8191))
               .sum())


class TrimBordersFn:
    """Crop-to-content stage: decode -> trim_margins ->
    crop -> lossless re-encode, emitting detected margins, trimmed
    dims, a blank flag, and the exact pixel checksum of the cropped
    region.  The letterbox/scan-bar cleanup a vision corpus runs
    before training; bounded batches, only the cropped payload +
    scalars leave the stage."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        n = len(blobs)
        cols = {k: np.zeros(n, np.int64)
                for k in ("trim_top", "trim_bottom", "trim_left",
                          "trim_right", "out_w", "out_h", "blank",
                          "out_checksum")}
        out_blobs = []
        for i in range(n):
            px = decode_image(blobs[i])
            t, b, lft, r = trim_margins(px)
            h, w = px.shape[0], px.shape[1]
            if t == h:  # blank: keep payload, flag it
                cols["blank"][i] = 1
                cols["trim_top"][i] = h
                out_blobs.append(blobs[i])
                cols["out_h"][i], cols["out_w"][i] = h, w
                cols["out_checksum"][i] = pixel_checksum(px)
                continue
            core = px[t:h - b, lft:w - r]
            cols["trim_top"][i] = t
            cols["trim_bottom"][i] = b
            cols["trim_left"][i] = lft
            cols["trim_right"][i] = r
            cols["out_h"][i], cols["out_w"][i] = core.shape[:2]
            cols["out_checksum"][i] = pixel_checksum(core)
            out_blobs.append(encode_rawz(np.ascontiguousarray(core)))
        out = batch.drop_columns(["bytes"])
        out = out.append_column("bytes_trim",
                                pa.array(out_blobs, pa.binary()))
        for k, v in cols.items():
            out = out.append_column(k, pa.array(v))
        return out


def template_8() -> np.ndarray:
    """The global 8x8x3 search template.  Every value is ``8k + 4`` —
    the quantz codec's dequantization bin centers — so a stamped
    template survives BOTH codecs bit-exactly (rawz is lossless;
    quantz maps 8k+4 -> k -> 8k+4) and a planted image matches at
    SAD exactly 0 in either format."""
    i, j, c = np.mgrid[0:8, 0:8, 0:3]
    return (((i * 7 + j * 13 + c * 29) % 32) * 8 + 4).astype(np.uint8)


def planted_template_offset(i: int, w: int, h: int):
    """Deterministic (ox, oy) stamp position for planted row i."""
    return (i * 11) % (w - 8), (i * 17) % (h - 8)


class StampTemplateFn:
    """Corpus-planting stage: rows with index % 7 == 3 get the global
    template stamped at an index-derived offset, re-encoded in the
    row's OWN format.  Emits planted / p_ox / p_oy audit columns the
    matcher never reads — the plant/audit separation the audio
    clipping audit uses."""

    def __init__(self):
        self.t = template_8()

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        ids = batch["image_id"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        n = len(blobs)
        planted = np.zeros(n, np.int64)
        pox = np.full(n, -1, np.int64)
        poy = np.full(n, -1, np.int64)
        out = list(blobs)
        for k in range(n):
            i = int(ids[k][3:])
            if i % 7 != 3:
                continue
            px = decode_image(blobs[k]).copy()
            h, w, _ = px.shape
            ox, oy = planted_template_offset(i, w, h)
            px[oy:oy + 8, ox:ox + 8] = self.t
            out[k] = (encode_quantz(px) if fmts[k] == "quantz"
                      else encode_rawz(px))
            planted[k], pox[k], poy[k] = 1, ox, oy
        res = batch.drop_columns(["bytes"])
        res = res.append_column("bytes", pa.array(out, pa.binary()))
        res = res.append_column("planted", pa.array(planted))
        res = res.append_column("p_ox", pa.array(pox))
        res = res.append_column("p_oy", pa.array(poy))
        return res


class MatchTemplateFn:
    """Template-matching stage: per image the integer SAD surface of
    the global 8x8x3 template over every offset, reporting the
    argmin (row-major first occurrence — pinned tie-break), the
    exact min SAD and the count of zero-SAD offsets.  Vectorized per
    image via a sliding-window view (the abs-diff reduction is the
    only materialized intermediate, O((h-7)(w-7)*192) int16).  The
    matcher reads ONLY pixels + the template — never the plant
    columns."""

    def __init__(self):
        self.t = template_8().astype(np.int16)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from numpy.lib.stride_tricks import sliding_window_view

        blobs = batch["bytes"].to_pylist()
        n = len(blobs)
        bx = np.zeros(n, np.int64)
        by = np.zeros(n, np.int64)
        ms = np.zeros(n, np.int64)
        nz = np.zeros(n, np.int64)
        for k in range(n):
            px = decode_image(blobs[k]).astype(np.int16)
            win = sliding_window_view(px, (8, 8, 3))[:, :, 0]
            sad = np.abs(win - self.t[None, None]).sum(
                axis=(-1, -2, -3), dtype=np.int64)
            flat = int(np.argmin(sad))
            by[k], bx[k] = divmod(flat, sad.shape[1])
            ms[k] = sad.reshape(-1)[flat]
            nz[k] = int((sad == 0).sum())
        out = batch.drop_columns(["bytes"])
        out = out.append_column("best_ox", pa.array(bx))
        out = out.append_column("best_oy", pa.array(by))
        out = out.append_column("min_sad", pa.array(ms))
        out = out.append_column("n_zero_sad", pa.array(nz))
        return out


class OtsuThresholdFn:
    """Otsu binarization stage — the document-image thresholding
    classic: per image the 8-bit gray histogram (gray = channel sum
    // 3) and the threshold t maximizing the between-class variance
    w0*w1*(mu0-mu1)^2, compared as the EXACT rational D(t)^2 / B(t)
    with D = s0*w1 - s1*w0 and B = w0*w1.  D^2 can exceed int64 for
    large images, so the argmax is two-stage: a vectorized float64
    scan shortlists every candidate within 1e-9 relative of the float
    max, then Python big-int cross-multiplication resolves the
    shortlist exactly (ties -> smallest t, pinned).  Emits the
    threshold and exact foreground/background counts."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        n = len(blobs)
        thr = np.zeros(n, np.int64)
        fg = np.zeros(n, np.int64)
        bg = np.zeros(n, np.int64)
        fg_sum = np.zeros(n, np.int64)
        for k in range(n):
            px = decode_image(blobs[k]).astype(np.int64)
            gray = px.sum(axis=2) // 3
            hist = np.bincount(gray.reshape(-1), minlength=256)
            c = np.cumsum(hist)
            s = np.cumsum(hist * np.arange(256, dtype=np.int64))
            npx, S = c[-1], s[-1]
            w0 = c[:-1]
            w1 = npx - w0
            ok = (w0 > 0) & (w1 > 0)
            D = s[:-1] * w1 - (S - s[:-1]) * w0
            B = w0 * w1
            score = np.where(ok, D.astype(np.float64) ** 2
                             / np.maximum(B, 1), -1.0)
            mx = score.max()
            cand = np.flatnonzero(score >= mx * (1 - 1e-9)) \
                if mx > 0 else np.flatnonzero(ok)
            if len(cand) == 0:          # constant image
                thr[k], fg[k], bg[k] = 0, 0, npx
                continue
            best_t, best = -1, (-1, 1)
            for t in cand:              # exact big-int resolve
                a, b = int(D[t]) ** 2, int(B[t])
                if a * best[1] > best[0] * b:
                    best, best_t = (a, b), int(t)
            thr[k] = best_t
            fg[k] = npx - c[best_t]
            bg[k] = c[best_t]
            fg_sum[k] = S - s[best_t]
        out = batch.drop_columns(["bytes"])
        out = out.append_column("otsu_t", pa.array(thr))
        out = out.append_column("n_fg", pa.array(fg))
        out = out.append_column("n_bg", pa.array(bg))
        out = out.append_column("fg_graysum", pa.array(fg_sum))
        return out


class SeamEnergyFn:
    """Minimum-seam analysis stage — the content-aware-resize
    (seam carving) primitive: per image the exact integer gradient
    energy E = |dx gray| + |dy gray| (one-sided differences, edge
    columns/rows replicate — pinned), the classic vertical-seam DP
    M[y][x] = E[y][x] + min(M[y-1][x-1..x+1]) vectorized across
    columns (the only loop is over rows), the minimum seam cost, its
    bottom-row column (ties -> leftmost, pinned) and a
    position-sensitive checksum of the backtracked seam path (ties
    at each backtrack step -> leftmost), plus total energy.  All
    int64-exact, so the seam is bit-stable."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        n = len(blobs)
        cost = np.zeros(n, np.int64)
        col = np.zeros(n, np.int64)
        chk = np.zeros(n, np.int64)
        tot = np.zeros(n, np.int64)
        for i in range(n):
            px = decode_image(blobs[i]).astype(np.int64)
            gray = px.sum(axis=2)
            h, w = gray.shape
            dx = np.abs(np.diff(gray, axis=1))
            dx = np.concatenate([dx, dx[:, -1:]], axis=1)
            dy = np.abs(np.diff(gray, axis=0))
            dy = np.concatenate([dy, dy[-1:, :]], axis=0)
            e = dx + dy
            tot[i] = int(e.sum())
            m = e[0].copy()
            back = np.zeros((h, w), np.int8)
            big = np.int64(1) << 60
            for y in range(1, h):
                left = np.concatenate(([big], m[:-1]))
                right = np.concatenate((m[1:], [big]))
                stack = np.stack([left, m, right])
                # argmin order (left, center, right) -> on ties the
                # LEFTMOST predecessor wins (offset -1 first)
                am = np.argmin(stack, axis=0)
                back[y] = (am - 1).astype(np.int8)
                m = e[y] + stack[am, np.arange(w)]
            c = int(np.argmin(m))
            cost[i] = int(m[c])
            x = c
            s = 0
            for y in range(h - 1, -1, -1):
                s = (s * 1_000_003 + x) % (1 << 61)
                if y > 0:
                    x += int(back[y, x])
            col[i] = c
            chk[i] = s
        out = batch.drop_columns(["bytes"])
        out = out.append_column("seam_cost", pa.array(cost))
        out = out.append_column("seam_col", pa.array(col))
        out = out.append_column("seam_checksum", pa.array(chk))
        out = out.append_column("total_energy", pa.array(tot))
        return out
