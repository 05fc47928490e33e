"""Audio/video payload support — the multimodal binary-column shape.

Schema (audio): ``clip_id:string, bytes:binary, sample_rate:int32,
n_samples:int64, fmt:string, transcript:string``.  Video rows reuse the
image table's frame payloads: a "video" is a clip id plus n deterministic
frames; frame-sampling materializes only the sampled frames.

The container has no audio/video libraries (soundfile/ffmpeg absent),
so payloads use deterministic internal encodings that preserve the REAL
pipeline shape (binary in, sample array out, per-row invariant):

- ``fmt="pcmz"``  — lossless: zlib(int16 PCM) + 8-byte header (stands
  in for FLAC/WAV).  Exact sample round-trip.
- ``fmt="ulawz"`` — lossy: 8-bit mu-law companding + zlib (stands in
  for MP3/Opus); reconstruction SNR is bounded below in tests.
- real ``wav``/``mp3`` bytes — decoded via soundfile when importable,
  else a clearly-marked NotImplementedError (STUB per the brief: the
  Ray-side plumbing — schema, batch size, stage signature, output
  layout — is real and tested).

All stages are callable instances run as Ray Data tasks: config in
``__init__`` (built once on the driver, shipped once per operator),
vectorized work per batch, SMALL batch_size because payloads are
large (§ brief: memory-aware binary columns).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

_MAGIC_PCMZ = b"GAp1"
_MAGIC_ULAWZ = b"GAu1"

try:  # pragma: no cover - not present in this container
    import soundfile  # noqa: F401

    _HAVE_SOUNDFILE = True
except ImportError:
    _HAVE_SOUNDFILE = False


def procedural_samples(clip_id: str, n: int, rate: int) -> np.ndarray:
    """Deterministic float32 waveform in [-1, 1] for a clip id."""
    seed = zlib.crc32(clip_id.encode()) & 0xFFFFFFFF
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64) / rate
    out = np.zeros(n)
    for _ in range(3):
        f = rng.uniform(80, 3000)
        a = rng.uniform(0.1, 0.3)
        out += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    out += rng.normal(0, 0.01, n)
    return np.clip(out, -1.0, 1.0).astype(np.float32)


def encode_pcmz(samples: np.ndarray, rate: int) -> bytes:
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    head = _MAGIC_PCMZ + np.array([rate], "<u4").tobytes()
    return head + zlib.compress(pcm.tobytes(), 6)


def _mulaw(x: np.ndarray, mu: float = 255.0) -> np.ndarray:
    return np.sign(x) * np.log1p(mu * np.abs(x)) / np.log1p(mu)


def _mulaw_inv(y: np.ndarray, mu: float = 255.0) -> np.ndarray:
    return np.sign(y) * ((1 + mu) ** np.abs(y) - 1) / mu


def encode_ulawz(samples: np.ndarray, rate: int) -> bytes:
    q = np.clip(np.round((_mulaw(samples) + 1) * 127.5), 0, 255).astype(np.uint8)
    head = _MAGIC_ULAWZ + np.array([rate], "<u4").tobytes()
    return head + zlib.compress(q.tobytes(), 6)


def decode_audio(data: bytes) -> tuple[np.ndarray, int]:
    """binary payload -> (float32 samples, sample_rate)."""
    magic = data[:4]
    if magic in (_MAGIC_PCMZ, _MAGIC_ULAWZ):
        rate = int(np.frombuffer(data[4:8], "<u4")[0])
        body = zlib.decompress(data[8:])
        if magic == _MAGIC_PCMZ:
            return (np.frombuffer(body, "<i2").astype(np.float32) / 32767.0,
                    rate)
        y = np.frombuffer(body, np.uint8).astype(np.float32) / 127.5 - 1.0
        return _mulaw_inv(y).astype(np.float32), rate
    if magic == b"RIFF":  # real WAV: pure-Python RIFF/G.711 codec
        from .wav import decode_wav

        try:
            return decode_wav(data)
        except NotImplementedError:
            # ADPCM/A-law/odd depths the pure decoder declines: use
            # soundfile when available instead of regressing
            if not _HAVE_SOUNDFILE:
                raise
            import io

            import soundfile as sf

            arr, rate = sf.read(io.BytesIO(data), dtype="float32")
            return arr, rate
    if _HAVE_SOUNDFILE:  # pragma: no cover
        import io

        import soundfile as sf

        arr, rate = sf.read(io.BytesIO(data), dtype="float32")
        return arr, rate
    raise NotImplementedError(
        "real compressed-audio codecs (mp3/ogg/flac) need the soundfile "
        "package (absent in this container); WAV has a real pure-Python "
        "codec in io/wav.py, pcmz/ulawz cover the internal shape")


def synthesize_audio_rows(indices, rate: int = 16000) -> pa.Table:
    """Deterministic audio rows for arbitrary indices (chunk-stable)."""
    ids, blobs, rates, lens, fmts, txts = [], [], [], [], [], []
    for i in (int(x) for x in indices):
        rng = np.random.default_rng(77_000_003 + i)
        clip_id = f"clip{i:012d}"
        n = int(rng.integers(rate // 2, rate * 2))  # 0.5-2.0 s
        samples = procedural_samples(clip_id, n, rate)
        lossy = bool(rng.integers(0, 2))
        data = encode_ulawz(samples, rate) if lossy else encode_pcmz(samples, rate)
        ids.append(clip_id)
        blobs.append(data)
        rates.append(rate)
        lens.append(n)
        fmts.append("ulawz" if lossy else "pcmz")
        txts.append(f"synthetic clip {i} tone mix")
    return pa.table({
        "clip_id": pa.array(ids, pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "sample_rate": pa.array(rates, pa.int32()),
        "n_samples": pa.array(lens, pa.int64()),
        "fmt": pa.array(fmts, pa.string()),
        "transcript": pa.array(txts, pa.string()),
    })


def synthesize_audio_dataset(n: int, **map_kwargs):
    """Distributed synthesis: each block makes its own rows."""
    import ray

    ds = ray.data.range(n)

    def gen(batch: pa.Table) -> pa.Table:
        return synthesize_audio_rows(batch["id"].to_numpy(zero_copy_only=False))

    return ds.map_batches(gen, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=64, **map_kwargs)


class AudioFeaturesFn:
    """Map stage: decode + per-clip features.

    Emits duration, RMS level, zero-crossing rate and peak frequency
    (via a power-of-two rFFT on a fixed window) — the
    feature-extraction shape for audio training data.
    ``check_fidelity=True`` additionally regenerates the procedural
    reference waveform per clip and reports codec SNR — a TEST
    invariant (it doubles per-clip cost; production features don't have
    a reference signal)."""

    def __init__(self, fft_window: int = 4096, check_fidelity: bool = False):
        self.window = fft_window
        self.check_fidelity = check_fidelity

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, durs, rms, zcr, peak, snrs = [], [], [], [], [], []
        for clip_id, data in zip(batch["clip_id"].to_pylist(),
                                 batch["bytes"].to_pylist()):
            samples, rate = decode_audio(data)
            n = len(samples)
            ids.append(clip_id)
            durs.append(n / rate)
            rms.append(float(np.sqrt(np.mean(samples ** 2))))
            zcr.append(float(np.mean(np.abs(np.diff(np.signbit(samples))))))
            w = samples[: self.window]
            spec = np.abs(np.fft.rfft(w * np.hanning(len(w))))
            peak.append(float(np.argmax(spec) * rate / (2 * (len(spec) - 1))))
            if self.check_fidelity:
                ref = procedural_samples(clip_id, n, rate)
                err = float(np.mean((samples - ref) ** 2))
                snrs.append(10 * np.log10(np.mean(ref ** 2) / max(err, 1e-12)))
        cols = {
            "clip_id": pa.array(ids, pa.string()),
            "duration_s": pa.array(durs, pa.float64()),
            "rms": pa.array(rms, pa.float64()),
            "zcr": pa.array(zcr, pa.float64()),
            "peak_hz": pa.array(peak, pa.float64()),
        }
        if self.check_fidelity:
            cols["snr_db"] = pa.array(snrs, pa.float64())
        if "src_fmt" in batch.column_names:
            # transcode stages stamp the original format — keep it so
            # downstream rollups can pin per-chain invariants
            cols["src_fmt"] = batch["src_fmt"]
        return pa.table(cols)


class ResampleAudioFn:
    """Map stage: linear-interp resample to a target rate —
    the audio analogue of image resize (payload in, payload out)."""

    def __init__(self, target_rate: int = 8000):
        self.target = target_rate

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, blobs, lens = [], [], []
        for clip_id, data in zip(batch["clip_id"].to_pylist(),
                                 batch["bytes"].to_pylist()):
            samples, rate = decode_audio(data)
            m = max(int(round(len(samples) * self.target / rate)), 1)
            x_new = np.linspace(0, len(samples) - 1, m)
            out = np.interp(x_new, np.arange(len(samples)), samples)
            ids.append(clip_id)
            blobs.append(encode_pcmz(out.astype(np.float32), self.target))
            lens.append(m)
        return pa.table({
            "clip_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "sample_rate": pa.array(
                np.full(len(ids), self.target, np.int32)),
            "n_samples": pa.array(lens, pa.int64()),
        })


# ---------------------------------------------------------------------------
# video: frame sampling over procedural frame payloads
# ---------------------------------------------------------------------------


class SampleVideoFramesFn:
    """Map stage: emit every k-th frame of each clip as an image
    row — frame-sampling materializes ONLY the sampled frames (the
    sparse-decode shape for video training data).  Frames are the image
    module's procedural payloads keyed by (clip, frame)."""

    def __init__(self, every: int = 5, w: int = 32, h: int = 32):
        self.every, self.w, self.h = every, w, h

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import images as im

        ids, frame_ix, blobs = [], [], []
        for clip_id, nframes in zip(batch["clip_id"].to_pylist(),
                                    batch["n_frames"].to_pylist()):
            for f in range(0, int(nframes), self.every):
                fid = f"{clip_id}/f{f:06d}"
                px = im.procedural_pixels(fid, self.w, self.h)
                ids.append(clip_id)
                frame_ix.append(f)
                blobs.append(im.encode_rawz(px))
        return pa.table({
            "clip_id": pa.array(ids, pa.string()),
            "frame": pa.array(frame_ix, pa.int32()),
            "bytes": pa.array(blobs, pa.binary()),
        })


def synthesize_video_index(n: int, **map_kwargs):
    """Clip index rows (clip_id, n_frames) — frames are derived lazily."""
    import ray

    ds = ray.data.range(n)

    def gen(batch: pa.Table) -> pa.Table:
        idx = batch["id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "clip_id": pa.array([f"vid{int(i):012d}" for i in idx]),
            "n_frames": pa.array(
                (idx % 40 + 10).astype(np.int32)),
        })

    return ds.map_batches(gen, batch_format="pyarrow", zero_copy_batch=True,
                          **map_kwargs)


class SilenceSegmentsFn:
    """Map-stage voice-activity-style segmentation: per clip, frame
    RMS against a RELATIVE threshold (half the clip's median frame
    RMS — absolute thresholds break across gain levels), quiet runs of
    at least ``min_run`` frames count as silence segments, their
    complement as active segments.  The run extraction is the same
    diff-of-padded-mask kernel the raster CCL uses."""

    def __init__(self, frame: int = 512, min_run: int = 4):
        self.frame = frame
        self.min_run = min_run

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        n = len(blobs)
        out = {k: np.zeros(n, np.int64)
               for k in ("n_frames", "n_quiet_frames",
                         "n_silence_segs", "n_active_segs")}
        for i in range(n):  # decode is inherently per-payload
            samples, _rate = decode_audio(blobs[i])
            nf = len(samples) // self.frame
            if nf == 0:
                continue
            fr = samples[:nf * self.frame].reshape(nf, self.frame) \
                .astype(np.float64)
            rms = np.sqrt((fr * fr).mean(axis=1))
            thr = 0.5 * np.median(rms)
            quiet = rms < thr
            pad = np.zeros(nf + 2, np.int8)
            pad[1:-1] = quiet
            starts = np.flatnonzero(np.diff(pad) == 1)
            ends = np.flatnonzero(np.diff(pad) == -1)
            runs = ends - starts
            out["n_frames"][i] = nf
            out["n_quiet_frames"][i] = int(quiet.sum())
            out["n_silence_segs"][i] = int((runs >= self.min_run).sum())
            act = ~quiet
            pad[1:-1] = act
            a_st = np.flatnonzero(np.diff(pad) == 1)
            out["n_active_segs"][i] = len(a_st)
        res = batch.drop_columns(["bytes"])
        for k, v in out.items():
            res = res.append_column(k, pa.array(v))
        return res


class NormalizeAudioFn:
    """Map-stage loudness normalization: scale each clip to a target
    RMS (the broadcast-prep step before mixing corpora recorded at
    different gains), clipping guarded — the applied gain caps so the
    peak stays within full scale, and the ACHIEVED rms + gain ship as
    metadata so downstream can audit the cap."""

    def __init__(self, target_rms: float = 0.125):
        self.target = target_rms

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, blobs, rates = [], [], []
        rms_in, rms_out, gains = [], [], []
        for clip_id, data in zip(batch["clip_id"].to_pylist(),
                                 batch["bytes"].to_pylist()):
            samples, rate = decode_audio(data)
            r = float(np.sqrt(np.mean(samples.astype(np.float64) ** 2)))
            if r <= 0:
                g = 1.0
            else:
                g = self.target / r
                peak = float(np.abs(samples).max())
                if peak * g > 0.999:  # clip guard
                    g = 0.999 / peak
            out = (samples.astype(np.float64) * g).astype(np.float32)
            ids.append(clip_id)
            blobs.append(encode_pcmz(out, rate))
            rates.append(rate)
            rms_in.append(r)
            rms_out.append(float(np.sqrt(np.mean(
                out.astype(np.float64) ** 2))))
            gains.append(g)
        return pa.table({
            "clip_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "sample_rate": pa.array(np.asarray(rates, np.int32)),
            "rms_in": pa.array(rms_in, pa.float64()),
            "rms_out": pa.array(rms_out, pa.float64()),
            "gain": pa.array(gains, pa.float64())})


class SceneCutsFn:
    """Map-stage scene-cut detection — the shot-boundary pass every
    video curation pipeline runs before sampling clips.  Frames are
    procedural scene-structured payloads: a clip's frame f belongs to
    scene ``f // period`` and renders as that scene's procedural
    pattern plus a small brightness jitter (``min(px + f % 3, 255)``),
    so consecutive same-scene frames differ by <= 2 gray levels per
    pixel while a scene change swaps the whole pattern.  The detector
    knows NOTHING of the planting: it thresholds the exact integer
    mean-absolute frame delta (``sum|p_t - p_{t-1}| > thr * npx``).
    Frames STREAM through the stage one at a time (only the previous
    frame is held — a long clip costs O(1) frame memory), and only
    per-clip scalars leave the stage."""

    def __init__(self, w: int = 32, h: int = 32, thr: int = 8):
        self.w, self.h, self.thr = w, h, thr

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import images as im

        clips = batch["clip_id"].to_pylist()
        nfr = batch["n_frames"].to_numpy(zero_copy_only=False)
        n = len(clips)
        out = {k: np.zeros(n, np.int64)
               for k in ("n_frames", "n_cuts", "cut_checksum",
                         "n_planted", "planted_checksum", "matched")}
        npx = self.w * self.h
        for i in range(n):
            idx = int(clips[i][3:])
            period = idx % 7 + 4
            frames = int(nfr[i])
            prev = None
            cuts = []
            for f in range(frames):
                scene = f // period
                px = im.procedural_pixels(
                    f"{clips[i]}/s{scene:04d}", self.w, self.h) \
                    .astype(np.int64)
                px = np.minimum(px + f % 3, 255)
                if prev is not None:
                    delta = int(np.abs(px - prev).sum())
                    if delta > self.thr * npx:
                        cuts.append(f)
                prev = px
            planted = list(range(period, frames, period))
            out["n_frames"][i] = frames
            out["n_cuts"][i] = len(cuts)
            out["cut_checksum"][i] = sum(cuts)
            out["n_planted"][i] = len(planted)
            out["planted_checksum"][i] = sum(planted)
            out["matched"][i] = int(cuts == planted)
        return pa.table({"clip_id": batch["clip_id"],
                         **{k: pa.array(v) for k, v in out.items()}})


def longest_true_run(mask: np.ndarray) -> int:
    """Longest run of consecutive True values, vectorized (boundary
    diff of the padded mask — no Python loop over samples)."""
    if not mask.any():
        return 0
    m = np.concatenate(([False], mask, [False]))
    d = np.flatnonzero(np.diff(m.astype(np.int8)))
    return int((d[1::2] - d[0::2]).max())


class AudioClipAuditFn:
    """Clipping / dynamics audit in the exact CODE domain — the
    level-sanity gate an audio corpus runs before training (clipped
    sources distort every downstream feature).  The payload parses
    straight to its integer codes (pcmz: int16 PCM, full scale =
    |v| >= 32767; ulawz: uint8 mu-law, full scale = code 0 or 255) so
    no float round-trip can blur the full-scale test.  Per clip:
    sample count, full-scale count, LONGEST full-scale run (the real
    distortion indicator — isolated peaks are fine, runs are flat-
    topped waves), integer peak and sum-of-squares (crest-factor
    numerators; division stays with the consumer).  Only scalars
    leave the stage."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import zlib as _z

        blobs = batch["bytes"].to_pylist()
        n = len(blobs)
        cols = {k: np.zeros(n, np.int64)
                for k in ("n_codes", "n_clipped", "clip_run",
                          "peak", "sumsq")}
        for i, data in enumerate(blobs):
            magic = data[:4]
            body = _z.decompress(data[8:])
            if magic == _MAGIC_PCMZ:
                v = np.frombuffer(body, "<i2").astype(np.int64)
                full = np.abs(v) >= 32767
                dev = v
            elif magic == _MAGIC_ULAWZ:
                c = np.frombuffer(body, np.uint8).astype(np.int64)
                full = (c == 0) | (c == 255)
                dev = 2 * c - 255  # symmetric deviation, exact ints
            else:
                raise ValueError("unknown audio payload magic")
            cols["n_codes"][i] = len(dev)
            cols["n_clipped"][i] = int(full.sum())
            cols["clip_run"][i] = longest_true_run(full)
            cols["peak"][i] = int(np.abs(dev).max()) if len(dev) else 0
            cols["sumsq"][i] = int((dev * dev).sum())
        out = batch.drop_columns(
            [c for c in ("bytes",) if c in batch.column_names])
        for k, v in cols.items():
            out = out.append_column(k, pa.array(v))
        return out


class MotionEstimateFn:
    """Map-stage global-motion estimation — the block-matching pass
    (the H.264/MPEG motion-search primitive) video curation uses to
    separate static, panning and cut-heavy clips.  Frames are
    procedural PANNING scenes: clip frame f is the w x h crop of one
    large base pattern at offset ``center + f * (vx, vy)`` with the
    per-clip velocity derived from the clip index (|v| <= 1 px/frame,
    so a 49-frame clip stays inside the base).  The estimator knows
    NOTHING of the planting: per consecutive frame pair it scans
    displacement candidates (dy, dx) in [-2,2]^2 in fixed row-major
    order (tie-break pinned, though the noisy pattern makes the true
    displacement's SAD exactly 0 and all others positive) and takes
    the strict argmin of the exact integer SAD over the overlap
    region.  Frames STREAM (only the previous frame is held) and
    only per-clip scalars leave the stage."""

    def __init__(self, w: int = 32, h: int = 32, search: int = 2):
        self.w, self.h, self.search = w, h, search

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import images as im

        clips = batch["clip_id"].to_pylist()
        nfr = batch["n_frames"].to_numpy(zero_copy_only=False)
        n = len(clips)
        w, h, s = self.w, self.h, self.search
        out = {k: np.zeros(n, np.int64)
               for k in ("n_frames", "n_pairs", "n_recovered",
                         "est_vx", "est_vy", "sum_best_sad")}
        for i in range(n):
            idx = int(clips[i][3:])
            vx, vy = idx % 3 - 1, (idx // 3) % 3 - 1
            frames = int(nfr[i])
            base = im.procedural_pixels(
                f"{clips[i]}/pan", w + 100, h + 100).astype(np.int64)
            c0 = 50
            prev = None
            rec = 0
            first = None
            for f in range(frames):
                sx, sy = c0 + f * vx, c0 + f * vy
                px = base[sy:sy + h, sx:sx + w]
                if prev is not None:
                    best = (1 << 62, 0, 0)
                    for dy in range(-s, s + 1):
                        for dx in range(-s, s + 1):
                            y0, y1 = max(0, -dy), h - max(0, dy)
                            x0, x1 = max(0, -dx), w - max(0, dx)
                            sad = int(np.abs(
                                px[y0:y1, x0:x1]
                                - prev[y0 + dy:y1 + dy,
                                       x0 + dx:x1 + dx]).sum())
                            if sad < best[0]:
                                best = (sad, dx, dy)
                    if first is None:
                        first = (best[1], best[2])
                    rec += int((best[1], best[2]) == (vx, vy)
                               and best[0] == 0)
                    out["sum_best_sad"][i] += best[0]
                prev = px
            out["n_frames"][i] = frames
            out["n_pairs"][i] = frames - 1
            out["n_recovered"][i] = rec
            out["est_vx"][i], out["est_vy"][i] = first or (0, 0)
        return pa.table({"clip_id": batch["clip_id"],
                         **{k: pa.array(v) for k, v in out.items()}})


class TranscodeWavFn:
    """Transcode stage: decode each row's payload and
    re-encode as a REAL WAV byte stream (io/wav.py — the public
    RIFF/WAVE wire format).  ``wav_fmt='pcm16'`` is sample-lossless
    for pcmz sources (int16 -> int16); ``'mulaw'`` is the lossy G.711
    chain.  ``src_fmt`` keeps the original format, ``fmt`` becomes
    ``wav-pcm16`` / ``wav-mulaw``."""

    def __init__(self, wav_fmt: str = "pcm16"):
        self.wav_fmt = wav_fmt

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .wav import encode_wav

        blobs = batch["bytes"].to_pylist()
        rates = batch["sample_rate"].to_numpy(zero_copy_only=False)
        out = []
        for data, rate in zip(blobs, rates):
            samples, r = decode_audio(data)
            out.append(encode_wav(samples, int(r or rate),
                                  fmt=self.wav_fmt))
        t = batch.drop_columns(["bytes"])
        t = t.append_column("bytes", pa.array(out, pa.binary()))
        t = t.append_column("src_fmt", t["fmt"])
        return t.set_column(
            t.column_names.index("fmt"), "fmt",
            pa.array([f"wav-{self.wav_fmt}"] * len(out), pa.string()))


def transcode_wav(ds, *, batch_size: int = 32, wav_fmt: str = "pcm16",
                  **map_kwargs):
    """Dataset stage: any audio rows -> the same rows with real WAV
    payloads."""
    return ds.map_batches(
        TranscodeWavFn(wav_fmt=wav_fmt), batch_format="pyarrow",
        batch_size=batch_size, **map_kwargs)
