"""Multimodal columns: image/audio/video as opaque binary + typed metadata.

The reference accepts image uploads (``/root/reference/backend/src/main.py:
367-379``: jpg/jpeg/png/gif/bmp/tiff/webp) and routes them to OCR/vision
extractors; rasterization happens at dpi=200 (``tesseract_extractor.py:33``).
This module provides the Ray-side plumbing for media processing at corpus
scale — schema, batch sizing, actor-pool stages, output layout — with the
codec work STUBBED (no PIL/ffmpeg in this image): each stage either raises
``NotImplementedError`` (``decode_real=True``; ``ImageDecode`` decodes PNG
for real and flags the rows it cannot decode) or computes a deterministic
fake derived from the bytes, so pipelines and tests exercise the full
dataflow.

Memory note: media payloads dwarf text — stages here default to small
``batch_size`` (8) and ``large_binary`` columns; at 100 TB the same layout
streams because a batch x pool bound is what the object store sees.

MEDIA_SCHEMA:
    media_id: string        key
    media_type: string      'image' | 'audio' | 'video'
    payload: large_binary   opaque encoded bytes
    meta: struct<width int32, height int32, duration_ms int64, codec string>
"""

from __future__ import annotations

import hashlib
import struct as _struct

import numpy as np
import pyarrow as pa

import ray.data as rd

META_TYPE = pa.struct(
    [
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("duration_ms", pa.int64()),
        ("codec", pa.string()),
    ]
)

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("media_type", pa.string()),
        ("payload", pa.large_binary()),
        ("meta", META_TYPE),
    ]
)

DEFAULT_MEDIA_BATCH_SIZE = 8  # payload-heavy rows: keep batch x pool bounded


def _det_floats(payload: bytes, n: int) -> np.ndarray:
    """Deterministic pseudo-features from bytes (stand-in for a model)."""
    h = hashlib.sha256(payload).digest()
    seed = _struct.unpack("<Q", h[:8])[0] % (2**31)
    rng = np.random.RandomState(seed)
    return rng.standard_normal(n).astype(np.float32)


class ImageDecode:
    """payload -> dims + codec + thumbnail bytes. Dimensions are REAL for
    png/jpeg/gif/bmp/webp/tiff payloads (stdlib header parse,
    ``kernels/image_headers.py`` — the reference's accepted-upload set,
    ``main.py:367-379``); unrecognized bytes fall back to deterministic
    fake dims with codec="".

    ``decode_real=True``: PNG payloads get a REAL pixel decode
    (``kernels/png_decode.py`` — zlib inflate + unfilter, stdlib only) and
    the thumbnail is the nearest-neighbor downsample re-encoded as PNG
    bytes. A payload it cannot decode — a non-PNG codec (JPEG/WEBP entropy
    decode needs a codec library absent from this environment), a PNG
    variant the kernel does not implement (16-bit, Adam7 interlace) or
    corrupt bytes — yields a FLAGGED row, never a failed batch: header dims
    when the header parses (else 0), a null thumbnail and the reason in
    ``error``, which is null on every decoded row."""

    def __init__(self, decode_real: bool = False, max_side: int = 256):
        self.decode_real = decode_real
        self.max_side = max_side

    def _decode(self, p: bytes, parsed) -> tuple[str, int, int, bytes]:
        from ..kernels.png_decode import png_decode, png_encode, thumbnail

        if parsed is None or parsed[0] != "png":
            raise NotImplementedError(
                "real pixel decode is implemented for PNG only "
                f"(got {parsed[0] if parsed else 'unknown'})"
            )
        img = png_decode(p)
        th = png_encode(thumbnail(img, self.max_side))
        return "png", int(img.shape[1]), int(img.shape[0]), th

    def __call__(self, batch: pa.Table) -> pa.Table:
        import zlib

        from ..kernels.image_headers import image_dims

        rows: list[tuple[str, int, int, bytes | None, str | None]] = []
        for p in batch["payload"].to_pylist():
            parsed = image_dims(p)
            if self.decode_real:
                try:
                    rows.append((*self._decode(p, parsed), None))
                except (NotImplementedError, ValueError, zlib.error, _struct.error) as e:
                    codec, w, h = parsed or ("", 0, 0)
                    rows.append((codec, w, h, None, f"{type(e).__name__}: {e}"))
                continue
            digest = hashlib.md5(p).digest()
            if parsed is not None:
                codec, w, h = parsed
            else:  # deterministic fake, flagged by the empty codec
                codec = ""
                w = int.from_bytes(digest[:2], "little") % 4096 + 16
                h = int.from_bytes(digest[2:4], "little") % 4096 + 16
            rows.append((codec, w, h, digest, None))
        codecs, widths, heights, thumbs, errors = zip(*rows) if rows else [()] * 5
        return pa.table(
            {
                "media_id": batch["media_id"],
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "codec": pa.array(codecs, pa.string()),
                "thumb": pa.array(thumbs, pa.large_binary()),
                "error": pa.array(errors, pa.string()),
            }
        )


class ImageEmbed:
    """payload -> feature vector (list<float32>). STUB model; the actor
    pattern (weights load in __init__, batched inference in __call__) is
    the real contract."""

    def __init__(self, dim: int = 64, decode_real: bool = False):
        self.dim = dim
        self.decode_real = decode_real
        # model load would happen here, once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode_real:
            raise NotImplementedError("no vision model in this environment")
        feats = [
            _det_floats(p, self.dim)
            for p in batch["payload"].to_pylist()
        ]
        return pa.table(
            {
                "media_id": batch["media_id"],
                "embedding": pa.array(
                    [f.tolist() for f in feats], pa.list_(pa.float32())
                ),
            }
        )


class AudioFeatures:
    """audio payload -> framewise MFCC-style features, mean-pooled to one
    vector per clip + a duration estimate. STUB: real decode needs
    ffmpeg/soundfile (absent); the fake derives a deterministic per-frame
    feature matrix from byte-range hashes so frame count scales with
    payload size like a real codec's output would."""

    def __init__(
        self,
        dim: int = 13,
        bytes_per_frame: int = 4096,
        decode_real: bool = False,
    ):
        self.dim = dim
        self.bytes_per_frame = bytes_per_frame
        self.decode_real = decode_real
        # codec/feature-extractor init would happen here, once per worker

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode_real:
            raise NotImplementedError(
                "audio decode requires ffmpeg/soundfile, not present in "
                "this environment; run with decode_real=False for the "
                "deterministic fake"
            )
        ids, n_frames, feats = [], [], []
        for mid, p in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            k = max(1, len(p) // self.bytes_per_frame)
            frame_feats = np.stack(
                [
                    _det_floats(
                        p[i * self.bytes_per_frame : (i + 1) * self.bytes_per_frame],
                        self.dim,
                    )
                    for i in range(k)
                ]
            )
            ids.append(mid)
            n_frames.append(k)
            feats.append(frame_feats.mean(axis=0))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "n_frames": pa.array(n_frames, pa.int32()),
                "features": pa.array(
                    [f.tolist() for f in feats], pa.list_(pa.float32())
                ),
            }
        )


class FrameSample:
    """video payload -> k evenly-spaced frame rows (flat-map shape: output
    rows > input rows). STUB: frames are deterministic byte slices standing
    in for decoded frames."""

    def __init__(self, k: int = 4, decode_real: bool = False):
        self.k = k
        self.decode_real = decode_real

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode_real:
            raise NotImplementedError("no ffmpeg in this environment")
        ids, idxs, frames = [], [], []
        for mid, p in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            n = max(len(p), 1)
            for i in range(self.k):
                lo = (n * i) // self.k
                hi = (n * (i + 1)) // self.k
                ids.append(mid)
                idxs.append(i)
                frames.append(hashlib.md5(p[lo:hi]).digest())
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "frame_idx": pa.array(idxs, pa.int32()),
                "frame": pa.array(frames, pa.large_binary()),
            }
        )


def media_pipeline(
    ds: rd.Dataset,
    stage_cls,
    *,
    concurrency: int | tuple[int, int] = 2,
    batch_size: int = DEFAULT_MEDIA_BATCH_SIZE,
    **kwargs,
) -> rd.Dataset:
    """Attach a media stage as an actor-pool map_batches."""
    return ds.map_batches(
        stage_cls,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def synthetic_media_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic fake media corpus for tests (no codecs needed)."""
    rng = np.random.RandomState(seed)
    ids, types, payloads, metas = [], [], [], []
    for i in range(n):
        kind = ("image", "audio", "video")[i % 3]
        size = int(rng.randint(200, 4000))
        payloads.append(rng.bytes(size))
        ids.append(f"media-{i:06d}")
        types.append(kind)
        metas.append(
            {
                "width": int(rng.randint(16, 4096)) if kind == "image" else 0,
                "height": int(rng.randint(16, 4096)) if kind == "image" else 0,
                "duration_ms": int(rng.randint(1000, 600000))
                if kind != "image"
                else 0,
                "codec": {"image": "png", "audio": "opus", "video": "h264"}[kind],
            }
        )
    return pa.table(
        {
            "media_id": pa.array(ids, pa.string()),
            "media_type": pa.array(types, pa.string()),
            "payload": pa.array(payloads, pa.large_binary()),
            "meta": pa.array(metas, META_TYPE),
        }
    )
