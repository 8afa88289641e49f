"""Sniff + partition-assignment stage (fully vectorized).

Reference analog: extension/magic routing at ingest
(``/root/reference/backend/src/main.py:366-399``). The reference has no data
partitioning (Celery round-robin, SURVEY.md §4); here every row gets a
deterministic ``partition_id = crc32(url) % P`` — the url-hash partitioning
key reused by dedup, output bucketing and resume manifests.

All three discriminators are pyarrow.compute kernels over the binary
column (zero-copy): ``%PDF-`` prefix, zero length, and the HTML test
(optional ASCII whitespace then ``<`` within the first 256 bytes) as one
RE2 regex — semantically identical to ``kernels.sniff.sniff_bytes`` (the
oracle path), which pytest asserts row-for-row.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_HTML_HEAD_RE = b"^(?:\xef\xbb\xbf)?[ \t\r\n\x0c]*<"


def url_partition_ids(urls: pa.ChunkedArray | pa.Array, n_partitions: int) -> pa.Array:
    """Deterministic partition id per url (crc32 mod P) — stable across
    processes/runs, required for resume manifests."""
    ids = np.fromiter(
        (zlib.crc32(u.encode()) % n_partitions for u in urls.to_pylist()),
        dtype=np.int32,
        count=len(urls),
    )
    return pa.array(ids, pa.int32())


# the SHARED magic tuple (kernels.sniff) checked with vectorized
# starts_with, not RE2: several magics are invalid UTF-8 and RE2 patterns
# must be valid UTF-8. Importing keeps scalar and vectorized sniffers from
# drifting when a format is added.
from ..kernels.sniff import _IMAGE_PREFIXES as _IMG_PREFIXES  # noqa: E402


def sniff_table(batch: pa.Table) -> pa.Array:
    """content_type column for a pages batch, pure pyarrow.compute."""
    payload = batch["html"]
    if isinstance(payload, pa.ChunkedArray):
        payload = payload.combine_chunks()
    n = len(payload)
    null_mask = pc.is_null(payload).to_numpy(zero_copy_only=False)
    safe = payload.fill_null(b"") if null_mask.any() else payload
    is_pdf = pc.starts_with(safe, pattern=b"%PDF-").to_numpy(zero_copy_only=False)
    lengths = pc.binary_length(safe).to_numpy(zero_copy_only=False)
    is_empty = (lengths == 0) | null_mask
    heads = pc.binary_slice(safe, 0, 256)
    is_html = pc.match_substring_regex(heads, pattern=_HTML_HEAD_RE).to_numpy(
        zero_copy_only=False
    )
    # image magics (mirrors kernels.sniff._is_image; property-tested equal)
    is_image = np.zeros(n, dtype=bool)
    for magic in _IMG_PREFIXES:
        is_image |= pc.starts_with(safe, pattern=magic).to_numpy(
            zero_copy_only=False
        )
    is_webp = (
        pc.starts_with(safe, pattern=b"RIFF").to_numpy(zero_copy_only=False)
        & pc.equal(pc.binary_slice(safe, 8, 12), b"WEBP").to_numpy(
            zero_copy_only=False
        )
    )
    is_bmp = (
        pc.starts_with(safe, pattern=b"BM").to_numpy(zero_copy_only=False)
        & pc.equal(
            pc.binary_slice(safe, 6, 10), b"\x00\x00\x00\x00"
        ).to_numpy(zero_copy_only=False)
    )
    is_image |= is_webp | is_bmp
    ctypes = np.full(n, "unknown", dtype=object)
    ctypes[is_html] = "html"
    ctypes[is_image] = "image"  # image wins over html (disjoint magics)
    ctypes[is_empty] = "empty"
    ctypes[is_pdf] = "pdf"  # pdf wins over the html regex, as in sniff_bytes
    return pa.array(ctypes, pa.string())


def sniff_and_partition(batch: pa.Table, *, n_partitions: int = 32) -> pa.Table:
    """Add ``content_type`` + ``partition_id`` columns."""
    out = batch.append_column("content_type", sniff_table(batch))
    return out.append_column(
        "partition_id", url_partition_ids(batch["url"], n_partitions)
    )
