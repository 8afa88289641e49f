"""Pages-table readers: prune at the read.

Reference analog: the ingest + storage surface (SURVEY.md §2.1). The
reference's upload endpoint / local FS / S3 writers
(``/root/reference/backend/src/main.py:324-489``, ``:401-431``) collapse
here into "the corpus IS a Parquet table": ``read_parquet`` accepts local
dirs or ``s3://`` URIs unchanged, so the reference's S3 key scheme
(``projects/{p}/documents/{d}/v1/{name}``, ``main.py:404-418``) becomes a
path prefix. The shared-volume + Redis-lock file coordinator
(``backend/src/file_coordinator.py:37-79``) is obsolete: payload bytes
travel inside Arrow blocks through the object store.

Scale rules enforced here:
* columns are ALWAYS pruned to what the consumer asked for (a read that
  loads the 5-column table for a 2-column transform is wrong);
* row filters push down to parquet row groups via dataset filter
  expressions (lang/url-prefix predicates never leave storage).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("html", pa.large_binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

EXTRACT_COLUMNS = ["url", "warc_ts", "html", "lang"]


def read_pages(input_path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Column-pruned read; default drops the carried-through WET ``text``."""
    return rd.read_parquet(input_path, columns=columns or EXTRACT_COLUMNS)


def read_pages_filtered(
    input_path: str,
    *,
    lang: str | None = None,
    url_prefix: str | None = None,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Predicate-pushdown read: lang equality prunes row groups at the
    scan (parquet statistics); url_prefix applies as a scan filter."""
    expr = None
    if lang is not None:
        expr = pc.field("lang") == lang
    if url_prefix is not None:
        pre = (pc.field("url") >= url_prefix) & (
            pc.field("url") < url_prefix + "￿"
        )
        expr = pre if expr is None else (expr & pre)
    return rd.read_parquet(
        input_path, columns=columns or EXTRACT_COLUMNS, filter=expr
    )


_SHARD_ID_BITS = 40  # rows-per-shard budget: 2^40 ≈ 1.1e12 rows/shard


def doc_ids(shard: int, row_off: int, n: int) -> pa.Array:
    """The COLLISION-FREE read-time doc ids ``(shard << 40) | row`` of rows
    ``row_off .. row_off + n`` of input shard ``shard`` (shard index over
    the canonical sorted shard list, row index in file order). The one
    place the layout lives: parquet reads, checkpoint partitions and WARC
    archives all call it, so the ids agree across sources and modes.
    Raises when the shard index or a row falls outside the 63-bit layout."""
    import numpy as np

    if not 0 <= shard < (1 << (63 - _SHARD_ID_BITS)):
        raise ValueError(f"shard index {shard} is outside the doc-id layout")
    if row_off + n > (1 << _SHARD_ID_BITS):
        raise ValueError(f"shard {shard} exceeds 2^{_SHARD_ID_BITS} rows")
    return pa.array(
        (shard << _SHARD_ID_BITS) + row_off + np.arange(n, dtype=np.int64),
        pa.int64(),
    )


def list_shards(input_path: str) -> list[str]:
    """Canonical shard listing: sorted top-level *.parquet files of a dir,
    or the single file itself. Shared by grouping, key scans and metadata
    row counts so every consumer sees the same file set."""
    import glob as _glob
    import os as _os

    if _os.path.isdir(input_path):
        return sorted(_glob.glob(_os.path.join(input_path, "*.parquet")))
    return [input_path]


def count_rows(input_path: str) -> int:
    """Total rows of the ``list_shards`` file set, from parquet footers."""
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in list_shards(input_path))
