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


def read_pages_with_ids(
    input_path: str, columns: list[str] | None = None
) -> rd.Dataset:
    """Column-pruned read that adds the read-time ``doc_id`` (``doc_ids``)
    and the source shard as a ``path`` column — the row provenance the
    dup index's tie pass needs. Deterministic across runs, collision-free
    by construction at any corpus size (no birthday bound), and assigned
    at the scan so no downstream stage ever hashes a string to identify
    a row.

    Shape: shard metadata fans out as (shard, row-group) descriptors; each
    task reads its row groups with pruned columns — the same
    one-task-per-row-group-range parallelism ``read_parquet`` plans, plus
    the id and path columns."""
    import pyarrow.parquet as pq

    items = []
    for si, path in enumerate(list_shards(input_path)):
        md = pq.read_metadata(path)
        off = 0
        for rg in range(md.num_row_groups):
            items.append(
                {"shard": si, "path": path, "rg": rg, "row_off": off}
            )
            off += md.row_group(rg).num_rows
    cols = columns or EXTRACT_COLUMNS

    def read_frag(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq  # worker-side

        tabs = []
        for shard, path, rg, row_off in zip(
            batch["shard"].to_pylist(),
            batch["path"].to_pylist(),
            batch["rg"].to_pylist(),
            batch["row_off"].to_pylist(),
        ):
            t = pq.ParquetFile(path).read_row_group(rg, columns=cols)
            t = t.append_column("doc_id", doc_ids(shard, row_off, t.num_rows))
            t = t.append_column(
                "path", pa.array([path] * t.num_rows, pa.string())
            )
            tabs.append(t)
        return pa.concat_tables(tabs)

    # a handful of row groups per task keeps task count ~= read_parquet's
    return rd.from_items(items).map_batches(
        read_frag, batch_size=4, batch_format="pyarrow"
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
