"""JSONL (newline-delimited JSON) ingest/egress for the pages and
documents tables — the interchange format web corpora commonly arrive in
(WET derivatives, dataset-hub dumps). Parquet remains the scale path
(columnar pruning, row-group filters); this adapter exists so a corpus
can enter/leave the engine without a separate conversion job.

Reference analog: the reference accepts uploads in whatever container the
client posts and normalizes server-side
(``/root/reference/backend/src/main.py:324-489``); here "normalize" means
casting the parsed JSON batch to the canonical Arrow schema inside
``map_batches``, so every downstream stage sees the exact same blocks the
parquet reader would produce.

Binary payloads (``html``) ride as base64 strings in JSONL — JSON has no
raw-bytes type. The decode is a per-row Python loop by necessity (Arrow
ships no base64 kernel); it runs distributed inside map_batches and is
the documented cost of choosing JSONL over Parquet for binary-bearing
tables. Text-only tables (documents) cast fully vectorized.
"""

from __future__ import annotations

import base64

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from .pages import PAGES_SCHEMA

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_chars", pa.int64()),
    ]
)


def _select_cast(batch: pa.Table, schema: pa.Schema, columns: list[str]) -> pa.Table:
    out = {}
    for name in columns:
        typ = schema.field(name).type
        col = batch[name]
        out[name] = col if col.type == typ else pc.cast(col, typ)
    return pa.table(out)


def read_docs_jsonl(
    input_path: str, columns: list[str] | None = None
) -> rd.Dataset:
    """Documents table from *.jsonl / *.jsonl.gz. Columns are pruned
    immediately after parse (JSON is row-oriented — the parse itself
    cannot skip fields, unlike parquet)."""
    cols = columns or [f.name for f in DOCS_SCHEMA]

    def cast(batch: pa.Table) -> pa.Table:
        return _select_cast(batch, DOCS_SCHEMA, cols)

    return rd.read_json(input_path).map_batches(cast, batch_format="pyarrow")


def read_pages_jsonl(
    input_path: str, columns: list[str] | None = None
) -> rd.Dataset:
    """Pages table from JSONL: ``html`` arrives base64-encoded, ``warc_ts``
    as an ISO-8601 string; both are restored to the canonical Arrow types
    (large_binary / timestamp[us, UTC]) so downstream stages are
    indistinguishable from the parquet path."""
    cols = columns or ["url", "warc_ts", "html", "lang"]

    def decode_or_none(v: str | None) -> bytes | None:
        # swallow-and-flag contract: a malformed base64 payload becomes a
        # null html cell (the sniff stage flags the row) instead of
        # poisoning the whole batch
        if v is None:
            return None
        try:
            return base64.b64decode(v, validate=True)
        except (ValueError, TypeError):
            return None

    def cast(batch: pa.Table) -> pa.Table:
        out = {}
        for name in cols:
            col = batch[name]
            if name == "html":
                out[name] = pa.array(
                    [decode_or_none(v) for v in col.to_pylist()],
                    pa.large_binary(),
                )
            elif name == "warc_ts":
                out[name] = pc.cast(
                    col, PAGES_SCHEMA.field("warc_ts").type
                )
            else:
                out[name] = pc.cast(col, PAGES_SCHEMA.field(name).type)
        return pa.table(out)

    return rd.read_json(input_path).map_batches(cast, batch_format="pyarrow")


def write_pages_jsonl(ds: rd.Dataset, output_path: str) -> None:
    """Pages egress: binary html -> base64 string, timestamp -> ISO string
    (the inverse of read_pages_jsonl, roundtrip-exact)."""

    def encode(batch: pa.Table) -> pa.Table:
        out = {}
        for name in batch.column_names:
            col = batch[name]
            if pa.types.is_large_binary(col.type) or pa.types.is_binary(col.type):
                out[name] = pa.array(
                    [
                        None
                        if v is None
                        else base64.b64encode(v).decode("ascii")
                        for v in col.to_pylist()
                    ],
                    pa.string(),
                )
            elif pa.types.is_timestamp(col.type):
                # arrow %S already carries fractional seconds
                out[name] = pc.strftime(col, format="%Y-%m-%dT%H:%M:%S%z")
            else:
                out[name] = col
        return pa.table(out)

    ds.map_batches(encode, batch_format="pyarrow").write_json(output_path)


def read_docs_csv(
    input_path: str, columns: list[str] | None = None
) -> rd.Dataset:
    """Documents table from *.csv — the third interchange format next to
    parquet (scale path) and JSONL. Same normalize-to-canonical-schema
    contract: downstream stages see blocks identical to the parquet
    reader's. CSV carries no types, so every column is cast explicitly;
    binary-bearing tables (pages) are NOT supported as CSV on purpose —
    use JSONL (base64) or parquet."""
    cols = columns or [f.name for f in DOCS_SCHEMA]

    def cast(batch: pa.Table) -> pa.Table:
        return _select_cast(batch, DOCS_SCHEMA, cols)

    return rd.read_csv(input_path).map_batches(cast, batch_format="pyarrow")
