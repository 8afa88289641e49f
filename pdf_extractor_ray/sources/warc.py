"""WARC source/sink for the pages table — the native Common-Crawl
interchange format (ISO 28500 WARC/1.0). The reader turns a directory of
``.warc`` / ``.warc.gz`` files into the canonical pages Dataset
(url, warc_ts, html, text, lang) so the flagship extraction pipeline runs
unchanged over raw crawl archives; the writer emits standards-shaped
response records for fixtures and egress.

Shape: ``rd.read_binary_files`` fans one task per archive file (WARC has
no random access; a crawl shards into many archive files, which is the
parallelism unit — exactly how Common Crawl distributes segments).
Record parsing is a single sequential scan per file: header block up to
CRLFCRLF, ``Content-Length`` bytes of payload, CRLFCRLF separator.
Response records carry an HTTP envelope; the body after the HTTP header
block becomes ``html``. ``.warc.gz`` uses the Common-Crawl member-per-
record gzip convention (any member layout works — the decompressor
iterates members via ``unused_data``). Malformed records are skipped
(swallow-and-flag contract: the rest of the archive still loads); a
malformed FILE yields its parseable prefix.

Reference analog: multipart upload ingest normalization
(``/root/reference/backend/src/main.py:324-489``) — same contract as the
JSONL/CSV/IPC adapters: every batch is cast to the canonical schema so
downstream stages are indistinguishable from the parquet path.
"""

from __future__ import annotations

import re
import zlib
from glob import glob

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..corpus import PAGES_SCHEMA
from .pages import doc_ids

_HDR_SPLIT = b"\r\n\r\n"
# horizontal whitespace ONLY around header values: \s would cross the
# CRLF into the next header line when a value is empty/whitespace
_URI_RE = re.compile(rb"^WARC-Target-URI:[ \t]*(.+?)[ \t\r]*$", re.M | re.I)
_DATE_RE = re.compile(rb"^WARC-Date:[ \t]*(.+?)[ \t\r]*$", re.M | re.I)
_TYPE_RE = re.compile(rb"^WARC-Type:[ \t]*(.+?)[ \t\r]*$", re.M | re.I)
_CLEN_RE = re.compile(rb"^Content-Length:[ \t]*(\d+)[ \t\r]*$", re.M | re.I)


def _gunzip_members(data: bytes) -> bytes:
    """Concatenated gzip members -> concatenated plain bytes."""
    out = []
    while data:
        d = zlib.decompressobj(16 + zlib.MAX_WBITS)
        out.append(d.decompress(data))
        out.append(d.flush())
        if not d.unused_data or d.unused_data == data:
            break
        data = d.unused_data
    return b"".join(out)


def _iso_to_us(iso: str) -> int | None:
    """WARC-Date (ISO-8601 Zulu) -> epoch microseconds, None if bad."""
    from datetime import datetime, timezone

    try:
        dt = datetime.fromisoformat(iso.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp() * 1_000_000)
    except ValueError:
        return None


def _parse_warc(
    data: bytes, want_type: bytes = b"response", with_spans: bool = False
) -> list[tuple]:
    """(url, warc_ts_us, payload) per record of ``want_type``. Sequential
    scan; malformed records are skipped, a truncated tail is dropped.
    ``response`` payloads get their HTTP envelope stripped; other types
    (``conversion`` = WET text) carry the payload bare. With
    ``with_spans`` each row gains (record_offset, record_length) — the
    byte span of the whole record in the plain stream, sized so that
    ``data[off : off + length]`` re-parses to exactly that record (the
    CDX random-access contract)."""
    rows: list[tuple] = []
    pos = 0
    n = len(data)
    while pos < n:
        start = data.find(b"WARC/", pos)
        if start == -1:
            break
        hdr_end = data.find(_HDR_SPLIT, start)
        if hdr_end == -1:
            break
        header = data[start:hdr_end]
        cm = _CLEN_RE.search(header)
        if cm is None:
            pos = hdr_end + 4
            continue
        clen = int(cm.group(1))
        body_start = hdr_end + 4
        body_end = body_start + clen
        if body_end > n:
            break  # truncated record
        body = data[body_start:body_end]
        pos = body_end
        tm = _TYPE_RE.search(header)
        if tm is None or tm.group(1).lower() != want_type:
            continue  # warcinfo/request/metadata records carry no page
        um = _URI_RE.search(header)
        if um is None:
            continue
        url = um.group(1).decode("utf-8", "replace")
        dm = _DATE_RE.search(header)
        ts = _iso_to_us(dm.group(1).decode("ascii", "replace")) if dm else None
        if want_type == b"response":
            # response payload = HTTP envelope + body; the body after the
            # HTTP header block is the page bytes (no envelope -> whole)
            split = body.find(_HDR_SPLIT)
            body = (
                body[split + 4 :]
                if split != -1 and body[:5] in (b"HTTP/",)
                else body
            )
        if with_spans:
            rows.append((url, ts, body, start, body_end - start))
        else:
            rows.append((url, ts, body))
    return rows


def read_pages_warc(
    input_path: str, *, assign_doc_ids: bool = False
) -> rd.Dataset:
    """Pages Dataset from a directory of ``*.warc`` / ``*.warc.gz`` files
    (or one file). ``text`` / ``lang`` are absent from WARC and arrive as
    nulls — exactly like a parquet corpus with null columns.
    ``assign_doc_ids``: add the collision-free read-time id
    ``doc_id = (archive_index << 40) | record_index`` (archive index over
    the sorted file list — ``pages.doc_ids``, the layout parquet shards
    use, with an archive standing for a shard and a record for a row)."""
    paths = sorted(glob(f"{input_path}/*.warc*")) or [input_path]
    file_idx = {p: i for i, p in enumerate(paths)}

    def parse(batch: pa.Table) -> pa.Table:
        urls: list[str] = []
        tss: list[int | None] = []
        htmls: list[bytes] = []
        ids: list[pa.Array] = []
        for path, data in zip(
            batch["path"].to_pylist(), batch["bytes"].to_pylist()
        ):
            # detect gzip by MAGIC, not extension: ray's read_binary_files
            # auto-decompresses *.gz via the arrow filesystem layer, so a
            # .warc.gz may arrive either way (and hand-built readers pass
            # raw bytes)
            if data[:2] == b"\x1f\x8b":
                try:
                    data = _gunzip_members(data)
                except zlib.error:
                    continue  # malformed archive: skip file, keep batch
            records = _parse_warc(data)
            for url, ts, html in records:
                urls.append(url)
                tss.append(ts)
                htmls.append(html)
            if assign_doc_ids:
                ids.append(doc_ids(file_idx.get(path, 0), 0, len(records)))
        cols = {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us", tz="UTC")),
            "html": pa.array(htmls, pa.large_binary()),
            "text": pa.nulls(len(urls), pa.string()),
            "lang": pa.nulls(len(urls), pa.string()),
        }
        if assign_doc_ids:
            cols["doc_id"] = pa.concat_arrays(ids or [pa.array([], pa.int64())])
        return pa.table(cols)

    return rd.read_binary_files(paths, include_paths=True).map_batches(
        parse, batch_format="pyarrow"
    )


def write_pages_warc(
    pages: pa.Table, path: str, *, gzip_members: bool = False
) -> int:
    """Pages table -> ONE standards-shaped WARC file (fixture / egress
    helper; shard upstream for parallel writes). Returns records written."""
    import gzip as _gzip

    recs: list[bytes] = []
    urls = pages["url"].to_pylist()
    tss = pc.cast(pages["warc_ts"], pa.int64()).to_pylist()
    htmls = pages["html"].to_pylist()
    for url, ts_us, html in zip(urls, tss, htmls):
        html = html or b""
        from datetime import datetime, timezone

        iso = datetime.fromtimestamp(
            (ts_us or 0) / 1_000_000, tz=timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%SZ")
        http = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: "
            + str(len(html)).encode()
            + b"\r\n\r\n"
            + html
        )
        header = (
            b"WARC/1.0\r\n"
            b"WARC-Type: response\r\n"
            b"WARC-Target-URI: " + url.encode("utf-8") + b"\r\n"
            b"WARC-Date: " + iso.encode() + b"\r\n"
            b"Content-Type: application/http; msgtype=response\r\n"
            b"Content-Length: " + str(len(http)).encode() + b"\r\n"
        )
        rec = header + b"\r\n" + http + b"\r\n\r\n"
        recs.append(_gzip.compress(rec) if gzip_members else rec)
    with open(path, "wb") as f:
        f.write(b"".join(recs))
    return len(recs)


# ---------------------------------------------------------------------------
# WET (extracted-text conversion records) — the Common-Crawl companion
# product to WARC: what a crawl's extraction tier PUBLISHES. WARC in,
# WET out completes the tier's native interchange loop.
# ---------------------------------------------------------------------------


def _wet_record(url: str, ts_us: int | None, text: str) -> bytes:
    from datetime import datetime, timezone

    iso = datetime.fromtimestamp(
        (ts_us or 0) / 1_000_000, tz=timezone.utc
    ).strftime("%Y-%m-%dT%H:%M:%SZ")
    body = text.encode("utf-8")
    header = (
        b"WARC/1.0\r\n"
        b"WARC-Type: conversion\r\n"
        b"WARC-Target-URI: " + url.encode("utf-8") + b"\r\n"
        b"WARC-Date: " + iso.encode() + b"\r\n"
        b"Content-Type: text/plain\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
    )
    return header + b"\r\n" + body + b"\r\n\r\n"


def write_wet(
    extracted: rd.Dataset,
    out_dir: str,
    *,
    gzip_members: bool = False,
    text_column: str = "extracted_text",
) -> pa.Table:
    """Extracted rows -> a directory of WET files (WARC/1.0 ``conversion``
    records, text/plain payloads — the Common-Crawl WET egress for the
    extraction tier). Ray-Data-first: each task writes its own blocks'
    file directly (no driver materialization, no shuffle); file names are
    the md5 of the member urls (identical batch -> identical file), and
    pre-existing wet files are cleared first so a re-run with different
    batch boundaries can never leave stale duplicates. Returns the write
    manifest (wet_path, n_records, n_bytes) — small, one row per file."""
    import gzip as _gzip
    import hashlib
    import os

    os.makedirs(out_dir, exist_ok=True)
    for old in glob(os.path.join(out_dir, "wet-*.warc.wet*")):
        os.remove(old)

    def emit(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "wet_path": pa.array([], pa.string()),
                    "n_records": pa.array([], pa.int64()),
                    "n_bytes": pa.array([], pa.int64()),
                }
            )
        urls = batch["url"].to_pylist()
        tss = pc.cast(batch["warc_ts"], pa.int64()).to_pylist()
        texts = pc.cast(batch[text_column], pa.string()).to_pylist()
        recs = [
            _wet_record(u, ts, t or "") for u, ts, t in zip(urls, tss, texts)
        ]
        if gzip_members:  # member-per-record, the Common-Crawl convention
            recs = [_gzip.compress(r) for r in recs]
        blob = b"".join(recs)
        name = hashlib.md5("\n".join(urls).encode()).hexdigest()[:16]
        suffix = ".warc.wet.gz" if gzip_members else ".warc.wet"
        path = os.path.join(out_dir, f"wet-{name}{suffix}")
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)  # atomic: readers never see a partial file
        return pa.table(
            {
                "wet_path": pa.array([path], pa.string()),
                "n_records": pa.array([len(recs)], pa.int64()),
                "n_bytes": pa.array([len(blob)], pa.int64()),
            }
        )

    manifests = [
        t
        for t in __import__("ray").get(
            extracted.map_batches(emit, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    ]
    return (
        pa.concat_tables(manifests)
        if manifests
        else pa.table(
            {
                "wet_path": pa.array([], pa.string()),
                "n_records": pa.array([], pa.int64()),
                "n_bytes": pa.array([], pa.int64()),
            }
        )
    )


def read_wet(input_path: str) -> rd.Dataset:
    """Directory of ``*.warc.wet`` / ``*.warc.wet.gz`` -> Dataset
    (url, warc_ts, text). Same per-archive task fan-out and
    swallow-and-skip malformed-record contract as ``read_pages_warc``."""
    paths = sorted(glob(f"{input_path}/*.warc.wet*")) or [input_path]

    def parse(batch: pa.Table) -> pa.Table:
        urls: list[str] = []
        tss: list[int | None] = []
        texts: list[str] = []
        for data in batch["bytes"].to_pylist():
            if data[:2] == b"\x1f\x8b":
                try:
                    data = _gunzip_members(data)
                except zlib.error:
                    continue
            for url, ts, payload in _parse_warc(data, want_type=b"conversion"):
                urls.append(url)
                tss.append(ts)
                texts.append(payload.decode("utf-8", errors="replace"))
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.timestamp("us", tz="UTC")),
                "text": pa.array(texts, pa.large_string()),
            }
        )

    return rd.read_binary_files(paths, include_paths=True).map_batches(
        parse, batch_format="pyarrow"
    )


def warc_cdx(input_path: str) -> rd.Dataset:
    """CDX-style capture index over a directory of archives — the third
    Common-Crawl artifact beside WARC and WET: one row per response record
    (url, warc_ts, filename, record_offset, record_length), where
    ``plain_bytes[offset : offset + length]`` re-parses to exactly that
    record (random access without scanning the archive). Offsets address
    the PLAIN record stream; for ``.warc.gz`` inputs that is the
    decompressed stream (member-offset indexing would need the compressed
    framing, which the reader deliberately abstracts away). Same
    per-archive task fan-out as ``read_pages_warc``; the index rows are
    tiny (no payload bytes on the wire)."""
    paths = sorted(glob(f"{input_path}/*.warc*")) or [input_path]

    def index(batch: pa.Table) -> pa.Table:
        urls: list[str] = []
        tss: list[int | None] = []
        names: list[str] = []
        offs: list[int] = []
        lens: list[int] = []
        for path, data in zip(
            batch["path"].to_pylist(), batch["bytes"].to_pylist()
        ):
            if data[:2] == b"\x1f\x8b":
                try:
                    data = _gunzip_members(data)
                except zlib.error:
                    continue
            for url, ts, _body, off, length in _parse_warc(
                data, with_spans=True
            ):
                urls.append(url)
                tss.append(ts)
                names.append(path)
                offs.append(off)
                lens.append(length)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.timestamp("us", tz="UTC")),
                "filename": pa.array(names, pa.string()),
                "record_offset": pa.array(offs, pa.int64()),
                "record_length": pa.array(lens, pa.int64()),
            }
        )

    return rd.read_binary_files(paths, include_paths=True).map_batches(
        index, batch_format="pyarrow"
    )
