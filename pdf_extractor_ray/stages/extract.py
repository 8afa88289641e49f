"""The extraction stage: a stateful actor-pool ``map_batches`` callable.

Reference analog: the Celery worker task body
(``/root/reference/backend/src/tasks.py:154-264``) — acquire bytes, route to
``get_reader(type)`` (``backend/src/factory.py:34-42``), parse, emit
per-page rows, never let one document fail the batch
(``pypdf2_extractor.py:41-48``). Here the whole fan-out collapses into one
dispatching actor per pool slot: kernels are pure CPU functions, payload
bytes arrive zero-copy in Arrow blocks, and parser state (compiled regex /
scoring tables) is process-wide — amortized exactly like the reference's
per-worker extractor instances (SURVEY.md §2.3 T1/T6).

Per-actor failure counter implements the reference's circuit-breaker
semantics (``backend/src/tasks.py:126-151``, thresholds
``backend/src/constants.py:98-99``): after ``breaker_threshold`` consecutive
kernel errors the actor marks rows ``status='breaker_open'`` instead of
parsing, and a success resets the counter.
"""

from __future__ import annotations

import time

import pyarrow as pa

from ..kernels import extract_document, extract_routed

SPAN_TYPE = pa.list_(
    pa.struct([("start", pa.int64()), ("end", pa.int64()), ("kind", pa.string())])
)

EXTRACT_OUT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("lang", pa.string()),
        ("content_type", pa.string()),
        ("extracted_text", pa.large_string()),
        ("tables", pa.large_string()),
        ("spans", SPAN_TYPE),
        ("n_pages", pa.int32()),
        ("status", pa.string()),
        ("error", pa.string()),
        ("latency_ms", pa.int64()),
        ("partition_id", pa.int32()),
        ("pages", pa.large_list(pa.large_string())),
        ("page_tables", pa.large_list(pa.large_string())),
    ]
)


def extract_batch(
    batch: pa.Table,
    *,
    emit_pages: bool = True,
    breaker: "_Breaker | None" = None,
    skew_threshold_bytes: int | None = None,
) -> pa.Table:
    """Arrow batch of input pages -> Arrow batch of extracted rows.

    ``skew_threshold_bytes``: PDFs larger than this are extracted via the
    nested-task skew-split path (stages/skew.py) instead of inline —
    byte-identical output, bounded per-row wall time."""
    n = batch.num_rows
    payloads = batch["html"]
    has_pid = "partition_id" in batch.column_names
    # upstream sniff column (vectorized, property-tested == sniff_bytes):
    # route on it instead of re-sniffing every payload
    pre_ctypes = (
        batch["content_type"].to_pylist()
        if "content_type" in batch.column_names
        else None
    )

    texts: list[str] = []
    doc_tables: list[str] = []
    spans: list[list[dict]] = []
    n_pages: list[int] = []
    statuses: list[str] = []
    errors: list[str] = []
    latencies: list[int] = []
    pages_col: list[list[str]] = []
    tables_col: list[list[str]] = []
    ctypes: list[str] = []

    for i in range(n):
        t0 = time.perf_counter()
        if breaker is not None and breaker.should_skip():
            ctype, text, sp, pg, status, err = "unknown", "", [], [], "breaker_open", ""
            tbl, pg_tbl = "", []
        else:
            payload = payloads[i].as_py()
            if (
                skew_threshold_bytes is not None
                and payload is not None
                and len(payload) > skew_threshold_bytes
                and payload.startswith(b"%PDF-")
            ):
                from .skew import extract_pdf_skew_split

                ctype, res = "pdf", extract_pdf_skew_split(payload)
            elif pre_ctypes is not None:
                ctype = pre_ctypes[i]
                res = extract_routed(ctype, payload)
            else:
                ctype, res = extract_document(payload)
            text, status, err = res.text, res.status, res.error
            sp = [{"start": s.start, "end": s.end, "kind": s.kind} for s in res.spans]
            pg = res.pages
            tbl, pg_tbl = res.doc_tables, res.tables_aligned()
            if breaker is not None:
                breaker.record(status == "error")
        ctypes.append(ctype)
        texts.append(text)
        doc_tables.append(tbl)
        spans.append(sp)
        pages_col.append(pg)
        tables_col.append(pg_tbl if len(pg_tbl) == len(pg) else [""] * len(pg))
        n_pages.append(len(pg))
        statuses.append(status)
        errors.append(err)
        latencies.append(int((time.perf_counter() - t0) * 1000))

    cols = {
        "url": batch["url"],
        "warc_ts": batch["warc_ts"],
        "lang": batch["lang"],
        "content_type": pa.array(ctypes, pa.string()),
        "extracted_text": pa.array(texts, pa.large_string()),
        "tables": pa.array(doc_tables, pa.large_string()),
        "spans": pa.array(spans, SPAN_TYPE),
        "n_pages": pa.array(n_pages, pa.int32()),
        "status": pa.array(statuses, pa.string()),
        "error": pa.array(errors, pa.string()),
        "latency_ms": pa.array(latencies, pa.int64()),
        "partition_id": batch["partition_id"]
        if has_pid
        else pa.nulls(n, pa.int32()),
    }
    if "doc_id" in batch.column_names:
        # read-time id (sources/pages.read_pages_with_ids) rides through
        cols["doc_id"] = batch["doc_id"]
    if emit_pages:
        cols["pages"] = pa.array(pages_col, pa.large_list(pa.large_string()))
        cols["page_tables"] = pa.array(
            tables_col, pa.large_list(pa.large_string())
        )
    return pa.table(cols)


class _Breaker:
    """Row-count-based circuit breaker with a half-open probe: after
    ``threshold`` consecutive failures rows are skipped (flagged
    ``breaker_open``) for ``cooldown`` rows, then ONE row is parsed as a
    trial — success closes the breaker, failure re-opens it for another
    cooldown (the reference's 5-failures/300s-cooldown semantics,
    ``backend/src/tasks.py:126-151``, with rows standing in for wall time
    so behavior is deterministic and testable)."""

    def __init__(self, threshold: int = 5, cooldown: int = 256):
        self.threshold = threshold
        self.cooldown = cooldown
        self.consecutive = 0
        self.skipped = 0

    def should_skip(self) -> bool:
        """One call per row — advances the cooldown window as a side effect
        (a method, not a property: an extra read from logging or a second
        caller would silently shift when the half-open probe fires)."""
        if self.threshold <= 0 or self.consecutive < self.threshold:
            return False
        if self.skipped >= self.cooldown:
            return False  # half-open: let the next row through as a probe
        self.skipped += 1
        return True

    def record(self, failed: bool) -> None:
        if failed:
            self.consecutive += 1
            if self.consecutive >= self.threshold:
                self.skipped = 0  # (re-)start a cooldown window
        else:
            self.consecutive = 0
            self.skipped = 0


class DocumentExtractor:
    """Actor-pool stage: ``ds.map_batches(DocumentExtractor, concurrency=N,
    batch_size=B, batch_format="pyarrow")``. State (dispatcher + breaker) is
    built once per actor in ``__init__`` and reused across batches."""

    def __init__(
        self,
        emit_pages: bool = True,
        breaker_threshold: int = 0,
        skew_threshold_bytes: int | None = None,
    ):
        # warm the kernel tables wherever __init__ runs (actor start, or
        # driver-side when shipped as a cached task transform)
        extract_document(b"")
        self.emit_pages = emit_pages
        self.breaker = _Breaker(breaker_threshold) if breaker_threshold else None
        self.skew_threshold_bytes = skew_threshold_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        return extract_batch(
            batch,
            emit_pages=self.emit_pages,
            breaker=self.breaker,
            skew_threshold_bytes=self.skew_threshold_bytes,
        )
