"""The flagship pipeline: Common-Crawl-style pages -> extracted main content.

Ray restatement of the reference's upload -> fan-out -> extract -> persist
lifecycle (``/root/reference/backend/src/main.py:324-489`` +
``backend/src/tasks.py:154-351``; SURVEY.md §3.1).

One extraction body, ``iter_partition``, turns a partition — a
deterministic contiguous group of input shards (``shard_groups``; the
Common-Crawl pattern: a WARC shard range is the unit of re-run) — into
extracted row batches:

    keys-only pass: read (url, warc_ts), apply the broadcast dup index
      -> stream payload row groups through the keep masks
      -> sniff_and_partition -> extract_batch

The payload-bearing dataflow is **shuffle-free**: dedup is decided from a
16-byte-per-row key scan plus a broadcast index of the duplicated urls
(measured: a payload all-to-all for dedup cost 6-8x the entire rest of the
pipeline at sf0.1; see stages/dedup.py for the scale argument and its
documented limits).

Two drivers run that body, and give the same rows, ``doc_id`` and
``partition_id`` included:

* ``run_checkpoint`` — resumable. Each partition is ONE raw Ray task
  (``process_partition``) that writes the batches through an atomic temp
  dir and a ``_MANIFEST.json``. Raw tasks (not Dataset) because
  per-partition atomic visibility + skip-on-resume is exactly what the
  Dataset API can't express (SURVEY.md §4 checkpoint row). A re-run with
  ``resume=True`` skips completed partitions entirely — their bytes are
  never read again.
* ``extracted_dataset`` / ``run_stream`` — the same partitions as one lazy
  Ray Dataset, one ``map_batches`` task per partition, nothing persisted;
  a crash means a rerun. Payload bytes enter the object store only as
  extracted rows, and dedup needs no per-batch tie provenance because the
  keys pass sees whole shards.

Scale notes (100 TB): no stage materializes the corpus; the only global
state is the duplicated-url index (small by assumption, asserted). Skew:
oversized documents are parsed page-wise inside the kernel and partitions
are ~equal input-shard counts; 4x more partitions than cluster cores keeps
stragglers rebalancing. The url-hash ``partition_id`` column
(crc32(url) % ``DEFAULT_URL_BUCKETS``, whatever the partition count) rides
on every output row for downstream bucketing/joins.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..stages.sniff import sniff_and_partition
from ..stages.dedup import (
    build_dup_index,
    dedup_first_wins,
    drop_dup_losers,
    index_has_ties,
    require_urls,
)
from ..stages.extract import extract_batch
from ..state.manifest import (
    PartitionManifest,
    completed_partitions,
    input_fingerprint,
    write_partition_atomic,
)

from ..sources.pages import EXTRACT_COLUMNS as READ_COLUMNS  # noqa: E402
from ..sources.pages import doc_ids, list_shards, read_pages  # noqa: E402

DEFAULT_URL_BUCKETS = 1024  # modulus of the url-hash partition_id COLUMN


def extracted_dataset(
    input_path: str,
    *,
    n_partitions: int | None = None,
    batch_size: int = 128,
    concurrency: tuple[int, int] | int | None = None,
    skew_threshold_bytes: int | None = None,
    assign_doc_ids: bool = False,
) -> rd.Dataset:
    """Lazy Dataset of extracted rows (stream mode): each shard group of
    ``shard_groups(input_path, n_partitions)`` runs ``iter_partition`` in
    one Ray Data task and nothing is persisted. ``n_partitions`` counts
    shard groups, as in ``run_checkpoint``; the default is one group per
    shard. ``assign_doc_ids``: carry the read-time
    ``(shard << 40) | row`` id (``sources.pages.doc_ids``) through
    extraction (training compositions)."""
    import ray

    groups = shard_groups(input_path, n_partitions)
    dup_ref = ray.put(build_dup_index(input_path))  # read zero-copy per task
    items = [
        {"files": files, "shard_base": base}
        for files, base in zip(groups, _group_bases(groups))
    ]

    def run_group(item: pa.Table) -> Iterator[pa.Table]:
        for _, out in iter_partition(
            item["files"][0].as_py(),
            ray.get(dup_ref),
            shard_base=item["shard_base"][0].as_py() if assign_doc_ids else None,
            batch_size=batch_size,
            skew_threshold_bytes=skew_threshold_bytes,
        ):
            yield out

    kwargs = {} if concurrency is None else {"concurrency": concurrency}
    return rd.from_items(items, override_num_blocks=len(items)).map_batches(
        run_group, batch_format="pyarrow", batch_size=1, num_cpus=1, **kwargs
    )


def run_stream(
    input_path: str,
    output_path: str | None = None,
    *,
    partition_output: bool = False,
    **kwargs,
) -> rd.Dataset:
    """Stream mode; with ``partition_output`` the write is hive-partitioned
    by the url-hash ``partition_id`` column (no shuffle — each task appends
    files under every partition dir it touches; downstream readers get
    partition pruning, but per-partition atomicity needs checkpoint mode).
    """
    ds = extracted_dataset(input_path, **kwargs)
    if output_path:
        if partition_output:
            ds.write_parquet(output_path, partition_cols=["partition_id"])
        else:
            ds.write_parquet(output_path)
        return rd.read_parquet(output_path)
    return ds


# --------------------------------------------------------------------------
# the partition body both drivers run
# --------------------------------------------------------------------------

def shard_groups(
    input_path: str, n_partitions: int | None = None
) -> list[list[str]]:
    """Deterministic contiguous grouping of sorted input shards into at most
    ``n_partitions`` groups (default: one per shard). Resume requires
    re-running with the same (input file set, n_partitions)."""
    files = list_shards(input_path)
    if not files:
        raise ValueError(f"no input parquet shards found under {input_path!r}")
    n = min(n_partitions or len(files), len(files))
    base, rem = divmod(len(files), n)
    groups, off = [], 0
    for i in range(n):
        size = base + (1 if i < rem else 0)
        groups.append(files[off : off + size])
        off += size
    return groups


def _group_bases(groups: list[list[str]]) -> list[int]:
    """Global shard index of each group's first file."""
    bases, off = [], 0
    for g in groups:
        bases.append(off)
        off += len(g)
    return bases


def _partition_keep_masks(
    files: list[str], dup_index: pa.Table | None
) -> tuple[int, int, list]:
    """Keys-only dedup pass over a shard group: read ONLY (url, warc_ts)
    (~16 B/row — payload bytes stay on disk), reject null urls, apply the
    global broadcast filter + within-group first-wins, and return
    ``(rows_in, input_fingerprint, per-file boolean keep masks)``."""
    import numpy as np

    need_paths = index_has_ties(dup_index)
    tabs = []
    for f in files:
        t = pq.read_table(f, columns=["url", "warc_ts"])
        require_urls(t, f)
        if need_paths:
            t = t.append_column(
                "path", pa.array([f] * t.num_rows, pa.string())
            ).append_column(
                "_row_in_file",
                pa.array(np.arange(t.num_rows, dtype=np.int64)),
            )
        tabs.append(t)
    offs = np.cumsum([0] + [t.num_rows for t in tabs])
    keys = pa.concat_tables(tabs)
    rows_in = keys.num_rows
    fp = input_fingerprint(keys["url"], keys["warc_ts"])
    keys = keys.append_column(
        "_row", pa.array(np.arange(rows_in, dtype=np.int64))
    )
    if dup_index is not None:
        keys = drop_dup_losers(keys, dup_index=dup_index)
    keys = dedup_first_wins(keys)
    keep = np.zeros(rows_in, dtype=bool)
    keep[keys["_row"].to_numpy(zero_copy_only=False)] = True
    masks = [keep[offs[j] : offs[j + 1]] for j in range(len(files))]
    return rows_in, fp, masks


def iter_partition(
    files: list[str],
    dup_index: pa.Table | None,
    *,
    shard_base: int | None = None,
    batch_size: int = 256,
    skew_threshold_bytes: int | None = None,
    emit_pages: bool = False,
    stats: dict | None = None,
) -> Iterator[tuple[pa.Table, pa.Table]]:
    """The extraction body of both drivers: one shard group in, a stream of
    ``(pages, extracted)`` batch pairs out — ``pages`` is the sniffed
    input batch (``url``, ``html``, ...), ``extracted`` its
    ``extract_batch`` rows.

    Memory model (100 TB posture): dedup is decided in a keys-only pass
    (``_partition_keep_masks``); payloads then STREAM as parquet row-group
    batches of ``batch_size`` rows through the keep masks, sniff and
    extract — the shard group is never materialized, so peak RSS is
    bounded by one row group × the extraction working set and is
    independent of partition byte size (tested at 4× group sizes). Rows
    come out in input order. ``shard_base``: global index of ``files[0]``
    in the sorted shard list; when given, each row gets the read-time
    ``doc_id`` (``sources.pages.doc_ids``). A group with no surviving row
    yields one empty pair with the full schema. ``stats``, when given,
    receives the keys pass's ``rows_in`` and ``input_fingerprint``."""
    rows_in, fp, masks = _partition_keep_masks(files, dup_index)
    if stats is not None:
        stats.update(rows_in=rows_in, input_fingerprint=fp)

    def extract(t: pa.Table) -> tuple[pa.Table, pa.Table]:
        t = sniff_and_partition(t, n_partitions=DEFAULT_URL_BUCKETS)
        out = extract_batch(
            t, emit_pages=emit_pages, skew_threshold_bytes=skew_threshold_bytes
        )
        return t, out

    yielded = False
    for j, f in enumerate(files):
        pf = pq.ParquetFile(f)
        row_off = 0
        try:
            for rb in pf.iter_batches(batch_size=batch_size, columns=READ_COLUMNS):
                t = pa.Table.from_batches([rb])
                n = t.num_rows
                if shard_base is not None:
                    t = t.append_column(
                        "doc_id", doc_ids(shard_base + j, row_off, n)
                    )
                m = masks[j][row_off : row_off + n]
                row_off += n
                if not m.any():
                    continue
                if not m.all():
                    t = t.filter(pa.array(m))
                yielded = True
                yield extract(t)
        finally:
            pf.close()
    if not yielded:
        # zero-row partition (all rows were dedup losers, or an empty
        # shard): one empty pair with the full schema, so the checkpoint
        # manifest still lands and resume can skip it
        sch = pq.read_schema(files[0])
        empty = pa.schema([sch.field(c) for c in READ_COLUMNS]).empty_table()
        if shard_base is not None:
            empty = empty.append_column("doc_id", pa.array([], pa.int64()))
        yield extract(empty)


def process_partition(
    pid: int,
    files: list[str],
    output_dir: str,
    dup_index: pa.Table | None,
    *,
    emit_pages: bool = True,
    emit_links: bool = False,
    batch_size: int = 64,
    skew_threshold_bytes: int | None = None,
    shard_base: int | None = None,
) -> pa.Table:
    """One checkpoint partition end-to-end: ``iter_partition`` drained into
    incremental ParquetWriters inside the atomic temp dir, then the
    manifest. Returns a one-row metrics table (the reference's per-job
    latency/cost instrumentation, ``backend/src/tasks.py:265-282``)."""
    import pyarrow.compute as pc

    from ..functions.links import links_batch

    t0 = time.perf_counter()
    keys: dict = {}
    counts = {"ok": 0, "empty": 0, "error": 0, "unknown": 0}
    totals = {"rows_out": 0, "bytes_in": 0}

    def writer(dir_path: str) -> PartitionManifest:
        writers: dict[str, pq.ParquetWriter] = {}
        # buffer per-batch outputs into real row groups (a write per
        # 64-row extract batch makes hundreds of tiny row groups per file
        # and measurably slows both the write and every later read); the
        # buffer is a bounded CONSTANT (rows/bytes cap), so the streaming
        # memory bound stands
        buf: dict[str, list[pa.Table]] = {}
        _FLUSH_ROWS, _FLUSH_BYTES = 8192, 64 << 20

        def flush(name: str) -> None:
            parts = buf.pop(name, [])
            if not parts:
                return
            t = pa.concat_tables(parts)
            w = writers.get(name)
            if w is None:
                w = writers[name] = pq.ParquetWriter(
                    os.path.join(dir_path, f"{name}.parquet"), t.schema
                )
            w.write_table(t)

        def emit(name: str, table: pa.Table) -> None:
            parts = buf.setdefault(name, [])
            parts.append(table)
            if (
                sum(p.num_rows for p in parts) >= _FLUSH_ROWS
                or sum(p.nbytes for p in parts) >= _FLUSH_BYTES
            ):
                flush(name)

        for pages, out in iter_partition(
            files,
            dup_index,
            shard_base=shard_base,
            batch_size=batch_size,
            skew_threshold_bytes=skew_threshold_bytes,
            emit_pages=emit_pages,
            stats=keys,
        ):
            totals["bytes_in"] += int(
                pc.sum(pc.binary_length(pages["html"])).as_py() or 0
            )
            totals["rows_out"] += out.num_rows
            for sv in pc.value_counts(out["status"]):
                s = sv["values"].as_py()
                if s in counts:
                    counts[s] += sv["counts"].as_py()
            emit(
                "extracted",
                out.drop_columns(
                    [c for c in ("pages", "page_tables") if c in out.column_names]
                ),
            )
            if emit_pages:
                emit("extracted_pages", _explode_pages(out))
            if emit_links:
                # second product off the same payload pass (WAT-file
                # analog): per-page ordered anchors, shared scanner
                emit("links", links_batch(pages.select(["url", "html"])))

        for name in list(buf):
            flush(name)
        for w in writers.values():
            w.close()
        return PartitionManifest(
            partition_id=pid,
            rows_in=keys["rows_in"],
            rows_out=totals["rows_out"],
            n_ok=counts["ok"],
            n_empty=counts["empty"],
            n_error=counts["error"],
            n_unknown=counts["unknown"],
            n_other=totals["rows_out"] - sum(counts.values()),
            bytes_in=totals["bytes_in"],
            wall_s=round(time.perf_counter() - t0, 4),
            input_fingerprint=keys["input_fingerprint"],
            files=list(files),
            file_sizes=[os.path.getsize(f) for f in files],
        )

    write_partition_atomic(output_dir, pid, writer)
    return pa.table(
        {
            "partition_id": pa.array([pid], pa.int32()),
            "rows_out": pa.array([totals["rows_out"]], pa.int64()),
            "n_ok": pa.array([counts["ok"]], pa.int64()),
            "n_error": pa.array([counts["error"]], pa.int64()),
            "bytes_in": pa.array([totals["bytes_in"]], pa.int64()),
            "wall_s": pa.array(
                [round(time.perf_counter() - t0, 4)], pa.float64()
            ),
        }
    )


def _explode_pages(out: pa.Table) -> pa.Table:
    """extracted (with pages list col) -> one row per (url, page_number) —
    the reference's DocumentPageContent long table
    (``backend/src/models/database.py:61-73``, 1-based pages). Vectorized:
    ``list_flatten`` + ``list_parent_indices`` + a repeat-offset arange for
    the 1-based page number — no per-row Python (this runs on every
    checkpoint partition with ``emit_pages=True``, the default)."""
    import numpy as np
    import pyarrow.compute as pc

    pages = out["pages"].combine_chunks()
    flat = pc.list_flatten(pages)  # skips null/empty lists, keeps elements
    parent = pc.list_parent_indices(pages)
    counts = (
        pc.fill_null(pc.list_value_length(pages), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    starts = np.cumsum(counts) - counts  # flat start offset per source row
    page_numbers = (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(starts, counts)
        + 1
    )
    cols = {
        "url": pc.take(out["url"], parent),
        "page_number": pa.array(page_numbers.astype(np.int32), pa.int32()),
        "page_text": pc.cast(flat, pa.large_string()),
    }
    if "page_tables" in out.column_names:
        # aligned element-wise with pages (extract_batch guarantees equal
        # list lengths), so the same parent/flatten applies
        cols["page_tables"] = pc.cast(
            pc.list_flatten(out["page_tables"].combine_chunks()),
            pa.large_string(),
        )
    return pa.table(cols)


def run_checkpoint(
    input_path: str,
    output_dir: str,
    *,
    n_partitions: int = 32,
    resume: bool = True,
    emit_pages: bool = True,
    emit_links: bool = False,
    skew_threshold_bytes: int | None = None,
    assign_doc_ids: bool = False,
    batch_size: int = 256,
) -> pa.Table:
    """Resumable run; returns the per-partition metrics table.

    ``batch_size`` is the payload-pass rows-per-extract-batch: memory stays
    bounded by one parquet row group regardless (iter_batches slices row
    groups), so a larger batch only amortizes per-batch Python/Arrow
    overhead — 256 measured ~15% faster end-to-end than the former 64 at
    sf0.1/32cpus with identical output."""
    import ray

    os.makedirs(output_dir, exist_ok=True)
    groups = shard_groups(input_path, n_partitions)
    # drop output dirs beyond the current group count (a previous run with
    # more groups would otherwise leave stale part-K dirs that duplicate
    # rows in read_extracted)
    for name in os.listdir(output_dir):
        if name.startswith("part-"):
            try:
                pid = int(name.split("-", 1)[1])
            except ValueError:
                continue
            if pid >= len(groups):
                import shutil as _shutil

                _shutil.rmtree(os.path.join(output_dir, name), ignore_errors=True)
    skip = completed_partitions(output_dir, groups) if resume else frozenset()
    if assign_doc_ids and skip:
        # a checkpoint written by a pre-doc_id release would otherwise
        # surface as an opaque KeyError deep in the packing exchange —
        # validate the finished partitions' schema up front (footer-only
        # read) and fail actionably
        for pid in skip:
            p = os.path.join(output_dir, f"part-{pid}", "extracted.parquet")
            if "doc_id" not in pq.read_schema(p).names:
                raise ValueError(
                    f"stale checkpoint: {p} has no 'doc_id' column (written "
                    "by a run without assign_doc_ids); delete the workdir "
                    "or re-run with resume=False to re-extract"
                )
    dup_index = build_dup_index(input_path)
    dup_ref = ray.put(dup_index)  # broadcast once, read zero-copy per task
    # infra-level retry budget from the engine's declared config (reference
    # per-extractor {max_retries, countdown}, constants.py:72-95 applied at
    # tasks.py:334-340); kernels never throw, so a task failure is a worker
    # death and retry_exceptions stays False (infra errors are not
    # app-retried, tasks.py:112-123 semantics)
    from ..stages.registry import get_extractor

    budget = int(get_extractor("main_content").info().get("max_retries", 1))
    worker = ray.remote(
        num_cpus=1, max_retries=budget, retry_exceptions=False
    )(process_partition)
    bases = _group_bases(groups)
    futures = [
        worker.remote(
            pid, files, output_dir, dup_ref, emit_pages=emit_pages,
            emit_links=emit_links,
            batch_size=batch_size,
            skew_threshold_bytes=skew_threshold_bytes,
            shard_base=bases[pid] if assign_doc_ids else None,
        )
        for pid, files in enumerate(groups)
        if pid not in skip
    ]
    tables = [t for t in ray.get(futures) if t.num_rows]
    return (
        pa.concat_tables(tables)
        if tables
        else pa.table({"partition_id": pa.array([], pa.int32())})
    )


def read_extracted(output_dir: str) -> rd.Dataset:
    """Read back a checkpoint-mode output directory as one Dataset."""
    paths = [
        os.path.join(output_dir, d, "extracted.parquet")
        for d in sorted(os.listdir(output_dir))
        if d.startswith("part-")
    ]
    return rd.read_parquet(paths)


def main() -> None:
    import argparse

    import ray

    ap = argparse.ArgumentParser(description="run the extraction pipeline")
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--mode", choices=["stream", "checkpoint"], default="checkpoint")
    ap.add_argument("--partitions", type=int, default=32)
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument(
        "--skew-threshold-mb", type=float, default=8.0,
        help="PDFs above this many MiB are page-range-split across the cluster",
    )
    ap.add_argument(
        "--emit-links", action="store_true",
        help="also write per-partition links.parquet (url, link_idx, href, "
             "anchor) — the link-graph product off the same payload pass",
    )
    ap.add_argument(
        "--extractors", default=None,
        help="comma-separated registry engines (reference extractor "
             "selection, main.py:343-354); >1 name runs the fan-out "
             "pipeline writing the (url, extractor, text, status) long "
             "table instead of the flagship",
    )
    ap.add_argument(
        "--fake-services", action="store_true",
        help="deterministic fakes for stub (external-service) engines",
    )
    args = ap.parse_args()

    extractors = None
    if args.extractors:
        from ..stages.registry import get_extractor

        extractors = [e.strip() for e in args.extractors.split(",") if e.strip()]
        for e in extractors:
            get_extractor(e)  # validate against the registry; raises on unknown

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    try:
        skew_bytes = int(args.skew_threshold_mb * 1024 * 1024) or None
        if extractors and extractors != ["main_content"]:
            from .fanout import fan_out

            out = fan_out(
                read_pages(args.input), extractors,
                fake_services=args.fake_services,
            )
            out.write_parquet(args.output)
            print(
                f"fan-out [{','.join(extractors)}] -> {args.output}"
            )
        elif args.mode == "stream":
            run_stream(
                args.input, args.output, n_partitions=args.partitions,
                skew_threshold_bytes=skew_bytes,
            )
            print(f"stream output -> {args.output}")
        else:
            metrics = run_checkpoint(
                args.input, args.output, n_partitions=args.partitions,
                resume=args.resume, emit_links=args.emit_links,
                skew_threshold_bytes=skew_bytes,
            )
            done = metrics.num_rows
            total_rows = sum(metrics["rows_out"].to_pylist()) if done else 0
            print(f"checkpoint: {done} partitions processed, {total_rows} rows -> {args.output}")
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
