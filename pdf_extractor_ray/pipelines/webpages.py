"""Bridge: driver `documents` table -> pages-shaped input -> flagship
extraction pipeline.

The driver test tables (`/root/testdata/sf*/documents.parquet`:
doc_id,text,lang,source,n_chars) are not web pages; this module wraps each
document's text into a deterministic minimal HTML page (same template every
run) so the flagship sniff->extract pipeline can run over driver data for
the `entry()` smoke check and rows-only correctness queries. The wrapping
is itself a `map_batches` stage — the corpus never materializes driver-side.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data as rd

from ..stages.extract import DocumentExtractor
from ..stages.sniff import sniff_and_partition
import functools

_EPOCH_US = 1735689600000000  # 2025-01-01T00:00:00Z, fixed (no wall clock)


# the page template around the escaped paragraph join; "<p>"/"</p>" live in
# the bookends so n paragraphs need ONE list join with "</p><p>"
_PAGE_HEAD = (
    "<!doctype html><html><head><title>doc</title></head><body>"
    "<nav><a href='/'>home</a> <a href='/about'>about</a></nav>"
    "<article><p>"
)
_PAGE_TAIL = (
    "</p></article>"
    "<footer><a href='/tos'>terms</a></footer></body></html>"
)
# html.escape(quote=True) replacement pairs, IN ITS ORDER ('&' first)
_ESCAPES = (
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
    ('"', "&quot;"), ("'", "&#x27;"),
)


def docs_to_pages(batch: pa.Table) -> pa.Table:
    """documents row -> pages row (url, warc_ts, html, lang). Fully
    vectorized (this sits on the web_to_training bench path): newline
    split -> flat escape passes -> list rebuild -> one binary_join, with
    html.escape's exact replacement order so payload bytes match the old
    per-row f-string builder byte-for-byte."""
    import pyarrow.compute as pc

    doc_ids = batch["doc_id"]
    paras = pc.split_pattern(
        pc.fill_null(pc.cast(batch["text"], pa.string()), ""), "\n"
    ).combine_chunks()
    flat = pc.list_flatten(paras)
    for old, new in _ESCAPES:
        flat = pc.replace_substring(flat, pattern=old, replacement=new)
    escaped = pa.ListArray.from_arrays(paras.offsets, flat)
    body = pc.binary_join(escaped, "</p><p>")
    pages = pc.binary_join_element_wise(_PAGE_HEAD, body, _PAGE_TAIL, "")
    urls = pc.binary_join_element_wise(
        "https://testdata.local/doc/",
        pc.ascii_lpad(pc.cast(doc_ids, pa.string()), 8, "0"),
        "",
    )
    ts = pc.cast(
        pc.add(pc.cast(doc_ids, pa.int64()), _EPOCH_US),
        pa.timestamp("us", tz="UTC"),
    )
    return pa.table(
        {
            "url": pc.cast(urls, pa.string()),
            "warc_ts": ts,
            "html": pc.cast(pc.cast(pages, pa.binary()), pa.large_binary()),
            "lang": batch["lang"],
        }
    )


def extract_from_documents(sf_dir: str, *, n_partitions: int = 16) -> rd.Dataset:
    """documents.parquet -> pages synthesis -> sniff -> extract (cached
    task transform; see functions.agg.instance_stage for the task-vs-pool
    rationale). Returns the extracted Dataset (url, content_type,
    extracted_text, ...)."""
    from ..functions.agg import instance_stage

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    pages = ds.map_batches(docs_to_pages, batch_format="pyarrow")
    pages = pages.map_batches(
        functools.partial(sniff_and_partition, n_partitions=n_partitions),
        batch_format="pyarrow",
    )
    return instance_stage(
        pages, DocumentExtractor, batch_size=64, emit_pages=False
    )


def extract_docs_text(sf_dir: str) -> rd.Dataset:
    """Flagship extraction projected to its DETERMINISTIC columns (drops
    the wall-clock latency_ms, crc32 partition_id, and payload echo) so
    the HTML kernel itself is value-hash-checked against DuckDB: the page
    template makes extracted_text expressible from documents.text (title
    'doc' + whitespace-collapsed non-empty paragraphs, blank-line joined
    — same identity web_to_training's oracle relies on, here checked row
    by row with no quality filter hiding edge cases)."""
    return extract_from_documents(sf_dir).select_columns(
        ["url", "content_type", "extracted_text", "n_pages", "status"]
    )


def _docs_to_pdf_tables(batch: pa.Table) -> pa.Table:
    """documents rows -> per-page TABLE rows. Each doc seeds a
    deterministic synthetic PDF (corpus.build_pdf, rng=Random(doc_id)) and
    runs the from-scratch extraction kernel; pages whose layout carries a
    detected aligned-column table region emit one row each. The per-doc
    loop IS the kernel invocation (PDF parse + layout are per-document
    compute, like the flagship extractor) — not a row loop around
    vectorizable work."""
    import random

    from ..corpus import build_pdf
    from ..kernels.pdf_extract import extract_pdf

    doc_ids: list[int] = []
    pnums: list[int] = []
    texts: list[str] = []
    n_rows: list[int] = []
    for d in batch["doc_id"].to_pylist():
        payload = build_pdf(random.Random(d), 1 + d % 3, flate=bool(d % 2))
        res = extract_pdf(payload)
        for pn, tbl in enumerate(res.tables_aligned(), start=1):
            if tbl:
                doc_ids.append(d)
                pnums.append(pn)
                texts.append(tbl)
                n_rows.append(
                    sum(len(t.split("\n")) for t in tbl.split("\n\n"))
                )
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "page_number": pa.array(pnums, pa.int32()),
            "table_text": pa.array(texts, pa.large_string()),
            "n_table_rows": pa.array(n_rows, pa.int64()),
        }
    )


def pdf_tables(sf_dir: str) -> rd.Dataset:
    """M7 TABLE-product pipeline over driver data: documents -> deterministic
    synthetic PDFs -> kernel table-region detection -> one row per page with
    a table, pipe-joined in the reference's exact format (rows " | ", rows
    "\\n", multiple tables per page "\\n\\n" — ``/root/reference/backend/src/
    extractors/pdfplumber_extractor.py:30-47``). Rows-only correctness (the
    planted cell words are rng-derived, not SQL-expressible from the
    documents table); byte-level coverage in tests/test_pdf_tables.py."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(_docs_to_pdf_tables, batch_format="pyarrow")


def _ok_docs(batch: pa.Table) -> pa.Table:
    """Extracted rows -> the (doc_id, text) curation input: ``ok`` rows
    only, read-time doc ids."""
    import pyarrow.compute as pc

    ok = batch.filter(pc.equal(batch["status"], "ok"))
    return pa.table(
        {
            "doc_id": ok["doc_id"],
            "text": pc.cast(ok["extracted_text"], pa.string()),
        }
    )


def web_to_training(sf_dir: str, *, budget: int = 512) -> rd.Dataset:
    """The END-TO-END composition the engine exists for: web pages ->
    sniff -> extract -> quality gate -> exact dedup -> deterministic
    global shuffle order -> packed training sequences, one streaming
    dataflow (extraction feeds prepare_training_ds without ever
    materializing an intermediate corpus). Only rows the extractor
    marked ok enter curation; doc ids are recovered from the
    deterministic page urls so the output joins back to the source
    table."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..functions.textops import prepare_training_ds

    extracted = extract_from_documents(sf_dir)
    prefix_len = len("https://testdata.local/doc/")

    def to_docs(batch: pa.Table) -> pa.Table:
        ok = batch.filter(pc.equal(batch["status"], "ok"))
        # slice to END of string (ids longer than the zero-padded 8 digits
        # must not silently truncate into a colliding id)
        doc_id = pc.cast(
            pc.utf8_slice_codeunits(ok["url"], prefix_len), pa.int64()
        )
        if doc_id.null_count:
            raise ValueError("web_to_training: non-numeric doc id in url")
        return pa.table(
            {
                "doc_id": doc_id,
                "text": pc.cast(ok["extracted_text"], pa.string()),
            }
        )

    docs = extracted.map_batches(to_docs, batch_format="pyarrow")
    n_rows = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return prepare_training_ds(docs, n_rows, budget=budget)


def corpus_to_training(input_path: str, *, budget: int = 512) -> rd.Dataset:
    """web_to_training over a REAL pages corpus directory (url, warc_ts,
    html shards — the Common-Crawl-shaped input of the flagship): the
    streaming extractor (sniff -> dedup filter -> extract) feeds the
    curation/packing exchange directly. Doc ids are the collision-free
    read-time ids ``(input_shard << 40) | row_in_shard``
    (sources/pages.doc_ids) carried through extraction — no
    birthday bound at any corpus size, no per-row hashing anywhere in the
    composition; output rows join back to (shard, row) positions, and
    checkpointed_training assigns the identical ids so the two modes stay
    row-identical."""
    from ..functions.textops import prepare_training_ds
    from ..sources.pages import count_rows
    from .extract import extracted_dataset

    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    extracted = extracted_dataset(
        input_path,
        batch_size=128,
        concurrency=max(2, cpus - 2),
        assign_doc_ids=True,
    )

    docs = extracted.map_batches(_ok_docs, batch_format="pyarrow")
    n_rows = count_rows(input_path)
    return prepare_training_ds(docs, n_rows, budget=budget)


def warc_to_training(warc_dir: str, *, budget: int = 512) -> rd.Dataset:
    """``corpus_to_training`` straight off raw crawl archives: a directory
    of .warc/.warc.gz files streams through sniff -> extract -> quality
    gate -> exact dedup -> deterministic shuffle order -> packing, no
    parquet conversion step. Doc ids are the WARC analog of the read-time
    scheme — ``(archive_index << 40) | record_index`` — so a corpus
    written one-archive-per-parquet-shard in row order packs
    ROW-IDENTICALLY to ``corpus_to_training`` over the parquet original
    (test-pinned)."""
    from ..functions.agg import instance_stage
    from ..functions.textops import prepare_training_ds
    from ..sources.warc import read_pages_warc
    from ..stages.extract import DocumentExtractor
    from ..stages.sniff import sniff_and_partition

    pages = read_pages_warc(warc_dir, assign_doc_ids=True)
    pages = pages.map_batches(sniff_and_partition, batch_format="pyarrow")
    extracted = instance_stage(
        pages, DocumentExtractor, batch_size=64, emit_pages=False
    )

    docs = extracted.map_batches(_ok_docs, batch_format="pyarrow")
    n_rows = pages.count()
    return prepare_training_ds(docs, n_rows, budget=budget)


def _segments_table(
    kept_text: "pa.ChunkedArray | pa.Array", starts, budget: int
) -> pa.Table:
    """Slice each doc's whitespace tokens at its exact global window
    boundaries -> (seq_id, seg_start, seg_text) segment rows. Shared by
    the broadcast and bucketed-join paths so both are byte-identical.
    Fully vectorized: flatten all tokens, compute each token's global
    position, cut segments where the doc or the window changes, and
    ``binary_join`` per segment via one list array — no per-doc Python
    (the first version's per-doc loop was the stage's hot spot)."""
    import numpy as np
    import pyarrow.compute as pc

    empty = pa.table(
        {
            "seq_id": pa.array([], pa.int64()),
            "seg_start": pa.array([], pa.int64()),
            "seg_text": pa.array([], pa.large_string()),
        }
    )
    if len(kept_text) == 0:
        return empty
    starts = np.asarray(starts, dtype=np.int64)
    trimmed = pc.utf8_trim(kept_text, characters=" \t\n\r\f\v")
    toks_col = pc.split_pattern_regex(trimmed, r"[ \t\n\r\f\v]+")
    if isinstance(toks_col, pa.ChunkedArray):
        toks_col = toks_col.combine_chunks()
    flat = pc.list_flatten(toks_col)
    parent = pc.list_parent_indices(toks_col).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "")  # empty docs split to [""] — drop
    if not pc.all(keep).as_py():
        mask = keep.to_numpy(zero_copy_only=False)
        flat = flat.filter(keep)
        parent = parent[mask]
    total = len(parent)
    if total == 0:
        return empty
    run_start = np.ones(total, bool)
    run_start[1:] = parent[1:] != parent[:-1]
    run_idx = np.flatnonzero(run_start)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        run_idx, np.diff(np.append(run_idx, total))
    )
    gpos = starts[parent] + within
    seq = gpos // budget
    new_seg = run_start.copy()
    new_seg[1:] |= seq[1:] != seq[:-1]
    seg_idx = np.flatnonzero(new_seg)
    offsets = pa.array(np.append(seg_idx, total), pa.int64())
    lists = pa.LargeListArray.from_arrays(
        offsets, pc.cast(flat, pa.large_string())
    )
    return pa.table(
        {
            "seq_id": pa.array(seq[seg_idx], pa.int64()),
            "seg_start": pa.array(gpos[seg_idx], pa.int64()),
            "seg_text": pc.binary_join(lists, pa.scalar(" ", pa.large_string())),
        }
    )


def _winner_segments(ids, starts, docs: pa.Table, budget: int) -> pa.Table:
    """``_segments_table`` of the ``docs`` rows (doc_id, text) whose doc_id
    is a winner: ``ids`` is the sorted winner doc_id array and ``starts``
    its aligned global token offsets, probed by searchsorted."""
    import numpy as np
    import pyarrow.compute as pc

    did = pc.cast(docs["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
    pos = np.minimum(np.searchsorted(ids, did), max(len(ids) - 1, 0))
    hit = (ids[pos] == did) if len(ids) else np.zeros(len(did), bool)
    kept = docs.filter(pa.array(hit))  # winners only
    win_starts = starts[pos[hit]] if len(ids) else np.empty(0, np.int64)
    return _segments_table(kept["text"], win_starts, budget)


def write_training_shards(
    input_path: str,
    workdir: str,
    out_dir: str,
    *,
    budget: int = 512,
    n_partitions: int = 32,
    broadcast_limit: int = 20_000_000,
) -> pa.Table:
    """MATERIALIZED training egress — the step after the assignment
    metadata of ``corpus_to_training``: write the actual packed token
    sequences (one row per seq_id: exactly ``budget`` whitespace tokens,
    except the final sequence) as sharded parquet under ``out_dir``.

    Dataflow: extraction runs in CHECKPOINT mode under ``workdir``
    (resumable; a re-run of a failed shard build skips finished extraction
    partitions); ``prepare_training_ds(emit_offsets=True)`` yields each
    winner's exclusive global token prefix ``tok_start``. The winner
    offset table (doc_id, tok_start — ints only, ~16 B/row) BROADCASTS
    back up to ``broadcast_limit`` rows so each doc slices its own
    segments locally; past the limit it becomes a BUCKETED doc_id hash
    JOIN (tag-union single exchange — the order_priority_returned plan —
    text payloads hop once into their bucket, offsets probe by
    searchsorted). Sequence assembly is then ONE keyed exchange of token
    payloads grouped by seq_id — each window's segments meet exactly
    once. Output rows: (seq_id, n_tokens, text). Returns a one-row
    summary table (n_seqs, n_tokens)."""
    import numpy as np
    import pyarrow.compute as pc

    import ray

    from ..functions.agg import collect, scaled_partitions, tag_partition
    from ..functions.textops import prepare_training_ds
    from ..sources.pages import count_rows
    from .extract import read_extracted, run_checkpoint

    run_checkpoint(
        input_path,
        workdir,
        n_partitions=n_partitions,
        resume=True,
        emit_pages=False,
        assign_doc_ids=True,
    )

    docs = read_extracted(workdir).map_batches(_ok_docs, batch_format="pyarrow")
    n_rows = count_rows(input_path)
    # SIZE NOTE (100 TB posture): this materialize holds one (doc_id,
    # tok_start) int64 pair per WINNER doc — 16 B/row, so ~1.6 TB of
    # distributed, spillable object-store residency at 10^11 docs (Ray
    # spills blocks to disk under pressure; nothing lands on the driver —
    # the driver only ever sees `n_meta` and, below the broadcast limit,
    # the collected pairs). Past ~10^11 docs prefer checkpointing this
    # table to parquet next to `workdir` instead of re-deriving it on a
    # resume; the dataflow is otherwise unchanged.
    meta_ds = prepare_training_ds(
        docs, n_rows, budget=budget, emit_offsets=True
    ).select_columns(["doc_id", "tok_start"]).materialize()
    n_meta = meta_ds.count()
    if n_meta == 0:
        return pa.table(
            {"n_seqs": pa.array([0], pa.int64()), "n_tokens": pa.array([0], pa.int64())}
        )

    if n_meta <= broadcast_limit:
        meta = collect(meta_ds).sort_by([("doc_id", "ascending")])
        ref = ray.put(
            (
                meta["doc_id"].to_numpy(zero_copy_only=False),
                meta["tok_start"].to_numpy(zero_copy_only=False),
            )
        )

        def segments(batch: pa.Table) -> pa.Table:
            ids_b, starts_b = ray.get(ref)
            return _winner_segments(ids_b, starts_b, batch, budget)

        seg_ds = docs.map_batches(segments, batch_format="pyarrow")
    else:
        # scale path: bucketed join on doc_id — offsets (kind 0) and text
        # payloads (kind 1) meet in their hash bucket, one exchange
        n_buckets = scaled_partitions(n_meta)

        def tag_meta(batch: pa.Table) -> pa.Table:
            t = pa.table(
                {
                    "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                    "tok_start": batch["tok_start"],
                    "text": pa.nulls(batch.num_rows, pa.string()),
                    "kind": pa.array([0] * batch.num_rows, pa.int8()),
                }
            )
            return tag_partition(t, ["doc_id"], n_buckets)

        def tag_docs(batch: pa.Table) -> pa.Table:
            t = pa.table(
                {
                    "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                    "tok_start": pa.array([0] * batch.num_rows, pa.int64()),
                    "text": pc.cast(batch["text"], pa.string()),
                    "kind": pa.array([1] * batch.num_rows, pa.int8()),
                }
            )
            return tag_partition(t, ["doc_id"], n_buckets)

        tagged = meta_ds.map_batches(tag_meta, batch_format="pyarrow").union(
            docs.map_batches(tag_docs, batch_format="pyarrow")
        )

        def join_segments(group: pa.Table) -> pa.Table:
            if group.num_columns == 0 or group.num_rows == 0:
                return pa.table(
                    {
                        "seq_id": pa.array([], pa.int64()),
                        "seg_start": pa.array([], pa.int64()),
                        "seg_text": pa.array([], pa.large_string()),
                    }
                )
            m = group.filter(pc.equal(group["kind"], 0)).sort_by(
                [("doc_id", "ascending")]
            )
            return _winner_segments(
                m["doc_id"].to_numpy(zero_copy_only=False),
                m["tok_start"].to_numpy(zero_copy_only=False),
                group.filter(pc.equal(group["kind"], 1)),
                budget,
            )

        seg_ds = tagged.groupby("__pp").map_groups(
            join_segments, batch_format="pyarrow"
        )

    def assemble_bucket(group: pa.Table) -> pa.Table:
        # ONE vectorized pass per hash BUCKET of sequences (a map_groups
        # call per seq_id measured ~60 s at 187k seqs — the per-group
        # Python killer): sort (seq_id, seg_start), cut at seq changes,
        # binary_join the segment texts per sequence
        empty = pa.table(
            {
                "seq_id": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "text": pa.array([], pa.large_string()),
            }
        )
        if group.num_columns == 0 or group.num_rows == 0:
            return empty
        g = group.sort_by(
            [("seq_id", "ascending"), ("seg_start", "ascending")]
        )
        sid = g["seq_id"].to_numpy(zero_copy_only=False)
        first = np.ones(len(sid), bool)
        first[1:] = sid[1:] != sid[:-1]
        idx = np.flatnonzero(first)
        offsets = pa.array(np.append(idx, len(sid)), pa.int64())
        lists = pa.LargeListArray.from_arrays(
            offsets, g["seg_text"].combine_chunks()
        )
        text = pc.binary_join(lists, pa.scalar(" ", pa.large_string()))
        ntok = pc.add(
            pc.cast(pc.count_substring(text, " "), pa.int64()),
            pa.scalar(1, pa.int64()),
        )
        return pa.table(
            {
                "seq_id": pa.array(sid[idx], pa.int64()),
                "n_tokens": ntok,
                "text": text,
            }
        )

    n_seq_buckets = scaled_partitions(n_meta)
    seqs = (
        seg_ds.map_batches(
            lambda b: tag_partition(b, ["seq_id"], n_seq_buckets),
            batch_format="pyarrow",
        )
        .groupby("__pp")
        .map_groups(assemble_bucket, batch_format="pyarrow")
    )
    # idempotent re-run: clear stale shard files first (write_parquet
    # appends uniquely-named files; leftovers would double-count on read)
    import glob as _glob
    import os as _os

    _os.makedirs(out_dir, exist_ok=True)
    for p in _glob.glob(f"{out_dir}/*.parquet"):
        _os.remove(p)
    seqs.write_parquet(out_dir)
    out = rd.read_parquet(out_dir, columns=["seq_id", "n_tokens"])
    summary = collect(out)
    return pa.table(
        {
            "n_seqs": pa.array([summary.num_rows], pa.int64()),
            "n_tokens": pa.array(
                [int(pc.sum(summary["n_tokens"]).as_py() or 0)], pa.int64()
            ),
        }
    )


def checkpointed_training(
    input_path: str, workdir: str, *, budget: int = 512, n_partitions: int = 32
) -> rd.Dataset:
    """Production variant of ``corpus_to_training``: the extraction leg
    runs in CHECKPOINT mode (per-partition atomic parquet + lineage
    manifests under ``workdir``), so a failed training-data build resumes
    by skipping finished extraction partitions; the curation/packing
    exchange then streams from the checkpoint instead of re-extracting.
    Output is identical to corpus_to_training over the same corpus (the
    two extraction modes are golden-equivalent and packing depends only
    on the (doc_id, text) set)."""
    from ..functions.textops import prepare_training_ds
    from ..sources.pages import count_rows
    from .extract import read_extracted, run_checkpoint

    run_checkpoint(
        input_path,
        workdir,
        n_partitions=n_partitions,
        resume=True,
        emit_pages=False,
        assign_doc_ids=True,
    )
    extracted = read_extracted(workdir)

    docs = extracted.map_batches(_ok_docs, batch_format="pyarrow")
    n_rows = count_rows(input_path)
    return prepare_training_ds(docs, n_rows, budget=budget)
