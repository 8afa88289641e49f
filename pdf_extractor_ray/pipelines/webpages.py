"""Extraction -> training data: the compositions that feed extracted
texts to packing (``*_to_training``) and the module that owns the training
shard egress (``write_training_shards``, raw Ray tasks over a checkpoint).

The driver test tables (`/root/testdata/sf*/documents.parquet`:
doc_id,text,lang,source,n_chars) are not web pages; ``docs_to_pages`` wraps
each document's text into a deterministic minimal HTML page (same template
every run) so the flagship sniff->extract pipeline runs over driver data, as
a `map_batches` stage — the corpus never materializes driver-side.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..stages.extract import DocumentExtractor
from ..stages.sniff import sniff_and_partition
from .extract import ok_docs
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

    docs = extracted.map_batches(ok_docs, batch_format="pyarrow")
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

    docs = extracted.map_batches(ok_docs, batch_format="pyarrow")
    n_rows = pages.count()
    return prepare_training_ds(docs, n_rows, budget=budget)


def _segments_table(
    kept_text: "pa.ChunkedArray | pa.Array", starts, budget: int
) -> pa.Table:
    """Slice each doc's whitespace tokens at its exact global window
    boundaries -> (seq_id, seg_start, seg_text) segment rows.
    Fully vectorized over the text buffer: ``ws_bounds`` finds the tokens,
    each token's global position cuts segments where the doc or the
    window changes, and a segment's text is its tokens' bytes with one
    space after every token but its last — one gather, no per-doc Python
    and no per-token strings."""
    import numpy as np

    from ..functions.textops import token_bytes, ws_bounds

    empty = pa.table(
        {
            "seq_id": pa.array([], pa.int64()),
            "seg_start": pa.array([], pa.int64()),
            "seg_text": pa.array([], pa.large_string()),
        }
    )
    data, t0, t1, counts = ws_bounds(kept_text)
    total = len(t0)
    if total == 0:
        return empty
    starts = np.asarray(starts, dtype=np.int64)
    run_idx = np.cumsum(counts) - counts  # each doc's first token
    has_tok = counts > 0
    parent = np.repeat(np.arange(len(counts)), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(run_idx, counts)
    gpos = starts[parent] + within
    seq = gpos // budget
    new_seg = np.zeros(total, bool)
    new_seg[run_idx[has_tok]] = True
    new_seg[1:] |= seq[1:] != seq[:-1]
    seg_idx = np.flatnonzero(new_seg)
    # every token byte belongs to a segment; a space follows each token
    # but a segment's last, taking the place of the gap's first byte
    spaced = np.ones(total, bool)
    spaced[np.append(seg_idx[1:], total) - 1] = False
    keep = token_bytes(data)
    keep[t1[spaced]] = True
    out = data[keep]
    width = t1 - t0 + spaced
    out[np.cumsum(width)[spaced] - 1] = 0x20
    offsets = np.zeros(len(seg_idx) + 1, np.int64)
    np.cumsum(np.add.reduceat(width, seg_idx), out=offsets[1:])
    return pa.table(
        {
            "seq_id": pa.array(seq[seg_idx], pa.int64()),
            "seg_start": pa.array(gpos[seg_idx], pa.int64()),
            "seg_text": pa.LargeStringArray.from_buffers(
                len(seg_idx), pa.py_buffer(offsets), pa.py_buffer(out)
            ),
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


# the checkpoint columns the training egress reads
_TEXT_COLUMNS = ["doc_id", "status", "extracted_text"]


def assemble_bucket(group: pa.Table) -> pa.Table:
    """(seq_id, seg_start, seg_text) segment rows of whole sequences ->
    one (seq_id, n_tokens, text) row per sequence, ascending seq_id. ONE
    vectorized pass per seq-id range (a map_groups call per seq_id
    measured ~60 s at 187k seqs — the per-group Python killer): sort
    (seq_id, seg_start), cut at seq changes, binary_join the segment texts
    per sequence."""
    import numpy as np
    import pyarrow.compute as pc

    g = group.sort_by([("seq_id", "ascending"), ("seg_start", "ascending")])
    sid = g["seq_id"].to_numpy(zero_copy_only=False)
    first = np.ones(len(sid), bool)
    first[1:] = sid[1:] != sid[:-1]
    idx = np.flatnonzero(first)
    offsets = pa.array(np.append(idx, len(sid)), pa.int64())
    lists = pa.LargeListArray.from_arrays(offsets, g["seg_text"].combine_chunks())
    text = pc.binary_join(lists, pa.scalar(" ", pa.large_string()))
    ntok = pc.add(
        pc.cast(pc.count_substring(text, " "), pa.int64()),
        pa.scalar(1, pa.int64()),
    )
    return pa.table(
        {"seq_id": pa.array(sid[idx], pa.int64()), "n_tokens": ntok, "text": text}
    )


# the egress's per-partition product, the schema-metadata field that holds
# its packing key, and the most input rows one range task packs (~90 B per
# key at its peak: ~0.4 GB)
_SEGMENTS = "segments.arrow"
_KEY_FIELD = b"packing_key"
_KEYS_PER_RANGE = 1 << 22


def range_offsets(keys: list[str], r: int, n_ranges: int) -> tuple[list[tuple], int, str]:
    """Range ``r`` of the packing in ``n_ranges`` k0 ranges, cut as
    ``prepare_training_ds`` cuts its buckets (copies share a k0, so they
    meet in one range): ``training_offsets`` of the rows of the
    ``keys.parquet`` files ``keys`` in the range, read from the row groups
    whose k0 statistics reach it. Returns per file its winners' doc_ids
    ascending and their ``tok_start`` counted from the range's first
    token, the range's token total, and a digest of the rows packed."""
    import hashlib

    import numpy as np

    from ..functions.agg import range_bucket
    from ..functions.textops import TRAINING_KEY_RANGE, training_offsets

    def bucket(k0: np.ndarray) -> np.ndarray:
        return range_bucket(k0, *TRAINING_KEY_RANGE, n_ranges)

    def reaches(st) -> bool:
        if st is None or not st.has_min_max:
            return True
        lo, hi = bucket(np.array([st.min, st.max], np.uint64))
        return lo <= r <= hi

    parts = []
    for path in keys:
        f = pq.ParquetFile(path)
        col = f.schema_arrow.get_field_index("k0")
        t = f.read_row_groups(
            [g for g in range(f.num_row_groups) if reaches(f.metadata.row_group(g).column(col).statistics)]
        )
        parts.append(t.filter(bucket(t["k0"].to_numpy()) == r))
    ids, starts, total = training_offsets(pa.concat_tables(parts))
    h = hashlib.sha256(np.array([r, n_ranges], np.int64).tobytes())
    out = []
    for t in parts:
        h.update(np.array([t.num_rows], np.int64).tobytes())
        for name in ("doc_id", "k0", "k1", "n_tokens"):
            for chunk in t[name].chunks:
                h.update(chunk.to_numpy())
        did = t["doc_id"].to_numpy()
        pos = np.searchsorted(ids, did)
        hit = pos < len(ids)
        hit[hit] = ids[pos[hit]] == did[hit]
        won = np.sort(pos[hit])
        out.append((ids[won], starts[won]))
    return out, total, h.hexdigest()


def _write_offsets(staging: str, r: int, n_ranges: int, keys: list[str]) -> tuple[int, str]:
    """Range task of the egress: ``range_offsets`` written to the run's
    staging dir as ``offsets-{r}.arrow``, one record batch per keys file
    (empty ones included). The file appears whole, by rename. Returns the
    range's token total and digest."""
    import uuid

    offsets, total, digest = range_offsets(keys, r, n_ranges)
    batches = [pa.RecordBatch.from_pydict({"doc_id": i, "tok_start": s}) for i, s in offsets]
    name = f"offsets-{r}.arrow"
    tmp = os.path.join(staging, f".{name}.{uuid.uuid4().hex}")
    with pa.ipc.new_file(tmp, batches[0].schema) as w:
        for b in batches:
            w.write_batch(b)
    os.replace(tmp, os.path.join(staging, name))
    return total, digest


def packing_key(digests: list[str], budget: int, nb: int) -> str:
    """The key a partition's ``segments.arrow`` is valid under: a hash of
    the range digests (every winner's offset follows from the keys they
    cover), ``budget``, the seq-id range count ``nb``, the k0 range count
    and the file format."""
    import hashlib

    import numpy as np

    h = hashlib.sha256(b"segments-v2")
    h.update(np.array([budget, nb, len(digests)], np.int64).tobytes())
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


def _segments_key(path: str) -> str | None:
    """The packing key in a segments file's footer; None when the file is
    missing or its footer cannot be read."""
    try:
        with pa.memory_map(path) as src:
            meta = pa.ipc.open_file(src).schema.metadata or {}
    except (OSError, pa.ArrowInvalid):
        return None
    return meta.get(_KEY_FIELD, b"").decode() or None


def _write_segments(
    path: str, p: int, offsets: list[str], bases, budget: int, bounds, key: str
) -> None:
    """Map task of the egress: the winner segments of the checkpoint
    partition that holds ``path``, written there as Arrow IPC with one
    record batch per seq-id range ``[bounds[k], bounds[k + 1])`` (empty
    ones included) and ``key`` in the schema metadata. Its winners are
    batch ``p`` of every ``offsets`` file (memory-mapped), shifted by
    that range's base in ``bases``. The file appears whole, by rename
    from a temp name."""
    import uuid

    import numpy as np

    ids, starts = [], []
    for f, base in zip(offsets, bases):
        with pa.memory_map(f) as src:
            b = pa.ipc.open_file(src).get_batch(p)
        ids.append(b["doc_id"].to_numpy())
        starts.append(b["tok_start"].to_numpy() + base)
    ids, starts = np.concatenate(ids), np.concatenate(starts)
    by_id = np.argsort(ids)
    part = os.path.dirname(path)
    docs = ok_docs(
        pq.read_table(os.path.join(part, "extracted.parquet"), columns=_TEXT_COLUMNS)
    )
    seg = _winner_segments(ids[by_id], starts[by_id], docs, budget)
    k = np.searchsorted(bounds, seg["seq_id"].to_numpy(), side="right") - 1
    order = np.argsort(k, kind="stable")
    schema = seg.schema.with_metadata({_KEY_FIELD: key.encode()})
    rows = pa.RecordBatch.from_arrays(
        [c.combine_chunks() for c in seg.take(order).columns], schema=schema
    )
    cuts = np.searchsorted(k[order], np.arange(len(bounds)))
    tmp = os.path.join(part, f".{_SEGMENTS}.{uuid.uuid4().hex}")
    with pa.ipc.new_file(tmp, schema) as w:
        for a, b in zip(cuts[:-1], cuts[1:]):
            w.write_batch(rows.slice(a, b - a))
    os.replace(tmp, path)


def _write_shard(staging: str, k: int, paths: list[str], key: str, *maps) -> str:
    """Reduce task of the egress: assemble seq-id range ``k`` from batch
    ``k`` of every partition's segments file (memory-mapped; ``maps``, the
    map tasks that rewrite some, run first; a file under another packing
    key raises) and write ``shard-{k:05d}.parquet`` into the run's staging
    dir, by rename, so two attempts never leave a torn file and a late one
    fails once the driver has removed the dir. Returns the file name."""
    import uuid

    batches = []
    for p in paths:
        # the batch keeps its mapping after the file closes
        with pa.memory_map(p) as f:
            src = pa.ipc.open_file(f)
            if (src.schema.metadata or {}).get(_KEY_FIELD) != key.encode():
                raise ValueError(f"{p} was written under another packing key")
            batches.append(src.get_batch(k))
    name = f"shard-{k:05d}.parquet"
    tmp = os.path.join(staging, f".{name}.{uuid.uuid4().hex}")
    pq.write_table(assemble_bucket(pa.Table.from_batches(batches)), tmp)
    os.replace(tmp, os.path.join(staging, name))
    return name


def write_training_shards(
    input_path: str,
    workdir: str,
    out_dir: str,
    *,
    budget: int = 512,
    n_partitions: int = 32,
) -> pa.Table:
    """MATERIALIZED training egress — the step after the assignment
    metadata of ``corpus_to_training``: write the actual packed token
    sequences (one row per seq_id: exactly ``budget`` whitespace tokens,
    except the final sequence) as sharded parquet under ``out_dir``.

    Extraction runs in CHECKPOINT mode under ``workdir`` (resumable); each
    partition keeps its gated (doc_id, md5 key, n_tokens) rows, sorted by
    key, as ``keys.parquet``. Three waves of checkpoint-mode Ray tasks
    follow, no Ray Data; partition ``p`` is position ``p`` of the
    ``_partition_files`` listing in each. R = ceil(input rows /
    ``_KEYS_PER_RANGE``) range tasks (``_write_offsets``) pack the k0
    ranges of the md5-key order, and the driver scans their token totals
    into range bases and cuts the seq ids into ``nb`` = partition count
    ranges at ``n_seqs * k // nb``. Map tasks (``_write_segments``) write
    each partition's winner segments to ``part-K/segments.arrow``, one
    record batch per seq-id range, under a packing key (``packing_key``);
    a map runs only where that file is missing, unreadable or under
    another key, so a resume re-segments just the partitions it
    re-extracted, and new keys, ``budget``, partition count or R rerun
    them all. One reduce task (``_write_shard``) per non-empty seq-id
    range writes ``shard-{k:05d}.parquet``, one contiguous ascending range.

    Offsets files and shards go to a run-unique ``.staging-*`` dir under
    ``out_dir``; the driver commits the shards by rename and removes the
    dir, so no task write reaches ``out_dir`` after the commit (the
    ``sources/ipc.py`` sink's rule). A run first removes the
    ``*.parquet`` files and ``.staging-*`` dirs earlier runs left in
    ``out_dir`` and the ``part-*/.segments.arrow.*`` temp files of killed
    maps. Output rows: (seq_id, n_tokens, text). Returns a one-row
    summary table (n_seqs, n_tokens): token position p lands in sequence
    p // budget, so n_seqs = ceil(n_tokens / budget).

    SIZE NOTE: the driver holds R (token total, digest) pairs, nothing
    row-sized, at any corpus size. A range task holds its range's keys,
    32 B per gated doc and ~90 B at the packing's peak, so
    ``_KEYS_PER_RANGE`` bounds it near 0.4 GB; it reads every keys file,
    skipping the row groups of other ranges by their statistics. The
    segments product adds about the winners' text to each partition dir."""
    import glob
    import shutil
    import tempfile

    import numpy as np

    import ray

    from ..sources.pages import count_rows
    from .extract import _partition_files, checkpoint_task, run_checkpoint

    run_checkpoint(
        input_path,
        workdir,
        n_partitions=n_partitions,
        resume=True,
        emit_pages=False,
        assign_doc_ids=True,
    )
    # idempotent re-run, also when no doc wins: clear stale shard files
    # first (leftovers would double-count on read), and the staging dirs
    # and segments temp files of killed runs
    os.makedirs(out_dir, exist_ok=True)
    for p in glob.glob(f"{out_dir}/*.parquet"):
        os.remove(p)
    for p in glob.glob(f"{out_dir}/.staging-*"):
        shutil.rmtree(p, ignore_errors=True)
    for p in glob.glob(f"{workdir}/part-*/.{_SEGMENTS}.*"):
        os.remove(p)

    keys = _partition_files(workdir, "keys.parquet")
    paths = [os.path.join(os.path.dirname(p), _SEGMENTS) for p in keys]
    n_ranges = max(1, -(-count_rows(input_path) // _KEYS_PER_RANGE))
    nb, total = len(paths), 0
    staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    try:
        pack = checkpoint_task(_write_offsets)
        ranges = ray.get([pack.remote(staging, r, n_ranges, keys) for r in range(n_ranges)])
        totals = np.array([t for t, _ in ranges], np.int64)
        total = int(totals.sum())
        if total:
            n_seqs = -(-total // budget)
            bounds = np.array([n_seqs * k // nb for k in range(nb + 1)], np.int64)
            key = packing_key([d for _, d in ranges], budget, nb)
            offsets = [os.path.join(staging, f"offsets-{r}.arrow") for r in range(n_ranges)]
            bases = np.cumsum(totals) - totals
            segment = checkpoint_task(_write_segments)
            maps = [
                segment.remote(path, p, offsets, bases, budget, bounds, key)
                for p, path in enumerate(paths)
                if _segments_key(path) != key
            ]
            write = checkpoint_task(_write_shard)
            names = ray.get(
                [
                    write.remote(staging, k, paths, key, *maps)
                    for k in range(nb)
                    if bounds[k] < bounds[k + 1]
                ]
            )
            for name in names:
                os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return pa.table({"n_seqs": [-(-total // budget)], "n_tokens": [total]})


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
    docs = read_extracted(workdir, _TEXT_COLUMNS).map_batches(
        ok_docs, batch_format="pyarrow"
    )
    n_rows = count_rows(input_path)
    return prepare_training_ds(docs, n_rows, budget=budget)
