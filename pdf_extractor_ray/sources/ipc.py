"""Arrow IPC (Feather v2 / .arrow) ingest/egress for the documents table
— the zero-parse interchange format next to parquet (scale path), JSONL
and CSV. IPC blocks deserialize zero-copy, so this is the cheapest hop
between two Arrow-native jobs that don't need parquet's columnar pruning.

Reference analog: the reference normalizes whatever container the client
posts (``/root/reference/backend/src/main.py:324-489``); the contract
here is the same as the JSONL/CSV adapters — every batch is cast to the
canonical schema inside ``map_batches`` so downstream stages see blocks
identical to the parquet reader's.

The sink writes ONE .arrow file per block from inside the task, into a
staging directory unique to the run. The commit then moves exactly the
files of successful task returns into place, writes a ``_MANIFEST.json``
naming them — the authoritative read-back set — prunes part files not in
it and removes the staging directory. A late attempt of a block write (a
zombie or duplicate task) can only reach the staging directory, never the
committed one. Filenames carry a per-block-occurrence component so two
DISTINCT blocks with byte-identical contents never collapse to one file
(the row multiset is preserved exactly); stale part files from earlier
runs are pruned at commit, so a re-run converges the directory to the
new run's file set (idempotent at the directory level, not the filename
level).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from glob import glob
from itertools import count

import pyarrow as pa

import ray.data as rd

from .jsonl import DOCS_SCHEMA, _select_cast

_BLOCK_SEQ = count()  # per-worker-process block-occurrence counter
_MANIFEST = "_MANIFEST.json"


def _empty_docs(cols: list[str]) -> pa.Table:
    return pa.table({c: pa.array([], DOCS_SCHEMA.field(c).type) for c in cols})


def read_docs_ipc(input_path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Documents table from an IPC egress directory (one block per file —
    shard accordingly upstream; IPC has no row groups). Reads the sink's
    ``_MANIFEST.json`` file list when present (exact multiset of the last
    committed run); falls back to a directory glob for hand-built dirs.
    An empty directory yields an empty canonical-schema dataset."""
    cols = columns or [f.name for f in DOCS_SCHEMA]
    mpath = os.path.join(input_path, _MANIFEST)
    if os.path.exists(mpath):
        with open(mpath) as f:
            paths = sorted(e["file"] for e in json.load(f)["files"])
    else:
        paths = sorted(glob(f"{input_path}/*.arrow"))
    if not paths:  # empty egress: canonical-schema empty dataset
        return rd.from_arrow(_empty_docs(cols))

    def parse(batch: pa.Table) -> pa.Table:
        tables = []
        for b in batch["bytes"].to_pylist():
            t = pa.ipc.open_file(pa.BufferReader(b)).read_all()
            tables.append(_select_cast(t, DOCS_SCHEMA, cols))
        if not tables:
            return _empty_docs(cols)
        return pa.concat_tables(tables)

    return rd.read_binary_files(paths).map_batches(parse, batch_format="pyarrow")


def write_docs_ipc(ds: rd.Dataset, output_path: str) -> pa.Table:
    """Documents egress: one IPC file per block, written distributed into
    a run-unique staging directory; commits the files of successful task
    returns into ``output_path`` with ``_MANIFEST.json``, prunes part files
    not in it and returns the (file, rows) manifest table."""
    from ..functions.agg import collect

    os.makedirs(output_path, exist_ok=True)
    staging = os.path.join(output_path, f".staging-{uuid.uuid4().hex}")
    os.mkdir(staging)

    def write_block(batch: pa.Table) -> pa.Table:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_file(sink, batch.schema) as w:
            w.write_table(batch)
        data = sink.getvalue().to_pybytes()
        # filename = content hash + (pid, per-process seq): two DISTINCT
        # blocks with byte-identical contents must not collapse to one
        # file (the row multiset would silently shrink on read-back), and
        # no two attempts share a file. Only the names of SUCCESSFUL task
        # returns are committed; a retry's or zombie's file stays in the
        # staging directory, and once the commit has removed it the open
        # fails.
        seq = next(_BLOCK_SEQ)
        name = f"part-{hashlib.md5(data).hexdigest()[:16]}-{os.getpid()}-{seq}.arrow"
        with open(os.path.join(staging, name), "wb") as f:
            f.write(data)
        return pa.table(
            {
                "file": pa.array([name], pa.string()),
                "rows": pa.array([batch.num_rows], pa.int64()),
            }
        )

    try:
        staged = collect(ds.map_batches(write_block, batch_format="pyarrow"))
        names = [] if staged is None else staged["file"].to_pylist()
        rows = [] if staged is None else staged["rows"].to_pylist()
        # commit: move the staged files into place, write the manifest
        # atomically, then prune parts not in it (stale files from a
        # previous run to the same dir)
        files = [os.path.join(output_path, n) for n in names]
        for n, f in zip(names, files):
            os.replace(os.path.join(staging, n), f)
        entries = [{"file": f, "rows": r} for f, r in zip(files, rows)]
        mtmp = os.path.join(output_path, f".{_MANIFEST}.{os.getpid()}.tmp")
        with open(mtmp, "w") as f:
            json.dump({"files": entries}, f, indent=1)
        os.replace(mtmp, os.path.join(output_path, _MANIFEST))
        keep = set(files)
        for p in glob(f"{output_path}/part-*.arrow"):
            if p not in keep:
                os.remove(p)
    finally:
        # a zombie writing into it right now can make the removal fail;
        # its file is never committed either way
        shutil.rmtree(staging, ignore_errors=True)
    return pa.table(
        {"file": pa.array(files, pa.string()), "rows": pa.array(rows, pa.int64())}
    )
