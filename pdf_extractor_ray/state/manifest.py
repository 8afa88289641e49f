"""Per-partition checkpoint manifests — the engine's lineage/resume state.

Reference analog: job-status rows + the retry endpoint
(``/root/reference/backend/src/tasks.py:271-282``,
``backend/src/main.py:1695-1795``) and Redis pending-task sets
(``backend/src/file_coordinator.py:18-35``). Here lineage is a file per
completed partition: output files land in
``{out}/partition_id={K}/`` via write-to-temp + atomic ``os.rename``, and a
``_MANIFEST.json`` records input fingerprint + row counts + throughput
metrics (the reference's per-job ``latency_ms``/``cost`` analog,
``backend/src/tasks.py:265-282``). A re-run skips partitions whose manifest
exists (idempotent partition overwrite = the reference's
soft-delete-then-rewrite retry, ``main.py:1752-1776``).
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import asdict, dataclass


@dataclass
class PartitionManifest:
    partition_id: int
    rows_in: int
    rows_out: int
    n_ok: int
    n_empty: int
    n_error: int
    n_unknown: int
    bytes_in: int
    wall_s: float
    input_fingerprint: int  # order-independent: uint64 wrap-sum of hash64(url|ts)
    files: list[str] = None  # input shard paths this partition covered
    file_sizes: list[int] = None  # byte sizes at processing time
    # statuses outside the four classic classes (breaker_open; image rows
    # extract 'ok' via the deterministic fake-OCR kernel since round 3) so
    # counters always reconcile to rows_out;
    # defaulted so pre-field manifests still load on resume
    n_other: int = 0

    @property
    def docs_per_s(self) -> float:
        return self.rows_out / self.wall_s if self.wall_s else 0.0


def partition_dir(output_dir: str, partition_id: int) -> str:
    # deliberately NOT hive "key=value" syntax: a hive-aware reader would
    # silently overwrite the url-hash partition_id COLUMN with the
    # shard-group directory index (they are different things)
    return os.path.join(output_dir, f"part-{partition_id}")


def input_fingerprint(urls, tss) -> int:
    """Order-independent input identity: uint64 wrap-sum of per-row 64-bit
    hashes of ``url|warc_ts_int``. Takes the Arrow key columns directly and
    hashes them vectorized (Arrow join + pandas' C siphash over the string
    block) — the keys pass touches every input row, so a per-row Python
    loop here was the partition task's last O(rows) interpreter cost.
    Value is compared only against manifests written by the same install
    (resume validity is decided by file lists + sizes, not this)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    u = urls if isinstance(urls, (pa.Array, pa.ChunkedArray)) else pa.array(urls)
    t = tss if isinstance(tss, (pa.Array, pa.ChunkedArray)) else pa.array(tss)
    key = pc.binary_join_element_wise(
        pc.cast(u, pa.string()),
        pc.cast(pc.cast(t, pa.int64()), pa.string()),
        "|",
    )
    h = pd.util.hash_array(key.to_numpy(zero_copy_only=False))
    return int(h.sum(dtype=np.uint64))


def write_partition_atomic(
    output_dir: str,
    partition_id: int,
    writer,  # callable(dir_path) -> PartitionManifest: writes data files
) -> str:
    """Run ``writer`` against a temp dir, dump the manifest it returns,
    then atomically rename into place. The writer owns the (possibly
    streaming) data writes AND produces the manifest — counters are only
    known once the stream has drained. An existing partition dir is
    replaced (idempotent re-run of a failed/invalidated partition)."""
    final = partition_dir(output_dir, partition_id)
    tmp = os.path.join(output_dir, f"_tmp-{partition_id}-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp, exist_ok=True)
    try:
        manifest = writer(tmp)
        assert manifest.partition_id == partition_id
        with open(os.path.join(tmp, "_MANIFEST.json"), "w") as f:
            json.dump(asdict(manifest), f, indent=1)
        if os.path.exists(final):
            # "_stale-" prefix so a crash between renames can never be
            # mistaken for a live partition dir by resume/readers
            stale = os.path.join(
                os.path.dirname(final),
                f"_stale-{partition_id}-{uuid.uuid4().hex[:8]}",
            )
            os.rename(final, stale)
            _rmtree(stale)
        os.rename(tmp, final)
    except BaseException:
        _rmtree(tmp)
        raise
    return final


def _rmtree(path: str) -> None:
    import shutil

    shutil.rmtree(path, ignore_errors=True)


def read_manifests(output_dir: str) -> dict[int, PartitionManifest]:
    out: dict[int, PartitionManifest] = {}
    if not os.path.isdir(output_dir):
        return out
    for name in os.listdir(output_dir):
        if not name.startswith("part-"):
            continue
        mp = os.path.join(output_dir, name, "_MANIFEST.json")
        if os.path.exists(mp):
            with open(mp) as f:
                data = json.load(f)
            m = PartitionManifest(**data)
            out[m.partition_id] = m
    return out


def completed_partitions(
    output_dir: str, groups: list[list[str]] | None = None
) -> frozenset[int]:
    """Partitions safe to skip on resume. When ``groups`` (the CURRENT
    shard grouping) is given, a manifest only counts as complete if it
    covered exactly the same file list — so adding/removing input shards
    (which shifts contiguous group boundaries) automatically invalidates
    and recomputes the affected partitions instead of silently skipping
    them with stale coverage. Manifests written before this field existed
    (files=None) are trusted as before."""
    out = set()
    for pid, man in read_manifests(output_dir).items():
        if groups is not None and man.files is not None:
            if pid >= len(groups) or man.files != groups[pid]:
                continue
            if man.file_sizes is not None:
                try:
                    sizes = [os.path.getsize(f) for f in man.files]
                except OSError:
                    continue
                if sizes != man.file_sizes:
                    continue  # shard rewritten in place -> recompute
        out.add(pid)
    return frozenset(out)
