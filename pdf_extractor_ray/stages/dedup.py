"""Input dedup: one output row per url, first-wins by min ``warc_ts``.

Reference analog: one-rating-per-key upsert + unique index
(``/root/reference/backend/src/main.py:1124-1159``,
``backend/src/migration.py:309-365``) generalized to the corpus key ``url``
(SURVEY.md §2.6 O6).

Scale design — dedup WITHOUT moving payloads. A classic exact dedup
co-locates full rows by url hash (an all-to-all over the payload bytes;
measured locally it dominated the whole pipeline). Instead:

1. **Key scan**: a second column-pruned read of only (url, warc_ts) —
   16-ish bytes/row leaving storage instead of the multi-KB payload.
2. **Dup index**: per-batch partial (url -> count, min_ts), combined into
   the set of *duplicated* urls and each one's winning warc_ts. With a
   realistic ~1% duplicate rate this index is tiny relative to the corpus.
3. **Broadcast filter**: the index is ``ray.put`` once and read by every
   partition task, whose keys pass drops its losers vectorized before any
   payload byte is read.

The payload-bearing pipeline therefore stays shuffle-free end-to-end.
Assumption (documented, asserted): duplicated-url index fits in worker
memory. For corpora where duplicates themselves are at object-store scale,
fall back to hash-partitioned ``dedup_first_wins`` below (the co-locating
variant used inside per-partition checkpoint tasks).

Ties: ``warc_ts`` is a capture timestamp; rows with the same url AND same
timestamp are the same capture (byte-identical payload by assumption). The
dup index records, per duplicated url, how many rows share the winning
timestamp (``n_at_min``) and — for real ties — the GLOBAL winner's
coordinates: ``win_file`` (first shard in sorted order containing a min-ts
row) and ``win_row`` (lowest row-in-file among min-ts rows in that shard).
(win_file, win_row) is a total order over tie rows, so the filter keeps
exactly one row per url no matter how ties split across batches, shards,
or partitions — including equal-(url, ts) rows stored twice inside ONE
file (the pre-round-4 residual). Callers provide provenance as a ``path``
column plus a ``_row_in_file`` column (the partition keys pass,
``pipelines.extract._partition_keep_masks``, adds both).

Null urls are rejected (``require_urls``) in every keys scan: a row with no
url has no place in a one-row-per-url contract, so it is malformed input,
not a row to drop silently.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd


def dedup_first_wins(group: pa.Table) -> pa.Table:
    """Keep the min-warc_ts row per url (vectorized sort + adjacent-diff).
    Requires all rows of a url to be co-located in ``group``."""
    if group.num_rows <= 1:
        return group
    order = pc.sort_indices(
        group, sort_keys=[("url", "ascending"), ("warc_ts", "ascending")]
    )
    t = group.take(order)
    urls = t["url"].combine_chunks()
    changed = pc.not_equal(urls.slice(1), urls.slice(0, len(urls) - 1))
    if isinstance(changed, pa.ChunkedArray):
        changed = changed.combine_chunks()
    first = pa.concat_arrays([pa.array([True]), changed])
    return t.filter(first)


def require_urls(keys: pa.Table, path: str) -> None:
    """Raise ``ValueError`` naming shard ``path`` when ``keys`` holds a null
    url."""
    if keys["url"].null_count:
        raise ValueError(
            f"input shard {path!r} has {keys['url'].null_count} row(s) with "
            "a null url; every page needs a url"
        )


def _key_partial(batch: pa.Table) -> pa.Table:
    """Per-batch (url -> min_ts_us, count) partial of a keys batch read
    with its ``path`` column; null urls are rejected per shard (the count
    in the message is the batch's). min_ts rides as int64 microseconds:
    Ray's native Min aggregate degrades timestamp[us, UTC] to timestamp[s]
    (silent sub-second truncation)."""
    if batch["url"].null_count:
        for path in pc.unique(batch["path"]).to_pylist():
            require_urls(batch.filter(pc.equal(batch["path"], path)), path)
    t = batch.group_by(["url"]).aggregate(
        [("warc_ts", "min"), ("warc_ts", "count")]
    )
    return pa.table(
        {
            "url": t["url"],
            "ts_min_us": pc.cast(t["warc_ts_min"], pa.int64()),
            "cnt": pc.cast(t["warc_ts_count"], pa.int64()),
        }
    )


_DRIVER_KEY_ROWS = 20_000_000  # keys below this: one multithreaded arrow read


def _tie_columns(
    dups: pa.Table, at_min: pa.Table
) -> tuple[pa.Array, pa.Array, pa.Array]:
    """(n_at_min, win_file, win_row) aligned to ``dups`` rows. ``at_min``
    holds every (url, path, row) row whose warc_ts equals its url's winning
    min_ts (``row`` = row index within its file). The global winner of a
    tie is (min path, then min row-in-file) — a total order, so equal-
    (url, ts) rows inside ONE file also collapse to exactly one winner."""
    agg = at_min.group_by(["url"]).aggregate([("path", "min"), ("path", "count")])
    idx = pc.index_in(dups["url"], value_set=agg["url"].combine_chunks())
    n_at_min = pc.cast(
        pc.take(agg["path_count"].combine_chunks(), idx), pa.int64()
    )
    win_raw = pc.take(agg["path_min"].combine_chunks(), idx)
    # "" for unique-by-ts winners: skips the provenance check entirely
    win_file = pc.if_else(pc.greater(n_at_min, 1), win_raw, "")
    # min row among the at-min rows that sit in the winning file
    wf_rows = pc.take(
        agg["path_min"].combine_chunks(),
        pc.index_in(at_min["url"], value_set=agg["url"].combine_chunks()),
    )
    in_win = at_min.filter(pc.equal(at_min["path"], wf_rows))
    ragg = in_win.group_by(["url"]).aggregate([("row", "min")])
    win_row_raw = pc.take(
        ragg["row_min"].combine_chunks(),
        pc.index_in(dups["url"], value_set=ragg["url"].combine_chunks()),
    )
    win_row = pc.if_else(
        pc.greater(n_at_min, 1), pc.cast(win_row_raw, pa.int64()), -1
    )
    return n_at_min, win_file, win_row


def build_dup_index(input_path: str) -> pa.Table | None:
    """Keys-only scan -> table (url, min_ts, n_at_min, win_file, win_row) of
    DUPLICATED urls only. Returns None when the corpus has no duplicate
    urls (common fast path).

    Two physical paths, chosen from parquet metadata: below
    ``_DRIVER_KEY_ROWS`` keys, one multithreaded arrow read + group_by on
    the driver (a Ray Data job here measured 40x slower than the 4 MB of
    actual work). Above it, the combine runs INSIDE the cluster — per-batch
    partials, a cluster-side ``groupby(url)``, and a count>1 filter BEFORE
    collection, so the driver only ever receives the duplicated-url set
    (mostly-unique key sets previously concat'ed every distinct url on the
    driver, which does not survive 10^12 rows).
    """
    import pyarrow.parquet as pq

    from ..sources.pages import count_rows, list_shards

    files = list_shards(input_path)
    if count_rows(input_path) <= _DRIVER_KEY_ROWS:
        # read the exact counted file set (a directory read could include
        # nested/non-shard files the count did not)
        tabs = []
        for fidx, f in enumerate(files):
            t = pq.read_table(f, columns=["url", "warc_ts"])
            require_urls(t, f)
            # 4-byte shard index + 8-byte row-in-file per row (full path
            # strings materialize only for the tiny duplicated-at-min
            # subset below); row-in-file makes the tie winner a TOTAL
            # order even for equal-(url, ts) rows inside one file
            tabs.append(
                t.append_column(
                    "fidx", pa.array(np.full(t.num_rows, fidx, np.int32))
                ).append_column(
                    "row", pa.array(np.arange(t.num_rows, dtype=np.int64))
                )
            )
        keys_t = pa.concat_tables(tabs).combine_chunks()
        combined = keys_t.group_by(["url"]).aggregate(
            [("warc_ts", "min"), ("warc_ts", "count")]
        )
        dups = combined.filter(pc.greater(combined["warc_ts_count"], 1))
        if dups.num_rows == 0:
            return None
        dup_urls = dups["url"].combine_chunks()
        rows = keys_t.filter(pc.is_in(keys_t["url"], value_set=dup_urls))
        ridx = pc.index_in(rows["url"], value_set=dup_urls)
        row_min = pc.take(dups["warc_ts_min"].combine_chunks(), ridx)
        at_min = rows.filter(pc.equal(rows["warc_ts"], row_min))
        at_min = at_min.append_column(
            "path", pc.take(pa.array(files), at_min["fidx"])
        )
        n_at_min, win_file, win_row = _tie_columns(dups, at_min)
        return pa.table(
            {
                "url": dups["url"],
                "min_ts": dups["warc_ts_min"],
                "n_at_min": n_at_min,
                "win_file": win_file,
                "win_row": win_row,
            }
        )

    import ray
    from ray.data.aggregate import Min, Sum

    from ..functions.agg import collect

    keys = rd.read_parquet(
        input_path, columns=["url", "warc_ts"], include_paths=True
    )
    # surface require_urls' ValueError as itself, as on the driver path,
    # not wrapped in Ray Data's UserCodeException
    keys.context.raise_original_map_exception = True
    partials = keys.map_batches(_key_partial, batch_format="pyarrow")
    # native aggregate: Ray combines the partials vectorized, no per-group call
    combined = partials.groupby("url").aggregate(Min("ts_min_us"), Sum("cnt"))

    def _only_dups(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["sum(cnt)"], 1))

    dups = collect(combined.map_batches(_only_dups, batch_format="pyarrow"))
    if dups is None:
        return None
    dups = dups.combine_chunks()
    dups = pa.table(
        {
            "url": dups["url"],
            "warc_ts_min": pc.cast(
                dups["min(ts_min_us)"], pa.timestamp("us", tz="UTC")
            ),
        }
    )
    # tie pass: provenance rows for duplicated urls only (broadcast-filter
    # semi-join over a keys+path scan; collected set = duplicated rows
    # only). read_pages_with_ids carries the read-time (shard << 40 | row)
    # id, whose low bits are the row-in-file the total tie order needs.
    from ..sources.pages import _SHARD_ID_BITS, read_pages_with_ids

    dup_urls = dups["url"].combine_chunks()
    dup_urls_ref = ray.put(dup_urls)
    row_mask = (1 << _SHARD_ID_BITS) - 1

    def _dup_rows(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b["url"], value_set=ray.get(dup_urls_ref)))
        return b.append_column(
            "row", pc.bit_wise_and(b["doc_id"], row_mask)
        ).drop_columns(["doc_id"])

    prov = read_pages_with_ids(input_path, columns=["url", "warc_ts"])
    prov = prov.map_batches(_dup_rows, batch_format="pyarrow")
    rows = collect(prov).combine_chunks()
    ridx = pc.index_in(rows["url"], value_set=dup_urls)
    row_min = pc.take(dups["warc_ts_min"].combine_chunks(), ridx)
    at_min = rows.filter(pc.equal(rows["warc_ts"], row_min))
    n_at_min, win_file, win_row = _tie_columns(dups, at_min)
    return pa.table(
        {
            "url": dups["url"],
            "min_ts": dups["warc_ts_min"],
            "n_at_min": n_at_min,
            "win_file": win_file,
            "win_row": win_row,
        }
    )


class DupFilter:
    """Prebuilt broadcast-filter state: the url value-set and aligned
    winner arrays are built ONCE (per actor / per partition task), not per
    batch. The filter itself is fully vectorized (``index_in`` + ``take``
    + numpy first-occurrence); Python never touches non-duplicate rows.

    Tie semantics: rows whose warc_ts equals the winning min_ts survive
    only if (a) the index marks the url unique-at-min (``n_at_min`` == 1 or
    tie columns absent), or (b) their provenance ``path`` column equals the
    url's ``win_file``; a numpy first-occurrence pass then keeps one row
    per url within the batch. With provenance present this collapses ties
    globally (see module docstring for the single residual case)."""

    def __init__(self, dup_index: pa.Table):
        self.value_set = dup_index["url"].combine_chunks()
        self.min_ts = dup_index["min_ts"].combine_chunks()
        if "n_at_min" in dup_index.column_names:
            self.n_at_min = dup_index["n_at_min"].combine_chunks().to_numpy(
                zero_copy_only=False
            )
            self.win_file = np.asarray(
                dup_index["win_file"].to_pylist(), dtype=object
            )
            self.win_row = (
                dup_index["win_row"].combine_chunks().to_numpy(
                    zero_copy_only=False
                )
                if "win_row" in dup_index.column_names
                else None
            )
            self.has_ties = bool((self.n_at_min > 1).any())
        else:  # minimal (url, min_ts) index: batch-local tie collapse only
            self.n_at_min = None
            self.win_file = None
            self.win_row = None
            self.has_ties = False

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"]
        idx = pc.index_in(urls, value_set=self.value_set)
        hit = pc.is_valid(idx)
        if not pc.any(hit).as_py():
            return batch
        hit_np = hit.to_numpy(zero_copy_only=False)
        winner_ts = pc.take(self.min_ts, idx)
        is_win = pc.equal(batch["warc_ts"], winner_ts)
        # hit rows keep only on ts equality — a NULL comparison (null
        # warc_ts on a duplicated url) must drop the row, never win over
        # the real min-ts capture; non-hit rows always keep
        keep = (
            pc.if_else(hit, pc.fill_null(is_win, False), True)
            .to_numpy(zero_copy_only=False)
            .copy()
        )
        win_rows = np.flatnonzero(keep & hit_np)
        if win_rows.size:
            idx_np = (
                pc.fill_null(idx, -1)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            ids = idx_np[win_rows]
            if self.has_ties and "path" in batch.column_names:
                tie_mask = self.n_at_min[ids] > 1
                if tie_mask.any():
                    paths = np.asarray(
                        pc.take(
                            batch["path"].combine_chunks()
                            if isinstance(batch["path"], pa.ChunkedArray)
                            else batch["path"],
                            pa.array(win_rows),
                        ).to_pylist(),
                        dtype=object,
                    )
                    drop = tie_mask & (paths != self.win_file[ids])
                    if (
                        self.win_row is not None
                        and "_row_in_file" in batch.column_names
                    ):
                        # read-time row ids make the tie winner a TOTAL
                        # order: equal-(url, ts) rows inside one file also
                        # collapse globally, batch boundaries irrelevant
                        rows_np = (
                            pc.take(
                                batch["_row_in_file"].combine_chunks(),
                                pa.array(win_rows),
                            )
                            .to_numpy(zero_copy_only=False)
                            .astype(np.int64)
                        )
                        drop |= tie_mask & (rows_np != self.win_row[ids])
                    keep[win_rows[drop]] = False
                    win_rows = np.flatnonzero(keep & hit_np)
                    ids = idx_np[win_rows]
            # first-occurrence collapse within the batch: np.unique returns
            # the index of each value's FIRST occurrence
            _, first_pos = np.unique(ids, return_index=True)
            dup_mask = np.ones(win_rows.size, bool)
            dup_mask[first_pos] = False
            keep[win_rows[dup_mask]] = False
        return batch.filter(pa.array(keep))


def index_has_ties(dup_index: pa.Table | None) -> bool:
    """True when any duplicated url has multiple rows at the winning
    timestamp — the only case where the filter needs row provenance."""
    return (
        dup_index is not None
        and "n_at_min" in dup_index.column_names
        and pc.any(pc.greater(dup_index["n_at_min"], 1)).as_py() is True
    )


def drop_dup_losers(batch: pa.Table, *, dup_index: pa.Table) -> pa.Table:
    """One-shot convenience wrapper over DupFilter (each partition's keys
    pass calls this once)."""
    return DupFilter(dup_index)(batch)
