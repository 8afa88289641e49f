"""Input dedup: one output row per url, first-wins by min ``warc_ts``.

Reference analog: one-rating-per-key upsert + unique index
(``/root/reference/backend/src/main.py:1124-1159``,
``backend/src/migration.py:309-365``) generalized to the corpus key ``url``
(SURVEY.md §2.6 O6).

Scale design — dedup WITHOUT moving payloads. A classic exact dedup
co-locates full rows by url hash (an all-to-all over the payload bytes;
measured locally it dominated the whole pipeline). Instead:

1. **Key scan**: a column-pruned read of only (url, warc_ts) —
   16-ish bytes/row leaving storage instead of the multi-KB payload.
2. **Dup index** (``build_dup_index``): one map/reduce of raw Ray tasks
   at every corpus size, R = ceil(input rows / ``_KEYS_PER_TASK``). Each
   of at most R map tasks reads the keys of one contiguous shard group
   once and hash-splits them into R url ranges; each range's reduce task
   (at R = 1, the one map) keeps the urls seen more than once, with the
   winning warc_ts and the tie columns below. The driver concatenates
   the R slices, which are the index of *duplicated* urls only — tiny
   relative to the corpus at a realistic ~1% duplicate rate.
3. **Broadcast filter**: the index is ``ray.put`` once and read by every
   partition task, whose keys pass drops its losers vectorized before any
   payload byte is read.

The payload-bearing pipeline therefore stays shuffle-free end-to-end.
Size: a map or reduce task holds about ``_KEYS_PER_TASK`` key rows (one
map more when a single shard is larger); the driver reads only parquet
footers and holds the index, whose size follows the duplicated urls, not
the corpus. Every partition task reads the whole index, so it must fit a
worker; nothing checks that.

Ties: ``warc_ts`` is a capture timestamp; rows with the same url AND same
timestamp are the same capture (byte-identical payload by assumption). The
dup index records, per duplicated url, how many rows share the winning
timestamp (``n_at_min``) and — for real ties — the GLOBAL winner's
coordinates: ``win_file`` (first shard in sorted order containing a min-ts
row) and ``win_row`` (lowest row-in-file among min-ts rows in that shard).
(win_file, win_row) is a total order over tie rows, so the filter keeps
exactly one row per url no matter how ties split across batches, shards,
or partitions — including equal-(url, ts) rows stored twice inside ONE
file (the pre-round-4 residual). When the index holds a tie, callers
provide provenance as a ``path`` column plus a ``_row_in_file`` column
(the partition keys pass, ``pipelines.extract._partition_keep_masks``,
adds both).

Null urls are rejected (``require_urls``) in every keys scan: a row with no
url has no place in a one-row-per-url contract, so it is malformed input,
not a row to drop silently.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


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


# the most key rows one map or reduce task of the dup index holds (measured
# at 60-byte urls: ~300 B per row at a map's or a reduce's peak, input
# included: ~0.3 GB)
_KEYS_PER_TASK = 1 << 20


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


def _split_keys(files: list[str], base: int, n_ranges: int):
    """Map task of the dup index: (url, warc_ts) of the contiguous shard
    group ``files``, read once, null urls rejected per shard, each row
    tagged with its global shard index ``fidx`` (``files[0]`` is shard
    ``base``) and its ``row`` in the file. Returns the rows hash-split by
    url into ``n_ranges`` tables, one Ray return value each. With one
    range the group is every shard, and the map returns that range's
    ``_range_index`` itself: one task, not two, and no keys table
    through the object store."""
    import pyarrow.parquet as pq

    from ..functions.agg import _hash_partition_column

    tabs = []
    for j, f in enumerate(files):
        with pq.ParquetFile(f) as pf:  # a quarter of read_table's cost here
            t = pf.read(columns=["url", "warc_ts"])
        require_urls(t, f)
        # 4-byte shard index + 8-byte row-in-file per row (full path
        # strings materialize only for the tiny duplicated-at-min subset
        # in the reduce); row-in-file makes the tie winner a TOTAL order
        # even for equal-(url, ts) rows inside one file
        tabs.append(
            t.append_column(
                "fidx", pa.array(np.full(t.num_rows, base + j, np.int32))
            ).append_column(
                "row", pa.array(np.arange(t.num_rows, dtype=np.int64))
            )
        )
    keys = pa.concat_tables(tabs)
    if n_ranges == 1:  # the one map holds the one range: reduce it here
        return _range_index(files, keys)
    # hashed a slice at a time: the hash holds its urls as Python strings
    r = np.concatenate(
        [
            _hash_partition_column(keys.slice(o, 1 << 16), ["url"], n_ranges).to_numpy()
            for o in range(0, max(keys.num_rows, 1), 1 << 16)
        ]
    )
    order = np.argsort(r, kind="stable")
    cuts = np.searchsorted(r[order], np.arange(n_ranges + 1))
    keys = keys.take(order)
    return tuple(keys.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:]))


def _range_index(files: list[str], *parts: pa.Table) -> pa.Table | None:
    """Reduce task of the dup index: the index rows of one url range from
    its ``parts``, one per map task (``fidx`` indexes ``files``, the
    canonical shard listing). None when no url of the range repeats."""
    keys_t = pa.concat_tables(parts)
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
    at_min = at_min.append_column("path", pc.take(pa.array(files), at_min["fidx"]))
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


def build_dup_index(input_path: str) -> pa.Table | None:
    """Keys-only scan -> table (url, min_ts, n_at_min, win_file, win_row) of
    DUPLICATED urls only. Returns None when the corpus has no duplicate
    urls (common fast path).

    One plan at every size: with R = ceil(input rows / ``_KEYS_PER_TASK``)
    (footer row counts), one map task (``_split_keys``) per contiguous
    shard group of ``shard_groups(input_path, R)`` and R reduce tasks
    (``_range_index``), one per url-hash range, all checkpoint-mode Ray
    tasks; at R = 1 the one map reduces its range itself. The driver
    reads no key row; it concatenates the R slices, which are the
    index."""
    import ray

    from ..pipelines.extract import _group_bases, checkpoint_task, shard_groups
    from ..sources.pages import count_rows, list_shards

    files = list_shards(input_path)
    n = max(1, -(-count_rows(input_path) // _KEYS_PER_TASK))
    groups = shard_groups(input_path, n)
    split = checkpoint_task(_split_keys).options(num_returns=n)
    maps = [split.remote(g, base, n) for g, base in zip(groups, _group_bases(groups))]
    if n == 1:
        slices = ray.get(maps)
    else:
        reduce = checkpoint_task(_range_index)
        slices = ray.get([reduce.remote(files, *(m[r] for m in maps)) for r in range(n)])
    slices = [s for s in slices if s is not None]
    return pa.concat_tables(slices) if slices else None


class DupFilter:
    """Prebuilt broadcast-filter state: the url value-set and aligned
    winner arrays are built ONCE (per actor / per partition task), not per
    batch. The filter itself is fully vectorized (``index_in`` + ``take``
    + numpy first-occurrence); Python never touches non-duplicate rows.

    Takes the five-column index ``build_dup_index`` returns. Tie
    semantics: rows whose warc_ts equals the winning min_ts survive only
    if (a) the index marks the url unique-at-min (``n_at_min`` == 1), or
    (b) their provenance (``path``, ``_row_in_file``) columns equal the
    url's (``win_file``, ``win_row``), which a batch must carry whenever
    the index holds a tie (``index_has_ties``); a numpy first-occurrence
    pass then keeps one row per url within the batch."""

    def __init__(self, dup_index: pa.Table):
        self.value_set = dup_index["url"].combine_chunks()
        self.min_ts = dup_index["min_ts"].combine_chunks()
        self.n_at_min = dup_index["n_at_min"].combine_chunks().to_numpy(
            zero_copy_only=False
        )
        self.win_file = np.asarray(dup_index["win_file"].to_pylist(), dtype=object)
        self.win_row = dup_index["win_row"].combine_chunks().to_numpy(
            zero_copy_only=False
        )
        self.has_ties = bool((self.n_at_min > 1).any())

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
            if self.has_ties:
                tie_mask = self.n_at_min[ids] > 1
                if tie_mask.any():
                    take = pa.array(win_rows)
                    paths = np.asarray(
                        pc.take(batch["path"], take).to_pylist(), dtype=object
                    )
                    # read-time row ids make the tie winner a TOTAL order:
                    # equal-(url, ts) rows inside one file also collapse
                    # globally, batch boundaries irrelevant
                    rows_np = (
                        pc.take(batch["_row_in_file"], take)
                        .to_numpy()
                        .astype(np.int64)
                    )
                    drop = tie_mask & (
                        (paths != self.win_file[ids]) | (rows_np != self.win_row[ids])
                    )
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
        and pc.any(pc.greater(dup_index["n_at_min"], 1)).as_py() is True
    )


def drop_dup_losers(batch: pa.Table, *, dup_index: pa.Table) -> pa.Table:
    """One-shot convenience wrapper over DupFilter (each partition's keys
    pass calls this once)."""
    return DupFilter(dup_index)(batch)
