"""Keyed exchanges and partial aggregation: every join and every exchange
the engine shuffles rows through is one of three task-only primitives over
one sort shuffle, ``_by_bucket`` (no aggregator actors, no actor pools),
each calling its function once per reduce block of whole buckets:

- ``keyed_exchange(ds, keys, fn, n_parts)`` hash-tags each row by ``keys``
  into one of ``n_parts`` buckets and calls ``fn`` on each block's rows;
- ``keyed_join(left, right, on, right_on, how, n_parts)`` tags each side
  on its own key and joins each block's left and right rows as two
  separate tables: ``how`` is a pyarrow ``Table.join`` type or a function
  ``how(left_rows, right_rows)``;
- ``ordered_ranges(ds, key, bounds, n_parts, order, weights, emit)`` cuts
  one total order into ``n_parts`` value ranges (``range_bucket``), totals
  them, exclusive-scans the totals on the driver and hands each block its
  rows in order with their global positions and prefix sums.

The invariant they keep: one BUCKET (≈ keyed rows / ``n_parts``), not one
key, must fit in a worker — raw-row exchanges size ``n_parts`` with
``scaled_partitions`` so a bucket stays bounded as the table grows, and
every ``fn`` resolves all keys of its rows in one vectorized pass (the
sort's reduce block, which the task holds whole either way). A stage with
a natural key of its own (LSH band key, shingle hash, pair index, cluster)
passes that key to ``keyed_exchange``; a Python call per bucket, let alone
per key, is never paid. Only ``groupby`` over a low-cardinality column
(event type, market segment) and Ray's native ``groupby().aggregate()``
stay outside this module.

Aggregates combine inside ``map_batches`` first, so their exchange only
moves tiny per-batch partials, never raw rows. Reference analog: the
reference computes its aggregations driver-side in Python over full result
sets (e.g. per-job feedback stats,
the reference's ``backend/src/main.py:943-951``; per-user breakdown,
``main.py:1291-1318``). At 100 TB that is the anti-pattern; here every
aggregate is a per-batch pyarrow ``group_by`` partial followed by a final
keyed exchange over partial rows (cardinality = #groups x #batches, i.e.
KBs on the wire instead of the table).

Exactness convention: money/value columns are converted to integer cents
(``ROUND(x*100)`` half-away-from-zero, matching DuckDB/ANSI ROUND) before
summing, so sums are order-independent integers and the DuckDB oracle
hash-matches bit-for-bit; averages are emitted as exact integer ratios
(identical IEEE division on both sides), never re-rounded.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd


def collect(ds: "rd.Dataset") -> pa.Table | None:
    """Driver-side gather of a (small, pruned) dataset's blocks; None when
    every block is empty. The ONE place the empty-input guard lives. One
    execution: ``to_arrow_refs`` runs a lazy dataset a second time, up to
    its first block, to learn the schema."""
    import ray
    from ray.data.block import BlockAccessor

    refs = [r for bundle in ds.iter_internal_ref_bundles() for r in bundle.block_refs]
    tables = [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="default")


def empty_like(ds: "rd.Dataset") -> pa.Table:
    """Empty arrow table with the dataset's schema."""
    s = ds.schema()
    return pa.schema(list(zip(s.names, s.types))).empty_table()


def round_half_away(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """ROUND(x) with DuckDB/ANSI half-away-from-zero ties (pyarrow's
    default is banker's) -> int64."""
    return pc.cast(
        pc.round(
            pc.cast(col, pa.float64()), ndigits=0,
            round_mode="half_towards_infinity",
        ),
        pa.int64(),
    )


def cents(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """x -> int64 round(x*100), half away from zero (DuckDB ROUND parity)."""
    return pc.cast(
        pc.round(
            pc.multiply(pc.cast(col, pa.float64()), pa.scalar(100.0)),
            ndigits=0,
            round_mode="half_towards_infinity",
        ),
        pa.int64(),
    )


def partial_group_agg(
    batch: pa.Table,
    *,
    keys: list[str],
    aggs: list[tuple[str, str]],  # (col, fn) fn in {sum,count,min,max}
) -> pa.Table:
    """Per-batch pyarrow group_by partial; emitted columns are renamed back
    to their plain input names (``x_sum`` -> ``x``) so partials are
    re-combinable by the same spec."""
    gb = batch.group_by(keys).aggregate(aggs)
    renames = {f"{c}_{fn}": c for c, fn in aggs}
    return gb.rename_columns([renames.get(n, n) for n in gb.column_names])


_N_AGG_PARTITIONS = 256  # coarse combine partitions (≈ cores of a big cluster)


def _hash_partition_column(t: pa.Table, keys: list[str], n_parts: int) -> pa.Array:
    """Deterministic per-row partition id from the key columns (vectorized
    pandas row hashing — stable across workers/processes), mod ``n_parts``.
    Integer keys are hashed as null-filled int64: pandas hashes an int32
    and an int64 of the same negative value differently, and widens an
    integer column with nulls to float64, so either would send one key to
    two buckets."""
    import pandas as pd

    cols = [
        pc.fill_null(pc.cast(t[k], pa.int64(), safe=False), 0)
        if pa.types.is_integer(t[k].type)
        else t[k]
        for k in keys
    ]
    h = pd.util.hash_pandas_object(
        pa.table(cols, names=keys).to_pandas(), index=False
    ).to_numpy()
    return pa.array((h % n_parts).astype("int64"))


def scaled_partitions(n_rows: int, rows_per_bucket: int = 500_000) -> int:
    """Partition count for a raw-row keyed exchange: enough buckets that one
    bucket's slice of the table fits a worker, never fewer than the
    fixed floor (which alone would cap parallelism at 256 tasks and force
    ~1/256 of the table into each combine at corpus scale)."""
    return max(_N_AGG_PARTITIONS, n_rows // rows_per_bucket + 1)


def _by_bucket(tagged: rd.Dataset, fn: Callable[[pa.Table], pa.Table]) -> rd.Dataset:
    """The one exchange under every keyed primitive: sort ``tagged`` on its
    ``__pp`` bucket id and call ``fn`` once per non-empty reduce block,
    ``__pp`` dropped. Ray Data's sort puts every row of a bucket in one
    block (the guarantee its own ``map_groups`` rests on), so a call holds
    whole buckets, usually many. The Ray operator keeps ``fn``'s name."""

    def run(block: pa.Table) -> Iterator[pa.Table]:
        if block.num_rows:
            yield fn(block.drop_columns(["__pp"]))

    run.__name__ = getattr(fn, "func", fn).__name__
    return tagged.sort("__pp").map_batches(run, batch_format="pyarrow", batch_size=None)


def keyed_exchange(
    ds: rd.Dataset,
    keys: list[str],
    fn: Callable[[pa.Table], pa.Table],
    n_parts: int,
) -> rd.Dataset:
    """Hash-bucket ``ds`` by ``keys`` into ``n_parts`` buckets and return the
    concatenation of ``fn(rows)`` over the exchange's non-empty reduce
    blocks (``_by_bucket``): every row of a key meets in one call, and a
    call holds the whole buckets of many keys, so ``fn`` must resolve
    every key of its rows."""

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("__pp", _hash_partition_column(batch, keys, n_parts))

    return _by_bucket(ds.map_batches(tag, batch_format="pyarrow"), fn)


def range_bucket(v: np.ndarray, lo: int, hi: int, n_parts: int) -> np.ndarray:
    """Order-preserving bucket of each integer ``v`` in ``[lo, hi]``:
    ``n_parts`` equal value ranges, the id never decreasing as ``v`` grows.
    ``v - lo`` is shifted right first when its product with ``n_parts``
    would leave int64, so full-width uint64 keys bucket too."""
    shift = max(0, (hi - lo).bit_length() + n_parts.bit_length() - 63)
    off = ((v - lo) >> shift).astype(np.int64)
    return off * n_parts // (((hi - lo) >> shift) + 1)


def ordered_ranges(
    ds: rd.Dataset,
    key: str,
    bounds: tuple[int, int],
    n_parts: int,
    order: list[tuple[str, str]] | Callable[[pa.Table], np.ndarray],
    weights: list[str],
    emit: Callable[[pa.Table, np.ndarray, np.ndarray], pa.Table],
) -> rd.Dataset:
    """Exact global positions and prefix sums over one total order of
    ``ds``'s rows, without a global sort (Spark's ``zipWithIndex`` shape).
    The order lists rows by ``key``, an integer column within ``bounds``,
    first; ``order`` puts one block's rows in it: sort keys (every row
    survives), or a function returning the indices, in order, of the rows
    that survive (e.g. one row per duplicate group, which must share a
    ``key``).

    ``range_bucket`` of ``key`` cuts the order into ``n_parts`` ranges.
    Pass 1 totals each range's surviving rows and ``weights`` columns: per
    batch, summed through ``grouped_sum``, when ``order`` is sort keys; in
    one range exchange that runs ``order`` on every block when it is a
    function (survivors are only known once a range's rows meet; both
    passes then read the tagged rows, so they are materialized once). The
    driver exclusive-scans the totals into each range's base. Pass 2 is one
    range exchange; per reduce block ``emit(rows, starts, totals)`` gets
    the block's survivors in order, ``starts[:, 0]`` each one's global
    position and ``starts[:, j]`` the global exclusive prefix sum of
    ``weights[j - 1]``, and the grand totals in the same layout."""
    lo, hi = bounds
    cols = [f"__s{j}" for j in range(len(weights) + 1)]

    def bucket_of(t: pa.Table) -> np.ndarray:
        return range_bucket(t[key].to_numpy(), lo, hi, n_parts)

    def arrange(t: pa.Table) -> pa.Table:
        if callable(order):
            return t.take(order(t))
        return t.take(pc.sort_indices(t, sort_keys=order))

    def matrix(t: pa.Table) -> np.ndarray:
        w = [np.ones(t.num_rows, np.int64)]
        w += [t[c].to_numpy().astype(np.int64, copy=False) for c in weights]
        return np.stack(w, axis=1)

    def totals_of(t: pa.Table) -> pa.Table:
        b, inv = np.unique(bucket_of(t), return_inverse=True)
        tot = np.zeros((len(b), len(cols)), np.int64)
        np.add.at(tot, inv, matrix(t))
        out = {"__b": pa.array(b, pa.int64())}
        out.update({c: pa.array(tot[:, j]) for j, c in enumerate(cols)})
        return pa.table(out)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("__pp", pa.array(bucket_of(batch)))

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    if callable(order):
        tagged = tagged.materialize()
        per = collect(_by_bucket(tagged, lambda t: totals_of(arrange(t))))
    else:
        per = collect(grouped_sum(ds, keys=["__b"], partial=totals_of, sum_cols=cols))
    dense = np.zeros((n_parts, len(cols)), np.int64)
    if per is not None:
        sums = np.stack([per[c].to_numpy() for c in cols], axis=1)
        np.add.at(dense, per["__b"].to_numpy(), sums)
    base = np.zeros((n_parts + 1, len(cols)), np.int64)
    np.cumsum(dense, axis=0, out=base[1:])

    def scan(block: pa.Table) -> pa.Table:
        t = arrange(block)
        b = bucket_of(t)
        if (np.diff(b) < 0).any():
            raise ValueError(f"ordered_ranges: order must list rows by {key!r} first")
        w = matrix(t)
        local = np.cumsum(w, axis=0) - w
        first = np.flatnonzero(np.diff(b, prepend=-1))
        run_base = np.repeat(local[first], np.diff(np.append(first, len(b))), axis=0)
        return emit(t, base[b] + local - run_base, base[-1])

    scan.__name__ = getattr(emit, "func", emit).__name__
    return _by_bucket(tagged, scan)


def _known_schema(ds: rd.Dataset) -> pa.Schema | None:
    """The dataset's arrow schema when Ray knows it without executing
    anything (parquet reads, materialized and in-memory datasets)."""
    s = ds.schema(fetch_if_missing=False)
    base = None if s is None else s.base_schema
    return base if isinstance(base, pa.Schema) else None


def keyed_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: list[str],
    right_on: list[str],
    how: str | Callable[[pa.Table, pa.Table], pa.Table],
    *,
    n_parts: int,
) -> rd.Dataset:
    """Hash join in ONE exchange: each side is bucketed on its own key
    columns and every bucket's rows travel as arrow IPC payloads, so the
    sides never share a schema. Per reduce block of the exchange
    (``_by_bucket``: whole buckets, usually many), the block's left and
    right rows are decoded once and meet as two tables: ``how`` names a
    pyarrow ``Table.join`` type (``inner``, ``left outer``, ``full outer``,
    ``left semi``, ``left anti``) or is a function ``how(l, r)`` that
    returns the block's output and must resolve every key of its rows. A
    join of several whole buckets is the union of their joins, since a key
    never matches across buckets.

    Key columns must have the same type on both sides (any integer widths
    match); when Ray knows both schemas at plan time (``_known_schema``: parquet
    reads, materialized and in-memory datasets) a mismatch raises
    ``ValueError``. A side with no rows in a block arrives as a zero-row
    table: with the side's full schema when Ray knows it, else with only
    its key columns — so a custom ``how`` must not read other columns of
    an empty side, and the outer join types need the padded side's schema
    known."""
    keys = (on, right_on)
    schemas = (_known_schema(left), _known_schema(right))
    if all(s is not None for s in schemas):
        for lk, rk in zip(on, right_on):
            lt, rt = schemas[0].field(lk).type, schemas[1].field(rk).type
            if lt != rt and not (pa.types.is_integer(lt) and pa.types.is_integer(rt)):
                raise ValueError(f"keyed_join key {lk!r} is {lt}, {rk!r} is {rt}")
    if isinstance(how, str):
        padded = {"left outer": (1,), "full outer": (0, 1)}.get(how, ())
        if any(schemas[i] is None for i in padded):
            raise ValueError(
                f"keyed_join {how!r}: pass a function, or a side whose schema "
                "Ray knows, so rows without a match get typed null columns"
            )

        def join(lt: pa.Table, rt: pa.Table) -> pa.Table:
            return lt.join(rt, keys=on, right_keys=right_on, join_type=how)

        fn = join
    else:
        fn = how

    def pack(side: int):
        # one output row per bucket of the block: the bucket's rows as one
        # bare arrow IPC record-batch message, next to the block's
        # serialized schema (a per-bucket IPC stream rebuilds the schema
        # for every bucket: twice the cost to write, three times to read)
        def tag(batch: pa.Table) -> pa.Table:
            pp = _hash_partition_column(batch, keys[side], n_parts).to_numpy()
            order = np.argsort(pp, kind="stable")
            rows, pp = batch.take(order).combine_chunks(), pp[order]
            starts = np.flatnonzero(np.diff(pp, prepend=-1))
            ends = np.append(starts[1:], len(pp))
            sink, offsets = pa.BufferOutputStream(), [0]
            for s, e in zip(starts.tolist(), ends.tolist()):
                sink.write(rows.slice(s, e - s).to_batches()[0].serialize())
                offsets.append(sink.tell())
            schema = rows.schema.serialize().to_pybytes()
            n = len(starts)

            def binary(offsets, data: pa.Buffer) -> pa.Array:
                offsets = pa.array(offsets, pa.int64()).buffers()[1]
                return pa.LargeBinaryArray.from_buffers(
                    pa.large_binary(), n, [None, offsets, data]
                )

            return pa.table(
                {
                    "__pp": pa.array(pp[starts], pa.int64()),
                    "__side": pa.array(np.full(n, side, np.int8)),
                    "__schema": binary(
                        np.arange(n + 1) * len(schema), pa.py_buffer(schema * n)
                    ),
                    "__rows": binary(offsets, sink.getvalue()),
                }
            )

        return tag

    def join_bucket(block: pa.Table) -> pa.Table:
        messages: dict[tuple[int, bytes], list] = {}
        for side, schema, buf in zip(
            block["__side"].to_pylist(), block["__schema"].to_pylist(), block["__rows"]
        ):
            messages.setdefault((side, schema), []).append(buf.as_buffer())
        parts: tuple[list, list] = ([], [])
        for (side, schema), bufs in messages.items():
            sch = pa.ipc.read_schema(pa.py_buffer(schema))
            parts[side].append(
                pa.Table.from_batches(
                    [pa.ipc.read_record_batch(b, sch) for b in bufs], sch
                )
            )
        sides = [
            pa.concat_tables(p, promote_options="default") if p else None
            for p in parts
        ]
        for i in (0, 1):
            if sides[i] is None and schemas[i] is not None:
                sides[i] = schemas[i].empty_table()
            elif sides[i] is None:
                other = sides[1 - i].schema
                sides[i] = pa.table(
                    {
                        k: pa.array([], other.field(ok).type)
                        for k, ok in zip(keys[i], keys[1 - i])
                    }
                )
        return fn(*sides)

    tagged = left.map_batches(pack(0), batch_format="pyarrow").union(
        right.map_batches(pack(1), batch_format="pyarrow")
    )
    join_bucket.__name__ = getattr(fn, "func", fn).__name__
    return _by_bucket(tagged, join_bucket)


def combine_partials(
    group: pa.Table,
    *,
    keys: list[str],
    sum_cols: list[str],
    min_cols: list[str] | None = None,
    max_cols: list[str] | None = None,
    post: Callable[[dict], dict] | None = None,
) -> pa.Table:
    """Final combine of ONE hash partition of partial rows: a single
    vectorized arrow ``group_by`` collapses every key-group in the
    partition (Ray's per-group machinery pays a Python call per group —
    catastrophic at web-scale key cardinality). ``post`` derives extra
    columns (averages etc.) per combined group row."""
    aggs = (
        [(c, "sum") for c in sum_cols]
        + [(c, "min") for c in min_cols or []]
        + [(c, "max") for c in max_cols or []]
    )
    cols = [c for c, _ in aggs]
    g = group.select(keys + cols).group_by(keys).aggregate(aggs)
    renames = {f"{c}_{fn}": c for c, fn in aggs}
    g = g.rename_columns([renames.get(n, n) for n in g.column_names])
    g = g.select(keys + cols)  # keys first, spec order after
    if post is None:
        return g
    return pa.Table.from_pylist([post(r) for r in g.to_pylist()])


def grouped_sum(
    ds: rd.Dataset,
    *,
    keys: list[str],
    partial: Callable[[pa.Table], pa.Table],
    sum_cols: list[str],
    min_cols: list[str] | None = None,
    max_cols: list[str] | None = None,
    post: Callable[[dict], dict] | None = None,
) -> rd.Dataset:
    """The two-phase aggregate: map_batches(partial) -> ONE keyed exchange
    of the (tiny) partials, hash-bucketed into at most
    ``_N_AGG_PARTITIONS`` coarse groups -> one vectorized combine per
    bucket -> one row per key group."""
    return keyed_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys,
        functools.partial(
            combine_partials,
            keys=keys,
            sum_cols=sum_cols,
            min_cols=min_cols,
            max_cols=max_cols,
            post=post,
        ),
        _N_AGG_PARTITIONS,
    )


def instance_stage(
    ds: rd.Dataset, cls: type, *, batch_size: int | None = None, **ctor_kwargs
) -> rd.Dataset:
    """Stateful-stage helper for LIGHT per-worker state: construct the
    callable class once on the driver and run it as a task transform. Ray
    Data ships the instance once per operator and caches the deserialized
    copy per worker process, so state amortizes like an actor pool's
    ``__init__`` — without pool spin-up/queueing (measured ~2-3x faster
    wall time with far tighter spread on small inputs). Heavy state (models,
    big indexes) should still use real actor pools (``registry.build_stage``,
    ``stages/multimodal.py``)."""
    inst = cls(**ctor_kwargs)
    kwargs = {} if batch_size is None else {"batch_size": batch_size}
    return ds.map_batches(
        lambda b, _i=inst: _i(b), batch_format="pyarrow", **kwargs
    )


def local_topk(
    batch: pa.Table, *, k: int, sort_keys: list[tuple[str, str]]
) -> pa.Table:
    """Per-batch top-k prefilter: each batch forwards at most k rows, so the
    final exact top-k combines #batches*k rows instead of the table."""
    idx = pc.sort_indices(batch, sort_keys=sort_keys)
    return batch.take(idx.slice(0, k))


def topk(ds: rd.Dataset, *, k: int, sort_keys: list[tuple[str, str]]) -> pa.Table:
    """Exact distributed top-k: local prefilter then a single small combine."""
    pruned = ds.map_batches(
        functools.partial(local_topk, k=k, sort_keys=sort_keys),
        batch_format="pyarrow",
    )
    all_t = collect(pruned)
    if all_t is None:
        return empty_like(ds)
    return local_topk(all_t, k=k, sort_keys=sort_keys)
