"""Distributed connected components over a PAIR table — the shared last
step that turns pairwise duplicate detection (n-gram Jaccard, embedding
near-dup, MinHash verify) into a per-document keep/drop decision.

Shape (the ``trade_components`` min-label-propagation pattern,
``relational.py``): the edge list is normalized + per-batch-deduped in ONE
``map_batches`` pass, materialized ONCE, coalesced, and STAYS DISTRIBUTED —
the driver never holds the pair set (at 100 TB with a 10-30% near-dup rate
the verified pair set is billions of rows; a driver union-find over it is a
driver materialization). Per iteration the node-label vector broadcasts via
``ray.put``; each edge batch emits per-node min-label partials reduced by a
vectorized arrow ``group_by``; the driver folds node-cardinality minima
(``np.minimum.at``) until fixpoint. Converges to min-id-per-component, i.e.
exactly the union-by-min-id canonical representative the old driver
union-find produced — bit-identical output, distributed edge dataflow.

Partitioning assumption, stated per the task brief: the NODE vector (one
int64 id + one int64 label per document-in-some-pair) fits driver /
object-store memory. That is ~16 bytes/node — 10^9 dup-involved docs is
16 GB, the documented host-vector bound shared with ``host_pagerank`` and
``trade_components``. Beyond that, labels become a keyed Dataset and each
round a hash join; the edge dataflow here is already in that shape.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

_LOCAL_EDGE_LIMIT = 2_000_000  # see links._LOCAL_EDGE_LIMIT — same rationale


def pair_components(
    pairs: "rd.Dataset | pa.Table",
    *,
    col_a: str,
    col_b: str,
    out_id: str,
    out_canon: str = "canon_id",
    max_iters: int = 64,
) -> pa.Table:
    """Connected components of the undirected graph given by rows
    (``col_a``, ``col_b``) of ``pairs`` (int64 ids; duplicate and
    self-loop rows are harmless). Returns (``out_id``, ``out_canon``)
    sorted by id, one row per node appearing in some pair, where
    ``out_canon`` is the minimum id in the node's component."""
    import ray

    from .agg import collect, keyed_exchange, scaled_partitions

    empty = pa.table(
        {out_id: pa.array([], pa.int64()), out_canon: pa.array([], pa.int64())}
    )
    if isinstance(pairs, pa.Table):
        if pairs.num_rows == 0:
            return empty
        pairs = rd.from_arrow(pairs.select([col_a, col_b]))

    def norm(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # empty shuffle partitions arrive as ZERO-COLUMN blocks
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
            )
        t = pa.table(
            {
                "a": pc.cast(batch[col_a], pa.int64()),
                "b": pc.cast(batch[col_b], pa.int64()),
            }
        )
        return t.group_by(["a", "b"]).aggregate([])  # per-batch dedup

    edges = pairs.map_batches(norm, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return empty
    # coalesce the (deduped, small-relative-to-input) edge list so each
    # propagation round runs a handful of tasks, not hundreds of near-empty
    # ones (same fix measured 12.4s -> ~4s on trade_components at sf0.1)
    edges = edges.repartition(max(8, n_edges // 1_000_000)).materialize()

    # distinct node ids via ONE coarse-bucket exchange of (id) rows — the
    # driver receives exactly the distinct node set, never per-batch dups
    def node_partial(batch: pa.Table) -> pa.Table:
        ids = np.unique(
            np.concatenate(
                [
                    batch["a"].to_numpy(zero_copy_only=False),
                    batch["b"].to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table({"id": pa.array(ids, pa.int64())})

    def node_unique(group: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": pa.array(
                    np.unique(group["id"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                )
            }
        )

    nodes_t = collect(
        keyed_exchange(
            edges.map_batches(node_partial, batch_format="pyarrow"),
            ["id"],
            node_unique,
            scaled_partitions(2 * n_edges),
        )
    )
    nodes = np.sort(nodes_t["id"].to_numpy(zero_copy_only=False))
    labels = nodes.copy()  # each node starts labeled by its own id

    if n_edges <= _LOCAL_EDGE_LIMIT:
        # small pair set: the deduped integer edge list fits the driver
        # comfortably (~16 bytes/edge) — run the min-label rounds locally
        # in pure numpy instead of paying a Ray stage launch per round.
        # Identical fixpoint; the distributed path below is the scale
        # route past the threshold.
        et = collect(edges)
        ia = np.searchsorted(nodes, et["a"].to_numpy(zero_copy_only=False))
        ib = np.searchsorted(nodes, et["b"].to_numpy(zero_copy_only=False))
        for _ in range(max_iters):
            new = labels.copy()
            np.minimum.at(new, ia, labels[ib])
            np.minimum.at(new, ib, labels[ia])
            if np.array_equal(new, labels):
                return pa.table(
                    {
                        out_id: pa.array(nodes, pa.int64()),
                        out_canon: pa.array(labels, pa.int64()),
                    }
                )
            labels = new
        raise RuntimeError(
            f"pair_components did not converge in {max_iters} rounds"
        )

    def min_partial(batch: pa.Table, ref) -> pa.Table:
        nd, lab = ray.get(ref)
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        ia = np.searchsorted(nd, a)
        ib = np.searchsorted(nd, b)
        t = pa.table(
            {
                "i": pa.array(np.concatenate([ia, ib]), pa.int64()),
                "lab": pa.array(np.concatenate([lab[ib], lab[ia]]), pa.int64()),
            }
        )
        return t.group_by(["i"]).aggregate([("lab", "min")])

    converged = False
    for _ in range(max_iters):
        ref = ray.put((nodes, labels))
        parts = collect(
            edges.map_batches(
                functools.partial(min_partial, ref=ref), batch_format="pyarrow"
            )
        )
        if parts is None:
            converged = True
            break
        i = parts["i"].to_numpy(zero_copy_only=False)
        lab = parts["lab_min"].to_numpy(zero_copy_only=False)
        new = labels.copy()
        np.minimum.at(new, i, lab)
        if np.array_equal(new, labels):
            converged = True
            break
        labels = new
    if not converged:
        # propagation needs ~component-diameter rounds; a silently truncated
        # fixpoint would emit WRONG canonical ids — fail loud instead
        raise RuntimeError(
            f"pair_components did not converge in {max_iters} rounds"
        )
    return pa.table(
        {out_id: pa.array(nodes, pa.int64()), out_canon: pa.array(labels, pa.int64())}
    )
