"""Relational query analogs of the reference's read/aggregate API surface
(SURVEY.md §2.4-2.7), expressed Ray-Data-first over the driver test tables.

Each function takes ``sf_dir`` and returns a Dataset / pyarrow Table whose
column names match the DuckDB oracle SQL in ``__ray_entry__.oracle_sql``.
Reference citations per function point at the endpoint whose dataflow shape
it re-expresses.

Scale notes: every aggregate is partial-then-combine (functions/agg.py), so
the only exchange moves per-batch partials; small dimension tables
(nation/region, 25+5 rows) are broadcast into ``map_batches`` as plain
dicts instead of a shuffle join; top-k is a local-prefilter combine, never
a full sort.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from .agg import cents, collect, empty_like, grouped_sum, partial_group_agg, round_half_away, topk


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _raw_parts(sf_dir: str, *tables: str) -> int:
    """Partition count for keyed exchanges of RAW rows: one bucket's slice
    of the table(s) must fit a worker, so the count scales with row count
    (metadata-only read) instead of a fixed 256 that would cap both
    parallelism and per-task memory at corpus scale."""
    from .agg import scaled_partitions

    return scaled_partitions(
        sum(pq.read_metadata(f"{sf_dir}/{t}.parquet").num_rows for t in tables)
    )


# -------------------------------------------------------------------------
# pricing_summary — TPC-H-Q1-shaped wide aggregate over lineitem.
# Reference analog: per-job latency/cost rollup (backend/src/tasks.py:85-104,
# 265-282) generalized to a grouped money aggregate. Exact integer cents.
# -------------------------------------------------------------------------

def pricing_summary(sf_dir: str) -> rd.Dataset:
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        qty = round_half_away(batch["l_quantity"])  # DuckDB ROUND parity
        ext_c = cents(batch["l_extendedprice"])
        disc_pct = cents(batch["l_discount"])  # discount in integer percent
        disc_c = pc.multiply(ext_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct))
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": qty,
                "sum_base_c": ext_c,
                "sum_disc_c": disc_c,
                "count_order": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(
            t,
            keys=["l_returnflag", "l_linestatus"],
            aggs=[
                ("sum_qty", "sum"),
                ("sum_base_c", "sum"),
                ("sum_disc_c", "sum"),
                ("count_order", "sum"),
            ],
        )

    def post(row: dict) -> dict:
        row["avg_qty"] = row["sum_qty"] / row["count_order"]
        return row

    return grouped_sum(
        ds,
        keys=["l_returnflag", "l_linestatus"],
        partial=partial,
        sum_cols=["sum_qty", "sum_base_c", "sum_disc_c", "count_order"],
        post=post,
    )


# -------------------------------------------------------------------------
# top_orders — dynamic-column sort + pagination (backend/src/main.py:617-655,
# SURVEY §2.6 O1) as distributed exact top-k.
# -------------------------------------------------------------------------

def top_orders(sf_dir: str, k: int = 20) -> pa.Table:
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return topk(
        ds, k=k, sort_keys=[("o_totalprice", "descending"), ("o_orderkey", "ascending")]
    )


# -------------------------------------------------------------------------
# customer_region — customer |x| nation |x| region via broadcast lookup
# (the reference's hand-rolled broadcast hash join, main.py:1066-1098 J1/J2).
# -------------------------------------------------------------------------

def customer_region(sf_dir: str) -> rd.Dataset:
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rmap = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    nk_to_rname = {
        nk: rmap[rk]
        for nk, rk in zip(
            nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist()
        )
    }
    ds = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(batch: pa.Table) -> pa.Table:
        rnames = [nk_to_rname[nk] for nk in batch["c_nationkey"].to_pylist()]
        t = pa.table(
            {
                "r_name": pa.array(rnames, pa.string()),
                "n_customers": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_acctbal_c": cents(batch["c_acctbal"]),
            }
        )
        return partial_group_agg(
            t, keys=["r_name"], aggs=[("n_customers", "sum"), ("sum_acctbal_c", "sum")]
        )

    return grouped_sum(
        ds, keys=["r_name"], partial=partial, sum_cols=["n_customers", "sum_acctbal_c"]
    )


# -------------------------------------------------------------------------
# market_segment — simple grouped count+sum (pagination count A4 + stats A3).
# -------------------------------------------------------------------------

def market_segment(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "customer", ["c_mktsegment", "c_acctbal"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "n_customers": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_acctbal_c": cents(batch["c_acctbal"]),
            }
        )
        return partial_group_agg(
            t,
            keys=["c_mktsegment"],
            aggs=[("n_customers", "sum"), ("sum_acctbal_c", "sum")],
        )

    return grouped_sum(
        ds,
        keys=["c_mktsegment"],
        partial=partial,
        sum_cols=["n_customers", "sum_acctbal_c"],
    )


# -------------------------------------------------------------------------
# events_by_type — per-key count / distinct-count / sum: the per-job
# feedback stats shape (main.py:943-951, SURVEY §2.5 A1). TWO-PHASE
# distinct: phase 1 reduces to one row per (type, user) via a NATIVE
# groupby aggregate (parallelism = user cardinality, so high-cardinality
# keys spread across the cluster); phase 2 is a tiny per-type rollup where
# each surviving row contributes one distinct user. Round-1's single
# map_groups over the 5-value type key capped parallelism at 5 and pushed
# every (type, user) partial of a hot type into ONE task.
# -------------------------------------------------------------------------

def events_by_type(sf_dir: str) -> rd.Dataset:
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "user_id": batch["user_id"],
                "n_events": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_value_c": cents(batch["value"]),
            }
        )
        # collapse duplicate (type,user) within the batch; exact sums/counts
        return partial_group_agg(
            t,
            keys=["event_type", "user_id"],
            aggs=[("n_events", "sum"), ("sum_value_c", "sum")],
        )

    per_user = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("n_events"), Sum("sum_value_c"))
    )

    def rollup(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "n_events": pc.cast(batch["sum(n_events)"], pa.int64()),
                "n_users": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_value_c": pc.cast(batch["sum(sum_value_c)"], pa.int64()),
            }
        )
        return partial_group_agg(
            t,
            keys=["event_type"],
            aggs=[("n_events", "sum"), ("n_users", "sum"), ("sum_value_c", "sum")],
        )

    return grouped_sum(
        per_user,
        keys=["event_type"],
        partial=rollup,
        sum_cols=["n_events", "n_users", "sum_value_c"],
    )


# -------------------------------------------------------------------------
# user_activity — per-user rating-breakdown shape (main.py:1291-1318 A2):
# count, sum, latest-timestamp argmax.
# -------------------------------------------------------------------------

def user_activity(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "events", ["user_id", "value", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "n_events": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_value_c": cents(batch["value"]),
                "last_ts": batch["ts"],
            }
        )
        return partial_group_agg(
            t,
            keys=["user_id"],
            aggs=[("n_events", "sum"), ("sum_value_c", "sum"), ("last_ts", "max")],
        )

    return grouped_sum(
        ds,
        keys=["user_id"],
        partial=partial,
        sum_cols=["n_events", "sum_value_c"],
        max_cols=["last_ts"],
    )


# -------------------------------------------------------------------------
# events_hourly — timestamp normalization + windowed count (main.py:56-70
# M18 generalized to a tumbling-window aggregate).
# -------------------------------------------------------------------------

def events_hourly(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "events", ["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        t = pa.table(
            {"hour": hour, "n_events": pa.array([1] * batch.num_rows, pa.int64())}
        )
        return partial_group_agg(t, keys=["hour"], aggs=[("n_events", "sum")])

    return grouped_sum(ds, keys=["hour"], partial=partial, sum_cols=["n_events"])


# -------------------------------------------------------------------------
# search_docs — substring search predicate (annotation search,
# main.py:1438-1445 M17) via pyarrow match_substring.
# -------------------------------------------------------------------------

def search_docs(sf_dir: str, needle: str = "data") -> rd.Dataset:
    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def f(batch: pa.Table) -> pa.Table:
        mask = pc.match_substring(batch["text"], pattern=needle)
        return batch.filter(mask).select(["doc_id", "n_chars"])

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# lang_histogram — grouped count (A4).
# -------------------------------------------------------------------------

def lang_histogram(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "documents", ["lang"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch["lang"],
                "n_docs": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(t, keys=["lang"], aggs=[("n_docs", "sum")])

    return grouped_sum(ds, keys=["lang"], partial=partial, sum_cols=["n_docs"])


# -------------------------------------------------------------------------
# cost_model — the reference's per-job cost computation (rate[extractor] *
# page_count, backend/src/tasks.py:85-104, SURVEY §2.5 A5) re-expressed as
# a broadcast rate-table lookup + grouped exact-cents aggregate: cost per
# event = rate[event_type] * value, summed per type.
# -------------------------------------------------------------------------

_EVENT_RATES = {  # fixed rate table, the analog of COST_PER_PAGE
    "click": 0.001,
    "view": 0.0005,
    "signup": 0.01,
    "purchase": 0.02,
    "error": 0.0,
}


def cost_model(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        types = batch["event_type"].to_pylist()
        rate_m = [_EVENT_RATES.get(t, 0.001) for t in types]
        # micro-dollar integer arithmetic for exact oracle parity:
        # cost_u = round(value*100) * round(rate*10000)  (cents x rate e-4)
        value_c = cents(batch["value"])
        rate_u = pa.array([int(round(r * 10000)) for r in rate_m], pa.int64())
        cost_u = pc.multiply(value_c, rate_u)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "n_events": pa.array([1] * batch.num_rows, pa.int64()),
                "cost_u": cost_u,
            }
        )
        return partial_group_agg(
            t, keys=["event_type"], aggs=[("n_events", "sum"), ("cost_u", "sum")]
        )

    return grouped_sum(
        ds, keys=["event_type"], partial=partial, sum_cols=["n_events", "cost_u"]
    )


# -------------------------------------------------------------------------
# search_docs_ci — case-insensitive containment (the reference's ILIKE
# search, main.py:1438-1445) via utf8_lower + match_substring.
# -------------------------------------------------------------------------

def search_docs_ci(sf_dir: str, needle: str = "SPARK") -> rd.Dataset:
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def f(batch: pa.Table) -> pa.Table:
        mask = pc.match_substring(
            pc.utf8_lower(batch["text"]), pattern=needle.lower()
        )
        return batch.filter(mask).select(["doc_id", "source"])

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# events_ordered — multi-key sort + limit (annotations ordered page asc,
# created_at desc; main.py:1447, SURVEY §2.6 O4) as distributed top-k.
# -------------------------------------------------------------------------

def events_ordered(sf_dir: str, k: int = 50) -> pa.Table:
    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"])
    return topk(
        ds,
        k=k,
        sort_keys=[
            ("event_type", "ascending"),
            ("ts", "descending"),
            ("event_id", "ascending"),
        ],
    )


# -------------------------------------------------------------------------
# orders_by_segment — two-sided distributed hash join (orders |x| customer)
# via Ray's native Dataset.join, then grouped exact-cents aggregate. The
# reference only ever joins via broadcast dict probes (main.py:1066-1098) —
# this is the scale path when neither side is broadcastable.
# -------------------------------------------------------------------------

def orders_by_segment(sf_dir: str) -> rd.Dataset:
    import ray
    import pyarrow.parquet as pq

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    # join parallelism scales with DATA (one partition per ~2M rows, from
    # parquet metadata — free), capped at 2x cluster CPUs, floor 8. A
    # count proportional to CPUs alone regressed 6x at 32 CPUs on small
    # tables (hash-shuffle aggregator actor spin-up dominates); a hardcoded
    # 8 would bottleneck a 256-node exchange on the big side.
    rows = (
        pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
        + pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    )
    cpus = int(ray.cluster_resources().get("CPU", 4))
    n_parts = max(8, min(2 * cpus, rows // 2_000_000 + 1))
    joined = orders.join(
        customer,
        join_type="inner",
        num_partitions=n_parts,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "n_orders": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_totalprice_c": cents(batch["o_totalprice"]),
            }
        )
        return partial_group_agg(
            t,
            keys=["c_mktsegment"],
            aggs=[("n_orders", "sum"), ("sum_totalprice_c", "sum")],
        )

    return grouped_sum(
        joined,
        keys=["c_mktsegment"],
        partial=partial,
        sum_cols=["n_orders", "sum_totalprice_c"],
    )


# -------------------------------------------------------------------------
# latest_event_per_user — per-key argmax (the reference's "latest comment"
# per user, main.py:1291-1318 A2): full row of each user's newest event.
# Partial argmax per batch -> tiny exchange -> final argmax per group.
# -------------------------------------------------------------------------

def latest_event_per_user(sf_dir: str) -> rd.Dataset:
    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    n_parts = _raw_parts(sf_dir, "events")

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        # keep each user's newest row within the batch (sort desc, first)
        idx = pc.sort_indices(
            batch,
            sort_keys=[
                ("user_id", "ascending"),
                ("ts", "descending"),
                ("event_id", "ascending"),
            ],
        )
        t = batch.take(idx)
        users = t["user_id"].combine_chunks()
        changed = pc.not_equal(users.slice(1), users.slice(0, len(users) - 1))
        if isinstance(changed, pa.ChunkedArray):
            changed = changed.combine_chunks()
        first = pa.concat_arrays([pa.array([True]), changed])
        return t.filter(first)

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(partial(batch), ["user_id"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        # one vectorized pass collapses EVERY user in the hash bucket (the
        # per-batch partial is idempotent — re-applying it to the bucket is
        # the final argmax); per-user map_groups paid a Python call per key
        best = partial(group.drop_columns(["__pp"]))
        return pa.table(
            {
                "user_id": best["user_id"],
                "last_event_id": pc.cast(best["event_id"], pa.int64()),
                "last_ts": best["ts"],
            }
        )

    partials = ds.map_batches(tag, batch_format="pyarrow")
    return partials.groupby("__pp").map_groups(combine, batch_format="pyarrow")


# -------------------------------------------------------------------------
# sessionize — gap-based session counting per user (30-minute inactivity
# gap): the windowed/streaming-aggregate analog the reference's Celery
# queue never needed (SURVEY §2.8: no windows in the reference). Per-user
# rows co-locate via one small groupby; within a group it's a vectorized
# sorted-diff. Sessions can't split across groups (partition key = the
# window key), which is the documented partitioning assumption.
# -------------------------------------------------------------------------

SESSION_GAP_US = 30 * 60 * 1_000_000


def sessionize(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    n_parts = _raw_parts(sf_dir, "events")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["user_id"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        # every user in the hash bucket in ONE vectorized pass: sort by
        # (user, ts); a session starts at each user boundary or >gap jump;
        # per-user session counts via reduceat over the user runs
        t = group.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        if len(u) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_sessions": pa.array([], pa.int64()),
                }
            )
        new = np.ones(len(u), dtype=np.int64)
        new[1:] = (u[1:] != u[:-1]) | (ts[1:] - ts[:-1] > SESSION_GAP_US)
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        return pa.table(
            {
                "user_id": pa.array(u[starts]),
                "n_sessions": pa.array(np.add.reduceat(new, starts)),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow").groupby("__pp").map_groups(
        combine, batch_format="pyarrow"
    )


# -------------------------------------------------------------------------
# price_quantiles — EXACT distributed quantiles via integer value-count
# histogram (no full sort): per-batch cents histograms -> merged counts ->
# cumulative walk. Quantile rule (deterministic, mirrored in the SQL
# oracle): value at 1-based ascending rank ceil(q*n). At 10^12 rows the
# same shape works with fixed-width bins + a second refinement pass over
# the one candidate bin (documented scale path); the driver-side merge here
# holds one entry per distinct cent value.
# -------------------------------------------------------------------------

_QUANTILES = (25, 50, 75, 95)


def price_quantiles(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"price_c": cents(batch["o_totalprice"])})
        g = t.group_by(["price_c"]).aggregate([("price_c", "count")])
        return g.rename_columns(["price_c", "cnt"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    gathered = collect(partials)
    if gathered is None:
        return pa.table(
            {"q_pct": pa.array([], pa.int64()), "price_c": pa.array([], pa.int64())}
        )
    merged = (
        gathered.group_by(["price_c"]).aggregate([("cnt", "sum")]).sort_by("price_c")
    )
    values = merged["price_c"].to_pylist()
    counts = merged["cnt_sum"].to_pylist()
    n = sum(counts)
    out_q, out_v = [], []
    for q in _QUANTILES:
        rank = -(-q * n // 100)  # ceil(q/100 * n) in exact integer math
        cum = 0
        for v, c in zip(values, counts):
            cum += c
            if cum >= rank:
                out_q.append(q)
                out_v.append(v)
                break
    return pa.table(
        {
            "q_pct": pa.array(out_q, pa.int64()),
            "price_c": pa.array(out_v, pa.int64()),
        }
    )


# -------------------------------------------------------------------------
# props_stats — JSON payload parsing (the reference's dynamic-JSON content
# columns + json.loads of form fields, main.py:345, database.py:67-68):
# extract $.k from the events props JSON, aggregate per event_type.
# -------------------------------------------------------------------------

def props_stats(sf_dir: str) -> rd.Dataset:
    import json

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        ks = []
        import math

        for p in batch["props"].to_pylist():
            try:
                v = json.loads(p).get("k")
                if v is None:
                    ks.append(0)
                else:
                    f = float(v)
                    # DuckDB CAST(double AS BIGINT) rounds half away from 0
                    ks.append(
                        int(math.floor(f + 0.5)) if f >= 0 else int(math.ceil(f - 0.5))
                    )
            except (ValueError, TypeError, AttributeError):
                ks.append(0)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "n_events": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_k": pa.array(ks, pa.int64()),
                "max_k": pa.array(ks, pa.int64()),
            }
        )
        return partial_group_agg(
            t,
            keys=["event_type"],
            aggs=[("n_events", "sum"), ("sum_k", "sum"), ("max_k", "max")],
        )

    return grouped_sum(
        ds,
        keys=["event_type"],
        partial=partial,
        sum_cols=["n_events", "sum_k"],
        max_cols=["max_k"],
    )


# -------------------------------------------------------------------------
# orders_page — offset pagination with a dynamic sort column
# (main.py:617-655 O1: sort by any field asc/desc, offset/limit). Exact:
# distributed top-(offset+limit) prefilter, then slice — the offset rows
# never reach a global sort.
# -------------------------------------------------------------------------

def orders_page(sf_dir: str, page: int = 3, page_size: int = 20) -> pa.Table:
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"])
    upto = topk(
        ds,
        k=(page + 1) * page_size,
        sort_keys=[("o_orderdate", "descending"), ("o_orderkey", "ascending")],
    )
    return upto.slice(page * page_size, page_size)


# -------------------------------------------------------------------------
# orders_asof — AS-OF JOIN (events ⟕ latest order at-or-before event ts,
# keyed user_id = o_custkey). The reference has no temporal joins (SURVEY
# §2.4: "no range/as-of joins") — this is the custom-operator composition
# the task brief calls for: tag-union both tables into ONE dataset keyed by
# the join key, groupby(key), and a vectorized searchsorted merge inside
# map_groups. ONE shuffle total; the per-(cust,date) tie reduction
# (max-orderkey wins, deterministic) happens inside the same group, so
# orders never shuffle twice. Partitioning assumption: one hash BUCKET of
# rows (≈ total rows / n_parts, with n_parts scaled to the table via
# _raw_parts) fits in a worker — keys themselves never bound the task.
# -------------------------------------------------------------------------

def orders_asof(sf_dir: str) -> rd.Dataset:
    import numpy as np

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )

    def tag_events(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": pc.cast(batch["user_id"], pa.int64()),
                "t": batch["ts"],
                "kind": pa.array([1] * n, pa.int8()),
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "o_orderkey": pa.nulls(n, pa.int64()),
                "o_totalprice": pa.nulls(n, pa.float64()),
            }
        )

    def tag_orders(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": pc.cast(batch["o_custkey"], pa.int64()),
                "t": batch["o_orderdate"],
                "kind": pa.array([0] * n, pa.int8()),
                "event_id": pa.nulls(n, pa.int64()),
                "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
                "o_totalprice": pc.cast(batch["o_totalprice"], pa.float64()),
            }
        )

    from .agg import tag_partition

    n_parts = _raw_parts(sf_dir, "events", "orders")

    def add_pp(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["key"], n_parts)

    tagged = (
        events.map_batches(tag_events, batch_format="pyarrow")
        .union(orders.map_batches(tag_orders, batch_format="pyarrow"))
        .map_batches(add_pp, batch_format="pyarrow")
    )

    def combine(group: pa.Table) -> pa.Table:
        # every key in the hash bucket in ONE vectorized merge: both sides
        # sorted by (key, t); the key folds into the searchsorted probe as
        # key_rank * OFFSET + relative_t (OFFSET > t span, so an event can
        # never match the previous key's orders); per-(key,date) order ties
        # pre-reduced to the max-orderkey row by a boundary mask
        kind = group["kind"]
        ev = group.filter(pc.equal(kind, 1)).sort_by(
            [("key", "ascending"), ("t", "ascending"), ("event_id", "ascending")]
        )
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "ts": pa.array([], pa.timestamp("us")),
                "last_orderkey": pa.array([], pa.int64()),
                "last_totalprice": pa.array([], pa.float64()),
            }
        )
        if ev.num_rows == 0:
            return empty
        od = group.filter(pc.equal(kind, 0)).sort_by(
            [("key", "ascending"), ("t", "ascending"), ("o_orderkey", "descending")]
        )
        e_key = ev["key"].to_numpy(zero_copy_only=False)
        e_ts = pc.cast(ev["t"], pa.int64()).to_numpy(zero_copy_only=False)
        n_e = len(e_ts)
        if od.num_rows:
            o_key = od["key"].to_numpy(zero_copy_only=False)
            o_ts = pc.cast(od["t"], pa.int64()).to_numpy(zero_copy_only=False)
            # first row of each (key, date) run wins (max orderkey)
            keep = np.empty(len(o_ts), dtype=bool)
            keep[0] = True
            keep[1:] = (o_key[1:] != o_key[:-1]) | (o_ts[1:] != o_ts[:-1])
            o_key, o_ts = o_key[keep], o_ts[keep]
            o_ord = od["o_orderkey"].to_numpy(zero_copy_only=False)[keep]
            o_price = od["o_totalprice"].to_numpy(zero_copy_only=False)[keep]
            # shared key ranks + composite probe keys
            uniq = np.unique(np.concatenate([e_key, o_key]))
            e_r = np.searchsorted(uniq, e_key)
            o_r = np.searchsorted(uniq, o_key)
            t_min = min(int(e_ts.min()), int(o_ts.min()))
            t_max = max(int(e_ts.max()), int(o_ts.max()))
            offset = t_max - t_min + 2
            if len(uniq) * offset < 1 << 62:
                o_comp = o_r * np.int64(offset) + (o_ts - t_min)
                e_comp = e_r * np.int64(offset) + (e_ts - t_min)
                idx = np.searchsorted(o_comp, e_comp, side="right") - 1
            else:  # composite would overflow: per-key-run fallback
                idx = np.full(n_e, -1, dtype=np.int64)
                e_starts = np.searchsorted(e_r, np.arange(len(uniq)), side="left")
                e_ends = np.searchsorted(e_r, np.arange(len(uniq)), side="right")
                o_starts = np.searchsorted(o_r, np.arange(len(uniq)), side="left")
                o_ends = np.searchsorted(o_r, np.arange(len(uniq)), side="right")
                for k in range(len(uniq)):
                    es, ee, os_, oe = e_starts[k], e_ends[k], o_starts[k], o_ends[k]
                    if ee > es and oe > os_:
                        idx[es:ee] = os_ + np.searchsorted(
                            o_ts[os_:oe], e_ts[es:ee], side="right"
                        ) - 1
                        idx[es:ee][idx[es:ee] < os_] = -1
            miss = idx < 0
            safe = np.where(miss, 0, idx)
            # composite match can only land in the same key's run (OFFSET
            # bound), but a probe below the key's first order falls into
            # the previous key — reject any match whose key differs
            miss |= o_key[safe] != e_key
            lk = o_ord[safe]
            lp = o_price[safe]
        else:
            miss = np.ones(n_e, dtype=bool)
            lk = np.zeros(n_e, dtype=np.int64)
            lp = np.zeros(n_e, dtype=np.float64)
        return pa.table(
            {
                "event_id": ev["event_id"],
                "user_id": ev["key"],
                "ts": ev["t"],
                "last_orderkey": pa.array(lk, mask=miss),
                "last_totalprice": pa.array(lp, mask=miss),
            }
        )

    return tagged.groupby("__pp").map_groups(combine, batch_format="pyarrow")


# -------------------------------------------------------------------------
# user_rolling_window — SLIDING-WINDOW aggregate: per event, the count and
# exact-cents sum of the same user's events in the preceding hour
# (inclusive; equal-timestamp rows are peers, RANGE-frame semantics).
# Groupby(user) co-locates each window key; inside a group everything is
# vectorized numpy: window bounds via two searchsorted calls (monotone),
# windowed sums via prefix-sum differences — int64 cents, so order-exact
# against the DuckDB RANGE window oracle. No per-row Python, no
# all-to-all beyond the one keyed exchange.
# -------------------------------------------------------------------------

_WINDOW_US = 3_600_000_000  # 1 hour


def user_rolling_window(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    n_parts = _raw_parts(sf_dir, "events")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["user_id"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        # every user in the hash bucket in ONE vectorized pass: sort by
        # (user, ts); fold the user into the searchsorted key as
        # user_rank * OFFSET + relative_ts (OFFSET > ts span + window, so a
        # window can never straddle two users); windowed sums via prefix-sum
        # differences on exact int64 cents
        t = group.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "w_count": pa.array([], pa.int64()),
                    "w_sum_c": pa.array([], pa.int64()),
                }
            )
        v_c = cents(t["value"]).to_numpy(zero_copy_only=False)
        uidx = np.concatenate([[0], np.cumsum(u[1:] != u[:-1])])
        ts_rel = ts - ts.min()
        offset = int(ts_rel.max()) + _WINDOW_US + 2
        if (int(uidx[-1]) + 1) * offset >= 1 << 62:  # composite would overflow
            key = None
        else:
            key = uidx * np.int64(offset) + ts_rel
        if key is not None:
            lo = np.searchsorted(key, key - _WINDOW_US, side="left")
            hi = np.searchsorted(key, key, side="right")
        else:  # per-user-run fallback, vectorized within each run
            starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
            ends = np.append(starts[1:], n)
            lo = np.empty(n, dtype=np.int64)
            hi = np.empty(n, dtype=np.int64)
            for s, e in zip(starts.tolist(), ends.tolist()):
                seg = ts[s:e]
                lo[s:e] = s + np.searchsorted(seg, seg - _WINDOW_US, side="left")
                hi[s:e] = s + np.searchsorted(seg, seg, side="right")
        cum = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(v_c)])
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": t["ts"],
                "w_count": pa.array(hi - lo, pa.int64()),
                "w_sum_c": pa.array(cum[hi] - cum[lo], pa.int64()),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow").groupby("__pp").map_groups(
        combine, batch_format="pyarrow"
    )


# -------------------------------------------------------------------------
# top_orders_per_segment — per-group top-k (window-rank shape: the dynamic
# sort of main.py:617-655 O1 applied WITHIN each group). Distributed join
# for the segment column, then per-batch per-segment top-k prefilter so the
# final per-group combine sees at most k rows per segment per batch.
# -------------------------------------------------------------------------

def top_orders_per_segment(sf_dir: str, k: int = 3) -> rd.Dataset:
    import numpy as np
    import ray
    import pyarrow.parquet as pq

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    rows = (
        pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
        + pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    )
    cpus = int(ray.cluster_resources().get("CPU", 4))
    n_parts = max(8, min(2 * cpus, rows // 2_000_000 + 1))
    joined = orders.join(
        customer,
        join_type="inner",
        num_partitions=n_parts,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "c_mktsegment": pa.array([], pa.string()),
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_totalprice": pa.array([], pa.float64()),
                }
            )
        idx = pc.sort_indices(
            batch,
            sort_keys=[
                ("c_mktsegment", "ascending"),
                ("o_totalprice", "descending"),
                ("o_orderkey", "ascending"),
            ],
        )
        t = batch.take(idx)
        seg = t["c_mktsegment"].combine_chunks().to_numpy(zero_copy_only=False)
        new_grp = np.empty(len(seg), dtype=bool)
        new_grp[0] = True
        np.not_equal(seg[1:], seg[:-1], out=new_grp[1:])
        starts = np.flatnonzero(new_grp)
        rank = np.arange(len(seg)) - np.repeat(starts, np.diff(np.append(starts, len(seg))))
        return t.select(["c_mktsegment", "o_orderkey", "o_totalprice"]).filter(
            pa.array(rank < k)
        )

    def combine(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group,
            sort_keys=[("o_totalprice", "descending"), ("o_orderkey", "ascending")],
        )
        t = group.take(idx.slice(0, k))
        return pa.table(
            {
                "c_mktsegment": t["c_mktsegment"],
                "rnk": pa.array(range(1, t.num_rows + 1), pa.int64()),
                "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "o_totalprice": pc.cast(t["o_totalprice"], pa.float64()),
            }
        )

    pruned = joined.map_batches(partial, batch_format="pyarrow")
    return pruned.groupby("c_mktsegment").map_groups(combine, batch_format="pyarrow")


# -------------------------------------------------------------------------
# value_bands — broadcast RANGE JOIN: each event's value lands in a band of
# a tiny interval table ([lo, hi) half-open). The band table is broadcast
# into map_batches (pure searchsorted, no shuffle); the aggregate is the
# usual partial-then-combine. The SQL oracle joins the SAME interval table
# as an inline VALUES relation ON v >= lo AND v < hi — a true range join.
# -------------------------------------------------------------------------

_BAND_EDGES = (1.0, 10.0, 50.0, 200.0)  # -> 5 half-open bands
_BAND_NAMES = ("b0_lt1", "b1_1_10", "b2_10_50", "b3_50_200", "b4_ge200")


def value_bands(sf_dir: str) -> rd.Dataset:
    import numpy as np

    ds = _read(sf_dir, "events", ["value"])
    edges = np.asarray(_BAND_EDGES, dtype=np.float64)
    names = np.asarray(_BAND_NAMES, dtype=object)

    def partial(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch["value"], pa.float64()).to_numpy(zero_copy_only=False)
        band = names[np.searchsorted(edges, v, side="right")]
        t = pa.table(
            {
                "band": pa.array(band, pa.string()),
                "n_events": pa.array(np.ones(len(v), dtype=np.int64)),
                "sum_value_c": cents(batch["value"]),
            }
        )
        return partial_group_agg(
            t, keys=["band"], aggs=[("n_events", "sum"), ("sum_value_c", "sum")]
        )

    return grouped_sum(
        ds, keys=["band"], partial=partial, sum_cols=["n_events", "sum_value_c"]
    )


# -------------------------------------------------------------------------
# users_no_big_spend — distinct + anti-join SET OP (EXCEPT): users that
# appear in events but never with a value >= 200. Tag rows with the
# predicate flag, per-batch partial max per user (tiny distinct rows on
# the wire), one keyed exchange, keep max==0. The broadcast-set alternative
# breaks when the subtracted side is huge; this shape is the 100 TB-safe
# EXCEPT.
# -------------------------------------------------------------------------

_BIG_SPEND = 200.0


def users_no_big_spend(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "is_p": pc.cast(
                    pc.greater_equal(batch["value"], _BIG_SPEND), pa.int64()
                ),
            }
        )
        return partial_group_agg(t, keys=["user_id"], aggs=[("is_p", "max")])

    def keep_never(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["is_p"], 0)).select(["user_id"])

    agg = grouped_sum(
        ds, keys=["user_id"], partial=partial, sum_cols=[], max_cols=["is_p"]
    )
    return agg.map_batches(keep_never, batch_format="pyarrow")


# -------------------------------------------------------------------------
# shipping_priority — MULTI-WAY join pipeline (TPC-H Q3 shape):
# customer(filtered segment) ⋈ orders(filtered date) ⋈ lineitem(filtered
# date) → per-order exact-cents revenue → top-10. Join strategy is chosen
# per side from parquet METADATA (the engine's broadcast-join threshold,
# the same decision a warehouse cost model makes): a dimension side under
# `broadcast_rows` is collected column-pruned+filtered and probed as a
# broadcast dict inside map_batches (zero shuffles end-to-end — at sf0.1
# this cut the query from 40 s to ~4 s, two HashShuffleAggregator pools
# avoided); a bigger side falls back to the native hash join with
# data-scaled partition counts. Every scan is column-pruned and filtered
# BEFORE any exchange. The reference never joins more than two tables
# (SURVEY §2.4) — this is the canonical warehouse chain at scale.
# -------------------------------------------------------------------------

def shipping_priority(
    sf_dir: str, segment: str = "BUILDING", broadcast_rows: int = 5_000_000
) -> pa.Table:
    import datetime

    import ray
    import pyarrow.parquet as pq

    from .agg import collect, topk

    cutoff = pa.scalar(datetime.datetime(1998, 1, 1), pa.timestamp("us"))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def cust_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["c_mktsegment"], segment)).select(
            ["c_custkey"]
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["o_orderdate"], cutoff))

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch["l_shipdate"], cutoff))
        ext_c = cents(t["l_extendedprice"])
        disc_pct = cents(t["l_discount"])
        rev = pc.multiply(ext_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct))
        p = pa.table({"l_orderkey": t["l_orderkey"], "revenue_c": rev})
        return partial_group_agg(p, keys=["l_orderkey"], aggs=[("revenue_c", "sum")])

    cust_rows = pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    ord_rows = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    li_rows = pq.read_metadata(f"{sf_dir}/lineitem.parquet").num_rows
    cpus = int(ray.cluster_resources().get("CPU", 4))

    if cust_rows <= broadcast_rows and ord_rows <= broadcast_rows:
        # broadcast path: (orderkey -> orderdate) for qualifying orders of
        # qualifying customers, probed inside the lineitem partial stage
        import numpy as np

        cust_t = collect(cust.map_batches(cust_filter, batch_format="pyarrow"))
        ckeys = (
            cust_t["c_custkey"].combine_chunks()
            if cust_t is not None
            else pa.array([], pa.int64())
        )

        def ord_project(batch: pa.Table) -> pa.Table:
            t = ord_filter(batch)
            return t.filter(pc.is_in(t["o_custkey"], value_set=ckeys)).select(
                ["o_orderkey", "o_orderdate"]
            )

        ord_t = collect(orders.map_batches(ord_project, batch_format="pyarrow"))
        if ord_t is not None:
            ord_t = ord_t.sort_by("o_orderkey")
            okeys = ord_t["o_orderkey"].to_numpy(zero_copy_only=False)
            odates = pc.cast(ord_t["o_orderdate"], pa.int64()).to_numpy(
                zero_copy_only=False
            )
        else:
            okeys = np.empty(0, dtype=np.int64)
            odates = np.empty(0, dtype=np.int64)

        def li_probe(batch: pa.Table) -> pa.Table:
            p = li_partial(batch)
            keys = p["l_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(okeys, keys)
            pos_c = np.minimum(pos, max(len(okeys) - 1, 0))
            hit = (
                (okeys[pos_c] == keys) if len(okeys) else np.zeros(len(keys), bool)
            )
            t = p.filter(pa.array(hit))
            dates = pa.array(
                odates[pos_c[hit]] if len(okeys) else np.empty(0, np.int64)
            ).cast(pa.timestamp("us"))
            return t.append_column("o_orderdate", dates)

        j = li.map_batches(li_probe, batch_format="pyarrow")
    else:
        n_parts = max(8, min(2 * cpus, (ord_rows + li_rows) // 2_000_000 + 1))
        ordc = orders.map_batches(ord_filter, batch_format="pyarrow").join(
            cust.map_batches(cust_filter, batch_format="pyarrow"),
            join_type="inner",
            num_partitions=n_parts,
            on=("o_custkey",),
            right_on=("c_custkey",),
        )
        j = li.map_batches(li_partial, batch_format="pyarrow").join(
            ordc,
            join_type="inner",
            num_partitions=n_parts,
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        )

    from ray.data.aggregate import Sum

    def post_partial(batch: pa.Table) -> pa.Table:
        # key on the int64 microsecond value: Ray's native aggregate coerces
        # timestamp[us] keys to timestamp[s] (lossy in general), int64 is
        # exact and casts back losslessly after the exchange
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "o_orderdate": pc.cast(batch["o_orderdate"], pa.int64()),
                "revenue_c": batch["revenue_c"],
            }
        )
        return partial_group_agg(
            t, keys=["l_orderkey", "o_orderdate"], aggs=[("revenue_c", "sum")]
        )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "o_orderdate": pc.cast(batch["o_orderdate"], pa.timestamp("us")),
                "revenue_c": pc.cast(batch["sum(revenue_c)"], pa.int64()),
            }
        )

    # native hash aggregate: one row per order, no per-group Python calls
    summed = (
        j.map_batches(post_partial, batch_format="pyarrow")
        .groupby(["l_orderkey", "o_orderdate"])
        .aggregate(Sum("revenue_c"))
        .map_batches(rename, batch_format="pyarrow")
    )
    out = topk(
        summed,
        k=10,
        sort_keys=[("revenue_c", "descending"), ("l_orderkey", "ascending")],
    )
    return out.select(["l_orderkey", "revenue_c", "o_orderdate"])


# -------------------------------------------------------------------------
# value_p95_by_type — exact PER-GROUP quantile via the same integer
# value-count histogram as price_quantiles, but grouped: per-batch
# (type, cents) partial histograms -> one keyed exchange of tiny count
# rows -> per-type cumulative walk at rank ceil(0.95 n). No sort of the
# data, ever.
# -------------------------------------------------------------------------

def value_p95_by_type(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "c": cents(batch["value"]),
                "cnt": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(t, keys=["event_type", "c"], aggs=[("cnt", "sum")])

    def walk(group: pa.Table) -> pa.Table:
        g = group.sort_by([("c", "ascending")])
        counts = g["cnt"].to_pylist()
        n = sum(counts)
        rank = -(-95 * n // 100)  # ceil(95n/100), exact integer math
        cum = 0
        for v, cnt in zip(g["c"].to_pylist(), counts):
            cum += cnt
            if cum >= rank:
                return pa.table(
                    {
                        "event_type": pa.array(
                            [group["event_type"][0].as_py()], pa.string()
                        ),
                        "p95_c": pa.array([v], pa.int64()),
                    }
                )
        raise AssertionError("rank <= n: the cumulative walk always returns")

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("event_type").map_groups(walk, batch_format="pyarrow")


# -------------------------------------------------------------------------
# events_pivot — PIVOT / conditional aggregation: one row per user with a
# count column per event type (the wide-table shape BI layers ask of an
# engine). Per-batch partials emit the five indicator counts vectorized
# (pc.equal casts, no row loop); the combine is the standard hash-bucketed
# grouped_sum. The SQL oracle uses COUNT(*) FILTER (WHERE ...).
# -------------------------------------------------------------------------

_PIVOT_TYPES = ("click", "view", "signup", "purchase", "error")


def events_pivot(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        cols = {"user_id": batch["user_id"]}
        for ty in _PIVOT_TYPES:
            cols[f"n_{ty}"] = pc.cast(
                pc.equal(batch["event_type"], ty), pa.int64()
            )
        return partial_group_agg(
            pa.table(cols),
            keys=["user_id"],
            aggs=[(f"n_{ty}", "sum") for ty in _PIVOT_TYPES],
        )

    return grouped_sum(
        ds,
        keys=["user_id"],
        partial=partial,
        sum_cols=[f"n_{ty}" for ty in _PIVOT_TYPES],
    )


# -------------------------------------------------------------------------
# source_langs — STRING AGGREGATION: per source, the sorted distinct langs
# joined with ','. Distinct (source, lang) pairs reduce per batch, one
# keyed exchange of tiny pairs, then a vectorized arrow group_by collects
# each source's lang list; the sort+join runs once per OUTPUT row (group),
# not per input row. Oracle: string_agg(DISTINCT ... ORDER BY ...).
# -------------------------------------------------------------------------

def source_langs(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "documents", ["source", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        # distinct pairs within the batch
        return batch.group_by(["source", "lang"]).aggregate([])

    def combine(group: pa.Table) -> pa.Table:
        g = (
            group.select(["source", "lang"])
            .group_by(["source", "lang"])
            .aggregate([])  # distinct pairs across batches
            .group_by(["source"])
            .aggregate([("lang", "list")])
        )
        lists = g["lang_list"].to_pylist()
        return pa.table(
            {
                "source": g["source"],
                "langs": pa.array([",".join(sorted(ls)) for ls in lists], pa.string()),
                "n_langs": pa.array([len(ls) for ls in lists], pa.int64()),
            }
        )

    from .agg import tag_partition

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(partial(batch), ["source"])

    return ds.map_batches(tag, batch_format="pyarrow").groupby("__pp").map_groups(
        combine, batch_format="pyarrow"
    )


# -------------------------------------------------------------------------
# distinct_users_hll — HyperLogLog distinct count (MERGEABLE SKETCH): the
# 100 TB path beside the exact COUNT(DISTINCT) of events_by_type. Exact
# distinct needs a keyed exchange of every distinct key; the sketch needs
# one streaming pass emitting a fixed 16 KiB register array per batch and
# a driver-side max-merge (registers are tiny partials — the same
# partial-then-combine shape as every aggregate here, with O(1) state).
# p=14 -> 16384 registers, standard error ~0.81%. Deterministic: the hash
# is splitmix64, not a seeded RNG. Rows-only (approximate by design); the
# pytest asserts <2.5% error vs the exact count at two scales.
# -------------------------------------------------------------------------

_HLL_P = 14
_HLL_M = 1 << _HLL_P


def _splitmix64(x: "np.ndarray") -> "np.ndarray":
    import numpy as np

    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hll_regs(values: "np.ndarray") -> "np.ndarray":
    """HLL register array (uint8[_HLL_M]) of an int-valued sample."""
    import numpy as np

    h = _splitmix64(values.astype(np.uint64))
    idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    rest = h << np.uint64(_HLL_P)
    # rank = leading zeros of the remaining 64-p bits, +1 (cap 64-p+1)
    nbits = 64 - _HLL_P
    rank = np.full(len(h), nbits + 1, dtype=np.uint8)
    for b in range(1, nbits + 1):
        mask = (rest >> np.uint64(64 - b)) & np.uint64(1)
        hit = (mask == 1) & (rank == nbits + 1)
        rank[hit] = b
    regs = np.zeros(_HLL_M, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: "np.ndarray") -> int:
    import numpy as np

    m = float(_HLL_M)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return int(round(est))


def distinct_users_hll(sf_dir: str) -> pa.Table:
    import numpy as np

    ds = _read(sf_dir, "events", ["user_id"])

    def sketch(batch: pa.Table) -> pa.Table:
        regs = _hll_regs(batch["user_id"].to_numpy(zero_copy_only=False))
        return pa.table({"regs": pa.array([regs.tobytes()], pa.large_binary())})

    parts = collect(ds.map_batches(sketch, batch_size=65536, batch_format="pyarrow"))
    regs = np.zeros(_HLL_M, dtype=np.uint8)
    if parts is not None:
        for b in parts["regs"].to_pylist():
            regs = np.maximum(regs, np.frombuffer(b, dtype=np.uint8))
    return pa.table(
        {"distinct_users_est": pa.array([_hll_estimate(regs)], pa.int64())}
    )


def distinct_users_hll_by_type(sf_dir: str) -> pa.Table:
    """GROUPED HyperLogLog: per event type, the approximate distinct-user
    count — the mergeable-sketch path beside events_by_type's exact
    two-phase distinct. Each batch emits one 16 KiB register array per
    type PRESENT in the batch (types are few; register partials stay
    tiny), the driver max-merges per type. Rows-only (approximate);
    pytest asserts <2.5% error vs exact per type."""
    import numpy as np

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def sketch(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        types, regs_out = [], []
        for t in np.unique(et):
            types.append(str(t))
            regs_out.append(_hll_regs(uid[et == t]).tobytes())
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "regs": pa.array(regs_out, pa.large_binary()),
            }
        )

    parts = collect(ds.map_batches(sketch, batch_size=65536, batch_format="pyarrow"))
    merged: dict[str, "np.ndarray"] = {}
    if parts is not None:
        for t, b in zip(parts["event_type"].to_pylist(), parts["regs"].to_pylist()):
            r = np.frombuffer(b, dtype=np.uint8)
            merged[t] = np.maximum(merged[t], r) if t in merged else r.copy()
    keys = sorted(merged)
    return pa.table(
        {
            "event_type": pa.array(keys, pa.string()),
            "distinct_users_est": pa.array(
                [_hll_estimate(merged[k]) for k in keys], pa.int64()
            ),
        }
    )


# -------------------------------------------------------------------------
# price_quantiles_sketch — mergeable WEIGHTED-SAMPLE quantile sketch: the
# 100 TB path beside the exact histogram walk of price_quantiles (whose
# driver merge holds one entry per distinct cent value — unbounded for
# continuous data). Each batch forwards at most K evenly-spaced order
# statistics of its sorted values, each carrying weight batch_n/K; the
# driver merges the weighted samples and reads quantiles off the
# cumulative weights. Rank error is bounded by ~n/K per batch (collapses
# to exact when batch_n <= K). Deterministic; rows-only (approximate);
# pytest asserts the p50/p95 estimates land within 1% rank error of
# exact.
# -------------------------------------------------------------------------

_SKETCH_K = 4096


def price_quantiles_sketch(sf_dir: str, quantiles=(25, 50, 75, 95)) -> pa.Table:
    import numpy as np

    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def sample(batch: pa.Table) -> pa.Table:
        v = np.sort(cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False))
        n = len(v)
        if n == 0:
            return pa.table(
                {"c": pa.array([], pa.int64()), "w": pa.array([], pa.float64())}
            )
        if n <= _SKETCH_K:
            return pa.table({"c": pa.array(v), "w": pa.array(np.ones(n))})
        # evenly-spaced order statistics at ranks (i+0.5)/K
        pos = ((np.arange(_SKETCH_K) + 0.5) * n / _SKETCH_K).astype(np.int64)
        return pa.table(
            {
                "c": pa.array(v[pos]),
                "w": pa.array(np.full(_SKETCH_K, n / _SKETCH_K)),
            }
        )

    parts = collect(ds.map_batches(sample, batch_format="pyarrow"))
    if parts is None:
        return pa.table(
            {"q_pct": pa.array([], pa.int64()), "price_c_est": pa.array([], pa.int64())}
        )
    c = parts["c"].to_numpy(zero_copy_only=False)
    w = parts["w"].to_numpy(zero_copy_only=False)
    order = np.argsort(c, kind="stable")
    c, w = c[order], w[order]
    cum = np.cumsum(w)
    total = cum[-1]
    out_q, out_v = [], []
    for q in quantiles:
        target = q / 100.0 * total
        i = int(np.searchsorted(cum, target, side="left"))
        out_q.append(q)
        out_v.append(int(c[min(i, len(c) - 1)]))
    return pa.table(
        {
            "q_pct": pa.array(out_q, pa.int64()),
            "price_c_est": pa.array(out_v, pa.int64()),
        }
    )


# -------------------------------------------------------------------------
# Bound-asserting oracle surfaces for the approximate sketches above.
# The sketches themselves are rows-only by nature (a DuckDB oracle cannot
# reproduce splitmix64 registers bit-for-bit), but their ERROR CONTRACTS
# are SQL-expressible: each *_check query computes both the sketch estimate
# and the exact answer inside the engine, emits the exact value plus a
# boolean "within documented bound" flag, and the oracle re-derives the
# exact value in SQL with a constant TRUE — so a broken sketch (or a broken
# exact path) hash-mismatches in the driver's CORRECTNESS run instead of
# reading as `no_oracle`.
# -------------------------------------------------------------------------


def hll_distinct_check(sf_dir: str) -> pa.Table:
    """Exact distinct-user count + HLL-within-0.025 flag (p=14 standard
    error ~0.81%, so 2.5% ~= 3 sigma; the same bound the pytest asserts)."""
    est = int(distinct_users_hll(sf_dir)["distinct_users_est"][0].as_py())

    ds = _read(sf_dir, "events", ["user_id"])

    def uniq(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "c": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(t, keys=["user_id"], aggs=[("c", "sum")])

    # exact distributed distinct: dedupe per batch, one keyed exchange,
    # then a metadata count — no driver-side row materialization
    n = grouped_sum(ds, keys=["user_id"], partial=uniq, sum_cols=["c"]).count()
    ok = abs(est - n) <= 0.025 * n
    return pa.table(
        {
            "distinct_users": pa.array([n], pa.int64()),
            "hll_ok": pa.array([ok], pa.bool_()),
        }
    )


def hll_by_type_check(sf_dir: str) -> pa.Table:
    """Per-event-type exact distinct users + HLL-within-0.025 flag."""
    est_t = distinct_users_hll_by_type(sf_dir)
    est = dict(
        zip(
            est_t["event_type"].to_pylist(),
            est_t["distinct_users_est"].to_pylist(),
        )
    )

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "user_id": batch["user_id"],
                "c": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(
            t, keys=["event_type", "user_id"], aggs=[("c", "sum")]
        )

    per_user = grouped_sum(
        ds, keys=["event_type", "user_id"], partial=partial, sum_cols=["c"]
    )

    def rollup(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "n_users": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(t, keys=["event_type"], aggs=[("n_users", "sum")])

    exact = collect(
        grouped_sum(per_user, keys=["event_type"], partial=rollup, sum_cols=["n_users"])
    )
    types = sorted(exact["event_type"].to_pylist()) if exact is not None else []
    n_by = (
        dict(zip(exact["event_type"].to_pylist(), exact["n_users"].to_pylist()))
        if exact is not None
        else {}
    )
    oks = [
        abs(int(est.get(t, 0)) - int(n_by[t])) <= 0.025 * int(n_by[t]) for t in types
    ]
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "distinct_users": pa.array([int(n_by[t]) for t in types], pa.int64()),
            "hll_ok": pa.array(oks, pa.bool_()),
        }
    )


def quantile_sketch_check(sf_dir: str, quantiles=(25, 50, 75, 95)) -> pa.Table:
    """Rank-error assertion for price_quantiles_sketch: a second streaming
    pass counts rows <= each estimate (the estimates are 4 ints broadcast
    in the closure) and asserts |rank/N - q/100| <= 0.02 — the sketch's
    documented ~n/K-per-batch rank error with headroom. Emits total_n so
    the oracle's data-derived column proves the engine saw every row."""
    import numpy as np

    est_t = price_quantiles_sketch(sf_dir, quantiles)
    ests = dict(
        zip(est_t["q_pct"].to_pylist(), est_t["price_c_est"].to_pylist())
    )
    qs = sorted(ests)

    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def rank_partial(batch: pa.Table) -> pa.Table:
        v = cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "q_pct": pa.array(qs, pa.int64()),
                "n_le": pa.array(
                    [int((v <= ests[q]).sum()) for q in qs], pa.int64()
                ),
                "n": pa.array([len(v)] * len(qs), pa.int64()),
            }
        )

    totals = collect(
        grouped_sum(
            ds,
            keys=["q_pct"],
            partial=rank_partial,
            sum_cols=["n_le", "n"],
        )
    )
    n_le = dict(zip(totals["q_pct"].to_pylist(), totals["n_le"].to_pylist()))
    n_tot = dict(zip(totals["q_pct"].to_pylist(), totals["n"].to_pylist()))
    oks = [
        abs(n_le[q] / max(n_tot[q], 1) - q / 100.0) <= 0.02 for q in qs
    ]
    return pa.table(
        {
            "q_pct": pa.array(qs, pa.int64()),
            "total_n": pa.array([n_tot[q] for q in qs], pa.int64()),
            "rank_ok": pa.array(oks, pa.bool_()),
        }
    )


# -------------------------------------------------------------------------
# cum_spend — RUNNING-SUM window (SUM OVER PARTITION BY ... ORDER BY ...):
# per customer, the cumulative exact-cents spend over their orders in
# (o_orderdate, o_orderkey) order. One keyed raw-row exchange on a
# data-scaled bucket count; inside a bucket the grouped cumsum is one
# vectorized pass (global cumsum minus its value at each run start) — no
# per-group Python, no per-row loop.
# -------------------------------------------------------------------------

def cum_spend(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    n_parts = _raw_parts(sf_dir, "orders")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["o_custkey"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("o_custkey", "ascending"),
                ("o_orderdate", "ascending"),
                ("o_orderkey", "ascending"),
            ]
        )
        u = t["o_custkey"].to_numpy(zero_copy_only=False)
        v = cents(t["o_totalprice"]).to_numpy(zero_copy_only=False)
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_custkey": pa.array([], pa.int64()),
                    "o_orderdate": pa.array([], pa.timestamp("us")),
                    "cum_spend_c": pa.array([], pa.int64()),
                }
            )
        total = np.cumsum(v)
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        runs = np.diff(np.append(starts, n))
        base = np.repeat(total[starts] - v[starts], runs)
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "o_orderdate": t["o_orderdate"],
                "cum_spend_c": pa.array(total - base, pa.int64()),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow").groupby("__pp").map_groups(
        combine, batch_format="pyarrow"
    )


# -------------------------------------------------------------------------
# order_rank_per_cust — ROW_NUMBER window over the FULL table (unlike
# top_orders_per_segment there is no k-prune: every row gets its rank).
# Same keyed-exchange shape as cum_spend; ranks are arange minus the run
# start, vectorized.
# -------------------------------------------------------------------------

def order_rank_per_cust(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    n_parts = _raw_parts(sf_dir, "orders")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["o_custkey"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("o_custkey", "ascending"),
                ("o_totalprice", "descending"),
                ("o_orderkey", "ascending"),
            ]
        )
        u = t["o_custkey"].to_numpy(zero_copy_only=False)
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_custkey": pa.array([], pa.int64()),
                    "o_totalprice": pa.array([], pa.float64()),
                    "rnk": pa.array([], pa.int64()),
                }
            )
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        runs = np.diff(np.append(starts, n))
        rnk = np.arange(n, dtype=np.int64) - np.repeat(starts, runs) + 1
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "o_totalprice": t["o_totalprice"],
                "rnk": pa.array(rnk, pa.int64()),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow").groupby("__pp").map_groups(
        combine, batch_format="pyarrow"
    )


# -------------------------------------------------------------------------
# order_gap_p50 — LAG-diff window + per-group exact median: per customer
# with >=2 orders, the median microsecond gap between consecutive orders
# in (o_orderdate, o_orderkey) order (lower median, rank ceil(n/2) — the
# same exact-rank convention as value_p95_by_type). Gaps are derived
# inside the keyed bucket (all of a customer's rows co-locate), then one
# lexsort picks each run's median order statistic — no per-group Python.
# -------------------------------------------------------------------------

def order_gap_p50(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    n_parts = _raw_parts(sf_dir, "orders")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["o_custkey"], n_parts)

    empty = pa.table(
        {
            "o_custkey": pa.array([], pa.int64()),
            "p50_gap_us": pa.array([], pa.int64()),
        }
    )

    def combine(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("o_custkey", "ascending"),
                ("o_orderdate", "ascending"),
                ("o_orderkey", "ascending"),
            ]
        )
        u = t["o_custkey"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
        if len(u) < 2:
            return empty
        same = u[1:] == u[:-1]
        gu = u[1:][same]
        gv = (ts[1:] - ts[:-1])[same]
        if len(gu) == 0:
            return empty
        order = np.lexsort((gv, gu))
        gu, gv = gu[order], gv[order]
        starts = np.flatnonzero(np.concatenate([[True], gu[1:] != gu[:-1]]))
        runs = np.diff(np.append(starts, len(gu)))
        med = starts + (runs - 1) // 2  # 0-indexed (n-1)//2 == 1-indexed ceil(n/2)
        return pa.table(
            {
                "o_custkey": pa.array(gu[starts], pa.int64()),
                "p50_gap_us": pa.array(gv[med], pa.int64()),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow").groupby("__pp").map_groups(
        combine, batch_format="pyarrow"
    )


# -------------------------------------------------------------------------
# user_modal_event — grouped MODE with deterministic tie-break (max count,
# then lexicographically smallest type). Partials are per-batch
# (user, type) counts — bounded by users x 5 types — combined per hash
# bucket with one arrow group_by + one sort + first-per-run mask.
# -------------------------------------------------------------------------

def user_modal_event(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return tag_partition(
            partial_group_agg(
                t, keys=["user_id", "event_type"], aggs=[("n", "sum")]
            ),
            ["user_id"],
        )

    def combine(group: pa.Table) -> pa.Table:
        g = partial_group_agg(
            group.select(["user_id", "event_type", "n"]),
            keys=["user_id", "event_type"],
            aggs=[("n", "sum")],
        )
        idx = pc.sort_indices(
            g,
            sort_keys=[
                ("user_id", "ascending"),
                ("n", "descending"),
                ("event_type", "ascending"),
            ],
        )
        t = g.take(idx)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        if len(u) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "modal_type": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        first = np.concatenate([[True], u[1:] != u[:-1]])
        t = t.filter(pa.array(first))
        return pa.table(
            {
                "user_id": t["user_id"],
                "modal_type": t["event_type"],
                "n": pc.cast(t["n"], pa.int64()),
            }
        )

    return ds.map_batches(partial, batch_format="pyarrow").groupby("__pp").map_groups(
        combine, batch_format="pyarrow"
    )


# -------------------------------------------------------------------------
# buyers_intersect — set INTERSECT (complement of users_no_big_spend's
# EXCEPT): distinct users with BOTH a 'click' and a 'purchase' event.
# Per-batch boolean partials (has_click/has_purchase as 0/1 maxes) keep
# the exchange at one row per (user, batch); the combine is a max + filter.
# -------------------------------------------------------------------------

def buyers_intersect(sf_dir: str) -> rd.Dataset:
    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["event_type"], value_set=pa.array(["click", "purchase"]))
        b = batch.filter(m)
        t = pa.table(
            {
                "user_id": b["user_id"],
                "has_click": pc.cast(pc.equal(b["event_type"], "click"), pa.int64()),
                "has_purchase": pc.cast(
                    pc.equal(b["event_type"], "purchase"), pa.int64()
                ),
            }
        )
        return tag_partition(
            partial_group_agg(
                t,
                keys=["user_id"],
                aggs=[("has_click", "max"), ("has_purchase", "max")],
            ),
            ["user_id"],
        )

    def combine(group: pa.Table) -> pa.Table:
        g = partial_group_agg(
            group.select(["user_id", "has_click", "has_purchase"]),
            keys=["user_id"],
            aggs=[("has_click", "max"), ("has_purchase", "max")],
        )
        both = pc.and_(
            pc.equal(g["has_click"], 1), pc.equal(g["has_purchase"], 1)
        )
        return g.filter(both).select(["user_id"])

    return ds.map_batches(partial, batch_format="pyarrow").groupby("__pp").map_groups(
        combine, batch_format="pyarrow"
    )


# -------------------------------------------------------------------------
# region_rollup — GROUPING SETS / ROLLUP(region, nation): counts and
# exact-cents balances at (region, nation), (region) and () levels. The
# finest level runs distributed (broadcast nation->region names into the
# partials, grouped_sum exchange); the two subtotal levels re-aggregate
# the resulting <=25-row table locally — the only honest place for them.
# NULL name = subtotal row, exactly like SQL ROLLUP.
# -------------------------------------------------------------------------

def region_rollup(sf_dir: str) -> pa.Table:
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rmap = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    nmaps = {
        nk: (rmap[rk], nname)
        for nk, rk, nname in zip(
            nation["n_nationkey"].to_pylist(),
            nation["n_regionkey"].to_pylist(),
            nation["n_name"].to_pylist(),
        )
    }
    ds = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(batch: pa.Table) -> pa.Table:
        pairs = [nmaps[nk] for nk in batch["c_nationkey"].to_pylist()]
        t = pa.table(
            {
                "r_name": pa.array([p[0] for p in pairs], pa.string()),
                "n_name": pa.array([p[1] for p in pairs], pa.string()),
                "n_cust": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_acctbal_c": cents(batch["c_acctbal"]),
            }
        )
        return partial_group_agg(
            t,
            keys=["r_name", "n_name"],
            aggs=[("n_cust", "sum"), ("sum_acctbal_c", "sum")],
        )

    fine = collect(
        grouped_sum(
            ds,
            keys=["r_name", "n_name"],
            partial=partial,
            sum_cols=["n_cust", "sum_acctbal_c"],
        )
    )
    if fine is None:
        return pa.table(
            {
                "r_name": pa.array([], pa.string()),
                "n_name": pa.array([], pa.string()),
                "n_cust": pa.array([], pa.int64()),
                "sum_acctbal_c": pa.array([], pa.int64()),
            }
        )
    fine = fine.select(["r_name", "n_name", "n_cust", "sum_acctbal_c"])
    by_region = (
        fine.group_by(["r_name"])
        .aggregate([("n_cust", "sum"), ("sum_acctbal_c", "sum")])
        .rename_columns(["r_name", "n_cust", "sum_acctbal_c"])
    )
    by_region = by_region.add_column(
        1, "n_name", pa.array([None] * by_region.num_rows, pa.string())
    )
    total = pa.table(
        {
            "r_name": pa.array([None], pa.string()),
            "n_name": pa.array([None], pa.string()),
            "n_cust": pa.array([pc.sum(fine["n_cust"]).as_py()], pa.int64()),
            "sum_acctbal_c": pa.array(
                [pc.sum(fine["sum_acctbal_c"]).as_py()], pa.int64()
            ),
        }
    )
    return pa.concat_tables(
        [fine, by_region.select(fine.column_names), total], promote_options="none"
    )


# -------------------------------------------------------------------------
# orders_above_cust_avg — correlated-subquery filter (each order vs its own
# customer's average order value), decorrelated the distributed way: one
# keyed raw-row exchange on o_custkey; inside a bucket the per-customer
# sum/count comes from one arrow group_by and is mapped back onto rows with
# index_in — no join operator, no second pass over the table. The
# comparison is exact integer math (price_c * n > sum_c), never a float
# average. Reference analog: per-user spend-vs-average feedback views
# (backend/src/main.py:1291-1318) done driver-side there.
# -------------------------------------------------------------------------

def orders_above_cust_avg(sf_dir: str) -> rd.Dataset:
    from .agg import tag_partition

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    n_parts = _raw_parts(sf_dir, "orders")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["o_custkey"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        price_c = cents(group["o_totalprice"])
        t = pa.table(
            {
                "o_custkey": group["o_custkey"],
                "sum_c": price_c,
                "n": pa.array([1] * group.num_rows, pa.int64()),
            }
        )
        g = partial_group_agg(
            t, keys=["o_custkey"], aggs=[("sum_c", "sum"), ("n", "sum")]
        )
        pos = pc.index_in(group["o_custkey"], value_set=g["o_custkey"].combine_chunks())
        sum_c = pc.take(g["sum_c"], pos)
        n = pc.take(g["n"], pos)
        keep = pc.greater(pc.multiply(price_c, n), sum_c)
        return group.select(["o_orderkey", "o_custkey", "o_totalprice"]).filter(keep)

    return ds.map_batches(tag, batch_format="pyarrow").groupby("__pp").map_groups(
        combine, batch_format="pyarrow"
    )


# -------------------------------------------------------------------------
# order_priority_returned — EXISTS semi-join (TPC-H-Q4 shape): count orders
# per priority that have at least one returned ('R') lineitem. Both sides
# are hash-bucketed on the join key and unioned into ONE exchange; inside a
# bucket the semi-join is a vectorized is_in mask. The probe side ships
# only per-batch-distinct keys, the build side only (key, priority) — no
# full-row join, and the per-bucket outputs are 5-row count partials.
# -------------------------------------------------------------------------

def order_priority_returned(sf_dir: str) -> pa.Table:
    from .agg import tag_partition

    n_parts = _raw_parts(sf_dir, "orders", "lineitem")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def tag_orders(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "__k": pc.cast(batch["o_orderkey"], pa.int64()),
                "o_orderpriority": batch["o_orderpriority"],
                "__side": pa.array([0] * batch.num_rows, pa.int8()),
            }
        )
        return tag_partition(t, ["__k"], n_parts)

    def tag_li(batch: pa.Table) -> pa.Table:
        keys = pc.unique(
            batch.filter(pc.equal(batch["l_returnflag"], "R"))["l_orderkey"]
        )
        t = pa.table(
            {
                "__k": pc.cast(keys, pa.int64()),
                "o_orderpriority": pa.nulls(len(keys), pa.string()),
                "__side": pa.array([1] * len(keys), pa.int8()),
            }
        )
        return tag_partition(t, ["__k"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        probe = group.filter(pc.equal(group["__side"], 1))["__k"]
        left = group.filter(pc.equal(group["__side"], 0))
        hit = left.filter(pc.is_in(left["__k"], value_set=probe.combine_chunks()))
        t = pa.table(
            {
                "o_orderpriority": hit["o_orderpriority"],
                "n_orders": pa.array([1] * hit.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(
            t, keys=["o_orderpriority"], aggs=[("n_orders", "sum")]
        )

    partials = collect(
        orders.map_batches(tag_orders, batch_format="pyarrow")
        .union(li.map_batches(tag_li, batch_format="pyarrow"))
        .groupby("__pp")
        .map_groups(combine, batch_format="pyarrow")
    )
    if partials is None:
        return pa.table(
            {
                "o_orderpriority": pa.array([], pa.string()),
                "n_orders": pa.array([], pa.int64()),
            }
        )
    return partial_group_agg(
        partials.select(["o_orderpriority", "n_orders"]),
        keys=["o_orderpriority"],
        aggs=[("n_orders", "sum")],
    )


# -------------------------------------------------------------------------
# parts_never_returned_heavy — NOT EXISTS anti-join: parts with no returned
# ('R') lineitem of quantity > 45. Same bucketed union exchange as the
# semi-join above with the mask inverted; every part row rides the
# exchange exactly once, the probe side only as per-batch-distinct keys.
# -------------------------------------------------------------------------

def parts_never_returned_heavy(sf_dir: str) -> rd.Dataset:
    from .agg import tag_partition

    n_parts = _raw_parts(sf_dir, "part", "lineitem")
    part = _read(sf_dir, "part", ["p_partkey", "p_name"])
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_returnflag", "l_quantity"])

    def tag_part(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "__k": pc.cast(batch["p_partkey"], pa.int64()),
                "p_name": batch["p_name"],
                "__side": pa.array([0] * batch.num_rows, pa.int8()),
            }
        )
        return tag_partition(t, ["__k"], n_parts)

    def tag_li(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(batch["l_returnflag"], "R"),
            pc.greater(batch["l_quantity"], pa.scalar(45.0)),
        )
        keys = pc.unique(batch.filter(m)["l_partkey"])
        t = pa.table(
            {
                "__k": pc.cast(keys, pa.int64()),
                "p_name": pa.nulls(len(keys), pa.string()),
                "__side": pa.array([1] * len(keys), pa.int8()),
            }
        )
        return tag_partition(t, ["__k"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        probe = group.filter(pc.equal(group["__side"], 1))["__k"]
        left = group.filter(pc.equal(group["__side"], 0))
        miss = left.filter(
            pc.invert(pc.is_in(left["__k"], value_set=probe.combine_chunks()))
        )
        return pa.table({"p_partkey": miss["__k"], "p_name": miss["p_name"]})

    return (
        part.map_batches(tag_part, batch_format="pyarrow")
        .union(li.map_batches(tag_li, batch_format="pyarrow"))
        .groupby("__pp")
        .map_groups(combine, batch_format="pyarrow")
    )


# -------------------------------------------------------------------------
# cust_order_counts — distributed LEFT OUTER join: every customer row
# survives, customers with no orders emit n_orders = 0. The orders side is
# reduced to per-key partial counts BEFORE the join (two-phase aggregate),
# so the outer join's shuffle moves one tiny count row per active
# customer, never raw order rows; partitions scale with cluster size.
# Reference analog: the per-project document-count listing
# (/root/reference/backend/src/main.py:545-575) which LEFT-joins projects
# to their documents so empty projects still render.
# -------------------------------------------------------------------------

def cust_order_counts(
    sf_dir: str, broadcast_rows: int = 5_000_000
) -> rd.Dataset:
    import numpy as np
    import ray

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return partial_group_agg(t, keys=["o_custkey"], aggs=[("n", "sum")])

    counts = grouped_sum(
        orders, keys=["o_custkey"], partial=partial, sum_cols=["n"]
    )

    cust_rows = pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    if cust_rows <= broadcast_rows:
        # broadcast path: the reduced count table (≤ one row per customer)
        # is collected once and probed map-side — the LEFT OUTER semantics
        # fall out of the searchsorted miss -> 0
        cnt_t = collect(counts)
        if cnt_t is not None:
            cnt_t = cnt_t.sort_by("o_custkey")
            okeys = cnt_t["o_custkey"].to_numpy(zero_copy_only=False)
            ovals = cnt_t["n"].to_numpy(zero_copy_only=False)
        else:
            okeys = np.empty(0, dtype=np.int64)
            ovals = np.empty(0, dtype=np.int64)

        def probe(batch: pa.Table) -> pa.Table:
            k = batch["c_custkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(okeys, k)
            pos_c = np.minimum(pos, max(len(okeys) - 1, 0))
            hit = (okeys[pos_c] == k) if len(okeys) else np.zeros(len(k), bool)
            n = np.where(hit, ovals[pos_c] if len(okeys) else 0, 0)
            return pa.table(
                {
                    "c_custkey": pc.cast(batch["c_custkey"], pa.int64()),
                    "n_orders": pa.array(n, pa.int64()),
                }
            )

        return cust.map_batches(probe, batch_format="pyarrow")

    # scale path: native distributed left-outer join. Partition count is
    # sized so every partition holds millions of key rows — Ray's join
    # aggregator builds a schema-less table for a right partition that
    # received zero rows (crashes acero), which only tiny inputs can hit.
    rows = cust_rows + pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    cpus = int(ray.cluster_resources().get("CPU", 4))
    n_parts = max(8, min(2 * cpus, rows // 2_000_000 + 1))
    joined = cust.join(
        counts,
        join_type="left_outer",
        num_partitions=n_parts,
        on=("c_custkey",),
        right_on=("o_custkey",),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(batch["c_custkey"], pa.int64()),
                "n_orders": pc.fill_null(
                    pc.cast(batch["n"], pa.int64()), pa.scalar(0, pa.int64())
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


# -------------------------------------------------------------------------
# user_customer_reconcile — FULL OUTER join: the key universe is the UNION
# of event users and customer keys; event-less customers emit n_events=0,
# non-customer users emit is_customer=false. Events reduce to per-user
# counts before the join (two-phase aggregate), so the outer join moves
# one count row per active user. Small sides merge driver-side via one
# arrow full-outer join (both inputs already reduced + under the
# threshold); at scale the native distributed full_outer join runs with
# partitions sized so none can be empty (see cust_order_counts note).
# -------------------------------------------------------------------------

def user_customer_reconcile(
    sf_dir: str, broadcast_rows: int = 5_000_000
) -> pa.Table | rd.Dataset:
    import numpy as np
    import ray

    cust = _read(sf_dir, "customer", ["c_custkey"])
    events = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": pc.cast(batch["user_id"], pa.int64()),
                "n_events": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64)
                ),
            }
        )
        return partial_group_agg(t, keys=["key"], aggs=[("n_events", "sum")])

    counts = grouped_sum(
        events, keys=["key"], partial=partial, sum_cols=["n_events"]
    )

    cust_rows = pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    ev_rows = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    if cust_rows <= broadcast_rows and ev_rows <= broadcast_rows:
        cnt_t = collect(counts)
        if cnt_t is None:
            cnt_t = pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        cust_t = collect(cust)
        if cust_t is None:
            cust_t = pa.table({"c_custkey": pa.array([], pa.int64())})
        cust_t = cust_t.append_column(
            "__c", pa.array(np.ones(cust_t.num_rows, dtype=np.int8))
        )
        j = cnt_t.join(
            cust_t,
            keys=["key"],
            right_keys=["c_custkey"],
            join_type="full outer",
        )
        return pa.table(
            {
                "key": pc.cast(j["key"], pa.int64()),
                "n_events": pc.fill_null(
                    pc.cast(j["n_events"], pa.int64()),
                    pa.scalar(0, pa.int64()),
                ),
                "is_customer": pc.fill_null(
                    pc.equal(j["__c"], pa.scalar(1, pa.int8())), False
                ),
            }
        )

    cpus = int(ray.cluster_resources().get("CPU", 4))
    n_parts = max(8, min(2 * cpus, (cust_rows + ev_rows) // 2_000_000 + 1))

    def tag_cust(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(batch["c_custkey"], pa.int64()),
                "__c": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
            }
        )

    joined = counts.join(
        cust.map_batches(tag_cust, batch_format="pyarrow"),
        join_type="full_outer",
        num_partitions=n_parts,
        on=("key",),
        right_on=("c_custkey",),
    )

    def finish(batch: pa.Table) -> pa.Table:
        # Ray's join coalesces left/right key values into the left key
        # column and drops the right one
        return pa.table(
            {
                "key": pc.cast(batch["key"], pa.int64()),
                "n_events": pc.fill_null(
                    pc.cast(batch["n_events"], pa.int64()),
                    pa.scalar(0, pa.int64()),
                ),
                "is_customer": pc.fill_null(
                    pc.equal(batch["__c"], pa.scalar(1, pa.int8())), False
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


# -------------------------------------------------------------------------
# funnel_counts — 3-stage first-touch conversion funnel over the event
# stream (view -> click-after-first-view -> purchase-after-that-click).
# The sequential-pattern shape the reference's analytics tab approximates
# driver-side (/root/reference/backend/src/main.py:1291-1318 computes
# per-user breakdowns in Python over full result sets); here every user's
# events land in one hash bucket via ONE keyed exchange of the pruned
# (user_id, event_type, ts) columns, each bucket resolves its users in one
# vectorized reduceat pass, and only 3 integers per bucket reach the
# driver. Stage rule: strictly-later timestamps qualify (ties do not).
# -------------------------------------------------------------------------

def funnel_counts(sf_dir: str) -> pa.Table:
    import numpy as np

    from .agg import collect, tag_partition

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    n_parts = _raw_parts(sf_dir, "events")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["user_id"], n_parts)

    INF = np.int64(2**62)

    def combine(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "s1": pa.array([], pa.int64()),
                "s2": pa.array([], pa.int64()),
                "s3": pa.array([], pa.int64()),
            }
        )
        if group.num_columns == 0 or group.num_rows == 0:
            return empty
        t = group.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        et = np.asarray(t["event_type"].to_numpy(zero_copy_only=False))
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        runs = np.diff(np.concatenate([starts, [len(u)]]))
        # stage 1: first view per user
        tv = np.where(et == "view", ts, INF)
        t1 = np.minimum.reduceat(tv, starts)
        # stage 2: first click strictly after the user's first view
        tc = np.where((et == "click") & (ts > np.repeat(t1, runs)), ts, INF)
        t2 = np.minimum.reduceat(tc, starts)
        # stage 3: any purchase strictly after that click
        hit = (et == "purchase") & (ts > np.repeat(t2, runs))
        s3 = np.add.reduceat(hit.astype(np.int64), starts) > 0
        return pa.table(
            {
                "s1": pa.array([int((t1 < INF).sum())], pa.int64()),
                "s2": pa.array([int((t2 < INF).sum())], pa.int64()),
                "s3": pa.array([int(s3.sum())], pa.int64()),
            }
        )

    partials = collect(
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(combine, batch_format="pyarrow")
    )
    tot = [0, 0, 0]
    if partials is not None:
        for i, c in enumerate(("s1", "s2", "s3")):
            tot[i] = int(pc.sum(partials[c]).as_py() or 0)
    return pa.table(
        {
            "stage": pa.array(["1_view", "2_click", "3_purchase"], pa.string()),
            "users": pa.array(tot, pa.int64()),
        }
    )


# -------------------------------------------------------------------------
# events_tumbling — fixed 15-minute tumbling-window aggregate per event
# type: the canonical streaming-window shape (SURVEY §2.8) one step up from
# events_hourly's single-key truncation. Reference analog: the per-job
# time-bucketed metrics rollup (backend/src/main.py:943-951) generalized to
# (window, type) keys. Window id is integer epoch-microsecond floor
# division (exact; identical in the DuckDB oracle via make_timestamp), so
# no date_trunc/time_bucket origin ambiguity exists between the engines.
# -------------------------------------------------------------------------

_TUMBLE_US = 15 * 60 * 1_000_000  # 15-minute windows


def events_tumbling(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64())
        win = pc.multiply(
            pc.divide(us, pa.scalar(_TUMBLE_US, pa.int64())),
            pa.scalar(_TUMBLE_US, pa.int64()),
        )
        t = pa.table(
            {
                "window_start": pc.cast(win, pa.timestamp("us")),
                "event_type": batch["event_type"],
                "n_events": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_value_c": cents(batch["value"]),
            }
        )
        return partial_group_agg(
            t,
            keys=["window_start", "event_type"],
            aggs=[("n_events", "sum"), ("sum_value_c", "sum")],
        )

    return grouped_sum(
        ds,
        keys=["window_start", "event_type"],
        partial=partial,
        sum_cols=["n_events", "sum_value_c"],
    )


_HOP_US = 600_000_000  # 10-minute hop
_HOP_COUNT = 3  # 30-minute window = 3 hops


def events_hopping(sf_dir: str) -> rd.Dataset:
    """HOPPING (overlapping sliding) window aggregate — 30-minute windows
    advancing every 10 minutes, so each event contributes to exactly 3
    windows: the overlapping-window complement of ``events_tumbling``
    (its window assignment is the same integer epoch-us floor division,
    replicated per hop offset). Vectorized per batch: rows replicated
    k=0..2 with window_start = (us//HOP - k) * HOP, then the standard
    two-phase partial-combine exchange — the wire carries 3x
    window-cardinality partials, corpus-size-independent per key."""
    import numpy as np

    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        c = cents(batch["value"]).to_numpy(zero_copy_only=False)
        # pc.divide truncates toward zero, matching events_tumbling and the
        # DuckDB oracle's `//` for any epoch sign (numpy `//` floors, which
        # diverges for pre-1970 timestamps)
        base = pc.divide(
            pc.cast(batch["ts"], pa.int64()), pa.scalar(_HOP_US, pa.int64())
        ).to_numpy(zero_copy_only=False)
        ws = np.concatenate([(base - k) * _HOP_US for k in range(_HOP_COUNT)])
        t = pa.table(
            {
                "window_start": pc.cast(
                    pa.array(ws, pa.int64()), pa.timestamp("us")
                ),
                "n_events": pa.array(np.ones(len(ws), np.int64)),
                "sum_value_c": pa.array(np.tile(c, _HOP_COUNT), pa.int64()),
            }
        )
        return partial_group_agg(
            t,
            keys=["window_start"],
            aggs=[("n_events", "sum"), ("sum_value_c", "sum")],
        )

    return grouped_sum(
        ds,
        keys=["window_start"],
        partial=partial,
        sum_cols=["n_events", "sum_value_c"],
    )


def trade_degree_hist(
    sf_dir: str,
    min_qty: int = 50,
    broadcast_rows_limit: int = 2_000_000,
) -> pa.Table:
    """Degree HISTOGRAM of the high-volume customer-supplier trade graph
    (the graph-analytics profile step next to trade_components /
    host_pagerank): how many customers trade with exactly k distinct
    suppliers at quantity >= min_qty.

    Two plans, chosen by the measured size of the FILTERED lineitem side
    (one materialized pass, which both plans then read):

    - broadcast (<= broadcast_rows_limit filtered rows — the qty>=50
      filter is highly selective, ~2% of lineitem): the filtered
      (orderkey, supp) pairs are collected once, sorted, ``ray.put`` —
      every orders batch joins against the broadcast by searchsorted and
      emits batch-distinct (cust, supp) pairs into ONE cust-keyed
      exchange whose buckets compute exact degrees + histogram partials.
      This removes the orderkey exchange entirely (VERDICT r4 item 6: the
      former 2-exchange plan paid three sequential shuffle rounds of
      fixed overhead for a 12k-edge result).
    - exchange (fallback above the limit, the 100-TB posture): the
      trade_components orderkey-hash exchange builds per-bucket-distinct
      edges; a second exchange co-locates each CUSTOMER's edges (so a
      per-bucket distinct is globally distinct and degree is exact).

    Both plans produce identical tables (equality-tested in
    tests/test_range_rank_ops.py)."""
    import functools as _ft

    import numpy as np

    from .agg import collect, scaled_partitions, tag_partition

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_quantity"])
    n_parts = _raw_parts(sf_dir, "orders", "lineitem")

    def hist_partial(edges: pa.Table) -> pa.Table:
        """All edges of each cust co-located: distinct -> degree -> hist."""
        if edges.num_rows == 0 or "cust" not in edges.column_names:
            return pa.table(
                {
                    "degree": pa.array([], pa.int64()),
                    "n_customers": pa.array([], pa.int64()),
                }
            )
        g = edges.select(["cust", "supp"]).group_by(["cust", "supp"]).aggregate([])
        deg = g.group_by(["cust"]).aggregate([("supp", "count")])
        h = deg.select(["supp_count"]).group_by(["supp_count"]).aggregate(
            [("supp_count", "count")]
        )
        return pa.table(
            {
                "degree": pc.cast(h["supp_count"], pa.int64()),
                "n_customers": pc.cast(h["supp_count_count"], pa.int64()),
            }
        )

    def finish(parts: pa.Table | None) -> pa.Table:
        if parts is None:
            return pa.table(
                {
                    "degree": pa.array([], pa.int64()),
                    "n_customers": pa.array([], pa.int64()),
                }
            )
        out = parts.group_by(["degree"]).aggregate([("n_customers", "sum")])
        out = out.rename_columns(["degree", "n_customers"])
        return out.sort_by([("degree", "ascending")])

    def hi_pairs(batch: pa.Table) -> pa.Table:
        hi = batch.filter(pc.greater_equal(batch["l_quantity"], min_qty))
        return pa.table(
            {
                "k": pc.cast(hi["l_orderkey"], pa.int64()),
                "supp": pc.cast(hi["l_suppkey"], pa.int64()),
            }
        )

    # one scan of lineitem: the filtered pairs are materialized, counted
    # from block metadata, and read by whichever plan the count picks
    hi_ds = lineitem.map_batches(hi_pairs, batch_format="pyarrow").materialize()
    n_hi = hi_ds.count()
    if n_hi <= broadcast_rows_limit:
        import ray

        ht = collect(hi_ds)
        if ht is None:
            return finish(None)
        k = ht["k"].to_numpy(zero_copy_only=False)
        s = ht["supp"].to_numpy(zero_copy_only=False)
        order_idx = np.argsort(k, kind="stable")
        ref = ray.put((k[order_idx], s[order_idx]))
        edge_parts = scaled_partitions(n_hi)

        def pairs(batch: pa.Table) -> pa.Table:
            k_s, s_s = ray.get(ref)
            ok = pc.cast(batch["o_orderkey"], pa.int64()).to_numpy(
                zero_copy_only=False
            )
            oc = pc.cast(batch["o_custkey"], pa.int64()).to_numpy(
                zero_copy_only=False
            )
            lo = np.searchsorted(k_s, ok, side="left")
            hi = np.searchsorted(k_s, ok, side="right")
            ln = hi - lo
            sel = ln > 0
            lo, ln, oc = lo[sel], ln[sel], oc[sel]
            total = int(ln.sum())
            starts = np.cumsum(ln) - ln
            pos = (
                np.repeat(lo, ln) + np.arange(total, dtype=np.int64)
                - np.repeat(starts, ln)
            )
            t = pa.table(
                {
                    "cust": pa.array(np.repeat(oc, ln), pa.int64()),
                    "supp": pa.array(s_s[pos], pa.int64()),
                }
            )
            # batch-local dedup: the exchange carries distinct pairs only
            t = t.group_by(["cust", "supp"]).aggregate([])
            return tag_partition(t, ["cust"], edge_parts)

        parts = collect(
            orders.map_batches(pairs, batch_format="pyarrow")
            .groupby("__pp")
            .map_groups(hist_partial, batch_format="pyarrow")
        )
        return finish(parts)

    def tag_o(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": pc.cast(batch["o_orderkey"], pa.int64()),
                "v": pc.cast(batch["o_custkey"], pa.int64()),
                "kind": pa.array([0] * batch.num_rows, pa.int8()),
            }
        )

    def tag_l(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": batch["k"],
                "v": batch["supp"],
                "kind": pa.array([1] * batch.num_rows, pa.int8()),
            }
        )

    def add_pp(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["k"], n_parts)

    tagged = (
        orders.map_batches(tag_o, batch_format="pyarrow")
        .union(hi_ds.map_batches(tag_l, batch_format="pyarrow"))
        .map_batches(add_pp, batch_format="pyarrow")
    )

    def edges_of(group: pa.Table) -> pa.Table:
        kind = group["kind"]
        li = group.filter(pc.equal(kind, 1))
        if li.num_rows == 0:
            return pa.table(
                {"cust": pa.array([], pa.int64()), "supp": pa.array([], pa.int64())}
            )
        od = group.filter(pc.equal(kind, 0)).sort_by([("k", "ascending")])
        ok = od["k"].to_numpy(zero_copy_only=False)
        oc = od["v"].to_numpy(zero_copy_only=False)
        lk = li["k"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(ok, lk), max(len(ok) - 1, 0))
        if len(ok) == 0 or not np.array_equal(ok[pos], lk):
            raise ValueError(
                "trade_degree_hist: lineitem references missing orderkey"
            )
        t = pa.table({"cust": pa.array(oc[pos], pa.int64()), "supp": li["v"]})
        return t.group_by(["cust", "supp"]).aggregate([])

    edges = tagged.groupby("__pp").map_groups(edges_of, batch_format="pyarrow")

    parts = collect(
        edges.map_batches(
            _ft.partial(tag_partition, keys=["cust"]), batch_format="pyarrow"
        )
        .groupby("__pp")
        .map_groups(hist_partial, batch_format="pyarrow")
    )
    return finish(parts)


# -------------------------------------------------------------------------
# user_last3_sum — ROWS-frame sliding window (2 PRECEDING .. CURRENT ROW)
# per user ordered by (ts, event_id): the row-count-frame complement of
# user_rolling_window's RANGE interval frame. One keyed exchange of raw
# event rows hash-bucketed by user (scaled partition count), then every
# user in the bucket in one vectorized pass: positions within each sorted
# user run give the frame start directly (lo = i - min(pos, 2)), and the
# frame sum is a prefix-sum difference on exact int64 cents.
# -------------------------------------------------------------------------


def user_last3_sum(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    n_parts = _raw_parts(sf_dir, "events")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["user_id"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("user_id", "ascending"),
                ("ts", "ascending"),
                ("event_id", "ascending"),
            ]
        )
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "w3_count": pa.array([], pa.int64()),
                    "w3_sum_c": pa.array([], pa.int64()),
                }
            )
        u = t["user_id"].to_numpy(zero_copy_only=False)
        v_c = cents(t["value"]).to_numpy(zero_copy_only=False)
        i = np.arange(n, dtype=np.int64)
        # index of each row's user-run start: maximum.accumulate of the
        # boundary positions
        is_start = np.concatenate([[True], u[1:] != u[:-1]])
        run_start = np.maximum.accumulate(np.where(is_start, i, 0))
        pos = i - run_start
        lo = i - np.minimum(pos, 2)
        cum = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(v_c)])
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": t["ts"],
                "w3_count": pa.array(i + 1 - lo, pa.int64()),
                "w3_sum_c": pa.array(cum[i + 1] - cum[lo], pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(combine, batch_format="pyarrow")
    )


# -------------------------------------------------------------------------
# orders_events_window — RANGE JOIN + per-left aggregate: for every order,
# the count and exact-cents sum of the matching user's events with
# ts in [o_orderdate, o_orderdate + 7 days). The reference has no interval
# joins (SURVEY §2.4: "no range/as-of joins") — like orders_asof this is a
# custom-operator composition: tag-union both tables into ONE dataset keyed
# by the join key (user_id = o_custkey), ONE hash exchange, and a fully
# vectorized interval probe inside map_groups: both window bounds are
# searchsorted probes on a composite key_rank * OFFSET + relative_ts axis
# (OFFSET > ts span + window, so a window can never straddle two keys), and
# the windowed sum is a prefix-sum difference on int64 cents. LEFT
# semantics: orders with no events in window emit count 0 / sum 0.
# Partitioning assumption: one hash bucket of rows fits a worker
# (n_parts scaled to the two tables via _raw_parts).
# -------------------------------------------------------------------------

_RANGE_WINDOW_US = 7 * 24 * 3_600_000_000  # 7 days


def orders_events_window(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    events = _read(sf_dir, "events", ["user_id", "ts", "value"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])
    n_parts = _raw_parts(sf_dir, "events", "orders")

    def tag_events(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": pc.cast(batch["user_id"], pa.int64()),
                "t": batch["ts"],
                "kind": pa.array([1] * n, pa.int8()),
                "v_c": cents(batch["value"]),
                "o_orderkey": pa.nulls(n, pa.int64()),
            }
        )

    def tag_orders(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": pc.cast(batch["o_custkey"], pa.int64()),
                "t": batch["o_orderdate"],
                "kind": pa.array([0] * n, pa.int8()),
                "v_c": pa.nulls(n, pa.int64()),
                "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
            }
        )

    def add_pp(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["key"], n_parts)

    tagged = (
        events.map_batches(tag_events, batch_format="pyarrow")
        .union(orders.map_batches(tag_orders, batch_format="pyarrow"))
        .map_batches(add_pp, batch_format="pyarrow")
    )

    def combine(group: pa.Table) -> pa.Table:
        kind = group["kind"]
        od = group.filter(pc.equal(kind, 0)).sort_by(
            [("key", "ascending"), ("t", "ascending"), ("o_orderkey", "ascending")]
        )
        empty = pa.table(
            {
                "o_orderkey": pa.array([], pa.int64()),
                "o_custkey": pa.array([], pa.int64()),
                "o_orderdate": pa.array([], pa.timestamp("us")),
                "n_events": pa.array([], pa.int64()),
                "sum_value_c": pa.array([], pa.int64()),
            }
        )
        if od.num_rows == 0:
            return empty
        ev = group.filter(pc.equal(kind, 1)).sort_by(
            [("key", "ascending"), ("t", "ascending")]
        )
        o_key = od["key"].to_numpy(zero_copy_only=False)
        o_ts = pc.cast(od["t"], pa.int64()).to_numpy(zero_copy_only=False)
        n_o = len(o_key)
        if ev.num_rows:
            e_key = ev["key"].to_numpy(zero_copy_only=False)
            e_ts = pc.cast(ev["t"], pa.int64()).to_numpy(zero_copy_only=False)
            e_vc = ev["v_c"].to_numpy(zero_copy_only=False)
            uniq = np.unique(np.concatenate([e_key, o_key]))
            e_r = np.searchsorted(uniq, e_key)
            o_r = np.searchsorted(uniq, o_key)
            t_min = min(int(e_ts.min()), int(o_ts.min()))
            t_max = max(int(e_ts.max()), int(o_ts.max()))
            offset = (t_max - t_min) + _RANGE_WINDOW_US + 2
            cum = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(e_vc)])
            if len(uniq) * offset < 1 << 62:
                e_comp = e_r * np.int64(offset) + (e_ts - t_min)
                base = o_r * np.int64(offset) + (o_ts - t_min)
                lo = np.searchsorted(e_comp, base, side="left")
                hi = np.searchsorted(e_comp, base + _RANGE_WINDOW_US, side="left")
            else:  # composite would overflow int64: per-key-run fallback
                lo = np.zeros(n_o, dtype=np.int64)
                hi = np.zeros(n_o, dtype=np.int64)
                for k in range(len(uniq)):
                    os_ = np.searchsorted(o_r, k, side="left")
                    oe = np.searchsorted(o_r, k, side="right")
                    if oe == os_:
                        continue
                    es = np.searchsorted(e_r, k, side="left")
                    ee = np.searchsorted(e_r, k, side="right")
                    lo[os_:oe] = es + np.searchsorted(
                        e_ts[es:ee], o_ts[os_:oe], side="left"
                    )
                    hi[os_:oe] = es + np.searchsorted(
                        e_ts[es:ee], o_ts[os_:oe] + _RANGE_WINDOW_US, side="left"
                    )
            n_events = hi - lo
            sum_c = cum[hi] - cum[lo]
        else:
            n_events = np.zeros(n_o, dtype=np.int64)
            sum_c = np.zeros(n_o, dtype=np.int64)
        return pa.table(
            {
                "o_orderkey": od["o_orderkey"],
                "o_custkey": od["key"],
                "o_orderdate": od["t"],
                "n_events": pa.array(n_events, pa.int64()),
                "sum_value_c": pa.array(sum_c, pa.int64()),
            }
        )

    return tagged.groupby("__pp").map_groups(combine, batch_format="pyarrow")


# -------------------------------------------------------------------------
# order_ntile — NTILE(10) distributed global rank: every order assigned to
# a decile of the global (totalprice-cents, orderkey) order. No reference
# analog (SURVEY §2.6 covers ORDER BY/LIMIT only) — this is the "global
# rank without a global sort bottleneck" composition: (1) exact cents
# min/max from parquet row-group stats (metadata only), (2) one streaming
# pass of per-value-range-bin counts -> exclusive base offsets on the
# driver (n_parts ints), (3) order-preserving bin exchange where each bin
# sorts locally and adds its base offset = exact global rank, then NTILE
# arithmetic (first n%K tiles one row larger — SQL NTILE semantics) per
# row. Bins are uniform over the cents range — at corpus scale with skewed
# value distributions the splits would come from a sample quantile sketch
# instead, same two-pass shape.
# -------------------------------------------------------------------------


def _order_global_rank(sf_dir: str, finalize) -> rd.Dataset:
    """Shared two-pass exact-global-rank machinery (see order_ntile doc
    comment above): ``finalize(r, n_total)`` maps the 0-based global rank
    array of one bin to the output column ``(name, pa.Array)``."""
    import numpy as np

    from .agg import partial_group_agg, scaled_partitions

    path = f"{sf_dir}/orders.parquet"
    md = pq.read_metadata(path)
    n_rows = md.num_rows
    n_parts = scaled_partitions(n_rows)

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    # exact cents bounds from row-group float stats (metadata only; round
    # matches cents()); files written without column statistics fall back
    # to one distributed min/max pass
    def _rg_stats(i: int):
        rg = md.row_group(i)
        col = next(
            rg.column(j)
            for j in range(rg.num_columns)
            if rg.column(j).path_in_schema == "o_totalprice"
        )
        s = col.statistics
        return s if s is not None and s.has_min_max else None

    stats = [_rg_stats(i) for i in range(md.num_row_groups)]
    if all(s is not None for s in stats):
        f_min = min(s.min for s in stats)
        f_max = max(s.max for s in stats)
    else:
        f_min = ds.min("o_totalprice")
        f_max = ds.max("o_totalprice")
    c_min = int(np.floor(f_min * 100)) - 1
    c_max = int(np.ceil(f_max * 100)) + 1
    span = c_max - c_min + 1

    def bin_of(c: "np.ndarray") -> "np.ndarray":
        return (c - c_min) * n_parts // span

    def bin_partial(batch: pa.Table) -> pa.Table:
        c = cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "b": pa.array(bin_of(c)),
                "n": pa.array(np.ones(len(c), dtype=np.int64)),
            }
        )
        return partial_group_agg(t, keys=["b"], aggs=[("n", "sum")])

    totals = (
        ds.map_batches(bin_partial, batch_format="pyarrow")
        .groupby("b")
        .sum("n")
        .to_pandas()
    )
    per_bin = np.zeros(n_parts, dtype=np.int64)
    per_bin[totals["b"].to_numpy()] = totals["sum(n)"].to_numpy()
    base = np.zeros(n_parts + 1, dtype=np.int64)
    np.cumsum(per_bin, out=base[1:])
    n_total = int(base[-1])

    def tag(batch: pa.Table) -> pa.Table:
        c = cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "c": pa.array(c, pa.int64()),
                "__pp": pa.array(bin_of(c)),
            }
        )

    def rank(group: pa.Table) -> pa.Table:
        t = group.sort_by([("c", "ascending"), ("o_orderkey", "ascending")])
        b = int(t["__pp"][0].as_py())
        r = base[b] + np.arange(t.num_rows, dtype=np.int64)
        name, col = finalize(r, n_total)
        return pa.table({"o_orderkey": t["o_orderkey"], name: col})

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(rank, batch_format="pyarrow")
    )


def order_ntile(sf_dir: str, k: int = 10) -> rd.Dataset:
    import numpy as np

    def finalize(r, n_total):
        q, rem = divmod(n_total, k)
        big = rem * (q + 1)
        tile = np.where(r < big, r // max(q + 1, 1), rem + (r - big) // max(q, 1))
        return "tile", pa.array(tile + 1, pa.int64())

    return _order_global_rank(sf_dir, finalize)


def order_percent_rank(sf_dir: str) -> rd.Dataset:
    """PERCENT_RANK over the same global (cents, orderkey) order: the
    unique total order makes RANK == ROW_NUMBER, so the value is exactly
    (rank-1)/(n-1) — one float64 division of exact ints, bit-identical to
    the SQL window function."""
    import numpy as np

    def finalize(r, n_total):
        denom = max(n_total - 1, 1)
        return "pct_rank", pa.array(r.astype(np.float64) / denom, pa.float64())

    return _order_global_rank(sf_dir, finalize)


# -------------------------------------------------------------------------
# user_event_path — per-key ordered collect: the '>'-joined sequence of
# each user's FIRST five event types in (ts, event_id) order. The
# reference's closest surface is the per-job ordered page list
# (backend/src/main.py:1135-1156); this is its keyed-sequence analog. One
# hash exchange of (user, type, ts) rows; inside a group everything is
# vectorized: run-position via maximum.accumulate, the first-5 restriction
# is a positional mask, and the join itself is a single
# binary_join_element_wise over 5 rank-scattered columns with null-skip —
# no per-key Python, so millions of users cost one arrow kernel each
# per bucket.
# -------------------------------------------------------------------------


def user_event_path(sf_dir: str, k: int = 5) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    n_parts = _raw_parts(sf_dir, "events")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["user_id"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "path5": pa.array([], pa.string()),
                }
            )
        u = t["user_id"].to_numpy(zero_copy_only=False)
        i = np.arange(n, dtype=np.int64)
        is_start = np.concatenate([[True], u[1:] != u[:-1]])
        run_start = np.maximum.accumulate(np.where(is_start, i, 0))
        pos = i - run_start
        starts = i[is_start]  # first row index of each user run
        et = t["event_type"]
        # rank-scatter: column j holds the user's j-th event type (or null)
        cols = []
        for j in range(k):
            sel = pos == j
            idx = np.full(len(starts), -1, dtype=np.int64)
            # row index of rank-j per run: starts + j where the run is long
            # enough (pos==j at starts+j by construction)
            has = sel[np.minimum(starts + j, n - 1)] & (starts + j < n)
            idx[has] = starts[has] + j
            taken = et.take(pa.array(np.where(idx < 0, 0, idx)))
            cols.append(
                pc.if_else(pa.array(idx >= 0), taken, pa.nulls(len(starts), pa.string()))
            )
        path = pc.binary_join_element_wise(*cols, ">", null_handling="skip")
        return pa.table(
            {
                "user_id": pa.array(u[is_start], pa.int64()),
                "path5": path,
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(combine, batch_format="pyarrow")
    )


# -------------------------------------------------------------------------
# event_transitions — sequence mining: global counts of consecutive
# (prev_type -> next_type) transitions within each user's (ts, event_id)
# ordered stream. The per-user adjacency is computed with ONE hash
# exchange (groupby user bucket) and a vectorized shift inside the group
# (run starts masked out, so pairs never cross users), then the tiny
# (type x type) partial counts reduce through the standard
# partial-then-combine aggregate — the second exchange moves at most
# |types|^2 rows per bucket regardless of corpus size.
# -------------------------------------------------------------------------


def event_transitions(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    n_parts = _raw_parts(sf_dir, "events")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["user_id"], n_parts)

    def pairs(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        empty = pa.table(
            {
                "prev_type": pa.array([], pa.string()),
                "next_type": pa.array([], pa.string()),
                "n_pairs": pa.array([], pa.int64()),
            }
        )
        if n < 2:
            return empty
        u = t["user_id"].to_numpy(zero_copy_only=False)
        same = u[1:] == u[:-1]  # row i-1 -> i is a within-user transition
        if not same.any():
            return empty
        idx = np.nonzero(same)[0] + 1
        et = t["event_type"]
        pt = pa.table(
            {
                "prev_type": et.take(pa.array(idx - 1)),
                "next_type": et.take(pa.array(idx)),
                "n_pairs": pa.array(np.ones(len(idx), dtype=np.int64)),
            }
        )
        return partial_group_agg(
            pt, keys=["prev_type", "next_type"], aggs=[("n_pairs", "sum")]
        )

    partials = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(pairs, batch_format="pyarrow")
    )
    return grouped_sum(
        partials,
        keys=["prev_type", "next_type"],
        partial=lambda b: b,
        sum_cols=["n_pairs"],
    )


# -------------------------------------------------------------------------
# user_retention — cohort retention matrix: users grouped by their FIRST
# event day (cohort), counted per whole-day offset at which they were
# active again. Classic product-analytics rollup the reference's event
# endpoints (SURVEY §2.5 per-user breakdowns) never reach. ONE hash
# exchange by user: inside a group each user's first day and distinct
# active-day offsets are vectorized (sorted runs + np.unique on packed
# day|offset), emitting one partial row per (cohort_day, day_offset,
# bucket) — the distinct-per-user dedup happens where the user's rows are
# co-located, so the final combine only sums tiny partials.
# -------------------------------------------------------------------------

_DAY_US = 86_400_000_000


def user_retention(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    n_parts = _raw_parts(sf_dir, "events")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["user_id"], n_parts)

    def partial(group: pa.Table) -> pa.Table:
        t = group.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "cohort_day": pa.array([], pa.timestamp("us")),
                    "day_offset": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                }
            )
        u = t["user_id"].to_numpy(zero_copy_only=False)
        day = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False) // _DAY_US
        i = np.arange(n, dtype=np.int64)
        is_start = np.concatenate([[True], u[1:] != u[:-1]])
        run_start = np.maximum.accumulate(np.where(is_start, i, 0))
        first_day = day[run_start]  # per-row: its user's cohort day
        offset = day - first_day
        # distinct (user, offset): pack into one int64 axis per user run
        packed = run_start * np.int64(1 << 20) + offset  # offsets < 2^20 days
        uniq = np.unique(packed)
        rs = (uniq // (1 << 20)).astype(np.int64)  # run-start row index
        cohort = day[rs]
        off = (uniq % (1 << 20)).astype(np.int64)
        pt = pa.table(
            {
                "cohort_day": pa.array(cohort * _DAY_US, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "day_offset": pa.array(off, pa.int64()),
                "n_users": pa.array(np.ones(len(off), dtype=np.int64)),
            }
        )
        return partial_group_agg(
            pt, keys=["cohort_day", "day_offset"], aggs=[("n_users", "sum")]
        )

    partials = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(partial, batch_format="pyarrow")
    )
    return grouped_sum(
        partials,
        keys=["cohort_day", "day_offset"],
        partial=lambda b: b,
        sum_cols=["n_users"],
    )


# -------------------------------------------------------------------------
# trade_components — distributed CONNECTED COMPONENTS via min-label
# propagation over the high-volume trade graph: customer and supplier
# nodes, an edge where some max-quantity (l_quantity >= 50) lineitem of
# the customer's order was filled by the supplier. Two stages:
# (1) distributed edge build — lineitem and orders tag-union into ONE
# hash exchange keyed by orderkey; inside a bucket suppkeys map to the
# order's custkey by searchsorted and (cust, supp) pairs dedup per bucket
# before the (tiny) global distinct; (2) the iterative fixpoint in the
# host_pagerank shape (links.py:118): the deduped edge list is
# materialized ONCE and stays distributed; per iteration the label
# vectors broadcast via ray.put, each batch emits per-node min-label
# partials reduced by arrow group_by, and the driver folds
# node-cardinality minima until no label changes. Partitioning
# assumption, stated per the task brief: the NODE vector (customers +
# suppliers — not orders or lineitems) fits driver/object-store memory,
# exactly the host-vector assumption of host_pagerank; beyond ~10^7
# nodes labels must become a keyed Dataset and each round a hash join.
# -------------------------------------------------------------------------


def trade_components(sf_dir: str, min_qty: int = 50, max_iters: int = 64) -> pa.Table:
    import functools as _ft

    import numpy as np
    import ray

    from .agg import collect, tag_partition

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_quantity"])
    n_parts = _raw_parts(sf_dir, "orders", "lineitem")

    def tag_o(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": pc.cast(batch["o_orderkey"], pa.int64()),
                "v": pc.cast(batch["o_custkey"], pa.int64()),
                "kind": pa.array([0] * batch.num_rows, pa.int8()),
            }
        )

    def tag_l(batch: pa.Table) -> pa.Table:
        hi = batch.filter(pc.greater_equal(batch["l_quantity"], min_qty))
        return pa.table(
            {
                "k": pc.cast(hi["l_orderkey"], pa.int64()),
                "v": pc.cast(hi["l_suppkey"], pa.int64()),
                "kind": pa.array([1] * hi.num_rows, pa.int8()),
            }
        )

    def add_pp(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["k"], n_parts)

    tagged = (
        orders.map_batches(tag_o, batch_format="pyarrow")
        .union(lineitem.map_batches(tag_l, batch_format="pyarrow"))
        .map_batches(add_pp, batch_format="pyarrow")
    )

    def edges_of(group: pa.Table) -> pa.Table:
        kind = group["kind"]
        li = group.filter(pc.equal(kind, 1))
        empty = pa.table(
            {"cust": pa.array([], pa.int64()), "supp": pa.array([], pa.int64())}
        )
        if li.num_rows == 0:
            return empty
        od = group.filter(pc.equal(kind, 0)).sort_by([("k", "ascending")])
        ok = od["k"].to_numpy(zero_copy_only=False)
        oc = od["v"].to_numpy(zero_copy_only=False)
        lk = li["k"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(ok, lk), max(len(ok) - 1, 0))
        # orderkeys are unique and every lineitem's order hashes to this
        # bucket — but an ORPHAN lineitem (l_orderkey absent from orders)
        # would silently join to the wrong customer: fail loud instead
        # (validate_refs exists to find such rows first)
        if len(ok) == 0 or not np.array_equal(ok[pos], lk):
            raise ValueError(
                "trade_components: lineitem references missing orderkey"
            )
        t = pa.table(
            {
                "cust": pa.array(oc[pos], pa.int64()),
                "supp": li["v"],
            }
        )
        return t.group_by(["cust", "supp"]).aggregate([])

    edges = (
        tagged.groupby("__pp")
        .map_groups(edges_of, batch_format="pyarrow")
        .materialize()
    )
    # the deduped edge list is far smaller than the raw exchange's
    # n_parts blocks — coalesce so each label-propagation round runs a
    # handful of tasks, not 256 near-empty ones (measured 12.4s -> ~4s at
    # sf0.1); block count still scales with edge cardinality
    n_edges = edges.count()
    edges = edges.repartition(max(8, n_edges // 1_000_000)).materialize()

    custs = np.sort(
        pc.cast(
            collect(_read(sf_dir, "customer", ["c_custkey"]))["c_custkey"],
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
    )
    supps = np.sort(
        pc.cast(
            collect(_read(sf_dir, "supplier", ["s_suppkey"]))["s_suppkey"],
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
    )
    lab_c = custs.copy()  # min customer key reachable; suppliers start at +inf
    lab_s = np.full(len(supps), np.iinfo(np.int64).max, dtype=np.int64)

    if n_edges <= 2_000_000:
        # small deduped edge list: run the bipartite min-label rounds
        # driver-local (pure numpy) instead of a Ray stage launch per
        # round — same fixpoint, same fail-loud convergence guard (see
        # cc._LOCAL_EDGE_LIMIT for the threshold rationale)
        et = collect(edges)
        ci = np.searchsorted(custs, et["cust"].to_numpy(zero_copy_only=False))
        si = np.searchsorted(supps, et["supp"].to_numpy(zero_copy_only=False))
        for _ in range(max_iters):
            new_c, new_s = lab_c.copy(), lab_s.copy()
            np.minimum.at(new_c, ci, lab_s[si])
            np.minimum.at(new_s, si, lab_c[ci])
            if np.array_equal(new_c, lab_c) and np.array_equal(new_s, lab_s):
                return pa.table(
                    {
                        "c_custkey": pa.array(custs, pa.int64()),
                        "component": pa.array(lab_c, pa.int64()),
                    }
                )
            lab_c, lab_s = new_c, new_s
        raise RuntimeError(
            f"trade_components: no fixpoint after {max_iters} rounds "
            "(graph diameter exceeds max_iters — raise it)"
        )

    def min_partial(batch: pa.Table, ref) -> pa.Table:
        lc, ls, ck, sk = ray.get(ref)
        c = batch["cust"].to_numpy(zero_copy_only=False)
        s = batch["supp"].to_numpy(zero_copy_only=False)
        ci = np.searchsorted(ck, c)
        si = np.searchsorted(sk, s)
        t = pa.table(
            {
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(len(c), np.int8), np.ones(len(s), np.int8)]
                    )
                ),
                "i": pa.array(np.concatenate([ci, si]), pa.int64()),
                "lab": pa.array(np.concatenate([ls[si], lc[ci]]), pa.int64()),
            }
        )
        return t.group_by(["side", "i"]).aggregate([("lab", "min")])

    converged = False
    for _ in range(max_iters):
        ref = ray.put((lab_c, lab_s, custs, supps))
        parts = collect(
            edges.map_batches(
                _ft.partial(min_partial, ref=ref), batch_format="pyarrow"
            )
        )
        if parts is None:
            converged = True
            break
        side = parts["side"].to_numpy(zero_copy_only=False)
        i = parts["i"].to_numpy(zero_copy_only=False)
        lab = parts["lab_min"].to_numpy(zero_copy_only=False)
        new_c, new_s = lab_c.copy(), lab_s.copy()
        np.minimum.at(new_c, i[side == 0], lab[side == 0])
        np.minimum.at(new_s, i[side == 1], lab[side == 1])
        if np.array_equal(new_c, lab_c) and np.array_equal(new_s, lab_s):
            converged = True
            break
        lab_c, lab_s = new_c, new_s
    if not converged:
        # label propagation needs ~component-diameter rounds; a silently
        # truncated fixpoint would return WRONG components
        raise RuntimeError(
            f"trade_components: no fixpoint after {max_iters} rounds "
            "(graph diameter exceeds max_iters — raise it)"
        )

    return pa.table(
        {
            "c_custkey": pa.array(custs, pa.int64()),
            "component": pa.array(lab_c, pa.int64()),
        }
    )


# -------------------------------------------------------------------------
# pareto_orders — SKYLINE (dominance) query: orders not dominated on the
# (totalprice, orderdate) plane — another order dominates if it is >= on
# both axes and > on at least one. A dominance query is its own operator
# family (no groupby/sort composition computes it); the distributed plan
# exploits the skyline's combine property: every globally dominated row is
# dominated by SOME row that survives its own batch's local skyline
# (dominance is transitive and the order finite), so
# map_batches(local skyline) -> skyline of the union is exact. Local
# skylines of web-scale batches are tiny (O(log n) expected on
# independent axes), so the final combine sees #batches x |skyline| rows.
# Dominance compares exact int64 cents (ties on both axes survive
# together — neither dominates). Vectorized per batch: sort by cents
# desc, per-cents-group max date via reduceat, strict-prefix running max.
# -------------------------------------------------------------------------


def _skyline_2d(p: "object", d: "object", keys: "object"):
    """Indices of the (p, d) skyline: no other point is >= on both and >
    on one. Vectorized: one sort + segment maxima."""
    import numpy as np

    order = np.lexsort((keys, -d, -p))  # p desc, d desc, key asc
    ps, ds = p[order], d[order]
    starts = np.concatenate([[0], np.nonzero(ps[1:] != ps[:-1])[0] + 1])
    gmax = np.maximum.reduceat(ds, starts)  # max d per equal-p group
    # strict-prefix max of group maxima (groups of strictly higher p)
    prev = np.concatenate([[np.iinfo(np.int64).min], np.maximum.accumulate(gmax)[:-1]])
    gid = np.searchsorted(starts, np.arange(len(ps)), side="right") - 1
    keep = (ds == gmax[gid]) & (ds > prev[gid])
    return order[keep]


def pareto_orders(sf_dir: str) -> pa.Table:
    import numpy as np

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def local(batch: pa.Table) -> pa.Table:
        p = cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        d = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        idx = _skyline_2d(p, d, k)
        return pa.table(
            {
                "o_orderkey": pa.array(k[idx], pa.int64()),
                "price_c": pa.array(p[idx], pa.int64()),
                "o_orderdate": batch["o_orderdate"].take(pa.array(idx)),
            }
        )

    cand = collect(ds.map_batches(local, batch_format="pyarrow"))
    if cand is None or cand.num_rows == 0:
        return pa.table(
            {
                "o_orderkey": pa.array([], pa.int64()),
                "price_c": pa.array([], pa.int64()),
                "o_orderdate": pa.array([], pa.timestamp("us")),
            }
        )
    p = cand["price_c"].to_numpy(zero_copy_only=False)
    d = pc.cast(cand["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
    k = cand["o_orderkey"].to_numpy(zero_copy_only=False)
    idx = np.sort(_skyline_2d(p, d, k))
    return cand.take(pa.array(idx))


# -------------------------------------------------------------------------
# fuzzy_name_pairs — FUZZY JOIN (data cleaning): pairs of same-nation
# customers whose names are within Levenshtein distance 1. The scalable
# plan is deletion-neighborhood blocking (Mann & al.'s 1-deletion
# signatures): two strings within distance 1 — equal, one substitution,
# one insert/delete — always share at least one member of
# {s} U {s minus position i}, so each row emits len(s)+1 signature keys
# (built VECTORIZED: per position one pandas slice-concat pass over the
# whole column), ONE hash exchange on (nation, signature) co-locates all
# candidates, tiny signature groups emit candidate pairs, and an exact
# early-exit distance-<=1 check verifies them (candidates are rare and
# already co-located — the verify loop touches only candidate pairs,
# never the cross product). Verified pairs dedup via one arrow group_by.
# Scale note: the exchange moves ~(len+1) x rows signature rows (8-byte
# md5-half keys), linear in the corpus; the all-pairs product never
# materializes.
# -------------------------------------------------------------------------


def _lev_le1(a: str, b: str) -> bool:
    """Exact Levenshtein(a, b) <= 1 via two-pointer early exit."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # lb == la + 1: b must equal a with one char inserted
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def fuzzy_name_pairs(sf_dir: str) -> pa.Table:
    import hashlib

    import numpy as np
    import pandas as pd

    from .agg import tag_partition

    ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_name"])
    n_parts = _raw_parts(sf_dir, "customer")

    def signatures(batch: pa.Table) -> pa.Table:
        s = batch["c_name"].to_pandas()
        key = batch["c_custkey"].to_numpy(zero_copy_only=False)
        nat = pc.cast(batch["c_nationkey"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        max_len = int(s.str.len().max()) if len(s) else 0
        sig_parts, idx_parts = [], []
        # the identity signature, then one vectorized pass per deletion pos
        sig_parts.append(s)
        idx_parts.append(np.arange(len(s)))
        for i in range(max_len):
            has = s.str.len() > i
            if not has.any():
                break
            sub = s[has]
            sig_parts.append(sub.str.slice(0, i) + sub.str.slice(i + 1))
            idx_parts.append(np.nonzero(has.to_numpy())[0])
        sig = pd.concat(sig_parts, ignore_index=True)
        idx = np.concatenate(idx_parts)
        return pa.table(
            {
                "sig": pa.array(sig, pa.string()),
                "nat": pa.array(nat[idx], pa.int64()),
                "k": pa.array(key[idx], pa.int64()),
                "name": pa.array(np.asarray(s, dtype=object)[idx], pa.string()),
            }
        )

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["nat", "sig"], n_parts)

    def pairs(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("nat", "ascending"), ("sig", "ascending"), ("k", "ascending")]
        )
        empty = pa.table(
            {"k1": pa.array([], pa.int64()), "k2": pa.array([], pa.int64())}
        )
        n = t.num_rows
        if n < 2:
            return empty
        import numpy as np

        nat = t["nat"].to_numpy(zero_copy_only=False)
        sig = t["sig"].to_pylist()
        k = t["k"].to_numpy(zero_copy_only=False)
        names = t["name"].to_pylist()
        out1, out2 = [], []
        seen: set = set()
        start = 0
        for i in range(1, n + 1):
            if i == n or nat[i] != nat[start] or sig[i] != sig[start]:
                for a in range(start, i):
                    for b in range(a + 1, i):
                        if k[a] == k[b]:
                            continue
                        p = (k[a], k[b]) if k[a] < k[b] else (k[b], k[a])
                        if p in seen:
                            continue
                        seen.add(p)
                        if _lev_le1(names[a], names[b]):
                            out1.append(p[0])
                            out2.append(p[1])
                start = i
        return pa.table(
            {"k1": pa.array(out1, pa.int64()), "k2": pa.array(out2, pa.int64())}
        )

    verified = (
        ds.map_batches(signatures, batch_format="pyarrow")
        .map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(pairs, batch_format="pyarrow")
    )
    t = collect(verified)
    if t is None or t.num_rows == 0:
        return pa.table(
            {"k1": pa.array([], pa.int64()), "k2": pa.array([], pa.int64())}
        )
    # a pair can surface in several signature buckets: global distinct
    return t.group_by(["k1", "k2"]).aggregate([]).sort_by(
        [("k1", "ascending"), ("k2", "ascending")]
    )


# -------------------------------------------------------------------------
# orders_cube — GROUP BY CUBE(status, priority): all four grouping sets
# with SQL NULL markers on aggregated dimensions. One
# partial-then-combine exchange computes the FINEST (status, priority)
# table — its cardinality is |status| x |priority|, independent of corpus
# size — and the three coarser sets are exact int64 re-sums of that tiny
# result on the driver (the same pattern as region_rollup, completed to
# the full cube lattice).
# -------------------------------------------------------------------------


def orders_cube(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderstatus": batch["o_orderstatus"],
                "o_orderpriority": batch["o_orderpriority"],
                "n_orders": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_totalprice_c": cents(batch["o_totalprice"]),
            }
        )
        return partial_group_agg(
            t,
            keys=["o_orderstatus", "o_orderpriority"],
            aggs=[("n_orders", "sum"), ("sum_totalprice_c", "sum")],
        )

    fine = collect(
        grouped_sum(
            ds,
            keys=["o_orderstatus", "o_orderpriority"],
            partial=partial,
            sum_cols=["n_orders", "sum_totalprice_c"],
        )
    )
    if fine is None:
        fine = pa.table(
            {
                "o_orderstatus": pa.array([], pa.string()),
                "o_orderpriority": pa.array([], pa.string()),
                "n_orders": pa.array([], pa.int64()),
                "sum_totalprice_c": pa.array([], pa.int64()),
            }
        )

    def roll(keys: list[str]) -> pa.Table:
        kept = [k for k in ["o_orderstatus", "o_orderpriority"] if k in keys]
        if kept:
            g = (
                fine.select(kept + ["n_orders", "sum_totalprice_c"])
                .group_by(kept)
                .aggregate([("n_orders", "sum"), ("sum_totalprice_c", "sum")])
            )
            g = g.rename_columns(
                [
                    {"n_orders_sum": "n_orders", "sum_totalprice_c_sum": "sum_totalprice_c"}.get(c, c)
                    for c in g.column_names
                ]
            )
        else:
            g = pa.table(
                {
                    "n_orders": pa.array(
                        [pc.sum(fine["n_orders"]).as_py() or 0], pa.int64()
                    ),
                    "sum_totalprice_c": pa.array(
                        [pc.sum(fine["sum_totalprice_c"]).as_py() or 0], pa.int64()
                    ),
                }
            )
        n = g.num_rows
        cols = {}
        for k in ["o_orderstatus", "o_orderpriority"]:
            cols[k] = g[k] if k in kept else pa.nulls(n, pa.string())
        cols["n_orders"] = g["n_orders"]
        cols["sum_totalprice_c"] = g["sum_totalprice_c"]
        return pa.table(cols)

    return pa.concat_tables(
        [
            roll(["o_orderstatus", "o_orderpriority"]),
            roll(["o_orderstatus"]),
            roll(["o_orderpriority"]),
            roll([]),
        ]
    )


# -------------------------------------------------------------------------
# event_value_delta — LAG window: per event, the exact-cents value delta
# and microsecond gap vs the same user's PREVIOUS event in (ts, event_id)
# order; each user's first event emits NULLs (SQL LAG semantics). One
# keyed exchange; inside a bucket the previous row is a vectorized
# shift-by-one with run-start masking — the same run-boundary machinery
# as event_transitions, surfaced as per-row columns instead of pair
# counts.
# -------------------------------------------------------------------------


def event_value_delta(sf_dir: str) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    n_parts = _raw_parts(sf_dir, "events")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["user_id"], n_parts)

    def combine(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "delta_c": pa.array([], pa.int64()),
                    "gap_us": pa.array([], pa.int64()),
                }
            )
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        v_c = cents(t["value"]).to_numpy(zero_copy_only=False)
        first = np.concatenate([[True], u[1:] != u[:-1]])
        prev_v = np.concatenate([[0], v_c[:-1]])
        prev_t = np.concatenate([[0], ts[:-1]])
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": t["ts"],
                "delta_c": pa.array(v_c - prev_v, mask=first),
                "gap_us": pa.array(ts - prev_t, mask=first),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(combine, batch_format="pyarrow")
    )


# -------------------------------------------------------------------------
# value_trimmed_mean — ROBUST aggregate: per event type, the mean of the
# central 90% of values (drop the k = floor(5n/100) lowest and highest
# ranks; ties at a cut are value-invariant, so rank-tie order cannot
# change the sum). Same physical plan as value_p95_by_type: per-batch
# (type, cents)-histogram partials — the exchange moves distinct values,
# not rows — then one vectorized overlap computation per type: cumulative
# counts vs the kept-rank interval [k+1, n-k]. Exact int64 sums; the mean
# is one double division of exact ints on both sides.
# -------------------------------------------------------------------------


def value_trimmed_mean(sf_dir: str, pct: int = 5) -> rd.Dataset:
    import numpy as np

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "c": cents(batch["value"]),
                "cnt": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(t, keys=["event_type", "c"], aggs=[("cnt", "sum")])

    def trim(group: pa.Table) -> pa.Table:
        g = group.sort_by([("c", "ascending")])
        v = g["c"].to_numpy(zero_copy_only=False)
        cnt = g["cnt"].to_numpy(zero_copy_only=False)
        n = int(cnt.sum())
        k = n * pct // 100
        lo_rank, hi_rank = k + 1, n - k  # kept rank interval, 1-based
        cum = np.cumsum(cnt)
        start = cum - cnt + 1  # first rank of each distinct value
        kept = np.minimum(cum, hi_rank) - np.maximum(start, lo_rank) + 1
        kept = np.maximum(kept, 0)
        s = int((v * kept).sum())
        m = int(kept.sum())
        return pa.table(
            {
                "event_type": pa.array([group["event_type"][0].as_py()], pa.string()),
                "trim_sum_c": pa.array([s], pa.int64()),
                "trim_n": pa.array([m], pa.int64()),
                "trim_avg_c": pa.array([s / m if m else 0.0], pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("event_type").map_groups(trim, batch_format="pyarrow")


# -------------------------------------------------------------------------
# value_mad_by_type — MEDIAN ABSOLUTE DEVIATION per event type, the
# classic robust dispersion statistic. Two histogram exchanges in the
# value_p95_by_type plan: (1) per-type cents histogram -> exact median
# carried as 2*median int (odd n: twice the middle; even: sum of the two
# middles — interpolation without floats); (2) the medians broadcast in
# the task closure, per-batch histograms of |2v - med2| -> exact median
# of deviations the same way. The final double (mad_c) divides exact
# ints by 4 — bit-identical to DuckDB's quantile_cont interpolation
# because halves and quarters are exact in binary floating point.
# -------------------------------------------------------------------------


def _hist_median2(v: "object", cnt: "object") -> int:
    """2*median of a sorted value histogram, exact (no floats)."""
    import numpy as np

    n = int(cnt.sum())
    cum = np.cumsum(cnt)
    if n % 2:
        m = int(v[np.searchsorted(cum, n // 2 + 1)])
        return 2 * m
    a = int(v[np.searchsorted(cum, n // 2)])
    b = int(v[np.searchsorted(cum, n // 2 + 1)])
    return a + b


def value_mad_by_type(sf_dir: str) -> pa.Table:
    import numpy as np

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "c": cents(batch["value"]),
                "cnt": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(t, keys=["event_type", "c"], aggs=[("cnt", "sum")])

    def median2_of(group: pa.Table) -> pa.Table:
        g = group.sort_by([("c", "ascending")])
        m2 = _hist_median2(
            g["c"].to_numpy(zero_copy_only=False),
            g["cnt"].to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {
                "event_type": pa.array([group["event_type"][0].as_py()], pa.string()),
                "med2": pa.array([m2], pa.int64()),
            }
        )

    hists = ds.map_batches(partial, batch_format="pyarrow")
    med_t = collect(
        hists.groupby("event_type").map_groups(median2_of, batch_format="pyarrow")
    )
    if med_t is None:  # empty events table: no groups, empty result
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "mad_c": pa.array([], pa.float64()),
            }
        )
    med2 = dict(zip(med_t["event_type"].to_pylist(), med_t["med2"].to_pylist()))

    def dev_partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        c = cents(batch["value"]).to_numpy(zero_copy_only=False)
        m2 = np.array([med2[t] for t in et.to_pylist()], dtype=np.int64)
        t = pa.table(
            {
                "event_type": et,
                "d2": pa.array(np.abs(2 * c - m2), pa.int64()),
                "cnt": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(t, keys=["event_type", "d2"], aggs=[("cnt", "sum")])

    def mad_of(group: pa.Table) -> pa.Table:
        g = group.sort_by([("d2", "ascending")])
        m4 = _hist_median2(
            g["d2"].to_numpy(zero_copy_only=False),
            g["cnt"].to_numpy(zero_copy_only=False),
        )  # 2 * median-of-deviations, deviations in half-cents
        return pa.table(
            {
                "event_type": pa.array([group["event_type"][0].as_py()], pa.string()),
                "mad_c": pa.array([m4 / 4.0], pa.float64()),
            }
        )

    out = collect(
        ds.map_batches(dev_partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(mad_of, batch_format="pyarrow")
    )
    return out.sort_by([("event_type", "ascending")])


# -------------------------------------------------------------------------
# pattern_users — sequence PATTERN MATCH (MATCH_RECOGNIZE-lite): users
# whose event stream contains a CONTIGUOUS (view, click, purchase) run in
# (ts, event_id) order — the strict-adjacency counterpart of the
# first-touch funnel (funnel_counts allows gaps). One keyed exchange;
# inside a bucket the triple test is three aligned vectorized comparisons
# with run-boundary masking (a run can never span users), then a unique
# over the matching rows' users.
# -------------------------------------------------------------------------


def pattern_users(
    sf_dir: str, pattern: tuple = ("view", "click", "purchase")
) -> rd.Dataset:
    import numpy as np

    from .agg import tag_partition

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    n_parts = _raw_parts(sf_dir, "events")

    def tag(batch: pa.Table) -> pa.Table:
        return tag_partition(batch, ["user_id"], n_parts)

    a, b, c = pattern

    def combine(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n < 3:
            return pa.table({"user_id": pa.array([], pa.int64())})
        u = t["user_id"].to_numpy(zero_copy_only=False)
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)
        hit = (
            (et[2:] == c)
            & (et[1:-1] == b)
            & (et[:-2] == a)
            & (u[2:] == u[1:-1])
            & (u[1:-1] == u[:-2])
        )
        return pa.table({"user_id": pa.array(np.unique(u[2:][hit]), pa.int64())})

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(combine, batch_format="pyarrow")
    )


# -------------------------------------------------------------------------
# order_moments — grouped SECOND MOMENTS (the sufficient statistics of
# per-group linear regression / correlation of price against order day):
# per priority class, exact int64 sums of day, cents, day*cents and
# day^2. Pure partial-then-combine — the only exchange moves five ints
# per (group, batch). Slope/intercept/corr derive from these on the
# client; at 10^12-row groups the day*cents partials approach int64
# range, where the partials would widen to decimal128 (documented bound:
# |sum_day_c| < n * 2e4 days * 6e7 cents needs n < 7.7e6 per... the
# GLOBAL sums stay exact here because testdata spans ~120 days and
# cents < 6e7, giving ~1e12 rows of headroom).
# -------------------------------------------------------------------------

_DAY_US_M = 86_400_000_000


def order_moments(sf_dir: str) -> rd.Dataset:
    import numpy as np

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        d = (
            pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
            // _DAY_US_M
        )
        c = cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "n": pa.array(np.ones(len(d), dtype=np.int64)),
                "sum_day": pa.array(d, pa.int64()),
                "sum_c": pa.array(c, pa.int64()),
                "sum_day_c": pa.array(d * c, pa.int64()),
                "sum_day2": pa.array(d * d, pa.int64()),
            }
        )
        return partial_group_agg(
            t,
            keys=["o_orderpriority"],
            aggs=[
                ("n", "sum"),
                ("sum_day", "sum"),
                ("sum_c", "sum"),
                ("sum_day_c", "sum"),
                ("sum_day2", "sum"),
            ],
        )

    return grouped_sum(
        ds,
        keys=["o_orderpriority"],
        partial=partial,
        sum_cols=["n", "sum_day", "sum_c", "sum_day_c", "sum_day2"],
    )


# -------------------------------------------------------------------------
# value_log_moments — grouped LOG moments (geometric-mean sufficient
# statistics): per event type over positive cents, the count and the
# exact int64 sum of floor(1e6 * ln(cents)) — the dsir_weights integer-ln
# technique surfaced as a grouped aggregate. The exchange is the
# (type, cents) histogram (distinct values on the wire); ln runs once per
# DISTINCT value through libm (math.log — bit-identical to DuckDB's LN,
# both call the platform libm on the same exactly-converted double),
# never per row, then the sum is a vectorized cnt*logw dot product.
# -------------------------------------------------------------------------


def value_log_moments(sf_dir: str) -> rd.Dataset:
    import math

    import numpy as np

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        c = cents(batch["value"])
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "c": c,
                "cnt": pa.array([1] * batch.num_rows, pa.int64()),
            }
        ).filter(pc.greater(c, 0))
        return partial_group_agg(t, keys=["event_type", "c"], aggs=[("cnt", "sum")])

    def logsum(group: pa.Table) -> pa.Table:
        v = group["c"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        logw = np.array(
            [math.floor(1_000_000 * math.log(int(x))) for x in v], dtype=np.int64
        )
        return pa.table(
            {
                "event_type": pa.array([group["event_type"][0].as_py()], pa.string()),
                "n_pos": pa.array([int(cnt.sum())], pa.int64()),
                "log_sum_1e6": pa.array([int((cnt * logw).sum())], pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("event_type").map_groups(logsum, batch_format="pyarrow")


# -------------------------------------------------------------------------
# events_dow_profile — calendar profile: counts per (event type, ISO day
# of week). Arrow's day_of_week (Monday=0) + 1 equals DuckDB's isodow
# (Monday=1) — the dow-convention trap (DuckDB's plain dayofweek is
# Sunday=0) pinned by the oracle. Standard partial-then-combine; the
# exchange moves at most |types| x 7 rows per batch.
# -------------------------------------------------------------------------


def events_dow_profile(sf_dir: str) -> rd.Dataset:
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "dow": pc.add(
                    pc.cast(pc.day_of_week(batch["ts"]), pa.int64()),
                    pa.scalar(1, pa.int64()),
                ),
                "n": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(t, keys=["event_type", "dow"], aggs=[("n", "sum")])

    return grouped_sum(
        ds, keys=["event_type", "dow"], partial=partial, sum_cols=["n"]
    )


# -------------------------------------------------------------------------
# validate_refs — referential-integrity validation (the cross-table
# companion of textops.validate_docs): counts of orders whose customer
# key has no customer row and lineitems whose order key has no order
# row. Both checks broadcast the referenced key set (ray.put once, read
# per task) and count misses with a vectorized is_in per batch — one
# tiny partial row per batch on the wire. Above broadcast size the
# check swaps to the bucketed anti-join exchange incremental_new_docs
# already implements (same semantics, keys never on the driver); the
# broadcast cut-over mirrors stages/dedup.py's documented limit.
# -------------------------------------------------------------------------


def validate_refs(sf_dir: str) -> pa.Table:
    import numpy as np
    import ray

    from .agg import partial_group_agg

    cust_keys = pc.cast(
        collect(_read(sf_dir, "customer", ["c_custkey"]))["c_custkey"], pa.int64()
    ).combine_chunks()
    order_keys = pc.cast(
        collect(_read(sf_dir, "orders", ["o_orderkey"]))["o_orderkey"], pa.int64()
    ).combine_chunks()
    cust_ref = ray.put(cust_keys)
    order_ref = ray.put(order_keys)

    def miss_counter(key_col: str, ref):
        def f(batch: pa.Table) -> pa.Table:
            keys = ray.get(ref)
            miss = pc.sum(
                pc.cast(
                    pc.invert(
                        pc.is_in(
                            pc.cast(batch[key_col], pa.int64()), value_set=keys
                        )
                    ),
                    pa.int64(),
                )
            ).as_py() or 0
            return pa.table(
                {
                    "one": pa.array([0], pa.int64()),
                    "violations": pa.array([miss], pa.int64()),
                }
            )

        return f

    def total(ds) -> int:
        t = collect(ds)
        return int(pc.sum(t["violations"]).as_py() or 0) if t is not None else 0

    orphan_orders = total(
        _read(sf_dir, "orders", ["o_custkey"]).map_batches(
            miss_counter("o_custkey", cust_ref), batch_format="pyarrow"
        )
    )
    orphan_li = total(
        _read(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
            miss_counter("l_orderkey", order_ref), batch_format="pyarrow"
        )
    )
    return pa.table(
        {
            "rule": pa.array(
                ["orphan_order_cust", "orphan_lineitem_order"], pa.string()
            ),
            "violations": pa.array([orphan_orders, orphan_li], pa.int64()),
        }
    )
