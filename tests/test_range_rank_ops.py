"""Planted-structure coverage for the range-join / global-rank /
ordered-collect additions (orders_events_window, order_ntile,
user_event_path) beyond the synthetic-table oracle parametrization in
test_queries.py — exercises the window-boundary, NTILE-remainder and
tie-order semantics the uniform synthetic tables cannot pin down."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

US_7D = 7 * 24 * 3_600_000_000


def _dir(tmp_path, name, **tables):
    d = tmp_path / name
    d.mkdir()
    for t, rows in tables.items():
        pq.write_table(pa.table(rows), str(d / f"{t}.parquet"))
    return str(d)


def _ts(us):
    return pd.Timestamp(1700000000_000000 + us, unit="us")


def test_orders_events_window_boundaries(ray_session, tmp_path):
    """Half-open [orderdate, orderdate+7d): the orderdate instant and
    7d-1us are in; the exact 7d instant and 1us-before are out; other
    users' events never match; no-match orders emit 0/0 (LEFT)."""
    from pdf_extractor_ray.functions.relational import orders_events_window

    t0 = 0
    orders = {
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_custkey": pa.array([10, 99], pa.int64()),
        "o_orderdate": pa.array([_ts(t0), _ts(t0)], pa.timestamp("us")),
        "o_totalprice": pa.array([10.0, 20.0], pa.float64()),
    }
    ev_ts = [t0 - 1, t0, t0 + US_7D - 1, t0 + US_7D, t0 + 1]
    ev_user = [10, 10, 10, 10, 777]  # last event: unrelated user
    events = {
        "event_id": pa.array(range(5), pa.int64()),
        "user_id": pa.array(ev_user, pa.int64()),
        "ts": pa.array([_ts(u) for u in ev_ts], pa.timestamp("us")),
        "value": pa.array([1.0, 2.0, 4.0, 8.0, 16.0], pa.float64()),
    }
    sf = _dir(tmp_path, "rj", orders=orders, events=events)
    df = orders_events_window(sf).to_pandas().set_index("o_orderkey")
    # order 1: events at t0 (200c) and t0+7d-1us (400c) only
    assert df.loc[1, "n_events"] == 2
    assert df.loc[1, "sum_value_c"] == 600
    # order 2: customer 99 has no events at all
    assert df.loc[2, "n_events"] == 0
    assert df.loc[2, "sum_value_c"] == 0


def test_order_ntile_remainder_and_ties(ray_session, tmp_path):
    """SQL NTILE semantics with n=23, k=10: first 3 tiles get 3 rows, the
    rest 2 — and rows whose prices round to the SAME cent value are
    ordered by orderkey."""
    from pdf_extractor_ray.functions.relational import order_ntile

    n = 23
    # two floats that round to the same cents (1005) — tie broken by key
    prices = [10.0 + i for i in range(n - 2)] + [10.049, 10.051]
    keys = list(range(1, n + 1))
    orders = {
        "o_orderkey": pa.array(keys, pa.int64()),
        "o_custkey": pa.array([1] * n, pa.int64()),
        "o_orderdate": pa.array([_ts(0)] * n, pa.timestamp("us")),
        "o_totalprice": pa.array(prices, pa.float64()),
    }
    sf = _dir(tmp_path, "nt", orders=orders)
    df = order_ntile(sf).to_pandas()
    sizes = df["tile"].value_counts().sort_index()
    assert list(sizes) == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]
    # the two 1005-cent ties are the global minimum prices; key order puts
    # orderkey 22 before 23, both in tile 1 alongside price 10.0 (key 1)
    tile1 = set(df[df["tile"] == 1]["o_orderkey"])
    assert tile1 == {1, 22, 23}


def test_user_event_path_order_and_truncation(ray_session, tmp_path):
    """First-5 truncation in (ts, event_id) order; equal-ts rows fall back
    to event_id; single-event users emit the bare type."""
    from pdf_extractor_ray.functions.relational import user_event_path

    rows = [
        # user 1: seven events, two sharing ts (ids 12 < 13 break the tie)
        (10, 1, 5, "a"), (11, 1, 4, "b"), (12, 1, 4, "c"), (14, 1, 6, "d"),
        (15, 1, 7, "e"), (16, 1, 8, "f"), (13, 1, 9, "g"),
        # user 2: one event
        (20, 2, 1, "solo"),
    ]
    events = {
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([_ts(r[2]) for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    }
    sf = _dir(tmp_path, "pp", events=events)
    df = user_event_path(sf).to_pandas().set_index("user_id")
    assert df.loc[1, "path5"] == "b>c>a>d>e"
    assert df.loc[2, "path5"] == "solo"


def test_event_transitions_user_isolation(ray_session, tmp_path):
    """Transitions never cross users; counts aggregate globally over
    (prev, next) pairs in (ts, event_id) order."""
    from pdf_extractor_ray.functions.relational import event_transitions

    rows = [
        # user 1: a -> b -> a
        (1, 1, 1, "a"), (2, 1, 2, "b"), (3, 1, 3, "a"),
        # user 2: a -> b   (so a->b occurs twice globally)
        (4, 2, 1, "a"), (5, 2, 2, "b"),
        # user 3: single event — no pairs
        (6, 3, 9, "z"),
    ]
    events = {
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([_ts(r[2]) for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    }
    sf = _dir(tmp_path, "tr", events=events)
    df = (
        event_transitions(sf)
        .to_pandas()
        .set_index(["prev_type", "next_type"])["n_pairs"]
    )
    assert df.to_dict() == {("a", "b"): 2, ("b", "a"): 1}


def test_user_retention_distinct_days(ray_session, tmp_path):
    """Multiple events on one day count once; offsets are whole UTC days
    from each user's first event day."""
    from pdf_extractor_ray.functions.relational import user_retention

    D = 86_400_000_000
    rows = [
        # user 1: day 0 (twice), day 2 -> offsets {0, 2}, cohort day 0
        (1, 0), (1, 1000), (1, 2 * D),
        # user 2: day 2, day 3 -> offsets {0, 1}, cohort day 2
        (2, 2 * D), (2, 3 * D),
    ]
    events = {
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([_ts(r[1]) for r in rows], pa.timestamp("us")),
    }
    sf = _dir(tmp_path, "ret", events=events)
    df = user_retention(sf).to_pandas()
    # cohort day number relative to the base timestamp's UTC day (the base
    # is mid-day, so cohort_day truncates to before it)
    day0 = 1700000000_000000 // D
    got = {
        (int(r.cohort_day.value // 1000 // D - day0), int(r.day_offset)): int(
            r.n_users
        )
        for r in df.itertuples()
    }
    assert got == {(0, 0): 1, (0, 2): 1, (2, 0): 1, (2, 1): 1}


def test_orders_events_window_random_bruteforce(ray_session, tmp_path):
    """Randomized brute-force equivalence: the composite-searchsorted range
    join equals a per-order pandas filter on a scatter with duplicate
    timestamps, boundary-exact events and orders without events."""
    rng = np.random.RandomState(11)
    n_e, n_o = 400, 120
    e_user = rng.randint(0, 25, n_e)
    e_us = rng.randint(0, 20 * 86_400_000_000, n_e)  # 20-day span, us
    e_val = np.round(rng.uniform(-50, 50, n_e), 2)
    o_cust = rng.randint(0, 30, n_o)  # some custs have no events
    o_us = rng.randint(0, 20 * 86_400_000_000, n_o)
    # plant exact boundary hits: event at order date and at +7d exactly
    o_us[0], e_us[0], e_user[0] = 0, 0, 99
    o_cust[0] = 99
    e_us[1], e_user[1] = US_7D, 99

    events = {
        "event_id": pa.array(range(n_e), pa.int64()),
        "user_id": pa.array(e_user, pa.int64()),
        "ts": pa.array([_ts(int(u)) for u in e_us], pa.timestamp("us")),
        "value": pa.array(e_val, pa.float64()),
    }
    orders = {
        "o_orderkey": pa.array(range(n_o), pa.int64()),
        "o_custkey": pa.array(o_cust, pa.int64()),
        "o_orderdate": pa.array([_ts(int(u)) for u in o_us], pa.timestamp("us")),
        "o_totalprice": pa.array(np.ones(n_o), pa.float64()),
    }
    from pdf_extractor_ray.functions.relational import orders_events_window

    sf = _dir(tmp_path, "rjp", orders=orders, events=events)
    got = (
        orders_events_window(sf)
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    cents = np.round(e_val * 100).astype(np.int64)
    for i in range(n_o):
        m = (
            (e_user == o_cust[i])
            & (e_us >= o_us[i])
            & (e_us < o_us[i] + US_7D)
        )
        assert got.loc[i, "n_events"] == int(m.sum()), f"order {i} count"
        assert got.loc[i, "sum_value_c"] == int(cents[m].sum()), f"order {i} sum"


@pytest.mark.parametrize("force_distributed", [False, True])
def test_trade_components_planted_graph(ray_session, tmp_path, monkeypatch, force_distributed):
    """Known component structure: two chains bridged by shared suppliers,
    an isolated customer, and below-threshold lineitems that must not
    create edges. Both label-propagation plans (driver-local rounds below
    ``cc._LOCAL_EDGE_LIMIT`` edges, Ray rounds above) give it."""
    from pdf_extractor_ray.functions import cc
    from pdf_extractor_ray.functions.relational import trade_components

    if force_distributed:
        monkeypatch.setattr(cc, "_LOCAL_EDGE_LIMIT", 0)

    # orders: orderkey -> custkey
    o = [(1, 10), (2, 20), (3, 30), (4, 40)]
    orders = {
        "o_orderkey": pa.array([r[0] for r in o], pa.int64()),
        "o_custkey": pa.array([r[1] for r in o], pa.int64()),
    }
    # lineitems: (orderkey, suppkey, qty). qty<50 rows are ignored.
    li = [
        (1, 7, 50),   # cust 10 — supp 7
        (2, 7, 50),   # cust 20 — supp 7  => {10,20} share supp 7
        (2, 8, 50),   # cust 20 — supp 8
        (3, 8, 50),   # cust 30 — supp 8  => chain 10-20-30
        (4, 9, 10),   # BELOW threshold: cust 40 stays isolated
    ]
    lineitem = {
        "l_orderkey": pa.array([r[0] for r in li], pa.int64()),
        "l_suppkey": pa.array([r[1] for r in li], pa.int64()),
        "l_quantity": pa.array([float(r[2]) for r in li], pa.float64()),
    }
    customer = {"c_custkey": pa.array([10, 20, 30, 40, 50], pa.int64())}
    supplier = {"s_suppkey": pa.array([7, 8, 9], pa.int64())}
    sf = _dir(
        tmp_path, "cc",
        orders=orders, lineitem=lineitem, customer=customer, supplier=supplier,
    )
    df = trade_components(sf).to_pandas().set_index("c_custkey")["component"]
    assert df.to_dict() == {10: 10, 20: 10, 30: 10, 40: 40, 50: 50}


def test_pareto_orders_planted(ray_session, tmp_path):
    """Skyline semantics: equal-point twins survive together; a point
    dominated only across batches is still removed (32 batches force the
    two-level local/global combine); brute force is the oracle."""
    rng = np.random.RandomState(3)
    n = 4000
    price = np.round(rng.uniform(1, 1000, n), 2)
    date_us = rng.randint(0, 10**12, n)
    # planted: identical twin points at the top-right corner
    price[0] = price[1] = 999.99
    date_us[0] = date_us[1] = 10**12 - 1
    orders = {
        "o_orderkey": pa.array(range(n), pa.int64()),
        "o_custkey": pa.array(np.ones(n, np.int64), pa.int64()),
        "o_orderdate": pa.array([_ts(int(u)) for u in date_us], pa.timestamp("us")),
        "o_totalprice": pa.array(price, pa.float64()),
    }
    from pdf_extractor_ray.functions.relational import pareto_orders

    sf = _dir(tmp_path, "sky", orders=orders)
    got = set(pareto_orders(sf).to_pandas()["o_orderkey"])
    p = np.round(price * 100).astype(np.int64)
    d = date_us
    bf = {
        i
        for i in range(n)
        if not ((p >= p[i]) & (d >= d[i]) & ((p > p[i]) | (d > d[i]))).any()
    }
    assert got == bf
    assert {0, 1} <= got  # twins both survive


def test_fuzzy_name_pairs_planted(ray_session, tmp_path):
    """Substitution / insertion / deletion at distance 1 match; distance 2
    and cross-nation near-names never match."""
    from pdf_extractor_ray.functions.relational import fuzzy_name_pairs

    names = [
        (1, 0, "alpha"),   # base
        (2, 0, "alpho"),   # substitution -> pairs with 1
        (3, 0, "alphas"),  # insertion    -> pairs with 1
        (4, 0, "alph"),    # deletion     -> pairs with 1
        (5, 0, "alXho"),   # distance 2 from alpha; distance 1 from alpho
        (6, 1, "alpha"),   # other nation: no pair with 1
        (7, 1, "alpha!"),  # pairs with 6 within nation 1
    ]
    customer = {
        "c_custkey": pa.array([r[0] for r in names], pa.int64()),
        "c_nationkey": pa.array([r[1] for r in names], pa.int32()),
        "c_name": pa.array([r[2] for r in names], pa.string()),
    }
    sf = _dir(tmp_path, "fz", customer=customer)
    t = fuzzy_name_pairs(sf)
    got = set(zip(t["k1"].to_pylist(), t["k2"].to_pylist()))
    # "alphas"(3) vs "alph"(4) is distance 2; "alpho"(2) vs "alph"(4) is
    # distance 1 (delete o); "alpho"(2) vs "alXho"(5) one substitution
    assert got == {(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (6, 7)}


def test_lev_le1_property():
    """_lev_le1 equals full DP Levenshtein <= 1 on random short strings."""
    from pdf_extractor_ray.functions.relational import _lev_le1

    def lev(a, b):
        m, n = len(a), len(b)
        prev = list(range(n + 1))
        for i in range(1, m + 1):
            cur = [i] + [0] * n
            for j in range(1, n + 1):
                cur[j] = min(
                    prev[j] + 1,
                    cur[j - 1] + 1,
                    prev[j - 1] + (a[i - 1] != b[j - 1]),
                )
            prev = cur
        return prev[n]

    rng = np.random.RandomState(5)
    alpha = "abc"
    for _ in range(3000):
        a = "".join(alpha[i] for i in rng.randint(0, 3, rng.randint(0, 6)))
        b = "".join(alpha[i] for i in rng.randint(0, 3, rng.randint(0, 6)))
        assert _lev_le1(a, b) == (lev(a, b) <= 1), (a, b)


def test_value_trimmed_mean_tie_at_cut(ray_session, tmp_path):
    """n=20, k=1: drop exactly one lowest and one highest rank even when
    the cut lands inside a run of equal values (rank-tie invariance)."""
    from pdf_extractor_ray.functions.relational import value_trimmed_mean

    vals = [1.0, 1.0, 1.0] + [2.0] * 14 + [9.0, 9.0, 9.0]
    events = {
        "event_type": pa.array(["x"] * 20, pa.string()),
        "value": pa.array(vals, pa.float64()),
    }
    sf = _dir(tmp_path, "tm", events=events)
    df = value_trimmed_mean(sf).to_pandas()
    # kept ranks 2..19: two 100c, fourteen 200c, two 900c
    assert df.loc[0, "trim_n"] == 18
    assert df.loc[0, "trim_sum_c"] == 2 * 100 + 14 * 200 + 2 * 900
    assert df.loc[0, "trim_avg_c"] == df.loc[0, "trim_sum_c"] / 18


def test_value_mad_interpolation(ray_session, tmp_path):
    """Even-count median interpolates (x.5 cents); MAD of [1,2,3,10] is
    median(|v-2.5|) = median([1.5,0.5,0.5,7.5]) = 1.0 — halves and
    quarters must come out exact."""
    from pdf_extractor_ray.functions.relational import value_mad_by_type

    events = {
        "event_type": pa.array(["x"] * 4 + ["y"] * 3, pa.string()),
        "value": pa.array([0.01, 0.02, 0.03, 0.10, 1.0, 2.0, 6.0], pa.float64()),
    }
    sf = _dir(tmp_path, "mad", events=events)
    df = value_mad_by_type(sf).to_pandas().set_index("event_type")["mad_c"]
    assert df["x"] == 1.0
    # y: odd count, median 200c, deviations [100, 0, 400] -> MAD 100
    assert df["y"] == 100.0


def test_grouped_hll_accuracy_and_merge(ray_session):
    """Per-type HLL estimates land within 2.5% of the exact distinct user
    counts on the sf0.001 events table (p=14 -> ~0.81% std error)."""
    import duckdb

    from pdf_extractor_ray.functions.relational import distinct_users_hll_by_type

    sf = "/root/testdata/sf0.001"
    est = (
        distinct_users_hll_by_type(sf)
        .to_pandas()
        .set_index("event_type")["distinct_users_est"]
    )
    exact = dict(
        duckdb.query(
            f"SELECT event_type, COUNT(DISTINCT user_id) FROM "
            f"read_parquet('{sf}/events.parquet') GROUP BY 1"
        ).fetchall()
    )
    assert set(est.index) == set(exact)
    for t, e in exact.items():
        assert abs(est[t] - e) <= max(2, 0.025 * e), (t, est[t], e)


def test_trade_degree_hist_plans_agree(ray_session):
    """The broadcast fast path (filtered lineitem side <= limit, one
    cust-keyed exchange) and the 2-exchange fallback (the 100-TB posture)
    must produce identical histograms; the result also matches a direct
    DuckDB recomputation."""
    import duckdb

    from pdf_extractor_ray.functions.relational import trade_degree_hist

    sf = "/root/testdata/sf0.001"
    fast = trade_degree_hist(sf)
    slow = trade_degree_hist(sf, broadcast_rows_limit=0)
    assert fast.equals(slow)
    gold = duckdb.query(
        f"""
        WITH e AS (
            SELECT DISTINCT o.o_custkey AS cust, l.l_suppkey AS supp
            FROM read_parquet('{sf}/lineitem.parquet') l
            JOIN read_parquet('{sf}/orders.parquet') o
              ON l.l_orderkey = o.o_orderkey
            WHERE l.l_quantity >= 50
        ), d AS (
            SELECT cust, COUNT(*) AS degree FROM e GROUP BY cust
        )
        SELECT CAST(degree AS BIGINT) AS degree,
               CAST(COUNT(*) AS BIGINT) AS n_customers
        FROM d GROUP BY degree ORDER BY degree
        """
    ).arrow()
    import pyarrow as pa

    assert fast.cast(gold.schema).equals(gold.combine_chunks())
