"""Link-graph operators over web pages: per-page anchor extraction and the
host-level edge list — the other core Common-Crawl-style product beside
main-content text (WAT-file analog). Reference analog: none (the reference
extracts text only); built on the same HTML scanner as the text kernel so
tag semantics cannot drift between the two products.

Scale shape: link extraction is a stateless flat-map (`map_batches`, one
scanner pass per page, no shuffle); the host-graph aggregate is the
standard partial-then-combine exchange over tiny (src_host, dst_host)
partials (functions/agg.py) — edge cardinality, never page cardinality,
crosses the wire.
"""

from __future__ import annotations

from urllib.parse import urljoin, urlsplit

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..kernels.html_extract import extract_links as _kernel_links
from ..kernels.sniff import sniff_bytes
from ..pipelines.webpages import docs_to_pages
from .agg import grouped_sum, partial_group_agg, round_half_away

# below this many (deduped, integer-id) edges, iterative ops run their
# rounds driver-local over the collected edge list — ~24 bytes/edge, so the
# cap is ~50 MB; past it the broadcast-round distributed path takes over
_LOCAL_EDGE_LIMIT = 2_000_000


def _pages(sf_dir: str) -> rd.Dataset:
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return ds.map_batches(docs_to_pages, batch_format="pyarrow")


def links_batch(batch: pa.Table) -> pa.Table:
    """pages batch -> (url, link_idx, href, anchor) long table; non-HTML
    payloads yield no rows (sniff gate, same classifier as the pipeline)."""
    urls: list[str] = []
    idxs: list[int] = []
    hrefs: list[str] = []
    anchors: list[str] = []
    for u, payload in zip(
        batch["url"].to_pylist(), batch["html"].to_pylist()
    ):
        if payload is None or sniff_bytes(payload) != "html":
            continue
        for i, (href, anchor) in enumerate(_kernel_links(payload)):
            urls.append(u)
            idxs.append(i)
            hrefs.append(href)
            anchors.append(anchor)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "link_idx": pa.array(idxs, pa.int64()),
            "href": pa.array(hrefs, pa.string()),
            "anchor": pa.array(anchors, pa.string()),
        }
    )


def extract_links(sf_dir: str) -> rd.Dataset:
    """Per-page ordered anchor list over the synthesized pages corpus."""
    return _pages(sf_dir).map_batches(links_batch, batch_format="pyarrow")


def _host(url: str) -> str:
    try:
        return urlsplit(url).netloc.lower()
    except ValueError:
        return ""


def link_hosts(sf_dir: str) -> rd.Dataset:
    """Host-level link graph: (src_host, dst_host, n_links) with relative
    hrefs resolved against the page url (RFC 3986 urljoin)."""

    def partial(batch: pa.Table) -> pa.Table:
        links = links_batch(batch)
        src = [_host(u) for u in links["url"].to_pylist()]
        dst = [
            _host(urljoin(u, h))
            for u, h in zip(links["url"].to_pylist(), links["href"].to_pylist())
        ]
        t = pa.table(
            {
                "src_host": pa.array(src, pa.string()),
                "dst_host": pa.array(dst, pa.string()),
                "n_links": pa.array([1] * links.num_rows, pa.int64()),
            }
        )
        return partial_group_agg(
            t, keys=["src_host", "dst_host"], aggs=[("n_links", "sum")]
        )

    return grouped_sum(
        _pages(sf_dir),
        keys=["src_host", "dst_host"],
        partial=partial,
        sum_cols=["n_links"],
    )


# -------------------------------------------------------------------------
# host_pagerank — PageRank power iteration over the host-level link graph:
# the canonical iterative-algorithm shape (rank vector broadcast each
# round, contributions as per-batch partials, one tiny keyed reduce per
# iteration). Partitioning assumption, stated per the task brief: the HOST
# vector (not the page set) fits driver/object-store memory — true to
# ~10^7 hosts; beyond that the rank vector itself must become a keyed
# Dataset and each iteration a hash join, which this operator does not do.
# Edges stay distributed; each iteration moves only (dst_host, partial)
# rows. Deterministic: fixed iteration count, sorted host order, float64.
# -------------------------------------------------------------------------


def pagerank_edges(
    edges: rd.Dataset, *, damping: float = 0.85, iters: int = 10
) -> pa.Table:
    """edges: (src_host, dst_host, n_links) weighted edge list. The edge
    Dataset is materialized ONCE (so iterations never re-run the upstream
    parse) and stays in the object store; only host-cardinality vectors
    move per iteration."""
    import numpy as np
    import ray

    from .agg import collect

    edges = edges.materialize()
    # the reduced host-edge list is far smaller than its upstream
    # exchange's block count — coalesce so each power-iteration round runs
    # a handful of tasks, not hundreds of near-empty ones (same fix as
    # trade_components); block count still scales with edge cardinality
    n_edges = edges.count()
    edges = edges.repartition(max(8, n_edges // 1_000_000)).materialize()
    # pass 1 (distributed): host universe + per-src out-weights, both
    # host-cardinality reductions over tiny per-batch partials
    def host_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "host": pa.concat_arrays(
                    [
                        batch["src_host"].combine_chunks(),
                        batch["dst_host"].combine_chunks(),
                    ]
                ),
                "outw": pa.concat_arrays(
                    [
                        pc.cast(batch["n_links"], pa.int64()).combine_chunks(),
                        pa.array(
                            np.zeros(batch.num_rows, dtype=np.int64)
                        ),
                    ]
                ),
            }
        )
        return t.group_by(["host"]).aggregate([("outw", "sum")])

    hp = collect(edges.map_batches(host_partial, batch_format="pyarrow"))
    if hp is None:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "rank_ppm": pa.array([], pa.int64()),
            }
        )
    hg = hp.group_by(["host"]).aggregate([("outw_sum", "sum")])
    order = pc.sort_indices(hg, sort_keys=[("host", "ascending")])
    hg = hg.take(order)
    hosts = hg["host"].combine_chunks()
    outw = hg["outw_sum_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(hosts)
    rank = np.full(n, 1.0 / n)

    # pass 2 (distributed, ONCE): rewrite the string edge list to integer
    # host ids with the vectorized arrow hash-probe (pc.index_in against
    # the broadcast sorted host array) and materialize it — the 10-round
    # hot loop below then never touches a string or a Python dict again
    hosts_ref = ray.put(hosts)

    def to_int_edges(batch: pa.Table) -> pa.Table:
        ha = ray.get(hosts_ref)
        return pa.table(
            {
                "s": pc.cast(
                    pc.index_in(batch["src_host"], value_set=ha), pa.int64()
                ),
                "d": pc.cast(
                    pc.index_in(batch["dst_host"], value_set=ha), pa.int64()
                ),
                "w": pc.cast(batch["n_links"], pa.float64()),
            }
        )

    iedges = edges.map_batches(to_int_edges, batch_format="pyarrow").materialize()

    if n_edges <= _LOCAL_EDGE_LIMIT:
        # small graph: the integer edge list fits the driver comfortably —
        # iterate locally (pure numpy) instead of paying ~10 Ray stage
        # launches on near-empty tasks. Identical math; the distributed
        # path below is the scale route and kicks in past the threshold.
        et = collect(iedges)
        s = et["s"].to_numpy(zero_copy_only=False)
        d = et["d"].to_numpy(zero_copy_only=False)
        w = et["w"].to_numpy(zero_copy_only=False)
        for _ in range(iters):
            share = np.where(outw > 0, rank / np.maximum(outw, 1e-300), 0.0)
            contrib = np.zeros(n)
            np.add.at(contrib, d, share[s] * w)
            dangling = float(rank[outw == 0].sum())
            rank = (1.0 - damping) / n + damping * (contrib + dangling / n)
        return pa.table(
            {
                "host": hosts,
                "rank_ppm": round_half_away(pa.array(rank * 1_000_000)),
            }
        )

    def contrib_partial(batch: pa.Table, share_ref) -> pa.Table:
        # closure-captured ObjectRef: the share vector is fetched from the
        # local object store once per task (zero-copy numpy); the batch is
        # already integer ids, so this is one fancy-index + one multiply
        share = ray.get(share_ref)
        s = batch["s"].to_numpy(zero_copy_only=False)
        w = batch["w"].to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "dst": batch["d"],
                "contrib": pa.array(share[s] * w),
            }
        )
        return t.group_by(["dst"]).aggregate([("contrib", "sum")])

    import functools as _ft

    for _ in range(iters):
        share = np.where(outw > 0, rank / np.maximum(outw, 1e-300), 0.0)
        share_ref = ray.put(share)  # broadcast once per iteration
        parts = collect(
            iedges.map_batches(
                _ft.partial(contrib_partial, share_ref=share_ref),
                batch_format="pyarrow",
            )
        )
        contrib = np.zeros(n)
        if parts is not None:
            np.add.at(
                contrib,
                parts["dst"].to_numpy(zero_copy_only=False),
                parts["contrib_sum"].to_numpy(zero_copy_only=False),
            )
        dangling = float(rank[outw == 0].sum())
        rank = (1.0 - damping) / n + damping * (contrib + dangling / n)
    return pa.table(
        {
            "host": hosts,
            "rank_ppm": round_half_away(pa.array(rank * 1_000_000)),
        }
    )


def host_pagerank(
    sf_dir: str, *, damping: float = 0.85, iters: int = 10
) -> pa.Table:
    """PageRank over the host graph extracted from the pages corpus. The
    edge AGGREGATION is the distributed stage (link_hosts: scan + parse +
    partial-combine exchange); the power iteration then runs on the
    host-cardinality edge list per the assumption above."""
    return pagerank_edges(link_hosts(sf_dir), damping=damping, iters=iters)


# -------------------------------------------------------------------------
# trade_pagerank — the SAME power iteration over a real multi-node graph:
# customer-nation -> supplier-nation edges weighted by high-quantity
# lineitem count. host_pagerank's corpus graph is a single self-loop (the
# page template links only within its own host), so its oracle can only
# restate that contract; this operator gives the PageRank math itself a
# full DuckDB oracle — a recursive CTE re-computes every iteration and the
# driver hash-checks rank_ppm per nation.
#
# Plan: the trade_components orderkey-hash exchange co-locates each
# order's customer with its high-qty lineitems (raw rows, scaled
# partitions); nation keys attach via broadcast key->nationkey arrays
# (pc.index_in against one ray.put per side — customer/supplier key maps
# are the documented small side, ~16 B/row, fine to ~1e9 keys, past which
# the attach must become one more keyed exchange); per-bucket partials
# reduce to <= 625 (nation x nation) rows before the driver combine.
# -------------------------------------------------------------------------


def trade_nation_edges(sf_dir: str, *, min_qty: int = 50) -> pa.Table:
    """(src_host, dst_host, n_links) nation-name edge list of the
    high-volume trade graph (shared edge semantics with
    relational.trade_components / trade_degree_hist: l_quantity >= min_qty
    joins orders->customer and lineitem->supplier)."""
    import ray

    from .agg import collect, keyed_join
    from .relational import _hi_qty_pairs, _raw_parts

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_quantity"],
    )
    cust = collect(
        rd.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
    )
    supp = collect(
        rd.read_parquet(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        )
    )
    nation = collect(
        rd.read_parquet(
            f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
        )
    )
    if cust is None or supp is None or nation is None:
        return pa.table(
            {
                "src_host": pa.array([], pa.string()),
                "dst_host": pa.array([], pa.string()),
                "n_links": pa.array([], pa.int64()),
            }
        )
    cust_ref = ray.put(
        (
            pc.cast(cust["c_custkey"], pa.int64()).combine_chunks(),
            pc.cast(cust["c_nationkey"], pa.int64()).combine_chunks(),
        )
    )
    supp_ref = ray.put(
        (
            pc.cast(supp["s_suppkey"], pa.int64()).combine_chunks(),
            pc.cast(supp["s_nationkey"], pa.int64()).combine_chunks(),
        )
    )

    def edges_of(od: pa.Table, li: pa.Table) -> pa.Table:
        import numpy as np

        if li.num_rows == 0:
            return pa.table(
                {
                    "sn": pa.array([], pa.int64()),
                    "dn": pa.array([], pa.int64()),
                    "w": pa.array([], pa.int64()),
                }
            )
        od = od.sort_by([("o_orderkey", "ascending")])
        ok = od["o_orderkey"].to_numpy(zero_copy_only=False)
        oc = od["o_custkey"].to_numpy(zero_copy_only=False)
        lk = li["k"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(ok, lk), max(len(ok) - 1, 0))
        if len(ok) == 0 or not np.array_equal(ok[pos], lk):
            raise ValueError(
                "trade_nation_edges: lineitem references missing orderkey"
            )
        ck, cn = ray.get(cust_ref)
        sk, sn = ray.get(supp_ref)
        src_idx = pc.index_in(pa.array(oc[pos], pa.int64()), value_set=ck)
        dst_idx = pc.index_in(li["supp"].combine_chunks(), value_set=sk)
        # the oracle's inner joins DROP rows with dangling cust/supp keys;
        # fail loud instead of silently emitting null-nation edges (same
        # policy as the missing-orderkey guard above)
        if src_idx.null_count or dst_idx.null_count:
            raise ValueError(
                "trade_nation_edges: order references missing customer "
                "or lineitem references missing supplier"
            )
        src = cn.take(src_idx)
        dst = sn.take(dst_idx)
        t = pa.table(
            {
                "sn": src,
                "dn": dst,
                "w": pa.array(np.ones(li.num_rows, dtype=np.int64)),
            }
        )
        agg = t.group_by(["sn", "dn"]).aggregate([("w", "sum")])
        return pa.table(
            {"sn": agg["sn"], "dn": agg["dn"], "w": agg["w_sum"]}
        )

    parts = collect(
        keyed_join(
            orders,
            lineitem.map_batches(
                _hi_qty_pairs, fn_kwargs={"min_qty": min_qty}, batch_format="pyarrow"
            ),
            ["o_orderkey"], ["k"], edges_of,
            n_parts=_raw_parts(sf_dir, "orders", "lineitem"),
        )
    )
    if parts is None:
        return pa.table(
            {
                "src_host": pa.array([], pa.string()),
                "dst_host": pa.array([], pa.string()),
                "n_links": pa.array([], pa.int64()),
            }
        )
    g = parts.group_by(["sn", "dn"]).aggregate([("w", "sum")])
    nk = pc.cast(nation["n_nationkey"], pa.int64()).combine_chunks()
    nm = nation["n_name"].combine_chunks()
    return pa.table(
        {
            "src_host": pc.cast(
                nm.take(pc.index_in(g["sn"].combine_chunks(), value_set=nk)),
                pa.string(),
            ),
            "dst_host": pc.cast(
                nm.take(pc.index_in(g["dn"].combine_chunks(), value_set=nk)),
                pa.string(),
            ),
            "n_links": pc.cast(g["w_sum"], pa.int64()),
        }
    )


# -------------------------------------------------------------------------
# URL canonicalization — the crawl-frontier / recrawl-dedup operator every
# web corpus needs before exact dedup: scheme+host case, default ports,
# fragments, tracking query params and trailing slashes all collapse to
# one canonical form, so the SAME page fetched via cosmetically different
# URLs dedups. Fully vectorized (pc.extract_regex + replace_substring_regex
# — RE2, the same engine DuckDB's regexp_* use, so ONE set of pattern
# constants drives both the kernel and the SQL oracle, like redact_pii).
# Reference analog: none (single-file uploads have no URL hygiene); this
# is part of the 100 TB curation surface beside dedup_exact.
# -------------------------------------------------------------------------

URL_SPLIT_RE = (
    r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
    r"(?P<host>[^/?#]*)(?P<path>[^?#]*)(?P<rest>.*)$"
)
TRACK_MID_RE = r"&(utm_[^&=]*|fbclid|gclid)=[^&]*"
TRACK_HEAD_RE = r"^(utm_[^&=]*|fbclid|gclid)=[^&]*&?"


def canonicalize_urls(urls: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized canonical form: lowercase scheme+host, strip the scheme's
    default port (:80 http / :443 https), drop the fragment, drop tracking
    query params (utm_*, fbclid, gclid; other params keep their order),
    collapse trailing slashes (empty path -> '/'). Unparseable rows -> null."""
    parts = pc.extract_regex(urls, pattern=URL_SPLIT_RE)
    scheme = pc.utf8_lower(pc.struct_field(parts, "scheme"))
    host = pc.utf8_lower(pc.struct_field(parts, "host"))
    host = pc.if_else(
        pc.equal(scheme, "https"),
        pc.replace_substring_regex(host, pattern=r":443$", replacement=""),
        pc.if_else(
            pc.equal(scheme, "http"),
            pc.replace_substring_regex(host, pattern=r":80$", replacement=""),
            host,
        ),
    )
    path = pc.replace_substring_regex(
        pc.struct_field(parts, "path"), pattern=r"/+$", replacement=""
    )
    path = pc.if_else(pc.equal(path, ""), pa.scalar("/"), path)
    rest = pc.struct_field(parts, "rest")
    query = pc.struct_field(
        pc.extract_regex(rest, pattern=r"^\?(?P<q>[^#]*)"), "q"
    )
    # rest without a leading '?' (no query, maybe a bare fragment) -> ''
    query = pc.fill_null(query, "")
    query = pc.replace_substring_regex(
        query, pattern=TRACK_MID_RE, replacement=""
    )
    query = pc.replace_substring_regex(
        query, pattern=TRACK_HEAD_RE, replacement=""
    )
    qmark = pc.if_else(pc.equal(query, ""), pa.scalar(""), pa.scalar("?"))
    return pc.binary_join_element_wise(
        scheme, "://", host, path, qmark, query, ""
    )


def messy_urls_batch(batch: pa.Table) -> pa.Table:
    """Deterministic messy-URL synthesis from doc_id (the test bridge, like
    docs_to_pages): groups of 4 consecutive doc_ids share one canonical
    target and differ only in case, default port, tracking params, trailing
    slash and fragment. Every branch is plain modular arithmetic so the
    DuckDB oracle rebuilds the identical strings."""
    d = pc.cast(batch["doc_id"], pa.int64())
    dn = d.to_numpy(zero_copy_only=False)
    g = pa.array(dn // 4, pa.int64())
    ref = pc.cast(pa.array((dn // 4) % 10, pa.int64()), pa.string())

    def pick(mask: "np.ndarray", yes: str, no) -> pa.Array:
        m = pa.array(mask)
        return pc.if_else(m, pa.scalar(yes), no)

    scheme = pick(dn % 2 == 0, "https", pa.scalar("HTTPS"))
    host = pick(
        dn % 3 == 0,
        "TestData.Local",
        pick(dn % 3 == 1, "testdata.local", pa.scalar("TESTDATA.LOCAL")),
    )
    port = pick(dn % 5 == 0, ":443", pa.scalar(""))
    pathid = pc.ascii_lpad(pc.cast(g, pa.string()), 8, "0")
    slash = pick(dn % 7 == 0, "/", pa.scalar(""))
    query = pc.if_else(
        pa.array(dn % 4 == 0),
        pc.binary_join_element_wise("?utm_source=feed&ref=", ref, ""),
        pc.if_else(
            pa.array(dn % 4 == 1),
            pc.binary_join_element_wise("?ref=", ref, "&utm_campaign=x", ""),
            pc.binary_join_element_wise("?ref=", ref, ""),
        ),
    )
    frag = pick(dn % 6 == 0, "#sec2", pa.scalar(""))
    url = pc.binary_join_element_wise(
        scheme, "://", host, port, "/doc/", pathid, slash, query, frag, ""
    )
    return pa.table({"doc_id": d, "url": pc.cast(url, pa.string())})


def canonical_urls(sf_dir: str) -> rd.Dataset:
    """(doc_id, url, canonical_url) over the synthesized messy-URL table —
    the canonicalization kernel checked row by row."""

    def f(batch: pa.Table) -> pa.Table:
        t = messy_urls_batch(batch)
        return t.append_column(
            "canonical_url",
            pc.cast(canonicalize_urls(t["url"]), pa.string()),
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(f, batch_format="pyarrow")


def canonical_url_dedup(sf_dir: str) -> rd.Dataset:
    """Frontier dedup over canonical forms: one row per canonical URL with
    the variant count and the first-wins doc_id — the standard two-phase
    aggregate (per-batch partials, one tiny keyed exchange)."""
    from .agg import grouped_sum, partial_group_agg

    def partial(batch: pa.Table) -> pa.Table:
        t = messy_urls_batch(batch)
        canon = pc.cast(canonicalize_urls(t["url"]), pa.string())
        p = pa.table(
            {
                "canonical_url": canon,
                "n_variants": pa.array([1] * t.num_rows, pa.int64()),
                "keep_doc_id": t["doc_id"],
            }
        )
        return partial_group_agg(
            p,
            keys=["canonical_url"],
            aggs=[("n_variants", "sum"), ("keep_doc_id", "min")],
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return grouped_sum(
        ds,
        keys=["canonical_url"],
        partial=partial,
        sum_cols=["n_variants"],
        min_cols=["keep_doc_id"],
    )


def trade_pagerank(
    sf_dir: str, *, min_qty: int = 50, damping: float = 0.85, iters: int = 10
) -> pa.Table:
    """(nation, rank_ppm): PageRank over the nation-level trade graph."""
    edges = trade_nation_edges(sf_dir, min_qty=min_qty)
    ranks = pagerank_edges(
        rd.from_arrow(edges), damping=damping, iters=iters
    )
    return ranks.rename_columns(["nation", "rank_ppm"])
