"""Planted-structure / invariant coverage for the round-2 additions
(vocab build, normalization, paragraph explode, domain cap, k-NN
classify) beyond the synthetic-table oracle parametrization in
test_queries.py."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _docs_dir(tmp_path, rows, name="docs"):
    d = tmp_path / name
    d.mkdir()
    pq.write_table(pa.table(rows), str(d / "documents.parquet"))
    return str(d)


def test_explode_paragraphs_roundtrip(ray_session, tmp_path):
    """Rejoining paragraphs by doc in index order reproduces the input
    byte-for-byte (split is lossless), including empty paragraphs and
    whitespace-only docs."""
    from pdf_extractor_ray.functions.textops import explode_paragraphs

    texts = [
        "one para",
        "a\n\nb\n\nc",
        "",
        "\n\n",          # two empty paragraphs
        "x\n\n\n\ny",    # empty middle paragraph
        "  spaced  \n\n\ttabbed\t",
    ]
    sf = _docs_dir(
        tmp_path,
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        },
    )
    df = explode_paragraphs(sf).to_pandas()
    assert list(df.columns) == ["doc_id", "para_idx", "para", "para_chars"]
    rebuilt = (
        df.sort_values(["doc_id", "para_idx"])
        .groupby("doc_id")["para"]
        .agg("\n\n".join)
    )
    for i, t in enumerate(texts):
        assert rebuilt[i] == t, f"doc {i} not roundtripped"
    assert (df["para_chars"] == df["para"].str.len()).all()


def test_cap_per_source_invariants(ray_session, tmp_path):
    """Never more than `cap` rows per source; kept ids are exactly the
    `cap` smallest doc_ids of each source."""
    from pdf_extractor_ray.functions.textops import cap_per_source

    rng = np.random.default_rng(7)
    n = 600
    sources = [f"site{i}" for i in rng.integers(0, 5, n)]
    ids = rng.permutation(n).astype(np.int64)
    sf = _docs_dir(
        tmp_path,
        {
            "doc_id": pa.array(ids),
            "text": pa.array(["t"] * n),
            "source": pa.array(sources),
        },
    )
    out = cap_per_source(sf, cap=30).to_pandas()
    counts = out.groupby("source")["doc_id"].count()
    assert (counts <= 30).all()
    gold = (
        pd.DataFrame({"source": sources, "doc_id": ids})
        .sort_values(["source", "doc_id"])
        .groupby("source")
        .head(30)
    )
    got = set(map(tuple, out[["source", "doc_id"]].itertuples(index=False)))
    want = set(map(tuple, gold.itertuples(index=False)))
    assert got == want


def test_vocab_topk_planted(ray_session, tmp_path):
    """Counts are total occurrences (not document frequency) and the
    (cnt desc, term asc) tie-break is honored."""
    from pdf_extractor_ray.functions.textops import vocab_topk

    texts = ["apple apple banana", "apple cherry", "Banana! CHERRY, date"]
    sf = _docs_dir(
        tmp_path,
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        },
    )
    t = vocab_topk(sf, k=3).to_pandas()
    assert list(t["term"]) == ["apple", "banana", "cherry"]
    assert list(t["cnt"]) == [3, 2, 2]


def test_knn_classify_planted_clusters(ray_session, tmp_path):
    """Queries planted inside a tight label cluster get that label."""
    from pdf_extractor_ray.functions.similarity import knn_classify

    rng = np.random.default_rng(3)
    dim, per = 16, 40
    centers = rng.normal(size=(3, dim)) * 10
    vecs, labels = [], []
    # 4 queries near center of their (known) cluster, then reference set
    qlabels = [0, 1, 2, 1]
    for ql in qlabels:
        vecs.append(centers[ql] + rng.normal(size=dim) * 0.01)
        labels.append(-1)  # query label ignored by the op
    for lab in range(3):
        for _ in range(per):
            vecs.append(centers[lab] + rng.normal(size=dim) * 0.01)
            labels.append(lab)
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [v.astype(np.float32) for v in vecs],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array(labels, pa.int32()),
            }
        ),
        str(d / "embeddings.parquet"),
    )
    out = knn_classify(str(d), k=5, n_queries=4).to_pandas()
    assert list(out["vec_id"]) == [0, 1, 2, 3]
    assert list(out["pred_label"]) == qlabels


def test_normalize_text_idempotent(ray_session, tmp_path):
    from pdf_extractor_ray.functions.textops import normalize_text

    texts = ["  A\t\tB\nC  ", "x", "", "\r\n\f\v", "ÄÖÜ  ß"]
    sf = _docs_dir(
        tmp_path,
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        },
    )
    one = normalize_text(sf).to_pandas().sort_values("doc_id")
    assert list(one["norm_text"]) == ["a b c", "x", "", "", "äöü ß"]
    # idempotence: normalizing the normalized text is a fixed point
    sf2 = _docs_dir(
        tmp_path,
        {
            "doc_id": one["doc_id"].to_numpy(),
            "text": pa.array(list(one["norm_text"])),
        },
        name="docs2",
    )
    two = normalize_text(sf2).to_pandas().sort_values("doc_id")
    assert list(two["norm_text"]) == list(one["norm_text"])


def test_cust_order_counts_left_outer_zero(ray_session, tmp_path):
    """Customers without any order must survive the left-outer join with
    n_orders = 0 (the null-fill path the synthetic tables may not hit), on
    the broadcast probe and on the keyed_join scale path alike; with 4
    customers most scale-path buckets hold one side only."""
    from pdf_extractor_ray.functions.relational import cust_order_counts

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"c_custkey": pa.array([1, 2, 3, 4], pa.int64())}),
        str(d / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array([1, 1, 3], pa.int64()),
                "o_orderkey": pa.array([10, 11, 12], pa.int64()),
            }
        ),
        str(d / "orders.parquet"),
    )
    for br in (0, 5_000_000):
        out = (
            cust_order_counts(str(d), broadcast_rows=br)
            .to_pandas()
            .sort_values("c_custkey")
            .reset_index(drop=True)
        )
        assert list(out["c_custkey"]) == [1, 2, 3, 4], br
        assert list(out["n_orders"]) == [2, 0, 1, 0], br


def test_filter_source_quality_drops_bad_domain(ray_session, tmp_path):
    """A source failing the aggregate thresholds is dropped wholesale,
    including its individually-fine documents; good sources keep all."""
    from pdf_extractor_ray.functions.textops import filter_source_quality

    good = "word " * 60               # long, 20% spaces
    garbage = "x" * 500               # long but zero spaces
    texts = [good, good, garbage, garbage, good]
    sources = ["a.com", "a.com", "spam.com", "spam.com", "spam.com"]
    # spam.com has one good doc but aggregate space share ~7% -> all dropped
    sf = _docs_dir(
        tmp_path,
        {
            "doc_id": pa.array(range(5), pa.int64()),
            "text": pa.array(texts),
            "source": pa.array(sources),
        },
    )
    out = filter_source_quality(sf).to_pandas()
    assert set(out["source"]) == {"a.com"}
    assert sorted(out["doc_id"]) == [0, 1]


def test_user_customer_reconcile_both_paths(ray_session, tmp_path):
    """The keyed_join full-outer and the broadcast merge agree with each
    other and with a pandas gold, including both null sides (event-less
    customers, non-customer users)."""
    from pdf_extractor_ray.functions.relational import user_customer_reconcile

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"c_custkey": pa.array(np.arange(1, 401), pa.int64())}),
        str(d / "customer.parquet"),
    )
    rng = np.random.default_rng(5)
    users = rng.integers(201, 601, 3000).astype(np.int64)
    pq.write_table(
        pa.table(
            {
                "user_id": pa.array(users),
                "event_id": pa.array(np.arange(3000), pa.int64()),
            }
        ),
        str(d / "events.parquet"),
    )
    counts = pd.Series(users).value_counts()
    keys = sorted(set(range(1, 401)) | set(counts.index))
    gold = pd.DataFrame({"key": keys})
    gold["n_events"] = gold["key"].map(counts).fillna(0).astype("int64")
    gold["is_customer"] = gold["key"] <= 400
    import ray.data as rd

    for br in (0, 5_000_000):
        out = user_customer_reconcile(str(d), broadcast_rows=br)
        df = out.to_pandas() if isinstance(out, rd.Dataset) else out.to_pandas()
        got = df.sort_values("key").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, gold, check_dtype=True)


def test_funnel_counts_tie_semantics_planted(ray_session, tmp_path):
    """Strictly-later rule: a click AT the first-view timestamp does not
    qualify; one microsecond later does. Matches the DuckDB oracle on the
    same planted events."""
    import duckdb

    import __ray_entry__ as E
    from pdf_extractor_ray.functions.relational import funnel_counts

    base = pd.Timestamp("2024-01-01 00:00:00")
    us = pd.Timedelta(microseconds=1)
    rows = [
        # user 1: full funnel (view < click < purchase)
        (1, "view", base),
        (1, "click", base + 10 * us),
        (1, "purchase", base + 20 * us),
        # user 2: click TIES first view -> stage 2 not reached
        (2, "view", base),
        (2, "click", base),
        (2, "purchase", base + 10 * us),
        # user 3: purchase TIES first qualifying click -> stage 3 not reached
        (3, "view", base),
        (3, "click", base + 5 * us),
        (3, "purchase", base + 5 * us),
        # user 4: click BEFORE any view -> stage 2 not reached
        (4, "click", base),
        (4, "view", base + 5 * us),
        # user 5: view only
        (5, "view", base),
        # user 6: purchase before the funnel -> only stage 1
        (6, "purchase", base),
        (6, "view", base + 5 * us),
    ]
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_type": pa.array([r[1] for r in rows], pa.string()),
                "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            }
        ),
        str(d / "events.parquet"),
    )
    got = funnel_counts(str(d)).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS"
        f" SELECT * FROM read_parquet('{d}/events.parquet')"
    )
    exp = con.execute(E.oracle_sql()["funnel_counts"]).fetchdf()
    pd.testing.assert_frame_equal(got, exp)
    # stage 2 = users 1 and 3 (user 3's click is later than its view; only
    # its purchase ties); stage 3 = user 1 alone
    assert dict(zip(got["stage"], got["users"])) == {
        "1_view": 6,
        "2_click": 2,
        "3_purchase": 1,
    }


def test_extract_links_long_table_over_sf(ray_session):
    """Every synthesized page carries exactly 3 anchors (nav home/about +
    footer tos), in document order, with hosts resolving to the page host."""
    from pdf_extractor_ray.functions.links import extract_links, link_hosts

    sf = "/root/testdata/sf0.001"
    n_docs = pq.read_metadata(f"{sf}/documents.parquet").num_rows
    links = extract_links(sf).to_pandas()
    assert len(links) == 3 * n_docs
    per = links.groupby("url")["link_idx"].agg(["count", "min", "max"])
    assert (per["count"] == 3).all()
    assert (per["min"] == 0).all() and (per["max"] == 2).all()
    assert set(links["href"]) == {"/", "/about", "/tos"}
    assert set(links["anchor"]) == {"home", "about", "terms"}

    hosts = link_hosts(sf).to_pandas()
    assert len(hosts) == 1
    row = hosts.iloc[0]
    assert row["src_host"] == "testdata.local"
    assert row["dst_host"] == "testdata.local"  # relative hrefs resolve home
    assert row["n_links"] == 3 * n_docs


def test_link_hosts_resolves_absolute_hrefs(ray_session, tmp_path):
    """Absolute hrefs land on their own host in the edge list; relative
    ones resolve against the page url (urljoin semantics)."""
    from pdf_extractor_ray.functions.links import links_batch, link_hosts

    batch = pa.table(
        {
            "url": ["https://src.example/page/1"],
            "html": [
                b"<p><a href='https://other.example/x'>abs</a>"
                b"<a href='rel/y'>rel</a></p>"
            ],
        }
    )
    t = links_batch(batch).to_pandas()
    assert list(t["href"]) == ["https://other.example/x", "rel/y"]


def test_vocab_topk_sketch_bounds_vs_exact(ray_session):
    """Misra-Gries guarantee vs the exact operator at sf0.001:
    cnt_est <= true <= cnt_est + err_bound for every reported term, and
    the exact top terms all survive (their counts dwarf the bound)."""
    from pdf_extractor_ray.functions.textops import vocab_topk, vocab_topk_sketch

    sf = "/root/testdata/sf0.001"
    exact = vocab_topk(sf, k=100_000)  # full exact vocabulary
    truth = dict(zip(exact["term"].to_pylist(), exact["cnt"].to_pylist()))
    sk = vocab_topk_sketch(sf, k=100)
    err = sk["err_bound"][0].as_py() if sk.num_rows else 0
    for term, est in zip(sk["term"].to_pylist(), sk["cnt_est"].to_pylist()):
        true = truth[term]
        assert est <= true <= est + err, (term, est, true, err)
    top20 = exact.slice(0, 20)["term"].to_pylist()
    assert set(top20) <= set(sk["term"].to_pylist())


def test_vocab_topk_sketch_compression_planted(ray_session, tmp_path):
    """With a tiny cap the sketch must still surface a planted heavy
    hitter among high-cardinality noise, with a valid deficit bound."""
    from pdf_extractor_ray.functions.textops import vocab_topk_sketch

    rows = {
        "doc_id": list(range(200)),
        # every doc: 5x the heavy term + 10 unique noise terms
        "text": [
            ("heavyterm " * 5) + " ".join(f"noise{i}x{j}" for j in range(10))
            for i in range(200)
        ],
    }
    d = _docs_dir(tmp_path, rows, "mg")
    sk = vocab_topk_sketch(d, k=10, cap=64).to_pandas()
    assert "heavyterm" in set(sk["term"])
    r = sk[sk["term"] == "heavyterm"].iloc[0]
    assert r["cnt_est"] <= 1000 <= r["cnt_est"] + r["err_bound"]


def test_pagerank_planted_graph(ray_session):
    """Classic 3-node graph: A->B, A->C, B->C, C->A. Compare against the
    dense-matrix fixed point computed independently here."""
    import numpy as np
    import ray.data as rd
    from pdf_extractor_ray.functions.links import pagerank_edges

    edges = rd.from_arrow(
        pa.table(
            {
                "src_host": ["a", "a", "b", "c"],
                "dst_host": ["b", "c", "c", "a"],
                "n_links": pa.array([1, 1, 1, 1], pa.int64()),
            }
        )
    )
    got = pagerank_edges(edges, iters=50).to_pandas().set_index("host")

    # reference: dense power iteration
    M = np.zeros((3, 3))  # column-stochastic: M[j, i] = w(i->j)/out(i)
    M[1, 0] = M[2, 0] = 0.5
    M[2, 1] = 1.0
    M[0, 2] = 1.0
    r = np.full(3, 1 / 3)
    for _ in range(50):
        r = 0.15 / 3 + 0.85 * (M @ r)
    for h, i in (("a", 0), ("b", 1), ("c", 2)):
        assert abs(got.loc[h, "rank_ppm"] - round(r[i] * 1e6)) <= 1

    # dangling node: b gets no out-edges
    edges2 = rd.from_arrow(
        pa.table(
            {
                "src_host": ["a"],
                "dst_host": ["b"],
                "n_links": pa.array([1], pa.int64()),
            }
        )
    )
    got2 = pagerank_edges(edges2, iters=60).to_pandas().set_index("host")
    # closed form with dangling redistribution: total mass stays 1
    assert abs(got2["rank_ppm"].sum() - 1_000_000) <= 2
    assert got2.loc["b", "rank_ppm"] > got2.loc["a", "rank_ppm"]


def test_host_pagerank_single_host_corpus(ray_session):
    from pdf_extractor_ray.functions.links import host_pagerank

    got = host_pagerank("/root/testdata/sf0.001", iters=5).to_pandas()
    assert list(got["host"]) == ["testdata.local"]
    assert got["rank_ppm"].iloc[0] == 1_000_000


def test_train_bpe_merges_planted(ray_session, tmp_path):
    """Hand-computed first merges: corpus 'aaab' x3 + 'aab' x2 gives
    (a,a)=8 first; after merging, (aa,a)=3 ties (a,b)=3 and the
    lexicographic tie-break picks (a,b)."""
    from pdf_extractor_ray.functions.textops import train_bpe_merges

    texts = ["aaab aaab", "aaab aab", "aab"]
    sf = _docs_dir(
        tmp_path,
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        },
    )
    t = train_bpe_merges(sf, n_merges=3).to_pandas()
    got = list(zip(t["left"], t["right"], t["pair_count"]))
    assert got[0] == ("a", "a", 8)
    assert got[1] == ("a", "b", 3)
    # after (a,a) and (a,b): 'aaab' = [aa, ab], 'aab' = [aa, b]
    # pairs: (aa,ab)=3, (aa,b)=2 -> third merge (aa, ab)
    assert got[2] == ("aa", "ab", 3)


def test_bpe_token_count_planted(ray_session, tmp_path):
    """Hand-applied merges on the trainer-test corpus: with merges
    (a,a),(a,b),(aa,ab) the word 'aaab' collapses to 1 token and 'aab'
    to 2 ([aa, b] — no (a,b) pair survives the first merge)."""
    from pdf_extractor_ray.functions.textops import bpe_token_count

    texts = ["aaab aaab", "aaab aab", "aab", ""]
    sf = _docs_dir(
        tmp_path,
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        },
    )
    df = (
        bpe_token_count(sf, n_merges=3)
        .to_pandas()
        .set_index("doc_id")["n_tokens_bpe"]
    )
    assert df.to_dict() == {0: 2, 1: 3, 2: 2, 3: 0}


def test_validate_docs_planted_violations(ray_session, tmp_path):
    """Each rule fires on its planted row: a null text, a wrong n_chars,
    an unknown lang, and a duplicated doc_id."""
    from pdf_extractor_ray.functions.textops import validate_docs

    rows = {
        "doc_id": pa.array([1, 2, 3, 4, 4], pa.int64()),
        "text": pa.array(["ok", None, "abc", "x", "y"], pa.string()),
        "lang": pa.array(["en", "de", "xx", "fr", "es"], pa.string()),
        "n_chars": pa.array([2, 0, 99, 1, 1], pa.int64()),
    }
    sf = _docs_dir(tmp_path, rows)
    df = validate_docs(sf).to_pandas().set_index("rule")["violations"]
    assert df["null_text"] == 1
    # doc 2's null text: length(NULL) is null -> n_chars != null is null,
    # FILTER drops it; doc 3 has 99 != 3
    assert df["bad_n_chars"] == 1
    assert df["unknown_lang"] == 1
    assert df["dup_doc_id"] == 1


def test_validate_refs_planted_orphans(ray_session, tmp_path):
    """Orphaned FK rows are counted exactly; intact rows are not."""
    import pyarrow as pa

    from pdf_extractor_ray.functions.relational import validate_refs

    d = tmp_path / "fk"
    d.mkdir()
    pq.write_table(
        pa.table({"c_custkey": pa.array([1, 2], pa.int64())}),
        str(d / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([10, 11, 12], pa.int64()),
                "o_custkey": pa.array([1, 2, 99], pa.int64()),  # 99 orphan
            }
        ),
        str(d / "orders.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([10, 77, 88], pa.int64()),  # 2 orphans
            }
        ),
        str(d / "lineitem.parquet"),
    )
    df = validate_refs(str(d)).to_pandas().set_index("rule")["violations"]
    assert df["orphan_order_cust"] == 1
    assert df["orphan_lineitem_order"] == 2


def test_vocab_counts_cms_bounds(ray_session):
    """Count-Min guarantees: est >= true always; the overestimate is
    bounded by the sketch's eps*N (e/w per row, min over d rows — assert
    a generous deterministic multiple)."""
    import duckdb

    from pdf_extractor_ray.functions.textops import _CMS_W, vocab_counts_cms

    sf = "/root/testdata/sf0.001"
    out = vocab_counts_cms(sf, k=20)
    assert out.num_rows == 20
    est = out["est"].to_pylist()
    cnt = out["cnt"].to_pylist()
    assert all(e >= c for e, c in zip(est, cnt))  # never underestimates
    n_tokens = duckdb.sql(
        "SELECT SUM(len(regexp_extract_all(lower(text), '[a-z0-9]+')))"
        f" FROM '{sf}/documents.parquet'"
    ).fetchone()[0]
    bound = 8 * n_tokens // _CMS_W + 1
    assert all(e - c <= bound for e, c in zip(est, cnt)), (
        max(e - c for e, c in zip(est, cnt)),
        bound,
    )


def test_canonicalize_urls_edge_cases():
    """Kernel branches beyond what the synthesized messy-URL corpus hits:
    http default port, bare fragment, root/empty path, multi trailing
    slashes, tracking-only query, non-default port kept, unparseable."""
    import pyarrow as pa

    from pdf_extractor_ray.functions.links import canonicalize_urls

    cases = {
        "http://Example.COM:80/a": "http://example.com/a",
        "http://example.com:8080/a": "http://example.com:8080/a",
        "https://example.com": "https://example.com/",
        "https://example.com/#frag": "https://example.com/",
        "https://example.com/a///": "https://example.com/a",
        "https://example.com/a?utm_source=x": "https://example.com/a",
        "https://example.com/a?utm_source=x&fbclid=1": "https://example.com/a",
        "https://example.com/a?b=1&utm_medium=m&c=2": "https://example.com/a?b=1&c=2",
        "HTTP://EX.COM/A?GCLID=1": "http://ex.com/A?GCLID=1",  # params case-sensitive
        "not a url": None,
    }
    got = canonicalize_urls(pa.array(list(cases), pa.string())).to_pylist()
    assert got == list(cases.values())


def test_canonical_url_dedup_groups(ray_session):
    """Groups of 4 consecutive doc_ids share one canonical target; the
    first-wins id is the group's smallest doc_id. Expected group sizes are
    derived from the actual doc_id range (a corpus whose row count is not
    a multiple of 4 leaves a smaller final group — ADVICE r4)."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.functions.links import canonical_url_dedup

    doc_ids = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
    )["doc_id"].to_pylist()
    expected = {}
    for d in doc_ids:
        g = (d // 4) * 4
        expected[g] = expected.get(g, 0) + 1

    df = canonical_url_dedup("/root/testdata/sf0.001").to_pandas()
    assert (df["keep_doc_id"] % 4 == 0).all() or set(
        df["keep_doc_id"]
    ) == set(expected)
    got = dict(zip(df["keep_doc_id"], df["n_variants"]))
    # first-wins id = smallest doc_id present in the group
    assert got == {
        min(d for d in doc_ids if (d // 4) * 4 == g): n
        for g, n in expected.items()
    }
    assert df["canonical_url"].str.startswith("https://testdata.local/doc/").all()


def test_blocklist_filter_branches(ray_session):
    """Both gate branches are populated on the corpus (the oracle hash
    check alone could pass on an all-keep table) and the word-boundary
    rule holds: substring hits ('aggregate') don't count."""
    import pyarrow as pa

    from pdf_extractor_ray.functions.textops import blocklist_filter, blocklist_re
    import pyarrow.compute as pc

    df = blocklist_filter("/root/testdata/sf0.001").to_pandas()
    assert df["keep"].any() and (~df["keep"]).any()
    assert (df["n_blocked"] <= df["n_tokens"]).all()
    hits = pc.count_substring_regex(
        pa.array(["aggregate merges windowing", "the agg window"]),
        pattern=blocklist_re(),
    ).to_pylist()
    assert hits == [0, 2]


def test_pagerank_forced_distributed_path(ray_session, monkeypatch):
    """The >_LOCAL_EDGE_LIMIT broadcast-round path must produce the SAME
    ranks as the driver-local fast path (planted 3-node graph, threshold
    forced to 0 so the distributed iterations actually run)."""
    import ray.data as rd

    from pdf_extractor_ray.functions import links

    t = pa.table(
        {
            "src_host": ["a", "a", "b", "c"],
            "dst_host": ["b", "c", "c", "a"],
            "n_links": pa.array([1, 1, 1, 1], pa.int64()),
        }
    )
    local = links.pagerank_edges(rd.from_arrow(t), iters=25).to_pandas()
    monkeypatch.setattr(links, "_LOCAL_EDGE_LIMIT", 0)
    dist = links.pagerank_edges(rd.from_arrow(t), iters=25).to_pandas()
    assert local.sort_values("host").reset_index(drop=True).equals(
        dist.sort_values("host").reset_index(drop=True)
    )
