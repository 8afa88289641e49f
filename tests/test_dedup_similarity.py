"""Deeper coverage: distributed dup-index path parity, planted near-dups
for MinHash/embedding dedup, ANN recall vs brute force, filtered sources."""

import os
import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _set_tasks(monkeypatch, pages, n_tasks: int) -> None:
    """Make ``build_dup_index`` over ``pages`` run ``n_tasks`` url ranges,
    by ``_KEYS_PER_TASK``."""
    from pdf_extractor_ray.sources.pages import count_rows
    from pdf_extractor_ray.stages import dedup

    n = count_rows(str(pages))
    per = -(-n // n_tasks)
    assert -(-n // per) == n_tasks
    monkeypatch.setattr(dedup, "_KEYS_PER_TASK", per)


def test_dup_index_distributed_path_parity(ray_session, small_corpus, monkeypatch):
    """build_dup_index in several map and reduce tasks (M = R = 3 over the
    8 shards) must give the one-task index, row for row."""
    from pdf_extractor_ray.stages import dedup

    fast = dedup.build_dup_index(small_corpus["corpus"])
    assert fast is not None
    _set_tasks(monkeypatch, small_corpus["corpus"], 3)
    dist = dedup.build_dup_index(small_corpus["corpus"])
    assert (fast is None) == (dist is None)
    if fast is not None:
        f = fast.sort_by("url")
        d = dist.sort_by("url")
        assert f["url"].to_pylist() == d["url"].to_pylist()
        assert f["min_ts"].to_pylist() == d["min_ts"].to_pylist()
        assert f["n_at_min"].to_pylist() == d["n_at_min"].to_pylist()
        assert f["win_file"].to_pylist() == d["win_file"].to_pylist()
        assert f["win_row"].to_pylist() == d["win_row"].to_pylist()


def _tied_pages_dir(tmp_path) -> str:
    """Two shards sharing one url at the SAME warc_ts (identical payload) —
    the cross-shard tie the synthetic corpus never generates. The winning
    copy is row 1 of the first shard, the other row 0 of the second, so a
    copy credited to the wrong shard changes ``win_row``."""
    import datetime as dt

    d = tmp_path / "tied_pages"
    d.mkdir()
    t_tie = dt.datetime(2024, 5, 1, 12, 0, 0, tzinfo=dt.timezone.utc)
    t_other = dt.datetime(2024, 5, 2, 12, 0, 0, tzinfo=dt.timezone.utc)
    html = b"<html><body><p>Shared capture body text for ties.</p></body></html>"

    def tab(urls, tss):
        n = len(urls)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.timestamp("us", tz="UTC")),
                "html": pa.array([html] * n, pa.large_binary()),
                "text": pa.array([""] * n, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
            }
        )

    pq.write_table(
        tab(["http://a.example/", "http://tie.example/"], [t_other, t_tie]),
        str(d / "part-00000.parquet"),
    )
    pq.write_table(
        tab(["http://tie.example/", "http://b.example/"], [t_tie, t_other]),
        str(d / "part-00001.parquet"),
    )
    return str(d)


def test_cross_shard_tie_collapses_globally(ray_session, tmp_path, monkeypatch):
    """Equal-(url, warc_ts) rows in DIFFERENT shards must yield exactly one
    output row in both physical modes (win_file provenance check), and the
    dup index in one task and in two maps and four url ranges must agree
    on the tie columns."""
    from pdf_extractor_ray.pipelines import extract as E
    from pdf_extractor_ray.stages import dedup

    pages = _tied_pages_dir(tmp_path)
    idx = dedup.build_dup_index(pages)
    assert idx.num_rows == 1
    assert idx["url"][0].as_py() == "http://tie.example/"
    assert idx["n_at_min"][0].as_py() == 2
    assert idx["win_file"][0].as_py().endswith("part-00000.parquet")
    assert idx["win_row"][0].as_py() == 1

    _set_tasks(monkeypatch, pages, 4)
    dist = dedup.build_dup_index(pages)
    monkeypatch.undo()
    assert dist.sort_by("url").to_pylist() == idx.sort_by("url").to_pylist()

    # stream mode: batch_size=1 forces the tie rows into separate batches
    ds = E.extracted_dataset(pages, batch_size=1, concurrency=2)
    urls = sorted(r["url"] for r in ds.select_columns(["url"]).take_all())
    assert urls == ["http://a.example/", "http://b.example/", "http://tie.example/"]

    # checkpoint mode: one partition per shard, tie spans partitions
    out = str(tmp_path / "tied_out")
    E.run_checkpoint(pages, out, n_partitions=2)
    got = sorted(
        r["url"]
        for r in E.read_extracted(out).select_columns(["url"]).take_all()
    )
    assert got == ["http://a.example/", "http://b.example/", "http://tie.example/"]


def test_same_file_tie_collapses_in_stream_mode(ray_session, tmp_path):
    """Equal-(url, warc_ts) rows stored TWICE inside ONE shard, forced into
    separate stream batches (batch_size=1), must still collapse to exactly
    one output row — the pre-round-4 documented residual, closed by the
    (win_file, win_row) total order over tie rows."""
    import datetime as dt

    from pdf_extractor_ray.pipelines import extract as E
    from pdf_extractor_ray.stages import dedup

    d = tmp_path / "samefile_pages"
    d.mkdir()
    t_tie = dt.datetime(2024, 5, 1, 12, 0, 0, tzinfo=dt.timezone.utc)
    t_other = dt.datetime(2024, 5, 2, 12, 0, 0, tzinfo=dt.timezone.utc)
    html = b"<html><body><p>Same row stored twice in one shard.</p></body></html>"

    def tab(urls, tss):
        n = len(urls)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.timestamp("us", tz="UTC")),
                "html": pa.array([html] * n, pa.large_binary()),
                "text": pa.array([""] * n, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
            }
        )

    pq.write_table(
        tab(
            ["http://tie.example/", "http://tie.example/", "http://a.example/"],
            [t_tie, t_tie, t_other],
        ),
        str(d / "part-00000.parquet"),
    )
    pq.write_table(
        tab(["http://b.example/"], [t_other]), str(d / "part-00001.parquet")
    )
    pages = str(d)

    idx = dedup.build_dup_index(pages)
    assert idx.num_rows == 1
    assert idx["n_at_min"][0].as_py() == 2
    assert idx["win_file"][0].as_py().endswith("part-00000.parquet")
    assert idx["win_row"][0].as_py() == 0  # first of the two in-file copies

    # stream mode: batch_size=1 puts the two copies in different batches
    ds = E.extracted_dataset(pages, batch_size=1, concurrency=2)
    urls = sorted(r["url"] for r in ds.select_columns(["url"]).take_all())
    assert urls == ["http://a.example/", "http://b.example/", "http://tie.example/"]

    # checkpoint mode (same shard -> same partition; keys-pass row ids)
    out = str(tmp_path / "samefile_out")
    E.run_checkpoint(pages, out, n_partitions=2)
    got = sorted(
        r["url"]
        for r in E.read_extracted(out).select_columns(["url"]).take_all()
    )
    assert got == ["http://a.example/", "http://b.example/", "http://tie.example/"]


def test_minhash_dedup_pairs_empty_on_dupfree_corpus(ray_session, tmp_path):
    """A corpus with zero band collisions must return the empty pair table
    (Dataset.unique returns None, not [], on an empty dataset — this
    crashed with TypeError before the guard)."""
    from pdf_extractor_ray.functions.textops import minhash_dedup_pairs

    d = tmp_path / "nodup"
    d.mkdir()
    texts = [
        " ".join(f"tok{i}x{j}" for j in range(30)) for i in range(20)
    ]  # fully distinct shingle sets
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(20), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = minhash_dedup_pairs(str(d))
    assert out.num_rows == 0
    assert out.column_names == ["doc_a", "doc_b", "jaccard_pct"]


def test_dup_filter_drops_null_ts_rows():
    """A NULL warc_ts on a duplicated url must never beat the real min-ts
    winner (the vectorized rewrite briefly kept null rows via fill_null)."""
    from pdf_extractor_ray.stages.dedup import DupFilter

    ts_type = pa.timestamp("us", tz="UTC")
    batch = pa.table(
        {
            "url": pa.array(["u", "u", "u", "v"]),
            "warc_ts": pa.array([None, 100, 200, 300], ts_type),
            "html": pa.array([b"a", b"b", b"c", b"d"], pa.large_binary()),
        }
    )
    idx = pa.table(
        {
            "url": pa.array(["u"]),
            "min_ts": pa.array([100], ts_type),
            "n_at_min": pa.array([1], pa.int64()),
            "win_file": pa.array([""]),
            "win_row": pa.array([-1], pa.int64()),
        }
    )
    out = DupFilter(idx)(batch)
    assert out["url"].to_pylist() == ["u", "v"]
    assert out["warc_ts"].to_pylist()[0].timestamp() == 100e-6


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    """Tiny tables with PLANTED near-duplicates (documents + embeddings)."""
    root = str(tmp_path_factory.mktemp("planted"))
    rng = random.Random(7)
    base_words = [f"word{i}" for i in range(200)]

    texts, ids = [], []
    for i in range(40):
        words = [rng.choice(base_words) for _ in range(60)]
        texts.append(" ".join(words))
        ids.append(i)
    # plant 5 near-dup pairs: copy with ONE word changed (high jaccard)
    for j in range(5):
        src = texts[j].split()
        src[10] = "CHANGED"
        texts.append(" ".join(src))
        ids.append(100 + j)
    pa_t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(ids), pa.string()),
            "source": pa.array(["t"] * len(ids), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(pa_t, os.path.join(root, "documents.parquet"))

    nprng = np.random.RandomState(7)
    vecs = nprng.standard_normal((40, 32)).astype(np.float32)
    all_vecs = [vecs[i] for i in range(40)]
    vec_ids = list(range(40))
    for j in range(5):  # planted: tiny perturbation -> cosine ~1
        all_vecs.append(vecs[j] + nprng.standard_normal(32).astype(np.float32) * 0.01)
        vec_ids.append(100 + j)
    emb = pa.table(
        {
            "vec_id": pa.array(vec_ids, pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in all_vecs], pa.list_(pa.float32())
            ),
            "label": pa.array([0] * len(vec_ids), pa.int32()),
        }
    )
    pq.write_table(emb, os.path.join(root, "embeddings.parquet"))
    return root


def test_minhash_finds_planted_near_dups(ray_session, planted_dir):
    from pdf_extractor_ray.functions.textops import minhash_dedup_pairs

    pairs = minhash_dedup_pairs(planted_dir, jaccard_threshold=0.5)
    found = set(zip(pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist()))
    for j in range(5):
        assert (j, 100 + j) in found, f"planted pair ({j},{100+j}) missed: {found}"


def test_simhash_dedup_pairs_matches_bruteforce(ray_session, planted_dir):
    """4x16-band blocking is COMPLETE at hamming <= 3 (pigeonhole): the
    pair set must equal the brute-force all-pairs truth."""
    from pdf_extractor_ray.functions.textops import SimHasher, simhash_dedup_pairs

    got = simhash_dedup_pairs(planted_dir)
    found = set(zip(got["doc_a"].to_pylist(), got["doc_b"].to_pylist()))

    docs = pq.read_table(os.path.join(planted_dir, "documents.parquet"))
    sh = SimHasher()
    sigs = {
        d: sh.simhash(t)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    ids = sorted(sigs)
    truth = {
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if (sigs[ids[i]] ^ sigs[ids[j]]).bit_count() <= 3
    }
    assert found == truth
    # the planted one-word-changed copies sit within 3 bits of their source
    assert any(a == j and b == 100 + j for a, b in found for j in range(5))


def test_simhash_heavy_bucket_preserves_connectivity(ray_session, tmp_path):
    """>500 docs sharing a signature band trigger the heavy-bucket branch:
    identical-signature members must all connect to their representative
    (hamming-0 pairs) and distinct signatures still verify pairwise."""
    import pytest as _pytest

    from pdf_extractor_ray.functions.textops import simhash_dedup_pairs

    d = tmp_path / "heavy"
    d.mkdir()
    base = "alpha beta gamma delta epsilon zeta eta theta " * 8
    texts = [base] * 520  # 520 identical docs -> one giant signature group
    ids = list(range(520))
    texts.append(base + " extraword")  # near-dup with a distinct signature
    ids.append(900)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = simhash_dedup_pairs(str(d))
    pairs = set(zip(out["doc_a"].to_pylist(), out["doc_b"].to_pylist()))
    # every identical member links to representative 0
    assert {(0, j) for j in range(1, 520)} <= pairs
    # the distinct-signature near-dup links into the cluster via the rep
    from pdf_extractor_ray.functions.textops import SimHasher

    sh = SimHasher()
    if (sh.simhash(base) ^ sh.simhash(base + " extraword")).bit_count() <= 3:
        assert (0, 900) in pairs

    with _pytest.raises(ValueError, match="max_hamming"):
        simhash_dedup_pairs(str(d), max_hamming=4)


def test_embedding_near_dup_finds_planted(ray_session, planted_dir):
    """Multi-table LSH blocking must recover the EXACT brute-force pair set
    on planted near-dups (8 tables x 5+ planes -> ~99.9% per-pair recall at
    0.95; the planted pairs sit at ~0.999 where misses are ~1e-10)."""
    from pdf_extractor_ray.functions.similarity import embedding_near_dup

    pairs = embedding_near_dup(planted_dir, threshold=0.95)
    found = set(zip(pairs["vec_a"].to_pylist(), pairs["vec_b"].to_pylist()))

    # brute-force truth
    emb = pq.read_table(os.path.join(planted_dir, "embeddings.parquet"))
    ids = emb["vec_id"].to_numpy()
    m = np.array(emb["embedding"].to_pylist(), dtype=np.float64)
    sim = (m @ m.T) / np.outer(
        np.linalg.norm(m, axis=1), np.linalg.norm(m, axis=1)
    )
    iu, ju = np.triu_indices(len(ids), k=1)
    keep = sim[iu, ju] >= 0.95
    truth = {
        (min(int(ids[i]), int(ids[j])), max(int(ids[i]), int(ids[j])))
        for i, j in zip(iu[keep], ju[keep])
    }
    assert truth == found
    assert {(j, 100 + j) for j in range(5)} <= found


def test_ann_ivf_recall_on_planted_structure(ray_session, planted_dir):
    """IVF ANN must rank the query's planted near-dup (cos ~0.999) first:
    the perturbed vector lands in the same coarse list as the query, which
    is always probed."""
    from pdf_extractor_ray.functions.similarity import ann_ivf_topk

    approx = ann_ivf_topk(planted_dir, k=3)["vec_id"].to_pylist()
    assert approx[0] == 0  # the query itself
    assert 100 in approx[:2]  # its planted near-dup

    # determinism: identical result on a second run (fixed kmeans seed)
    assert ann_ivf_topk(planted_dir, k=3)["vec_id"].to_pylist() == approx


def test_near_dup_groups_clusters_planted(ray_session, planted_dir):
    """Union-find over verified pairs: each planted near-dup (j, 100+j)
    forms a cluster whose canonical representative is the min id."""
    from pdf_extractor_ray.functions.similarity import near_dup_groups

    t = near_dup_groups(planted_dir, threshold=0.95)
    canon = dict(zip(t["vec_id"].to_pylist(), t["canon_id"].to_pylist()))
    for j in range(5):
        assert canon.get(100 + j) == canon.get(j) == j
    # keepers are exactly the canonical representatives
    keepers = {v for v, c in canon.items() if v == c}
    assert keepers <= set(range(40))


def test_near_dup_groups_matches_duckdb_oracle(ray_session, planted_dir):
    """The union-find engine and the recursive-CTE SQL oracle must agree
    on PLANTED near-dups (the sf tables have none, so the driver's check
    is empty==empty; this is the non-degenerate case)."""
    import duckdb

    import __ray_entry__ as E
    from pdf_extractor_ray.functions.similarity import near_dup_groups

    got = near_dup_groups(planted_dir).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM read_parquet("
        f"'{os.path.join(planted_dir, 'embeddings.parquet')}')"
    )
    gold = con.execute(E.oracle_sql()["near_dup_groups"]).fetchdf()
    got = got.sort_values("vec_id").reset_index(drop=True)
    gold = gold.sort_values("vec_id").reset_index(drop=True)
    assert got.equals(gold), (got, gold)
    assert len(got) == 10  # 5 planted pairs -> 10 clustered vectors


def test_ann_recall_on_planted_structure(ray_session, planted_dir):
    """LSH ANN must find genuinely-near neighbors: the planted near-dup of
    the query vector (cos ~0.99) must rank at the top. (On pure random
    gaussians the 'nearest' neighbors sit at cos ~0.33 — near-orthogonal —
    where hyperplane LSH provably cannot separate, so recall is asserted on
    planted structure, not noise.)"""
    from pdf_extractor_ray.functions.similarity import ann_lsh_topk, cosine_topk

    exact = cosine_topk(planted_dir, k=3)["vec_id"].to_pylist()
    approx = ann_lsh_topk(planted_dir, k=3)["vec_id"].to_pylist()
    assert exact[:2] == [0, 100]  # query itself, then its planted near-dup
    assert approx[0] == 0
    assert 100 in approx


def test_ann_runs_on_random_table(ray_session):
    """Smoke on the driver table: query survives, result bounded by k."""
    from pdf_extractor_ray.functions.similarity import ann_lsh_topk

    a = ann_lsh_topk("/root/testdata/sf0.001", k=10)["vec_id"].to_pylist()
    assert a[0] == 0 and len(a) <= 10


def test_read_pages_filtered(ray_session, small_corpus):
    from pdf_extractor_ray.sources import read_pages_filtered

    ds = read_pages_filtered(small_corpus["corpus"], lang="en", columns=["url", "lang"])
    t = ds.to_pandas()
    assert len(t) > 0 and set(t["lang"]) == {"en"}


def test_read_pages_filtered_url_prefix(ray_session, small_corpus):
    from pdf_extractor_ray.sources import read_pages_filtered

    ds = read_pages_filtered(
        small_corpus["corpus"], url_prefix="https://a", columns=["url"]
    )
    urls = ds.to_pandas()["url"].tolist()
    assert all(u.startswith("https://a") for u in urls)
    # complements must partition the corpus: prefix + non-prefix = total
    all_ds = read_pages_filtered(small_corpus["corpus"], columns=["url"])
    assert len(urls) < all_ds.count()


def test_remove_boilerplate_planted(ray_session, tmp_path):
    """Corpus-frequency line scrub on a planted corpus with shared nav/footer
    lines: engine output must equal the DuckDB oracle, actually remove the
    shared lines (the sf corpora are line-dup-free, so only this test
    exercises the removal path), and keep unique bodies intact."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as E
    from pdf_extractor_ray.functions.textops import remove_boilerplate_lines

    d = tmp_path / "boiler"
    d.mkdir()
    nav = "HOME | ABOUT | CONTACT"
    footer = "(c) 2026 Example Corp"
    texts = [
        f"{nav}\nunique body {i} words here\nmore unique {i * 7}\n{footer}"
        for i in range(6)
    ] + [
        "totally standalone document",
        "",
        f"{nav}\n{nav}\nrepeated nav twice\n{footer}",
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = (
        remove_boilerplate_lines(str(d))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS"
        f" SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    exp = (
        con.execute(E.oracle_sql()["remove_boilerplate"])
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[sorted(out.columns)], exp[sorted(exp.columns)]
    )
    # nav appears in 7 docs, footer in 7; doc 8 carries nav twice -> both
    # instances counted
    assert out["n_removed"].tolist() == [2, 2, 2, 2, 2, 2, 0, 0, 3]
    joined = "\n".join(out["clean_text"])
    assert nav not in joined and footer not in joined
    assert "unique body 3 words here" in joined


# -------------------------------------------------------------------------
# Distributed k-means + SemDeDup (clustering layer)
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def blobs_dir(tmp_path_factory):
    """Embeddings with 3 PLANTED well-separated gaussian blobs (cosine
    between blob means ~0) — k-means ground truth is unambiguous."""
    root = str(tmp_path_factory.mktemp("blobs"))
    nprng = np.random.RandomState(11)
    dim, per = 32, 30
    means = np.zeros((3, dim))
    means[0, 0] = 10.0
    means[1, 1] = 10.0
    means[2, 2] = 10.0
    vecs, ids, labels = [], [], []
    for b in range(3):
        for i in range(per):
            vecs.append(
                (means[b] + nprng.standard_normal(dim) * 0.1).astype(np.float32)
            )
            ids.append(b * per + i)
            labels.append(b)
    emb = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float32())
            ),
            "label": pa.array(labels, pa.int32()),
        }
    )
    pq.write_table(emb, os.path.join(root, "embeddings.parquet"))
    return root


def test_kmeans_recovers_planted_blobs(ray_session, blobs_dir):
    from pdf_extractor_ray.functions.similarity import kmeans_clusters

    t = kmeans_clusters(blobs_dir, k=3).to_pandas()
    assert len(t) == 90
    assert sorted(t["vec_id"]) == list(range(90))
    # every planted blob maps to exactly one cluster id, blobs to distinct ids
    blob_of = t["vec_id"] // 30
    purity = t.groupby(blob_of)["cluster_id"].nunique()
    assert (purity == 1).all(), t.groupby(blob_of)["cluster_id"].unique()
    assert t["cluster_id"].nunique() == 3
    # canonical relabel: cluster containing vec_id 0 is cluster 0, and ids
    # are dense ranked by min member
    first_of = t.groupby("cluster_id")["vec_id"].min().sort_index()
    assert first_of.is_monotonic_increasing
    assert int(t.loc[t["vec_id"] == 0, "cluster_id"].iloc[0]) == 0


def test_kmeans_deterministic_across_runs(ray_session, blobs_dir):
    from pdf_extractor_ray.functions.similarity import kmeans_clusters

    a = kmeans_clusters(blobs_dir, k=3).to_pandas()
    b = kmeans_clusters(blobs_dir, k=3).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_semdedup_drops_planted_duplicates(ray_session, planted_dir):
    from pdf_extractor_ray.functions.similarity import semdedup

    t = semdedup(planted_dir, threshold=0.95, k=4).to_pandas()
    assert len(t) == 45  # one row per vector, none lost in the shuffle
    byid = t.set_index("vec_id")
    for j in range(5):
        # planted copy 100+j collapses onto original j: same cluster,
        # original kept, copy dropped
        assert byid.loc[100 + j, "cluster_id"] == byid.loc[j, "cluster_id"]
        assert bool(byid.loc[j, "keep"]) is True
        assert bool(byid.loc[100 + j, "keep"]) is False
    # random gaussians in 32d are nowhere near cosine 0.95: all kept
    others = byid.drop(index=[100 + j for j in range(5)])
    assert others["keep"].all()


def test_semdedup_keep_set_matches_near_dup_groups(ray_session, planted_dir):
    """Cross-check the two semantic-dedup paths: SemDeDup's dropped set must
    equal the non-canonical members of near_dup_groups (both keep min id)
    when the planted pairs are unambiguous."""
    from pdf_extractor_ray.functions.similarity import near_dup_groups, semdedup

    sd = semdedup(planted_dir, threshold=0.95, k=4).to_pandas()
    dropped = set(sd.loc[~sd["keep"], "vec_id"])
    g = near_dup_groups(planted_dir, threshold=0.95).to_pandas()
    non_canon = set(g.loc[g["vec_id"] != g["canon_id"], "vec_id"])
    assert dropped == non_canon


# ---------------------------------------------------------------------------
# Persistent IVF index (build once / query many)
# ---------------------------------------------------------------------------

def test_ivf_index_build_query_matches_inline(ray_session, tmp_path):
    """ann_ivf_query over the written artifact must equal ann_ivf_topk
    (same deterministic quantizer, same probe set, same scores)."""
    from pdf_extractor_ray.functions import similarity as S

    sf = "/root/testdata/sf0.001"
    idx = str(tmp_path / "ivf")
    man = S.build_ivf_index(sf, idx)
    assert man["nlist"] >= 4 and man["n_rows"] == S._table_rows(sf)

    for qid in (0, 3):
        inline = S.ann_ivf_topk(sf, k=10, query_vec_id=qid)
        indexed = S.ann_ivf_query(idx, S._query_vector(sf, qid), k=10)
        assert inline.equals(indexed), qid


def test_ivf_indexed_skips_training_on_second_call(ray_session, tmp_path, monkeypatch):
    """The second ann_ivf_topk_indexed call must answer purely from the
    artifact: training (and assignment) must not run again."""
    from pdf_extractor_ray.functions import similarity as S

    sf = "/root/testdata/sf0.001"
    idx = str(tmp_path / "ivf2")
    calls = {"train": 0}
    real_train = S._train_ivf

    def counting_train(*a, **kw):
        calls["train"] += 1
        return real_train(*a, **kw)

    monkeypatch.setattr(S, "_train_ivf", counting_train)
    first = S.ann_ivf_topk_indexed(sf, k=10, query_vec_id=0, index_dir=idx)
    assert calls["train"] == 1
    second = S.ann_ivf_topk_indexed(sf, k=10, query_vec_id=0, index_dir=idx)
    assert calls["train"] == 1, "second query must reuse the artifact"
    assert first.equals(second)
    # a different query against the same artifact also skips training
    S.ann_ivf_topk_indexed(sf, k=5, query_vec_id=7, index_dir=idx)
    assert calls["train"] == 1


def test_ivf_indexed_rebuilds_on_stale_source(ray_session, tmp_path):
    """A source corpus change (different embeddings bytes/rows) must
    invalidate the artifact and rebuild, not silently serve stale lists."""
    import numpy as np

    from pdf_extractor_ray.functions import similarity as S

    def write_sf(d, n, seed):
        d.mkdir()
        rng = np.random.RandomState(seed)
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(range(n), pa.int64()),
                    "embedding": pa.array(
                        rng.standard_normal((n, 16)).tolist(),
                        pa.list_(pa.float32()),
                    ),
                }
            ),
            str(d / "embeddings.parquet"),
        )

    sf = tmp_path / "sfA"
    write_sf(sf, 200, 1)
    idx = str(tmp_path / "ivf3")
    a = S.ann_ivf_topk_indexed(str(sf), k=5, index_dir=idx)
    man1 = pq.read_table(str(tmp_path / "ivf3" / "centroids.parquet"))

    # rewrite the corpus in place: same path, different contents
    import shutil

    shutil.rmtree(sf)
    write_sf(sf, 300, 2)
    b = S.ann_ivf_topk_indexed(str(sf), k=5, index_dir=idx)
    man2 = pq.read_table(str(tmp_path / "ivf3" / "centroids.parquet"))
    assert not man1.equals(man2), "artifact must be rebuilt for new source"
    assert b.equals(S.ann_ivf_topk(str(sf), k=5))
