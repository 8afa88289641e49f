"""Operator-library correctness: Ray implementations vs DuckDB oracle at
sf0.001 (the driver runs the same comparison at sf0.01)."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def _to_pandas(res):
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _sql_checked():
    import __ray_entry__ as E

    return sorted(E.oracle_sql())


SQL_CHECKED = _sql_checked()


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(ray_session, con, name):
    import __ray_entry__ as E

    res = _canon(_to_pandas(E.queries()[name](SF)))
    gold = _canon(con.execute(E.oracle_sql()[name]).fetchdf())
    assert list(res.columns) == list(gold.columns)
    pd.testing.assert_frame_equal(res, gold, check_dtype=False)


def test_rows_only_queries_run(ray_session):
    import __ray_entry__ as E

    qs = E.queries()
    for name in [
        "lang_id",
        "minhash_signatures",
        "simhash_fingerprint",
        "ann_lsh_topk",
        "kmeans_clusters",
        "semdedup",
        "compression_ratio",
    ]:
        res = _to_pandas(qs[name](SF))
        assert len(res) >= 0


def test_lang_id_sane(ray_session):
    """The driver's `lang` labels are random (text is English-ish word soup
    regardless of label), so we assert the heuristic's own invariants:
    deterministic output and a sensible prediction for the actual text."""
    import __ray_entry__ as E

    a = _canon(_to_pandas(E.queries()["lang_id"](SF)))
    b = _canon(_to_pandas(E.queries()["lang_id"](SF)))
    pd.testing.assert_frame_equal(a, b)
    assert set(a["pred_lang"]) <= {"en", "de", "fr", "es", "zh", "unknown"}
    assert (a["pred_lang"] == "en").mean() > 0.5  # the text IS English-ish


def test_lang_id_unit():
    from pdf_extractor_ray.functions.textops import LangId

    lid = LangId()
    assert lid.predict("the cat sat on the mat and it was happy") == "en"
    assert lid.predict("der Hund ist nicht mit der Katze auf den Berg") == "de"
    assert lid.predict("le chat est dans la maison pour le diner") == "fr"
    assert lid.predict("el perro es un animal que vive en la casa") == "es"
    assert lid.predict("这是一个中文句子，用来测试语言识别功能。") == "zh"
    assert lid.predict("") == "unknown"


def test_minhash_deterministic(ray_session):
    import __ray_entry__ as E

    a = _canon(_to_pandas(E.queries()["minhash_signatures"](SF)))
    b = _canon(_to_pandas(E.queries()["minhash_signatures"](SF)))
    pd.testing.assert_frame_equal(a, b)


def test_entry_smoke(ray_session):
    import __ray_entry__ as E

    df = _to_pandas(E.entry())
    assert len(df) > 0
    assert {"url", "extracted_text", "status"} <= set(df.columns)
    assert (df["status"] == "ok").mean() > 0.9


def test_split_markdown_pages_unit():
    """LlamaParse page-split semantics (reference llamaparse.py:137-222)."""
    from pdf_extractor_ray.functions.textops import split_markdown_pages

    md = "PAGE 1:\nfirst page\nPAGE 2:\nsecond page"
    assert split_markdown_pages(md) == {1: "first page", 2: "second page"}
    assert split_markdown_pages("a\n---\nb") == {1: "a", 2: "b"}
    assert split_markdown_pages("just text") == {1: "just text"}
    assert split_markdown_pages("") == {1: ""}


def test_ngram_jaccard_pairs_planted(ray_session, tmp_path):
    """Inverted-index co-occurrence counting == brute-force set Jaccard on a
    tiny corpus with planted near-dups, exact ties at the 0.5 threshold, and
    shingle-free rows."""
    import itertools

    import pyarrow.parquet as pq

    from pdf_extractor_ray.functions.textops import (
        _shingle_hashes63,
        ngram_jaccard_pairs,
    )

    texts = [
        "the quick brown fox jumps over the lazy dog today",
        "the quick brown fox jumps over the lazy dog yesterday",  # near-dup of 0
        "a completely different document about ray data pipelines",
        "a completely different document about ray data engines",  # near-dup of 2
        "",  # shingle-free
        "one two",  # <3 words -> single joined gram
        "one two",  # exact dup of 5 (jaccard 1)
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    pq.write_table(tbl, tmp_path / "documents.parquet")

    got = _canon(_to_pandas(ngram_jaccard_pairs(str(tmp_path))))

    # brute force truth over the same shingle sets
    sets = [set(_shingle_hashes63(t).tolist()) for t in texts]
    rows = []
    for a, b in itertools.combinations(range(len(texts)), 2):
        inter = len(sets[a] & sets[b])
        uni = len(sets[a] | sets[b])
        if uni and inter * 2 >= uni:
            rows.append({"doc_a": a, "doc_b": b, "inter": inter, "uni": uni})
    want = _canon(pd.DataFrame(rows))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert {(0, 1), (2, 3), (5, 6)} <= {
        (r.doc_a, r.doc_b) for r in got.itertuples()
    }


def test_shipping_priority_native_join_path(ray_session, con):
    """The >broadcast-threshold exchange path (two chained keyed_join
    exchanges) must produce the same table as the broadcast path and the
    SQL oracle."""
    import __ray_entry__ as E
    from pdf_extractor_ray.functions.relational import shipping_priority

    res = _canon(_to_pandas(shipping_priority(SF, broadcast_rows=0)))
    gold = _canon(con.execute(E.oracle_sql()["shipping_priority"]).fetchdf())
    pd.testing.assert_frame_equal(res, gold, check_dtype=False)


def test_distinct_users_hll_error_bound(ray_session, con):
    """HLL(p=14) estimate within 2.5% of the exact distinct count (std
    error ~0.81%, so 2.5% is ~3 sigma) at two scales."""
    from pdf_extractor_ray.functions.relational import distinct_users_hll

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        exact = duckdb.sql(
            f"SELECT COUNT(DISTINCT user_id) FROM read_parquet('{sf}/events.parquet')"
        ).fetchone()[0]
        est = distinct_users_hll(sf)["distinct_users_est"][0].as_py()
        assert abs(est - exact) <= max(2, 0.025 * exact), (sf, est, exact)


def test_price_quantiles_sketch_rank_error(ray_session):
    """Each sketched quantile lands within 1% rank error of the exact
    order statistics (per-batch sample of K=4096 -> rank error n/K per
    batch; tiny at test scale)."""
    import numpy as np
    import pyarrow.parquet as pq
    from pdf_extractor_ray.functions.relational import price_quantiles_sketch
    from pdf_extractor_ray.functions.agg import cents

    sf = "/root/testdata/sf0.01"
    got = price_quantiles_sketch(sf).to_pandas().set_index("q_pct")["price_c_est"]
    v = np.sort(
        cents(pq.read_table(f"{sf}/orders.parquet", columns=["o_totalprice"])[
            "o_totalprice"
        ].combine_chunks()).to_numpy(zero_copy_only=False)
    )
    n = len(v)
    for q in (25, 50, 75, 95):
        # rank of the estimate within the exact sorted values
        lo = np.searchsorted(v, got[q], side="left") / n
        hi = np.searchsorted(v, got[q], side="right") / n
        assert lo - 0.01 <= q / 100.0 <= hi + 0.01, (q, got[q], lo, hi)
