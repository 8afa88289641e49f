"""Planted-structure coverage for the corpus-cleaning operators: the sf
documents tables are single-line PII-free word soup, so PII redaction,
repetition signals and multi-bucket sequence packing only light up here."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _docs_dir(tmp_path, texts, name="docs"):
    d = tmp_path / name
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        str(d / "documents.parquet"),
    )
    return str(d)


def _oracle(sf_dir, name):
    import __ray_entry__ as E

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS"
        f" SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    return (
        con.execute(E.oracle_sql()[name])
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _run(fn, sf_dir, **kw):
    return (
        fn(sf_dir, **kw)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _assert_match(out, exp):
    pd.testing.assert_frame_equal(
        out[sorted(out.columns)], exp[sorted(exp.columns)]
    )


def test_redact_pii_planted(ray_session, tmp_path):
    from pdf_extractor_ray.functions.textops import redact_pii

    texts = [
        "contact alice.smith+spam@example.co.uk or bob@mail.example.com now",
        "call +1 555 123 4567 or 44 555 987 6543 today",
        "server at 10.0.0.1 and 192.168.255.254, not 1234.5.6.7890",
        "mixed: eve@corp.io from 172.16.0.9 dials +49 030 555 1234",
        "nothing sensitive here at all",
        "",
    ]
    d = _docs_dir(tmp_path, texts)
    out = _run(redact_pii, d)
    _assert_match(out, _oracle(d, "redact_pii"))
    assert out["n_emails"].tolist() == [2, 0, 0, 1, 0, 0]
    assert out["n_phones"].tolist() == [0, 2, 0, 1, 0, 0]
    # 1234.5.6.7890 has a 4-digit octet -> \b\d{1,3} rejects it
    assert out["n_ips"].tolist() == [0, 0, 2, 1, 0, 0]
    joined = "\n".join(out["clean_text"])
    assert "@" not in joined and "192.168" not in joined
    assert "<EMAIL>" in joined and "<PHONE>" in joined and "<IP>" in joined


def test_repetition_stats_planted(ray_session, tmp_path):
    from pdf_extractor_ray.functions.textops import repetition_stats

    texts = [
        # 4 lines, one duplicated; "buy now" bigram 3x
        "buy now buy now buy now\nsame line\nsame line\nunique tail",
        "single line no repeats at all",
        "",
        "a a a a a",  # top bigram "a a" = 4
        "Tabs\tand CASE! mix a-b A-B",  # tokenizer: lowercase [a-z0-9]+
    ]
    d = _docs_dir(tmp_path, texts)
    out = _run(repetition_stats, d)
    _assert_match(out, _oracle(d, "repetition_stats"))
    assert out["n_lines"].tolist() == [4, 1, 1, 1, 1]
    assert out["n_dup_lines"].tolist() == [1, 0, 0, 0, 0]
    assert out["top_bigram_n"].tolist() == [3, 1, 0, 4, 2]  # "a b" twice


def test_pack_sequences_multibucket_matches_oracle(
    ray_session, tmp_path, monkeypatch
):
    """Force the multi-bucket pass-1/pass-2 path (sf tables fit one bucket):
    driver base offsets must stitch buckets into one exact global prefix
    sum, including sparse/non-dense doc_id ranges."""
    import pdf_extractor_ray.functions.textops as T

    rng = np.random.default_rng(7)
    n = 400
    ids = np.sort(rng.choice(10_000, size=n, replace=False))  # sparse ids
    texts = [
        " ".join(f"w{j}" for j in range(int(k)))
        for k in rng.integers(0, 60, size=n)
    ]
    d = tmp_path / "packdocs"
    d.mkdir()
    pq.write_table(
        pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}
        ),
        str(d / "documents.parquet"),
    )
    monkeypatch.setattr(
        "pdf_extractor_ray.functions.agg.scaled_partitions",
        lambda n_rows, rows_per_bucket=500_000: 7,
    )
    out = _run(T.pack_sequences, str(d), budget=100)
    exp = _oracle(str(d), "pack_sequences")
    # oracle uses budget 512; recompute seq_id for budget=100 from its
    # exact token counts
    cum = exp["n_tokens"].cumsum() - exp["n_tokens"]
    exp = exp.assign(seq_id=(cum // 100).astype("int64"))
    _assert_match(out, exp)
    assert out["seq_id"].iloc[-1] > 5  # actually crossed many sequences
    assert (out["seq_id"].diff().dropna() >= 0).all()  # monotone in doc_id


def test_paragraph_dedup_planted(ray_session, tmp_path):
    """Global first-wins at paragraph granularity: later docs lose shared
    paragraphs, intra-doc repeats collapse to the first ord, and the winner
    doc keeps its copy untouched."""
    from pdf_extractor_ray.functions.textops import paragraph_dedup

    shared = "this exact paragraph appears in many documents"
    texts = [
        f"{shared}\n\nunique to zero",  # doc 0 wins the shared para
        f"unique to one\n\n{shared}",
        f"{shared}\n\n{shared}\n\nmiddle\n\n{shared}",  # 3 repeats, all lose
        "all original content here",
        "",
        "",  # the empty paragraph also dedups (doc 4 wins)
    ]
    d = _docs_dir(tmp_path, texts)
    out = _run(paragraph_dedup, d)
    _assert_match(out, _oracle(d, "paragraph_dedup"))
    assert out["n_removed"].tolist() == [0, 1, 3, 0, 0, 1]
    assert out["clean_text"].tolist() == [
        texts[0],
        "unique to one",
        "middle",
        texts[3],
        "",
        "",
    ]


def test_curation_summary_planted_all_rules(ray_session, tmp_path):
    """Every curation rule fires: a short doc (quality), a repetitive doc
    (top bigram dominates), exact duplicates, and clean keepers — counts
    must match the DuckDB oracle on the same planted table."""
    from pdf_extractor_ray.functions.textops import curation_summary

    import itertools, string

    # clean keeper: every word distinct -> every bigram distinct
    good = " ".join(
        a + b + c
        for a, b, c in itertools.islice(
            itertools.product(string.ascii_lowercase, repeat=3), 60
        )
    )
    texts = [
        good,                                  # 0 kept
        "tiny",                                # 1 dropped_quality (too short)
        "spam ham " * 60,                      # 2 dropped_repetition
        good,                                  # 3 dropped_exact_dup (of 0)
        good + "tail words differ here now",   # 4 kept
        good,                                  # 5 dropped_exact_dup (of 0)
    ]
    d = _docs_dir(tmp_path, texts)
    got = curation_summary(d).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS"
        f" SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    import __ray_entry__ as E

    exp = (
        con.execute(E.oracle_sql()["curation_summary"])
        .fetchdf()
        .sort_values("rule")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.sort_values("rule").reset_index(drop=True), exp
    )
    byrule = dict(zip(got["rule"], got["n_docs"]))
    assert byrule == {
        "dropped_exact_dup": 2,
        "dropped_quality": 1,
        "dropped_repetition": 1,
        "kept": 2,
    }


def test_compression_ratio_matches_direct_zlib(ray_session, tmp_path):
    import zlib

    from pdf_extractor_ray.functions.textops import compression_ratio

    texts = ["spam " * 500, "the quick brown fox", "", "unique words here"]
    d = _docs_dir(tmp_path, texts)
    got = compression_ratio(d).to_pandas().sort_values("doc_id")
    for i, t in enumerate(texts):
        row = got[got["doc_id"] == i].iloc[0]
        b = t.encode()
        assert row["raw_bytes"] == len(b)
        assert row["comp_bytes"] == len(zlib.compress(b, 6))
        assert row["ratio_bp"] == 10000 * len(zlib.compress(b, 6)) // max(len(b), 1)
    # the repetitive doc compresses far better than the unique-words doc
    rep = got[got["doc_id"] == 0]["ratio_bp"].iloc[0]
    uniq = got[got["doc_id"] == 3]["ratio_bp"].iloc[0]
    assert rep < uniq / 5


def test_mix_sources_planted_proportions(ray_session, tmp_path):
    """Skewed availability (src0 abundant, src2 scarce): the scarce source
    limits the total, realized proportions track 5:3:2 within binomial
    noise, and the kept set bit-matches the DuckDB oracle."""
    from pdf_extractor_ray.functions.textops import mix_sources

    rng = np.random.default_rng(7)
    rows = []
    for src, n in [("src0", 2000), ("src1", 900), ("src2", 300), ("srcX", 500)]:
        for i in range(n):
            rows.append((src, f"{src} document {i} " + " ".join(
                str(x) for x in rng.integers(0, 99, 6))))
    d = tmp_path / "mix"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(rows)), pa.int64()),
                "source": pa.array([r[0] for r in rows]),
                "text": pa.array([r[1] for r in rows]),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = _run(mix_sources, str(d))
    exp = _oracle(str(d), "mix_sources")
    _assert_match(out, exp)

    # srcX (unweighted) contributes nothing
    assert not (out["source"] == "srcX").any()
    got = out["source"].value_counts()
    # limiting source: src2 with 300 docs at weight 2 -> T = 1500,
    # targets 750/450/300; binomial noise ~ sqrt(t) so allow 5 sigma
    for src, t in [("src0", 750), ("src1", 450), ("src2", 300)]:
        assert abs(int(got.get(src, 0)) - t) <= 5 * int(np.sqrt(t)) + 1, (
            src,
            int(got.get(src, 0)),
            t,
        )
    # scarce source kept wholesale (threshold == 2^32)
    assert int(got.get("src2", 0)) == 300


def test_incremental_new_docs_planted_both_paths(ray_session, tmp_path):
    """Cross-increment dup texts are suppressed, intra-new dups both
    survive (NOT EXISTS semantics), and the bucketed-exchange fallback
    (broadcast_limit=0) emits the same set as the broadcast path."""
    from pdf_extractor_ray.functions.textops import incremental_new_docs

    # doc_id % 3 == 0 -> new batch; others are the seen snapshot
    texts = {
        0: "brand new page about rivers and dams",      # new, unseen
        1: "seen snapshot page alpha",
        2: "seen snapshot page beta",
        3: "seen snapshot page alpha",                  # new, dup of seen -> drop
        4: "seen snapshot page gamma",
        5: "seen snapshot page delta",
        6: "fresh page twins in the same increment",    # new, intra-new dup
        7: "seen snapshot page epsilon",
        8: "seen snapshot page zeta",
        9: "fresh page twins in the same increment",    # new, intra-new dup
        10: "seen snapshot page eta",
        11: "seen snapshot page theta",
        12: "seen snapshot page beta",                  # new, dup of seen -> drop
    }
    d = tmp_path / "inc"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[k] for k in sorted(texts)]),
            }
        ),
        str(d / "documents.parquet"),
    )
    exp = _oracle(str(d), "incremental_new_docs")
    assert sorted(exp["doc_id"]) == [0, 6, 9]

    out_bcast = _run(incremental_new_docs, str(d))
    _assert_match(out_bcast, exp)

    out_exch = _run(incremental_new_docs, str(d), broadcast_limit=0)
    _assert_match(out_exch, exp)


def test_mix_epochs_planted_semantics(ray_session, tmp_path):
    """2.5x source: epochs 0 and 1 contain every doc, epoch 2 a ~half
    deterministic subset; 0.5x source gets a single ~half epoch; the
    emitted set bit-matches the oracle."""
    from pdf_extractor_ray.functions.textops import mix_epochs

    rng = np.random.default_rng(11)
    rows = []
    for src, n in [("src0", 800), ("src1", 400), ("src2", 600)]:
        for i in range(n):
            rows.append((src, f"{src} epoch doc {i} " + " ".join(
                str(x) for x in rng.integers(0, 99, 5))))
    d = tmp_path / "epochs"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(rows)), pa.int64()),
                "source": pa.array([r[0] for r in rows]),
                "text": pa.array([r[1] for r in rows]),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = _run(mix_epochs, str(d))
    exp = _oracle(str(d), "mix_epochs").sort_values(
        ["doc_id", "epoch"]).reset_index(drop=True)
    out = out.sort_values(["doc_id", "epoch"]).reset_index(drop=True)
    _assert_match(out, exp)

    s2 = out[out["source"] == "src2"]
    assert (s2["epoch"] == 0).sum() == 600
    assert (s2["epoch"] == 1).sum() == 600
    frac = (s2["epoch"] == 2).sum()
    assert abs(frac - 300) <= 5 * int(np.sqrt(300))
    s0 = out[out["source"] == "src0"]
    assert set(s0["epoch"]) <= {0}
    assert abs(len(s0) - 400) <= 5 * int(np.sqrt(400))
    # full epochs of the same source repeat the same doc set
    e0 = set(s2[s2["epoch"] == 0]["doc_id"])
    e1 = set(s2[s2["epoch"] == 1]["doc_id"])
    assert e0 == e1


def test_prepare_training_planted(ray_session, tmp_path):
    """Planted dups + quality rejects: dup text keeps min doc_id only,
    short/digit-heavy docs are gated, pos is a dense 0..n-1 permutation in
    md5-key order, and seq boundaries follow the exclusive token prefix."""
    from pdf_extractor_ray.functions.textops import prepare_training

    base = ("solid quality paragraph with plenty of words to clear the "
            "hundred character minimum easily and some more padding ")
    texts = {
        0: base + "alpha",
        1: base + "beta",
        2: base + "alpha",          # dup of 0 -> dropped
        3: "too short",             # quality reject (<100 chars)
        4: base + "gamma",
        5: "1234567890" * 20,       # digit-heavy reject
        6: base + "alpha",          # dup of 0 -> dropped
    }
    d = tmp_path / "prep"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[k] for k in sorted(texts)]),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = _run(prepare_training, str(d), budget=40)
    exp = _oracle(str(d), "prepare_training").sort_values(
        "doc_id").reset_index(drop=True)
    # planted budget differs from the oracle's 512: recompute seq_id from
    # the oracle's own prefix sums for the planted budget
    import numpy as np
    e = exp.sort_values("pos").reset_index(drop=True)
    excl = np.concatenate([[0], np.cumsum(e["n_tokens"].to_numpy())[:-1]])
    e["seq_id"] = excl // 40
    e = e.sort_values("doc_id").reset_index(drop=True)
    _assert_match(out, e)

    assert sorted(out["doc_id"]) == [0, 1, 4]
    assert sorted(out["pos"]) == [0, 1, 2]
    # packing: budget 40 with ~19-token docs -> docs 2 per sequence
    by_pos = out.sort_values("pos")
    toks = by_pos["n_tokens"].to_numpy()
    excl2 = np.concatenate([[0], np.cumsum(toks)[:-1]])
    assert (by_pos["seq_id"].to_numpy() == excl2 // 40).all()


def _docs_dir_lang(tmp_path, rows, name="docs_lang"):
    d = tmp_path / name
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(rows)), pa.int64()),
                "text": pa.array([t for t, _ in rows]),
                "lang": pa.array([l for _, l in rows]),
            }
        ),
        str(d / "documents.parquet"),
    )
    return str(d)


def test_dsir_weights_planted(ray_session, tmp_path):
    """Docs made of target-model words must out-weigh off-target docs,
    and the engine must match the DuckDB oracle on the planted table."""
    from pdf_extractor_ray.functions.textops import dsir_weights

    rows = [
        ("alpha beta alpha beta alpha", "en"),
        ("alpha beta beta alpha alpha", "en"),
        ("omega sigma omega sigma omega", "de"),
        ("omega omega sigma sigma omega", "de"),
        ("alpha beta alpha beta beta", "fr"),   # target-like words, not en
        ("omega sigma sigma omega sigma", "fr"),  # raw-like words
    ]
    d = _docs_dir_lang(tmp_path, rows)
    res = (
        dsir_weights(d)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    gold = _oracle(d, "dsir_weights")
    pd.testing.assert_frame_equal(res, gold, check_dtype=True)
    w = dict(zip(res["doc_id"], res["logw"]))
    # en-model words (alpha/beta) score above de words (omega/sigma),
    # regardless of the doc's own label (doc 4 vs doc 5)
    assert w[0] > w[2] and w[1] > w[3] and w[4] > w[5]


def test_nb_lang_classify_planted(ray_session, tmp_path):
    """Class-exclusive vocabularies must classify perfectly; engine
    matches the DuckDB oracle bit-exactly on the planted table."""
    from pdf_extractor_ray.functions.textops import nb_lang_classify

    rows = [
        ("alpha beta alpha beta", "en"),
        ("beta alpha beta beta", "en"),
        ("omega sigma omega sigma", "de"),
        ("sigma omega sigma sigma", "de"),
        ("alpha alpha beta alpha", "en"),
        ("omega omega sigma omega", "de"),
    ]
    d = _docs_dir_lang(tmp_path, rows)
    res = (
        nb_lang_classify(d)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    gold = _oracle(d, "nb_lang_classify")
    pd.testing.assert_frame_equal(res, gold, check_dtype=True)
    assert (res["lang"] == res["pred_lang"]).all()


def test_web_to_training_composition(ray_session):
    """End-to-end pages -> extract -> curate -> pack: output doc ids are
    real source ids, shuffle positions are a contiguous 0..n-1 range, and
    every packed sequence stays within a token budget except where one
    long doc overflows alone."""
    import pandas as pd
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.webpages import web_to_training

    sf = "/root/testdata/sf0.001"
    budget = 512
    df = web_to_training(sf, budget=budget).to_pandas()
    src_ids = set(
        pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])["doc_id"]
        .to_pylist()
    )
    assert set(df["doc_id"]) <= src_ids
    assert 0 < len(df) < len(src_ids)  # the quality gate dropped some rows
    assert sorted(df["pos"]) == list(range(len(df)))
    # each sequence's token START honors the budget boundary (a doc longer
    # than the budget may overflow its own sequence, never a neighbour's)
    d = df.sort_values("pos")
    starts = d["n_tokens"].cumsum().shift(fill_value=0)
    assert ((starts // budget) == d["seq_id"]).all()


def test_docs_to_pages_vectorized_matches_scalar_builder():
    """The Arrow-kernel page builder must reproduce the per-row
    html.escape f-string template byte-for-byte (it feeds web_to_training,
    whose oracle depends on the exact payload bytes)."""
    import html as _html

    import pyarrow as pa

    from pdf_extractor_ray.pipelines.webpages import (
        _EPOCH_US,
        docs_to_pages,
    )

    texts = [
        "plain paragraph",
        "two\nparagraphs here",
        "",
        "amp & lt < gt > quot \" apos ' mixed &amp; already",
        "trailing newline\n",
        "\nleading and\n\nempty\n\nparas\n",
        "unicode éè 中文 emoji \U0001f600",
        "<script>alert('xss')</script>",
    ]
    doc_ids = [0, 7, 123, 99999999, 100000000, 5, 42, 1234567]
    batch = pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts)),
        }
    )
    out = docs_to_pages(batch)

    for i, (d, t) in enumerate(zip(doc_ids, texts)):
        paras = "".join(
            f"<p>{_html.escape(p)}</p>" for p in (t.split("\n") if t else [""])
        )
        page = (
            "<!doctype html><html><head><title>doc</title></head><body>"
            "<nav><a href='/'>home</a> <a href='/about'>about</a></nav>"
            f"<article>{paras}</article>"
            "<footer><a href='/tos'>terms</a></footer></body></html>"
        ).encode("utf-8")
        assert out["html"][i].as_py() == page, (d, t)
        assert out["url"][i].as_py() == f"https://testdata.local/doc/{d:08d}"
        assert out["warc_ts"][i].value == _EPOCH_US + d


def test_shuffle_and_pack_on_empty_documents(ray_session, tmp_path):
    """A documents table without rows gives each per-doc operator an empty
    result with its schema, not an error."""
    from pdf_extractor_ray.functions.textops import pack_sequences, shuffle_docs

    d = tmp_path / "nodocs"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}),
        str(d / "documents.parquet"),
    )
    for fn, names in (
        (shuffle_docs, ["doc_id", "shuffle_pos"]),
        (pack_sequences, ["doc_id", "n_tokens", "seq_id"]),
    ):
        ds = fn(str(d))
        assert ds.count() == 0
        assert ds.schema().names == names
        assert ds.schema().types == [pa.int64()] * len(names)
