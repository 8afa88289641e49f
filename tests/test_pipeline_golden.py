"""Golden end-to-end: Ray pipeline output must be byte-identical per url to
the single-process oracle (FIXTURES.md §4.1-4.3)."""

import pyarrow as pa
import pyarrow.parquet as pq


def _collect(ds) -> pa.Table:
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    assert tables, "pipeline produced no rows"
    return pa.concat_tables(tables, promote_options="default")


def _assert_matches_golden(extracted: pa.Table, golden_path: str):
    golden = pq.read_table(golden_path)
    ext = extracted.sort_by("url")
    gold = golden.sort_by("url")
    assert ext.num_rows == gold.num_rows, (ext.num_rows, gold.num_rows)
    assert ext["url"].to_pylist() == gold["url"].to_pylist()
    # byte-identical text per url
    e_texts = ext["extracted_text"].to_pylist()
    g_texts = gold["extracted_text"].to_pylist()
    mismatches = [
        (u, e[:80], g[:80])
        for u, e, g in zip(ext["url"].to_pylist(), e_texts, g_texts)
        if e != g
    ]
    assert not mismatches, mismatches[:3]
    assert ext["status"].to_pylist() == gold["status"].to_pylist()
    assert ext["content_type"].to_pylist() == gold["content_type"].to_pylist()
    assert ext["n_pages"].to_pylist() == gold["n_pages"].to_pylist()
    assert ext["spans"].to_pylist() == gold["spans"].to_pylist()
    # first-wins dedup: the surviving row must carry the WINNING (min)
    # warc_ts — a last-wins regression differs only here (FIXTURES §4.3)
    assert ext["warc_ts"].to_pylist() == gold["warc_ts"].to_pylist()


def test_stream_mode_matches_golden(ray_session, small_corpus):
    from pdf_extractor_ray.pipelines.extract import extracted_dataset

    ds = extracted_dataset(small_corpus["corpus"], n_partitions=16)
    _assert_matches_golden(_collect(ds), small_corpus["golden"] + "/extracted.parquet")


def test_checkpoint_mode_matches_golden(ray_session, small_corpus, tmp_path):
    from pdf_extractor_ray.pipelines.extract import read_extracted, run_checkpoint

    out = str(tmp_path / "out")
    metrics = run_checkpoint(small_corpus["corpus"], out, n_partitions=8, resume=False)
    assert metrics.num_rows == 8
    ext = _collect(read_extracted(out))
    _assert_matches_golden(ext, small_corpus["golden"] + "/extracted.parquet")

    # pages long table matches too
    pages = pa.concat_tables(
        [
            pq.read_table(f"{out}/part-{p}/extracted_pages.parquet")
            for p in metrics["partition_id"].to_pylist()
        ]
    ).sort_by([("url", "ascending"), ("page_number", "ascending")])
    golden_pages = pq.read_table(small_corpus["golden"] + "/extracted_pages.parquet")
    assert pages.num_rows == golden_pages.num_rows
    assert pages["url"].to_pylist() == golden_pages["url"].to_pylist()
    assert pages["page_number"].to_pylist() == golden_pages["page_number"].to_pylist()
    assert pages["page_text"].to_pylist() == golden_pages["page_text"].to_pylist()


def test_two_parallelism_levels_identical(ray_session, small_corpus):
    """Partition count / parallelism must not change a byte (FIXTURES §4.1)."""
    from pdf_extractor_ray.pipelines.extract import extracted_dataset

    def run(n_partitions, batch_size):
        ds = extracted_dataset(
            small_corpus["corpus"], n_partitions=n_partitions, batch_size=batch_size
        )
        t = _collect(ds)
        return t.sort_by("url")

    a = run(4, 16)
    b = run(32, 128)
    for col in ("url", "extracted_text", "spans", "status", "content_type",
                "n_pages", "warc_ts"):
        assert a[col].to_pylist() == b[col].to_pylist(), col


def test_duplicate_urls_collapse(ray_session, small_corpus):
    from pdf_extractor_ray.pipelines.extract import extracted_dataset

    raw = pq.read_table(small_corpus["corpus"], columns=["url"])
    raw_urls = raw["url"].to_pylist()
    assert len(raw_urls) > len(set(raw_urls)), "corpus must contain dup urls"
    ds = extracted_dataset(small_corpus["corpus"], n_partitions=8)
    t = _collect(ds)
    urls = t["url"].to_pylist()
    assert len(urls) == len(set(urls))
    assert set(urls) == set(raw_urls)


def _assert_modes_agree(corpus: str, out: str, assign_doc_ids: bool) -> None:
    """The two drivers run the same partition body — their outputs must
    match row for row in every column but the wall-clock ``latency_ms``,
    ``partition_id`` and (with ``assign_doc_ids``) ``doc_id`` included,
    whatever partition count each uses."""
    from pdf_extractor_ray.pipelines.extract import extracted_dataset, read_extracted, run_checkpoint

    run_checkpoint(
        corpus, out, n_partitions=4, resume=False, assign_doc_ids=assign_doc_ids
    )
    ck = _collect(read_extracted(out)).sort_by("url")
    st = _collect(
        extracted_dataset(
            corpus, n_partitions=8, concurrency=2, assign_doc_ids=assign_doc_ids
        )
    ).sort_by("url")

    cols = sorted(set(ck.column_names) - {"latency_ms"})
    assert sorted(set(st.column_names) - {"latency_ms"}) == cols
    assert ("doc_id" in cols) == assign_doc_ids
    for col in cols:
        assert st[col].to_pylist() == ck[col].to_pylist(), col


def test_stream_and_checkpoint_modes_agree(ray_session, small_corpus, tmp_path):
    _assert_modes_agree(small_corpus["corpus"], str(tmp_path / "ck"), False)


def test_stream_and_checkpoint_modes_agree_doc_ids(
    ray_session, small_corpus, tmp_path
):
    _assert_modes_agree(small_corpus["corpus"], str(tmp_path / "ck"), True)
