"""Checkpoint/resume + determinism property tests (FIXTURES.md §4.2, §4.6)."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _read_all(out_dir: str) -> pa.Table:
    parts = [
        pq.read_table(os.path.join(out_dir, d, "extracted.parquet"))
        for d in sorted(os.listdir(out_dir))
        if d.startswith("part-")
    ]
    return pa.concat_tables(parts).sort_by("url")


def test_resume_skips_completed_partitions(ray_session, small_corpus, tmp_path):
    from pdf_extractor_ray.pipelines.extract import run_checkpoint

    out = str(tmp_path / "out")
    m1 = run_checkpoint(small_corpus["corpus"], out, n_partitions=8, resume=False)
    assert m1.num_rows == 8
    full = _read_all(out)

    # simulate a crash that lost 3 partitions
    for pid in (1, 4, 6):
        shutil.rmtree(os.path.join(out, f"part-{pid}"))

    m2 = run_checkpoint(small_corpus["corpus"], out, n_partitions=8, resume=True)
    # only the 3 missing partitions were recomputed
    assert sorted(m2["partition_id"].to_pylist()) == [1, 4, 6]

    resumed = _read_all(out)
    # latency_ms is wall-clock instrumentation; every semantic column must
    # be byte-identical
    assert resumed.drop_columns(["latency_ms"]).equals(
        full.drop_columns(["latency_ms"])
    ), "resume must reproduce byte-identical output"

    golden = pq.read_table(small_corpus["golden"] + "/extracted.parquet").sort_by("url")
    assert resumed["extracted_text"].to_pylist() == golden["extracted_text"].to_pylist()


def test_killed_attempt_dirs_are_removed(ray_session, small_corpus, tmp_path):
    """The ``_tmp-*`` and ``_stale-*`` dirs a killed partition attempt leaves
    in the output dir (``write_partition_atomic`` removes them only when
    the attempt lives to see its exception) are removed by the next run,
    whose outputs equal a clean run's."""
    from pdf_extractor_ray.pipelines.extract import run_checkpoint

    out, clean = tmp_path / "out", str(tmp_path / "clean")
    run_checkpoint(small_corpus["corpus"], str(out), n_partitions=4, resume=False)
    shutil.rmtree(out / "part-1")
    killed = [out / "_tmp-1-0badc0de", out / "_stale-2-0badc0de"]
    for d in killed:
        d.mkdir()
        pq.write_table(pa.table({"url": ["u"] * 100}), str(d / "extracted.parquet"))
        f = d / "extracted.parquet"
        f.write_bytes(f.read_bytes()[: f.stat().st_size // 2])
    m = run_checkpoint(small_corpus["corpus"], str(out), n_partitions=4, resume=True)
    assert m["partition_id"].to_pylist() == [1]
    assert not any(d.exists() for d in killed)
    assert [n for n in os.listdir(out) if n.startswith("_")] == []

    run_checkpoint(small_corpus["corpus"], clean, n_partitions=4, resume=False)
    assert sorted(os.listdir(out)) == sorted(os.listdir(clean))
    assert _read_all(str(out)).drop_columns(["latency_ms"]).equals(
        _read_all(clean).drop_columns(["latency_ms"])
    )


def test_resume_noop_when_complete(ray_session, small_corpus, tmp_path, monkeypatch):
    """A resume with every partition complete runs nothing and builds no
    dup index."""
    from pdf_extractor_ray.pipelines import extract as E

    out = str(tmp_path / "out")
    E.run_checkpoint(small_corpus["corpus"], out, n_partitions=4, resume=False)

    def no_index(input_path):
        raise AssertionError("a dup index was built with nothing to run")

    monkeypatch.setattr(E, "build_dup_index", no_index)
    m2 = E.run_checkpoint(small_corpus["corpus"], out, n_partitions=4, resume=True)
    assert m2.num_rows == 0
    assert m2.column_names == ["partition_id"]


def test_driver_reads_no_input_rows(ray_session, small_corpus, tmp_path, monkeypatch):
    """The driver reads input shard footers, never their rows: with its
    ``pq.read_table`` raising on the input shards, a cold ``run_checkpoint``,
    its resume and ``extracted_dataset`` give the rows they give unguarded
    (the resume and the stream build the dup index in three url ranges)."""
    from pdf_extractor_ray.functions.agg import collect
    from pdf_extractor_ray.pipelines import extract as E
    from pdf_extractor_ray.sources.pages import list_shards
    from pdf_extractor_ray.stages import dedup

    pages = small_corpus["corpus"]
    E.run_checkpoint(pages, str(tmp_path / "a"), n_partitions=4, resume=False)
    want = _read_all(str(tmp_path / "a")).drop_columns(["latency_ms"])

    shards, read_table = set(list_shards(pages)), pq.read_table

    def guarded(source, *args, **kwargs):
        if str(source) in shards:
            raise AssertionError(f"the driver read {source}")
        return read_table(source, *args, **kwargs)

    monkeypatch.setattr(pq, "read_table", guarded)
    with pytest.raises(AssertionError, match="the driver read"):
        pq.read_table(sorted(shards)[0])
    out = str(tmp_path / "b")
    E.run_checkpoint(pages, out, n_partitions=4, resume=False)
    assert _read_all(out).drop_columns(["latency_ms"]).equals(want)

    monkeypatch.setattr(dedup, "_KEYS_PER_TASK", 100)  # 300 rows: 3 ranges
    shutil.rmtree(os.path.join(out, "part-1"))
    m = E.run_checkpoint(pages, out, n_partitions=4, resume=True)
    assert m["partition_id"].to_pylist() == [1]
    assert _read_all(out).drop_columns(["latency_ms"]).equals(want)

    got = collect(E.extracted_dataset(pages, n_partitions=4)).sort_by("url")
    assert got.select(want.column_names).equals(want)


def test_input_order_independence(ray_session, small_corpus, tmp_path):
    """Shuffling input rows across differently-sized shards changes nothing
    after the url sort (FIXTURES §4.2)."""
    import ray

    from pdf_extractor_ray.pipelines.extract import extracted_dataset

    # rewrite the corpus with rows reversed and re-sharded into 3 files
    src = pq.read_table(small_corpus["corpus"])
    reversed_t = src.take(pa.array(list(range(src.num_rows))[::-1]))
    shuffled_dir = str(tmp_path / "shuffled")
    os.makedirs(shuffled_dir)
    n = reversed_t.num_rows
    for i in range(3):
        pq.write_table(
            reversed_t.slice(i * n // 3, (i + 1) * n // 3 - i * n // 3),
            os.path.join(shuffled_dir, f"part-{i:05d}.parquet"),
        )

    def run(path):
        ds = extracted_dataset(path, n_partitions=8, concurrency=2)
        t = pa.concat_tables(
            [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        )
        return t.sort_by("url")

    a, b = run(small_corpus["corpus"]), run(shuffled_dir)
    assert a["url"].to_pylist() == b["url"].to_pylist()
    assert a["extracted_text"].to_pylist() == b["extracted_text"].to_pylist()
    assert a["spans"].to_pylist() == b["spans"].to_pylist()
    assert a["status"].to_pylist() == b["status"].to_pylist()


def test_resume_invalidates_on_input_change(ray_session, small_corpus, tmp_path):
    """Appending input shards shifts shard-group boundaries; manifests that
    no longer match their group's file list must recompute, not skip."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.extract import run_checkpoint

    src = str(tmp_path / "pages")
    shutil.copytree(small_corpus["corpus"], src)
    out = str(tmp_path / "out")
    run_checkpoint(src, out, n_partitions=4, resume=False)

    # append a new shard: every contiguous group's file list changes
    extra = pq.read_table(src + "/part-00000.parquet").slice(0, 5)
    new_urls = [u + "?v=2" for u in extra["url"].to_pylist()]
    import pyarrow as pa

    extra = extra.set_column(0, "url", pa.array(new_urls, pa.string()))
    pq.write_table(extra, src + "/part-99999.parquet")

    m2 = run_checkpoint(src, out, n_partitions=4, resume=True)
    assert m2.num_rows == 4  # all groups recomputed (boundaries shifted)
    total = _read_all(out)
    assert set(new_urls) <= set(total["url"].to_pylist())


def test_checkpoint_emit_links_product(ray_session, tmp_path):
    """--emit-links writes a links.parquet per partition: every html page's
    anchors in (url, link_idx) order; pdf/junk rows contribute none."""
    import pyarrow.parquet as pq
    from pdf_extractor_ray.corpus import write_corpus
    from pdf_extractor_ray.pipelines.extract import run_checkpoint

    src = tmp_path / "pages"
    out = tmp_path / "out"
    write_corpus(str(src), 120, n_shards=4)
    run_checkpoint(str(src), str(out), n_partitions=4, emit_links=True)
    parts = sorted(p for p in out.iterdir() if p.name.startswith("part-"))
    assert len(parts) == 4
    import pandas as pd

    links = pd.concat(
        [pq.read_table(str(p / "links.parquet")).to_pandas() for p in parts]
    )
    assert len(links) > 0
    assert links["href"].str.len().gt(0).all()
    # per-page indices are dense from 0
    g = links.groupby("url")["link_idx"]
    assert (g.min() == 0).all()
    assert (g.max() == g.count() - 1).all()
    # links only come from html rows
    ext = pd.concat(
        [pq.read_table(str(p / "extracted.parquet")).to_pandas() for p in parts]
    )
    html_urls = set(ext[ext["content_type"] == "html"]["url"])
    assert set(links["url"]) <= html_urls


def test_checkpointed_training_matches_stream_and_resumes(
    ray_session, small_corpus, tmp_path
):
    """The checkpoint-backed training build equals the stream composition
    row-for-row, and a re-run after losing extraction partitions resumes
    (recomputes only the missing ones) to the identical packed output."""
    import pandas as pd

    from pdf_extractor_ray.pipelines.webpages import (
        checkpointed_training,
        corpus_to_training,
    )

    def canon(ds):
        df = ds.to_pandas()
        return df.sort_values("pos").reset_index(drop=True)

    stream = canon(corpus_to_training(small_corpus["corpus"]))
    work = str(tmp_path / "ckpt")
    ckpt = canon(checkpointed_training(small_corpus["corpus"], work, n_partitions=8))
    pd.testing.assert_frame_equal(stream, ckpt)

    # crash-and-resume: drop two extraction partitions, rebuild
    for pid in (2, 5):
        shutil.rmtree(os.path.join(work, f"part-{pid}"))
    again = canon(checkpointed_training(small_corpus["corpus"], work, n_partitions=8))
    pd.testing.assert_frame_equal(stream, again)


def test_resume_rejects_stale_pre_docid_checkpoint(ray_session, small_corpus, tmp_path):
    """A workdir extracted WITHOUT doc_ids (older release / plain extraction
    run) must fail fast with an actionable error when a doc_id-requiring
    resume reuses it — not a KeyError deep inside the packing exchange."""
    import pytest

    from pdf_extractor_ray.pipelines.extract import run_checkpoint

    out = str(tmp_path / "stale")
    run_checkpoint(
        small_corpus["corpus"], out, n_partitions=4, resume=False,
        emit_pages=False, assign_doc_ids=False,
    )
    with pytest.raises(ValueError, match="stale checkpoint"):
        run_checkpoint(
            small_corpus["corpus"], out, n_partitions=4, resume=True,
            emit_pages=False, assign_doc_ids=True,
        )
