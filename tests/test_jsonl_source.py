"""JSONL ingest/egress adapter: roundtrip exactness vs the parquet path,
including binary html payloads and the extraction pipeline downstream."""

import json

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def test_docs_jsonl_matches_parquet(ray_session, tmp_path):
    from pdf_extractor_ray.sources.jsonl import read_docs_jsonl

    sf = "/root/testdata/sf0.001"
    gold = pq.read_table(f"{sf}/documents.parquet").to_pandas()
    jl = tmp_path / "docs.jsonl"
    with open(jl, "w") as f:
        for rec in gold.to_dict("records"):
            f.write(json.dumps(rec) + "\n")
    got = (
        read_docs_jsonl(str(jl))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, gold.sort_values("doc_id").reset_index(drop=True)
    )


def test_pages_jsonl_roundtrip_through_extraction(ray_session, tmp_path):
    """corpus -> write_pages_jsonl -> read_pages_jsonl must reproduce the
    canonical schema and byte-identical html, and the extraction stage
    must produce the same text as the parquet-sourced run."""
    import ray.data as rd

    from pdf_extractor_ray.corpus import write_corpus
    from pdf_extractor_ray.sources.jsonl import (
        read_pages_jsonl,
        write_pages_jsonl,
    )
    from pdf_extractor_ray.sources.pages import read_pages

    pages_dir = tmp_path / "pages"
    write_corpus(str(pages_dir), 60, n_shards=2)

    jl_dir = tmp_path / "jl"
    write_pages_jsonl(
        rd.read_parquet(str(pages_dir)), str(jl_dir)
    )

    back = read_pages_jsonl(str(jl_dir))
    want = (
        read_pages(str(pages_dir))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    got = back.to_pandas().sort_values("url").reset_index(drop=True)
    got = got[want.columns.tolist()]
    assert [str(got[c].dtype) for c in ["url", "lang"]] == ["object", "object"]
    assert (got["url"] == want["url"]).all()
    assert all(a == b for a, b in zip(got["html"], want["html"]))
    assert (
        got["warc_ts"].astype("datetime64[us, UTC]")
        == want["warc_ts"].astype("datetime64[us, UTC]")
    ).all()

    # run the SAME sniff -> extract stages over both sources (the
    # composition warc_to_training uses): text must be byte-identical per
    # url regardless of the wire format
    from pdf_extractor_ray.functions.agg import instance_stage
    from pdf_extractor_ray.stages.extract import DocumentExtractor
    from pdf_extractor_ray.stages.sniff import sniff_and_partition

    def extract(pages):
        sniffed = pages.map_batches(sniff_and_partition, batch_format="pyarrow")
        return (
            instance_stage(sniffed, DocumentExtractor, emit_pages=False)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )

    jl_ext = extract(read_pages_jsonl(str(jl_dir)))
    pq_ext = extract(read_pages(str(pages_dir)))
    assert (jl_ext["url"] == pq_ext["url"]).all()
    assert (jl_ext["extracted_text"] == pq_ext["extracted_text"]).all()
    assert (jl_ext["status"] == pq_ext["status"]).all()


def test_docs_csv_matches_parquet(ray_session, tmp_path):
    """CSV ingest restores the canonical documents schema; newline-bearing
    text survives via quoting."""
    import csv

    from pdf_extractor_ray.sources.jsonl import read_docs_csv

    sf = "/root/testdata/sf0.001"
    gold = pq.read_table(f"{sf}/documents.parquet").to_pandas()
    p = tmp_path / "docs.csv"
    gold.to_csv(p, index=False, quoting=csv.QUOTE_NONNUMERIC)
    got = (
        read_docs_csv(str(p))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, gold.sort_values("doc_id").reset_index(drop=True)
    )


def test_pages_jsonl_malformed_base64_yields_null(ray_session, tmp_path):
    """A corrupt base64 html cell becomes null (row flagged downstream),
    never a thrown batch — the engine's swallow-and-flag contract."""
    from pdf_extractor_ray.sources.jsonl import read_pages_jsonl

    jl = tmp_path / "pages.jsonl"
    with open(jl, "w") as f:
        f.write(
            json.dumps(
                {
                    "url": "https://a/1",
                    "warc_ts": "2025-01-01T00:00:00+0000",
                    "html": "!!!not-base64!!!",
                    "lang": "en",
                }
            )
            + "\n"
        )
        f.write(
            json.dumps(
                {
                    "url": "https://a/2",
                    "warc_ts": "2025-01-01T00:00:01+0000",
                    "html": "PGh0bWw+",  # "<html>"
                    "lang": "en",
                }
            )
            + "\n"
        )
    df = read_pages_jsonl(str(jl)).to_pandas().sort_values("url")
    assert df["html"].iloc[0] is None or pd.isna(df["html"].iloc[0])
    assert df["html"].iloc[1] == b"<html>"


def test_ipc_roundtrip(ray_session, tmp_path):
    """documents -> IPC sink -> IPC source reproduces the table exactly;
    the manifest accounts for every row; re-running the sink converges
    the directory to the new run's manifest (no stale part files)."""
    import pandas as pd
    import ray.data as rd

    from pdf_extractor_ray.sources.ipc import read_docs_ipc, write_docs_ipc

    src = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    out = str(tmp_path / "ipc")
    manifest = write_docs_ipc(src, out)
    assert manifest["rows"].to_pandas().sum() == src.count()
    # idempotent re-run at the DIRECTORY level: the committed manifest
    # names exactly the part files on disk, stale ones are pruned
    m2 = write_docs_ipc(rd.read_parquet("/root/testdata/sf0.001/documents.parquet"), out)
    on_disk = {str(p) for p in (tmp_path / "ipc").glob("part-*.arrow")}
    assert on_disk == set(m2["file"].to_pylist())
    assert m2["rows"].to_pandas().sum() == src.count()

    back = read_docs_ipc(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    orig = src.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(back[sorted(back.columns)], orig[sorted(orig.columns)])


def test_ipc_identical_blocks_preserved(ray_session, tmp_path):
    """Two DISTINCT blocks with byte-identical contents must both survive
    egress (row multiset preserved — the r2 ADVICE finding: content-hash-
    only names silently collapsed them)."""
    import pyarrow as pa
    import ray.data as rd

    from pdf_extractor_ray.sources.ipc import read_docs_ipc, write_docs_ipc

    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["a", "b"]),
            "lang": pa.array(["en", "en"]),
            "source": pa.array(["s", "s"]),
            "n_chars": pa.array([1, 1], pa.int64()),
        }
    )
    ds = rd.from_arrow(t).union(rd.from_arrow(t))  # 2 byte-identical blocks
    out = str(tmp_path / "dup")
    manifest = write_docs_ipc(ds, out)
    assert manifest.num_rows == 2
    assert len(set(manifest["file"].to_pylist())) == 2
    back = read_docs_ipc(out).to_pandas()
    assert len(back) == 4
    assert sorted(back["doc_id"].tolist()) == [1, 1, 2, 2]


def test_ipc_late_block_write_cannot_reach_commit(ray_session, tmp_path, monkeypatch):
    """A block write replayed after the commit (a late zombie attempt of a
    task whose retry already succeeded) must not add a part file to the
    committed directory: on disk stay exactly the manifest's files."""
    import pyarrow as pa
    import ray.data as rd

    from pdf_extractor_ray.sources.ipc import read_docs_ipc, write_docs_ipc

    udfs = []
    map_batches = rd.Dataset.map_batches

    def spy(self, fn, *args, **kwargs):
        udfs.append(fn)
        return map_batches(self, fn, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "map_batches", spy)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["a", "b"]),
            "lang": pa.array(["en", "en"]),
            "source": pa.array(["s", "s"]),
            "n_chars": pa.array([1, 1], pa.int64()),
        }
    )
    out = tmp_path / "late"
    manifest = write_docs_ipc(rd.from_arrow(t), str(out))
    (write_block,) = [f for f in udfs if f.__name__ == "write_block"]
    try:
        write_block(t)  # the late attempt, after the commit
    except OSError:
        pass
    on_disk = {str(p) for p in out.glob("part-*.arrow")}
    assert on_disk == set(manifest["file"].to_pylist())
    assert [p.name for p in out.iterdir() if p.name.startswith(".staging")] == []
    assert read_docs_ipc(str(out)).count() == 2


def test_ipc_empty_dir_reads_empty(ray_session, tmp_path):
    """Empty egress directory -> empty canonical-schema dataset (was: crash
    in read_binary_files on an empty path list)."""
    from pdf_extractor_ray.sources.ipc import read_docs_ipc

    empty = tmp_path / "none"
    empty.mkdir()
    ds = read_docs_ipc(str(empty))
    assert ds.count() == 0
    assert "doc_id" in ds.schema().names
