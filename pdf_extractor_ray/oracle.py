"""Single-process golden-output generator: plain Python loop over the
corpus, calling the SAME kernels the Ray pipeline uses (FIXTURES.md §3,
SURVEY.md §5). No Ray. Output tables are sorted (url) / (url, page_number)
so files are byte-stable; first-wins dedup on url = keep min warc_ts
(mirroring the reference's one-row-per-key upsert semantics,
``/root/reference/backend/src/main.py:1124-1159`` +
``backend/src/migration.py:309-365``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from .kernels import extract_document

EXTRACTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("lang", pa.string()),
        ("content_type", pa.string()),
        ("extracted_text", pa.large_string()),
        ("tables", pa.large_string()),
        ("spans", pa.list_(pa.struct([("start", pa.int64()), ("end", pa.int64()), ("kind", pa.string())]))),
        ("n_pages", pa.int32()),
        ("status", pa.string()),
        ("error", pa.string()),
    ]
)

PAGES_OUT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("page_number", pa.int32()),
        ("page_text", pa.large_string()),
        ("page_tables", pa.large_string()),
    ]
)


def oracle_extract_tables(pages: pa.Table) -> tuple[pa.Table, pa.Table]:
    """(extracted, extracted_pages) for an input ``pages`` table. A null url
    raises ``ValueError``, as in the pipeline's keys pass."""
    if pages["url"].null_count:
        raise ValueError(
            f"pages table has {pages['url'].null_count} row(s) with a null url"
        )
    # first-wins dedup: min warc_ts per url, ties broken by input order
    best: dict[str, int] = {}
    urls = pages["url"].to_pylist()
    tss = pages["warc_ts"].to_pylist()
    for idx, (u, ts) in enumerate(zip(urls, tss)):
        if u not in best or tss[best[u]] > ts:
            best[u] = idx
    keep = sorted(best.values(), key=lambda i: urls[i])

    sub = pages.take(keep)
    out_rows = {k: [] for k in EXTRACTED_SCHEMA.names}
    page_rows: list[tuple[str, int, str]] = []
    for i in range(sub.num_rows):
        url = sub["url"][i].as_py()
        payload = sub["html"][i].as_py()
        ctype, res = extract_document(payload)
        out_rows["url"].append(url)
        out_rows["warc_ts"].append(sub["warc_ts"][i].as_py())
        out_rows["lang"].append(sub["lang"][i].as_py())
        out_rows["content_type"].append(ctype)
        out_rows["extracted_text"].append(res.text)
        out_rows["tables"].append(res.doc_tables)
        out_rows["spans"].append([{"start": s.start, "end": s.end, "kind": s.kind} for s in res.spans])
        out_rows["n_pages"].append(res.n_pages)
        out_rows["status"].append(res.status)
        out_rows["error"].append(res.error)
        ptables = res.tables_aligned()
        for pn, ptext in enumerate(res.pages, start=1):
            page_rows.append((url, pn, ptext, ptables[pn - 1]))

    extracted = pa.table(
        {name: pa.array(out_rows[name], EXTRACTED_SCHEMA.field(name).type) for name in EXTRACTED_SCHEMA.names},
        schema=EXTRACTED_SCHEMA,
    )
    page_rows.sort(key=lambda r: (r[0], r[1]))
    extracted_pages = pa.table(
        {
            "url": pa.array([r[0] for r in page_rows], pa.string()),
            "page_number": pa.array([r[1] for r in page_rows], pa.int32()),
            "page_text": pa.array([r[2] for r in page_rows], pa.large_string()),
            "page_tables": pa.array([r[3] for r in page_rows], pa.large_string()),
        },
        schema=PAGES_OUT_SCHEMA,
    )
    return extracted, extracted_pages


def write_golden(corpus_dir: str, out_dir: str) -> tuple[str, str]:
    import glob
    import os

    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    pages = pa.concat_tables([pq.read_table(f) for f in files])
    extracted, extracted_pages = oracle_extract_tables(pages)
    os.makedirs(out_dir, exist_ok=True)
    p1 = os.path.join(out_dir, "extracted.parquet")
    p2 = os.path.join(out_dir, "extracted_pages.parquet")
    pq.write_table(extracted, p1)
    pq.write_table(extracted_pages, p2)
    return p1, p2


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("corpus_dir")
    ap.add_argument("out_dir")
    args = ap.parse_args()
    print(write_golden(args.corpus_dir, args.out_dir))
