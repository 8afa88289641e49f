"""Seeded workload corpora, their single-process oracle, and the correctness
gates every timed pass must clear.

Rows come from ``corpus.gen_row(i, seed)``. A workload keeps row ``i`` when
its generator class is one the workload wants and that class's quota is not
yet full, so every seed yields the same class counts (the FIXTURES shares,
rescaled to the workload) and only the row contents change with the seed.
Without quotas the ~2% ``pdf_big`` rows, which carry most of the PDF pages,
move the per-seed work by more than the benchmark's bounds. Each kept row is
also checked against ``kernels.sniff.sniff_bytes``, so the program only ever
sees generated Parquet shards of the content types the workload names.

Corpora and oracle outputs are load generation: they are built outside every
timed region and cached under the work directory, keyed by workload, seed and
a hash of the package's sources and this file, so a cached oracle is always
the output of the code under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_extractor_ray import corpus
from pdf_extractor_ray.kernels.sniff import sniff_bytes
from pdf_extractor_ray.oracle import oracle_extract_tables

# generator class -> share of rows (FIXTURES.md section 2), from the
# generator's cumulative mixture
FIXTURE_SHARES = {
    name: round(cum - prev, 6)
    for (name, cum), prev in zip(corpus._MIXTURE, [0.0] + [c for _, c in corpus._MIXTURE])
}
SNIFF_CLASS = {
    "html_article": "html",
    "html_linkfarm": "html",
    "html_malformed": "html",
    "pdf_simple": "pdf",
    "pdf_flate": "pdf",
    "pdf_big": "pdf",
    "pdf_corrupt": "pdf",
    "empty": "empty",
    "image": "image",
    "unknown": "unknown",
}
DUP_SHARE = 0.01

# The sizes below keep one pass at a few seconds on one core, so a run of
# ``--seconds`` holds several passes and the whole run stays well inside
# the per-run time limit.
WORKLOADS = {
    "pdf_checkpoint": {
        "classes": ("pdf_simple", "pdf_flate", "pdf_big", "pdf_corrupt"),
        "docs": 800,
        "shards": 8,
        "partitions": 4,
        "lost": 2,
    },
    "mix_shards": {
        "classes": tuple(FIXTURE_SHARES),
        "docs": 2000,
        "shards": 8,
        "partitions": 8,
        "lost": 1,
        "budget": 512,
    },
}
# Each set-up runs the workload's pipeline once over a warm-up corpus: one
# shard as large as a shard of the timed corpus, from its own seed, so
# workers reach the memory a timed partition needs before timing starts.
WARM_SEED_OFFSET = 10**9

COMPARE_COLUMNS = ["extracted_text", "status", "content_type", "n_pages", "spans", "warc_ts"]


def source_hash() -> str:
    """Hash of every source file of ``pdf_extractor_ray`` and of this file:
    a cached corpus and oracle are valid only for the code that made them."""
    package = os.path.dirname(corpus.__file__)
    paths = [__file__]
    for d, _, names in os.walk(package):
        paths += [os.path.join(d, n) for n in names if n.endswith(".py")]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, package).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def row_class(i: int, seed: int) -> tuple[str, int | None]:
    """(generator class, duplicate source) of ``gen_row(i, seed)``; the
    source is None for a row that is not a duplicate. Mirrors the rng calls
    ``gen_row`` makes before it writes the payload."""
    rng = random.Random(f"{seed}:{i}")
    if i > 0 and rng.random() < corpus.DUP_RATE:
        return "dup", i - 1 - rng.randrange(min(i, 50))
    return corpus._row_class(rng), None


def quotas(classes, n_docs: int) -> dict[str, int]:
    total = sum(FIXTURE_SHARES[c] for c in classes)
    q = {c: max(1, round(n_docs * FIXTURE_SHARES[c] / total)) for c in classes}
    q["dup"] = max(1, round(n_docs * DUP_SHARE))
    return q


def select_rows(classes, n_docs: int, seed: int) -> list[tuple[int, str]]:
    """Row indices (with class) a workload keeps for ``seed``. A duplicate
    row is kept when the row it copies was kept and the duplicate quota is
    not full; the scan ends when every class quota is full."""
    left = quotas(classes, n_docs)
    kept: dict[int, str] = {}
    root: dict[int, int] = {}
    out: list[tuple[int, str]] = []
    i = 0
    while any(v for c, v in left.items() if c != "dup"):
        if i > 400 * n_docs:
            raise RuntimeError(f"quotas {left} not met by row {i}")
        cls, src = row_class(i, seed)
        if cls == "dup":
            root[i] = root.get(src, src)
            if left["dup"] and root[i] in kept:
                left["dup"] -= 1
                out.append((i, "dup:" + kept[root[i]]))
        elif cls in left and left[cls]:
            left[cls] -= 1
            kept[i] = cls
            out.append((i, cls))
        i += 1
    return out


def content_types(classes) -> set[str]:
    """The sniffed content types a workload of these classes may contain."""
    return {SNIFF_CLASS[c] for c in classes}


def make_table(rows: list[tuple[int, str]], seed: int, allowed: set[str]) -> pa.Table:
    """Generate the kept rows; a row whose payload sniffs outside
    ``allowed`` is an error (random ``unknown`` bytes may sniff as html,
    which only the mixed workload allows)."""
    recs = []
    for i, cls in rows:
        r = corpus.gen_row(i, seed)
        got = sniff_bytes(r["html"])
        if got not in allowed:
            raise RuntimeError(f"row {i} ({cls}) sniffs as {got}, outside {sorted(allowed)}")
        recs.append(r)
    return pa.table(
        {
            "url": pa.array([r["url"] for r in recs], pa.string()),
            "warc_ts": pa.array([r["warc_ts"] for r in recs], pa.timestamp("us", tz="UTC")),
            "html": pa.array([r["html"] for r in recs], pa.large_binary()),
            "text": pa.array([r["text"] for r in recs], pa.string()),
            "lang": pa.array([r["lang"] for r in recs], pa.string()),
        },
        schema=corpus.PAGES_SCHEMA,
    )


def shard_rows(rows: list[tuple[int, str]], n_shards: int) -> list[list[int]]:
    """Positions of ``rows`` in each shard. Rows are dealt round-robin in
    (class, row index) order, so every shard, and so every checkpoint
    partition, holds the same class counts to within one; within a shard
    rows keep their index order."""
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    order = sorted(range(len(rows)), key=lambda j: (rows[j][1], rows[j][0]))
    for n, j in enumerate(order):
        shards[n % n_shards].append(j)
    return [sorted(s) for s in shards]


def write_shards(table: pa.Table, rows: list[tuple[int, str]], out_dir: str, n_shards: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for k, positions in enumerate(shard_rows(rows, n_shards)):
        pq.write_table(table.take(positions), os.path.join(out_dir, f"part-{k:05d}.parquet"))


def build(name: str, seed: int, cache_root: str, *, warm: bool = False) -> dict:
    """Corpus shards and oracle output of one workload and seed, or the
    shards of its warm-up corpus (no oracle: warm-up passes are not gated),
    built once and cached. Returns paths and counts."""
    spec = WORKLOADS[name]
    n_docs, n_shards = spec["docs"], spec["shards"]
    if warm:
        seed, n_docs, n_shards = seed + WARM_SEED_OFFSET, n_docs // n_shards, 1
    key = f"{name}-{n_docs}x{n_shards}-{seed}-{source_hash()}"
    root = os.path.join(cache_root, key)
    done = os.path.join(root, "_DONE.json")
    if os.path.exists(done):
        with open(done) as f:
            return json.load(f)
    shutil.rmtree(root, ignore_errors=True)
    rows = select_rows(spec["classes"], n_docs, seed)
    table = make_table(rows, seed, content_types(spec["classes"]))
    pages_dir = os.path.join(root, "pages")
    write_shards(table, rows, pages_dir, n_shards)
    info = {
        "workload": name,
        "seed": seed,
        "pages": pages_dir,
        "docs": table.num_rows,
        "bytes": int(pc.sum(pc.binary_length(table["html"])).as_py() or 0),
        "classes": {c: sum(1 for _, k in rows if k == c) for c in sorted({k for _, k in rows})},
    }
    if not warm:
        extracted, _ = oracle_extract_tables(table)
        info["oracle"] = os.path.join(root, "oracle.parquet")
        info["unique_docs"] = extracted.num_rows
        pq.write_table(extracted.select(["url"] + COMPARE_COLUMNS), info["oracle"])
    with open(done, "w") as f:
        json.dump(info, f)
    return info


def count_mismatches(output: pa.Table, oracle: pa.Table) -> int:
    """Docs whose output row is missing, duplicated, extra or not
    byte-identical to the oracle on every compared column."""
    out = output.select(["url"] + COMPARE_COLUMNS).sort_by("url")
    want = oracle.select(["url"] + COMPARE_COLUMNS).sort_by("url")
    if out.equals(want):
        return 0
    got_rows = {}
    bad = 0
    cols = {c: out[c].to_pylist() for c in ["url"] + COMPARE_COLUMNS}
    for j, u in enumerate(cols["url"]):
        if u in got_rows:
            bad += 1  # a duplicated url: the second copy is an error
            continue
        got_rows[u] = j
    ocols = {c: want[c].to_pylist() for c in ["url"] + COMPARE_COLUMNS}
    for k, u in enumerate(ocols["url"]):
        j = got_rows.pop(u, None)
        if j is None or any(cols[c][j] != ocols[c][k] for c in COMPARE_COLUMNS):
            bad += 1
    return bad + len(got_rows)
