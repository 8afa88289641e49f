"""write_training_shards: the materialized packed-sequence egress must
reproduce the exact global token stream the assignment metadata defines —
every sequence except the last carries exactly `budget` tokens, and the
concatenation of all sequences in seq_id order equals the concatenation
of winner documents' tokens in shuffle (pos) order."""

import glob
import random
import re

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

_WORDS = ["river", "stone", "lantern", "orbit", "meadow", "signal", "harbor", "copper"]


def _read_shards(out_dir) -> pa.Table:
    files = glob.glob(str(out_dir / "*.parquet"))
    return pa.concat_tables([pq.read_table(f) for f in files]).sort_by(
        [("seq_id", "ascending")]
    )


def _write_pages(pages_dir, shards: list[list[str]]) -> None:
    """One corpus shard per list of document texts, each text wrapped in
    the HTML page template under its own url."""
    from pdf_extractor_ray.pipelines.webpages import docs_to_pages

    pages_dir.mkdir()
    first = 0
    for k, texts in enumerate(shards):
        ids = pa.array(range(first, first + len(texts)), pa.int64())
        first += len(texts)
        docs = pa.table({"doc_id": ids, "text": texts, "lang": ["en"] * len(texts)})
        t = docs_to_pages(docs)
        t = t.append_column("text", pa.array(texts, pa.string()))
        pq.write_table(t, str(pages_dir / f"part-{k:05d}.parquet"))


def _long_text(seed: int) -> str:
    rng = random.Random(seed)
    return " ".join(rng.choice(_WORDS) for _ in range(60))


def _set_ranges(monkeypatch, pages, n_ranges: int) -> None:
    """Make ``write_training_shards`` over ``pages`` pack in ``n_ranges`` k0
    ranges, by ``_KEYS_PER_RANGE``."""
    from pdf_extractor_ray.pipelines import webpages
    from pdf_extractor_ray.sources.pages import count_rows

    n = count_rows(str(pages))
    per = -(-n // n_ranges)
    assert -(-n // per) == n_ranges
    monkeypatch.setattr(webpages, "_KEYS_PER_RANGE", per)


def test_training_shards_exact_stream(ray_session, small_corpus, tmp_path, monkeypatch):
    from pdf_extractor_ray.pipelines.webpages import (
        checkpointed_training,
        write_training_shards,
    )

    budget = 64
    _set_ranges(monkeypatch, small_corpus["corpus"], 1)
    summary = write_training_shards(
        small_corpus["corpus"],
        str(tmp_path / "work"),
        str(tmp_path / "shards"),
        budget=budget,
        n_partitions=4,
    )
    # packing in three k0 ranges must produce byte-identical shards
    _set_ranges(monkeypatch, small_corpus["corpus"], 3)
    write_training_shards(
        small_corpus["corpus"],
        str(tmp_path / "work"),
        str(tmp_path / "shards3"),
        budget=budget,
        n_partitions=4,
    )
    assert _shard_bytes(tmp_path / "shards") == _shard_bytes(tmp_path / "shards3")
    shard_files = glob.glob(str(tmp_path / "shards" / "*.parquet"))
    assert shard_files
    seqs = (
        pa.concat_tables([pq.read_table(f) for f in shard_files])
        .sort_by([("seq_id", "ascending")])
    )
    n_seqs = seqs.num_rows
    assert summary["n_seqs"][0].as_py() == n_seqs
    assert seqs["seq_id"].to_pylist() == list(range(n_seqs))  # contiguous
    ntoks = seqs["n_tokens"].to_pylist()
    assert all(n == budget for n in ntoks[:-1])  # full windows
    assert 0 < ntoks[-1] <= budget
    assert summary["n_tokens"][0].as_py() == sum(ntoks)

    # the reference stream: winners in pos order, their extracted texts'
    # whitespace tokens concatenated (reuses the same extraction checkpoint)
    meta = (
        checkpointed_training(
            small_corpus["corpus"],
            str(tmp_path / "work"),
            budget=budget,
            n_partitions=4,
        )
        .to_pandas()
        .sort_values("pos")
    )
    ext = pa.concat_tables(
        [
            pq.read_table(f, columns=["extracted_text"]).append_column(
                "doc_id", pq.read_table(f, columns=["doc_id"])["doc_id"]
            )
            for f in glob.glob(str(tmp_path / "work" / "part-*" / "extracted.parquet"))
        ]
    ).to_pandas().set_index("doc_id")
    expected: list[str] = []
    for doc_id in meta["doc_id"]:
        expected.extend(re.split(r"[ \t\n\r\f\v]+", ext.loc[doc_id, "extracted_text"].strip()))
    got: list[str] = []
    for t in seqs["text"].to_pylist():
        got.extend(t.split(" "))
    assert got == expected


@pytest.mark.parametrize("n_ranges", [1, 3])
def test_rerun_without_winners_clears_stale_shards(
    ray_session, small_corpus, tmp_path, monkeypatch, n_ranges
):
    """A rerun into the same out_dir whose input yields no winner leaves no
    shard of the earlier run behind its zero summary."""
    from pdf_extractor_ray.pipelines.webpages import write_training_shards

    out = tmp_path / "shards"
    kw = dict(budget=64, n_partitions=4)
    _set_ranges(monkeypatch, small_corpus["corpus"], n_ranges)
    write_training_shards(
        small_corpus["corpus"], str(tmp_path / "work"), str(out), **kw
    )
    assert glob.glob(str(out / "*.parquet"))

    # every doc is far below the quality gate's 100 characters
    _write_pages(tmp_path / "short", [["tiny page"], ["another tiny page", "short"]])
    _set_ranges(monkeypatch, tmp_path / "short", n_ranges)
    summary = write_training_shards(
        str(tmp_path / "short"), str(tmp_path / "work2"), str(out), **kw
    )
    assert summary.to_pylist() == [{"n_seqs": 0, "n_tokens": 0}]
    assert glob.glob(str(out / "*.parquet")) == []


def test_duplicate_texts_pack_once_at_lowest_doc_id(ray_session, tmp_path, monkeypatch):
    """Identical texts under different urls, across checkpoint partitions
    and within one: one k0 range or three, each text packs once, at its
    lowest doc_id, in checkpointed_training's order."""
    from pdf_extractor_ray.pipelines.webpages import (
        checkpointed_training,
        write_training_shards,
    )

    a, b, c = _long_text(1), _long_text(2), _long_text(3)
    # 4 shards into 4 partitions: each shard is its own checkpoint partition
    shards = [
        [_long_text(10), a, "too short"],
        [b, _long_text(11)],
        [c, _long_text(12), c, b],
        [a, _long_text(13)],
    ]
    _write_pages(tmp_path / "pages", shards)
    pages, work, budget = str(tmp_path / "pages"), str(tmp_path / "work"), 16
    plans = []
    for n_ranges in (1, 3):
        _set_ranges(monkeypatch, pages, n_ranges)
        out = tmp_path / f"shards-{n_ranges}"
        summary = write_training_shards(
            pages, work, str(out), budget=budget, n_partitions=4
        )
        seqs = _read_shards(out)
        assert summary["n_seqs"][0].as_py() == seqs.num_rows
        assert summary["n_tokens"][0].as_py() == sum(seqs["n_tokens"].to_pylist())
        plans.append(seqs)
    assert plans[0].equals(plans[1])

    meta = (
        checkpointed_training(pages, work, budget=budget, n_partitions=4)
        .to_pandas()
        .sort_values("pos")
    )
    ext = pa.concat_tables(
        [
            pq.read_table(f, columns=["doc_id", "extracted_text", "status"])
            for f in glob.glob(str(tmp_path / "work" / "part-*" / "extracted.parquet"))
        ]
    )
    ext = ext.filter(pc.equal(ext["status"], "ok"))
    text_of = dict(zip(ext["doc_id"].to_pylist(), ext["extracted_text"].to_pylist()))
    winners = [text_of[d] for d in meta["doc_id"]]
    assert len(winners) == len(set(winners)) == 7  # 10 long docs, 3 copies
    for planted in (a, b, c):
        ids = sorted(d for d, t in text_of.items() if planted in t)
        assert len(ids) == 2
        assert ids[0] in set(meta["doc_id"]) and ids[1] not in set(meta["doc_id"])

    expected: list[str] = []
    for t in winners:
        expected.extend(re.split(r"[ \t\n\r\f\v]+", t.strip()))
    got: list[str] = []
    for t in plans[0]["text"].to_pylist():
        got.extend(t.split(" "))
    assert got == expected


def test_training_offsets_match_bucketed_packing(tmp_path):
    """``training_offsets`` (one sort) packs as ``prepare_training_ds``'
    md5-prefix buckets do, copies and 64-bit k0 collisions included: each
    (k0, k1) once, at its lowest doc_id, in md5 hex order. So does
    ``range_offsets`` over R k0 ranges of partition tables, each range's
    offsets shifted by the totals of the ranges before."""
    import numpy as np

    from pdf_extractor_ray.functions.agg import range_bucket
    from pdf_extractor_ray.functions.textops import (
        TRAINING_KEY_RANGE,
        first_per_key,
        training_offsets,
    )
    from pdf_extractor_ray.pipelines.webpages import range_offsets

    rng = np.random.default_rng(5)
    n = 3000
    k0 = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    k1 = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    k0[100:200] = k0[:100]  # another text with the same k0
    k0[200:300], k1[200:300] = k0[:100], k1[:100]  # copies of one text
    ids = rng.permutation(n).astype(np.int64)
    ntok = rng.integers(1, 50, n).astype(np.int64)
    full = pa.table({"doc_id": ids, "k0": k0, "k1": k1, "n_tokens": ntok})
    keys = pa.concat_tables([full.slice(0, 1000), full.slice(1000)])  # 2 blocks

    best: dict[str, tuple[int, int]] = {}
    for d, a, b, t in zip(ids.tolist(), k0.tolist(), k1.tolist(), ntok.tolist()):
        key = f"{a:016x}{b:016x}"
        if key not in best or d < best[key][0]:
            best[key] = (d, t)
    assert len(best) == n - 100
    ref_ids, ref_starts, pos = [], [], 0
    for key in sorted(best):
        ref_ids.append(best[key][0])
        ref_starts.append(pos)
        pos += best[key][1]

    got_ids, got_starts, total = training_offsets(keys)
    by_id = np.argsort(ref_ids)
    assert got_ids.tolist() == np.asarray(ref_ids)[by_id].tolist()
    assert got_starts.tolist() == np.asarray(ref_starts)[by_id].tolist()
    assert total == pos

    # prepare_training_ds' order: dedup per bucket, buckets concatenated
    pp = range_bucket(keys["k0"].to_numpy(), *TRAINING_KEY_RANGE, 7)
    packed = []
    for b in range(7):
        g = keys.filter(pa.array(pp == b))
        packed.extend(g["doc_id"].to_numpy()[first_per_key(g)].tolist())
    assert packed == ref_ids

    # the egress' range tasks over keys files of 64-row groups: copies and
    # colliding k0 across files (rows 0-299 span the first two), one file
    # in key order
    parts = [full.slice(0, 150), full.slice(150, 1550), full.slice(1700)]
    parts[2] = parts[2].sort_by([("k0", "ascending"), ("k1", "ascending")])
    paths = [str(tmp_path / f"keys-{p}.parquet") for p in range(3)]
    for t, path in zip(parts, paths):
        pq.write_table(t, path, row_group_size=64)
    for n_ranges in (1, 3, 7):
        base, got = 0, [[] for _ in parts]
        for r in range(n_ranges):
            offsets, total, _ = range_offsets(paths, r, n_ranges)
            for p, (pid, pstart) in enumerate(offsets):
                assert pid.tolist() == sorted(pid.tolist())
                got[p].extend(zip(pid.tolist(), (pstart + base).tolist()))
            base += total
        assert base == pos
        for p, t in enumerate(parts):
            mine = set(t["doc_id"].to_pylist())
            want = [(d, s) for d, s in zip(got_ids.tolist(), got_starts.tolist()) if d in mine]
            assert sorted(got[p]) == want


_WS_SPLIT = r"[ \t\n\r\f\v]+"
# ASCII whitespace next to characters a unicode-aware split would also
# treat as whitespace (\x1c, \x85, NBSP, ideographic space): only the
# former separate tokens
_PIECES = [
    "ab", "é", "日本", "x", " ", "  ", "\t", "\n", "\r\n", "\f", "\v",
    "\x1c", "\x85", " ", "　",
]


def _ref_segments(docs, starts, budget):
    """(seq_id, seg_start, seg_text) rows from ``re.split``: each doc's
    tokens at global positions start, start + 1, ..., cut where the
    window changes."""
    rows = []
    for text, start in zip(docs, starts):
        toks = [w for w in re.split(_WS_SPLIT, text or "") if w]
        for j, tok in enumerate(toks):
            pos = start + j
            if rows and j and rows[-1]["seq_id"] == pos // budget:
                rows[-1]["seg_text"] += " " + tok
            else:
                rows.append({"seq_id": pos // budget, "seg_start": pos, "seg_text": tok})
    return rows


def test_ws_tokenizer_matches_regex_split():
    """``ws_bounds`` (via ``_ws_tokens`` and ``_segments_table``) splits as
    ``re.split`` on ASCII whitespace does: string and large_string,
    sliced arrays, chunked arrays, empty and null docs."""
    from pdf_extractor_ray.functions.textops import _ws_tokens
    from pdf_extractor_ray.pipelines.webpages import _segments_table

    rng = random.Random(3)
    for case in range(400):
        docs = [
            None if rng.random() < 0.1
            else "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 14)))
            for _ in range(rng.randint(1, 9))
        ]
        arr = pa.array(docs, rng.choice([pa.string(), pa.large_string()]))
        lo = rng.randint(0, len(docs) - 1) if case % 3 == 0 else 0
        arr, docs = arr.slice(lo), docs[lo:]
        if case % 2 and len(docs) > 1:
            k = rng.randint(1, len(docs) - 1)
            arr = pa.chunked_array([arr.slice(0, k), arr.slice(k)])
        counts = [None if d is None else len([w for w in re.split(_WS_SPLIT, d) if w]) for d in docs]
        assert _ws_tokens(arr).to_pylist() == counts, docs
        order = list(range(len(docs)))
        rng.shuffle(order)  # winners pack in key order, not doc order
        starts, pos = [0] * len(docs), rng.randint(0, 5)
        for i in order:
            starts[i], pos = pos, pos + (counts[i] or 0)
        for budget in (3, 512):
            got = _segments_table(arr, starts, budget).to_pylist()
            assert got == _ref_segments(docs, starts, budget), (docs, budget)


def test_keys_product_and_stale_partition_resume(ray_session, small_corpus, tmp_path):
    """Each doc-id checkpoint partition writes ``training_keys`` of its ok
    rows as keys.parquet; a partition committed without one re-extracts,
    alone, and the shards stay byte-identical."""
    import os

    from pdf_extractor_ray.functions.textops import training_keys
    from pdf_extractor_ray.pipelines.extract import ok_docs
    from pdf_extractor_ray.pipelines.webpages import write_training_shards

    work, kw = tmp_path / "work", dict(budget=64, n_partitions=4)
    write_training_shards(small_corpus["corpus"], str(work), str(tmp_path / "a"), **kw)
    parts = sorted(work.glob("part-*"))
    assert len(parts) == 4
    for part in parts:
        ext = pq.read_table(part / "extracted.parquet")
        want = training_keys(ok_docs(ext)).sort_by(
            [("k0", "ascending"), ("k1", "ascending"), ("doc_id", "ascending")]
        )
        assert pq.read_table(part / "keys.parquet").equals(want)

    def stamps():
        return [os.stat(p / "_MANIFEST.json").st_mtime_ns for p in parts]

    before = stamps()
    (work / "part-2" / "keys.parquet").unlink()
    write_training_shards(small_corpus["corpus"], str(work), str(tmp_path / "b"), **kw)
    after = stamps()
    assert [a != b for a, b in zip(before, after)] == [False, False, True, False]
    assert (work / "part-2" / "keys.parquet").exists()
    assert _read_shards(tmp_path / "a").equals(_read_shards(tmp_path / "b"))


def test_partition_without_ok_rows_writes_empty_keys(ray_session, tmp_path):
    """A partition none of whose rows extracts ``ok`` still commits a
    zero-row keys.parquet, so a resume skips it."""
    from pdf_extractor_ray.pipelines.extract import run_checkpoint

    _write_pages(tmp_path / "pages", [[_long_text(20)], [_long_text(21)]])
    empty = tmp_path / "pages" / "part-00001.parquet"
    t = pq.read_table(empty)
    i = t.column_names.index("html")
    pq.write_table(t.set_column(i, "html", pa.array([b""], t["html"].type)), empty)
    work = str(tmp_path / "work")
    kw = dict(n_partitions=2, emit_pages=False, assign_doc_ids=True)
    m = run_checkpoint(str(tmp_path / "pages"), work, resume=True, **kw)
    assert m["n_ok"].to_pylist() == [1, 0]
    keys = [pq.read_table(f"{work}/part-{p}/keys.parquet") for p in (0, 1)]
    assert [k.num_rows for k in keys] == [1, 0]
    assert keys[1].schema == keys[0].schema
    assert run_checkpoint(str(tmp_path / "pages"), work, resume=True, **kw).num_rows == 0


def _shard_ranges(out_dir) -> list[tuple[str, list[int]]]:
    """(file name, seq ids in file order) per ``shard-*`` file, by name."""
    return [
        (p.name, pq.read_table(p, columns=["seq_id"])["seq_id"].to_pylist())
        for p in sorted(out_dir.glob("shard-*.parquet"))
    ]


def _assert_range_shards(out_dir, n_seqs: int) -> None:
    """Every parquet file of ``out_dir`` is a ``shard-K`` file holding one
    contiguous ascending seq-id range, the ranges ascend with K and
    together cover 0 .. n_seqs - 1."""
    ranges = _shard_ranges(out_dir)
    assert sorted(p.name for p in out_dir.glob("*.parquet")) == [n for n, _ in ranges]
    flat: list[int] = []
    for _, ids in ranges:
        assert ids and ids == list(range(ids[0], ids[0] + len(ids)))
        flat.extend(ids)
    assert flat == list(range(n_seqs))


def write_training_shards_of(pages, work, out, **kw) -> pa.Table:
    from pdf_extractor_ray.pipelines.webpages import write_training_shards

    return write_training_shards(str(pages), str(work), str(out), **kw)


def test_range_shards_are_deterministic(ray_session, small_corpus, tmp_path, monkeypatch):
    """Two runs over one checkpoint into fresh dirs write the same
    ``shard-K`` names with the same bytes, each file one contiguous
    ascending seq-id range, and packing in three k0 ranges writes them
    too."""
    work, kw = str(tmp_path / "work"), dict(budget=64, n_partitions=4)
    _set_ranges(monkeypatch, small_corpus["corpus"], 1)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        summary = write_training_shards_of(small_corpus["corpus"], work, out, **kw)
        n_seqs = summary["n_seqs"][0].as_py()
        _assert_range_shards(out, n_seqs)
        runs.append({p.name: p.read_bytes() for p in out.glob("*.parquet")})
    assert runs[0] == runs[1]
    assert 1 < len(runs[0]) <= 4
    _set_ranges(monkeypatch, small_corpus["corpus"], 3)
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "r3", **kw)
    assert _shard_bytes(tmp_path / "r3") == runs[0]


def test_one_partition_writes_one_range(ray_session, small_corpus, tmp_path):
    """``n_partitions=1``: one segments file with one range, one shard
    file, the same rows as a four-partition checkpoint."""
    kw = dict(budget=64)
    one = write_training_shards_of(
        small_corpus["corpus"], tmp_path / "w1", tmp_path / "one", n_partitions=1, **kw
    )
    write_training_shards_of(
        small_corpus["corpus"], tmp_path / "w4", tmp_path / "four", n_partitions=4, **kw
    )
    assert [n for n, _ in _shard_ranges(tmp_path / "one")] == ["shard-00000.parquet"]
    _assert_range_shards(tmp_path / "one", one["n_seqs"][0].as_py())
    assert _read_shards(tmp_path / "one").equals(_read_shards(tmp_path / "four"))


def test_partitions_without_winners(ray_session, tmp_path, monkeypatch):
    """A partition whose ok texts all lose to copies in an earlier one, and
    a partition with no ok row, add nothing to the stream, in one k0 range
    or three."""
    a, b = _long_text(30), _long_text(31)
    _write_pages(
        tmp_path / "pages",
        [[a, _long_text(32)], [b, a], [a, b], ["tiny page"]],
    )
    plans = []
    for n_ranges in (1, 3):
        _set_ranges(monkeypatch, tmp_path / "pages", n_ranges)
        out = tmp_path / f"shards-{n_ranges}"
        summary = write_training_shards_of(
            tmp_path / "pages", tmp_path / "work", out, budget=16, n_partitions=4
        )
        _assert_range_shards(out, summary["n_seqs"][0].as_py())
        plans.append(_read_shards(out))
    assert plans[0].equals(plans[1])
    got: list[str] = []
    for t in plans[0]["text"].to_pylist():
        got.extend(t.split(" "))
    # each extracted text is the page title "doc" and the planted text
    winners = " ".join(f"doc {t}" for t in (a, _long_text(32), b))
    assert sorted(got) == sorted(winners.split(" "))


def test_fewer_sequences_than_partitions(ray_session, tmp_path, monkeypatch):
    """``n_seqs < nb``: empty seq-id ranges run no reduce and write no
    file, in one k0 range or in four (four input rows cannot make
    three)."""
    _write_pages(
        tmp_path / "pages", [[_long_text(40)], [_long_text(41)], [_long_text(42)], [_long_text(43)]]
    )
    kw = dict(budget=100, n_partitions=4)  # 4 docs x 61 tokens: 3 sequences
    _set_ranges(monkeypatch, tmp_path / "pages", 1)
    summary = write_training_shards_of(tmp_path / "pages", tmp_path / "work", tmp_path / "out", **kw)
    assert summary.to_pylist() == [{"n_seqs": 3, "n_tokens": 244}]
    # bounds 3k // 4: [0, 0, 1, 2, 3] -> range 0 is empty
    assert _shard_ranges(tmp_path / "out") == [
        ("shard-00001.parquet", [0]),
        ("shard-00002.parquet", [1]),
        ("shard-00003.parquet", [2]),
    ]
    _set_ranges(monkeypatch, tmp_path / "pages", 4)
    write_training_shards_of(tmp_path / "pages", tmp_path / "work", tmp_path / "r4", **kw)
    assert _shard_bytes(tmp_path / "out") == _shard_bytes(tmp_path / "r4")


def test_late_shard_write_cannot_reach_commit(ray_session, small_corpus, tmp_path, monkeypatch):
    """A reduce attempt replayed after the commit (a late zombie of a task
    whose retry already succeeded) must not add or change a file in the
    committed dir, and the staging dir is gone."""
    import tempfile

    from pdf_extractor_ray.pipelines import webpages

    staged = []
    mkdtemp = tempfile.mkdtemp

    def spy(*args, **kwargs):
        staged.append(mkdtemp(*args, **kwargs))
        return staged[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", spy)
    out = tmp_path / "out"
    write_training_shards_of(
        small_corpus["corpus"], tmp_path / "work", out, budget=64, n_partitions=4
    )
    (staging,) = staged
    committed = {p.name: p.read_bytes() for p in out.iterdir()}
    paths = [str(p) for p in _segments_files(tmp_path / "work")]
    key = webpages._segments_key(paths[0])
    with pytest.raises(OSError):
        webpages._write_shard(staging, 0, paths, key)  # the late attempt
    assert {p.name: p.read_bytes() for p in out.iterdir()} == committed
    assert not any(n.startswith(".staging") for n in committed)


def test_stale_staging_dir_is_removed(ray_session, small_corpus, tmp_path):
    """A killed run's ``.staging-*`` dir (and its shard file) is removed by
    the next run into the same dir; nothing of it is committed."""
    out = tmp_path / "out"
    stale = out / ".staging-killed"
    stale.mkdir(parents=True)
    pq.write_table(pa.table({"seq_id": [999]}), str(stale / "shard-00000.parquet"))
    summary = write_training_shards_of(
        small_corpus["corpus"], tmp_path / "work", out, budget=64, n_partitions=4
    )
    assert not stale.exists()
    assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []
    _assert_range_shards(out, summary["n_seqs"][0].as_py())


def _segments_files(work) -> list:
    """Every partition's ``segments.arrow``, in partition-dir order."""
    return sorted(work.glob("part-*/segments.arrow"), key=lambda p: p.parent.name)


def _segment_stamps(work) -> dict[str, tuple[int, int]]:
    """(inode, mtime) of each partition's ``segments.arrow``, by dir name:
    a rewrite renames a new file into place, so both change."""
    return {
        p.parent.name: (p.stat().st_ino, p.stat().st_mtime_ns)
        for p in _segments_files(work)
    }


def _shard_bytes(out_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out_dir.glob("*.parquet")}


def test_lost_partition_resegments_alone(ray_session, small_corpus, tmp_path):
    """Below the limit each partition keeps its winner segments as
    ``segments.arrow``, one record batch per seq-id range under the
    packing key; a resume after losing ``part-2`` rewrites only its file
    and writes the cold run's shards byte for byte."""
    import shutil

    from pdf_extractor_ray.functions.textops import training_offsets
    from pdf_extractor_ray.pipelines.extract import _partition_files
    from pdf_extractor_ray.pipelines.webpages import (
        _winner_segments,
        packing_key,
        range_offsets,
    )

    work, kw = tmp_path / "work", dict(budget=64, n_partitions=4)
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "a", **kw)
    before = _segment_stamps(work)
    assert sorted(before) == [f"part-{k}" for k in range(4)]
    keys = _partition_files(str(work), "keys.parquet")
    key = packing_key([range_offsets(keys, 0, 1)[2]], 64, 4)
    ids, starts, _ = training_offsets(pa.concat_tables([pq.read_table(p) for p in keys]))
    for p in _segments_files(work):
        f = pa.ipc.open_file(pa.memory_map(str(p)))
        assert f.schema.metadata[b"packing_key"] == key.encode()
        assert f.num_record_batches == 4
        seg = pa.Table.from_batches([f.get_batch(k) for k in range(4)], f.schema)
        docs = pq.read_table(p.parent / "extracted.parquet")
        docs = docs.filter(pc.equal(docs["status"], "ok"))
        docs = pa.table({"doc_id": docs["doc_id"], "text": docs["extracted_text"]})
        ref = _winner_segments(ids, starts, docs, 64)
        order = [("seq_id", "ascending"), ("seg_start", "ascending")]
        assert seg.replace_schema_metadata().sort_by(order).equals(ref.sort_by(order))

    shutil.rmtree(work / "part-2")
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "b", **kw)
    after = _segment_stamps(work)
    assert [k for k in sorted(before) if before[k] != after[k]] == ["part-2"]
    assert _shard_bytes(tmp_path / "a") == _shard_bytes(tmp_path / "b")


def _rewrite_one_shard(pages) -> None:
    """Replace the text of one input shard's first doc (a longer page, so
    the file's size changes too)."""
    path = pages / "part-00001.parquet"
    t = pq.read_table(path)
    i = t.column_names.index("html")
    html = t["html"].to_pylist()
    html[0] = html[0].replace(b"<article><p>", b"<article><p>fresh words " * 8, 1)
    pq.write_table(t.set_column(i, "html", pa.array(html, t["html"].type)), path)


@pytest.mark.parametrize("change", ["budget", "partitions", "input"])
def test_packing_change_rewrites_every_segments_file(ray_session, tmp_path, change):
    """A new ``budget``, partition count or input shard changes the packing
    key, so every ``segments.arrow`` is rewritten, and the shards equal a
    cold run's with the new inputs."""
    _write_pages(tmp_path / "pages", [[_long_text(50 + 4 * k + j) for j in range(4)] for k in range(4)])
    pages, work = tmp_path / "pages", tmp_path / "work"
    kw = dict(budget=32, n_partitions=4)
    write_training_shards_of(pages, work, tmp_path / "a", **kw)
    before = _segment_stamps(work)
    assert len(before) == 4
    if change == "budget":
        kw["budget"] = 48
    elif change == "partitions":
        kw["n_partitions"] = 2
    else:
        _rewrite_one_shard(pages)
    write_training_shards_of(pages, work, tmp_path / "b", **kw)
    after = _segment_stamps(work)
    assert len(after) == kw["n_partitions"]
    assert all(before.get(k) != v for k, v in after.items())
    write_training_shards_of(pages, tmp_path / "cold", tmp_path / "c", **kw)
    assert _shard_bytes(tmp_path / "b") == _shard_bytes(tmp_path / "c")


def test_truncated_segments_and_stale_temp_files(ray_session, small_corpus, tmp_path):
    """A ``segments.arrow`` whose footer cannot be read is recomputed, alone;
    a killed map attempt's ``.segments.arrow.*`` temp file is removed."""
    work, kw = tmp_path / "work", dict(budget=64, n_partitions=4)
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "a", **kw)
    before = _segment_stamps(work)
    seg = work / "part-1" / "segments.arrow"
    seg.write_bytes(seg.read_bytes()[: seg.stat().st_size // 2])
    planted = work / "part-3" / ".segments.arrow.killed"
    planted.write_bytes(b"partial")
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "b", **kw)
    after = _segment_stamps(work)
    assert [k for k in sorted(before) if before[k] != after[k]] == ["part-1"]
    assert not planted.exists()
    assert list(work.glob("part-*/.segments.arrow.*")) == []
    assert _shard_bytes(tmp_path / "a") == _shard_bytes(tmp_path / "b")


def test_segments_under_another_key_are_refused(
    ray_session, small_corpus, tmp_path, monkeypatch
):
    """A ``segments.arrow`` swapped for one under another packing key after
    the driver checked it makes the reduce raise; no shard is committed."""
    from pdf_extractor_ray.pipelines import webpages

    work, out, kw = tmp_path / "work", tmp_path / "out", dict(budget=64, n_partitions=4)
    write_training_shards_of(small_corpus["corpus"], work, out, **kw)
    seg = work / "part-2" / "segments.arrow"
    f = pa.ipc.open_file(pa.memory_map(str(seg)))
    rows = [f.get_batch(k) for k in range(f.num_record_batches)]
    schema = f.schema.with_metadata({b"packing_key": b"0" * 64})
    other = tmp_path / "other.arrow"
    with pa.ipc.new_file(str(other), schema) as w:
        for b in rows:
            w.write_batch(b)

    check = webpages._segments_key

    def check_then_swap(path):
        key = check(path)
        if path == str(seg):
            other.replace(seg)
        return key

    monkeypatch.setattr(webpages, "_segments_key", check_then_swap)
    with pytest.raises(ValueError, match="another packing key"):
        write_training_shards_of(small_corpus["corpus"], work, out, **kw)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("name", ["keys.parquet", "extracted.parquet"])
def test_torn_partition_file_reextracts_alone(ray_session, small_corpus, tmp_path, name):
    """A committed doc-id partition whose ``keys.parquet`` or
    ``extracted.parquet`` footer cannot be read is re-extracted on resume,
    alone, and the shards equal the cold run's."""
    import os

    work, kw = tmp_path / "work", dict(budget=64, n_partitions=4)
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "a", **kw)
    parts = sorted(work.glob("part-*"))

    def stamps():
        return [os.stat(p / "_MANIFEST.json").st_mtime_ns for p in parts]

    before = stamps()
    torn = work / "part-3" / name
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "b", **kw)
    assert [a != b for a, b in zip(before, stamps())] == [False, False, False, True]
    assert pq.read_schema(torn).names
    assert _shard_bytes(tmp_path / "a") == _shard_bytes(tmp_path / "b")


def test_twelve_partitions_pack_as_four(ray_session, tmp_path, monkeypatch):
    """Twelve checkpoint partitions (``part-10`` lists before ``part-2``, and
    every wave indexes partitions by that listing) in three k0 ranges give
    the rows four partitions give in one."""
    from pdf_extractor_ray.pipelines.extract import _partition_files

    _write_pages(tmp_path / "pages", [[_long_text(60 + 3 * k + j) for j in range(3)] for k in range(12)])
    pages, kw = tmp_path / "pages", dict(budget=32)
    _set_ranges(monkeypatch, pages, 3)
    twelve = write_training_shards_of(pages, tmp_path / "w12", tmp_path / "o12", n_partitions=12, **kw)
    listed = [p.split("/")[-2] for p in _partition_files(str(tmp_path / "w12"), "keys.parquet")]
    assert listed.index("part-10") < listed.index("part-2")
    _assert_range_shards(tmp_path / "o12", twelve["n_seqs"][0].as_py())
    _set_ranges(monkeypatch, pages, 1)
    four = write_training_shards_of(pages, tmp_path / "w4", tmp_path / "o4", n_partitions=4, **kw)
    assert twelve.equals(four)
    assert _read_shards(tmp_path / "o12").equals(_read_shards(tmp_path / "o4"))


def test_keys_in_doc_id_order_pack_the_same(ray_session, small_corpus, tmp_path, monkeypatch):
    """A checkpoint whose ``keys.parquet`` files list rows by doc_id, in
    small row groups (as written before they were sorted by key), resumes
    without re-extraction and packs to the same shards in three k0
    ranges: the row-group statistics skip nothing, the row filter keeps
    each range exact."""
    import os

    work, kw = tmp_path / "work", dict(budget=64, n_partitions=4)
    _set_ranges(monkeypatch, small_corpus["corpus"], 1)
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "a", **kw)
    parts = sorted(work.glob("part-*"))
    for part in parts:
        keys = pq.read_table(part / "keys.parquet").sort_by("doc_id")
        pq.write_table(keys, str(part / "keys.parquet"), row_group_size=8)
    before = [os.stat(p / "_MANIFEST.json").st_mtime_ns for p in parts]
    _set_ranges(monkeypatch, small_corpus["corpus"], 3)
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "b", **kw)
    assert [os.stat(p / "_MANIFEST.json").st_mtime_ns for p in parts] == before
    for part in parts:
        ids = pq.read_table(part / "keys.parquet")["doc_id"].to_pylist()
        assert ids == sorted(ids)
    assert _shard_bytes(tmp_path / "a") == _shard_bytes(tmp_path / "b")


def test_driver_reads_no_keys_texts_or_offsets(ray_session, small_corpus, tmp_path, monkeypatch):
    """The driver reads no ``keys.parquet``, ``extracted.parquet`` or
    ``offsets-*`` file: with its ``pq.read_table`` raising on them, a
    resumed call in three k0 ranges still writes the cold run's shards."""
    import os

    work, kw = tmp_path / "work", dict(budget=64, n_partitions=4)
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "a", **kw)
    read_table = pq.read_table

    def guarded(source, *args, **kwargs):
        name = os.path.basename(str(source))
        if name in ("keys.parquet", "extracted.parquet") or name.startswith("offsets-"):
            raise AssertionError(f"the driver read {source}")
        return read_table(source, *args, **kwargs)

    monkeypatch.setattr(pq, "read_table", guarded)
    _set_ranges(monkeypatch, small_corpus["corpus"], 3)
    write_training_shards_of(small_corpus["corpus"], work, tmp_path / "b", **kw)
    with pytest.raises(AssertionError, match="the driver read"):
        pq.read_table(str(work / "part-0" / "keys.parquet"))
    assert _shard_bytes(tmp_path / "a") == _shard_bytes(tmp_path / "b")
