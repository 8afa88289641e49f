"""Property-based robustness: kernels never raise, whatever the bytes
(the reference's swallow-and-flag contract, pypdf2_extractor.py:41-48),
plus circuit-breaker semantics (tasks.py:126-151)."""

import pyarrow as pa
from hypothesis import given, settings, strategies as st


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=2048))
def test_extract_document_never_raises(payload):
    from pdf_extractor_ray.kernels import extract_document

    ctype, res = extract_document(payload)
    assert ctype in ("html", "pdf", "empty", "unknown")
    assert res.status in ("ok", "empty", "error", "unknown")
    assert isinstance(res.text, str)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=2048))
def test_sniff_vectorized_matches_scalar(payload):
    """The vectorized sniff (stages) must agree with the scalar kernel
    (oracle path) on every input."""
    from pdf_extractor_ray.kernels.sniff import sniff_bytes
    from pdf_extractor_ray.stages.sniff import sniff_table

    t = pa.table({"html": pa.array([payload], pa.large_binary())})
    assert sniff_table(t)[0].as_py() == sniff_bytes(payload)


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=500))
def test_html_kernel_handles_arbitrary_text(text):
    from pdf_extractor_ray.kernels.html_extract import extract_html

    res = extract_html(("<html><body><p>" + text).encode("utf-8", "ignore"))
    assert res.status in ("ok", "empty", "error")


def test_circuit_breaker_opens_and_resets():
    """After `threshold` consecutive kernel errors the actor stops parsing
    and flags rows breaker_open; a success resets (reference thresholds:
    5 failures / cooldown, constants.py:98-99)."""
    from pdf_extractor_ray.stages.extract import extract_batch, _Breaker

    corrupt = b"%PDF-1.4 garbage\x00\x01\x02"
    ok_html = b"<html><body><p>hello world this is fine text content</p></body></html>"

    breaker = _Breaker(threshold=3)
    bad = pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(5)]),
            "warc_ts": pa.array([0] * 5, pa.timestamp("us", tz="UTC")),
            "lang": pa.array(["en"] * 5),
            "html": pa.array([corrupt] * 5, pa.large_binary()),
        }
    )
    out = extract_batch(bad, breaker=breaker)
    statuses = out["status"].to_pylist()
    assert statuses[:3] == ["error", "error", "error"]
    assert statuses[3:] == ["breaker_open", "breaker_open"]

    # a fresh breaker passes good rows and a success resets the counter
    breaker = _Breaker(threshold=3)
    mixed = pa.table(
        {
            "url": pa.array(["a", "b", "c", "d"]),
            "warc_ts": pa.array([0] * 4, pa.timestamp("us", tz="UTC")),
            "lang": pa.array(["en"] * 4),
            "html": pa.array(
                [corrupt, corrupt, ok_html, corrupt], pa.large_binary()
            ),
        }
    )
    out = extract_batch(mixed, breaker=breaker)
    assert out["status"].to_pylist() == ["error", "error", "ok", "error"]
    assert breaker.consecutive == 1  # reset by the success, then one failure


def test_corpus_shard_layout_independence(tmp_path):
    """verify-skill probe: 3 shards vs 8 shards -> identical oracle golden."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.corpus import write_corpus
    from pdf_extractor_ray.oracle import write_golden

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_corpus(a + "/pages", n_rows=120, seed=42, n_shards=3)
    write_corpus(b + "/pages", n_rows=120, seed=42, n_shards=8)
    write_golden(a + "/pages", a + "/gold")
    write_golden(b + "/pages", b + "/gold")
    ta = pq.read_table(a + "/gold/extracted.parquet")
    tb = pq.read_table(b + "/gold/extracted.parquet")
    assert ta.equals(tb)


def test_corpus_parallel_generation_identical(ray_session, tmp_path):
    """Ray-parallel shard generation must be byte-identical to sequential."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray import corpus as C

    seq_dir, par_dir = str(tmp_path / "seq"), str(tmp_path / "par")
    import os
    os.makedirs(seq_dir)
    for k in range(4):
        C._write_shard(seq_dir, k, 4, 100, 42)
    C.write_corpus(par_dir, n_rows=100, seed=42, n_shards=4)  # uses Ray here
    for k in range(4):
        sa = pq.read_table(f"{seq_dir}/part-{k:05d}.parquet")
        sb = pq.read_table(f"{par_dir}/part-{k:05d}.parquet")
        assert sa.equals(sb)


def test_winnow_properties():
    from pdf_extractor_ray.functions.textops import winnow

    a = winnow("the quick brown fox jumps over the lazy dog")
    assert a == winnow("the quick brown fox jumps over the lazy dog")
    assert winnow("") == []
    assert len(winnow("ab")) == 1
    # local change perturbs only a bounded number of fingerprints
    b = winnow("the quick brown fox jumps over the lazy cat")
    assert len(set(a) & set(b)) > len(a) // 2


def test_circuit_breaker_half_open_recovers():
    """After the cooldown the breaker probes one row; success closes it."""
    from pdf_extractor_ray.stages.extract import _Breaker

    b = _Breaker(threshold=2, cooldown=3)
    b.record(True)
    b.record(True)
    assert [b.should_skip() for _ in range(3)] == [True, True, True]  # cooldown skips
    assert b.should_skip() is False  # half-open probe row
    b.record(False)  # probe succeeded
    assert b.should_skip() is False and b.consecutive == 0
    # failure during probe re-opens for another cooldown
    b.record(True)
    b.record(True)
    assert b.should_skip() is True


def test_dup_filter_collapses_same_batch_ties():
    import pyarrow as pa

    from pdf_extractor_ray.stages.dedup import DupFilter

    ts = pa.array([100, 100, 100], pa.timestamp("us", tz="UTC"))
    batch = pa.table(
        {
            "url": pa.array(["u", "u", "v"]),
            "warc_ts": ts,
            "html": pa.array([b"x", b"x", b"y"], pa.large_binary()),
        }
    )
    idx = pa.table(
        {
            "url": pa.array(["u"]),
            "min_ts": pa.array([100], pa.timestamp("us", tz="UTC")),
            "n_at_min": pa.array([1], pa.int64()),
            "win_file": pa.array([""]),
            "win_row": pa.array([-1], pa.int64()),
        }
    )
    out = DupFilter(idx)(batch)
    assert out["url"].to_pylist() == ["u", "v"]


def test_stale_partition_dirs_ignored(tmp_path):
    import json
    import os

    from pdf_extractor_ray.state.manifest import completed_partitions

    out = str(tmp_path)
    os.makedirs(f"{out}/part-0")
    json.dump(
        {"partition_id": 0, "rows_in": 1, "rows_out": 1, "n_ok": 1, "n_empty": 0,
         "n_error": 0, "n_unknown": 0, "bytes_in": 1, "wall_s": 0.1,
         "input_fingerprint": 1},
        open(f"{out}/part-0/_MANIFEST.json", "w"),
    )
    os.makedirs(f"{out}/_stale-1-abcd1234")
    json.dump({"partition_id": 1}, open(f"{out}/_stale-1-abcd1234/_MANIFEST.json", "w"))
    assert completed_partitions(out) == frozenset({0})


def test_kernel_robustness_fixes():
    """Regression pins for the kernel review findings."""
    import pyarrow as pa

    from pdf_extractor_ray.kernels.html_extract import extract_html
    from pdf_extractor_ray.kernels.pdf_extract import _run_text_ops
    from pdf_extractor_ray.kernels.sniff import sniff_bytes
    from pdf_extractor_ray.stages.sniff import sniff_table

    body = b"<p>" + b"perfectly good long article paragraph text here " * 3 + b"</p>"

    # degenerate empty comment must not swallow the document
    res = extract_html(b"<html><body><!-->" + body + b"</body></html>")
    assert res.status == "ok" and "article" in res.text
    res = extract_html(b"<html><body><!--->" + body + b"</body></html>")
    assert res.status == "ok"

    # unclosed <a> must not poison later blocks with link density
    res = extract_html(b'<p><a href="/h">Home</p>' + body)
    assert "article" in res.text

    # unquoted attr value ending in '/' is a START tag (link counted)
    res = extract_html(
        b"<p><a href=http://x.com/>" + b"x" * 40 + b"</a></p>" + body
    )
    assert "x" * 40 not in res.text  # dropped as link-dense

    # BOM-prefixed HTML sniffs as html in BOTH paths
    bom_doc = b"\xef\xbb\xbf<html><body>" + body + b"</body></html>"
    assert sniff_bytes(bom_doc) == "html"
    t = pa.table({"html": pa.array([bom_doc], pa.large_binary())})
    assert sniff_table(t)[0].as_py() == "html"
    assert extract_html(bom_doc).status == "ok"

    # CR-only-EOL comment terminates (PDF spec EOL); chunks are
    # (x, y, text, width, size) tuples
    chunks = _run_text_ops(b"BT /F1 12 Tf 72 700 Td (Hello) Tj % note\r0 -20 Td (World) Tj ET")
    assert [text for _, _, text, _, _ in chunks] == ["Hello", "World"]

    # explicit 'TL 0' means zero leading, not unset
    chunks = _run_text_ops(b"BT /F1 12 Tf 0 TL 72 700 Td (A) Tj T* (B) Tj ET")
    ys = {round(y, 1) for _, y, _, _, _ in chunks}
    assert ys == {700.0}


@given(st.text(max_size=400))
@settings(max_examples=200, deadline=None)
def test_split_markdown_pages_never_throws(s):
    from pdf_extractor_ray.functions.textops import split_markdown_pages

    pages = split_markdown_pages(s)
    assert pages  # always at least one page
    assert all(isinstance(k, int) and k >= 0 for k in pages)
    assert all(isinstance(v, str) for v in pages.values())


def test_poll_schedule_reference_backoff():
    """The arithmetic poll model follows the reference's backoff exactly
    (textract_extractor.py:62-81: sleep 1.5s, x1.5 per attempt, cap 10s):
    cumulative waits 1.5, 3.75, 7.125, 12.187, 19.78, 29.78, 39.78,
    49.78 s; jobs beyond the budget time out."""
    from pdf_extractor_ray.stages.registry import poll_schedule

    # instant job: one poll, no timeout
    assert poll_schedule(0) == (1, 1500, False)
    # a 4s job needs three polls (cum 1500, 3750, 7125)
    n, waited, to = poll_schedule(4_000)
    assert (n, waited, to) == (3, 7125, False)
    # cap: cumulative wait after 8 polls is 49780ms
    n, waited, to = poll_schedule(49_780)
    assert (n, waited, to) == (8, 49_780, False)
    # one ms past the budget -> timeout at max_polls
    n, waited, to = poll_schedule(49_781)
    assert (n, waited, to) == (8, 49_780, True)


def test_breaker_opens_under_slow_provider():
    """Slow-provider simulation: with every job forced past the poll
    budget, the first `threshold` rows pay the full backoff and time out,
    then the breaker opens and queued rows skip the provider (zero
    simulated wait) until the cooldown's half-open probe — which fails
    again under a still-slow provider and re-opens the breaker."""
    import pyarrow as pa

    from pdf_extractor_ray.stages.registry import get_extractor

    cls = get_extractor("textract")
    ex = cls(
        fake=True, sim_latency=True, slow_ms=10**9,
        breaker_threshold=3, breaker_cooldown=4,
    )
    n = 12
    batch = pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(n)]),
            "html": pa.array([f"payload {i}".encode() for i in range(n)],
                             pa.large_binary()),
        }
    )
    out = ex(batch)
    st = out["status"].to_pylist()
    waits = out["sim_wait_ms"].to_pylist()
    # rows 0-2: timeouts that each paid the full 49.78s budget
    assert st[:3] == ["timeout"] * 3
    assert waits[:3] == [49_780] * 3
    # rows 3-6: breaker open for the 4-row cooldown, no provider calls
    assert st[3:7] == ["breaker_open"] * 4
    assert waits[3:7] == [0] * 4
    # row 7: half-open probe hits the still-slow provider, times out again
    assert st[7] == "timeout" and waits[7] == 49_780
    # rows 8-11: re-opened for another cooldown window
    assert st[8:12] == ["breaker_open"] * 4


def test_breaker_recovers_when_provider_speeds_up():
    """The half-open probe closes the breaker as soon as the provider is
    fast again: timeouts open it, the probe row (fast) succeeds, and the
    remaining rows flow normally."""
    import pyarrow as pa

    from pdf_extractor_ray.stages.registry import get_extractor

    cls = get_extractor("vision_api")
    ex = cls(
        fake=True, sim_latency=True, slow_ms=10**9,
        breaker_threshold=2, breaker_cooldown=2,
    )
    slow = pa.table(
        {
            "url": pa.array([f"s{i}" for i in range(4)]),
            "html": pa.array([b"x"] * 4, pa.large_binary()),
        }
    )
    st = ex(slow)["status"].to_pylist()
    assert st == ["timeout", "timeout", "breaker_open", "breaker_open"]
    ex.slow_ms = 100  # provider recovers between batches
    fast = pa.table(
        {
            "url": pa.array([f"f{i}" for i in range(3)]),
            "html": pa.array([b"y"] * 3, pa.large_binary()),
        }
    )
    out = ex(fast)
    assert out["status"].to_pylist() == ["ok"] * 3
    assert all(w == 1500 for w in out["sim_wait_ms"].to_pylist())


def test_sim_latency_deterministic_and_schema_stable():
    """Hash-derived durations: two identical calls produce identical
    tables; sim mode adds only the sim_wait_ms column; plain fake mode's
    schema is unchanged."""
    import pyarrow as pa

    from pdf_extractor_ray.stages.registry import get_extractor

    cls = get_extractor("mathpix")
    batch = pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(64)]),
            "html": pa.array(
                [f"doc {i}".encode() for i in range(64)], pa.large_binary()
            ),
        }
    )
    a = cls(fake=True, sim_latency=True)(batch)
    b = cls(fake=True, sim_latency=True)(batch)
    assert a.equals(b)
    sts = set(a["status"].to_pylist())
    assert "ok" in sts and "timeout" in sts  # both outcomes exercised
    plain = cls(fake=True)(batch)
    assert "sim_wait_ms" not in plain.column_names
    assert plain["status"].to_pylist() == ["ok"] * 64


def test_null_url_rejected_by_both_drivers(ray_session, tmp_path):
    """A page with no url is malformed input to the one-row-per-url
    contract: the checkpoint driver, the stream driver, the partition
    body's own keys pass and the oracle all refuse it with a ValueError
    (the drivers' naming the shard) instead of dropping it or failing
    deep in a kernel."""
    import re

    import pyarrow.parquet as pq
    import pytest

    from pdf_extractor_ray.oracle import oracle_extract_tables
    from pdf_extractor_ray.pipelines.extract import (
        extracted_dataset,
        process_partition,
        run_checkpoint,
    )
    from pdf_extractor_ray.sources.pages import PAGES_SCHEMA

    n = 4
    pages = pa.table(
        {
            "url": ["https://a.test/", None, "https://b.test/", None],
            "warc_ts": pa.array(list(range(n)), pa.int64()).cast(
                pa.timestamp("us", tz="UTC")
            ),
            "html": [b"<html><body><p>page</p></body></html>"] * n,
            "text": [None] * n,
            "lang": ["en"] * n,
        },
        schema=PAGES_SCHEMA,
    )
    src = tmp_path / "pages"
    src.mkdir()
    shard = str(src / "shard-00000.parquet")
    pq.write_table(pages, shard)
    named = re.escape(shard)

    with pytest.raises(ValueError, match=named):
        run_checkpoint(str(src), str(tmp_path / "ck"), resume=False)
    with pytest.raises(ValueError, match=named):
        extracted_dataset(str(src)).materialize()
    with pytest.raises(ValueError, match=named):
        process_partition(0, [shard], str(tmp_path / "part"), None)
    with pytest.raises(ValueError, match="null url"):
        oracle_extract_tables(pages)


def test_null_url_rejected_by_distributed_dup_index(
    ray_session, tmp_path, monkeypatch
):
    """A null url raises the ValueError that names its shard from a
    dup-index map task, in one task and in two maps and two url ranges
    (the clean shard listed first)."""
    import re

    import pyarrow.parquet as pq
    import pytest

    from pdf_extractor_ray.sources.pages import PAGES_SCHEMA
    from pdf_extractor_ray.stages import dedup

    n = 3
    pages = pa.table(
        {
            "url": ["https://a.test/", None, "https://a.test/"],
            "warc_ts": pa.array(list(range(n)), pa.int64()).cast(
                pa.timestamp("us", tz="UTC")
            ),
            "html": [b"<html><body><p>page</p></body></html>"] * n,
            "text": [None] * n,
            "lang": ["en"] * n,
        },
        schema=PAGES_SCHEMA,
    )
    src = tmp_path / "pages"
    src.mkdir()
    pq.write_table(
        pages.filter(pa.array([True, False, True])).slice(0, 1),
        str(src / "shard-00000.parquet"),
    )
    shard = str(src / "shard-00001.parquet")
    pq.write_table(pages, shard)
    named = re.escape(shard)

    with pytest.raises(ValueError, match=named):
        dedup.build_dup_index(str(src))
    monkeypatch.setattr(dedup, "_KEYS_PER_TASK", 2)
    with pytest.raises(ValueError, match=named):
        dedup.build_dup_index(str(src))
