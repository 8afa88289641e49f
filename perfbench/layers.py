"""Per-layer metrics of a traced run, from the spans ``trace.py`` records and
the per-operator stats Ray Data keeps for each dataset it executes.

Each metric is computed over one traced pass and reported as the median over
the run's traced passes. Times are seconds of wall clock inside the named
calls (summed over calls in the pass); counts are per pass. A metric whose
layer the workload does not use is 0.
"""

from __future__ import annotations

import json
import os
import re
import statistics

SNIFF_TYPES = ("pdf", "html", "empty", "image", "unknown")

# Written down before measuring: metric prefix -> (end-to-end metric and
# workloads it should move, workloads it should not move). A faster layer
# saves at most its share of the blocking steps on one core.
PREDICTIONS = {
    "pdf.": ("docs_per_s on pdf_checkpoint", "mix_shards (one re-extracted partition)"),
    "html.": ("resume_s on mix_shards, slightly (one re-extracted partition)", "pdf_checkpoint"),
    "sniff.": ("docs_per_s on pdf_checkpoint", ""),
    "other_kernels.": ("resume_s on mix_shards, slightly", "pdf_checkpoint"),
    "extract.": ("docs_per_s on pdf_checkpoint", ""),
    "dedup.": ("time_to_first_batch_s and resume_s on pdf_checkpoint", ""),
    "read.": ("docs_per_s on pdf_checkpoint and mix_shards", ""),
    "write.": ("docs_per_s on both workloads", ""),
    "manifest.": ("resume_s on pdf_checkpoint", ""),
    "resume.": ("resume_s on pdf_checkpoint", ""),
    "driver.": ("docs_per_s on pdf_checkpoint", "partition skew costs no wall at one CPU"),
    "op.": ("docs_per_s on mix_shards", "pdf_checkpoint (no Ray Data)"),
    "exchange.": ("docs_per_s on mix_shards", "pdf_checkpoint"),
    "shards.": ("docs_per_s on mix_shards", ""),
}


BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def _dur(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _attr(spans, key) -> int:
    return sum(s.get("attrs", {}).get(key, 0) for s in spans)


def operators(captures: list[dict]) -> list[dict]:
    """Distinct operators of the datasets executed in ``captures``, parents
    included once."""
    seen, ops = set(), []

    def walk(summary) -> None:
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            key = (op.operator_name, op.earliest_start_time, op.latest_end_time)
            if key in seen:
                continue
            seen.add(key)
            rows = op.output_num_rows or {}
            m = re.search(r"(\d+) blocks produced", op.block_execution_summary_str or "")
            blocks = int(m.group(1)) if m else 0
            mean_rows = rows.get("mean") or 0
            ops.append({
                "name": op.operator_name,
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "rows_out": int(rows.get("sum", 0)),
                "bytes_out": int((op.output_size_bytes or {}).get("sum", 0)),
                "blocks": blocks,
                "block_rows_skew": (rows.get("max", 0) / mean_rows) if mean_rows else 0.0,
            })

    for c in captures:
        walk(c["summary"])
    return ops


def _window(p: dict) -> tuple[float, float]:
    return min(a for a, _ in p["phases"].values()), max(b for _, b in p["phases"].values())


def _wall(p: dict) -> float:
    """Timed wall of a pass: the sum of its phases."""
    return sum(b - a for a, b in p["phases"].values())


def pass_metrics(p: dict, spans: list[dict], captures: list[dict]) -> dict:
    """Per-layer metrics of one traced pass; ``captures`` are the Ray Data
    stats of the datasets the pass executed."""
    t0, t1 = _window(p)
    lost = len(p.get("lost", ()))
    mine = [s for s in spans if t0 <= s["start"] <= t1]
    names = {s["id"]: s["name"] for s in mine}
    by = {}
    for s in mine:
        # a layer calling into itself (drop_dup_losers runs DupFilter) is
        # counted once, at its outermost call
        if names.get(s["parent"]) != s["name"]:
            by.setdefault(s["name"], []).append(s)
    get = lambda name: by.get(name, [])  # noqa: E731

    def in_phase(name, phase):
        a, b = p["phases"].get(phase, (0.0, -1.0))
        return [s for s in get(name) if a <= s["start"] <= b]

    m: dict[str, float] = {}
    pdf = get("kernels.pdf_extract")
    pdf_us = [1e6 * (s["end"] - s["start"]) for s in pdf]
    pages = _attr(pdf, "pages")
    m["pdf.docs"] = len(pdf)
    m["pdf.pages"] = pages
    m["pdf.s"] = _dur(pdf)
    m["pdf.us_per_doc_p50"] = _pct(pdf_us, 0.5)
    m["pdf.us_per_doc_p99"] = _pct(pdf_us, 0.99)
    m["pdf.us_per_page"] = 1e6 * m["pdf.s"] / pages if pages else 0.0
    m["pdf.bytes_in"] = _attr(pdf, "bytes")
    html = get("kernels.html_extract")
    html_us = [1e6 * (s["end"] - s["start"]) for s in html]
    m["html.docs"] = len(html)
    m["html.s"] = _dur(html)
    m["html.us_per_doc_p50"] = _pct(html_us, 0.5)
    m["html.us_per_doc_p99"] = _pct(html_us, 0.99)
    m["html.bytes_in"] = _attr(html, "bytes")

    sniff = get("stages.sniff")
    m["sniff.s"] = _dur(sniff)
    for t in SNIFF_TYPES:
        m[f"sniff.rows.{t}"] = sum(s.get("attrs", {}).get("types", {}).get(t, 0) for s in sniff)
    routed = get("kernels.dispatch")
    m["other_kernels.s"] = _dur(s for s in routed if s["attrs"]["ctype"] not in ("pdf", "html"))

    extract = get("stages.extract")
    m["extract.rows"] = _attr(extract, "rows")
    m["extract.assembly_s"] = _dur(extract) - _dur(routed)

    index = get("stages.dedup.index")
    filters = get("stages.dedup.filter")
    m["dedup.index_s"] = _dur(index)
    m["dedup.index_rows"] = _attr(index, "rows")
    m["dedup.dropped_rows"] = _attr(filters, "rows_in") - _attr(filters, "rows")

    reads = get("sources.read")
    partitions = get("pipelines.extract.partition")
    ops = operators(captures)
    read_ops = [o for o in ops if o["name"].startswith("ReadParquet")]
    m["read.rows"] = _attr(sniff, "rows_in")
    m["read.bytes"] = _attr(sniff, "bytes")
    # checkpoint partitions read with ParquetFile.iter_batches; Ray Data
    # reads the checkpoint back in its read operator
    m["read.s"] = _dur(reads) + sum(o["wall_s"] for o in read_ops)
    m["dedup.kept_ratio"] = 1 - m["dedup.dropped_rows"] / m["read.rows"] if m["read.rows"] else 0.0

    commits = get("state.manifest.commit")
    writers = get("state.manifest.writer")
    m["manifest.commit_s"] = _dur(commits) - _dur(writers)
    m["manifest.scan_s"] = _dur(get("state.manifest.scan"))
    m["manifest.partitions_skipped"] = _attr(in_phase("state.manifest.scan", "resume"), "n")
    rerun = len(in_phase("pipelines.extract.partition", "resume"))
    m["manifest.partitions_rerun"] = rerun
    m["resume.rerun_ratio"] = rerun / lost if lost else 0.0

    walls = [s["end"] - s["start"] for s in partitions]
    p50 = statistics.median(walls) if walls else 0.0
    m["driver.partition_wall_p50_s"] = p50
    m["driver.partition_wall_max_s"] = max(walls, default=0.0)
    m["driver.partition_skew"] = max(walls) / p50 if p50 else 0.0
    m["driver.tasks_retried"] = p["retried"]
    layer_sum = _dur(partitions) + sum(o["wall_s"] for o in ops) + _dur(index) + m["manifest.scan_s"]
    m["driver.overhead_s"] = _wall(p) - layer_sum

    m["op.count"] = len(ops)
    m["op.wall_s"] = sum(o["wall_s"] for o in ops)
    m["op.rows_out"] = sum(o["rows_out"] for o in ops)
    m["op.bytes_out"] = sum(o["bytes_out"] for o in ops)
    m["op.blocks"] = sum(o["blocks"] for o in ops)
    m["op.block_rows_skew"] = max((o["block_rows_skew"] for o in ops if o["blocks"] > 1), default=0.0)
    m["write.s"] = _dur(get("sinks.write"))

    # the keyed exchanges of prepare_training_ds run in the datasets it
    # materializes inside its own call and in the first one materialized
    # after it; Ray Data runs each groupby as a sort shuffle
    prep = get("functions.textops.prepare_training_ds")
    train = []
    if prep:
        start, end = prep[0]["start"], prep[0]["end"]
        mats = [c for c in captures if c["attr"] == "materialize"]
        train = [c for c in mats if start <= c["t0"] <= end] + [c for c in mats if c["t0"] > end][:1]
    train_ops = operators(train)
    shuffle_map = [o for o in train_ops if o["name"].startswith("SortMap")]
    shuffle_reduce = [o for o in train_ops if o["name"].startswith("SortReduce")]
    m["exchange.training_s"] = sum(c["t1"] - c["t0"] for c in train)
    m["exchange.rows_in"] = sum(o["rows_out"] for o in shuffle_map)
    m["exchange.bytes_moved"] = sum(o["bytes_out"] for o in shuffle_map)
    m["exchange.bucket_skew"] = max((o["block_rows_skew"] for o in shuffle_reduce), default=0.0)

    # sequence assembly runs fused with the shard write in one operator
    writes = operators([c for c in captures if c["attr"] == "write_parquet"])
    assemble = [o for o in writes if "assemble_bucket" in o["name"]]
    m["shards.assemble_s"] = sum(o["wall_s"] for o in assemble) - m["write.s"] if assemble else 0.0
    m["shards.write_s"] = m["write.s"] if assemble else 0.0
    m["shards.n_seqs"] = p.get("n_seqs", 0)
    m["shards.bytes_out"] = p.get("shard_bytes", 0)
    m["pass.wall_s"] = _wall(p)
    return m


def per_layer(passes: list[dict], spans: list[dict], captures: list[dict]) -> dict:
    """Median over traced passes of each per-layer metric, plus the tracing
    overhead: median traced pass wall minus median untraced pass wall."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        t0, t1 = _window(p)
        rows.append(pass_metrics(p, spans, [c for c in captures if t0 <= c["t0"] <= t1]))
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    base = statistics.median(_wall(p) for p in untraced)
    out["trace.overhead_s"] = statistics.median(_wall(p) for p in traced) - base
    out["trace.overhead_share"] = out["trace.overhead_s"] / base
    with open(BENCHMARK_JSON) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    return {k: {"value": v, "unit": units[k]} for k, v in out.items()}
