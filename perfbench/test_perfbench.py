"""Self-test of the benchmark's load generator and correctness gate; no Ray.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import workloads as W  # noqa: E402
from pdf_extractor_ray.kernels.sniff import sniff_bytes  # noqa: E402
from pdf_extractor_ray.oracle import oracle_extract_tables  # noqa: E402

N = 60


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    classes = W.WORKLOADS[name]["classes"]
    allowed = W.content_types(classes)
    a = W.make_table(W.select_rows(classes, N, 3), 3, allowed)
    b = W.make_table(W.select_rows(classes, N, 3), 3, allowed)
    c = W.make_table(W.select_rows(classes, N, 4), 4, allowed)
    assert a.equals(b)
    assert not a.equals(c)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_holds_only_its_content_types_in_quota(name):
    classes = W.WORKLOADS[name]["classes"]
    want = W.quotas(classes, N)
    for seed in (1, 2):
        rows = W.select_rows(classes, N, seed)
        got = {c: sum(1 for _, k in rows if k == c) for c in classes}
        assert got == {c: want[c] for c in classes}
        assert sum(1 for _, k in rows if k.startswith("dup:")) <= want["dup"]
        table = W.make_table(rows, seed, W.content_types(classes))
        types = {sniff_bytes(p) for p in table["html"].to_pylist()}
        assert types <= W.content_types(classes)
    if name == "pdf_checkpoint":
        assert types == {"pdf"}


def test_shards_hold_equal_class_counts():
    classes = W.WORKLOADS["pdf_checkpoint"]["classes"]
    rows = W.select_rows(classes, 200, 1)
    shards = W.shard_rows(rows, 8)
    assert sorted(j for s in shards for j in s) == list(range(len(rows)))
    for cls in classes:
        counts = [sum(1 for j in s if rows[j][1] == cls) for s in shards]
        assert max(counts) - min(counts) <= 1


@pytest.fixture(scope="module")
def built():
    classes = W.WORKLOADS["mix_shards"]["classes"]
    table = W.make_table(W.select_rows(classes, N, 5), 5, W.content_types(classes))
    extracted, _ = oracle_extract_tables(table)
    return extracted.select(["url"] + W.COMPARE_COLUMNS)


def test_gate_passes_the_oracle_itself(built):
    assert W.count_mismatches(built, built) == 0


def test_gate_fails_on_one_corrupted_row(built):
    texts = built["extracted_text"].to_pylist()
    texts[7] = texts[7] + " "
    bad = built.set_column(
        built.schema.get_field_index("extracted_text"), "extracted_text", pa.array(texts, pa.large_string())
    )
    assert W.count_mismatches(bad, built) == 1


def test_gate_fails_on_a_missing_or_duplicated_row(built):
    assert W.count_mismatches(built.slice(1), built) == 1
    assert W.count_mismatches(pa.concat_tables([built, built.slice(3, 1)]), built) == 1
    status = pc.if_else(pc.equal(built["url"], built["url"][0]), "error", built["status"])
    bad = built.set_column(built.schema.get_field_index("status"), "status", status)
    assert W.count_mismatches(bad, built) == 1


def test_traced_run_reports_exactly_the_declared_layer_metrics():
    import json

    from perfbench import layers

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    passes = [{"traced": t, "retried": 0, "phases": {"resume": (0.0, 1.0)}} for t in (True, False)]
    got = layers.per_layer(passes, [], [])
    assert sorted(got) == sorted(declared)
    predicted = [k for k in got if not k.startswith(("pass.", "trace."))]
    assert all(any(k.startswith(p) for p in layers.PREDICTIONS) for k in predicted)
