"""keyed_join / keyed_exchange (functions/agg.py) on their own: the one
exchange every join and keyed aggregate in the engine runs on must equal
pyarrow's single-process ``Table.join`` row for row, including buckets that
hold rows of one side only and inputs with no rows at all."""

from __future__ import annotations

import pyarrow as pa
import pytest

HOWS = ["inner", "left outer", "full outer", "left semi", "left anti"]


def _rows(t: pa.Table) -> tuple[list, list[str]]:
    """Column names and the rows, order-free (nulls sort first)."""
    cols = sorted(t.column_names)
    rows = [tuple(r[c] for c in cols) for r in t.select(cols).to_pylist()]
    return cols, sorted(
        rows, key=lambda r: tuple((v is not None, 0 if v is None else v) for v in r)
    )


def _collect(ds, like: pa.Table) -> pa.Table:
    from pdf_extractor_ray.functions.agg import collect

    out = collect(ds)
    return like.schema.empty_table() if out is None else out


def _sides(key_type: pa.DataType):
    def k(vals):
        if pa.types.is_string(key_type):
            return pa.array([None if v is None else f"k{v}" for v in vals], key_type)
        return pa.array(vals, key_type)

    left = pa.table(
        {
            "lk": k([1, 2, 2, 3, 5, 8, None, 13]),
            "lv": pa.array([10, 20, 21, 30, 50, 80, 99, 130], pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": k([2, 3, 3, 4, 8, None, 21]),
            "rv": pa.array(["b", "c", "c2", "d", "h", "n", "u"], pa.string()),
        }
    )
    return left, right


def _check(left, right, how, n_parts, n_blocks=2):
    import ray.data as rd

    from pdf_extractor_ray.functions.agg import keyed_join

    def ds(t):
        if isinstance(t, rd.Dataset):
            return t
        step = -(-t.num_rows // n_blocks)
        return rd.from_arrow(
            [t.slice(i, step) for i in range(0, t.num_rows, step)]
        )

    exp = _as_table(left).join(
        _as_table(right), keys="lk", right_keys="rk", join_type=how
    )
    out = _collect(
        keyed_join(ds(left), ds(right), ["lk"], ["rk"], how, n_parts=n_parts),
        exp,
    )
    assert _rows(out) == _rows(exp), how
    assert out.schema.remove_metadata() == exp.schema.remove_metadata(), how


def _as_table(t):
    return t if isinstance(t, pa.Table) else t.schema().base_schema.empty_table()


@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("key_type", [pa.int64(), pa.string()])
def test_keyed_join_matches_pyarrow(ray_session, how, key_type):
    """Different key names on the two sides, null keys, duplicate keys, and
    64 buckets for 9 distinct keys: most buckets hold one side only."""
    left, right = _sides(key_type)
    _check(left, right, how, n_parts=64)
    _check(left, right, how, n_parts=1, n_blocks=3)


@pytest.mark.parametrize("how", HOWS)
def test_keyed_join_calls_how_once_per_block(ray_session, how):
    """300 keys over 64 buckets and two blocks a side: every reduce block
    holds many buckets, the join still equals pyarrow's, and ``how`` runs
    at most once per reduce block (a sort's reduce blocks are at most its
    input blocks, here four), not once per bucket."""
    import ray.data as rd

    from pdf_extractor_ray.functions.agg import collect, keyed_join

    left = pa.table({"lk": pa.array(range(0, 600, 2), pa.int64()),
                     "lv": pa.array(range(300), pa.int64())})
    right = pa.table({"rk": pa.array(range(0, 900, 3), pa.int64()),
                      "rv": pa.array([f"r{i}" for i in range(300)])})
    _check(left, right, how, n_parts=64)

    def calls(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({"n_left": [lt.num_rows], "n_right": [rt.num_rows]})

    def two_blocks(t):
        return rd.from_arrow([t.slice(0, 150), t.slice(150)])

    out = collect(
        keyed_join(two_blocks(left), two_blocks(right), ["lk"], ["rk"], calls, n_parts=64)
    )
    assert out.num_rows <= 4
    assert sum(out["n_left"].to_pylist()) == left.num_rows
    assert sum(out["n_right"].to_pylist()) == right.num_rows


@pytest.mark.parametrize("how", HOWS)
def test_keyed_join_one_input_empty(ray_session, tmp_path, how):
    """A side with no rows at all (an empty parquet table: Ray knows its
    schema without reading it) pads or drops exactly like pyarrow."""
    import pyarrow.parquet as pq
    import ray.data as rd

    left, right = _sides(pa.int64())
    for name, t in (("l", left), ("r", right)):
        pq.write_table(t.schema.empty_table(), str(tmp_path / f"{name}.parquet"))
    empty_l = rd.read_parquet(str(tmp_path / "l.parquet"))
    empty_r = rd.read_parquet(str(tmp_path / "r.parquet"))
    _check(empty_l, right, how, n_parts=16)
    _check(left, empty_r, how, n_parts=16)


def test_keyed_join_custom_fn_gets_both_sides(ray_session):
    """A function passed as ``how`` sees each block's two sides as separate
    tables, with a zero-row table (keys only when the schema is unknown at
    plan time) for a side absent from the block."""
    import ray.data as rd

    from pdf_extractor_ray.functions.agg import collect, keyed_join

    left, right = _sides(pa.int64())

    def hidden(t: pa.Table) -> rd.Dataset:  # map_batches hides the schema
        return rd.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow")

    def sizes(lt: pa.Table, rt: pa.Table) -> pa.Table:
        assert "lk" in lt.column_names and "rk" in rt.column_names
        return pa.table(
            {"n_left": [lt.num_rows], "n_right": [rt.num_rows]},
        )

    def run(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return collect(keyed_join(hidden(lt), hidden(rt), ["lk"], ["rk"], sizes, n_parts=64))

    out = run(left, right)
    assert sum(out["n_left"].to_pylist()) == left.num_rows
    assert sum(out["n_right"].to_pylist()) == right.num_rows
    no_right = run(left, right.slice(0, 0))
    assert set(no_right["n_right"].to_pylist()) == {0}
    assert sum(no_right["n_left"].to_pylist()) == left.num_rows
    no_left = run(left.slice(0, 0), right)
    assert set(no_left["n_left"].to_pylist()) == {0}
    assert sum(no_left["n_right"].to_pylist()) == right.num_rows
    with pytest.raises(ValueError, match="left outer"):
        keyed_join(
            rd.from_arrow(left), hidden(right), ["lk"], ["rk"], "left outer", n_parts=4
        )


def test_keyed_exchange_groups_every_key_once(ray_session):
    """Every key's rows reach exactly one fn call, also when an integer key
    column holds nulls in some batches only (hashed as int64, never as
    the float64 pandas would widen it to)."""
    import ray.data as rd

    from pdf_extractor_ray.functions.agg import collect, keyed_exchange

    a = pa.table({"k": pa.array([1, 2, 3, 4, 5], pa.int64())})
    b = pa.table({"k": pa.array([1, 2, None, 4, 5], pa.int64())})

    def per_key(group: pa.Table) -> pa.Table:
        g = group.group_by("k").aggregate([([], "count_all")])
        return pa.table({"k": g["k"], "n": g["count_all"]})

    out = collect(keyed_exchange(rd.from_arrow([a, b]), ["k"], per_key, 64))
    got = sorted(out.to_pylist(), key=lambda r: (r["k"] is None, r["k"]))
    assert got == [
        {"k": 1, "n": 2}, {"k": 2, "n": 2}, {"k": 3, "n": 1},
        {"k": 4, "n": 2}, {"k": 5, "n": 2}, {"k": None, "n": 1},
    ]


def test_integer_key_widths_share_buckets():
    """An int32 and an int64 key column with the same values, negatives
    and nulls included, hash every row to the same bucket."""
    from pdf_extractor_ray.functions.agg import _hash_partition_column

    vals = [-(2**31), -7, -1, 0, 1, 7, None, 2**31 - 1]
    parts = [
        _hash_partition_column(pa.table({"k": pa.array(vals, t)}), ["k"], 64)
        for t in (pa.int32(), pa.int64())
    ]
    assert parts[0].equals(parts[1])


def test_keyed_join_rejects_mismatched_key_types(ray_session):
    """Keys of different non-integer types would hash apart and drop
    matches; with both schemas known the join refuses at plan time."""
    import ray.data as rd

    from pdf_extractor_ray.functions.agg import keyed_join

    left = rd.from_arrow(pa.table({"lk": pa.array([1, 2], pa.int32())}))
    right = rd.from_arrow(pa.table({"rk": pa.array([1.0, 2.0], pa.float64())}))
    with pytest.raises(ValueError, match="lk"):
        keyed_join(left, right, ["lk"], ["rk"], "inner", n_parts=4)


def _prefix_scan_reference(t: pa.Table, dedup: bool):
    """Single-process answer for ``_scan``: rows in (v, id) order (the
    first per v when ``dedup``), their positions and exclusive w sums."""
    import numpy as np

    v, ids, w = (t[c].to_numpy() for c in ("v", "id", "w"))
    order = np.lexsort((ids, v))
    if dedup:
        order = order[np.concatenate([[True], v[order][1:] != v[order][:-1]])]
    ws = w[order]
    return {
        int(i): (p, int(s))
        for p, (i, s) in enumerate(zip(ids[order], np.cumsum(ws) - ws))
    }, (len(order), int(ws.sum()))


def _scan(ds, bounds, n_parts, dedup):
    import numpy as np

    from pdf_extractor_ray.functions.agg import collect, ordered_ranges

    def first_per_v(t: pa.Table) -> np.ndarray:
        v, ids = t["v"].to_numpy(), t["id"].to_numpy()
        order = np.lexsort((ids, v))
        return order[np.concatenate([[True], v[order][1:] != v[order][:-1]])]

    def emit(t: pa.Table, starts: np.ndarray, totals: np.ndarray) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "id": t["id"],
                "pos": pa.array(starts[:, 0]),
                "w_start": pa.array(starts[:, 1]),
                "n_total": pa.array(np.full(n, totals[0])),
                "w_total": pa.array(np.full(n, totals[1])),
            }
        )

    order = first_per_v if dedup else [("v", "ascending"), ("id", "ascending")]
    out = collect(ordered_ranges(ds, "v", bounds, n_parts, order, ["w"], emit))
    if out is None:
        return {}, set()
    got = {
        r["id"]: (r["pos"], r["w_start"]) for r in out.to_pylist()
    }
    assert len(got) == out.num_rows
    return got, set(zip(out["n_total"].to_pylist(), out["w_total"].to_pylist()))


@pytest.mark.parametrize("dedup", [False, True])
def test_ordered_ranges_matches_numpy_prefix_scan(ray_session, dedup):
    """Global positions and exclusive prefix sums equal a one-process scan:
    many ranges per reduce block, empty ranges (values cluster at both
    ends of the bounds), repeated values, one input block or several, and
    a function order that keeps only the first row per value."""
    import numpy as np
    import ray.data as rd

    rng = np.random.default_rng(11)
    n = 2000
    v = np.concatenate([rng.integers(0, 100, n // 2), rng.integers(900, 1001, n // 2)])
    t = pa.table(
        {
            "id": pa.array(rng.permutation(n), pa.int64()),
            "v": pa.array(v, pa.int64()),
            "w": pa.array(rng.integers(0, 50, n), pa.int64()),
        }
    )
    want, totals = _prefix_scan_reference(t, dedup)
    for ds in (
        rd.from_arrow([t.slice(0, 700), t.slice(700, 600), t.slice(1300)]),
        rd.from_arrow(t),
    ):
        got, got_totals = _scan(ds, (0, 1000), 40, dedup)
        assert got == want
        assert got_totals == {totals}


def test_ordered_ranges_zero_rows_and_wide_keys(ray_session):
    """No input rows give no output rows (and no crash); uint64 keys over
    the full 64-bit range bucket without overflow, in order."""
    import numpy as np
    import ray.data as rd

    from pdf_extractor_ray.functions.agg import range_bucket

    empty = pa.table(
        {"id": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
         "w": pa.array([], pa.int64())}
    )
    assert _scan(rd.from_arrow(empty), (0, 10), 8, False) == ({}, set())
    assert _scan(rd.from_arrow(empty), (0, 10), 8, True) == ({}, set())

    k = np.sort(np.random.default_rng(2).integers(0, 2**64 - 1, 5000, np.uint64, endpoint=True))
    k[0], k[-1] = 0, 2**64 - 1
    b = range_bucket(k, 0, 2**64 - 1, 300)
    assert b[0] == 0 and b[-1] == 299 and (np.diff(b) >= 0).all()
    assert len(np.unique(b)) == 300
