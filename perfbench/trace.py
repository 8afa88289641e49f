"""Spans around calls into the program's public functions, recorded from the
benchmark's own files.

``install()`` replaces each function named in ``TARGETS`` by a wrapper that
records a span (name, start, end, parent, run id, process id and a few
counts) and then calls the original. It runs in the benchmark process and,
through Ray's ``worker_process_setup_hook``, in every Ray worker before the
worker runs a task. Nothing inside ``pdf_extractor_ray`` is changed on disk.

Separately, ``install_attempts()`` makes every Ray task that runs the
program's partition function or a Ray Data task function append its task id
to ``attempts-<pid>.txt`` in ``PERFBENCH_ATTEMPTS_DIR`` before it starts.
Ray keeps a task's id when it retries it, so a retry shows as a repeated id,
also when the attempt before it died with its worker. These markers are on
in every run, traced or not.

A wrapper records only while the flag file named by ``PERFBENCH_TRACE_FLAG``
exists, so one session can alternate untraced and traced passes. While
tracing is on the flag is read when a process's outermost span would start;
while it is off, at most every 50 ms, so an untraced pass pays little. Spans stay in memory;
a worker appends its buffer to ``spans-<pid>.jsonl`` in
``PERFBENCH_TRACE_DIR`` when its outermost span ends, and the benchmark
process writes its own when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

FLAG_ENV = "PERFBENCH_TRACE_FLAG"
DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ENV = "PERFBENCH_RUN_ID"
ATTEMPTS_ENV = "PERFBENCH_ATTEMPTS_DIR"


class Recorder:
    """Span buffer and parent stack of one process."""

    def __init__(self, flush_on_root: bool):
        self.flush_on_root = flush_on_root
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.on = False
        self.checked = float("-inf")
        self.pid = os.getpid()
        self.run = os.environ.get(RUN_ENV, "")

    def begin(self) -> int | None:
        if not self.stack:
            now = time.perf_counter()
            if self.on or now - self.checked > 0.05:
                flag = os.environ.get(FLAG_ENV)
                self.on = bool(flag) and os.path.exists(flag)
                self.checked = now
        if not self.on:
            return None
        self.next_id += 1
        return self.next_id

    def record(self, sid: int, name: str, start: float, end: float, parent, attrs) -> None:
        span = {
            "id": f"{self.pid}:{sid}",
            "name": name,
            "start": start,
            "end": end,
            "parent": f"{self.pid}:{parent}" if parent else None,
            "run": self.run,
            "pid": self.pid,
        }
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        if not self.stack and self.flush_on_root:
            self.flush()

    def flush(self) -> None:
        out = os.environ.get(DIR_ENV)
        if not out or not self.spans:
            return
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"spans-{self.pid}.jsonl"), "a") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
        self.spans.clear()


_REC: Recorder | None = None


def _span(name: str, fn, attrs_fn=None, child_arg: tuple[int, str] | None = None):
    """Wrap ``fn`` in a span. ``attrs_fn(args, kwargs, result)`` gives the
    span's counts. ``child_arg = (index, name)`` also wraps the callable
    passed as positional argument ``index`` in a child span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _REC
        sid = rec.begin() if rec is not None else None
        if sid is None:
            return fn(*args, **kwargs)
        parent = rec.stack[-1] if rec.stack else None
        rec.stack.append(sid)
        if child_arg is not None:
            idx, child = child_arg
            args = list(args)
            args[idx] = _span(child, args[idx])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            rec.stack.pop()
        attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
        rec.record(sid, name, start, end, parent, attrs)
        return result

    return wrapper


def _batch_iter(name: str, fn):
    """Wrap a generator function so each ``next`` is one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        stepped = _span(
            name,
            lambda: next(it, _DONE),
            lambda a, k, r: None if r is _DONE else {"rows": r.num_rows, "bytes": r.nbytes},
        )
        while True:
            item = stepped()
            if item is _DONE:
                return
            yield item

    return wrapper


_DONE = object()


def _rows(a, k, r):
    return {"rows": r.num_rows}


def _payload_bytes(payload) -> int:
    return len(payload) if payload else 0


def _sniff_attrs(a, k, r):
    import pyarrow.compute as pc

    counts = {v["values"].as_py(): v["counts"].as_py() for v in pc.value_counts(r["content_type"])}
    html = a[0]["html"]
    return {
        "rows_in": a[0].num_rows,
        "rows": r.num_rows,
        "bytes": int(pc.sum(pc.binary_length(html)).as_py() or 0),
        "types": counts,
    }


def _filter_attrs(a, k, r):
    batch = a[1] if len(a) > 1 and hasattr(a[1], "num_rows") else a[0]
    return {"rows_in": batch.num_rows, "rows": r.num_rows}


# (module, attribute, span name, attrs_fn, child_arg). A module that
# imported a function by name holds its own reference, so each importing
# module is listed.
TARGETS = [
    ("pdf_extractor_ray.kernels.dispatch", "extract_pdf", "kernels.pdf_extract",
     lambda a, k, r: {"pages": r.n_pages, "bytes": _payload_bytes(a[0])}, None),
    ("pdf_extractor_ray.kernels.dispatch", "extract_html", "kernels.html_extract",
     lambda a, k, r: {"bytes": _payload_bytes(a[0])}, None),
    ("pdf_extractor_ray.stages.extract", "extract_routed", "kernels.dispatch",
     lambda a, k, r: {"ctype": a[0]}, None),
    ("pdf_extractor_ray.stages.sniff", "sniff_and_partition", "stages.sniff", _sniff_attrs, None),
    ("pdf_extractor_ray.pipelines.extract", "sniff_and_partition", "stages.sniff", _sniff_attrs, None),
    ("pdf_extractor_ray.stages.extract", "extract_batch", "stages.extract", _rows, None),
    ("pdf_extractor_ray.pipelines.extract", "extract_batch", "stages.extract", _rows, None),
    ("pdf_extractor_ray.pipelines.extract", "process_partition", "pipelines.extract.partition",
     lambda a, k, r: {"pid": a[0]}, None),
    ("pdf_extractor_ray.pipelines.extract", "write_partition_atomic", "state.manifest.commit",
     lambda a, k, r: {"pid": a[1]}, (2, "state.manifest.writer")),
    ("pdf_extractor_ray.pipelines.extract", "completed_partitions", "state.manifest.scan",
     lambda a, k, r: {"n": len(r)}, None),
    ("pdf_extractor_ray.pipelines.extract", "build_dup_index", "stages.dedup.index",
     lambda a, k, r: {"rows": 0 if r is None else r.num_rows}, None),
    ("pdf_extractor_ray.pipelines.extract", "drop_dup_losers", "stages.dedup.filter", _filter_attrs, None),
    ("pdf_extractor_ray.pipelines.extract", "dedup_first_wins", "stages.dedup.filter", _filter_attrs, None),
    ("pdf_extractor_ray.stages.dedup.DupFilter", "__call__", "stages.dedup.filter", _filter_attrs, None),
    ("pdf_extractor_ray.pipelines.extract", "run_checkpoint", "pipelines.extract.run_checkpoint", None, None),
    ("pdf_extractor_ray.functions.textops", "prepare_training_ds", "functions.textops.prepare_training_ds", None, None),
    ("pdf_extractor_ray.pipelines.webpages", "write_training_shards", "pipelines.webpages.write_training_shards",
     lambda a, k, r: {"n_seqs": r["n_seqs"][0].as_py()}, None),
]
# Parquet reads and writes the program leaves to pyarrow: the payload read
# of a checkpoint partition, the partition's writers, and the writes Ray
# Data's parquet sink makes
READ_TARGETS = [
    ("pyarrow.parquet.ParquetFile", "iter_batches", "sources.read"),
]
WRITE_TARGETS = [
    ("pyarrow.parquet.ParquetWriter", "write_table", "sinks.write"),
    ("pyarrow.dataset", "write_dataset", "sinks.write"),
]


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` attribute ``C`` when ``a.b.C`` is
    not itself a module."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def install(flush_on_root: bool = True) -> Recorder:
    """Wrap every target in this process (once) and return its recorder."""
    global _REC
    if _REC is not None:
        return _REC
    _REC = Recorder(flush_on_root)
    # import every owner before wrapping any, so a module that imports a
    # name from another target module holds the original, not a wrapper
    plan = [
        (_resolve(path), attr, _span, (name, attrs_fn, child)) for path, attr, name, attrs_fn, child in TARGETS
    ]
    plan += [(_resolve(path), attr, _batch_iter, (name,)) for path, attr, name in READ_TARGETS]
    plan += [(_resolve(path), attr, _span, (name,)) for path, attr, name in WRITE_TARGETS]
    for owner, attr, wrap, extra in plan:
        setattr(owner, attr, wrap(extra[0], getattr(owner, attr), *extra[1:]))
    return _REC


# (module or class, attribute): the functions a Ray task runs. A module that
# imported a function by name holds its own reference, so each is listed.
ATTEMPT_TARGETS = [
    ("pdf_extractor_ray.pipelines.extract", "process_partition"),
    ("ray.data._internal.execution.operators.map_operator", "_map_task"),
    ("ray.data._internal.execution.operators.actor_pool_map_operator", "_map_task"),
    ("ray.data._internal.planner.exchange.sort_task_spec.SortTaskSpec", "map"),
    ("ray.data._internal.planner.exchange.sort_task_spec.SortTaskSpec", "reduce"),
    ("ray.data._internal.planner.exchange.aggregate_task_spec.SortAggregateTaskSpec", "map"),
    ("ray.data._internal.planner.exchange.aggregate_task_spec.SortAggregateTaskSpec", "reduce"),
]


def _marked(fn, out_dir: str):
    """Wrap ``fn`` so each call first appends the running task's id to this
    process's attempts file, and only then runs ``fn``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        import ray

        with open(os.path.join(out_dir, f"attempts-{os.getpid()}.txt"), "a") as f:
            f.write(ray.get_runtime_context().get_task_id() + "\n")
        return fn(*args, **kwargs)

    return wrapper


def install_attempts() -> None:
    """Mark every task attempt of ``ATTEMPT_TARGETS`` in this process."""
    out_dir = os.environ[ATTEMPTS_ENV]
    plan = [(_resolve(path), attr) for path, attr in ATTEMPT_TARGETS]
    for owner, attr in plan:
        fn = _marked(getattr(owner, attr), out_dir)
        if isinstance(inspect.getattr_static(owner, attr), staticmethod):
            fn = staticmethod(fn)
        setattr(owner, attr, fn)


def count_retries(out_dir: str) -> int:
    """Task attempts marked in ``out_dir`` beyond the first of each task,
    and clear the markers for the next pass."""
    ids = []
    for name in os.listdir(out_dir):
        if name.startswith("attempts-"):
            with open(os.path.join(out_dir, name)) as f:
                ids.extend(line.strip() for line in f if line.strip())
            os.remove(os.path.join(out_dir, name))
    return len(ids) - len(set(ids))


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: mark task attempts in a worker and,
    in a traced run, wrap the traced targets."""
    install_attempts()
    if os.environ.get(FLAG_ENV):
        install(flush_on_root=True)


def capture_dataset_stats(captures: list) -> None:
    """In the benchmark process: after each ``Dataset.materialize`` or
    ``Dataset.write_parquet`` made while tracing is on, keep the call's
    start, end and Ray Data's own per-operator stats summary."""
    import ray.data as rd

    def wrap(attr: str):
        fn = getattr(rd.Dataset, attr)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(self, *args, **kwargs)
            t1 = time.perf_counter()
            flag = os.environ.get(FLAG_ENV)
            if flag and os.path.exists(flag):
                ds = result if attr == "materialize" else self._write_ds
                if ds is not None:
                    summary = ds._get_stats_summary()
                    captures.append({"attr": attr, "t0": t0, "t1": t1, "summary": summary})
            return result

        setattr(rd.Dataset, attr, wrapper)

    for attr in ("materialize", "write_parquet"):
        wrap(attr)


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans
