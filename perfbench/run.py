"""One-core benchmark of the extraction engine.

    python3 perfbench/run.py --workload pdf_checkpoint --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads (see ``workloads.WORKLOADS``):

* ``pdf_checkpoint``: PDF-only rows through ``pipelines.extract.run_checkpoint``
  from an empty output dir, then a seeded set of partitions is deleted and
  ``run_checkpoint(resume=True)`` restores them.
* ``mix_shards``: the FIXTURES mixture through
  ``pipelines.webpages.write_training_shards`` over an extraction checkpoint
  the run builds, and gates against the oracle, outside the timed region;
  before each pass a seeded partition of that checkpoint is deleted, so the
  pass resumes the extraction and then does the exchanges and shard write.

A run starts Ray with one CPU (``NUM_CPUS``) three times; each set-up is Ray
start plus one pass of the workload's pipeline over a warm-up corpus the size
of one shard, which imports the package on the workers and warms them. The
run then times passes until ``--seconds`` have gone and at least three
passes are done, and gates every pass on correctness. With ``--trace 1``
passes alternate untraced and traced and the run reports per-layer numbers
instead (``layers.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (docs whose output is missing or not
byte-identical to the oracle, plus the docs of any pass that raised or in
which Ray retried a task) and ``metrics``. Everything the run writes stays
under ``.pbw/`` in the working directory: the corpus cache, Ray's temp dir
(see ``ray_temp_dir`` for the one exception), pass outputs, spans and a
result file stamped with the host fingerprint.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".pbw")
CACHE = os.path.join(WORK, "c")
SETUPS = 3
# One core, whatever the host has: Ray gets one CPU, and Arrow's thread pool
# one thread, so runs on different hosts measure the same configuration.
NUM_CPUS = 1
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def host_fingerprint() -> dict:
    """Recorded with every result and never used to rescale a metric."""
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    laps = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        laps.append(time.perf_counter() - t)
    return {
        "nproc": int(os.environ.get("OMP_NUM_THREADS") or len(os.sched_getaffinity(0))),
        "cpus_available": len(os.sched_getaffinity(0)),
        "ray_num_cpus": NUM_CPUS,
        "cpu_model": model,
        "loadavg": load,
        "calibration_s": round(statistics.median(laps), 6),
    }


def ray_worker_pids() -> list[int]:
    """Ray worker processes started by this process's Ray session."""
    parent = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    mine, frontier = set(), {os.getpid()}
    while frontier:
        frontier = {p for p, pp in parent.items() if pp in frontier} - mine
        mine |= frontier
    workers = []
    for pid in mine:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    workers.append(pid)
        except OSError:
            continue
    return workers


def peak_worker_rss_mb() -> float:
    peak = 0
    for pid in ray_worker_pids():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024


class FirstOutput(threading.Thread):
    """Polls a directory for the first entry a pass commits."""

    def __init__(self, path: str, prefix: str, suffix: str):
        super().__init__(daemon=True)
        self.path, self.prefix, self.suffix = path, prefix, suffix
        self.seen: float | None = None
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            try:
                names = os.listdir(self.path)
            except FileNotFoundError:
                names = []
            if any(n.startswith(self.prefix) and n.endswith(self.suffix) for n in names):
                self.seen = time.perf_counter()
                return
            self.done.wait(0.005)

    def stop(self) -> None:
        self.done.set()
        self.join()


def ray_temp_dir() -> str:
    """Ray's temp dir: inside the working directory, unless the unix socket
    paths Ray makes under it (``session_<time>_<pid>/sockets/plasma_store``)
    would pass the 107-byte limit; then a short dir under /tmp named after
    the working directory, since Ray cannot start at all otherwise."""
    inside = os.path.join(WORK, "r")
    sockets = f"/session_2000-01-01_00-00-00_000000_{os.getpid()}/sockets/plasma_store"
    if len(inside) + len(sockets) <= 107:
        return inside
    return os.path.join("/tmp", "pbw-" + hashlib.sha1(ROOT.encode()).hexdigest()[:12])


def start_ray(trace_dir: str | None, run_id: str, attempts_dir: str):
    import ray
    import ray.data as rd

    from perfbench import trace

    env = {
        "PYTHONPATH": os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p),
        trace.ATTEMPTS_ENV: attempts_dir,
    }
    if trace_dir:
        env.update({
            trace.FLAG_ENV: os.path.join(trace_dir, "ON"),
            trace.DIR_ENV: trace_dir,
            trace.RUN_ENV: run_id,
        })
    runtime_env = {"env_vars": env, "worker_process_setup_hook": "perfbench.trace.install_worker"}
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        _temp_dir=ray_temp_dir(),
        runtime_env=runtime_env,
    )
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def wait_for_actors() -> None:
    """Wait until every named actor of the session is running. Ray Data
    asks for its helper actors when an execution ends, so their processes
    would otherwise start during the first timed pass."""
    import ray

    for a in ray.util.list_named_actors(all_namespaces=True):
        ray.get(ray.get_actor(a["name"], namespace=a["namespace"]).__ray_ready__.remote())


def read_parquets(paths: list[str], columns: list[str]):
    import pyarrow as pa
    import pyarrow.parquet as pq

    return pa.concat_tables([pq.read_table(p, columns=columns) for p in sorted(paths)])


# --------------------------------------------------------------------------
# workload passes: each returns its timings and the docs that failed the gate
# --------------------------------------------------------------------------

class Workload:
    def __init__(self, name: str, seed: int, info: dict, warm: dict, out_root: str, attempts_dir: str):
        from perfbench import workloads as W

        self.name, self.seed, self.info, self.warm = name, seed, info, warm
        self.spec = W.WORKLOADS[name]
        self.out_root = out_root
        self.attempts_dir = attempts_dir
        self.oracle = None

    def prepare(self) -> dict:
        """Untimed work after set-up, outside every timed region; the docs it
        gates count in ``attempted`` and ``failed``."""
        import pyarrow.parquet as pq

        self.oracle = pq.read_table(self.info["oracle"])
        return {"attempted": 0, "failed": 0}

    def warm_pass(self, k: int) -> None:
        raise NotImplementedError

    def timed_pass(self, k: int) -> dict:
        raise NotImplementedError

    def gate(self, output) -> int:
        from perfbench import workloads as W

        return W.count_mismatches(output, self.oracle)


class PdfCheckpoint(Workload):
    def warm_pass(self, k: int) -> None:
        from pdf_extractor_ray.pipelines.extract import run_checkpoint

        out = os.path.join(self.out_root, f"warm-{k}")
        shutil.rmtree(out, ignore_errors=True)
        run_checkpoint(self.warm["pages"], out, n_partitions=self.spec["partitions"], resume=False)

    def _output(self, out: str):
        from perfbench.workloads import COMPARE_COLUMNS

        paths = glob.glob(os.path.join(out, "part-*", "extracted.parquet"))
        return read_parquets(paths, ["url"] + COMPARE_COLUMNS)

    def timed_pass(self, k: int) -> dict:
        from pdf_extractor_ray.pipelines.extract import run_checkpoint

        n_parts = self.spec["partitions"]
        out = os.path.join(self.out_root, "out")
        shutil.rmtree(out, ignore_errors=True)
        watch = FirstOutput(out, "part-", "")
        watch.start()
        t0 = time.perf_counter()
        run_checkpoint(self.info["pages"], out, n_partitions=n_parts, resume=False)
        t1 = time.perf_counter()
        watch.stop()
        cold = self._output(out)
        failed = self.gate(cold)
        lost = sorted(random.Random(f"{self.seed}:{k}").sample(range(n_parts), self.spec["lost"]))
        for pid in lost:
            shutil.rmtree(os.path.join(out, f"part-{pid}"))
        t2 = time.perf_counter()
        run_checkpoint(self.info["pages"], out, n_partitions=n_parts, resume=True)
        t3 = time.perf_counter()
        resumed = self._output(out)
        manifests = sum(
            os.path.exists(os.path.join(out, f"part-{p}", "_MANIFEST.json")) for p in range(n_parts)
        )
        resume_failed = self.gate(resumed)
        if manifests != n_parts or not resumed.sort_by("url").equals(cold.sort_by("url")):
            resume_failed = max(resume_failed, 1)
        return {
            "docs": self.info["docs"],
            "wall_s": t1 - t0,
            "resume_s": t3 - t2,
            "first_s": (watch.seen or t1) - t0,
            "attempted": 2 * self.info["docs"],
            "failed": failed + resume_failed,
            "phases": {"cold": (t0, t1), "resume": (t2, t3)},
            "lost": lost,
        }


class MixShards(Workload):
    def warm_pass(self, k: int) -> None:
        from pdf_extractor_ray.pipelines.webpages import write_training_shards

        work = os.path.join(self.out_root, f"warm-work-{k}")
        out = os.path.join(self.out_root, f"warm-{k}")
        for d in (work, out):
            shutil.rmtree(d, ignore_errors=True)
        write_training_shards(
            self.warm["pages"], work, out, budget=self.spec["budget"], n_partitions=self.spec["partitions"]
        )

    def _shards(self, out: str) -> dict:
        seqs = read_parquets(glob.glob(os.path.join(out, "*.parquet")), ["seq_id", "n_tokens", "text"])
        seqs = seqs.sort_by("seq_id")
        h = hashlib.sha256()
        for t in seqs["text"].to_pylist():
            h.update(t.encode("utf-8"))
            h.update(b"\0")
        return {
            "n_seqs": seqs.num_rows,
            "n_tokens": sum(seqs["n_tokens"].to_pylist()),
            "digest": h.hexdigest(),
            "table": seqs,
        }

    def prepare(self) -> dict:
        """Build the extraction checkpoint with the code under test, outside
        every timed region, and gate it against the oracle like an
        extraction pass. The first timed pass of the run then gets the
        token-stream check tests/test_training_shards.py makes; every later
        pass must match its counts and text digest."""
        from perfbench.trace import count_retries
        from perfbench.workloads import COMPARE_COLUMNS
        from pdf_extractor_ray.pipelines.extract import run_checkpoint

        super().prepare()
        self.workdir = os.path.join(self.out_root, "checkpoint")
        self.ref = None
        shutil.rmtree(self.workdir, ignore_errors=True)
        count_retries(self.attempts_dir)
        t = time.perf_counter()
        run_checkpoint(
            self.info["pages"], self.workdir, n_partitions=self.spec["partitions"],
            resume=False, emit_pages=False, assign_doc_ids=True,
        )
        built_s = time.perf_counter() - t
        retried = count_retries(self.attempts_dir)
        paths = glob.glob(os.path.join(self.workdir, "part-*", "extracted.parquet"))
        failed = self.gate(read_parquets(paths, ["url"] + COMPARE_COLUMNS))
        return {
            "checkpoint_build_s": built_s,
            "attempted": self.info["docs"],
            "failed": self.info["docs"] if retried else failed,
            "retried": retried,
        }

    def _verify_stream(self, got: dict, summary) -> dict:
        import re

        from pdf_extractor_ray.pipelines.webpages import checkpointed_training

        budget = self.spec["budget"]
        seqs = got["table"]
        ntoks = seqs["n_tokens"].to_pylist()
        problems = []
        if seqs["seq_id"].to_pylist() != list(range(seqs.num_rows)):
            problems.append("seq ids not contiguous")
        if not all(n == budget for n in ntoks[:-1]) or not 0 < ntoks[-1] <= budget:
            problems.append("windows not full")
        if summary["n_seqs"][0].as_py() != got["n_seqs"] or summary["n_tokens"][0].as_py() != got["n_tokens"]:
            problems.append("summary disagrees with shards")
        meta = checkpointed_training(
            self.info["pages"], self.workdir, budget=budget, n_partitions=self.spec["partitions"]
        ).to_pandas().sort_values("pos")
        ext = read_parquets(
            glob.glob(os.path.join(self.workdir, "part-*", "extracted.parquet")), ["doc_id", "extracted_text"]
        )
        text_of = dict(zip(ext["doc_id"].to_pylist(), ext["extracted_text"].to_pylist()))
        expected = []
        for doc_id in meta["doc_id"]:
            expected.extend(re.split(r"[ \t\n\r\f\v]+", text_of[doc_id].strip()))
        stream = []
        for t in seqs["text"].to_pylist():
            stream.extend(t.split(" "))
        if stream != expected:
            problems.append("token stream differs from the winners' tokens in shuffle order")
        if problems:
            raise RuntimeError(f"mix_shards verification failed for seed {self.seed}: {problems}")
        return {k: got[k] for k in ("n_seqs", "n_tokens", "digest")}

    def timed_pass(self, k: int) -> dict:
        """A training build that resumes after losing seeded extraction
        partitions: ``write_training_shards`` re-extracts them, skips the
        rest by their manifests, then runs the exchanges and writes the
        shards. Both the restored checkpoint and the shards are gated."""
        from perfbench.workloads import COMPARE_COLUMNS
        from pdf_extractor_ray.pipelines.webpages import write_training_shards

        n_parts = self.spec["partitions"]
        lost = sorted(random.Random(f"{self.seed}:{k}").sample(range(n_parts), self.spec["lost"]))
        for pid in lost:
            shutil.rmtree(os.path.join(self.workdir, f"part-{pid}"))
        out = os.path.join(self.out_root, "out")
        shutil.rmtree(out, ignore_errors=True)
        watch = FirstOutput(out, "", ".parquet")
        watch.start()
        t0 = time.perf_counter()
        summary = write_training_shards(
            self.info["pages"], self.workdir, out, budget=self.spec["budget"], n_partitions=n_parts
        )
        t1 = time.perf_counter()
        watch.stop()
        paths = glob.glob(os.path.join(self.workdir, "part-*", "extracted.parquet"))
        failed = self.gate(read_parquets(paths, ["url"] + COMPARE_COLUMNS))
        manifests = sum(
            os.path.exists(os.path.join(self.workdir, f"part-{p}", "_MANIFEST.json")) for p in range(n_parts)
        )
        if manifests != n_parts:
            failed = max(failed, 1)
        got = self._shards(out)
        if self.ref is None:
            self.ref = self._verify_stream(got, summary)
        if not all(got[k] == v for k, v in self.ref.items()):
            failed += self.info["docs"]
        return {
            "docs": self.info["docs"],
            "wall_s": t1 - t0,
            # the whole pass restores the lost partitions and the shards
            "resume_s": t1 - t0,
            "first_s": (watch.seen or t1) - t0,
            "attempted": 2 * self.info["docs"],
            "failed": failed,
            "phases": {"resume": (t0, t1)},
            "lost": lost,
            "n_seqs": got["n_seqs"],
            "shard_bytes": sum(os.path.getsize(p) for p in glob.glob(os.path.join(out, "*.parquet"))),
        }


KINDS = {"pdf_checkpoint": PdfCheckpoint, "mix_shards": MixShards}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(KINDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still reaches the ``finally`` that stops Ray
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    t_main = time.perf_counter()
    host = host_fingerprint()
    print(f"host: {json.dumps(host)}", flush=True)
    sys.path.insert(0, ROOT)
    os.makedirs(WORK, exist_ok=True)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["OMP_NUM_THREADS"] = str(NUM_CPUS)

    from perfbench import trace
    from perfbench import workloads as W

    import ray

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out_root = os.path.join(WORK, "o", run_id)
    attempts_dir = os.path.join(out_root, "attempts")
    trace_dir = os.path.join(WORK, "t", run_id) if args.trace else None
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(attempts_dir)

    t = time.perf_counter()
    info = W.build(args.workload, args.seed, CACHE)
    warm = W.build(args.workload, args.seed, CACHE, warm=True)
    load_s = time.perf_counter() - t
    wl = KINDS[args.workload](args.workload, args.seed, info, warm, out_root, attempts_dir)

    setups = []
    captures: list = []
    passes: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    try:
        for k in range(1 if args.trace else SETUPS):
            if k:
                ray.shutdown()
            t0 = time.perf_counter()
            start_ray(trace_dir, run_id, attempts_dir)
            wl.warm_pass(k)
            wait_for_actors()
            setups.append(time.perf_counter() - t0)
            print(f"setup {k}: {setups[-1]:.3f} s, {len(ray_worker_pids())} workers", flush=True)
        if args.trace:
            os.makedirs(trace_dir, exist_ok=True)
            os.environ.update({
                trace.FLAG_ENV: os.path.join(trace_dir, "ON"),
                trace.DIR_ENV: trace_dir,
                trace.RUN_ENV: run_id,
            })
            rec = trace.install(flush_on_root=False)
            trace.capture_dataset_stats(captures)
        prepared = wl.prepare()
        attempted += prepared["attempted"]
        failed += prepared["failed"]
        t_start = time.perf_counter()
        k = 0
        while True:
            n_untraced = sum(1 for p in passes if not p.get("traced"))
            n_traced = len(passes) - n_untraced
            elapsed = time.perf_counter() - t_start
            if args.trace:
                if elapsed >= args.seconds and min(n_traced, n_untraced) >= MIN_TRACED_PASSES:
                    break
            elif elapsed >= args.seconds and len(passes) >= MIN_PASSES:
                break
            if len(errors) >= 3:
                break
            traced = bool(args.trace) and k % 2 == 1
            if traced:
                open(os.path.join(trace_dir, "ON"), "w").close()
                time.sleep(0.1)
            try:
                trace.count_retries(attempts_dir)
                p = wl.timed_pass(k)
                # a retried task may hide a crash: the pass counts as failed
                p["retried"] = trace.count_retries(attempts_dir)
                if p["retried"]:
                    p["failed"] = p["attempted"]
                p["traced"] = traced
                p["peak_rss_mb"] = peak_worker_rss_mb()
                p["workers"] = len(ray_worker_pids())
                passes.append(p)
                attempted += p["attempted"]
                failed += p["failed"]
            except Exception:
                errors.append(traceback.format_exc())
                attempted += info["docs"]
                failed += info["docs"]
            finally:
                if traced:
                    os.remove(os.path.join(trace_dir, "ON"))
                    time.sleep(0.1)
            k += 1
    finally:
        ray.shutdown()
        # this run's session dirs (named after its pid) hold only Ray's logs
        ray_tmp = ray_temp_dir()
        for d in glob.glob(os.path.join(ray_tmp, f"session_*_{os.getpid()}")):
            shutil.rmtree(d, ignore_errors=True)
        latest = os.path.join(ray_tmp, "session_latest")
        if os.path.islink(latest) and not os.path.exists(latest):
            os.remove(latest)
        with contextlib.suppress(OSError):
            os.rmdir(ray_tmp)  # only when nothing else is left in it
    for e in errors:
        print(e, file=sys.stderr)

    untraced = [p for p in passes if not p["traced"]]
    if not untraced:
        print("no pass completed", file=sys.stderr)
        return 1
    # Pass timings are averaged over the run: on a shared host a pass's wall
    # swings by +-20% from one pass to the next, and the mean of a run's
    # passes spreads less from run to run than their median does.
    mean = lambda key: statistics.fmean(p[key] for p in untraced)  # noqa: E731
    docs_per_s = sum(p["docs"] for p in untraced) / sum(p["wall_s"] for p in untraced)
    end_to_end = {
        "docs_per_s": {"value": docs_per_s, "unit": "1/s"},
        "resume_s": {"value": mean("resume_s"), "unit": "s"},
        "time_to_first_batch_s": {"value": mean("first_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }
    if args.trace:
        from perfbench import layers

        rec.flush()
        spans = trace.load_spans(trace_dir)
        metrics = layers.per_layer(passes, spans, captures)
        with open(os.path.join(trace_dir, "layers.json"), "w") as f:
            json.dump(
                {
                    "metrics": metrics,
                    "predictions": layers.PREDICTIONS,
                    "ray_data_ops": layers.operators(captures),
                },
                f,
                indent=1,
            )
    else:
        metrics = end_to_end
    record = {
        "run": run_id,
        "run_s": time.perf_counter() - t_main,
        "host": host,
        "load_s": load_s,
        "setups_s": setups,
        "prepared": prepared,
        "passes": passes,
        "errors": errors,
        "end_to_end": end_to_end,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / max(attempted, 1),
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{run_id}.json"), "w") as f:
        json.dump(record, f, indent=1)
    shutil.rmtree(out_root, ignore_errors=True)
    for name, m in end_to_end.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} ({failed} of {attempted} docs)")
    result = {"correct": failed == 0 and not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
