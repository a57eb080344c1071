"""Set-up, measured loops, row checks, and metric assembly of one run."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import PopConfig
from repro.server import ReproClient, ReproServer, ServerConfig
from repro.workloads.dmv.generator import make_dmv_db
from repro.workloads.tpch.generator import make_tpch_db

from wallbench import hostspeed, oracle, streams, tracing
from wallbench.stats import percentile, spearman, supports

#: Set-ups per run, before and after the measured window; ``setup_s`` is
#: their median.  The last one before the window is the one measured.  The
#: host's speed drifts in phases of seconds to minutes, so set-ups at both
#: ends of the run sample it at more than one time.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2
#: Host-speed samples taken right before and right after each set-up.
SETUP_SAMPLES = 2
CLIENTS = 2
SERVER_WORKERS = 2

END_TO_END = [
    ("throughput_sps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("units_per_stmt", "units"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("sql.parse_bind_ms", "ms"),
    ("sql.calls", "count"),
    ("optimizer.optimize_ms", "ms"),
    ("optimizer.calls", "count"),
    ("optimizer.plans_enumerated", "count"),
    ("optimizer.newton_iterations", "count"),
    ("optimizer.validity.narrow_ms", "ms"),
    ("optimizer.validity.narrow_calls", "count"),
    ("core.placement.place_ms", "ms"),
    ("core.placement.checks_placed", "count"),
    ("core.driver.self_ms", "ms"),
    ("core.driver.attempts", "count"),
    ("core.driver.reopts", "count"),
    ("executor.run_plan_ms", "ms"),
    ("executor.rows_out", "count"),
    ("cache.lookup_ms", "ms"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.admission_rejects", "count"),
    ("cache.invalidations", "count"),
    ("txn.commit_ms", "ms"),
    ("txn.checkpoint_ms", "ms"),
    ("txn.checkpoints", "count"),
    ("storage.wal.append_ms", "ms"),
    ("storage.wal.bytes_per_commit", "bytes"),
    ("commit_p50_ms", "ms"),
    ("commit_mean_ms", "ms"),
    ("server.execute_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("trace.throughput_sps", "1/s"),
    ("trace.accounted_share", "ratio"),
    ("trace.units_wall_spearman", "ratio"),
]


@dataclass
class Record:
    """One attempted op: what ran, how long, and what came back."""

    op: streams.Op
    seconds: float
    rows: list | None = None
    error: str | None = None


@dataclass
class Outcome:
    records: list = field(default_factory=list)
    #: Wall seconds of the measured window, host-speed samples taken
    #: between ops left out.
    elapsed: float = 0.0
    units: list = field(default_factory=list)
    speed: hostspeed.HostSpeed = field(default_factory=hostspeed.HostSpeed)


# ------------------------------------------------------------------ set-up


class InProcessEnv:
    def __init__(self, db):
        self.db = db

    def close(self) -> None:
        self.db.close()


class NoMvReuseServer(ReproServer):
    """A ``ReproServer`` whose statements never reuse TEMP MVs.

    TEMP MVs live in one database-wide catalog list: a statement that ends
    clears every other session's, and re-optimization may reuse one that
    another session built for other literals.  Two sessions re-optimizing
    at once then fail with ``no temp MV named '__tempmv_N'`` or return
    wrong rows.  ``reuse_policy="never"`` is what the engine's own
    concurrent suites run with for the same reason; CHECKs still fire and
    statements still re-optimize with feedback.  The wire protocol has no
    way to choose the ``PopConfig``, hence the override.
    """

    def _statement_config(self) -> PopConfig:
        return dataclasses.replace(
            super()._statement_config(), reuse_policy="never"
        )


class ServerEnv:
    """The DMV database behind a live server, with durable transactions."""

    def __init__(self, scratch: str, server_class=NoMvReuseServer):
        self.directory = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        self.db = make_dmv_db()
        self.db.enable_transactions(path=self.directory)
        self.server = server_class(
            self.db, ServerConfig(workers=SERVER_WORKERS)
        )
        self.address = self.server.start()

    def close(self) -> None:
        self.server.shutdown()
        self.db.close()
        shutil.rmtree(self.directory, ignore_errors=True)


# ------------------------------------------------------------ measured loops


def _run_ops(db, ops, pop, out) -> float:
    """Run ``ops`` one after another, sampling host speed between them;
    returns the wall seconds the samples took."""
    records, units = out.records, out.units
    paused = 0.0
    for op in ops:
        paused += out.speed.sample_due()
        t0 = time.perf_counter()
        try:
            result = db.execute(op.sql, pop=pop)
        except Exception as exc:  # a failed op is counted, never retried
            records.append(
                Record(op, time.perf_counter() - t0, error=_error_text(exc))
            )
            continue
        records.append(Record(op, time.perf_counter() - t0, result.rows))
        units.append(result.report.total_units)
    return paused


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_in_process(env, make_pass, seed, seconds, tail_q):
    """Whole passes, one client, until ``seconds`` passed and the tail is
    supported by the sample count."""
    rng = random.Random(f"{make_pass.__name__}:{seed}")
    pop = PopConfig()
    out = Outcome()
    start = time.perf_counter()
    paused = 0.0
    while True:
        paused += _run_ops(env.db, make_pass(rng), pop, out)
        out.elapsed = time.perf_counter() - start - paused
        if out.elapsed >= seconds and supports(len(out.records), tail_q):
            return out


def run_serve_mix(env, seed, seconds, tail_q, recorder=None):
    """``CLIENTS`` closed-loop connections; reads over the wire, inserts
    as in-process autocommits.  Timed from when every client has run the
    warm-up until each finishes the op in flight at ``seconds``."""
    out = Outcome()
    host, port = env.address
    errors: list[BaseException] = []
    reads = [0]
    started: list[float] = []
    lock = threading.Lock()

    def start() -> None:
        # Warm-up statements are neither measured nor traced.
        out.units.clear()
        out.speed.samples.clear()
        if recorder is not None:
            recorder.spans.clear()
        started.append(time.perf_counter())

    barrier = threading.Barrier(CLIENTS, action=start)

    def span(name):
        return recorder.span(name) if recorder is not None else contextlib.nullcontext()

    def client(index: int) -> None:
        stream = streams.ServeStream(seed, index)
        local: list[Record] = []
        try:
            with ReproClient(host, port) as conn:
                for op in streams.serve_warmup():
                    conn.execute(op.sql)
                barrier.wait(timeout=120)
                while True:
                    for op in stream.next_pass():
                        if time.perf_counter() - started[0] >= seconds:
                            with lock:
                                if supports(reads[0], tail_q):
                                    return
                        local.append(_serve_op(env.db, conn, op, span))
                        if op.kind == "read":
                            with lock:
                                reads[0] += 1
        except BaseException as exc:  # re-raised on the main thread
            barrier.abort()
            errors.append(exc)
        finally:
            with lock:
                out.records.extend(local)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"wallbench-client-{i}")
        for i in range(CLIENTS)
    ]
    # The server's replies carry no work units; untraced, a counting hook
    # on PopDriver.run (no clock reads) collects them instead.
    hook = (
        tracing.patched(tracing.units_hook(out.units))
        if recorder is None
        else contextlib.nullcontext()
    )
    with hook, out.speed.sampling_thread():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    out.elapsed = time.perf_counter() - started[0]
    return out


def _serve_op(db, conn, op, span) -> Record:
    t0 = time.perf_counter()
    if op.kind == "insert":
        try:
            with span("client.insert"):
                db.insert("violation", [op.row])
        except Exception as exc:  # a failed op is counted, never retried
            return Record(op, time.perf_counter() - t0, error=_error_text(exc))
        return Record(op, time.perf_counter() - t0, rows=[])
    with span("client.read"):
        resp = conn.execute(op.sql)
    seconds = time.perf_counter() - t0
    if resp is None:
        raise ConnectionError("server closed the connection")
    if not resp.get("ok"):
        error = f"{resp.get('error_class')}: {resp.get('error')}"
        return Record(op, seconds, error=error)
    return Record(op, seconds, rows=resp["rows"])


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    #: The percentile ``latency_tail_ms`` reports, fixed per workload.
    tail_q: float
    setup: Callable
    #: The pass generator of an in-process workload; ``None`` for serve_mix.
    make_pass: Callable | None = None

    def run(self, env, seed, seconds, recorder):
        if self.make_pass is None:
            return run_serve_mix(env, seed, seconds, self.tail_q, recorder)
        return run_in_process(env, self.make_pass, seed, seconds, self.tail_q)


WORKLOADS = {
    # A pass is 12 statements of fixed sizes, so pooled latencies form 12
    # clusters and p75 falls in the gap between the 9th and the 10th, where
    # it swings with the slowest and fastest runs of two statements.  p80
    # lies inside the 10th cluster (Q9) whatever the number of passes, and
    # 5 passes support it.
    "tpch_adhoc": Workload(
        "tpch_adhoc", 80.0,
        lambda scratch: InProcessEnv(make_tpch_db(0.01)), streams.tpch_pass,
    ),
    "dmv_reopt": Workload(
        "dmv_reopt", 75.0,
        lambda scratch: InProcessEnv(make_dmv_db()), streams.dmv_pass,
    ),
    # p95 of serve_mix sits where the three slowest templates (3 of every
    # 85 reads) meet the rest, and jumps between the two from run to run;
    # p90 lies inside the dense band of mid-sized templates.
    "serve_mix": Workload("serve_mix", 90.0, ServerEnv),
    # Not a benchmark workload: serve_mix with the server's default
    # PopConfig, which reuses TEMP MVs across sessions.  It reproduces the
    # engine defect described at ``NoMvReuseServer``; its runs report
    # failed ops and, on some runs, ``"correct": false``.
    "serve_mix_mv_reuse": Workload(
        "serve_mix_mv_reuse", 90.0,
        functools.partial(ServerEnv, server_class=ReproServer),
    ),
}


# ------------------------------------------------------------------ checks


def check_rows(records, cache: oracle.OracleCache, db) -> tuple[list, list]:
    """Check every read that answered against the oracle; return the records
    that failed with an error and those whose rows are wrong.

    A read that differs from a cached digest counts as wrong only if it
    also differs from a fresh oracle run on ``db``.
    """
    answered = [r for r in records if r.op.kind == "read" and r.error is None]
    cache.fill(db, [r.op.sql for r in answered])
    wrong = []
    for r in answered:
        got = oracle.digest(r.rows)
        if got != cache.digests[r.op.sql] and got != cache.fresh(db, r.op.sql):
            wrong.append(r)
    cache.save()
    errors = [r for r in records if r.error is not None]
    return errors, wrong


# ----------------------------------------------------------------- metrics


def read_latencies_ms(out) -> list[float]:
    """Every read's latency; a failed read counts as slower than any read
    that answered (it takes the run's whole length), so failures push the
    percentiles up instead of shifting which answered read they land on."""
    return [
        (out.elapsed if r.error is not None else r.seconds) * 1e3
        for r in out.records
        if r.op.kind == "read"
    ]


def end_to_end(workload, out, setups, rss_mb) -> tuple[dict, list[str]]:
    """The end-to-end metrics, wall timings at reference host speed
    (see ``hostspeed``); ``setups`` holds (seconds, host factor) pairs."""
    reads = read_latencies_ms(out)
    completed = sum(1 for r in out.records if r.error is None)
    f = out.speed.factor()
    raw = {
        "throughput_sps": completed / out.elapsed,
        "latency_p50_ms": percentile(reads, 50.0),
        "latency_tail_ms": percentile(reads, workload.tail_q),
        "setup_s": statistics.median(t for t, _f in setups),
    }
    values = {
        "throughput_sps": raw["throughput_sps"] * f,
        "latency_p50_ms": raw["latency_p50_ms"] / f,
        "latency_tail_ms": raw["latency_tail_ms"] / f,
        "units_per_stmt": statistics.fmean(out.units),
        "rss_peak_mb": rss_mb,
        "setup_s": statistics.median(t / sf for t, sf in setups),
    }
    notes = [
        f"host factor {f:.4f} over the window (median of "
        f"{len(out.speed.samples)} samples of the reference kernel, "
        f"{hostspeed.REFERENCE_MS:g} ms = 1); raw wall figures: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"latency_tail_ms is p{workload.tail_q:g} of {len(reads)} read "
        f"latencies ({len(reads) * (1 - workload.tail_q / 100):.0f} beyond it)",
        f"setup_s is the median of {len(setups)} set-ups (raw s / host "
        "factor): " + ", ".join(f"{t:.3f}/{sf:.3f}" for t, sf in setups),
    ]
    commits = [r.seconds * 1e3 for r in out.records
               if r.op.kind == "insert" and r.error is None]
    if commits:
        notes.append(
            f"commit_p50_ms {statistics.median(commits):.3f} ms, "
            f"commit_mean_ms {statistics.fmean(commits):.3f} ms "
            f"over {len(commits)} commits"
        )
    return values, notes


def per_layer(recorder, out, workload) -> dict:
    spans = recorder.spans
    self_s, count, attrs = tracing.layer_totals(spans)
    roots = [s for s in spans if s[1] == "execute" and s[4] is None]
    n = len(roots)
    wall = sum(end - start for _sid, _name, start, end, *_ in roots)

    def per_stmt_ms(name):
        return self_s.get(name, 0.0) * 1e3 / n

    def per_stmt(name, key=None):
        total = attrs[name][key] if key else count.get(name, 0)
        return total / n

    def mean_ms(name):
        return self_s.get(name, 0.0) * 1e3 / count[name] if count[name] else 0.0

    lookups = count.get("cache", 0)
    hits = attrs["cache"]["hit"]
    commits = count.get("txn.commit", 0)
    inserts = [(e - s) * 1e3 for _i, name, s, e, *_ in spans
               if name == "client.insert"]
    client_reads = [(e - s) * 1e3 for _i, name, s, e, *_ in spans
                    if name == "client.read"]
    server = workload.make_pass is None
    completed = sum(1 for r in out.records if r.error is None)
    units = {s[5]: s[6]["units"] for s in spans
             if s[1] == "core.driver" and s[6] is not None}
    pairs = [(units[s[0]], s[3] - s[2]) for s in roots if s[0] in units]
    return {
        "sql.parse_bind_ms": per_stmt_ms("sql"),
        "sql.calls": per_stmt("sql"),
        "optimizer.optimize_ms": per_stmt_ms("optimizer"),
        "optimizer.calls": per_stmt("optimizer"),
        "optimizer.plans_enumerated": per_stmt("optimizer", "plans"),
        "optimizer.newton_iterations": per_stmt("optimizer", "newton"),
        "optimizer.validity.narrow_ms": per_stmt_ms("optimizer.validity"),
        "optimizer.validity.narrow_calls": per_stmt("optimizer.validity"),
        "core.placement.place_ms": per_stmt_ms("core.placement"),
        "core.placement.checks_placed": per_stmt("core.placement", "checks"),
        "core.driver.self_ms": per_stmt_ms("core.driver"),
        "core.driver.attempts": per_stmt("core.driver", "attempts"),
        "core.driver.reopts": per_stmt("core.driver", "reopts"),
        "executor.run_plan_ms": per_stmt_ms("executor"),
        "executor.rows_out": per_stmt("executor", "rows"),
        "cache.lookup_ms": per_stmt_ms("cache"),
        "cache.lookups": float(lookups),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.admission_rejects": float(attrs["cache"]["rejects"]),
        "cache.invalidations": float(
            sum(c.stats.invalidations for c in recorder.caches)
        ),
        "txn.commit_ms": mean_ms("txn.commit"),
        "txn.checkpoint_ms": mean_ms("txn.checkpoint"),
        "txn.checkpoints": float(count.get("txn.checkpoint", 0)),
        "storage.wal.append_ms": mean_ms("storage.wal"),
        "storage.wal.bytes_per_commit": (
            attrs["storage.wal"]["bytes"] / commits if commits else 0.0
        ),
        "commit_p50_ms": statistics.median(inserts) if inserts else 0.0,
        "commit_mean_ms": statistics.fmean(inserts) if inserts else 0.0,
        "server.execute_ms": wall * 1e3 / n if server else 0.0,
        "server.wait_ms": (
            statistics.fmean(client_reads) - wall * 1e3 / n if server else 0.0
        ),
        "trace.throughput_sps": completed / out.elapsed * out.speed.factor(),
        "trace.accounted_share": 1.0 - self_s.get("execute", 0.0) / wall,
        "trace.units_wall_spearman": spearman(*zip(*pairs)),
    }


# -------------------------------------------------------------------- main


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="wallbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(argv, root: str) -> dict:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    state = os.path.join(root, ".wallbench")
    scratch = os.path.join(state, "tmp")
    os.makedirs(scratch, exist_ok=True)
    # Engine temp files (spill directories) stay inside the checkout too.
    tempfile.tempdir = scratch

    def timed_setup():
        gc.collect()
        samples = [hostspeed.time_kernel() for _ in range(SETUP_SAMPLES)]
        t0 = time.perf_counter()
        env = workload.setup(scratch)
        seconds = time.perf_counter() - t0
        samples += [hostspeed.time_kernel() for _ in range(SETUP_SAMPLES)]
        setups.append((seconds, hostspeed.factor(samples)))
        return env

    setups = []
    for _ in range(SETUPS_BEFORE - 1):
        timed_setup().close()
    env = timed_setup()
    try:
        # Later collections skip the loaded tables: full collections would
        # otherwise rescan them at a rate set by how much the run allocates,
        # which charges the tracer's own allocations to the engine.
        gc.collect()
        gc.freeze()
        recorder = tracing.SpanRecorder() if args.trace else None
        tracer = (
            tracing.patched(recorder.wrapper)
            if recorder is not None
            else contextlib.nullcontext()
        )
        with tracer:
            out = workload.run(env, args.seed, args.seconds, recorder)
        rss_mb = _rss_mb()
        if isinstance(env, ServerEnv):
            env.server.shutdown()  # the oracle runs without clients
        cache = oracle.OracleCache(
            os.path.join(state, "cache"),
            workload.name,
            oracle.source_hash(os.path.join(root, "src", "repro")),
        )
        errors, wrong = check_rows(out.records, cache, env.db)
    finally:
        env.close()
        gc.unfreeze()
    for _ in range(SETUPS_AFTER):
        timed_setup().close()

    attempted = len(out.records)
    failed = len(errors) + len(wrong)
    print(
        f"{workload.name} seed={args.seed}: {attempted} ops in "
        f"{out.elapsed:.2f} s, {len(errors)} error(s), "
        f"{len(wrong)} wrong result(s)"
    )
    for r in errors:
        print(f"  error: {r.op.label}: {r.error}")
    for r in wrong:
        print(f"  wrong: {r.op.label}: {' '.join(r.op.sql.split())}")
    if cache.replaced:
        print(f"  # {cache.replaced} cached oracle digest(s) differed from a "
              f"fresh oracle run and were replaced")
    if recorder is None:
        values, notes = end_to_end(workload, out, setups, rss_mb)
        names = END_TO_END
    else:
        values = per_layer(recorder, out, workload)
        notes = []
        names = PER_LAYER
        out_dir = os.path.join(state, "out")
        os.makedirs(out_dir, exist_ok=True)
        recorder.write_jsonl(os.path.join(out_dir, f"trace-{workload.name}.jsonl"))
        notes.append(f"{len(recorder.spans)} spans written to "
                     f".wallbench/out/trace-{workload.name}.jsonl")
    for name, unit in names:
        print(f"  {name} = {values[name]:.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in names
        },
    }


def main(argv, root: str) -> int:
    result = run(argv, root)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
