"""Self-tests of the benchmark harness (not of the engine).

Run from the repository root: ``python3 -m pytest -q wallbench/tests``.
"""

from __future__ import annotations

import random

import pytest

from repro import Database
from wallbench import harness, hostspeed, oracle, streams, tracing
from wallbench.stats import percentile, spearman, supports


# ------------------------------------------------------- percentile rule


def test_percentile_needs_ten_samples_beyond_it():
    assert supports(200, 95.0)
    assert not supports(199, 95.0)
    assert supports(40, 75.0)
    assert not supports(39, 75.0)


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == pytest.approx(50.5)
    assert percentile(values, 95.0) == pytest.approx(95.05)
    assert percentile([7.0], 95.0) == 7.0


class _InstantDb:
    """Answers every statement at once with one fixed row."""

    def execute(self, sql, pop=None):
        class _Report:
            total_units = 1.0

        class _Result:
            rows = [(1,)]
            report = _Report()

        return _Result()


def test_in_process_loop_runs_passes_until_the_tail_is_supported():
    env = harness.InProcessEnv(_InstantDb())
    out = harness.run_in_process(env, streams.tpch_pass, seed=3, seconds=0.0,
                                 tail_q=75.0)
    # 12 statements per pass: 3 passes leave 9 beyond p75, 4 leave 12.
    assert len(out.records) == 48


def test_spearman_ranks():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 1, 2], [5, 5, 9]) == pytest.approx(1.0)


# ----------------------------------------------------------- row checks


class _OracleDb:
    def __init__(self, answers):
        self.answers = answers
        self.calls = 0

    def execute_without_pop(self, sql):
        self.calls += 1

        class _Result:
            rows = self.answers[sql]

        return _Result()


def _read(sql, rows, error=None):
    return harness.Record(streams.Op("read", sql, sql), 0.001, rows, error=error)


def test_injected_wrong_row_counts_as_failed_op(tmp_path):
    answers = {"q1": [(1, "a", 2.5), (2, "b", 0.1)], "q2": [(3,)]}
    cache = oracle.OracleCache(str(tmp_path), "toy", "engine")
    records = [
        _read("q1", [[2, "b", 0.1], [1, "a", 2.5]]),  # wire order, lists
        _read("q2", [(3,)]),
        _read("q1", [(1, "a", 2.5), (2, "b", 0.2)]),  # injected wrong row
        _read("q2", None, error="user: boom"),
    ]
    errors, wrong = harness.check_rows(records, cache, _OracleDb(answers))
    assert (errors, wrong) == ([records[3]], [records[2]])
    assert cache.replaced == 0


def test_oracle_cache_persists_per_workload_and_engine_hash(tmp_path):
    db = _OracleDb({"q": [(1,)]})
    first = oracle.OracleCache(str(tmp_path), "toy", "engine-a")
    assert first.fill(db, ["q", "q"]) == 1
    first.save()
    assert oracle.OracleCache(str(tmp_path), "toy", "engine-a").fill(db, ["q"]) == 0
    assert oracle.OracleCache(str(tmp_path), "toy", "engine-b").fill(db, ["q"]) == 1
    assert oracle.OracleCache(str(tmp_path), "other", "engine-a").fill(db, ["q"]) == 1


def test_stale_cached_digest_is_rechecked_not_counted_wrong(tmp_path):
    cache = oracle.OracleCache(str(tmp_path), "toy", "engine")
    cache.digests["q"] = oracle.digest([(0,)])  # not what the oracle gives
    db = _OracleDb({"q": [(1,)]})
    errors, wrong = harness.check_rows([_read("q", [(1,)])], cache, db)
    assert (errors, wrong, cache.replaced) == ([], [], 1)
    assert cache.digests["q"] == oracle.digest([(1,)])


def test_digest_ignores_row_order_and_float_noise():
    assert oracle.digest([(1, 0.1 + 0.2), (0, -0.0)]) == oracle.digest(
        [[0, 0.0], [1, 0.3]]
    )
    assert oracle.digest([(1,)]) != oracle.digest([(1,), (1,)])


# ---------------------------------------------------------- op streams


def test_same_seed_gives_same_op_stream():
    for make_pass in (streams.tpch_pass, streams.dmv_pass):
        a, b = random.Random(5), random.Random(5)
        assert [make_pass(a) for _ in range(3)] == [make_pass(b) for _ in range(3)]
    one, two = streams.ServeStream(5, 1), streams.ServeStream(5, 1)
    assert [one.next_pass() for _ in range(2)] == [two.next_pass() for _ in range(2)]
    assert streams.ServeStream(6, 1).next_pass() != streams.ServeStream(5, 1).next_pass()
    assert streams.ServeStream(5, 0).next_pass() != streams.ServeStream(5, 1).next_pass()


def test_serve_pass_mix_is_fixed():
    ops = streams.ServeStream(9, 0).next_pass()
    reads = [op for op in ops if op.kind == "read"]
    inserts = [op for op in ops if op.kind == "insert"]
    short = [op for op in reads if op.label.startswith("short_")]
    assert len(ops) == 106 and len(inserts) == 21
    assert len(short) == 72 and len(reads) - len(short) == 13
    assert sum(op.label == "short_make_violations" for op in short) == 12
    # Every insert targets a car id no car has, so no read's answer moves.
    assert all(op.row[1] < 0 for op in inserts)


# ------------------------------------------------------------- wrappers


def _toy_db():
    db = Database()
    db.create_table("t", [("id", "int"), ("v", "str")])
    db.insert("t", [(i, f"v{i % 3}") for i in range(50)])
    db.create_index("t_id", "t", "id")
    db.runstats()
    return db


def _all_unwrapped() -> bool:
    for module_name, path, _name in tracing.TARGETS:
        owner, attr = tracing._resolve(module_name, path)
        if hasattr(vars(owner)[attr], "__wrapped__"):
            return False
    return True


def test_wrappers_are_removed_after_a_traced_run():
    originals = {}
    for module_name, path, _name in tracing.TARGETS:
        owner, attr = tracing._resolve(module_name, path)
        originals[(module_name, path)] = vars(owner)[attr]
    recorder = tracing.SpanRecorder()
    db = _toy_db()
    with pytest.raises(RuntimeError):
        with tracing.patched(recorder.wrapper):
            assert not _all_unwrapped()
            db.execute("SELECT t.v FROM t WHERE t.id < 10")
            raise RuntimeError("abort mid-run")
    assert _all_unwrapped()
    for (module_name, path), original in originals.items():
        owner, attr = tracing._resolve(module_name, path)
        assert vars(owner)[attr] is original
    before = len(recorder.spans)
    db.execute("SELECT t.v FROM t WHERE t.id < 10")
    assert len(recorder.spans) == before  # the untraced call leaves no span


def test_layer_self_times_account_for_the_statement():
    recorder = tracing.SpanRecorder()
    db = _toy_db()
    with tracing.patched(recorder.wrapper):
        db.execute("SELECT t.v FROM t WHERE t.id < 10")
    names = {span[1] for span in recorder.spans}
    assert {"execute", "sql", "core.driver", "optimizer", "executor"} <= names
    (root,) = [s for s in recorder.spans if s[1] == "execute"]
    assert all(s[5] == root[0] for s in recorder.spans)
    self_s, count, attrs = tracing.layer_totals(recorder.spans)
    assert sum(self_s.values()) == pytest.approx(root[3] - root[2], rel=1e-9)
    assert attrs["execute"]["rows"] == 10
    assert count["optimizer"] == 1


# ----------------------------------------------------------- serve_mix set-up


def test_serve_mix_server_turns_off_temp_mv_reuse_only():
    db = _toy_db()
    config = harness.NoMvReuseServer(db)._statement_config()
    default = harness.ReproServer(db)._statement_config()
    assert config.reuse_policy == "never"
    assert default.reuse_policy == "cost"
    assert config.resilience == default.resilience
    assert config.enabled and config.plan_cache


# ------------------------------------------------------------- host speed


def test_reference_kernel_does_fixed_work():
    # Changing the kernel changes what every scaled figure means.
    assert hostspeed.kernel() == (11283, 497)
    assert hostspeed.time_kernel() > 0.0


def test_wall_metrics_are_scaled_by_the_host_factor():
    out = harness.Outcome(elapsed=10.0, units=[5.0])
    out.records = [_read(f"q{i}", [(i,)]) for i in range(20)]
    for i, r in enumerate(out.records):
        r.seconds = (i + 1) / 1000.0  # 1..20 ms
    ref = hostspeed.REFERENCE_MS / 1e3
    out.speed.samples = [2 * ref, 2 * ref, 9 * ref]  # median: 2x slower
    workload = harness.WORKLOADS["dmv_reopt"]
    setups = [(3.0, 2.0), (1.0, 1.0), (2.0, 0.5)]
    values, _notes = harness.end_to_end(workload, out, setups, rss_mb=1.0)
    assert values["throughput_sps"] == pytest.approx(20 / 10.0 * 2)
    assert values["latency_p50_ms"] == pytest.approx(10.5 / 2)
    assert values["latency_tail_ms"] == pytest.approx(percentile(
        [r.seconds * 1e3 for r in out.records], workload.tail_q) / 2)
    assert values["setup_s"] == pytest.approx(1.5)  # median of 1.5, 1, 4
    assert values["units_per_stmt"] == 5.0
