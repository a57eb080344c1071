"""Batch-width differential harness for the executor.

Replays seeded random parameter streams over TPC-H and DMV statement
templates at width 1 (every batch is one row — the reference), at several
wider batch sizes, and against the row-level nested-loop oracle
(:mod:`tests.reference`, which shares no code with the executor).  The
batch width is an execution detail, not a semantics change, so every
observable POP behaviour must be identical across widths:

* **rows** — exact ordered equality against width 1, canonical equality
  vs the oracle;
* **CHECK decisions** — the per-attempt checkpoint-event sequences (op id,
  flavor, observed cardinality, range, completeness, triggered) match
  exactly; only ``units_at_event`` may drift by float-summation order;
* **re-optimization** — identical attempt counts, identical
  ``report.reoptimizations``, identical signal fields per attempt;
* **work accounting** — per-attempt ``execution_units`` agree to float
  round-off (batch paths charge ``n × per-row`` in bulk).

Batch sizes cover the degenerate single-row case (the reference width
itself, so the suite also checks that a run repeats exactly), a prime that never divides anything cleanly, a typical vector
width, and one larger than most intermediate results (one-batch drains).
"""

from __future__ import annotations

import random

import pytest

from repro import Database, PopConfig
from repro.sql.binder import bind_sql
from repro.workloads.dmv.generator import DmvScale, make_dmv_db
from repro.workloads.tpch.generator import make_tpch_db

from .conftest import canonical
from .reference import evaluate_reference
from .test_plan_cache_differential import (
    DMV_TEMPLATES,
    TPCH_TEMPLATES,
    dmv_params,
    tpch_params,
)

SEEDS = [11, 23]
BATCH_SIZES = [1, 7, 64, 1024]


def decisions(report):
    """The semantic content of every checkpoint decision, attempt by
    attempt — everything except ``units_at_event``, which is a float sum
    whose grouping legitimately differs between batch widths."""
    out = []
    for attempt in report.attempts:
        out.append(
            [
                (
                    e.op_id,
                    e.flavor,
                    e.observed,
                    e.low,
                    e.high,
                    e.complete,
                    e.triggered,
                )
                for e in attempt.checkpoint_events
            ]
        )
    return out


def signals(report):
    return [
        (a.signal_op_id, a.signal_flavor, a.signal_observed, a.signal_complete)
        for a in report.attempts
    ]


#: The reference configuration: one row per batch.
WIDTH_1 = PopConfig(batch_size=1)


def assert_equivalent(ref_result, batch_result, label):
    assert batch_result.rows == ref_result.rows, label
    assert (
        batch_result.report.reoptimizations
        == ref_result.report.reoptimizations
    ), label
    assert len(batch_result.report.attempts) == len(
        ref_result.report.attempts
    ), label
    assert decisions(batch_result.report) == decisions(ref_result.report), label
    assert signals(batch_result.report) == signals(ref_result.report), label
    for b, r in zip(
        batch_result.report.attempts, ref_result.report.attempts
    ):
        assert b.rows_emitted == r.rows_emitted, label
        assert b.execution_units == pytest.approx(
            r.execution_units, rel=1e-9, abs=1e-6
        ), label


@pytest.fixture(scope="module")
def small_tpch():
    # Sized for the oracle's cross-product materialization, like the plan
    # cache differential — volume lives in benchmarks/bench_vectorized.py.
    return make_tpch_db(0.0005, 42)


@pytest.fixture(scope="module")
def small_dmv():
    return make_dmv_db(
        scale=DmvScale(
            owners=400,
            cars=600,
            accidents=250,
            violations=300,
            insurance=600,
            dealers=40,
            inspections=400,
            registrations=600,
        ),
        seed=7,
    )


def run_stream(db, templates, draw_params, seed, statements=8):
    rng = random.Random(seed)
    for _ in range(statements):
        name, template = templates[rng.randrange(len(templates))]
        sql = template.format(**draw_params(rng))
        ref_result = db.execute(sql, pop=WIDTH_1)
        oracle = evaluate_reference(db.catalog, bind_sql(sql, db.catalog))
        assert canonical(ref_result.rows) == canonical(oracle), (name, sql)
        for batch_size in BATCH_SIZES:
            batch_result = db.execute(
                sql, pop=PopConfig(batch_size=batch_size)
            )
            assert_equivalent(
                ref_result, batch_result, (name, batch_size, sql)
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_tpch_stream_differential(small_tpch, seed):
    run_stream(small_tpch, TPCH_TEMPLATES, tpch_params, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_dmv_stream_differential(small_dmv, seed):
    run_stream(small_dmv, DMV_TEMPLATES, dmv_params, seed)


# --------------------------------------------------- re-optimization parity


@pytest.fixture(scope="module")
def skewed_star():
    """The skewed star from conftest, rebuilt module-scoped: the marker
    query below reliably mis-estimates and re-optimizes mid-flight."""
    database = Database()
    database.create_table(
        "cust", [("c_id", "int"), ("c_segment", "str"), ("c_nation", "int")]
    )
    database.create_table(
        "orders", [("o_id", "int"), ("o_custkey", "int"), ("o_total", "float")]
    )
    rng = random.Random(11)

    def segment() -> str:
        r = rng.random()
        if r < 0.85:
            return "COMMON"
        if r < 0.97:
            return "MID"
        return "RARE"

    database.insert(
        "cust", [(i, segment(), rng.randrange(25)) for i in range(1200)]
    )
    database.insert(
        "orders",
        [
            (i, rng.randrange(1200), round(rng.uniform(10.0, 500.0), 2))
            for i in range(12000)
        ],
    )
    database.create_index("ix_cust_id", "cust", "c_id")
    database.create_index("ix_orders_cust", "orders", "o_custkey")
    database.runstats()
    return database


MARKER_SQL = (
    "SELECT c.c_id, o.o_id FROM cust c, orders o "
    "WHERE o.o_custkey = c.c_id AND c.c_segment = '{segment}'"
)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_reoptimization_fires_identically(skewed_star, batch_size):
    """A stream that actually crosses a CHECK bound mid-flight: the batch
    run must trigger on the same operator at the same observed cardinality
    and land on the same re-optimized plan."""
    from repro.expr.expressions import ColumnRef, ParameterMarker
    from repro.expr.predicates import Comparison, JoinPredicate
    from repro.plan.logical import Query, TableRef

    query = Query(
        tables=[TableRef("c", "cust"), TableRef("o", "orders")],
        select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
        local_predicates=[
            Comparison(ColumnRef("c", "c_segment"), "=", ParameterMarker("p"))
        ],
        join_predicates=[
            JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
        ],
    )
    ref_result = skewed_star.execute(
        query, params={"p": "COMMON"}, pop=WIDTH_1
    )
    assert ref_result.report.reoptimizations >= 1
    batch_result = skewed_star.execute(
        query, params={"p": "COMMON"}, pop=PopConfig(batch_size=batch_size)
    )
    assert_equivalent(ref_result, batch_result, ("marker", batch_size))
    # The triggering attempt's plan must match too: same feedback in, same
    # re-optimized plan out.  Temp-MV names carry a per-statement sequence
    # number, so normalize those.
    import re

    def norm(text):
        return re.sub(r"__tempmv_\d+", "__tempmv_N", text or "")

    for b, r in zip(
        batch_result.report.attempts, ref_result.report.attempts
    ):
        assert norm(b.plan_text) == norm(r.plan_text)
        assert norm(str(b.join_order)) == norm(str(r.join_order))


def test_default_config_runs_at_width_1024(skewed_star):
    """A default-constructed PopConfig — what ``Database.execute`` uses —
    runs at width 1024 and stays equivalent to width 1."""
    ref_result = skewed_star.execute(
        MARKER_SQL.format(segment="MID"), pop=WIDTH_1
    )
    config = PopConfig()
    assert config.batch_size == 1024
    default_result = skewed_star.execute(MARKER_SQL.format(segment="MID"))
    assert_equivalent(ref_result, default_result, "default")


def test_negative_batch_size_rejected():
    with pytest.raises(ValueError):
        PopConfig(batch_size=-1)


def test_zero_batch_size_rejected():
    """0 used to select a row-at-a-time protocol that no longer exists."""
    with pytest.raises(ValueError):
        PopConfig(batch_size=0)
