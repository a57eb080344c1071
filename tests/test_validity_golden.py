"""Full-precision validity-range golden and the narrowing-work guard.

The golden (``tests/golden/validity_ranges.json``, written by
``tests/golden/gen_validity_ranges.py``) pins every join node's per-edge
``repr(low)`` / ``repr(high)``, ``est_card`` and ``est_cost`` over the
TPC-H and DMV workloads under six option sets, plus each query's
``PopConfig()`` rows, work units and attempt count.  It was generated
before validity-range narrowing moved from DP pruning to the chosen plan,
so it shows that move changed no bit of any plan, range or execution.

Regenerating is only for an intentional planner change::

    PYTHONPATH=src python tests/golden/gen_validity_ranges.py
"""

from __future__ import annotations

import json

import pytest

from repro.workloads.tpch.queries import TPCH_QUERIES
from tests.golden.gen_validity_ranges import (
    GOLDEN_PATH,
    build_databases,
    render,
    snapshot,
)

#: Fig. 5 Newton iterations for TPC-H Q5+Q8+Q9 (default options) while
#: every kept DP winner was narrowed against its pruned alternatives.
EAGER_NEWTON_ITERATIONS = 99_886
#: The same sum once only the chosen plan's join edges are narrowed.
CHOSEN_PLAN_NEWTON_ITERATIONS = 5_129


@pytest.fixture(scope="module")
def databases():
    return build_databases()


def test_validity_ranges_match_golden(databases):
    text = render(snapshot(*databases))
    expected = GOLDEN_PATH.read_text()
    if text != expected:
        got, want = json.loads(text), json.loads(expected)
        for section in ("plans", "executions"):
            assert got[section].keys() == want[section].keys(), section
            for key in want[section]:
                assert got[section][key] == want[section][key], key
    assert text == expected


def test_newton_iterations_stay_on_the_chosen_plan(databases):
    """Only the chosen plan's join edges are probed, so the Fig. 5 work is
    a deterministic count far below the eager per-pruning total; eager
    narrowing coming back would multiply it."""
    tpch, _ = databases
    total = sum(
        tpch.optimizer.optimize(tpch._to_query(TPCH_QUERIES[q])).newton_iterations
        for q in ("Q5", "Q8", "Q9")
    )
    assert total <= 1.25 * CHOSEN_PLAN_NEWTON_ITERATIONS
    assert total <= EAGER_NEWTON_ITERATIONS / 5
