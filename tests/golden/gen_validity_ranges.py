"""Full-precision validity-range golden: generator and snapshot.

``tests/golden/*.txt`` print ranges rounded to integers, too coarse to show
that a change to how ranges are computed leaves them bit-for-bit equal.
This script records, for every join node of every optimized plan, each
input edge's ``repr(low)`` / ``repr(high)`` together with the node's
``est_card`` / ``est_cost``, over:

* the 12 TPC-H queries, ``Q10_MARKER`` and the 39 DMV queries,
* six optimizer option sets (see :data:`OPTION_SETS`),

plus each query's ``PopConfig()`` execution under default options: the
row multiset (count and SHA-256 of the sorted row reprs), ``total_units``
and the number of attempts.  The databases are built with the same scales
and seeds as the ``tpch_db`` / ``dmv_db`` session fixtures, but fresh, so
no other test's side effects leak in.

Regenerate (only after an intentional planner change)::

    PYTHONPATH=src python tests/golden/gen_validity_ranges.py

``tests/test_validity_golden.py`` compares :func:`snapshot` against the
committed ``validity_ranges.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.config import PopConfig
from repro.optimizer.enumeration import OptimizerOptions
from repro.plan.physical import JoinOp
from repro.workloads.dmv.generator import DmvScale, make_dmv_db
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.generator import make_tpch_db
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES

GOLDEN_PATH = Path(__file__).with_name("validity_ranges.json")

#: Option-set name -> optimizer options.
OPTION_SETS: dict[str, OptimizerOptions] = {
    "default": OptimizerOptions(),
    "leftdeep": OptimizerOptions(join_enumeration="leftdeep"),
    "iterations6": OptimizerOptions(validity_iterations=6),
    "inversion_only": OptimizerOptions(commit_without_inversion=False),
    "penalty0.3": OptimizerOptions(uncertainty_penalty=0.3),
    "one_plan_per_subset": OptimizerOptions(max_plans_per_subset=1),
}

#: Bind values for marker queries when executed.
MARKER_PARAMS = {"Q10_MARKER": {"p1": "MODE00"}}


def build_databases():
    """Fresh TPC-H and DMV databases matching the session fixtures."""
    tpch = make_tpch_db(scale_factor=0.002, seed=42)
    dmv = make_dmv_db(
        scale=DmvScale(
            owners=1500,
            cars=2000,
            accidents=500,
            violations=700,
            insurance=2000,
            dealers=120,
            inspections=1300,
            registrations=2000,
        ),
        seed=7,
    )
    return tpch, dmv


def workload(tpch, dmv) -> list[tuple[str, object, str]]:
    """(name, database, sql) for every covered query."""
    cases = [(f"tpch/{n}", tpch, sql) for n, sql in TPCH_QUERIES.items()]
    cases.append(("tpch/Q10_MARKER", tpch, Q10_MARKER))
    cases.extend((f"dmv/{n}", dmv, sql) for n, sql in dmv_queries())
    return cases


def join_nodes(plan) -> list[dict]:
    """Preorder join nodes with full-precision ranges and estimates."""
    return [
        {
            "op": op.describe(),
            "est_card": repr(op.est_card),
            "est_cost": repr(op.est_cost),
            "edges": [[repr(r.low), repr(r.high)] for r in op.validity_ranges],
        }
        for op in plan.walk()
        if isinstance(op, JoinOp)
    ]


def execution(db, sql: str, params) -> dict:
    result = db.execute(sql, params=params, pop=PopConfig())
    rows = sorted(repr(r) for r in result.rows)
    return {
        "rows": len(rows),
        "rows_sha256": hashlib.sha256("\n".join(rows).encode()).hexdigest(),
        "total_units": repr(result.report.total_units),
        "attempts": len(result.report.attempts),
    }


def snapshot(tpch, dmv) -> dict:
    cases = workload(tpch, dmv)
    plans = {}
    for opt_name, options in OPTION_SETS.items():
        for name, db, sql in cases:
            plan = db.optimizer.optimize(db._to_query(sql), options=options).plan
            plans[f"{opt_name}/{name}"] = join_nodes(plan)
    executions = {
        name: execution(db, sql, MARKER_PARAMS.get(name.split("/", 1)[1]))
        for name, db, sql in cases
    }
    return {"plans": plans, "executions": executions}


def render(snap: dict) -> str:
    return json.dumps(snap, indent=1, sort_keys=True) + "\n"


def main() -> None:
    GOLDEN_PATH.write_text(render(snapshot(*build_databases())))
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
