"""Seeded op streams of the three workloads.

A stream is cut into *passes*: fixed multisets of ops whose order (and, on
``serve_mix``, literals) the seed chooses.  The in-process workloads run
whole passes only, so every run measures the same mix of statement kinds
whatever its seed; that is what keeps throughput and percentiles
comparable across seeds.  ``serve_mix`` clients stop together when the
time is up, mid-pass, so that two clients run for the whole window; its
passes are stratified so any prefix keeps close to the pass's mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.dmv import schema as dmv_schema
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import TPCH_QUERIES

#: The three short DMV shapes of ``benchmarks/bench_plan_cache.py`` and
#: how many reads of each one serve_mix client pass makes (72 in all, ~85%
#: of reads).  Each count cycles evenly over the 6 most popular makes, since
#: a make's popularity sets how many rows its reads touch.  The violation
#: shape is re-optimized after every insert and runs ~3x slower than the
#: other two; keeping it to 12 puts the read median inside the cluster of
#: cached short reads instead of in the gap between the two clusters, where
#: it would swing with every small shift between them.
SHORT_TEMPLATES = [
    (
        "short_make_model_owner",
        "SELECT o.o_id, o.o_name FROM car c, owner o "
        "WHERE c.c_owner_id = o.o_id AND c.c_make = '{make}' "
        "AND c.c_model = '{model}'",
        30,
    ),
    (
        "short_make_color_accidents",
        "SELECT count(*) AS accidents FROM car c, accident a "
        "WHERE a.a_car_id = c.c_id AND c.c_make = '{make}' "
        "AND c.c_color = '{color}'",
        30,
    ),
    (
        "short_make_violations",
        "SELECT v.v_type, count(*) AS n FROM car c, violation v "
        "WHERE v.v_car_id = c.c_id AND c.c_make = '{make}' "
        "GROUP BY v.v_type ORDER BY v.v_type",
        12,
    ),
]
SHORT_MAKES = 6

DMV_TEMPLATE_COUNT = 13

#: Besides the short reads, a serve_mix client pass reads each full
#: template once (13) and makes 21 inserts (~1 op in 5).
INSERTS_PER_PASS = 21


@dataclass(frozen=True)
class Op:
    """One operation: a SQL read, or a single-row insert into ``violation``."""

    kind: str  # "read" | "insert"
    label: str
    sql: str = ""
    row: tuple = ()


def tpch_pass(rng: random.Random) -> list[Op]:
    """The 12 TPC-H queries in a seeded order."""
    ops = [Op("read", name, sql) for name, sql in TPCH_QUERIES.items()]
    rng.shuffle(ops)
    return ops


def dmv_pass(rng: random.Random) -> list[Op]:
    """The 39 DMV queries (13 correlated templates x 3) in a seeded order."""
    ops = [Op("read", name, sql) for name, sql in dmv_queries()]
    rng.shuffle(ops)
    return ops


def serve_warmup() -> list[Op]:
    """Untimed reads each session runs first, the same for every seed.

    They fill the session's plan cache with one plan per short shape and
    make, most popular make first.  Without them the plan a shape keeps is
    whichever make its first read happened to name, and short-read latency
    swings by 2-3x from seed to seed.
    """
    return [
        Op("read", label, template.format(
            make=dmv_schema.MAKES[make_idx],
            model=dmv_schema.model_name(make_idx, 0),
            color=dmv_schema.COLORS[0],
        ))
        for label, template, _count in SHORT_TEMPLATES
        for make_idx in range(SHORT_MAKES)
    ]


class ServeStream:
    """One serve_mix client's op stream; the same (seed, client) repeats it."""

    def __init__(self, seed: int, client: int):
        self.client = client
        self.rng = random.Random(f"serve_mix:{seed}:{client}")
        self.inserted = 0
        self.passes = 0
        self._full = dmv_queries()

    def _full_read(self, template: int) -> Op:
        # One of the template's 3 ``dmv_queries()`` instances, rotating per
        # pass and client.  Instances drawn at random let the mix of
        # statement sizes, which spans 30 ms to 2 s, differ between seeds.
        inst = (template + self.passes + self.client) % 3
        name, sql = self._full[inst * DMV_TEMPLATE_COUNT + template]
        return Op("read", name.rsplit("_", 1)[0], sql)

    def _short_read(self, label: str, template: str, make_idx: int) -> Op:
        rng = self.rng
        sql = template.format(
            make=dmv_schema.MAKES[make_idx],
            model=dmv_schema.model_name(
                make_idx, rng.randrange(dmv_schema.MODELS_PER_MAKE)
            ),
            color=rng.choice(dmv_schema.COLORS),
        )
        return Op("read", label, sql)

    def _insert(self) -> Op:
        # A negative car id matches no car, so no read's answer changes;
        # the commit still fsyncs, invalidates plans on ``violation``, and
        # counts toward the checkpoint interval.
        self.inserted += 1
        v_id = 10_000_000 + self.client * 1_000_000 + self.inserted
        row = (
            v_id,
            -v_id,
            self.rng.randint(1996, 2003),
            self.rng.choice(dmv_schema.VIOLATION_TYPES),
            float(self.rng.randint(20, 400)),
        )
        return Op("insert", "violation_insert", row=row)

    def next_pass(self) -> list[Op]:
        """One pass as 13 blocks, one per full template, each holding its
        share of the short reads and inserts; blocks and the ops inside
        them are shuffled.  A run that stops mid-pass therefore still has
        close to the pass's mix."""
        rng = self.rng
        shorts = [
            self._short_read(label, template, i % SHORT_MAKES)
            for label, template, count in SHORT_TEMPLATES
            for i in range(count)
        ]
        inserts = [self._insert() for _ in range(INSERTS_PER_PASS)]
        rng.shuffle(shorts)
        rng.shuffle(inserts)
        blocks = [[self._full_read(t)] for t in range(DMV_TEMPLATE_COUNT)]
        for i, op in enumerate(shorts + inserts):
            blocks[i % DMV_TEMPLATE_COUNT].append(op)
        rng.shuffle(blocks)
        ops = []
        for block in blocks:
            rng.shuffle(block)
            ops.extend(block)
        self.passes += 1
        return ops
