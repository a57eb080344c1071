"""Per-layer spans recorded by wrapping the engine's public callables.

The wrappers live here, in the benchmark, not in the engine: each one is
installed at the name its caller resolves it by (a module global such as
``repro.core.driver.run_plan``, or a class attribute such as
``Optimizer.optimize``) and restored to the identical original object on
exit.  Spans are kept in memory as ``(id, name, start, end, parent,
statement, attrs)`` and written as JSONL after the run; a span's parent is
the innermost open span of the same thread, and a root span opens a new
statement id that its descendants share.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

# (module, attribute path, span name); the order is the install order.
TARGETS = [
    ("repro.core.database", "Database.execute", "execute"),
    ("repro.core.database", "parameterize_sql", "sql"),
    ("repro.sql.binder", "bind_sql", "sql"),
    ("repro.core.driver", "PopDriver.run", "core.driver"),
    ("repro.optimizer.optimizer", "Optimizer.optimize", "optimizer"),
    ("repro.optimizer.enumeration", "narrow_validity_range", "optimizer.validity"),
    ("repro.core.driver", "place_checkpoints", "core.placement"),
    ("repro.core.driver", "run_plan", "executor"),
    ("repro.cache.plan_cache", "PlanCache.lookup", "cache"),
    ("repro.txn.manager", "TransactionManager.commit", "txn.commit"),
    ("repro.txn.manager", "TransactionManager.checkpoint", "txn.checkpoint"),
    ("repro.storage.wal", "WriteAheadLog.append_commit", "storage.wal"),
]


def _describe(name: str, result) -> dict | None:
    """Counts read off a call's return value."""
    if result is None:
        return None
    if name == "execute":
        return {"units": result.report.total_units, "rows": len(result.rows)}
    if name == "core.driver":
        report = result[1]
        return {
            "units": report.total_units,
            "attempts": len(report.attempts),
            "reopts": report.reoptimizations,
        }
    if name == "optimizer":
        return {
            "plans": result.plans_enumerated,
            "newton": result.newton_iterations,
        }
    if name == "core.placement":
        return {"checks": result.count}
    if name == "executor":
        return {"rows": len(result)}
    if name == "cache":
        return {"hit": result.hit, "rejects": result.admission_rejects}
    if name == "storage.wal":
        return {"bytes": result}
    return None


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(wrap):
    """Install ``wrap(name, original)`` at every target; always restore.

    Class attributes are read from the class ``__dict__`` so the restored
    object is the original function itself, not a bound or inherited one.
    """
    saved = []
    try:
        for module_name, path, name in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            replacement = wrap(name, original)
            if replacement is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanRecorder:
    """In-memory span sink shared by every thread of one run."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: Every plan cache a lookup went to (one per server session).
        self.caches: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A span opened by the benchmark itself (client round trips)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stmt = parent[1] if parent else sid
        stack.append((sid, stmt))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent[0] if parent else None, stmt, attrs)
            )

    def wrapper(self, name: str, original):
        """A timing wrapper around ``original`` emitting span ``name``."""
        spans = self.spans
        caches = self.caches
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stmt = parent[1] if parent else sid
            stack.append((sid, stmt))
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = _describe(name, result)
                if name == "cache":
                    caches.add(args[0])
                spans.append(
                    (sid, name, start, end, parent[0] if parent else None, stmt, attrs)
                )

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, stmt, attrs in self.spans:
                rec = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "stmt": stmt,
                }
                if attrs:
                    rec["attrs"] = attrs
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def units_hook(sink: list):
    """``patched`` factory: record each ``PopDriver.run``'s work units."""

    def wrap(name, original):
        if name != "core.driver":
            return None

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            sink.append(result[1].total_units)
            return result

        return counted

    return wrap


def layer_totals(spans) -> tuple[dict, Counter, dict]:
    """Per span name: summed self seconds, span count, summed attrs.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of a statement's spans sum to its root's
    duration.
    """
    child = defaultdict(float)
    for sid, _name, start, end, parent, _stmt, _attrs in spans:
        if parent is not None:
            child[parent] += end - start
    self_s: dict = defaultdict(float)
    count: Counter = Counter()
    attrs_sum: dict = defaultdict(Counter)
    for sid, name, start, end, _parent, _stmt, attrs in spans:
        self_s[name] += (end - start) - child[sid]
        count[name] += 1
        if attrs:
            for key, value in attrs.items():
                attrs_sum[name][key] += value
    return self_s, count, attrs_sum
