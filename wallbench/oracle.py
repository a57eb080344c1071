"""Row checks against a POP-off oracle.

Every statement's rows are reduced to a digest of their canonical form (a
sorted multiset of JSON-normalised rows, floats to 9 significant digits)
and compared with the digest of the same SQL run through
``Database.execute_without_pop`` — static optimization, no CHECKs, no
TEMP MVs, no plan cache.  Oracle digests are computed untimed, after the
measured window, on the run's own database.

They are also kept in a per-checkout cache, one file per workload, keyed
by a hash of the engine source, because the oracle is slow: POP-off is the
paper's baseline, and the catastrophic zip templates show it at its worst.
On a shared 2-vCPU virtual machine it takes about 20 s a run on dmv_reopt,
12-22 s on serve_mix and 6 s on tpch_adhoc.  The cache is only a
shortcut: a read whose rows differ from the cached digest is checked again
against a fresh oracle run on this database before it counts as wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


def _norm(value):
    if isinstance(value, float):
        return float(f"{value + 0.0:.9g}")
    return value


def digest(rows) -> str:
    """Order-insensitive digest of a result; wire and in-process rows agree."""
    lines = sorted(
        json.dumps([_norm(v) for v in row], separators=(",", ":"))
        for row in rows
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def source_hash(src_root: str) -> str:
    """Hash of every ``.py`` file under the engine package."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src_root).encode("utf-8"))
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


class OracleCache:
    """SQL -> oracle digest for one workload, persisted under ``directory``."""

    def __init__(self, directory: str, workload: str, engine_hash: str):
        self.path = os.path.join(
            directory, f"oracle-{workload}-{engine_hash[:16]}.json"
        )
        self.digests: dict[str, str] = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as f:
                self.digests = json.load(f)
        #: Cached digests a fresh oracle run did not reproduce.
        self.replaced = 0
        self._dirty = False

    def fill(self, db, sqls) -> int:
        """Compute the oracle for every SQL not yet cached; returns how many."""
        computed = 0
        for sql in sorted(set(sqls) - self.digests.keys()):
            self.digests[sql] = digest(db.execute_without_pop(sql).rows)
            computed += 1
        self._dirty = self._dirty or computed > 0
        return computed

    def fresh(self, db, sql: str) -> str:
        """Run the oracle for ``sql`` again, on ``db``, and keep its digest."""
        value = digest(db.execute_without_pop(sql).rows)
        if value != self.digests.get(sql):
            self.digests[sql] = value
            self.replaced += 1
            self._dirty = True
        return value

    def save(self) -> None:
        if not self._dirty:
            return
        directory = os.path.dirname(self.path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(self.digests, f)
        os.replace(tmp, self.path)
        self._dirty = False
