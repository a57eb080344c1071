"""Host-speed reference: a fixed pure-Python kernel, timed through the run.

The shared 2-vCPU virtual machines this benchmark was built on change
speed by up to 1.8x, for seconds to minutes at a time, and every piece of
Python code on them slows together.  Wall timings taken minutes apart then
differ by more than any bound a regression check could use.  So each
wall timing is reported at a reference host speed: it is scaled by how
long a fixed kernel took, sampled through the same stretch of time,
against :data:`REFERENCE_MS`.

The kernel does no engine work: a hash join, a sort and a group-by over
fixed tuples, the kind of work the executor does, in plain Python.  A
change to the engine therefore moves a scaled figure exactly as much as it
moves the raw one; only the host's speed cancels.  Each run prints the raw
figures and the factor beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import threading
import time

#: What the kernel takes, in thread CPU time, on the machine the bounds
#: were set on when it runs at its fast speed; a scaled figure is the raw
#: one as that machine would give it then.
REFERENCE_MS = 15.0

#: Seconds between samples; one sample costs about 15-25 ms.
SAMPLE_INTERVAL_S = 0.5

_rng = random.Random(7)
_BUILD = [
    (i, _rng.randrange(500), float(_rng.randrange(1000))) for i in range(3000)
]
_PROBE = [
    (_rng.randrange(3000), _rng.randrange(50), f"x{i}") for i in range(12000)
]


def kernel() -> tuple[int, int]:
    """Hash join ``_PROBE`` to ``_BUILD``, sort, group; the same every call."""
    table: dict = {}
    for row in _BUILD:
        table.setdefault(row[0], []).append(row)
    out = []
    for p in _PROBE:
        for b in table.get(p[0], ()):
            if b[1] > p[1]:
                out.append((p[2], b[1], b[2] * 1.5))
    out.sort(key=lambda r: (r[1], r[0]))
    groups: dict = {}
    for _name, g, v in out:
        groups[g] = groups.get(g, 0.0) + v
    return len(out), len(groups)


def time_kernel() -> float:
    """Seconds of this thread's CPU time one kernel call takes.

    CPU time, not wall time, so that a sample taken beside the serve_mix
    threads does not count the time it waits for the interpreter lock.
    """
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def factor(samples) -> float:
    """How much slower than the reference the host ran: >1 is slower."""
    return statistics.median(samples) * 1e3 / REFERENCE_MS


class HostSpeed:
    """Kernel samples of one measured window."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def factor(self) -> float:
        return factor(self.samples)

    def sample_due(self) -> float:
        """Sample if :data:`SAMPLE_INTERVAL_S` passed since the last one;
        returns the wall seconds spent, which the caller leaves out of its
        measured time."""
        now = time.perf_counter()
        if now - self._last < SAMPLE_INTERVAL_S:
            return 0.0
        self.samples.append(time_kernel())
        self._last = time.perf_counter()
        return self._last - now

    @contextlib.contextmanager
    def sampling_thread(self):
        """Sample every :data:`SAMPLE_INTERVAL_S` from a thread of its own,
        for workloads whose own threads cannot pause between ops."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.is_set():
                self.samples.append(time_kernel())
                stop.wait(SAMPLE_INTERVAL_S)

        thread = threading.Thread(target=loop, name="wallbench-hostspeed")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
