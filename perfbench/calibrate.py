"""A fixed interpreter kernel that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed moves with other tenants' load,
by up to a factor of two within seconds, and wall time and CPU time move
together.  ``calibrate()`` times a fixed piece of pure-Python work that does
not touch hvguard: object construction, attribute access, small-dict probes
and string splitting, the same kinds of work the simulator does per call.
A replay runs it before set-up, at the first sys event and every few
thousand after it, and after the last one, and divides each stretch of host
time by the kernel's time around it.  The figures it reports are thus host
times at a fixed host speed: the speed at which ``calibrate()`` takes
``REF_NS``.  The garbage collector is off while the kernel runs, and the
kernel frees all it allocates, so it leaves the collector's counts as it
found them.
"""

from __future__ import annotations

import gc
import time

# calibrate() time on the reference host.  Host-time metrics are scaled to it.
REF_NS = 12_000_000
REPS = 2
ITEMS = 5_000


class _Record:
    __slots__ = ("uid", "gid", "path")

    def __init__(self, uid, gid, path):
        self.uid = uid
        self.gid = gid
        self.path = path


def _step(table, record):
    hit = table.get(record.path)
    if hit is None:
        table[record.path] = record
        return 0
    return hit.uid ^ record.gid


def kernel() -> int:
    table = {}
    total = 0
    for i, path in enumerate(["/home/u%d/f%d" % (i % 20, i % 1500) for i in range(ITEMS)]):
        total += _step(table, _Record(i % 20, i % 7, path))
        if path.endswith("7"):
            total += len(path.split("/"))
    return total


def calibrate() -> int:
    """Wall time in ns of ``REPS`` kernel runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        for _ in range(REPS):
            kernel()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
