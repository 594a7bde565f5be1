"""A fixed pure-Python loop that gauges how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by a fifth or
more within a minute, and user and system CPU time drift with it.  Each unit
of work runs rounds of this loop right before, between pieces of and after
its work (perfbench/child.py), and run.py scales the work's time by the
loop's nominal time over its time in that run, so the reported figure
follows the code under test rather than the host.  The loop imports nothing
from pinwheel, so no change to the program moves it, and it runs with the
garbage collector off, so the size of the program's heap does not either.
It does the same kinds of work as the program: small tuples, frozensets and
dicts, validating constructors, integer arithmetic, sorting and JSON.
"""

from __future__ import annotations

import gc
import json
import time

# Nominal seconds of one round: about its mean in the benchmark's child
# processes on a 2-vCPU Xeon host with Python 3.11.7.  Scaled times are
# given in seconds at that speed.  A round holds a few hundred kilobytes, so
# the children's peak resident set stays the program's own.
ROUND_S = 0.0011
EXPECTED = 227_160


class _Item:
    __slots__ = ("key", "cells")

    def __init__(self, key: tuple, cells: frozenset):
        if not isinstance(key, tuple) or len(key) != 3:
            raise ValueError("bad key")
        self.key = key
        self.cells = cells


def _round() -> int:
    table: dict[tuple, _Item] = {}
    for i in range(500):
        key = ((i * 7 + 5) % 97, i % 13, i % 5)
        cells = frozenset((i & 7, (i >> 3) & 7, (i * 5) % 11))
        table[key] = _Item(key, cells | {2})
    items = sorted(table.values(), key=lambda item: (item.key[1], -item.key[0], item.key[2]))
    total = 0
    for item in items:
        total = (total * 31 + sum(item.cells) + item.key[0]) % 1_000_003
    text = json.dumps([[list(item.key), sorted(item.cells)] for item in items[:40]], separators=(",", ":"))
    return total + len(json.loads(text)) + len(text)


class Gauge:
    """Rounds of the loop run so far in this process, and their wall and CPU seconds."""

    def __init__(self) -> None:
        self.rounds = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def run(self, rounds: int) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            checks = [_round() for _ in range(rounds)]
            self.wall_s += time.perf_counter() - wall0
            self.cpu_s += time.process_time() - cpu0
        finally:
            if enabled:
                gc.enable()
        if any(check != EXPECTED for check in checks):
            raise RuntimeError(f"reference loop computed {checks}, not {EXPECTED}")
        self.rounds += rounds

    def report(self) -> dict:
        return {"rounds": self.rounds, "wall_s": self.wall_s, "cpu_s": self.cpu_s}
