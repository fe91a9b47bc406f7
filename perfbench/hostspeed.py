"""Host-speed calibration for the host-time metrics.

The 2-core Xeon VM this benchmark was tuned on changes speed by up to 1.5x
for minutes at a time (see README.md, "Host drift").  Fixed probes,
timed between passes, track that drift: scaling a timing by
``reference / probe time`` reports it at a fixed reference speed.  Two
probes, because in-process Python and process start-up slow down by
different amounts: :func:`probe` (a dict loop) scales in-process work,
:func:`spawn_probe` (a fresh interpreter importing numpy) scales work
made of process spawns and imports.  The probes are benchmark code, so
a change to the program moves the scaled timings exactly as much as
the raw ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: seconds one probe takes at the reference speed (the median on the
#: 2-core Xeon VM the benchmark was tuned on).
REFERENCE_S = 0.0125
#: probes per mark; the mark is their median.
PROBES = 5
#: seconds one spawn probe takes at the reference speed.
SPAWN_REFERENCE_S = 0.28
SPAWN_PROBES = 3
SPAWN_CODE = "import asyncio, json, numpy"


def probe() -> float:
    """Seconds for a fixed dict-and-integer loop, like the simulator's."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(60000):
        key = (i * 7919) & 4095
        value = table.get(key)
        if value is None:
            table[key] = i
        else:
            acc += value & 7
            table[key] = value + 1
    return time.perf_counter() - start


def spawn_probe() -> float:
    """Seconds to start an interpreter that imports asyncio, json, numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], check=True)
    return time.perf_counter() - start


class HostSpeed:
    """Probe marks taken between the timed parts of a run."""

    def __init__(self) -> None:
        self.marks: list[float] = []
        self.spawn_marks: list[float] = []

    def mark(self, spawn: bool = True) -> None:
        """Take a mark; ``spawn=False`` skips the spawn probe where no
        spawn-scaled timing needs it (mark ``i`` then has no spawn time)."""
        self.marks.append(statistics.median(probe() for _ in range(PROBES)))
        if spawn:
            self.spawn_marks.append(
                statistics.median(spawn_probe() for _ in range(SPAWN_PROBES)))

    def factor(self, i: int) -> float:
        """Scale for in-process work between mark ``i`` and ``i + 1``."""
        return REFERENCE_S / ((self.marks[i] + self.marks[i + 1]) / 2.0)

    def spawn_factor(self, i: int) -> float:
        """Scale for spawn-bound work between mark ``i`` and ``i + 1``."""
        return SPAWN_REFERENCE_S / (
            (self.spawn_marks[i] + self.spawn_marks[i + 1]) / 2.0)

    def probe_ms(self) -> float:
        return statistics.median(self.marks) * 1e3

    def spawn_probe_ms(self) -> float:
        return statistics.median(self.spawn_marks) * 1e3
