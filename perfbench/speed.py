"""Machine-speed calibration for a shared machine whose speed swings by phases.

On a shared 2-core virtual machine, a fixed piece of pure-Python work
took anywhere from its fastest time to twice that, in phases lasting
seconds to minutes, with wall and CPU time alike (a noisy neighbour on the
same cores, not descheduling).  Raw timings of the same
code then spread by about 30% between runs, which no amount of repetition
inside one run removes.

So the benchmark runs a small fixed kernel (the same kind of work as
rankrel's: Fraction comparisons, tuple rows, dict grouping, a keyed sort)
between requests, and scales each request's time by how slow the kernel
ran around it: ``time * REFERENCE_MS / local kernel time``, where the local
kernel time is the median of the few samples nearest to the request.
Reported times are therefore "milliseconds at reference speed": the time
the request would take in a phase where the kernel takes REFERENCE_MS.
The kernel never calls rankrel, so any change to rankrel moves the scaled
times exactly as it moves the raw ones.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter, process_time

#: Kernel time, in ms, that scaled times are expressed at.
REFERENCE_MS = 2.0
#: Samples on each side of a request that its local kernel time uses.
WINDOW = 3


def kernel() -> int:
    rng = random.Random(7)
    rows = [(Fraction(rng.randint(1, 1000), 1000), rng.randint(0, 9999), f"r{i}")
            for i in range(200)]
    groups: dict[int, list] = {}
    for row in rows:
        groups.setdefault(row[1] % 53, []).append(row)
    rows.sort(key=lambda r: (-r[0], r[1]))
    best: dict[int, Fraction] = {}
    for score, key, _ in rows:
        if key % 7 not in best or score > best[key % 7]:
            best[key % 7] = score
    return len(groups) + len(best)


class Speed:
    """Kernel samples interleaved with timed work, in order."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        wall, cpu = perf_counter(), process_time()
        kernel()
        self.cpu.append(process_time() - cpu)
        self.wall.append(perf_counter() - wall)

    def measure(self, work):
        """Take a kernel sample, then run ``work``; returns (result, wall s, CPU s)."""
        self.sample()
        wall, cpu = perf_counter(), process_time()
        result = work()
        return result, perf_counter() - wall, process_time() - cpu

    def scale_all(self, raw: list[tuple[float, float]]) -> list[tuple[float, float]]:
        """Scale the (wall, CPU) seconds of each measured piece of work, in order.

        Piece ``i`` ran right after sample ``i``; its local kernel time is the
        median of the WINDOW samples on each side of it.
        """
        reference = REFERENCE_MS / 1e3
        scaled = []
        for index, (wall, cpu) in enumerate(raw):
            low, high = max(0, index - WINDOW + 1), index + WINDOW + 1
            local_wall = statistics.median(self.wall[low:high])
            local_cpu = statistics.median(self.cpu[low:high])
            scaled.append((wall * reference / local_wall, cpu * reference / local_cpu))
        return scaled
