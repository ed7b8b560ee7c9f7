"""Host-time measurement: the clock, the machine-speed reference, and peak
memory.

Host time is this process's CPU time.  The program is single-threaded and
does no I/O, so on an idle machine this equals elapsed time; unlike elapsed
time it leaves out the intervals the process waits for a CPU that other
processes hold.

CPU time does not remove the other effect of a shared machine: its speed
moves, for a minute or more at a time, by up to a third (the CPU time of
the same work, set-up included, drops or rises).  So each measured
interval is bracketed by runs of a fixed pure-Python reference kernel, and
the end-to-end times are reported scaled to the kernel's nominal time:

    reported = measured x REFERENCE_S / (mean kernel time around it)

A reported second is thus a second at the speed at which the reference
kernel takes REFERENCE_S.  The unscaled CPU times are printed alongside.
The kernel is part of the benchmark, not of the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import deque

clock = time.process_time

REFERENCE_OPS = 20_000
# CPU time of one kernel run on the machine the bounds in BENCHMARK.json
# were set on (2 vCPUs of an Intel Xeon VM, Python 3.11.7), at its usual
# speed.
REFERENCE_S = 0.040


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Line:
    __slots__ = ("tag", "state", "stamp")

    def __init__(self):
        self.tag = -1
        self.state = 0
        self.stamp = 0


def reference_kernel(n: int = REFERENCE_OPS) -> int:
    """Fixed work shaped like the simulator's inner loops: a 4-way LRU cache
    of slot objects, a directory dict keyed by tuples, a message deque."""
    sets = [[_Line() for _ in range(4)] for _ in range(64)]
    directory = {}
    queue = deque()
    x = 12345
    hits = 0
    for t in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        blk = x >> 20
        lines = sets[blk & 63]
        tag = blk >> 6
        for line in lines:
            if line.tag == tag:
                hits += 1
                line.stamp = t
                break
        else:
            victim = min(lines, key=lambda v: v.stamp)
            directory.pop((victim.tag, blk & 63), None)
            victim.tag, victim.state, victim.stamp = tag, 1, t
            directory[(tag, blk & 63)] = t
            queue.append((blk, t))
        if len(queue) > 8:
            queue.popleft()
    return hits


def reference_s() -> float:
    t0 = clock()
    reference_kernel()
    return clock() - t0


class Speed:
    """Reference-kernel samples taken between measured intervals."""

    def __init__(self):
        self.samples = [reference_s()]

    def factor(self) -> float:
        """Scale factor for the interval that ended just now, from the
        kernel runs just before and just after it."""
        before = self.samples[-1]
        self.samples.append(reference_s())
        return 2 * REFERENCE_S / (before + self.samples[-1])

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
