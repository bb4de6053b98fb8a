"""A fixed reference loop that tracks how fast the host runs right now.

The benchmark's host is shared: its speed swings by up to 1.6x, over
periods from under a second to tens of seconds, with the load of
neighbouring machines.  Every timed pass is bracketed by two runs of
:func:`calibrate` — a miniature event loop (a timer heap driving
generator processes, the same kind of interpreter work the simulator
does) that never changes with the program under test.  A pass's time
is reported scaled to a host that runs this loop in
:data:`REFERENCE_S`::

    reported = measured * REFERENCE_S / mean(calibration before, after)

In five runs of one seed of ``cell-scatter`` on a shared 2-vCPU host,
the unscaled median throughput spanned 26% and the scaled one 11%.
"""

from __future__ import annotations

import heapq
import time

#: Calibration loop time of the reference host (seconds).
REFERENCE_S = 0.030

_PROCESSES = 40
_EVENTS = 30000


def _process(index: int):
    total = 0
    while True:
        total += yield (index % 7) * 0.001 + 0.0005


def _loop() -> int:
    heap = []
    processes = [_process(i) for i in range(_PROCESSES)]
    for seq, process in enumerate(processes):
        next(process)
        heapq.heappush(heap, (0.0, seq, process))
    seq = len(processes)
    recent = {}
    for _ in range(_EVENTS):
        when, _, process = heapq.heappop(heap)
        delay = process.send(1)
        seq += 1
        recent[seq % 101] = (when, delay)
        heapq.heappush(heap, (when + delay, seq, process))
    return len(recent)


def calibrate() -> float:
    """Wall time of one run of the reference loop (seconds)."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start
