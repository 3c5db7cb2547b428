"""The machine's pace, read from a fixed reference loop timed before every op.

The benchmark's host changes speed by up to 1.5x for tens of seconds to
minutes at a time, so raw times of two runs a minute apart differ by more
than a code change should be judged by.  Before each op the benchmark times
``reference_loop``, a fixed piece of interpreter work (dict updates, big
ints, string and list building, a sort) that does not touch the library.
The pace at an op is the median time of the loop over the WINDOW loops
timed nearest to it.  Every timing the benchmark reports is scaled to the
reference pace:

    reported = measured * REFERENCE_S / pace

so it reads as the time the op would have taken on a machine where the
loop takes REFERENCE_S, about its median time on the 2-vCPU VM the figures
in README.md come from.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.002
WINDOW = 41             # loops per pace estimate, centred on the op


def reference_loop() -> int:
    table = {}
    total = 0
    for i in range(1500):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + (1 << (i % 96))
        total += len(str(i)) + len([i, key])
    items = sorted(table.items(), key=lambda kv: kv[1] % 1000)
    return total + sum(value for _, value in items) % 997


def time_reference_loop() -> float:
    """Seconds of one reference loop; the collector is off so that a
    collection of the library's heap is not charged to the loop."""
    gc.disable()
    try:
        started = time.perf_counter()
        reference_loop()
        return time.perf_counter() - started
    finally:
        gc.enable()


def scale_factors(loops: list) -> list:
    """For each timed loop, REFERENCE_S over the pace around it."""
    half = WINDOW // 2
    return [REFERENCE_S / statistics.median(loops[max(0, i - half): i + half + 1])
            for i in range(len(loops))]
