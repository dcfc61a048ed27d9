"""Machine-speed calibration: a fixed loop of plain Python, timed between ops.

On a shared virtual machine the speed of the whole machine changes from one
second to the next, by up to a factor of 2, and every timing moves with
it. ``run.py``
times this loop just before an op (at most ``EVERY_S`` apart) and scales the
op's time by ``REF_S / loop time``. A scaled time reads as it would on a
machine where the loop takes ``REF_S``. The loop does not touch semideal, so
a change to the program moves the scaled times in full.

The loop mixes the work semideal does: calls, small integers, tuples,
lists, dicts, strings, a sort, 640-bit arithmetic and shifts of a
20000-bit integer, each about half of the loop's time. The garbage
collector is held off while it runs, so its time does not depend on the
program's heap.
"""

from __future__ import annotations

import gc
import time

REF_S = 0.0015  # about the loop's median time on the machine the benchmark was written on
EVERY_S = 0.02  # an op is scaled by a loop timed at most this long before it
ROUNDS = 1000


def _mix(a, b):
    return (a * 31 + b) & 0xFFFF


def loop(rounds=ROUNDS):
    acc = 0
    d = {}
    x = 3**300
    for i in range(rounds):
        t = (i, i * i, i ^ 0x5A5A)
        d[t[2] & 63] = [t, str(i)]
        acc += _mix(t[0], t[1])
        x = (x * 1000003 + i) % (1 << 640)
    # Shifts and ors of a 20000-bit integer, as the n0 kernel does on its
    # bitsets. Light n0 queries follow the machine's speed much better with
    # this part in the loop.
    bits = (1 << 20000) - 12345
    for i in range(rounds // 3):
        acc ^= (bits | bits >> (i % 61 + 1)).bit_length()
    return acc + len(sorted(d)) + (x & 1)


def time_loop():
    """Seconds one run of the loop takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
