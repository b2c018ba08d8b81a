"""Drift correction: a fixed pure-Python reference loop timed around every
job.

The host this benchmark was tuned on changes speed by tens of percent
between runs, and process CPU time follows wall time, so the change is in
the machine, not in scheduling.  A job's time is scaled by
NOMINAL_REF_S / (mean of the reference timings just before and just after
it): every reported time reads as if the reference loop had taken exactly
its nominal time.  The loop touches nothing in ``wordlogic``.
"""

import gc
import time

#: nominal duration of one reference timing, in seconds: about what
#: ``reference()`` takes on the tuning host when nothing else slows it (see
#: README); scaled times read as seconds at that speed
NOMINAL_REF_S = 0.005

_CHUNKS = 3
_ITERATIONS = 3400


def _chunk():
    # tuples, frozensets and a dict keyed by tuples, the kind of work the
    # library does: a slowdown of the host that hurts such code less than
    # plain arithmetic (a busy sibling hyperthread does) is then tracked
    # instead of over-corrected.  The collector is paused while it runs, so
    # the size of the heap the jobs leave behind does not enter its time.
    table = {}
    acc = 0
    for i in range(_ITERATIONS):
        key = (i, i & 7, acc)
        cell = frozenset((i & 15, i & 31, acc & 3))
        table[key] = cell
        if (i & 7, i) in table:
            acc += 1
        acc = (acc + len(cell)) & 0xFF
    return acc


def reference():
    """One reference timing in seconds: the loop runs in three equal
    chunks and the median chunk, times three, is returned, so that one
    interruption does not move it.  The collector is paused meanwhile."""
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_CHUNKS):
            t0 = time.perf_counter()
            _chunk()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    times.sort()
    return times[_CHUNKS // 2] * _CHUNKS


def scale(raw_s, ref_before, ref_after):
    """Raw seconds -> scaled seconds."""
    return raw_s * NOMINAL_REF_S / ((ref_before + ref_after) / 2)
