"""The host's speed of the moment, from a fixed calibration loop.

The benchmark runs on shared hosts whose other tenants slow pure-Python
code by 10-80 % in spells of seconds to minutes.  A run times a fixed
calibration loop, which calls nothing of ltlwb, between rows, about every
CALIBRATE_EVERY_S seconds.  A row call's time is divided by the host's
slowdown around it: the median of the calibration calls within
WINDOW_S seconds of the call, over REFERENCE_S.  A change to the program
does not change the calibration loop, so it shows in full.
"""

from __future__ import annotations

import bisect
import statistics
import time

CALIBRATE_EVERY_S = 0.1
WINDOW_S = 0.5
# the median time calibrate() took between rows on the 2-core VM the
# bounds were set on: corrected times are wall times on a host that runs
# it this fast, about that VM's usual speed
REFERENCE_S = 0.009


def calibrate():
    """A few ms of the kind of work the program does: hashing frozensets
    and tuples, dict inserts and deletes, small strings, a sort."""
    table = {}
    for i in range(6000):
        key = frozenset((i % 97, i % 89, i % 83, i))
        table[key] = (i, str(i % 50))
        if i % 3 == 0:
            table.pop(frozenset((i % 97, i % 89, i % 83, i - 3)), None)
    return sorted(table.values())[:3]


class Pace:
    """Calibration samples of one run: when each was taken, how long it took."""

    def __init__(self):
        self.at = []
        self.took = []
        self.last = -1e9

    def maybe_sample(self):
        now = time.perf_counter()
        if now - self.last < CALIBRATE_EVERY_S:
            return
        calibrate()
        end = time.perf_counter()
        self.at.append((now + end) / 2)
        self.took.append(end - now)
        self.last = end

    def slowdown(self, at):
        """Host slowdown around time `at`: the median calibration time of
        the samples within WINDOW_S of it (at least the five nearest),
        over REFERENCE_S."""
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        while hi - lo < 5 and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return statistics.median(self.took[lo:hi]) / REFERENCE_S
