"""A fixed gauge of the host's current speed, for scaling CPU times.

Other guests on a shared host slow this process's own instructions, so its
CPU time for fixed work drifts by tens of percent over minutes.  The gauge
is a fixed piece of pure-Python work in the program's style (exact Fraction
arithmetic, a table of difference vectors, a sliding weighted sum).  It
lives in the benchmark, so no change to the program alters it, and it
imports nothing from the program, so a fresh interpreter can run it before
importing motifkit.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the gauge's CPU time on the test host (see README.md).  It only
# sets the unit: scaled times are CPU seconds as they would read while the
# gauge takes this long.
REF_S = 0.007

_POINTS = [(Fraction(i * 7 % 61, 4), i * 13 % 47) for i in range(40)]
_VALUES = [Fraction(i % 9, 3) for i in range(100)]
_WEIGHTS = [Fraction(k, 35) for k in (-3, 12, 17, 12, -3)]


def _work():
    table = {}
    for a in _POINTS:
        for b in _POINTS:
            table.setdefault((b[0] - a[0], b[1] - a[1]), []).append(a)
    width = len(_WEIGHTS)
    return len(table), [
        sum(c * _VALUES[i + j] for j, c in enumerate(_WEIGHTS))
        for i in range(len(_VALUES) - width + 1)
    ]


def gauge() -> float:
    """CPU seconds of the gauge work now: the median of three runs."""
    times = []
    for _ in range(3):
        start = time.process_time()
        _work()
        times.append(time.process_time() - start)
    return statistics.median(times)


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` of CPU time rescaled to the gauge's reference speed, from
    the gauge taken just before and just after that time was spent."""
    return seconds * REF_S / ((before + after) / 2)
