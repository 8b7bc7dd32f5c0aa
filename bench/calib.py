"""A fixed reference computation that gauges the machine's speed right now.

On a shared host the same pass can take half again as long from one minute
to the next, because other tenants contend for the cores and caches.  The
benchmark therefore runs this kernel beside the work it times, in the same
process, and reports each time scaled by ``REF_S / gauge``: seconds at the
speed at which the kernel takes ``REF_S``.  A slowdown of the machine
stretches the work and the gauge alike and cancels; a slowdown of the
program does not touch the gauge and shows in full.

The kernel is the benchmark's own code, never the program's, so a change to
the program cannot move it.  It does the kind of work the program's hot
paths do in pure Python: fraction-free elimination of sparse integer rows
held in dicts, with gcd normalisation, and Fraction arithmetic.
"""

from __future__ import annotations

import gc
import math
import random
import time
from fractions import Fraction

# Nominal kernel time, in seconds; any fixed value serves, since both
# commits of a comparison are scaled by the same constant.
REF_S = 0.01

_ROWS = 50
_COLS = 56


def _rows() -> list[dict[int, int]]:
    rng = random.Random(20010528)
    return [
        {c: rng.choice((-3, -2, -1, 1, 2, 3)) * rng.randint(1, 9)
         for c in rng.sample(range(_COLS), 6)}
        for _ in range(_ROWS)
    ]


def kernel() -> Fraction:
    """Row-reduce a fixed sparse integer system; return a checksum."""
    pivots: dict[int, dict[int, int]] = {}
    for row in _rows():
        for col in sorted(pivots):
            if col in row:
                piv = pivots[col]
                a, b = piv[col], row[col]
                row = {k: a * row.get(k, 0) - b * piv.get(k, 0) for k in row.keys() | piv.keys()}
                row = {k: v for k, v in row.items() if v}
        if not row:
            continue
        g = 0
        for v in row.values():
            g = math.gcd(g, v)
        pivots[min(row)] = {k: v // g for k, v in row.items()}
    total = Fraction(0)
    for col, row in pivots.items():
        lead = row[col]
        for k, v in row.items():
            total += Fraction(v, lead) / (k + 1)
    return total


def gauge() -> float:
    """Wall time of one run of the kernel, in seconds.  The cyclic garbage
    collector is held off meanwhile, so that the size of the program's heap
    cannot slow the gauge; the kernel makes no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
