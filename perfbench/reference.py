"""A fixed reference task that measures how fast the machine is right now.

The benchmark runs on shared virtual machines whose speed drifts by +-25 %
over a few seconds: a fixed pure-Python loop takes 13 ms in one stretch and
22 ms in the next, in CPU time as well as in wall time.  Raw wall times of
the library therefore spread between runs far more than any code change the
benchmark should detect.  The reference task is timed between every two
timed operations, and each operation's time is scaled by
``REFERENCE_S / (reference time around it)``: the time the operation would
take on a machine that runs the reference task in exactly ``REFERENCE_S``.

The task uses only the standard library and numpy, never the library under
test, so no change to the library can change it.  It mixes the kinds of work
the workloads do: CSV parsing into floats in pure Python, many small numpy
calls, and one large numpy sort.
"""

from __future__ import annotations

import csv
import io
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010  # nominal reference time that scaled metrics assume

_rng = np.random.default_rng(20250904)
_TEXT = "".join("%.17g,%.17g\n" % (a, b) for a, b in _rng.random((3000, 2)).tolist())
_LARGE = _rng.random(40_000)
_SMALL = _rng.random(64)


def _task() -> float:
    rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(_TEXT))]
    acc = float(len(rows))
    for _ in range(300):
        acc += float(np.dot(_SMALL, _SMALL)) + float(_SMALL.sum())
    return acc + float(np.sort(_LARGE)[0])


def reference_s() -> float:
    """Wall time of one run of the reference task, in seconds."""
    start = perf_counter()
    _task()
    return perf_counter() - start


def warm_up() -> None:
    for _ in range(3):
        _task()


def scale(seconds: float, ref_s: float) -> float:
    """`seconds` measured while the reference task took `ref_s`, at nominal speed."""
    return seconds * REFERENCE_S / ref_s
