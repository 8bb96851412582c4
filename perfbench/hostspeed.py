"""Host speed, from fixed reference work.

The host is shared, and the same work takes up to twice as long
from one minute to the next.  So every timed op is paired with a run of
fixed reference work measured just before it, and its time is reported
scaled to the host speed at which the reference takes its nominal time.
Work inside a process is paired with ``reference_s``, the benchmark's own
exact ``Fraction`` elimination on fixed 4x4 matrices (nominal ``REF_S``).
Work that is mostly a process start (a CLI call, a set-up sample) is paired
with the start of a bare interpreter (nominal ``START_REF_S``; run.py times
it).  Neither calls hypertoric, so no change to the library can move them.
"""

from __future__ import annotations

from time import perf_counter

from inputs import det

REF_S = 0.010
START_REF_S = 0.015
_MATRICES = [[[(i * 7 + j * 3 + k * 5) % 13 - 6 for k in range(4)] for j in range(4)] for i in range(60)]


def reference_s() -> float:
    """Seconds the reference loop takes now."""
    start = perf_counter()
    for m in _MATRICES:
        det(m)
    return perf_counter() - start


def scaled(seconds: float, ref_s: float, nominal: float = REF_S) -> float:
    """``seconds`` measured when the reference took ``ref_s``, at the host
    speed where it takes ``nominal``."""
    return seconds * nominal / ref_s
