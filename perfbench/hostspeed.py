"""A fixed reference workload that measures the host's current speed.

On a shared host the same Python code can run 1.6x slower for tens of
seconds at a time.  Every time the benchmark reports is therefore
*normalised*: multiplied by ``NOMINAL_SECONDS / r``, where ``r`` is the
CPU time this process needs for the reference workload at about the
same moment (the median of the samples taken around it).  The reference
is independent of the program under test: it builds sets of one-element
tuples from a fixed list, with the garbage collector paused, which loads
the CPU and memory the way the program's pure-Python scans do.  A faster program lowers normalised times just as
it lowers raw ones; a slower host does not raise them.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from typing import List

#: Reference CPU time that normalised times are expressed at.
NOMINAL_SECONDS = 0.008

#: The reference's input: fixed, shared by every sampler.
_DATA = tuple((i, i % 977, (i * 7) % 1013) for i in range(30_000))


class Reference:
    """Samples the reference workload and keeps the samples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.samples: List[float] = []

    def sample(self) -> float:
        """CPU seconds of one pass of the reference workload."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            cpu = time.thread_time()
            for column in range(3):
                {(row[column],) for row in _DATA}
            cpu = time.thread_time() - cpu
        finally:
            if enabled:
                gc.enable()
        with self._lock:
            self.samples.append(cpu)
        return cpu

    @staticmethod
    def factor(samples: List[float]) -> float:
        """Normalising factor for work done amid ``samples``: an
        operation between samples ``i`` and ``i + 1`` uses samples
        ``i - 2`` to ``i + 3``, whose median damps one sample's noise."""
        return NOMINAL_SECONDS / statistics.median(samples)
