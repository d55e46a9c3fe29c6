"""Host-speed probe shared by the benchmark's processes.

The host this benchmark runs on is shared: the same pure-Python loop can
take 50% longer from one second to the next.  Every timed region is
therefore bracketed, and sampled while it runs, by a fixed integer DP, and
its time is scaled by ``PROBE_REFERENCE_S / mean probe time``.  This module
imports nothing that quasicover imports, so loading it in a fresh
interpreter does not shorten the import being timed there.
"""

import signal
import time

#: Median probe time (seconds) on the reference host: 2 vCPU Intel Xeon,
#: CPython 3.11.7.  Scaled latencies read as seconds at that host speed.
PROBE_REFERENCE_S = 0.00040
#: Wall-clock period of the probe taken while a request runs.
PROBE_INTERVAL_S = 0.05

_A = [(i * 7919 + 13) % 5 for i in range(40)]
_B = [(i * 104729 + 7) % 5 for i in range(40)]


def probe_once() -> float:
    """A fixed integer edit-distance DP; returns its duration in seconds."""
    start = time.perf_counter()
    prev = list(range(len(_B) + 1))
    for i, x in enumerate(_A, 1):
        cur = [i] + [0] * len(_B)
        for j, y in enumerate(_B, 1):
            cur[j] = min(prev[j - 1] + (x != y), cur[j - 1] + 1, prev[j] + 1)
        prev = cur
    return time.perf_counter() - start


class HostProbe:
    """Host speed over one timed region.

    Before and after the region the probe runs five times (median kept);
    inside it a wall-clock interval timer runs it every
    ``PROBE_INTERVAL_S``, so speed changes during a long request are seen
    too.  ``marks`` holds (start, duration) of the probes taken inside;
    callers subtract their time from whatever they measured.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self.edges: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.marks.append((start, probe_once()))

    def __enter__(self) -> "HostProbe":
        self.edges.append(sorted(probe_once() for _ in range(5))[2])
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.edges.append(sorted(probe_once() for _ in range(5))[2])

    @property
    def inside_s(self) -> float:
        return sum(d for _, d in self.marks)

    @property
    def speed_s(self) -> float:
        """Mean probe time over the region, edges included."""
        samples = [d for _, d in self.marks] + self.edges
        return sum(samples) / len(samples)
