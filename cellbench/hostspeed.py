"""Host-speed probe: scales measured times to a reference host speed.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes, as neighbours come and go; a fixed loop can take twice as long
from one minute to the next.  A pass of a workload lasts one run, so a median
over the run cannot remove that drift.  The probe measures it instead.

``Sampler`` times a fixed pure-Python loop (about 2 ms) every
``INTERVAL_S`` from a ``SIGALRM`` handler, in the main thread, while the
program runs.  The median of those samples over ``PROBE_REF_S`` is the
host's slowdown during the pass, and ``scaled`` divides a measured time by
it.  The probe is the benchmark's own code, so a change to the program does
not move it; it costs about 2% of the pass, the same on every commit.

The loop holds the GIL throughout and is shorter than the interpreter's
switch interval.  So in ``service_resubmit``, where the server computes
cells in another thread of the same process, it still times the host and
not the wait for the GIL.  numpy ops release the GIL, so a probe made of
them would time that wait.
"""

from __future__ import annotations

import signal
import time
from statistics import median
from typing import List

#: Loop iterations of one probe.
PROBE_LOOPS = 20_000
#: Median probe time on an unloaded 2-vCPU Xeon (Sapphire Rapids) KVM guest.
PROBE_REF_S = 2.0e-3
#: Seconds between probes while a pass runs.
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds one fixed loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def burst(count: int = 150) -> float:
    """Median of ``count`` back-to-back probes (about 0.3 s, as long as set-up)."""
    return median(probe() for _ in range(count))


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * PROBE_REF_S / probe_s


class Sampler:
    """Probe every ``INTERVAL_S`` between ``start()`` and ``stop()``.

    ``SIGALRM`` handlers run in the main thread between bytecodes, so a
    sample may land late after a long numpy call, never inside one.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> float:
        """Stop probing; the median sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return median(self.samples)
