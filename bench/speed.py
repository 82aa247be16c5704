"""Put timed passes on a steady scale by sampling the CPU's speed during them.

The machines this benchmark runs on give it virtual CPUs whose speed is not
constant: on a shared 2-vCPU VM a fixed piece of work took either about
2.5 ms or about 4 ms, switching every few seconds, on each vCPU on its own.
A pass's wall time then depends on how much of it fell in the slow state,
and the median pass of one 25-second run differed from another's by 20-30%.

``SpeedSampler`` measures that state while the pass runs: a real-time
interval timer interrupts the pass every ``INTERVAL_S`` seconds, and the
signal handler, which runs on the pass's own thread and so on its CPU, times
a fixed reference kernel of small complex matrix products and Python
arithmetic, the same mix of work as dfsim's.  The samples are spread evenly
over the pass in real time, so the mean of ``REF_KERNEL_S / sample`` is the
share of the pass's time the CPU ran at reference speed.  Multiplying the
pass's own time (its wall time minus the time spent in the kernel) by it
gives the pass's time at reference speed, ``adjusted_s``.

Nothing here depends on dfsim, so the scale is the same for every version of
the program: a change that makes a pass twice as fast halves ``adjusted_s``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between samples; each sample costs about 1.5% of that.
INTERVAL_S = 0.02
#: The reference kernel's time at full speed on the shared 2-vCPU Intel Xeon
#: VM the benchmark was defined on (Python 3.11, NumPy 2.4).  A fixed
#: constant: it sets the unit of ``adjusted_s``, not its stability.
REF_KERNEL_S = 250e-6

_A = np.eye(16, dtype=complex) * 0.5


def reference_kernel() -> int:
    """A fixed piece of work: 30 rounds of 16x16 complex products and int arithmetic."""
    acc = np.zeros((16, 16), dtype=complex)
    total = 0
    for i in range(30):
        acc = _A @ acc @ _A.conj().T + _A
        total += i * 3 % 7
    return total


def speed(samples: list[float]) -> float:
    """Mean CPU speed, as a share of reference speed, over evenly spaced kernel times."""
    return statistics.fmean(REF_KERNEL_S / s for s in samples)


class SpeedSampler:
    """Context manager that samples the CPU's speed while its body runs.

    Uses SIGALRM and ITIMER_REAL, so it must be entered on the main thread
    and nothing else in the process may use them meanwhile.  ``wrap``, if
    given, wraps the sampling handler, to record when each sample ran.
    """

    def __init__(self, wrap=None) -> None:
        self._handler = wrap(self._sample) if wrap else self._sample
        self.samples: list[float] = []
        self.wall_s = 0.0
        self._saved = None
        self._t0 = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> SpeedSampler:
        self.samples.clear()
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        self._t0 = time.perf_counter()
        self._handler()  # at least one sample, however short the body
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._saved)

    @property
    def sampling_s(self) -> float:
        """Time spent in the reference kernel, part of ``wall_s``."""
        return sum(self.samples)

    @property
    def own_s(self) -> float:
        """Wall time of the body alone."""
        return self.wall_s - self.sampling_s

    @property
    def adjusted_s(self) -> float:
        """Wall time of the body at reference CPU speed."""
        return self.own_s * speed(self.samples)
