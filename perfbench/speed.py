"""Machine-speed probe: times a fixed reference kernel at regular instants
during a timed region, so that study wall times can be put in reference
seconds.

On a shared host the CPU a process gets can run at very different speeds from
one second to the next (a fixed Gibbs cell took 0.037 s to 0.095 s within one
minute on a 2-core VM), and a study pass of a few seconds lands on whatever mix
of fast and slow phases the host gives it.  The probe runs the reference kernel
from a SIGALRM handler every ``PROBE_INTERVAL_S`` seconds, in the benchmark's
own thread, and records how long each run took.  Its own time is taken out of
the region's wall time, and what is left is scaled by the mean probe speed:

    ref_s = (wall - probe time) * mean(REF_KERNEL_S / probe duration)

A reference second is a second on a machine that runs the reference kernel
in ``REF_KERNEL_S``.  The kernel uses only Python and numpy, never bbayes, so
a change to bbayes moves ``ref_s`` and not the yardstick.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

REF_KERNEL_S = 0.005  # nominal duration of one reference kernel run
PROBE_INTERVAL_S = 0.1

_REF_X = np.linspace(-1.0, 1.0, 512)
_REF_Y = np.linspace(-3.0, 3.0, 8192)
_REF_A = np.linspace(-1.0, 1.0, 256 * 128).reshape(256, 128)


def reference_kernel() -> float:
    """Fixed work of about 5 ms, half of it in each of two kinds.

    Interpreter-bound: a loop of small numpy calls, like the Gibbs kernels.
    Array-bound: transcendental functions over arrays and a matrix product,
    like subset simulation.  A host's slow phases slow the two kinds by
    different factors, and a workload's time is some mix of both.
    """
    s = 0.0
    for i in range(1000):
        k = i % 448
        s += float(np.minimum(_REF_X[k : k + 64], 0.25 * (i % 4)).sum())
    for _ in range(40):
        s += float(np.tanh(np.exp(-_REF_Y * _REF_Y) + _REF_Y).sum())
    return s + float((_REF_A @ _REF_A.T).sum())


class SpeedProbe:
    """Context manager sampling the reference kernel during a timed region.

    ``with SpeedProbe() as probe: ...`` runs the kernel once before the
    region, every ``PROBE_INTERVAL_S`` seconds inside it and once after it.
    After the block, ``probe.wall`` is the region's wall time without the
    probe runs inside it, and ``probe.ref_s`` the same time in reference
    seconds.
    """

    def __init__(self):
        self.durations: list[float] = []
        self._inside = 0.0  # probe time spent inside the region
        self.wall = None

    def _run(self) -> float:
        t0 = perf_counter()
        reference_kernel()
        dt = perf_counter() - t0
        self.durations.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        self._inside += self._run()

    def __enter__(self):
        self._run()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = t1 - self._t0 - self._inside
        self._run()
        return False

    @property
    def speed(self) -> float:
        """Mean speed over the probe runs, relative to the nominal kernel time."""
        return float(np.mean([REF_KERNEL_S / d for d in self.durations]))

    @property
    def ref_s(self) -> float:
        return self.wall * self.speed
