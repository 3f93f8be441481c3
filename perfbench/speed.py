"""Machine speed sampled while the program runs, to scale wall times.

On a shared host a vCPU's speed can drift by up to 2x in phases of seconds
to minutes (measured on a 2-vCPU Intel Xeon VM); a pass timed in a slow
phase reads slow for reasons that have nothing to do with the program. The
probe measures that drift where it happens: a real-time interval timer
interrupts the benchmark's main thread every ``INTERVAL_S`` and the signal
handler runs a fixed kernel of the benchmark's own (Python arithmetic and
small numpy calls, the mix that dominates ``hbprog``), timing it in thread
CPU time. Thread CPU time leaves out preemption and waiting for the GIL, so
only the speed the vCPU gives a running thread is measured.

A window's scaled time is its wall time minus the time spent in the
handler, times ``REFERENCE_KERNEL_S`` over the mean kernel time of the
samples taken inside it: the window's time on a machine whose speed is
steady at the reference. The mean, not the median, because a pass's time
is a sum over the window and so takes in the short slow spells a median
would ignore; the garbage collector is held off while the kernel runs, so
a collection the program would have paid anyway does not land in a
sample. The kernel consumes no random numbers and touches
no state of the program, so outputs stay byte-identical.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

INTERVAL_S = 0.05
#: about the kernel's mean thread CPU time on a 2-vCPU Intel Xeon VM
REFERENCE_KERNEL_S = 3.0e-4
MIN_SAMPLES = 5

_X = np.linspace(0.0, 1.0, 40)


def kernel() -> float:
    acc = 0.0
    for i in range(40):
        acc += float(np.log(np.exp(-_X * (1.0 + i * 1e-3)).sum()))
        for k in range(30):
            acc += k * 0.5
    return acc


class SpeedProbe:
    """Installs the sampling timer on enter and removes it on exit."""

    def __init__(self):
        # (wall start, wall seconds in the handler, kernel thread CPU seconds)
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        w0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        c1, w1 = time.thread_time(), time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((w0, w1 - w0, c1 - c0))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> dict:
        """Wall time, handler time, mean kernel time and scaled time of
        ``[t0, t1]`` (``time.perf_counter`` readings). A window too short
        for ``MIN_SAMPLES`` samples takes its speed from the samples
        nearest to it."""
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        speed = inside
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            speed = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        if not speed:
            raise RuntimeError("the speed probe has taken no samples")
        probe_s = sum(s[1] for s in inside)
        kernel_s = sum(s[2] for s in speed) / len(speed)
        return {
            "wall_s": t1 - t0,
            "probe_s": probe_s,
            "kernel_s": kernel_s,
            "samples": len(speed),
            "scaled_s": (t1 - t0 - probe_s) * REFERENCE_KERNEL_S / kernel_s,
        }
