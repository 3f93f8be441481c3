"""The speed probe: sampled windows, short windows and clean removal.

Run with ``python3 -m pytest perfbench/test_speed.py``.
"""

import signal
import time

import pytest

import speed


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        speed.kernel()


def test_window_scales_wall_time_by_the_kernel_mean():
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        busy(0.6)
        t1 = time.perf_counter()
    w = probe.window(t0, t1)
    assert w["samples"] >= speed.MIN_SAMPLES
    assert 0.0 < w["probe_s"] < 0.2 * (t1 - t0)
    expected = (t1 - t0 - w["probe_s"]) * speed.REFERENCE_KERNEL_S / w["kernel_s"]
    assert w["scaled_s"] == pytest.approx(expected)


def test_short_window_takes_the_nearest_samples():
    with speed.SpeedProbe() as probe:
        busy(0.5)
        t0 = time.perf_counter()
    w = probe.window(t0, t0 + 1e-3)
    assert w["samples"] == speed.MIN_SAMPLES
    assert w["kernel_s"] > 0.0


def test_exit_stops_the_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe():
        assert signal.getitimer(signal.ITIMER_REAL)[1] == speed.INTERVAL_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before
