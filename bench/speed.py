"""Scaling wall times to a fixed machine speed.

On a shared host the speed of this process changes while it runs: with
other work on the host the same scenario can take 1.5 to 2 times as long,
for seconds or minutes at a time, and CPU time tracks wall time, so neither
tells the program's cost apart from the host's load. The benchmark
therefore times a small fixed probe many times *inside* each timed stretch
and divides the stretch by the probe's mean time there:

    scaled_s = (wall_s - probe time) * NOMINAL_S / mean(probe samples)

``scaled_s`` reads as seconds on a machine where the probe takes
NOMINAL_S, which is about its time on an unloaded 2-vCPU Xeon VM.

The probe is a chain of 40 elementwise numpy operations on 16-element
complex arrays, so its time is numpy's per-call overhead: the kind of work
flexsic's per-subcarrier Python loops spend most of their time in. It was
chosen among several probes (pure-Python arithmetic, cache-cold list reads,
page-faulting allocation, small linalg solves, dict building) by timing
each inside fixed scenarios of all three workloads while the host's speed
swung over a range of about 1.8x: its time tracked the scenario time with
a log-log slope of 0.8 to 1.0 and a correlation of 0.91 to 0.97, where
pure-Python arithmetic slowed far less than flexsic (slope 1.5) and the
memory probes followed other tenants' cache use rather than flexsic's
speed. A future flexsic whose time moves to other kinds of work would be
corrected less exactly in slow phases; at the nominal speed the scaled time
is the net wall time whatever the program does.

A SIGALRM timer fires every INTERVAL_S; the handler runs the probe between
two bytecodes of the main thread (inside a long numpy call it waits for the
call to return). The probe's own time, under 1% of the stretch, is taken
off the stretch.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 45e-6
INTERVAL_S = 0.01

_rng = np.random.default_rng(20250303)
_X = _rng.standard_normal(16) + 1j * _rng.standard_normal(16)
_TURN = np.exp(2j * np.pi * _rng.random(16))
_clock = time.perf_counter


def probe() -> float:
    """Seconds taken by one run of the fixed probe work."""
    start = _clock()
    x = _X
    for _ in range(40):
        x = x * _TURN + _X
    return _clock() - start


class Window:
    """One timed stretch and the probe samples taken inside it."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.probe_s = 0.0

    @property
    def net_s(self) -> float:
        """Wall time less the probes that ran inside the stretch."""
        return self.wall_s - self.probe_s

    def scale(self, seconds: float) -> float:
        """``seconds`` at the machine speed the probe saw in this stretch, scaled to NOMINAL_S."""
        return seconds * NOMINAL_S / statistics.fmean(self.samples)

    @property
    def scaled_s(self) -> float:
        return self.scale(self.net_s)


@contextlib.contextmanager
def window():
    """Time the body, sampling the probe every INTERVAL_S while it runs.

    A body shorter than the interval gets one probe sample right after it.
    """
    stretch = Window()

    def on_alarm(signum, frame):
        stretch.samples.append(probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = _clock()
    try:
        yield stretch
    finally:
        stretch.wall_s = _clock() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        stretch.probe_s = sum(stretch.samples)
    if not stretch.samples:
        stretch.samples.append(probe())
