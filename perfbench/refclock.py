"""Wall time rescaled to a fixed interpreter speed.

On a shared host the speed of one core drifts by half or more within a
minute, as other tenants load the machine, and a run's wall time follows it.
The package's own code slows in step with a plain Python loop: over 90 s of
alternating calls on a 2-vCPU VM, the medians of 7 s blocks of
``hrv.extract_window_features`` varied by 28% (interquartile range over
median), those of the loop by about as much, and their ratio by 2%. So the
clock below runs a short Python loop (a probe) every ``INTERVAL_S`` seconds
from a SIGALRM handler, and at the start and end of every timed part. An
interval between two probes counts as ``NOMINAL_PROBE_S / probe time``
reference seconds per wall second, with the probe time the mean of the two
probes around it. Probe time itself counts for nothing, on either clock.

The rescaled times answer "how long would this take at the reference
speed"; a slower program still takes more reference seconds, whatever the
machine does meanwhile.
"""

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.2
LOOP_ITERATIONS = 7000
# one probe (the fastest of three loops) on an Intel Xeon 2.1 GHz vCPU when
# that host was lightly loaded; it only scales the unit, never a comparison
NOMINAL_PROBE_S = 4.0e-4


def _loop() -> float:
    s = 0.0
    for i in range(LOOP_ITERATIONS):
        s += i * 0.5
    return s


class ReferenceClock:
    """Probes while running; afterwards converts perf_counter spans."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self.probes: list = []
        self._previous_handler = None
        self._knots = None
        self._probing = False

    def probe(self) -> None:
        if self._probing:  # an alarm during a synchronous probe
            return
        self._probing = True
        clock = time.perf_counter
        start = clock()
        best = math.inf
        for _ in range(3):
            t0 = clock()
            _loop()
            best = min(best, clock() - t0)
        self.starts.append(start)
        self.probes.append(best)
        self.ends.append(clock())
        self._probing = False

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.probe()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.probe()
        self._build()

    def _build(self) -> None:
        """Both clocks as piecewise-linear functions of perf_counter time."""
        starts, ends, probes = (np.asarray(v, dtype=float) for v in (self.starts, self.ends, self.probes))
        times = np.empty(2 * starts.size)
        times[0::2] = starts
        times[1::2] = ends
        gaps = starts[1:] - ends[:-1]
        raw = np.zeros_like(times)
        ref = np.zeros_like(times)
        # probes are flat; the gap after probe k rises on both clocks
        raw[2::2] = np.cumsum(gaps)
        ref[2::2] = np.cumsum(gaps * NOMINAL_PROBE_S / (0.5 * (probes[1:] + probes[:-1])))
        raw[1::2] = raw[0::2]
        ref[1::2] = ref[0::2]
        self._knots = (times, raw, ref, NOMINAL_PROBE_S / probes[0], NOMINAL_PROBE_S / probes[-1])

    def _at(self, t, which: int):
        times, raw, ref, first_rate, last_rate = self._knots
        values = (raw, ref)[which]
        before, after = (1.0, 1.0) if which == 0 else (first_rate, last_rate)
        t = np.asarray(t, dtype=float)
        out = np.interp(t, times, values)
        out = np.where(t < times[0], values[0] - (times[0] - t) * before, out)
        return np.where(t > times[-1], values[-1] + (t - times[-1]) * after, out)

    def raw(self, t0, t1):
        """Wall seconds between perf_counter times, probes left out."""
        return self._at(t1, 0) - self._at(t0, 0)

    def ref(self, t0, t1):
        """Reference seconds between perf_counter times."""
        return self._at(t1, 1) - self._at(t0, 1)

    def slowdown(self) -> float:
        """Median probe over the nominal one: how slow the host ran."""
        return float(np.median(self.probes)) / NOMINAL_PROBE_S
