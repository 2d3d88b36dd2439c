"""Scale timings to the machine's uncontended speed.

On a shared machine the speed of a core changes from one fraction of a
second to the next as neighbours come and go: a fixed kernel here ran 1.8x
slower at times, and whole passes drifted by 30% between runs.  While a
measurement runs, a SIGALRM every INTERVAL seconds runs a short fixed probe,
40 FFT pairs at n=2048 with no svealab code, and times it.  A region's time
without the probes that fired inside it, times the probe's uncontended
duration over its mean duration around the region, is the time the region
would have taken on an uncontended core.  "Around" is the region itself,
widened on both sides to at least MIN_SPAN seconds so that short regions
still average over enough probes.  A change to svealab moves the region's
time and leaves the probe alone, so it shows in full.

The signal handler runs between bytecodes of the main thread, never inside
a C call, so it needs no lock.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.05
MIN_SPAN = 3.0
# Uncontended probe duration: about the 5th percentile of 3000 runs on the
# machine the baseline was recorded on (see README.md).
REFERENCE_S = 1.6e-3


def make_probe():
    """Probe of 40 length-2048 complex FFT pairs, the solver's core work."""
    import numpy as np
    from scipy import fft

    v = np.exp(1j * np.linspace(0.0, 50.0, 2048))

    def probe() -> None:
        for _ in range(40):
            fft.ifft(fft.fft(v))

    return probe


class Speedometer:
    """Context manager that samples core speed while its block runs."""

    def __init__(self):
        self.probe = make_probe()
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_seconds(self, start: float, end: float) -> float:
        """Time spent in probes that began between start and end."""
        return sum(d for s, d in self.samples if start <= s < end)

    def factor(self, start: float, end: float) -> float:
        """Uncontended over observed probe speed around start..end."""
        pad = max(0.0, (MIN_SPAN - (end - start)) / 2.0)
        near = [d for s, d in self.samples if start - pad <= s < end + pad]
        if not near:
            return 1.0
        return REFERENCE_S * len(near) / sum(near)
