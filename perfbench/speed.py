"""Reported times at a reference machine speed.

The benchmark's host is a shared virtual machine whose speed for a
single-threaded Python process drifts by up to 2x within minutes, in both
wall and CPU time (another tenant on the same core, not stolen time).  So
that runs taken minutes apart stay comparable, every run times a fixed
pure-Python loop before and after each query and scales the query's time
by NOMINAL_S / (mean of the two loop times).  Of the loops tried (pure
Python, small numpy slices, 30x30 eigh, memory streaming) the pure-Python
one tracked the distgeo workloads best; scaled times varied between runs
about a third as much as raw ones.  Raw figures go to the detail record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LOOP_ITERATIONS = 30_000
# Loop time on the machine the baseline was taken on (2-vCPU Xeon at
# 2.1 GHz, Python 3.11) in its fast state; a fixed constant, so the
# scaled figures of two commits compare like raw ones on a steady machine.
NOMINAL_S = 2.0e-3


def _loop() -> int:
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i * i % 7
    return s


class SpeedProbe:
    """Reference-loop samples taken between queries, outside timed regions."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        _loop()
        self.samples.append(perf_counter() - t0)

    def scaled(self, seconds: float) -> float:
        """Seconds just measured, at reference speed: samples the loop and
        uses the mean of this sample and the one taken before the work."""
        before = self.samples[-1]
        self.sample()
        return seconds * NOMINAL_S / (0.5 * (before + self.samples[-1]))

    def scale(self) -> float:
        """Factor turning this run's seconds into reference seconds."""
        return NOMINAL_S / statistics.median(self.samples)


def at_reference_speed(metrics: dict, scale: float) -> dict:
    """Scale every time-valued metric (units s, ms, us, 1/s)."""
    out = {}
    for name, m in metrics.items():
        value = m["value"]
        if m["unit"] in ("s", "ms", "us"):
            value = value * scale
        elif m["unit"] == "1/s":
            value = value / scale
        out[name] = {"value": value, "unit": m["unit"]}
    return out
