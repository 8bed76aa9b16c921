"""Host speed, measured beside the program's operations.

The shared host this benchmark runs on changes speed by up to a factor of two
within minutes, with the load of other tenants, both inside a run and between
runs, and that drift swamps the program's own differences.
So a fixed unit of work, the benchmark's own numpy sweep with no ntcentral
code in it, is timed right after every timed operation of the program, and
``Probe.scaled`` turns the operation's seconds into seconds at a fixed
reference speed:

    scaled = seconds * REFERENCE_UNIT_S / (mean unit time just before and after)

A program change that makes an operation take twice as long makes its scaled
time twice as long; a host that runs everything twice as slowly does not.
The unit is a Nessyahu-Tadmor sweep for Burgers' equation over the grid size
the workload's operations mostly work on (160 cells: many small numpy calls;
20480 cells: array-bound), then one FFT band correlation over 20480 cells.
"""

from __future__ import annotations

import time

import numpy as np

# Nessyahu-Tadmor steps per unit, by the grid size of the sweep: a workload
# probes with the grid size its operations mostly work on, because small and
# large arrays follow the host's drift differently.
SWEEP_STEPS = {160: 12, 20480: 2}
# A fixed scale per sweep size, within the unit times seen on the machine of
# the README's reference figures (160 cells: 1.6 to 3.1 ms, 20480 cells: 2.0
# to 4.9 ms).  Changing it rescales every scaled time, so it stays fixed.
REFERENCE_UNIT_S = {160: 0.0022, 20480: 0.0033}
MIN_PROBE_S = 0.02  # each probe runs whole units for at least this long
PROBE_SHARE = 0.25  # and for this share of the operation it follows

_WIDE = np.sin(np.linspace(0.0, 40.0 * np.pi, 20480)) + 1.5
_BAND = np.fft.rfft(np.exp(-np.linspace(-3.0, 3.0, 257) ** 2), 20480)


def _minmod(a, b):
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def _nt_step(u, lam):
    """One staggered Nessyahu-Tadmor step for Burgers' equation, periodic."""
    du = _minmod(u - np.roll(u, 1), np.roll(u, -1) - u)
    f = 0.5 * u * u
    df = _minmod(f - np.roll(f, 1), np.roll(f, -1) - f)
    half = u - 0.5 * lam * df
    fh = 0.5 * half * half
    return 0.5 * (u + np.roll(u, -1)) + 0.125 * (du - np.roll(du, -1)) - lam * (np.roll(fh, -1) - fh)


def make_unit(cells: int):
    """One unit of work: NT steps over ``cells`` cells, then one FFT band correlation."""
    steps = SWEEP_STEPS[cells]
    x = np.linspace(-1.0, 1.0, cells, endpoint=False)
    u0 = 0.5 + 0.4 * np.sin(np.pi * x)

    def unit() -> float:
        u = u0
        for _ in range(steps):
            u = _nt_step(u, 0.4)
        wide = np.fft.irfft(np.fft.rfft(_WIDE) * _BAND, _WIDE.size)
        return float(u[0] + wide[0])  # a result, so that none of the work is skipped

    return unit


def unit_seconds(unit, min_seconds: float) -> float:
    """Mean time of ``unit`` over whole calls run for at least ``min_seconds``."""
    units = 0
    start = time.perf_counter()
    while True:
        unit()
        units += 1
        elapsed = time.perf_counter() - start
        if units >= 2 and elapsed >= min_seconds:
            return elapsed / units


class Probe:
    """Unit times measured between the operations of one process."""

    def __init__(self, cells: int, min_seconds: float = MIN_PROBE_S):
        self.unit = make_unit(cells)
        self.reference = REFERENCE_UNIT_S[cells]
        self.last = unit_seconds(self.unit, min_seconds)

    def scaled(self, seconds: float) -> float:
        """``seconds`` of the operation that just ended, at the reference speed."""
        before = self.last
        self.last = unit_seconds(self.unit, max(MIN_PROBE_S, PROBE_SHARE * seconds))
        return seconds * self.reference / (0.5 * (before + self.last))
