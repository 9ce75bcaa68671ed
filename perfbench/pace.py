"""The host's speed while a phase is measured.

A shared virtual machine runs the same pure-Python code at speeds that
differ by up to a third, in spells of seconds to minutes, with CPU time
equal to wall time (the vCPU itself runs slower; no time is stolen).
Two runs of one program then differ by as much as a real change would.

So each measured phase also runs a fixed pure-Python calibration slice,
outside its clock, once per ``INTERVAL_S`` of measured time.  The
phase's *host factor* is the mean slice duration over the duration the
slice takes on the reference host; end-to-end timings are divided by it
(rates multiplied), which reports them at the reference host's speed.
The slice does not touch the program, so a change to the program moves
the scaled timings exactly as much as the raw ones.
"""

from __future__ import annotations

from array import array
from time import perf_counter

#: Iterations of one calibration slice (about 1.5 ms on the reference host).
SLICE_ITERATIONS = 20_000

#: Duration of one slice on the reference host: a 2-vCPU VM (Python
#: 3.11) in its faster spells.  It only sets the scale of reported values.
REFERENCE_SLICE_S = 1.5e-3

#: Measured seconds between two slices.
INTERVAL_S = 0.1


def calibration_slice() -> float:
    """Run one slice; returns its wall time in seconds."""
    began = perf_counter()
    total = 0
    for i in range(SLICE_ITERATIONS):
        total += i * i % 7
    return perf_counter() - began


class Pace:
    """Calibration slices taken during one phase."""

    def __init__(self) -> None:
        self.slices = array("d")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.slices.append(calibration_slice())

    def factor(self) -> float:
        """How many times slower than the reference host the phase ran."""
        if not self.slices:
            raise ValueError("no calibration slice was taken")
        return sum(self.slices) / len(self.slices) / REFERENCE_SLICE_S
