"""Host-drift calibration: a fixed reference kernel timed beside the work.

The speed of a shared virtual machine drifts: a pure-Python loop's pass
time swings by tens of percent within a second and the swings follow
the program's own speed (on the design host the two correlate at about
0.9 over one-second windows).  Running a fixed kernel finely interleaved
with the workload, and dividing the work's timings by the kernel's mean
pass time over the same window, cancels most of the drift.

The kernel's loop allocates no object the garbage collector tracks (it
only does integer arithmetic and stores integers into a list built once
at import), so it never triggers or pays for a collection of the
program's objects.

Calibrated values are expressed in *reference seconds*: the time the
work would take on a host where one kernel pass takes
``KERNEL_NOMINAL_S``, the median pass time on the 2-vCPU x86-64 VM the
benchmark was written on.
"""

from __future__ import annotations

import statistics
import time

#: integer-loop iterations per kernel pass (4-6 ms on the design host)
KERNEL_ITERATIONS = 20000
#: median kernel pass time on the design host, in seconds
KERNEL_NOMINAL_S = 0.0042
#: raw seconds of work between two kernel passes (about a tenth of a run)
PASS_INTERVAL_S = 0.03
#: raw seconds of work sharing one calibration factor
BLOCK_S = 0.6

_TABLE = list(range(1 << 14))


def kernel_pass():
    """One pass of the reference kernel: a linear congruential walk that
    reads and writes a 16 K-entry list of small integers."""
    table = _TABLE
    mask = len(table) - 1
    x = 12345
    acc = 0
    for _ in range(KERNEL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x & mask
        acc += table[j]
        table[j] = acc & 0xFFFF
    return acc


class Calibrator:
    """Interleaves kernel passes with the work and calibrates its timings.

    The work calls ``tick()`` between operations; after every
    ``PASS_INTERVAL_S`` of work a kernel pass runs, and after every
    ``BLOCK_S`` the block closes.  Timings taken inside a block are
    handed to ``defer(callback)``; when the block closes each callback
    receives the block's factor, reference seconds per raw second.
    ``passes(n)`` runs passes on demand, for work that must not be
    interrupted (a serving round), and ``close()`` ends the block.
    """

    def __init__(self):
        self.samples = []
        self.seconds = 0.0
        self._block = []
        self._pending = []
        self._block_started = self._last_pass = time.perf_counter()

    def _pass(self):
        started = time.perf_counter()
        kernel_pass()
        ended = time.perf_counter()
        self.samples.append(ended - started)
        self._block.append(ended - started)
        self.seconds += ended - started
        self._last_pass = ended

    def passes(self, count):
        for _ in range(count):
            self._pass()

    def defer(self, callback):
        self._pending.append(callback)

    def tick(self):
        now = time.perf_counter()
        if now - self._last_pass >= PASS_INTERVAL_S:
            self._pass()
            if self._last_pass - self._block_started >= BLOCK_S:
                self.close()

    def close(self, keep=0):
        """End the block: call the pending callbacks with its factor.
        The last ``keep`` passes also open the next block."""
        if not self._block:
            self._pass()
        factor = KERNEL_NOMINAL_S / statistics.fmean(self._block)
        pending, self._pending = self._pending, []
        for callback in pending:
            callback(factor)
        self._block = self._block[len(self._block) - keep:] if keep else []
        self._block_started = time.perf_counter()
        return factor

    def median(self):
        return statistics.median(self.samples) if self.samples else None
