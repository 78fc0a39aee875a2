"""Host-speed calibration: a fixed kernel timed next to the program.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time, in CPU time as well as wall time (neighbours share
caches and cores), so raw timings of two runs of the same code can
differ by more than any useful regression bound.  The benchmark
therefore samples the speed of this kernel while it measures, and
reports every timing scaled by ``NOMINAL_S / mean kernel time``: the
time the work would take on a host where the kernel takes ``NOMINAL_S``.

The kernel does the kinds of work latreg does: CSV cells parsed with
``float``, ``math.fsum`` over numpy float products and over a
generator, and small numpy allocations.  Its arrays are a few MB, larger
than a core's L2, as a request's are.  It runs in a process of its own
that never imports latreg: the kernel's speed depends on the state of
the heap it allocates from, so a kernel run in the benchmark process
(large after generating inputs) or in a process that ran the program
would measure that history, not the host.

    python3 bench/calib.py

answers each stdin line, a kernel run count, with the median time of
that many runs.  This module imports only the standard library, so the
launcher, which must stay small, can use :class:`Calibrator` too.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: The kernel's median time on the host the benchmark was written on
#: (2 vCPUs of an Intel Xeon, 105 MiB L3, Python 3.11, numpy 2.4).
NOMINAL_S = 0.018
#: Kernel runs per sample.
SAMPLE_RUNS = 2


class Calibrator:
    """The calibration process, started once, idle between samples."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)

    def sample(self, count: int) -> float:
        """Median time of ``count`` kernel runs, in seconds."""
        self.process.stdin.write(f"{count}\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def scale(samples: list[float]) -> float:
    """Factor that turns a raw time, measured while ``samples`` were
    taken, into a host-normalised one."""
    return NOMINAL_S / statistics.fmean(samples)


def main() -> None:
    import csv
    import io
    import math

    import numpy as np

    rng = np.random.default_rng(12345)
    text = "".join(f"{a!r},{b!r},{c!r}\n"
                   for a, b, c in rng.standard_normal((3000, 3)).tolist())
    a, b = rng.standard_normal((2, 100000))

    def kernel() -> float:
        cols: list[list[float]] = [[], [], []]
        for row in csv.reader(io.StringIO(text)):
            for col, cell in zip(cols, row):
                col.append(float(cell))
        x = np.array(cols[0])
        total = math.fsum(a * b) + math.fsum(r * r for r in x)
        for n in range(16, 400):
            total += float(np.ones(n).sum())
        return total

    kernel()
    clock = time.perf_counter
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            t = clock()
            kernel()
            times.append(clock() - t)
        sys.stdout.write(f"{statistics.median(times)!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
