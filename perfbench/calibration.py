"""Correction for the drifting speed of a shared host.

On a host whose cores are shared with other tenants, the same code runs up to
tens of percent slower or faster from one second to the next, far more than
the changes the benchmark must resolve.  A fixed probe measures the host's
speed between operations, at most every INTERVAL_S, as a burst of one probe
for every BURST_S since the last burst (at most MAX_BURST), so that a long
operation is calibrated by as many probes as a run of short ones.  Each
operation's time is scaled by the probe's reference time over the median of
the burst taken just before it and the bursts on either side, so times are
reported "at reference speed": the speed at which the probe takes its
reference time.  The uncalibrated figures are printed beside the calibrated
ones.

Contention slows kinds of work unequally: on a 2-core host shared with
other tenants, the operations of the n = 3 campaign slowed about 1.5 times
as much (in log terms) as those of the n = 16 campaign when the host
slowed.  So each workload uses the probe that does the kind of work its
operations do (PROBES): interpreter-bound work (small numpy calls, dict and
float formatting), the accumulation of n = 16 four-index outer products
that builds the Gauss tensor, or equal parts of both for a mix of the two.

The probe runs in a child interpreter of its own, pinned to the same CPU as
the benchmark process, while the benchmark waits for it.  It shares the
CPU's speed with the program but none of its process state: a program change
that grows the heap, the garbage collector's work or the allocator's state
slows the program's operations and not the probe, so calibration does not
cancel it.  The probe is the benchmark's own code and never changes with the
program.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

INTERVAL_S = 0.025
BURST_S = 0.1
MAX_BURST = 15
WINDOW = 1  # probe bursts on each side of an operation's own burst
WARMUP_PROBES = 5

_SMALL = np.linspace(-1.0, 1.0, 64).reshape(4, 4, 4)
_SLOT = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_SLOTS = np.linspace(-1.0, 1.0, 4 * 256).reshape(4, 16, 16)


def _interpreter() -> float:
    total = 0.0
    for _ in range(40):
        s = np.einsum("rij,rjk->ik", _SMALL, _SMALL)
        total += float(np.abs(s - s.T).max())
        d = {f"k{i}": i * 0.5 for i in range(20)}
        total += sum(d.values())
    return total + len(", ".join(f"{i * 0.123456789:.17g}" for i in range(900)))


def _outer_product() -> float:
    big = np.einsum("il,jk->ijkl", _SLOT, _SLOT) - np.einsum("ik,jl->ijkl", _SLOT, _SLOT)
    return float(np.abs(big + big.transpose(1, 0, 2, 3)).max())


def _tensor_build() -> float:
    out = np.zeros((16, 16, 16, 16))
    for slot in _SLOTS:
        out += np.einsum("il,jk->ijkl", slot, slot) - np.einsum("ik,jl->ijkl", slot, slot)
    return float(out[1, 0, 0, 1])


# kind -> (the work of one probe, its reference time in ns: about its time
# on an idle core of the host the benchmark was tuned on)
PROBES = {
    "interpreter": ((_interpreter,), 1_250_000),
    "tensor": ((_tensor_build,), 2_300_000),
    "mixed": ((_interpreter, _outer_product), 2_000_000),
}


def probe(kind: str) -> int:
    """Nanoseconds taken by one fixed unit of work of this kind."""
    start = time.perf_counter_ns()
    for work in PROBES[kind][0]:
        work()
    return time.perf_counter_ns() - start


class Calibrator:
    """Owns the probe's child process; probes when INTERVAL_S has passed
    since the last probe and scales operation times by the probes around
    them.  Use it as a context manager, so that the child always ends."""

    def __init__(self, kind: str) -> None:
        self.reference_ns = PROBES[kind][1]
        self.probes: list[float] = []  # median time of each burst of probes
        self._due = self._last = time.perf_counter()
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # the child inherits the pinning
        self._child = subprocess.Popen(
            [sys.executable, __file__, kind], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        for _ in range(WARMUP_PROBES):
            self._probe()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()

    def _probe(self) -> int:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        return int(self._child.stdout.readline())

    def tick(self, force: bool = False) -> int:
        """Probe if due (or ``force``); returns the index of the latest burst."""
        now = time.perf_counter()
        if force or now >= self._due:
            burst = min(MAX_BURST, max(1, int((now - self._last) / BURST_S)))
            self.probes.append(statistics.median(self._probe() for _ in range(burst)))
            self._last = time.perf_counter()
            self._due = self._last + INTERVAL_S
        return len(self.probes) - 1

    def factor(self, probes: list[float]) -> float:
        """Scale that takes times measured alongside these probes to reference speed."""
        return self.reference_ns / statistics.median(probes)

    def scale(self, ns: int, index: int) -> float:
        return ns * self.factor(self.probes[max(0, index - WINDOW): index + WINDOW + 1])


if __name__ == "__main__":
    # The child: one probe of the kind named in argv per line read, its time
    # written back.
    for _ in sys.stdin:
        print(probe(sys.argv[1]), flush=True)
