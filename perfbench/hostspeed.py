"""Host speed reference for the benchmark's timings.

On a shared virtual machine the same code runs at different speeds from
one minute to the next: other tenants' load on the same physical cores,
caches and memory slows every instruction.  On the 2-vCPU machine this
benchmark was written on, one fixed loop took anywhere from 20 ms to
55 ms, in spells from seconds to minutes, and two sets of runs of
unchanged code moved by up to 29 %.  No timing of the program alone can
tell such a spell from a change of the program, so the benchmark samples
each CPU's speed while the timed work runs and reports times in
*reference seconds*::

    reference seconds = host seconds × (REFERENCE_MS ÷ mean sample ms) ** e

where ``e`` is how closely the work's host time follows the kernel's
(:data:`EXPONENT`, except where a caller measured otherwise).

:class:`Monitor` starts one child process per CPU, pinned to it, that
wakes every :data:`INTERVAL_S` and times one run of a fixed kernel
(about 1 ms, so about 1 % of each CPU).  Work done by one process is
pinned to one CPU (:func:`pinned`) and scaled by that CPU's samples;
work spread over several processes is scaled by every CPU's samples.
The kernel is pure Python and runs no code of the program, so a change
of the program cannot move it: an interpreted loop that chases a random
single-cycle permutation, looks keys up in a dict and calls a method.
It runs in its own small process, so the program's heap and garbage
collector never touch it.  ``python3 hostspeed.py`` prints the kernel's
time a few times.
"""

from __future__ import annotations

import contextlib
import os
import random
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

#: kernel time of a quiet host, in ms: a round number near the monitor's
#: mean in the quietest runs on the 2-vCPU machine the benchmark was
#: written on (Xeon, Python 3.11), where reference seconds then read
#: close to host seconds
REFERENCE_MS = 1.0

#: how closely host time follows the kernel's time: log-log fits over
#: runs in different host states on the 2-vCPU machine gave 0.66 for the
#: ``matrix_serial`` pass, 0.67 for the ``ensemble_socket`` pass and
#: 0.53 to 0.92 for the set-ups (with 1, slow runs read up to 10 % fast)
EXPONENT = 2 / 3

#: seconds between two samples on one CPU
INTERVAL_S = 0.1

#: a sample above this multiple of the run's median was preempted (a
#: scheduler slice, not a slower host) and counts as this multiple
CLIP = 3.0

_SLOTS = 1 << 12
_KEYS = 1 << 10
_STEPS = 6_000

Sample = Tuple[float, float]  # (perf_counter at the kernel's middle, ms)


class _Counter:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def add(self, k: int) -> int:
        self.n += k
        return self.n


def _build():
    rng = random.Random(20090922)
    order = list(range(_SLOTS))
    rng.shuffle(order)
    perm = [0] * _SLOTS
    for here, there in zip(order, order[1:] + order[:1]):
        perm[here] = there  # one cycle through every slot
    table = {k * 7919: k for k in range(_KEYS)}
    return perm, table


_PERM, _TABLE = _build()


def _kernel() -> int:
    perm, table, mask, counter = _PERM, _TABLE, _KEYS - 1, _Counter()
    i = 0
    for _ in range(_STEPS):
        i = perm[i]
        counter.add(table[(i & mask) * 7919])
    return counter.n


def sample() -> Sample:
    """Time one kernel run now."""
    t0 = time.perf_counter()
    _kernel()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, (t1 - t0) * 1e3


def cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


def work_cpu() -> int:
    """The CPU single-process work is pinned to."""
    return cpus()[-1]


@contextlib.contextmanager
def pinned(cpu: int) -> Iterator[None]:
    """Run this process, and the children it starts meanwhile, on ``cpu``."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Monitor:
    """Samples every CPU's speed in pinned child processes until :meth:`stop`.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux,
    so the children's sample times compare with the caller's.
    """

    def __init__(self) -> None:
        self.procs = {
            cpu: subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--monitor", str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for cpu in cpus()
        }
        self.pids = {proc.pid for proc in self.procs.values()}
        self.samples: Dict[int, List[Sample]] = {}
        # each child's first sample: it is running once that arrives
        self._first = {cpu: proc.stdout.readline()
                       for cpu, proc in self.procs.items()}
        self._clip = 0.0

    def stop(self) -> None:
        """End the children (each exits when its stdin closes); idempotent."""
        if self.samples:
            return
        for proc in self.procs.values():
            proc.stdin.close()
        failed = []
        for cpu, proc in self.procs.items():
            out = self._first[cpu] + proc.stdout.read()
            proc.stdout.close()
            if proc.wait(timeout=30) != 0:
                failed.append(cpu)
            self.samples[cpu] = [tuple(map(float, line.split()))
                                 for line in out.splitlines() if line.strip()]
        if failed:
            raise RuntimeError(f"host speed monitor failed on CPU {failed}")
        every = [ms for s in self.samples.values() for _, ms in s]
        self._clip = CLIP * statistics.median(every)

    def factor(self, start: float, end: float, cpu: Optional[int] = None,
               exponent: float = EXPONENT) -> float:
        """Reference seconds per host second over ``[start, end]``.

        ``(REFERENCE_MS ÷ mean sample ms) ** exponent``, from ``cpu``'s
        samples or every CPU's: the samples taken in the interval, or the
        two nearest to it on each CPU when it is shorter than
        :data:`INTERVAL_S`.
        """
        chosen = [cpu] if cpu is not None else sorted(self.samples)
        ms: List[float] = []
        for c in chosen:
            samples = self.samples[c]
            inside = [m for t, m in samples if start <= t <= end]
            if len(inside) < 2:
                mid = (start + end) / 2
                inside = [m for _, m in sorted(
                    samples, key=lambda s: abs(s[0] - mid))[:2]]
            ms.extend(min(m, self._clip) for m in inside)
        if not ms:
            raise RuntimeError("no host speed samples")
        return (REFERENCE_MS * len(ms) / sum(ms)) ** exponent


def _monitor(cpu: int) -> None:
    """Child loop on ``cpu``: one sample per interval until stdin's EOF."""
    os.sched_setaffinity(0, {cpu})
    print("%.6f %.4f" % sample(), flush=True)
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        print("%.6f %.4f" % sample())


if __name__ == "__main__":
    if sys.argv[1:2] == ["--monitor"]:
        _monitor(int(sys.argv[2]))
    else:
        print(" ".join(f"{sample()[1]:.3f}" for _ in range(20)))
