"""Reference kernel and the drift scaling built on it.

The machine this benchmark was written on shares its cores with other
work.  Its speed for pure-Python code swings by up to 2x from one
tenth of a second to the next and drifts over minutes, and process CPU
time follows wall time, so neither clock cancels the swing.  Speed is
therefore measured alongside the program with a fixed reference
kernel: int arithmetic, tuples, dicts, `fractions.Fraction` arithmetic
and a small recursive search, none of it from graphtoric.

The kernel runs three times before and three times after each job, and
also every PROBE_INTERVAL_S during the job, from a SIGALRM handler that
interrupts the job's bytecode.  Time spent in that handler is taken
out of every interval measured with ``Probe.now``.  A job's raw time is
scaled by NOMINAL_KERNEL_S / (mean kernel time around and during it),
so a scaled figure reads as seconds on a machine that runs the kernel
in NOMINAL_KERNEL_S.

Both choices were measured.  Samples taken only between jobs miss the
swings inside a multi-second job: over two minutes of theta-ladder
passes they left the pass-to-pass spread at 10% against 8% raw, while
samples inside the jobs brought it from 14% raw to 2%.  A kernel of
arithmetic alone tracked the labelling search badly (multi_theta(10)
varied by 4% from one process to the next); with the search half it
varied by 1.1%.

Set-up runs in fresh interpreters and is mostly the import of modules,
which the kernel above tracks badly: over 120 set-up interpreters, 24
at a time, the median scaled by kernel samples taken in each child
varied by 6.7% from one group to the next.  Each set-up interpreter is
therefore scaled by IMPORT_KERNEL instead, a fresh interpreter that
imports a fixed set of standard modules, run before and after it; the
same groups varied by 1.6%.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The speed the figures are expressed at: one kernel in 1.5 ms, which is
# about the fastest the reference machine (2 cores, Python 3.11.7) runs it.
NOMINAL_KERNEL_S = 0.0015
PROBE_INTERVAL_S = 0.025
# The set-up reference: a fresh interpreter (python3 -I) importing these
# standard modules, which it times itself and prints.  At the reference
# speed the imports take NOMINAL_IMPORT_S.
IMPORT_KERNEL = """
import time
start = time.perf_counter()
import argparse, dataclasses, decimal, enum, fractions, functools, itertools, json, random
import statistics, typing
print(time.perf_counter() - start)
"""
NOMINAL_IMPORT_S = 0.014
SAMPLES_AROUND = 3
_ROUNDS = 700


# A ring of six vertices joined by chords, as edge-index triples, for the
# backtracking half of the kernel.
_TRIPLES = ((0, 1, 6), (1, 2, 7), (2, 3, 8), (3, 4, 6), (4, 5, 7), (5, 0, 8))


def kernel() -> tuple[int, int, int]:
    """The fixed reference workload; returns a checksum of its result.

    Two halves of about equal time: a loop of int arithmetic, tuple keys,
    dict updates and Fraction sums, like the algebra; and a recursive
    0/1 search with generator-expression tests, like the labelling
    search.  The two kinds of code slow down by different amounts when
    the core is shared, so the kernel holds some of each.
    """
    table: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    x = 12345
    for i in range(_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 61, i & 7)
        table[key] = table.get(key, 0) + (x >> 16)
        if i & 3 == 0:
            acc += Fraction(x % 29 + 1, (x >> 8) % 31 + 1)
    labels = [0] * 9
    found = []

    def extend(k: int) -> None:
        if k == 9:
            found.append(tuple(labels))
            return
        for value in (0, 1):
            labels[k] = value
            if all(sum(labels[e] for e in t) % 2 == 0 for t in _TRIPLES if max(t) == k):
                extend(k + 1)

    extend(0)
    return len(table), acc.numerator % 1000003, len(found)


class Probe:
    """Kernel samples around and inside timed calls.

    ``samples`` holds the time of every kernel run.  ``spent`` is the
    total time spent sampling, so ``now()`` is a clock that stands
    still while the kernel runs.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._expected = kernel()

    def sample(self) -> float:
        start = time.perf_counter()
        result = kernel()
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        self.samples.append(elapsed)
        if result != self._expected:
            raise RuntimeError("reference kernel returned a different result")
        return elapsed

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def timed(self, fn, *args) -> tuple[object, float, float]:
        """Run fn(*args) sampled around and inside; return (result, raw
        seconds without sampling time, scale factor)."""
        mark = len(self.samples)
        for _ in range(SAMPLES_AROUND):
            self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = self.now()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = self.now() - start
            signal.signal(signal.SIGALRM, previous)
        for _ in range(SAMPLES_AROUND):
            self.sample()
        return result, raw, NOMINAL_KERNEL_S / statistics.fmean(self.samples[mark:])
