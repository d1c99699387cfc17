"""Machine-speed calibration for timings on a shared host.

Other tenants of a shared host slow every instruction of this process, at
times by more than 2x, for seconds to minutes; CPU time does not leave
that out, because the process is running, only slower.  A fixed kernel
timed right before and right after each measured piece of work slows by
the same factor: over 5-second windows of planar trials, raw CPU time
varied by 15-20 % and its ratio to the kernel's time by 1-3 %.  So a time
divided by the kernel's time next to it and multiplied by ``REF_S`` reads
the same under load as on an idle machine.  A trial can take a second while
the load changes, so the kernel also runs every ``TICK_S`` of CPU time from
a profiling timer, and such a trial is calibrated by the samples taken
while it ran as well as those just before and after it.

The kernel mixes the engine's two kinds of work: exact rational arithmetic
on Python objects, and small int64 numpy array products.  It calls no
engine code, so a change to the engine cannot change it.
"""
from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import thread_time

import numpy as np

# A fixed scale: about the kernel's CPU time between trials on an idle
# 2-vCPU Xeon host, so that normalised times read as CPU seconds there.
REF_S = 0.0013
TICK_S = 0.1

# A fresh interpreter importing a fixed set of modules, numpy, the engine's
# largest import, among them: the set-up counterpart of the kernel.  Import
# time is mostly page faults and file reads, which load slows more than the
# kernel, so set-up times are normalised by this probe's time instead: over
# rounds of five set-up probes on a loaded host, the median CPU time varied
# by 26 % (quartile spread over median) and its ratio to this probe by 9 %.
IMPORT_PROBE = """
import time
t0 = time.process_time()
import csv, decimal, fractions, hashlib, json, random
import numpy
print(repr(time.process_time() - t0))
"""
# About IMPORT_PROBE's CPU time on an idle 2-vCPU Xeon host.
IMPORT_REF_S = 0.08

# Small enough that no array the kernel makes is big enough for malloc to
# map it fresh from the system, which would add page faults to its time.
_POINTS = (np.arange(120, dtype=np.int64).reshape(60, 2) * 7919) % 41 - 20


def kernel() -> int:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        f = Fraction(i * 7 + 3, i * 5 + 1)
        acc += f * f - Fraction(i, 3)
        seen[i % 97, i % 13] = tuple(sorted((acc.numerator % 1009, i % 11, i % 5)))
    total = len(seen)
    for q in range(10):
        w = _POINTS - _POINTS[q]
        e = np.concatenate([np.stack([-w[:, 1], w[:, 0]], 1), np.stack([w[:, 1], -w[:, 0]], 1)])
        total += int(((e @ w.T) > 0).sum(axis=1).min())
    return total


def chunk_seconds() -> float:
    """CPU seconds of one kernel call, with the collector off so that garbage
    left by the measured work is not collected on the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = thread_time()
        kernel()
        return thread_time() - c0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Appends a kernel time to `chunks` on entry, on each sample() call, and
    every TICK_S of process CPU time in between, from SIGPROF."""

    def __init__(self):
        self.chunks = []

    def sample(self):
        """One kernel time now; a timer tick during it waits until it ends."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            self.chunks.append(chunk_seconds())
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})

    def _tick(self, signum, frame):
        self.chunks.append(chunk_seconds())

    def __enter__(self):
        self.chunks.append(chunk_seconds())
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)


def normalise(times: list, windows: list, chunks: list) -> list:
    """Each time scaled by REF_S over the mean kernel time of the chunks taken
    while it ran, ``chunks[first:end]`` for its window ``(first, end)``, and
    of the one just before and the one just after it."""
    return [t * REF_S / statistics.fmean(chunks[first - 1:end + 1])
            for t, (first, end) in zip(times, windows)]
