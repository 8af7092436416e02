"""Frozen reference kernel and the calibrated CPU meter built on it.

The host this benchmark targets switches between speed regimes about
1.7x apart, sometimes several times a second and sometimes for tens of
seconds, so a raw CPU reading of a multi-second phase depends on which
regimes it landed in.  The meter removes most of that: around and
inside every measured call it times a fixed reference kernel, and
converts the call's CPU seconds into *reference seconds* -- roughly
``cpu_s * K_NOMINAL_S / kernel_s`` -- so work done in a slow regime is
scaled back by the kernel's own slowdown.

CPU time is read from the calling thread's clock (``time.thread_time``):
the measuring process is single-threaded, so it equals process CPU, and
unlike the process clock it keeps nanosecond resolution while the
``SIGPROF`` interval timer below is armed (Linux then accounts process
CPU at scheduler-tick granularity).

The kernel mixes the operations the serving engine spends its time on:
heap events, dict updates, BLAKE2b digests and small matrix-vector
products.  It imports nothing from ``repro``, so no change to the
program under test can make it faster or slower.  Never edit it: every
recorded reference-second figure depends on it staying exactly as is.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import signal
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Uncontended CPU time of one :func:`reference_kernel` call
#: (fast-regime median of 2,000 calls on a 2-vCPU x86-64 VM).  Frozen:
#: it only sets the scale of reference seconds, never their spread.
K_NOMINAL_S = 0.00035

#: Kernel repetitions timed between two measured calls.
KERNEL_REPS = 5
#: CPU seconds between kernel samples inside a measured call.
SAMPLE_PERIOD_S = 0.02
#: Kernel samples slower than this multiple of their median are dropped.
OUTLIER_FACTOR = 3.0

_EVENTS = 256
_DIM = 48
_MATRIX = (
    (np.arange(_DIM * _DIM, dtype=np.float64).reshape(_DIM, _DIM) % 17.0)
    - 8.0
) / 8.0
_START = np.linspace(-1.0, 1.0, _DIM)
#: What one kernel call returns; checked so the kernel stays frozen.
_EXPECTED = 4806040650873233758


def reference_kernel() -> int:
    """One fixed unit of mixed interpreter, hashing and BLAS-1/2 work."""
    heap: List[Tuple[int, int]] = []
    table = {}
    vec = _START.copy()
    acc = 0
    for i in range(_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        key = (i * 31) % 211
        table[key] = table.get(key, 0) + i
        if i % 4 == 0:
            digest = hashlib.blake2b(
                b"%d:%d" % (i, acc & 0xFFFF), digest_size=8
            ).digest()
            acc ^= int.from_bytes(digest, "little")
        if i % 8 == 0:
            vec = _MATRIX @ vec
            vec /= float(np.dot(vec, vec)) ** 0.5
    while heap:
        acc = (acc + heapq.heappop(heap)[1] * len(table)) % (1 << 63)
    return acc


def check_kernel() -> None:
    """Raise if the kernel no longer computes its frozen result."""
    got = reference_kernel()
    if got != _EXPECTED:
        raise RuntimeError(
            f"reference kernel returned {got}, expected {_EXPECTED}; "
            "the kernel must not change"
        )


def _timed_kernel() -> float:
    """CPU seconds of one kernel call, with the cyclic GC held off.

    A collection triggered by the kernel's allocations would mostly
    scan the program's objects: deferring it keeps that work in the
    program's measured CPU instead of in the sample.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        reference_kernel()
        return time.thread_time() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


class CalibratedMeter:
    """CPU meter that scales every measured call by the kernel.

    The kernel is timed ``KERNEL_REPS`` times before the first call and
    after every call (neighbouring calls share these probes), and once
    every ``SAMPLE_PERIOD_S`` of CPU *inside* a call, from a ``SIGPROF``
    handler, so a long call that crosses regimes is scaled by the mix it
    ran in.  The samples' own CPU is taken out of the call's CPU.  A
    call's scale is ``K_NOMINAL_S`` times the mean of ``1 / kernel_s``
    over its samples -- each in-call sample stands for an equal slice of
    CPU -- after dropping samples over ``OUTLIER_FACTOR`` times their
    median (an interrupt, not a regime).
    """

    def __init__(self) -> None:
        check_kernel()
        for _ in range(3):  # first calls pay one-off interpreter costs
            reference_kernel()
        self.samples: List[float] = []
        #: ``K_NOMINAL_S / kernel_s`` of the last measured call.
        self.last_scale = 1.0
        self._before = self._probe()

    def _probe(self) -> List[float]:
        out = [_timed_kernel() for _ in range(KERNEL_REPS)]
        self.samples.extend(out)
        return out

    def measure(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn``; returns ``(result, cpu_s, ref_s)``."""
        inside: List[float] = []
        sampling_s = 0.0

        def sample(signum, frame) -> None:
            nonlocal sampling_s
            t0 = time.thread_time()
            inside.append(_timed_kernel())
            sampling_s += time.thread_time() - t0

        previous = signal.signal(signal.SIGPROF, sample)
        signal.setitimer(
            signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S
        )
        t0 = time.thread_time()
        try:
            result = fn()
        finally:
            cpu_s = time.thread_time() - t0
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
        cpu_s -= sampling_s
        after = self._probe()
        self.samples.extend(inside)
        samples = self._before + after + inside
        self._before = after
        limit = OUTLIER_FACTOR * statistics.median(samples)
        kept = [k for k in samples if k <= limit]
        self.last_scale = K_NOMINAL_S * statistics.fmean(
            1.0 / k for k in kept
        )
        return result, cpu_s, cpu_s * self.last_scale

    def kernel_summary(self) -> dict:
        """Median/min/max kernel time in ms over every probe so far."""
        return {
            "median_ms": 1e3 * statistics.median(self.samples),
            "min_ms": 1e3 * min(self.samples),
            "max_ms": 1e3 * max(self.samples),
        }
