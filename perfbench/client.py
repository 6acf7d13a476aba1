"""The closed-loop client of a repetition: timed requests, scaled to a reference host speed.

The host's speed drifts by up to ~50% over minutes and differs between its two
vCPUs, so one repetition's wall time says as much about the host as about the
engine (see NOTES.md).  The client therefore pins its process to the vCPU it
started on, and a sampler thread wakes every ``SAMPLE_EVERY_S`` seconds to time
``calibration_kernel`` in its own thread CPU time: fixed pure-Python work
(rational arithmetic, tuples, dict probes) that uses no engine code, so no
change to the engine moves it.  The interpreter lock lets one thread run at a
time, so the engine still runs single-threaded and each sample measures the
vCPU's speed at that moment.  A request's main-thread CPU time (which leaves
the samples out) is scaled by ``KERNEL_REFERENCE_S`` over the mean sample during
the request: the result is its time on a host that runs the kernel in
``KERNEL_REFERENCE_S``.  Raw wall times are reported as well.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from fractions import Fraction
from itertools import product

KERNEL_REFERENCE_S = 0.0025  # the kernel's median thread time on the 2-vCPU reference host
SAMPLE_EVERY_S = 0.05
SAMPLE_PAD_S = 0.1  # samples this close to a request also describe its speed
_W = Fraction(2 ** 127 + 1, 2 ** 126 + 3)


def calibration_kernel():
    acc = Fraction(1)
    memo = {}
    for i, t in enumerate(product(range(3), repeat=5)):
        key = (t, i & 15)
        v = memo.get(key)
        if v is None:
            v = acc * _W + Fraction(i, 7)
            if v.denominator.bit_length() > 600:
                v = Fraction(i + 1, 13)
            memo[key] = v
        acc = v
    return acc


def _timed_kernel():
    c0 = time.thread_time()
    calibration_kernel()
    return time.thread_time() - c0


def pin_to_current_cpu():
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


class Op:
    """One request: method, wall and CPU seconds, scaled seconds, and whether its checks passed."""

    __slots__ = ("kind", "start", "end", "seconds", "cpu", "scaled", "ok", "note")

    def __init__(self, kind, start, end, cpu, ok=True, note=""):
        self.kind = kind
        self.start = start
        self.end = end
        self.seconds = end - start
        self.cpu = cpu
        self.scaled = None
        self.ok = ok
        self.note = note

    def as_list(self):
        return [self.kind, self.scaled, self.ok, self.note, self.seconds]


class Client:
    """Sends requests one after another; ``on_request(i)`` runs before request i."""

    def __init__(self, on_request=None):
        self.ops = []
        self.on_request = on_request
        self.at = array("d")
        self.cost = array("d")
        for _ in range(10):
            self.at.append(time.perf_counter())
            self.cost.append(_timed_kernel())
        self.start_speed = self._speed(0, len(self.cost))
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def _sample(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            at = time.perf_counter()
            self.cost.append(_timed_kernel())
            self.at.append(at)

    def _speed(self, lo, hi):
        costs = self.cost[lo:hi]
        return KERNEL_REFERENCE_S / (sum(costs) / len(costs))

    def send(self, kind, fn, *args):
        """Time one request; an exception fails the request, not the run."""
        if self.on_request is not None:
            self.on_request(len(self.ops))
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:
            ok, note, value = False, f"raised {type(exc).__name__}: {exc}", None
        else:
            ok, note = True, ""
        op = Op(kind, t0, time.perf_counter(), time.thread_time() - c0, ok, note)
        self.ops.append(op)
        return op, value

    def finish(self):
        """Stop sampling and scale every request by the samples taken during it."""
        self._stop.set()
        self._sampler.join()
        at = list(self.at)
        lo = 0
        for op in self.ops:
            while lo < len(at) - 1 and at[lo + 1] < op.start - SAMPLE_PAD_S:
                lo += 1
            hi = lo + 1
            while hi < len(at) and at[hi] <= op.end + SAMPLE_PAD_S:
                hi += 1
            op.scaled = op.cpu * self._speed(lo, max(hi, lo + 2))
        return self.ops

    def speed(self):
        """Reference time over the mean sample: above 1 means a faster host than the reference."""
        return self._speed(0, len(self.cost))
