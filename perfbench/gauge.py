"""Host-speed gauge: a fixed piece of interpreter work timed while the
workload runs, so that timings taken on a shared host can be scaled to
one reference speed.

The benchmark runs on a few cores of a shared host whose speed for the
same work changed by up to 1.7x within an hour, and by tens of percent
within seconds, as neighbouring load came and went.  That drift is the
same for any CPU-bound Python code, so a fixed piece of work that uses
none of the program tracks it.  The gauge is a small discrete-event
loop in the image of the simulator's hot path (``heapq`` pops and
pushes, method calls on slotted objects, dict updates, random draws),
written here so that no change to the program can change its cost.
Garbage collection is off while it runs, so the program's heap does not
slow it.

:class:`Sampler` takes a sample every ``PERIOD`` seconds of wall time
from a ``SIGALRM`` handler, in the main thread between two bytecodes of
the workload, so the samples see the host at the same moments as the
workload.  The time spent in the handler is kept apart, to be taken off
the execution's time.  The host's speed over the execution is the mean
over the samples of ``REFERENCE_S`` divided by the sample's time; as
the samples are evenly spaced in wall time, it weights each moment as
the execution's wall time does.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time

#: Seconds one sample takes on the reference host.  A round figure near
#: the median sample time on the 2-vCPU Xeon VM the benchmark was sized
#: on; it only sets the scale of the reported figures.
REFERENCE_S = 0.006
#: Wall seconds between two samples taken during an execution.
PERIOD = 0.25
#: Events one sample processes, over this many simulated nodes.
EVENTS = 4_000
NODES = 64


class _Node:
    __slots__ = ("name", "inbox", "bytes_from")

    def __init__(self, name: str):
        self.name = name
        self.inbox: list = []
        self.bytes_from: dict = {}

    def deliver(self, at: float, size: int, peer: str) -> float:
        self.inbox.append((at, size))
        if len(self.inbox) > 8:
            del self.inbox[:4]
        self.bytes_from[peer] = self.bytes_from.get(peer, 0) + size
        return at + size * 0.5


def sample() -> float:
    """Seconds one fixed run of the gauge's event loop takes now."""
    nodes = [_Node("n%d" % i) for i in range(NODES)]
    draws = random.Random(1)
    queue = [(draws.random(), i, i % NODES, i) for i in range(2 * NODES)]
    heapq.heapify(queue)
    sequence = len(queue)
    total = 0.0
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(EVENTS):
            at, _, index, payload = heapq.heappop(queue)
            peer = (index * 7919 + payload * 104729) % NODES
            total += nodes[index].deliver(at, payload % 1460,
                                          nodes[peer].name)
            heapq.heappush(queue, (at + draws.expovariate(10.0), sequence,
                                   peer, payload + 1))
            sequence += 1
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed(samples) -> float:
    """The host's speed over these samples relative to the reference
    host (above 1: faster)."""
    return statistics.fmean(REFERENCE_S / taken for taken in samples)


class Sampler:
    """Context manager that samples the gauge every ``PERIOD`` seconds
    while its block runs, and once more on exit, so that even a block
    shorter than ``PERIOD`` has a sample."""

    def __init__(self):
        self.samples: list = []
        #: Seconds spent sampling inside the block.
        self.inside_s = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(sample())
        self.inside_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
