"""How fast the host runs the benchmark right now, measured by a fixed workload.

The benchmark runs on a shared virtual machine whose speed drifts by up to a
factor of two over minutes, and the same pass then takes up to twice as long.
A ``HostMeter`` runs a fixed pure-Python unit of work (greedy colourings of a
fixed 40-vertex graph with bitset adjacency, the kind of code the program
runs) in short chunks, so that its samples are spread over the same moments
as the times they correct.  While the meter is started, a chunk interrupts
the program every ``every_s`` seconds from a ``SIGALRM`` handler, even in the
middle of a long request; ``paused`` sums the time those chunks took, which
the caller subtracts from the times it measures.  ``scale()`` turns a time
measured on the host as it was into seconds on a host where one unit takes
``REF_UNIT_S``; slow and fast phases of the host then cancel out, while a
change to the program does not, because the unit does not call it.
"""

from __future__ import annotations

import random
import signal
import time

# Nominal time of one unit, the speed every scaled time is expressed at.
REF_UNIT_S = 0.001

_N = 40
_rng = random.Random(20211020)
_ADJ = [0] * _N
for _i in range(_N):
    for _j in range(_i + 1, _N):
        if _rng.random() < 0.5:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i


def unit() -> int:
    """One unit of work: four greedy colourings over rotated vertex orders."""
    total = 0
    order = list(range(_N))
    for _ in range(4):
        order = order[7:] + order[:7]
        colour: dict[int, int] = {}
        for v in order:
            used = set()
            nb = _ADJ[v]
            while nb:
                low = nb & -nb
                u = low.bit_length() - 1
                if u in colour:
                    used.add(colour[u])
                nb ^= low
            c = 0
            while c in used:
                c += 1
            colour[v] = c
        total += max(colour.values())
    return total


class HostMeter:
    """Samples the host's speed for ``share`` of the time it is asked to cover."""

    def __init__(self, share: float):
        self.share = share
        self.units = 0
        self.seconds = 0.0
        self.paused = 0.0
        self.every_s = 0.0
        self.running = False

    def sample(self, covered_s: float) -> None:
        """Run whole units for ``share`` of ``covered_s`` seconds (at least one)."""
        target = self.share * covered_s
        spent = 0.0
        while True:
            start = time.perf_counter()
            unit()
            spent += time.perf_counter() - start
            self.units += 1
            if spent >= target:
                break
        self.seconds += spent

    def start(self, every_s: float) -> None:
        """Sample for ``share`` of every ``every_s`` seconds until ``stop()``."""
        self.every_s = every_s
        self.running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, every_s)

    def stop(self) -> None:
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _on_alarm(self, signum, frame) -> None:
        if not self.running:  # delivered just before stop()
            return
        start = time.perf_counter()
        self.sample(self.every_s)
        self.paused += time.perf_counter() - start
        # Re-armed only now, so a slow sample never nests in another.
        signal.setitimer(signal.ITIMER_REAL, self.every_s)

    def scale(self) -> float:
        """Factor from host seconds to seconds at ``REF_UNIT_S`` per unit."""
        return REF_UNIT_S * self.units / self.seconds
