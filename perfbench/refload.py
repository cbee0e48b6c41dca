"""A fixed pure-Python load that shares one CPU with the measured process.

On a shared host the CPU's speed changes for minutes at a time with what
else runs on the physical core.  :class:`CoRunner` runs :func:`_load` in a
child pinned to one CPU; a measured process pinned to the same CPU takes
turns with it every few milliseconds and sees the same speed, and the
rounds of fixed work the child completes per CPU second of its own
measure that speed.  Scaling a
CPU time measured meanwhile by ``rate / REF_ROUNDS_PER_S`` gives the time
it would have taken on a CPU where the load runs ``REF_ROUNDS_PER_S``
rounds per CPU second.  The child runs at nice ``NICE``, so it takes about
a tenth of the CPU in slices spread over the measured stretch.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import random
import time
from typing import Tuple

#: rounds per CPU second on the reference CPU (about what the load ran at
#: on the 2-vCPU KVM guest the benchmark was written on)
REF_ROUNDS_PER_S = 1000.0
OBJECTS = 100_000
ROUND_KEYS = 500
NICE = 10


class _Item:
    __slots__ = ("index", "count")

    def __init__(self, index: int) -> None:
        self.index = index
        self.count = 0


def _load(progress, cpu: int) -> None:
    """Dictionary lookups, attribute updates and a heap, as the simulator
    does; publishes ``[rounds done, own CPU seconds]`` after every round.
    Returns when the parent process is gone."""
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    os.nice(NICE)
    table = {f"obj:{i:06d}": _Item(i) for i in range(OBJECTS)}
    keys = list(table)
    random.Random(1).shuffle(keys)
    position = 0
    while os.getppid() == parent:
        heap = []
        for key in keys[position:position + ROUND_KEYS]:
            item = table[key]
            item.count += 1
            heapq.heappush(heap, (item.count * 0.5 + item.index, item.index))
        while heap:
            heapq.heappop(heap)
        position = (position + ROUND_KEYS) % (OBJECTS - ROUND_KEYS)
        progress[0] += 1
        progress[1] = time.process_time()


class CoRunner:
    """Runs :func:`_load` on CPU *cpu* until :meth:`stop`.

    The child is forked: start it before opening sockets or pipes, so it
    holds none of them.
    """

    def __init__(self, cpu: int) -> None:
        self.progress = multiprocessing.Array("d", 2, lock=False)
        self.proc = multiprocessing.Process(
            target=_load, args=(self.progress, cpu), daemon=True
        )
        self.proc.start()
        while self.progress[0] == 0 and self.proc.is_alive():
            time.sleep(0.01)
        if not self.proc.is_alive():
            raise RuntimeError("the reference load did not start")

    def sample(self) -> Tuple[float, float]:
        return self.progress[0], self.progress[1]

    def scale(self, since: Tuple[float, float]) -> float:
        """``rate / REF_ROUNDS_PER_S`` over the time since *since*."""
        rounds, cpu = self.sample()
        return (rounds - since[0]) / (cpu - since[1]) / REF_ROUNDS_PER_S

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.join()
