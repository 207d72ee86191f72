"""A pacer process: how much slower than usual is this box right now?

The sandbox is a VM with neighbours.  When the host takes cycles away the guest
does not see them as steal: user CPU time simply stretches, by 10 to 60 % for
tens of seconds at a time, and identical runs of a CPU-bound phase then differ
by more than any useful bound.  While a measured phase runs, the pacer does a
fixed spin every ``PAUSE_S`` (a pure-Python loop and a few 2 MB matrix-vector
products, the program's own mix: a loop that stays in the first-level cache
does not feel a neighbour's memory traffic) and records the CPU time each spin
took (CPU time, so waiting for a core behind the program's own workers does
not count).  ``load`` is the mean spin over ``REFERENCE_SPIN_S``; the run
reports its CPU-bound times divided by it, which halved the spread of identical
runs when this was written (see README).  The pacer costs about 3 % of one
core, the same on every run.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from typing import List

import numpy as np

PAUSE_S = 0.05
#: the spin of this box when quiet, which defines ``load == 1``: corrected
#: times are seconds of a box this fast
REFERENCE_SPIN_S = 0.0016


def _spin(stop, out, parent: int) -> None:
    matrix = np.ones((256, 2048), dtype=np.float32)
    vector = np.ones(2048, dtype=np.float32)
    spins: List[float] = []
    while True:  # at least one spin, however short the phase
        start = time.thread_time()
        total = 0
        for k in range(20_000):
            total += k * k % 7
        for _ in range(6):
            matrix @ vector
        spins.append(time.thread_time() - start)
        if stop.wait(PAUSE_S):
            break
        if os.getppid() != parent:
            return  # the parent was killed: nobody is left to stop this loop
    out.send(spins)
    out.close()


class Pacer:
    """``with Pacer() as pacer: ...`` then ``pacer.load`` (1.0 = the quiet box)."""

    load = 1.0

    def __enter__(self) -> "Pacer":
        context = multiprocessing.get_context("spawn")
        self._stop = context.Event()
        self._inbox, outbox = context.Pipe(duplex=False)
        self._process = context.Process(
            target=_spin, args=(self._stop, outbox, os.getpid()), name="bench-pacer"
        )
        self._process.start()
        outbox.close()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        try:
            spins = self._inbox.recv() if self._inbox.poll(10.0) else []
        except EOFError:
            spins = []
        self._inbox.close()
        self._process.join(10.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        if not spins:
            raise RuntimeError("the pacer process recorded nothing")
        self.load = statistics.fmean(spins) / REFERENCE_SPIN_S
