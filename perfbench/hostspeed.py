"""Host-speed probe: puts wall times from a noisy host on one scale.

On a shared virtual machine the same job's wall time moves by up to 2x
over seconds to minutes with the load of other guests.  The probe is a
fixed piece of pure-Python work (object allocation, dict inserts and a
sort, nothing from ``repro``), sampled evenly through each job's
measured phase.  Its mean over a job says how fast the host ran during
that job; timings scaled by ``REFERENCE_S / mean`` read as seconds on a
host where the probe takes :data:`REFERENCE_S`.  The mean, not the
median: the samples are evenly spaced in wall time, so a slow phase
that covers part of a job weighs in the mean as it weighs in the job's
time, where a median would pass over it.  Because the probe shares no
code with ``repro`` and runs with the garbage collector off, its time
does not depend on the program's heap, and a change to the program
moves the scaled timings as it moves the raw ones.
"""

from __future__ import annotations

import gc
import time

from statistics import fmean

#: About the mean probe time on the host the benchmark was written on
#: (a 2-vCPU virtual machine, CPython 3.11); it only sets the scale.
REFERENCE_S = 0.003

#: Probe runs per sample point, and wall seconds between sample points.
SAMPLES = 2
GAP_S = 0.25


class _Cell:
    __slots__ = ("index", "label", "pair")

    def __init__(self, index: int, label: str, pair: tuple[int, int]) -> None:
        self.index = index
        self.label = label
        self.pair = pair


def _work() -> int:
    # Small objects, string and tuple keys, a dict and a keyed sort:
    # the allocation-heavy mix the program's own hot paths are made of,
    # which tracks the host's slow phases more closely than arithmetic.
    cells: dict[tuple[str, int], _Cell] = {}
    for i in range(4000):
        cell = _Cell(i, str(i), (i, i + 1))
        cells[(cell.label, i % 97)] = cell
    return len(sorted(cells, key=lambda key: key[1]))


def sample(samples: list[float]) -> None:
    """Append :data:`SAMPLES` probe timings to *samples*.

    The garbage collector is off while the probe runs: a collection the
    probe's allocations set off would walk the program's whole heap, and
    the probe would then time the program's object count as well.
    """
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SAMPLES):
            t0 = clock()
            _work()
            samples.append(clock() - t0)
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """The factor that puts the timings taken alongside *samples* on the
    reference scale."""
    return REFERENCE_S / fmean(samples)
