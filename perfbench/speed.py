"""Host-speed probe: rescales host times to one fixed host speed.

The small VMs this benchmark runs on share physical cores with other
tenants.  Their speed moves in steps of up to 1.7x that last from seconds to
minutes, which is slower than one op, so a median over a run's ops cannot
remove it: the same op measured a minute apart differs by more than any
useful bound.  A fixed kernel that uses no code of the program is therefore
timed before the first op and after every part of an op.  Each part's host
time is scaled by ``REFERENCE_PROBE_S / mean(probe before, probe after)``,
which reads as "host seconds at the speed where the probe takes
``REFERENCE_PROBE_S``".  A change to the program moves the parts but not the
probe, so it shows in full.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import time

import numpy as np

# The probe's median time on a calm 2-vCPU Xeon VM (x86_64, CPython 3.11);
# scaled times therefore read close to raw seconds on that machine.
REFERENCE_PROBE_S = 0.010

_KEYS = [(i * 2654435761) & 0xFFFFF for i in range(1 << 14)]
_ARRAY = np.arange(1 << 19, dtype=np.int64)  # 4 MiB, past the L2 cache


class _Request:
    __slots__ = ("bank", "row", "due")

    def __init__(self, bank: int, row: int, due: int) -> None:
        self.bank = bank
        self.row = row
        self.due = due


def _kernel() -> int:
    # A toy event loop shaped like the simulator's (a heap of timed
    # requests, small objects, per-bank dict state), then a few passes over
    # an array larger than L2, like the codecs.  Both kinds of work slow
    # down differently when a neighbour shares the core or the cache, so
    # the probe needs both.
    heap: list = []
    open_rows: dict[int, int] = {}
    hits = now = 0
    for i in range(6000):
        key = _KEYS[i & 0x3FFF]
        due = now + (key & 63)
        heapq.heappush(heap, (due, i, _Request(key & 31, key >> 5, due)))
        if len(heap) > 64:
            due, _, request = heapq.heappop(heap)
            now = max(now, due)
            if open_rows.get(request.bank) == request.row:
                hits += 1
            else:
                open_rows[request.bank] = request.row
    for _ in range(3):
        hits ^= int((_ARRAY ^ hits).sum() & 0xFF)
    return hits


def probe(repeats: int = 3) -> float:
    """Seconds the fixed kernel takes right now (median of ``repeats``)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Probes between timed sections and rescales each section."""

    def __init__(self) -> None:
        self.last = probe()

    def scale(self, seconds: float) -> float:
        """Rescale a section that ended just now to the reference speed."""
        before, self.last = self.last, probe()
        return seconds * REFERENCE_PROBE_S / ((before + self.last) / 2)


# Interpreter start-up mixes disk, dlopen and unmarshalling work, which the
# kernel above does not track, with plain Python work, which it does.  So
# set-up time has its own probe that does both: a fresh interpreter that
# imports NumPy (the program's one heavy dependency, via this module) and
# runs the kernel a few times.
START_PROBE_RUNS = 6
REFERENCE_START_S = 0.30  # its median on the same VM


def start_probe(python: str, env: dict, cwd) -> float:
    """Seconds a fresh interpreter takes to run ``python -m perfbench.speed``.

    ``env`` must put the checkout's root on ``PYTHONPATH``.
    """
    start = time.perf_counter()
    subprocess.run([python, "-m", "perfbench.speed"], env=env, cwd=cwd,
                   check=True)
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(START_PROBE_RUNS):
        _kernel()
