"""The lockstep simulation loop: the oracle behind the event-heap driver.

:func:`run_lockstep` is the simulator's original main loop: at every
global event time it visits every core and every controller, whether
or not anything is due there.  It drives the same ``_SimCore``
state-transition methods as the production ``run_event``, so the two
differ only in which cores and controllers they visit when.

:func:`lockstep_oracle` swaps it in for ``run_event`` and builds every
channel controller as a :class:`~tests.oracles.fullscan.FullScanController`,
so a ``simulate()`` call inside it runs with the whole caching stack
out: no event heap, no ready-time index, no wake cache.  The tests
require byte-identical command logs from both.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from unittest import mock

from repro.system import simulator
from repro.system.events import EventQueue
from repro.system.simulator import _SimCore, accrue_pending_cycles

from .fullscan import FullScanController

__all__ = ["lockstep_oracle", "run_lockstep", "simulate_lockstep"]


def run_lockstep(self: _SimCore, max_cycles: int) -> None:
    """Advance every core and controller to each global event time.

    Leaves ``self.events`` an empty queue, so the run's
    ``event_queue_pops``/``event_queue_stale`` stats read zero.
    """
    cores = self.cores
    controllers = self.controllers
    self.events = EventQueue(len(controllers), len(cores))
    completion_heap: list[tuple[int, int]] = []  # (finish, serial)
    mlp = self.mlp

    def push(finish: int, serial: int) -> None:
        heapq.heappush(completion_heap, (finish, serial))

    dirty: set = set()  # unused by this driver; throwaway sink
    now = 0
    while now < max_cycles:
        # 1. Retire completions whose data has arrived.
        ready: list = []
        while completion_heap and completion_heap[0][0] <= now:
            ready.append(heapq.heappop(completion_heap)[1])
        if ready:
            self._retire_completions(ready, set())

        # 2. Let every core push work into the controllers.
        for core_id, core in enumerate(cores):
            while core.index < len(core.records) and self._issue_from_core(
                core_id, core, now, dirty
            ):
                pass

        # 3. One scheduling step per controller.
        stepped = [mc.step(now) for mc in controllers]

        # 4. Collect newly scheduled transfers into the heap.
        for mc in controllers:
            self._collect_completions(mc, push)

        if self._finished():
            break

        # 5. Jump to the next event.
        candidates: list[int] = []
        if completion_heap:
            candidates.append(completion_heap[0][0])
        for mc, did in zip(controllers, stepped):
            nxt = (now + 1) if did else mc.next_event(now)
            if nxt is not None:
                candidates.append(nxt)
        for core in cores:
            if core.index >= len(core.records):
                continue
            if core.wait_completion_of is not None:
                continue  # completion heap covers the wake-up
            rec = core.records[core.index]
            if not rec.is_write and not rec.is_prefetch:
                if core.outstanding >= mlp:
                    continue  # a completion will free a slot
            candidates.append(max(now + 1, core.earliest))

        if not candidates:
            self.now = now
            raise self._deadlock()
        nxt = max(now + 1, min(candidates))
        accrue_pending_cycles(
            controllers, self.pending_cycles, now, nxt
        )
        now = nxt
    self.now = now


@contextmanager
def lockstep_oracle():
    """Within the block, ``simulate()`` runs the lockstep full-scan oracle."""
    with mock.patch.object(
        simulator, "ChannelController", FullScanController
    ), mock.patch.object(_SimCore, "run_event", run_lockstep):
        yield


def simulate_lockstep(trace, config, **kwargs):
    """``simulate(trace, config, **kwargs)`` under :func:`lockstep_oracle`."""
    with lockstep_oracle():
        return simulator.simulate(trace, config, **kwargs)
