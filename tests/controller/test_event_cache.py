"""The scheduling-loop caches must be invisible in the command stream.

``ChannelController`` memoises its FR-FCFS candidate list and its
next-wake time against a state version counter; any stale read would
reorder or drop DRAM commands.  These tests run the same request
schedule with the caches on (default) and off (``REPRO_NO_EVENT_CACHE``)
and hold the two command logs to *byte identity* — same commands, same
cycles, same order — with the independent protocol auditor signing off
on both runs.  This is the gate the optimisation rides behind.
"""

from __future__ import annotations

import random

import pytest

from repro.controller import NO_EVENT_CACHE_ENV, ChannelController
from repro.dram import DDR4_3200, DDR4_GEOMETRY

from .test_controller import make_request, run_to_completion


def _schedule(seed: int, n: int = 48) -> list[tuple[int, bool]]:
    """(line, is_write) pairs mixing row hits, conflicts, and drains."""
    rng = random.Random(seed)
    schedule = []
    for _ in range(n):
        line = rng.randrange(0, 4096)
        if rng.random() < 0.3:
            line = rng.randrange(0, 4)  # force some row/bank reuse
        schedule.append((line, rng.random() < 0.4))
    return schedule


def _run(schedule, page_policy: str):
    mc = ChannelController(
        DDR4_3200, DDR4_GEOMETRY, keep_cmd_log=True,
        page_policy=page_policy,
    )
    requests = [make_request(line, write=w) for line, w in schedule]
    done, finish = run_to_completion(mc, requests)
    # Duplicate writes coalesce in the queue, so they never complete
    # as separate requests; everything else must drain.
    assert len(done) == len(requests) - mc.coalesced_writes
    return mc, done, finish


@pytest.mark.parametrize("page_policy", ["open", "closed"])
@pytest.mark.parametrize("seed", [0, 7])
def test_cache_off_is_byte_identical(seed, page_policy, monkeypatch):
    schedule = _schedule(seed)
    cached_mc, cached_done, cached_finish = _run(schedule, page_policy)

    monkeypatch.setenv(NO_EVENT_CACHE_ENV, "1")
    plain_mc, plain_done, plain_finish = _run(schedule, page_policy)
    assert plain_mc._cache_enabled is False  # the switch actually took

    # The full command log — (cycle, command, rank, group, bank, row) —
    # must match entry for entry, and so must every data-bus burst.
    assert cached_mc.channel.command_log == plain_mc.channel.command_log
    assert cached_mc.channel.transactions == plain_mc.channel.transactions
    assert cached_finish == plain_finish
    per_req = lambda done: [  # noqa: E731
        (r.line_id, r.issue_cycle, r.finish_cycle, r.scheme)
        for r in done
    ]
    assert per_req(cached_done) == per_req(plain_done)

    # Both runs replay cleanly through the independent auditor, so the
    # shared log is not just identical but protocol-correct.
    assert cached_mc.audit() == []
    assert plain_mc.audit() == []


def test_cache_is_actually_exercised():
    """Guard against the ready-time index silently never engaging."""
    mc = ChannelController(DDR4_3200, DDR4_GEOMETRY)
    assert mc._cache_enabled is True
    requests = [make_request(line) for line in range(4)]
    for req in requests:
        mc.enqueue(req, 0)
    banks = {
        (r.mapped.rank, r.mapped.bank_group, r.mapped.bank)
        for r in requests
    }
    # The first query derives each enqueued bank once.
    pick, wake = mc._schedule_query(0)
    assert pick is not None and wake == 0
    assert mc.sched_banks_rederived == len(banks)
    # Same state, same cycle: the memoised answer, nothing re-derived.
    assert mc._schedule_query(0) == (pick, wake)
    assert mc.sched_banks_rederived == len(banks)
    assert mc.sched_requeries == 0
    # Same state, a later cycle: answered from the stored ready times.
    later_pick, _ = mc._schedule_query(5)
    assert mc.sched_requeries == 1
    assert mc.sched_banks_rederived == len(banks)
    assert later_pick.cmd is pick.cmd and later_pick.request is pick.request
    # Issuing a command dirties only the bank it went to.
    assert mc.step(0) is True
    mc._schedule_query(1)
    assert mc.sched_banks_rederived == len(banks) + 1
