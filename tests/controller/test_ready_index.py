"""The ready-time index must answer exactly what the full scan answers.

``ChannelController._schedule_query`` reads a per-bank, per-group index
that is only re-derived for banks marked dirty (enqueue, issue,
refresh) and answers later-cycle repeats from stored ready times.
``FRFCFSScheduler.candidates`` + ``pick``/``next_wakeup`` recompute
everything from the queue and the channel.  These tests hold the two to
equality at every ``step`` and ``next_event`` of randomized schedules:
DDR4 (2 groups of 4 banks) and LPDDR3 (1 group of 8), open and closed
page, urgent and idle refresh, write-drain flips, and a 4-channel
system, plus the decomposition identity the index rests on.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.controller import ChannelController, MemoryRequest
from repro.dram import (
    DDR4_3200,
    DDR4_GEOMETRY,
    LPDDR3_1600,
    LPDDR3_GEOMETRY,
    AddressMapper,
    CommandType,
)
from repro.system.machine import SYSTEMS
from repro.system.simulator import simulate
from repro.workloads.benchmarks import build_trace

SHAPES = {
    "ddr4": (replace(DDR4_3200, REFI=2000), DDR4_GEOMETRY),
    "lpddr3": (replace(LPDDR3_1600, REFI=1500), LPDDR3_GEOMETRY),
}


def _pick_key(pick):
    if pick is None:
        return None
    return (pick.cmd, pick.rank, pick.group, pick.bank, pick.row,
            pick.earliest, id(pick.request))


def _assert_index_matches_scan(mc, now):
    cands = mc._candidates(now)
    want = (
        _pick_key(mc.scheduler.pick(cands, now)),
        mc.scheduler.next_wakeup(cands),
    )
    pick, wake = mc._schedule_query(now)
    assert (_pick_key(pick), wake) == want, f"index diverged at {now}"


def _arrivals(rng, geometry, n, write_frac, idle_gap):
    """(cycle, request) pairs over a small line pool, with idle gaps."""
    mapper = AddressMapper(geometry, channels=1)
    pool = [rng.randrange(0, 1 << 18) for _ in range(24)]
    out, t = [], 0
    for _ in range(n):
        t += rng.choice((0, 0, 1, 3, 20)) if rng.random() > 0.03 else idle_gap
        line = rng.choice(pool)
        req = MemoryRequest(address=line * 64,
                            is_write=rng.random() < write_frac,
                            line_id=line)
        req.mapped = mapper.map(req.address)
        out.append((t, req))
    return out


def _drive(mc, arrivals, rng):
    """Run ``arrivals`` through ``mc``, checking the index throughout.

    When the queues are empty the driver may sleep straight to the next
    arrival past several refresh intervals, so debt reaches the urgent
    budget; otherwise it follows ``next_event`` (idle refresh).
    Returns how many drain flips, urgent-refresh steps and idle
    refreshes it saw.
    """
    now, i = 0, 0
    seen = {"drain_flips": 0, "urgent_steps": 0, "idle_refreshes": 0}
    while i < len(arrivals) or mc.has_pending:
        while (
            i < len(arrivals)
            and arrivals[i][0] <= now
            and mc.can_accept(arrivals[i][1].is_write)
        ):
            mc.enqueue(arrivals[i][1], now)
            i += 1
        draining = mc.draining_now
        _assert_index_matches_scan(mc, now)
        seen["drain_flips"] += mc.draining_now != draining
        mc.sync(now)
        urgent = mc.refresh.any_urgent()
        refreshes = mc.channel.refresh_count
        mc.step(now)
        seen["urgent_steps"] += urgent
        if not urgent and mc.channel.refresh_count > refreshes:
            seen["idle_refreshes"] += 1
        mc.drain_completions()
        _assert_index_matches_scan(mc, now)
        # A later-cycle repeat with the state unchanged.
        _assert_index_matches_scan(mc, now + rng.randrange(1, 40))
        nxt = mc.next_event(now)
        _assert_index_matches_scan(mc, now)
        times = [] if nxt is None else [nxt]
        if i < len(arrivals):
            if not mc.has_pending and rng.random() < 0.5:
                times = []  # sleep through any refresh wake-ups
            times.append(arrivals[i][0])
        now = max(now + 1, min(times)) if times else now + 1
    return seen


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    page_policy=st.sampled_from(["open", "closed"]),
    write_frac=st.sampled_from([0.1, 0.4, 0.7]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_index_matches_full_scan(shape, page_policy, write_frac, seed):
    timing, geometry = SHAPES[shape]
    mc = ChannelController(
        timing, geometry, keep_cmd_log=True, page_policy=page_policy,
        read_queue_size=16, write_queue_size=12, drain_high=10,
        drain_low=4,
    )
    rng = random.Random(seed)
    arrivals = _arrivals(rng, geometry, 160, write_frac,
                         idle_gap=10 * timing.REFI)
    _drive(mc, arrivals, rng)
    assert mc.audit() == []


def test_every_index_path_is_exercised():
    """One fixed schedule reaches refresh, drain flips and requeries."""
    timing, geometry = SHAPES["ddr4"]
    mc = ChannelController(
        timing, geometry, keep_cmd_log=True, page_policy="closed",
        read_queue_size=16, write_queue_size=12, drain_high=10,
        drain_low=4,
    )
    rng = random.Random(3)
    seen = _drive(
        mc, _arrivals(rng, geometry, 600, 0.4, 10 * timing.REFI), rng
    )
    assert mc.audit() == []
    assert seen["urgent_steps"] > 0
    assert seen["drain_flips"] > 0
    assert seen["idle_refreshes"] > 0
    assert mc.channel.auto_precharges > 0
    assert mc.sched_requeries > 0
    assert mc.sched_banks_rederived > 0


@pytest.mark.parametrize("system, channels", [
    ("ddr4-server", 4),
    ("lpddr3-mobile", 1),
])
def test_index_matches_full_scan_in_whole_system(
    system, channels, monkeypatch
):
    """Check at every step/next_event a real multi-channel run makes."""
    real_step = ChannelController.step
    real_next = ChannelController.next_event

    def step(self, now):
        _assert_index_matches_scan(self, now)
        return real_step(self, now)

    def next_event(self, now):
        _assert_index_matches_scan(self, now)
        return real_next(self, now)

    monkeypatch.setattr(ChannelController, "step", step)
    monkeypatch.setattr(ChannelController, "next_event", next_event)
    config = replace(SYSTEMS[system], channels=channels)
    trace = build_trace("GUPS", config, seed=5, accesses_per_core=40)
    result = simulate(trace, config, record_commands=True)
    assert result.stats["sched_banks_rederived"] > 0
    assert result.stats["sched_requeries"] > 0
    for mc in result.controllers:
        assert mc.audit() == []


def _reference_earliest(channel, cmd, rank, group, bank, now):
    """``earliest_issue`` derived straight from the raw registers."""
    t = channel.timing
    b = channel.bank(rank, group, bank)
    r = channel.ranks[rank]
    if cmd is CommandType.PRECHARGE:
        return max(now, b.next_pre)
    if cmd is CommandType.ACTIVATE:
        earliest = max(now, b.next_act, r.next_act, r.group_next_act[group])
        if len(r.act_history) >= 4:
            earliest = max(earliest, r.act_history[-4] + t.FAW)
        return earliest
    is_write = cmd is CommandType.WRITE
    if is_write:
        earliest = max(now, b.next_wr, r.next_wr, r.group_next_wr[group])
    else:
        earliest = max(now, b.next_rd, r.next_rd, r.group_next_rd[group])
    switch = channel.last_bus_rank is not None and (
        channel.last_bus_rank != rank
        or channel.last_bus_was_write != is_write
    )
    gap = t.RTRS if switch else 0
    latency = t.WL if is_write else t.CL
    return max(earliest, channel.bus_free_at + gap - latency)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_earliest_issue_decomposes(shape, seed):
    """earliest_issue == max(now, bank register, shared bound), always.

    Checked after every command against the registers themselves, so
    the channel's in-place shared-bound tables can never go stale.
    """
    timing, geometry = SHAPES[shape]
    registers = {
        CommandType.ACTIVATE: "next_act",
        CommandType.READ: "next_rd",
        CommandType.WRITE: "next_wr",
        CommandType.PRECHARGE: "next_pre",
    }
    rng = random.Random(seed)
    mc = ChannelController(timing, geometry, page_policy="closed")
    channel = mc.channel
    real_issue = channel.issue

    def issue(cmd, rank, group, bank, cycle, **kwargs):
        done = real_issue(cmd, rank, group, bank, cycle, **kwargs)
        now = cycle + rng.randrange(0, 60)
        for rank in range(geometry.ranks):
            for group in range(geometry.bank_groups):
                for bank in range(geometry.banks_per_group):
                    bstate = channel.bank(rank, group, bank)
                    for cmd, attr in registers.items():
                        shared = (
                            0 if cmd is CommandType.PRECHARGE
                            else channel.shared_issue_bounds(cmd)[rank][group]
                        )
                        want = _reference_earliest(
                            channel, cmd, rank, group, bank, now
                        )
                        assert channel.earliest_issue(
                            cmd, rank, group, bank, now
                        ) == want
                        assert max(now, getattr(bstate, attr), shared) == want
        return done

    channel.issue = issue
    _drive(mc, _arrivals(rng, geometry, 40, 0.4, 100), rng)
    assert channel.read_count and channel.write_count
