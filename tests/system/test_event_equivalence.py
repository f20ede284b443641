"""The event-heap driver must be invisible in every observable.

The lockstep oracle (``tests/oracles/lockstep.py``) runs the original
advance-everything loop with the controller recomputing its FR-FCFS
candidates from scratch each call.  ``simulate`` runs the
cross-channel event heap over the incremental ready-time index.  These
tests randomize the workload, the system shape (channels, ranks, page
policy, policy family, seed) and hold the pair to *byte identity*:
same command log, same data-bus transactions, same cycle counts, same
pending accrual — with the independent protocol auditor signing off on
the logs.  This is the oracle the whole event-core rebuild rides
behind (see DESIGN.md, "Event core").
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import ProtocolAuditor
from repro.controller import ChannelController
from repro.system.machine import SYSTEMS
from repro.system.simulator import simulate
from repro.workloads.benchmarks import build_trace
from tests.oracles.fullscan import FullScanController
from tests.oracles.lockstep import simulate_lockstep


def _simulate(name, config, seed, accesses, oracle):
    trace = build_trace(name, config, seed=seed, accesses_per_core=accesses)
    run = simulate_lockstep if oracle else simulate
    return run(trace, config, record_commands=True)


def _assert_byte_identical(cached, oracle, config):
    assert cached.cycles == oracle.cycles
    assert cached.pending_cycles == oracle.pending_cycles
    assert cached.demand_reads == oracle.demand_reads
    assert cached.read_latency_sum == oracle.read_latency_sum
    auditor = ProtocolAuditor(config.timing, config.geometry)
    for a, b in zip(cached.controllers, oracle.controllers):
        assert a.channel.command_log == b.channel.command_log
        assert a.channel.transactions == b.channel.transactions
        assert auditor.check(a.channel.command_log) == []


# Small scales keep each example fast; the grid still spans channels,
# benchmarks, policies, and seeds, and each example runs two full sims.
GRID = dict(
    bench=st.sampled_from(["GUPS", "CG", "MG"]),
    channels=st.sampled_from([1, 2, 4]),
    page_policy=st.sampled_from(["open", "closed"]),
    seed=st.integers(min_value=0, max_value=2**16),
    accesses=st.integers(min_value=8, max_value=48),
)


class TestEventHeapEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(**GRID)
    def test_byte_identical_on_random_shapes(
        self, bench, channels, page_policy, seed, accesses
    ):
        config = replace(
            SYSTEMS["ddr4-server"], channels=channels,
            page_policy=page_policy,
        )
        cached = _simulate(bench, config, seed, accesses, False)
        oracle = _simulate(bench, config, seed, accesses, True)
        _assert_byte_identical(cached, oracle, config)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_byte_identical_on_mobile_machine(self, seed):
        config = SYSTEMS["lpddr3-mobile"]
        cached = _simulate("GUPS", config, seed, 32, False)
        oracle = _simulate("GUPS", config, seed, 32, True)
        _assert_byte_identical(cached, oracle, config)


class TestHeapCounters:
    def test_event_queue_is_exercised_and_laziness_observable(self):
        """A real run pops events and discards some stale entries.

        Superseded controller wakes stay in the heap until popped;
        a multi-channel run with enough traffic must both pop (the
        heap is the driver) and discard (invalidation is lazy, the
        design the ``pops``/``stale`` probe pair exists to watch).
        """
        config = SYSTEMS["ddr4-server"]
        trace = build_trace("GUPS", config, seed=7, accesses_per_core=120)
        result = simulate(trace, config)
        assert result.stats["event_queue_pops"] > 0
        assert result.stats["event_queue_stale"] > 0
        assert (
            result.stats["event_queue_stale"]
            < result.stats["event_queue_pops"]
        )

    def test_lockstep_oracle_reports_zero_heap_activity(self):
        config = SYSTEMS["ddr4-server"]
        trace = build_trace("GUPS", config, seed=7, accesses_per_core=24)
        result = simulate_lockstep(trace, config)
        assert result.stats["event_queue_pops"] == 0
        assert result.stats["event_queue_stale"] == 0
        # The full-scan controllers really ran: no index was consulted.
        assert all(
            type(mc) is FullScanController for mc in result.controllers
        )
        assert result.stats["sched_banks_rederived"] == 0
        # Outside the oracle, simulate is the production pair again.
        result = simulate(trace, config)
        assert all(
            type(mc) is ChannelController for mc in result.controllers
        )
        assert result.stats["event_queue_pops"] > 0
