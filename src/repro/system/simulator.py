"""Closed-loop timing simulation: cores + caches' residue + DRAM.

The simulator replays a :class:`~repro.workloads.trace.MemoryTrace`
against the two-channel memory system.  Each core is a small state
machine that honours, per record:

* **think time** — ``gap`` DRAM cycles of CPU work since its previous
  record;
* **memory-level parallelism** — at most ``config.mlp`` demand reads in
  flight;
* **dependences** — a record flagged ``dependent`` waits for the
  previous demand read's data (pointer chasing);
* **back-pressure** — writes are posted but stall the core when the
  write queue is full; prefetches are dropped instead of stalling.

Execution time is the cycle at which every demand access has completed,
which is how longer coded bursts turn into the Figure 16 performance
deltas.

The engine is event-driven: a cross-channel
:class:`~repro.system.events.EventQueue` holds completion times, core
arm times, and per-controller wakes, and the main loop jumps from one
populated cycle to the next — an idle channel is never polled while
another streams a burst.  The original lockstep loop (every core and
every controller visited at every global event time) is kept with the
tests as the equivalence oracle, ``tests/oracles/lockstep.py``: both
must produce byte-identical command logs (see DESIGN.md, "Event core").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..controller.controller import AlwaysScheme, ChannelController
from ..controller.request import MemoryRequest
from ..dram.address import AddressMapper
from ..workloads.trace import MemoryTrace
from .events import EventQueue
from .machine import SystemConfig

__all__ = ["SimulationResult", "simulate", "accrue_pending_cycles"]


@dataclass
class SimulationResult:
    """Outputs of one benchmark x system x policy run."""

    name: str
    system: str
    policy: str
    cycles: int  # execution time in DRAM cycles
    controllers: list  # the ChannelControllers (logs, counters)
    pending_cycles: list  # per channel: cycles with queued requests
    demand_reads: int = 0
    read_latency_sum: int = 0
    dropped_prefetches: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        clock_hz = self.controllers[0].timing.clock_ghz * 1e9
        return self.cycles / clock_hz

    @property
    def mean_read_latency(self) -> float:
        if not self.demand_reads:
            return 0.0
        return self.read_latency_sum / self.demand_reads

    @property
    def scheme_counts(self) -> dict:
        merged: dict[str, int] = {}
        for mc in self.controllers:
            for scheme, count in mc.scheme_counts.items():
                merged[scheme] = merged.get(scheme, 0) + count
        return merged

    def transactions(self):
        """All data-bus transactions across channels."""
        for mc in self.controllers:
            yield from mc.channel.transactions

    @property
    def bus_utilization(self) -> float:
        busy = sum(mc.channel.busy_cycles for mc in self.controllers)
        return busy / (self.cycles * len(self.controllers)) if self.cycles else 0.0


class _CoreState:
    """Progress of one core through its trace."""

    __slots__ = (
        "records", "index", "earliest", "outstanding",
        "wait_completion_of", "last_demand_read",
    )

    def __init__(self, records):
        self.records = records
        self.index = 0
        self.earliest = 0  # earliest cycle the next record may issue
        self.outstanding = 0  # in-flight demand reads
        self.wait_completion_of: int | None = None  # request serial
        self.last_demand_read: MemoryRequest | None = None

    @property
    def done(self) -> bool:
        return self.index >= len(self.records)


def accrue_pending_cycles(controllers, pending_cycles, now, nxt) -> None:
    """Charge the jump ``now -> nxt`` to each channel's pending counter.

    "Pending" in the Figure 5 sense: work queued *or* a burst still
    streaming on the data bus.  A channel with queued requests is
    pending for the whole jump; an empty channel whose last burst's
    data tail extends past ``now`` is pending until the tail ends
    (clipped to ``nxt``).  The accrual telescopes: splitting a jump at
    any intermediate event-free cycle charges the same total, which is
    what lets the event heap visit fewer cycles than the lockstep loop
    without changing the counters.
    """
    for ch, mc in enumerate(controllers):
        if mc.has_pending:
            pending_cycles[ch] += nxt - now
        else:
            bus_free_at = mc.channel.bus_free_at
            if bus_free_at > now:
                pending_cycles[ch] += min(nxt, bus_free_at) - now


class _SimCore:
    """The simulation engine: cores, controllers, and the event loop.

    All mutable loop state lives in slots; the hot methods bind their
    attributes to locals once per call.  :meth:`run_event` (the
    cross-channel event heap) drives the state-transition methods; the
    lockstep oracle in ``tests/oracles/lockstep.py`` drives the same
    methods with the original advance-everything loop.
    """

    __slots__ = (
        "cores", "controllers", "mapper", "mlp", "address_mask",
        "inflight", "pending_cycles",
        "demand_reads", "read_latency_sum", "dropped_prefetches",
        "last_completion", "now", "events", "waiters", "done_cores",
    )

    def __init__(self, trace, config, controllers, mapper):
        self.cores = [_CoreState(recs) for recs in trace.records_by_core]
        self.controllers = controllers
        self.mapper = mapper
        self.mlp = config.mlp
        self.address_mask = mapper.capacity_bytes - 1
        self.inflight: dict[int, tuple[MemoryRequest, int]] = {}
        self.pending_cycles = [0] * config.channels
        self.demand_reads = 0
        self.read_latency_sum = 0
        self.dropped_prefetches = 0
        self.last_completion = 0
        self.now = 0
        self.events: EventQueue | None = None
        # Cores stalled on a full transaction queue, per channel; woken
        # when that channel's controller issues (the only event that can
        # free a slot).
        self.waiters: list[set] = [set() for _ in range(config.channels)]
        # Cores with empty traces are born done; _arm_next counts the
        # rest exactly once, when their index first passes the end.
        self.done_cores = sum(1 for core in self.cores if not core.records)

    # ------------------------------------------------------------------
    # Core-side transitions (shared with the lockstep oracle)
    # ------------------------------------------------------------------
    def _issue_from_core(self, core_id: int, core: _CoreState, now: int,
                         dirty) -> bool:
        """Try to issue the core's next record; True on progress.

        ``dirty`` is a set collecting the channels enqueued into this
        round (the event driver steps exactly those; the lockstep
        oracle passes a throwaway).
        """
        rec = core.records[core.index]
        if now < core.earliest:
            return False
        if rec.dependent and core.wait_completion_of is not None:
            return False
        if not rec.is_write and not rec.is_prefetch:
            if core.outstanding >= self.mlp:
                return False
        address = rec.address & self.address_mask
        mapped = self.mapper.map(address)
        mc = self.controllers[mapped.channel]
        if rec.is_prefetch:
            if not mc.can_accept(False):
                self.dropped_prefetches += 1
                core.index += 1
                self._arm_next(core, now)
                return True
        elif not mc.can_accept(rec.is_write):
            return False

        request = MemoryRequest(
            address=address,
            is_write=rec.is_write,
            core=core_id,
            line_id=rec.line_id,
            is_prefetch=rec.is_prefetch,
        )
        request.mapped = mapped
        mc.enqueue(request, now)
        dirty.add(mapped.channel)
        if request.completed:
            # Forwarded from the write queue: done instantly.
            pass
        elif not rec.is_write and not rec.is_prefetch:
            core.outstanding += 1
            self.inflight[request.serial] = (request, core_id)
            core.last_demand_read = request
        core.index += 1
        self._arm_next(core, now)
        return True

    def _arm_next(self, core: _CoreState, now: int) -> None:
        """Set earliest-issue constraints for the core's next record."""
        if core.index >= len(core.records):
            self.done_cores += 1
            return
        nxt = core.records[core.index]
        core.earliest = now + nxt.gap
        if nxt.dependent and core.last_demand_read is not None:
            if core.last_demand_read.completed:
                core.wait_completion_of = None
                core.earliest = max(
                    core.earliest,
                    core.last_demand_read.finish_cycle + nxt.gap,
                )
            else:
                core.wait_completion_of = core.last_demand_read.serial
        else:
            core.wait_completion_of = None

    def _drive_core(self, core_id: int, now: int, dirty) -> None:
        """Issue as much as the core can, then schedule its wake-up.

        The block classification mirrors the lockstep loop's candidate
        rules: a core waiting on a completion (dependence or MLP) is
        woken by the completion retire; a core inside its think time is
        armed in the event queue; a core stalled on a full queue waits
        on that channel's next issued command.
        """
        core = self.cores[core_id]
        records = core.records
        if core.index >= len(records):
            return
        while core.index < len(records) and self._issue_from_core(
            core_id, core, now, dirty
        ):
            pass
        if core.index >= len(records):
            return
        if core.wait_completion_of is not None:
            return  # the completion event wakes this core
        rec = records[core.index]
        if not rec.is_write and not rec.is_prefetch:
            if core.outstanding >= self.mlp:
                return  # a completion will free an MLP slot
        if core.earliest > now:
            self.events.push_core(core_id, core.earliest)
            return
        # Ready but blocked on queue capacity: wake on the next command
        # issued by the channel the stalled record maps to.
        mapped = self.mapper.map(rec.address & self.address_mask)
        self.waiters[mapped.channel].add(core_id)

    def _retire_completions(self, serials, freed) -> None:
        """Retire finished demand reads; collect their cores in ``freed``."""
        inflight = self.inflight
        cores = self.cores
        for serial in serials:
            request, core_id = inflight.pop(serial)
            core = cores[core_id]
            core.outstanding -= 1
            if core.wait_completion_of == serial:
                core.wait_completion_of = None
                # The dependent record's think time starts when the data
                # arrives, not when the load issued.
                if core.index < len(core.records):
                    gap = core.records[core.index].gap
                    core.earliest = max(
                        core.earliest, request.finish_cycle + gap
                    )
            freed.add(core_id)

    def _collect_completions(self, mc, push) -> None:
        """Fold one controller's completed requests into the bookkeeping.

        ``push(finish, serial)`` schedules the retire — an event push
        for the event driver, a heap push for the lockstep oracle.
        """
        for request in mc.drain_completions():
            finish = request.finish_cycle
            if finish > self.last_completion:
                self.last_completion = finish
            if request.is_write or request.is_prefetch:
                continue
            self.demand_reads += 1
            self.read_latency_sum += request.queue_latency()
            if request.serial in self.inflight:
                push(finish, request.serial)

    def _finished(self) -> bool:
        return (
            self.done_cores >= len(self.cores)
            and not self.inflight
            and not any(mc.has_pending for mc in self.controllers)
        )

    def _deadlock(self) -> RuntimeError:
        return RuntimeError(
            f"simulation deadlocked at cycle {self.now} "
            f"({sum(c.done for c in self.cores)}/{len(self.cores)} cores done)"
        )

    # ------------------------------------------------------------------
    # Event-heap driver
    # ------------------------------------------------------------------
    def run_event(self, max_cycles: int) -> None:
        """Drive the simulation off the cross-channel event heap.

        Each round processes one populated cycle in the same phase
        order as the lockstep loop (retire, core issue, controller
        step, completion collection), but only touches the cores and
        controllers that have an event there — plus the controllers
        that received an enqueue this round, since an enqueue at ``t``
        can enable an issue at ``t``.
        """
        cores = self.cores
        controllers = self.controllers
        events = self.events = EventQueue(len(controllers), len(cores))
        waiters = self.waiters
        push = events.push_completion

        now = 0
        completions: list = []
        attempt = set(range(len(cores)))
        due = range(len(controllers))
        while now < max_cycles:
            # 1. Retire completions whose data arrives this cycle.
            if completions:
                self._retire_completions(completions, attempt)

            # 2. Let the woken cores push work into the controllers.
            dirty: set = set()
            for core_id in sorted(attempt):
                self._drive_core(core_id, now, dirty)

            # 3. One scheduling step per due-or-enqueued controller,
            #    then reschedule its wake.
            for ch in sorted(set(due) | dirty):
                mc = controllers[ch]
                if mc.step(now):
                    events.push_ctrl(ch, now + 1)
                    stalled = waiters[ch]
                    if stalled:
                        for core_id in stalled:
                            events.push_core(core_id, now + 1)
                        stalled.clear()
                else:
                    wake = mc.next_event(now)
                    if wake is None:
                        events.cancel_ctrl(ch)
                    else:
                        events.push_ctrl(ch, wake)
                # 4. Collect newly scheduled transfers.
                if mc.completed:
                    self._collect_completions(mc, push)

            if self._finished():
                break

            # 5. Jump to the next populated cycle.
            round_ = events.pop_round()
            if round_ is None:
                self.now = now
                raise self._deadlock()
            nxt, completions, armed, due = round_
            accrue_pending_cycles(
                controllers, self.pending_cycles, now, nxt
            )
            now = nxt
            attempt = set(armed)
        self.now = now


def simulate(
    trace: MemoryTrace,
    config: SystemConfig,
    policy_factory=None,
    max_cycles: int = 200_000_000,
    telemetry=None,
    record_commands: bool = False,
) -> SimulationResult:
    """Run ``trace`` on ``config`` under a coding policy.

    ``policy_factory()`` builds one policy per channel (default: the
    always-DBI baseline).  ``telemetry`` is an optional
    :class:`~repro.telemetry.session.TelemetrySession`; when given, one
    probe per channel is wired into the controller, its DRAM channel,
    and its policy (the default ``None`` leaves the fast path exactly as
    it was).  ``record_commands`` makes every channel keep the full
    per-command log the protocol audit layer replays (off by default:
    the log costs memory and buys nothing unless something audits it).
    Returns a :class:`SimulationResult`.
    """
    if policy_factory is None:
        policy_factory = lambda: AlwaysScheme("dbi")  # noqa: E731

    mapper = AddressMapper(
        config.geometry, config.channels,
        interleave=config.address_interleave,
    )
    controllers = [
        ChannelController(
            config.timing,
            config.geometry,
            policy=policy_factory(),
            read_queue_size=config.read_queue,
            write_queue_size=config.write_queue,
            drain_high=config.drain_high,
            drain_low=config.drain_low,
            keep_cmd_log=record_commands,
            page_policy=config.page_policy,
        )
        for _ in range(config.channels)
    ]
    if telemetry is not None:
        telemetry.cycle_ns = 1.0 / config.timing.clock_ghz
        for ch, mc in enumerate(controllers):
            mc.attach_probe(telemetry.channel_probe(ch))
    policy = controllers[0].policy
    policy_name = getattr(policy, "scheme", None) or type(policy).__name__

    engine = _SimCore(trace, config, controllers, mapper)
    engine.run_event(max_cycles)

    events = engine.events
    if telemetry is not None:
        telemetry.sim_probe().event_queue(events.pops, events.stale)

    cycles = max(engine.last_completion, engine.now)
    return SimulationResult(
        name=trace.name,
        system=config.name,
        policy=policy_name,
        cycles=cycles,
        controllers=controllers,
        pending_cycles=engine.pending_cycles,
        demand_reads=engine.demand_reads,
        read_latency_sum=engine.read_latency_sum,
        dropped_prefetches=engine.dropped_prefetches,
        stats={
            "trace_records": trace.total_records,
            "forwarded_reads": sum(mc.forwarded_reads for mc in controllers),
            "coalesced_writes": sum(mc.coalesced_writes for mc in controllers),
            "event_queue_pops": events.pops,
            "event_queue_stale": events.stale,
            "sched_banks_rederived": sum(
                mc.sched_banks_rederived for mc in controllers
            ),
            "sched_requeries": sum(mc.sched_requeries for mc in controllers),
        },
    )
