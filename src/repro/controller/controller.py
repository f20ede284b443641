"""The channel controller: queues, FR-FCFS, write drain, refresh, MiL hook.

This is the event-driven engine that owns one :class:`DRAMChannel`.  It
advances in DRAM cycles but never busy-waits: :meth:`next_event` reports
the earliest future cycle at which anything could change, and the system
simulator jumps straight there.

The MiL framework plugs in through a *coding policy* object with two
members (duck-typed to avoid a dependency cycle with ``repro.core``):

``extra_cl``
    Codec cycles folded into tCL/tWL for the whole run (Section 7.1).
``choose(controller, request, now)``
    Called when a column command is being issued; returns the coding
    scheme name, which fixes the burst length for that transaction.

The baseline :class:`AlwaysScheme` policy always answers ``"dbi"``.
"""

from __future__ import annotations

import os

from ..coding.registry import scheme_info
from ..dram.channel import DRAMChannel
from ..dram.commands import CommandType, Geometry
from ..dram.refresh import RefreshScheduler
from ..dram.timing import TimingParams
from .frfcfs import FRFCFSScheduler
from .queues import TransactionQueue
from .readyindex import ReadyIndex
from .request import MemoryRequest
from .writedrain import WriteDrainPolicy

__all__ = ["AlwaysScheme", "ChannelController", "NO_EVENT_CACHE_ENV"]

# Kill switch for the scheduling-loop caches (the ready-time index and
# the wake-time cache).  Both follow every state change (enqueue,
# issue, refresh, drain flip), so disabling them must never alter a
# single issued command — tests/controller/test_event_cache.py holds
# the two modes to byte-identical, auditor-clean command logs.
NO_EVENT_CACHE_ENV = "REPRO_NO_EVENT_CACHE"


def _event_cache_enabled() -> bool:
    return os.environ.get(NO_EVENT_CACHE_ENV, "") not in ("1", "true", "yes")


class AlwaysScheme:
    """Fixed-scheme coding policy (baseline DBI, or Figure 20 sweeps)."""

    probe = None  # telemetry slot; set by ChannelController.attach_probe

    def __init__(self, scheme: str = "dbi", extra_cl: int | None = None):
        info = scheme_info(scheme)
        self.scheme = scheme
        self.extra_cl = info.extra_latency if extra_cl is None else extra_cl

    def choose(self, controller: "ChannelController", request, now: int) -> str:
        if self.probe is not None:
            self.probe.decision(now, "fixed", self.scheme)
        return self.scheme

    @property
    def max_bus_cycles(self) -> int:
        return scheme_info(self.scheme).bus_cycles


class ChannelController:
    """Event-skipping memory controller for one channel."""

    def __init__(
        self,
        timing: TimingParams,
        geometry: Geometry,
        policy: AlwaysScheme | None = None,
        read_queue_size: int = 64,
        write_queue_size: int = 64,
        drain_high: int = 60,
        drain_low: int = 50,
        keep_log: bool = True,
        keep_cmd_log: bool = False,
        refresh_enabled: bool = True,
        page_policy: str = "open",
    ):
        if page_policy not in ("open", "closed"):
            raise ValueError("page_policy must be 'open' or 'closed'")
        self.page_policy = page_policy
        self.policy = policy if policy is not None else AlwaysScheme("dbi")
        self.timing = timing.with_extra_cl(self.policy.extra_cl)
        self.geometry = geometry
        self.channel = DRAMChannel(
            self.timing, geometry, keep_log=keep_log,
            keep_cmd_log=keep_cmd_log,
        )
        self.scheduler = FRFCFSScheduler(self.channel)
        self.refresh = (
            RefreshScheduler(self.timing, geometry.ranks)
            if refresh_enabled
            else None
        )
        self.read_queue = TransactionQueue(read_queue_size)
        self.write_queue = TransactionQueue(write_queue_size)
        self.drain = WriteDrainPolicy(drain_high, drain_low, write_queue_size)
        self.draining_now = False

        # Telemetry probe shared with the channel and the policy; None
        # (the default) leaves the fast path uninstrumented.
        self._probe = None

        self.completed: list[MemoryRequest] = []
        self.next_cmd_cycle = 0
        self.scheme_counts: dict[str, int] = {}
        self.forwarded_reads = 0
        self.coalesced_writes = 0

        # Ready-time index: one candidate per bank and direction,
        # re-derived only for banks marked dirty by an enqueue, an issue
        # or a refresh (see repro.controller.readyindex).  Every state
        # change also bumps ``_state_version``; a query at an unchanged
        # version is answered from the index's stored ready times.
        # REPRO_NO_EVENT_CACHE=1 recomputes everything every call via
        # the full-scan FRFCFSScheduler.candidates oracle, for A/B-ing
        # the index against the protocol auditor.
        self._cache_enabled = _event_cache_enabled()
        self._state_version = 0
        self._ready_index = ReadyIndex(self.channel)
        # (pick, wake) of the last query and the (state version, cycle)
        # it answered.
        self._sched_version = -1
        self._sched_now = -1
        self._sched_pick = None
        self._sched_wake: int | None = None
        # Wake cache: nothing can happen before this absolute cycle
        # unless the state version changes (new request, command issued).
        self._wake_version = -1
        self._wake_time: int | None = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_probe(self, probe) -> None:
        """Wire one :class:`~repro.telemetry.probes.ChannelProbe` in.

        Called once by the simulator when a telemetry session is active;
        the same probe serves the controller's own sites, the DRAM
        channel's command/bus sites, and the coding policy's decision
        sites (policies without a ``probe`` slot simply never call it).
        """
        self._probe = probe
        self.channel.probe = probe
        if hasattr(self.policy, "probe"):
            self.policy.probe = probe

    # ------------------------------------------------------------------
    # Protocol audit
    # ------------------------------------------------------------------
    def audit(self):
        """Replay this controller's logs through the independent auditor.

        Requires ``keep_cmd_log=True``; returns the list of
        :class:`~repro.audit.protocol.Violation` (empty == clean).  The
        auditor gets the controller's *effective* timing (codec latency
        folded in), matching what the channel enforced.
        """
        from ..audit.protocol import ProtocolAuditor

        return ProtocolAuditor(self.timing, self.geometry).audit(
            self.channel.command_log, self.channel.transactions
        )

    # ------------------------------------------------------------------
    # Front end
    # ------------------------------------------------------------------
    @property
    def has_pending(self) -> bool:
        """True when any transaction is queued (the Figure 5 predicate)."""
        return len(self.read_queue) > 0 or len(self.write_queue) > 0

    def can_accept(self, is_write: bool) -> bool:
        """Back-pressure check used by the LLC/core model."""
        queue = self.write_queue if is_write else self.read_queue
        return not queue.full

    def enqueue(self, request: MemoryRequest, now: int) -> None:
        """Accept a request at cycle ``now``.

        Reads that hit the write queue are forwarded and complete
        immediately; writes coalesce with queued writes to the same
        line.  Callers must respect :meth:`can_accept`.
        """
        if request.mapped is None:
            raise ValueError("request must be address-mapped before enqueue")
        request.arrival = now
        self._state_version += 1
        if self._probe is not None:
            self._probe.enqueue(len(self.read_queue), len(self.write_queue))
        m = request.mapped
        key = (m.rank, m.bank_group, m.bank)
        if request.is_write:
            took_slot = self.write_queue.push(request, coalesce=True)
            if took_slot:
                self._ready_index.mark(True, key)
            else:
                self.coalesced_writes += 1
            return
        hit = self.write_queue.find(request.address)
        if hit is not None:
            request.issue_cycle = now
            request.finish_cycle = now
            request.scheme = "forwarded"
            self.forwarded_reads += 1
            self.completed.append(request)
            return
        self.read_queue.push(request)
        self._ready_index.mark(False, key)

    def drain_completions(self) -> list[MemoryRequest]:
        """Hand completed requests to the caller and clear the list."""
        done, self.completed = self.completed, []
        return done

    # ------------------------------------------------------------------
    # MiL decision-logic support (the Figure 11 rdyX computation)
    # ------------------------------------------------------------------
    def column_ready_within(
        self,
        now: int,
        window: int,
        exclude: MemoryRequest | None = None,
        include_prefetches: bool = False,
        reads_only: bool = False,
    ) -> int:
        """Count queued column commands ready within ``window`` cycles.

        This is the software analogue of the rdyX comparator tree:
        a queued request contributes when its target row is open and all
        its timing counters will reach zero within ``window`` cycles.

        Prefetches are excluded by default: the controller knows which
        queue entries are prefetches, and postponing one by a few cycles
        cannot stall any core, so counting them would only veto long
        coded bursts for no benefit (a refinement over the paper's
        prefetch-blind comparator tree; see DESIGN.md).
        """
        count = 0
        horizon = now + window
        banks = self.channel.banks
        queues = (
            (self.read_queue, self.write_queue)
            if self.draining_now
            else (self.read_queue,)
        )
        for queue in queues:
            is_write_q = queue is self.write_queue
            shared = self.channel.shared_issue_bounds(
                CommandType.WRITE if is_write_q else CommandType.READ
            )
            for key, bucket in queue.bank_buckets().items():
                rank, group, bank = key
                bstate = banks[rank][group][bank]
                open_row = bstate.open_row
                if open_row is None:
                    continue
                # All hits in one bank share the same command timing:
                # max(bank register, shared bound), read lazily on the
                # first hit (the earliest_issue split).
                ready = None
                for req in bucket:
                    if req.mapped.row != open_row:
                        continue
                    if req is exclude:
                        continue
                    if req.is_prefetch and not include_prefetches:
                        continue
                    if reads_only and req.is_write:
                        continue
                    if ready is None:
                        own = bstate.next_wr if is_write_q else bstate.next_rd
                        ready = max(now, own, shared[rank][group]) <= horizon
                    if ready:
                        count += 1
        return count

    def _row_has_more_hits(self, request: MemoryRequest) -> bool:
        """Does any other queued request still want this open row?

        Under the closed-page policy a column command auto-precharges
        unless a queued sibling would hit the same row.
        """
        m = request.mapped
        for queue in (self.read_queue, self.write_queue):
            sibling = None
            for req in queue:
                if req is request:
                    continue
                rm = req.mapped
                if (
                    rm.rank == m.rank
                    and rm.bank_group == m.bank_group
                    and rm.bank == m.bank
                    and rm.row == m.row
                ):
                    sibling = req
                    break
            if sibling is not None:
                return True
        return False

    # ------------------------------------------------------------------
    # Scheduling engine
    # ------------------------------------------------------------------
    def _urgent_refresh_action(self, now: int):
        """(cmd, rank, group, bank, earliest) for overdue refresh, or None."""
        if self.refresh is None or not self.refresh.any_urgent():
            return None
        for rank in range(self.geometry.ranks):
            if not self.refresh.urgent(rank):
                continue
            # Close any open bank, oldest constraint first.  The channel
            # scans only its open-bank set, in the same (group, bank)
            # order the old exhaustive loop used.
            best = self.channel.earliest_any_issue(
                CommandType.PRECHARGE, rank, now
            )
            if best is not None:
                earliest, g, b = best
                return (CommandType.PRECHARGE, rank, g, b, earliest)
            earliest = self.channel.earliest_issue(
                CommandType.REFRESH, rank, 0, 0, now
            )
            return (CommandType.REFRESH, rank, 0, 0, earliest)
        return None

    def _idle_refresh_action(self, now: int):
        """Opportunistic refresh when no transactions are pending."""
        if self.refresh is None or self.has_pending:
            return None
        if not self.refresh.any_debt():
            return None
        for rank in self.refresh.pending_ranks():
            if not self.channel.all_banks_closed(rank):
                best = self.channel.earliest_any_issue(
                    CommandType.PRECHARGE, rank, now
                )
                if best is None:
                    return None
                earliest, g, b = best
                return (CommandType.PRECHARGE, rank, g, b, earliest)
            earliest = self.channel.earliest_issue(
                CommandType.REFRESH, rank, 0, 0, now
            )
            return (CommandType.REFRESH, rank, 0, 0, earliest)
        return None

    def _sync_drain(self, now: int) -> None:
        """Advance the write-drain hysteresis from current queue depths.

        Idempotent for fixed queue lengths, so it only needs to run
        when the state version moved (every push/pop changes a length
        and bumps the version).
        """
        draining = self.drain.update(
            len(self.write_queue), len(self.read_queue)
        )
        if draining != self.draining_now:
            self.draining_now = draining
            self._state_version += 1
            if self._probe is not None:
                self._probe.drain_transition(now, draining)

    def _active_entries(self, now: int) -> list[MemoryRequest]:
        self._sync_drain(now)
        queue = self.write_queue if self.draining_now else self.read_queue
        return queue.oldest_first()

    def _candidates(self, now: int) -> list:
        """Full-scan FR-FCFS candidate list (the oracle path)."""
        return self.scheduler.candidates(self._active_entries(now), now)

    def _schedule_query(self, now: int):
        """``(pick, wake)`` for cycle ``now`` from the ready-time index.

        Equivalent to ``scheduler.pick(self._candidates(now), now)``
        plus ``scheduler.next_wakeup(...)``.  Memoised per (state
        version, cycle), so ``step`` and ``next_event`` at the same
        cycle share one answer; at a later cycle with the version
        unchanged the index answers from its stored ready times.
        """
        if self._sched_version == self._state_version:
            if self._sched_now == now:
                return self._sched_pick, self._sched_wake
            pick, wake = self._ready_index.requery(now)
        else:
            self._sync_drain(now)
            queue = self.write_queue if self.draining_now else self.read_queue
            pick, wake = self._ready_index.query(
                queue.bank_buckets(), self.draining_now, now
            )
            self._sched_version = self._state_version
        self._sched_now = now
        self._sched_pick = pick
        self._sched_wake = wake
        return pick, wake

    @property
    def sched_banks_rederived(self) -> int:
        """Per-bank index entries re-derived so far (dirty banks)."""
        return self._ready_index.banks_rederived

    @property
    def sched_requeries(self) -> int:
        """Queries answered from stored ready times, not recomputed.

        A repeat at a later cycle with the state unchanged, or a query
        after a change only the inactive queue direction sees.
        """
        return self._ready_index.requeries

    def sync(self, now: int) -> None:
        """Fold elapsed wall time into mutable bookkeeping.

        The one sanctioned mutation point for refresh debt:
        :meth:`step` calls this before scheduling, so :meth:`next_event`
        can stay a pure query (see the purity contract in DESIGN.md).
        """
        if self.refresh is not None:
            self.refresh.accrue(now)

    def step(self, now: int) -> bool:
        """Issue at most one command at cycle ``now``; True if issued."""
        if now < self.next_cmd_cycle:
            return False
        if (
            self._cache_enabled
            and self._wake_version == self._state_version
            and self._wake_time is not None
            and now < self._wake_time
        ):
            return False  # provably nothing to do yet
        self.sync(now)

        action = self._urgent_refresh_action(now)
        if action is not None:
            cmd, rank, group, bank, earliest = action
            if earliest > now:
                return False
            self._issue_refresh_action(cmd, rank, group, bank, now)
            return True

        if self._cache_enabled:
            pick, _ = self._schedule_query(now)
        else:
            pick = self.scheduler.pick(self._candidates(now), now)

        if pick is None:
            action = self._idle_refresh_action(now)
            if action is not None:
                cmd, rank, group, bank, earliest = action
                if earliest <= now:
                    self._issue_refresh_action(cmd, rank, group, bank, now)
                    return True
            return False

        if pick.cmd.is_column:
            req = pick.request
            scheme = self.policy.choose(self, req, now)
            fmt = scheme_info(scheme)
            auto_pre = (
                self.page_policy == "closed"
                and not self._row_has_more_hits(req)
            )
            data_end = self.channel.issue(
                pick.cmd, pick.rank, pick.group, pick.bank, now,
                bus_cycles=fmt.bus_cycles, scheme=scheme,
                request_id=req.line_id, auto_precharge=auto_pre,
            )
            req.issue_cycle = now
            req.finish_cycle = data_end
            req.scheme = scheme
            queue = self.write_queue if req.is_write else self.read_queue
            queue.remove(req)
            self.completed.append(req)
            self.scheme_counts[scheme] = self.scheme_counts.get(scheme, 0) + 1
        else:
            self.channel.issue(
                pick.cmd, pick.rank, pick.group, pick.bank, now, row=pick.row
            )
        self._ready_index.mark_both((pick.rank, pick.group, pick.bank))
        self._state_version += 1
        self.next_cmd_cycle = now + 1
        return True

    def _issue_refresh_action(self, cmd, rank, group, bank, now) -> None:
        """Issue a refresh-path PRECHARGE or REFRESH at ``now``."""
        self.channel.issue(cmd, rank, group, bank, now)
        if cmd is CommandType.REFRESH:
            self.refresh.paid(rank)
            self._ready_index.mark_rank(rank)
        else:
            self._ready_index.mark_both((rank, group, bank))
        self._state_version += 1
        self.next_cmd_cycle = now + 1

    def next_event(self, now: int) -> int | None:
        """Earliest cycle > ``now`` worth calling :meth:`step` at.

        ``None`` means nothing will ever happen without new requests
        (queues empty and refresh disabled).

        Pure query: repeated calls at the same ``now`` return the same
        value and mutate nothing (refresh debt accrual happens in
        :meth:`step` via :meth:`sync`).  If refresh intervals have
        elapsed since the last ``step``, ``refresh.next_event()`` is
        simply in the past and the ``now + 1`` floor wakes the caller
        immediately, so no refresh is ever missed.
        """
        floor = max(now + 1, self.next_cmd_cycle)
        if (
            self._cache_enabled
            and self._wake_version == self._state_version
            and self._wake_time is not None
            and now < self._wake_time
        ):
            return max(floor, self._wake_time)

        times: list[int] = []
        if self.refresh is not None:
            times.append(self.refresh.next_event())
            action = self._urgent_refresh_action(now)
            if action is None and not self.has_pending:
                action = self._idle_refresh_action(now)
            if action is not None:
                times.append(action[4])
        if self.has_pending:
            if self._cache_enabled:
                _, wake = self._schedule_query(now)
            else:
                wake = self.scheduler.next_wakeup(self._candidates(now))
            if wake is not None:
                times.append(wake)
        if not times:
            self._wake_version = self._state_version
            self._wake_time = None
            return None
        wake = min(times)
        self._wake_version = self._state_version
        self._wake_time = wake
        return max(floor, wake)
