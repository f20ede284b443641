"""Incremental per-bank ready-time index behind the FR-FCFS scheduler.

The paper's controller keeps readiness in per-bank, per-bank-group and
per-rank "earliest next" counters and reads them in parallel (Figure
11); it never re-derives them.  This index is the software form of that
design.  It rests on one exact identity of
:meth:`~repro.dram.channel.DRAMChannel.earliest_issue`::

    earliest_issue(cmd, r, g, b, now)
        == max(now, bank register, shared_issue_bounds(cmd)[r][g])

where the shared bound depends only on rank, bank-group and bus
registers, and PRECHARGE has no shared term at all.

Each bank contributes at most one candidate per queue direction, the
same reduction the full-scan :class:`~.frfcfs.FRFCFSScheduler` makes:

* kind 0 — column command for the oldest request hitting the open row,
  ordered by the FR-FCFS ``(arrival, serial)`` key;
* kind 1 — ACTIVATE on behalf of the bucket head (bank closed);
* kind 2 — PRECHARGE when nobody in the bucket wants the open row.

An entry stores its kind, its order key and its bank register.  It is
re-derived only when its bank is marked dirty (see :meth:`mark`,
:meth:`mark_both`, :meth:`mark_rank`).  Entries are grouped per (rank,
bank group) and kept sorted by key with the minimum bank register, so
a query reads the few shared bounds once and walks only the groups
that are ready.  The ready times a query derives depend on device and
queue state, not on the cycle, so a repeat at a later cycle with the
state unchanged is answered from them without recomputation
(:meth:`requery`).
"""

from __future__ import annotations

from operator import itemgetter

from ..dram.channel import DRAMChannel
from ..dram.commands import CommandType
from .frfcfs import CandidateCommand

__all__ = ["ReadyIndex"]

_COLUMN, _ACTIVATE, _PRECHARGE = 0, 1, 2
_order_key = itemgetter(0)
_ACT, _PRE = CommandType.ACTIVATE, CommandType.PRECHARGE
_READ, _WRITE = CommandType.READ, CommandType.WRITE


class ReadyIndex:
    """Per-direction ready-time index over one channel's bank buckets.

    Direction 0 indexes the read queue, direction 1 the write queue.
    The owner marks banks dirty on every state change and calls
    :meth:`query` with the active queue's bank buckets.
    """

    def __init__(self, channel: DRAMChannel):
        self.channel = channel
        geo = channel.geometry
        # The channel's live shared-bound tables, [rank][group].
        self._col_bounds = (
            channel.shared_issue_bounds(CommandType.READ),
            channel.shared_issue_bounds(CommandType.WRITE),
        )
        self._act_bounds = channel.shared_issue_bounds(CommandType.ACTIVATE)
        self._groups_per_rank = geo.bank_groups
        n_groups = geo.ranks * geo.bank_groups
        self._rank_keys = [
            [(rank, g, b) for g in range(geo.bank_groups)
             for b in range(geo.banks_per_group)]
            for rank in range(geo.ranks)
        ]
        # Per direction: banks awaiting re-derivation, per-group bank
        # entries (bank -> entry), per-group summaries, and the groups
        # that currently hold any entry.
        self._dirty = (set(), set())
        self._entries = tuple(
            [dict() for _ in range(n_groups)] for _ in range(2)
        )
        self._summary = tuple([None] * n_groups for _ in range(2))
        self._live: tuple = (set(), set())
        # The last query's per-group ready times, kept for requery():
        # (cols, acts, pres, wake) where each list holds one
        # (ready time, key-sorted entries) pair per group of that kind.
        self._view: tuple = ((), (), (), None)
        # Direction the stored view answers for; None once any mark
        # could have moved it.
        self._view_dir: bool | None = None
        self.banks_rederived = 0
        self.requeries = 0

    # ------------------------------------------------------------------
    # Dirty marking
    # ------------------------------------------------------------------
    def mark(self, is_write: bool, key: tuple) -> None:
        """A request entered ``key``'s bucket in one direction."""
        self._dirty[is_write].add(key)
        if is_write == self._view_dir:
            self._view_dir = None

    def mark_both(self, key: tuple) -> None:
        """A command issued to bank ``key``.

        The bank's registers and open row moved (auto-precharge
        included) and a column command left a bucket, so the bank is
        re-derived in both directions.  The shared bounds moved too, so
        the stored ready times are void.
        """
        self._dirty[0].add(key)
        self._dirty[1].add(key)
        self._view_dir = None

    def mark_rank(self, rank: int) -> None:
        """REFRESH moved every bank register of ``rank``."""
        keys = self._rank_keys[rank]
        self._dirty[0].update(keys)
        self._dirty[1].update(keys)
        self._view_dir = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, buckets: dict, is_write: bool, now: int):
        """``(pick, wake)`` at ``now`` over one direction's buckets.

        ``pick`` is the command FR-FCFS issues at ``now`` (or None) and
        ``wake`` the earliest cycle >= ``now`` any candidate is ready
        (None when the direction has no candidates), exactly as
        ``FRFCFSScheduler.pick``/``next_wakeup`` over the full scan.
        """
        if self._view_dir == is_write:
            # Nothing this direction reads has moved since the stored
            # ready times were derived (e.g. only the other queue grew).
            return self.requery(now)
        d = 1 if is_write else 0
        dirty = self._dirty[d]
        if dirty:
            self._rederive(d, buckets, dirty)
        col_bounds = self._col_bounds[d]
        act_bounds = self._act_bounds
        summary = self._summary[d]
        cols: list = []
        acts: list = []
        pres: list = []
        wake = None
        # A group's ready time per kind: max(min bank register, shared
        # bound); PRECHARGE has no shared term.
        for gi in self._live[d]:
            rank, group, g_cols, col_min, g_acts, act_min, g_pres, pre_min = (
                summary[gi]
            )
            if g_cols:
                ready = col_bounds[rank][group]
                if ready < col_min:
                    ready = col_min
                cols.append((ready, g_cols))
                if wake is None or ready < wake:
                    wake = ready
            if g_acts:
                ready = act_bounds[rank][group]
                if ready < act_min:
                    ready = act_min
                acts.append((ready, g_acts))
                if wake is None or ready < wake:
                    wake = ready
            if g_pres:
                pres.append((pre_min, g_pres))
                if wake is None or pre_min < wake:
                    wake = pre_min
        self._view = (cols, acts, pres, wake)
        self._view_dir = is_write
        return self._answer(now)

    def requery(self, now: int):
        """:meth:`query` again, from the stored ready times.

        Valid while no mark has touched the direction last queried:
        at a later cycle with the state unchanged, or after an enqueue
        into the other direction only.
        """
        self.requeries += 1
        return self._answer(now)

    def _answer(self, now: int):
        cols, acts, pres, wake = self._view
        if wake is None:
            return None, None
        if now < wake:
            return None, wake
        # A group whose ready time has passed has its shared bound
        # behind ``now``, so an entry in it is ready iff its own bank
        # register is; entries are key-sorted, so the first such entry
        # is the group's best.
        best = None
        for kind_view in (cols, acts, pres):
            for ready, entries in kind_view:
                if ready > now:
                    continue
                for entry in entries:
                    if entry[1] <= now:
                        if best is None or entry[0] < best[0]:
                            best = entry
                        break
            if best is not None:
                _, _, cmd, rank, group, bank, row, req = best
                return CandidateCommand(
                    cmd, rank, group, bank, row, now, req
                ), now
        return None, now

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _rederive(self, d: int, buckets: dict, dirty: set) -> None:
        """Re-derive every dirty bank of direction ``d``, then its groups."""
        banks = self.channel.banks
        entries = self._entries[d]
        per_rank = self._groups_per_rank
        col_cmd = _WRITE if d else _READ
        touched = set()
        for key in dirty:
            rank, group, bank = key
            gi = rank * per_rank + group
            touched.add(gi)
            bucket = buckets.get(key)
            if bucket is None:
                entries[gi].pop(bank, None)
                continue
            bstate = banks[rank][group][bank]
            open_row = bstate.open_row
            if open_row is None:
                head = bucket[0]
                entries[gi][bank] = (_ACTIVATE, (
                    head.queue_seq, bstate.next_act, _ACT,
                    rank, group, bank, head.mapped.row, head,
                ))
                continue
            best = None
            for req in bucket:
                if req.mapped.row == open_row and (
                    best is None
                    or req.arrival < best.arrival
                    or (req.arrival == best.arrival
                        and req.serial < best.serial)
                ):
                    best = req
            if best is not None:
                entries[gi][bank] = (_COLUMN, (
                    (best.arrival, best.serial),
                    bstate.next_wr if d else bstate.next_rd,
                    col_cmd, rank, group, bank, open_row, best,
                ))
            else:
                entries[gi][bank] = (_PRECHARGE, (
                    bucket[0].queue_seq, bstate.next_pre, _PRE,
                    rank, group, bank, open_row, None,
                ))
        self.banks_rederived += len(dirty)
        dirty.clear()
        summary = self._summary[d]
        live = self._live[d]
        for gi in touched:
            group_entries = entries[gi]
            if not group_entries:
                summary[gi] = None
                live.discard(gi)
                continue
            # [rank, group, cols, col_min, acts, act_min, pres, pre_min]:
            # per kind the key-sorted entries and their least register.
            row = [*divmod(gi, per_rank), None, 0, None, 0, None, 0]
            for kind, entry in group_entries.values():
                slot = 2 + 2 * kind
                items = row[slot]
                if items is None:
                    row[slot] = [entry]
                    row[slot + 1] = entry[1]
                else:
                    items.append(entry)
                    if entry[1] < row[slot + 1]:
                        row[slot + 1] = entry[1]
            for slot in (2, 4, 6):
                items = row[slot]
                if items is not None and len(items) > 1:
                    items.sort(key=_order_key)
            summary[gi] = row
            live.add(gi)
