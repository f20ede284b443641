"""Full-scan FR-FCFS scheduling: the oracle behind the ready-time index.

First-Ready, First-Come-First-Served (Rixner et al., ISCA 2000; Table
2): among commands that can issue *now*, column commands to
already-open rows (row hits) win, oldest first; otherwise the scheduler
works on the oldest request's row, via ACTIVATE when the bank is closed
or PRECHARGE on a row conflict — but a conflicting row is never closed
while other queued requests still hit it, which is what makes the
policy "first-ready".

:class:`FRFCFSScheduler` is a pure function of (queue contents, channel
state, cycle) that rebuilds the whole candidate list on every call.
The production controller answers the same question from its
incremental ready-time index (``repro.controller.readyindex``);
:func:`full_scan` and :class:`FullScanController` are what the tests
hold it to.
"""

from __future__ import annotations

from repro.controller.controller import ChannelController
from repro.controller.readyindex import CandidateCommand
from repro.controller.request import MemoryRequest
from repro.dram.channel import DRAMChannel
from repro.dram.commands import CommandType

__all__ = ["FRFCFSScheduler", "FullScanController", "full_scan"]


class FRFCFSScheduler:
    """Builds and ranks candidate commands for one channel."""

    def __init__(self, channel: DRAMChannel):
        self.channel = channel

    def candidates(
        self,
        entries: list[MemoryRequest],
        now: int,
        bus_cycles_hint: int = 4,
    ) -> list[CandidateCommand]:
        """Candidate commands for ``entries`` (already oldest-first).

        ``bus_cycles_hint`` sizes the data-bus occupancy check for
        column commands; the coding policy may still shorten or extend
        the burst at issue time (only ever *up* to the hint, so the
        earliest-time computation stays conservative).
        """
        channel = self.channel
        earliest_issue = channel.earliest_issue
        banks = channel.banks
        out: list[CandidateCommand] = []
        read_cmd, write_cmd = CommandType.READ, CommandType.WRITE
        act_cmd, pre_cmd = CommandType.ACTIVATE, CommandType.PRECHARGE

        # Rows wanted per bank, to defer precharges while hits remain.
        open_rows_wanted: dict[tuple[int, int, int], set[int]] = {}
        conflicts: list = []
        banks_handled: set[tuple[int, int, int]] = set()

        for req in entries:
            m = req.mapped
            rank, group, bank_idx = m.rank, m.bank_group, m.bank
            open_row = banks[rank][group][bank_idx].open_row
            key = (rank, group, bank_idx)
            open_rows_wanted.setdefault(key, set()).add(m.row)

            if open_row == m.row:
                cmd = write_cmd if req.is_write else read_cmd
                out.append(
                    CandidateCommand(
                        cmd, rank, group, bank_idx, m.row,
                        earliest_issue(cmd, rank, group, bank_idx, now,
                                       bus_cycles_hint),
                        req,
                    )
                )
                continue

            if key in banks_handled:
                continue  # one row-management command per bank per pass
            banks_handled.add(key)

            if open_row is None:
                out.append(
                    CandidateCommand(
                        act_cmd, rank, group, bank_idx, m.row,
                        earliest_issue(act_cmd, rank, group, bank_idx, now),
                        req,
                    )
                )
            else:
                conflicts.append((key, open_row))

        # Row conflicts: close the row only once nothing queued still
        # hits it (first-ready preference).
        for (rank, group, bank_idx), open_row in conflicts:
            if open_row in open_rows_wanted[(rank, group, bank_idx)]:
                continue
            out.append(
                CandidateCommand(
                    pre_cmd, rank, group, bank_idx, open_row,
                    earliest_issue(pre_cmd, rank, group, bank_idx, now),
                    None,
                )
            )
        return out

    def pick(
        self, cands: list[CandidateCommand], now: int
    ) -> CandidateCommand | None:
        """Best candidate issueable exactly at ``now`` (or None).

        Ranking: ready column commands oldest-first, then ready
        ACT/PRE in the queue order the candidates were generated in
        (i.e. on behalf of the oldest requests).
        """
        ready = [c for c in cands if c.earliest <= now]
        if not ready:
            return None
        columns = [c for c in ready if c.cmd.is_column]
        if columns:
            return min(
                columns, key=lambda c: (c.request.arrival, c.request.serial)
            )
        return ready[0]

    @staticmethod
    def next_wakeup(cands: list[CandidateCommand]) -> int | None:
        """Earliest cycle any candidate becomes issueable."""
        if not cands:
            return None
        return min(c.earliest for c in cands)


def full_scan(mc: ChannelController, now: int):
    """``(pick, wake)`` for ``mc`` at ``now``, recomputed from scratch.

    Syncs the write-drain state first, exactly as the production
    ``_schedule_query`` does, then scans the active queue oldest-first.
    """
    mc._sync_drain(now)
    queue = mc.write_queue if mc.draining_now else mc.read_queue
    scheduler = FRFCFSScheduler(mc.channel)
    cands = scheduler.candidates(queue.oldest_first(), now)
    return scheduler.pick(cands, now), scheduler.next_wakeup(cands)


class FullScanController(ChannelController):
    """A controller with every scheduling-loop cache taken out.

    Each ``step``/``next_event`` query is a :func:`full_scan`, and the
    wake-time cache never answers: ``_wake_version`` reads -1, which no
    state version ever equals.  Tests run it beside the production
    controller and require byte-identical command logs.
    """

    _wake_version = property(lambda self: -1, lambda self, value: None)
    _schedule_query = full_scan
