"""Gate: the ready-time index keeps the scheduler off ``earliest_issue``.

The FR-FCFS scheduler used to re-derive every bank's readiness through
``DRAMChannel.earliest_issue`` on each query.  The ready-time index
(see DESIGN.md, "Event core") reads stored bank registers and the
channel's shared-bound tables instead, so the remaining calls are the
channel's own legality check at issue plus the refresh paths.

Call counts are exact and host-independent, unlike the timed event-core
gate next to this one.  On the ``sim.run_spec.gups`` kernel the
per-bank memo it replaced made 18,249 ``earliest_issue`` calls for
1,861 issued commands (9.81 per command); the gate allows at most a
third of that.  The index measures 1.00 per command.
"""

from repro.bench import get
from repro.dram.channel import DRAMChannel

BEFORE_INDEX_PER_COMMAND = 18_249 / 1_861  # 9.81
MAX_PER_COMMAND = BEFORE_INDEX_PER_COMMAND / 3  # 3.27


def test_earliest_issue_calls_per_command(monkeypatch):
    kernel = get("sim.run_spec.gups").build()
    calls = {"earliest_issue": 0, "issue": 0}
    real_earliest = DRAMChannel.earliest_issue
    real_issue = DRAMChannel.issue

    def earliest_issue(self, *args, **kwargs):
        calls["earliest_issue"] += 1
        return real_earliest(self, *args, **kwargs)

    def issue(self, *args, **kwargs):
        calls["issue"] += 1
        return real_issue(self, *args, **kwargs)

    monkeypatch.setattr(DRAMChannel, "earliest_issue", earliest_issue)
    monkeypatch.setattr(DRAMChannel, "issue", issue)
    kernel()

    assert calls["issue"] == 1_861  # same schedule as before the index
    per_command = calls["earliest_issue"] / calls["issue"]
    assert per_command <= MAX_PER_COMMAND, (
        f"{per_command:.2f} earliest_issue calls per command; the gate "
        f"is {MAX_PER_COMMAND:.2f} (a third of the "
        f"{BEFORE_INDEX_PER_COMMAND:.2f} before the ready-time index)"
    )
