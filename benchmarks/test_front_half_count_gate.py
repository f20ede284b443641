"""Gate: the L2 warm-up is built directly, not replayed line by line.

``filter_through_hierarchy`` starts the shared L2 in steady state.  It
used to get there by ``Cache.fill``-ing every warm-up line in turn:
65,544 calls for a 4 MB L2, against 832 records in the GUPS trace at
150 accesses/core.  ``Cache.warm`` now builds the final per-set state
in one step (see DESIGN.md, "system/"), so the only fills left are the
hierarchy's own (L1 victims, cache-to-cache transfers, prefetches).

Call counts are exact and host-independent, like the ready-time index
gate next to this one.  The gate holds fills below the trace's record
count, which no per-line warm-up loop can meet.
"""

from repro.system.cache import Cache
from repro.system.machine import SYSTEMS
from repro.workloads.benchmarks import build_trace

RECORDS = 832  # GUPS on ddr4-server at 150 accesses/core


def test_fill_calls_below_trace_records(monkeypatch):
    calls = {"fill": 0}
    real_fill = Cache.fill

    def fill(self, *args, **kwargs):
        calls["fill"] += 1
        return real_fill(self, *args, **kwargs)

    monkeypatch.setattr(Cache, "fill", fill)
    trace = build_trace(
        "GUPS", SYSTEMS["ddr4-server"], accesses_per_core=150,
        use_cache=False,
    )

    assert trace.total_records == RECORDS  # same trace as before the gate
    assert calls["fill"] < trace.total_records, (
        f"{calls['fill']} Cache.fill calls for {trace.total_records} "
        "trace records; the L2 warm-up must not fill line by line"
    )
