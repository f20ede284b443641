"""Gate: the event core actually pays on end-to-end simulation.

The lockstep oracle (``tests/oracles/lockstep.py``) swaps the whole
caching stack out — the lockstep loop replaces the cross-channel event
heap, and every controller recomputes its FR-FCFS candidate list from
scratch on every call (see DESIGN.md, "Event core").  That path exists
as the equivalence oracle, and the hypothesis suite proves the two
produce byte-identical command logs; this gate proves the production
path is not just equal but *faster*, on the same end-to-end GUPS kernel
the ``sim.run_spec.gups`` benchmark times.  1.5x is the floor; the
measured gap is larger (the oracle visits every populated cycle on
every channel).
"""

import pytest

from repro.bench import get, measure
from tests.oracles.lockstep import lockstep_oracle

MIN_SPEEDUP = 1.5
ATTEMPTS = 3  # whole-comparison retries before failing


def test_event_core_speeds_up_end_to_end_run():
    bench = get("sim.run_spec.gups")
    kernel = bench.build()

    best = 0.0
    for _ in range(ATTEMPTS):
        t_cached = measure(kernel, repeats=3, warmup=1,
                           inner_ops=bench.inner_ops).min_ns
        with lockstep_oracle():
            t_oracle = measure(kernel, repeats=3, warmup=1,
                               inner_ops=bench.inner_ops).min_ns
        speedup = t_oracle / t_cached
        best = max(best, speedup)
        if speedup >= MIN_SPEEDUP:
            return
    pytest.fail(
        f"event-core speedup {best:.2f}x is below the {MIN_SPEEDUP}x "
        "gate on the end-to-end GUPS kernel"
    )


def test_cached_and_oracle_results_agree():
    # The gate times the same computation twice; prove it IS the same.
    kernel = get("sim.run_spec.gups").build()
    cached = kernel()
    with lockstep_oracle():
        oracle = kernel()
    assert cached.cycles == oracle.cycles
    assert cached.scheme_counts == oracle.scheme_counts
    assert cached.mean_read_latency == oracle.mean_read_latency
    assert cached.dram_total_j == oracle.dram_total_j
