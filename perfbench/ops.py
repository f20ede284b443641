"""The benchmark's three workloads, each one repeatable cold op at a time.

Every op goes through the public API only (``repro.core.framework``,
``repro.campaign``) and starts from cold in-process caches.  An op returns an
:class:`Op`: its host wall time, a canonical byte payload of what it computed
(compared across ops, never pinned), the amount of work it did (compared
across ops, so a silently warm op shows as a failure), the simulated ratios,
and the problems its own output checks found.

Ops can run three ways: plain (the timed pass), under a :class:`Tracer`
(layer spans, host time) or under a :class:`CallCounter` (exact per-event
counts plus a ``TelemetrySession``).  The layers each pass reports are named
after the ``repro`` modules: workloads, system, controller, dram, core,
coding, energy, analysis and campaign.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from .tracing import (
    CallCounter,
    Tracer,
    cache_span_patches,
    count_patches,
    patched,
    run_span_patches,
)

SCHEMES = ("cafo2", "cafo4", "dbi", "3lwc", "lwc12", "milc", "raw")

# DBI sends each byte as 9 bits with at most 4 zeros: 64 bytes x 4.
DBI_MAX_ZEROS_PER_LINE = 256


@dataclass
class Op:
    """What one op did; ``problems`` lists its failed output checks.

    ``wall_s`` is the host time of the op's parts; ``scaled_s`` the same
    rescaled to the reference host speed (see :mod:`perfbench.speed`).
    """

    wall_s: float
    scaled_s: float
    payload: bytes
    work: dict
    modelled: dict
    problems: list = field(default_factory=list)
    root: int | None = None  # the op's span index under a Tracer
    counts: dict = field(default_factory=dict)


def summary_bytes(summaries) -> bytes:
    """Canonical bytes of ``RunSummary`` objects with ``stats`` removed."""
    bodies = []
    for summary in summaries:
        body = summary.to_dict()
        body.pop("stats", None)
        bodies.append(body)
    return json.dumps(bodies, sort_keys=True).encode()


def geomean(values) -> float:
    """Geometric mean; 1.0 for an empty sequence (the empty product)."""
    values = list(values)
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def paired_ratios(pairs) -> dict:
    """Simulated mil-vs-dbi ratios, geomean over ``(dbi, mil)`` summaries."""
    pairs = list(pairs)
    return {
        "mil_cycles_ratio": geomean(m.cycles / d.cycles for d, m in pairs),
        "mil_zero_ratio": geomean(
            m.total_zeros / d.total_zeros for d, m in pairs
        ),
        "mil_dram_energy_ratio": geomean(
            m.dram_total_j / d.dram_total_j for d, m in pairs
        ),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # Linux reports KiB


class PartTimer:
    """Times an op part by part, rescaling each part when given a probe.

    The probe runs between parts, outside every timed part, so it adds no
    time to the op; splitting an op at its natural boundaries (one
    ``run()``, one benchmark, one campaign pass) keeps each part short
    against the host's speed drift.
    """

    def __init__(self, speed=None) -> None:
        self.speed = speed
        self.raw = 0.0
        self.scaled = 0.0

    @contextmanager
    def part(self):
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        self.raw += seconds
        self.scaled += (
            self.speed.scale(seconds) if self.speed is not None else seconds
        )


def cold_start() -> None:
    """Drop the in-process trace and zero-table caches."""
    from repro.coding.zerocache import reset_global_cache
    from repro.workloads.benchmarks import clear_trace_cache

    clear_trace_cache()
    reset_global_cache()


def zero_cache_work() -> dict:
    from repro.coding.zerocache import global_cache

    stats = global_cache().stats()
    return {
        "coding.zero_cache.hits": stats["hits"],
        "coding.zero_cache.misses": stats["misses"],
    }


class GupsPair:
    """GUPS on ddr4-server: ``run(..., "dbi")`` then ``run(..., "mil")``.

    The single paired run a user types, on the most memory-intensive
    benchmark; ``simulate`` dominates it.
    """

    name = "gups-pair"
    benchmark = "GUPS"
    system = "ddr4-server"
    count_pass = True  # the traced run counts per-event calls ...
    audit_pass = True  # ... and audits the DRAM protocol

    def __init__(self, seed: int, accesses: int = 1000, scratch=None):
        self.seed = seed
        self.accesses = accesses

    def op(self, tracer: Tracer | None = None,
           counter: CallCounter | None = None, audit: bool = False,
           speed=None) -> Op:
        from repro.core import framework
        from repro.system.machine import SYSTEMS

        config = SYSTEMS[self.system]
        telemetry = reports = None
        sim_results = []
        patches = []
        if tracer is not None:
            patches += run_span_patches(tracer)
        if counter is not None:
            from repro.telemetry.session import TelemetrySession

            telemetry = TelemetrySession("perfbench", trace_enabled=False)
            patches += count_patches(counter)
            simulate = framework.simulate

            def keep_result(*args, **kwargs):
                result = simulate(*args, **kwargs)
                sim_results.append(result)
                return result

            patches.append((framework, "simulate", keep_result))
        if audit:
            from repro.audit import AuditReport

            reports = {p: AuditReport() for p in ("dbi", "mil")}

        cold_start()
        summaries = {}
        timer = PartTimer(speed)
        with patched(patches), _maybe_span(tracer, "op", "op") as root:
            for policy in ("dbi", "mil"):
                with timer.part(), _maybe_span(tracer, "core.run", "core"):
                    summaries[policy] = framework.run(
                        self.benchmark, config, policy,
                        accesses_per_core=self.accesses, seed=self.seed,
                        telemetry=telemetry,
                        audit=reports[policy] if reports else None,
                    )

        dbi, mil = summaries["dbi"], summaries["mil"]
        op = Op(
            wall_s=timer.raw,
            scaled_s=timer.scaled,
            payload=summary_bytes([dbi, mil]),
            work={
                **zero_cache_work(),
                "workloads.trace_records": dbi.trace_records,
            },
            modelled=paired_ratios([(dbi, mil)]),
            root=root,
        )
        if reports:
            for policy, report in reports.items():
                if not report.clean:
                    op.problems.append(
                        f"protocol audit of {policy} found violations"
                    )
        if counter is not None:
            op.counts = run_counts(
                counter, telemetry, sim_results, [dbi, mil]
            )
        return op


class EncodeSuite:
    """Every Table 3 benchmark: ``build_trace`` then all zero tables.

    No simulation: the front half of every cold run and the whole of a
    Fig 7-style potential study.
    """

    name = "encode-suite"
    system = "ddr4-server"
    count_pass = True  # shows that nothing is simulated
    audit_pass = False

    def __init__(self, seed: int, accesses: int = 1000, benchmarks=None,
                 scratch=None):
        from repro.workloads.benchmarks import BENCHMARK_ORDER

        self.seed = seed
        self.accesses = accesses
        self.benchmarks = tuple(benchmarks or BENCHMARK_ORDER)

    def op(self, tracer: Tracer | None = None,
           counter: CallCounter | None = None, audit: bool = False,
           speed=None) -> Op:
        from repro.coding.registry import real_schemes
        from repro.core import framework
        from repro.system.machine import SYSTEMS

        config = SYSTEMS[self.system]
        patches = []
        if tracer is not None:
            patches += run_span_patches(tracer)
        if counter is not None:
            patches += count_patches(counter)

        cold_start()
        outputs = []
        timer = PartTimer(speed)
        with patched(patches), _maybe_span(tracer, "op", "op") as root:
            for benchmark in self.benchmarks:
                with timer.part():
                    trace = framework.build_trace(
                        benchmark, config, seed=self.seed,
                        accesses_per_core=self.accesses,
                    )
                    tables = framework.precompute_line_zeros(
                        trace.line_data, real_schemes(),
                        digest=trace.line_digest,
                    )
                outputs.append((benchmark, trace, tables))

        problems = []
        payload = []
        records = 0
        ratios = []
        for benchmark, trace, tables in outputs:
            problems += table_problems(benchmark, trace, tables)
            records += trace.total_records
            payload.append({
                "benchmark": benchmark,
                "records": trace.total_records,
                "tables": {
                    scheme: hashlib.sha256(table.tobytes()).hexdigest()
                    for scheme, table in sorted(tables.items())
                },
            })
            dbi_zeros = int(tables["dbi"].sum())
            if dbi_zeros:
                ratios.append(int(tables["3lwc"].sum()) / dbi_zeros)
        op = Op(
            wall_s=timer.raw,
            scaled_s=timer.scaled,
            payload=json.dumps(payload, sort_keys=True).encode(),
            work={
                **zero_cache_work(),
                "workloads.trace_records": records,
            },
            # No simulated pair runs here: cycles and DRAM energy are the
            # empty geomean (1.0); the zero ratio is the static potential
            # of MiL's long code, 3-LWC on every line, against DBI.
            modelled={
                "mil_cycles_ratio": 1.0,
                "mil_zero_ratio": geomean(ratios),
                "mil_dram_energy_ratio": 1.0,
            },
            problems=problems,
            root=root,
        )
        if counter is not None:
            op.counts = run_counts(counter, None, [], [])
            op.counts["workloads.trace_records"] = records
        return op


def table_problems(benchmark: str, trace, tables) -> list[str]:
    """Output checks on one trace's zero tables."""
    problems = []
    lines = trace.line_data.shape[0]
    for scheme in SCHEMES:
        table = tables.get(scheme)
        if table is None or table.shape != (lines,):
            problems.append(
                f"{benchmark}: {scheme} table is not one entry per line"
            )
    dbi = tables.get("dbi")
    if dbi is not None and dbi.size and int(dbi.max()) > DBI_MAX_ZEROS_PER_LINE:
        problems.append(
            f"{benchmark}: dbi table exceeds {DBI_MAX_ZEROS_PER_LINE} "
            "zeros per line"
        )
    return problems


class Fig16Mini:
    """A reduced Figure 16 campaign, cold into a private cache, then warm.

    ddr4-server + lpddr3-mobile x {MM, STRMATCH, SWIM, CG} x
    {dbi, cafo2, cafo4, milc, mil} on ``CampaignRunner(jobs=1)``.  With two
    pool workers the op moved by about 10 % with the order in which runs of
    unequal length landed on them, and with which CPU each worker shared
    with a neighbour; serial, it is as steady as the other workloads.
    """

    name = "fig16-mini"
    systems = ("ddr4-server", "lpddr3-mobile")
    benchmarks = ("MM", "STRMATCH", "SWIM", "CG")
    policies = ("dbi", "cafo2", "cafo4", "milc", "mil")
    jobs = 1
    # The traced metrics are campaign-level; the other two workloads cover
    # the layers inside each run.
    count_pass = False
    audit_pass = False

    def __init__(self, seed: int, accesses: int = 150, scratch=None,
                 benchmarks=None):
        from repro.campaign import RunSpec

        if scratch is None:
            raise ValueError("fig16-mini needs a scratch directory")
        self.seed = seed
        self.scratch = Path(scratch)
        self.benchmarks = tuple(benchmarks or self.benchmarks)
        self.specs = [
            RunSpec(b, system=s, policy=p, accesses_per_core=accesses,
                    seed=seed)
            for s in self.systems for b in self.benchmarks
            for p in self.policies
        ]
        self._ops = 0

    def op(self, tracer: Tracer | None = None,
           counter: CallCounter | None = None, audit: bool = False,
           speed=None) -> Op:
        from repro.campaign import CampaignRunner

        self._ops += 1
        cache_dir = self.scratch / f"runs-{self._ops}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
        events = []
        sessions = {}
        patches = []
        if tracer is not None:
            from repro.telemetry.session import TelemetrySession

            patches += cache_span_patches(tracer)
            sessions = {
                phase: TelemetrySession(
                    f"perfbench.{phase}", trace_enabled=False,
                    time_unit="seconds",
                )
                for phase in ("cold", "warm")
            }
        cold_runner = CampaignRunner(
            jobs=self.jobs, sink=events.append, strict=False,
            telemetry=sessions.get("cold"),
        )
        warm_runner = CampaignRunner(
            jobs=self.jobs, strict=False, telemetry=sessions.get("warm"),
        )

        cold_start()
        timer = PartTimer(speed)
        try:
            with patched(patches), _maybe_span(tracer, "op", "op") as root:
                with timer.part(), _maybe_span(
                    tracer, "campaign.cold", "campaign"
                ):
                    cold = cold_runner.run(self.specs)
                with timer.part(), _maybe_span(
                    tracer, "campaign.warm", "campaign"
                ):
                    warm = warm_runner.run(self.specs)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            del os.environ["REPRO_CACHE_DIR"]

        problems = campaign_problems(
            self.specs, cold, warm, cold_runner, warm_runner
        )
        mil_specs = {
            spec: replace(spec, policy="mil")
            for spec in self.specs if spec.policy == "dbi"
        }
        pairs = [
            (cold[dbi], cold[mil]) for dbi, mil in mil_specs.items()
            if dbi in cold and mil in cold
        ]
        op = Op(
            wall_s=timer.raw,
            scaled_s=timer.scaled,
            payload=summary_bytes(
                cold[s] for s in self.specs if s in cold
            ),
            work={
                **zero_cache_work(),
                "campaign.executed": cold_runner.counters["executed"],
                "workloads.trace_records": sum(
                    s.trace_records for s in cold.values()
                ),
            },
            modelled=paired_ratios(pairs),
            problems=problems,
            root=root,
        )
        if tracer is not None:
            op.counts = campaign_counts(
                events, cold_runner, warm_runner, sessions, self.jobs
            )
        return op


def campaign_problems(specs, cold, warm, cold_runner, warm_runner) -> list:
    """Output checks on one cold campaign and its warm replay."""
    problems = []
    if cold_runner.failures or len(cold) != len(specs):
        problems.append(
            f"cold campaign returned {len(cold)} of {len(specs)} specs"
        )
    hits = warm_runner.counters["cache_hits"]
    if hits != len(specs):
        problems.append(f"warm replay hit the cache {hits}/{len(specs)} times")
    def ordered(results):
        return summary_bytes(results[s] for s in specs if s in results)

    if set(warm) != set(cold) or ordered(warm) != ordered(cold):
        problems.append("warm replay summaries differ from the cold ones")
    return problems


def run_counts(counter, telemetry, sim_results, summaries) -> dict:
    """Exact per-layer counts of one counted op."""
    calls, truthy = counter.calls, counter.truthy
    counts = {
        "controller.step_calls": calls.get("controller.step", 0),
        "controller.steps_issued": truthy.get("controller.step", 0),
        "controller.next_event_calls": calls.get("controller.next_event", 0),
        "controller.enqueue_calls": calls.get("controller.enqueue", 0),
        "dram.commands_issued": calls.get("dram.issue", 0),
        "dram.earliest_issue_calls": calls.get("dram.earliest_issue", 0),
        "core.choose_calls": calls.get("core.choose", 0),
        "system.sim_cycles": sum(r.cycles for r in sim_results),
        "system.event_queue.pops": sum(
            r.stats["event_queue_pops"] for r in sim_results
        ),
        "system.event_queue.stale": sum(
            r.stats["event_queue_stale"] for r in sim_results
        ),
        "core.write_optimized": sum(s.write_optimized for s in summaries),
        "workloads.trace_records": sum(s.trace_records for s in summaries),
        "dram.bus_utilization": (
            sum(s.bus_utilization for s in summaries) / len(summaries)
            if summaries else 0.0
        ),
    }
    table = telemetry.stats_table() if telemetry is not None else {}
    modes = table.get("decision_modes", {})
    counts.update({
        "dram.bus.bursts": table.get("bursts", 0),
        "controller.drain_transitions": table.get("drain_transitions", 0),
        "core.decision.long": modes.get("long", 0),
        "core.decision.base": modes.get("base", 0),
        "core.decision.fallback": modes.get("fallback", 0),
    })
    return counts


def campaign_counts(events, cold_runner, warm_runner, sessions, jobs) -> dict:
    """Campaign-level counts and phase times, taken in the parent."""
    def phase(session, name):
        return session.registry.gauge(f"campaign.{name}.wall_s").value

    execute_s = phase(sessions["cold"], "execute")
    run_wall_sum_s = sum(
        e.wall_s for e in events if e.kind == "finished" and e.wall_s
    )
    return {
        "campaign.scan_s": phase(sessions["cold"], "scan"),
        "campaign.execute_s": execute_s,
        "campaign.warm_scan_s": phase(sessions["warm"], "scan"),
        "campaign.executed": cold_runner.counters["executed"],
        "campaign.cache_hits": warm_runner.counters["cache_hits"],
        "campaign.failed": (
            cold_runner.counters["failed"] + warm_runner.counters["failed"]
        ),
        "campaign.retries": (
            cold_runner.counters["retries"] + warm_runner.counters["retries"]
        ),
        "campaign.run_wall_sum_s": run_wall_sum_s,
        "campaign.pool_efficiency": (
            run_wall_sum_s / (jobs * execute_s) if execute_s else 0.0
        ),
    }


def _maybe_span(tracer: Tracer | None, name: str, layer: str):
    return tracer.span(name, layer) if tracer is not None else nullcontext()


WORKLOADS = {w.name: w for w in (GupsPair, EncodeSuite, Fig16Mini)}
