"""Tests of the benchmark itself, at a tiny scale.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import ops, run  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

TINY = {
    "gups-pair": {"accesses": 64},
    "encode-suite": {"accesses": 64, "benchmarks": ("MM", "GUPS")},
    "fig16-mini": {"accesses": 64, "benchmarks": ("MM",)},
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_prints_every_metric(name, trace, tmp_path, capsys):
    result = run.run_workload(
        name, seed=3, seconds=0, trace=trace, scratch_root=tmp_path,
        sizes=TINY[name], min_ops=2,
    )
    out = capsys.readouterr().out
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(units)
    for key, unit in units.items():
        assert result["metrics"][key]["unit"] == unit
        assert isinstance(result["metrics"][key]["value"], (int, float))
        assert any(
            line.split()[:1] == [key] and line.split()[-1] == unit
            for line in out.splitlines()
        ), key
    json.dumps(result)  # the last line must serialise
    if not trace:
        for key in run.END_TO_END_UNITS:
            assert result["metrics"][key]["value"] > 0, key


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.PER_LAYER_UNITS
    )
    assert {w["name"] for w in spec["workloads"]} == set(ops.WORKLOADS)


def _op(**changes):
    base = ops.Op(wall_s=1.0, scaled_s=1.0, payload=b"x", work={"n": 1},
                  modelled={})
    return dataclasses.replace(base, **changes)


def test_changed_output_fails_the_op():
    problems = run.op_problems([_op(), _op(payload=b"y"), _op()])
    assert [bool(p) for p in problems] == [False, True, False]


def test_silently_warm_op_fails():
    problems = run.op_problems([_op(), _op(work={"n": 0})])
    assert problems[1] and "work" in problems[1][0]


def test_raised_op_fails():
    assert run.op_problems([_op(), None])[1] == ["op raised"]


def test_traced_output_must_equal_untraced(tmp_path):
    class Drifts:
        name = "drifts"
        count_pass = audit_pass = False

        def op(self, tracer=None, counter=None, audit=False, speed=None):
            root = None
            if tracer is not None:
                with tracer.span("op", "op") as root:
                    with tracer.span("work", "core"):
                        pass
            payload = b"traced" if tracer is not None else b"plain"
            return _op(payload=payload, root=root)

    _, problems, _ = run.traced_pass(Drifts(), 0, None, min_ops=1)
    assert not problems[0]  # the plain op
    assert any("differs" in p for p in problems[1])


def test_spans_must_cover_the_op():
    class Gappy:
        name = "gappy"
        count_pass = audit_pass = False

        def op(self, tracer=None, counter=None, audit=False, speed=None):
            root = None
            if tracer is not None:
                with tracer.span("op", "op") as root:
                    sum(range(200_000))  # time no span accounts for
            return _op(root=root)

    _, problems, _ = run.traced_pass(Gappy(), 0, None, min_ops=1)
    assert any("spans cover" in p for p in problems[1])


def test_unclean_audit_fails_the_op(monkeypatch):
    from repro.audit import AuditReport

    monkeypatch.setattr(AuditReport, "clean", property(lambda self: False))
    op = ops.GupsPair(seed=3, **TINY["gups-pair"]).op(audit=True)
    assert any("audit" in p for p in op.problems)


def test_zero_table_checks():
    from repro.coding.registry import real_schemes
    from repro.core import framework
    from repro.system.machine import SYSTEMS

    trace = framework.build_trace(
        "MM", SYSTEMS["ddr4-server"], seed=3, accesses_per_core=64
    )
    tables = framework.precompute_line_zeros(trace.line_data, real_schemes())
    assert ops.table_problems("MM", trace, tables) == []

    tampered = dict(tables)
    dbi = tables["dbi"].copy()
    dbi[0] = ops.DBI_MAX_ZEROS_PER_LINE + 1
    tampered["dbi"] = dbi
    assert any("dbi" in p for p in ops.table_problems("MM", trace, tampered))

    tampered = dict(tables, milc=tables["milc"][:-1])
    assert any("one entry per line" in p
               for p in ops.table_problems("MM", trace, tampered))


@dataclasses.dataclass
class Summary:
    value: int

    def to_dict(self):
        return {"value": self.value, "stats": {}}


def test_campaign_checks(tmp_path):
    workload = ops.Fig16Mini(seed=3, scratch=tmp_path, **TINY["fig16-mini"])
    op = workload.op()
    assert op.problems == []

    class Runner:
        def __init__(self, hits=0, failures=()):
            self.counters = {"cache_hits": hits}
            self.failures = list(failures)

    specs = workload.specs
    cold = {s: Summary(i) for i, s in enumerate(specs)}
    full = Runner(hits=len(specs))
    assert ops.campaign_problems(specs, cold, dict(cold), Runner(), full) == []
    partial = Runner(hits=len(specs) - 1)
    assert any("hit the cache" in p for p in ops.campaign_problems(
        specs, cold, dict(cold), Runner(), partial))
    changed = dict(cold)
    changed[specs[0]] = Summary(-1)
    assert any("differ" in p for p in ops.campaign_problems(
        specs, cold, changed, Runner(), full))
    assert any("returned" in p for p in ops.campaign_problems(
        specs, dict(list(cold.items())[1:]), dict(cold), Runner(), full))


def test_spans_nest_and_sum_to_the_op():
    tracer = Tracer()
    op = ops.GupsPair(seed=3, **TINY["gups-pair"]).op(tracer=tracer)
    root = tracer.spans[op.root]
    assert abs(root.duration - op.wall_s) <= 0.01 * op.wall_s + 1e-4
    below = tracer.descendants(op.root)
    assert {tracer.spans[i].name for i in below} >= {
        "core.run", "workloads.build_trace", "system.hierarchy",
        "coding.zero_tables", "system.simulate", "energy.dram",
        "analysis.idle_gaps",
    }
    for i in below:
        span, parent = tracer.spans[i], tracer.spans[tracer.spans[i].parent]
        assert parent.start <= span.start <= span.end <= parent.end
    self_sum = sum(tracer.self_times(op.root).values())
    assert self_sum == pytest.approx(
        tracer.coverage(op.root) * root.duration
    )
    assert tracer.coverage(op.root) >= run.MIN_SPAN_COVERAGE


def test_wrappers_are_removed_after_a_traced_op():
    from repro.controller.controller import ChannelController
    from repro.core import framework

    before = (framework.simulate, ChannelController.step)
    from perfbench.tracing import CallCounter

    ops.GupsPair(seed=3, **TINY["gups-pair"]).op(
        tracer=Tracer(), counter=CallCounter()
    )
    assert (framework.simulate, ChannelController.step) == before


def test_guard_clears_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_NO_EVENT_CACHE", "1")
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert run.guard_environment() == ["REPRO_NO_EVENT_CACHE", "REPRO_JOBS"]
    assert run.guard_environment() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gups-pair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
