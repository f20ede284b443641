"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gups-pair --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload gups-pair --seed 1 --seconds 20 --trace 1

``--trace 0`` is the timed pass: it repeats cold ops of the workload for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` is the
separate traced pass: it alternates plain and span-traced ops (their ratio is
the tracing overhead), then runs one op under call counters, and reports the
per-layer metrics; its spans are written to ``.perfbench/``.

A human-readable table goes first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
if __name__ == "__main__":  # run as a script: make the checkout importable
    sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.ops import SCHEMES, WORKLOADS, peak_rss_mb  # noqa: E402
from perfbench.speed import (  # noqa: E402
    REFERENCE_START_S,
    SpeedProbe,
    start_probe,
)
from perfbench.tracing import CallCounter, Tracer  # noqa: E402

# Every knob that selects a non-production path or moves the caches.  The
# timed numbers must measure the one production path whatever the caller's
# shell holds, so these are cleared before ``repro`` is imported.
ENV_KNOBS = (
    "REPRO_NO_EVENT_CACHE",
    "REPRO_CODEC_IMPL",
    "REPRO_NO_ZERO_CACHE",
    "REPRO_NO_CACHE",
    "REPRO_AUDIT",
    "REPRO_TELEMETRY",
    "REPRO_JOBS",
    "REPRO_CACHE_DIR",
)

# What a fresh interpreter must do before its first run: import the run
# path and hash the model source for cache keys.
SETUP_CODE = (
    "import repro.core.framework, repro.campaign\n"
    "repro.campaign.model_fingerprint()\n"
)
SETUP_REPEATS = 5
MIN_OPS = 3
MIN_TRACED_OPS = 2
# A traced op whose spans leave more than this share of its wall time
# unaccounted fails the "spans sum to the op" check.
MIN_SPAN_COVERAGE = 0.95

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "mil_cycles_ratio": "ratio",
    "mil_zero_ratio": "ratio",
    "mil_dram_energy_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "workloads.build_trace_s": "s",
    "workloads.trace_records": "count",
    "system.hierarchy_s": "s",
    "system.simulate_s": "s",
    "system.sim_cycles": "cycles",
    "system.event_queue.pops": "count",
    "system.event_queue.stale": "count",
    "system.event_queue.stale_ratio": "ratio",
    "system.host_us_per_command": "us",
    "controller.step_calls": "count",
    "controller.steps_issued": "count",
    "controller.issue_ratio": "ratio",
    "controller.next_event_calls": "count",
    "controller.enqueue_calls": "count",
    "controller.drain_transitions": "count",
    "dram.commands_issued": "count",
    "dram.earliest_issue_calls": "count",
    "dram.earliest_issue_per_command": "ratio",
    "dram.bus.bursts": "count",
    "dram.bus_utilization": "ratio",
    "core.choose_calls": "count",
    "core.decision.long": "count",
    "core.decision.base": "count",
    "core.decision.fallback": "count",
    "core.write_optimized": "count",
    "core.run.self_s": "s",
    "coding.zero_tables_s": "s",
    **{f"coding.line_zeros_s.{scheme}": "s" for scheme in SCHEMES},
    "coding.zero_cache.hits": "count",
    "coding.zero_cache.misses": "count",
    "coding.zero_cache.hit_ratio": "ratio",
    "energy.evaluate_s": "s",
    "analysis.bus_stats_s": "s",
    "campaign.scan_s": "s",
    "campaign.execute_s": "s",
    "campaign.cache_store_s": "s",
    "campaign.cache_load_s": "s",
    "campaign.warm_scan_s": "s",
    "campaign.executed": "count",
    "campaign.cache_hits": "count",
    "campaign.failed": "count",
    "campaign.retries": "count",
    "campaign.run_wall_sum_s": "s",
    "campaign.pool_efficiency": "ratio",
    "tracing.overhead_pct": "%",
    "tracing.span_coverage": "ratio",
}


def guard_environment() -> list[str]:
    """Clear :data:`ENV_KNOBS`; return the names that were set."""
    found = [name for name in ENV_KNOBS if name in os.environ]
    for name in found:
        del os.environ[name]
    return found


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Seconds a fresh interpreter takes until it is ready to run.

    Returns (scaled, raw) medians over ``repeats`` subprocesses.  Each is
    scaled by a start-up probe run just before it; see
    :func:`perfbench.speed.start_probe`.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    raw, scaled = [], []
    for _ in range(repeats):
        reference = start_probe(sys.executable, env, ROOT)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, check=True,
            cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * REFERENCE_START_S / reference)
    return statistics.median(scaled), statistics.median(raw)


def attempt(fn):
    """Run one op; an exception becomes a failed op (``None``), not a crash."""
    try:
        return fn()
    except Exception:  # the benchmark must report, not die
        traceback.print_exc()
        return None


def op_problems(ops) -> list[list[str]]:
    """Problems per op: its own checks plus drift from the first good op.

    Ops of one run share their inputs, so every op must compute the same
    payload and do the same work as the first; a warm cache that skipped
    work shows here instead of as a speed-up.
    """
    reference = next((op for op in ops if op is not None), None)
    out = []
    for op in ops:
        if op is None:
            out.append(["op raised"])
            continue
        problems = list(op.problems)
        if op.payload != reference.payload:
            problems.append("output differs from the first op's")
        if op.work != reference.work:
            problems.append(
                f"work {op.work} differs from the first op's "
                f"{reference.work}"
            )
        out.append(problems)
    return out


def timed_pass(workload, seconds: float, min_ops: int = MIN_OPS):
    """Repeat plain ops for ``seconds``; returns (ops, problems, metrics)."""
    ops = []
    speed = SpeedProbe()
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(attempt(lambda: workload.op(speed=speed)))
    problems = op_problems(ops)
    good = [op for op in ops if op is not None]
    metrics = {}
    if good:
        metrics["wall_s"] = statistics.median(op.scaled_s for op in good)
        metrics["raw_wall_s"] = statistics.median(op.wall_s for op in good)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics.update(good[0].modelled)
    return ops, problems, metrics


def traced_pass(workload, seconds: float, spans_out: Path | None,
                min_ops: int = MIN_TRACED_OPS):
    """Plain/spanned op pairs for ``seconds``, then counted and audited ops.

    Returns (ops, problems, metrics); the metrics are the per-layer ones.
    """
    tracer = Tracer()
    speed = SpeedProbe()
    ops, walls = [], []
    start = time.perf_counter()
    while (len(ops) < 2 * min_ops
           or time.perf_counter() - start < seconds):
        for traced in (None, tracer):
            op = attempt(lambda: workload.op(tracer=traced))
            ops.append(op)
            walls.append(speed.scale(op.wall_s if op is not None else 0.0))
    plain, spanned = ops[0::2], ops[1::2]
    plain_walls = [w for op, w in zip(plain, walls[0::2]) if op is not None]
    spanned_walls = [w for op, w in zip(spanned, walls[1::2]) if op is not None]
    counted = None
    if workload.count_pass:
        counted = attempt(lambda: workload.op(counter=CallCounter()))
        ops.append(counted)
    if workload.audit_pass:
        ops.append(attempt(lambda: workload.op(audit=True)))

    problems = op_problems(ops)
    for op, op_list in zip(spanned, problems[1::2]):
        if op is not None and tracer.coverage(op.root) < MIN_SPAN_COVERAGE:
            op_list.append(
                f"spans cover {tracer.coverage(op.root):.3f} of the op"
            )
    if spans_out is not None:
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_out)

    good_spanned = [op for op in spanned if op is not None]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    if not (plain_walls and spanned_walls):
        return ops, problems, metrics
    metrics.update(good_spanned[0].work)
    metrics.update((counted or good_spanned[0]).counts)
    metrics.update(layer_times(tracer, good_spanned))
    metrics.update(ratios(metrics))
    metrics["tracing.overhead_pct"] = 100.0 * (
        statistics.median(spanned_walls) / statistics.median(plain_walls) - 1
    )
    return ops, problems, metrics


def layer_times(tracer, spanned) -> dict:
    """Median over the spanned ops of each layer's self time."""
    per_op = []
    for op in spanned:
        names = tracer.self_times(op.root, by="name")
        layers = tracer.self_times(op.root)
        row = {
            "workloads.build_trace_s": names.get("workloads.build_trace", 0.0),
            "system.hierarchy_s": names.get("system.hierarchy", 0.0),
            "system.simulate_s": names.get("system.simulate", 0.0),
            "core.run.self_s": names.get("core.run", 0.0),
            "coding.zero_tables_s": layers.get("coding", 0.0),
            "energy.evaluate_s": layers.get("energy", 0.0),
            "analysis.bus_stats_s": layers.get("analysis", 0.0),
            "campaign.cache_load_s": names.get("campaign.cache_load", 0.0),
            "campaign.cache_store_s": names.get("campaign.cache_store", 0.0),
            "tracing.span_coverage": tracer.coverage(op.root),
        }
        for scheme in SCHEMES:
            row[f"coding.line_zeros_s.{scheme}"] = names.get(
                f"coding.line_zeros.{scheme}", 0.0
            )
        for key, value in op.counts.items():  # campaign phase times
            if key.endswith("_s"):
                row[key] = value
        per_op.append(row)
    return {
        key: statistics.median(row[key] for row in per_op)
        for key in per_op[0]
    }


def ratios(m: dict) -> dict:
    """Derived per-layer ratios; 0.0 where the layer did no work."""
    def share(num, den):
        return num / den if den else 0.0

    hits = m["coding.zero_cache.hits"]
    misses = m["coding.zero_cache.misses"]
    return {
        "system.event_queue.stale_ratio": share(
            m["system.event_queue.stale"], m["system.event_queue.pops"]),
        "controller.issue_ratio": share(
            m["controller.steps_issued"], m["controller.step_calls"]),
        "dram.earliest_issue_per_command": share(
            m["dram.earliest_issue_calls"], m["dram.commands_issued"]),
        "system.host_us_per_command": 1e6 * share(
            m["system.simulate_s"], m["dram.commands_issued"]),
        "coding.zero_cache.hit_ratio": share(hits, hits + misses),
    }


def report(name, metrics, units, attempted, failed, notes) -> dict:
    """Print the human table; return the result object."""
    print(f"workload {name}: {attempted} ops attempted, {failed} failed")
    for note in notes:
        print(f"  note: {note}")
    for key, unit in units.items():
        print(f"  {key:<36} {metrics.get(key, float('nan')):>16.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics.get(key, 0.0), "unit": unit}
            for key, unit in units.items()
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch_root: Path = SCRATCH, sizes: dict | None = None,
                 min_ops: int | None = None) -> dict:
    """One benchmark run; prints the table and returns the result object.

    ``sizes`` overrides the workload's default op size (the tests' tiny
    scale); the command line always runs the default sizes.
    """
    cleared = guard_environment()
    notes = [f"cleared {', '.join(cleared)} for this run"] if cleared else []
    scratch = scratch_root / f"tmp-{os.getpid()}"
    try:
        workload = WORKLOADS[name](seed, scratch=scratch, **(sizes or {}))
        if trace:
            spans_out = scratch_root / f"spans-{name}-seed{seed}.json"
            ops, problems, metrics = traced_pass(
                workload, seconds, spans_out, min_ops or MIN_TRACED_OPS
            )
            units = PER_LAYER_UNITS
            notes.append(f"spans written to {spans_out}")
        else:
            setup_s, raw_setup_s = measure_setup()
            ops, problems, metrics = timed_pass(
                workload, seconds, min_ops or MIN_OPS
            )
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
            notes.append(
                f"wall_s is the median of {sum(op is not None for op in ops)}"
                f" ops; unscaled medians: wall {metrics.get('raw_wall_s')} s,"
                f" setup {raw_setup_s} s"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for index, op_list in enumerate(problems):
        for problem in op_list:
            print(f"op {index} failed: {problem}", file=sys.stderr)
    failed = sum(bool(p) for p in problems)
    return report(name, metrics, units, len(ops), failed, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no repro package; run from the root "
              "of a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
