"""In-memory layer spans and call counters, installed from outside the program.

The traced pass wraps the module attributes that ``repro.core.framework.run``
and ``build_trace`` look up at call time, so nothing inside ``src/`` changes.
Two kinds of wrapper exist on purpose:

* *span* wrappers (host time) sit on the few calls per op that cross a layer
  boundary (trace build, hierarchy filter, zero tables, simulate, energy,
  analysis, campaign cache I/O);
* *count* wrappers (no timer) sit on the per-event methods (controller step,
  channel issue, policy choose), which run about a million times per op.  A
  timer there would dwarf the work it measures, so counts are taken in their
  own pass and never mixed into a timed one.

Every wrapper is removed again when the ``with`` block ends, even on error.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    layer: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans in memory; :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._children: dict[int, list[int]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent))
        self._children.setdefault(parent, []).append(index)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, fn, name, layer: str):
        """``fn`` timed as a span; ``name`` may be a callable of the args."""

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label, layer):
                return fn(*args, **kwargs)

        return traced

    def children(self, index: int) -> list[int]:
        return self._children.get(index, [])

    def self_time(self, index: int) -> float:
        """Duration minus the part its direct children cover."""
        return self.spans[index].duration - sum(
            self.spans[c].duration for c in self.children(index)
        )

    def descendants(self, root: int) -> list[int]:
        out, todo = [], list(self.children(root))
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children(i))
        return out

    def self_times(self, root: int, by: str = "layer") -> dict[str, float]:
        """Self time per ``layer`` (or per ``name``) below ``root``."""
        totals: dict[str, float] = {}
        for i in self.descendants(root):
            key = getattr(self.spans[i], by)
            totals[key] = totals.get(key, 0.0) + self.self_time(i)
        return totals

    def coverage(self, root: int) -> float:
        """Share of ``root``'s wall time that its child spans account for.

        Equal to the sum of every descendant's self time over the root's
        duration, so it is the "spans sum to the op" check.
        """
        covered = sum(self.spans[c].duration for c in self.children(root))
        return covered / self.spans[root].duration

    def dump(self, path) -> None:
        rows = [
            {"id": i, "name": s.name, "layer": s.layer, "start": s.start,
             "end": s.end, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows, indent=0))


class CallCounter:
    """Exact call counts (and truthy returns) per wrapped name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.truthy: dict[str, int] = {}

    def wrap(self, fn, name: str):
        calls, truthy = self.calls, self.truthy
        calls.setdefault(name, 0)
        truthy.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if out:
                truthy[name] += 1
            return out

        return counted


@contextmanager
def patched(patches):
    """Set ``(owner, attribute, replacement)`` triples; restore on exit."""
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _line_zeros_name(scheme, *_args, **_kwargs) -> str:
    return f"coding.line_zeros.{scheme}"


def run_span_patches(tracer: Tracer) -> list:
    """Span wrappers on every layer boundary under ``framework.run``."""
    from repro.coding import pipeline
    from repro.core import framework
    from repro.energy.dram_power import DramEnergyModel
    from repro.energy.system_power import SystemEnergyModel
    from repro.system import hierarchy

    def attr(owner, name, label, layer):
        return (owner, name, tracer.wrap(getattr(owner, name), label, layer))

    return [
        attr(framework, "build_trace", "workloads.build_trace", "workloads"),
        attr(hierarchy, "filter_through_hierarchy", "system.hierarchy",
             "system"),
        attr(framework, "precompute_line_zeros", "coding.zero_tables",
             "coding"),
        attr(pipeline, "line_zeros", _line_zeros_name, "coding"),
        attr(framework, "raw_line_zeros", "coding.raw_line_zeros", "coding"),
        attr(framework, "simulate", "system.simulate", "system"),
        attr(DramEnergyModel, "evaluate", "energy.dram", "energy"),
        attr(SystemEnergyModel, "evaluate", "energy.system", "energy"),
        # framework imported these names, so its module is where run()
        # looks them up.
        attr(framework, "idle_gap_histogram", "analysis.idle_gaps",
             "analysis"),
        attr(framework, "slack_histogram", "analysis.slack", "analysis"),
        attr(framework, "pending_split", "analysis.pending", "analysis"),
    ]


def count_patches(counter: CallCounter) -> list:
    """Count-only wrappers on the per-event public methods."""
    from repro.controller.controller import ChannelController
    from repro.core.decision import MiLPolicy
    from repro.dram.channel import DRAMChannel

    targets = [
        (ChannelController, "step", "controller.step"),
        (ChannelController, "next_event", "controller.next_event"),
        (ChannelController, "enqueue", "controller.enqueue"),
        (DRAMChannel, "earliest_issue", "dram.earliest_issue"),
        (DRAMChannel, "issue", "dram.issue"),
        (MiLPolicy, "choose", "core.choose"),
    ]
    return [
        (owner, attr, counter.wrap(getattr(owner, attr), name))
        for owner, attr, name in targets
    ]


def cache_span_patches(tracer: Tracer) -> list:
    """Span wrappers on the campaign's on-disk cache load/store."""
    from repro.campaign import cache

    return [
        (cache, "load", tracer.wrap(cache.load, "campaign.cache_load",
                                    "campaign")),
        (cache, "store", tracer.wrap(cache.store, "campaign.cache_store",
                                     "campaign")),
    ]
