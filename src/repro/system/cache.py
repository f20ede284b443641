"""Set-associative cache model (functional, LRU, writeback).

The cache hierarchy's job in this reproduction is to turn each
benchmark's CPU-level access stream into the *memory* traffic the DRAM
simulator sees: demand misses, dirty writebacks, and prefetches.  Hit
timing is folded into the per-request "gap" cycles computed by
:mod:`repro.system.hierarchy`, so this model is functional (no
cycle-accurate cache pipeline) — exactly the fidelity the paper's
results depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Cache", "AccessResult"]

_WARM_BATCH = 8192  # lines per Cache.warm batch (keeps temporaries small)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    writeback: int | None  # line address of an evicted dirty victim
    line: int  # line address of the access


class Cache:
    """An LRU, write-allocate, writeback set-associative cache."""

    def __init__(
        self, size_bytes: int, ways: int, line_bytes: int = 64, name: str = ""
    ):
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must divide evenly into sets")
        self.name = name or f"{size_bytes // 1024}KB/{ways}way"
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("set count must be a power of two")
        self._set_mask = self.num_sets - 1
        # Per set: insertion-ordered dict of line address -> dirty flag.
        # Oldest entry is the LRU victim.
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self.num_sets)]

        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _set_for(self, line: int) -> dict[int, bool]:
        return self._sets[(line // self.line_bytes) & self._set_mask]

    def _line_of(self, address: int) -> int:
        return address - (address % self.line_bytes)

    def access(self, address: int, is_write: bool) -> AccessResult:
        """Look up ``address``; allocate on miss; return what happened."""
        line = self._line_of(address)
        ways = self._set_for(line)
        if line in ways:
            self.hits += 1
            dirty = ways.pop(line) or is_write
            ways[line] = dirty  # reinsert as MRU
            return AccessResult(hit=True, writeback=None, line=line)

        self.misses += 1
        writeback = None
        if len(ways) >= self.ways:
            victim, victim_dirty = next(iter(ways.items()))
            del ways[victim]
            if victim_dirty:
                self.writebacks += 1
                writeback = victim
        ways[line] = is_write
        return AccessResult(hit=False, writeback=writeback, line=line)

    def contains(self, address: int) -> bool:
        """Presence probe with no LRU side effect."""
        line = self._line_of(address)
        return line in self._set_for(line)

    def touch(self, address: int) -> None:
        """Refresh LRU position without changing dirty state (if present)."""
        line = self._line_of(address)
        ways = self._set_for(line)
        if line in ways:
            ways[line] = ways.pop(line)

    def fill(self, address: int, dirty: bool = False) -> int | None:
        """Install a line (e.g. a prefetch); returns a dirty victim or None."""
        line = self._line_of(address)
        ways = self._set_for(line)
        if line in ways:
            ways[line] = ways.pop(line) or dirty
            return None
        writeback = None
        if len(ways) >= self.ways:
            victim, victim_dirty = next(iter(ways.items()))
            del ways[victim]
            if victim_dirty:
                self.writebacks += 1
                writeback = victim
        ways[line] = dirty
        return writeback

    def warm(self, addresses: np.ndarray, dirty: np.ndarray) -> None:
        """Fill an empty cache with distinct lines in one step.

        Equal to ``fill(a, dirty=d)`` for each pair in order when no two
        addresses share a line: each set ends up holding the last
        ``ways`` lines filled into it, oldest first (LRU order), with
        their own dirty flags, and ``writebacks`` counts the dirty lines
        those fills evict.  The steady state is built directly instead
        of replaying the evictions.
        """
        if any(self._sets):
            raise ValueError(f"{self.name}: warm() needs an empty cache")
        addresses = np.asarray(addresses, dtype=np.int64)
        dirty = np.asarray(dirty, dtype=bool)
        # Batches keep every temporary small: memory peaks while the
        # sets fill, and big transient arrays would raise that peak.
        batches = [
            slice(start, start + _WARM_BATCH)
            for start in range(0, len(addresses), _WARM_BATCH)
        ]

        def lines_and_sets(batch):
            lines = addresses[batch] - addresses[batch] % self.line_bytes
            return lines, (lines // self.line_bytes) & self._set_mask

        def set_counts(sets):
            return np.bincount(sets, minlength=self.num_sets)

        # The k-th line filled into a set (from 0) survives when fewer
        # than ``ways`` lines follow it there: k >= count - ways.
        first_kept = -self.ways + sum(
            set_counts(lines_and_sets(batch)[1]) for batch in batches
        )
        seen = np.zeros(self.num_sets, dtype=np.int64)
        for batch in batches:
            lines, sets = lines_and_sets(batch)
            # k = lines of the set in earlier batches + rank in this one
            # (a stable sort keeps fill order within a set).
            order = np.argsort(sets, kind="stable")
            grouped = sets[order]
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order)) - np.searchsorted(
                grouped, grouped
            )
            keep = seen[sets] + rank >= first_kept[sets]
            seen += set_counts(sets)
            flags = dirty[batch]
            self.writebacks += int(np.count_nonzero(flags & ~keep))
            # Inserting in fill order leaves each set in LRU order.
            for index, line, flag in zip(
                sets[keep].tolist(), lines[keep].tolist(), flags[keep].tolist()
            ):
                self._sets[index][line] = flag

    def invalidate(self, address: int) -> bool:
        """Drop a line; returns True if it was present and dirty."""
        line = self._line_of(address)
        ways = self._set_for(line)
        if line in ways:
            return ways.pop(line)
        return False

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
