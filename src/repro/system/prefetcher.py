"""Stream prefetcher (Table 2: nstreams / distance / degree).

A classic multi-stream next-line prefetcher in the style of Srinath et
al. [HPCA 2007]: up to ``nstreams`` concurrently tracked streams, each
with a direction, a confirmation counter, and a prefetch frontier kept
``distance`` lines ahead of the demand stream; every confirming access
advances the frontier by ``degree`` lines.

Table 2 configures 64/32/4 for the Niagara-like server and 64/8/1 for
the Snapdragon-like mobile system.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StreamPrefetcher", "PrefetcherConfig"]

_MATCH_WINDOW = 16  # lines within which an access can join a stream
_TRAIN_THRESHOLD = 2  # confirmations before prefetching starts


@dataclass(frozen=True)
class PrefetcherConfig:
    """Stream prefetcher knobs (Table 2 row "Stream Prefetcher").

    ``spacing`` is the issue pacing in DRAM cycles: hardware prefetchers
    trickle their requests into the memory controller rather than
    dumping a whole degree-sized batch in one cycle, and that spacing is
    visible to MiL's look-ahead window (a batch of simultaneously-ready
    prefetches would block every long-code slot).
    """

    nstreams: int = 64
    distance: int = 32
    degree: int = 4
    spacing: int = 12


@dataclass
class _Stream:
    last_line: int
    direction: int  # +1 or -1
    confirmations: int
    frontier: int  # next line index to prefetch


class StreamPrefetcher:
    """Tracks access streams and emits prefetch line addresses."""

    def __init__(self, config: PrefetcherConfig, line_bytes: int = 64):
        self.config = config
        self.line_bytes = line_bytes
        self._streams: list[_Stream] = []
        # Slot indices, least recently used first.
        self._lru: dict[int, None] = {}
        self.issued = 0

    def observe(self, address: int) -> list[int]:
        """Feed one demand access; returns line addresses to prefetch."""
        line = address // self.line_bytes
        out: list[int] = []

        for slot, stream in enumerate(self._streams):
            delta = line - stream.last_line
            if -_MATCH_WINDOW <= delta <= _MATCH_WINDOW:
                self._touch(slot)
                if delta == 0:
                    return out
                direction = 1 if delta > 0 else -1
                if direction == stream.direction:
                    stream.confirmations += 1
                    stream.last_line = line
                    if stream.confirmations >= _TRAIN_THRESHOLD:
                        out = self._advance(stream, line)
                    return out
                # Direction flip: retrain the stream in the new direction.
                stream.direction = direction
                stream.confirmations = 1
                stream.last_line = line
                stream.frontier = line + direction
                return out

        self._allocate(line)
        return out

    def _touch(self, slot: int) -> None:
        """Move ``slot`` to the most-recently-used end of the LRU order."""
        del self._lru[slot]
        self._lru[slot] = None

    def _advance(self, stream: _Stream, line: int) -> list[int]:
        cfg = self.config
        limit = line + stream.direction * cfg.distance
        out = []
        for _ in range(cfg.degree):
            nxt = stream.frontier
            past_limit = (
                nxt > limit if stream.direction > 0 else nxt < limit
            )
            if past_limit:
                break
            behind = (
                nxt <= line if stream.direction > 0 else nxt >= line
            )
            if behind:
                stream.frontier = line + stream.direction
                nxt = stream.frontier
            out.append(nxt * self.line_bytes)
            stream.frontier = nxt + stream.direction
        self.issued += len(out)
        return out

    def _allocate(self, line: int) -> None:
        stream = _Stream(
            last_line=line,
            direction=1,
            confirmations=0,
            frontier=line + 1,
        )
        if len(self._streams) >= self.config.nstreams:
            # Replace the least recently used stream, keeping its slot
            # (slot order is the match priority in observe()).
            slot = next(iter(self._lru))
            self._streams[slot] = stream
            self._touch(slot)
        else:
            self._lru[len(self._streams)] = None
            self._streams.append(stream)

    @property
    def active_streams(self) -> int:
        return len(self._streams)
