"""Tests for the set-associative cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system import Cache
from repro.system import cache as cache_module


class TestBasics:
    def test_miss_then_hit(self):
        cache = Cache(1024, 2)
        assert not cache.access(0, False).hit
        assert cache.access(0, False).hit

    def test_same_line_different_offsets_hit(self):
        cache = Cache(1024, 2)
        cache.access(128, False)
        assert cache.access(128 + 63, False).hit
        assert not cache.access(128 + 64, False).hit

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache(1000, 3)  # does not divide into sets
        with pytest.raises(ValueError):
            Cache(192, 1)  # 3 sets: not a power of two

    def test_miss_rate(self):
        cache = Cache(1024, 2)
        cache.access(0, False)
        cache.access(0, False)
        assert cache.miss_rate == pytest.approx(0.5)


class TestEviction:
    def test_lru_victim(self):
        cache = Cache(2 * 64, 2)  # one set, two ways
        cache.access(0, False)
        cache.access(1 << 12, False)
        cache.access(0, False)  # refresh line 0
        cache.access(2 << 12, False)  # evicts 1<<12, not 0
        assert cache.contains(0)
        assert not cache.contains(1 << 12)

    def test_dirty_eviction_reports_writeback(self):
        cache = Cache(2 * 64, 2)
        cache.access(0, True)
        cache.access(1 << 12, False)
        result = cache.access(2 << 12, False)
        assert result.writeback == 0
        assert cache.writebacks == 1

    def test_clean_eviction_silent(self):
        cache = Cache(2 * 64, 2)
        cache.access(0, False)
        cache.access(1 << 12, False)
        result = cache.access(2 << 12, False)
        assert result.writeback is None

    def test_write_hit_marks_dirty(self):
        cache = Cache(2 * 64, 2)
        cache.access(0, False)
        cache.access(0, True)  # hit, now dirty
        cache.access(1 << 12, False)
        result = cache.access(2 << 12, False)
        assert result.writeback == 0


class TestFillAndInvalidate:
    def test_fill_installs_without_counting_demand(self):
        cache = Cache(1024, 2)
        cache.fill(0)
        assert cache.contains(0)
        assert cache.hits == 0 and cache.misses == 0

    def test_fill_existing_merges_dirty(self):
        cache = Cache(1024, 2)
        cache.fill(0, dirty=True)
        cache.fill(0, dirty=False)
        assert cache.invalidate(0)  # still dirty

    def test_invalidate_returns_dirtiness(self):
        cache = Cache(1024, 2)
        cache.access(0, True)
        assert cache.invalidate(0) is True
        assert cache.invalidate(0) is False
        assert not cache.contains(0)

    def test_touch_refreshes_lru(self):
        cache = Cache(2 * 64, 2)
        cache.access(0, False)
        cache.access(1 << 12, False)
        cache.touch(0)
        cache.fill(2 << 12)
        assert cache.contains(0)


class TestProperties:
    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16),
                    min_size=1, max_size=300))
    def test_capacity_never_exceeded(self, addresses):
        cache = Cache(4096, 4)
        for addr in addresses:
            cache.access(addr, False)
        for ways in cache._sets:
            assert len(ways) <= cache.ways

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 14),
                    min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = Cache(2048, 2)
        for addr in addresses:
            cache.access(addr, bool(addr & 1))
        assert cache.hits + cache.misses == len(addresses)

    def test_small_working_set_all_hits_after_warmup(self):
        cache = Cache(32 * 1024, 4)
        lines = np.arange(0, 8 * 1024, 64)
        for addr in lines:
            cache.access(int(addr), False)
        hits_before = cache.hits
        for addr in lines:
            assert cache.access(int(addr), False).hit
        assert cache.hits == hits_before + len(lines)


class TestWarm:
    """``warm`` builds the state sequential ``fill`` calls would leave."""

    @staticmethod
    def _contents(cache):
        # Per set: lines oldest first (LRU order) with their dirty flags.
        return [list(ways.items()) for ways in cache._sets]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_sequential_fills(self, data):
        ways = data.draw(st.integers(min_value=1, max_value=4))
        sets = data.draw(st.sampled_from([1, 2, 4, 8]))
        line_bytes = data.draw(st.sampled_from([32, 64]))
        capacity = ways * sets
        lines = data.draw(st.lists(
            st.integers(min_value=0, max_value=1 << 10), unique=True,
            min_size=capacity + 1, max_size=4 * capacity,
        ))
        n = len(lines)
        offsets = data.draw(st.lists(
            st.integers(min_value=0, max_value=line_bytes - 1),
            min_size=n, max_size=n,
        ))
        dirty = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        addresses = [
            line * line_bytes + off for line, off in zip(lines, offsets)
        ]

        filled = Cache(capacity * line_bytes, ways, line_bytes)
        for address, flag in zip(addresses, dirty):
            filled.fill(address, dirty=flag)
        warmed = Cache(capacity * line_bytes, ways, line_bytes)
        warmed.warm(np.array(addresses), np.array(dirty))

        assert self._contents(warmed) == self._contents(filled)
        assert warmed.writebacks == filled.writebacks
        assert (warmed.hits, warmed.misses) == (filled.hits, filled.misses)

        # Later traffic sees the same LRU order: same hits, same victims.
        later = data.draw(st.lists(
            st.tuples(st.booleans(),
                      st.integers(min_value=0, max_value=(1 << 10) * 64),
                      st.booleans()),
            max_size=3 * capacity,
        ))
        for is_fill, address, flag in later:
            if is_fill:
                assert warmed.fill(address, flag) == filled.fill(address, flag)
            else:
                assert warmed.access(address, flag) == filled.access(
                    address, flag
                )
        assert self._contents(warmed) == self._contents(filled)
        assert warmed.writebacks == filled.writebacks

    def test_matches_sequential_fills_across_batches(self):
        # More lines than one warm() batch, so survivors depend on
        # lines counted in earlier batches.
        n = 3 * cache_module._WARM_BATCH + 5
        rng = np.random.default_rng(7)
        addresses = rng.choice(1 << 20, size=n, replace=False) * 64
        dirty = rng.random(n) < 0.4
        filled = Cache(64 * 4 * 64, 4)
        for address, flag in zip(addresses.tolist(), dirty.tolist()):
            filled.fill(address, dirty=flag)
        warmed = Cache(64 * 4 * 64, 4)
        warmed.warm(addresses, dirty)
        assert self._contents(warmed) == self._contents(filled)
        assert warmed.writebacks == filled.writebacks

    def test_short_sequence_leaves_sets_partly_filled(self):
        cache = Cache(4 * 64, 2)  # two sets, two ways
        cache.warm(np.array([0, 128, 64]), np.array([True, False, True]))
        assert self._contents(cache) == [[(0, True), (128, False)],
                                         [(64, True)]]
        assert cache.writebacks == 0

    def test_warming_a_non_empty_cache_raises(self):
        cache = Cache(1024, 2)
        cache.fill(0)
        with pytest.raises(ValueError, match="empty"):
            cache.warm(np.array([64]), np.array([False]))
