"""Tests for the stream prefetcher."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system import PrefetcherConfig, StreamPrefetcher


def feed_sequential(pf, start_line, count, direction=1):
    issued = []
    for i in range(count):
        issued += pf.observe((start_line + i * direction) * 64)
    return issued


class TestTraining:
    def test_no_prefetch_before_confirmation(self):
        pf = StreamPrefetcher(PrefetcherConfig(degree=2))
        assert pf.observe(0) == []
        assert pf.observe(64) == []  # first confirmation only trains

    def test_sequential_stream_prefetches_ahead(self):
        pf = StreamPrefetcher(PrefetcherConfig(distance=8, degree=2))
        issued = feed_sequential(pf, 100, 10)
        assert issued, "trained stream must prefetch"
        # Prefetches are strictly ahead of the demand stream.
        assert min(issued) > 101 * 64

    def test_descending_stream_supported(self):
        pf = StreamPrefetcher(PrefetcherConfig(distance=8, degree=2))
        issued = feed_sequential(pf, 500, 10, direction=-1)
        assert issued
        assert max(issued) < 500 * 64

    def test_repeated_same_line_is_quiet(self):
        pf = StreamPrefetcher(PrefetcherConfig())
        pf.observe(0)
        for _ in range(5):
            assert pf.observe(0) == []


class TestLimits:
    def test_degree_caps_prefetches_per_access(self):
        pf = StreamPrefetcher(PrefetcherConfig(distance=32, degree=4))
        for i in range(20):
            issued = pf.observe(i * 64)
            assert len(issued) <= 4

    def test_distance_caps_runahead(self):
        cfg = PrefetcherConfig(distance=4, degree=4)
        pf = StreamPrefetcher(cfg)
        last_line = 0
        for i in range(30):
            last_line = i
            for addr in pf.observe(i * 64):
                assert addr // 64 <= last_line + cfg.distance

    def test_no_duplicate_prefetches(self):
        pf = StreamPrefetcher(PrefetcherConfig(distance=16, degree=2))
        issued = feed_sequential(pf, 0, 40)
        assert len(issued) == len(set(issued))

    def test_stream_table_capacity(self):
        pf = StreamPrefetcher(PrefetcherConfig(nstreams=4))
        for s in range(10):
            pf.observe(s * 1_000_000)
        assert pf.active_streams <= 4

    def test_lru_stream_replacement(self):
        pf = StreamPrefetcher(PrefetcherConfig(nstreams=2, degree=1))
        pf.observe(0)  # stream A
        pf.observe(1_000_000)  # stream B
        pf.observe(64)  # refresh A
        pf.observe(2_000_000)  # evicts B (LRU)
        issued = pf.observe(128)  # A still trained enough to advance
        assert pf.active_streams == 2
        assert issued or pf.observe(192)


class _MinTickPrefetcher(StreamPrefetcher):
    """Checks each victim against min() over last-use ticks.

    Every observe() uses (or allocates) exactly one slot, so ticks are
    unique and the slot with the oldest tick is the one to replace.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.clock = 0
        self.ticks = {}

    def _stamp(self, slot):
        self.clock += 1
        self.ticks[slot] = self.clock

    def _touch(self, slot):
        super()._touch(slot)
        self._stamp(slot)

    def _allocate(self, line):
        full = len(self._streams) >= self.config.nstreams
        slot = min(self.ticks, key=self.ticks.get) if full else len(
            self._streams
        )
        super()._allocate(line)
        # No stream sat within the match window of ``line``, so only the
        # new stream can have it as its last line.
        assert self._streams[slot].last_line == line
        assert self._streams[slot].confirmations == 0
        if not full:
            self._stamp(slot)


class TestLRUOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=0, max_value=400), max_size=200),
    )
    def test_victim_is_oldest_tick(self, nstreams, lines):
        pf = _MinTickPrefetcher(PrefetcherConfig(nstreams=nstreams))
        for line in lines:
            pf.observe(line * 64)
        assert pf.active_streams <= nstreams


class TestTable2Configs:
    def test_server_config(self):
        from repro.system import NIAGARA_SERVER

        cfg = NIAGARA_SERVER.prefetcher
        assert (cfg.nstreams, cfg.distance, cfg.degree) == (64, 32, 4)

    def test_mobile_config(self):
        from repro.system import SNAPDRAGON_MOBILE

        cfg = SNAPDRAGON_MOBILE.prefetcher
        assert (cfg.nstreams, cfg.distance, cfg.degree) == (64, 8, 1)
