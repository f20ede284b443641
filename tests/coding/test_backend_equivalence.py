"""The production codecs agree bit-exactly with the pure-Python oracles.

Each registered codec has one production implementation, the
vectorised numpy kernel.  The oracles in ``tests/oracles/codecs.py``
were written independently from those kernels precisely so this suite
can catch a bug in either: hypothesis sweeps arbitrary payloads through
the oracle and the production codec of every registered scheme and
requires bit-exact agreement on every public surface, including
decoding each other's codewords.

The zero-table tests pin the consequence the campaign layer relies on:
the tables ``precompute_line_zeros`` and ``LazyZeroTables`` build (and
therefore cache entries and run summaries) are byte-identical to the
ones the oracles produce.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import pipeline, registry, zerocache
from repro.coding.bitops import bytes_to_bits
from repro.coding.cafo import CAFOCode
from repro.core.framework import LazyZeroTables
from tests.oracles.codecs import (
    ReferenceCAFO,
    oracle_encode_trace,
    oracle_for,
    oracle_line_zeros,
)

MAX_EXAMPLES = 25

# Every registered codec scheme; each must have an oracle.
SCHEMES = sorted(registry.codec_schemes())

# Arbitrary whole cache lines: 1-4 lines of 64 bytes.
line_payloads = st.binary(min_size=64, max_size=256).map(
    lambda raw: np.frombuffer(
        raw[: len(raw) - len(raw) % 64], dtype=np.uint8
    ).reshape(-1, 64)
).filter(lambda lines: lines.shape[0] >= 1)


def _backends(scheme):
    ref = oracle_for(scheme)
    fast = registry.codec_for(scheme)
    assert type(ref) is not type(fast), (
        f"{scheme}: the oracle is the production codec"
    )
    return ref, fast


def _blocks(lines, data_bits):
    return bytes_to_bits(lines).reshape(-1, data_bits)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestBackendsAgree:
    @given(lines=line_payloads)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_encode_and_counts_bit_exact(self, scheme, lines):
        ref, fast = _backends(scheme)
        blocks = _blocks(lines, fast.data_bits)

        ref_words = ref.encode_blocks(blocks)
        fast_words = fast.encode_blocks(blocks)
        assert np.array_equal(ref_words, fast_words)
        assert np.array_equal(
            ref.count_zeros(blocks), fast.count_zeros(blocks)
        )
        assert np.array_equal(
            ref.count_zeros_bytes(lines), fast.count_zeros_bytes(lines)
        )
        assert np.array_equal(
            ref.encode_lines(lines), fast.encode_lines(lines)
        )
        assert np.array_equal(ref.line_zeros(lines), fast.line_zeros(lines))

    @given(lines=line_payloads)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_cross_decode_round_trips(self, scheme, lines):
        # Each backend must decode the *other's* codewords: same code,
        # not merely two self-consistent codes.
        ref, fast = _backends(scheme)
        blocks = _blocks(lines, fast.data_bits)
        assert np.array_equal(
            ref.decode_blocks(fast.encode_blocks(blocks)), blocks
        )
        assert np.array_equal(
            fast.decode_blocks(ref.encode_blocks(blocks)), blocks
        )

    def test_encode_trace_matches_across_impls(self, scheme):
        rng = np.random.default_rng(2015)
        lines = rng.integers(0, 256, size=(16, 64), dtype=np.uint8)
        assert np.array_equal(
            oracle_encode_trace(scheme, lines),
            pipeline.encode_trace(scheme, lines),
        )


@pytest.mark.parametrize("iterations", [2, 4, None])
class TestCAFOSolverAgrees:
    """The packed-byte CAFO solver against the nested-loop oracle.

    Covers the convergent ``iterations=None`` variant, which has no
    registry entry and so is not reached through ``TestBackendsAgree``.
    """

    @given(lines=line_payloads)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_bit_exact(self, iterations, lines):
        fast = CAFOCode(iterations=iterations)
        ref = ReferenceCAFO(iterations=iterations)
        blocks = _blocks(lines, 64)
        assert np.array_equal(fast.encode_blocks(blocks),
                              ref.encode_blocks(blocks))
        assert np.array_equal(fast.count_zeros(blocks),
                              ref.count_zeros(blocks))
        assert np.array_equal(fast.count_zeros_bytes(lines),
                              ref.count_zeros_bytes(lines))
        assert np.array_equal(
            ref.decode_blocks(fast.encode_blocks(blocks)), blocks
        )

    def test_low_weight_lines(self, iterations):
        # Sparse squares take the most flips and, for the convergent
        # variant, the most sweeps.
        rng = np.random.default_rng(14)
        lines = (rng.random((64, 64)) < 0.1).astype(np.uint8) * rng.integers(
            0, 256, size=(64, 64), dtype=np.uint8
        )
        fast = CAFOCode(iterations=iterations)
        ref = ReferenceCAFO(iterations=iterations)
        assert np.array_equal(fast.count_zeros_bytes(lines),
                              ref.count_zeros_bytes(lines))


class TestZeroTablesImplIndependent:
    def test_tables_byte_identical_across_impls(self):
        # raw plus every codec: the production tables, eager and lazy,
        # against the ones the oracles rebuild, layout and all.
        rng = np.random.default_rng(80)
        lines = rng.integers(0, 256, size=(32, 64), dtype=np.uint8)
        schemes = ("raw",) + tuple(SCHEMES)
        tables = pipeline.precompute_line_zeros(lines, schemes, cache=False)
        lazy = LazyZeroTables(SimpleNamespace(
            line_data=lines, line_digest=zerocache.lines_digest(lines)
        ))
        for scheme in schemes:
            want = oracle_line_zeros(scheme, lines)
            for got in (tables[scheme], lazy[scheme]):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
