"""Tests for the CAFO comparison scheme."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.coding import CAFOCode
from repro.coding.bitops import bytes_to_bits, zeros_in_bits
from repro.coding.reference import ReferenceCAFO

blocks64 = arrays(np.uint8, (64,), elements=st.integers(min_value=0, max_value=1))


class TestRoundTrip:
    @settings(max_examples=150)
    @given(blocks64, st.sampled_from([1, 2, 4, None]))
    def test_round_trip(self, block, iterations):
        code = CAFOCode(iterations=iterations)
        decoded = code.decode(code.encode(block[None, :]))
        assert (decoded[0] == block).all()

    def test_round_trip_batch(self):
        rng = np.random.default_rng(10)
        blocks = rng.integers(0, 2, size=(300, 64), dtype=np.uint8)
        for iters in (2, 4, None):
            code = CAFOCode(iterations=iters)
            assert (code.decode(code.encode(blocks)) == blocks).all()


class TestObjective:
    @settings(max_examples=100)
    @given(blocks64)
    def test_count_matches_encode(self, block):
        for iters in (2, 4):
            code = CAFOCode(iterations=iters)
            assert (
                code.count_zeros(block[None, :])[0]
                == zeros_in_bits(code.encode(block[None, :]))[0]
            )

    @settings(max_examples=100)
    @given(blocks64)
    def test_more_iterations_never_hurt(self, block):
        # Each greedy half-pass only applies strictly improving flips,
        # so CAFO4 <= CAFO2 <= no-coding in transmitted zeros.
        b = block[None, :]
        z2 = CAFOCode(iterations=2).count_zeros(b)[0]
        z4 = CAFOCode(iterations=4).count_zeros(b)[0]
        zfull = CAFOCode(iterations=None).count_zeros(b)[0]
        raw = 64 - int(block.sum())
        assert z4 <= z2 <= raw + 16  # flags all-ones when untouched
        assert zfull <= z4

    def test_converged_variant_is_fixed_point(self):
        # Running the convergent solver twice changes nothing.
        rng = np.random.default_rng(11)
        blocks = rng.integers(0, 2, size=(50, 64), dtype=np.uint8)
        code = CAFOCode(iterations=None)
        first = code.count_zeros(blocks)
        again = code.count_zeros(blocks)
        assert (first == again).all()

    def test_all_zero_block(self):
        # Rows all flip; flags cost 8 zeros — the DBI-equivalent floor.
        block = np.zeros((1, 64), dtype=np.uint8)
        assert CAFOCode(iterations=2).count_zeros(block)[0] == 8


class TestConfiguration:
    def test_latency_charging(self):
        assert CAFOCode(iterations=2).extra_latency_cycles == 2
        assert CAFOCode(iterations=4).extra_latency_cycles == 4

    def test_names(self):
        assert CAFOCode(iterations=2).name == "cafo2"
        assert CAFOCode(iterations=None).name == "cafo"

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            CAFOCode(iterations=0)


# Edge squares as 8 row bytes (row i = byte i, MSB = column 0), with the
# zeros CAFO2 sends for each.
EDGE_SQUARES = {
    "all-0x00": ([0x00] * 8, 8),  # every row flips: 8 flag zeros
    "all-0xFF": ([0xFF] * 8, 0),  # nothing flips
    "checkerboard": ([0xAA, 0x55] * 4, 32),  # 4 ones per row and column
    "one-hot-row": ([0xFF] + [0x00] * 7, 7),  # rows 1..7 flip
    # Every row flips (one 1 each), then column 0 (all zeros) flips.
    "one-hot-column": ([0x80] * 8, 9),
    "single-bit": ([0x01] + [0x00] * 7, 9),
}


class TestEdgeSquares:
    """The packed solver on degenerate squares, against the oracle."""

    @pytest.mark.parametrize("name", sorted(EDGE_SQUARES))
    def test_cafo2_zero_count(self, name):
        rows, zeros = EDGE_SQUARES[name]
        data = np.array([rows], dtype=np.uint8)
        assert CAFOCode(iterations=2).count_zeros_bytes(data)[0] == zeros

    @pytest.mark.parametrize("iterations", [1, 2, 3, 4, None])
    def test_matches_reference(self, iterations):
        lines = np.array(
            [rows for rows, _ in EDGE_SQUARES.values()], dtype=np.uint8
        )
        blocks = bytes_to_bits(lines)
        fast = CAFOCode(iterations=iterations)
        ref = ReferenceCAFO(iterations=iterations)
        assert np.array_equal(fast.encode_blocks(blocks),
                              ref.encode_blocks(blocks))
        assert np.array_equal(fast.count_zeros(blocks),
                              ref.count_zeros(blocks))
        assert np.array_equal(fast.count_zeros_bytes(lines),
                              ref.count_zeros_bytes(lines))
        # All edge squares in one line: per-line sums agree too.
        line = lines.reshape(1, -1)
        assert np.array_equal(fast.count_zeros_bytes(line),
                              ref.count_zeros_bytes(line))

    @pytest.mark.parametrize("iterations", [2, 4, None])
    def test_round_trip(self, iterations):
        lines = np.array(
            [rows for rows, _ in EDGE_SQUARES.values()], dtype=np.uint8
        )
        blocks = bytes_to_bits(lines)
        code = CAFOCode(iterations=iterations)
        words = code.encode_blocks(blocks)
        assert np.array_equal(code.decode_blocks(words), blocks)
        assert np.array_equal(zeros_in_bits(words), code.count_zeros(blocks))

    def test_shapes(self):
        code = CAFOCode(iterations=2)
        empty = np.zeros((0, 64), dtype=np.uint8)
        assert code.count_zeros_bytes(empty).shape == (0,)
        assert code.encode_blocks(np.zeros((0, 64), np.uint8)).shape == (0, 80)
        # Leading axes are kept: (2, 3) lines of 16 bytes -> (2, 3).
        data = np.full((2, 3, 16), 0xFF, dtype=np.uint8)
        assert code.count_zeros_bytes(data).shape == (2, 3)
        with pytest.raises(ValueError):
            code.count_zeros_bytes(np.zeros((1, 12), dtype=np.uint8))
