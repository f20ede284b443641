"""Per-byte codes against the memoryless lower bound on zeros.

A memoryless (8, n) code maps each of the 256 byte values to its own
n-bit codeword.  Over all 256 values it therefore puts at least as many
0s on the bus as the 256 n-bit words with the fewest 0s hold between
them: one word with no 0, ``C(n, 1)`` words with one, ``C(n, 2)`` with
two, and so on until 256 words are taken.  This is the optimum that
Chee–Colbourn characterise for optimal memoryless encoding (arXiv
0712.2640) and Valentini–Chiani for limited-weight codes (arXiv
2303.06409).  On uniform data, the mean zeros per byte can only reach
the bound divided by 256.

The bound is computed here from the binomial sums alone, not through
``repro.coding.optimal_lwc.codeword_zero_levels``, so the code under
test cannot also supply the number it is checked against.
"""

from math import comb

import numpy as np
import pytest

from repro.coding import OptimalStaticLWC, codec_for

BYTES = 256


def memoryless_bound(n_bits: int, values: int = BYTES) -> int:
    """Fewest total zeros any injective map of ``values`` words into
    ``n_bits``-bit codewords can produce."""
    total, left, zeros = 0, values, 0
    while left:
        take = min(comb(n_bits, zeros), left)
        total += take * zeros
        left -= take
        zeros += 1
    return total


def zeros_over_all_bytes(code) -> int:
    """Total 0s the code puts on the bus encoding every byte value once."""
    bits = np.unpackbits(np.arange(BYTES, dtype=np.uint8)[:, None], axis=1)
    words = code.encode(bits)
    assert words.shape == (BYTES, code.code_bits)
    # Injective: 256 distinct codewords, or the bound does not apply.
    assert len({w.tobytes() for w in words}) == BYTES
    return int(code.count_zeros(bits).sum())


@pytest.mark.parametrize("n_bits, bound", [
    (9, 837), (12, 675), (14, 646), (17, 595),
])
def test_closed_form_values(n_bits, bound):
    assert memoryless_bound(n_bits) == bound


@pytest.mark.parametrize("scheme, n_bits", [("dbi", 9), ("lwc12", 12)])
def test_registered_code_meets_the_bound(scheme, n_bits):
    # DBI and the enumerative lwc12 hand the fewest-zero codewords out
    # first, so both are optimal memoryless codes.
    code = codec_for(scheme)
    assert code.code_bits == n_bits
    assert zeros_over_all_bytes(code) == memoryless_bound(n_bits)


@pytest.mark.parametrize("n_bits", [9, 12, 14, 17])
def test_optimal_static_code_meets_the_bound(n_bits):
    code = OptimalStaticLWC(n_bits)
    assert zeros_over_all_bytes(code) == memoryless_bound(n_bits)


def test_three_lwc_sits_five_zeros_above_the_bound():
    # The optimum takes 1, 17, 136 and 102 words with 0, 1, 2 and 3
    # zeros.  The (8, 17) 3-LWC's nibble-plus-mode layout reaches only
    # 15 of the one-zero words and 135 of the two-zero ones, so three
    # more bytes cost three zeros: 600 where the bound is 595.
    code = codec_for("3lwc")
    bound = memoryless_bound(17)
    zeros = zeros_over_all_bytes(code)
    assert zeros >= bound
    assert (bound, zeros - bound) == (595, 5)
    bits = np.unpackbits(np.arange(BYTES, dtype=np.uint8)[:, None], axis=1)
    assert np.bincount(code.count_zeros(bits)).tolist() == [1, 15, 135, 105]
