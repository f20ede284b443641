"""CAFO — Cost-Aware Flip Optimization, adapted to the MiL framework.

CAFO [Maddah et al., HPCA 2015] is a two-dimensional bus-invert code:
data is laid out as a square, and row and column inversions are applied
iteratively until no single flip improves the objective.  The paper
(Section 7.2) adapts CAFO to the zero-minimisation problem on an 8x8
square with eight row flags and eight column flags — an 80-bit codeword
with the same bandwidth overhead as MiLC.

Because unbounded iteration gives a *non-deterministic* latency (which
the MiL memory controller cannot schedule around), the paper evaluates
fixed-iteration variants: CAFO2 (one row pass + one column pass) and
CAFO4 (two of each), charging one extra DRAM cycle of tCL per
iteration.  Those variants are what :class:`CAFOCode` implements; pass
``iterations=None`` to run to convergence like the original CAFO.

Flag polarity follows DBI: a transmitted flag bit of 1 means
"not flipped", so untouched rows/columns cost no extra zeros on the
pseudo-open-drain bus.

Codeword layout (80 bits)::

    [ effective 8x8 square, row-major (64) | row flags (8) | col flags (8) ]

where flag bit = 1 - flip_indicator.
"""

from __future__ import annotations

import numpy as np

from .base import CodingScheme
from .bitops import byte_popcount_table
from .registry import register_codec

__all__ = ["CAFOCode"]

# The solver works on packed squares: one uint64 per 8x8 square, row
# ``i`` in byte ``i`` (bits 8i..8i+7) and the row's MSB-first bit order
# kept, so a row is a data byte and ``_REPLICATE * b`` copies byte
# ``b`` into every row.  Row flips are held as byte masks (0xFF for a
# flipped row) and column flips as one byte in row-bit positions, so
# both apply with a single XOR.
_REPLICATE = np.uint64(0x0101010101010101)
_POPCOUNT = byte_popcount_table()
_ZEROS = (8 - _POPCOUNT).astype(np.uint8)
# A row (or column) with p ones after the other dimension's flips costs
# 8 - p zeros sent straight and p + 1 flipped (its flag wire reads 0),
# so a pass flips it iff p <= 3 — whatever its flag was before the pass.
_FLIP = (_POPCOUNT <= 3).astype(np.uint8)
_FLIP_MASK = _FLIP * np.uint8(0xFF)


def _squares(data: np.ndarray) -> np.ndarray:
    """``(..., 8m)`` uint8 rows -> flat uint64 squares (row i in byte i)."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    return data.view("<u8").reshape(-1).astype(np.uint64, copy=False)


def _row_bytes(squares: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_squares`: the flat row bytes of each square."""
    return squares.astype("<u8", copy=False).view(np.uint8)


def _transpose(x: np.ndarray) -> np.ndarray:
    """8x8 bit transpose: byte k of the result is bit k of every row."""
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0)):
        shift, mask = np.uint64(shift), np.uint64(mask)
        t = (x ^ (x >> shift)) & mask
        x = x ^ t ^ (t << shift)
    return x


def _spread(cf: np.ndarray) -> np.ndarray:
    """Column flip bytes -> masks flipping those columns in every row."""
    return cf.astype(np.uint64) * _REPLICATE


def _row_flips(squares: np.ndarray, cf: np.ndarray) -> np.ndarray:
    """Row flip masks given column flips ``cf`` (one byte per square)."""
    return _squares(_FLIP_MASK[_row_bytes(squares ^ _spread(cf))])


def _column_flips(squares: np.ndarray, rm: np.ndarray) -> np.ndarray:
    """Column flip byte given row flip masks ``rm``."""
    columns = _row_bytes(_transpose(squares ^ rm))
    return np.packbits(
        _FLIP[columns].reshape(-1, 8), axis=1, bitorder="little"
    ).reshape(-1)


def _solve(
    squares: np.ndarray, iterations: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Row flip masks and column flip bytes for packed ``squares``.

    Passes are synchronised: a row pass re-decides every row from the
    current column flips, a column pass every column from the current
    row flips.  ``iterations`` half-passes alternate row, column, row,
    ...; ``None`` repeats row+column sweeps over an *active set* until a
    sweep changes nothing (a fixed point — those squares can never
    change again).  Each accepted flip strictly lowers the square's
    zeros, so this terminates; 64 sweeps is a generous safety bound.
    """
    n = squares.shape[0]
    rm = np.zeros(n, dtype=np.uint64)
    cf = np.zeros(n, dtype=np.uint8)
    if iterations is not None:
        for i in range(iterations):
            if i % 2 == 0:
                rm = _row_flips(squares, cf)
            else:
                cf = _column_flips(squares, rm)
        return rm, cf
    active = np.arange(n)
    for _ in range(64):
        sq = squares[active]
        r = _row_flips(sq, cf[active])
        c = _column_flips(sq, r)
        changed = (r != rm[active]) | (c != cf[active])
        rm[active] = r
        cf[active] = c
        active = active[changed]
        if active.size == 0:
            break
    return rm, cf


class CAFOCode(CodingScheme):
    """(64, 80) iterative two-dimensional bus-invert code.

    Parameters
    ----------
    iterations:
        Number of half-passes (row pass, column pass, row pass, ...).
        ``2`` and ``4`` reproduce the paper's CAFO2/CAFO4; ``None`` runs
        until a full row+column sweep makes no change (original CAFO).
    """

    data_bits = 64
    code_bits = 80

    def __init__(self, iterations: int | None = 2):
        if iterations is not None and iterations < 1:
            raise ValueError("iterations must be >= 1 or None")
        self.iterations = iterations
        self.name = "cafo" if iterations is None else f"cafo{iterations}"
        # One DRAM cycle per synchronised iteration (Section 7.2).  The
        # convergent variant is charged its worst case: a full sweep per
        # dimension repeated; the paper observes 4 iterations suffice.
        self.extra_latency_cycles = iterations if iterations is not None else 4

    # ------------------------------------------------------------------
    # CodingScheme interface
    # ------------------------------------------------------------------
    def encode_blocks(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        lead = data_bits.shape[:-1]
        squares = _squares(np.packbits(data_bits, axis=-1))
        n = squares.shape[0]

        rm, cf = _solve(squares, self.iterations)
        eff = _row_bytes(squares ^ rm ^ _spread(cf))
        code = np.concatenate(
            [
                np.unpackbits(eff).reshape(n, 64),
                (_row_bytes(rm) & 1).reshape(n, 8) ^ 1,
                np.unpackbits(cf[:, None], axis=1) ^ 1,
            ],
            axis=1,
        )
        return code.reshape(lead + (80,))

    def decode_blocks(self, code_bits: np.ndarray) -> np.ndarray:
        code_bits = np.asarray(code_bits, dtype=np.uint8)
        lead = code_bits.shape[:-1]
        flat = code_bits.reshape(-1, 80)
        n = flat.shape[0]

        eff = flat[:, :64].reshape(n, 8, 8)
        rf = (1 - flat[:, 64:72]).astype(np.uint8)
        cf = (1 - flat[:, 72:80]).astype(np.uint8)
        data = eff ^ rf[:, :, None] ^ cf[:, None, :]
        return data.reshape(lead + (64,))

    def count_zeros(self, data_bits: np.ndarray) -> np.ndarray:
        return self.count_zeros_bytes(
            np.packbits(np.asarray(data_bits, dtype=np.uint8), axis=-1)
        )

    def count_zeros_bytes(self, data: np.ndarray) -> np.ndarray:
        """Zero count from uint8 bytes; 8-byte groups form 64-bit blocks."""
        data = np.asarray(data, dtype=np.uint8)
        lead, k = data.shape[:-1], data.shape[-1]
        if k % 8 != 0:
            raise ValueError("CAFO operates on whole 8-byte blocks")
        squares = _squares(data)
        rm, cf = _solve(squares, self.iterations)
        eff = squares ^ rm ^ _spread(cf)
        # Per row: its transmitted zeros plus its flag wire (0 = flipped);
        # per square: its column flag wires.
        rows = _ZEROS[_row_bytes(eff)] + (_row_bytes(rm) & 1)
        columns = _POPCOUNT[cf]
        return rows.reshape(lead + (k,)).sum(
            axis=-1, dtype=np.int64
        ) + columns.reshape(lead + (k // 8,)).sum(axis=-1, dtype=np.int64)


# The two deterministic-latency design points the paper evaluates
# (Section 7.2): k half-passes cost k extra cycles of tCL.
register_codec(
    "cafo2", burst_length=10, extra_latency=2, layout="beat", pins=64,
    description="CAFO with two fixed iterations, under the MiL framework",
)(lambda: CAFOCode(iterations=2))
register_codec(
    "cafo4", burst_length=10, extra_latency=4, layout="beat", pins=64,
    description="CAFO with four fixed iterations",
)(lambda: CAFOCode(iterations=4))
