#!/usr/bin/env python
"""Register a brand-new coding scheme and policy — in one file.

The registry makes a codec a self-contained plugin: this script defines
an (8, 14) 3-limited-weight code the paper never evaluates — a design
point *between* the Section 7.5.3 ``lwc12`` (BL12) and the full (8, 17)
3-LWC (BL16) — registers it as the ``lwc14`` scheme plus a
``mil-lwc14`` policy that uses it as MiL's opportunistic long code, and
then drives the stock CLI end-to-end.  No file inside ``src/repro`` is
touched: burst formats, zero tables, ``MiLConfig`` validation, energy
accounting, and ``--policy`` choices all pick the new entries up from
the registries.

Usage::

    python examples/custom_codec.py [--fast]

See docs/EXTENDING.md for the recipe this script demonstrates.
"""

import sys

import numpy as np

from repro.cli import main as repro_main
from repro.coding import KLimitedWeightCode, codec_for, register_codec
from repro.core import MiLPolicy, PolicyContext, register_policy

# ----------------------------------------------------------------------
# 1. The codec.  An (8, 14) 3-LWC: C(14,0..3) = 470 >= 256 codewords of
#    weight <= 3, so every byte fits with at most three 0s on the bus.
#    Fourteen beats over the 64 data pins -> burst length 14, occupying
#    the slot the Figure 20 sweep probes with the codec-less ``bl14``.
#    The factory passed to register_codec builds the scheme's codec,
#    once, on first use.
# ----------------------------------------------------------------------
register_codec(
    "lwc14", burst_length=14, extra_latency=1, layout="line", pins=64,
    description="(8, 14) 3-LWC between lwc12 (BL12) and 3lwc (BL16)",
)(lambda: KLimitedWeightCode(8, 14, 3))


def _check_codec() -> None:
    """The code's two promises, checked on every byte value: each byte
    decodes back to itself, and none puts more than three 0s on the bus
    (the registered codecs are held to their pure-Python oracles in
    tests/coding/test_backend_equivalence.py)."""
    code = codec_for("lwc14")
    data = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    words = code.encode(data)
    assert words.shape == (256, 14)
    assert np.array_equal(code.decode(words), data)
    assert code.count_zeros(data).max() <= 3


# ----------------------------------------------------------------------
# 2. The policy.  Same opportunistic framework, new long code: MiLC when
#    the rdyX window is busy, the (8, 14) code when it is clear.
# ----------------------------------------------------------------------
@register_policy(
    "mil-lwc14", schemes=("milc", "lwc14"), mil_family=True,
    description="mil with the (8, 14) 3-LWC as its long code",
)
def _build_mil_lwc14(ctx: PolicyContext):
    config = ctx.mil_config(lookahead=ctx.lookahead, long_scheme="lwc14")
    return lambda: MiLPolicy(config, ctx.zeros_by_scheme)


def main() -> int:
    _check_codec()
    scale = "800" if "--fast" in sys.argv else "2500"
    # The stock CLI, unmodified: --policy now accepts mil-lwc14 because
    # the parser reads its choices from the policy registry, and the run
    # resolves every codec — including lwc14 — through the codec registry.
    return repro_main([
        "run", "CG", "--policy", "mil-lwc14", "--scale", scale,
        "--baseline",
    ])


if __name__ == "__main__":
    sys.exit(main())
