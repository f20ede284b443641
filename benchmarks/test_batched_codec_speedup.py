"""Gate: the batched numpy kernels actually beat the pure-Python oracles.

The oracles in ``tests/oracles/codecs.py`` are the correctness
reference while the vectorised numpy kernels carry the hot path.  That
division of labour is only honest if the fast path is actually fast:
for each gated scheme, ``coding.encode_trace.<scheme>`` (see
``repro.bench.suite``) and the oracle codec's ``encode_lines`` time the
same batched encode — same 256-line corpus, same layout, arranged once
before timing — and the numpy median must come out at least 3x ahead.

The observed margins are 15-200x; 3x leaves generous head-room for
slow CI machines while still catching a silent fall-back to
per-element Python in a rewritten kernel.
"""

import pytest

from repro.bench import corpus, get, measure
from repro.coding.registry import beat_layout, scheme_info
from tests.oracles.codecs import oracle_for

MIN_SPEEDUP = 3.0
ATTEMPTS = 3  # whole-comparison retries before failing
GATED_SCHEMES = ("milc", "cafo2", "3lwc")


def _oracle_kernel(scheme, bench):
    data = corpus.lines(bench.params["lines"])
    if scheme_info(scheme).layout == "beat":
        data = beat_layout(data)
    codec = oracle_for(scheme)
    return lambda: codec.encode_lines(data)


@pytest.mark.parametrize("scheme", GATED_SCHEMES)
def test_numpy_kernel_beats_reference(scheme):
    fast = get(f"coding.encode_trace.{scheme}")
    oracle = _oracle_kernel(scheme, fast)

    best = 0.0
    for _ in range(ATTEMPTS):
        t_fast = measure(fast.build(), repeats=5, warmup=1,
                         inner_ops=fast.inner_ops).median_ns
        t_oracle = measure(oracle, repeats=3, warmup=1,
                           inner_ops=fast.inner_ops).median_ns
        speedup = t_oracle / t_fast
        best = max(best, speedup)
        if speedup >= MIN_SPEEDUP:
            return
    pytest.fail(
        f"{scheme}: numpy encode_trace speedup {best:.2f}x over the "
        f"oracle is below the {MIN_SPEEDUP}x gate"
    )


@pytest.mark.parametrize("scheme", GATED_SCHEMES)
def test_gated_backends_agree(scheme):
    # The gate times the same computation; prove it IS the same.
    fast = get(f"coding.encode_trace.{scheme}")
    fast_bits = fast.build()()
    oracle_bits = _oracle_kernel(scheme, fast)()
    assert fast_bits.shape == oracle_bits.shape
    assert (fast_bits == oracle_bits).all()
