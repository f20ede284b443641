"""Golden pins for the front half of a run: trace build and zero tables.

``build_trace`` (the L1/L2 + MESI + prefetcher filter, including the L2
warm-up) and the per-scheme zero tables feed every result, yet the
campaign pins in ``tests/campaign/test_determinism.py`` only see them
through a whole ``RunSummary``.  These pins hash them directly, so a
change to the hierarchy or a codec kernel must reproduce them bit for
bit: the trace records, the payload bytes, the hierarchy stats and
every real scheme's zero table, for three benchmarks on both systems.

The values were captured before the L2 warm-up was built directly and
before CAFO moved to the packed-byte solver.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.coding import pipeline
from repro.coding.registry import real_schemes
from repro.system.machine import SYSTEMS
from repro.workloads.benchmarks import build_trace

ACCESSES_PER_CORE = 150

# sha256 per (benchmark, system): "trace" covers the records (core, gap,
# address, is_write, line_id, is_prefetch, dependent) as little-endian
# int64 rows, then ``line_data`` and ``stats`` as sorted JSON; each
# scheme covers its zero table as little-endian int64.
PINS = {
    ("GUPS", "ddr4-server"): {
        "trace": "6496e409dcfe1ce306796a52bdd245013a7906b83ce7dffa79127c6396ce3817",
        "cafo2": "fb4ee5acb6f9bb42bc192621d816e0e525826bcf985d79f1a7d8cee4eb30f91b",
        "cafo4": "d65bafb5dce2245e0d7d39264b5806ec99619023a839fff67a7297cc6b5f9a57",
        "dbi": "9f92d92c5229a096f3229397e6a602c789d7d5698cd3345d46a6c513f3d5df6a",
        "3lwc": "ea597ec5462ca48833f39954a5366397290d913a379e19ddde1a557fc6524871",
        "lwc12": "d3077c3a151f5f5c53e51d9bbfc76a36aa56f985f63c7485058c2ea0b329b659",
        "milc": "31b82dffa9a6d41388a75c95163b8140e2fea790cefef11074c53f764432b300",
        "raw": "366b3932a1a9c481dc8a2e09ff117bc81189bc2cba910a5009c29a37eef132be",
    },
    ("MM", "ddr4-server"): {
        "trace": "67115fb888327291ff80fe5939932200f1d43c5e9f97ff1d8b5d5ae3d1e64756",
        "cafo2": "35f6ba103d9c38609147ca0ab7b4141a23b8c4e4d3638695f40c5613e8d4e3be",
        "cafo4": "61e1e207a5dc9dcd728d3a079ab39e201fe4d66c8376abe5923453f369f3e7a5",
        "dbi": "cfee1ef101efeeb41ff10acf17da6995e05825b61c1139b44e33da91c0388026",
        "3lwc": "32e6a0b319e52c8512484b146d05ef90773e0e9d861f1d5b92fa31023d923819",
        "lwc12": "4f5f6688ebccba6219c2695263e784468eae0fcaed2c88d762717ccf2f4761f3",
        "milc": "e2b473c2fbd2802e67358b2ce9e3504c7c769043fd888970ab60e92444c5b5b4",
        "raw": "7c603a8957efc9893f28c13a67c9e76515f4fe2188d68d6fce69f39330593cc0",
    },
    ("SWIM", "ddr4-server"): {
        "trace": "fad5300841bc74ea0e2800ae14901cb3cb1fb89e62b480c33b4db608611c8ca6",
        "cafo2": "439f851b69e9267286e238332771347c61ccdfe49db7aba1283c2a00f3fbb49f",
        "cafo4": "83e001b2abf6f020dc006783d1deb3e9079eaf0449c8c85a37a78f573aabb151",
        "dbi": "dec2fd86857addc988b23c698b2fc3376b7a296ec5b8f6b400687f3cfd321096",
        "3lwc": "192174fd51f653761e2f6002a6d9ce409c714ca3e075e21ac68eb143437a2e8f",
        "lwc12": "18503fbad366847eadea90f5ed4882872b27b5a56f91ba064d04fb2acd45e4e3",
        "milc": "1a376e26ec501802ce47f9e3002454510b086b2dd6a3058466236ef983f075a3",
        "raw": "a28094f72e1f313dd8058e2bd3eafd15ee4ca400114cb70ba83d61112d6fb72e",
    },
    ("GUPS", "lpddr3-mobile"): {
        "trace": "d17bcdc036daa4e1d813d31814981126d84d109d7ae2d9be433512f64953c44d",
        "cafo2": "021dbf30d0b7fb25261d08563a35e76b1a994aed9901ec9e3dd5ee1ef120a565",
        "cafo4": "de13e428564d64b11f7475a9c9a20eac59cbaaf3d0359226ca1ac721cf747128",
        "dbi": "a7ae20dbdf16df9d53a8f07dfe723ae3576b0ae3284c04358f6073732ceb79cd",
        "3lwc": "5ab90a48b0a953a37aa16a5f2a211cfd31106c81f71a7313ab8bed6e283c5a1a",
        "lwc12": "83b9b217298009dd5ececa8011dbcab1501891ace1419ef6d70ef17d9bf2b731",
        "milc": "50465a6d097133da6091d3932b303685cb6e35d7a11babe44ba32d1aa4b7aea4",
        "raw": "0c836a56a6222ba3a0d70094c3e3d7309a412bb2c1be0643bc96e661b0676743",
    },
    ("MM", "lpddr3-mobile"): {
        "trace": "9752857ec80a4cee060ca2ccbd2bcc8b11226a6c640ca5dd183d07c4da22a464",
        "cafo2": "90890f7e32deabac4a63a566cf2d163dce4dd58371e3ba0080c8f153aeb27c99",
        "cafo4": "7d0802e24c7c2a142bcf139733a0eb5ca4bf2183fae600f5280cbd58dbce9ef5",
        "dbi": "c580444bc7d0aa88ac1c86ac0197c390552127f391e24efd99560e772b2d1562",
        "3lwc": "c2f59ed702804e6366aea9dd67d93d496488e588c5b321c0c25b25cb39a2838e",
        "lwc12": "311889e746cb5bfcc68433a45d85eae7d0523c5a461596533809e2413139ac20",
        "milc": "2d133623b4ffdca9d68a36654a8cb6d3d08ab91aabb803122b021178d5c038e0",
        "raw": "d1a16bfbc9e37ea34eeaf78384ec56cf7f6e6fcc85df91c76f32ab6f2340b2f3",
    },
    ("SWIM", "lpddr3-mobile"): {
        "trace": "c8389e16f8ecb8444616cb3ec7435f0ee896ba337aef06d5848dcc413b46e244",
        "cafo2": "9e45b1bf5b47cbc9fd4b08389166f95f575998ba2f83ae9373bc08238b261302",
        "cafo4": "0ee1d0f4ca0629bac43f6ade55a6d5b939c484e902dd82330078a3233d35960f",
        "dbi": "294762cdbdc7d54745ff7e35ac7f29c8fe908b453e77061ce9999da1888fd951",
        "3lwc": "ccd059ed3fbf23fd5ce2b2b104bb79e7c16fea20b904ad86a99f6bc1c885c7ab",
        "lwc12": "71814e49d4168d712847f0dd1636968f0a0c82d7d897287215d5844a81a0ccd4",
        "milc": "f3be0bd87b2414a7b37cfd1efab45c2add5473161238c7062faf187f236282ac",
        "raw": "7a4284793340c2347a2d35cf10af9a62ff1d69f39000348523a39fa2c1809398",
    },
}


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def front_half_digests(benchmark: str, system: str) -> dict[str, str]:
    trace = build_trace(
        benchmark, SYSTEMS[system], accesses_per_core=ACCESSES_PER_CORE,
        use_cache=False,
    )
    records = np.array(
        [
            (r.core, r.gap, r.address, r.is_write, r.line_id,
             r.is_prefetch, r.dependent)
            for recs in trace.records_by_core
            for r in recs
        ],
        dtype="<i8",
    )
    digests = {
        "trace": _sha256(
            records.tobytes(),
            trace.line_data.tobytes(),
            json.dumps(trace.stats, sort_keys=True).encode(),
        )
    }
    tables = pipeline.precompute_line_zeros(
        trace.line_data, real_schemes(), cache=False
    )
    for scheme, table in tables.items():
        digests[scheme] = _sha256(np.asarray(table, dtype="<i8").tobytes())
    return digests


def test_pins_cover_every_real_scheme():
    for pinned in PINS.values():
        assert set(pinned) == {"trace", *real_schemes()}


# (``benchmark`` is pytest-benchmark's fixture name, hence ``workload``.)
@pytest.mark.parametrize("workload, system", sorted(PINS))
def test_front_half_is_pinned(workload, system):
    assert front_half_digests(workload, system) == PINS[workload, system]
