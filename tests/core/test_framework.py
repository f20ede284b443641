"""End-to-end tests for the MiL run framework."""

import numpy as np
import pytest

from repro.core import POLICIES, RunSummary, make_policy_factory, run
from repro.core.framework import energy_params_for, system_energy_params_for
from repro.system import NIAGARA_SERVER, SNAPDRAGON_MOBILE

SCALE = 1500  # accesses per core: small but statistically meaningful


@pytest.fixture(scope="module")
def gups_runs():
    return {
        policy: run("GUPS", NIAGARA_SERVER, policy, accesses_per_core=SCALE)
        for policy in ("dbi", "milc", "mil", "3lwc")
    }


class TestRunSummary:
    def test_round_trips_through_json(self, gups_runs):
        import json

        summary = gups_runs["mil"]
        restored = RunSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert restored.cycles == summary.cycles
        assert restored.scheme_counts == summary.scheme_counts
        assert restored.dram_energy == summary.dram_energy

    def test_pending_fractions_sum_to_one(self, gups_runs):
        p = gups_runs["dbi"].pending
        assert sum(p.values()) == pytest.approx(1.0)

    def test_histograms_populated(self, gups_runs):
        assert sum(gups_runs["dbi"].idle_gaps.values()) > 0
        assert sum(gups_runs["dbi"].slack.values()) > 0


class TestPolicyEffects:
    def test_same_trace_all_policies(self, gups_runs):
        records = {s.trace_records for s in gups_runs.values()}
        assert len(records) == 1  # paired comparison guaranteed

    def test_sparse_codes_cut_zeros(self, gups_runs):
        base = gups_runs["dbi"].total_zeros
        assert gups_runs["milc"].total_zeros < base
        assert gups_runs["3lwc"].total_zeros < gups_runs["milc"].total_zeros

    def test_mil_between_milc_and_always_lwc(self, gups_runs):
        assert (
            gups_runs["3lwc"].total_zeros
            <= gups_runs["mil"].total_zeros
            <= gups_runs["milc"].total_zeros
        )

    def test_always_lwc_slowest(self, gups_runs):
        assert gups_runs["3lwc"].cycles >= gups_runs["mil"].cycles

    def test_mil_mixes_schemes(self, gups_runs):
        counts = gups_runs["mil"].scheme_counts
        assert counts.get("milc", 0) > 0
        assert counts.get("3lwc", 0) > 0

    def test_io_energy_tracks_zeros(self, gups_runs):
        base = gups_runs["dbi"]
        mil = gups_runs["mil"]
        io_ratio = mil.dram_energy["io"] / base.dram_energy["io"]
        zero_ratio = mil.total_zeros / base.total_zeros
        assert abs(io_ratio - zero_ratio) < 0.15

    def test_energy_breakdown_totals(self, gups_runs):
        s = gups_runs["mil"]
        assert s.dram_total_j == pytest.approx(sum(s.dram_energy.values()))
        assert s.system_energy["total"] == pytest.approx(
            s.system_energy["cores"] + s.system_energy["uncore"]
            + s.system_energy["dram"]
        )


class TestFactories:
    def test_all_policies_constructible(self):
        for policy in POLICIES:
            factory = make_policy_factory(policy)
            p = factory()
            assert hasattr(p, "choose") and hasattr(p, "extra_cl")

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            make_policy_factory("huffman")

    def test_energy_params_lookup(self):
        assert energy_params_for(NIAGARA_SERVER).name == "DDR4-3200"
        assert energy_params_for(SNAPDRAGON_MOBILE).name == "LPDDR3-1600"
        assert system_energy_params_for(NIAGARA_SERVER).name == "ddr4-server"

    def test_energy_params_match_dram_generation_not_name(self):
        # Design-space variants rename the system; constants key off the
        # DRAM generation, so the rename must still resolve.
        import dataclasses

        variant = dataclasses.replace(NIAGARA_SERVER, name="weird[x]")
        assert energy_params_for(variant).name == "DDR4-3200"

    def test_energy_params_unknown_dram_generation(self):
        import dataclasses

        from repro.dram.timing import DDR3_1600

        odd = dataclasses.replace(NIAGARA_SERVER, timing=DDR3_1600)
        with pytest.raises(KeyError):
            energy_params_for(odd)


class TestSweepPolicies:
    def test_bl_sweep_policies_have_no_energy(self):
        summary = run("MM", NIAGARA_SERVER, "bl12", accesses_per_core=SCALE)
        assert summary.dram_energy == {}
        assert summary.cycles > 0

    def test_lookahead_parameter_reaches_policy(self):
        eager = run("MM", NIAGARA_SERVER, "mil", lookahead=0,
                    accesses_per_core=SCALE)
        cautious = run("MM", NIAGARA_SERVER, "mil", lookahead=40,
                       accesses_per_core=SCALE)
        share = lambda s: (  # noqa: E731
            s.scheme_counts.get("3lwc", 0)
            / max(1, sum(s.scheme_counts.values()))
        )
        assert share(eager) >= share(cautious)

    def test_determinism(self):
        a = run("MM", NIAGARA_SERVER, "mil", accesses_per_core=SCALE, seed=3)
        b = run("MM", NIAGARA_SERVER, "mil", accesses_per_core=SCALE, seed=3)
        assert a.cycles == b.cycles
        assert a.total_zeros == b.total_zeros


class TestPolicyScopedZeroTables:
    """``run`` encodes only the zero tables its policy actually reads."""

    @pytest.fixture
    def encoded(self, monkeypatch):
        from repro.core import framework

        seen: list[str] = []
        real = framework.precompute_line_zeros

        def spy(lines, schemes, **kwargs):
            seen.extend(schemes)
            return real(lines, schemes, **kwargs)

        monkeypatch.setattr(framework, "precompute_line_zeros", spy)
        return seen

    def test_dbi_run_encodes_only_dbi(self, encoded):
        run("GUPS", NIAGARA_SERVER, "dbi", accesses_per_core=200)
        assert encoded == ["dbi"]

    def test_mil_long_scheme_override_gets_its_table(self, encoded):
        summary = run(
            "GUPS", NIAGARA_SERVER, "mil", accesses_per_core=200,
            mil_overrides={"long_scheme": "lwc12"},
        )
        assert summary.scheme_counts.get("lwc12", 0) > 0
        assert "lwc12" in encoded
        assert "3lwc" not in encoded
        assert len(encoded) == len(set(encoded))  # each encoded once

    def test_tables_match_the_eager_precompute(self):
        from repro.coding.pipeline import precompute_line_zeros
        from repro.coding.registry import real_schemes
        from repro.core.framework import LazyZeroTables
        from repro.workloads.benchmarks import build_trace

        trace = build_trace("GUPS", NIAGARA_SERVER, accesses_per_core=50)
        eager = precompute_line_zeros(
            trace.line_data, real_schemes(), digest=trace.line_digest
        )
        lazy = LazyZeroTables(trace)
        for scheme in real_schemes():
            np.testing.assert_array_equal(lazy[scheme], eager[scheme])
        # A scheme without a zero-count path fails exactly as before.
        for scheme in ("bl12", "nope"):
            with pytest.raises(KeyError) as lazy_err:
                lazy[scheme]
            with pytest.raises(KeyError) as eager_err:
                eager[scheme]
            assert str(lazy_err.value) == str(eager_err.value)
            assert scheme not in lazy
