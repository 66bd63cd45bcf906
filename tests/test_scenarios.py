"""Scenario construction: blocking, normalization, synthesis, loading."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsched import block_average, build_scenario_set, synth_wind_profiles
from gridsched.scenarios import (Scenario, ScenarioSet, load_scenario_set,
                                 scenario_set_from_list)


class TestBlockAverage:
    def test_constant_profile_unchanged(self):
        assert block_average([5, 5, 5, 5, 5, 5], 3) == (5, 5, 5, 5, 5, 5)

    def test_three_hour_blocks(self):
        assert block_average([1, 2, 3, 4, 5, 6], 3) == (2, 2, 2, 5, 5, 5)

    def test_block_one_is_identity(self):
        prof = [3.0, 1.0, 4.0, 1.5]
        assert block_average(prof, 1) == tuple(prof)

    def test_partial_final_block_averaged_over_own_length(self):
        assert block_average([3, 3, 3, 7], 3) == (3, 3, 3, 7)
        assert block_average([1, 2, 3, 4, 5], 3) == (2, 2, 2, 4.5, 4.5)

    def test_nonpositive_block_rejected(self):
        with pytest.raises(ValueError):
            block_average([1, 2], 0)

    @given(values=st.lists(st.floats(0, 1e5), min_size=3, max_size=24),
           block=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_energy_conserved_on_divisible_horizon(self, values, block):
        values = values[:len(values) - len(values) % block]
        if not values:
            return
        out = block_average(values, block)
        assert len(out) == len(values)
        total_in, total_out = sum(values), sum(out)
        assert total_out == pytest.approx(total_in, rel=1e-12, abs=1e-9)

    @given(values=st.lists(st.floats(0, 1e5), min_size=1, max_size=24),
           block=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_constant_within_blocks(self, values, block):
        out = block_average(values, block)
        for start in range(0, len(out), block):
            chunk = out[start:start + block]
            assert all(v == chunk[0] for v in chunk)


class TestBuildScenarioSet:
    def test_singleton(self):
        scen = build_scenario_set([{"w": [5.0, 5.0]}], [1.0])
        assert len(scen.scenarios) == 1
        assert scen.scenarios[0].probability == 1.0

    def test_probabilities_normalized(self):
        scen = build_scenario_set(
            [{"w": [1.0]}, {"w": [2.0]}, {"w": [3.0]}], [2, 2, 1])
        assert scen.probabilities() == (0.4, 0.4, 0.2)

    def test_five_uniform(self):
        scen = build_scenario_set([{"w": [1.0]}] * 5, [1] * 5)
        assert scen.probabilities() == (0.2,) * 5

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            build_scenario_set([{"w": [1.0]}, {"w": [1.0]}], [1, -1])

    @pytest.mark.parametrize("probability, value", [
        (float("nan"), 1.0), (1.0, float("nan")), (1.0, float("inf"))])
    def test_non_finite_scenario_rejected(self, probability, value):
        """NaN passes both the sign test and the sum-to-one test."""
        scen = ScenarioSet((Scenario("s0", probability, {"w": (value,)}),))
        with pytest.raises(ValueError, match="must be"):
            scen.check()

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="probability must be in"):
            build_scenario_set([{"w": [1.0]}, {"w": [1.0]}], [1.0, weight])

    def test_all_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            build_scenario_set([{"w": [1.0]}], [0])

    def test_blocking_applied(self):
        scen = build_scenario_set([{"w": [1, 2, 3, 4, 5, 6]}], [1], block_len=3)
        assert scen.scenarios[0].availability["w"] == (2, 2, 2, 5, 5, 5)

    @given(weights=st.lists(st.floats(0.01, 100), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_probability_sum_invariant(self, weights):
        scen = build_scenario_set([{"w": [1.0]}] * len(weights), weights)
        assert sum(scen.probabilities()) == pytest.approx(1.0, abs=1e-9)


class TestSynthWind:
    def test_same_seed_identical(self):
        a = synth_wind_profiles(3, 2, 12, ["w1", "w2"])
        b = synth_wind_profiles(3, 2, 12, ["w1", "w2"])
        assert a == b

    def test_zero_amplitude_is_flat_at_mean(self):
        profiles = synth_wind_profiles(1, 2, 8, ["w"], mean_mw=40.0,
                                       amplitude_mw=0.0)
        for prof in profiles:
            assert prof["w"] == (40.0,) * 8

    def test_two_scenarios_distinct(self):
        profiles = synth_wind_profiles(1, 2, 12, ["w"])
        assert profiles[0]["w"] != profiles[1]["w"]

    def test_values_nonnegative_and_bounded(self):
        profiles = synth_wind_profiles(9, 3, 24, ["w"], mean_mw=30.0,
                                       amplitude_mw=100.0)
        for prof in profiles:
            assert all(0.0 <= v <= 130.0 for v in prof["w"])

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            synth_wind_profiles(1, 0, 4, ["w"])


class TestScenarioIO:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps([
            {"id": "s0", "probability": 0.75, "availability": {"w": [1, 2]}},
            {"id": "s1", "probability": 0.25, "availability": {"w": [3, 4]}}]))
        scen = build_scenario_set([{"w": [1.0, 2.0]}, {"w": [3.0, 4.0]}], [3, 1])
        assert load_scenario_set(path) == scen

    def test_blocking_on_load(self, tmp_path):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(
            [{"probability": 1, "availability": {"w": [1, 2, 3, 4, 5, 6]}}]))
        loaded = load_scenario_set(path, block_len=3)
        assert loaded.scenarios[0].availability["w"] == (2, 2, 2, 5, 5, 5)

    def test_malformed_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario_set_from_list([{"probability": 1.0}])
