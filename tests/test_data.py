"""Bundled data: provenance and validity."""

import pytest

from gridsched import align_scenarios, load_system, validate_system
from gridsched.data import bundled
from gridsched.scenarios import (build_scenario_set, load_scenario_set,
                                 synth_wind_profiles)
from gridsched.topology import find_bridges


def system_load(sys_obj) -> list[float]:
    """Total demand per period, in MW."""
    return [sum(row[t] for row in sys_obj.demand.rows.values())
            for t in range(sys_obj.demand.horizon_length)]


class TestToy3:
    def test_loads_and_validates(self):
        sys_obj = load_system(bundled("toy3.json"))
        assert validate_system(sys_obj).ok
        assert sys_obj.horizon == 4

    def test_scenarios_load_and_block_is_noop(self):
        raw = load_scenario_set(bundled("toy3_scenarios.json"), block_len=1)
        blocked = load_scenario_set(bundled("toy3_scenarios.json"), block_len=3)
        assert raw == blocked  # profiles are already block-constant


class TestRts24:
    def test_case_shape_and_validity(self):
        sys_obj = load_system(bundled("rts24.json"))
        assert validate_system(sys_obj).ok
        assert len(sys_obj.buses) == 24
        assert len(sys_obj.lines) == 38
        assert len(sys_obj.generators) == 32
        assert {w.bus_id for w in sys_obj.res_units} == {12, 16, 22}
        assert sys_obj.horizon == 24
        # the only radial branch is the one serving bus 7
        assert find_bridges(sys_obj) == {11}

    def test_scenarios_match_seeded_synthesis(self):
        profiles = synth_wind_profiles(seed=7, n_scenarios=5, horizon=24,
                                       res_ids=["w12", "w16", "w22"],
                                       mean_mw=295.0, amplitude_mw=170.0)
        scen = build_scenario_set(profiles, [1, 1, 1, 1, 1], block_len=3)
        assert load_scenario_set(bundled("rts24_scenarios.json")) == scen

    def test_base_case_penetration_near_thirty_percent(self):
        sys_obj = load_system(bundled("rts24.json"))
        scen = align_scenarios(
            sys_obj, load_scenario_set(bundled("rts24_scenarios.json")))
        # expected RES availability at the peak-load hour over the peak load
        load = system_load(sys_obj)
        peak = load.index(max(load))
        expected = sum(s.probability * sum(p[peak] for p in s.availability.values())
                       for s in scen.scenarios)
        assert 0.25 <= expected / load[peak] <= 0.35

    def test_peak_load_level(self):
        sys_obj = load_system(bundled("rts24.json"))
        assert max(system_load(sys_obj)) == pytest.approx(2270, rel=0.01)


def test_missing_bundled_file():
    with pytest.raises(FileNotFoundError):
        bundled("nope.json")
