"""System model: validation, penetration helpers, JSON loading."""

import json
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsched import (DemandProfile, InitialStatus, ResUnit, ScenarioSet,
                       align_scenarios, build_scenario_set, build_system,
                       load_system, peak_penetration, scale_penetration,
                       validate_system)
from gridsched.data import bundled
from gridsched.scenarios import Scenario
from gridsched.document import element
from gridsched.system import CaseFormatError, Id, system_from_dict

from conftest import make_gen, triangle_scenarios, triangle_system


def toy3_doc() -> dict:
    """The bundled toy3 case document: the conftest triangle over four
    periods, with no per-bus lists."""
    return json.loads(bundled("toy3.json").read_text())


def toy3_system():
    """toy3.json built in code."""
    sys_obj = triangle_system(T=4, demand_b3=(60.0, 80.0, 70.0, 60.0))
    rows = dict(sys_obj.demand.rows, b2=(20.0, 30.0, 25.0, 20.0))
    return replace(sys_obj, demand=DemandProfile(rows=rows, horizon_length=4))


@dataclass(frozen=True)
class Unit:
    """An element type no loader code names."""
    id: Id
    rating: float
    steps: int = 1
    status: InitialStatus = field(default_factory=InitialStatus)


class TestValidation:
    def test_well_formed_triangle_is_clean(self):
        report = validate_system(triangle_system())
        assert report.ok
        assert report.violations == ()

    def test_emergency_below_long_term_reports_the_line(self):
        sys_obj = triangle_system()
        bad = replace(sys_obj.lines[1], limit_emergency=50.0)
        sys_obj = replace(sys_obj, lines=(sys_obj.lines[0], bad, sys_obj.lines[2]))
        report = validate_system(sys_obj)
        assert not report.ok
        assert len(report.violations) == 1
        assert "lines[L2]" in report.violations[0].path

    def test_generator_on_unknown_bus_is_dangling(self):
        sys_obj = triangle_system()
        bad = replace(sys_obj.generators[0], bus_id="nope")
        sys_obj = replace(sys_obj, generators=(bad, sys_obj.generators[1]))
        report = validate_system(sys_obj)
        paths = [v.path for v in report.violations]
        assert any("generators[g1].bus_id" in p for p in paths)

    @pytest.mark.parametrize("on, attr", [(True, "min_up"), (False, "min_down")])
    def test_initial_state_shorter_than_min_up_down_reported(self, on, attr):
        sys_obj = triangle_system()
        g = sys_obj.generators[0]
        g = replace(g, **{attr: 3},
                    initial_status=replace(g.initial_status, on=on, hours=2))
        sys_obj = replace(sys_obj, generators=(g, sys_obj.generators[1]))
        report = validate_system(sys_obj)
        assert [v.path for v in report.violations] == \
            ["generators[g1].initial_status.hours"]
        assert attr in report.violations[0].message
        g = replace(g, initial_status=replace(g.initial_status, hours=3))
        sys_obj = replace(sys_obj, generators=(g, sys_obj.generators[1]))
        assert validate_system(sys_obj).ok

    @pytest.mark.parametrize("on, dispatch, ok", [
        (True, 5.0, False), (True, 10.0, True), (True, 120.0, True),
        (True, 120.5, False), (True, -500.0, False), (False, 0.0, True),
        (False, 40.0, False), (False, None, True), (True, None, True)])
    def test_initial_dispatch_within_the_unit_range(self, on, dispatch, ok):
        """An on unit starts between p_min and p_max, an off one at 0."""
        sys_obj = triangle_system()
        g = replace(sys_obj.generators[0], p_min=10.0, p_max=120.0,
                    initial_status=InitialStatus(on=on, dispatch=dispatch))
        sys_obj = replace(sys_obj, generators=(g, sys_obj.generators[1]))
        paths = [v.path for v in validate_system(sys_obj).violations]
        assert paths == ([] if ok else
                         ["generators[g1].initial_status.dispatch"])

    def test_non_finite_numbers_reported(self):
        sys_obj = triangle_system()
        g = sys_obj.generators[0]
        g = replace(g, initial_status=replace(g.initial_status,
                                              dispatch=float("nan")))
        line = replace(sys_obj.lines[0], limit_long_term=float("inf"))
        sys_obj = replace(sys_obj, generators=(g, sys_obj.generators[1]),
                          lines=(line,) + sys_obj.lines[1:],
                          mva_base=float("nan"))
        paths = {v.path for v in validate_system(sys_obj).violations}
        assert {"mva_base", "generators[g1].initial_status.dispatch",
                "lines[L1].limit_long_term"} <= paths

    def test_validation_is_pure(self):
        sys_obj = triangle_system()
        assert validate_system(sys_obj) == validate_system(sys_obj)

    def test_disconnected_network_reported(self):
        demand = DemandProfile(rows={"a": (1.0,), "b": (1.0,)}, horizon_length=1)
        sys_obj = build_system(["a", "b"], [make_gen("g", "a")], [], [], demand)
        report = validate_system(sys_obj)
        assert any("disconnected" in v.message for v in report.violations)

    def test_inconsistent_adjacency_reported(self):
        # a document's per-bus lists are checked against the element fields
        # when it is loaded
        doc = toy3_doc()
        doc["buses"][0]["generator_ids"] = ["g1", "g2"]
        with pytest.raises(CaseFormatError, match=r"buses\[0\]\.generator_ids"):
            system_from_dict(doc)
        doc["buses"][0]["generator_ids"] = ["g1"]
        doc["buses"][2]["inbound_line_ids"] = ["L2"]
        with pytest.raises(CaseFormatError, match=r"buses\[2\]\.inbound_line_ids"):
            system_from_dict(doc)

    def test_second_demand_row_for_a_bus_rejected(self):
        doc = toy3_doc()
        doc["demand"].append({"bus_id": "b1", "mw": [0, 0, 0, 0]})
        with pytest.raises(CaseFormatError, match=r"demand\[3\]\.bus_id"):
            system_from_dict(doc)


class TestScalePenetration:
    def test_factor_one_is_identity(self):
        scen = triangle_scenarios()
        assert scale_penetration(scen, 1.0) == scen

    def test_factor_zero_zeroes_availability(self):
        scen = scale_penetration(triangle_scenarios(), 0.0)
        for s in scen.scenarios:
            assert all(v == 0.0 for prof in s.availability.values() for v in prof)

    def test_half_factor(self):
        scen = build_scenario_set([{"w1": [100.0]}], [1.0])
        out = scale_penetration(scen, 0.5)
        assert out.scenarios[0].availability["w1"] == (50.0,)

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            scale_penetration(triangle_scenarios(), -0.1)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_non_finite_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="finite"):
            scale_penetration(triangle_scenarios(), factor)

    @given(a=st.floats(0, 4), b=st.floats(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_composition(self, a, b):
        scen = build_scenario_set([{"w1": [10.0, 7.5]}, {"w1": [3.0, 0.0]}],
                                  [0.5, 0.5])
        left = scale_penetration(scale_penetration(scen, a), b)
        right = scale_penetration(scen, a * b)
        for s1, s2 in zip(left.scenarios, right.scenarios):
            for w in s1.availability:
                for v1, v2 in zip(s1.availability[w], s2.availability[w]):
                    assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


class TestAlignScenarios:
    @pytest.mark.parametrize("availability, match", [
        ({"w1": [1.0, 2.0], "w2": [0.0, 0.0]}, "no RES unit named w2"),
        ({"w1_typo": [1.0, 2.0]}, "no RES unit named w1_typo"),
        ({}, "no profile for RES unit 'w1'"),
        ({"w1": [1.0, 2.0, 3.0]}, "3 periods, horizon is 2"),
    ])
    def test_rejects_profiles_that_miss_the_units(self, availability, match):
        scen = ScenarioSet(scenarios=(Scenario("s0", 1.0, availability),))
        with pytest.raises(ValueError, match=match):
            align_scenarios(triangle_system(T=2), scen)

    def test_integer_keys_are_coerced(self):
        demand = DemandProfile(rows={"n": (5.0,)}, horizon_length=1)
        sys_obj = build_system(["n"], [make_gen("g", "n")], [],
                               [ResUnit(id=7, bus_id="n")], demand)
        scen = build_scenario_set([{"7": [3.0]}], [1.0])
        assert align_scenarios(sys_obj, scen).scenarios[0].availability == \
            {7: (3.0,)}


class TestPeakPenetration:
    def test_zero_availability(self):
        sys_obj = triangle_system()
        scen = build_scenario_set([{"w1": [0.0, 0.0]}], [1.0])
        assert peak_penetration(sys_obj, scen) == 0.0

    def test_single_scenario_thirty_percent(self):
        # peak load 2270 MW with 681 MW available at the peak hour
        demand = DemandProfile(rows={"n": (1500.0, 2270.0)}, horizon_length=2)
        sys_obj = build_system(["n"], [make_gen("g", "n", p_max=3000)], [],
                               [ResUnit(id="w", bus_id="n")], demand)
        scen = build_scenario_set([{"w": [100.0, 681.0]}], [1.0])
        assert peak_penetration(sys_obj, scen) == pytest.approx(0.30, abs=1e-12)

    def test_two_equiprobable_scenarios(self):
        demand = DemandProfile(rows={"n": (1200.0,)}, horizon_length=1)
        sys_obj = build_system(["n"], [make_gen("g", "n", p_max=3000)], [],
                               [ResUnit(id="w", bus_id="n")], demand)
        scen = build_scenario_set([{"w": [400.0]}, {"w": [800.0]}], [1, 1])
        assert peak_penetration(sys_obj, scen) == pytest.approx(0.5, abs=1e-12)

    def test_zero_peak_load_errors(self):
        demand = DemandProfile(rows={"n": (0.0,)}, horizon_length=1)
        sys_obj = build_system(["n"], [], [], [], demand)
        scen = build_scenario_set([{"w": [10.0]}], [1.0])
        with pytest.raises(ValueError):
            peak_penetration(sys_obj, scen)

    @given(factor=st.floats(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_scaling(self, factor):
        sys_obj = triangle_system()
        scen = triangle_scenarios()
        base = peak_penetration(sys_obj, scen)
        scaled = peak_penetration(sys_obj, scale_penetration(scen, factor))
        assert scaled == pytest.approx(factor * base, rel=1e-12, abs=1e-12)


class TestJsonRoundTrip:
    def test_round_trip_preserves_system(self, tmp_path):
        # a document written out and loaded back is the system built in code
        path = tmp_path / "case.json"
        path.write_text(json.dumps(toy3_doc()))
        assert load_system(path) == toy3_system()

    def test_adjacency_derived_when_absent(self):
        doc = toy3_doc()
        assert all(set(bus) == {"id"} for bus in doc["buses"])
        listed = toy3_doc()
        for bus, gens, res, inbound, outbound in zip(
                listed["buses"], (["g1"], ["g2"], []), ([], [], ["w1"]),
                ([], ["L1"], ["L3", "L2"]), (["L1", "L2"], ["L3"], [])):
            bus.update(generator_ids=gens, res_ids=res,
                       inbound_line_ids=inbound, outbound_line_ids=outbound)
        assert system_from_dict(listed) == system_from_dict(doc) \
            == toy3_system()

    def test_missing_field_diagnostic(self):
        doc = toy3_doc()
        del doc["generators"][0]["p_max"]
        with pytest.raises(CaseFormatError, match=r"generators\[0\].*p_max"):
            system_from_dict(doc)

    def test_element_reads_a_dataclass_by_its_fields(self):
        # a field with a default is read with no loader edit
        unit = element(Unit, {"id": 7, "rating": 2,
                              "status": {"on": True, "hours": 3}}, "units[0]")
        assert unit == Unit(7, 2.0, status=InitialStatus(on=True, hours=3))
        assert type(unit.rating) is float
        assert element(Unit, {"id": "u", "rating": 1.5, "steps": 3,
                              "status": None}, "u") == Unit("u", 1.5, 3)
        for doc, says in [
                ({"id": 7}, r"units\[0\]: missing required field 'rating'"),
                ({"id": 7, "rating": 1, "steps": 1.5},
                 r"units\[0\]\.steps: expected a whole number"),
                ({"id": 7, "rating": 1, "status": {"dispatch": "5"}},
                 r"units\[0\]\.status\.dispatch: expected a number"),
                ({"id": 7, "rating": 1, "rate": 2},
                 r"units\[0\]\.rate: unknown field")]:
            with pytest.raises(CaseFormatError, match=says):
                element(Unit, doc, "units[0]")

    def test_corrupt_json_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"buses": [')
        with pytest.raises(CaseFormatError, match="line"):
            load_system(path)

    def test_demand_is_a_top_level_array(self):
        doc = toy3_doc()
        assert {row["bus_id"] for row in doc["demand"]} == {"b1", "b2", "b3"}
        doc["demand"] = {row["bus_id"]: row["mw"] for row in doc["demand"]}
        with pytest.raises(CaseFormatError, match=r"case\.demand must be an array"):
            system_from_dict(doc)
