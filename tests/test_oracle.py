"""Exhaustive enumeration oracle."""

from dataclasses import replace

import pytest

from gridsched import (CapExceeded, DemandProfile, FormulationConfig,
                       ModelKind, OracleCaps, assemble, build_contingency_set,
                       build_scenario_set, build_system, enumerate_commitments,
                       solve)
from gridsched.solver import SolveOptions

from conftest import (col_value, make_gen, triangle_scenarios,
                      triangle_system)

SSCUC = FormulationConfig(model_kind=ModelKind.SSCUC)
CNR = FormulationConfig(model_kind=ModelKind.SSCUC_CNR)


def one_gen_bus(T=1, demand=5.0, c=20.0, c_nl=10.0, c_su=100.0):
    rows = {"n": tuple([demand] * T)}
    sys_obj = build_system(
        ["n"], [make_gen("g", "n", p_min=1, p_max=120, c=c, c_nl=c_nl,
                         c_su=c_su, ramp_10min=120)],
        [], [], DemandProfile(rows=rows, horizon_length=T))
    return sys_obj


class TestEnumerateCommitments:
    def test_single_unit_cannot_cover_its_own_reserve(self):
        # the reserve row cancels a unit's own contribution, so a lone unit
        # can never produce: every assignment is infeasible and both paths
        # must agree on that
        sys_obj = one_gen_bus(demand=5.0)
        scen = build_scenario_set([{}], [1.0])
        result = enumerate_commitments(sys_obj, scen, [], SSCUC)
        assert not result.feasible
        milp = solve(assemble(sys_obj, scen, [], SSCUC),
                     SolveOptions(mip_gap=0.0))
        assert not milp.status.has_solution

    def test_two_assignments_hand_value(self):
        # serving unit plus a reserve provider: commitments without both
        # units are infeasible, and the LP value of the feasible one is
        # 10+1 no-load, 100+2 startup, 20 * 5 energy = 213
        demand = DemandProfile(rows={"n": (5.0,)}, horizon_length=1)
        sys_obj = build_system(
            ["n"],
            [make_gen("g", "n", p_min=1, p_max=120, c=20, c_nl=10, c_su=100,
                      ramp_10min=120),
             make_gen("rg", "n", p_min=0, p_max=120, c=999, c_nl=1, c_su=2,
                      ramp_10min=120)],
            [], [], demand)
        scen = build_scenario_set([{}], [1.0])
        result = enumerate_commitments(sys_obj, scen, [], SSCUC)
        assert result.feasible
        assert result.best_objective == pytest.approx(213.0, abs=1e-6)
        feasible = [r for r in result.records if r.objective is not None]
        assert len(feasible) == 1  # only the both-committed assignment

    def test_zero_demand_all_off_optimum_zero(self):
        sys_obj = one_gen_bus(demand=0.0)
        sys_obj = replace(sys_obj, generators=(
            replace(sys_obj.generators[0], p_min=0.0),))
        scen = build_scenario_set([{}], [1.0])
        result = enumerate_commitments(sys_obj, scen, [], SSCUC)
        assert result.feasible
        assert result.best_objective == pytest.approx(0.0, abs=1e-9)
        assert all(v == 0 for v in result.best_assignment.values())

    def test_matches_milp_on_triangle(self):
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        result = enumerate_commitments(sys_obj, scen, [], SSCUC)
        milp = solve(assemble(sys_obj, scen, [], SSCUC),
                     SolveOptions(mip_gap=0.0))
        assert result.best_objective == pytest.approx(milp.objective, rel=1e-6)

    def test_matches_milp_with_cnr_recourse(self):
        # 2 gens, T=2, 1 contingency, 2 switch candidates
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        cont = build_contingency_set(sys_obj, whitelist={"L2"})
        assert len(cont[0].candidate_switch_ids) == 2
        result = enumerate_commitments(sys_obj, scen, cont, CNR)
        milp = solve(assemble(sys_obj, scen, cont, CNR),
                     SolveOptions(mip_gap=0.0))
        assert result.best_objective == pytest.approx(milp.objective, rel=1e-6)

    def test_fake_startup_ramp_slack_is_found(self):
        """Paying a startup cost can legally buy extra ramping room (here
        the restart-blocking window does not reach the final period); the
        oracle must explore those bits or it overestimates the optimum."""
        demand = DemandProfile(rows={"n": (10.0, 60.0)}, horizon_length=2)
        gen = make_gen("g", "n", p_min=0, p_max=80, c=1.0, c_nl=1.0, c_su=5.0,
                       ramp_hourly=20.0, ramp_startup=50.0, ramp_shutdown=80.0,
                       ramp_10min=80.0, min_down=2, initial_on=True,
                       initial_dispatch=10.0)
        helper = make_gen("h", "n", p_min=0, p_max=80, c=200.0, c_nl=0.0,
                          c_su=0.0, ramp_10min=80.0)
        sys_obj = build_system(["n"], [gen, helper], [], [],  demand)
        scen = build_scenario_set([{}], [1.0])
        cfg = SSCUC
        prob = assemble(sys_obj, scen, [], cfg)
        milp = solve(prob, SolveOptions(mip_gap=0.0))
        # the optimum pays a startup at t=2 while the unit is still on
        assert (col_value(prob, milp, "u", "g", 1)
                == col_value(prob, milp, "v", "g", 2) == 1)
        exact = enumerate_commitments(sys_obj, scen, [], cfg)
        assert exact.best_objective == pytest.approx(milp.objective, rel=1e-6)

    def test_commitment_bit_cap(self):
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        with pytest.raises(CapExceeded):
            enumerate_commitments(sys_obj, scen, [], SSCUC,
                                  caps=OracleCaps(max_u_bits=3))

    def test_switch_combo_cap(self):
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        cont = build_contingency_set(sys_obj)  # 24 switch bits
        with pytest.raises(CapExceeded):
            enumerate_commitments(sys_obj, scen, cont, CNR)

    def test_lp_solve_cap_counts_pruned_records(self):
        """The switch relaxation prunes most of the 256 settings to 32 LPs;
        kept records still count against the cap, pruned ones included."""
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        cont = build_contingency_set(sys_obj, whitelist={"L2"},
                                     switch_pool={"L3"})
        full = enumerate_commitments(sys_obj, scen, cont, CNR)
        assert full.lp_solves < 100 < len(full.records)
        caps = OracleCaps(max_lp_solves=100)
        with pytest.raises(CapExceeded, match="more than 100 records"):
            enumerate_commitments(sys_obj, scen, cont, CNR, caps=caps)
        lean = enumerate_commitments(sys_obj, scen, cont, CNR, caps=caps,
                                     keep_records=False)
        assert lean.lp_solves == full.lp_solves
        assert lean.best_objective == full.best_objective
        with pytest.raises(CapExceeded, match="more than 10 LP solves"):
            enumerate_commitments(sys_obj, scen, cont, CNR,
                                  caps=OracleCaps(max_lp_solves=10),
                                  keep_records=False)

    def test_oracle_within_milp_bounds(self):
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        result = enumerate_commitments(sys_obj, scen, [], SSCUC)
        milp = solve(assemble(sys_obj, scen, [], SSCUC),
                     SolveOptions(mip_gap=0.0))
        assert milp.best_bound - 1e-6 <= result.best_objective
        assert result.best_objective <= milp.objective + 1e-6

