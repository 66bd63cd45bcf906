"""Formulation: constraint counts, big-M, switching logic, objective."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gridsched import (DemandProfile, FormulationConfig, ModelKind, ResUnit,
                       assemble, build_contingency_set, build_scenario_set,
                       build_system, compute_big_m, extract_schedule, solve,
                       verify_solution)
from gridsched.formulation import BIG_M_MARGIN
from gridsched.solver import SolveOptions
from gridsched.topology import Contingency

from conftest import (col_value, make_gen, make_line, symbol_cols,
                      triangle_scenarios, triangle_system)
from test_engine_input import row_activity

SSCUC = FormulationConfig(model_kind=ModelKind.SSCUC)
CNR = FormulationConfig(model_kind=ModelKind.SSCUC_CNR)


def one_gen_system(T=2, min_up=1, min_down=1):
    demand = DemandProfile(rows={"n": tuple([5.0] * T)}, horizon_length=T)
    gens = [make_gen("g", "n", p_min=1, p_max=10, min_up=min_up,
                     min_down=min_down)]
    return build_system(["n"], gens, [], [], demand)


def single_scenario(T=2, avail=None):
    profiles = [{"w1": avail if avail is not None else [0.0] * T}]
    return build_scenario_set(profiles, [1.0])


def family_counts(prob, families):
    """Row counts of these equation families, the rest of the model left
    out."""
    return {f: n for f, n in prob.rows_by_equation().items() if f in families}


class TestBaseGeneratorBlock:
    def test_constraint_count_one_gen_two_periods(self):
        sys_obj = one_gen_system(T=2)
        scen = single_scenario(T=2)
        prob = assemble(sys_obj, scen, [], SSCUC)
        counts = family_counts(prob, ("eq2", "eq3", "eq4", "eq5", "eq6",
                                      "eq7", "eq8", "eq9", "eq10", "eq13"))
        # G*T*S rows for eq2..eq7; printed windows for eq8/eq9; G*T for eq10
        assert counts == {
            "eq2": 2, "eq3": 2, "eq4": 2, "eq5": 2, "eq6": 2, "eq7": 2,
            "eq8": 2, "eq9": 1, "eq10": 2,
        }

    def test_min_up_down_window_counts(self):
        sys_obj = one_gen_system(T=4, min_up=3, min_down=2)
        scen = single_scenario(T=4)
        prob = assemble(sys_obj, scen, [], SSCUC)
        counts = prob.rows_by_equation()
        assert counts["eq8"] == 2   # t in {3, 4}
        assert counts["eq9"] == 2   # t in {1, 2}

    def test_minimal_up_time_degenerates_to_v_le_u(self):
        sys_obj = one_gen_system(T=2, min_up=1)
        scen = single_scenario(T=2)
        prob = assemble(sys_obj, scen, [], SSCUC)
        rows = [r for r in prob.rows if r.label.startswith("eq8")]
        for row in rows:
            coeffs = dict(row.coeffs)
            v = prob.registry.col("v", "g", int(row.label.split(",")[-1][:-1]))
            u = prob.registry.col("u", "g", int(row.label.split(",")[-1][:-1]))
            assert coeffs == {v: 1.0, u: -1.0}
            assert row.ub == 0.0 and row.lb == -math.inf

    def test_zero_availability_pins_res_output(self):
        sys_obj = triangle_system(T=2)
        scen = single_scenario(T=2, avail=[0.0, 0.0])
        prob = assemble(sys_obj, scen, [], SSCUC)
        for t in (1, 2):
            col = prob.registry.col("Pw", "w1", t, "s0")
            assert prob.lb[col] == prob.ub[col] == 0.0

    def test_availability_bounds_res_output(self):
        # eq13 and eq21 are the RES columns' upper bounds, not rows
        sys_obj = triangle_system(T=2)
        scen = single_scenario(T=2, avail=[30.0, 12.5])
        prob = assemble(sys_obj, scen, [Contingency("L1", ())], SSCUC)
        for t, avail in ((1, 30.0), (2, 12.5)):
            for col in (prob.registry.col("Pw", "w1", t, "s0"),
                        prob.registry.col("Pwc", "w1", "L1", t, "s0")):
                assert (prob.lb[col], prob.ub[col]) == (0.0, avail)
        assert {"eq13", "eq21"}.isdisjoint(prob.rows_by_equation())

    def test_floor_rows_only_for_units_with_a_floor(self):
        # at p_min = 0, eq2 and eq19 read Pg >= 0 and Pgc >= 0, the
        # columns' lower bounds
        sys_obj = triangle_system(T=2)
        gens = (sys_obj.generators[0], replace(sys_obj.generators[1], p_min=0.0))
        sys_obj = replace(sys_obj, generators=gens)
        prob = assemble(sys_obj, triangle_scenarios(T=2),
                        [Contingency("L1", ())], SSCUC)
        for family in ("eq2", "eq19"):
            assert {r.label.split("[")[1].split(",")[0] for r in prob.rows
                    if r.label.startswith(family + "[")} == {"g1"}

    def test_no_zero_coefficient_in_any_row(self):
        # g1's ramp_shutdown equals its ramp_hourly, which zeroes eq7's u
        # term; that term is left out, the rest of the row kept
        prob = assemble(triangle_system(T=2), triangle_scenarios(T=2),
                        [Contingency("L1", ())], SSCUC)
        assert (prob.matrix()[2] != 0).all()
        row = next(r for r in prob.rows if r.label == "eq7[g1,2,s0]")
        assert {prob.var_names[c] for c, _ in row.coeffs} == \
            {"Pg[g1,1,s0]", "Pg[g1,2,s0]", "v[g1,2]", "u[g1,1]"}

    @pytest.mark.parametrize("profiles, error", [
        ([{"w1": [30.0]}], IndexError),         # one period on a T=2 case
        ([{"w_1": [30.0, 30.0]}], KeyError),    # no profile for w1
    ])
    def test_missing_availability_is_not_zero(self, profiles, error):
        # a profile that does not cover the unit raises instead of capping
        # its output at 0 MW
        scen = build_scenario_set(profiles, [1.0])
        with pytest.raises(error):
            assemble(triangle_system(T=2), scen, [], SSCUC)

    def test_missing_demand_row_is_not_zero(self):
        # a bus without a demand row raises instead of drawing 0 MW, in the
        # builder and in the verifier alike
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        prob = assemble(sys_obj, scen, [], SSCUC)
        sol = extract_schedule(prob, solve(prob, SolveOptions(mip_gap=0.0)))
        rows = {b: row for b, row in sys_obj.demand.rows.items() if b != "b1"}
        short = replace(sys_obj, demand=DemandProfile(rows=rows,
                                                      horizon_length=2))
        with pytest.raises(KeyError):
            assemble(short, scen, [], SSCUC)
        with pytest.raises(KeyError):
            verify_solution(sol, short, scen, [], SSCUC)

    def test_reserve_implication_holds_on_solutions(self):
        # implied form of the reserve row: total reserve minus a unit's own
        # covers that unit's output in every feasible solution
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        prob = assemble(sys_obj, scen, [], SSCUC)
        # r_g cancels out of its own eq5 row; every other unit's r counts
        row = next(r for r in prob.rows if r.label == "eq5[g1,1,s0]")
        coeffs = {prob.var_names[c]: v for c, v in row.coeffs}
        assert "r[g1,1,s0]" not in coeffs and coeffs["r[g2,1,s0]"] == 1.0
        res = solve(prob, SolveOptions(mip_gap=0.0))
        assert res.status.has_solution
        for t in (1, 2):
            for s in scen.scenarios:
                total = sum(col_value(prob, res, "r", g.id, t, s.id)
                            for g in sys_obj.generators)
                for g in sys_obj.generators:
                    own = col_value(prob, res, "r", g.id, t, s.id)
                    out = col_value(prob, res, "Pg", g.id, t, s.id)
                    assert total - own >= out - 1e-6


class TestNetworkBlock:
    def test_flow_equation_direct_substitution(self):
        # b = 10 pu on a 100 MVA base with angles (0, -0.05) gives 50 MW
        demand = DemandProfile(rows={"n1": (0.0,), "n2": (50.0,)},
                               horizon_length=1)
        sys_obj = build_system(
            ["n1", "n2"], [make_gen("g", "n1")],
            [make_line("K", "n1", "n2", b=10.0, limit=100)], [], demand)
        scen = build_scenario_set([{}], [1.0])
        prob = assemble(sys_obj, scen, [], SSCUC)
        row = next(r for r in prob.rows if r.label == "eq14[K,1,s0]")
        x = np.zeros(prob.num_vars)
        x[prob.registry.col("Pk", "K", 1, "s0")] = 50.0
        x[prob.registry.col("th", "n1", 1, "s0")] = 0.0
        x[prob.registry.col("th", "n2", 1, "s0")] = -0.05
        assert row_activity(row, x) == pytest.approx(0.0, abs=1e-12)

    def test_network_row_counts(self):
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        prob = assemble(sys_obj, scen, [], SSCUC)
        counts = family_counts(prob, ("eq14", "eq15", "eq16"))
        # K*T*S for eq14, N*T*S for eq16; eq15 is the Pk columns' bounds
        assert counts == {"eq14": 12, "eq16": 12}

    def test_reference_bus_angle_fixed(self):
        sys_obj = triangle_system()
        scen = triangle_scenarios()
        prob = assemble(sys_obj, scen, [], SSCUC)
        col = prob.registry.col("th", "b1", 1, "s0")
        assert prob.lb[col] == prob.ub[col] == 0.0
        other = prob.registry.col("th", "b2", 1, "s0")
        assert prob.lb[other] == -0.6 and prob.ub[other] == 0.6

    def test_chosen_reference_bus_is_pinned_in_every_copy(self):
        sys_obj = triangle_system()
        cont = build_contingency_set(sys_obj)
        cfg = replace(SSCUC, reference_bus="b2", angle_bound=0.4)
        prob = assemble(sys_obj, triangle_scenarios(), cont, cfg)
        for symbol in ("th", "thc"):
            indices = prob.registry.indices(symbol)
            cols = symbol_cols(prob, symbol)
            assert len(indices) == 3 * (1 if symbol == "th" else len(cont)) * 4
            for index, col in zip(indices, cols):
                bound = 0.0 if index[0] == "b2" else 0.4
                assert (prob.lb[col], prob.ub[col]) == (-bound, bound), index

    def test_unknown_reference_bus_rejected(self):
        cfg = replace(SSCUC, reference_bus="zz")
        with pytest.raises(KeyError):
            assemble(triangle_system(), triangle_scenarios(), [], cfg)

    def test_zero_system_all_off_feasible(self):
        sys_obj = triangle_system(T=1, demand_b3=(0.0,), wind=False)
        demand = DemandProfile(rows={"b1": (0.0,), "b2": (0.0,), "b3": (0.0,)},
                               horizon_length=1)
        sys_obj = replace(sys_obj, demand=demand)
        scen = build_scenario_set([{}], [1.0])
        prob = assemble(sys_obj, scen, [], SSCUC)
        res = solve(prob, SolveOptions(mip_gap=0.0))
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_islanded_demand_infeasible(self):
        # n2 carries demand but no line reaches it
        demand = DemandProfile(rows={"n1": (0.0,), "n2": (10.0,)},
                               horizon_length=1)
        sys_obj = build_system(
            ["n1", "n2"], [make_gen("g", "n1", p_max=50.0)], [], [], demand)
        scen = build_scenario_set([{}], [1.0])
        res = solve(assemble(sys_obj, scen, [], SSCUC), SolveOptions(mip_gap=0.0))
        assert res.status.value == "infeasible"


class TestContingencyGeneratorBlock:
    def test_row_counts_two_gens_one_contingency(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[20.0])
        cont = [Contingency("L1", ("L2",))]
        prob = assemble(sys_obj, scen, cont, SSCUC)
        counts = prob.rows_by_equation()
        assert counts["eq17"] == 2 and counts["eq18"] == 2
        assert counts["eq19"] == 2 and counts["eq20"] == 2
        assert "eq21" not in counts

    def test_redispatch_rows_only_where_the_ramp_binds(self):
        # g2 can move its whole range in 10 minutes: eq19 and eq20 already
        # give |Pgc - Pg| <= (p_max - p_min) u <= ramp_10min u
        sys_obj = triangle_system(T=1)
        g2 = sys_obj.generators[1]
        gens = (sys_obj.generators[0],
                replace(g2, ramp_10min=g2.p_max - g2.p_min))
        sys_obj = replace(sys_obj, generators=gens)
        prob = assemble(sys_obj, single_scenario(T=1, avail=[20.0]),
                        [Contingency("L1", ())], SSCUC)
        labels = {r.label for r in prob.rows}
        for family in ("eq17", "eq18"):
            assert f"{family}[g1,L1,1,s0]" in labels
            assert f"{family}[g2,L1,1,s0]" not in labels
        assert {"eq19[g2,L1,1,s0]", "eq20[g2,L1,1,s0]"} <= labels

    def test_zero_corrective_ramp_pins_post_dispatch(self):
        # g1 has no 10-minute range; its post-contingency output must track
        # the base dispatch exactly (g2 keeps range and covers g1's reserve;
        # its own reserve cap pins it at zero output, so no p_min floor)
        sys_obj = triangle_system(T=1, demand_b3=(40.0,))
        gens = (replace(sys_obj.generators[0], ramp_10min=0.0),
                replace(sys_obj.generators[1], p_min=0.0))
        sys_obj = replace(sys_obj, generators=gens)
        scen = triangle_scenarios(T=1)
        cont = build_contingency_set(sys_obj)
        prob = assemble(sys_obj, scen, cont, SSCUC)
        res = solve(prob, SolveOptions(mip_gap=0.0))
        assert res.status.has_solution
        saw_nonzero = False
        for c in cont:
            for s in scen.scenarios:
                base = col_value(prob, res, "Pg", "g1", 1, s.id)
                post = col_value(prob, res, "Pgc", "g1", c.outaged_line_id, 1, s.id)
                assert post == pytest.approx(base, abs=1e-6)
                saw_nonzero = saw_nonzero or base > 1.0
        assert saw_nonzero

    def test_uncommitted_unit_pinned_to_zero_post_contingency(self):
        sys_obj = triangle_system(T=1)
        scen = triangle_scenarios(T=1)
        cont = build_contingency_set(sys_obj)
        prob = assemble(sys_obj, scen, cont, SSCUC)
        fixes = {prob.registry.col("u", "g2", 1): 0.0}
        res = solve(prob.clone_with_bounds(fixes), SolveOptions(mip_gap=0.0))
        if res.status.has_solution:
            for c in cont:
                for s in scen.scenarios:
                    post = col_value(prob, res, "Pgc", "g2", c.outaged_line_id, 1, s.id)
                    assert post == pytest.approx(0.0, abs=1e-9)


def with_line(sys_obj, line_id, **changes):
    """The system with one line's fields changed."""
    return replace(sys_obj, lines=tuple(
        replace(k, **changes) if k.id == line_id else k for k in sys_obj.lines))


class TestLimitsAsBounds:
    """Line limits are flow column bounds (eq15, eq24), not rows; the
    verifier still checks them from the data."""

    def test_where_the_limits_live(self):
        sys_obj = with_line(triangle_system(T=1), "L3", limit_long_term=70.0,
                            limit_emergency=90.0)
        cont = [Contingency("L1", ("L2",))]  # L2 switchable, L3 fixed
        prob = assemble(sys_obj, triangle_scenarios(T=1), cont, CNR)
        bounds = {}
        for symbol in ("Pk", "Pkc"):
            for index, col in zip(prob.registry.indices(symbol),
                                  symbol_cols(prob, symbol)):
                bounds[(symbol,) + index] = (prob.lb[col], prob.ub[col])
        for s in ("s0", "s1"):
            assert bounds[("Pk", "L1", 1, s)] == (-100.0, 100.0)
            assert bounds[("Pk", "L3", 1, s)] == (-70.0, 70.0)
            assert bounds[("Pkc", "L1", "L1", 1, s)] == (0.0, 0.0)
            assert bounds[("Pkc", "L2", "L1", 1, s)] == (-math.inf, math.inf)
            assert bounds[("Pkc", "L3", "L1", 1, s)] == (-90.0, 90.0)
        assert {"eq15", "eq24"}.isdisjoint(prob.rows_by_equation())

    @pytest.mark.parametrize("symbol, field, equation", [
        ("Pk", "limit_long_term", "eq15"),
        ("Pkc", "limit_emergency", "eq24")])
    def test_a_flow_over_its_limit(self, symbol, field, equation):
        # a schedule solved with room to spare, checked against a system in
        # which one fixed line's limit is half its largest flow
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        cont = build_contingency_set(sys_obj)
        prob = assemble(sys_obj, scen, cont, SSCUC)
        res = solve(prob, SolveOptions(mip_gap=0.0))
        sol = extract_schedule(prob, res)
        cols = symbol_cols(prob, symbol)
        at = int(np.abs(res.x[cols]).argmax())
        line = prob.registry.indices(symbol)[at][0]
        flow = abs(res.x[cols[at]])
        assert flow > 1.0
        tight = with_line(sys_obj, line, **{field: flow / 2})
        tight_prob = assemble(tight, scen, cont, SSCUC)
        worst, where = tight_prob.max_violation(res.x)
        assert worst == pytest.approx(0.5)
        assert where.startswith(f"bound[{symbol}[{line},")
        assert {v.equation for v in verify_solution(sol, tight, scen, cont,
                                                    SSCUC)} == {equation}


class TestContingencyNetwork:
    def test_outaged_line_flow_bounds_pinned(self):
        sys_obj = triangle_system(T=1)
        scen = triangle_scenarios(T=1)
        cont = build_contingency_set(sys_obj)
        prob = assemble(sys_obj, scen, cont, SSCUC)
        for c in cont:
            col = prob.registry.col("Pkc", c.outaged_line_id,
                                    c.outaged_line_id, 1, "s0")
            assert prob.lb[col] == prob.ub[col] == 0.0

    def test_fixed_drops_flow_definition_for_outaged_line(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        cont = [Contingency("L1", ())]
        prob = assemble(sys_obj, scen, cont, SSCUC)
        labels = [r.label for r in prob.rows]
        assert "eq23[L2,L1,1,s0]" in labels
        assert "eq23[L1,L1,1,s0]" not in labels
        assert "eq24[L1,L1,1,s0]" not in labels

    def test_triangle_outage_reroutes_all_transfer(self):
        # 30 MW sink at b3 served by g1 alone (g2 priced out and cut off
        # from redispatch by g1's zero 10-minute range); outage of the
        # direct line b1-b3 must push all 30 MW around via b2
        demand = DemandProfile(rows={"b1": (0.0,), "b2": (0.0,), "b3": (30.0,)},
                               horizon_length=1)
        sys_obj = replace(triangle_system(T=1, wind=False), demand=demand)
        gens = (replace(sys_obj.generators[0], ramp_10min=0.0),
                replace(sys_obj.generators[1], p_min=0.0))
        sys_obj = replace(sys_obj, generators=gens)
        scen = build_scenario_set([{}], [1.0])
        cont = [Contingency("L2", ())]
        prob = assemble(sys_obj, scen, cont, SSCUC)
        res = solve(prob, SolveOptions(mip_gap=0.0))
        assert res.status.has_solution
        assert col_value(prob, res, "Pg", "g1", 1, "s0") == pytest.approx(30, abs=1e-6)
        assert col_value(prob, res, "Pkc", "L1", "L2", 1, "s0") == pytest.approx(30, abs=1e-6)
        assert col_value(prob, res, "Pkc", "L3", "L2", 1, "s0") == pytest.approx(30, abs=1e-6)
        assert col_value(prob, res, "Pkc", "L2", "L2", 1, "s0") == 0.0

    def test_no_contingencies_no_rows(self):
        sys_obj = triangle_system(T=1)
        scen = triangle_scenarios(T=1)
        prob = assemble(sys_obj, scen, [], SSCUC)
        eqs = prob.rows_by_equation()
        for eq in ("eq17", "eq22", "eq23", "eq24", "eq25", "eq28"):
            assert eq not in eqs

    def test_contingency_naming_no_line_rejected(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        for cfg in (SSCUC, CNR):
            with pytest.raises(KeyError, match="NOPE"):
                assemble(sys_obj, scen, [Contingency("NOPE")], cfg)

    def test_same_outaged_line_twice_rejected(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        for cfg in (SSCUC, CNR):
            with pytest.raises(KeyError, match=r"contingency 'L1': line 'L1'"):
                assemble(sys_obj, scen, [Contingency("L1"), Contingency("L1")],
                         cfg)


class TestCnrNetwork:
    def test_cnr_row_shapes(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        cont = [Contingency("L1", ("L2",))]  # L3 stays fixed
        prob = assemble(sys_obj, scen, cont, CNR)
        counts = prob.rows_by_equation()
        assert counts["eq25"] == 1 and counts["eq26"] == 1
        assert counts["eq27L"] == 1 and counts["eq27U"] == 1
        assert counts["eq23"] == 1 and "eq24" not in counts  # non-candidate L3
        assert counts["eq28"] == 1

    def test_switch_state_one_recovers_flow_equality(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        cont = [Contingency("L1", ("L2",))]
        prob = assemble(sys_obj, scen, cont, CNR)
        z = prob.registry.col("z", "L1", "L2", 1, "s0")
        res = solve(prob.clone_with_bounds({z: 1.0}), SolveOptions(mip_gap=0.0))
        assert res.status.has_solution
        [line] = [k for k in sys_obj.lines if k.id == "L2"]
        coef = line.susceptance * sys_obj.mva_base
        flow = col_value(prob, res, "Pkc", "L2", "L1", 1, "s0")
        dtheta = (col_value(prob, res, "thc", "b1", "L1", 1, "s0")
                  - col_value(prob, res, "thc", "b3", "L1", 1, "s0"))
        assert flow == pytest.approx(coef * dtheta, abs=1e-6)

    def test_switch_state_zero_kills_flow(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        cont = [Contingency("L1", ("L2",))]
        prob = assemble(sys_obj, scen, cont, CNR)
        z = prob.registry.col("z", "L1", "L2", 1, "s0")
        res = solve(prob.clone_with_bounds({z: 0.0}), SolveOptions(mip_gap=0.0))
        assert res.status.has_solution
        assert col_value(prob, res, "Pkc", "L2", "L1", 1, "s0") == pytest.approx(0.0, abs=1e-9)

    def test_switch_limit_zero_equals_fixed_model(self):
        from conftest import ring4_scenarios, ring4_system
        sys_obj = ring4_system()
        scen = ring4_scenarios()
        cont = build_contingency_set(sys_obj, whitelist={"CH"})
        fixed = solve(assemble(sys_obj, scen, cont, SSCUC),
                      SolveOptions(mip_gap=0.0))
        capped = solve(assemble(sys_obj, scen, cont,
                                replace(CNR, switch_limit=0)),
                       SolveOptions(mip_gap=0.0))
        free = solve(assemble(sys_obj, scen, cont, CNR),
                     SolveOptions(mip_gap=0.0))
        assert capped.objective == pytest.approx(fixed.objective, rel=1e-9)
        # with one action allowed, reconfiguration is strictly cheaper here
        assert free.objective < fixed.objective - 1.0

    def test_budget_row_uses_candidates_only(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        cont = [Contingency("L1", ("L2", "L3"))]
        prob = assemble(sys_obj, scen, cont, CNR)
        row = next(r for r in prob.rows if r.label.startswith("eq28"))
        assert len(row.coeffs) == 2
        assert row.lb == 2 - CNR.switch_limit

    def test_unknown_candidate_rejected(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        cont = [Contingency("L1", ("nope",))]
        with pytest.raises(KeyError):
            assemble(sys_obj, scen, cont, CNR)

    def test_outaged_line_as_its_own_candidate_rejected(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        with pytest.raises(KeyError, match="L1"):
            assemble(sys_obj, scen, [Contingency("L1", ("L1",))], CNR)

    def test_candidate_listed_twice_rejected(self):
        sys_obj = triangle_system(T=1)
        scen = single_scenario(T=1, avail=[10.0])
        with pytest.raises(KeyError, match=r"contingency 'L1': candidate "
                                           r"lines \['L2'\] listed twice"):
            assemble(sys_obj, scen, [Contingency("L1", ("L2", "L2"))], CNR)


class TestBigM:
    def test_direct_formula(self):
        line = make_line("K", "a", "b", b=10.0)
        cfg = replace(SSCUC, angle_bound=0.6)
        assert compute_big_m(line, cfg, 100.0) == \
            pytest.approx(1200.0 + BIG_M_MARGIN)

    def test_zero_susceptance_leaves_margin(self):
        line = make_line("K", "a", "b", b=0.0)
        assert compute_big_m(line, SSCUC, 100.0) == BIG_M_MARGIN

    def test_linear_in_angle_bound(self):
        line = make_line("K", "a", "b", b=4.0)
        m1 = compute_big_m(line, replace(SSCUC, angle_bound=0.3), 100.0)
        m2 = compute_big_m(line, replace(SSCUC, angle_bound=0.6), 100.0)
        assert m2 - BIG_M_MARGIN == pytest.approx(2 * (m1 - BIG_M_MARGIN))

    def test_big_m_covers_angle_box_corners(self):
        """With the switch open and zero flow, eq25/eq26 hold at any
        angles, even without the margin."""
        cfg = CNR
        for b in (0.5, 4.0, 25.0):
            line = make_line("K", "a", "b", b=b)
            m = compute_big_m(line, cfg, 100.0) - BIG_M_MARGIN
            for th_n in (-cfg.angle_bound, cfg.angle_bound):
                for th_m in (-cfg.angle_bound, cfg.angle_bound):
                    body = 0.0 - b * 100.0 * (th_n - th_m)
                    assert body + m >= -1e-9      # eq25 with z=0
                    assert body - m <= 1e-9       # eq26 with z=0


class TestObjective:
    def test_single_commit_with_startup(self):
        # c_nl=10, c_su=100, c=20, P=5 for one period: objective 210
        sys_obj = one_gen_system(T=1)
        gens = (replace(sys_obj.generators[0], cost_linear=20.0,
                        cost_no_load=10.0, cost_startup=100.0),)
        sys_obj = replace(sys_obj, generators=gens)
        scen = build_scenario_set([{}], [1.0])
        prob = assemble(sys_obj, scen, [], SSCUC)
        x = np.zeros(prob.num_vars)
        x[prob.registry.col("u", "g", 1)] = 1.0
        x[prob.registry.col("v", "g", 1)] = 1.0
        x[prob.registry.col("Pg", "g", 1, "s0")] = 5.0
        assert prob.objective_value(x) == pytest.approx(210.0)

    def test_penalty_contribution(self):
        # pi=0.5, penalty=50, availability 10, delivered 6 -> 100
        sys_obj = triangle_system(T=1)
        res_units = (ResUnit(id="w1", bus_id="b3", curtail_penalty=50.0),)
        sys_obj = replace(sys_obj, res_units=res_units)
        scen = build_scenario_set([{"w1": [10.0]}, {"w1": [10.0]}], [1, 1])
        cont = [Contingency("L1", ())]
        prob = assemble(sys_obj, scen, cont, SSCUC)
        x = np.zeros(prob.num_vars)
        # full delivery in s1, 6 of 10 MW in s0
        x[prob.registry.col("Pwc", "w1", "L1", 1, "s1")] = 10.0
        x[prob.registry.col("Pwc", "w1", "L1", 1, "s0")] = 6.0
        assert prob.objective_value(x) == pytest.approx(100.0)

    def test_penalty_disabled_drops_term(self):
        sys_obj = triangle_system(T=1)
        scen = triangle_scenarios(T=1)
        cont = build_contingency_set(sys_obj)
        cfg = replace(SSCUC, penalty_enabled=False)
        prob = assemble(sys_obj, scen, cont, cfg)
        assert prob.objective_constant == 0.0
        pwc = symbol_cols(prob, "Pwc")
        assert not prob.objective_vector()[pwc].any()

    def test_all_off_zero_objective(self):
        sys_obj = triangle_system(T=1, wind=False)
        demand = DemandProfile(rows={"b1": (0.0,), "b2": (0.0,), "b3": (0.0,)},
                               horizon_length=1)
        sys_obj = replace(sys_obj, demand=demand)
        scen = build_scenario_set([{}], [1.0])
        prob = assemble(sys_obj, scen, [], replace(SSCUC, penalty_enabled=False))
        x = np.zeros(prob.num_vars)
        assert prob.objective_value(x) == 0.0


class TestAssemble:
    def test_sscuc_has_no_switch_variables(self):
        sys_obj = triangle_system()
        scen = triangle_scenarios()
        cont = build_contingency_set(sys_obj)
        prob = assemble(sys_obj, scen, cont, SSCUC)
        assert prob.registry.indices("z") == []

    def test_cnr_switch_variable_count(self):
        # 3 contingencies x 2 candidates x T=2 x S=2 -> 24
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        cont = build_contingency_set(sys_obj)
        prob = assemble(sys_obj, scen, cont, CNR)
        assert len(prob.registry.indices("z")) == 24

    def test_commitment_is_scenario_invariant_by_construction(self):
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        prob = assemble(sys_obj, scen, build_contingency_set(sys_obj), CNR)
        for sym in ("u", "v"):
            for idx in prob.registry.indices(sym):
                assert len(idx) == 2  # (g, t); no scenario component

    def test_empty_contingency_list_makes_kinds_identical(self):
        """SSCUC is CNR without switch candidates: with no contingencies,
        or with contingencies that have no candidates, the models match."""
        sys_obj = triangle_system()
        scen = triangle_scenarios()
        no_candidates = build_contingency_set(sys_obj, switch_pool=set())
        assert no_candidates
        for cont in ([], no_candidates):
            fixed = assemble(sys_obj, scen, cont, SSCUC)
            cnr = assemble(sys_obj, scen, cont, CNR)
            assert fixed.var_names == cnr.var_names
            assert np.array_equal(fixed.lb, cnr.lb)
            assert np.array_equal(fixed.ub, cnr.ub)
            assert np.array_equal(fixed.integer, cnr.integer)
            assert list(fixed.rows) == list(cnr.rows)
            assert np.array_equal(fixed.objective_vector(),
                                  cnr.objective_vector())
            assert fixed.objective_constant == cnr.objective_constant
