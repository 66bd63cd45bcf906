"""Metrics: curtailment formulas, cost reconciliation, verification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gridsched import formulation, metrics
from gridsched import (FormulationConfig, ModelKind, ScheduleSolution,
                       assemble, base_case_curtailment, build_contingency_set,
                       build_report, build_scenario_set, carbon_emissions,
                       cost_breakdown, extract_schedule,
                       post_contingency_curtailment, solve, switching_report,
                       verify_solution)
from gridsched.metrics import (ReconciliationError, report_to_csv,
                               report_to_json)
from gridsched.solver import SolveOptions
from conftest import (ring4_scenarios, ring4_system, triangle_scenarios,
                      triangle_system)

SSCUC = FormulationConfig(model_kind=ModelKind.SSCUC)
CNR = FormulationConfig(model_kind=ModelKind.SSCUC_CNR)


def solved_triangle(cfg=SSCUC, T=2):
    sys_obj = triangle_system(T=T)
    scen = triangle_scenarios(T=T)
    cont = build_contingency_set(sys_obj)
    prob = assemble(sys_obj, scen, cont, cfg)
    res = solve(prob, SolveOptions(mip_gap=0.0))
    assert res.status.has_solution
    return sys_obj, scen, cont, prob, res, extract_schedule(prob, res)


class TestCurtailmentFormulas:
    def test_bcc_zero_at_full_use(self):
        scen = build_scenario_set([{"w": [10.0]}], [1.0])
        sol = ScheduleSolution(p_res={("w", 1, "s0"): 10.0})
        assert base_case_curtailment(sol, scen) == 0.0

    def test_bcc_two_equiprobable(self):
        # shortfalls of 10 and 30 MW in two equally likely scenarios
        scen = build_scenario_set([{"w": [40.0]}, {"w": [40.0]}], [1, 1])
        sol = ScheduleSolution(p_res={("w", 1, "s0"): 30.0,
                                      ("w", 1, "s1"): 10.0})
        assert base_case_curtailment(sol, scen) == pytest.approx(20.0)

    def test_bcc_single_scenario_shortfall(self):
        scen = build_scenario_set([{"w": [10.0]}], [1.0])
        sol = ScheduleSolution(p_res={("w", 1, "s0"): 0.86})
        assert base_case_curtailment(sol, scen) == pytest.approx(9.14)

    def test_pcc_zero_shortfall(self):
        scen = build_scenario_set([{"w": [10.0]}], [1.0])
        sol = ScheduleSolution(p_res_c={("w", "c1", 1, "s0"): 10.0})
        assert post_contingency_curtailment(sol, scen, 1) == 0.0

    def test_pcc_averaged_over_contingencies(self):
        scen = build_scenario_set([{"w": [40.0]}], [1.0])
        sol = ScheduleSolution(p_res_c={("w", "c1", 1, "s0"): 30.0,
                                        ("w", "c2", 1, "s0"): 10.0})
        assert post_contingency_curtailment(sol, scen, 2) == pytest.approx(20.0)

    def test_pcc_single_contingency_unaveraged(self):
        scen = build_scenario_set([{"w": [40.0]}], [1.0])
        sol = ScheduleSolution(p_res_c={("w", "c1", 1, "s0"): 25.0})
        assert post_contingency_curtailment(sol, scen, 1) == pytest.approx(15.0)

    def test_pcc_rejects_zero_contingencies(self):
        scen = build_scenario_set([{"w": [40.0]}], [1.0])
        with pytest.raises(ValueError):
            post_contingency_curtailment(ScheduleSolution(), scen, 0)


class TestCostBreakdown:
    def test_all_off_zero(self):
        sys_obj = triangle_system(T=1)
        scen = triangle_scenarios(T=1)
        sol = ScheduleSolution(objective=0.0)
        out = cost_breakdown(sol, sys_obj, scen, SSCUC)
        assert out.total == 0.0

    def test_hand_built_components(self):
        # no-load 10, startup 100, energy 20 * 5 = 100, no penalty
        sys_obj = triangle_system(T=1)
        scen = build_scenario_set([{"w1": [0.0]}], [1.0])
        sol = ScheduleSolution(
            u={("g1", 1): 1}, v={("g1", 1): 1}, p={("g1", 1, "s0"): 5.0},
            objective=210.0)
        out = cost_breakdown(sol, sys_obj, scen, SSCUC)
        assert (out.no_load, out.startup, out.energy, out.penalty) == \
            (10.0, 100.0, 100.0, 0.0)

    def test_penalty_disabled_component_zero(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle(
            replace(SSCUC, penalty_enabled=False))
        out = cost_breakdown(sol, sys_obj, scen,
                             replace(SSCUC, penalty_enabled=False))
        assert out.penalty == 0.0

    def test_reconciliation_error_on_corrupted_objective(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle()
        bad = replace(sol, objective=sol.objective + 5.0)
        with pytest.raises(ReconciliationError):
            cost_breakdown(bad, sys_obj, scen, SSCUC)

    def test_nan_cost_does_not_reconcile(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle()
        p = dict(sol.p)
        p[("g1", 1, "s0")] = math.nan
        with pytest.raises(ReconciliationError):
            cost_breakdown(replace(sol, p=p), sys_obj, scen, SSCUC)

    def test_reconciles_with_solver_objective(self):
        for cfg in (SSCUC, CNR, replace(SSCUC, penalty_enabled=False)):
            sys_obj, scen, cont, prob, res, sol = solved_triangle(cfg)
            out = cost_breakdown(sol, sys_obj, scen, cfg)
            assert out.total == pytest.approx(res.objective, rel=1e-9)


class TestEmissions:
    def test_all_off_zero(self):
        scen = triangle_scenarios(T=1)
        assert carbon_emissions(ScheduleSolution(), triangle_system(), scen) == 0.0

    def test_hand_value(self):
        # one unit at 2 lbs/MWh running 100 MW for 3 periods
        sys_obj = triangle_system(T=3)
        gens = (replace(sys_obj.generators[0], emission_rate=2.0),
                sys_obj.generators[1])
        sys_obj = replace(sys_obj, generators=gens)
        scen = build_scenario_set([{"w1": [0, 0, 0]}], [1.0])
        sol = ScheduleSolution(p={("g1", t, "s0"): 100.0 for t in (1, 2, 3)})
        assert carbon_emissions(sol, sys_obj, scen) == pytest.approx(600.0)

    def test_linearity_in_rates(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle()
        base = carbon_emissions(sol, sys_obj, scen)
        doubled = replace(sys_obj, generators=tuple(
            replace(g, emission_rate=2 * g.emission_rate)
            for g in sys_obj.generators))
        assert carbon_emissions(sol, doubled, scen) == pytest.approx(2 * base)


class TestSwitchingReport:
    def test_all_closed_empty(self):
        sol = ScheduleSolution(z={("c", "k", 1, "s0"): 1.0})
        rep = switching_report(sol)
        assert rep.actions == () and rep.histogram == {}

    def test_single_record(self):
        sol = ScheduleSolution(z={("L1", "L2", 3, "s0"): 0.0,
                                  ("L1", "L3", 3, "s0"): 1.0})
        rep = switching_report(sol)
        assert len(rep.actions) == 1
        action = rep.actions[0]
        assert (action.contingency, action.opened_line, action.period) == \
            ("L1", "L2", 3)

    def test_histogram_conserves_counts(self):
        sol = ScheduleSolution(z={("c1", "a", 1, "s0"): 0.0,
                                  ("c2", "a", 1, "s0"): 0.0,
                                  ("c2", "b", 2, "s0"): 0.0,
                                  ("c2", "b", 2, "s1"): 1.0})
        rep = switching_report(sol)
        assert sum(rep.histogram.values()) == len(rep.actions) == 3
        assert rep.histogram == {"a": 2, "b": 1}


class TestVerifySolution:
    def test_solver_output_clean(self):
        for cfg in (SSCUC, CNR):
            sys_obj, scen, cont, prob, res, sol = solved_triangle(cfg)
            assert verify_solution(sol, sys_obj, scen, cont, cfg) == []

    def test_perturbed_flow_reports_eq15(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle()
        key = ("L1", 1, "s0")
        flows = dict(sol.flow)
        [line] = [k for k in sys_obj.lines if k.id == "L1"]
        flows[key] = flows[key] + 2 * line.limit_long_term
        bad = replace(sol, flow=flows)
        eqs = {v.equation for v in verify_solution(bad, sys_obj, scen, cont, SSCUC)}
        assert "eq15" in eqs

    @pytest.mark.parametrize("kind", [ModelKind.SSCUC, ModelKind.SSCUC_CNR])
    def test_angles_shifted_out_of_the_box(self, kind):
        # every angle of one (t, s), base case and post-contingency, moved
        # by twice the box: the flows still match the angle differences,
        # but the angles leave the box and the reference bus leaves 0
        from test_engine_input import toy3_inputs
        sys_obj, scen, cont = toy3_inputs()
        cfg = FormulationConfig(model_kind=kind)
        prob = assemble(sys_obj, scen, cont, cfg)
        sol = extract_schedule(prob, solve(prob, SolveOptions(mip_gap=0.0)))
        assert verify_solution(sol, sys_obj, scen, cont, cfg) == []
        t, s = 2, scen.scenarios[1].id
        shift = 2 * cfg.angle_bound

        def shifted(angles):
            return {key: value + shift if key[-2:] == (t, s) else value
                    for key, value in angles.items()}

        bad = replace(sol, angle=shifted(sol.angle),
                      angle_c=shifted(sol.angle_c))
        viols = verify_solution(bad, sys_obj, scen, cont, cfg)
        assert {v.equation for v in viols} == {"angle", "ref_angle"}
        assert {v.index[-2:] for v in viols} == {(t, s)}
        ref = formulation.reference_bus(sys_obj, cfg)
        assert {v.index[0] for v in viols if v.equation == "ref_angle"} == {ref}
        # the reference bus in the base case and in every contingency
        assert sum(v.equation == "ref_angle" for v in viols) == 1 + len(cont)

    def test_budget_violation_reports_eq28(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle(CNR)
        z = dict(sol.z)
        c = cont[0]
        for k in c.candidate_switch_ids:
            z[(c.outaged_line_id, k, 1, "s0")] = 0.0
        bad = replace(sol, z=z)
        viols = verify_solution(bad, sys_obj, scen, cont, CNR)
        assert any(v.equation == "eq28" for v in viols)

    def test_dual_path_agreement_on_feasibility(self):
        """Direct re-evaluation and container row evaluation must agree."""
        sys_obj, scen, cont, prob, res, sol = solved_triangle(CNR)
        assert verify_solution(sol, sys_obj, scen, cont, CNR) == []
        assert prob.max_violation(res.x)[0] <= 1e-6
        # corrupt one commitment: both paths must flag it
        x = np.array(res.x)
        col = prob.registry.col("u", "g1", 1)
        x[col] = 1.0 - x[col]
        u = dict(sol.u)
        u[("g1", 1)] = int(x[col])
        bad = replace(sol, u=u)
        assert prob.max_violation(x)[0] > 1e-6
        assert verify_solution(bad, sys_obj, scen, cont, CNR) != []

    def test_open_line_verdict_does_not_read_big_m(self, monkeypatch):
        """An opened line is held to zero flow, not to the model's big-M
        rows, so breaking compute_big_m leaves the verdict unchanged."""
        sys_obj, scen = ring4_system(), ring4_scenarios()
        cont = build_contingency_set(sys_obj, whitelist={"CH"})
        prob = assemble(sys_obj, scen, cont, CNR)
        sol = extract_schedule(prob, solve(prob, SolveOptions(mip_gap=0.0)))
        assert sol.z[("CH", "R2", 1, "s0")] == 0.0
        dtheta = sol.angle_c[(2, "CH", 1, "s0")] - sol.angle_c[(3, "CH", 1, "s0")]
        assert abs(10.0 * 100.0 * dtheta) > 1.0  # b * dtheta across the gap
        assert verify_solution(sol, sys_obj, scen, cont, CNR) == []
        # patched wherever the verifier could look the name up
        for module in (formulation, metrics):
            monkeypatch.setattr(module, "compute_big_m", lambda *a, **k: 0.0,
                                raising=False)
        assert verify_solution(sol, sys_obj, scen, cont, CNR) == []

    def test_flow_on_an_open_line_reports_eq27(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle(CNR)
        c = cont[0]
        k = next(k for k in c.candidate_switch_ids
                 if abs(sol.flow_c[(k, c.outaged_line_id, 1, "s0")]) > 1.0)
        z = dict(sol.z)
        z[(c.outaged_line_id, k, 1, "s0")] = 0.0
        viols = verify_solution(replace(sol, z=z), sys_obj, scen, cont, CNR)
        assert (k, c.outaged_line_id, 1, "s0") in \
            {v.index for v in viols if v.equation == "eq27"}

    def test_nan_flow_fails_both_paths(self):
        """``max(0.0, nan, nan)`` is 0.0: a NaN activity must still count."""
        sys_obj, scen, cont, prob, res, sol = solved_triangle(CNR)
        key = ("L1", 1, "s0")
        flows = dict(sol.flow)
        flows[key] = math.nan
        viols = verify_solution(replace(sol, flow=flows), sys_obj, scen,
                                cont, CNR)
        assert {v.equation for v in viols if v.index == key} == \
            {"eq14", "eq15"}
        x = np.array(res.x)
        x[prob.registry.col("Pk", *key)] = math.nan
        assert prob.max_violation(x) == (math.inf, "eq14[L1,1,s0]")

    def test_nan_switch_is_no_binary(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle(CNR)
        key = next(iter(sol.z))
        viols = verify_solution(replace(sol, z={**sol.z, key: math.nan}),
                                sys_obj, scen, cont, CNR)
        assert key in {v.index for v in viols if v.equation == "z01"}

    def test_violation_carries_equation_index_residual(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle()
        flows = dict(sol.flow)
        flows[("L1", 1, "s0")] += 500.0
        bad = replace(sol, flow=flows)
        viols = verify_solution(bad, sys_obj, scen, cont, SSCUC)
        hit = next(v for v in viols if v.equation == "eq15")
        assert hit.index == ("L1", 1, "s0")
        assert hit.residual > 0


class TestPccPenaltyIdentity:
    def test_pcc_equals_penalty_over_price_times_nc(self):
        """With one shared penalty price, PCC * price * n_c equals the
        penalty cost component."""
        sys_obj = ring4_system()
        scen = ring4_scenarios()
        cont = build_contingency_set(sys_obj, whitelist={"CH"})
        cfg = SSCUC
        prob = assemble(sys_obj, scen, cont, cfg)
        res = solve(prob, SolveOptions(mip_gap=0.0))
        sol = extract_schedule(prob, res)
        pcc = post_contingency_curtailment(sol, scen, len(cont))
        out = cost_breakdown(sol, sys_obj, scen, cfg)
        price = sys_obj.res_units[0].curtail_penalty
        assert out.penalty == pytest.approx(pcc * price * len(cont), rel=1e-9)
        assert pcc > 1.0  # the chord outage really forces curtailment


class TestRunReport:
    def test_components_sum_to_total(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle(CNR)
        rep = build_report(sol, sys_obj, scen, cont, CNR)
        total = (rep.no_load_cost + rep.startup_cost + rep.energy_cost
                 + rep.penalty_cost)
        assert rep.total_cost == pytest.approx(total, rel=1e-12)
        assert rep.bcc >= 0 and rep.pcc >= 0

    def test_json_and_csv_shapes(self):
        sys_obj, scen, cont, prob, res, sol = solved_triangle()
        rep = build_report(sol, sys_obj, scen, cont, SSCUC)
        doc = report_to_json(rep)
        assert '"total_cost"' in doc and '"switching_actions"' in doc
        csv_text = report_to_csv(rep)
        assert csv_text.startswith("metric,value")
