"""Solve contract: statuses, tolerances, determinism."""

import math

import numpy as np
import pytest

from gridsched import (FormulationConfig, ModelKind, assemble,
                       build_contingency_set, solve)
from gridsched.milp import INF, MilpProblem
from gridsched.solver import SolveOptions, SolveStatus, SolverError

from conftest import triangle_scenarios, triangle_system


U, V = 0, 1  # tiny_uc's commitment and startup columns


def tiny_uc() -> MilpProblem:
    """Single unit, single period: commit, start up, serve 5 MW."""
    prob = MilpProblem(name="tiny-uc")
    u = prob.add_var("u", 0, 1, integer=True)
    v = prob.add_var("v", 0, 1, integer=True)
    p = prob.add_var("p", 0, INF)
    prob.add_row([(p, 1.0)], 5.0, 5.0, "demand")
    prob.add_row([(p, 1.0), (u, -120.0)], -INF, 0.0, "cap")
    prob.add_row([(v, 1.0), (u, -1.0)], 0.0, INF, "startup")
    prob.add_objective_term(u, 10.0)
    prob.add_objective_term(v, 100.0)
    prob.add_objective_term(p, 20.0)
    return prob


class TestSolveContract:
    def test_minimal_lp(self):
        prob = MilpProblem()
        x = prob.add_var("x", -INF, INF)
        prob.add_row([(x, 1.0)], 3.0, INF, "c")
        prob.add_objective_term(x, 1.0)
        res = solve(prob, SolveOptions(mip_gap=0.0))
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0, abs=1e-9)

    def test_capacity_shortfall_infeasible(self):
        sys_obj = triangle_system(T=1, demand_b3=(500.0,))
        scen = triangle_scenarios(T=1)
        prob = assemble(sys_obj, scen, [],
                        FormulationConfig(model_kind=ModelKind.SSCUC))
        res = solve(prob, SolveOptions(mip_gap=0.0))
        assert res.status is SolveStatus.INFEASIBLE
        assert math.isnan(res.objective)

    def test_tiny_uc_hand_value(self):
        res = solve(tiny_uc(), SolveOptions(mip_gap=0.0))
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(210.0, abs=1e-9)
        assert res.x[U] == 1.0 and res.x[V] == 1.0

    def test_binaries_integral_and_rounded(self):
        res = solve(tiny_uc(), SolveOptions(mip_gap=0.0))
        assert res.x[U] in (0.0, 1.0)
        assert res.x[V] in (0.0, 1.0)

    def test_objective_matches_reevaluation(self):
        prob = tiny_uc()
        res = solve(prob, SolveOptions(mip_gap=0.0))
        again = prob.objective_value(res.x)
        assert res.objective == pytest.approx(again, rel=1e-12)

    def test_constraint_residuals_small(self):
        sys_obj = triangle_system()
        scen = triangle_scenarios()
        cont = build_contingency_set(sys_obj)
        prob = assemble(sys_obj, scen, cont,
                        FormulationConfig(model_kind=ModelKind.SSCUC_CNR))
        res = solve(prob, SolveOptions(mip_gap=0.0))
        assert res.status.has_solution
        viol, _where = prob.max_violation(res.x, scaled=True)
        assert viol <= 1e-6

    def test_unbounded(self):
        prob = MilpProblem()
        x = prob.add_var("x", -INF, INF)
        prob.add_objective_term(x, 1.0)
        res = solve(prob)
        assert res.status is SolveStatus.UNBOUNDED

    def test_bound_consistent_with_gap(self):
        sys_obj = triangle_system()
        scen = triangle_scenarios()
        prob = assemble(sys_obj, scen, build_contingency_set(sys_obj),
                        FormulationConfig(model_kind=ModelKind.SSCUC))
        res = solve(prob, SolveOptions(mip_gap=0.01))
        assert res.status.has_solution
        assert res.best_bound <= res.objective + 1e-6
        gap = (res.objective - res.best_bound) / max(1.0, abs(res.objective))
        assert gap <= 0.01 + 1e-9

    def test_determinism(self):
        sys_obj = triangle_system()
        scen = triangle_scenarios()
        cont = build_contingency_set(sys_obj)
        cfg = FormulationConfig(model_kind=ModelKind.SSCUC_CNR)
        opts = SolveOptions(mip_gap=0.0, deterministic_seed=7)
        first = solve(assemble(sys_obj, scen, cont, cfg), opts)
        second = solve(assemble(sys_obj, scen, cont, cfg), opts)
        assert first.objective == second.objective
        assert np.array_equal(first.x, second.x)

    def test_objective_constant_reaches_engine_gap(self):
        """The constant term must shift the engine's view of the objective,
        not just the reported number."""
        prob = tiny_uc()
        prob.objective_constant = 1e6
        res = solve(prob, SolveOptions(mip_gap=0.0))
        assert res.objective == pytest.approx(1e6 + 210.0, rel=1e-12)
        assert res.best_bound == pytest.approx(res.objective, rel=1e-9)

    def test_time_limit_status(self):
        sys_obj = triangle_system(T=2)
        scen = triangle_scenarios(T=2)
        cont = build_contingency_set(sys_obj)
        prob = assemble(sys_obj, scen, cont,
                        FormulationConfig(model_kind=ModelKind.SSCUC_CNR))
        res = solve(prob, SolveOptions(mip_gap=0.0, time_limit=1e-4))
        assert res.status in (SolveStatus.TIME_LIMIT, SolveStatus.OPTIMAL,
                              SolveStatus.FEASIBLE_WITHIN_GAP)

    def test_empty_problem_rejected(self):
        with pytest.raises(SolverError):
            solve(MilpProblem())

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            SolveOptions(mip_gap=-0.1)


class TestEngineStatistics:
    def test_toy3_solve_keeps_node_count_and_gap(self):
        from gridsched import align_scenarios, load_scenario_set, load_system
        from gridsched.data import bundled
        system = load_system(bundled("toy3.json"))
        scen = align_scenarios(system, load_scenario_set(
            bundled("toy3_scenarios.json"), block_len=3))
        prob = assemble(system, scen, build_contingency_set(system),
                        FormulationConfig(model_kind=ModelKind.SSCUC_CNR))
        res = solve(prob, SolveOptions(mip_gap=0.0))
        assert res.status is SolveStatus.OPTIMAL
        assert isinstance(res.nodes, int) and res.nodes >= 1
        assert isinstance(res.mip_gap, float)
        assert 0.0 <= res.mip_gap <= 1e-9

    def test_absent_statistics_are_none(self, monkeypatch):
        import gridsched.solver as solver_mod
        from scipy.optimize import OptimizeResult
        monkeypatch.setattr(solver_mod, "milp", lambda **kwargs: OptimizeResult(
            status=2, x=None, message="infeasible", mip_node_count=None,
            mip_gap=None, mip_dual_bound=None))
        res = solve(tiny_uc())
        assert res.status is SolveStatus.INFEASIBLE
        assert res.nodes is None and res.mip_gap is None


class TestEngineFailures:
    def _engine_returns(self, monkeypatch, **fields):
        import gridsched.solver as solver_mod
        from scipy.optimize import OptimizeResult
        monkeypatch.setattr(solver_mod, "milp", lambda **kwargs: OptimizeResult(
            **{"message": "engine says no", "mip_node_count": None,
               "mip_gap": None, "mip_dual_bound": None, **fields}))

    @pytest.mark.parametrize("fields", [{"status": 4, "x": None},
                                        {"status": 0, "x": None}])
    def test_engine_failure_is_engine_error(self, monkeypatch, fields):
        from gridsched.solver import EngineError
        self._engine_returns(monkeypatch, **fields)
        with pytest.raises(EngineError):
            solve(tiny_uc())

    def test_fractional_binary_is_not_an_engine_error(self, monkeypatch):
        from gridsched.solver import EngineError
        self._engine_returns(monkeypatch, status=0,
                             x=np.array([0.5, 0.5, 5.0]))
        with pytest.raises(SolverError) as err:
            solve(tiny_uc())
        assert not isinstance(err.value, EngineError)
        assert "integrality residual" in str(err.value)
