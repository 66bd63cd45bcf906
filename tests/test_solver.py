"""Solve contract: statuses, tolerances, determinism."""

import gc
import json
import math
import sys
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy
from scipy.optimize import Bounds, LinearConstraint, milp

from gridsched import (DemandProfile, FormulationConfig, ModelKind,
                       align_scenarios, assemble, build_contingency_set,
                       build_scenario_set, enumerate_commitments,
                       load_scenario_set, load_system, solve)
from gridsched.data import bundled
from gridsched.milp import INF, MilpProblem
from gridsched.solver import (EngineError, SolveOptions, SolveStatus,
                              SolverError)

from conftest import (parallel_pair_scenarios, parallel_pair_system,
                      triangle_scenarios, triangle_system)


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


# -- the LP route: fixed-binary problems on one HiGHS instance per model ----

def toy3_case(hours=None, whitelist=None, switch_pool=None):
    """toy3, optionally cut to its first hours; with CNR the full
    contingency set exceeds the oracle's caps, so it is cut to one outage
    and one switch candidate over two hours."""
    system = load_system(bundled("toy3.json"))
    if hours is None:
        scen = load_scenario_set(bundled("toy3_scenarios.json"), block_len=3)
    else:
        system = replace(system, demand=DemandProfile(
            rows={b: row[:hours] for b, row in system.demand.rows.items()},
            horizon_length=hours))
        doc = json.loads(bundled("toy3_scenarios.json").read_text())
        scen = build_scenario_set(
            [{k: v[:hours] for k, v in s["availability"].items()} for s in doc],
            [s["probability"] for s in doc])
    return (system, align_scenarios(system, scen),
            build_contingency_set(system, whitelist=whitelist,
                                  switch_pool=switch_pool))


def triangle_case(whitelist=None, switch_pool=None):
    system = triangle_system(T=2)
    return (system, triangle_scenarios(T=2),
            build_contingency_set(system, whitelist=whitelist,
                                  switch_pool=switch_pool))


def pair_case():
    system = parallel_pair_system()
    return system, parallel_pair_scenarios(), build_contingency_set(system)


SSCUC = FormulationConfig(model_kind=ModelKind.SSCUC)
CNR = FormulationConfig(model_kind=ModelKind.SSCUC_CNR)
ORACLE_CASES = {
    "toy3-sscuc": (toy3_case, SSCUC),
    "toy3-cnr": (lambda: toy3_case(2, {"L1"}, {"L2"}), CNR),
    "triangle-sscuc": (triangle_case, SSCUC),
    "triangle-cnr": (lambda: triangle_case({"L2"}, {"L3"}), CNR),
    "pair-sscuc": (pair_case, SSCUC),
    "pair-cnr": (pair_case, CNR),
}


def oracle_fixes(name):
    """The case's model, the oracle's result and the column fixes of each
    of its records, in enumeration order."""
    make, cfg = ORACLE_CASES[name]
    inputs = make()
    prob = assemble(*inputs, cfg)
    found = enumerate_commitments(*inputs, cfg)
    col = {var: j for j, var in enumerate(prob.var_names)}
    fixes = [{col[var]: float(bit) for var, bit in rec.assignment.items()}
             for rec in found.records]
    return prob, found, fixes, (inputs, cfg)


def milp_reference(prob: MilpProblem):
    """Status and objective from scipy's ``milp`` on the same problem."""
    A, lo, hi = prob.matrix()
    res = milp(c=prob.objective_vector(), constraints=[LinearConstraint(A, lo, hi)],
               integrality=prob.integer.astype(np.uint8),
               bounds=Bounds(prob.lb, prob.ub),
               options={"mip_rel_gap": 0.0, "presolve": True})
    if res.status == 2:
        return "infeasible", None
    assert res.status == 0, res.message
    return "optimal", prob.objective_value(res.x)


def fixed_lp() -> tuple[MilpProblem, int, int]:
    """min x subject to x + b >= 2, with the binary b to be fixed."""
    prob = MilpProblem()
    x = prob.add_var("x", 0, 10)
    b = prob.add_var("b", 0, 1, integer=True)
    prob.add_row([(x, 1.0), (b, 1.0)], 2.0, INF, "cover")
    prob.add_objective_term(x, 1.0)
    return prob, x, b


def no_milp(**kwargs):
    raise AssertionError("a fixed-binary problem reached scipy's milp")


class TestLpRoute:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_oracle_records_match_milp(self, name):
        prob, found, fixes, _ = oracle_fixes(name)
        assert found.records and found.feasible
        for record, fix in zip(found.records, fixes):
            status, objective = milp_reference(prob.clone_with_bounds(fix))
            assert record.status == status
            if objective is not None:
                assert record.objective == pytest.approx(objective, rel=1e-9)

    @pytest.mark.parametrize("name", ["toy3-cnr", "triangle-cnr"])
    def test_reverse_order_matches_fresh_models(self, name):
        prob, _, fixes, (inputs, cfg) = oracle_fixes(name)
        shared = [solve(prob.clone_with_bounds(fix), SolveOptions(mip_gap=0.0))
                  for fix in reversed(fixes)][::-1]
        for fix, got in zip(fixes, shared):
            fresh = solve(assemble(*inputs, cfg).clone_with_bounds(fix),
                          SolveOptions(mip_gap=0.0))
            assert got.status is fresh.status
            if fresh.status.has_solution:
                assert got.objective == pytest.approx(fresh.objective, rel=1e-9)

    def test_rows_and_objective_added_after_a_solve_reach_the_engine(
            self, monkeypatch):
        import gridsched.solver as solver_mod
        monkeypatch.setattr(solver_mod, "milp", no_milp)
        prob, x, b = fixed_lp()
        assert solve(prob.clone_with_bounds({b: 1.0})).objective == \
            pytest.approx(1.0)
        assert solve(prob.clone_with_bounds({b: 0.0})).objective == \
            pytest.approx(2.0)
        prob.add_row([(x, 1.0)], 3.0, INF, "floor")
        assert solve(prob.clone_with_bounds({b: 1.0})).objective == \
            pytest.approx(3.0)
        prob.add_objective_term(b, 5.0)
        res = solve(prob.clone_with_bounds({b: 1.0}))
        assert res.objective == pytest.approx(8.0)
        assert res.x.tolist() == [3.0, 1.0]

    def test_time_limit_option_reaches_the_instance(self, monkeypatch):
        import gridsched.solver as solver_mod
        monkeypatch.setattr(solver_mod, "milp", no_milp)
        prob, _, b = fixed_lp()
        for limit in (10.0, None, 5.0):
            res = solve(prob.clone_with_bounds({b: 0.0}),
                        SolveOptions(time_limit=limit))
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(2.0)

    def test_a_dropped_model_frees_its_instance_at_once(self):
        prob, _, b = fixed_lp()
        solve(prob.clone_with_bounds({b: 1.0}))
        engine = weakref.ref(prob.shared("highs-lp", None))
        gc.disable()  # no reference cycle may keep the model alive
        try:
            del prob
            assert engine() is None
        finally:
            gc.enable()

    def test_unmapped_engine_status_is_engine_error(self):
        prob, _, b = fixed_lp()
        clone = prob.clone_with_bounds({b: 1.0})
        assert solve(clone).status is SolveStatus.OPTIMAL
        prob.shared("highs-lp", None).codes = {}  # no status is known
        with pytest.raises(EngineError, match="engine failure"):
            solve(clone)


class TestBindingsGuard:
    BINDINGS = "scipy.optimize._highspy._core"

    def test_missing_module_is_engine_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, self.BINDINGS, None)
        prob, _, b = fixed_lp()
        with pytest.raises(EngineError, match=f"scipy {scipy.__version__}"):
            solve(prob.clone_with_bounds({b: 1.0}))

    def test_missing_method_is_engine_error(self, monkeypatch):
        real = sys.modules[self.BINDINGS]
        fake = types.ModuleType(self.BINDINGS)
        fake.__dict__.update(vars(real))
        fake._Highs = type("_Highs", (), {})  # no methods at all
        monkeypatch.setitem(sys.modules, self.BINDINGS, fake)
        prob, _, b = fixed_lp()
        with pytest.raises(EngineError, match="changeColsBounds"):
            solve(prob.clone_with_bounds({b: 1.0}))

    def test_free_binaries_do_not_need_the_bindings(self, monkeypatch):
        monkeypatch.setitem(sys.modules, self.BINDINGS, None)
        res = solve(tiny_uc(), SolveOptions(mip_gap=0.0))
        assert res.objective == pytest.approx(210.0, abs=1e-9)
