"""Solve contract: statuses, tolerances, determinism."""

import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import types
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core as highs_core

import gridsched.oracle as oracle_mod
import gridsched.solver as solver_mod
from gridsched import (DemandProfile, FormulationConfig, ModelKind,
                       align_scenarios, assemble, build_contingency_set,
                       build_scenario_set, enumerate_commitments,
                       load_scenario_set, load_system, solve)
from gridsched.data import bundled
from gridsched.milp import INF, MilpProblem
from gridsched.solver import (EngineError, EngineResult, SolveOptions,
                              SolveStatus, SolverError)

from conftest import (named_cols, parallel_pair_scenarios,
                      parallel_pair_system, triangle_scenarios,
                      triangle_system)
from test_engine_input import KINDS, rts24_slice, toy3_inputs


U, V = 0, 1  # tiny_uc's commitment and startup columns


def tiny_uc() -> MilpProblem:
    """Single unit, single period: commit, start up, serve 5 MW."""
    prob = MilpProblem()
    u, v, p = named_cols(prob, ["u", "v", "p"], 0, [1, 1, INF],
                         [True, True, False])
    prob.add_row_block("demand", [()], [(p, 1.0)], 5.0, 5.0)
    prob.add_row_block("cap", [()], [(p, 1.0), (u, -120.0)], -INF, 0.0)
    prob.add_row_block("startup", [()], [(v, 1.0), (u, -1.0)], 0.0, INF)
    prob.add_objective([u, v, p], [10.0, 100.0, 20.0])
    return prob


class TestSolveContract:
    def test_minimal_lp(self):
        prob = MilpProblem()
        [x] = named_cols(prob, ["x"], -INF, INF)
        prob.add_row_block("c", [()], [(x, 1.0)], 3.0, INF)
        prob.add_objective([x], [1.0])
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
        [x] = named_cols(prob, ["x"], -INF, INF)
        prob.add_objective([x], [1.0])
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

    @pytest.mark.parametrize("kind", KINDS)
    def test_objective_constant_reaches_engine_gap_at_nonzero_gap(self, kind):
        """HiGHS's own gap is the one computed from the objective with its
        constant: an offset left out would make HiGHS's gap relative to
        the objective without it.  toy3 solves at the root with no gap
        left, so the RTS-24 slice gives a nonzero one."""
        prob = assemble(*rts24_slice(), FormulationConfig(model_kind=kind))
        prob.objective_constant += 1e5
        res = solve(prob, SolveOptions(mip_gap=0.01))
        gap = (res.objective - res.best_bound) / abs(res.objective)
        assert res.status is SolveStatus.FEASIBLE_WITHIN_GAP
        assert 0.0 < gap <= 0.01
        assert res.mip_gap == pytest.approx(gap, rel=1e-6)

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

    @pytest.mark.parametrize("fields", [
        {"mip_gap": math.nan}, {"mip_gap": math.inf},
        {"time_limit": -1.0}, {"time_limit": math.nan}])
    def test_values_highs_would_drop_rejected(self, fields):
        with pytest.raises(ValueError):
            SolveOptions(**fields)

    def test_zero_time_limit_stops_without_a_point(self):
        prob = assemble(*toy3_inputs(), FormulationConfig())
        res = solve(prob, SolveOptions(time_limit=0.0))
        assert res.status is SolveStatus.TIME_LIMIT
        assert res.x is None


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
        engine_reports(monkeypatch, {"status": SolveStatus.INFEASIBLE,
                                     "message": "infeasible"})
        res = solve(tiny_uc())
        assert res.status is SolveStatus.INFEASIBLE
        assert res.nodes is None and res.mip_gap is None


def report_model_status(monkeypatch, name: str) -> None:
    """Every HiGHS instance made from now on runs, then reports the model
    status ``name``: a stand-in for the engine's ``highs`` object."""
    class Reporting(highs_core._Highs):
        def getModelStatus(self):
            return getattr(highs_core.HighsModelStatus, name)

    monkeypatch.setattr(highs_core, "_Highs", Reporting)


# two ways the engine fails: HiGHS reports an error status, or a success
# with no point comes back
ENGINE_FAILURES = [{"model_status": "kModelError"},
                   {"status": SolveStatus.OPTIMAL, "x": None}]


def engine_reports(monkeypatch, fields: dict) -> None:
    """Make HiGHS report ``model_status``, or the engine call ``milp``
    return an ``EngineResult`` with these fields."""
    if "model_status" in fields:
        report_model_status(monkeypatch, fields["model_status"])
    else:
        monkeypatch.setattr(solver_mod, "milp", lambda **kwargs: EngineResult(
            **{"message": "engine says no", **fields}))


class TestEngineFailures:
    @pytest.mark.parametrize("fields", ENGINE_FAILURES)
    def test_engine_failure_is_engine_error(self, monkeypatch, fields):
        engine_reports(monkeypatch, fields)
        with pytest.raises(EngineError, match="engine failure"):
            solve(tiny_uc())

    def test_model_error_is_engine_error_not_infeasible(self, monkeypatch):
        """kModelError is no infeasibility: read as one on the LP route,
        it would make the oracle record every switch setting of a
        commitment infeasible."""
        report_model_status(monkeypatch, "kModelError")
        prob, _, b = fixed_lp()
        with pytest.raises(EngineError, match="engine failure: Model error"):
            solve(prob.clone_with_bounds({b: 1.0}))
        with pytest.raises(EngineError, match="engine failure: Model error"):
            solver_mod.solve_relaxation(prob)

    def test_fractional_binary_is_not_an_engine_error(self, monkeypatch):
        engine_reports(monkeypatch, {"status": SolveStatus.OPTIMAL,
                                     "x": np.array([0.5, 0.5, 5.0])})
        with pytest.raises(SolverError) as err:
            solve(tiny_uc())
        assert not isinstance(err.value, EngineError)
        assert "integrality residual" in str(err.value)

    @pytest.mark.parametrize("x, message", [
        ([math.nan, 1.0, 5.0], "integrality residual nan on u"),
        ([1.0, 1.0, math.nan], "violation inf at")])
    def test_nan_point_is_not_an_engine_error(self, monkeypatch, x, message):
        engine_reports(monkeypatch, {"status": SolveStatus.OPTIMAL,
                                     "x": np.array(x)})
        with pytest.raises(SolverError, match=message) as err:
            solve(tiny_uc())
        assert not isinstance(err.value, EngineError)


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


# ``oracle_digest`` of the walk: LP counts toy3-sscuc 14, toy3-cnr 31,
# triangle-sscuc 8, triangle-cnr 15, pair-sscuc 4 and pair-cnr 7, over
# 804 records
ORACLE_DIGEST = \
    "9746134e5dc3fe31c17ef5fb00c6010892bee24e1c4f555c4da0b9f4d76f6fc6"


def oracle_digest() -> str:
    """SHA-256 over each ``ORACLE_CASES`` entry in order: ``lp_solves``,
    ``repr(best_objective)`` and, per record, its sorted assignment, its
    status and ``repr(objective)``."""
    h = hashlib.sha256()
    for name, (make, cfg) in ORACLE_CASES.items():
        found = enumerate_commitments(*make(), cfg)
        h.update(f"{name} {found.lp_solves} {found.best_objective!r}\n"
                 .encode())
        for rec in found.records:
            h.update(f"{sorted(rec.assignment.items())} {rec.status} "
                     f"{rec.objective!r}\n".encode())
    return h.hexdigest()


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


def csr_matrix(indptr, indices, data, n_cols: int):
    """The engine's CSR triple as a scipy sparse matrix."""
    return sparse.csr_array((data, indices, indptr),
                            shape=(indptr.size - 1, n_cols))


def milp_reference(prob: MilpProblem):
    """Status and objective from scipy's ``milp`` on the same problem."""
    indptr, indices, data, lo, hi = prob.matrix()
    A = csr_matrix(indptr, indices, data, prob.num_vars)
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
    x, b = named_cols(prob, ["x", "b"], 0, [10, 1], [False, True])
    prob.add_row_block("cover", [()], [(x, 1.0), (b, 1.0)], 2.0, INF)
    prob.add_objective([x], [1.0])
    return prob, x, b


def no_milp(**kwargs):
    raise AssertionError("a fixed-binary problem reached the MILP engine call")


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
        monkeypatch.setattr(solver_mod, "milp", no_milp)
        prob, x, b = fixed_lp()
        assert solve(prob.clone_with_bounds({b: 1.0})).objective == \
            pytest.approx(1.0)
        assert solve(prob.clone_with_bounds({b: 0.0})).objective == \
            pytest.approx(2.0)
        prob.add_row_block("floor", [()], [(x, 1.0)], 3.0, INF)
        assert solve(prob.clone_with_bounds({b: 1.0})).objective == \
            pytest.approx(3.0)
        prob.add_objective([b], [5.0])
        res = solve(prob.clone_with_bounds({b: 1.0}))
        assert res.objective == pytest.approx(8.0)
        assert res.x.tolist() == [3.0, 1.0]

    def test_time_limit_option_reaches_the_instance(self, monkeypatch):
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
        prob.shared("highs-lp", None).statuses = {}  # no status is known
        with pytest.raises(EngineError, match="engine failure"):
            solve(clone)


# -- the oracle's relaxation walk: one LP per branching node, free binaries
# in [0, 1] ----------------------------------------------------------------

def switch_settings(prob: MilpProblem, cfg: FormulationConfig) -> list[dict]:
    """Every switch setting within the budget, as column name -> bit."""
    keys = prob.registry.indices("z")
    names = [prob.var_name(prob.registry.col("z", *key)) for key in keys]
    groups: dict[tuple, list[int]] = {}
    for pos, (cid, _k, t, s_id) in enumerate(keys):
        groups.setdefault((cid, t, s_id), []).append(pos)
    return [dict(zip(names, bits))
            for bits in itertools.product((0, 1), repeat=len(keys))
            if all(sum(1 - bits[pos] for pos in group) <= cfg.switch_limit
                   for group in groups.values())]


def logged_oracle_lps(monkeypatch, model: MilpProblem) -> list[tuple]:
    """The oracle's LPs in solve order: ("relaxation" or "fixed", status,
    the columns pinned against ``model`` as column -> value, point)."""
    log = []
    for name, kind in (("solve_relaxation", "relaxation"), ("solve", "fixed")):
        def spy(prob, *opts, real=getattr(oracle_mod, name), kind=kind):
            result = real(prob, *opts)
            pinned = np.flatnonzero((prob.lb != model.lb)
                                    | (prob.ub != model.ub))
            log.append((kind, result.status,
                        {int(col): prob.lb[col] for col in pinned}, result.x))
            return result
        monkeypatch.setattr(oracle_mod, name, spy)
    return log


def under(pins: dict[int, float], fixes: dict[int, float]) -> bool:
    """Whether the assignment ``fixes`` takes every value ``pins`` fixes."""
    return all(fixes.get(col) == val for col, val in pins.items())


class TestSwitchRelaxation:
    def test_relaxation_keeps_bounds_and_drops_integrality(self, monkeypatch):
        """min x + b/2 over x + 2b >= 1: the relaxation takes b = 1/2."""
        monkeypatch.setattr(solver_mod, "milp", no_milp)
        prob = MilpProblem()
        x, b = named_cols(prob, ["x", "b"], 0, [10, 1], [False, True])
        prob.add_row_block("cover", [()], [(x, 1.0), (b, 2.0)], 1.0, INF)
        prob.add_objective([x, b], [1.0, 0.5])
        res = solver_mod.solve_relaxation(prob)
        assert res.status is SolveStatus.OPTIMAL
        assert res.x.tolist() == [0.0, 0.5]
        assert res.objective == res.best_bound == pytest.approx(0.25)
        fixed = solver_mod.solve_relaxation(prob.clone_with_bounds({b: 0.0}))
        assert fixed.objective == pytest.approx(1.0)
        assert solver_mod.solve_relaxation(prob.clone_with_bounds(
            {x: 0.0, b: 0.0})).status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_records_stay_complete(self, name):
        """Every commitment the SSCUC walk admits gets one record per
        switch setting in the budget, pruned or not."""
        prob, found, _, (inputs, cfg) = oracle_fixes(name)
        settings = switch_settings(prob, cfg)
        commitments = [rec.assignment for rec in
                       enumerate_commitments(*inputs, SSCUC).records]
        want = sorted(sorted({**commitment, **setting}.items())
                      for commitment in commitments for setting in settings)
        assert sorted(sorted(rec.assignment.items())
                      for rec in found.records) == want

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_a_record_is_unsolved_only_under_an_infeasible_relaxation(
            self, monkeypatch, name):
        """Each fixed LP is one record's, in record order; every other
        record is infeasible and lies under a relaxation HiGHS proved
        infeasible, below which nothing is solved.  A relaxation covers
        more than one record, and none is solved where an earlier point
        already takes all its pinned values."""
        prob, _, fixes, (inputs, cfg) = oracle_fixes(name)
        log = logged_oracle_lps(monkeypatch, prob)
        found = enumerate_commitments(*inputs, cfg)
        assert found.lp_solves == len(log)
        fixed = [(status, pins) for kind, status, pins, _ in log
                 if kind == "fixed"]
        pruned = [pins for kind, status, pins, _ in log
                  if status is SolveStatus.INFEASIBLE and kind == "relaxation"]
        solved = iter(fixed)
        want = next(solved, None)
        for record, fix in zip(found.records, fixes, strict=True):
            if want is not None and want[1] == fix:
                assert record.status == want[0].value
                want = next(solved, None)
            else:
                assert record.status == "infeasible"
                assert any(under(pins, fix) for pins in pruned)
        assert want is None  # every fixed LP is a record's
        for i, (kind, status, pins, x) in enumerate(log):
            earlier = log[:i]
            assert not any(under(p, pins) for k, st, p, _ in earlier
                           if k == "relaxation"
                           and st is SolveStatus.INFEASIBLE)
            if kind != "relaxation":
                continue
            assert sum(under(pins, fix) for fix in fixes) > 1
            assert not any(under(p, pins) and under(pins, dict(enumerate(px)))
                           for k, _, p, px in earlier
                           if k == "relaxation" and px is not None)

    def test_oracle_results_are_locked(self):
        """Records, statuses, objectives and LP counts are those of the
        walk this digest was recorded from, byte for byte."""
        assert oracle_digest() == ORACLE_DIGEST

    def test_walk_solves_no_more_lps_than_one_relaxation_per_commitment(
            self):
        """Against the walk that relaxed each commitment's switch settings
        and solved every other LP, the tree adds at most its root."""
        per_commitment = {"toy3-sscuc": 256, "toy3-cnr": 32,
                          "triangle-sscuc": 16, "triangle-cnr": 32,
                          "pair-sscuc": 4, "pair-cnr": 8}
        for name, (make, cfg) in ORACLE_CASES.items():
            found = enumerate_commitments(*make(), cfg, keep_records=False)
            assert found.lp_solves <= per_commitment[name] + 1, name

    def test_unknown_relaxation_status_is_engine_error(self, monkeypatch):
        real = oracle_mod.assemble

        def unmapped(*args):
            prob = real(*args)
            solver_mod.solve_relaxation(prob)
            prob.shared("highs-lp", None).statuses = {}  # no status is known
            return prob

        monkeypatch.setattr(oracle_mod, "assemble", unmapped)
        monkeypatch.setattr(oracle_mod, "solve", lambda prob, opts: pytest.fail(
            "a fixed LP was solved after the relaxation failed"))
        make, cfg = ORACLE_CASES["triangle-cnr"]
        with pytest.raises(EngineError, match="engine failure"):
            enumerate_commitments(*make(), cfg)

    def test_the_oracle_frees_its_model_at_once(self, monkeypatch):
        """No reference cycle keeps the oracle's model, and with it the
        model's HiGHS instance, alive after the walk returns."""
        engines = []
        real = oracle_mod.solve

        def spy(prob, opts):
            result = real(prob, opts)
            engines.append(weakref.ref(prob.shared("highs-lp", None)))
            return result

        monkeypatch.setattr(oracle_mod, "solve", spy)
        make, cfg = ORACLE_CASES["triangle-cnr"]
        inputs = make()
        gc.disable()
        try:
            enumerate_commitments(*inputs, cfg)
            assert engines and all(engine() is None for engine in engines)
        finally:
            gc.enable()


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

    def test_free_binaries_need_the_bindings(self, monkeypatch):
        monkeypatch.setitem(sys.modules, self.BINDINGS, None)
        with pytest.raises(EngineError, match=f"scipy {scipy.__version__}"):
            solve(tiny_uc(), SolveOptions(mip_gap=0.0))

    def test_missing_file_is_engine_error(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, self.BINDINGS)
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        with pytest.raises(EngineError,
                           match=f"scipy {scipy.__version__} .* no file"):
            solve(tiny_uc(), SolveOptions(mip_gap=0.0))
        assert self.BINDINGS not in sys.modules


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter importing gridsched from this
    source tree; its printed lines."""
    src = str(Path(solver_mod.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


class TestFootprint:
    """A solve imports the bindings' one module, not the packages around
    it."""

    def test_solves_import_neither_optimize_nor_sparse(self):
        lines = run_fresh("""
            import sys
            import numpy as np
            from gridsched import (FormulationConfig, SolveOptions,
                                   align_scenarios, assemble,
                                   build_contingency_set, load_scenario_set,
                                   load_system, solve)
            from gridsched.data import bundled
            system = load_system(bundled("toy3.json"))
            scen = align_scenarios(system, load_scenario_set(
                bundled("toy3_scenarios.json"), block_len=3))
            prob = assemble(system, scen, build_contingency_set(system),
                            FormulationConfig())
            res = solve(prob, SolveOptions(mip_gap=0.0))
            fixes = {int(j): res.x[j] for j in np.flatnonzero(prob.integer)}
            lp = solve(prob.clone_with_bounds(fixes))
            print(res.status.value, lp.status.value)
            print(*sorted(name for name in ("scipy.optimize", "scipy.sparse",
                                            "scipy.optimize._highspy._core")
                          if name in sys.modules))
            """)
        assert lines == ["optimal optimal", "scipy.optimize._highspy._core"]

    def test_scipy_optimize_shares_the_loaded_bindings(self):
        lines = run_fresh("""
            from gridsched.solver import _highs_bindings
            core = _highs_bindings()
            import scipy.optimize
            from scipy.optimize._highspy import _core
            res = scipy.optimize.milp(c=[1.0, 2.0], integrality=[1, 0],
                                      bounds=scipy.optimize.Bounds(
                                          [0.5, 0.0], [3.0, 1.0]))
            print(_core is core, res.status, res.x.tolist())
            """)
        assert lines == ["True 0 [1.0, 0.0]"]


# -- the MILP route: one new HiGHS instance per call of ``solver.milp`` ------

class TestMilpRoute:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("make", [toy3_inputs, rts24_slice],
                             ids=["toy3", "rts24-slice"])
    def test_matches_scipy_milp_bit_for_bit(self, monkeypatch, make, kind):
        """The same arrays and options through scipy's ``milp``, with the
        objective offset as a column fixed to 1 and the rows column-wise,
        take the same search path."""
        seen = {}
        engine = solver_mod.milp

        def record(**kwargs):
            seen.update(kwargs)
            seen["result"] = engine(**kwargs)
            return seen["result"]

        monkeypatch.setattr(solver_mod, "milp", record)
        prob = assemble(*make(), FormulationConfig(model_kind=kind))
        solve(prob, SolveOptions(mip_gap=0.01))
        got, n = seen["result"], prob.num_vars
        A = csr_matrix(*seen["A"], n)
        assert seen["offset"] != 0.0
        one = np.ones(1)
        want = milp(c=np.concatenate((seen["c"], [seen["offset"]])),
                    integrality=np.append(seen["integrality"], 0),
                    bounds=Bounds(np.concatenate((seen["col_lower"], one)),
                                  np.concatenate((seen["col_upper"], one))),
                    constraints=[LinearConstraint(
                        sparse.hstack((A, sparse.csc_matrix((A.shape[0], 1))),
                                      format="csc"),
                        seen["row_lower"], seen["row_upper"])],
                    options={"mip_rel_gap": 0.01, "presolve": True})
        assert got.status is SolveStatus.OPTIMAL and want.status == 0
        assert got.x.tobytes() == want.x[:n].tobytes()
        for stat in ("mip_node_count", "mip_dual_bound", "mip_gap"):
            assert getattr(got, stat) == getattr(want, stat), stat

    def test_feasibility_jump_is_off_on_every_instance(self):
        """HiGHS runs the heuristic by default; both routes' instances
        switch it off."""
        option = "mip_heuristic_run_feasibility_jump"
        assert highs_core._Highs().getOptionValue(option)[1] is True
        kwargs = tiny_uc_engine_input()
        mip = solver_mod._Engine(
            kwargs["c"], kwargs["offset"], kwargs["integrality"],
            kwargs["col_lower"], kwargs["col_upper"], kwargs["A"],
            kwargs["row_lower"], kwargs["row_upper"])
        prob, _, b = fixed_lp()
        solve(prob.clone_with_bounds({b: 1.0}))
        for engine in (mip, prob.shared("highs-lp", None)):
            assert engine.highs.getOptionValue(option)[1] is False

    @pytest.mark.parametrize("option, value", [("time_limit", -1.0),
                                               ("mip_rel_gap", -1.0)])
    def test_rejected_option_is_engine_error(self, option, value):
        with pytest.raises(EngineError, match=option):
            solver_mod.milp(**{**tiny_uc_engine_input(), option: value})

    def test_short_array_is_rejected_before_highs_reads_it(self):
        kwargs = tiny_uc_engine_input()
        kwargs["col_lower"] = kwargs["col_lower"][:-1]
        with pytest.raises(ValueError, match="sizes disagree"):
            solver_mod.milp(**kwargs)

    @pytest.mark.parametrize("part", [0, 1, 2],
                             ids=["indptr", "indices", "data"])
    def test_short_row_array_is_rejected_before_highs_reads_it(self, part):
        kwargs = tiny_uc_engine_input()
        A = list(kwargs["A"])
        A[part] = A[part][:-1]
        kwargs["A"] = tuple(A)
        with pytest.raises(ValueError, match="sizes disagree"):
            solver_mod.milp(**kwargs)


def tiny_uc_engine_input() -> dict:
    """``tiny_uc`` as the keyword arguments of ``solver.milp``."""
    prob = tiny_uc()
    indptr, indices, data, lo, hi = prob.matrix()
    return {"c": prob.objective_vector(), "offset": 0.0,
            "integrality": prob.integer.astype(np.int32),
            "col_lower": prob.lb, "col_upper": prob.ub,
            "A": (indptr, indices, data),
            "row_lower": lo, "row_upper": hi, "mip_rel_gap": 0.0,
            "time_limit": None}
