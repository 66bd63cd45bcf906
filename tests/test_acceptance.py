"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The criteria are
property-based plus qualitative-pattern reproduction on constructed
instances; solver-dependent checks run at gap 0 unless a criterion says
otherwise.  Solved instances are pooled so the budget/feasibility
criteria sweep every solution produced here.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from gridsched import (DemandProfile, FormulationConfig, ModelKind,
                       align_scenarios, assemble, base_case_curtailment,
                       build_contingency_set, build_scenario_set,
                       build_system, cost_breakdown, enumerate_commitments,
                       extract_schedule, find_bridges, islands_after,
                       load_system, post_contingency_curtailment, solve,
                       switching_report, verify_solution)
from gridsched.metrics import ScheduleSolution
from gridsched.scenarios import synth_wind_profiles
from gridsched.solver import SolveOptions, SolveStatus
from gridsched.data import bundled

from conftest import (make_gen, make_line, parallel_pair_scenarios,
                      parallel_pair_system, ring4_scenarios, ring4_system,
                      sixbus_scenarios, sixbus_system, triangle_scenarios,
                      triangle_system)

GAP0 = SolveOptions(mip_gap=0.0)


@dataclass
class SolvedRecord:
    name: str
    sys_obj: object
    scen: object
    cont: list
    cfg: FormulationConfig
    prob: object
    res: object
    sol: ScheduleSolution


RESULTS: list[SolvedRecord] = []
INSTANCE_POOL: list[tuple[str, object, object, list, list]] = []


def run_instance(name, sys_obj, scen, cont, cfg, opts=GAP0) -> SolvedRecord:
    prob = assemble(sys_obj, scen, cont, cfg)
    res = solve(prob, opts)
    sol = extract_schedule(prob, res) if res.status.has_solution else None
    rec = SolvedRecord(name, sys_obj, scen, cont, cfg, prob, res, sol)
    if sol is not None:
        RESULTS.append(rec)
    return rec


def random_tiny_instance(seed: int):
    """Deterministic desk-scale instance; hourly ramps never bind so the
    enumeration space stays small, the 10-minute ramps and reserve do."""
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 4))
    S = int(rng.integers(1, 3))
    pair = bool(rng.integers(0, 2))
    pmax = rng.uniform(60, 120, size=2)
    r10 = rng.uniform(0.5, 1.0, size=2) * pmax
    pmin = rng.uniform(0.0, 0.1, size=2) * pmax
    cost = rng.uniform(10, 40, size=2)

    if pair:
        buses = ["A", "B"]
        lines = [make_line("P1", "A", "B", limit=150.0),
                 make_line("P2", "A", "B", limit=150.0)]
        gen_bus, load_bus = ["A", "B"], "B"
        whitelist, pool = {"P1"}, {"P2"}
    else:
        buses = ["b1", "b2", "b3"]
        lines = [make_line("L1", "b1", "b2", limit=200.0),
                 make_line("L2", "b1", "b3", limit=200.0),
                 make_line("L3", "b2", "b3", limit=200.0)]
        gen_bus, load_bus = ["b1", "b2"], "b3"
        whitelist, pool = {"L2"}, {"L3"}

    gens = [make_gen(f"g{i}", gen_bus[i], p_min=float(pmin[i]),
                     p_max=float(pmax[i]), c=float(cost[i]),
                     c_nl=float(rng.uniform(2, 20)),
                     c_su=float(rng.uniform(10, 120)),
                     ramp_10min=float(r10[i]),
                     min_up=int(rng.integers(1, 3)),
                     min_down=int(rng.integers(1, 3)))
            for i in range(2)]
    # the reserve rule caps the served demand at each unit's p_max (the
    # other unit must hold reserve inside the same capacity) and at the
    # total 10-minute range
    cap = 0.8 * min(float(pmax.min()), float(r10.sum()))
    demand_levels = rng.uniform(0.4, 0.95, size=T) * cap
    rows = {b: tuple(0.0 for _ in range(T)) for b in buses}
    rows[load_bus] = tuple(float(v) for v in demand_levels)
    from gridsched import ResUnit
    res_units = [ResUnit(id="w", bus_id=load_bus,
                         curtail_penalty=float(rng.uniform(20, 150)))]
    sys_obj = build_system(
        buses, gens, lines, res_units,
        DemandProfile(rows=rows, horizon_length=T))
    profiles = [
        {"w": [float(rng.uniform(0, 0.35) * demand_levels[t])
               for t in range(T)]}
        for _ in range(S)
    ]
    scen = build_scenario_set(profiles, list(rng.uniform(0.2, 1.0, size=S)))
    cont = build_contingency_set(sys_obj, switch_pool=pool,
                                 whitelist=whitelist)
    return sys_obj, scen, cont


class TestCriterion1OracleEquivalence:
    def test_milp_matches_enumeration_on_random_tiny_instances(self):
        started = time.perf_counter()
        checked = 0
        for i in range(14):
            sys_obj, scen, cont = random_tiny_instance(seed=1000 + i)
            kind = ModelKind.SSCUC_CNR if i % 2 else ModelKind.SSCUC
            cfg = FormulationConfig(model_kind=kind)
            used_cont = cont if kind is ModelKind.SSCUC_CNR else cont[:1]
            rec = run_instance(f"rand{i}-{kind.value}", sys_obj, scen,
                               used_cont, cfg)
            oracle = enumerate_commitments(sys_obj, scen, used_cont, cfg,
                                           keep_records=False)
            if rec.res.status.has_solution:
                assert oracle.feasible, f"instance {i}: oracle disagrees"
                assert rec.res.objective == pytest.approx(
                    oracle.best_objective, rel=1e-6), f"instance {i}"
                checked += 1
            else:
                assert not oracle.feasible, f"instance {i}: milp disagrees"
            INSTANCE_POOL.append((f"rand{i}", sys_obj, scen, cont, used_cont))
        elapsed = time.perf_counter() - started
        assert checked >= 10, f"only {checked} feasible instances"
        assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s"
        print(f"\nACCEPTANCE PASS: criterion 1 - oracle equals MILP on "
              f"{checked} feasible tiny instances in {elapsed:.1f}s")


class TestCriterion2RelaxationDominance:
    def test_cnr_never_costs_more_at_gap_zero(self):
        pairs = []
        fixtures = [
            ("triangle", triangle_system(), triangle_scenarios(),
             build_contingency_set(triangle_system())),
            ("ring4", ring4_system(), ring4_scenarios(),
             build_contingency_set(ring4_system(), whitelist={"CH"})),
            ("sixbus", sixbus_system(), sixbus_scenarios(),
             build_contingency_set(sixbus_system(),
                                   whitelist={"L61", "L34"})),
            ("pair", parallel_pair_system(), parallel_pair_scenarios(),
             build_contingency_set(parallel_pair_system())),
        ]
        fixtures += [(name, s, sc, cont)
                     for name, s, sc, cont, _used in INSTANCE_POOL]
        strict_seen = False
        for name, sys_obj, scen, cont in fixtures:
            for penalty_on in (True, False):
                base = run_instance(
                    f"{name}-sscuc-p{penalty_on}", sys_obj, scen, cont,
                    FormulationConfig(model_kind=ModelKind.SSCUC,
                                      penalty_enabled=penalty_on))
                cnr = run_instance(
                    f"{name}-cnr-p{penalty_on}", sys_obj, scen, cont,
                    FormulationConfig(model_kind=ModelKind.SSCUC_CNR,
                                      penalty_enabled=penalty_on))
                if not base.res.status.has_solution:
                    continue
                assert cnr.res.status.has_solution, \
                    f"{name}: CNR infeasible where SSCUC is feasible"
                limit = base.res.objective + 1e-6 * abs(base.res.objective)
                assert cnr.res.objective <= limit + 1e-9, (
                    f"{name} penalty={penalty_on}: CNR {cnr.res.objective} "
                    f"> SSCUC {base.res.objective}")
                if cnr.res.objective < base.res.objective - 1.0:
                    strict_seen = True
                pairs.append(name)
        assert strict_seen, "no instance showed a strict CNR saving"
        print(f"\nACCEPTANCE PASS: criterion 2 - CNR objective never above "
              f"SSCUC on {len(pairs)} gap-0 pairs (strict saving observed)")


class TestCriterion3PenaltyEliminatesCurtailment:
    def test_tables_pattern_on_sixbus(self):
        sys_obj = sixbus_system()
        scen = sixbus_scenarios()
        cont = build_contingency_set(sys_obj, whitelist={"L61", "L34"})
        off_cfg = FormulationConfig(model_kind=ModelKind.SSCUC,
                                    penalty_enabled=False)
        off = run_instance("sixbus-off", sys_obj, scen, cont, off_cfg)
        assert off.res.status is SolveStatus.OPTIMAL
        j0 = off.res.objective

        # (a) with the penalty off, positive post-contingency curtailment is
        # permitted at no cost: force 5 MW of curtailment and re-solve
        forced = copy.deepcopy(off.prob)
        pwc_cols = forced.registry.block("Pwc").numbers().reshape(-1).tolist()
        total_avail = sum(forced.ub[c] for c in pwc_cols)
        forced.add_row_block("forced_curtailment", [()],
                             [(c, 1.0) for c in pwc_cols], 0.0,
                             total_avail - 5.0)
        res_forced = solve(forced, GAP0)
        assert res_forced.status is SolveStatus.OPTIMAL
        assert res_forced.objective == pytest.approx(j0, rel=1e-6)
        sol_forced = extract_schedule(forced, res_forced)
        assert verify_solution(sol_forced, sys_obj, scen, cont, off_cfg) == []
        pcc_forced = post_contingency_curtailment(sol_forced, scen, len(cont))
        assert pcc_forced > 1e-6

        # (b) with the penalty on, curtailment vanishes and the dispatch
        # cost does not move
        on_cfg = FormulationConfig(model_kind=ModelKind.SSCUC,
                                   penalty_enabled=True)
        on = run_instance("sixbus-on", sys_obj, scen, cont, on_cfg)
        assert on.res.status is SolveStatus.OPTIMAL
        pcc_on = post_contingency_curtailment(on.sol, scen, len(cont))
        assert pcc_on == pytest.approx(0.0, abs=1e-6)
        parts = cost_breakdown(on.sol, sys_obj, scen, on_cfg)
        nonpenalty = parts.no_load + parts.startup + parts.energy
        assert nonpenalty == pytest.approx(j0, rel=1e-6)
        print("\nACCEPTANCE PASS: criterion 3 - penalty removes "
              f"post-contingency curtailment ({pcc_forced:.2f} MW was "
              f"permitted) at unchanged cost {j0:.2f}")


class TestCriterion4PenaltyMonotonicity:
    def test_pcc_non_increasing_in_penalty(self):
        pcc_by_price = {}
        for kind in (ModelKind.SSCUC, ModelKind.SSCUC_CNR):
            values = []
            for price in (0.0, 10.0, 100.0, 1000.0):
                sys_obj = parallel_pair_system()
                sys_obj = replace(sys_obj, res_units=tuple(
                    replace(w, curtail_penalty=price)
                    for w in sys_obj.res_units))
                scen = parallel_pair_scenarios()
                cont = build_contingency_set(sys_obj)
                cfg = FormulationConfig(model_kind=kind, penalty_enabled=True)
                rec = run_instance(f"pair-{kind.value}-pen{price}",
                                   sys_obj, scen, cont, cfg)
                assert rec.res.status is SolveStatus.OPTIMAL
                values.append(post_contingency_curtailment(
                    rec.sol, scen, len(cont)))
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-6, f"{kind}: PCC increased: {values}"
            pcc_by_price[kind] = values
        # hand-derived corner values for the fixed-topology model: backing
        # the cheap unit down costs 40 $/MWh and saves 2 x price per MWh,
        # so curtailment persists at 10 $/MWh and clears at 100 $/MWh
        sscuc = pcc_by_price[ModelKind.SSCUC]
        assert sscuc[1] == pytest.approx(20.0, abs=1e-6)
        assert sscuc[2] == pytest.approx(0.0, abs=1e-6)
        assert sscuc[3] == pytest.approx(0.0, abs=1e-6)
        print("\nACCEPTANCE PASS: criterion 4 - PCC non-increasing in the "
              f"penalty price: {[round(v, 3) for v in sscuc]} MW")


class TestCriterion5SwitchBudget:
    def test_every_cnr_solution_respects_the_budget(self):
        checked = 0
        for rec in RESULTS:
            if rec.cfg.model_kind is not ModelKind.SSCUC_CNR:
                continue
            viols = verify_solution(rec.sol, rec.sys_obj, rec.scen, rec.cont,
                                    rec.cfg)
            assert [v for v in viols if v.equation == "eq28"] == [], rec.name
            opened: dict[tuple, int] = {}
            for action in switching_report(rec.sol).actions:
                key = (action.contingency, action.period, action.scenario)
                opened[key] = opened.get(key, 0) + 1
            assert all(n <= rec.cfg.switch_limit for n in opened.values()), \
                rec.name
            checked += 1
        assert checked >= 5
        print(f"\nACCEPTANCE PASS: criterion 5 - switch budget respected on "
              f"{checked} CNR solutions, 0 violations")


class TestCriterion6IndependentFeasibility:
    def test_every_feasible_solution_verifies_clean(self):
        assert len(RESULTS) >= 10
        for rec in RESULTS:
            viols = verify_solution(rec.sol, rec.sys_obj, rec.scen, rec.cont,
                                    rec.cfg)
            assert viols == [], f"{rec.name}: {[str(v) for v in viols[:3]]}"
            # outaged line carries no flow in its own contingency
            for c in rec.cont:
                cid = c.outaged_line_id
                for (k, cc, t, s), v in rec.sol.flow_c.items():
                    if k == cid and cc == cid:
                        assert abs(v) <= 1e-6
            # closed switches enforce the flow-definition equality
            for (cid, k, t, s), zv in rec.sol.z.items():
                if round(zv) != 1:
                    continue
                line = next(x for x in rec.sys_obj.lines if x.id == k)
                coef = line.susceptance * rec.sys_obj.mva_base
                lhs = rec.sol.flow_c[(k, cid, t, s)]
                rhs = coef * (rec.sol.angle_c[(line.from_bus, cid, t, s)]
                              - rec.sol.angle_c[(line.to_bus, cid, t, s)])
                scale = max(1.0, abs(lhs), abs(rhs))
                assert abs(lhs - rhs) / scale <= 1e-6, rec.name
        print(f"\nACCEPTANCE PASS: criterion 6 - zero verifier violations "
              f"across {len(RESULTS)} solved instances")


class TestCriterion7BridgeDetection:
    def test_against_islanding_oracle_on_random_multigraphs(self):
        rng = np.random.default_rng(20240817)
        started = time.perf_counter()
        for trial in range(100):
            n = int(rng.integers(2, 51))
            edges = []
            order = rng.permutation(n)
            for i in range(1, n):
                a = int(order[int(rng.integers(0, i))])
                edges.append((int(order[i]), a))
            for _ in range(int(rng.integers(0, 2 * n))):
                a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
                if a != b:
                    edges.append((a, b))
            demand = DemandProfile(rows={b: (0.0,) for b in range(n)},
                                   horizon_length=1)
            lines = [make_line(i, a, b) for i, (a, b) in enumerate(edges)]
            sys_obj = build_system(list(range(n)), [], lines, [], demand)
            expected = {k.id for k in sys_obj.lines
                        if len(islands_after(sys_obj, {k.id})) > 1}
            assert find_bridges(sys_obj) == expected, f"trial {trial}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"bridge sweep took {elapsed:.1f}s"
        print(f"\nACCEPTANCE PASS: criterion 7 - bridges match the islanding "
              f"oracle on 100 multigraphs in {elapsed:.1f}s")


class TestCriterion8MetricFormulas:
    def test_hand_fixtures_and_reconciliation(self):
        scen2 = build_scenario_set([{"w": [40.0]}, {"w": [40.0]}], [1, 1])
        sol = ScheduleSolution(p_res={("w", 1, "s0"): 30.0,
                                      ("w", 1, "s1"): 10.0})
        assert base_case_curtailment(sol, scen2) == pytest.approx(20.0)

        scen1 = build_scenario_set([{"w": [10.0]}], [1.0])
        sol = ScheduleSolution(p_res={("w", 1, "s0"): 0.86})
        assert base_case_curtailment(sol, scen1) == pytest.approx(9.14)

        sol = ScheduleSolution(p_res_c={("w", "c1", 1, "s0"): 30.0,
                                        ("w", "c2", 1, "s0"): 10.0})
        assert post_contingency_curtailment(
            sol, build_scenario_set([{"w": [40.0]}], [1.0]), 2) == \
            pytest.approx(20.0)

        assert len(RESULTS) >= 10
        for rec in RESULTS:
            parts = cost_breakdown(rec.sol, rec.sys_obj, rec.scen, rec.cfg)
            drift = abs(parts.total - rec.res.objective) / max(
                1.0, abs(rec.res.objective))
            assert drift <= 1e-6, rec.name
        print(f"\nACCEPTANCE PASS: criterion 8 - BCC/PCC fixtures exact and "
              f"cost reconciles on {len(RESULTS)} runs")


@pytest.mark.slow
class TestCriterion9RtsScaleSmoke:
    def test_rts24_both_models_within_budget(self):
        sys_full = load_system(bundled("rts24.json"))
        T = 6
        demand = DemandProfile(
            rows={b: row[:T] for b, row in sys_full.demand.rows.items()},
            horizon_length=T)
        sys6 = replace(sys_full, demand=demand)
        profiles = synth_wind_profiles(seed=11, n_scenarios=2, horizon=T,
                                       res_ids=["w12", "w16", "w22"],
                                       mean_mw=295.0, amplitude_mw=170.0)
        scen = align_scenarios(
            sys6, build_scenario_set(profiles, [0.5, 0.5], block_len=3))
        whitelist = {10, 23, 16, 5, 30}
        cont = build_contingency_set(sys6, whitelist=whitelist)
        assert len(cont) == 5

        opts = SolveOptions(mip_gap=0.01, time_limit=600)
        started = time.perf_counter()
        recs = {}
        for kind in (ModelKind.SSCUC, ModelKind.SSCUC_CNR):
            cfg = FormulationConfig(model_kind=kind)
            rec = run_instance(f"rts24-{kind.value}", sys6, scen, cont, cfg,
                               opts)
            assert rec.res.status.has_solution, kind
            gap = (rec.res.objective - rec.res.best_bound) / max(
                1.0, abs(rec.res.objective))
            assert gap <= 0.01 + 1e-9, f"{kind}: gap {gap:.4f}"
            # criterion 6 on the smoke results
            assert verify_solution(rec.sol, sys6, scen, cont, cfg) == [], kind
            recs[kind] = rec
        elapsed = time.perf_counter() - started
        assert elapsed < 900, f"smoke run took {elapsed:.0f}s"

        # criterion 2 at gap: the CNR bound cannot exceed the SSCUC incumbent
        base, cnr = recs[ModelKind.SSCUC], recs[ModelKind.SSCUC_CNR]
        assert (cnr.res.best_bound
                <= base.res.objective * (1 + 1e-6) + 1e-6)
        # criterion 5 on the smoke results
        opened: dict[tuple, int] = {}
        for action in switching_report(cnr.sol).actions:
            key = (action.contingency, action.period, action.scenario)
            opened[key] = opened.get(key, 0) + 1
        assert all(n <= 1 for n in opened.values())
        print(f"\nACCEPTANCE PASS: criterion 9 - RTS-24 scale smoke run in "
              f"{elapsed:.0f}s (SSCUC {base.res.objective:.0f}, CNR "
              f"{cnr.res.objective:.0f}, {len(opened)} reconfigured cases)")
