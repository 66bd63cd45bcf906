"""The benchmark's workloads: inputs drawn from a seed, one pass, gates.

Every workload builds its inputs in ``setup`` and runs its cases in
``run_pass``.  A case is one model taken through gridsched's public
calls; it carries the wall time of that sequence and the list of gates
it failed.  Gates never raise: an exception from gridsched fails the
case it came from and the pass goes on.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gridsched import (DemandProfile, FormulationConfig, Generator,
                       InitialStatus, ModelKind, ResUnit, SolveOptions,
                       SolveStatus, TransmissionLine)
from gridsched.data import bundled

MODELS = ("sscuc", "cnr")
KINDS = {"sscuc": ModelKind.SSCUC, "cnr": ModelKind.SSCUC_CNR}
RTS_WIND = ("w12", "w16", "w22")
# the criterion-9 wind generator of tests/test_acceptance.py
WIND_MEAN_MW = 295.0
WIND_AMPLITUDE_MW = 170.0
REL_TOL = 1e-6
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Case:
    name: str
    model: str
    schedule_s: float = math.nan
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


@contextmanager
def _tagged(tracer, case: str, model: str, path: str):
    """Tag the spans of one case; a no-op when untraced."""
    if tracer is None:
        yield
        return
    tracer.tag = (case, model, path)
    try:
        with tracer.span(f"bench.{path}", "bench"):
            yield
    finally:
        tracer.tag = None


def model_size(prob) -> dict:
    """Size counters of an assembled model, taken from outside it."""
    return {"cols": prob.num_vars, "rows": prob.num_rows,
            "nnz": sum(len(row.coeffs) for row in prob.rows),
            "binaries": sum(prob.integer),
            "by_equation": prob.rows_by_equation()}


def _schedule(api, tracer, case: Case, system, scen, contingencies,
              opts: SolveOptions):
    """The ``gridsched run`` sequence from ``assemble`` to a verified report.

    Returns the solve result and the extracted schedule (None when the
    sequence stopped early); the case records the time and failures.
    """
    cfg = FormulationConfig(model_kind=KINDS[case.model])
    case.info["contingencies"] = len(contingencies)
    result = sol = None
    with _tagged(tracer, case.name, case.model, "schedule"):
        started = time.perf_counter()
        try:
            prob = api.assemble(system, scen, contingencies, cfg)
            if tracer is not None:
                with tracer.span("bench.model_size", "bench"):
                    case.info["size"] = model_size(prob)
            result = api.solve(prob, opts)
            if result.status.has_solution:
                sol = api.extract_schedule(prob, result)
                violations = api.verify_solution(sol, system, scen,
                                                 contingencies, cfg)
                case.info["violations"] = len(violations)
                if violations:
                    case.failures.append(
                        f"verifier: {len(violations)} violations, first "
                        f"{violations[0]}")
                else:
                    report = api.build_report(sol, system, scen,
                                              contingencies, cfg)
                    if _rel(report.total_cost, result.objective) > REL_TOL:
                        case.failures.append(
                            f"cost {report.total_cost} does not reconcile "
                            f"with objective {result.objective}")
        except Exception as exc:  # a failing call fails this case only
            case.failures.append(f"{type(exc).__name__}: {exc}")
        case.schedule_s = time.perf_counter() - started
    if result is not None:
        case.info.update(status=result.status.value,
                         objective=result.objective,
                         best_bound=result.best_bound)
    return result, sol


def _opened_per_case(sol) -> dict:
    opened: dict[tuple, int] = {}
    for (cid, _k, t, s), z in sol.z.items():
        if round(z) == 0:
            opened[(cid, t, s)] = opened.get((cid, t, s), 0) + 1
    return opened


# ---------------------------------------------------------------------------
# rts24-slice: the paper's SSCUC vs SSCUC-CNR comparison at a size that ends
# ---------------------------------------------------------------------------

class Rts24Slice:
    """RTS-24, hours 1-2, two wind scenarios, lines 10 and 23 outaged.

    The wind forecast is the criterion-9 generator's walk (its seed 11);
    each of the pass's instances draws both scenarios from it with a
    seeded 3 % forecast error per site and hour.  Both models run at gap
    0.01 through the ``gridsched run`` call sequence.
    """

    name = "rts24-slice"
    hours = 2
    n_scenarios = 2
    instances = 2
    forecast_error = 0.03
    contingencies = frozenset({10, 23})
    mip_gap = 0.01

    def __init__(self, seed: int) -> None:
        self.seed = seed
        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.reference = recorded.get(self.name, {}).get(str(seed), {})

    def setup(self, api):
        system = api.load_system(bundled("rts24.json"))
        report = api.validate_system(system)
        if not report.ok:
            raise ValueError(f"rts24 fails validation: {report.violations}")
        T = self.hours
        system = replace(system, demand=DemandProfile(
            rows={b: row[:T] for b, row in system.demand.rows.items()},
            horizon_length=T))
        forecast = api.synth_wind_profiles(
            seed=11, n_scenarios=self.n_scenarios, horizon=T,
            res_ids=list(RTS_WIND), mean_mw=WIND_MEAN_MW,
            amplitude_mw=WIND_AMPLITUDE_MW)
        scenario_sets = []
        for k in range(self.instances):
            rng = np.random.default_rng([self.seed, k])
            profiles = [
                {w: [max(0.0, mw * (1.0 + rng.normal(0.0, self.forecast_error)))
                     for mw in prof] for w, prof in site.items()}
                for site in forecast]
            scen = api.build_scenario_set(
                profiles, [1.0] * self.n_scenarios, block_len=3)
            scenario_sets.append(api.align_scenarios(system, scen))
        cont = api.build_contingency_set(system, whitelist=set(self.contingencies))
        return system, scenario_sets, cont

    def run_pass(self, api, inputs, tracer=None) -> list[Case]:
        system, scenario_sets, cont = inputs
        opts = SolveOptions(mip_gap=self.mip_gap, deterministic_seed=self.seed)
        cases = []
        for k, scen in enumerate(scenario_sets):
            results = {}
            for model in MODELS:
                case = Case(f"slice{k}", model)
                result, sol = _schedule(api, tracer, case, system, scen, cont, opts)
                results[model] = (case, result, sol)
                cases.append(case)
                if result is None or sol is None:
                    case.failures.append("no schedule")
                    continue
                gap = ((result.objective - result.best_bound)
                       / max(1.0, abs(result.objective)))
                if gap > self.mip_gap + 1e-9:
                    case.failures.append(f"gap {gap:.4g} above {self.mip_gap}")
                ref = self.reference.get(case.name, {}).get(model)
                if ref is not None and not _overlaps(
                        (result.best_bound, result.objective), ref):
                    case.failures.append(
                        f"[bound, objective] [{result.best_bound}, "
                        f"{result.objective}] misses recorded {ref}")
            cnr_case, cnr, cnr_sol = results["cnr"]
            _, base, base_sol = results["sscuc"]
            if cnr_sol is None:
                continue
            if base_sol is not None and \
                    cnr.best_bound > base.objective * (1 + REL_TOL) + REL_TOL:
                cnr_case.failures.append(
                    f"CNR bound {cnr.best_bound} above SSCUC objective "
                    f"{base.objective}")
            limit = FormulationConfig().switch_limit
            over = {key: n for key, n in _opened_per_case(cnr_sol).items()
                    if n > limit}
            if over:
                cnr_case.failures.append(f"switch budget exceeded: {over}")
        return cases


def _overlaps(interval, recorded) -> bool:
    lo, hi = interval
    ref_lo, ref_hi = recorded
    slack = REL_TOL * max(1.0, abs(ref_hi))
    return lo <= ref_hi + slack and ref_lo <= hi + slack


# ---------------------------------------------------------------------------
# rts24-day-build: full-day model building, the engine stopped at once
# ---------------------------------------------------------------------------

class Rts24DayBuild:
    """Full-day RTS-24, five seeded scenarios, six seeded contingencies.

    Each model is assembled, handed to ``solve`` with a time limit that
    stops the engine before branch-and-bound, and its rows are evaluated
    by ``max_violation`` at a fixed point (every column at the bound
    nearest zero).  The Python model-building layers dominate.
    """

    name = "rts24-day-build"
    n_scenarios = 5
    n_contingencies = 6
    time_limit = 1e-3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, api):
        system = api.load_system(bundled("rts24.json"))
        report = api.validate_system(system)
        if not report.ok:
            raise ValueError(f"rts24 fails validation: {report.violations}")
        profiles = api.synth_wind_profiles(
            seed=self.seed, n_scenarios=self.n_scenarios,
            horizon=system.horizon, res_ids=list(RTS_WIND),
            mean_mw=WIND_MEAN_MW, amplitude_mw=WIND_AMPLITUDE_MW)
        scen = api.align_scenarios(system, api.build_scenario_set(
            profiles, [1.0] * self.n_scenarios, block_len=3))
        every = api.build_contingency_set(system)
        rng = np.random.default_rng(self.seed)
        chosen = rng.choice(len(every), size=self.n_contingencies, replace=False)
        whitelist = {every[i].outaged_line_id for i in chosen}
        return system, scen, api.build_contingency_set(system, whitelist=whitelist)

    def run_pass(self, api, inputs, tracer=None) -> list[Case]:
        system, scen, cont = inputs
        opts = SolveOptions(mip_gap=0.01, time_limit=self.time_limit,
                            deterministic_seed=self.seed)
        return [self._build(api, tracer, model, system, scen, cont, opts)
                for model in MODELS]

    @staticmethod
    def _build(api, tracer, model, system, scen, cont, opts) -> Case:
        """One model's case; its problem is freed before the next begins."""
        case = Case("day", model, info={"contingencies": len(cont)})
        cfg = FormulationConfig(model_kind=KINDS[model])
        with _tagged(tracer, case.name, model, "schedule"):
            started = time.perf_counter()
            try:
                prob = api.assemble(system, scen, cont, cfg)
                if tracer is not None:
                    with tracer.span("bench.model_size", "bench"):
                        case.info["size"] = model_size(prob)
                result = api.solve(prob, opts)
                case.info["status"] = result.status.value
                if result.status not in (SolveStatus.TIME_LIMIT,
                                         SolveStatus.OPTIMAL,
                                         SolveStatus.FEASIBLE_WITHIN_GAP):
                    case.failures.append(f"status {result.status.value}")
                # at the zero point a loaded bus's balance row misses its
                # whole demand, which scales the violation to exactly 1
                point = np.clip(np.zeros(prob.num_vars), prob.lb, prob.ub)
                worst, where = prob.max_violation(point)
                case.info["fixed_point_violation"] = worst
                if abs(worst - 1.0) > 1e-9:
                    case.failures.append(
                        f"fixed point violation {worst} at {where!r}, "
                        f"expected 1")
            except Exception as exc:  # a failing call fails this case only
                case.failures.append(f"{type(exc).__name__}: {exc}")
            case.schedule_s = time.perf_counter() - started
        return case


# ---------------------------------------------------------------------------
# oracle-tiny: thousands of small solves through the exhaustive oracle
# ---------------------------------------------------------------------------

def tiny_instance(api, index: int, seed: int):
    """A 2- or 3-bus instance in the family of ``random_tiny_instance``
    from tests/test_acceptance.py.

    The shape (horizon, scenario count, network, minimum up/down times)
    depends on ``index`` only, so every seed enumerates the same number of
    LPs; the seed draws costs, limits, demand and wind.  Hourly ramps never
    bind, so the enumeration stays small; 10-minute ramps and reserve do.
    """
    shape = np.random.default_rng(1000 + index)
    T = int(shape.integers(2, 4))
    S = int(shape.integers(1, 3))
    pair = bool(shape.integers(0, 2))
    min_up = shape.integers(1, 3, size=2)
    min_down = shape.integers(1, 3, size=2)

    rng = np.random.default_rng([seed, index])
    pmax = rng.uniform(60, 120, size=2)
    r10 = rng.uniform(0.5, 1.0, size=2) * pmax
    pmin = rng.uniform(0.0, 0.1, size=2) * pmax
    cost = rng.uniform(10, 40, size=2)

    def line(kid, frm, to, limit):
        return TransmissionLine(id=kid, from_bus=frm, to_bus=to,
                                susceptance=10.0, limit_long_term=limit,
                                limit_emergency=1.2 * limit)

    if pair:
        buses = ["A", "B"]
        lines = [line("P1", "A", "B", 150.0), line("P2", "A", "B", 150.0)]
        gen_bus, load_bus = ["A", "B"], "B"
        whitelist, pool = {"P1"}, {"P2"}
    else:
        buses = ["b1", "b2", "b3"]
        lines = [line("L1", "b1", "b2", 200.0), line("L2", "b1", "b3", 200.0),
                 line("L3", "b2", "b3", 200.0)]
        gen_bus, load_bus = ["b1", "b2"], "b3"
        whitelist, pool = {"L2"}, {"L3"}

    gens = []
    for i in range(2):
        p_max = float(pmax[i])
        gens.append(Generator(
            id=f"g{i}", bus_id=gen_bus[i], p_min=float(pmin[i]), p_max=p_max,
            cost_linear=float(cost[i]),
            cost_no_load=float(rng.uniform(2, 20)),
            cost_startup=float(rng.uniform(10, 120)),
            ramp_hourly=p_max, ramp_startup=p_max, ramp_shutdown=p_max,
            ramp_10min=float(r10[i]), min_up=int(min_up[i]),
            min_down=int(min_down[i]), initial_status=InitialStatus()))
    # the reserve rule caps the served demand at each unit's p_max and at
    # the total 10-minute range
    cap = 0.8 * min(float(pmax.min()), float(r10.sum()))
    demand = rng.uniform(0.4, 0.95, size=T) * cap
    rows = {b: (0.0,) * T for b in buses}
    rows[load_bus] = tuple(float(v) for v in demand)
    system = api.build_system(
        buses, gens, lines,
        [ResUnit(id="w", bus_id=load_bus,
                 curtail_penalty=float(rng.uniform(20, 150)))],
        DemandProfile(rows=rows, horizon_length=T))
    report = api.validate_system(system)
    if not report.ok:
        raise ValueError(f"tiny instance {index} fails validation: "
                         f"{report.violations}")
    profiles = [{"w": [float(rng.uniform(0, 0.35) * demand[t])
                       for t in range(T)]} for _ in range(S)]
    scen = api.align_scenarios(system, api.build_scenario_set(
        profiles, list(rng.uniform(0.2, 1.0, size=S))))
    cont = api.build_contingency_set(system, switch_pool=pool,
                                     whitelist=whitelist)
    return system, scen, cont


class OracleTiny:
    """Tiny instances, each enumerated exhaustively and solved at gap 0.

    The oracle's model alternates between SSCUC and SSCUC-CNR; both models
    of every instance then run the ``gridsched run`` sequence at gap 0.
    The gates are the ``gridsched verify`` check on the oracle's model
    (the oracle and the MILP agree on feasibility and, to 1e-6 relative,
    on the objective) and CNR never costing more than SSCUC.
    """

    name = "oracle-tiny"
    instances = 14

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, api):
        return [tiny_instance(api, i, self.seed) for i in range(self.instances)]

    def run_pass(self, api, inputs, tracer=None) -> list[Case]:
        opts = SolveOptions(mip_gap=0.0, deterministic_seed=self.seed)
        cases = []
        for i, (system, scen, cont) in enumerate(inputs):
            checked = MODELS[i % 2]
            try:
                with _tagged(tracer, f"tiny{i}", checked, "oracle"):
                    found = api.enumerate_commitments(
                        system, scen, cont,
                        FormulationConfig(model_kind=KINDS[checked]),
                        keep_records=False)
            except Exception as exc:  # a failing call fails this case only
                found = None
                failure = f"oracle {type(exc).__name__}: {exc}"
            results = {}
            for model in MODELS:
                case = Case(f"tiny{i}", model)
                cases.append(case)
                results[model], _ = _schedule(api, tracer, case, system, scen,
                                              cont, opts)
                if model != checked:
                    continue
                if found is None:
                    case.failures.append(failure)
                    continue
                case.info["lp_solves"] = found.lp_solves
                result = results[model]
                if result is None:
                    continue
                if result.status.has_solution != found.feasible:
                    case.failures.append(
                        f"milp {result.status.value} but oracle feasible="
                        f"{found.feasible}")
                elif found.feasible and _rel(result.objective,
                                             found.best_objective) > REL_TOL:
                    case.failures.append(
                        f"milp objective {result.objective} vs oracle "
                        f"{found.best_objective}")
            base, cnr = results["sscuc"], results["cnr"]
            if base is not None and cnr is not None \
                    and base.status.has_solution:
                if not cnr.status.has_solution:
                    cases[-1].failures.append("CNR infeasible, SSCUC feasible")
                elif cnr.objective > base.objective * (1 + REL_TOL) + REL_TOL:
                    cases[-1].failures.append(
                        f"CNR objective {cnr.objective} above SSCUC "
                        f"{base.objective}")
        return cases


WORKLOADS = {w.name: w for w in (Rts24Slice, Rts24DayBuild, OracleTiny)}
