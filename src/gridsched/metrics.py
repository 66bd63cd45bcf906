"""Post-solve analysis: curtailment, costs, emissions, switching, and an
independent feasibility verifier.

Everything here works from a ScheduleSolution (plain value maps keyed by
model indices) and the domain data.  The verifier re-evaluates every
model equation directly from the system, scenarios and configuration; it
never touches the MilpProblem rows, so it is a second, independent path
to feasibility.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .formulation import FormulationConfig, ModelKind, scen_avail
from .milp import MilpProblem
from .scenarios import ScenarioSet
from .solver import SolveResult
from .system import Id, PowerSystem
from .topology import Contingency

VERIFY_TOL = 1e-6


@dataclass
class ScheduleSolution:
    """Values of every decision variable, keyed by model indices.

    u, v: (g, t) -> 0/1.  p, r: (g, t, s) -> MW.  p_res: (w, t, s) -> MW.
    flow: (k, t, s) -> MW.  angle: (n, t, s) -> rad.  Post-contingency
    copies add the outaged line id c after the element id.  z:
    (c, k, t, s) -> 0/1.
    """

    u: dict[tuple, int] = field(default_factory=dict)
    v: dict[tuple, int] = field(default_factory=dict)
    p: dict[tuple, float] = field(default_factory=dict)
    r: dict[tuple, float] = field(default_factory=dict)
    p_res: dict[tuple, float] = field(default_factory=dict)
    flow: dict[tuple, float] = field(default_factory=dict)
    angle: dict[tuple, float] = field(default_factory=dict)
    p_c: dict[tuple, float] = field(default_factory=dict)
    p_res_c: dict[tuple, float] = field(default_factory=dict)
    flow_c: dict[tuple, float] = field(default_factory=dict)
    angle_c: dict[tuple, float] = field(default_factory=dict)
    z: dict[tuple, float] = field(default_factory=dict)
    objective: float = math.nan


_SYMBOL_FIELDS = {
    "u": "u", "v": "v", "Pg": "p", "r": "r", "Pw": "p_res", "Pk": "flow",
    "th": "angle", "Pgc": "p_c", "Pwc": "p_res_c", "Pkc": "flow_c",
    "thc": "angle_c", "z": "z",
}


def extract_schedule(prob: MilpProblem, result: SolveResult) -> ScheduleSolution:
    """Read a solved problem's values into a ScheduleSolution."""
    if result.x is None:
        raise ValueError(f"no values to extract: solve status {result.status}")
    sol = ScheduleSolution(objective=result.objective)
    for symbol, indices, cols in prob.registry.groups():
        values = result.x[cols]
        if symbol in ("u", "v"):
            values = np.rint(values).astype(np.int64)
        getattr(sol, _SYMBOL_FIELDS[symbol]).update(zip(indices, values.tolist()))
    return sol


# ---------------------------------------------------------------------------
# Curtailment metrics
# ---------------------------------------------------------------------------

def _probabilities(scen: ScenarioSet) -> dict:
    return {s.id: s.probability for s in scen.scenarios}

def _scenario_by_id(scen: ScenarioSet) -> dict:
    return {s.id: s for s in scen.scenarios}


def base_case_curtailment(sol: ScheduleSolution, scen: ScenarioSet) -> float:
    """Probability-weighted MW of base-case availability left unused."""
    by_id = _scenario_by_id(scen)
    total = 0.0
    for (w, t, s_id), value in sol.p_res.items():
        s = by_id[s_id]
        total += s.probability * (scen_avail(s, w, t) - value)
    return total


def post_contingency_curtailment(sol: ScheduleSolution, scen: ScenarioSet,
                                 n_contingencies: int) -> float:
    """Probability-weighted post-contingency curtailment, averaged over
    the contingency count."""
    if n_contingencies < 1:
        raise ValueError("n_contingencies must be >= 1")
    by_id = _scenario_by_id(scen)
    total = 0.0
    for (w, _c, t, s_id), value in sol.p_res_c.items():
        s = by_id[s_id]
        total += s.probability * (scen_avail(s, w, t) - value)
    return total / n_contingencies


# ---------------------------------------------------------------------------
# Cost and emissions
# ---------------------------------------------------------------------------

class ReconciliationError(RuntimeError):
    """Recomputed cost disagrees with the solver objective."""


@dataclass(frozen=True)
class CostBreakdown:
    no_load: float
    startup: float
    energy: float
    penalty: float

    @property
    def total(self) -> float:
        return self.no_load + self.startup + self.energy + self.penalty


def cost_breakdown(sol: ScheduleSolution, sys: PowerSystem, scen: ScenarioSet,
                   cfg: FormulationConfig) -> CostBreakdown:
    """Recompute each objective term from solution values.

    When the solution records an objective, the sum must agree with it to
    1e-6 relative; a mismatch means the formulation and the extraction
    disagree and is raised as ReconciliationError.
    """
    pi = _probabilities(scen)
    by_id = _scenario_by_id(scen)
    gens = {g.id: g for g in sys.generators}
    res = {w.id: w for w in sys.res_units}

    no_load = sum(gens[g].cost_no_load * val for (g, _t), val in sol.u.items())
    startup = sum(gens[g].cost_startup * val for (g, _t), val in sol.v.items())
    energy = sum(pi[s] * gens[g].cost_linear * val
                 for (g, _t, s), val in sol.p.items())
    penalty = 0.0
    if cfg.penalty_enabled:
        for (w, _c, t, s_id), value in sol.p_res_c.items():
            s = by_id[s_id]
            penalty += (s.probability * res[w].curtail_penalty
                        * (scen_avail(s, w, t) - value))
    out = CostBreakdown(no_load=no_load, startup=startup, energy=energy,
                        penalty=penalty)
    if not math.isnan(sol.objective):
        drift = abs(out.total - sol.objective) / max(1.0, abs(sol.objective))
        if not drift <= 1e-6:  # a NaN cost fails too
            raise ReconciliationError(
                f"recomputed cost {out.total:.6f} vs solver objective "
                f"{sol.objective:.6f} (relative drift {drift:.3g})")
    return out


def carbon_emissions(sol: ScheduleSolution, sys: PowerSystem,
                     scen: ScenarioSet) -> float:
    """Expected lbs of CO2 from base-case dispatch over the horizon."""
    pi = _probabilities(scen)
    gens = {g.id: g for g in sys.generators}
    return sum(pi[s] * gens[g].emission_rate * val
               for (g, _t, s), val in sol.p.items())


# ---------------------------------------------------------------------------
# Switching report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchAction:
    contingency: Id
    period: int
    scenario: Id
    opened_line: Id


@dataclass(frozen=True)
class SwitchingReport:
    actions: tuple[SwitchAction, ...]
    histogram: dict[Id, int]


def switching_report(sol: ScheduleSolution) -> SwitchingReport:
    """Every opened line per (contingency, period, scenario), plus per-line
    opening counts."""
    actions = []
    histogram: dict[Id, int] = {}
    for (c, k, t, s), value in sol.z.items():
        if round(value) == 0:
            actions.append(SwitchAction(c, t, s, k))
            histogram[k] = histogram.get(k, 0) + 1
    return SwitchingReport(actions=tuple(actions), histogram=histogram)


# ---------------------------------------------------------------------------
# Independent feasibility verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintViolation:
    equation: str
    index: tuple
    residual: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        idx = ",".join(str(i) for i in self.index)
        return f"{self.equation}[{idx}]: residual {self.residual:.3g}"


class _Checker:
    def __init__(self) -> None:
        self.violations: list[ConstraintViolation] = []

    def check(self, equation: str, index: tuple, terms: list[float],
              lo: float, hi: float) -> None:
        """Terms are the signed additive pieces of the row activity."""
        act = sum(terms)
        if not math.isfinite(act):  # a NaN or infinite value: its own size
            self.violations.append(ConstraintViolation(equation, index,
                                                       abs(act)))
            return
        viol = max(0.0, lo - act, act - hi)
        if viol == 0.0:
            return
        scale = max(1.0, max((abs(t) for t in terms), default=0.0),
                    abs(lo) if math.isfinite(lo) else 0.0,
                    abs(hi) if math.isfinite(hi) else 0.0)
        if viol / scale > VERIFY_TOL:
            self.violations.append(ConstraintViolation(equation, index, viol / scale))

    def binary(self, equation: str, index: tuple, value: float) -> None:
        residual = min(abs(value), abs(value - 1.0))
        if not residual <= VERIFY_TOL:  # NaN is no binary value
            self.violations.append(ConstraintViolation(equation, index,
                                                       residual))


def verify_solution(sol: ScheduleSolution, sys: PowerSystem, scen: ScenarioSet,
                    contingencies: list[Contingency],
                    cfg: FormulationConfig) -> list[ConstraintViolation]:
    """Re-evaluate every model equation from domain data.

    A switchable line is held to its physics rather than to the big-M rows
    eq25/eq26: with ``z`` = 1 it must meet eq23/eq24 like a fixed line,
    with ``z`` = 0 it must carry no flow.  So no big-M constant enters the
    verdict.  Residuals are scaled by the largest term in the row; the
    list is empty iff the solution is feasible within ``VERIFY_TOL``.
    """
    INF = math.inf
    ck = _Checker()
    T = sys.horizon
    u, v = sol.u, sol.v

    for g in sys.generators:
        u0 = 1 if g.initial_status.on else 0
        p0 = g.initial_dispatch()
        for t in range(1, T + 1):
            ck.binary("eq12", (g.id, t), u[(g.id, t)])
            ck.binary("eq11", (g.id, t), v[(g.id, t)])
            u_prev = u[(g.id, t - 1)] if t > 1 else u0
            p_prev = {s.id: (sol.p[(g.id, t - 1, s.id)] if t > 1 else p0)
                      for s in scen.scenarios}
            # eq10: v >= u_t - u_{t-1}
            ck.check("eq10", (g.id, t),
                     [v[(g.id, t)], -u[(g.id, t)], u_prev], 0.0, INF)
            for s in scen.scenarios:
                pg = sol.p[(g.id, t, s.id)]
                rg = sol.r[(g.id, t, s.id)]
                ck.check("eq2", (g.id, t, s.id),
                         [g.p_min * u[(g.id, t)], -pg], -INF, 0.0)
                ck.check("eq3", (g.id, t, s.id),
                         [pg, rg, -g.p_max * u[(g.id, t)]], -INF, 0.0)
                ck.check("eq4", (g.id, t, s.id),
                         [rg, -g.ramp_10min * u[(g.id, t)]], -INF, 0.0)
                ck.check("eq4", (g.id, t, s.id), [rg], 0.0, INF)
                total_r = sum(sol.r[(q.id, t, s.id)] for q in sys.generators)
                ck.check("eq5", (g.id, t, s.id), [total_r, -pg, -rg], 0.0, INF)
                ck.check("eq6", (g.id, t, s.id),
                         [pg, -p_prev[s.id], -g.ramp_hourly * u_prev,
                          -g.ramp_startup * v[(g.id, t)]], -INF, 0.0)
                ck.check("eq7", (g.id, t, s.id),
                         [p_prev[s.id], -pg, -g.ramp_hourly * u[(g.id, t)],
                          -g.ramp_shutdown
                          * (v[(g.id, t)] - u[(g.id, t)] + u_prev)], -INF, 0.0)
        for t in range(g.min_up, T + 1):
            ck.check("eq8", (g.id, t),
                     [v[(g.id, q)] for q in range(t - g.min_up + 1, t + 1)]
                     + [-u[(g.id, t)]], -INF, 0.0)
        for t in range(1, T - g.min_down + 1):
            ck.check("eq9", (g.id, t),
                     [v[(g.id, q)] for q in range(t + 1, t + g.min_down + 1)]
                     + [u[(g.id, t)]], -INF, 1.0)

    by_id = _scenario_by_id(scen)
    for w in sys.res_units:
        for t in range(1, T + 1):
            for s in scen.scenarios:
                pw = sol.p_res[(w.id, t, s.id)]
                ck.check("eq13", (w.id, t, s.id), [pw], 0.0,
                         scen_avail(by_id[s.id], w.id, t))

    gens_at = {b.id: [g.id for g in sys.generators if g.bus_id == b.id]
               for b in sys.buses}
    res_at = {b.id: [w.id for w in sys.res_units if w.bus_id == b.id]
              for b in sys.buses}
    inbound = {b.id: [k.id for k in sys.lines if k.to_bus == b.id] for b in sys.buses}
    outbound = {b.id: [k.id for k in sys.lines if k.from_bus == b.id] for b in sys.buses}

    for k in sys.lines:
        coef = k.susceptance * sys.mva_base
        for t in range(1, T + 1):
            for s in scen.scenarios:
                pk = sol.flow[(k.id, t, s.id)]
                dtheta = (sol.angle[(k.from_bus, t, s.id)]
                          - sol.angle[(k.to_bus, t, s.id)])
                ck.check("eq14", (k.id, t, s.id), [pk, -coef * dtheta], 0.0, 0.0)
                ck.check("eq15", (k.id, t, s.id), [pk],
                         -k.limit_long_term, k.limit_long_term)
    for n in sys.buses:
        for t in range(1, T + 1):
            d = sys.demand.at(n.id, t)
            for s in scen.scenarios:
                terms = ([sol.p[(g, t, s.id)] for g in gens_at[n.id]]
                         + [sol.flow[(k, t, s.id)] for k in inbound[n.id]]
                         + [-sol.flow[(k, t, s.id)] for k in outbound[n.id]]
                         + [sol.p_res[(w, t, s.id)] for w in res_at[n.id]])
                ck.check("eq16", (n.id, t, s.id), terms, d, d)

    lines_by_id = {k.id: k for k in sys.lines}
    for c in contingencies:
        cid = c.outaged_line_id
        candidates = set(c.candidate_switch_ids)
        for g in sys.generators:
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    pg = sol.p[(g.id, t, s.id)]
                    pgc = sol.p_c[(g.id, cid, t, s.id)]
                    ut = u[(g.id, t)]
                    ck.check("eq17", (g.id, cid, t, s.id),
                             [pg, -pgc, -g.ramp_10min * ut], -INF, 0.0)
                    ck.check("eq18", (g.id, cid, t, s.id),
                             [pgc, -pg, -g.ramp_10min * ut], -INF, 0.0)
                    ck.check("eq19", (g.id, cid, t, s.id),
                             [g.p_min * ut, -pgc], -INF, 0.0)
                    ck.check("eq20", (g.id, cid, t, s.id),
                             [pgc, -g.p_max * ut], -INF, 0.0)
        for w in sys.res_units:
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    pwc = sol.p_res_c[(w.id, cid, t, s.id)]
                    ck.check("eq21", (w.id, cid, t, s.id), [pwc], 0.0,
                             scen_avail(by_id[s.id], w.id, t))
        for n in sys.buses:
            for t in range(1, T + 1):
                d = sys.demand.at(n.id, t)
                for s in scen.scenarios:
                    terms = ([sol.p_c[(g, cid, t, s.id)] for g in gens_at[n.id]]
                             + [sol.flow_c[(k, cid, t, s.id)] for k in inbound[n.id]]
                             + [-sol.flow_c[(k, cid, t, s.id)] for k in outbound[n.id]]
                             + [sol.p_res_c[(w, cid, t, s.id)] for w in res_at[n.id]])
                    ck.check("eq22", (n.id, cid, t, s.id), terms, d, d)
        for t in range(1, T + 1):
            for s in scen.scenarios:
                ck.check("outage_flow", (cid, t, s.id),
                         [sol.flow_c[(cid, cid, t, s.id)]], 0.0, 0.0)
        cnr = cfg.model_kind is ModelKind.SSCUC_CNR
        for k in sys.lines:
            if k.id == cid:
                continue
            coef = k.susceptance * sys.mva_base
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    pkc = sol.flow_c[(k.id, cid, t, s.id)]
                    if cnr and k.id in candidates:
                        zv = sol.z[(cid, k.id, t, s.id)]
                        ck.binary("z01", (cid, k.id, t, s.id), zv)
                        if zv < 0.5:  # open: no flow
                            ck.check("eq27", (k.id, cid, t, s.id), [pkc],
                                     0.0, 0.0)
                            continue
                    dtheta = (sol.angle_c[(k.from_bus, cid, t, s.id)]
                              - sol.angle_c[(k.to_bus, cid, t, s.id)])
                    ck.check("eq23", (k.id, cid, t, s.id),
                             [pkc, -coef * dtheta], 0.0, 0.0)
                    ck.check("eq24", (k.id, cid, t, s.id), [pkc],
                             -k.limit_emergency, k.limit_emergency)
        if cnr and candidates:
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    opened = sum(1.0 - sol.z[(cid, k, t, s.id)]
                                 for k in c.candidate_switch_ids)
                    ck.check("eq28", (cid, t, s.id), [opened],
                             -INF, float(cfg.switch_limit))
    return ck.violations


# ---------------------------------------------------------------------------
# Run report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    total_cost: float
    bcc: float
    pcc: float
    emissions: float
    no_load_cost: float
    startup_cost: float
    energy_cost: float
    penalty_cost: float
    switching_actions: tuple[SwitchAction, ...]

    def to_dict(self) -> dict:
        return {
            "total_cost": self.total_cost,
            "bcc_mw": self.bcc,
            "pcc_mw": self.pcc,
            "emissions_lbs": self.emissions,
            "cost_components": {
                "no_load": self.no_load_cost,
                "startup": self.startup_cost,
                "energy": self.energy_cost,
                "penalty": self.penalty_cost,
            },
            "switching_actions": [
                {"contingency": a.contingency, "period": a.period,
                 "scenario": a.scenario, "opened_line": a.opened_line}
                for a in self.switching_actions
            ],
        }


def build_report(sol: ScheduleSolution, sys: PowerSystem, scen: ScenarioSet,
                 contingencies: list[Contingency],
                 cfg: FormulationConfig) -> RunReport:
    breakdown = cost_breakdown(sol, sys, scen, cfg)
    return RunReport(
        total_cost=breakdown.total,
        bcc=base_case_curtailment(sol, scen),
        pcc=(post_contingency_curtailment(sol, scen, len(contingencies))
             if contingencies else 0.0),
        emissions=carbon_emissions(sol, sys, scen),
        no_load_cost=breakdown.no_load,
        startup_cost=breakdown.startup,
        energy_cost=breakdown.energy,
        penalty_cost=breakdown.penalty,
        switching_actions=switching_report(sol).actions,
    )


def report_to_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def report_to_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "value"])
    writer.writerow(["total_cost", f"{report.total_cost:.6f}"])
    writer.writerow(["no_load_cost", f"{report.no_load_cost:.6f}"])
    writer.writerow(["startup_cost", f"{report.startup_cost:.6f}"])
    writer.writerow(["energy_cost", f"{report.energy_cost:.6f}"])
    writer.writerow(["penalty_cost", f"{report.penalty_cost:.6f}"])
    writer.writerow(["bcc_mw", f"{report.bcc:.6f}"])
    writer.writerow(["pcc_mw", f"{report.pcc:.6f}"])
    writer.writerow(["emissions_lbs", f"{report.emissions:.6f}"])
    writer.writerow(["switching_actions", str(len(report.switching_actions))])
    return buf.getvalue()


def write_report(report: RunReport, out_dir: str | Path) -> None:
    """Write report.json and report.csv into the existing ``out_dir``."""
    out = Path(out_dir)
    (out / "report.json").write_text(report_to_json(report))
    (out / "report.csv").write_text(report_to_csv(report))
