"""MILP formulation of day-ahead stochastic N-1 unit commitment.

Two model kinds share one variable space:

* ``SSCUC`` keeps the post-contingency network topology fixed: each
  surviving line keeps its flow-definition equality and emergency limit.
  It is built as ``SSCUC_CNR`` with no switch candidates.
* ``SSCUC_CNR`` adds a binary switch state per candidate line and
  contingency: the flow-definition equality is relaxed by big-M terms so
  an opened line carries no flow, with a per-contingency budget on how
  many lines may be opened.

Commitment ``u`` and startup ``v`` are shared across scenarios; dispatch,
reserve, flows, angles and all post-contingency copies are per scenario.
Decision variables are in MW and radians; a per-unit susceptance ``b`` on
``mva_base`` enters flow rows with coefficient ``b * mva_base`` MW/rad.

Row labels identify the model equation they realize (``eq2`` .. ``eq28``),
indexed ``[g,t,s]``-style by generator/line/bus id, period, scenario id
and, post-contingency, the outaged line id.  Variable naming scheme:
``u[g,t]``, ``v[g,t]``, ``Pg[g,t,s]``, ``r[g,t,s]``, ``Pw[w,t,s]``,
``Pk[k,t,s]``, ``th[n,t,s]``, ``Pgc[g,c,t,s]``, ``Pwc[w,c,t,s]``,
``Pkc[k,c,t,s]``, ``thc[n,c,t,s]``, ``z[c,k,t,s]``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .milp import INF, MilpProblem
from .scenarios import ScenarioSet
from .system import Id, PowerSystem, TransmissionLine
from .topology import Contingency


class ModelKind(enum.Enum):
    SSCUC = "sscuc"
    SSCUC_CNR = "sscuc-cnr"

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        for kind in cls:
            if text.lower() in (kind.value, kind.name.lower()):
                return kind
        raise ValueError(f"unknown model kind {text!r}")


@dataclass(frozen=True)
class FormulationConfig:
    model_kind: ModelKind = ModelKind.SSCUC
    switch_limit: int = 1          # max opened lines per contingency/period/scenario
    big_m_margin: float = 10.0     # MW of slack on top of the worst-case flow term
    angle_bound: float = 0.6       # radians, symmetric box on every bus angle
    reference_bus: Id | None = None  # defaults to the first bus
    penalty_enabled: bool = True   # charge post-contingency curtailment in the objective

    def __post_init__(self) -> None:
        if self.switch_limit < 0:
            raise ValueError("switch_limit must be >= 0")
        if self.angle_bound <= 0:
            raise ValueError("angle_bound must be > 0")
        if self.big_m_margin < 0:
            raise ValueError("big_m_margin must be >= 0")


def compute_big_m(line: TransmissionLine, cfg: FormulationConfig,
                  mva_base: float = 100.0) -> float:
    """Deactivation constant for the line's big-M flow rows, in MW.

    Covers the largest possible ``|b (th_n - th_m)|`` over the angle box,
    so setting the switch state to 0 silences the flow definition without
    cutting any feasible angles.
    """
    return abs(line.susceptance) * mva_base * 2.0 * cfg.angle_bound + cfg.big_m_margin


def reference_bus(sys: PowerSystem, cfg: FormulationConfig) -> Id:
    if cfg.reference_bus is None:
        return sys.buses[0].id
    if all(b.id != cfg.reference_bus for b in sys.buses):
        raise KeyError(f"reference bus {cfg.reference_bus!r} not in system")
    return cfg.reference_bus


# ---------------------------------------------------------------------------
# Variables
# ---------------------------------------------------------------------------

def register_variables(prob: MilpProblem, sys: PowerSystem, scen: ScenarioSet,
                       contingencies: list[Contingency],
                       cfg: FormulationConfig) -> None:
    """Create and register every decision variable with its natural bounds."""
    T = sys.horizon
    ref = reference_bus(sys, cfg)

    for g in sys.generators:
        for t in range(1, T + 1):
            prob.add_registered("u", (g.id, t), 0.0, 1.0, integer=True)
    for g in sys.generators:
        for t in range(1, T + 1):
            prob.add_registered("v", (g.id, t), 0.0, 1.0, integer=True)

    for g in sys.generators:
        for t in range(1, T + 1):
            for s in scen.scenarios:
                prob.add_registered("Pg", (g.id, t, s.id), 0.0, g.p_max)
    for g in sys.generators:
        for t in range(1, T + 1):
            for s in scen.scenarios:
                prob.add_registered("r", (g.id, t, s.id), 0.0, INF)
    for w in sys.res_units:
        for t in range(1, T + 1):
            for s in scen.scenarios:
                avail = s.availability.get(w.id, ())
                cap = avail[t - 1] if len(avail) >= t else 0.0
                prob.add_registered("Pw", (w.id, t, s.id), 0.0, cap)
    for k in sys.lines:
        for t in range(1, T + 1):
            for s in scen.scenarios:
                prob.add_registered("Pk", (k.id, t, s.id), -INF, INF)
    for n in sys.buses:
        for t in range(1, T + 1):
            for s in scen.scenarios:
                if n.id == ref:
                    prob.add_registered("th", (n.id, t, s.id), 0.0, 0.0)
                else:
                    prob.add_registered("th", (n.id, t, s.id),
                                        -cfg.angle_bound, cfg.angle_bound)

    for c in contingencies:
        cid = c.outaged_line_id
        for g in sys.generators:
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    prob.add_registered("Pgc", (g.id, cid, t, s.id), 0.0, g.p_max)
        for w in sys.res_units:
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    avail = s.availability.get(w.id, ())
                    cap = avail[t - 1] if len(avail) >= t else 0.0
                    prob.add_registered("Pwc", (w.id, cid, t, s.id), 0.0, cap)
        for k in sys.lines:
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    if k.id == cid:
                        # outaged line carries no flow in its own contingency
                        prob.add_registered("Pkc", (k.id, cid, t, s.id), 0.0, 0.0)
                    else:
                        prob.add_registered("Pkc", (k.id, cid, t, s.id), -INF, INF)
        for n in sys.buses:
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    if n.id == ref:
                        prob.add_registered("thc", (n.id, cid, t, s.id), 0.0, 0.0)
                    else:
                        prob.add_registered("thc", (n.id, cid, t, s.id),
                                            -cfg.angle_bound, cfg.angle_bound)

    if cfg.model_kind is ModelKind.SSCUC_CNR:
        for c in contingencies:
            for k in c.candidate_switch_ids:
                for t in range(1, T + 1):
                    for s in scen.scenarios:
                        prob.add_registered(
                            "z", (c.outaged_line_id, k, t, s.id), 0.0, 1.0,
                            integer=True)


# ---------------------------------------------------------------------------
# Base-case generator block: eq2 .. eq10, eq13
# ---------------------------------------------------------------------------

def add_base_generator_constraints(prob: MilpProblem, sys: PowerSystem,
                                   scen: ScenarioSet,
                                   cfg: FormulationConfig) -> None:
    T = sys.horizon
    reg = prob.registry

    for g in sys.generators:
        u0 = 1 if g.initial_status.on else 0
        p0 = g.initial_dispatch()
        for t in range(1, T + 1):
            u_t = reg.col("u", g.id, t)
            v_t = reg.col("v", g.id, t)
            for s in scen.scenarios:
                pg = reg.col("Pg", g.id, t, s.id)
                rg = reg.col("r", g.id, t, s.id)
                # eq2: p_min u <= Pg
                prob.add_row([(u_t, g.p_min), (pg, -1.0)], -INF, 0.0,
                             f"eq2[{g.id},{t},{s.id}]")
                # eq3: Pg + r <= p_max u
                prob.add_row([(pg, 1.0), (rg, 1.0), (u_t, -g.p_max)], -INF, 0.0,
                             f"eq3[{g.id},{t},{s.id}]")
                # eq4: r <= R10 u (r >= 0 is the variable bound)
                prob.add_row([(rg, 1.0), (u_t, -g.ramp_10min)], -INF, 0.0,
                             f"eq4[{g.id},{t},{s.id}]")
                # eq5: total reserve covers this unit's output plus reserve;
                # with the sum kept over all units, r_g cancels and the row
                # reduces to sum-of-others >= Pg.
                coeffs: dict[int, float] = {}
                for q in sys.generators:
                    rq = reg.col("r", q.id, t, s.id)
                    coeffs[rq] = coeffs.get(rq, 0.0) + 1.0
                coeffs[pg] = coeffs.get(pg, 0.0) - 1.0
                coeffs[rg] = coeffs.get(rg, 0.0) - 1.0
                prob.add_row([(j, c) for j, c in coeffs.items() if c != 0.0],
                             0.0, INF, f"eq5[{g.id},{t},{s.id}]")
                # eq6 / eq7: hourly ramps with startup/shutdown allowances
                if t == 1:
                    prob.add_row([(pg, 1.0), (v_t, -g.ramp_startup)],
                                 -INF, p0 + g.ramp_hourly * u0,
                                 f"eq6[{g.id},{t},{s.id}]")
                    prob.add_row(
                        [(pg, -1.0), (u_t, g.ramp_shutdown - g.ramp_hourly),
                         (v_t, -g.ramp_shutdown)],
                        -INF, g.ramp_shutdown * u0 - p0,
                        f"eq7[{g.id},{t},{s.id}]")
                else:
                    pg_prev = reg.col("Pg", g.id, t - 1, s.id)
                    u_prev = reg.col("u", g.id, t - 1)
                    prob.add_row(
                        [(pg, 1.0), (pg_prev, -1.0), (u_prev, -g.ramp_hourly),
                         (v_t, -g.ramp_startup)],
                        -INF, 0.0, f"eq6[{g.id},{t},{s.id}]")
                    prob.add_row(
                        [(pg_prev, 1.0), (pg, -1.0),
                         (u_t, g.ramp_shutdown - g.ramp_hourly),
                         (v_t, -g.ramp_shutdown), (u_prev, -g.ramp_shutdown)],
                        -INF, 0.0, f"eq7[{g.id},{t},{s.id}]")

        # eq8: startups within the last UT periods imply still committed
        for t in range(g.min_up, T + 1):
            coeffs8 = [(reg.col("v", g.id, q), 1.0)
                       for q in range(t - g.min_up + 1, t + 1)]
            coeffs8.append((reg.col("u", g.id, t), -1.0))
            prob.add_row(coeffs8, -INF, 0.0, f"eq8[{g.id},{t}]")
        # eq9: no restart within DT periods after being off at t
        for t in range(1, T - g.min_down + 1):
            coeffs9 = [(reg.col("v", g.id, q), 1.0)
                       for q in range(t + 1, t + g.min_down + 1)]
            coeffs9.append((reg.col("u", g.id, t), 1.0))
            prob.add_row(coeffs9, -INF, 1.0, f"eq9[{g.id},{t}]")
        # eq10: startup indicator
        for t in range(1, T + 1):
            v_t = reg.col("v", g.id, t)
            u_t = reg.col("u", g.id, t)
            if t == 1:
                prob.add_row([(v_t, 1.0), (u_t, -1.0)], -float(u0), INF,
                             f"eq10[{g.id},{t}]")
            else:
                u_prev = reg.col("u", g.id, t - 1)
                prob.add_row([(v_t, 1.0), (u_t, -1.0), (u_prev, 1.0)], 0.0, INF,
                             f"eq10[{g.id},{t}]")

    # eq13: RES output capped by scenario availability
    for w in sys.res_units:
        for t in range(1, T + 1):
            for s in scen.scenarios:
                cap = scen_avail(s, w.id, t)
                prob.add_row([(reg.col("Pw", w.id, t, s.id), 1.0)], -INF, cap,
                             f"eq13[{w.id},{t},{s.id}]")


def scen_avail(scenario, res_id: Id, t: int) -> float:
    prof = scenario.availability.get(res_id, ())
    return prof[t - 1] if len(prof) >= t else 0.0


# ---------------------------------------------------------------------------
# Base-case network block: eq14 .. eq16
# ---------------------------------------------------------------------------

def add_base_network_constraints(prob: MilpProblem, sys: PowerSystem,
                                 scen: ScenarioSet,
                                 cfg: FormulationConfig) -> None:
    T = sys.horizon
    reg = prob.registry
    reference_bus(sys, cfg)  # raises if configured bus is unknown

    for k in sys.lines:
        coef = k.susceptance * sys.mva_base  # MW per radian
        for t in range(1, T + 1):
            for s in scen.scenarios:
                pk = reg.col("Pk", k.id, t, s.id)
                th_n = reg.col("th", k.from_bus, t, s.id)
                th_m = reg.col("th", k.to_bus, t, s.id)
                prob.add_row([(pk, 1.0), (th_n, -coef), (th_m, coef)], 0.0, 0.0,
                             f"eq14[{k.id},{t},{s.id}]")
                prob.add_row([(pk, 1.0)], -k.limit_long_term, k.limit_long_term,
                             f"eq15[{k.id},{t},{s.id}]")

    inbound = {b.id: [k for k in sys.lines if k.to_bus == b.id] for b in sys.buses}
    outbound = {b.id: [k for k in sys.lines if k.from_bus == b.id] for b in sys.buses}
    gens_at = {b.id: [g for g in sys.generators if g.bus_id == b.id] for b in sys.buses}
    res_at = {b.id: [w for w in sys.res_units if w.bus_id == b.id] for b in sys.buses}

    for n in sys.buses:
        for t in range(1, T + 1):
            for s in scen.scenarios:
                coeffs = []
                for g in gens_at[n.id]:
                    coeffs.append((reg.col("Pg", g.id, t, s.id), 1.0))
                for k in inbound[n.id]:
                    coeffs.append((reg.col("Pk", k.id, t, s.id), 1.0))
                for k in outbound[n.id]:
                    coeffs.append((reg.col("Pk", k.id, t, s.id), -1.0))
                for w in res_at[n.id]:
                    coeffs.append((reg.col("Pw", w.id, t, s.id), 1.0))
                d = sys.demand.at(n.id, t)
                prob.add_row(coeffs, d, d, f"eq16[{n.id},{t},{s.id}]")


# ---------------------------------------------------------------------------
# Post-contingency generator block: eq17 .. eq21
# ---------------------------------------------------------------------------

def add_contingency_generator_constraints(prob: MilpProblem, sys: PowerSystem,
                                          scen: ScenarioSet,
                                          contingencies: list[Contingency],
                                          cfg: FormulationConfig) -> None:
    T = sys.horizon
    reg = prob.registry
    for c in contingencies:
        cid = c.outaged_line_id
        for g in sys.generators:
            for t in range(1, T + 1):
                u_t = reg.col("u", g.id, t)
                for s in scen.scenarios:
                    pg = reg.col("Pg", g.id, t, s.id)
                    pgc = reg.col("Pgc", g.id, cid, t, s.id)
                    prob.add_row([(pg, 1.0), (pgc, -1.0), (u_t, -g.ramp_10min)],
                                 -INF, 0.0, f"eq17[{g.id},{cid},{t},{s.id}]")
                    prob.add_row([(pgc, 1.0), (pg, -1.0), (u_t, -g.ramp_10min)],
                                 -INF, 0.0, f"eq18[{g.id},{cid},{t},{s.id}]")
                    prob.add_row([(u_t, g.p_min), (pgc, -1.0)], -INF, 0.0,
                                 f"eq19[{g.id},{cid},{t},{s.id}]")
                    prob.add_row([(pgc, 1.0), (u_t, -g.p_max)], -INF, 0.0,
                                 f"eq20[{g.id},{cid},{t},{s.id}]")
        for w in sys.res_units:
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    cap = scen_avail(s, w.id, t)
                    prob.add_row([(reg.col("Pwc", w.id, cid, t, s.id), 1.0)],
                                 -INF, cap, f"eq21[{w.id},{cid},{t},{s.id}]")


# ---------------------------------------------------------------------------
# Post-contingency network blocks
# ---------------------------------------------------------------------------

def _add_contingency_balance(prob: MilpProblem, sys: PowerSystem,
                             scen: ScenarioSet, cid: Id) -> None:
    """eq22: nodal balance under the outage; the dead line's flow is pinned 0."""
    T = sys.horizon
    reg = prob.registry
    for n in sys.buses:
        gens = [g for g in sys.generators if g.bus_id == n.id]
        res = [w for w in sys.res_units if w.bus_id == n.id]
        inbound = [k for k in sys.lines if k.to_bus == n.id]
        outbound = [k for k in sys.lines if k.from_bus == n.id]
        for t in range(1, T + 1):
            for s in scen.scenarios:
                coeffs = []
                for g in gens:
                    coeffs.append((reg.col("Pgc", g.id, cid, t, s.id), 1.0))
                for k in inbound:
                    coeffs.append((reg.col("Pkc", k.id, cid, t, s.id), 1.0))
                for k in outbound:
                    coeffs.append((reg.col("Pkc", k.id, cid, t, s.id), -1.0))
                for w in res:
                    coeffs.append((reg.col("Pwc", w.id, cid, t, s.id), 1.0))
                d = sys.demand.at(n.id, t)
                prob.add_row(coeffs, d, d, f"eq22[{n.id},{cid},{t},{s.id}]")


def add_contingency_network(prob: MilpProblem, sys: PowerSystem,
                            scen: ScenarioSet,
                            contingencies: list[Contingency],
                            cfg: FormulationConfig) -> None:
    """Post-contingency network: eq22 .. eq28.

    Candidate lines get the big-M relaxed flow definition (eq25/eq26) and
    switch-scaled limits (eq27, split into its two one-sided halves).
    Non-candidate surviving lines behave as if their switch state were
    fixed to 1, which collapses eq25-eq27 to the fixed-topology rows
    eq23/eq24.  The outaged line acts as switch state 0: its flow variable
    is pinned at registration and its flow rows are dropped.  eq28 bounds
    the number of opened candidates per contingency, period and scenario.
    SSCUC is this network with no candidates, so every surviving line
    keeps eq23/eq24 and no eq28 row is written.
    """
    T = sys.horizon
    reg = prob.registry
    switching = cfg.model_kind is ModelKind.SSCUC_CNR
    line_ids = {k.id for k in sys.lines}
    for c in contingencies:
        cid = c.outaged_line_id
        candidates = set(c.candidate_switch_ids) if switching else set()
        unknown = candidates - line_ids
        if unknown:
            raise KeyError(f"contingency {cid!r}: unknown candidate lines {sorted(map(str, unknown))}")
        _add_contingency_balance(prob, sys, scen, cid)
        for k in sys.lines:
            if k.id == cid:
                continue
            switched = k.id in candidates
            coef = k.susceptance * sys.mva_base
            big_m = compute_big_m(k, cfg, sys.mva_base)
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    pkc = reg.col("Pkc", k.id, cid, t, s.id)
                    th_n = reg.col("thc", k.from_bus, cid, t, s.id)
                    th_m = reg.col("thc", k.to_bus, cid, t, s.id)
                    if not switched:
                        prob.add_row([(pkc, 1.0), (th_n, -coef), (th_m, coef)],
                                     0.0, 0.0, f"eq23[{k.id},{cid},{t},{s.id}]")
                        prob.add_row([(pkc, 1.0)], -k.limit_emergency,
                                     k.limit_emergency,
                                     f"eq24[{k.id},{cid},{t},{s.id}]")
                        continue
                    z = reg.col("z", cid, k.id, t, s.id)
                    # eq25: Pk - b(th_n - th_m) + (1 - z) M >= 0
                    prob.add_row(
                        [(pkc, 1.0), (th_n, -coef), (th_m, coef), (z, -big_m)],
                        -big_m, INF, f"eq25[{k.id},{cid},{t},{s.id}]")
                    # eq26: Pk - b(th_n - th_m) - (1 - z) M <= 0
                    prob.add_row(
                        [(pkc, 1.0), (th_n, -coef), (th_m, coef), (z, big_m)],
                        -INF, big_m, f"eq26[{k.id},{cid},{t},{s.id}]")
                    # eq27: -emax z <= Pk <= emax z
                    prob.add_row([(pkc, 1.0), (z, k.limit_emergency)], 0.0, INF,
                                 f"eq27L[{k.id},{cid},{t},{s.id}]")
                    prob.add_row([(pkc, 1.0), (z, -k.limit_emergency)], -INF, 0.0,
                                 f"eq27U[{k.id},{cid},{t},{s.id}]")
        if candidates:
            for t in range(1, T + 1):
                for s in scen.scenarios:
                    coeffs = [(reg.col("z", cid, k, t, s.id), 1.0)
                              for k in c.candidate_switch_ids]
                    prob.add_row(coeffs, len(candidates) - cfg.switch_limit, INF,
                                 f"eq28[{cid},{t},{s.id}]")


# ---------------------------------------------------------------------------
# Objective (eq1)
# ---------------------------------------------------------------------------

def build_objective(prob: MilpProblem, sys: PowerSystem, scen: ScenarioSet,
                    contingencies: list[Contingency],
                    cfg: FormulationConfig) -> None:
    """Minimize commitment, startup and expected energy cost, plus the
    expected post-contingency curtailment penalty when enabled.

    The penalty enters as sum of ``pi * c_pen * (avail - Pwc)``; its
    constant part is kept in ``objective_constant`` so the reported value
    is the literal objective, not just the variable part.
    """
    T = sys.horizon
    reg = prob.registry
    for g in sys.generators:
        for t in range(1, T + 1):
            prob.add_objective_term(reg.col("u", g.id, t), g.cost_no_load)
            prob.add_objective_term(reg.col("v", g.id, t), g.cost_startup)
            for s in scen.scenarios:
                prob.add_objective_term(reg.col("Pg", g.id, t, s.id),
                                        s.probability * g.cost_linear)
    if cfg.penalty_enabled:
        for w in sys.res_units:
            for c in contingencies:
                cid = c.outaged_line_id
                for t in range(1, T + 1):
                    for s in scen.scenarios:
                        weight = s.probability * w.curtail_penalty
                        prob.objective_constant += weight * scen_avail(s, w.id, t)
                        prob.add_objective_term(
                            reg.col("Pwc", w.id, cid, t, s.id), -weight)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble(sys: PowerSystem, scen: ScenarioSet,
             contingencies: list[Contingency],
             cfg: FormulationConfig) -> MilpProblem:
    """Build the full problem for the configured model kind."""
    scen.check()
    prob = MilpProblem(name=f"{cfg.model_kind.value}")
    register_variables(prob, sys, scen, contingencies, cfg)
    add_base_generator_constraints(prob, sys, scen, cfg)
    add_base_network_constraints(prob, sys, scen, cfg)
    add_contingency_generator_constraints(prob, sys, scen, contingencies, cfg)
    add_contingency_network(prob, sys, scen, contingencies, cfg)
    build_objective(prob, sys, scen, contingencies, cfg)
    prob.check()
    return prob
