"""Brute-force certification of tiny instances.

``enumerate_commitments`` walks every admissible binary assignment,
solves the remaining LP per assignment and takes the minimum, giving an
optimum that is independent of the branch-and-bound path.  Exponential by
nature: hard caps refuse anything beyond desk scale.

``exhaustive_switch_check`` evaluates, for one contingency and a frozen
base operating point, every single-line switching action (and no action)
by direct DC feasibility, as a cross-check on the chosen switch states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .formulation import (FormulationConfig, assemble, padded_terms,
                          reference_bus)
from .milp import INF, Block, MilpProblem
from .scenarios import ScenarioSet
from .solver import SolveOptions, SolveResult, SolveStatus, solve
from .system import Id, PowerSystem
from .topology import Contingency


class CapExceeded(RuntimeError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleCaps:
    max_u_bits: int = 12
    max_z_combos: int = 4096
    max_extra_v_bits: int = 8
    max_lp_solves: int = 250_000


@dataclass(frozen=True)
class AssignmentRecord:
    assignment: dict[str, int]
    status: str
    objective: float | None


@dataclass
class OracleResult:
    best_objective: float | None
    best_assignment: dict[str, int] | None
    records: list[AssignmentRecord] = field(default_factory=list)
    lp_solves: int = 0

    @property
    def feasible(self) -> bool:
        return self.best_objective is not None


def _tight_startups(u_bits: dict[tuple, int], sys: PowerSystem, T: int
                    ) -> dict[tuple, int]:
    v = {}
    for g in sys.generators:
        u_prev = 1 if g.initial_status.on else 0
        for t in range(1, T + 1):
            u_t = u_bits[(g.id, t)]
            v[(g.id, t)] = max(0, u_t - u_prev)
            u_prev = u_t
    return v


def _updown_feasible(u_bits: dict[tuple, int], v_bits: dict[tuple, int],
                     sys: PowerSystem, T: int) -> bool:
    """Check the pure-binary min-up/min-down rows for a full assignment."""
    for g in sys.generators:
        for t in range(g.min_up, T + 1):
            window = sum(v_bits[(g.id, q)] for q in range(t - g.min_up + 1, t + 1))
            if window > u_bits[(g.id, t)]:
                return False
        for t in range(1, T - g.min_down + 1):
            window = sum(v_bits[(g.id, q)] for q in range(t + 1, t + g.min_down + 1))
            if window > 1 - u_bits[(g.id, t)]:
                return False
    return True


def _extra_startup_positions(u_bits: dict[tuple, int], sys: PowerSystem,
                             T: int) -> list[tuple]:
    """Startup bits beyond the tight ones that could relax a ramp row.

    A discretionary startup only matters while the unit was already on in
    the previous period: it buys ramp-up/down slack between on periods
    when the hourly ramp can bind, or shutdown slack when the shutdown
    ramp can bind.  Positions that provably cannot help are skipped so
    that ramp-slack instances stay enumerable.
    """
    out = []
    for g in sys.generators:
        ramp_up_can_bind = g.ramp_hourly < g.p_max and (g.ramp_startup > 0
                                                        or g.ramp_shutdown > 0)
        shutdown_can_bind = 0 < g.ramp_shutdown < g.p_max
        u_prev = 1 if g.initial_status.on else 0
        for t in range(1, T + 1):
            u_t = u_bits[(g.id, t)]
            if u_prev == 1 and ((u_t == 1 and ramp_up_can_bind)
                                or (u_t == 0 and shutdown_can_bind)):
                out.append((g.id, t))
            u_prev = u_t
    return out


def enumerate_commitments(
    sys: PowerSystem,
    scen: ScenarioSet,
    contingencies: list[Contingency],
    cfg: FormulationConfig,
    caps: OracleCaps | None = None,
    keep_records: bool = True,
) -> OracleResult:
    """Exhaustive optimum over commitment, startup and switch binaries.

    Startups are derived tight from the commitment pattern, and the
    positions where an extra startup could legally relax a ramp row are
    enumerated too, so the result matches the model exactly even when
    paying a startup buys ramp slack.
    """
    caps = caps or OracleCaps()
    T = sys.horizon
    prob = assemble(sys, scen, contingencies, cfg)
    reg = prob.registry

    u_keys = [(g.id, t) for g in sys.generators for t in range(1, T + 1)]
    if len(u_keys) > caps.max_u_bits:
        raise CapExceeded(
            f"{len(u_keys)} commitment bits exceed cap {caps.max_u_bits}")
    z_keys = reg.indices("z")
    if 2 ** len(z_keys) > caps.max_z_combos:
        raise CapExceeded(
            f"2^{len(z_keys)} switch combinations exceed cap {caps.max_z_combos}")

    # group switch bits per (contingency, period, scenario) for the budget
    z_groups: dict[tuple, list[int]] = {}
    for pos, (cid, _k, t, s_id) in enumerate(z_keys):
        z_groups.setdefault((cid, t, s_id), []).append(pos)

    # the fixed columns and their names, looked up once per model
    names = prob.var_names
    u_cols = [reg.col("u", *key) for key in u_keys]
    v_cols = {key: reg.col("v", *key) for key in u_keys}
    z_cols = [reg.col("z", *key) for key in z_keys]

    lp_opts = SolveOptions(mip_gap=0.0, time_limit=None)
    best: float | None = None
    best_assignment: dict[str, int] | None = None
    records: list[AssignmentRecord] = []
    lp_solves = 0

    for u_vec in itertools.product((0, 1), repeat=len(u_keys)):
        u_bits = dict(zip(u_keys, u_vec))
        tight_v = _tight_startups(u_bits, sys, T)
        if not _updown_feasible(u_bits, tight_v, sys, T):
            continue
        extras = [pos for pos in _extra_startup_positions(u_bits, sys, T)
                  if tight_v[pos] == 0]
        if len(extras) > caps.max_extra_v_bits:
            raise CapExceeded(
                f"{len(extras)} discretionary startup bits exceed cap "
                f"{caps.max_extra_v_bits}")
        for extra_vec in itertools.product((0, 1), repeat=len(extras)):
            v_bits = dict(tight_v)
            for pos, bit in zip(extras, extra_vec):
                if bit:
                    v_bits[pos] = 1
            if extras and not _updown_feasible(u_bits, v_bits, sys, T):
                continue
            commitment = dict(zip(u_cols, map(float, u_vec)))
            commitment.update((v_cols[key], float(val))
                              for key, val in v_bits.items())
            for z_vec in itertools.product((0, 1), repeat=len(z_keys)):
                opened_ok = all(
                    sum(1 - z_vec[pos] for pos in group) <= cfg.switch_limit
                    for group in z_groups.values())
                if not opened_ok:
                    continue
                fixes = dict(commitment)
                fixes.update(zip(z_cols, map(float, z_vec)))
                lp_solves += 1
                if lp_solves > caps.max_lp_solves:
                    raise CapExceeded(
                        f"enumeration needs more than {caps.max_lp_solves} LP solves")
                result = solve(prob.clone_with_bounds(fixes), lp_opts)
                optimal = result.status is SolveStatus.OPTIMAL
                better = optimal and (best is None
                                      or result.objective < best - 1e-12)
                # most LPs are infeasible: name an assignment only when
                # it is kept
                if keep_records or better:
                    assignment = {names[col]: int(val)
                                  for col, val in fixes.items()}
                if keep_records:
                    records.append(AssignmentRecord(
                        assignment, result.status.value,
                        result.objective if optimal else None))
                if better:
                    best = result.objective
                    best_assignment = assignment
    return OracleResult(best_objective=best, best_assignment=best_assignment,
                        records=records, lp_solves=lp_solves)


# ---------------------------------------------------------------------------
# Single-contingency switching cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedOperatingPoint:
    """Frozen base-case point for one period and scenario."""

    commitment: dict[Id, int]
    dispatch: dict[Id, float]
    availability: dict[Id, float]
    demand: dict[Id, float]


@dataclass(frozen=True)
class SwitchEvaluation:
    action: Id | None
    feasible: bool
    curtailment: float


@dataclass(frozen=True)
class SwitchCheckResult:
    best_action: Id | None
    curtailment: float
    evaluations: tuple[SwitchEvaluation, ...]


def _post_contingency_lp(sys: PowerSystem, point: FixedOperatingPoint,
                         removed: set[Id], cfg: FormulationConfig) -> MilpProblem:
    prob = MilpProblem(name="switch-check")
    ref = reference_bus(sys, cfg)
    lines = [k for k in sys.lines if k.id not in removed]
    bounds = []
    for g in sys.generators:
        if point.commitment.get(g.id, 0):
            base = point.dispatch.get(g.id, 0.0)
            bounds.append((max(g.p_min, base - g.ramp_10min),
                           min(g.p_max, base + g.ramp_10min)))
        else:
            bounds.append((0.0, 0.0))
    avail = [point.availability.get(w.id, 0.0) for w in sys.res_units]
    bounds += [(0.0, a) for a in avail]
    bounds += [(0.0, 0.0) if n.id == ref else (-cfg.angle_bound, cfg.angle_bound)
               for n in sys.buses]
    bounds += [(-INF, INF)] * len(lines)
    lb, ub = np.array(bounds, dtype=float).reshape(-1, 2).T.copy()
    start = prob.add_cols(lb, ub, np.zeros(lb.size, dtype=bool))
    reg = prob.registry
    for symbol, items in (("Pgc", sys.generators), ("Pwc", sys.res_units),
                          ("thc", sys.buses), ("Pkc", lines)):
        reg.add_block(Block(symbol, [(e.id,) for e in items],
                            start + np.arange(len(items))))
        start += len(items)
    prob.objective_constant = sum(avail)
    prob.add_objective(reg.block("Pwc").numbers(), np.full(len(avail), -1.0))

    keys = [(k.id,) for k in lines]
    pkc = reg.block("Pkc").numbers()
    coef = np.array([k.susceptance * sys.mva_base for k in lines])
    limit = np.array([k.limit_emergency for k in lines])
    prob.add_row_block(
        "flow", keys, [(pkc, 1.0),
                       ([reg.col("thc", k.from_bus) for k in lines], -coef),
                       ([reg.col("thc", k.to_bus) for k in lines], coef)],
        0.0, 0.0)
    prob.add_row_block("limit", keys, [(pkc, 1.0)], -limit, limit)
    terms = []
    for n in sys.buses:
        row = [(reg.col("Pgc", g.id), 1.0)
               for g in sys.generators if g.bus_id == n.id]
        row += [(reg.col("Pwc", w.id), 1.0)
                for w in sys.res_units if w.bus_id == n.id]
        for k in lines:
            if k.to_bus == n.id:
                row.append((reg.col("Pkc", k.id), 1.0))
            elif k.from_bus == n.id:
                row.append((reg.col("Pkc", k.id), -1.0))
        terms.append(row)
    demand = [point.demand.get(n.id, 0.0) for n in sys.buses]
    prob.add_row_block("balance", [(n.id,) for n in sys.buses],
                       padded_terms(terms, ()), demand, demand, padded=True)
    return prob


def exhaustive_switch_check(sys: PowerSystem, point: FixedOperatingPoint,
                            contingency: Contingency,
                            cfg: FormulationConfig) -> SwitchCheckResult:
    """Try no action and each single-line opening; report the one with the
    least reachable curtailment.

    Ties keep the earlier option, so no action wins over any equally good
    switch and candidate order breaks remaining ties deterministically.
    Actions whose DC flow is infeasible (for example, islanding a loaded
    bus) are excluded.
    """
    options: list[Id | None] = [None] + list(contingency.candidate_switch_ids)
    evaluations = []
    best_action: Id | None = None
    best_curtail = INF
    for action in options:
        removed = {contingency.outaged_line_id}
        if action is not None:
            removed.add(action)
        lp = _post_contingency_lp(sys, point, removed, cfg)
        result: SolveResult = solve(lp, SolveOptions(mip_gap=0.0))
        if result.status is SolveStatus.OPTIMAL:
            curtail = max(0.0, result.objective)
            evaluations.append(SwitchEvaluation(action, True, curtail))
            if curtail < best_curtail - 1e-9:
                best_curtail = curtail
                best_action = action
        else:
            evaluations.append(SwitchEvaluation(action, False, INF))
    return SwitchCheckResult(best_action=best_action,
                             curtailment=best_curtail,
                             evaluations=tuple(evaluations))
