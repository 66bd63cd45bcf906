"""Brute-force certification of tiny instances.

``enumerate_commitments`` walks every admissible binary assignment,
solves the remaining LP per assignment and takes the minimum, giving an
optimum that is independent of the branch-and-bound path.  Exponential by
nature: hard caps refuse anything beyond desk scale.

A commitment's switch settings are walked only after one LP, with every
switch column in [0, 1] and every row kept, has not been proven
infeasible.  That LP relaxes each of the commitment's settings, so when
it is infeasible they are all recorded infeasible without a solve.  Its
objective is not used: nothing is pruned by bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .formulation import FormulationConfig, assemble
from .scenarios import ScenarioSet
from .solver import SolveOptions, SolveStatus, solve, solve_relaxation
from .system import PowerSystem
from .topology import Contingency


class CapExceeded(RuntimeError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleCaps:
    max_u_bits: int = 12
    max_z_combos: int = 4096
    max_extra_v_bits: int = 8
    # caps the LPs solved and, when records are kept, the records too: a
    # pruned commitment adds one record per switch setting for one LP
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
    lp_solves: int = 0  # LPs solved: switch relaxations and fixed LPs

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

    # the switch column fixes within the budget of every (contingency,
    # period, scenario); a model without switches has one empty setting
    settings = [dict(zip(z_cols, map(float, z_vec)))
                for z_vec in itertools.product((0, 1), repeat=len(z_keys))
                if all(sum(1 - z_vec[pos] for pos in group) <= cfg.switch_limit
                       for group in z_groups.values())]

    lp_opts = SolveOptions(mip_gap=0.0, time_limit=None)
    best: float | None = None
    best_assignment: dict[str, int] | None = None
    records: list[AssignmentRecord] = []
    lp_solves = 0

    def named(fixes: dict[int, float]) -> dict[str, int]:
        return {names[col]: int(val) for col, val in fixes.items()}

    def count_lp() -> None:
        nonlocal lp_solves
        lp_solves += 1
        if lp_solves > caps.max_lp_solves:
            raise CapExceeded(
                f"enumeration needs more than {caps.max_lp_solves} LP solves")

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
            # every commitment gets one record per setting, pruned or not
            if (keep_records
                    and len(records) + len(settings) > caps.max_lp_solves):
                raise CapExceeded(
                    f"enumeration keeps more than {caps.max_lp_solves} records")
            # the LP with every z in [0, 1] relaxes each switch setting of
            # this commitment: when it is infeasible, so are they all
            if z_cols:
                count_lp()
                relaxed = solve_relaxation(prob.clone_with_bounds(commitment))
                if relaxed.status is SolveStatus.INFEASIBLE:
                    if keep_records:
                        records.extend(AssignmentRecord(
                            named({**commitment, **setting}),
                            SolveStatus.INFEASIBLE.value, None)
                            for setting in settings)
                    continue
            for setting in settings:
                fixes = {**commitment, **setting}
                count_lp()
                result = solve(prob.clone_with_bounds(fixes), lp_opts)
                optimal = result.status is SolveStatus.OPTIMAL
                better = optimal and (best is None
                                      or result.objective < best - 1e-12)
                # most LPs are infeasible: name an assignment only when
                # it is kept
                if keep_records or better:
                    assignment = named(fixes)
                if keep_records:
                    records.append(AssignmentRecord(
                        assignment, result.status.value,
                        result.objective if optimal else None))
                if better:
                    best = result.objective
                    best_assignment = assignment
    return OracleResult(best_objective=best, best_assignment=best_assignment,
                        records=records, lp_solves=lp_solves)
