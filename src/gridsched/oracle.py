"""Brute-force certification of tiny instances.

``enumerate_commitments`` walks every admissible binary assignment,
solves the remaining LP per assignment and takes the minimum, giving an
optimum that is independent of the branch-and-bound path.  Exponential by
nature: hard caps refuse anything beyond desk scale.

The walk is one depth-first tree over the binaries, bit 0 before bit 1:
the commitment bits ``u`` in order, then each commitment's admissible
startup vectors, then the switch bits ``z`` in order.  A node that
branches solves one LP, its relaxation: the node's bits fixed, every
other binary in [0, 1] and every row kept.  When HiGHS proves it
infeasible, every assignment below is recorded infeasible without a
solve.  No relaxation is solved where its answer is known: not at a node
with one child, whose child relaxes the same assignments more tightly,
and not at a child whose fixed bits the parent's checked point already
takes, since that point proves the child feasible.  Only a full
assignment solves its fixed LP, whose objective is the record's.  Nothing
is pruned by bound.
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
    # pruned subtree adds one record per assignment below it for one LP
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
    lp_solves: int = 0  # LPs solved: relaxations and fixed LPs

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


def _commitments(sys: PowerSystem, T: int, u_keys: list[tuple],
                 caps: OracleCaps) -> list[tuple[tuple, list[dict]]]:
    """Every commitment pattern the up/down rows admit, in walk order,
    with its admissible startup vectors: the tight one first, then those
    with discretionary startups added.

    Raises ``CapExceeded`` for a pattern with too many discretionary
    startup bits, whether or not the walk would prune it.
    """
    out = []
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
        startups = []
        for extra_vec in itertools.product((0, 1), repeat=len(extras)):
            v_bits = dict(tight_v)
            for pos, bit in zip(extras, extra_vec):
                if bit:
                    v_bits[pos] = 1
            if extras and not _updown_feasible(u_bits, v_bits, sys, T):
                continue
            startups.append(v_bits)
        out.append((u_vec, startups))
    return out


def _split(vecs: list[tuple], lo: int, hi: int, pos: int
           ) -> list[tuple[int, int, int]]:
    """The nonempty runs of the sorted ``vecs[lo:hi]`` with bit 0, then
    bit 1, at ``pos``: (bit, lo, hi) each."""
    mid = lo
    while mid < hi and vecs[mid][pos] == 0:
        mid += 1
    return [(bit, a, b) for bit, a, b in ((0, lo, mid), (1, mid, hi)) if a < b]


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

    # the switch settings within the budget of every (contingency, period,
    # scenario), as bits and as column fixes; a model without switches has
    # one empty setting
    z_vecs = [z_vec for z_vec in itertools.product((0, 1), repeat=len(z_keys))
              if all(sum(1 - z_vec[pos] for pos in group) <= cfg.switch_limit
                     for group in z_groups.values())]
    settings = [dict(zip(z_cols, map(float, z_vec))) for z_vec in z_vecs]
    # the commitments as column fixes: per pattern its u fixes and the u
    # and v fixes of each of its startup vectors
    patterns = [(u_vec, [dict(zip(u_cols, map(float, u_vec)))
                         | {v_cols[key]: float(val)
                            for key, val in v_bits.items()}
                         for v_bits in startups])
                for u_vec, startups in _commitments(sys, T, u_keys, caps)]
    u_vecs = [u_vec for u_vec, _ in patterns]
    # assignments below the first i patterns; each gets a record, pruned
    # or not
    below = list(itertools.accumulate(
        (len(commitments) * len(settings) for _, commitments in patterns),
        initial=0))
    if keep_records and below[-1] > caps.max_lp_solves:
        raise CapExceeded(
            f"enumeration keeps more than {caps.max_lp_solves} records")

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

    # Depth-first over the binaries, bit 0 first, so records come in the
    # order (u, startups, z).  Depths below len(u_keys) branch on a u bit
    # and [lo, hi) indexes patterns; depth len(u_keys) holds one pattern
    # and branches on its startup vectors; deeper ones branch on a z bit
    # and [lo, hi) indexes settings.  ``point`` is a checked relaxation
    # point that takes every value ``fixes`` pins, or None.
    n_u = len(u_keys)
    stack: list[tuple] = [(0, 0, len(patterns), {}, None)]
    while stack:
        depth, lo, hi, fixes, point = stack.pop()
        if (below[hi] - below[lo] if depth <= n_u else hi - lo) == 1:
            # one assignment left: solve its fixed LP
            if depth <= n_u:
                fixes = {**patterns[lo][1][0], **settings[0]}
            else:
                fixes = {**fixes, **settings[lo]}
            count_lp()
            result = solve(prob.clone_with_bounds(fixes), lp_opts)
            optimal = result.status is SolveStatus.OPTIMAL
            better = optimal and (best is None
                                  or result.objective < best - 1e-12)
            # most LPs are infeasible: name an assignment only when it is
            # kept
            if keep_records or better:
                assignment = named(fixes)
            if keep_records:
                records.append(AssignmentRecord(
                    assignment, result.status.value,
                    result.objective if optimal else None))
            if better:
                best = result.objective
                best_assignment = assignment
            continue
        if depth < n_u:
            children = [(depth + 1, a, b, {u_cols[depth]: float(bit)})
                        for bit, a, b in _split(u_vecs, lo, hi, depth)]
        elif depth == n_u:
            children = [(depth + 1, 0, len(settings), commitment)
                        for commitment in patterns[lo][1]]
        else:
            pos = depth - n_u - 1
            children = [(depth + 1, a, b, {z_cols[pos]: float(bit)})
                        for bit, a, b in _split(z_vecs, lo, hi, pos)]
        # a node with one child has the same assignments below it, and the
        # child's relaxation is the tighter one
        if len(children) > 1 and point is None:
            count_lp()
            relaxed = solve_relaxation(prob.clone_with_bounds(fixes))
            if relaxed.status is SolveStatus.INFEASIBLE:
                if keep_records:
                    if depth <= n_u:
                        assignments = (
                            {**commitment, **setting}
                            for _, commitments in patterns[lo:hi]
                            for commitment in commitments
                            for setting in settings)
                    else:
                        assignments = ({**fixes, **setting}
                                       for setting in settings[lo:hi])
                    records.extend(AssignmentRecord(
                        named(assignment), SolveStatus.INFEASIBLE.value, None)
                        for assignment in assignments)
                continue
            point = relaxed.x
        for depth_, a, b, new in reversed(children):
            # the parent's point proves a child feasible when it takes
            # the child's new fixes
            inherited = (point if point is not None
                         and all(point[col] == val for col, val in new.items())
                         else None)
            stack.append((depth_, a, b, {**fixes, **new}, inherited))
    return OracleResult(best_objective=best, best_assignment=best_assignment,
                        records=records, lp_solves=lp_solves)
