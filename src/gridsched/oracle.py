"""Brute-force certification of tiny instances.

``enumerate_commitments`` walks every admissible binary assignment,
solves the remaining LP per assignment and takes the minimum, giving an
optimum that is independent of the branch-and-bound path.  Exponential by
nature: hard caps refuse anything beyond desk scale.

The walk is one depth-first tree over two lists sorted by key: the
admissible commitments, keyed by their ``u`` bits and then the position
of their startup vector, and the switch settings within the budget, keyed
by their ``z`` bits.  A node holds a run of each list; it splits the
commitments into runs that agree at the next key position, and once their
keys are spent, the settings by the next ``z`` bit, 0 before 1.  A node
that branches solves one LP, its relaxation: the node's bits fixed, every
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


def _startups(u_bits: dict[tuple, int], sys: PowerSystem, T: int
              ) -> tuple[dict[tuple, int], list[tuple]]:
    """The tight startup bits of a commitment pattern, and the positions
    where a startup beyond them could relax a ramp row.

    A discretionary startup only matters while the unit was already on in
    the previous period, where the tight bit is 0: it buys ramp-up/down
    slack between on periods when the hourly ramp can bind, or shutdown
    slack when the shutdown ramp can bind.  Positions that provably cannot
    help are skipped so that ramp-slack instances stay enumerable.
    """
    tight, extras = {}, []
    for g in sys.generators:
        ramp_up_can_bind = g.ramp_hourly < g.p_max and (g.ramp_startup > 0
                                                        or g.ramp_shutdown > 0)
        shutdown_can_bind = 0 < g.ramp_shutdown < g.p_max
        u_prev = 1 if g.initial_status.on else 0
        for t in range(1, T + 1):
            u_t = u_bits[(g.id, t)]
            tight[(g.id, t)] = max(0, u_t - u_prev)
            if u_prev == 1 and ((u_t == 1 and ramp_up_can_bind)
                                or (u_t == 0 and shutdown_can_bind)):
                extras.append((g.id, t))
            u_prev = u_t
    return tight, extras


def _window_rows(sys: PowerSystem, T: int) -> list[list[tuple]]:
    """The min-up/min-down rows over tight startups, listed at the
    position in ``u_keys`` order (unit by unit, period by period) of the
    last commitment bit each reads: (first bit of its unit, the unit's
    initial commitment, 0 for eq8 or 1 for eq9, its period, its window)."""
    rows: list[list[tuple]] = [[] for _ in range(len(sys.generators) * T)]
    for i, g in enumerate(sys.generators):
        base, u0 = i * T, 1 if g.initial_status.on else 0
        for t in range(g.min_up, T + 1):
            rows[base + t - 1].append((base, u0, 0, t, g.min_up))
        for t in range(1, T - g.min_down + 1):
            rows[base + t + g.min_down - 1].append(
                (base, u0, 1, t, g.min_down))
    return rows


def _window_holds(bits: list[int], base: int, u0: int, kind: int, t: int,
                  n: int) -> bool:
    """One row of ``_window_rows`` on the commitment bits set so far:
    eq8, the tight startups of periods t-n+1..t at most u[t]; eq9, those
    of periods t+1..t+n at most 1 - u[t]."""
    first = t - n + 1 if kind == 0 else t + 1
    prev = bits[base + first - 2] if first > 1 else u0
    startups = 0
    for q in range(first, first + n):
        on = bits[base + q - 1]
        startups += on > prev
        prev = on
    return startups <= (bits[base + t - 1] if kind == 0
                        else 1 - bits[base + t - 1])


def _commitments(sys: PowerSystem, T: int, u_keys: list[tuple],
                 u_cols: list[int], v_cols: dict[tuple, int],
                 caps: OracleCaps) -> list[tuple[tuple, dict[int, float]]]:
    """Every commitment the up/down rows admit, in walk order, with its u
    and v column fixes.  Its key is its u bits, then the position of its
    startup vector among the pattern's: the tight one first, then those
    with discretionary startups added.

    The u bits are set in key order, 0 before 1, and a prefix is dropped,
    with every pattern that extends it, as soon as an up/down row whose
    bits it has all set fails with tight startups.  Raises
    ``CapExceeded`` for an admitted pattern with too many discretionary
    startup bits, whether or not the walk would prune it.
    """
    checks = _window_rows(sys, T)
    bits = [0] * len(u_keys)
    out = []

    def admit(u_vec: tuple) -> None:
        u_bits = dict(zip(u_keys, u_vec))
        tight_v, extras = _startups(u_bits, sys, T)
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
        u_fixes = dict(zip(u_cols, map(float, u_vec)))
        out.extend((u_vec + (i,), u_fixes | {v_cols[key]: float(val)
                                             for key, val in v_bits.items()})
                   for i, v_bits in enumerate(startups))

    def walk(depth: int) -> None:
        if depth == len(bits):
            admit(tuple(bits))
            return
        for bit in (0, 1):
            bits[depth] = bit
            if all(_window_holds(bits, *row) for row in checks[depth]):
                walk(depth + 1)

    walk(0)
    return out


def _groups(items: list[tuple], lo: int, hi: int, pos: int
            ) -> list[tuple[int, int, int]]:
    """The runs of ``items[lo:hi]``, sorted by key, whose keys agree at
    ``pos``: (value, lo, hi) each."""
    starts = [i for i in range(lo, hi)
              if i == lo or items[i][0][pos] != items[i - 1][0][pos]]
    return [(items[a][0][pos], a, b)
            for a, b in zip(starts, starts[1:] + [hi])]


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
    # scenario), keyed by their bits, with their column fixes; a model
    # without switches has one empty setting
    settings = [(z_vec, dict(zip(z_cols, map(float, z_vec))))
                for z_vec in itertools.product((0, 1), repeat=len(z_keys))
                if all(sum(1 - z_vec[pos] for pos in group) <= cfg.switch_limit
                       for group in z_groups.values())]
    commitments = _commitments(sys, T, u_keys, u_cols, v_cols, caps)
    # each assignment gets a record, pruned or not
    if keep_records and len(commitments) * len(settings) > caps.max_lp_solves:
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
    # order (u, startups, z).  A node holds the assignments
    # commitments[c:d] x settings[a:b].  Depths up to len(u_keys) split the
    # commitments by their key at that depth, a u bit and then the startup
    # vector; deeper ones split the settings by a z bit.  ``point`` is a
    # checked relaxation point that takes every value ``fixes`` pins, or
    # None.
    n_u = len(u_keys)
    stack: list[tuple] = [(0, 0, len(commitments), 0, len(settings), {}, None)]
    while stack:
        depth, c, d, a, b, fixes, point = stack.pop()
        if (d - c) * (b - a) == 1:
            # one assignment left: solve its fixed LP
            fixes = {**commitments[c][1], **settings[a][1]}
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
        if depth <= n_u:
            children = [(depth + 1, lo, hi, a, b,
                         {u_cols[depth]: float(value)} if depth < n_u
                         else commitments[lo][1])
                        for value, lo, hi in _groups(commitments, c, d, depth)]
        else:
            pos = depth - n_u - 1
            children = [(depth + 1, c, d, lo, hi, {z_cols[pos]: float(value)})
                        for value, lo, hi in _groups(settings, a, b, pos)]
        # a node with one child has the same assignments below it, and the
        # child's relaxation is the tighter one
        if len(children) > 1 and point is None:
            count_lp()
            relaxed = solve_relaxation(prob.clone_with_bounds(fixes))
            if relaxed.status is SolveStatus.INFEASIBLE:
                if keep_records:
                    records.extend(AssignmentRecord(
                        named({**commitment, **setting}),
                        SolveStatus.INFEASIBLE.value, None)
                        for _, commitment in commitments[c:d]
                        for _, setting in settings[a:b])
                continue
            point = relaxed.x
        for *node, new in reversed(children):
            # the parent's point proves a child feasible when it takes
            # the child's new fixes
            inherited = (point if point is not None
                         and all(point[col] == val for col, val in new.items())
                         else None)
            stack.append((*node, {**fixes, **new}, inherited))
    return OracleResult(best_objective=best, best_assignment=best_assignment,
                        records=records, lp_solves=lp_solves)
