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

Every builder works on whole grids (see ``milp.Block``): one column
block per symbol, and one row block per equation family, filled by numpy
index arithmetic over the (g,t,s) and (c,t,s) grids.  The column order
is fixed: columns u, v, Pg, r, Pw, Pk, th, then per contingency one run
each of Pgc, Pwc, Pkc and thc, then z.  Rows are the families in the
order the builders of ``assemble`` append them: eq2, eq3, eq4, eq5, eq6,
eq7, eq8, eq9, eq10, eq13, eq14, eq15, eq16, eq17, eq18, eq19, eq20,
eq21, eq22, eq23, eq24, then for CNR eq25, eq26, eq27L, eq27U and eq28.
Each family's rows are contiguous, key by key in the order its builder
lists the keys, each key's rows over (t, s).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .milp import INF, Block, MilpProblem
from .scenarios import ScenarioSet
from .system import Id, PowerSystem, TransmissionLine
from .topology import Contingency


class ModelKind(enum.Enum):
    SSCUC = "sscuc"
    SSCUC_CNR = "sscuc-cnr"


@dataclass(frozen=True)
class FormulationConfig:
    model_kind: ModelKind = ModelKind.SSCUC
    switch_limit: int = 1          # max opened lines per contingency/period/scenario
    angle_bound: float = 0.6       # radians, symmetric box on every bus angle
    reference_bus: Id | None = None  # defaults to the first bus
    penalty_enabled: bool = True   # charge post-contingency curtailment in the objective

    def __post_init__(self) -> None:
        if self.switch_limit < 0:
            raise ValueError("switch_limit must be >= 0")
        if not (math.isfinite(self.angle_bound) and self.angle_bound > 0):
            raise ValueError("angle_bound must be finite and > 0")


BIG_M_MARGIN = 10.0  # MW of slack on top of the worst-case flow term


def compute_big_m(line: TransmissionLine, cfg: FormulationConfig,
                  mva_base: float = 100.0) -> float:
    """Deactivation constant for the line's big-M flow rows, in MW.

    Covers the largest possible ``|b (th_n - th_m)|`` over the angle box,
    so setting the switch state to 0 silences the flow definition without
    cutting any feasible angles.
    """
    return abs(line.susceptance) * mva_base * 2.0 * cfg.angle_bound + BIG_M_MARGIN


def _line_ends(sys: PowerSystem) -> tuple[np.ndarray, np.ndarray]:
    """Bus positions of every line's two ends, which must differ."""
    bus_at = {b.id: i for i, b in enumerate(sys.buses)}
    ends = np.array([(bus_at[k.from_bus], bus_at[k.to_bus]) for k in sys.lines],
                    dtype=np.int64).reshape(-1, 2)
    loops = (ends[:, 0] == ends[:, 1]).nonzero()[0]
    if loops.size:
        raise ValueError(f"line {sys.lines[loops[0]].id!r}: endpoints must differ")
    return ends[:, 0], ends[:, 1]


def reference_bus(sys: PowerSystem, cfg: FormulationConfig) -> Id:
    if cfg.reference_bus is None:
        return sys.buses[0].id
    if all(b.id != cfg.reference_bus for b in sys.buses):
        raise KeyError(f"reference bus {cfg.reference_bus!r} not in system")
    return cfg.reference_bus


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _axes(sys: PowerSystem, scen: ScenarioSet) -> tuple[tuple, tuple]:
    """The inner axes of every per-scenario block: periods, scenario ids."""
    return tuple(range(1, sys.horizon + 1)), tuple(s.id for s in scen.scenarios)


def _per(values) -> np.ndarray:
    """One value per element, shaped to broadcast over (element, t, s)."""
    return np.array(values, dtype=float).reshape(-1, 1, 1)


def _unit_data(gens, *attrs) -> list[np.ndarray]:
    """Per-unit attributes, each shaped to broadcast over (unit, t, s)."""
    table = np.array([[getattr(g, a) for a in attrs] for g in gens],
                     dtype=float).reshape(len(gens), len(attrs))
    return [table[:, i, None, None] for i in range(len(attrs))]


def _availability(sys: PowerSystem, scen: ScenarioSet) -> np.ndarray:
    """(RES unit, period, scenario) availability in MW."""
    periods, _ = _axes(sys, scen)
    return np.array([[[scen_avail(s, w.id, t) for s in scen.scenarios]
                      for t in periods] for w in sys.res_units],
                    dtype=float).reshape(len(sys.res_units), len(periods),
                                         len(scen.scenarios))


def _cols(prob: MilpProblem, symbol: str) -> np.ndarray:
    """Columns of a symbol, shaped (keys, *inner) as registered."""
    return prob.registry.block(symbol).numbers()


def _previous(cols: np.ndarray) -> np.ndarray:
    """Columns of the previous period (axis 1); -1, no term, at t = 1."""
    first = np.empty_like(cols[:, :1])
    first.fill(-1)
    return np.concatenate([first, cols[:, :-1]], axis=1)


def _padded(rows: list[list[tuple]], shape: tuple) -> list[tuple]:
    """Per-row term lists of different lengths as block terms: term j of
    row i is ``rows[i][j]`` (columns of ``shape``, coefficient); the
    result's term j stacks them over the rows, shaped (rows, *shape), with
    column -1 where a row is shorter than the longest."""
    width = max(map(len, rows), default=0)
    cols = np.empty((width, len(rows)) + shape, dtype=np.int32)
    cols.fill(-1)
    vals = np.zeros((width, len(rows)) + (1,) * len(shape))
    for i, terms in enumerate(rows):
        for j, (col, coef) in enumerate(terms):
            cols[j, i] = col
            vals[j, i] = coef
    return list(zip(cols, vals))


# ---------------------------------------------------------------------------
# Variables
# ---------------------------------------------------------------------------

def register_variables(prob: MilpProblem, sys: PowerSystem, scen: ScenarioSet,
                       contingencies: list[Contingency],
                       cfg: FormulationConfig) -> None:
    """Create and register every decision variable with its natural bounds.

    One column block per symbol, all appended with one call.  The
    post-contingency copies are laid out contingency by contingency, each
    holding one run of Pgc, Pwc, Pkc and thc, so those four blocks
    interleave.
    """
    ref = reference_bus(sys, cfg)
    inner = _axes(sys, scen)
    T, S = len(inner[0]), len(inner[1])
    TS = T * S
    gens, res, lines, buses = sys.generators, sys.res_units, sys.lines, sys.buses
    p_max = _per([g.p_max for g in gens])
    cap = _availability(sys, scen)
    th_lb = _per([0.0 if n.id == ref else -cfg.angle_bound for n in buses])
    th_ub = _per([0.0 if n.id == ref else cfg.angle_bound for n in buses])
    cids = [c.outaged_line_id for c in contingencies]
    pairs = ([(c.outaged_line_id, k) for c in contingencies
              for k in c.candidate_switch_ids]
             if cfg.model_kind is ModelKind.SSCUC_CNR else [])
    # symbol, elements, inner axes, lb, ub, integer
    own = [("u", gens, inner[:1], 0.0, 1.0, True),
           ("v", gens, inner[:1], 0.0, 1.0, True),
           ("Pg", gens, inner, 0.0, p_max, False),
           ("r", gens, inner, 0.0, INF, False),
           ("Pw", res, inner, 0.0, cap, False),
           ("Pk", lines, inner, -INF, INF, False),
           ("th", buses, inner, th_lb, th_ub, False)]
    # the outaged line carries no flow in its own contingency
    dead = np.array([[k.id == cid for k in lines] for cid in cids],
                    dtype=bool).reshape(len(cids), len(lines), 1, 1)
    copies = [("Pgc", gens, 0.0, p_max), ("Pwc", res, 0.0, cap),
              ("Pkc", lines, np.where(dead, 0.0, -INF), np.where(dead, 0.0, INF)),
              ("thc", buses, th_lb, th_ub)]
    n_own = sum(len(items) * math.prod(map(len, axes))
                for _, items, axes, _, _, _ in own)
    per = sum(len(items) for _, items, _, _ in copies) * TS
    lb = np.empty(n_own + len(cids) * per + len(pairs) * TS)
    ub = np.empty(lb.size)
    integer = np.zeros(lb.size, dtype=bool)
    start, offset, blocks = prob.num_vars, 0, []
    for symbol, items, axes, low, high, is_int in own:
        shape = (len(items),) + tuple(map(len, axes))
        span = slice(offset, offset + math.prod(shape))
        lb[span].reshape(shape)[...] = low
        ub[span].reshape(shape)[...] = high
        integer[span] = is_int
        blocks.append(Block(symbol, [(e.id,) for e in items],
                            start + offset + math.prod(shape[1:])
                            * np.arange(len(items)), axes))
        offset = span.stop
    if cids:
        C = len(cids)
        low_c = lb[offset:offset + C * per].reshape(C, per)
        high_c = ub[offset:offset + C * per].reshape(C, per)
        within = 0
        for symbol, items, low, high in copies:
            span = slice(within, within + len(items) * TS)
            low_c[:, span].reshape(C, len(items), T, S)[...] = low
            high_c[:, span].reshape(C, len(items), T, S)[...] = high
            blocks.append(Block(
                symbol, [(e.id, cid) for cid in cids for e in items],
                (start + offset + per * np.arange(C)[:, None] + within
                 + TS * np.arange(len(items))).reshape(-1), inner))
            within = span.stop
        offset += C * per
    if pairs:
        lb[offset:], ub[offset:], integer[offset:] = 0.0, 1.0, True
        blocks.append(Block("z", pairs,
                            start + offset + TS * np.arange(len(pairs)), inner))
    for block in blocks:
        prob.registry.add_block(block)
    prob.add_cols(lb, ub, integer)


# ---------------------------------------------------------------------------
# Base-case generator block: eq2 .. eq10, eq13
# ---------------------------------------------------------------------------

def add_base_generator_constraints(prob: MilpProblem, sys: PowerSystem,
                                   scen: ScenarioSet) -> None:
    """eq2-eq10 per unit, then eq13 per RES unit."""
    inner = _axes(sys, scen)
    periods = inner[0]
    T = len(periods)
    gens = sys.generators
    G = len(gens)
    u, v = _cols(prob, "u"), _cols(prob, "v")      # (G, T)
    pg, r = _cols(prob, "Pg"), _cols(prob, "r")    # (G, T, S)
    u3, v3 = u[:, :, None], v[:, :, None]

    keys = [(g.id,) for g in gens]

    u0 = [1 if g.initial_status.on else 0 for g in gens]
    p0 = [g.initial_dispatch() for g in gens]
    p_min, p_max, r10, hourly, startup, shutdown = _unit_data(
        gens, "p_min", "p_max", "ramp_10min", "ramp_hourly", "ramp_startup",
        "ramp_shutdown")
    shutdown_less_hourly = _per([g.ramp_shutdown - g.ramp_hourly for g in gens])

    # per unit, period and scenario:
    # eq2: p_min u <= Pg
    # eq3: Pg + r <= p_max u
    # eq4: r <= R10 u (r >= 0 is the variable bound)
    # eq5: total reserve covers this unit's output plus reserve; with the
    #      sum kept over all units, r_g cancels and the row reduces to
    #      sum-of-others >= Pg
    # eq6 / eq7: hourly ramps with startup/shutdown allowances; at t = 1
    #      the previous output and commitment are the initial state, which
    #      moves into the right-hand side
    others = np.array([[q for q in range(G) if q != g] for g in range(G)],
                      dtype=np.int64).reshape(G, max(G - 1, 0))
    pg_prev, u_prev = _previous(pg), _previous(u3)

    def from_initial(values):
        ub = np.zeros((G, T, 1))
        ub[:, :1] = _per(values)
        return ub

    prob.add_row_block(
        ("eq2", "eq3", "eq4", "eq5", "eq6", "eq7"), keys, [
            [(u3, p_min), (pg, -1.0)],
            [(pg, 1.0), (r, 1.0), (u3, -p_max)],
            [(r, 1.0), (u3, -r10)],
            [(r[others[:, j]], 1.0) for j in range(G - 1)] + [(pg, -1.0)],
            [(pg, 1.0), (pg_prev, -1.0), (u_prev, -hourly), (v3, -startup)],
            [(pg_prev, 1.0), (pg, -1.0), (u3, shutdown_less_hourly),
             (v3, -shutdown), (u_prev, -shutdown)]],
        [-INF, -INF, -INF, 0.0, -INF, -INF],
        [0.0, 0.0, 0.0, INF,
         from_initial([p + g.ramp_hourly * on for g, p, on in zip(gens, p0, u0)]),
         from_initial([g.ramp_shutdown * on - p
                       for g, p, on in zip(gens, p0, u0)])],
        inner, padded=True)

    # eq8: startups within the last UT periods imply still committed;
    # eq9: no restart within DT periods after being off at t.  One row per
    # (unit, period) key, the windows padded to the longest
    up = [(i, t) for i, g in enumerate(gens) for t in range(g.min_up, T + 1)]
    prob.add_row_block(
        "eq8", [(gens[i].id, t) for i, t in up],
        _padded([[(v[i, q - 1], 1.0)
                  for q in range(t - gens[i].min_up + 1, t + 1)]
                 + [(u[i, t - 1], -1.0)] for i, t in up], ()),
        -INF, 0.0, padded=True)
    down = [(i, t) for i, g in enumerate(gens)
            for t in range(1, T - g.min_down + 1)]
    prob.add_row_block(
        "eq9", [(gens[i].id, t) for i, t in down],
        _padded([[(v[i, q - 1], 1.0)
                  for q in range(t + 1, t + gens[i].min_down + 1)]
                 + [(u[i, t - 1], 1.0)] for i, t in down], ()),
        -INF, 1.0, padded=True)
    # eq10: startup indicator
    lb10 = np.zeros((G, T))
    lb10[:, 0] = [-float(on) for on in u0]
    prob.add_row_block("eq10", keys,
                       [(v, 1.0), (u, -1.0), (_previous(u), 1.0)], lb10, INF,
                       (periods,), padded=True)

    # eq13: RES output capped by scenario availability
    prob.add_row_block("eq13", [(w.id,) for w in sys.res_units],
                       [(_cols(prob, "Pw"), 1.0)], -INF,
                       _availability(sys, scen), inner)


def scen_avail(scenario, res_id: Id, t: int) -> float:
    """Availability of a RES unit at 1-based period ``t``, in MW.

    A missing or short profile raises (KeyError, IndexError) rather than
    reading as 0 MW; ``align_scenarios`` turns both into input errors.
    """
    return scenario.availability[res_id][t - 1]


# ---------------------------------------------------------------------------
# Nodal balance: eq16 and eq22
# ---------------------------------------------------------------------------

def _add_balance(prob: MilpProblem, family: str, sys: PowerSystem, inner,
                 suffixes: list[tuple], gen: np.ndarray, flow: np.ndarray,
                 res: np.ndarray) -> None:
    """Balance rows: at every bus, generation, inbound flow minus outbound
    flow, and RES output meet the demand.

    ``gen``, ``flow`` and ``res`` hold element columns shaped
    (runs, elements, t, s), run j with index suffix ``suffixes[j]``; the
    rows go bus by bus, each over the runs.
    """
    periods, scen_ids = inner
    T, S = len(periods), len(scen_ids)
    terms = [[(gen[:, j], 1.0) for j, g in enumerate(sys.generators)
              if g.bus_id == n.id]
             + [(flow[:, j], 1.0) for j, k in enumerate(sys.lines)
                if k.to_bus == n.id]
             + [(flow[:, j], -1.0) for j, k in enumerate(sys.lines)
                if k.from_bus == n.id]
             + [(res[:, j], 1.0) for j, w in enumerate(sys.res_units)
                if w.bus_id == n.id] for n in sys.buses]
    N, runs = len(sys.buses), len(suffixes)
    demand = np.empty((N, runs, T, 1))
    demand[...] = np.array([[sys.demand.at(n.id, t) for t in periods]
                            for n in sys.buses], dtype=float)[:, None, :, None]
    prob.add_row_block(
        family, [(n.id, *sfx) for n in sys.buses for sfx in suffixes],
        [(col.reshape(N * runs, T, S), coef.repeat(runs, axis=0)[..., 0])
         for col, coef in _padded(terms, (runs, T, S))],
        demand.reshape(-1, T, 1), demand.reshape(-1, T, 1), inner, padded=True)


# ---------------------------------------------------------------------------
# Base-case network block: eq14 .. eq16
# ---------------------------------------------------------------------------

def add_base_network_constraints(prob: MilpProblem, sys: PowerSystem,
                                 scen: ScenarioSet) -> None:
    """eq14 and eq15 per line, then eq16 per bus."""
    inner = _axes(sys, scen)
    lines = sys.lines
    pk, th = _cols(prob, "Pk"), _cols(prob, "th")
    frm, to = _line_ends(sys)
    coef = _per([k.susceptance * sys.mva_base for k in lines])  # MW per radian
    limit = _per([k.limit_long_term for k in lines])

    prob.add_row_block(("eq14", "eq15"), [(k.id,) for k in lines],
                       [[(pk, 1.0), (th[frm], -coef), (th[to], coef)],
                        [(pk, 1.0)]], [0.0, -limit], [0.0, limit], inner)
    _add_balance(prob, "eq16", sys, inner, [()], _cols(prob, "Pg")[None],
                 pk[None], _cols(prob, "Pw")[None])


# ---------------------------------------------------------------------------
# Post-contingency generator block: eq17 .. eq21
# ---------------------------------------------------------------------------

def add_contingency_generator_constraints(prob: MilpProblem, sys: PowerSystem,
                                          scen: ScenarioSet,
                                          contingencies: list[Contingency],
                                          cfg: FormulationConfig) -> None:
    """eq17-eq20 per (unit, contingency), then eq21 per (RES unit,
    contingency)."""
    if not contingencies:
        return
    inner = _axes(sys, scen)
    gens, res = sys.generators, sys.res_units
    C = len(contingencies)
    cids = [c.outaged_line_id for c in contingencies]
    # (contingency, unit) runs, each over (t, s)
    u = np.concatenate([_cols(prob, "u")[:, :, None]] * C)
    pg = np.concatenate([_cols(prob, "Pg")] * C)
    pgc = _cols(prob, "Pgc")

    def per_unit(values):
        return np.concatenate([_per(values)] * C)

    r10 = per_unit([g.ramp_10min for g in gens])
    prob.add_row_block(
        ("eq17", "eq18", "eq19", "eq20"),
        [(g.id, cid) for cid in cids for g in gens],
        [[(pg, 1.0), (pgc, -1.0), (u, -r10)],
         [(pgc, 1.0), (pg, -1.0), (u, -r10)],
         [(u, per_unit([g.p_min for g in gens])), (pgc, -1.0)],
         [(pgc, 1.0), (u, -per_unit([g.p_max for g in gens]))]],
        [-INF] * 4, [0.0] * 4, inner)

    prob.add_row_block(
        "eq21", [(w.id, cid) for cid in cids for w in res],
        [(_cols(prob, "Pwc"), 1.0)], -INF,
        np.concatenate([_availability(sys, scen)] * C), inner)


# ---------------------------------------------------------------------------
# Post-contingency network blocks
# ---------------------------------------------------------------------------

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

    Each family's keys go contingency by contingency, except eq22's,
    which go bus by bus.
    """
    if not contingencies:
        return
    switching = cfg.model_kind is ModelKind.SSCUC_CNR
    line_ids = {k.id for k in sys.lines}
    candidates = []
    for c in contingencies:
        cands = set(c.candidate_switch_ids) if switching else set()
        unknown = cands - line_ids
        if unknown:
            raise KeyError(f"contingency {c.outaged_line_id!r}: unknown "
                           f"candidate lines {sorted(map(str, unknown))}")
        candidates.append(cands)

    inner = _axes(sys, scen)
    T, S = len(inner[0]), len(inner[1])
    lines = sys.lines
    C, K, N = len(contingencies), len(lines), len(sys.buses)
    cids = [c.outaged_line_id for c in contingencies]
    pkc = _cols(prob, "Pkc").reshape(C, K, T, S)
    thc = _cols(prob, "thc").reshape(C, N, T, S)

    # each line in each contingency: 0 outaged, 1 fixed, 2 switchable
    kind = np.array([[0 if k.id == cid else 2 if k.id in cands else 1
                      for k in lines] for cid, cands in zip(cids, candidates)],
                    dtype=np.int64).reshape(C, K)

    _add_balance(prob, "eq22", sys, inner, [(cid,) for cid in cids],
                 _cols(prob, "Pgc").reshape(C, -1, T, S), pkc,
                 _cols(prob, "Pwc").reshape(C, -1, T, S))

    frm, to = _line_ends(sys)
    coef = np.array([k.susceptance * sys.mva_base for k in lines])
    emax = np.array([k.limit_emergency for k in lines], dtype=float)

    def flow_rows(line_kind):
        ci, ki = np.nonzero(kind == line_kind)
        keys = [(lines[k].id, cids[c]) for c, k in zip(ci.tolist(), ki.tolist())]
        return (ki, keys, pkc[ci, ki], thc[ci, frm[ki]], thc[ci, to[ki]],
                coef[ki].reshape(-1, 1, 1), emax[ki].reshape(-1, 1, 1))

    _, keys, pk, th_n, th_m, b, e = flow_rows(1)
    prob.add_row_block(("eq23", "eq24"), keys,
                       [[(pk, 1.0), (th_n, -b), (th_m, b)], [(pk, 1.0)]],
                       [0.0, -e], [0.0, e], inner)

    if not any(candidates):
        return
    ki, keys, pk, th_n, th_m, b, e = flow_rows(2)
    z_block = prob.registry.block("z")
    z_at = {key: p for p, key in enumerate(z_block.keys)}
    z_all = z_block.numbers()
    z = z_all[[z_at[key[::-1]] for key in keys]]
    big_m = np.array([compute_big_m(k, cfg, sys.mva_base) for k in lines]
                     )[ki].reshape(-1, 1, 1)
    flow = [(pk, 1.0), (th_n, -b), (th_m, b)]
    # eq25: Pk - b(th_n - th_m) + (1 - z) M >= 0
    # eq26: Pk - b(th_n - th_m) - (1 - z) M <= 0
    # eq27: -emax z <= Pk <= emax z, as its two one-sided halves
    prob.add_row_block(
        ("eq25", "eq26", "eq27L", "eq27U"), keys,
        [flow + [(z, -big_m)], flow + [(z, big_m)], [(pk, 1.0), (z, e)],
         [(pk, 1.0), (z, -e)]],
        [-big_m, -INF, 0.0, -INF], [INF, big_m, INF, 0.0], inner)
    budgeted = [j for j, cands in enumerate(candidates) if cands]
    prob.add_row_block(
        "eq28", [(cids[j],) for j in budgeted],
        _padded([[(z_all[z_at[(cids[j], k)]], 1.0)
                  for k in contingencies[j].candidate_switch_ids]
                 for j in budgeted], (T, S)),
        np.array([len(candidates[j]) - cfg.switch_limit for j in budgeted],
                 dtype=float).reshape(-1, 1, 1), INF, inner, padded=True)


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
    gens = sys.generators
    pi = np.array([s.probability for s in scen.scenarios], dtype=float)
    u, v, pg = _cols(prob, "u"), _cols(prob, "v"), _cols(prob, "Pg")
    G, T, S = pg.shape
    no_load, startup, linear = _unit_data(gens, "cost_no_load", "cost_startup",
                                          "cost_linear")
    # per unit and period: u, v, then Pg in every scenario
    cols = np.empty((G, T, 2 + S), dtype=np.int64)
    coefs = np.empty((G, T, 2 + S))
    cols[..., 0], cols[..., 1], cols[..., 2:] = u, v, pg
    coefs[..., :1], coefs[..., 1:2], coefs[..., 2:] = no_load, startup, pi * linear
    prob.add_objective(cols, coefs)
    if cfg.penalty_enabled and contingencies:
        W, C = len(sys.res_units), len(contingencies)
        weight = (pi * _per([w.curtail_penalty for w in sys.res_units])
                  ).reshape(W, 1, 1, S)
        pwc = _cols(prob, "Pwc").reshape(C, W, T, S).transpose(1, 0, 2, 3)
        # the constant is added term by term in (w, c, t, s) order
        terms = np.empty((1 + W * C * T * S))
        terms[0] = prob.objective_constant
        terms[1:].reshape(pwc.shape)[...] = weight * _availability(sys, scen)[:, None]
        prob.objective_constant = float(np.add.accumulate(terms)[-1])
        coefs = np.empty(pwc.shape)
        coefs[...] = -weight
        prob.add_objective(pwc, coefs)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble(sys: PowerSystem, scen: ScenarioSet,
             contingencies: list[Contingency],
             cfg: FormulationConfig) -> MilpProblem:
    """Build the full problem for the configured model kind."""
    scen.check()
    prob = MilpProblem()
    register_variables(prob, sys, scen, contingencies, cfg)
    add_base_generator_constraints(prob, sys, scen)
    add_base_network_constraints(prob, sys, scen)
    add_contingency_generator_constraints(prob, sys, scen, contingencies, cfg)
    add_contingency_network(prob, sys, scen, contingencies, cfg)
    build_objective(prob, sys, scen, contingencies, cfg)
    prob.check()
    return prob
