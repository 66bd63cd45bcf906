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

``assemble`` is the one way to build a model.  It makes one private
``_Builder``, which derives each fact of the system the model needs once
(the axes, scenario probabilities, availability table, unit parameters,
line ends, bus incidence, demand and the checked switch candidates), and
whose methods append the model in order.  Each works on whole grids (see
``milp.Block``): one column block per symbol, and one row block per
equation family, filled by numpy index arithmetic over the (g,t,s) and
(c,t,s) grids.  The column order is fixed: columns u, v, Pg, r, Pw, Pk,
th, then per contingency one run each of Pgc, Pwc, Pkc and thc, then z.
Rows are the families in the order the builder appends them: eq2, eq3,
eq4, eq5, eq6, eq7, eq8, eq9, eq10, eq13, eq14, eq15, eq16, eq17, eq18,
eq19, eq20, eq21, eq22, eq23, eq24, then for CNR eq25, eq26, eq27L, eq27U
and eq28.  Each family's rows are contiguous, key by key in the order the
builder lists the keys, each key's rows over (t, s).
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
                  mva_base: float) -> float:
    """Deactivation constant for the line's big-M flow rows, in MW.

    Covers the largest possible ``|b (th_n - th_m)|`` over the angle box,
    so setting the switch state to 0 silences the flow definition without
    cutting any feasible angles.
    """
    return abs(line.susceptance) * mva_base * 2.0 * cfg.angle_bound + BIG_M_MARGIN


def reference_bus(sys: PowerSystem, cfg: FormulationConfig) -> Id:
    if cfg.reference_bus is None:
        return sys.buses[0].id
    if all(b.id != cfg.reference_bus for b in sys.buses):
        raise KeyError(f"reference bus {cfg.reference_bus!r} not in system")
    return cfg.reference_bus


def scen_avail(scenario, res_id: Id, t: int) -> float:
    """Availability of a RES unit at 1-based period ``t``, in MW.

    A missing or short profile raises (KeyError, IndexError) rather than
    reading as 0 MW; ``align_scenarios`` turns both into input errors.
    """
    return scenario.availability[res_id][t - 1]


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _per(values) -> np.ndarray:
    """One value per element, shaped to broadcast over (element, t, s)."""
    return np.array(values, dtype=float).reshape(-1, 1, 1)


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


# the unit parameters the rows and the objective read
_UNIT_PARAMS = ("p_min", "p_max", "ramp_10min", "ramp_hourly", "ramp_startup",
                "ramp_shutdown", "cost_no_load", "cost_startup", "cost_linear")


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------

class _Builder:
    """One model under construction, and the facts of the system it is
    built from, each derived once.  ``assemble`` calls the methods below
    in model order; each appends its column blocks, row families or
    objective terms to ``prob``."""

    def __init__(self, sys: PowerSystem, scen: ScenarioSet,
                 contingencies: list[Contingency],
                 cfg: FormulationConfig) -> None:
        self.sys, self.cfg, self.contingencies = sys, cfg, contingencies
        self.prob = MilpProblem()
        self.ref = reference_bus(sys, cfg)
        periods = tuple(range(1, sys.horizon + 1))
        # the inner axes of every per-scenario block: periods, scenario ids
        self.inner = (periods, tuple(s.id for s in scen.scenarios))
        T, S = self.T, self.S = len(periods), len(scen.scenarios)
        self.pi = np.array([s.probability for s in scen.scenarios], dtype=float)
        # (RES unit, period, scenario) availability in MW
        self.avail = np.array(
            [[[scen_avail(s, w.id, t) for s in scen.scenarios]
              for t in periods] for w in sys.res_units],
            dtype=float).reshape(len(sys.res_units), T, S)
        # each unit parameter shaped to broadcast over (unit, t, s)
        gens = sys.generators
        table = np.array([[getattr(g, a) for a in _UNIT_PARAMS] for g in gens],
                         dtype=float).reshape(len(gens), len(_UNIT_PARAMS))
        self.unit = {a: table[:, i, None, None]
                     for i, a in enumerate(_UNIT_PARAMS)}

        # bus positions of every line's two ends, which must differ, and
        # its flow per radian of angle difference
        lines, buses = sys.lines, sys.buses
        bus_at = {b.id: i for i, b in enumerate(buses)}
        ends = np.array([(bus_at[k.from_bus], bus_at[k.to_bus]) for k in lines],
                        dtype=np.int64).reshape(-1, 2)
        loops = (ends[:, 0] == ends[:, 1]).nonzero()[0]
        if loops.size:
            raise ValueError(f"line {lines[loops[0]].id!r}: endpoints must differ")
        self.frm, self.to = ends[:, 0], ends[:, 1]
        self.b_mw = np.array([k.susceptance * sys.mva_base for k in lines],
                             dtype=float)
        # each bus's balance terms as (part, element, sign), part 0 the
        # units, 1 the lines (inbound, then outbound) and 2 the RES units,
        # and its demand per period
        self.incidence = [
            [(0, j, 1.0) for j, g in enumerate(gens) if g.bus_id == n.id]
            + [(1, j, 1.0) for j, k in enumerate(lines) if k.to_bus == n.id]
            + [(1, j, -1.0) for j, k in enumerate(lines) if k.from_bus == n.id]
            + [(2, j, 1.0) for j, w in enumerate(sys.res_units)
               if w.bus_id == n.id] for n in buses]
        self.demand = np.array([[sys.demand.at(n.id, t) for t in periods]
                                for n in buses], dtype=float).reshape(-1, T)

        # SSCUC is CNR with no switch candidates
        switching = cfg.model_kind is ModelKind.SSCUC_CNR
        line_ids = {k.id for k in lines}
        self.cids = [c.outaged_line_id for c in contingencies]
        self.candidates = []
        for c in contingencies:
            cands = set(c.candidate_switch_ids) if switching else set()
            unknown = cands - line_ids
            if unknown:
                raise KeyError(f"contingency {c.outaged_line_id!r}: unknown "
                               f"candidate lines {sorted(map(str, unknown))}")
            self.candidates.append(cands)
        self.pairs = ([(c.outaged_line_id, k) for c in contingencies
                       for k in c.candidate_switch_ids] if switching else [])
        # each line in each contingency: 0 outaged, 1 fixed, 2 switchable
        self.kind = np.array(
            [[0 if k.id == cid else 2 if k.id in cands else 1 for k in lines]
             for cid, cands in zip(self.cids, self.candidates)],
            dtype=np.int64).reshape(len(contingencies), len(lines))

    # -- variables ----------------------------------------------------------

    def columns(self) -> None:
        """Create and register every decision variable with its natural
        bounds.

        One column block per symbol, all appended with one call.  The
        post-contingency copies are laid out contingency by contingency,
        each holding one run of Pgc, Pwc, Pkc and thc, so those four
        blocks interleave.
        """
        prob, sys, cfg, inner = self.prob, self.sys, self.cfg, self.inner
        T, S = self.T, self.S
        TS = T * S
        gens, res, lines, buses = sys.generators, sys.res_units, sys.lines, sys.buses
        p_max, cap = self.unit["p_max"], self.avail
        th_lb = _per([0.0 if n.id == self.ref else -cfg.angle_bound for n in buses])
        th_ub = _per([0.0 if n.id == self.ref else cfg.angle_bound for n in buses])
        cids, pairs = self.cids, self.pairs
        # symbol, elements, inner axes, lb, ub, integer
        own = [("u", gens, inner[:1], 0.0, 1.0, True),
               ("v", gens, inner[:1], 0.0, 1.0, True),
               ("Pg", gens, inner, 0.0, p_max, False),
               ("r", gens, inner, 0.0, INF, False),
               ("Pw", res, inner, 0.0, cap, False),
               ("Pk", lines, inner, -INF, INF, False),
               ("th", buses, inner, th_lb, th_ub, False)]
        # the outaged line carries no flow in its own contingency
        dead = (self.kind == 0)[:, :, None, None]
        copies = [("Pgc", gens, 0.0, p_max), ("Pwc", res, 0.0, cap),
                  ("Pkc", lines, np.where(dead, 0.0, -INF), np.where(dead, 0.0, INF)),
                  ("thc", buses, th_lb, th_ub)]
        n_own = sum(len(items) * math.prod(map(len, axes))
                    for _, items, axes, _, _, _ in own)
        per = sum(len(items) for _, items, _, _ in copies) * TS
        lb = np.empty(n_own + len(cids) * per + len(pairs) * TS)
        ub = np.empty(lb.size)
        integer = np.zeros(lb.size, dtype=bool)
        offset, blocks = 0, []
        for symbol, items, axes, low, high, is_int in own:
            shape = (len(items),) + tuple(map(len, axes))
            span = slice(offset, offset + math.prod(shape))
            lb[span].reshape(shape)[...] = low
            ub[span].reshape(shape)[...] = high
            integer[span] = is_int
            blocks.append(Block(symbol, [(e.id,) for e in items],
                                offset + math.prod(shape[1:])
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
                    (offset + per * np.arange(C)[:, None] + within
                     + TS * np.arange(len(items))).reshape(-1), inner))
                within = span.stop
            offset += C * per
        if pairs:
            lb[offset:], ub[offset:], integer[offset:] = 0.0, 1.0, True
            blocks.append(Block("z", pairs,
                                offset + TS * np.arange(len(pairs)), inner))
        for block in blocks:
            prob.registry.add_block(block)
        prob.add_cols(lb, ub, integer)
        # each symbol's columns, shaped (keys, *inner) as registered
        self.cols = {block.name: block.numbers() for block in blocks}

    # -- base-case generator block: eq2 .. eq10, eq13 -----------------------

    def base_generators(self) -> None:
        """eq2-eq10 per unit, then eq13 per RES unit."""
        prob, inner, unit = self.prob, self.inner, self.unit
        T = self.T
        gens = self.sys.generators
        G = len(gens)
        u, v = self.cols["u"], self.cols["v"]      # (G, T)
        pg, r = self.cols["Pg"], self.cols["r"]    # (G, T, S)
        u3, v3 = u[:, :, None], v[:, :, None]

        keys = [(g.id,) for g in gens]

        u0 = [1 if g.initial_status.on else 0 for g in gens]
        p0 = [g.initial_dispatch() for g in gens]

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
                [(u3, unit["p_min"]), (pg, -1.0)],
                [(pg, 1.0), (r, 1.0), (u3, -unit["p_max"])],
                [(r, 1.0), (u3, -unit["ramp_10min"])],
                [(r[others[:, j]], 1.0) for j in range(G - 1)] + [(pg, -1.0)],
                [(pg, 1.0), (pg_prev, -1.0), (u_prev, -unit["ramp_hourly"]),
                 (v3, -unit["ramp_startup"])],
                [(pg_prev, 1.0), (pg, -1.0),
                 (u3, unit["ramp_shutdown"] - unit["ramp_hourly"]),
                 (v3, -unit["ramp_shutdown"]), (u_prev, -unit["ramp_shutdown"])]],
            [-INF, -INF, -INF, 0.0, -INF, -INF],
            [0.0, 0.0, 0.0, INF,
             from_initial([p + g.ramp_hourly * on for g, p, on in zip(gens, p0, u0)]),
             from_initial([g.ramp_shutdown * on - p
                           for g, p, on in zip(gens, p0, u0)])],
            inner, padded=True)

        # eq8: startups within the last UT periods imply still committed;
        # eq9: no restart within DT periods after being off at t.  One row
        # per (unit, period) key, the windows padded to the longest
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
                           inner[:1], padded=True)

        # eq13: RES output capped by scenario availability
        prob.add_row_block("eq13", [(w.id,) for w in self.sys.res_units],
                           [(self.cols["Pw"], 1.0)], -INF, self.avail, inner)

    # -- nodal balance: eq16 and eq22 ---------------------------------------

    def _balance(self, family: str, suffixes: list[tuple],
                 parts: tuple[np.ndarray, ...]) -> None:
        """Balance rows: at every bus, generation, inbound flow minus
        outbound flow, and RES output meet the demand.

        ``parts`` holds the unit, line and RES unit columns, each shaped
        (runs, elements, t, s), run j with index suffix ``suffixes[j]``;
        the rows go bus by bus, each over the runs.
        """
        T, S = self.T, self.S
        buses = self.sys.buses
        N, runs = len(buses), len(suffixes)
        terms = [[(parts[part][:, j], sign) for part, j, sign in bus]
                 for bus in self.incidence]
        demand = np.empty((N, runs, T, 1))
        demand[...] = self.demand[:, None, :, None]
        self.prob.add_row_block(
            family, [(n.id, *sfx) for n in buses for sfx in suffixes],
            [(col.reshape(N * runs, T, S), coef.repeat(runs, axis=0)[..., 0])
             for col, coef in _padded(terms, (runs, T, S))],
            demand.reshape(-1, T, 1), demand.reshape(-1, T, 1), self.inner,
            padded=True)

    # -- base-case network block: eq14 .. eq16 ------------------------------

    def base_network(self) -> None:
        """eq14 and eq15 per line, then eq16 per bus."""
        lines = self.sys.lines
        pk, th = self.cols["Pk"], self.cols["th"]
        coef = self.b_mw.reshape(-1, 1, 1)
        limit = _per([k.limit_long_term for k in lines])

        self.prob.add_row_block(
            ("eq14", "eq15"), [(k.id,) for k in lines],
            [[(pk, 1.0), (th[self.frm], -coef), (th[self.to], coef)], [(pk, 1.0)]],
            [0.0, -limit], [0.0, limit], self.inner)
        self._balance("eq16", [()], (self.cols["Pg"][None], pk[None],
                                     self.cols["Pw"][None]))

    # -- post-contingency generator block: eq17 .. eq21 ---------------------

    def contingency_generators(self) -> None:
        """eq17-eq20 per (unit, contingency), then eq21 per (RES unit,
        contingency)."""
        if not self.contingencies:
            return
        gens, res = self.sys.generators, self.sys.res_units
        C, cids = len(self.cids), self.cids
        # (contingency, unit) runs, each over (t, s)
        u = np.concatenate([self.cols["u"][:, :, None]] * C)
        pg = np.concatenate([self.cols["Pg"]] * C)
        pgc = self.cols["Pgc"]

        def per_unit(param):
            return np.concatenate([self.unit[param]] * C)

        r10 = per_unit("ramp_10min")
        self.prob.add_row_block(
            ("eq17", "eq18", "eq19", "eq20"),
            [(g.id, cid) for cid in cids for g in gens],
            [[(pg, 1.0), (pgc, -1.0), (u, -r10)],
             [(pgc, 1.0), (pg, -1.0), (u, -r10)],
             [(u, per_unit("p_min")), (pgc, -1.0)],
             [(pgc, 1.0), (u, -per_unit("p_max"))]],
            [-INF] * 4, [0.0] * 4, self.inner)

        self.prob.add_row_block(
            "eq21", [(w.id, cid) for cid in cids for w in res],
            [(self.cols["Pwc"], 1.0)], -INF,
            np.concatenate([self.avail] * C), self.inner)

    # -- post-contingency network: eq22 .. eq28 -----------------------------

    def contingency_network(self) -> None:
        """Post-contingency network: eq22 .. eq28.

        Candidate lines get the big-M relaxed flow definition (eq25/eq26)
        and switch-scaled limits (eq27, split into its two one-sided
        halves).  Non-candidate surviving lines behave as if their switch
        state were fixed to 1, which collapses eq25-eq27 to the
        fixed-topology rows eq23/eq24.  The outaged line acts as switch
        state 0: its flow variable is pinned at registration and its flow
        rows are dropped.  eq28 bounds the number of opened candidates per
        contingency, period and scenario.  SSCUC is this network with no
        candidates, so every surviving line keeps eq23/eq24 and no eq28
        row is written.

        Each family's keys go contingency by contingency, except eq22's,
        which go bus by bus.
        """
        if not self.contingencies:
            return
        prob, cfg, inner = self.prob, self.cfg, self.inner
        T, S = self.T, self.S
        lines, cids, candidates = self.sys.lines, self.cids, self.candidates
        C, K, N = len(cids), len(lines), len(self.sys.buses)
        pkc = self.cols["Pkc"].reshape(C, K, T, S)
        thc = self.cols["thc"].reshape(C, N, T, S)

        self._balance("eq22", [(cid,) for cid in cids],
                      (self.cols["Pgc"].reshape(C, -1, T, S), pkc,
                       self.cols["Pwc"].reshape(C, -1, T, S)))

        frm, to, coef = self.frm, self.to, self.b_mw
        emax = np.array([k.limit_emergency for k in lines], dtype=float)

        def flow_rows(line_kind):
            ci, ki = np.nonzero(self.kind == line_kind)
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
        z_at = {key: p for p, key in enumerate(self.pairs)}
        z_all = self.cols["z"]
        z = z_all[[z_at[key[::-1]] for key in keys]]
        big_m = np.array([compute_big_m(k, cfg, self.sys.mva_base) for k in lines]
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
                      for k in self.contingencies[j].candidate_switch_ids]
                     for j in budgeted], (T, S)),
            np.array([len(candidates[j]) - cfg.switch_limit for j in budgeted],
                     dtype=float).reshape(-1, 1, 1), INF, inner, padded=True)

    # -- objective (eq1) ----------------------------------------------------

    def objective(self) -> None:
        """Minimize commitment, startup and expected energy cost, plus the
        expected post-contingency curtailment penalty when enabled.

        The penalty enters as sum of ``pi * c_pen * (avail - Pwc)``; its
        constant part is kept in ``objective_constant`` so the reported
        value is the literal objective, not just the variable part.
        """
        prob, pi, unit = self.prob, self.pi, self.unit
        u, v, pg = self.cols["u"], self.cols["v"], self.cols["Pg"]
        G, T, S = pg.shape
        # per unit and period: u, v, then Pg in every scenario
        cols = np.empty((G, T, 2 + S), dtype=np.int64)
        coefs = np.empty((G, T, 2 + S))
        cols[..., 0], cols[..., 1], cols[..., 2:] = u, v, pg
        coefs[..., :1], coefs[..., 1:2] = unit["cost_no_load"], unit["cost_startup"]
        coefs[..., 2:] = pi * unit["cost_linear"]
        prob.add_objective(cols, coefs)
        if self.cfg.penalty_enabled and self.contingencies:
            res = self.sys.res_units
            W, C = len(res), len(self.cids)
            weight = (pi * _per([w.curtail_penalty for w in res])).reshape(W, 1, 1, S)
            pwc = self.cols["Pwc"].reshape(C, W, T, S).transpose(1, 0, 2, 3)
            # the constant is added term by term in (w, c, t, s) order
            terms = np.empty((1 + W * C * T * S))
            terms[0] = prob.objective_constant
            terms[1:].reshape(pwc.shape)[...] = weight * self.avail[:, None]
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
    model = _Builder(sys, scen, contingencies, cfg)
    model.columns()
    model.base_generators()
    model.base_network()
    model.contingency_generators()
    model.contingency_network()
    model.objective()
    model.prob.check()
    return model.prob
