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
th, then per contingency one copy each of Pgc, Pwc, Pkc and thc, each
appended to its symbol's block, then z.
Rows are the families in the order the builder appends them: eq2, eq3,
eq4, eq5, eq6, eq7, eq8, eq9, eq10, eq14, eq16, eq17, eq18, eq19, eq20,
eq22, eq23, then for CNR eq25, eq26, eq27L, eq27U and eq28.  Each
family's rows are contiguous, key by key in the order the builder lists
the keys, each key's rows over (t, s).

The builder writes only the rows the data does not already imply, and
no term with a zero coefficient (``milp`` leaves those out):

* the limits that are one column's box are its bounds, not rows: the
  long-term limit (eq15) bounds ``Pk``, a fixed surviving line's
  emergency limit (eq24) bounds its ``Pkc`` and the availability (eq13,
  eq21) bounds ``Pw`` and ``Pwc``.  A switch candidate's ``Pkc`` stays
  free, as eq27 limits it, and the outaged line's is pinned at 0;
* the dispatch floors eq2 and eq19 exist only for units with
  ``p_min > 0``; at ``p_min = 0`` they read ``Pg >= 0`` and
  ``Pgc >= 0``, the columns' lower bounds;
* the redispatch ranges eq17 and eq18 exist only for units with
  ``ramp_10min < p_max - p_min``.  For the others they follow from the
  rows kept, even at a fractional ``u``: eq2 and eq3 with ``r >= 0``
  give ``p_min u <= Pg <= p_max u``, eq19 and eq20 give the same for
  ``Pgc``, so ``|Pgc - Pg| <= (p_max - p_min) u <= ramp_10min u``.

``metrics.verify_solution`` still checks every one of these equations
from the data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .milp import INF, MilpProblem
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
    prev = np.empty_like(cols)
    prev[:, 0] = -1
    prev[:, 1:] = cols[:, :-1]
    return prev


def _padded(row: np.ndarray, col: np.ndarray, coef: np.ndarray,
            rows: int) -> list[tuple]:
    """Terms listed one by one as block terms.  Term i lies in row
    ``row[i]`` with columns ``col[i]`` and coefficient ``coef[i]``; the
    rows ascend and each row's terms come in its order.  The result's term
    j stacks every row's j-th term, shaped (rows, *col.shape[1:]), with
    column -1 where a row has fewer terms."""
    pos = np.arange(row.size) - row.searchsorted(row)
    width = int(pos.max()) + 1 if pos.size else 0
    cols = np.empty((width, rows) + col.shape[1:], dtype=np.int32)
    cols.fill(-1)
    cols[pos, row] = col
    vals = np.zeros((width, rows) + coef.shape[1:])
    vals[pos, row] = coef
    return list(zip(cols, vals))


def _windows(v: np.ndarray, u: np.ndarray,
             rows: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Terms of startup-window rows as (columns, coefficients), each shaped
    (term, row).  Row (unit, period, first, length, u_coef) sums
    ``v[unit, q]`` over the ``length`` periods q from ``first``, then adds
    ``u_coef * u[unit, period]``; column -1 pads the shorter rows."""
    unit, period, first, length, u_coef = np.array(
        rows, dtype=np.int64).reshape(-1, 5).T
    j = np.arange(length.max() + 1 if length.size else 0)[:, None]
    in_window = j < length
    return (np.where(in_window, v[unit, np.minimum(first + j, v.shape[1] - 1)],
                     np.where(j == length, u[unit, period], -1)),
            np.where(in_window, 1.0, u_coef))


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
        table = table.T[:, :, None, None]
        self.unit = dict(zip(_UNIT_PARAMS, table))
        self.neg = dict(zip(_UNIT_PARAMS, -table))  # and negated

        # bus positions of every line's two ends, which must differ, its
        # flow per radian of angle difference and its emergency limit
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
        self.emax = np.array([k.limit_emergency for k in lines], dtype=float)
        # the balance terms bus by bus, each bus's units, inbound lines,
        # outbound lines and RES units in input order, as the terms' (bus,
        # place at the bus, element) and a coefficient per (place, bus);
        # the elements number the units, then the lines, then the RES units
        G, K = len(gens), len(lines)
        at_bus: list[list[tuple]] = [[] for _ in buses]
        for elements in (
                [(bus_at.get(g.bus_id), j, 1.0) for j, g in enumerate(gens)],
                [(n, G + j, 1.0) for j, n in enumerate(self.to.tolist())],
                [(n, G + j, -1.0) for j, n in enumerate(self.frm.tolist())],
                [(bus_at.get(w.bus_id), G + K + j, 1.0)
                 for j, w in enumerate(sys.res_units)]):
            for n, element, sign in elements:
                if n is not None:
                    at_bus[n].append((element, sign))
        terms = [(n, place, element, sign) for n, bus in enumerate(at_bus)
                 for place, (element, sign) in enumerate(bus)]
        bus, place, element = np.array(
            [t[:3] for t in terms], dtype=np.int64).reshape(-1, 3).T
        coef = np.zeros((max(map(len, at_bus), default=0), len(buses)))
        coef[place, bus] = [t[3] for t in terms]
        self.incidence = (bus, element, place, coef)
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
        """Create and name every decision variable with its natural bounds,
        the line limits and RES availability among them.

        One ``add_col_block`` call per symbol for the first stage and the
        base case, then per contingency one call each for that copy's
        Pgc, Pwc, Pkc and thc, each appending the copy's keys to its
        symbol, then z.  ``cols`` keeps each symbol's columns, shaped
        (keys, *inner) in registration order.
        """
        cfg, inner, sys = self.cfg, self.inner, self.sys
        gens, res, lines, buses = sys.generators, sys.res_units, sys.lines, sys.buses
        p_max, cap = self.unit["p_max"], self.avail
        limit = _per([k.limit_long_term for k in lines])
        th_lb = _per([0.0 if n.id == self.ref else -cfg.angle_bound for n in buses])
        th_ub = _per([0.0 if n.id == self.ref else cfg.angle_bound for n in buses])
        parts: dict[str, list[np.ndarray]] = {}

        def add(symbol, keys, lb, ub, integer=False, axes=inner):
            parts.setdefault(symbol, []).append(self.prob.add_col_block(
                symbol, keys, lb, ub, integer, axes))

        def ids(items, *suffix):
            return [(e.id, *suffix) for e in items]

        add("u", ids(gens), 0.0, 1.0, True, inner[:1])
        add("v", ids(gens), 0.0, 1.0, True, inner[:1])
        add("Pg", ids(gens), 0.0, p_max)
        add("r", ids(gens), 0.0, INF)
        add("Pw", ids(res), 0.0, cap)
        add("Pk", ids(lines), -limit, limit)
        add("th", ids(buses), th_lb, th_ub)
        # post-contingency, the outaged line carries no flow, a fixed line
        # keeps its emergency limit and a switch candidate's flow is left
        # to eq27
        flow = [np.choose(self.kind, bounds)[:, :, None, None]
                for bounds in ((0.0, -self.emax, -INF), (0.0, self.emax, INF))]
        for cid, flow_lb, flow_ub in zip(self.cids, *flow):
            add("Pgc", ids(gens, cid), 0.0, p_max)
            add("Pwc", ids(res, cid), 0.0, cap)
            add("Pkc", ids(lines, cid), flow_lb, flow_ub)
            add("thc", ids(buses, cid), th_lb, th_ub)
        if self.pairs:
            add("z", self.pairs, 0.0, 1.0, True)
        self.cols = {symbol: cols[0] if len(cols) == 1 else np.concatenate(cols)
                     for symbol, cols in parts.items()}

    # -- base-case generator block: eq2 .. eq10 -----------------------------

    def base_generators(self) -> None:
        """eq2 per unit with a positive floor, then eq3-eq10 per unit."""
        prob, inner, unit, neg = self.prob, self.inner, self.unit, self.neg
        T = self.T
        gens = self.sys.generators
        G = len(gens)
        u, v = self.cols["u"], self.cols["v"]      # (G, T)
        pg, r = self.cols["Pg"], self.cols["r"]    # (G, T, S)
        u3, v3 = u[:, :, None], v[:, :, None]
        u_prev = _previous(u)

        keys = [(g.id,) for g in gens]

        u0 = [1 if g.initial_status.on else 0 for g in gens]
        p0 = [g.initial_dispatch() for g in gens]

        # eq2: p_min u <= Pg, per unit with p_min > 0, period and scenario
        floor = (unit["p_min"][:, 0, 0] > 0).nonzero()[0]
        prob.add_row_block(
            "eq2", [keys[g] for g in floor.tolist()],
            [(u3[floor], unit["p_min"][floor]), (pg[floor], -1.0)],
            -INF, 0.0, inner)

        # per unit, period and scenario:
        # eq3: Pg + r <= p_max u
        # eq4: r <= R10 u (r >= 0 is the variable bound)
        # eq5: total reserve covers this unit's output plus reserve; with the
        #      sum kept over all units, r_g cancels and the row reduces to
        #      sum-of-others >= Pg
        # eq6 / eq7: hourly ramps with startup/shutdown allowances; at t = 1
        #      the previous output and commitment are the initial state, which
        #      moves into the right-hand side
        others = r[np.array([[q for q in range(G) if q != g] for g in range(G)],
                            dtype=np.int64).reshape(G, max(G - 1, 0))]
        pg_prev, u3_prev = _previous(pg), u_prev[:, :, None]
        initial = np.zeros((2, G, T, 1))
        initial[:, :, 0, 0] = [
            [p + g.ramp_hourly * on for g, p, on in zip(gens, p0, u0)],
            [g.ramp_shutdown * on - p for g, p, on in zip(gens, p0, u0)]]
        prob.add_row_block(
            ("eq3", "eq4", "eq5", "eq6", "eq7"), keys, [
                [(pg, 1.0), (r, 1.0), (u3, neg["p_max"])],
                [(r, 1.0), (u3, neg["ramp_10min"])],
                [(others[:, j], 1.0) for j in range(G - 1)] + [(pg, -1.0)],
                [(pg, 1.0), (pg_prev, -1.0), (u3_prev, neg["ramp_hourly"]),
                 (v3, neg["ramp_startup"])],
                [(pg_prev, 1.0), (pg, -1.0),
                 (u3, unit["ramp_shutdown"] - unit["ramp_hourly"]),
                 (v3, neg["ramp_shutdown"]), (u3_prev, neg["ramp_shutdown"])]],
            [-INF, -INF, 0.0, -INF, -INF],
            [0.0, 0.0, INF, initial[0], initial[1]], inner)

        # eq8: startups within the last UT periods imply still committed;
        # eq9: no restart within DT periods after being off at t.  One row
        # per (unit, period) key, the windows padded to the longest
        up = [(i, p, p - g.min_up + 1, g.min_up, -1)
              for i, g in enumerate(gens) for p in range(g.min_up - 1, T)]
        down = [(i, p, p + 1, g.min_down, 1)
                for i, g in enumerate(gens) for p in range(T - g.min_down)]
        cols, coefs = _windows(v, u, up + down)
        for family, rows, at, rhs in (("eq8", up, slice(len(up)), 0.0),
                                      ("eq9", down, slice(len(up), None), 1.0)):
            width = max((n for *_, n, _ in rows), default=-1) + 1
            prob.add_row_block(
                family, [(gens[i].id, p + 1) for i, p, *_ in rows],
                list(zip(cols[:width, at], coefs[:width, at])), -INF, rhs)
        # eq10: startup indicator
        lb10 = np.zeros((G, T))
        lb10[:, 0] = [-float(on) for on in u0]
        prob.add_row_block("eq10", keys,
                           [(v, 1.0), (u, -1.0), (u_prev, 1.0)], lb10, INF,
                           inner[:1])

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
        bus, element, place, coef = self.incidence
        cols = np.empty((len(coef), N, runs, T, S), dtype=np.int32)
        cols.fill(-1)
        cols[place, bus] = np.concatenate(parts, axis=1)[:, element].swapaxes(0, 1)
        demand = self.demand.repeat(runs, axis=0)[:, :, None]
        self.prob.add_row_block(
            family, [(n.id, *sfx) for n in buses for sfx in suffixes],
            list(zip(cols.reshape(-1, N * runs, T, S),
                     coef.repeat(runs, axis=1)[:, :, None, None])),
            demand, demand, self.inner)

    # -- base-case network block: eq14 and eq16 -----------------------------

    def base_network(self) -> None:
        """eq14 per line, then eq16 per bus."""
        pk, th = self.cols["Pk"], self.cols["th"]
        coef = self.b_mw.reshape(-1, 1, 1)
        self.prob.add_row_block(
            "eq14", [(k.id,) for k in self.sys.lines],
            [(pk, 1.0), (th[self.frm], -coef), (th[self.to], coef)],
            0.0, 0.0, self.inner)
        self._balance("eq16", [()], (self.cols["Pg"][None], pk[None],
                                     self.cols["Pw"][None]))

    # -- post-contingency generator block: eq17 .. eq20 ---------------------

    def contingency_generators(self) -> None:
        """eq17 and eq18 per (unit, contingency) where the corrective ramp
        binds, ``ramp_10min < p_max - p_min``, eq19 where ``p_min > 0``,
        then eq20 per (unit, contingency).  The module docstring shows why
        the rows left out are implied."""
        if not self.contingencies:
            return
        unit, neg, gens = self.unit, self.neg, self.sys.generators
        T, S = self.T, self.S
        C = len(self.cids)
        pgc = self.cols["Pgc"].reshape(C, len(gens), T, S)
        pg, u = self.cols["Pg"], self.cols["u"][:, :, None]
        p_min = unit["p_min"][:, 0, 0]

        def runs(units):
            """The (unit, contingency) keys of the unit positions ``units``,
            contingency by contingency, their Pgc columns and a function
            that takes a per-unit array to those runs."""
            keys = [(gens[i].id, cid) for cid in self.cids for i in units.tolist()]
            return (keys, pgc[:, units].reshape(-1, T, S),
                    lambda a: np.tile(a[units], (C, 1, 1)))

        ramp = (unit["ramp_10min"][:, 0, 0] < unit["p_max"][:, 0, 0] - p_min)
        keys, pgc_at, at = runs(ramp.nonzero()[0])
        r10 = at(neg["ramp_10min"])
        self.prob.add_row_block(
            ("eq17", "eq18"), keys,
            [[(at(pg), 1.0), (pgc_at, -1.0), (at(u), r10)],
             [(pgc_at, 1.0), (at(pg), -1.0), (at(u), r10)]],
            [-INF] * 2, [0.0] * 2, self.inner)
        keys, pgc_at, at = runs((p_min > 0).nonzero()[0])
        self.prob.add_row_block(
            "eq19", keys, [(at(u), at(unit["p_min"])), (pgc_at, -1.0)],
            -INF, 0.0, self.inner)
        keys, pgc_at, at = runs(np.arange(len(gens)))
        self.prob.add_row_block(
            "eq20", keys, [(pgc_at, 1.0), (at(u), at(neg["p_max"]))],
            -INF, 0.0, self.inner)

    # -- post-contingency network: eq22 .. eq28 -----------------------------

    def contingency_network(self) -> None:
        """Post-contingency network: eq22 .. eq28.

        Candidate lines get the big-M relaxed flow definition (eq25/eq26)
        and switch-scaled limits (eq27, split into its two one-sided
        halves).  Non-candidate surviving lines behave as if their switch
        state were fixed to 1, which collapses eq25-eq27 to the
        fixed-topology flow definition eq23 and the emergency limit eq24,
        which is the bound of their flow column.  The outaged line acts
        as switch state 0: its flow variable is pinned at registration
        and its flow rows are dropped.  eq28 bounds the number of opened
        candidates per contingency, period and scenario.  SSCUC is this
        network with no candidates, so every surviving line keeps eq23 and
        no eq28 row is written.

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

        frm, to, coef, emax = self.frm, self.to, self.b_mw, self.emax

        def flow_rows(line_kind):
            ci, ki = (self.kind == line_kind).nonzero()
            keys = [(lines[k].id, cids[c]) for c, k in zip(ci.tolist(), ki.tolist())]
            return (ki, keys, pkc[ci, ki], thc[ci, frm[ki]], thc[ci, to[ki]],
                    coef[ki].reshape(-1, 1, 1), emax[ki].reshape(-1, 1, 1))

        _, keys, pk, th_n, th_m, b, _ = flow_rows(1)
        prob.add_row_block("eq23", keys, [(pk, 1.0), (th_n, -b), (th_m, b)],
                           0.0, 0.0, inner)

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
        # the switches of each contingency with candidates, in pair order
        counts = [len(cands) for cands in candidates if cands]
        row = np.repeat(np.arange(len(counts)), counts)
        prob.add_row_block(
            "eq28", [(cid,) for cid, cands in zip(cids, candidates) if cands],
            _padded(row, z_all, np.ones((row.size, 1, 1)), len(counts)),
            np.array(counts, dtype=float).reshape(-1, 1, 1) - cfg.switch_limit,
            INF, inner)

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
