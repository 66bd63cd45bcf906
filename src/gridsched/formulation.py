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
line ends, bus incidence, demand, the units each redispatch family
covers and the column boxes every copy starts from).  ``first_stage``
then appends the first stage and the base case, and ``copy`` appends
one contingency's post-contingency copy as one unit, once per
contingency in input order.  Each works on whole grids (see
``milp.Block``): one column block per symbol and one row block per
equation family, filled by numpy index arithmetic over the (g,t,s) grid.

The first stage is columns u, v, Pg, r, Pw, Pk and th, rows eq2, eq3,
eq4, eq5, eq6, eq7, eq8, eq9, eq10, eq14 and eq16, then the cost terms.
A copy is columns Pgc, Pwc, Pkc and thc, then z where it has switch
candidates; rows eq17, eq18, eq19, eq20, eq22, eq23, then where it has
candidates eq25, eq26, eq27L, eq27U and eq28; then its penalty terms.
Each family's rows are contiguous within the first stage or the copy,
key by key in the order the builder lists the keys, each key's rows over
(t, s).  ``assemble`` records each copy on the problem (``milp.Copy``):
its column and row ranges, its share of the penalty constant and its
no-redispatch point (``_DcFlow``), which the solver's copy generation
reads.

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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .milp import INF, Copy, MilpProblem
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


class _DcFlow:
    """What a copy's no-redispatch point needs of the model, and nothing
    that refers back to it: the first stage's ``Pg`` and ``Pw`` columns,
    the buses' units, RES units and demand, and the lines.

    At that point every unit and RES unit keeps its first-stage output
    (``Pgc = Pg``, ``Pwc = Pw``), every switch is closed and the flows and
    angles are the DC power flow of the network without the outaged line.
    When that network's matrix is singular (an island), the angles and
    flows are NaN, which no row accepts.  The matrices are made on the
    first call: a model that is never screened does not pay for them.
    """

    def __init__(self, pg: np.ndarray, pw: np.ndarray, gen_bus: np.ndarray,
                 res_bus: np.ndarray, demand: np.ndarray, frm: np.ndarray,
                 to: np.ndarray, b_mw: np.ndarray, ref: int) -> None:
        self.pg, self.pw, self.b_mw = pg, pw, b_mw
        self.data = (gen_bus, res_bus, demand, frm, to, ref)
        self.matrices = None

    def _matrices(self) -> tuple[np.ndarray, ...]:
        """Over the buses but the reference: each line's ends, each bus's
        units and RES units, and the demand per (bus, t, s)."""
        gen_bus, res_bus, demand, frm, to, ref = self.data
        N = demand.shape[0]
        free = np.delete(np.arange(N), ref)
        ends = np.zeros((len(frm), N))
        ends[np.arange(len(frm)), frm] = 1.0
        ends[np.arange(len(to)), to] = -1.0
        units, res = np.zeros((N, len(gen_bus))), np.zeros((N, len(res_bus)))
        for at, bus in ((units, gen_bus), (res, res_bus)):
            placed = (bus >= 0).nonzero()[0]
            at[bus[placed], placed] = 1.0
        shape = (N,) + self.pg.shape[1:]
        load = np.broadcast_to(demand, shape).reshape(N, -1)
        self.matrices = (free, ends[:, free], units[free], res[free], load[free])
        return self.matrices

    def point(self, x: np.ndarray, out: int, switches: int) -> np.ndarray:
        """The copy's columns Pgc, Pwc, Pkc, thc and its ``switches`` z
        columns, in that order, with line ``out`` outaged."""
        free, ends, units, res, load = self.matrices or self._matrices()
        grid = load.shape[1]  # (t, s) pairs
        pg, pw = x[self.pg].reshape(-1, grid), x[self.pw].reshape(-1, grid)
        b = self.b_mw.copy()
        b[out] = 0.0  # the outaged line carries nothing
        theta = np.zeros((len(free) + 1, grid))
        try:
            theta[free] = np.linalg.solve((ends.T * b) @ ends,
                                          units @ pg + res @ pw - load)
        except np.linalg.LinAlgError:
            theta[free] = np.nan
        flow = b[:, None] * (ends @ theta[free])
        return np.concatenate((pg.reshape(-1), pw.reshape(-1), flow.reshape(-1),
                               theta.reshape(-1), np.ones(switches * grid)))


# the unit parameters the rows and the objective read
_UNIT_PARAMS = ("p_min", "p_max", "ramp_10min", "ramp_hourly", "ramp_startup",
                "ramp_shutdown", "cost_no_load", "cost_startup", "cost_linear")


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------

class _Builder:
    """One model under construction, and the facts of the system it is
    built from, each derived once.  ``assemble`` calls ``first_stage``
    once, then ``copy`` once per contingency; each appends its columns,
    rows and objective terms to ``prob``."""

    def __init__(self, sys: PowerSystem, scen: ScenarioSet,
                 cfg: FormulationConfig) -> None:
        self.sys, self.cfg = sys, cfg
        self.prob = MilpProblem()
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
        gens, lines, buses = sys.generators, sys.lines, sys.buses
        table = np.array([[getattr(g, a) for a in _UNIT_PARAMS] for g in gens],
                         dtype=float).reshape(len(gens), len(_UNIT_PARAMS))
        table = table.T[:, :, None, None]
        unit = self.unit = dict(zip(_UNIT_PARAMS, table))
        self.neg = dict(zip(_UNIT_PARAMS, -table))  # and negated
        # the element ids the keys are made of
        self.ids = {symbol: [e.id for e in items] for symbol, items in (
            ("g", gens), ("w", sys.res_units), ("k", lines), ("n", buses))}
        # the units of eq2 and eq19, with a positive floor, and of eq17 and
        # eq18, whose corrective ramp binds (``ramp_10min < p_max - p_min``)
        p_min = unit["p_min"][:, 0, 0]
        self.floor = (p_min > 0).nonzero()[0]
        self.ramp = (unit["ramp_10min"][:, 0, 0]
                     < unit["p_max"][:, 0, 0] - p_min).nonzero()[0]

        # bus positions of every line's two ends, which must differ, its
        # flow per radian of angle difference, its emergency limit and its
        # big-M
        bus_at = {b.id: i for i, b in enumerate(buses)}
        self.line_at = {k.id: i for i, k in enumerate(lines)}
        ends = np.array([(bus_at[k.from_bus], bus_at[k.to_bus]) for k in lines],
                        dtype=np.int64).reshape(-1, 2)
        loops = (ends[:, 0] == ends[:, 1]).nonzero()[0]
        if loops.size:
            raise ValueError(f"line {lines[loops[0]].id!r}: endpoints must differ")
        self.frm, self.to = ends[:, 0], ends[:, 1]
        self.b_mw = np.array([k.susceptance * sys.mva_base for k in lines],
                             dtype=float)
        self.emax = np.array([k.limit_emergency for k in lines], dtype=float)
        self.big_m = np.array([compute_big_m(k, cfg, sys.mva_base) for k in lines],
                              dtype=float)
        # the angle box of every bus, the reference bus's pinned at 0
        ref = reference_bus(sys, cfg)
        self.th_box = tuple(_per([0.0 if n.id == ref else sign * cfg.angle_bound
                                  for n in buses]) for sign in (-1.0, 1.0))
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
        self.incidence = (bus, element, place, coef[:, :, None, None])
        self.demand = np.array([[sys.demand.at(n.id, t) for t in periods]
                                for n in buses], dtype=float).reshape(-1, T, 1)
        # each copy's curtailment penalty, pi * c_pen * (avail - Pwc): the
        # coefficient of each Pwc column and the constant's terms, in
        # (w, t, s) order
        weight = self.pi * _per([w.curtail_penalty for w in sys.res_units])
        self.penalty = (np.broadcast_to(-weight, self.avail.shape).ravel(),
                        (weight * self.avail).ravel())
        # each copy's share of the constant, summed in (w, t, s) order
        self.penalty_share = float(np.add.accumulate(
            np.concatenate(([0.0], self.penalty[1])))[-1])
        # the bus of every unit and RES unit (-1: none) and the reference
        # bus, for the copies' no-redispatch point
        self.buses = tuple(
            np.array([bus_at.get(e.bus_id, -1) for e in items], dtype=np.int64)
            for items in (gens, sys.res_units)) + (bus_at[ref],)

    def _add(self, symbol: str, ids: list, suffix: tuple, lb, ub,
             integer: bool = False, axes: tuple | None = None) -> np.ndarray:
        """Append a column block keyed ``(id, *suffix)`` per id."""
        return self.prob.add_col_block(
            symbol, [(i, *suffix) for i in ids], lb, ub, integer,
            self.inner if axes is None else axes)

    # -- first stage --------------------------------------------------------

    def first_stage(self) -> None:
        """Columns u, v, Pg, r, Pw, Pk and th, with their natural bounds
        and the long-term line limit and RES availability among them;
        rows eq2-eq10, eq14 and eq16; then the cost terms.  ``cols`` keeps
        each symbol's columns, shaped (keys, *inner)."""
        ids, add, inner = self.ids, self._add, self.inner
        limit = _per([k.limit_long_term for k in self.sys.lines])
        self.cols = {
            "u": add("u", ids["g"], (), 0.0, 1.0, True, inner[:1]),
            "v": add("v", ids["g"], (), 0.0, 1.0, True, inner[:1]),
            "Pg": add("Pg", ids["g"], (), 0.0, self.unit["p_max"]),
            "r": add("r", ids["g"], (), 0.0, INF),
            "Pw": add("Pw", ids["w"], (), 0.0, self.avail),
            "Pk": add("Pk", ids["k"], (), -limit, limit),
            "th": add("th", ids["n"], (), *self.th_box)}
        self._generators()
        pk, th = self.cols["Pk"], self.cols["th"]
        b = self.b_mw.reshape(-1, 1, 1)
        self.prob.add_row_block(
            "eq14", [(k,) for k in ids["k"]],
            [(pk, 1.0), (th[self.frm], -b), (th[self.to], b)], 0.0, 0.0, inner)
        self._balance("eq16", (), (self.cols["Pg"], pk, self.cols["Pw"]))
        # eq1's first-stage part, per unit and period: commitment, startup,
        # then the expected energy cost of Pg in every scenario
        u, v, pg = self.cols["u"], self.cols["v"], self.cols["Pg"]
        G, T, S = pg.shape
        cols = np.empty((G, T, 2 + S), dtype=np.int64)
        coefs = np.empty((G, T, 2 + S))
        cols[..., 0], cols[..., 1], cols[..., 2:] = u, v, pg
        coefs[..., :1] = self.unit["cost_no_load"]
        coefs[..., 1:2] = self.unit["cost_startup"]
        coefs[..., 2:] = self.pi * self.unit["cost_linear"]
        self.prob.add_objective(cols, coefs)
        gen_bus, res_bus, ref = self.buses
        self.dc_flow = _DcFlow(pg, self.cols["Pw"], gen_bus, res_bus,
                               self.demand, self.frm, self.to, self.b_mw, ref)

    def _generators(self) -> None:
        """eq2 per unit with a positive floor, then eq3-eq10 per unit."""
        prob, inner, unit, neg = self.prob, self.inner, self.unit, self.neg
        T = self.T
        gens = self.sys.generators
        G = len(gens)
        u, v = self.cols["u"], self.cols["v"]      # (G, T)
        pg, r = self.cols["Pg"], self.cols["r"]    # (G, T, S)
        u3, v3 = u[:, :, None], v[:, :, None]
        u_prev = _previous(u)

        keys = [(g,) for g in self.ids["g"]]

        u0 = [1 if g.initial_status.on else 0 for g in gens]
        p0 = [g.initial_dispatch() for g in gens]

        # eq2: p_min u <= Pg, per unit with p_min > 0, period and scenario
        floor = self.floor
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

    def _balance(self, family: str, suffix: tuple,
                 parts: tuple[np.ndarray, ...]) -> None:
        """Balance rows bus by bus, keyed ``(bus id, *suffix)``: generation,
        inbound flow minus outbound flow, and RES output meet the demand.
        ``parts`` holds the unit, line and RES unit columns, each shaped
        (elements, t, s)."""
        bus, element, place, coef = self.incidence
        cols = np.empty(coef.shape[:2] + (self.T, self.S), dtype=np.int32)
        cols.fill(-1)
        cols[place, bus] = np.concatenate(parts)[element]
        self.prob.add_row_block(
            family, [(n, *suffix) for n in self.ids["n"]],
            list(zip(cols, coef)), self.demand, self.demand, self.inner)

    # -- one post-contingency copy ------------------------------------------

    def copy(self, contingency: Contingency) -> None:
        """Append the copy of one contingency as one unit: columns Pgc,
        Pwc, Pkc and thc, then under CNR z per switch candidate; rows eq17
        and eq18 per unit whose corrective ramp binds, eq19 per unit with
        ``p_min > 0``, eq20 per unit, eq22 per bus and eq23 per fixed line,
        then for the candidates eq25-eq27 and eq28; then the penalty on
        its curtailment.

        Candidate lines get the big-M relaxed flow definition (eq25/eq26)
        and switch-scaled limits (eq27, split into its two one-sided
        halves).  Other surviving lines behave as if their switch state
        were fixed to 1, which collapses eq25-eq27 to the fixed-topology
        flow definition eq23 and the emergency limit eq24, the bounds of
        their flow columns.  The outaged line acts as switch state 0: its
        flow column is pinned at 0 and it has no flow row.  eq28 bounds
        the number of opened candidates per period and scenario.  SSCUC
        is this copy with no candidates.  A contingency that names no
        line, an unknown candidate or the outaged line as its own
        candidate raises KeyError.
        """
        cid = contingency.outaged_line_id
        cands = (contingency.candidate_switch_ids
                 if self.cfg.model_kind is ModelKind.SSCUC_CNR else ())
        line_at = self.line_at
        if cid not in line_at:
            raise KeyError(f"contingency {cid!r}: outaged line not in system")
        unknown = set(cands) - line_at.keys()
        if unknown:
            raise KeyError(f"contingency {cid!r}: unknown candidate lines "
                           f"{sorted(map(str, unknown))}")
        if cid in cands:
            raise KeyError(f"contingency {cid!r}: the outaged line cannot be "
                           f"a switch candidate")
        twice = sorted({str(k) for k in cands if cands.count(k) > 1})
        if twice:
            raise KeyError(f"contingency {cid!r}: candidate lines {twice} "
                           f"listed twice")
        prob, inner, ids, add = self.prob, self.inner, self.ids, self._add
        if any(done.name == cid for done in prob.copies):
            raise KeyError(f"contingency {cid!r}: line {cid!r} has a copy "
                           f"already")
        first_col, first_row = prob.num_vars, prob.num_rows
        unit, neg, ramp, floor = self.unit, self.neg, self.ramp, self.floor
        out = line_at[cid]
        cand = np.array([line_at[k] for k in cands], dtype=np.int64)
        # the outaged line carries no flow, a fixed line keeps its
        # emergency limit and a candidate's flow is left to eq27
        flow_lb, flow_ub = -self.emax, self.emax.copy()
        flow_lb[out] = flow_ub[out] = 0.0
        flow_lb[cand], flow_ub[cand] = -INF, INF
        sfx = (cid,)
        pgc = add("Pgc", ids["g"], sfx, 0.0, unit["p_max"])
        pwc = add("Pwc", ids["w"], sfx, 0.0, self.avail)
        pkc = add("Pkc", ids["k"], sfx, flow_lb[:, None, None],
                  flow_ub[:, None, None])
        thc = add("thc", ids["n"], sfx, *self.th_box)
        z = prob.add_col_block("z", [(cid, k) for k in cands], 0.0, 1.0, True,
                               inner) if cands else None

        def keys(elements, at=None):
            return [(elements[i], cid) for i in
                    (range(len(elements)) if at is None else at.tolist())]

        pg, u = self.cols["Pg"], self.cols["u"][:, :, None]
        r10 = neg["ramp_10min"][ramp]
        prob.add_row_block(
            ("eq17", "eq18"), keys(ids["g"], ramp),
            [[(pg[ramp], 1.0), (pgc[ramp], -1.0), (u[ramp], r10)],
             [(pgc[ramp], 1.0), (pg[ramp], -1.0), (u[ramp], r10)]],
            [-INF] * 2, [0.0] * 2, inner)
        prob.add_row_block(
            "eq19", keys(ids["g"], floor),
            [(u[floor], unit["p_min"][floor]), (pgc[floor], -1.0)],
            -INF, 0.0, inner)
        prob.add_row_block("eq20", keys(ids["g"]),
                           [(pgc, 1.0), (u, neg["p_max"])], -INF, 0.0, inner)
        self._balance("eq22", sfx, (pgc, pkc, pwc))

        def flow(at):
            b = self.b_mw[at, None, None]
            return [(pkc[at], 1.0), (thc[self.frm[at]], -b), (thc[self.to[at]], b)]

        fixed = np.delete(np.arange(len(ids["k"])), np.append(cand, out))
        prob.add_row_block("eq23", keys(ids["k"], fixed), flow(fixed),
                           0.0, 0.0, inner)
        if cands:
            big_m = self.big_m[cand, None, None]
            e = self.emax[cand, None, None]
            flows, pk = flow(cand), pkc[cand]
            # eq25: Pk - b(th_n - th_m) + (1 - z) M >= 0
            # eq26: Pk - b(th_n - th_m) - (1 - z) M <= 0
            # eq27: -emax z <= Pk <= emax z, as its two one-sided halves
            prob.add_row_block(
                ("eq25", "eq26", "eq27L", "eq27U"), keys(ids["k"], cand),
                [flows + [(z, -big_m)], flows + [(z, big_m)],
                 [(pk, 1.0), (z, e)], [(pk, 1.0), (z, -e)]],
                [-big_m, -INF, 0.0, -INF], [INF, big_m, INF, 0.0], inner)
            prob.add_row_block("eq28", [sfx], [(col, 1.0) for col in z],
                               float(len(cands) - self.cfg.switch_limit),
                               INF, inner)
        share = 0.0
        if self.cfg.penalty_enabled:
            # the constant is added term by term in (w, t, s) order
            coefs, constant = self.penalty
            terms = np.concatenate(([prob.objective_constant], constant))
            prob.objective_constant = float(np.add.accumulate(terms)[-1])
            prob.add_objective(pwc, coefs)
            share = self.penalty_share
        prob.copies.append(Copy(
            cid, slice(first_col, prob.num_vars),
            slice(first_row, prob.num_rows), share,
            functools.partial(self.dc_flow.point, out=out,
                              switches=len(cands))))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble(sys: PowerSystem, scen: ScenarioSet,
             contingencies: list[Contingency],
             cfg: FormulationConfig) -> MilpProblem:
    """Build the full problem for the configured model kind: the first
    stage, then one copy per contingency, in input order."""
    scen.check()
    model = _Builder(sys, scen, cfg)
    model.first_stage()
    for contingency in contingencies:
        model.copy(contingency)
    model.prob.check()
    return model.prob
