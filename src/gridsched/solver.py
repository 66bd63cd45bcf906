"""MILP solve contract over HiGHS.

``solve`` hands HiGHS a ``MilpProblem``'s arrays, its rows as the cached
CSR arrays, and checks what comes back: integer columns must be integral
and the point must satisfy every row and bound; a NaN fails.
``solve_relaxation`` does the same for the LP relaxation, with no
integrality check.  A failure of HiGHS itself raises ``EngineError``; a
point that fails the checks raises ``SolverError``.

HiGHS is reached through scipy's bundled bindings.  One loader,
``_Engine``, passes the arrays to a HiGHS instance, the rows row-wise,
with the objective constant as HiGHS's objective offset and the options
scipy's ``milp`` sets, but for one: HiGHS's feasibility-jump heuristic
is off, because on a tiny MILP it takes several times as long as the
rest of the solve.  One table maps HiGHS's model statuses to
``SolveStatus``; any other status, ``kModelError`` among them, raises
``EngineError``.  The bindings are checked, and the table built, once
per loaded bindings module, not once per instance.  The model's bounds choose the route:

- A problem whose integer columns are all fixed (``lb == ub``) is an LP,
  like each of the exhaustive oracle's fixed-binary clones.  It goes to
  one instance per model, kept with the cached CSR arrays, which
  ``clone_with_bounds`` copies share.  A solve passes only the column
  bounds that differ from the ones the instance last saw, and HiGHS's
  dual simplex restarts from the last basis.  ``solve_relaxation`` runs
  any problem on that instance, which holds no integrality, so it solves
  the LP relaxation over the problem's bounds.
- Every other problem is solved by contingency-copy generation over the
  model's ``copies`` (``milp.Copy``).  Round k hands HiGHS a master: the
  model without the copies left out so far, its rows and columns sliced
  from the CSR arrays (with every copy left out, a prefix of them) and
  the constant of the copies it holds.  Round 1 leaves out every copy,
  and a problem with no copies solves in one round, as itself.  At the
  master's point each left-out copy is first screened at its
  no-redispatch point (``Copy.point``); one that violates a row or a
  bound there, or pays a penalty, gets an LP of its own over its
  columns, with the first stage and its switches fixed.  A left-out copy
  only removes rows and a non-negative penalty, so the master's dual
  bound is a lower bound on the model, and the master's point with each
  copy's checked values is a point of the whole model, whose objective
  is an upper bound.  The loop stops when the two are within the gap,
  relative to max(1, |upper bound|); otherwise it adds every copy that
  is infeasible there and, largest first, the copies whose penalty keeps
  the gap open, and solves again.  The whole model's best point then
  gets the post-solve check, over every row.  The time limit is one
  budget for every round; no round starts after it is spent, and a stop
  returns ``TIME_LIMIT`` with the best lower bound and, when a whole
  point was found, that point.  Every HiGHS run of the loop, masters
  and copy LPs, goes through ``milp``, which loads a new instance per
  call: the benchmark under ``perfbench/`` traces
  ``gridsched.solver.milp`` by name as the engine.

The bindings are private to scipy; ``_highs_bindings`` loads the one
extension module that holds them from scipy's files, without importing
the ``scipy.optimize`` package, checks them and fails with
``EngineError`` naming scipy's version.  HiGHS runs with its fixed
default random seed; ``SolveOptions.deterministic_seed`` is accepted but
not passed to it, so the search path does not vary with that seed.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .milp import Copy, MilpProblem

INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-6  # scaled row violation accepted from the engine
GAP_TOL = 1e-9  # a relative gap up to this is none

_BINDINGS = "scipy.optimize._highspy._core"
_BINDING_NAMES = ("_Highs", "HighsModelStatus", "HighsStatus", "MatrixFormat",
                  "ObjSense", "kHighsInf")
_HIGHS_METHODS = ("passModel", "changeColsBounds", "setOptionValue", "run",
                  "getModelStatus", "getInfoValue", "getSolution",
                  "modelStatusToString")


class SolverError(RuntimeError):
    """The solve failed, or its result failed the post-solve checks."""


class EngineError(SolverError):
    """HiGHS itself failed (error status, rejected model or option, or
    success without a point)."""


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE_WITHIN_GAP = "feasible-within-gap"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time-limit"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE_WITHIN_GAP)


# HiGHS's model statuses that answer a model; any other is an engine failure
_STATUSES = {"kOptimal": SolveStatus.OPTIMAL,
             "kInfeasible": SolveStatus.INFEASIBLE,
             "kUnbounded": SolveStatus.UNBOUNDED,
             "kTimeLimit": SolveStatus.TIME_LIMIT,
             "kIterationLimit": SolveStatus.TIME_LIMIT}
# the bindings module last checked, and its model statuses as ``_STATUSES``
# maps them: both change only when another module is loaded
_checked: tuple = (None, {})


@dataclass(frozen=True)
class SolveOptions:
    mip_gap: float = 0.01
    time_limit: float | None = None
    # read by nothing: kept because the benchmark under perfbench/ passes it
    deterministic_seed: int = 0

    def __post_init__(self) -> None:
        # HiGHS accepts a NaN gap and drops a negative time limit
        if not (math.isfinite(self.mip_gap) and self.mip_gap >= 0):
            raise ValueError(f"mip_gap must be finite and >= 0, "
                             f"got {self.mip_gap}")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"time_limit must be None or >= 0, "
                             f"got {self.time_limit}")


@dataclass
class SolveResult:
    status: SolveStatus
    objective: float = math.nan
    best_bound: float = math.nan
    x: np.ndarray | None = None
    message: str = ""
    nodes: int | None = None  # branch-and-bound nodes, summed over the masters
    mip_gap: float | None = None  # the certified relative gap of the point
    rounds: int | None = None  # masters solved; None on the LP route
    kept: tuple = ()  # the contingencies whose copies the last master held


@dataclass
class EngineResult:
    """One engine run; its statistics keep the names ``perfbench/`` reads."""
    status: SolveStatus
    message: str
    x: np.ndarray | None = None
    mip_node_count: int | None = None
    mip_gap: float | None = None
    mip_dual_bound: float | None = None


def solve(prob: MilpProblem, opts: SolveOptions | None = None) -> SolveResult:
    """Solve the problem with HiGHS."""
    opts = opts or SolveOptions()
    _check_input(prob)
    cols = prob.integer.nonzero()[0]
    if (prob.lb[cols] == prob.ub[cols]).all():
        res = _lp_engine(prob).solve(prob, opts.time_limit)
        return _checked_result(prob, res, cols)
    return _generate(prob, opts, cols)


def solve_relaxation(prob: MilpProblem) -> SolveResult:
    """Solve the problem's LP relaxation with HiGHS: every column keeps its
    bounds and no column is integer.

    It runs on the model's LP instance, as a fixed-binary solve does, with
    no time limit, and its point gets the same row and bound check; there
    is no integrality check, and an optimal relaxation's ``best_bound`` is
    its objective.
    """
    _check_input(prob)
    res = _lp_engine(prob).solve(prob, None)
    return _checked_result(prob, res, np.empty(0, dtype=np.intp))


def _check_input(prob: MilpProblem) -> None:
    prob.check()
    if prob.num_vars == 0:
        raise SolverError("malformed problem: no variables")


def _lp_engine(prob: MilpProblem) -> "_HighsLp":
    """The model's one LP instance, kept with its cached CSR arrays."""
    return prob.shared("highs-lp", lambda: _HighsLp(prob))


def _checked_result(prob: MilpProblem, res: EngineResult,
                    cols: np.ndarray) -> SolveResult:
    """The engine's result as a ``SolveResult``, after the post-solve
    checks: the integer columns ``cols`` must be integral (then they are
    rounded) and the point must satisfy every row and bound."""
    stats = {"message": res.message, "nodes": res.mip_node_count,
             "mip_gap": res.mip_gap}
    if res.x is None:  # the engine sets a point only on OPTIMAL or TIME_LIMIT
        if res.status is SolveStatus.OPTIMAL:
            raise EngineError(f"engine failure: {res.message}")
        return SolveResult(res.status, **stats)

    x = _rounded(prob, np.array(res.x, dtype=float), cols)
    objective = prob.objective_value(x)
    best_bound = (float(res.mip_dual_bound)  # an LP's bound is its objective
                  if cols.size and res.mip_dual_bound is not None else objective)
    gap = abs(objective - best_bound) / max(1.0, abs(objective))
    status = (SolveStatus.TIME_LIMIT if res.status is SolveStatus.TIME_LIMIT
              else SolveStatus.FEASIBLE_WITHIN_GAP if gap > GAP_TOL
              else SolveStatus.OPTIMAL)

    viol, where = prob.max_violation(x, scaled=True)
    if viol > FEASIBILITY_TOL:
        raise SolverError(
            f"engine returned an infeasible point: violation {viol:.3g} at {where}")

    return SolveResult(status=status, objective=objective, best_bound=best_bound,
                       x=x, **stats)


def _rounded(prob: MilpProblem, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``x`` with its integer columns ``cols`` rounded, which must already
    be integral up to tolerance."""
    rounded = x[cols].round() + 0.0  # + 0.0 turns -0.0 into 0.0
    residual = np.abs(x[cols] - rounded)
    bad = (~(residual <= INTEGRALITY_TOL)).nonzero()[0]  # NaN is bad too
    if bad.size:
        raise SolverError(
            f"integrality residual {residual[bad[0]]:.3g} on "
            f"{prob.var_name(cols[bad[0]])} exceeds {INTEGRALITY_TOL}")
    x[cols] = rounded
    return x


# -- contingency-copy generation (module docstring) --------------------------

def _generate(prob: MilpProblem, opts: SolveOptions,
              cols: np.ndarray) -> SolveResult:
    """Solve a MILP round by round, each round's master holding the
    copies found binding so far."""
    started = time.perf_counter()

    def left() -> float | None:  # of the time budget
        if opts.time_limit is None:
            return None
        return max(0.0, opts.time_limit - (time.perf_counter() - started))

    # the copies the master leaves out: all but those a row outside every
    # copy reads
    coupled = _coupled(prob)
    gone = [c for i, c in enumerate(prob.copies) if i not in coupled]
    bound, best, nodes, rounds = -math.inf, None, None, 0
    while True:
        rounds += 1
        master, where = _master(prob, gone)
        res = milp(**master, mip_rel_gap=opts.mip_gap, time_limit=left())
        if res.x is None and res.status is SolveStatus.OPTIMAL:
            raise EngineError(f"engine failure: {res.message}")
        if res.mip_node_count is not None:
            nodes = (nodes or 0) + res.mip_node_count
        if res.mip_dual_bound is not None:
            bound = max(bound, res.mip_dual_bound)
        status, add = res.status, []
        if res.x is not None:
            x = np.zeros(prob.num_vars)
            x[where] = res.x
            costs = _check_copies(prob, _rounded(prob, x, cols), gone, left)
            add = [c for c, cost in zip(gone, costs) if cost is None]
            if not add:  # x is a point of the whole model
                objective = prob.objective_value(x)
                if best is None or objective < best[0]:
                    best = (objective, x)
                scale = max(1.0, abs(objective))
                add = _gap_keepers(gone, costs, objective - bound
                                   - (opts.mip_gap + GAP_TOL) * scale,
                                   GAP_TOL * scale)
        if status is not SolveStatus.OPTIMAL or not add:
            break
        if left() == 0.0:
            status = SolveStatus.TIME_LIMIT
            break
        gone = [c for c in gone if c not in add]

    kept = tuple(c.name for c in prob.copies if c not in gone)
    if best is None:
        return SolveResult(status, best_bound=bound if bound > -math.inf
                           else math.nan, message=res.message, nodes=nodes,
                           rounds=rounds, kept=kept)
    objective, x = best
    gap = (abs(objective - bound) / max(1.0, abs(objective))
           if bound > -math.inf else None)
    result = _checked_result(prob, EngineResult(
        status, res.message, x, nodes, gap,
        bound if bound > -math.inf else None), cols)
    result.rounds, result.kept = rounds, kept
    return result


def _master(prob: MilpProblem, gone: list[Copy]) -> tuple[dict, slice | np.ndarray]:
    """The engine input of the model without the copies ``gone``, as
    ``milp`` takes it, and where the master's columns sit in the model.

    When the copies gone end the model, in columns and in rows, as they
    do in round 1 and with none gone, every array is a prefix view of the
    model's, which costs nothing where the mask takes milliseconds on a
    full-day model; otherwise a mask picks the rows and renumbers the
    columns.
    """
    indptr, indices, data, lo, hi = prob.matrix()
    c, integer = prob.objective_vector(), prob.integer
    lb, ub = prob.lb, prob.ub
    n, m = c.size, lo.size
    offset = prob.objective_constant
    for copy in gone:
        offset -= copy.constant
    if _suffix(prob, gone):
        n = min((g.cols.start for g in gone), default=n)
        m = min((g.rows.start for g in gone), default=m)
        where = slice(0, n)
        end = indptr[m]
        indptr, indices, data = indptr[:m + 1], indices[:end], data[:end]
        lo, hi = lo[:m], hi[:m]
    else:
        where = np.ones(n, dtype=bool)
        rows = np.ones(m, dtype=bool)
        for copy in gone:
            where[copy.cols] = False
            rows[copy.rows] = False
        number = np.cumsum(where, dtype=indices.dtype) - 1
        number[~where] = -1
        counts = np.diff(indptr)
        terms = np.repeat(rows, counts)
        indices, data = number[indices[terms]], data[terms]
        indptr = np.concatenate(([0], np.cumsum(counts[rows])))
        lo, hi = lo[rows], hi[rows]
    return ({"c": c[where], "offset": offset,
             "integrality": integer[where].astype(np.int32),
             "col_lower": lb[where], "col_upper": ub[where],
             "A": (indptr, indices, data), "row_lower": lo, "row_upper": hi},
            where)


def _suffix(prob: MilpProblem, copies: list[Copy]) -> bool:
    """Whether the copies, which never overlap, together make up the last
    columns and the last rows of the model; no copies make up none."""
    n, m = prob.num_vars, prob.num_rows
    return (sum(c.cols.stop - c.cols.start for c in copies)
            == n - min((c.cols.start for c in copies), default=n)
            and sum(c.rows.stop - c.rows.start for c in copies)
            == m - min((c.rows.start for c in copies), default=m))


def _coupled(prob: MilpProblem) -> set[int]:
    """The positions in ``prob.copies`` of the copies whose columns a row
    outside every copy reads, such as a row added after ``assemble``:
    every master keeps them."""
    copies = prob.copies
    if not copies:
        return set()
    indptr, indices = prob.matrix()[:2]
    if _suffix(prob, copies):
        end = indptr[min(copy.rows.start for copy in copies)]
        if not (end and np.maximum.reduce(indices[:end])
                >= min(copy.cols.start for copy in copies)):
            return set()  # the first-stage rows come first and read no copy
    outside = np.ones(prob.num_rows, dtype=bool)
    for copy in copies:
        outside[copy.rows] = False
    read = np.unique(indices[np.repeat(outside, np.diff(indptr))])
    starts = np.array([copy.cols.start for copy in copies])
    stops = np.array([copy.cols.stop for copy in copies])
    at = np.searchsorted(starts, read, side="right") - 1
    inside = (at >= 0) & (read < stops[at.clip(0)])
    return set(at[inside].tolist())


def _check_copies(prob: MilpProblem, x: np.ndarray, gone: list[Copy],
                  left) -> list[float | None]:
    """Fill each left-out copy's columns of ``x`` from the first stage in
    ``x``, and return each copy's penalty there, or None when no checked
    values were found: the no-redispatch point when it meets every row and
    bound of the copy and pays no penalty, else the optimum of the copy's
    LP."""
    for copy in gone:
        x[copy.cols] = copy.point(x)
    rows, bounds = prob.violations(x)
    c = prob.objective_vector()
    costs = []
    for copy in gone:
        cost = float(c[copy.cols] @ x[copy.cols]) + copy.constant
        if (max(rows[copy.rows].max(initial=0.0),
                bounds[copy.cols].max(initial=0.0)) > FEASIBILITY_TOL
                or cost > FEASIBILITY_TOL * max(1.0, abs(copy.constant))):
            cost = _copy_lp(prob, x, copy, left())
        costs.append(cost)
    return costs


def _copy_lp(prob: MilpProblem, x: np.ndarray, copy: Copy,
             time_limit: float | None) -> float | None:
    """The least penalty of a copy with the rest of ``x`` fixed, its
    integer columns at their values in ``x`` within their bounds: an LP
    over the copy's columns and rows, the fixed columns' terms moved into
    the row bounds.  On an optimum its values go into ``x``; otherwise
    None."""
    indptr, indices, data, lo, hi = prob.matrix()
    r0, r1 = copy.rows.start, copy.rows.stop
    c0, c1 = copy.cols.start, copy.cols.stop
    terms = slice(indptr[r0], indptr[r1])
    col, val = indices[terms], data[terms]
    row = np.repeat(np.arange(r1 - r0), np.diff(indptr[r0:r1 + 1]))
    own = (col >= c0) & (col < c1)
    fixed = np.bincount(row[~own], weights=val[~own] * x[col[~own]],
                        minlength=r1 - r0)
    lower, upper = prob.lb[copy.cols].copy(), prob.ub[copy.cols].copy()
    integer = prob.integer[copy.cols]
    lower[integer] = upper[integer] = np.clip(x[copy.cols][integer],
                                              lower[integer], upper[integer])
    res = milp(c=prob.objective_vector()[copy.cols], offset=copy.constant,
               integrality=np.zeros(c1 - c0, dtype=np.int32),
               col_lower=lower, col_upper=upper,
               A=(np.concatenate(([0], np.cumsum(np.bincount(
                   row[own], minlength=r1 - r0)))), col[own] - c0, val[own]),
               row_lower=lo[r0:r1] - fixed, row_upper=hi[r0:r1] - fixed,
               mip_rel_gap=0.0, time_limit=time_limit)
    if res.status is not SolveStatus.OPTIMAL or res.x is None:
        return None
    x[copy.cols] = res.x
    return float(prob.objective_vector()[copy.cols] @ res.x) + copy.constant


def _gap_keepers(gone: list[Copy], costs: list[float], excess: float,
                 tiny: float) -> list[Copy]:
    """The copies to add so that their penalties, largest first, cover
    ``excess``, the amount by which the gap is open; none when it is
    closed.  A penalty up to ``tiny`` is rounding, and never added."""
    add = []
    for i in sorted(range(len(gone)), key=lambda i: -costs[i]):
        if not excess > 0.0 or not costs[i] > tiny:
            break
        add.append(gone[i])
        excess -= costs[i]
    return add


def milp(*, c, offset: float, integrality, col_lower, col_upper, A, row_lower,
         row_upper, mip_rel_gap: float, time_limit: float | None
         ) -> EngineResult:
    """Minimise ``c @ x + offset`` over ``row_lower <= A @ x <= row_upper``
    (``A`` the CSR triple indptr, indices, data) and the column bounds,
    with ``integrality`` 1 on integer columns, on a new HiGHS instance."""
    engine = _Engine(c, offset, integrality, col_lower, col_upper, A,
                     row_lower, row_upper)
    engine.set_option("mip_rel_gap", float(mip_rel_gap))
    if time_limit is not None:
        engine.set_option("time_limit", float(time_limit))
    return engine.run()


def _highs_bindings():
    """scipy's bundled HiGHS bindings, with every name the engine uses.

    The module is private to scipy and may move or change between
    versions; then this raises ``EngineError`` naming scipy's version.
    """
    global _checked
    if _BINDINGS in sys.modules:
        core = sys.modules[_BINDINGS]
        if core is None:  # the import system's mark of a blocked module
            raise _no_bindings("import is blocked")
    else:
        core = _load_bindings()
    if core is _checked[0]:
        return core
    missing = [name for name in _BINDING_NAMES if not hasattr(core, name)]
    if not missing:
        missing = [f"_Highs.{name}" for name in _HIGHS_METHODS
                   if not hasattr(core._Highs, name)]
    if missing:
        raise EngineError(f"scipy {scipy.__version__}'s HiGHS bindings at "
                          f"{_BINDINGS} lack {', '.join(missing)}")
    _checked = (core, {getattr(core.HighsModelStatus, name): status
                       for name, status in _STATUSES.items()})
    return core


def _load_bindings():
    """Load the bindings' extension module from scipy's files, without
    running the ``scipy.optimize`` package, and register it under its
    canonical name, so a later ``import scipy.optimize`` shares it."""
    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    path = folder / f"_core{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    if not path.is_file():
        raise _no_bindings(f"no file {path}")
    loader = importlib.machinery.ExtensionFileLoader(_BINDINGS, str(path))
    spec = importlib.util.spec_from_file_location(_BINDINGS, path,
                                                  loader=loader)
    try:
        core = importlib.util.module_from_spec(spec)
        loader.exec_module(core)
    except ImportError as exc:
        raise _no_bindings(str(exc)) from exc
    sys.modules[_BINDINGS] = core
    return core


def _no_bindings(reason: str) -> EngineError:
    return EngineError(f"scipy {scipy.__version__} has no HiGHS bindings "
                       f"at {_BINDINGS}: {reason}")


class _Engine:
    """One HiGHS instance loaded with a model, as both routes use it; the
    model is a MILP when ``integrality`` marks an integer column."""

    def __init__(self, c, offset, integrality, col_lower, col_upper, A,
                 row_lower, row_upper) -> None:
        # HiGHS reads num_col, num_row and num_nz values from the arrays
        # unchecked
        indptr, indices, data = A
        n, m = c.size, row_lower.size
        if (indptr.size != m + 1 or row_upper.size != m
                or {indices.size, data.size} != {int(indptr[-1])}
                or {integrality.size, col_lower.size, col_upper.size} != {n}):
            raise ValueError(f"engine input sizes disagree: {n} costs, "
                             f"{m} row bounds, {indptr.size} row starts, "
                             f"{indices.size} indices, {data.size} values")
        core = _highs_bindings()
        self.highs = core._Highs()
        self.error = core.HighsStatus.kError
        self.infinity = core.kHighsInf
        self.statuses = _checked[1]
        self.mip = bool(integrality.any())
        # scipy's ``milp`` sets presolve on and the console log off; HiGHS
        # still formats the log lines it then drops, so all output goes
        # off, which leaves the search path as it was
        self.set_option("output_flag", False)
        self.set_option("presolve", "on")
        # unlike ``milp``, no feasibility-jump heuristic: on a tiny MILP
        # that presolve leaves it takes several times as long as the rest
        # of the solve, and it found no other answer on the models measured
        self.set_option("mip_heuristic_run_feasibility_jump", False)
        if self.highs.passModel(
                n, m, indices.size, core.MatrixFormat.kRowwise,
                core.ObjSense.kMinimize, float(offset), c, col_lower,
                col_upper, row_lower, row_upper,
                indptr.astype(np.int32, copy=False),
                indices.astype(np.int32, copy=False), data,
                integrality.astype(np.int32, copy=False)) == self.error:
            raise EngineError("engine failure: HiGHS rejected the model")

    def set_option(self, name: str, value) -> None:
        if self.highs.setOptionValue(name, value) == self.error:
            raise EngineError(f"engine failure: HiGHS rejected the option "
                              f"{name}={value!r}")

    def run(self) -> EngineResult:
        """Run the model; an LP has a point only when optimal, a MILP also
        at a limit that found an incumbent."""
        highs = self.highs
        ran = highs.run() != self.error
        model_status = highs.getModelStatus()
        res = EngineResult(self.statuses.get(model_status),
                           highs.modelStatusToString(model_status))
        if res.status is None:
            raise EngineError(f"engine failure: {res.message}")
        if not ran or not (res.status is SolveStatus.OPTIMAL or self.mip
                           and res.status is SolveStatus.TIME_LIMIT):
            return res
        if self.mip:  # the info fields one by one: all of them cost more
            value = highs.getInfoValue
            if value("objective_function_value")[1] == self.infinity:
                return res  # no incumbent
            res.mip_node_count, res.mip_gap, res.mip_dual_bound = (
                value(name)[1] for name in ("mip_node_count", "mip_gap",
                                            "mip_dual_bound"))
        res.x = np.array(highs.getSolution().col_value)
        return res


class _HighsLp(_Engine):
    """The engine holding a model's LP, and the column bounds it last saw."""

    def __init__(self, prob: MilpProblem) -> None:
        indptr, indices, data, lo, hi = prob.matrix()
        super().__init__(prob.objective_vector(), prob.objective_constant,
                         np.zeros(prob.num_vars, dtype=np.int32),
                         prob.lb, prob.ub, (indptr, indices, data), lo, hi)
        self.lb, self.ub = prob.lb.copy(), prob.ub.copy()
        self.time_limit = math.inf

    def solve(self, prob: MilpProblem, time_limit: float | None
              ) -> EngineResult:
        """Pass the bounds that changed, then rerun from the last basis."""
        changed = np.flatnonzero((prob.lb != self.lb) | (prob.ub != self.ub))
        if changed.size:
            lb, ub = prob.lb[changed], prob.ub[changed]
            if self.highs.changeColsBounds(
                    changed.size, changed.astype(np.int32), lb, ub) == self.error:
                raise EngineError("engine failure: HiGHS rejected a bound")
            self.lb[changed], self.ub[changed] = lb, ub
        limit = math.inf if time_limit is None else float(time_limit)
        if limit != self.time_limit:
            self.set_option("time_limit", limit)
            self.time_limit = limit
        return self.run()
