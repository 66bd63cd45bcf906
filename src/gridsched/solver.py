"""MILP solve contract over HiGHS.

``solve`` hands HiGHS a ``MilpProblem``'s arrays and its cached sparse
matrix, runs it once and checks what comes back: integer columns must be
integral and the point must satisfy every row and bound.
``solve_relaxation`` does the same for the LP relaxation, with no
integrality check.  A failure of HiGHS itself raises ``EngineError``; a
point that fails the checks raises ``SolverError``.

HiGHS is reached through scipy's bundled bindings.  One loader,
``_Engine``, passes the arrays to a HiGHS instance with the options
scipy's ``milp`` sets, and one table maps HiGHS's model statuses to
scipy's status codes.  The model's bounds choose the route:

- A problem whose integer columns are all fixed (``lb == ub``) is an LP,
  like each of the exhaustive oracle's fixed-binary clones.  It goes to
  one instance per model, kept with the cached matrix, which
  ``clone_with_bounds`` copies share.  A solve passes only the column
  bounds that differ from the ones the instance last saw, and HiGHS's
  dual simplex restarts from the last basis.  ``solve_relaxation`` runs
  any problem on that instance, which holds no integrality, so it solves
  the LP relaxation over the problem's bounds.
- Every other problem goes to ``milp``, which loads a new instance per
  call.  ``milp`` is the one engine entry point: the benchmark under
  ``perfbench/`` traces ``gridsched.solver.milp`` by name as the engine.

The bindings are private to scipy; ``_highs_bindings`` checks them and
fails with ``EngineError`` naming scipy's version.  HiGHS runs with its
fixed default random seed; ``SolveOptions.deterministic_seed`` is accepted
but not passed to it, so the search path does not vary with that seed.
"""

from __future__ import annotations

import enum
import importlib
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.optimize import OptimizeResult

from .milp import MilpProblem

INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-6  # scaled row violation accepted from the engine

_BINDINGS = "scipy.optimize._highspy._core"
_BINDING_NAMES = ("_Highs", "HighsModelStatus", "HighsStatus", "MatrixFormat",
                  "ObjSense", "kHighsInf")
_HIGHS_METHODS = ("passModel", "changeColsBounds", "setOptionValue", "run",
                  "getModelStatus", "getInfo", "getSolution",
                  "modelStatusToString")
# scipy's status codes for HiGHS's model statuses, as scipy's own wrapper
# maps them (0 optimal, 1 limit, 2 infeasible, 3 unbounded); any other
# status, kUnboundedOrInfeasible and the error statuses among them, is 4
_SCIPY_CODES = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1,
                "kInfeasible": 2, "kModelError": 2, "kUnbounded": 3}


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
    wall_time: float = 0.0
    max_violation: float = 0.0
    message: str = ""
    nodes: int | None = None  # branch-and-bound nodes, as HiGHS reports
    mip_gap: float | None = None  # HiGHS's own relative gap

    def value(self, prob: MilpProblem, symbol: str, *index) -> float:
        if self.x is None:
            raise SolverError("no solution values available")
        return float(self.x[prob.registry.col(symbol, *index)])


def solve(prob: MilpProblem, opts: SolveOptions | None = None) -> SolveResult:
    """Solve the problem with HiGHS."""
    opts = opts or SolveOptions()
    _check_input(prob)
    cols = np.flatnonzero(prob.integer)
    started = time.perf_counter()
    if (prob.lb[cols] == prob.ub[cols]).all():
        res = _lp_engine(prob).solve(prob, opts.time_limit)
    else:
        res = _solve_milp(prob, opts)
    return _checked_result(prob, res, cols, time.perf_counter() - started)


def solve_relaxation(prob: MilpProblem) -> SolveResult:
    """Solve the problem's LP relaxation with HiGHS: every column keeps its
    bounds and no column is integer.

    It runs on the model's LP instance, as a fixed-binary solve does, with
    no time limit, and its point gets the same row and bound check; there
    is no integrality check, and an optimal relaxation's ``best_bound`` is
    its objective.
    """
    _check_input(prob)
    started = time.perf_counter()
    res = _lp_engine(prob).solve(prob, None)
    return _checked_result(prob, res, np.empty(0, dtype=np.intp),
                           time.perf_counter() - started)


def _check_input(prob: MilpProblem) -> None:
    prob.check()
    if prob.num_vars == 0:
        raise SolverError("malformed problem: no variables")


def _lp_engine(prob: MilpProblem) -> "_HighsLp":
    """The model's one LP instance, kept with its cached matrix."""
    return prob.shared("highs-lp", lambda: _HighsLp(prob))


def _checked_result(prob: MilpProblem, res: OptimizeResult, cols: np.ndarray,
                    wall: float) -> SolveResult:
    """The engine's result as a ``SolveResult``, after the post-solve
    checks: the integer columns ``cols`` must be integral (then they are
    rounded) and the point must satisfy every row and bound."""
    stats = {"wall_time": wall, "message": res.message,
             "nodes": _stat(res, "mip_node_count", int),
             "mip_gap": _stat(res, "mip_gap", float)}

    if res.status == 2:
        return SolveResult(SolveStatus.INFEASIBLE, **stats)
    if res.status == 3:
        return SolveResult(SolveStatus.UNBOUNDED, **stats)
    if res.status == 4 or (res.status == 0 and res.x is None):
        raise EngineError(f"engine failure: {res.message}")
    if res.status == 1 and res.x is None:
        return SolveResult(SolveStatus.TIME_LIMIT, **stats)

    x = np.array(res.x[:prob.num_vars], dtype=float)
    # integer values must already be integral up to tolerance; then round
    rounded = np.round(x[cols]) + 0.0  # + 0.0 turns -0.0 into 0.0
    residual = np.abs(x[cols] - rounded)
    bad = np.flatnonzero(residual > INTEGRALITY_TOL)
    if bad.size:
        raise SolverError(
            f"integrality residual {residual[bad[0]]:.3g} on "
            f"{prob.var_name(cols[bad[0]])} exceeds {INTEGRALITY_TOL}")
    x[cols] = rounded

    objective = prob.objective_value(x)
    has_integers = bool(cols.size)
    dual_bound = getattr(res, "mip_dual_bound", None)
    best_bound = (float(dual_bound) if (has_integers and dual_bound is not None)
                  else objective)

    if res.status == 1:
        status = SolveStatus.TIME_LIMIT
    else:
        gap = abs(objective - best_bound) / max(1.0, abs(objective))
        status = (SolveStatus.FEASIBLE_WITHIN_GAP
                  if has_integers and gap > 1e-9 else SolveStatus.OPTIMAL)

    viol, where = prob.max_violation(x, scaled=True)
    if viol > FEASIBILITY_TOL:
        raise SolverError(
            f"engine returned an infeasible point: violation {viol:.3g} at {where}")

    return SolveResult(status=status, objective=objective, best_bound=best_bound,
                       x=x, max_violation=viol, **stats)


def _solve_milp(prob: MilpProblem, opts: SolveOptions) -> OptimizeResult:
    """The problem's arrays, handed to the engine call ``milp``."""
    n = prob.num_vars
    c = prob.objective_vector()
    lb, ub = prob.lb, prob.ub
    integrality = prob.integer.astype(np.int32)
    # a constant objective term rides along as a column fixed to 1, so the
    # engine's relative-gap termination sees the true objective scale
    shift = prob.objective_constant != 0.0
    if shift:
        c = np.concatenate((c, [prob.objective_constant]))
        lb, ub = np.concatenate((lb, [1.0])), np.concatenate((ub, [1.0]))
        integrality = np.concatenate((integrality, np.zeros(1, dtype=np.int32)))
    A, lo, hi = prob.matrix(n + 1 if shift else n)
    return milp(c=c, integrality=integrality, col_lower=lb, col_upper=ub,
                A=A, row_lower=lo, row_upper=hi, mip_rel_gap=opts.mip_gap,
                time_limit=opts.time_limit)


def milp(*, c, integrality, col_lower, col_upper, A, row_lower, row_upper,
         mip_rel_gap: float, time_limit: float | None) -> OptimizeResult:
    """Minimise ``c @ x`` over ``row_lower <= A @ x <= row_upper`` and the
    column bounds, with ``integrality`` 1 on integer columns, on a new
    HiGHS instance.

    ``A`` is a CSC matrix.  The result carries scipy's status code,
    ``x`` and HiGHS's ``mip_node_count``, ``mip_gap`` and
    ``mip_dual_bound``; a limit status whose objective is infinite has no
    point, as in scipy's ``milp``.
    """
    engine = _Engine(c, integrality, col_lower, col_upper, A, row_lower,
                     row_upper)
    engine.set_option("mip_rel_gap", float(mip_rel_gap))
    if time_limit is not None:
        engine.set_option("time_limit", float(time_limit))
    return engine.run()


def _highs_bindings():
    """scipy's bundled HiGHS bindings, with every name the engine uses.

    The module is private to scipy and may move or change between
    versions; then this raises ``EngineError`` naming scipy's version.
    """
    try:
        core = importlib.import_module(_BINDINGS)
    except ImportError as exc:
        raise EngineError(f"scipy {scipy.__version__} has no HiGHS bindings "
                          f"at {_BINDINGS}: {exc}") from exc
    missing = [name for name in _BINDING_NAMES if not hasattr(core, name)]
    if not missing:
        missing = [f"_Highs.{name}" for name in _HIGHS_METHODS
                   if not hasattr(core._Highs, name)]
    if missing:
        raise EngineError(f"scipy {scipy.__version__}'s HiGHS bindings at "
                          f"{_BINDINGS} lack {', '.join(missing)}")
    return core


class _Engine:
    """One HiGHS instance loaded with a model, as both routes use it; the
    model is a MILP when ``integrality`` marks an integer column."""

    def __init__(self, c, integrality, col_lower, col_upper, A, row_lower,
                 row_upper) -> None:
        # HiGHS reads num_col and num_row values from each array unchecked
        n, m = c.size, row_lower.size
        if (A.shape != (m, n) or row_upper.size != m
                or {integrality.size, col_lower.size, col_upper.size} != {n}):
            raise ValueError(f"engine input sizes disagree: {n} costs, "
                             f"{m} row bounds, matrix {A.shape}")
        core = _highs_bindings()
        self.highs = core._Highs()
        self.error = core.HighsStatus.kError
        self.infinity = core.kHighsInf
        self.codes = {getattr(core.HighsModelStatus, name): code
                      for name, code in _SCIPY_CODES.items()}
        self.mip = bool(integrality.any())
        # scipy's ``milp`` sets presolve on and the console log off; HiGHS
        # still formats the log lines it then drops, so all output goes
        # off, which leaves the search path as it was
        self.set_option("output_flag", False)
        self.set_option("presolve", "on")
        if self.highs.passModel(
                n, m, A.nnz, core.MatrixFormat.kColwise,
                core.ObjSense.kMinimize, 0.0, c, col_lower, col_upper,
                row_lower, row_upper, A.indptr.astype(np.int32, copy=False),
                A.indices.astype(np.int32, copy=False), A.data,
                integrality.astype(np.int32, copy=False)) == self.error:
            raise EngineError("engine failure: HiGHS rejected the model")

    def set_option(self, name: str, value) -> None:
        if self.highs.setOptionValue(name, value) == self.error:
            raise EngineError(f"engine failure: HiGHS rejected the option "
                              f"{name}={value!r}")

    def run(self) -> OptimizeResult:
        """Run the model; an LP has a point only when optimal."""
        highs, mip = self.highs, self.mip
        ran = highs.run() != self.error
        model_status = highs.getModelStatus()
        res = OptimizeResult(status=self.codes.get(model_status, 4), x=None,
                             message=highs.modelStatusToString(model_status),
                             mip_node_count=None, mip_gap=None,
                             mip_dual_bound=None)
        if not ran or res.status not in ((0, 1) if mip else (0,)):
            return res
        if mip:
            info = highs.getInfo()
            if res.status == 1 and info.objective_function_value == self.infinity:
                return res
            res.update(mip_node_count=info.mip_node_count,
                       mip_gap=info.mip_gap, mip_dual_bound=info.mip_dual_bound)
        res.x = np.array(highs.getSolution().col_value)
        return res


class _HighsLp(_Engine):
    """The engine holding a model's LP, and the column bounds it last saw."""

    def __init__(self, prob: MilpProblem) -> None:
        A, lo, hi = prob.matrix()
        super().__init__(prob.objective_vector(),
                         np.zeros(prob.num_vars, dtype=np.int32),
                         prob.lb, prob.ub, A, lo, hi)
        self.lb, self.ub = prob.lb.copy(), prob.ub.copy()
        self.time_limit = math.inf

    def solve(self, prob: MilpProblem, time_limit: float | None
              ) -> OptimizeResult:
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


def _stat(res, name: str, kind):
    """An engine statistic from scipy's result, or None when absent."""
    value = getattr(res, name, None)
    return None if value is None else kind(value)
