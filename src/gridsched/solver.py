"""MILP solve contract over HiGHS.

``solve`` hands HiGHS a ``MilpProblem``'s arrays and its cached sparse
matrix, runs it once and checks what comes back: integer columns must be
integral and the point must satisfy every row and bound.  A failure of
HiGHS itself raises ``EngineError``; a point that fails the checks raises
``SolverError``.

The model's bounds choose how HiGHS is reached:

- A problem whose integer columns are all fixed (``lb == ub``) is an LP,
  like each of the exhaustive oracle's fixed-binary clones.  It goes to
  one HiGHS instance per model, made through scipy's bundled bindings
  and kept with the cached matrix, which ``clone_with_bounds`` copies
  share.  A solve passes only the column bounds that differ from the
  ones the instance last saw, and HiGHS's dual simplex restarts from the
  last basis.  The bindings are private to scipy; ``_highs_bindings``
  checks them and fails with ``EngineError``.
- Every other problem goes through scipy's ``milp``, which builds a new
  HiGHS object per call.  MILPs stay there because the benchmark under
  ``perfbench/`` traces ``gridsched.solver.milp`` as the engine, so moving
  them off it needs a change to the benchmark first.

HiGHS runs with its fixed default random seed;
``SolveOptions.deterministic_seed`` (the CLI's ``--seed``) is accepted but
not passed to it, because scipy's ``milp`` has no option for it.
"""

from __future__ import annotations

import enum
import importlib
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp

from .milp import MilpProblem

INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-6  # scaled row violation accepted from the engine

_BINDINGS = "scipy.optimize._highspy._core"
_BINDING_NAMES = ("_Highs", "HighsLp", "HighsModelStatus", "HighsStatus",
                  "MatrixFormat")
_HIGHS_METHODS = ("passModel", "changeColsBounds", "setOptionValue", "run",
                  "getModelStatus", "getSolution", "modelStatusToString")
# scipy's status codes for HiGHS's model statuses, as scipy's own wrapper
# maps them (0 optimal, 1 limit, 2 infeasible, 3 unbounded); any other
# status, kUnboundedOrInfeasible and the error statuses among them, is 4
_SCIPY_CODES = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1,
                "kInfeasible": 2, "kModelError": 2, "kUnbounded": 3}


class SolverError(RuntimeError):
    """The solve failed, or its result failed the post-solve checks."""


class EngineError(SolverError):
    """HiGHS itself failed (error status, or success without a point)."""


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
    deterministic_seed: int = 0

    def __post_init__(self) -> None:
        if self.mip_gap < 0:
            raise ValueError("mip_gap must be >= 0")


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
    prob.check()
    n = prob.num_vars
    if n == 0:
        raise SolverError("malformed problem: no variables")
    cols = np.flatnonzero(prob.integer)
    started = time.perf_counter()
    if (prob.lb[cols] == prob.ub[cols]).all():
        res = prob.shared("highs-lp", lambda: _HighsLp(prob)).solve(
            prob, opts.time_limit)
    else:
        res = _solve_milp(prob, opts)
    wall = time.perf_counter() - started
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

    x = np.array(res.x[:n], dtype=float)
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
    """One call of scipy's ``milp``, which makes a new HiGHS object."""
    n = prob.num_vars
    c = prob.objective_vector()
    lb, ub = prob.lb, prob.ub
    integrality = prob.integer.astype(np.uint8)
    # a constant objective term rides along as a column fixed to 1, so the
    # engine's relative-gap termination sees the true objective scale
    shift = prob.objective_constant != 0.0
    if shift:
        c = np.concatenate((c, [prob.objective_constant]))
        lb, ub = np.concatenate((lb, [1.0])), np.concatenate((ub, [1.0]))
        integrality = np.concatenate((integrality, np.zeros(1, dtype=np.uint8)))
    constraints = []
    if prob.num_rows:
        A, lo, hi = prob.matrix(n + 1 if shift else n)
        constraints.append(LinearConstraint(A, lo, hi))

    options: dict = {"mip_rel_gap": opts.mip_gap, "presolve": True}
    if opts.time_limit is not None:
        options["time_limit"] = float(opts.time_limit)
    return milp(c=c, constraints=constraints, integrality=integrality,
                bounds=Bounds(lb, ub), options=options)


def _highs_bindings():
    """scipy's bundled HiGHS bindings, with every name the LP route uses.

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


class _HighsLp:
    """One HiGHS instance holding a model's LP, and the column bounds it
    last saw."""

    def __init__(self, prob: MilpProblem) -> None:
        core = _highs_bindings()
        A, lo, hi = prob.matrix()
        lp = core.HighsLp()
        lp.num_col_, lp.num_row_ = prob.num_vars, prob.num_rows
        lp.col_cost_ = prob.objective_vector()
        lp.col_lower_, lp.col_upper_ = prob.lb, prob.ub
        lp.row_lower_, lp.row_upper_ = lo, hi
        matrix = lp.a_matrix_
        matrix.format_ = core.MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = prob.num_vars, prob.num_rows
        matrix.start_, matrix.index_, matrix.value_ = A.indptr, A.indices, A.data
        self.highs = core._Highs()
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("presolve", "on")  # as ``milp`` sets it
        self.error = core.HighsStatus.kError
        if self.highs.passModel(lp) == self.error:
            raise EngineError("engine failure: HiGHS rejected the model")
        self.codes = {getattr(core.HighsModelStatus, name): code
                      for name, code in _SCIPY_CODES.items()}
        self.lb, self.ub = prob.lb.copy(), prob.ub.copy()
        self.time_limit = math.inf

    def solve(self, prob: MilpProblem, time_limit: float | None
              ) -> OptimizeResult:
        """Pass the bounds that changed, then rerun from the last basis."""
        highs = self.highs
        changed = np.flatnonzero((prob.lb != self.lb) | (prob.ub != self.ub))
        if changed.size:
            lb, ub = prob.lb[changed], prob.ub[changed]
            if highs.changeColsBounds(changed.size, changed.astype(np.int32),
                                      lb, ub) == self.error:
                raise EngineError("engine failure: HiGHS rejected a bound")
            self.lb[changed], self.ub[changed] = lb, ub
        limit = math.inf if time_limit is None else float(time_limit)
        if limit != self.time_limit:
            highs.setOptionValue("time_limit", limit)
            self.time_limit = limit
        highs.run()
        model_status = highs.getModelStatus()
        status = self.codes.get(model_status, 4)
        x = np.array(highs.getSolution().col_value) if status == 0 else None
        return OptimizeResult(status=status, x=x,
                              message=highs.modelStatusToString(model_status))


def _stat(res, name: str, kind):
    """An engine statistic from scipy's result, or None when absent."""
    value = getattr(res, name, None)
    return None if value is None else kind(value)
