"""MILP solve contract over HiGHS.

``solve`` hands HiGHS a ``MilpProblem``'s arrays, its rows as the cached
CSR arrays, runs it once and checks what comes back: integer columns must
be integral and the point must satisfy every row and bound; a NaN fails.
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
- Every other problem goes to ``milp``, which loads a new instance per
  call.  ``milp`` is the one engine entry point: the benchmark under
  ``perfbench/`` traces ``gridsched.solver.milp`` by name as the engine.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .milp import MilpProblem

INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-6  # scaled row violation accepted from the engine

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
    nodes: int | None = None  # branch-and-bound nodes, as HiGHS reports
    mip_gap: float | None = None  # HiGHS's own relative gap


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
    else:
        indptr, indices, data, lo, hi = prob.matrix()
        res = milp(c=prob.objective_vector(), offset=prob.objective_constant,
                   integrality=prob.integer.astype(np.int32),
                   col_lower=prob.lb, col_upper=prob.ub,
                   A=(indptr, indices, data), row_lower=lo, row_upper=hi,
                   mip_rel_gap=opts.mip_gap,
                   time_limit=opts.time_limit)
    return _checked_result(prob, res, cols)


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

    x = np.array(res.x, dtype=float)
    # integer values must already be integral up to tolerance; then round
    rounded = x[cols].round() + 0.0  # + 0.0 turns -0.0 into 0.0
    residual = np.abs(x[cols] - rounded)
    bad = (~(residual <= INTEGRALITY_TOL)).nonzero()[0]  # NaN is bad too
    if bad.size:
        raise SolverError(
            f"integrality residual {residual[bad[0]]:.3g} on "
            f"{prob.var_name(cols[bad[0]])} exceeds {INTEGRALITY_TOL}")
    x[cols] = rounded

    objective = prob.objective_value(x)
    best_bound = (float(res.mip_dual_bound)  # an LP's bound is its objective
                  if cols.size and res.mip_dual_bound is not None else objective)
    gap = abs(objective - best_bound) / max(1.0, abs(objective))
    status = (SolveStatus.TIME_LIMIT if res.status is SolveStatus.TIME_LIMIT
              else SolveStatus.FEASIBLE_WITHIN_GAP if gap > 1e-9
              else SolveStatus.OPTIMAL)

    viol, where = prob.max_violation(x, scaled=True)
    if viol > FEASIBILITY_TOL:
        raise SolverError(
            f"engine returned an infeasible point: violation {viol:.3g} at {where}")

    return SolveResult(status=status, objective=objective, best_bound=best_bound,
                       x=x, **stats)


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
