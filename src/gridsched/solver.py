"""MILP solve contract over HiGHS, reached through scipy's ``milp``.

``solve`` hands HiGHS a ``MilpProblem``'s arrays and its cached sparse
matrix, runs it once and checks what comes back: integer columns must be
integral and the point must satisfy every row and bound.  A failure of
HiGHS itself raises ``EngineError``; a point that fails the checks raises
``SolverError``.  HiGHS runs with its fixed
default random seed; ``SolveOptions.deterministic_seed`` (the CLI's
``--seed``) is accepted but not passed to it, because scipy's ``milp``
has no option for it.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .milp import MilpProblem

INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-6  # scaled row violation accepted from the engine


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

    started = time.perf_counter()
    res = milp(c=c, constraints=constraints, integrality=integrality,
               bounds=Bounds(lb, ub), options=options)
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
    cols = np.flatnonzero(prob.integer)
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


def _stat(res, name: str, kind):
    """An engine statistic from scipy's result, or None when absent."""
    value = getattr(res, name, None)
    return None if value is None else kind(value)
