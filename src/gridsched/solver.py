"""MILP solve contract over HiGHS, reached through scipy's ``milp``.

``solve`` builds the engine's arrays from a ``MilpProblem``, runs HiGHS
once and checks what comes back: integer columns must be integral and
the point must satisfy every row and bound.  HiGHS runs with its fixed
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
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .milp import MilpProblem

INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-6  # scaled row violation accepted from the engine


class SolverError(RuntimeError):
    pass


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
    # a constant objective term rides along as a column fixed to 1, so the
    # engine's relative-gap termination sees the true objective scale
    shift = prob.objective_constant != 0.0
    n_cols = n + 1 if shift else n
    c = np.zeros(n_cols)
    for col, coef in prob.objective.items():
        c[col] = coef
    lb = list(prob.lb)
    ub = list(prob.ub)
    integer = list(prob.integer)
    if shift:
        c[n] = prob.objective_constant
        lb.append(1.0)
        ub.append(1.0)
        integer.append(False)
    integrality = np.array([1 if flag else 0 for flag in integer])
    bounds = Bounds(np.array(lb), np.array(ub))

    constraints = []
    if prob.rows:
        data, rows_idx, cols_idx = [], [], []
        lo = np.empty(len(prob.rows))
        hi = np.empty(len(prob.rows))
        for i, row in enumerate(prob.rows):
            lo[i], hi[i] = row.lb, row.ub
            for col, coef in row.coeffs:
                rows_idx.append(i)
                cols_idx.append(col)
                data.append(coef)
        A = sparse.csr_matrix((data, (rows_idx, cols_idx)),
                              shape=(len(prob.rows), n_cols))
        constraints.append(LinearConstraint(A, lo, hi))

    options: dict = {"mip_rel_gap": opts.mip_gap, "presolve": True}
    if opts.time_limit is not None:
        options["time_limit"] = float(opts.time_limit)

    started = time.perf_counter()
    res = milp(c=c, constraints=constraints, integrality=integrality,
               bounds=bounds, options=options)
    wall = time.perf_counter() - started

    if res.status == 2:
        return SolveResult(SolveStatus.INFEASIBLE, wall_time=wall,
                           message=res.message)
    if res.status == 3:
        return SolveResult(SolveStatus.UNBOUNDED, wall_time=wall,
                           message=res.message)
    if res.status == 4 or (res.status == 0 and res.x is None):
        raise SolverError(f"engine failure: {res.message}")
    if res.status == 1 and res.x is None:
        return SolveResult(SolveStatus.TIME_LIMIT, wall_time=wall,
                           message=res.message)

    x = np.array(res.x[:n], dtype=float)
    # integer values must already be integral up to tolerance; then round
    for j in range(n):
        if prob.integer[j]:
            r = round(x[j])
            if abs(x[j] - r) > INTEGRALITY_TOL:
                raise SolverError(
                    f"integrality residual {abs(x[j] - r):.3g} on "
                    f"{prob.var_names[j]} exceeds {INTEGRALITY_TOL}")
            x[j] = r

    objective = prob.objective_value(x)
    has_integers = bool(integrality.any())
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
                       x=x, wall_time=wall, max_violation=viol,
                       message=res.message)
