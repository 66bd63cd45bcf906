"""Backend-agnostic MILP container.

A problem is a list of columns (bounds + integrality), a list of linear
rows with a [lb, ub] interval (equalities have lb == ub, one-sided rows
use infinities), and a minimize objective with an optional constant term.
Rows carry a label like ``eq15[L2,3,s0]`` so post-solve analysis can map
them back to the printed model equations.

The registry tracks which column realizes which model symbol and index
tuple, e.g. ``("Pg", ("g1", 2, "s0"))``.  Variable names follow the
documented scheme ``u[g,t]``, ``Pg[g,t,s]``, ``z[c,k,t,s]`` and are
deterministic for a given system/scenario/contingency input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INF = math.inf


@dataclass
class Row:
    coeffs: list[tuple[int, float]]  # (column, coefficient)
    lb: float
    ub: float
    label: str


class VariableRegistry:
    """Maps (symbol, index tuple) to a column."""

    def __init__(self) -> None:
        self._by_key: dict[tuple[str, tuple], int] = {}

    def add(self, symbol: str, index: tuple, col: int) -> None:
        key = (symbol, tuple(index))
        if key in self._by_key:
            raise ValueError(f"duplicate registration for {symbol}{list(index)}")
        self._by_key[key] = col

    def col(self, symbol: str, *index) -> int:
        return self._by_key[(symbol, tuple(index))]

    def indices(self, symbol: str) -> list[tuple]:
        return [idx for sym, idx in self._by_key if sym == symbol]

    def count(self, symbol: str) -> int:
        return sum(1 for sym, _ in self._by_key if sym == symbol)

    def items(self):
        return self._by_key.items()


@dataclass
class MilpProblem:
    name: str = "problem"
    var_names: list[str] = field(default_factory=list)
    lb: list[float] = field(default_factory=list)
    ub: list[float] = field(default_factory=list)
    integer: list[bool] = field(default_factory=list)
    rows: list[Row] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    objective_constant: float = 0.0
    registry: VariableRegistry = field(default_factory=VariableRegistry)

    # -- construction ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                integer: bool = False) -> int:
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        self.var_names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.integer.append(bool(integer))
        return len(self.var_names) - 1

    def add_registered(self, symbol: str, index: tuple, lb: float = 0.0,
                       ub: float = INF, integer: bool = False) -> int:
        name = f"{symbol}[{','.join(str(i) for i in index)}]"
        col = self.add_var(name, lb, ub, integer)
        self.registry.add(symbol, index, col)
        return col

    def add_row(self, coeffs: list[tuple[int, float]], lb: float, ub: float,
                label: str) -> int:
        for col, _ in coeffs:
            if not 0 <= col < self.num_vars:
                raise ValueError(f"row {label}: unknown column {col}")
        self.rows.append(Row(coeffs=list(coeffs), lb=float(lb), ub=float(ub),
                             label=label))
        return len(self.rows) - 1

    def add_objective_term(self, col: int, coef: float) -> None:
        if not 0 <= col < self.num_vars:
            raise ValueError(f"objective references unknown column {col}")
        self.objective[col] = self.objective.get(col, 0.0) + float(coef)

    def clone_with_bounds(self, fixes: dict[int, float]) -> "MilpProblem":
        """Copy sharing rows/objective/registry, with some columns pinned."""
        lb, ub = list(self.lb), list(self.ub)
        for col, val in fixes.items():
            lb[col] = ub[col] = float(val)
        return MilpProblem(
            name=self.name, var_names=self.var_names, lb=lb, ub=ub,
            integer=self.integer, rows=self.rows, objective=self.objective,
            objective_constant=self.objective_constant, registry=self.registry)

    # -- inspection --------------------------------------------------------

    def check(self) -> None:
        """Raise on structural defects (bad bounds, non-finite objective)."""
        for j in range(self.num_vars):
            if self.lb[j] > self.ub[j]:
                raise ValueError(f"variable {self.var_names[j]}: empty bound interval")
        for col, coef in self.objective.items():
            if not math.isfinite(coef):
                raise ValueError(f"objective coefficient for column {col} not finite")
        if not math.isfinite(self.objective_constant):
            raise ValueError("objective constant not finite")
        for row in self.rows:
            if row.lb > row.ub:
                raise ValueError(f"row {row.label}: lb {row.lb} > ub {row.ub}")

    def objective_value(self, x: np.ndarray) -> float:
        return float(sum(coef * x[col] for col, coef in self.objective.items())
                     + self.objective_constant)

    def row_activity(self, row: Row, x: np.ndarray) -> float:
        return float(sum(coef * x[col] for col, coef in row.coeffs))

    def row_violation(self, row: Row, x: np.ndarray, scaled: bool = True) -> float:
        """Constraint violation of a point; 0 when feasible.

        Scaled mode divides by max(1, largest |term|), the usual relative
        feasibility measure for rows whose coefficients span magnitudes.
        """
        act = self.row_activity(row, x)
        viol = max(0.0, row.lb - act, act - row.ub)
        if not scaled or viol == 0.0:
            return viol
        scale = max(1.0, max((abs(coef * x[col]) for col, coef in row.coeffs),
                             default=0.0),
                    abs(row.lb) if math.isfinite(row.lb) else 0.0,
                    abs(row.ub) if math.isfinite(row.ub) else 0.0)
        return viol / scale

    def max_violation(self, x: np.ndarray, scaled: bool = True) -> tuple[float, str]:
        """Worst row or bound violation and the offending label."""
        worst, where = 0.0, ""
        for row in self.rows:
            v = self.row_violation(row, x, scaled=scaled)
            if v > worst:
                worst, where = v, row.label
        for j in range(self.num_vars):
            v = max(0.0, self.lb[j] - x[j], x[j] - self.ub[j])
            if scaled:
                v /= max(1.0, abs(x[j]))
            if v > worst:
                worst, where = v, f"bound[{self.var_names[j]}]"
        return worst, where

    def rows_by_equation(self) -> dict[str, int]:
        """Row counts keyed by the label prefix before '['."""
        counts: dict[str, int] = {}
        for row in self.rows:
            eq = row.label.split("[", 1)[0]
            counts[eq] = counts.get(eq, 0) + 1
        return counts
