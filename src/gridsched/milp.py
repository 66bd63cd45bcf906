"""Array-native MILP container.

A problem is a set of columns (bounds + integrality), linear rows with a
[lb, ub] interval (equalities have lb == ub, one-sided rows use
infinities), and a minimize objective with an optional constant term.

Columns and rows are stored in blocks.  A ``Block`` lays numbers out on a
grid: each of its keys owns a run ``first[key] + q`` over the
flattened inner axes (typically periods x scenarios), so one block holds
every row of an equation family, or every column of a variable symbol,
and a position's index tuple is its key followed by its inner values.
The model builders emit whole blocks with numpy index arithmetic, and
blocks are the only way in: ``add_cols`` appends columns that
``registry.add_block`` names, one block per symbol; ``add_row_block``
appends an equation family's rows; ``add_objective`` adds objective
terms.  A single column or row is a block with one key and no inner axes.

Row blocks are appended at the end of the model, so the rows are the
blocks in the order they were added, each block key by key and one
contiguous run per key.  A row block arrives as (row, term) arrays of
columns and values; its padding is dropped and its terms are appended to
the CSR arrays (each row's terms in the order its family lists them,
explicit zeros kept, no column twice in a row) with the row lb/ub
vectors.  ``check``, ``objective_value`` and ``max_violation`` are numpy
operations on these arrays.  The sparse matrix handed to the engine is
built from them once and cached; ``clone_with_bounds`` copies share it,
and so does anything else kept with it through ``shared``.

Names are derived on demand from (block, offset) by ``Block.label``: row
labels like ``eq15[L2,3,s0]`` map a row back to the printed model
equation, and columns are named by the documented scheme ``u[g,t]``,
``Pg[g,t,s]``, ``z[c,k,t,s]``.  Both are deterministic for a given
system/scenario/contingency input order.  ``rows`` materialises ``Row``
objects for inspection.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

INF = math.inf


@dataclass
class Row:
    coeffs: list[tuple[int, float]]  # (column, coefficient)
    lb: float
    ub: float
    label: str


class Block:
    """Numbers (columns or rows) laid out on a key x inner-axes grid.

    ``name`` is a variable symbol or an equation family; key p owns the
    numbers ``first[p] + q`` at flattened inner position q.
    """

    def __init__(self, name: str, keys: list[tuple], first,
                 inner: tuple[tuple, ...] = ()) -> None:
        self.name = name
        self.keys = keys
        if not (type(first) is np.ndarray and first.dtype == np.int64
                and first.ndim == 1):
            first = np.asarray(first, dtype=np.int64).reshape(-1)
        self.first = first
        self.inner = inner
        self.shape = (len(keys),) + tuple(map(len, inner))
        self.run = math.prod(self.shape[1:])
        if len(self.first) != len(self.keys):
            raise ValueError(f"block {name}: {len(self.keys)} keys but "
                             f"{len(self.first)} run starts")
        self._positions: tuple[dict, list[dict]] | None = None
        self._numbers: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.keys) * self.run

    def numbers(self) -> np.ndarray:
        """Every number, shaped (keys, *inner)."""
        if self._numbers is None:
            self._numbers = (self.first[:, None] + np.arange(self.run)
                             ).reshape(self.shape)
        return self._numbers

    def index(self, local: int) -> tuple:
        """Index tuple of the position at this offset."""
        p, q = divmod(int(local), self.run)
        tail = []
        for axis in reversed(self.inner):
            q, j = divmod(q, len(axis))
            tail.append(axis[j])
        return self.keys[p] + tuple(reversed(tail))

    def indices(self) -> list[tuple]:
        """Every position's index tuple, in offset order."""
        tails = list(itertools.product(*self.inner))
        return [key + tail for key in self.keys for tail in tails]

    def find(self, index: tuple) -> int | None:
        """Number at this index tuple, or None when the block lacks it."""
        split = len(index) - len(self.inner)
        if split < 0:
            return None
        if self._positions is None:
            self._positions = ({key: p for p, key in enumerate(self.keys)},
                               [{v: j for j, v in enumerate(axis)}
                                for axis in self.inner])
        by_key, by_value = self._positions
        p = by_key.get(tuple(index[:split]))
        if p is None:
            return None
        q = 0
        for axis, value in zip(by_value, index[split:]):
            j = axis.get(value)
            if j is None:
                return None
            q = q * len(axis) + j
        return int(self.first[p]) + q

    def locate(self, number: int) -> int | None:
        """Offset of this number within the block, or None."""
        rel = number - self.first
        hit = np.flatnonzero((rel >= 0) & (rel < self.run))
        if not hit.size:
            return None
        p = int(hit[0])
        return p * self.run + int(rel[p])

    def label(self, local: int) -> str:
        parts = self.index(local)
        if not parts:
            return self.name
        return f"{self.name}[{','.join(str(i) for i in parts)}]"

    def labels(self) -> list[str]:
        """Every position's label, in offset order: ``label`` of each
        offset, with each key's and each inner position's text built once."""
        tails = [",".join(map(str, tail))
                 for tail in itertools.product(*self.inner)]
        out: list[str] = []
        for key in self.keys:
            if not key and not self.inner:
                out.append(self.name)
                continue
            head = f"{self.name}[{','.join(map(str, key))}"
            if key and self.inner:
                head += ","
            out.extend([f"{head}{tail}]" for tail in tails])
        return out


def _flat(values, shape: tuple) -> np.ndarray:
    """``values`` broadcast to ``shape``, flattened."""
    out = np.empty(shape)
    out[...] = values
    return out.reshape(-1)


class VariableRegistry:
    """Maps (symbol, index tuple) to a column: one column block per symbol."""

    def __init__(self) -> None:
        self._blocks: dict[str, Block] = {}

    def add_block(self, block: Block) -> None:
        """Register every column of a symbol; its keys, and the values
        along each inner axis, must be distinct."""
        if block.name in self._blocks:
            raise ValueError(f"symbol {block.name} is already registered")
        if (len(set(block.keys)) < len(block.keys)
                or any(len(set(axis)) < len(axis) for axis in block.inner)):
            raise ValueError(f"duplicate registration in block {block.name}")
        self._blocks[block.name] = block

    def block(self, symbol: str) -> Block:
        """The block holding every column of a symbol."""
        return self._blocks[symbol]

    def col(self, symbol: str, *index) -> int:
        block = self._blocks.get(symbol)
        col = None if block is None else block.find(index)
        if col is None:
            raise KeyError((symbol, index))
        return col

    def indices(self, symbol: str) -> list[tuple]:
        block = self._blocks.get(symbol)
        return [] if block is None else block.indices()

    def groups(self):
        """Per symbol, in the order they were registered: its index tuples
        and their columns, in offset order."""
        for symbol, block in self._blocks.items():
            yield symbol, block.indices(), block.numbers().reshape(-1)

    def count(self, symbol: str) -> int:
        block = self._blocks.get(symbol)
        return 0 if block is None else block.size

    def names(self, n_cols: int) -> list:
        """Every column's name; None for a column no block holds."""
        names = np.full(n_cols, None, dtype=object)
        for block in self._blocks.values():
            names[block.numbers().reshape(-1)] = block.labels()
        return names.tolist()

    def name(self, col: int) -> str:
        for block in self._blocks.values():
            local = block.locate(col)
            if local is not None:
                return block.label(local)
        raise KeyError(f"column {col} is not registered")


class _Column:
    """Append-only 1-D array; appended parts are joined on first read."""

    def __init__(self, dtype, values=()) -> None:
        self._dtype = dtype
        self._parts = [np.asarray(values, dtype=dtype).reshape(-1)]
        self.size = self._parts[0].size

    def extend(self, values) -> None:
        part = np.asarray(values, dtype=self._dtype).reshape(-1)
        self._parts.append(part)
        self.size += part.size

    @property
    def array(self) -> np.ndarray:
        if len(self._parts) > 1:
            self._parts = [np.concatenate(self._parts)]
        return self._parts[0]


class RowView(Sequence):
    """A problem's rows as ``Row`` objects, materialised on demand."""

    def __init__(self, model: "_Model") -> None:
        self._model = model

    def __len__(self) -> int:
        return self._model.n_rows

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("row index out of range")
        indptr, indices, data, lo, hi = self._model.csr()
        a, b = indptr[i], indptr[i + 1]
        return Row(list(zip(indices[a:b].tolist(), data[a:b].tolist())),
                   float(lo[i]), float(hi[i]), self._model.label(i))

    def __iter__(self):
        model = self._model
        indptr, indices, data, lo, hi = (a.tolist() for a in model.csr())
        i = 0
        for block in model.blocks:
            for label in block.labels():
                a, e = indptr[i], indptr[i + 1]
                yield Row(list(zip(indices[a:e], data[a:e])), lo[i], hi[i],
                          label)
                i += 1


class _Model:
    """Columns' integrality, the objective and the rows: the storage a
    problem shares with its clones."""

    def __init__(self) -> None:
        self.n_cols = 0
        self.integer = _Column(bool)
        self.obj_cols = _Column(np.int64)  # objective terms in call order
        self.obj_vals = _Column(float)
        self.n_rows = 0
        self.blocks: list[Block] = []  # every row block, in row order
        self.starts: list[int] = []  # each row block's first row
        self.counts = _Column(np.int64)  # terms per row
        self.indices = _Column(np.int32)  # each row's term columns in turn
        self.data = _Column(float)  # and their coefficients
        self.lo = _Column(float)
        self.hi = _Column(float)
        self._cache: dict = {}

    # -- rows ---------------------------------------------------------------

    def add_rows(self, name: str, keys: list[tuple], inner: tuple[tuple, ...],
                 cols, vals, lo, hi, padded: bool) -> None:
        """Append a row block: its (row, term) column and value arrays and
        its rows' lb/ub, in the block's offset order; with ``padded``, a
        column of -1 is no term."""
        start, run = self.n_rows, math.prod(map(len, inner))
        self.blocks.append(Block(name, keys, start + run * np.arange(len(keys)),
                                 inner))
        self.starts.append(start)
        self.n_rows += len(cols)
        if padded:  # the padding drops out, each row keeps its term order
            keep = cols != -1
            self.counts.extend(np.add.reduce(keep, axis=1))
            cols, vals = cols[keep], vals[keep]
        else:
            self.counts.extend(np.full(len(cols), cols.shape[1]))
        self.indices.extend(cols)
        self.data.extend(vals)
        self.lo.extend(lo)
        self.hi.extend(hi)
        self._cache.clear()

    def csr(self) -> tuple[np.ndarray, ...]:
        """(indptr, indices, data, row lb, row ub) of every row."""
        if "csr" not in self._cache:
            indices = self.indices.array
            if indices.size and (np.minimum.reduce(indices) < 0
                                 or np.maximum.reduce(indices) >= self.n_cols):
                raise ValueError("a row block references an unknown column")
            indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
            np.cumsum(self.counts.array, out=indptr[1:])
            self._cache["csr"] = (indptr, indices, self.data.array,
                                  self.lo.array, self.hi.array)
        return self._cache["csr"]

    def matrix(self):
        """(CSC matrix, row lb, row ub) of every row and column."""
        indptr, indices, data, lo, hi = self.csr()
        if "matrix" not in self._cache:
            self._cache["matrix"] = sparse.csr_matrix(
                (data, indices, indptr), shape=(self.n_rows, self.n_cols)).tocsc()
        return self._cache["matrix"], lo, hi

    def row_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Each stored term's row, and each row's scale floor
        max(1, |lb|, |ub|) over its finite bounds."""
        if "terms" not in self._cache:
            _, _, _, lo, hi = self.csr()
            row_of = np.arange(self.n_rows, dtype=np.int32).repeat(
                self.counts.array)
            floor, high = np.abs(lo), np.abs(hi)
            floor[floor == INF] = 0.0
            high[high == INF] = 0.0
            np.fmax(floor, high, out=floor)
            np.fmax(floor, 1.0, out=floor)
            self._cache["terms"] = (row_of, floor)
        return self._cache["terms"]

    def label(self, row: int) -> str:
        b = bisect.bisect_right(self.starts, row) - 1
        return self.blocks[b].label(row - self.starts[b])

    def check(self) -> None:
        """Raise on a non-finite objective coefficient or an empty row
        interval; the shared parts of ``MilpProblem.check``, run once
        per change."""
        _, _, _, lo, hi = self.csr()
        if "checked" in self._cache:
            return
        cols, coefs = self.objective_terms()
        bad = ~np.isfinite(coefs)
        if bad.any():
            raise ValueError(f"objective coefficient for column "
                             f"{cols[bad.argmax()]} not finite")
        bad = lo > hi
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"row {self.label(i)}: lb {lo[i]} > ub {hi[i]}")
        self._cache["checked"] = True

    # -- objective ----------------------------------------------------------

    def objective_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Objective columns in order of first mention, with the sum of
        their coefficients."""
        key = ("objective", self.obj_cols.size)
        if key not in self._cache:
            cols, vals = self.obj_cols.array, self.obj_vals.array
            summed = np.zeros(self.n_cols)
            np.add.at(summed, cols, vals)
            if cols.size and np.bincount(cols).max() > 1:
                _, first = np.unique(cols, return_index=True)
                cols = cols[np.sort(first)]
            self._cache[key] = (cols, summed[cols], summed)
        return self._cache[key][:2]

    def objective_vector(self) -> np.ndarray:
        self.objective_terms()
        return self._cache[("objective", self.obj_cols.size)][2]


class MilpProblem:
    def __init__(self, name: str = "problem") -> None:
        self.name = name
        self.objective_constant = 0.0
        self.registry = VariableRegistry()
        self._lb = _Column(float)
        self._ub = _Column(float)
        self._model = _Model()
        # held here, not on the model: a model that referred back to
        # itself would wait for the cycle collector to free its cache
        self._rows = RowView(self._model)

    # -- columns -----------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._model.n_cols

    @property
    def lb(self) -> np.ndarray:
        return self._lb.array

    @property
    def ub(self) -> np.ndarray:
        return self._ub.array

    @property
    def integer(self) -> np.ndarray:
        return self._model.integer.array

    @property
    def var_names(self) -> list[str]:
        model = self._model
        key = ("names", model.n_cols)
        if key not in model._cache:
            model._cache[key] = self.registry.names(model.n_cols)
        return model._cache[key]

    def var_name(self, col: int) -> str:
        return self.registry.name(int(col))

    def add_cols(self, lb, ub, integer) -> int:
        """Append columns with these bound and integrality arrays, for
        blocks registered over them; returns the first one's number."""
        start = self._model.n_cols
        self._lb.extend(lb)
        self._ub.extend(ub)
        self._model.integer.extend(integer)
        self._model.n_cols += self._lb.size - start
        self._model._cache.clear()
        return start

    # -- rows --------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._model.n_rows

    @property
    def rows(self) -> RowView:
        return self._rows

    def add_row_block(self, family: str | tuple[str, ...], keys: list[tuple],
                      terms, lb, ub, inner: tuple[tuple, ...] = (),
                      padded: bool = False) -> None:
        """Append one row per (key, inner position) of an equation family.

        The rows follow the last row, key by key, each key's run over the
        flattened inner axes.  Each row gets one term per (columns,
        coefficient) pair of ``terms`` and the interval [lb, ub]; every
        array broadcasts to (keys, *inner).  With ``padded``, a column of
        -1 leaves that term out of its row, so rows of one family may
        have different lengths.  ``family`` may be a tuple of families
        over the same grid; ``terms``, ``lb`` and ``ub`` then hold one
        entry per family, and each family is its own block, one after
        another.
        """
        if isinstance(family, tuple):
            for name, *rest in zip(family, terms, lb, ub):
                self.add_row_block(name, keys, *rest, inner, padded)
            return
        shape = (len(keys),) + tuple(map(len, inner))
        n, m = math.prod(shape), len(terms)
        if not n:
            return
        cols = np.empty(shape + (m,), dtype=np.int32)
        vals = np.empty(shape + (m,))
        for j, (col, coef) in enumerate(terms):
            cols[..., j] = col
            vals[..., j] = coef
        self._model.add_rows(
            family, keys, inner, cols.reshape(n, m), vals.reshape(n, m),
            _flat(lb, shape), _flat(ub, shape), padded)

    def matrix(self):
        """The cached (CSC matrix, row lb, row ub) of every row, as the
        engine takes it; clones share it."""
        return self._model.matrix()

    def shared(self, key: str, build):
        """The value cached under ``key`` with the matrix, which clones
        share: ``build()`` makes it on first use, and adding columns,
        rows or objective terms drops it."""
        cache = self._model._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    # -- objective ---------------------------------------------------------

    def objective_vector(self) -> np.ndarray:
        """Dense objective coefficients, one per column."""
        return self._model.objective_vector()

    def add_objective(self, cols, coefs) -> None:
        """Add objective terms (same-shape arrays); a column's coefficients
        sum up."""
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        coefs = np.asarray(coefs, dtype=float).reshape(-1)
        if cols.size and (np.minimum.reduce(cols) < 0
                          or np.maximum.reduce(cols) >= self.num_vars):
            raise ValueError("objective references unknown column")
        self._model.obj_cols.extend(cols)
        self._model.obj_vals.extend(coefs)
        self._model._cache.clear()

    def clone_with_bounds(self, fixes: dict[int, float]) -> "MilpProblem":
        """Copy sharing rows/objective/registry, with some columns pinned."""
        clone = copy.copy(self)
        lb, ub = self.lb.copy(), self.ub.copy()
        for col, val in fixes.items():
            lb[col] = ub[col] = val
        clone._lb, clone._ub = _Column(float, lb), _Column(float, ub)
        return clone

    # -- inspection --------------------------------------------------------

    def check(self) -> None:
        """Raise on structural defects (bad bounds, non-finite objective)."""
        bad = self.lb > self.ub
        if bad.any():
            raise ValueError(
                f"variable {self.var_name(bad.argmax())}: empty bound interval")
        if not math.isfinite(self.objective_constant):
            raise ValueError("objective constant not finite")
        self._model.check()

    def objective_value(self, x: np.ndarray) -> float:
        cols, coefs = self._model.objective_terms()
        # summed in term order, like a scalar loop over the terms
        terms = np.concatenate(([0.0], coefs * np.asarray(x, dtype=float)[cols]))
        return float(np.add.accumulate(terms)[-1] + self.objective_constant)

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
        """Worst row or bound violation and the offending label.

        Rows use ``row_violation``'s measure and bounds divide by
        max(1, |x|) when scaled; ties go to the first row, and a bound
        wins only when strictly worse than every row.  A NaN point value
        or activity is an infinite violation.
        """
        x = np.asarray(x, dtype=float)
        model = self._model
        row_of, floor = model.row_terms()
        indptr, indices, data, lo, hi = model.csr()
        terms = x[indices]
        np.multiply(terms, data, out=terms)
        # summed term by term in each row's stored order, as a scalar loop
        act = np.bincount(row_of, weights=terms, minlength=lo.size)
        viol = np.maximum(np.maximum(0.0, lo - act), act - hi)
        if scaled and viol.size:
            scale = floor.copy()
            filled = (indptr[1:] > indptr[:-1]).nonzero()[0]
            if filled.size:
                scale[filled] = np.fmax(scale[filled], np.maximum.reduceat(
                    np.abs(terms, out=terms), indptr[filled]))
            viol = np.divide(viol, scale, out=viol, where=viol > 0.0)
        viol[np.isnan(viol)] = INF
        worst, where = 0.0, ""
        if viol.size:
            i = int(np.argmax(viol))
            if viol[i] > worst:
                worst, where = float(viol[i]), self._model.label(i)
        bound = np.maximum(np.maximum(0.0, self.lb - x), x - self.ub)
        if scaled:
            bound = bound / np.fmax(1.0, np.abs(x))
        bound[np.isnan(bound)] = INF
        if bound.size:
            j = int(np.argmax(bound))
            if bound[j] > worst:
                worst, where = float(bound[j]), f"bound[{self.var_name(j)}]"
        return worst, where

    def rows_by_equation(self) -> dict[str, int]:
        """Row counts keyed by equation family, in row order."""
        counts: dict[str, int] = {}
        for block in self._model.blocks:
            counts[block.name] = counts.get(block.name, 0) + block.size
        return counts
