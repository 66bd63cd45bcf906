"""Array-native MILP container.

A problem is a set of columns (bounds + integrality), linear rows with a
[lb, ub] interval (equalities have lb == ub, one-sided rows use
infinities), and a minimize objective with an optional constant term.

Columns and rows are stored in blocks.  A ``Block`` lays numbers out on a
grid: each of its keys owns a run ``first[key] + q`` over the
flattened inner axes (typically periods x scenarios), so one block holds
every row of an equation family, or every column of a variable symbol,
and a position's index tuple is its key followed by its inner values.
Blocks are the only way in, through three calls: ``add_col_block``
appends a symbol's columns and names them, ``add_row_block`` appends an
equation family's rows and ``add_objective`` adds objective terms.  A
single column or row is a block with one key and no inner axes.

Both kinds of block are appended at the end of the model, key by key and
one contiguous run per key.  A symbol has one column block: a later
``add_col_block`` call for it appends more keys to that block, so a
symbol's keys may own runs that other symbols' columns sit between (the
post-contingency copies append one copy of each symbol in turn), and the
blocks partition the columns.  The rows are the row blocks in the order
they were added, one block per family and call.

One rule shapes a row: it gets one term per (columns, coefficient) pair
its family lists, in that order, except where the column is -1 or the
coefficient 0; those terms are left out.  So rows of one family may have
different lengths, and a block keeps only its nonzero terms.

A call does only the work that is its own, and leaves the rest to one
join.  ``add_col_block`` registers the keys and keeps the bounds as they
were given, a number or an array that broadcasts to the block; the column
bounds are laid out when ``lb`` or ``ub`` is next read.  ``add_row_block``
fills each family's (row, term) column and value grid, as wide as the
family's terms, and drops the terms the rule leaves out; a family's
terms per row and its row bounds are kept the same way as column bounds.
The first read of the rows (``matrix``, ``check``, ``max_violation``, a
solve) joins every block added since the last read: the numbers are
repeated over their blocks in one call, the arrays put in place, the
terms concatenated into the CSR arrays (each row's terms in the order its
family lists them, no explicit zero, no column twice in a row) and every
column number checked.  So array bounds are read at the join and must not
change before it.  ``check``, ``objective_value`` and ``max_violation``
are numpy operations on the joined arrays, and the engine takes them as
they are, row by row.  They are cached; ``clone_with_bounds`` copies
share them, and so does anything else kept with them through ``shared``.

Names are derived on demand: a row's or a column's number is looked up
in the table of runs it was appended in (first number, block, offset),
and ``Block.label`` names the offset.  Row labels like ``eq14[L2,3,s0]``
map a row back to the printed model equation, and columns are named by
the documented scheme ``u[g,t]``, ``Pg[g,t,s]``, ``z[c,k,t,s]``.  Both
are deterministic for a given system/scenario/contingency input order.
``rows`` lists every row as a ``Row``, for inspection.

A model may be split into a first stage and copies: ``copies`` lists a
``Copy`` per contingency, in model order, each one contiguous range of
columns and one of rows with its share of ``objective_constant``.  A
copy's rows read only its own columns and the first stage's, and its
objective terms only its own columns.  Whatever lies in no copy is the
first stage, and the constant no copy owns is the first stage's; a row
of it that reads a copy's columns, such as one added after
``formulation.assemble``, ties that copy to the first stage.  A
hand-built problem has no copies.
"""

from __future__ import annotations

import bisect
import copy
import gc
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

INF = math.inf


@dataclass
class Row:
    coeffs: list[tuple[int, float]]  # (column, coefficient)
    lb: float
    ub: float
    label: str


@dataclass(frozen=True, eq=False)
class Copy:
    """One contingency's post-contingency copy within a model; two copies
    are the same only when they are one object.

    ``cols`` and ``rows`` are its two contiguous ranges, as slices;
    ``constant`` is its share of ``objective_constant``.  ``point(x)``
    gives the copy's column values, in column order, with no redispatch
    from the first stage of the full-length point ``x``: the formulation
    knows what that means for its network.
    """
    name: object
    cols: slice
    rows: slice
    constant: float
    point: Callable[[np.ndarray], np.ndarray]


class Block:
    """Numbers (columns or rows) laid out on a key x inner-axes grid.

    ``name`` is a variable symbol or an equation family; key p owns the
    numbers ``first[p] + q`` at flattened inner position q.  The keys come
    in groups, each appended at once with contiguous runs: a group's key i
    starts at the group's first number plus ``i * run``.
    """

    # caches, dropped when keys are appended
    _first: np.ndarray | None = None
    _positions: tuple[dict, list[dict]] | None = None
    _numbers: np.ndarray | None = None

    def __init__(self, name: str, keys: list[tuple], start: int,
                 inner: tuple[tuple, ...], run: int) -> None:
        self.name = name
        self.keys = keys  # kept, and appended to by ``extend``
        self.inner = inner
        self.run = run  # the product of the inner axes' lengths
        self._groups = [(start, len(keys))]  # (first number, key count)

    def extend(self, keys: list[tuple], start: int) -> None:
        """Append a group of keys whose runs follow one another from
        ``start``."""
        self.keys.extend(keys)
        self._groups.append((start, len(keys)))
        self._first = self._positions = self._numbers = None

    @property
    def first(self) -> np.ndarray:
        """Each key's first number (int64)."""
        if self._first is None:
            self._first = np.concatenate([start + self.run * np.arange(count)
                                          for start, count in self._groups])
        return self._first

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self.keys),) + tuple(map(len, self.inner))

    @property
    def size(self) -> int:
        return len(self.keys) * self.run

    def numbers(self) -> np.ndarray:
        """Every number, shaped (keys, *inner)."""
        if self._numbers is None:
            # each group's numbers are one range
            self._numbers = np.concatenate(
                [np.arange(start, start + count * self.run)
                 for start, count in self._groups]).reshape(self.shape)
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


def _layout(values: Sequence, sizes: Sequence[int],
            shapes: Sequence[tuple], names: Sequence[str], dtype) -> np.ndarray:
    """Parts laid out one after another.  Part i is ``values[i]``: a number
    repeated ``sizes[i]`` times, or an array broadcast to the grid
    ``shapes[i]`` of that size and flattened.  The numbers are repeated in
    one call, then the arrays are put in place; one that does not
    broadcast raises, naming ``names[i]``."""
    arrays = [i for i, v in enumerate(values) if not isinstance(v, (float, int))]
    numbers = values
    if arrays:
        numbers = list(values)
        for i in arrays:
            numbers[i] = 0
    out = np.array(numbers, dtype=dtype).repeat(sizes)
    if arrays:
        ends = list(itertools.accumulate(sizes))
        for i in arrays:
            try:
                out[ends[i] - sizes[i]:ends[i]].reshape(shapes[i])[...] = values[i]
            except ValueError:
                raise ValueError(f"{names[i]}: values of shape "
                                 f"{np.shape(values[i])} do not broadcast to "
                                 f"{shapes[i]}") from None
    return out


class _Runs:
    """The runs numbers were appended in, in number order: each run's
    first number, its block and that number's offset in the block."""

    def __init__(self) -> None:
        self.firsts: list[int] = []
        self.blocks: list[Block] = []
        self.offsets: list[int] = []
        self.end = 0  # one past the last number

    def append(self, block: Block, first: int, offset: int, size: int) -> None:
        self.firsts.append(first)
        self.blocks.append(block)
        self.offsets.append(offset)
        self.end = first + size

    def label(self, number: int) -> str:
        if not 0 <= number < self.end:
            raise KeyError(f"{number} is in no block")
        i = bisect.bisect_right(self.firsts, number) - 1
        return self.blocks[i].label(number - self.firsts[i] + self.offsets[i])


class VariableRegistry:
    """Maps (symbol, index tuple) to a column: one column block per symbol."""

    def __init__(self) -> None:
        self._blocks: dict[str, Block] = {}
        self._keys: dict[str, set[tuple]] = {}  # each symbol's keys so far
        self._runs = _Runs()

    def _add(self, symbol: str, keys: list[tuple], start: int,
             inner: tuple[tuple, ...]) -> None:
        """Register keys whose runs follow one another from ``start`` under
        a symbol, after its earlier keys.  Its keys, and the values along
        each inner axis, must be distinct, and its inner axes the same in
        every call; otherwise nothing is registered."""
        old = self._blocks.get(symbol)
        if old is not None and old.inner != inner:
            raise ValueError(f"symbol {symbol}: inner axes differ from its "
                             f"earlier columns'")
        seen, new = self._keys.get(symbol, ()), set(keys)
        if (len(new) < len(keys) or not new.isdisjoint(seen)
                or old is None and any(len(set(a)) < len(a) for a in inner)):
            raise ValueError(f"duplicate registration in block {symbol}")
        run = math.prod(map(len, inner))
        if old is None:
            self._keys[symbol] = new
            block = self._blocks[symbol] = Block(symbol, list(keys), start,
                                                 inner, run)
            offset = 0
        else:
            seen.update(new)
            block, offset = old, old.size
            old.extend(keys, start)
        self._runs.append(block, start, offset, len(keys) * run)

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

    def names(self) -> list[str]:
        """Every column's name, in column order."""
        names = np.empty(sum(b.size for b in self._blocks.values()),
                         dtype=object)
        for block in self._blocks.values():
            names[block.numbers().reshape(-1)] = block.labels()
        return names.tolist()

    def name(self, col: int) -> str:
        return self._runs.label(col)


class _Column:
    """Append-only 1-D array of parts (values, shape, name), laid out by
    ``_layout`` and joined on the first read after they were appended."""

    def __init__(self, dtype, values: np.ndarray | None = None) -> None:
        self._dtype = dtype
        self._array = np.empty(0, dtype=dtype) if values is None else values
        self._parts: list[tuple] = []
        self.size = self._array.size

    def extend(self, values, shape: tuple[int, ...], name: str = "") -> None:
        self._parts.append((values, shape, name))
        self.size += math.prod(shape)

    @property
    def array(self) -> np.ndarray:
        if self._parts:
            values, shapes, names = zip(*self._parts)
            self._array = _joined(self._array, _layout(
                values, [math.prod(shape) for shape in shapes], shapes, names,
                self._dtype))
            self._parts = []
        return self._array


def _joined(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    return np.concatenate((old, new)) if old.size else new


class _Model:
    """Columns' integrality, the objective and the rows: the storage a
    problem shares with its clones."""

    def __init__(self) -> None:
        self.n_cols = 0
        self.integer_runs: list[tuple[int, int]] = []  # (first, count)
        self.obj_cols = _Column(np.int64)  # objective terms in call order
        self.obj_vals = _Column(float)
        self.row_runs = _Runs()  # one run per row block, in row order
        # the rows as joined so far: terms per row, each row's term columns
        # in turn and their coefficients, row lb and row ub
        self.joined = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32),
                       np.empty(0), np.empty(0), np.empty(0))
        self._pending: list[tuple] = []  # row blocks not yet joined
        self._cache: dict = {}

    @property
    def n_rows(self) -> int:
        return self.row_runs.end

    def integer(self) -> np.ndarray:
        """Each column's integrality."""
        if "integer" not in self._cache:
            integer = np.zeros(self.n_cols, dtype=bool)
            for first, count in self.integer_runs:
                integer[first:first + count] = True
            self._cache["integer"] = integer
        return self._cache["integer"]

    # -- rows ---------------------------------------------------------------

    def add_rows(self, name: str, keys: list[tuple], inner: tuple[tuple, ...],
                 shape: tuple[int, ...], count, cols: np.ndarray,
                 vals: np.ndarray, lo, hi) -> None:
        """Append the row block of a family over the grid ``shape`` of
        ``keys`` x ``inner``.  ``cols`` and ``vals`` hold its terms, each
        row's in turn, and ``count`` the terms per row, a number or an
        array over the rows; ``lo`` and ``hi`` hold the row bounds, a
        number or an array that broadcasts to ``shape``.

        All of them are kept as they are until ``csr`` joins them with the
        earlier rows, so the arrays must not change in between."""
        n = math.prod(shape)
        start = self.n_rows
        self.row_runs.append(Block(name, keys, start, inner, n // shape[0]),
                             start, 0, n)
        self._pending.append((n, shape, name, count, cols, vals, lo, hi))
        self._cache.clear()

    def csr(self) -> tuple[np.ndarray, ...]:
        """(indptr, indices, data, row lb, row ub) of every row."""
        if "csr" not in self._cache:
            if self._pending:
                self._join()
            counts, indices, data, lo, hi = self.joined
            if indices.size and (np.minimum.reduce(indices) < 0
                                 or np.maximum.reduce(indices) >= self.n_cols):
                raise ValueError("a row block references an unknown column")
            indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
            counts.cumsum(out=indptr[1:])
            self._cache["csr"] = (indptr, indices, data, lo, hi)
        return self._cache["csr"]

    def _join(self) -> None:
        """Lay out the row blocks added since the last join and append
        them."""
        sizes, shapes, names, counts, cols, vals, lo, hi = zip(*self._pending)
        self._pending = []
        self.joined = tuple(map(_joined, self.joined, (
            _layout(counts, sizes, [(n,) for n in sizes], names, np.int64),
            np.concatenate(cols, axis=None, dtype=np.int32),
            np.concatenate(vals, axis=None, dtype=float),
            _layout(lo, sizes, shapes, names, float),
            _layout(hi, sizes, shapes, names, float))))

    def row_terms(self) -> tuple[np.ndarray, ...]:
        """Each stored term's row, each row's scale floor max(1, |lb|,
        |ub|) over its finite bounds, and the rows with terms with the
        position of their first term."""
        if "terms" not in self._cache:
            indptr, _, _, lo, hi = self.csr()
            counts = self.joined[0]
            row_of = np.arange(self.n_rows, dtype=np.int32).repeat(counts)
            floor, high = np.abs(lo), np.abs(hi)
            floor[floor == INF] = 0.0
            high[high == INF] = 0.0
            np.fmax(floor, high, out=floor)
            np.fmax(floor, 1.0, out=floor)
            filled = counts.nonzero()[0]
            self._cache["terms"] = (row_of, floor, filled, indptr[filled])
        return self._cache["terms"]

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
            raise ValueError(f"row {self.row_runs.label(i)}: lb {lo[i]} > "
                             f"ub {hi[i]}")
        self._cache["checked"] = True

    # -- objective ----------------------------------------------------------

    def objective_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Objective columns in order of first mention, with the sum of
        their coefficients."""
        key = ("objective", self.obj_cols.size)
        if key not in self._cache:
            cols, vals = self.obj_cols.array, self.obj_vals.array
            # summed term by term in call order
            summed = np.bincount(cols, weights=vals, minlength=self.n_cols)
            if cols.size and np.bincount(cols).max() > 1:
                _, first = np.unique(cols, return_index=True)
                cols = cols[np.sort(first)]
            self._cache[key] = (cols, summed[cols], summed)
        return self._cache[key][:2]

    def objective_vector(self) -> np.ndarray:
        self.objective_terms()
        return self._cache[("objective", self.obj_cols.size)][2]


class MilpProblem:
    def __init__(self) -> None:
        self.objective_constant = 0.0
        self.copies: list[Copy] = []  # see the module docstring
        self.registry = VariableRegistry()
        self._lb = _Column(float)
        self._ub = _Column(float)
        self._model = _Model()

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
        return self._model.integer()

    @property
    def var_names(self) -> list[str]:
        model = self._model
        key = ("names", model.n_cols)
        if key not in model._cache:
            model._cache[key] = self.registry.names()
        return model._cache[key]

    def var_name(self, col: int) -> str:
        return self.registry.name(int(col))

    def add_col_block(self, symbol: str, keys: list[tuple], lb, ub,
                      integer: bool = False,
                      inner: tuple[tuple, ...] = ()) -> np.ndarray:
        """Append one column per (key, inner position) of a variable symbol
        and name them ``symbol[key..., inner...]``.

        The columns follow the last column, key by key, each key's run over
        the flattened inner axes, with bounds [lb, ub] broadcast to (keys,
        *inner) when the bounds are next read; an array bound must not
        change before then.  A later call for the same symbol appends more
        keys to its block over the same inner axes.  A repeated key or inner
        value, or other inner axes, is rejected and appends nothing.
        Returns the columns' numbers, shaped (keys, *inner).
        """
        model, start = self._model, self._model.n_cols
        shape = (len(keys),) + tuple(map(len, inner))
        self.registry._add(symbol, keys, start, inner)
        self._lb.extend(lb, shape, symbol)
        self._ub.extend(ub, shape, symbol)
        n = math.prod(shape)
        if integer:
            model.integer_runs.append((start, n))
        model.n_cols += n
        model._cache.clear()
        return np.arange(start, start + n).reshape(shape)

    # -- rows --------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._model.n_rows

    @property
    def rows(self) -> list[Row]:
        """Every row as a ``Row``, made afresh from the CSR arrays."""
        indptr, indices, data, lo, hi = (a.tolist() for a in self.matrix())
        labels = itertools.chain.from_iterable(
            block.labels() for block in self._model.row_runs.blocks)
        # millions of new objects and no cycle among them: the cyclic
        # collector would rescan them again and again as the list grows
        collecting = gc.isenabled()
        gc.disable()
        try:
            return [Row(list(zip(indices[a:e], data[a:e])), low, high, label)
                    for a, e, low, high, label
                    in zip(indptr, indptr[1:], lo, hi, labels)]
        finally:
            if collecting:
                gc.enable()

    def add_row_block(self, family: str | tuple[str, ...], keys: list[tuple],
                      terms, lb, ub, inner: tuple[tuple, ...] = ()) -> None:
        """Append one row per (key, inner position) of an equation family.

        The rows follow the last row, key by key, each key's run over the
        flattened inner axes.  Each row gets the interval [lb, ub] and one
        term per (columns, coefficient) pair of ``terms``, in that order,
        except where the column is -1 or the coefficient 0: those terms
        are left out, so rows of one family may have different lengths.
        Every array broadcasts to (keys, *inner).  ``family`` may be a
        tuple of families over the same grid; ``terms``, ``lb`` and ``ub``
        then hold one entry per family, and each family is its own block,
        one after another.  The bounds are laid out, and an unknown column
        or a bound that does not broadcast raises, when the rows are next
        read (see the module docstring); an array bound must not change
        before then.
        """
        if isinstance(family, str):
            family, terms, lb, ub = (family,), (terms,), (lb,), (ub,)
        shape = (len(keys),) + tuple(map(len, inner))
        if not math.prod(shape):
            return
        for name, family_terms, lo, hi in zip(family, terms, lb, ub):
            width = len(family_terms)  # a grid as wide as this family's rows
            cols = np.empty(shape + (width,), dtype=np.int32)
            vals = np.empty(cols.shape)
            for j, (col, coef) in enumerate(family_terms):
                cols[..., j] = col
                vals[..., j] = coef
            keep = cols != -1
            keep &= vals != 0.0
            count = width
            if not keep.all():  # the rows become ragged, in term order
                cols, vals = cols[keep], vals[keep]
                count = np.add.reduce(keep.reshape(-1, width), axis=1,
                                      dtype=np.int64)
            self._model.add_rows(name, keys, inner, shape, count, cols, vals,
                                 lo, hi)

    def matrix(self) -> tuple[np.ndarray, ...]:
        """The cached CSR arrays (indptr, indices, data, row lb, row ub) of
        every row, as the engine takes them; clones share them."""
        return self._model.csr()

    def shared(self, key: str, build):
        """The value cached under ``key`` with the CSR arrays, which clones
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
        self._model.obj_cols.extend(cols, cols.shape)
        self._model.obj_vals.extend(coefs, coefs.shape)
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

    def max_violation(self, x: np.ndarray, scaled: bool = True) -> tuple[float, str]:
        """Worst row or bound violation and the offending label.

        The violations are those of ``violations``.  Ties go to the first
        row, and a bound wins only when strictly worse than every row.
        """
        viol, bound = self.violations(x, scaled)
        worst, where = 0.0, ""
        if viol.size:
            i = int(viol.argmax())
            if viol[i] > worst:
                worst, where = float(viol[i]), self._model.row_runs.label(i)
        if bound.size:
            j = int(bound.argmax())
            if bound[j] > worst:
                worst, where = float(bound[j]), f"bound[{self.var_name(j)}]"
        return worst, where

    def violations(self, x: np.ndarray,
                   scaled: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Each row's and each column's bound violation at ``x``.

        A row's violation is how far its activity lies outside [lb, ub];
        scaled, it is divided by max(1, its largest |coefficient * x|, its
        finite |lb| and |ub|), the usual relative feasibility measure for
        rows whose coefficients span magnitudes.  A bound's violation is
        divided by max(1, |x|) when scaled.  A NaN point value or activity
        is an infinite violation.
        """
        x = np.asarray(x, dtype=float)
        model = self._model
        row_of, floor, filled, firsts = model.row_terms()
        _, indices, data, lo, hi = model.csr()
        terms = x[indices]
        np.multiply(terms, data, out=terms)
        # summed term by term in each row's stored order, as a scalar loop
        act = np.bincount(row_of, weights=terms, minlength=lo.size)
        viol = np.maximum(np.maximum(0.0, lo - act), act - hi)
        if scaled and viol.size:
            scale = floor.copy()
            if filled.size:
                scale[filled] = np.fmax(scale[filled], np.maximum.reduceat(
                    np.abs(terms, out=terms), firsts))
            viol = np.divide(viol, scale, out=viol, where=viol > 0.0)
        viol[np.isnan(viol)] = INF
        bound = np.maximum(np.maximum(0.0, self.lb - x), x - self.ub)
        if scaled:
            bound = bound / np.fmax(1.0, np.abs(x))
        bound[np.isnan(bound)] = INF
        return viol, bound

    def rows_by_equation(self) -> dict[str, int]:
        """Row counts keyed by equation family, in row order."""
        counts: dict[str, int] = {}
        for block in self._model.row_runs.blocks:
            counts[block.name] = counts.get(block.name, 0) + block.size
        return counts
