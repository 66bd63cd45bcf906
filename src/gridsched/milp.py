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
they were added.

A call does only the work that is its own, and leaves the rest to one
join.  ``add_col_block`` registers the keys and keeps the bounds as they
were given, a number or an array that broadcasts to the block; the column
bounds are laid out when ``lb`` or ``ub`` is next read.  ``add_row_block``
fills the (row, term) column and value arrays of every family of its call
in one pass, one grid per call when the rows are padded and one per family
otherwise, and drops the padding and every zero coefficient at once, so a
block keeps only its nonzero terms.  Each family's terms per row and its
row bounds are kept the same way as column bounds, and its ``Block`` is
made only when a label or ``rows`` asks for it.  The first read of the rows (``matrix``, ``check``,
``max_violation``, a solve) joins every block added since the last read:
the numbers are repeated over their blocks in one call, the arrays put in
place, the terms concatenated into the CSR arrays (each row's terms in the
order its family lists them, no explicit zero, no column twice in a
row) and every column number checked.  So array bounds are read at the
join and must not change before it.  ``check``, ``objective_value`` and
``max_violation`` are numpy operations on the joined arrays, and the engine
takes them as they are, row by row.  They are cached; ``clone_with_bounds``
copies share them, and so does anything else kept with them through
``shared``.

Names are derived on demand from (block, offset) by ``Block.label``: row
labels like ``eq14[L2,3,s0]`` map a row back to the printed model
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


class VariableRegistry:
    """Maps (symbol, index tuple) to a column: one column block per symbol."""

    def __init__(self) -> None:
        self._blocks: dict[str, Block] = {}
        self._keys: dict[str, set[tuple]] = {}  # each symbol's keys so far

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
        if old is None:
            self._keys[symbol] = new
            self._blocks[symbol] = Block(symbol, list(keys), start, inner,
                                         math.prod(map(len, inner)))
        else:
            seen.update(new)
            old.extend(keys, start)

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

    def names(self) -> list[str]:
        """Every column's name, in column order."""
        names = np.empty(sum(b.size for b in self._blocks.values()),
                         dtype=object)
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
        self.integer_runs: list[tuple[int, int]] = []  # (first, count)
        self.obj_cols = _Column(np.int64)  # objective terms in call order
        self.obj_vals = _Column(float)
        self.n_rows = 0
        # every row block, in row order, as its ``Block`` arguments; the
        # blocks themselves are made when first asked for
        self.families: list[tuple] = []
        self._blocks: list[Block] = []
        self.starts: list[int] = []  # each row block's first row
        # the rows as joined so far: terms per row, each row's term columns
        # in turn and their coefficients, row lb and row ub
        self.joined = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32),
                       np.empty(0), np.empty(0), np.empty(0))
        self._pending: list[tuple] = []  # ``add_rows`` calls not yet joined
        self._cache: dict = {}

    def integer(self) -> np.ndarray:
        """Each column's integrality."""
        if "integer" not in self._cache:
            integer = np.zeros(self.n_cols, dtype=bool)
            for first, count in self.integer_runs:
                integer[first:first + count] = True
            self._cache["integer"] = integer
        return self._cache["integer"]

    # -- rows ---------------------------------------------------------------

    def add_rows(self, names: tuple[str, ...], keys: list[tuple],
                 inner: tuple[tuple, ...], shape: tuple[int, ...], counts,
                 cols: list, vals: list, lo, hi) -> None:
        """Append one row block per family over the grid ``shape`` of
        ``keys`` x ``inner``, one after another.  ``cols`` and ``vals``
        hold the blocks' terms as arrays, each row's terms in turn, and
        ``counts`` the terms per row, a number per family or one array over
        all the rows; ``lo`` and ``hi`` hold each family's row bounds, a
        number or an array that broadcasts to ``shape``.

        All of them are kept as they are until ``csr`` joins them with the
        earlier rows, so the arrays must not change in between."""
        run = math.prod(shape[1:])
        n = shape[0] * run
        for name in names:
            self.families.append((name, keys, self.n_rows, inner, run))
            self.starts.append(self.n_rows)
            self.n_rows += n
        self._pending.append((names, n, shape, counts, cols, vals, lo, hi))
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
        """Lay out the rows added since the last join and append them."""
        pending, self._pending = self._pending, []
        # a part per family, in row order, for the bounds; the term counts
        # of a padded call are one array over all its families' rows
        parts = ([rec[1] for rec in pending for _ in rec[0]],
                 [rec[2] for rec in pending for _ in rec[0]],
                 [name for rec in pending for name in rec[0]])
        counts = []
        for names, n, _, count, *_ in pending:
            if isinstance(count, list):
                counts.extend((c, n, (n,), name) for c, name in zip(count, names))
            else:
                counts.append((count, count.size, count.shape, ""))
        self.joined = tuple(map(_joined, self.joined, (
            _layout(*zip(*counts), np.int64),
            np.concatenate([c for rec in pending for c in rec[4]], axis=None,
                           dtype=np.int32),
            np.concatenate([v for rec in pending for v in rec[5]], axis=None,
                           dtype=float),
            _layout([v for rec in pending for v in rec[6]], *parts, float),
            _layout([v for rec in pending for v in rec[7]], *parts, float))))

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

    @property
    def blocks(self) -> list[Block]:
        """Every row block, in row order."""
        made = self._blocks
        made.extend(Block(*family) for family in self.families[len(made):])
        return made

    def label(self, row: int) -> str:
        b = bisect.bisect_right(self.starts, row) - 1
        block = (self._blocks[b] if b < len(self._blocks)
                 else Block(*self.families[b]))
        return block.label(row - self.starts[b])

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
    def rows(self) -> RowView:
        return self._rows

    def add_row_block(self, family: str | tuple[str, ...], keys: list[tuple],
                      terms, lb, ub, inner: tuple[tuple, ...] = (),
                      padded: bool = False) -> None:
        """Append one row per (key, inner position) of an equation family.

        The rows follow the last row, key by key, each key's run over the
        flattened inner axes.  Each row gets one term per (columns,
        coefficient) pair of ``terms`` and the interval [lb, ub]; every
        array broadcasts to (keys, *inner).  A term whose coefficient is 0
        is left out of its row.  With ``padded``, a column of -1 leaves
        that term out too, so rows of one family may have different
        lengths.  ``family`` may be a tuple of families over the same
        grid; ``terms``, ``lb`` and ``ub`` then hold one entry per family,
        and each family is its own block, one after another.  The bounds are laid out, and an unknown column or a
        bound that does not broadcast raises, when the rows are next read
        (see the module docstring); an array bound must not change before
        then.
        """
        if isinstance(family, str):
            family, terms, lb, ub = (family,), (terms,), (lb,), (ub,)
        shape = (len(keys),) + tuple(map(len, inner))
        if not math.prod(shape):
            return
        widths = [len(t) for t in terms]
        if padded:  # one grid of the longest rows; the padding drops out
            width = max(widths)
            cols = np.empty((len(family),) + shape + (width,), dtype=np.int32)
            vals = np.empty(cols.shape)
            if min(widths) < width:
                cols.fill(-1)
            blocks = list(zip(cols, vals))
        else:  # one grid per family, as wide as its rows
            blocks = [(np.empty(shape + (m,), dtype=np.int32),
                       np.empty(shape + (m,))) for m in widths]
        for (block_cols, block_vals), family_terms in zip(blocks, terms):
            for j, (col, coef) in enumerate(family_terms):
                block_cols[..., j] = col
                block_vals[..., j] = coef
        if padded:  # each row keeps its term order
            cols, vals = cols.reshape(-1, width), vals.reshape(-1, width)
            keep = cols != -1
            keep &= vals != 0.0
            counts = np.add.reduce(keep, axis=1, dtype=np.int64)
            cols, vals = [cols[keep]], [vals[keep]]
        else:
            counts = list(widths)
            cols, vals = [c for c, _ in blocks], [v for _, v in blocks]
            for i, v in enumerate(vals):
                keep = v != 0.0
                if not keep.all():  # this family's rows become ragged
                    cols[i], vals[i] = cols[i][keep], v[keep]
                    counts[i] = np.add.reduce(keep.reshape(-1, widths[i]),
                                              axis=1, dtype=np.int64)
        self._model.add_rows(family, keys, inner, shape, counts, cols, vals,
                             lb, ub)

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
        worst, where = 0.0, ""
        if viol.size:
            i = int(viol.argmax())
            if viol[i] > worst:
                worst, where = float(viol[i]), self._model.label(i)
        bound = np.maximum(np.maximum(0.0, self.lb - x), x - self.ub)
        if scaled:
            bound = bound / np.fmax(1.0, np.abs(x))
        bound[np.isnan(bound)] = INF
        if bound.size:
            j = int(bound.argmax())
            if bound[j] > worst:
                worst, where = float(bound[j]), f"bound[{self.var_name(j)}]"
        return worst, where

    def rows_by_equation(self) -> dict[str, int]:
        """Row counts keyed by equation family, in row order."""
        counts: dict[str, int] = {}
        for name, keys, _, _, run in self._model.families:
            counts[name] = counts.get(name, 0) + len(keys) * run
        return counts
