"""Columnar batches: the unit of data flow in the vector backend.

A :class:`ColumnBatch` stores a relation column-major: ``names`` carry the
same qualified spellings a :class:`~repro.engine.dataset.DataSet` uses, and
``columns`` holds one value sequence per name.  Column slicing
(:meth:`select_columns`) is zero-copy — the new batch shares the column
sequences — and row selection (:meth:`take`) gathers through a selection
vector.

NULL is represented in-band by the :data:`~repro.sqltypes.values.NULL`
singleton, exactly as in row tuples; the *validity mask* of a column
(:meth:`validity`) and the cached per-column type census
(:meth:`column_kinds`) let kernels decide **per batch** whether the
null-aware slow path is needed at all — the "where does 3VL actually
matter" observation applied to execution.

``ordering`` is the same physical property a DataSet carries: the columns
the rows are known to be sorted on (ascending, NULLS FIRST).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import BindingError
from repro.sqltypes.values import NULL, SqlValue, _Null

try:  # numpy accelerates index math (selection vectors, sorts, group folds);
    import numpy as _np  # the engine stays fully functional without it.
except ImportError:  # pragma: no cover - the toolchain ships numpy
    _np = None


class _Repeat:
    """A constant value broadcast to ``n`` elements without materializing.

    Supports just enough of the sequence protocol (len / iter / indexing)
    for the compiled kernels, which only ever zip or subscript columns.
    """

    __slots__ = ("value", "n")

    def __init__(self, value: SqlValue, n: int) -> None:
        self.value = value
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[SqlValue]:
        value = self.value
        for __ in range(self.n):
            yield value

    def __getitem__(self, index: int) -> SqlValue:
        if isinstance(index, slice):
            return [self.value] * len(range(*index.indices(self.n)))
        if not -self.n <= index < self.n:
            raise IndexError(index)
        return self.value


class _Gather:
    """A lazy gather: ``source[sel[i]]`` materialized only on demand.

    Row selection (:meth:`ColumnBatch.take`, join pairing) produces one
    ``_Gather`` per column instead of copying every value — *late
    materialization*: downstream operators touch only the columns they
    actually read, and numeric columns can be gathered at C speed through
    their array views (:meth:`ColumnBatch.as_array`) without ever building
    the Python list.
    """

    __slots__ = ("source", "sel", "source_array", "_sel_array", "_data")

    def __init__(self, source: Sequence[SqlValue], sel, source_array=None) -> None:
        self.source = source
        self.sel = sel  # List[int] or numpy index array
        self.source_array = source_array  # numpy view of source, if known
        self._sel_array = None
        self._data: Optional[List[SqlValue]] = None

    def materialize(self) -> List[SqlValue]:
        data = self._data
        if data is None:
            arr = self.source_array
            if arr is not None and _np is not None:
                data = arr[self.sel_array()].tolist()
            else:
                source = self.source
                data = [source[i] for i in self.sel]
            self._data = data
        return data

    def sel_array(self):
        """The selection vector as a numpy index array (cached)."""
        sel = self._sel_array
        if sel is None and _np is not None:
            sel = self.sel if isinstance(self.sel, _np.ndarray) else _np.asarray(
                self.sel, dtype=_np.intp
            )
            self._sel_array = sel
        return sel

    def __len__(self) -> int:
        return len(self.sel)

    def __iter__(self) -> Iterator[SqlValue]:
        return iter(self.materialize())

    def __getitem__(self, index):
        if self._data is not None:
            return self._data[index]
        if isinstance(index, slice):
            # Materialize only the requested window, not the whole column.
            source = self.source
            return [source[i] for i in self.sel[index]]
        return self.source[self.sel[index]]


#: A column is any indexable sequence of SQL values (list, tuple, _Repeat,
#: or a lazy _Gather view).
Column = Sequence[SqlValue]

_MISSING = object()


def _sequence_array(sequence: Sequence[SqlValue]):
    """Convert a homogeneous numeric value sequence to a numpy array.

    Returns ``None`` unless every element is exactly ``int`` (→ int64) or
    exactly ``float`` (→ float64) — ``bool`` is a distinct kind, and NULL
    or strings disqualify the column.  Conversion failures (e.g. ints
    beyond int64) also return ``None``; callers must fall back.
    """
    if _np is None:
        return None
    kinds = frozenset(map(type, sequence))
    if kinds == {int}:
        dtype = _np.int64
    elif kinds == {float}:
        dtype = _np.float64
    else:
        return None
    try:
        return _np.asarray(
            sequence if isinstance(sequence, list) else list(sequence), dtype=dtype
        )
    except (OverflowError, ValueError, TypeError):
        return None


class ColumnBatch:
    """A bag of rows stored column-major under a fixed column layout."""

    __slots__ = (
        "names", "columns", "length", "ordering", "_index", "_kinds", "_arrays"
    )

    def __init__(
        self,
        names: Sequence[str],
        columns: Iterable[Column],
        length: Optional[int] = None,
        ordering: Sequence[str] = (),
    ) -> None:
        self.names: Tuple[str, ...] = tuple(names)
        self.columns: List[Column] = list(columns)
        if len(self.columns) != len(self.names):
            raise ValueError(
                f"{len(self.names)} names but {len(self.columns)} columns"
            )
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self.length = length
        self.ordering: Tuple[str, ...] = tuple(ordering)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self._kinds: Dict[int, frozenset] = {}
        self._arrays: Dict[int, object] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        names: Sequence[str],
        rows: Sequence[Tuple[SqlValue, ...]],
        ordering: Sequence[str] = (),
    ) -> "ColumnBatch":
        """Transpose row tuples into columns."""
        names = tuple(names)
        if rows:
            columns: List[Column] = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for __ in names]
        return cls(names, columns, length=len(rows), ordering=ordering)

    @classmethod
    def from_dataset(cls, dataset) -> "ColumnBatch":
        """Adapt a row-major :class:`~repro.engine.dataset.DataSet`."""
        return cls.from_rows(dataset.columns, dataset.rows, dataset.ordering)

    def to_dataset(self):
        """Materialize as a row-major DataSet (the executor's result type)."""
        from repro.engine.dataset import DataSet

        if self.columns:
            rows: Iterable[Tuple[SqlValue, ...]] = zip(*self.columns)
        else:
            rows = [()] * self.length
        return DataSet(self.names, rows, ordering=self.ordering)

    # -- shape ---------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return self.length

    def __len__(self) -> int:
        return self.length

    def iter_rows(self) -> Iterator[Tuple[SqlValue, ...]]:
        if self.columns:
            return iter(zip(*self.columns))
        return iter([()] * self.length)

    # -- column resolution (same rules as DataSet.index_of) -----------------

    def index_of(self, column: str) -> int:
        """Resolve a column name; bare names match a unique qualified one."""
        if column in self._index:
            return self._index[column]
        matches = [
            i
            for name, i in self._index.items()
            if name.rsplit(".", 1)[-1] == column
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise BindingError(f"dataset has no column {column!r}: {self.names}")
        raise BindingError(f"ambiguous column {column!r} in {self.names}")

    def indexes_of(self, columns: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.index_of(column) for column in columns)

    # -- per-column facts ----------------------------------------------------

    def column_kinds(self, index: int) -> frozenset:
        """The set of Python types present in column ``index`` (cached).

        One C-speed pass over the column buys every kernel the per-batch
        decision "can I use raw tuples here, or do NULL/BOOLEAN need the
        ``=ⁿ``-aware slow path?".
        """
        kinds = self._kinds.get(index)
        if kinds is None:
            column = self.columns[index]
            if isinstance(column, _Gather) and column._data is None:
                # Unmaterialized gather: census the (possibly larger) source
                # instead — a conservative superset.  Kernels only rely on
                # *absence* of NULL/BOOLEAN, which the superset preserves.
                kinds = frozenset(map(type, column.source))
            else:
                kinds = frozenset(map(type, column))
            self._kinds[index] = kinds
        return kinds

    def has_nulls(self, index: int) -> bool:
        return _Null in self.column_kinds(index)

    def validity(self, index: int) -> List[bool]:
        """The validity mask of a column: True where the value is non-NULL."""
        if not self.has_nulls(index):
            return [True] * self.length
        return [value is not NULL for value in self.columns[index]]

    def as_array(self, index: int):
        """A numpy view of column ``index``, or ``None`` if not expressible.

        Only *homogeneous* null-free numeric columns get arrays (exactly
        ``{int}`` → int64, ``{float}`` → float64): mixing kinds, BOOLEAN,
        or NULL would change value identity under a dtype cast, so those
        columns stay Python-only.  Computed once per batch and cached;
        gather columns reuse their source's array and gather at C speed.
        """
        if _np is None:
            return None
        cached = self._arrays.get(index, _MISSING)
        if cached is not _MISSING:
            return cached
        column = self.columns[index]
        array = None
        if isinstance(column, _Gather) and column._data is None:
            base = column.source_array
            if base is None:
                base = _sequence_array(column.source)
                column.source_array = base
            if base is not None:
                array = base[column.sel_array()]
        else:
            array = _sequence_array(column)
        self._arrays[index] = array
        return array

    def cached_array(self, index: int):
        """The already-computed array view of a column, or ``None``.

        Unlike :meth:`as_array` this never triggers a conversion — it is
        for handing an existing view to a derived :class:`_Gather` without
        forcing work for columns nobody may read.
        """
        return self._arrays.get(index)

    def plain_keys_on(self, indexes: Sequence[int]) -> bool:
        """Can raw value tuples serve as ``=ⁿ`` group keys on these columns?

        True when no column contains NULL (which must collide with NULL)
        or BOOLEAN (which must stay distinct from 0/1, per
        :func:`~repro.sqltypes.values.group_key`).
        """
        return not any(
            _Null in self.column_kinds(i) or bool in self.column_kinds(i)
            for i in indexes
        )

    # -- slicing -------------------------------------------------------------

    def select_columns(
        self,
        indexes: Sequence[int],
        names: Optional[Sequence[str]] = None,
        ordering: Sequence[str] = (),
    ) -> "ColumnBatch":
        """Zero-copy column projection: the new batch shares column data."""
        return ColumnBatch(
            tuple(names) if names is not None else tuple(self.names[i] for i in indexes),
            [self.columns[i] for i in indexes],
            length=self.length,
            ordering=ordering,
        )

    def take(
        self, selection: Sequence[int], ordering: Sequence[str] = ()
    ) -> "ColumnBatch":
        """Gather the rows named by a selection vector (in order).

        The gather is *lazy*: each output column is a :class:`_Gather`
        view over its source, materialized only if something reads it.
        """
        batch = ColumnBatch(
            self.names,
            [
                _Gather(column, selection, self._arrays.get(i))
                for i, column in enumerate(self.columns)
            ],
            length=len(selection),
            ordering=ordering,
        )
        return batch

    def with_ordering(self, ordering: Sequence[str]) -> "ColumnBatch":
        """The same data under a different known-order annotation."""
        batch = ColumnBatch(
            self.names, self.columns, length=self.length, ordering=ordering
        )
        batch._kinds = self._kinds  # same columns, same census
        batch._arrays = self._arrays
        return batch

    def __repr__(self) -> str:
        return f"ColumnBatch({self.names}, {self.length} rows)"
