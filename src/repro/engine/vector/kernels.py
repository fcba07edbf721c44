"""Vectorized operator kernels over :class:`ColumnBatch`.

Each kernel mirrors one row-engine operator (``engine/joins.py``,
``engine/aggregation.py``, ``engine/sorting.py``) and returns the same
``(result, work)`` pair computing the *identical* work formula — the §7
cost study must not be able to tell the backends apart.  What changes is
the inner loop: predicates and aggregate arguments are compiled once per
operator (:mod:`repro.expressions.compile`) and applied to whole columns,
selection vectors replace row copying, and grouped aggregation folds each
aggregate's argument column per group (at C speed via ``np.bincount``
where exact, by the :mod:`repro.expressions.aggregates` contract
otherwise) instead of materializing row lists per group.

NULL handling follows the per-batch type census: kernels consult
:meth:`ColumnBatch.column_kinds` to decide whether the ``=ⁿ``/3VL-aware
slow path is needed at all, and use raw values when it is not.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.ops import AggregateSpec
from repro.engine.joins import extract_equi_keys
from repro.engine.vector.batch import ColumnBatch, _Gather, _Repeat, _np
from repro.expressions.aggregates import finalize_avg, fold_groups
from repro.expressions.ast import Expression
from repro.expressions.compile import (
    TRUE_CODE,
    GroupVectors,
    compile_aggregate_arguments,
    compile_group_expression,
    compile_predicate,
)
from repro.sqltypes.values import NULL, SqlValue, group_key, sort_key

Params = Optional[Mapping[str, SqlValue]]


def _sort_cost(n: int) -> int:
    return n * max(1, math.ceil(math.log2(n))) if n > 1 else n


# -- filter ------------------------------------------------------------------


def filter_batch(
    batch: ColumnBatch, condition: Expression, params: Params
) -> Tuple[ColumnBatch, int]:
    """σ[C]: keep rows where the predicate's truth code is TRUE (⌊C⌋)."""
    predicate = compile_predicate(condition, batch.names)
    codes = predicate(batch, params)
    selection = [i for i, code in enumerate(codes) if code == TRUE_CODE]
    if len(selection) == batch.length:
        result = batch  # nothing filtered: share the columns outright
    else:
        result = batch.take(selection, ordering=batch.ordering)
    return result, batch.length


# -- projection --------------------------------------------------------------


def project_batch(batch: ColumnBatch, columns: Sequence[str]) -> ColumnBatch:
    """π^A: zero-copy column selection; ordering survives as the longest
    leading prefix whose columns are all retained (DataSet.project rules)."""
    indexes = batch.indexes_of(columns)
    kept = {batch.names[i] for i in indexes}
    surviving: List[str] = []
    for column in batch.ordering:
        if column in kept:
            surviving.append(column)
        else:
            break
    return batch.select_columns(indexes, ordering=surviving)


def distinct_batch(batch: ColumnBatch) -> Tuple[ColumnBatch, int]:
    """π^D duplicate elimination under ``=ⁿ`` (keeps first occurrence)."""
    indexes = range(len(batch.names))
    selection: List[int] = []
    if batch.plain_keys_on(indexes):
        seen_raw: Dict[Tuple[SqlValue, ...], None] = {}
        for i, row in enumerate(batch.iter_rows()):
            if row not in seen_raw:
                seen_raw[row] = None
                selection.append(i)
    else:
        seen: Dict[Tuple, None] = {}
        for i, row in enumerate(batch.iter_rows()):
            key = group_key(row)
            if key not in seen:
                seen[key] = None
                selection.append(i)
    # The row engine's distinct() drops the ordering property.
    return batch.take(selection), batch.length


# -- joins -------------------------------------------------------------------


def _pair_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    left_sel: Sequence[int],
    right_sel: Sequence[int],
) -> ColumnBatch:
    """Gather matched (left, right) row pairs into one combined batch.

    The gathers are lazy (:class:`_Gather` views): a column of the join
    output is only materialized if a downstream operator reads it — late
    materialization, the classic columnar-join trick.
    """
    columns: List[Sequence[SqlValue]] = [
        _Gather(column, left_sel, left.cached_array(i))
        for i, column in enumerate(left.columns)
    ]
    columns.extend(
        _Gather(column, right_sel, right.cached_array(j))
        for j, column in enumerate(right.columns)
    )
    return ColumnBatch(left.names + right.names, columns, length=len(left_sel))


def _apply_residual(
    pairs: ColumnBatch, residual: Optional[Expression], params: Params
) -> ColumnBatch:
    if residual is None:
        return pairs
    predicate = compile_predicate(residual, pairs.names)
    codes = predicate(pairs, params)
    selection = [i for i, code in enumerate(codes) if code == TRUE_CODE]
    if len(selection) == pairs.length:
        return pairs
    return pairs.take(selection)


def _key_rows(
    batch: ColumnBatch, key_indexes: Sequence[int]
) -> Tuple[List[Optional[Tuple[SqlValue, ...]]], int]:
    """Per-row raw key tuples, with ``None`` marking NULL-containing keys.

    Returns (keys, valid_count).  The row engine keys its hash table with
    raw value tuples (after dropping NULL keys), so raw tuples are exactly
    right here too.
    """
    key_columns = [batch.columns[i] for i in key_indexes]
    if len(key_columns) == 1:
        column = key_columns[0]
        if not batch.has_nulls(key_indexes[0]):
            return [(value,) for value in column], batch.length
        keys: List[Optional[Tuple[SqlValue, ...]]] = [
            None if value is NULL else (value,) for value in column
        ]
        return keys, sum(1 for k in keys if k is not None)
    if not any(batch.has_nulls(i) for i in key_indexes):
        rows = list(zip(*key_columns)) if key_columns else [()] * batch.length
        return rows, batch.length
    keys = []
    valid = 0
    for row in zip(*key_columns):
        if any(value is NULL for value in row):
            keys.append(None)
        else:
            keys.append(row)
            valid += 1
    return keys, valid


def _np_equi_join(left: ColumnBatch, right: ColumnBatch, left_key: int, right_key: int):
    """C-speed single-key equi-join via sort + binary search.

    Emits the *identical* pair sequence the dict-of-buckets probe does:
    left rows in order, and (because the argsort is stable) each left
    row's matches in original right-row order.  Only taken when both key
    columns have exact same-dtype array views — mixed dtypes or NaN would
    change equality semantics.  Returns (left_sel, right_sel, probes) or
    ``None``.
    """
    if _np is None:
        return None
    left_arr = left.as_array(left_key)
    right_arr = right.as_array(right_key)
    if left_arr is None or right_arr is None or left_arr.dtype != right_arr.dtype:
        return None
    if left_arr.dtype.kind == "f" and (
        _np.isnan(left_arr).any() or _np.isnan(right_arr).any()
    ):
        return None
    order = _np.argsort(right_arr, kind="stable")
    sorted_keys = right_arr[order]
    lo = _np.searchsorted(sorted_keys, left_arr, side="left")
    hi = _np.searchsorted(sorted_keys, left_arr, side="right")
    counts = hi - lo
    probes = int(counts.sum())
    left_sel = _np.repeat(_np.arange(left.length), counts)
    offsets = _np.cumsum(counts) - counts
    positions = (
        _np.arange(probes) - _np.repeat(offsets, counts) + _np.repeat(lo, counts)
    )
    right_sel = order[positions]
    return left_sel, right_sel, probes


def hash_join_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    condition: Optional[Expression],
    params: Params,
) -> Tuple[ColumnBatch, int]:
    """Hash join on extracted equi-keys; nested-loop fallback without one.

    Same contract as :func:`repro.engine.joins.hash_join`: NULL keys are
    dropped on both sides, work = |L| + |R| + bucket matches examined.
    """
    pairs, residual = extract_equi_keys(condition, left, right)
    if not pairs:
        return nested_loop_join_batch(left, right, condition, params)

    left_keys = [p[0] for p in pairs]
    right_keys = [p[1] for p in pairs]

    if len(pairs) == 1:
        fast = _np_equi_join(left, right, left_keys[0], right_keys[0])
        if fast is not None:
            left_sel, right_sel, probes = fast
            combined = _apply_residual(
                _pair_batch(left, right, left_sel, right_sel), residual, params
            )
            return combined, left.length + right.length + probes

    right_key_rows, __ = _key_rows(right, right_keys)
    table: Dict[Tuple[SqlValue, ...], List[int]] = {}
    for j, key in enumerate(right_key_rows):
        if key is not None:
            table.setdefault(key, []).append(j)

    left_key_rows, __ = _key_rows(left, left_keys)
    left_sel: List[int] = []
    right_sel: List[int] = []
    probes = 0
    get_bucket = table.get
    for i, key in enumerate(left_key_rows):
        if key is None:
            continue
        bucket = get_bucket(key)
        if bucket:
            probes += len(bucket)
            left_sel.extend([i] * len(bucket))
            right_sel.extend(bucket)

    combined = _apply_residual(_pair_batch(left, right, left_sel, right_sel), residual, params)
    work = left.length + right.length + probes
    return combined, work


def nested_loop_join_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    condition: Optional[Expression],
    params: Params,
) -> Tuple[ColumnBatch, int]:
    """Examine every pair; work = |L| × |R|.

    The condition is compiled once; each left row is broadcast against the
    whole right batch, producing one selection vector per left row.
    """
    names = left.names + right.names
    work = left.length * right.length
    left_sel: List[int] = []
    right_sel: List[int] = []
    if right.length:
        predicate = (
            None if condition is None else compile_predicate(condition, names)
        )
        for i in range(left.length):
            if predicate is None:
                left_sel.extend([i] * right.length)
                right_sel.extend(range(right.length))
                continue
            broadcast = ColumnBatch(
                names,
                [_Repeat(column[i], right.length) for column in left.columns]
                + list(right.columns),
                length=right.length,
            )
            codes = predicate(broadcast, params)
            matched = [j for j, code in enumerate(codes) if code == TRUE_CODE]
            left_sel.extend([i] * len(matched))
            right_sel.extend(matched)
    return _pair_batch(left, right, left_sel, right_sel), work


def sort_merge_join_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    condition: Optional[Expression],
    params: Params,
) -> Tuple[ColumnBatch, int]:
    """Sort-merge join on extracted equi-keys (nested-loop fallback).

    Mirrors :func:`repro.engine.joins.sort_merge_join`: NULL-key rows are
    dropped pre-merge, presorted inputs skip their sort phase, work =
    sort costs + |L| + |R| + matches, output carries left-key ordering.
    """
    pairs, residual = extract_equi_keys(condition, left, right)
    if not pairs:
        return nested_loop_join_batch(left, right, condition, params)

    from repro.engine.sorting import is_sorted_on

    left_keys = [p[0] for p in pairs]
    right_keys = [p[1] for p in pairs]
    left_presorted = is_sorted_on(left, [left.names[i] for i in left_keys])
    right_presorted = is_sorted_on(right, [right.names[i] for i in right_keys])

    def merge_side(batch: ColumnBatch, key_indexes: List[int], presorted: bool):
        key_rows, __ = _key_rows(batch, key_indexes)
        indices = [i for i, key in enumerate(key_rows) if key is not None]
        keys = [sort_key(key_rows[i]) for i in indices]
        if not presorted:
            order = sorted(range(len(indices)), key=keys.__getitem__)
            indices = [indices[t] for t in order]
            keys = [keys[t] for t in order]
        return indices, keys

    left_idx, left_sorted_keys = merge_side(left, left_keys, left_presorted)
    right_idx, right_sorted_keys = merge_side(right, right_keys, right_presorted)

    left_sel: List[int] = []
    right_sel: List[int] = []
    matches = 0
    i = j = 0
    n_left, n_right = len(left_idx), len(right_idx)
    while i < n_left and j < n_right:
        left_key = left_sorted_keys[i]
        right_key = right_sorted_keys[j]
        if left_key < right_key:
            i += 1
        elif right_key < left_key:
            j += 1
        else:
            j_end = j
            while j_end < n_right and right_sorted_keys[j_end] == right_key:
                j_end += 1
            run = right_idx[j:j_end]
            i_run = i
            while i_run < n_left and left_sorted_keys[i_run] == left_key:
                matches += len(run)
                left_sel.extend([left_idx[i_run]] * len(run))
                right_sel.extend(run)
                i_run += 1
            i = i_run
            j = j_end

    combined = _apply_residual(_pair_batch(left, right, left_sel, right_sel), residual, params)
    work = (
        (0 if left_presorted else _sort_cost(left.length))
        + (0 if right_presorted else _sort_cost(right.length))
        + left.length
        + right.length
        + matches
    )
    ordering = tuple(left.names[i] for i in left_keys)
    return combined.with_ordering(ordering), work


def cartesian_product_batch(
    left: ColumnBatch, right: ColumnBatch
) -> Tuple[ColumnBatch, int]:
    """L × R; work = |L| × |R|.  Left values repeat blockwise, right cycles."""
    n_left, n_right = left.length, right.length
    columns: List[Sequence[SqlValue]] = [
        [value for value in column for __ in range(n_right)]
        for column in left.columns
    ]
    columns.extend(list(column) * n_left for column in right.columns)
    result = ColumnBatch(
        left.names + right.names, columns, length=n_left * n_right
    )
    return result, n_left * n_right


# -- sorting -----------------------------------------------------------------


def sort_batch(
    batch: ColumnBatch,
    columns: Sequence[str],
    descending: Optional[Sequence[bool]] = None,
) -> Tuple[ColumnBatch, int]:
    """Sort on ``columns`` (NULLS FIRST); mirrors ``sort_dataset``.

    A stable multi-pass sort over a permutation vector, least-significant
    key first; null-free columns sort on raw values (same order, no
    wrapper allocation).
    """
    indexes = batch.indexes_of(columns)
    flags = tuple(descending) if descending else tuple(False for __ in columns)
    work = _sort_cost(batch.length)
    ordering = tuple(batch.names[i] for i in indexes) if not any(flags) else ()
    fast = _np_sort_perm(batch, indexes, flags)
    if fast is not None:
        return batch.take(fast, ordering=ordering), work
    perm = list(range(batch.length))
    for index, desc in reversed(list(zip(indexes, flags))):
        column = batch.columns[index]
        if batch.has_nulls(index):
            perm.sort(key=lambda i: sort_key((column[i],)), reverse=desc)
        else:
            perm.sort(key=column.__getitem__, reverse=desc)
    return batch.take(perm, ordering=ordering), work


def _np_sort_perm(batch: ColumnBatch, indexes: Sequence[int], flags: Sequence[bool]):
    """A C-speed stable sort permutation, or ``None`` when Python-only.

    Valid only for homogeneous null-free int/float key columns without
    NaN: there raw ``<`` agrees with ``sort_key`` order, and a stable
    argsort (descending keys negated — stability makes that equivalent to
    ``reverse=True``) reproduces the multi-pass ``list.sort`` exactly.
    """
    if _np is None or batch.length <= 1 or not indexes:
        return None
    arrays = []
    for index, desc in zip(indexes, flags):
        arr = batch.as_array(index)
        if arr is None:
            return None
        if arr.dtype.kind == "f" and _np.isnan(arr).any():
            return None
        if desc:
            if arr.dtype.kind == "i" and arr.size and int(arr.min()) == -(2 ** 63):
                return None  # negation would overflow
            arr = -arr
        arrays.append(arr)
    if len(arrays) == 1:
        return _np.argsort(arrays[0], kind="stable")
    return _np.lexsort(tuple(reversed(arrays)))


# -- grouped aggregation -----------------------------------------------------


def _factorize_generic(
    batch: ColumnBatch,
    group_indexes: Tuple[int, ...],
    key_columns: List[Sequence[SqlValue]],
    mode: str,
    presorted: bool,
) -> Tuple[List[int], List[int], Optional[List[int]], int]:
    """Reference grouping: (group_of, reps, fold_perm, sort_work).

    Per-row grouping keys are raw value tuples when the type census shows
    no NULL/BOOLEAN on the grouping columns (raw tuple equality then
    agrees with group_key equality), the full ``=ⁿ`` key otherwise.
    ``fold_perm`` is ``None`` when rows fold in input order.
    """
    n = batch.length
    if not group_indexes:
        keys: Sequence[Tuple] = _Repeat((), n)
    elif batch.plain_keys_on(group_indexes):
        keys = (
            [(value,) for value in key_columns[0]]
            if len(key_columns) == 1
            else list(zip(*key_columns))
        )
    else:
        keys = [group_key(row) for row in zip(*key_columns)] if n else []

    group_of: List[int] = [0] * n
    reps: List[int] = []
    if mode == "sort":
        if presorted:
            perm: Sequence[int] = range(n)
            fold_perm: Optional[List[int]] = None
            sort_work = 0
        else:
            sort_keys = (
                keys
                if not group_indexes
                else [
                    sort_key(tuple(batch.columns[i][r] for i in group_indexes))
                    for r in range(n)
                ]
            )
            perm = sorted(range(n), key=sort_keys.__getitem__)
            fold_perm = list(perm)
            sort_work = _sort_cost(n) if n > 1 else n
        # Boundary scan: a new group starts whenever the key changes between
        # consecutive rows of the sorted sequence (exactly sort_group's
        # flush condition).
        previous: object = _SENTINEL
        gid = -1
        for r in perm:
            key = keys[r]
            if gid < 0 or key != previous:
                gid += 1
                reps.append(r)
                previous = key
            group_of[r] = gid
        return group_of, reps, fold_perm, sort_work
    table: Dict[Tuple, int] = {}
    for r in range(n):
        key = keys[r]
        gid = table.get(key)
        if gid is None:
            gid = len(reps)
            table[key] = gid
            reps.append(r)
        group_of[r] = gid
    return group_of, reps, None, 0


def _factorize_fast(
    batch: ColumnBatch,
    group_indexes: Tuple[int, ...],
    mode: str,
    presorted: bool,
):
    """C-speed grouping, or ``None`` when only the generic path is sound.

    Two strategies, both provably ``=ⁿ``-equivalent to the generic path:

    * *shared-selection gathers* (hash mode): every grouping column is an
      unmaterialized gather through the same selection vector — e.g. all
      came from one side of a join.  Factorize the (much smaller) source
      rows with ``group_key``, then gather + compact the ids.
    * *array keys*: homogeneous null-free int/float grouping columns with
      no NaN — raw equality is ``=ⁿ`` equality and a stable argsort is
      ``sort_key`` order, so ids come from ``np.unique``/boundary flags.

    Returns (group_of int64 array, reps, fold_perm array or None,
    sort_work); reps is the first row of each group in the row engine's
    processing order (input order for hash, sorted order for sort).
    """
    if _np is None or not group_indexes:
        return None
    n = batch.length
    columns = [batch.columns[i] for i in group_indexes]

    if mode == "hash" and all(
        isinstance(column, _Gather) and column._data is None for column in columns
    ):
        shared_sel = columns[0].sel
        sources = [column.source for column in columns]
        m = len(sources[0])
        if (
            all(column.sel is shared_sel for column in columns)
            and 0 < m <= n  # factorizing the source must not exceed one pass
            and all(len(source) == m for source in sources)
        ):
            table: Dict[Tuple, int] = {}
            src_gid = _np.empty(m, dtype=_np.int64)
            source_keys = (
                ((value,) for value in sources[0])
                if len(sources) == 1
                else zip(*sources)
            )
            for j, raw in enumerate(source_keys):
                key = group_key(raw)
                gid = table.get(key)
                if gid is None:
                    gid = len(table)
                    table[key] = gid
                src_gid[j] = gid
            gids = src_gid[columns[0].sel_array()]
            __, first, inverse = _np.unique(
                gids, return_index=True, return_inverse=True
            )
            return inverse.reshape(-1), first.tolist(), None, 0

    arrays = []
    for i in group_indexes:
        arr = batch.as_array(i)
        if arr is None:
            return None
        if arr.dtype.kind == "f" and _np.isnan(arr).any():
            return None  # NaN equality/order differs from the Python path
        arrays.append(arr)

    if mode == "hash":
        codes = arrays[0] if len(arrays) == 1 else _combine_codes(arrays)
        __, first, inverse = _np.unique(codes, return_index=True, return_inverse=True)
        return inverse.reshape(-1), first.tolist(), None, 0

    if presorted:
        perm = None
        ordered = arrays
    else:
        if len(arrays) == 1:
            perm = _np.argsort(arrays[0], kind="stable")
        else:
            perm = _np.lexsort(tuple(reversed(arrays)))
        ordered = [arr[perm] for arr in arrays]
    change = _np.zeros(n, dtype=bool)
    change[0] = True
    for arr in ordered:
        change[1:] |= arr[1:] != arr[:-1]
    gids_in_order = _np.cumsum(change) - 1
    if perm is None:
        return gids_in_order, _np.flatnonzero(change).tolist(), None, 0
    group_of = _np.empty(n, dtype=_np.int64)
    group_of[perm] = gids_in_order
    return group_of, perm[change].tolist(), perm, _sort_cost(n)


def _combine_codes(arrays):
    """Collapse multiple key arrays into one int64 code array.

    Each column is factorized independently, then codes are mixed with a
    positional radix; renormalizing after every step keeps every code
    below n², far inside int64.
    """
    codes = _np.unique(arrays[0], return_inverse=True)[1].reshape(-1)
    for arr in arrays[1:]:
        nxt = _np.unique(arr, return_inverse=True)[1].reshape(-1)
        width = int(nxt.max()) + 1 if nxt.size else 1
        codes = _np.unique(codes * width + nxt, return_inverse=True)[1].reshape(-1)
    return codes


def _values_array(values: Sequence[SqlValue], batch: ColumnBatch):
    """An exact numpy view of an aggregate-argument column, or ``None``.

    A column taken straight from the batch reuses its cached array view;
    a computed column (arithmetic over columns) converts if its dtype
    lands exactly on int64/float64 — NULL, strings, or plain bools make
    the conversion refuse (object/bool/str dtypes), forcing the streaming
    fallback.
    """
    for index, column in enumerate(batch.columns):
        if column is values:
            return batch.as_array(index)
    if isinstance(values, list):
        try:
            arr = _np.asarray(values)
        except (OverflowError, ValueError, TypeError):
            return None
        if arr.ndim == 1 and (arr.dtype == _np.int64 or arr.dtype == _np.float64):
            return arr
    return None


def _fold_fast(
    function: str,
    values: Sequence[SqlValue],
    batch: ColumnBatch,
    group_of,
    fold_perm,
    n_groups: int,
) -> Optional[List[SqlValue]]:
    """COUNT/SUM/AVG per group via ``np.bincount``, or ``None``.

    ``bincount`` accumulates sequentially, so per-group float sums fold in
    exactly the order the rows are presented (``fold_perm`` reorders to
    the row engine's fold order); starting from 0.0 is exact because
    ``0.0 + x`` is ``x`` for every ``x`` but ``-0.0``, so a column holding
    ``-0.0`` takes the fallback.  Integer sums go through float64 weights only when
    ``max|v|·n < 2⁵³`` guarantees every partial sum is exact; otherwise
    the caller's arbitrary-precision fallback runs.  Every group has at
    least one row and the array view excludes NULL, so the empty-bag →
    NULL case cannot arise here.
    """
    if function not in ("COUNT", "SUM", "AVG"):
        return None
    arr = _values_array(values, batch)
    if arr is None:
        return None
    gids = group_of
    if fold_perm is not None:
        gids = gids[fold_perm]
        arr = arr[fold_perm]
    if function == "COUNT":
        return _np.bincount(gids, minlength=n_groups).tolist()
    if arr.dtype.kind == "i":
        amax = int(_np.abs(arr).max()) if arr.size else 0
        if amax < 0 or amax * arr.size >= 2 ** 53:
            return None
        totals = (
            _np.bincount(gids, weights=arr, minlength=n_groups)
            .astype(_np.int64)
            .tolist()
        )
    else:
        if _np.signbit(arr[arr == 0]).any():
            return None
        totals = _np.bincount(gids, weights=arr, minlength=n_groups).tolist()
    if function == "SUM":
        return totals
    counts = _np.bincount(gids, minlength=n_groups).tolist()
    return [finalize_avg(total, count) for total, count in zip(totals, counts)]


def grouped_aggregate(
    batch: ColumnBatch,
    grouping_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    params: Params = None,
    mode: str = "hash",
    presorted: bool = False,
) -> Tuple[ColumnBatch, int]:
    """G[GA] + F(AA): grouped aggregation over factorized group ids.

    ``mode="hash"`` mirrors :func:`repro.engine.aggregation.hash_group`
    (groups in first-appearance order, work = n + groups); ``mode="sort"``
    mirrors :func:`~repro.engine.aggregation.sort_group` (sort then
    boundary scan, output ordered by the grouping columns, work =
    n·log₂n + n, or n + groups when ``presorted``).
    """
    group_indexes = batch.indexes_of(grouping_columns)
    n = batch.length
    key_columns = [batch.columns[i] for i in group_indexes]

    # Grouping = factorization: assign each row a dense group id, pick the
    # row engine's representative per group, and remember the order rows
    # must be folded in.  The C-speed path handles null-free numeric keys
    # and shared-selection gathers; everything else takes the generic path.
    group_of: Optional[List[int]] = None
    group_of_array = None
    fold_perm_list: Optional[List[int]] = None  # None = fold in input order
    fold_perm_array = None
    fast = _factorize_fast(batch, group_indexes, mode, presorted) if n else None
    if fast is not None:
        group_of_array, reps, fold_perm_array, sort_work = fast
    else:
        group_of, reps, fold_perm_list, sort_work = _factorize_generic(
            batch, group_indexes, key_columns, mode, presorted
        )
        if _np is not None and n >= 1024:
            group_of_array = _np.asarray(group_of, dtype=_np.int64)
            if fold_perm_list is not None:
                fold_perm_array = _np.asarray(fold_perm_list, dtype=_np.intp)

    n_groups = len(reps)
    order: Optional[Sequence[int]] = None  # fold order as Python ints, lazy

    # Compile each distinct aggregate's argument once, evaluate it over the
    # whole batch, then fold per group — at C speed via bincount where the
    # value column has an exact array view, by the contract's fold otherwise.
    compiled, slots = compile_aggregate_arguments(specs, batch.names)
    agg_columns: List[List[SqlValue]] = []
    for aggregate in compiled:
        if aggregate.argument is None:  # COUNT(*): group sizes
            if group_of_array is not None:
                agg_columns.append(
                    _np.bincount(group_of_array, minlength=n_groups).tolist()
                )
            else:
                sizes = [0] * n_groups
                for gid in group_of:
                    sizes[gid] += 1
                agg_columns.append(sizes)
            continue
        values = aggregate.argument(batch, params)
        column: Optional[List[SqlValue]] = None
        if group_of_array is not None and not aggregate.distinct:
            column = _fold_fast(
                aggregate.function,
                values,
                batch,
                group_of_array,
                fold_perm_array,
                n_groups,
            )
        if column is None:
            if group_of is None:
                group_of = group_of_array.tolist()
            if order is None:
                if fold_perm_list is not None:
                    order = fold_perm_list
                elif fold_perm_array is not None:
                    order = fold_perm_array.tolist()
                else:
                    order = range(n)
            column = fold_groups(
                aggregate.function,
                values,
                group_of,
                order,
                n_groups,
                aggregate.distinct,
            )
        agg_columns.append(column)

    # Evaluate each spec's F(AA) arithmetic over the per-group vectors.
    groups = GroupVectors(batch, reps, agg_columns)
    spec_columns = [
        compile_group_expression(spec.expression, batch.names, slots)(groups, params)
        for spec in specs
    ]

    out_names = tuple(batch.names[i] for i in group_indexes) + tuple(
        spec.name for spec in specs
    )
    out_columns: List[Sequence[SqlValue]] = [
        [column[r] for r in reps] for column in key_columns
    ]
    out_columns.extend(spec_columns)

    if mode == "sort":
        ordering: Tuple[str, ...] = out_names[: len(grouping_columns)]
        if presorted:
            work = n + n_groups
        else:
            work = sort_work + n
    else:
        ordering = ()
        work = n + n_groups
    result = ColumnBatch(out_names, out_columns, length=n_groups, ordering=ordering)
    return result, work


class _Sentinel:
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return 0


_SENTINEL = _Sentinel()
