"""Grouping and aggregation with strict SQL2 semantics.

Grouping uses the ``=ⁿ`` duplicate semantics (NULL groups with NULL).  Two
physical strategies are provided:

* :func:`hash_group` — one pass, hash on the group key;
* :func:`sort_group` — sort then scan, with the aggregation *pipelined* into
  the scan (the technique §2 of the paper attributes to the folklore and to
  Klug [9]: aggregation can be computed while grouping).

Each aggregate function folds by the contract in
:mod:`repro.expressions.aggregates` (SQL2: NULL inputs skipped, NULL over
an empty bag); ``COUNT(*)`` counts rows.  ``F(AA)`` may be any arithmetic
over aggregates (``COUNT(A1) + SUM(A2 + A3)``); each spec yields exactly
one value per group.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.ops import AggregateSpec
from repro.engine.dataset import DataSet
from repro.engine.governor import (
    PartitionedSpill,
    ResourceGovernor,
    estimate_table_bytes,
    external_sort_rows,
)
from repro.errors import ExecutionError
from repro.expressions.ast import (
    Aggregate,
    Arithmetic,
    ColumnRef,
    Expression,
    HostVariable,
    Literal,
    Negate,
    aggregates as collect_aggregates,
)
from repro.expressions.aggregates import fold
from repro.expressions.eval import ReusableRowScope, evaluate_scalar
from repro.sqltypes.values import (
    NULL,
    SqlValue,
    group_key,
    sort_key,
    sql_add,
    sql_div,
    sql_mul,
    sql_neg,
    sql_sub,
)

_ARITHMETIC = {"+": sql_add, "-": sql_sub, "*": sql_mul, "/": sql_div}


def _values_extractor(indexes: Sequence[int]):
    """A precompiled ``row -> tuple(row[i] for i in indexes)``.

    Hoisted out of per-row loops: the closure (or ``itemgetter``) avoids
    re-creating a generator and tuple-comprehension frame per row.
    """
    if not indexes:
        return lambda row: ()
    if len(indexes) == 1:
        index = indexes[0]
        return lambda row: (row[index],)
    from operator import itemgetter

    return itemgetter(*indexes)


def compute_aggregate(
    aggregate: Aggregate,
    dataset: DataSet,
    group_rows: Sequence[Tuple[SqlValue, ...]],
    params: Optional[Mapping[str, SqlValue]] = None,
) -> SqlValue:
    """Evaluate one aggregate function over the rows of one group."""
    if aggregate.argument is None:  # COUNT(*)
        return len(group_rows)
    scope = ReusableRowScope(dataset.columns)
    argument = aggregate.argument
    values = [
        evaluate_scalar(argument, scope.bind(row), params) for row in group_rows
    ]
    return fold(aggregate.function, values, aggregate.distinct)


def evaluate_aggregate_expression(
    expression: Expression,
    dataset: DataSet,
    group_rows: Sequence[Tuple[SqlValue, ...]],
    params: Optional[Mapping[str, SqlValue]] = None,
) -> SqlValue:
    """Evaluate an ``fᵢ(AA)`` — arithmetic over aggregates — for one group.

    Column references outside aggregates resolve against the group's first
    row; this is only sound for grouping columns (identical across the
    group), which is all SQL permits there anyway.
    """
    if isinstance(expression, Aggregate):
        return compute_aggregate(expression, dataset, group_rows, params)
    if isinstance(expression, Arithmetic):
        left = evaluate_aggregate_expression(expression.left, dataset, group_rows, params)
        right = evaluate_aggregate_expression(expression.right, dataset, group_rows, params)
        return _ARITHMETIC[expression.op](left, right)
    if isinstance(expression, Negate):
        return sql_neg(
            evaluate_aggregate_expression(expression.operand, dataset, group_rows, params)
        )
    if isinstance(expression, (Literal, HostVariable, ColumnRef)):
        if not group_rows:
            return NULL
        return evaluate_scalar(expression, dataset.scope(group_rows[0]), params)
    raise ExecutionError(
        f"unsupported node in aggregation expression: {type(expression).__name__}"
    )


def _output_columns(
    grouping_columns: Sequence[str],
    dataset: DataSet,
    specs: Sequence[AggregateSpec],
) -> Tuple[str, ...]:
    group_indexes = dataset.indexes_of(grouping_columns)
    named = tuple(dataset.columns[i] for i in group_indexes)
    return named + tuple(spec.name for spec in specs)


def hash_group(
    dataset: DataSet,
    grouping_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    params: Optional[Mapping[str, SqlValue]] = None,
    governor: Optional[ResourceGovernor] = None,
) -> Tuple[DataSet, int]:
    """Hash-based GROUP BY + F(AA).  Returns (result, work units).

    Work is one unit per input row (hashing) plus one per produced group.
    With no grouping columns, the whole input is one group and exactly one
    output row is produced (SQL scalar-aggregate semantics).

    When a governor signals pressure on the grouping state, the input is
    hash-partitioned to disk and each partition is aggregated separately;
    first-appearance indexes restore the exact in-memory group order.
    """
    # GROUP BY semantics, including GROUP BY () with empty grouping columns:
    # an empty input yields zero groups, hence zero output rows.  This is
    # what the paper's G[GA]/F[AA] algebra requires for the degenerate cases
    # of the Main Theorem (Section 5, Case 1).
    group_indexes = dataset.indexes_of(grouping_columns)
    extract = _values_extractor(group_indexes)
    if governor is not None:
        state_bytes = estimate_table_bytes(
            dataset.cardinality, len(dataset.columns)
        )
        if governor.should_spill(state_bytes, "group by"):
            return _spilled_hash_group(
                dataset, grouping_columns, specs, params,
                governor, group_indexes, extract, state_bytes,
            )
    groups: Dict[Tuple, List[Tuple[SqlValue, ...]]] = {}
    for row in dataset.rows:
        if governor is not None:
            governor.tick("group by")
        key = group_key(extract(row))
        groups.setdefault(key, []).append(row)

    out_rows: List[Tuple[SqlValue, ...]] = []
    for rows in groups.values():
        representative = rows[0]
        group_values = tuple(representative[i] for i in group_indexes)
        agg_values = tuple(
            evaluate_aggregate_expression(spec.expression, dataset, rows, params)
            for spec in specs
        )
        out_rows.append(group_values + agg_values)

    result = DataSet(_output_columns(grouping_columns, dataset, specs), out_rows)
    work = dataset.cardinality + len(out_rows)
    return result, work


def _spilled_hash_group(
    dataset: DataSet,
    grouping_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    params: Optional[Mapping[str, SqlValue]],
    governor: ResourceGovernor,
    group_indexes: Sequence[int],
    extract,
    state_bytes: int,
) -> Tuple[DataSet, int]:
    """Partitioned GROUP BY: spill input by group-key hash, aggregate each
    partition in memory.

    All rows of a group land in one partition (same key, same hash), so
    per-group aggregation is exact.  Each group remembers the input index
    of its first row; sorting the output on that index reproduces the
    in-memory dict's insertion (first-appearance) order exactly.
    """
    partitions = governor.spill_partitions(state_bytes)
    spill = governor.spill_manager()
    chunk = max(16, governor.rows_per_run(len(dataset.columns)) // partitions)
    parts = PartitionedSpill(spill, partitions, chunk, "group")
    for index, row in enumerate(dataset.rows):
        governor.tick("group by partition")
        parts.add(hash(group_key(extract(row))) % partitions, (index, row))
    governor.note_spill(parts.rows_added, "group by")

    keyed_out: List[Tuple[int, Tuple[SqlValue, ...]]] = []
    for partition in range(partitions):
        groups: Dict[Tuple, Tuple[int, List[Tuple[SqlValue, ...]]]] = {}
        for index, row in parts.read(partition):
            governor.tick("group by")
            key = group_key(extract(row))
            entry = groups.get(key)
            if entry is None:
                groups[key] = (index, [row])
            else:
                entry[1].append(row)
        for first_index, rows in groups.values():
            representative = rows[0]
            group_values = tuple(representative[i] for i in group_indexes)
            agg_values = tuple(
                evaluate_aggregate_expression(spec.expression, dataset, rows, params)
                for spec in specs
            )
            keyed_out.append((first_index, group_values + agg_values))
    keyed_out.sort(key=lambda item: item[0])
    out_rows = [row for __, row in keyed_out]
    result = DataSet(_output_columns(grouping_columns, dataset, specs), out_rows)
    work = dataset.cardinality + len(out_rows)
    return result, work


def sort_group(
    dataset: DataSet,
    grouping_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    params: Optional[Mapping[str, SqlValue]] = None,
    presorted: bool = False,
    governor: Optional[ResourceGovernor] = None,
) -> Tuple[DataSet, int]:
    """Sort-based GROUP BY with pipelined aggregation.

    Sorting on the grouping columns brings ``=ⁿ``-equivalent rows together
    (our sort key collates all NULLs equal and first), then a single scan
    emits one row per group.  Work counts sort comparisons (n log2 n
    approximation) plus the scan.

    With ``presorted=True`` the input is already grouped on the grouping
    columns (an *interesting order*): the sort is skipped entirely and the
    aggregation pipelines over the scan — the Klug [9] observation the
    paper's §2 recounts.  Work is then just the scan.
    """
    import math

    group_indexes = dataset.indexes_of(grouping_columns)
    extract = _values_extractor(group_indexes)
    if presorted:
        ordered = dataset.rows
    else:
        sort_by = lambda row: sort_key(extract(row))
        if governor is not None and governor.should_spill(
            estimate_table_bytes(dataset.cardinality, len(dataset.columns)),
            "sort group",
        ):
            # External runs + stable merge: the identical permutation an
            # in-memory stable sort produces, so identical group order.
            ordered = external_sort_rows(
                dataset.rows, sort_by, len(dataset.columns), governor,
                "group-sort",
            )
        else:
            ordered = sorted(dataset.rows, key=sort_by)

    out_rows: List[Tuple[SqlValue, ...]] = []
    current_key: Optional[Tuple] = None
    current_rows: List[Tuple[SqlValue, ...]] = []

    def flush() -> None:
        if current_key is None:
            return
        representative = current_rows[0]
        group_values = tuple(representative[i] for i in group_indexes)
        agg_values = tuple(
            evaluate_aggregate_expression(spec.expression, dataset, current_rows, params)
            for spec in specs
        )
        out_rows.append(group_values + agg_values)

    for row in ordered:
        if governor is not None:
            governor.tick("sort group")
        key = group_key(extract(row))
        if key != current_key:
            flush()
            current_key = key
            current_rows = []
        current_rows.append(row)
    flush()

    # The output is ordered by the grouping columns — the §7 remark about
    # the grouped result "normally sorted based on the grouping columns".
    output_columns = _output_columns(grouping_columns, dataset, specs)
    result = DataSet(
        output_columns, out_rows,
        ordering=output_columns[: len(grouping_columns)],
    )
    n = dataset.cardinality
    if presorted:
        work = n + len(out_rows)
    else:
        work = (n * max(1, math.ceil(math.log2(n))) if n > 1 else n) + n
    return result, work


def distinct(
    dataset: DataSet,
    governor: Optional[ResourceGovernor] = None,
) -> Tuple[DataSet, int]:
    """π^D duplicate elimination under ``=ⁿ`` semantics (hash-based)."""
    seen: Dict[Tuple, Tuple[SqlValue, ...]] = {}
    for row in dataset.rows:
        if governor is not None:
            governor.tick("distinct")
        seen.setdefault(group_key(row), row)
    result = DataSet(dataset.columns, seen.values())
    return result, dataset.cardinality
