"""The aggregate-function contract: one meaning for COUNT/SUM/AVG/MIN/MAX.

Eager group-by (§5) and the §7 distributed argument both rest on every
aggregate meaning the same thing wherever it runs.  This module is the only
place that defines that meaning; the row engine
(:func:`repro.engine.aggregation.compute_aggregate`), the vector engine's
fallback fold, the shard two-phase split and merge
(:mod:`repro.engine.exchange`) and the static checkers
(:mod:`repro.analysis`) all read it.

* **Fold** — SQL2 semantics: NULL inputs are skipped; DISTINCT removes
  duplicates by :func:`~repro.sqltypes.values.group_key` and keeps the first;
  SUM/AVG add with :func:`~repro.sqltypes.values.sql_add` in fold order,
  starting from the first value; MIN/MAX keep the first of tied values; an
  empty input gives COUNT 0 and NULL for the others.  ``COUNT(*)`` counts
  rows, not values, so callers answer it with the group size.
* **AVG finalizer** — :func:`finalize_avg`, the only one.
* **Two-phase split** — :data:`TWO_PHASE`: the partial functions each shard
  computes and the function that merges each partial (Yan & Larson's F1/F2
  split; Gray et al.'s distributive/algebraic classes).  :func:`finalize`
  turns the merged partials back into the one-phase value.
* **Flags** — :data:`ORDER_SENSITIVE` (the result depends on fold order, so
  re-associating partial sums is exact only over exact integers) and
  :data:`DUPLICATE_SENSITIVE` (the result changes under join-induced
  duplication).

This module must not import :mod:`repro.engine`: the analysis layer uses it.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.expressions.ast import Aggregate
from repro.sqltypes.values import NULL, SqlValue, group_key, sql_add, sql_div

#: function -> ((partial function, merge function), ...): what each shard
#: computes per group, and the aggregate that re-combines each partial.
TWO_PHASE: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "COUNT": (("COUNT", "SUM"),),
    "SUM": (("SUM", "SUM"),),
    "MIN": (("MIN", "MIN"),),
    "MAX": (("MAX", "MAX"),),
    "AVG": (("SUM", "SUM"), ("COUNT", "SUM")),
}

#: Functions whose folded value depends on the order values arrive in.
ORDER_SENSITIVE = frozenset({"SUM", "AVG"})

#: Functions whose value changes when input rows are duplicated.
DUPLICATE_SENSITIVE = frozenset({"COUNT", "SUM", "AVG"})


def finalize_avg(total: SqlValue, count: int) -> SqlValue:
    """AVG from a group's SUM and its count of non-NULL values.

    NULL over no values.  An exact-integer total (BOOLEAN included, being
    an ``int``) divides truly; any other total goes through ``sql_div``.
    """
    if count == 0:
        return NULL
    return total / count if isinstance(total, int) else sql_div(total, count)


def _sum(values: List[SqlValue]) -> SqlValue:
    if not values:
        return NULL
    total = values[0]
    for value in islice(values, 1, None):
        total = sql_add(total, value)
    return total


def _avg(values: List[SqlValue]) -> SqlValue:
    return finalize_avg(_sum(values), len(values))


# Builtin min/max return the first of tied items, as the contract requires.
_FOLDS: Dict[str, Callable[[List[SqlValue]], SqlValue]] = {
    "COUNT": len,
    "SUM": _sum,
    "AVG": _avg,
    "MIN": lambda values: min(values) if values else NULL,
    "MAX": lambda values: max(values) if values else NULL,
}


def _distinct(values: List[SqlValue]) -> List[SqlValue]:
    seen: Dict[Tuple, SqlValue] = {}
    for value in values:
        seen.setdefault(group_key((value,)), value)
    return list(seen.values())


def fold(
    function: str, values: Sequence[SqlValue], distinct: bool = False
) -> SqlValue:
    """One group's aggregate over its argument values, in fold order."""
    present = [value for value in values if value is not NULL]
    if distinct:
        present = _distinct(present)
    return _FOLDS[function](present)


def fold_groups(
    function: str,
    values: Sequence[SqlValue],
    group_of: Sequence[int],
    order: Sequence[int],
    n_groups: int,
    distinct: bool = False,
) -> List[SqlValue]:
    """:func:`fold` for every group at once.

    Row ``r`` belongs to group ``group_of[r]``; rows are folded in the
    sequence ``order`` gives.  Each group's values are gathered first, so
    the per-row loop is the same two list operations for every function.
    """
    buckets: List[List[SqlValue]] = [[] for __ in range(n_groups)]
    for r in order:
        value = values[r]
        if value is not NULL:
            buckets[group_of[r]].append(value)
    if distinct:
        buckets = [_distinct(bucket) for bucket in buckets]
    fold_one = _FOLDS[function]
    return [fold_one(bucket) for bucket in buckets]


def partials(aggregate: Aggregate) -> Optional[Tuple[Tuple[Aggregate, str], ...]]:
    """The shard-local partials of ``aggregate`` with each one's merge
    function, or ``None`` when partials do not merge (DISTINCT)."""
    if aggregate.distinct:
        return None
    return tuple(
        (Aggregate(partial, aggregate.argument), merge)
        for partial, merge in TWO_PHASE[aggregate.function]
    )


def finalize(function: str, merged: Sequence[SqlValue]) -> SqlValue:
    """The one-phase value of ``function`` from its merged partials (in
    :data:`TWO_PHASE` order)."""
    if function == "AVG":
        return finalize_avg(merged[0], merged[1])
    return merged[0]
