"""Compile expression ASTs to column-at-a-time kernels.

The row engine re-walks the :class:`~repro.expressions.ast.Expression` tree
for every tuple.  This module lowers a tree **once per operator** to nested
Python closures that each consume and produce whole columns:

* :func:`compile_scalar` — value expressions; returns a function
  ``(batch, params) -> column`` of SQL values (NULL-propagating, same
  semantics as :func:`repro.expressions.eval.evaluate_scalar`);
* :func:`compile_predicate` — boolean expressions; returns a function
  ``(batch, params) -> truth codes``.

Three-valued logic is encoded per batch as small integers —
``FALSE=0, UNKNOWN=1, TRUE=2`` — so Figure 2's connectives become branch
arithmetic: ``AND = min``, ``OR = max``, ``NOT = 2 - x``.  A row qualifies
(``⌊P⌋``) exactly when its code is :data:`TRUE_CODE`.

Column references are resolved to positions at compile time under the
operator's input layout, with the same qualification/ambiguity rules (and
error messages) as :class:`~repro.expressions.eval.RowScope`.

Aggregation support: :func:`compile_aggregate_arguments` lowers the
arguments of every aggregate in an ``F(AA)`` list, and
:func:`compile_group_expression` lowers the surrounding arithmetic to run
over *per-group* vectors — so ``COUNT(A1) + SUM(A2 + A3)`` costs one column
pass plus one pass over the groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import BindingError, ExecutionError
from repro.expressions.ast import (
    Aggregate,
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    HostVariable,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
)
from repro.expressions.eval import like_regex
from repro.sqltypes.truth import FALSE, TRUE, UNKNOWN, Truth
from repro.sqltypes.values import (
    NULL,
    SqlValue,
    sql_add,
    sql_compare_eq,
    sql_compare_ge,
    sql_compare_gt,
    sql_compare_le,
    sql_compare_lt,
    sql_compare_ne,
    sql_div,
    sql_mul,
    sql_neg,
    sql_sub,
)

#: Kleene truth codes: AND = min, OR = max, NOT = 2 - x.
FALSE_CODE = 0
UNKNOWN_CODE = 1
TRUE_CODE = 2

_CODE: Dict[Truth, int] = {FALSE: FALSE_CODE, UNKNOWN: UNKNOWN_CODE, TRUE: TRUE_CODE}
_CODE_VALUE: Dict[int, SqlValue] = {FALSE_CODE: False, UNKNOWN_CODE: NULL, TRUE_CODE: True}

_COMPARATORS = {
    "=": sql_compare_eq,
    "<>": sql_compare_ne,
    "<": sql_compare_lt,
    "<=": sql_compare_le,
    ">": sql_compare_gt,
    ">=": sql_compare_ge,
}

_ARITHMETIC = {"+": sql_add, "-": sql_sub, "*": sql_mul, "/": sql_div}

#: A compiled kernel: (batch, params) -> column (scalar) or codes (predicate).
ScalarKernel = Callable[[object, Optional[Mapping[str, SqlValue]]], Sequence[SqlValue]]
PredicateKernel = Callable[[object, Optional[Mapping[str, SqlValue]]], Sequence[int]]

_PREDICATE_NODES = (Comparison, And, Or, Not, IsNull, InList, Between, Like)


def resolve_column(names: Sequence[str], ref: ColumnRef) -> int:
    """Resolve a column reference to a position under ``names``.

    Same rules as :meth:`RowScope.lookup`: a qualified reference must match
    exactly; a bare one matches a column of exactly that name first, else
    exactly one column's bare name.
    """
    exact = ref.qualified if ref.table else ref.column
    for i, name in enumerate(names):
        if name == exact:
            return i
    if ref.table:
        raise BindingError(f"unknown column: {exact}")
    candidates = [
        i for i, name in enumerate(names) if name.rsplit(".", 1)[-1] == ref.column
    ]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise BindingError(f"unknown column: {ref.column}")
    raise BindingError(
        f"ambiguous column {ref.column}: matches "
        f"{sorted(names[i] for i in candidates)}"
    )


def _broadcast(value: SqlValue) -> ScalarKernel:
    from repro.engine.vector.batch import _Repeat

    return lambda batch, params: _Repeat(value, batch.length)


def compile_scalar(expression: Expression, names: Sequence[str]) -> ScalarKernel:
    """Lower a value expression to a whole-column closure."""
    if isinstance(expression, Literal):
        return _broadcast(expression.value)
    if isinstance(expression, ColumnRef):
        index = resolve_column(names, expression)
        return lambda batch, params: batch.columns[index]
    if isinstance(expression, HostVariable):
        name = expression.name

        def host(batch, params):
            if params is None or name not in params:
                raise ExecutionError(f"unbound host variable :{name}")
            from repro.engine.vector.batch import _Repeat

            return _Repeat(params[name], batch.length)

        return host
    if isinstance(expression, Arithmetic):
        left = compile_scalar(expression.left, names)
        right = compile_scalar(expression.right, names)
        op = _ARITHMETIC[expression.op]
        return lambda batch, params: [
            op(x, y) for x, y in zip(left(batch, params), right(batch, params))
        ]
    if isinstance(expression, Negate):
        operand = compile_scalar(expression.operand, names)
        return lambda batch, params: [sql_neg(v) for v in operand(batch, params)]
    if isinstance(expression, Aggregate):
        raise ExecutionError(
            f"aggregate {expression} cannot be evaluated against a single row"
        )
    if isinstance(expression, _PREDICATE_NODES):
        # A predicate used in value position: TRUE/FALSE/NULL as BOOLEAN.
        predicate = compile_predicate(expression, names)
        return lambda batch, params: [
            _CODE_VALUE[code] for code in predicate(batch, params)
        ]
    raise ExecutionError(f"cannot evaluate expression node {type(expression).__name__}")


def compile_predicate(expression: Expression, names: Sequence[str]) -> PredicateKernel:
    """Lower a boolean expression to a whole-column truth-code closure."""
    if isinstance(expression, Comparison):
        left = compile_scalar(expression.left, names)
        right = compile_scalar(expression.right, names)
        compare = _COMPARATORS[expression.op]
        code = _CODE
        return lambda batch, params: [
            code[compare(x, y)]
            for x, y in zip(left(batch, params), right(batch, params))
        ]
    if isinstance(expression, And):
        left = compile_predicate(expression.left, names)
        right = compile_predicate(expression.right, names)
        return lambda batch, params: [
            x if x < y else y
            for x, y in zip(left(batch, params), right(batch, params))
        ]
    if isinstance(expression, Or):
        left = compile_predicate(expression.left, names)
        right = compile_predicate(expression.right, names)
        return lambda batch, params: [
            x if x > y else y
            for x, y in zip(left(batch, params), right(batch, params))
        ]
    if isinstance(expression, Not):
        operand = compile_predicate(expression.operand, names)
        return lambda batch, params: [2 - x for x in operand(batch, params)]
    if isinstance(expression, IsNull):
        operand = compile_scalar(expression.operand, names)
        if expression.negated:
            return lambda batch, params: [
                FALSE_CODE if v is NULL else TRUE_CODE for v in operand(batch, params)
            ]
        return lambda batch, params: [
            TRUE_CODE if v is NULL else FALSE_CODE for v in operand(batch, params)
        ]
    if isinstance(expression, InList):
        operand = compile_scalar(expression.operand, names)
        items = [compile_scalar(item, names) for item in expression.items]
        negated = expression.negated
        code = _CODE

        def in_list(batch, params):
            values = list(operand(batch, params))
            acc = [FALSE_CODE] * batch.length
            for item in items:
                acc = [
                    a if a > c else c
                    for a, c in zip(
                        acc,
                        (
                            code[sql_compare_eq(x, y)]
                            for x, y in zip(values, item(batch, params))
                        ),
                    )
                ]
            return [2 - a for a in acc] if negated else acc

        return in_list
    if isinstance(expression, Between):
        operand = compile_scalar(expression.operand, names)
        low = compile_scalar(expression.low, names)
        high = compile_scalar(expression.high, names)
        negated = expression.negated
        code = _CODE

        def between(batch, params):
            values = list(operand(batch, params))
            lows = low(batch, params)
            highs = high(batch, params)
            out = []
            for x, lo, hi in zip(values, lows, highs):
                a = code[sql_compare_le(lo, x)]
                b = code[sql_compare_le(x, hi)]
                c = a if a < b else b
                out.append(2 - c if negated else c)
            return out

        return between
    if isinstance(expression, Like):
        operand = compile_scalar(expression.operand, names)
        regex = like_regex(expression.pattern)
        negated = expression.negated

        def like(batch, params):
            out = []
            for v in operand(batch, params):
                if v is NULL:
                    out.append(UNKNOWN_CODE)
                    continue
                if not isinstance(v, str):
                    raise ExecutionError(f"LIKE applied to non-string {v!r}")
                matched = regex.fullmatch(v) is not None
                out.append(
                    FALSE_CODE
                    if matched == negated
                    else TRUE_CODE
                )
            return out

        return like
    if isinstance(expression, Literal):
        value = expression.value
        if value is NULL:
            return lambda batch, params: [UNKNOWN_CODE] * batch.length
        if isinstance(value, bool):
            constant = TRUE_CODE if value else FALSE_CODE
            return lambda batch, params: [constant] * batch.length
        raise ExecutionError(f"literal {value!r} is not a boolean")
    # Anything value-shaped in predicate position (e.g. a BOOLEAN column).
    scalar = compile_scalar(expression, names)

    def coerce(batch, params):
        out = []
        for v in scalar(batch, params):
            if v is NULL:
                out.append(UNKNOWN_CODE)
            elif isinstance(v, bool):
                out.append(TRUE_CODE if v else FALSE_CODE)
            else:
                raise ExecutionError(f"expression {expression} is not a predicate")
        return out

    return coerce


# -- aggregation -------------------------------------------------------------


@dataclass
class CompiledAggregate:
    """One lowered aggregate call: function + compiled argument column."""

    node: Aggregate
    function: str
    distinct: bool
    argument: Optional[ScalarKernel]  # None for COUNT(*)


@dataclass
class GroupVectors:
    """Per-group evaluation context for the ``F(AA)`` arithmetic.

    ``source`` is the aggregation input batch; ``rep_indexes[g]`` is the
    input row standing for group ``g`` (its first row — only sound for
    grouping columns, which is all SQL permits outside aggregates);
    ``agg_columns[slot]`` holds one value per group for the slot's
    aggregate.
    """

    source: object
    rep_indexes: List[int]
    agg_columns: List[List[SqlValue]]

    @property
    def n(self) -> int:
        return len(self.rep_indexes)


GroupKernel = Callable[[GroupVectors, Optional[Mapping[str, SqlValue]]], Sequence[SqlValue]]


def compile_aggregate_arguments(
    specs: Sequence, names: Sequence[str]
) -> Tuple[List[CompiledAggregate], Dict[Aggregate, int]]:
    """Lower every distinct aggregate appearing in ``specs``.

    Textually identical aggregates (``Aggregate`` is a frozen dataclass)
    share one slot, so ``SUM(v) + SUM(v)`` scans its argument once.
    """
    from repro.expressions.ast import aggregates as collect_aggregates

    compiled: List[CompiledAggregate] = []
    slots: Dict[Aggregate, int] = {}
    for spec in specs:
        for node in collect_aggregates(spec.expression):
            if node in slots:
                continue
            slots[node] = len(compiled)
            compiled.append(
                CompiledAggregate(
                    node,
                    node.function,
                    node.distinct,
                    None
                    if node.argument is None
                    else compile_scalar(node.argument, names),
                )
            )
    return compiled, slots


def compile_group_expression(
    expression: Expression,
    names: Sequence[str],
    slots: Dict[Aggregate, int],
) -> GroupKernel:
    """Lower an ``fᵢ(AA)`` — arithmetic over aggregates — to a per-group
    vector closure (mirrors
    :func:`repro.engine.aggregation.evaluate_aggregate_expression`)."""
    if isinstance(expression, Aggregate):
        slot = slots[expression]
        return lambda groups, params: groups.agg_columns[slot]
    if isinstance(expression, Arithmetic):
        left = compile_group_expression(expression.left, names, slots)
        right = compile_group_expression(expression.right, names, slots)
        op = _ARITHMETIC[expression.op]
        return lambda groups, params: [
            op(x, y) for x, y in zip(left(groups, params), right(groups, params))
        ]
    if isinstance(expression, Negate):
        operand = compile_group_expression(expression.operand, names, slots)
        return lambda groups, params: [sql_neg(v) for v in operand(groups, params)]
    if isinstance(expression, Literal):
        value = expression.value
        return lambda groups, params: [value] * groups.n
    if isinstance(expression, HostVariable):
        name = expression.name

        def host(groups, params):
            if params is None or name not in params:
                raise ExecutionError(f"unbound host variable :{name}")
            return [params[name]] * groups.n

        return host
    if isinstance(expression, ColumnRef):
        index = resolve_column(names, expression)
        return lambda groups, params: [
            groups.source.columns[index][i] for i in groups.rep_indexes
        ]
    raise ExecutionError(
        f"unsupported node in aggregation expression: {type(expression).__name__}"
    )
