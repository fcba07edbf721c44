"""SQL value domain: NULL and comparisons under three-valued logic.

SQL2 represents missing information by the special value NULL.  We model it
with a dedicated singleton :data:`NULL` rather than Python's ``None`` so that
(a) ``None`` coming from ordinary Python code cannot silently leak into query
results and (b) NULL renders distinctly in debug output.

Comparison of SQL values returns a :class:`~repro.sqltypes.truth.Truth`:
any comparison involving NULL yields UNKNOWN.  Equality used by *duplicate*
operations is the separate ``=ⁿ`` (:func:`repro.sqltypes.truth.null_equal`).
"""

from __future__ import annotations

import datetime
import decimal
from typing import Union

from repro.errors import TypeMismatchError
from repro.sqltypes.truth import UNKNOWN, Truth, from_bool


class _Null:
    """The singleton SQL NULL marker."""

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        raise TypeError("NULL has no Python truth value; use is_null()")

    def __reduce__(self):
        # Keep the singleton property across pickling.
        return (_Null, ())


NULL = _Null()

#: The Python types a (non-NULL) SQL value may take in this engine.
SqlScalar = Union[int, float, str, bool, decimal.Decimal, datetime.date]
SqlValue = Union[SqlScalar, _Null]


def is_null(value: object) -> bool:
    """True when ``value`` is the SQL NULL marker."""
    return value is NULL


_NUMERIC_TYPES = (int, float, decimal.Decimal)


def _comparable(left: object, right: object) -> bool:
    """Whether two non-NULL values live in the same comparison domain."""
    if isinstance(left, bool) != isinstance(right, bool):
        # bool is an int subclass in Python; keep BOOLEAN separate from
        # numerics the way SQL does.
        return False
    if isinstance(left, _NUMERIC_TYPES) and isinstance(right, _NUMERIC_TYPES):
        return True
    return type(left) is type(right) or (
        isinstance(left, str) and isinstance(right, str)
    )


def _require_comparable(left: object, right: object) -> None:
    if not _comparable(left, right):
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )


def sql_compare_eq(left: object, right: object) -> Truth:
    """SQL ``=``: UNKNOWN if either side is NULL."""
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    return from_bool(left == right)


def sql_compare_ne(left: object, right: object) -> Truth:
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    return from_bool(left != right)


def sql_compare_lt(left: object, right: object) -> Truth:
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    return from_bool(left < right)


def sql_compare_le(left: object, right: object) -> Truth:
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    return from_bool(left <= right)


def sql_compare_gt(left: object, right: object) -> Truth:
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    return from_bool(left > right)


def sql_compare_ge(left: object, right: object) -> Truth:
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    return from_bool(left >= right)


def _mismatch(op: str, left: object, right: object) -> TypeMismatchError:
    return TypeMismatchError(
        f"cannot apply {op} to {type(left).__name__} and {type(right).__name__}"
    )


def sql_add(left: object, right: object) -> SqlValue:
    """SQL ``+``: NULL-propagating arithmetic.

    Operands outside one arithmetic domain raise :class:`TypeMismatchError`
    (as do the other operators below), never a bare Python ``TypeError``.
    """
    if is_null(left) or is_null(right):
        return NULL
    try:
        return left + right  # type: ignore[operator]
    except TypeError:
        raise _mismatch("+", left, right) from None


def sql_sub(left: object, right: object) -> SqlValue:
    if is_null(left) or is_null(right):
        return NULL
    try:
        return left - right  # type: ignore[operator]
    except TypeError:
        raise _mismatch("-", left, right) from None


def sql_mul(left: object, right: object) -> SqlValue:
    if is_null(left) or is_null(right):
        return NULL
    try:
        return left * right  # type: ignore[operator]
    except TypeError:
        raise _mismatch("*", left, right) from None


def sql_div(left: object, right: object) -> SqlValue:
    """SQL ``/``: NULL-propagating; division by zero is an execution error."""
    if is_null(left) or is_null(right):
        return NULL
    if right == 0:
        from repro.errors import ExecutionError

        raise ExecutionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        # SQL integer division truncates toward zero.
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    try:
        return left / right  # type: ignore[operator]
    except TypeError:
        raise _mismatch("/", left, right) from None


def sql_neg(value: object) -> SqlValue:
    if is_null(value):
        return NULL
    try:
        return -value  # type: ignore[operator]
    except TypeError:
        raise TypeMismatchError(f"cannot negate {type(value).__name__}") from None


class NullsFirstKey:
    """Sort key wrapper ordering NULL before every non-NULL value.

    SQL2 leaves NULL placement implementation-defined; we fix NULLS FIRST so
    sort-based grouping and sort-merge joins are deterministic.  All NULLs
    compare equal to each other here (duplicate semantics), which is exactly
    what grouping by sorting requires.
    """

    __slots__ = ("value",)

    def __init__(self, value: SqlValue) -> None:
        self.value = value

    def __lt__(self, other: "NullsFirstKey") -> bool:
        left_null = is_null(self.value)
        right_null = is_null(other.value)
        if left_null:
            return not right_null
        if right_null:
            return False
        return self.value < other.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NullsFirstKey):
            return NotImplemented
        left_null = is_null(self.value)
        right_null = is_null(other.value)
        if left_null or right_null:
            return left_null and right_null
        return self.value == other.value

    def __hash__(self) -> int:
        if is_null(self.value):
            return hash("<sql-null>")
        return hash(self.value)

    def __repr__(self) -> str:
        return f"NullsFirstKey({self.value!r})"


def sort_key(values: "tuple[SqlValue, ...] | list[SqlValue]") -> "tuple[NullsFirstKey, ...]":
    """Total-order sort key for a row of SQL values (NULLS FIRST)."""
    return tuple(NullsFirstKey(value) for value in values)


def group_key(values: "tuple[SqlValue, ...] | list[SqlValue]") -> "tuple[object, ...]":
    """Hashable duplicate-semantics key: NULLs collide with NULLs.

    Two rows produce the same key exactly when they are row-equivalent under
    ``=ⁿ`` (Definition 1 of the paper), so this key is safe for hash-based
    GROUP BY and DISTINCT.
    """
    return tuple(
        ("<sql-null>",) if is_null(value) else (type(value).__name__ if isinstance(value, bool) else "", value)
        for value in values
    )
