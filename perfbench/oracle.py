"""The independent output check: stdlib ``sqlite3`` runs the same SQL.

Rows are compared as multisets in SELECT-list order; floats (AVG) with a
relative tolerance.  A failed operation is classified by *kind*.  Two
kinds are the program's known defects, listed in ROADMAP: they count in
``failed_share`` like any failure, but do not make the run incorrect.
Any other failure does.
"""

from __future__ import annotations

import itertools
import math
import re
import sqlite3
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: HAVING on an aggregate repeated from the select list is rejected by
#: the binder ("BindingError: unknown column: SUM(S.Amount)").
HAVING_REPEAT = "having-repeated-aggregate"
#: Result columns come back in another order than the SELECT list.
COLUMN_ORDER = "select-list-order"
KNOWN_DEFECTS = (HAVING_REPEAT, COLUMN_ORDER)

_HAVING_REPEAT_RE = re.compile(r"unknown column: (COUNT|SUM|MIN|MAX|AVG)\(")

REL_TOL = 1e-9

SCHEMA = (
    "CREATE TABLE Customer (CustID INTEGER PRIMARY KEY, Name TEXT, Segment TEXT)",
    "CREATE TABLE Product (ProdID INTEGER PRIMARY KEY, PName TEXT, Category TEXT)",
    "CREATE TABLE Store (StoreID INTEGER PRIMARY KEY, City TEXT, Region TEXT)",
    "CREATE TABLE Sales (SaleID INTEGER PRIMARY KEY, CustID INTEGER, "
    "ProdID INTEGER, StoreID INTEGER, Qty INTEGER, Amount INTEGER)",
)


def classify_error(error: BaseException) -> str:
    """The failure kind of an exception the program raised."""
    if type(error).__name__ == "BindingError" and _HAVING_REPEAT_RE.search(str(error)):
        return HAVING_REPEAT
    return f"error:{type(error).__name__}"


class Oracle:
    """An in-memory sqlite database holding the generated rows."""

    def __init__(self, rows: Dict[str, List[list]]) -> None:
        self.connection = sqlite3.connect(":memory:", check_same_thread=False)
        for statement in SCHEMA:
            self.connection.execute(statement)
        for table, table_rows in rows.items():
            marks = ", ".join("?" * len(table_rows[0]))
            self.connection.executemany(
                f"INSERT INTO {table} VALUES ({marks})", table_rows
            )
        self.connection.commit()

    def apply(self, sql: str) -> None:
        self.connection.execute(sql)

    def rows(self, sql: str) -> List[tuple]:
        return self.connection.execute(sql).fetchall()

    def close(self) -> None:
        self.connection.close()


def _key(row: Sequence) -> tuple:
    # Numbers are rounded for pairing only; the values are then compared
    # with the tolerance.  The tags keep the key orderable across types.
    return tuple(
        (0, round(float(v), 6), "") if isinstance(v, (int, float))
        else (1, 0.0, "") if v is None
        else (2, 0.0, str(v))
        for v in row
    )


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=1e-12)
    return a == b


def same_multiset(got: Iterable[Sequence], want: Iterable[Sequence]) -> bool:
    got = sorted((tuple(r) for r in got), key=_key)
    want = sorted((tuple(r) for r in want), key=_key)
    if len(got) != len(want):
        return False
    return all(
        len(g) == len(w) and all(_close(x, y) for x, y in zip(g, w))
        for g, w in zip(got, want)
    )


def compare(got: List[tuple], want: List[tuple]) -> Optional[str]:
    """``None`` when the rows match, else the mismatch kind."""
    if same_multiset(got, want):
        return None
    width = len(want[0]) if want else (len(got[0]) if got else 0)
    if got and want and len(got[0]) == width and width <= 6:
        for order in itertools.permutations(range(width)):
            if list(order) == list(range(width)):
                continue
            if same_multiset([tuple(r[i] for i in order) for r in got], want):
                return COLUMN_ORDER
    return "mismatch"


class Tally:
    """Failure counts per template and kind."""

    def __init__(self) -> None:
        self.by_template: Counter = Counter()
        self.by_kind: Counter = Counter()
        self.examples: Dict[str, str] = {}

    def add(self, template: str, kind: str, detail: str = "") -> None:
        self.by_template[template] += 1
        self.by_kind[kind] += 1
        self.examples.setdefault(f"{template}/{kind}", detail[:300])

    @property
    def failed(self) -> int:
        return sum(self.by_kind.values())

    @property
    def unexpected(self) -> int:
        return sum(n for k, n in self.by_kind.items() if k not in KNOWN_DEFECTS)

    def report(self) -> Dict[str, object]:
        return {
            "failures_by_template": dict(sorted(self.by_template.items())),
            "failures_by_kind": dict(sorted(self.by_kind.items())),
            "known_defects": list(KNOWN_DEFECTS),
            "examples": self.examples,
        }


def check_at_epochs(
    oracle: Oracle,
    writes: List[Tuple[int, str]],
    reads: List[Tuple[int, str, str, List[tuple]]],
) -> List[Tuple[str, str, str]]:
    """Replay ``writes`` (epoch, sql) in epoch order and check each read
    (epoch, template, sql, rows) against the state at its epoch.

    Returns ``(template, kind, detail)`` per mismatching read.
    """
    failures = []
    pending = sorted(writes)
    cache: Dict[Tuple[int, str], List[tuple]] = {}
    index = 0
    for epoch, template, sql, rows in sorted(reads, key=lambda r: r[0]):
        while index < len(pending) and pending[index][0] <= epoch:
            oracle.apply(pending[index][1])
            index += 1
        want = cache.get((epoch, sql))
        if want is None:
            want = cache[(epoch, sql)] = oracle.rows(sql)
        kind = compare(rows, want)
        if kind is not None:
            failures.append((template, kind, sql))
    return failures
