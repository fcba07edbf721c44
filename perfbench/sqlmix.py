"""Seeded datasets and the SQL template mix the benchmark drives.

Every workload loads the retail star schema (``make_retail_star`` +
``populate_retail``) and sends SQL text generated here.  A template is a
named query shape; each use draws fresh constants from the seeded RNG,
so the program only ever sees generated SQL.  One *cycle* is every
template once, in a seeded order; the benchmark always runs whole
cycles, so the template mix of a timed window does not depend on where
the clock happened to stop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Dimension sizes shared by all workloads.
CUSTOMERS = 2000
PRODUCTS = 200
STORES = 20

#: Join predicates, by dimension alias.
_JOIN = {
    "C": "S.CustID = C.CustID",
    "P": "S.ProdID = P.ProdID",
    "St": "S.StoreID = St.StoreID",
}
_TABLE = {"C": "Customer C", "P": "Product P", "St": "Store St"}
_NAME = {"C": "Customer", "P": "Product", "St": "Store"}


@dataclass(frozen=True)
class Template:
    """One query shape of the mix."""

    name: str
    #: Dimension aliases joined to ``Sales S`` (empty: single table).
    dims: Tuple[str, ...]
    #: ``make(rng, n_sales)`` returns ``(select_list, extra_where,
    #: group_by, tail)``; ``tail`` holds HAVING / ORDER BY text.
    make: Callable[[random.Random, int], Tuple[str, str, str, str]]
    distinct: bool = False

    @property
    def tables(self) -> Tuple[str, ...]:
        return ("Sales",) + tuple(_NAME[d] for d in self.dims)

    def sql(self, rng: random.Random, n_sales: int) -> str:
        select, extra, group_by, tail = self.make(rng, n_sales)
        tables = ", ".join(["Sales S"] + [_TABLE[d] for d in self.dims])
        where = [_JOIN[d] for d in self.dims] + ([extra] if extra else [])
        text = "SELECT " + ("DISTINCT " if self.distinct else "") + select
        text += " FROM " + tables
        if where:
            text += " WHERE " + " AND ".join(where)
        if group_by:
            text += " GROUP BY " + group_by
        if tail:
            text += " " + tail
        return text


def _amount(rng: random.Random) -> int:
    return rng.randint(50, 450)


def _qty(rng: random.Random) -> int:
    return rng.randint(2, 9)


TEMPLATES: Tuple[Template, ...] = (
    Template(
        "region_sum_avg", ("St",),
        lambda r, n: (
            "St.Region, SUM(S.Amount), AVG(S.Qty)",
            f"S.Amount > {_amount(r)}", "St.Region", "",
        ),
    ),
    Template(
        "city_min_max_ordered", ("St",),
        lambda r, n: (
            "St.City, MIN(S.Amount), MAX(S.Amount)", "", "St.City",
            "ORDER BY St.City",
        ),
    ),
    Template(
        "product_units_top", ("P",),
        lambda r, n: (
            "P.ProdID, P.PName, SUM(S.Qty) AS units",
            f"S.Qty >= {_qty(r)}", "P.ProdID, P.PName", "ORDER BY units DESC",
        ),
    ),
    Template(
        "customer_count", ("C",),
        lambda r, n: (
            "C.CustID, C.Name, COUNT(S.SaleID)", "", "C.CustID, C.Name", "",
        ),
    ),
    Template(
        "customer_avg_filtered", ("C",),
        lambda r, n: (
            "C.CustID, AVG(S.Amount)", f"S.Amount > {_amount(r)}",
            "C.CustID", "",
        ),
    ),
    Template(
        # A selective join (one store of twenty) under a 200-group
        # fact-side grouping: the regime where eager grouping loses.
        "one_store_products", ("St",),
        lambda r, n: (
            "S.ProdID, SUM(S.Amount)", f"St.City = 'City {r.randint(1, STORES)}'",
            "S.ProdID", "",
        ),
    ),
    Template(
        "region_category", ("St", "P"),
        lambda r, n: (
            "St.Region, P.Category, SUM(S.Amount), COUNT(S.SaleID)", "",
            "St.Region, P.Category", "",
        ),
    ),
    Template(
        "segment_category_region", ("C", "P", "St"),
        lambda r, n: (
            "C.Segment, P.Category, St.Region, COUNT(S.SaleID), MAX(S.Qty)",
            f"S.Qty > {_qty(r)}", "C.Segment, P.Category, St.Region", "",
        ),
    ),
    Template(
        "category_having_count", ("P",),
        lambda r, n: (
            "P.Category, SUM(S.Amount)", "", "P.Category",
            f"HAVING COUNT(S.SaleID) > {r.randint(0, n // 4)} "
            "ORDER BY P.Category",
        ),
    ),
    Template(
        # HAVING on an aggregate repeated from the select list.
        "city_having_repeat", ("St",),
        lambda r, n: (
            "St.City, SUM(S.Amount)", "", "St.City",
            f"HAVING SUM(S.Amount) > {r.randint(0, n * 250 // STORES)}",
        ),
    ),
    Template(
        "segment_region_having_alias", ("C", "St"),
        lambda r, n: (
            "C.Segment, St.Region, AVG(S.Amount) AS avg_amount", "",
            "C.Segment, St.Region",
            f"HAVING AVG(S.Amount) > {r.randint(240, 260)}",
        ),
    ),
    Template(
        "distinct_region_category", ("St", "P"),
        lambda r, n: (
            "St.Region, P.Category", f"S.Qty > {_qty(r)}", "", "",
        ),
        distinct=True,
    ),
    Template(
        "category_min_max_avg", ("P",),
        lambda r, n: (
            "P.Category, MIN(S.Amount), MAX(S.Qty), AVG(S.Amount)",
            f"S.Amount < {_amount(r)}", "P.Category", "",
        ),
    ),
    Template(
        "store_single_table", (),
        lambda r, n: (
            "S.StoreID, COUNT(S.SaleID), MIN(S.Qty), MAX(S.Amount)",
            f"S.Qty >= {_qty(r)}", "S.StoreID", "",
        ),
    ),
    Template(
        "scalar_amount", (),
        lambda r, n: (
            "COUNT(S.SaleID), SUM(S.Amount), AVG(S.Amount)",
            f"S.Amount > {_amount(r)}", "", "",
        ),
    ),
)

#: Writes per cycle in a mixed workload: one operation in four is a
#: write (15 reads + 5 writes).  UPDATEs outnumber INSERTs 4 to 1 so that
#: the write median and 90th percentile both fall well inside the
#: UPDATEs: an INSERT takes about 1 ms, so under two sessions its latency
#: is mostly the wait for the other thread to yield the interpreter lock.
WRITE_KINDS: Tuple[str, ...] = ("insert", "update", "update", "update", "update")


@dataclass(frozen=True)
class Op:
    """One operation of a cycle: a read (template) or a write."""

    kind: str  # "read" | "insert" | "update"
    template: str
    sql: str
    tables: Tuple[str, ...]


class Mix:
    """The seeded operation stream of one client."""

    def __init__(self, seed: int, n_sales: int, first_new_id: int, id_step: int = 1):
        self.rng = random.Random(seed)
        self.n_sales = n_sales
        self._next_id = first_new_id
        self._id_step = id_step

    def read(self, template: Template) -> Op:
        return Op("read", template.name, template.sql(self.rng, self.n_sales),
                  template.tables)

    def write(self, kind: str) -> Op:
        r = self.rng
        if kind == "insert":
            sale_id = self._next_id
            self._next_id += self._id_step
            sql = (
                f"INSERT INTO Sales VALUES ({sale_id}, {r.randint(1, CUSTOMERS)}, "
                f"{r.randint(1, PRODUCTS)}, {r.randint(1, STORES)}, "
                f"{r.randint(1, 10)}, {r.randint(1, 500)})"
            )
        else:
            sql = (
                f"UPDATE Sales SET Amount = {r.randint(1, 500)} "
                f"WHERE SaleID = {r.randint(1, self.n_sales)}"
            )
        return Op(kind, f"write_{kind}", sql, ("Sales",))

    def cycle(self, with_writes: bool) -> List[Op]:
        """Every template once, plus the writes when asked, shuffled."""
        templates = list(TEMPLATES)
        self.rng.shuffle(templates)
        ops = [self.read(t) for t in templates]
        if with_writes:
            ops += [self.write(kind) for kind in WRITE_KINDS]
            self.rng.shuffle(ops)
        return ops

    def probe(self) -> List[Op]:
        """The write-probe round run after a read-only window."""
        return [self.write(kind) for kind in WRITE_KINDS]


class Recorder:
    """Stands in for a ``Database`` to capture generated rows.

    ``populate_retail`` only calls ``insert``; recording its calls gives
    the oracle the same rows without reading them back out of the
    program under test.
    """

    def __init__(self) -> None:
        self.rows: Dict[str, List[list]] = {}

    def insert(self, table: str, values) -> None:
        self.rows.setdefault(table, []).append(list(values))
