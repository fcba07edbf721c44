"""The paper's SQL2 algebra (Section 4.1) as a logical plan tree.

Operators and their defining SQL statements:

* ``G[GA] R``        — :class:`Group`: ``SELECT * FROM R ORDER BY GA``
  (a *grouped table*; ordering is incidental, grouping is the point).
* ``R1 × R2``        — :class:`Product`.
* ``σ[C] R``         — :class:`Select`: ``SELECT * FROM R WHERE C``
  (no duplicate elimination).
* ``π^d[B] R``       — :class:`Project` with ``distinct`` False (``A``) or
  True (``D``): ``SELECT ALL/DISTINCT B FROM R``.
* ``F[AA] R``        — :class:`Apply`: ``SELECT GA, F(AA) FROM R GROUP BY
  GA`` on a grouped table; one output row per group.

Additionally :class:`Relation` (a leaf naming a stored table) and
:class:`Join` (σ[C](R1 × R2), kept explicit so plans read like Figure 1 and
so the executor can pick a join algorithm).  The transformation theory in
:mod:`repro.core.transform` builds E1/E2 out of exactly these nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.expressions.ast import Expression


@dataclass(frozen=True)
class PlanNode:
    """Base class of logical plan operators."""

    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    def label(self) -> str:
        """Short operator label for plan rendering."""
        return type(self).__name__


@dataclass(frozen=True)
class Relation(PlanNode):
    """A leaf: scan of a stored base table under a correlation name."""

    table_name: str
    alias: str = ""

    @property
    def correlation(self) -> str:
        return self.alias or self.table_name

    def label(self) -> str:
        if self.alias and self.alias != self.table_name:
            return f"{self.table_name} AS {self.alias}"
        return self.table_name


@dataclass(frozen=True)
class Select(PlanNode):
    """σ[C]: keep rows whose condition is TRUE (no duplicate elimination)."""

    child: PlanNode
    condition: Expression

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"σ[{self.condition}]"


@dataclass(frozen=True)
class Project(PlanNode):
    """π^A / π^D: project on columns, optionally eliminating duplicates."""

    child: PlanNode
    columns: Tuple[str, ...]
    distinct: bool = False

    def __init__(self, child: PlanNode, columns: Sequence[str], distinct: bool = False) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "distinct", distinct)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        kind = "D" if self.distinct else "A"
        return f"π^{kind}[{', '.join(self.columns)}]"


@dataclass(frozen=True)
class Product(PlanNode):
    """Cartesian product of two inputs."""

    left: PlanNode
    right: PlanNode

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "×"


@dataclass(frozen=True)
class Join(PlanNode):
    """σ[C](left × right), kept as one node so the executor may choose a
    hash / sort-merge / nested-loop implementation."""

    left: PlanNode
    right: PlanNode
    condition: Optional[Expression]

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        if self.condition is None:
            return "Join[true]"
        return f"Join[{self.condition}]"


@dataclass(frozen=True)
class Group(PlanNode):
    """G[GA]: group the input on the grouping columns (a grouped table)."""

    child: PlanNode
    grouping_columns: Tuple[str, ...]

    def __init__(self, child: PlanNode, grouping_columns: Sequence[str]) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "grouping_columns", tuple(grouping_columns))

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"G[{', '.join(self.grouping_columns)}]"


@dataclass(frozen=True)
class AggregateSpec:
    """One output of ``F[AA]``: a name and an aggregation expression.

    ``expression`` may be a bare aggregate (``COUNT(E.EmpID)``) or an
    arithmetic combination (``COUNT(A1) + SUM(A2 + A3)``), matching the
    paper's definition of the ``fᵢ``.
    """

    name: str
    expression: Expression

    def __str__(self) -> str:
        return f"{self.expression} AS {self.name}"


@dataclass(frozen=True)
class Apply(PlanNode):
    """F[AA] on a grouped table: one row per group.

    The child must be a :class:`Group` (or something producing a grouped
    table).  Output columns are the grouping columns followed by the
    aggregate names.  When ``F`` is empty this still collapses each group to
    one row — SQL2 semantics the paper leans on ("F(AA) transfers a group of
    rows into one single row, even when F(AA) is empty").
    """

    child: PlanNode
    aggregates: Tuple[AggregateSpec, ...]

    def __init__(self, child: PlanNode, aggregates: Sequence[AggregateSpec]) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "aggregates", tuple(aggregates))

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        if not self.aggregates:
            return "F[]"
        return f"F[{', '.join(str(a) for a in self.aggregates)}]"


@dataclass(frozen=True)
class GroupApply(PlanNode):
    """Fused ``F[AA] G[GA]``: hash or sort aggregation in one operator.

    This is what the executor actually runs; :func:`fuse_group_apply`
    rewrites adjacent Group/Apply pairs into it.  Keeping the fused form as
    a *logical* node also lets plans display the way Figure 1 draws them
    ("Group By / COUNT" as one box).
    """

    child: PlanNode
    grouping_columns: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]

    def __init__(
        self,
        child: PlanNode,
        grouping_columns: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "grouping_columns", tuple(grouping_columns))
        object.__setattr__(self, "aggregates", tuple(aggregates))

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        aggregates = ", ".join(str(a) for a in self.aggregates)
        return f"F[{aggregates}] G[{', '.join(self.grouping_columns)}]"


@dataclass(frozen=True)
class Sort(PlanNode):
    """ORDER BY: sort rows on columns; NULLS FIRST, per-key direction.

    Not part of the paper's algebra (G[GA]'s defining SQL orders as a side
    effect), but needed to execute ORDER BY queries and to exploit
    interesting orders.
    """

    child: PlanNode
    columns: Tuple[str, ...]
    descending: Tuple[bool, ...] = ()

    def __init__(
        self,
        child: PlanNode,
        columns: Sequence[str],
        descending: Sequence[bool] = (),
    ) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "columns", tuple(columns))
        flags = tuple(descending) if descending else tuple(False for __ in columns)
        if len(flags) != len(self.columns):
            raise ValueError("descending flags must match the sort columns")
        object.__setattr__(self, "descending", flags)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(
            f"{column}{' DESC' if desc else ''}"
            for column, desc in zip(self.columns, self.descending)
        )
        return f"Sort[{keys}]"


@dataclass(frozen=True)
class Exchange(PlanNode):
    """Shard boundary: run the child per partition and merge the streams.

    Not part of the paper's algebra — this is Section 7's distributed
    argument made executable.  The child subtree executes once per shard
    against that shard's partition of its base table; the parent sees one
    merged stream, byte-metered through the spill codec (the "wire").

    ``mode`` prices the wire in the cost model and the stats:

    * ``"gather"``    — every shard ships its rows to the coordinator once.
    * ``"shuffle"``   — rows are re-partitioned between shards before the
      merge (metered as two transfers of the shipped rows).
    * ``"broadcast"`` — every shard's rows go to every other shard
      (metered as shards × shipped rows).

    All three modes produce the same merged result; they differ only in
    shipped bytes.  With ``merge=True`` the child's terminal
    :class:`GroupApply` is treated as a *local partial* aggregation and the
    Exchange re-aggregates the partials globally (the paper's group-by
    pushed below the wire); with ``merge=False`` shard outputs are
    concatenated back into base-scan order.  ``keys`` names the
    partitioning column (empty = partition the base table by rowid).
    """

    child: PlanNode
    mode: str = "gather"
    shards: int = 2
    partitioning: str = "hash"
    keys: Tuple[str, ...] = ()
    merge: bool = False

    def __init__(
        self,
        child: PlanNode,
        mode: str = "gather",
        shards: int = 2,
        partitioning: str = "hash",
        keys: Sequence[str] = (),
        merge: bool = False,
    ) -> None:
        if mode not in ("gather", "shuffle", "broadcast"):
            raise ValueError(f"unknown exchange mode {mode!r}")
        if partitioning not in ("hash", "range"):
            raise ValueError(f"unknown partitioning method {partitioning!r}")
        if shards < 1:
            raise ValueError("an Exchange needs at least one shard")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "shards", shards)
        object.__setattr__(self, "partitioning", partitioning)
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "merge", merge)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        key = f" on {', '.join(self.keys)}" if self.keys else ""
        merge = " merge" if self.merge else ""
        return (
            f"Exchange[{self.mode} {self.partitioning}x{self.shards}{key}{merge}]"
        )


def fuse_group_apply(plan: PlanNode) -> PlanNode:
    """Rewrite every ``Apply(Group(child))`` pair into :class:`GroupApply`.

    A bare ``Group`` with no ``Apply`` above it is left alone (it only
    orders/groups; the executor treats it as a sort).
    """
    if isinstance(plan, Apply) and isinstance(plan.child, Group):
        inner = fuse_group_apply(plan.child.child)
        return GroupApply(inner, plan.child.grouping_columns, plan.aggregates)
    rebuilt_children = tuple(fuse_group_apply(child) for child in plan.children())
    if rebuilt_children == plan.children():
        return plan
    return _with_children(plan, rebuilt_children)


def _with_children(plan: PlanNode, children: Tuple[PlanNode, ...]) -> PlanNode:
    if isinstance(plan, Select):
        return Select(children[0], plan.condition)
    if isinstance(plan, Project):
        return Project(children[0], plan.columns, plan.distinct)
    if isinstance(plan, Product):
        return Product(children[0], children[1])
    if isinstance(plan, Join):
        return Join(children[0], children[1], plan.condition)
    if isinstance(plan, Group):
        return Group(children[0], plan.grouping_columns)
    if isinstance(plan, Apply):
        return Apply(children[0], plan.aggregates)
    if isinstance(plan, GroupApply):
        return GroupApply(children[0], plan.grouping_columns, plan.aggregates)
    if isinstance(plan, Sort):
        return Sort(children[0], plan.columns, plan.descending)
    if isinstance(plan, Exchange):
        return Exchange(
            children[0],
            plan.mode,
            plan.shards,
            plan.partitioning,
            plan.keys,
            plan.merge,
        )
    raise TypeError(f"cannot rebuild {type(plan).__name__}")


def replace_subtree(
    plan: PlanNode, target: PlanNode, replacement: PlanNode
) -> PlanNode:
    """``plan`` with the node ``target`` (by identity) swapped for
    ``replacement``; untouched subtrees are shared, not copied."""
    if plan is target:
        return replacement
    children = plan.children()
    if not children:
        return plan
    rebuilt = tuple(
        replace_subtree(child, target, replacement) for child in children
    )
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan
    return _with_children(plan, rebuilt)


def walk_plan(plan: PlanNode):
    """Yield ``plan`` and all descendants, pre-order."""
    yield plan
    for child in plan.children():
        yield from walk_plan(child)
