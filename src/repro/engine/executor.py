"""The plan executor: logical algebra → materialized DataSets + statistics.

The executor walks a :class:`~repro.algebra.ops.PlanNode` tree bottom-up,
materializing each operator's output and recording per-operator
cardinalities and work in an :class:`~repro.engine.stats.ExecutionStats`.
Materialization (rather than tuple-at-a-time iteration) keeps the row
accounting exact and the engine easy to verify — the paper's claims are
about cardinalities, not pipelining latency.

Configuration knobs (join algorithm, aggregation strategy, RowID exposure)
live in :class:`ExecutorConfig`.  RowID exposure adds a ``<corr>.#rowid``
column to every base-table scan so the Main Theorem checker can test
``FD2: (GA1+, GA2) → RowID(R2)`` on real join results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.algebra.ops import (
    Apply,
    Exchange,
    Group,
    GroupApply,
    Join,
    PlanNode,
    Product,
    Project,
    Relation,
    Select,
    Sort,
    fuse_group_apply,
    walk_plan,
)
from repro.catalog.catalog import Database
from repro.engine import faults, joins
from repro.engine.aggregation import distinct, hash_group, sort_group
from repro.engine.dataset import DataSet
from repro.engine.governor import CancellationToken, ResourceGovernor
from repro.engine.sorting import sort_dataset
from repro.engine.stats import ExecutionStats, NodeStats
from repro.errors import (
    ExecutionError,
    MemoryLimitExceeded,
    ReproError,
    annotate_operator,
)
from repro.expressions.eval import evaluate_predicate
from repro.sqltypes.values import SqlValue

#: Name of the hidden RowID column exposed for correlation ``corr``.
def rowid_column(correlation: str) -> str:
    return f"{correlation}.#rowid"


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution strategy knobs.

    * ``join_algorithm``: ``"auto"`` (hash when an equi-key exists, else
      nested loop), ``"nested_loop"``, ``"hash"``, or ``"sort_merge"``.
    * ``aggregation``: ``"hash"`` or ``"sort"`` grouping.
    * ``expose_rowids``: add ``<corr>.#rowid`` to base-table scans.
    * ``exploit_orders``: let sort-based grouping skip its sort when the
      input is already ordered on the grouping columns (§2's pipelined
      aggregation; sort-merge joins always exploit presorted inputs).
    * ``verify``: statically verify every plan before executing it
      (:func:`repro.analysis.verifier.analyze_plan`); ERROR-severity
      findings raise :class:`~repro.errors.PlanVerificationError`.
    * ``engine``: ``"row"`` (tuple-at-a-time interpreter) or ``"vector"``
      (columnar batches + compiled kernels,
      :class:`repro.engine.vector.VectorExecutor`).  Both backends produce
      ``=ⁿ``-identical results and identical :class:`ExecutionStats`.  The
      vector engine materializes each operator's output batch in full;
      ``memory_limit_bytes`` (spill to disk) is its memory bound.

    Resource budget (enforced by the per-execution
    :class:`~repro.engine.governor.ResourceGovernor`; all optional):

    * ``memory_limit_bytes``: estimated working-set cap for blocking
      operators — over it they spill to disk, or raise
      :class:`~repro.errors.MemoryLimitExceeded` when ``spill=False``.
    * ``timeout_seconds``: wall-clock budget; overrunning raises
      :class:`~repro.errors.QueryTimeout` at the next check point.
    * ``max_rows``: cap on any single operator's output cardinality
      (:class:`~repro.errors.RowLimitExceeded`).
    * ``spill`` / ``spill_dir``: allow spilling, and where (a fresh
      temp directory under ``spill_dir`` or the system default).
    * ``cancellation``: a :class:`~repro.engine.governor.CancellationToken`
      observed cooperatively at operator and row-loop boundaries.
    * ``degrade``: let a vector-engine kernel failure retry that operator
      on the row engine instead of failing the query (resource errors
      never degrade).
    * ``rewrites``: certified rewrite rules to apply before execution
      (:func:`repro.optimizer.rewrites.apply_rewrites`) — any subset of
      ``predicate_pushdown``, ``join_reordering``, ``projection_pruning``,
      or ``"all"``.  Every application is audited by the independent
      plan-equivalence checker; a failed audit aborts the query rather
      than running an unproven plan.

    Sharded execution (both engines):

    * ``shards``: number of partitions for shard-parallel execution.
      ``1`` (the default) disables distribution entirely.  With more, the
      planner wraps the plan's base-scan side in an
      :class:`~repro.algebra.ops.Exchange` (see
      :func:`repro.optimizer.distribute.distribute_plan`) and each shard
      runs its partition of the pipeline; results are bit-identical to
      unsharded execution.
    * ``exchange``: ``"auto"`` (cost-based: the communication-aware model
      picks partial-aggregation-below-the-wire vs ship-all), ``"off"``
      (never distribute, even with ``shards > 1``), or a forced mode
      (``"gather"``, ``"shuffle"``, ``"broadcast"``) — mode only changes
      the wire accounting, never the result.
    * ``partitioning``: ``"hash"`` or ``"range"`` shard assignment
      (:mod:`repro.storage.partition`); either way every row lands in
      exactly one shard, so this never changes results either.
    * ``transport``: ``"memory"`` (shards run in-process, the wire is a
      pickle round-trip) or ``"socket"`` (one OS process per shard behind
      the framed RPC of :mod:`repro.server.transport`, with retries,
      health-checked failover, and idempotent request IDs — see
      :mod:`repro.engine.shardrpc`).  Transport never changes results.
    * ``rpc_timeout_seconds`` / ``rpc_attempts``: the per-call deadline
      and retry budget for each socket-transport shard delivery.
    """

    join_algorithm: str = "auto"
    aggregation: str = "hash"
    expose_rowids: bool = False
    exploit_orders: bool = False
    verify: bool = False
    engine: str = "row"
    memory_limit_bytes: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_rows: Optional[int] = None
    spill: bool = True
    spill_dir: Optional[str] = None
    cancellation: Optional[CancellationToken] = None
    degrade: bool = True
    rewrites: Tuple[str, ...] = ()
    shards: int = 1
    exchange: str = "auto"
    partitioning: str = "hash"
    transport: str = "memory"
    rpc_timeout_seconds: float = 5.0
    rpc_attempts: int = 3

    def __post_init__(self) -> None:
        if self.join_algorithm not in ("auto", "nested_loop", "hash", "sort_merge"):
            raise ValueError(f"bad join_algorithm: {self.join_algorithm}")
        # Normalized inline (not via repro.optimizer.rewrites, which cannot
        # be imported while this module is still initializing); the rule
        # list is mirrored by repro.optimizer.rewrites.REWRITE_RULES and a
        # test keeps the two in sync.
        valid = ("predicate_pushdown", "join_reordering", "projection_pruning")
        value = self.rewrites
        if value is None:
            names: Tuple[str, ...] = ()
        elif isinstance(value, str):
            text = value.strip()
            if text in ("", "none", "off"):
                names = ()
            else:
                names = tuple(p.strip() for p in text.split(",") if p.strip())
        else:
            names = tuple(value)
        if "all" in names:
            names = valid
        else:
            for name in names:
                if name not in valid:
                    raise ValueError(
                        f"unknown rewrite rule {name!r}; valid rules: "
                        + ", ".join(valid) + ", all"
                    )
            names = tuple(rule for rule in valid if rule in names)
        object.__setattr__(self, "rewrites", names)
        if self.aggregation not in ("hash", "sort"):
            raise ValueError(f"bad aggregation: {self.aggregation}")
        if self.engine not in ("row", "vector"):
            raise ValueError(f"bad engine: {self.engine}")
        if self.memory_limit_bytes is not None and self.memory_limit_bytes <= 0:
            raise ValueError("memory_limit_bytes must be positive")
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be non-negative")
        if self.max_rows is not None and self.max_rows < 0:
            raise ValueError("max_rows must be non-negative")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.exchange not in ("auto", "off", "gather", "shuffle", "broadcast"):
            raise ValueError(f"bad exchange mode: {self.exchange}")
        if self.partitioning not in ("hash", "range"):
            raise ValueError(f"bad partitioning: {self.partitioning}")
        if self.transport not in ("memory", "socket"):
            raise ValueError(f"bad transport: {self.transport}")
        if self.rpc_timeout_seconds <= 0:
            raise ValueError("rpc_timeout_seconds must be positive")
        if self.rpc_attempts < 1:
            raise ValueError("rpc_attempts must be at least 1")


class Executor:
    """Executes logical plans against a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        config: ExecutorConfig = ExecutorConfig(),
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> None:
        self.database = database
        self.config = config
        self.params = params
        #: The plan that last ran, after fusing/rewrites/distribution.
        self.executed_plan: Optional[PlanNode] = None

    def run(self, plan: PlanNode) -> Tuple[DataSet, ExecutionStats]:
        """Execute ``plan``; returns the result and per-operator statistics."""
        fused = fuse_group_apply(plan)
        if self.config.rewrites:
            from repro.optimizer.rewrites import apply_rewrites, rewrites_applied

            if rewrites_applied(fused) is None:
                algorithm = self.config.join_algorithm
                outcome = apply_rewrites(
                    fused,
                    self.database,
                    self.config.rewrites,
                    join_algorithm="hash" if algorithm == "auto" else algorithm,
                )
                fused = outcome.plan
        if self.config.shards > 1 and self.config.exchange != "off":
            if not any(isinstance(n, Exchange) for n in walk_plan(fused)):
                from repro.optimizer.distribute import distribute_plan

                fused = distribute_plan(fused, self.database, self.config)
        if self.config.verify:
            self._verify(plan, fused)
        # What actually executed (post-rewrite, post-distribution) — the
        # session picks this up so explain() shows Exchange wrapping.
        self.executed_plan = fused
        if self.config.engine == "vector":
            from repro.engine.vector.executor import VectorExecutor

            return VectorExecutor(self.database, self.config, self.params).run(fused)
        stats = ExecutionStats()
        governor = ResourceGovernor.from_config(self.config)
        try:
            result = self._execute(fused, stats, governor)
        finally:
            stats.spill_count = governor.spill_count
            stats.spilled_rows = governor.spilled_rows
            governor.close()
        return result, stats

    def _verify(self, plan: PlanNode, fused: PlanNode) -> None:
        """Opt-in pre-flight: reject statically broken plans before running.

        The *fused* plan is what executes, so that is what gets analyzed;
        a rewrite certificate attached to the original root still counts.
        """
        from repro.analysis.certificates import get_certificate
        from repro.analysis.diagnostics import Severity, render_diagnostics
        from repro.analysis.verifier import analyze_plan
        from repro.errors import PlanVerificationError

        diagnostics = analyze_plan(
            fused,
            self.database,
            certificate=get_certificate(plan),
            min_severity=Severity.ERROR,
        )
        if diagnostics:
            raise PlanVerificationError(
                "plan failed static verification:\n"
                + render_diagnostics(diagnostics),
                diagnostics,
            )

    # -- dispatch -----------------------------------------------------------

    def _execute(
        self,
        node: PlanNode,
        stats: ExecutionStats,
        governor: ResourceGovernor,
        position: str = "",
    ) -> DataSet:
        """One operator frame: budget check, fault point, dispatch, and
        breadcrumb annotation of anything that escapes.

        ``position`` marks which child of a binary parent this is ("L"/"R");
        breadcrumbs accumulate innermost-first as an error propagates up,
        so the final message reads failing-operator → plan-root.
        """
        label = node.label()
        frame = f"{position}:{label}" if position else label
        try:
            governor.check(label)
            faults.injection_point("row", label)
            result = self._dispatch(node, stats, governor)
            governor.charge_rows(result.cardinality, label)
            return result
        except MemoryError as error:
            converted = MemoryLimitExceeded(f"allocation failed: {error}")
            annotate_operator(converted, frame)
            raise converted from error
        except ReproError as error:
            annotate_operator(error, frame)
            raise

    def _dispatch(
        self, node: PlanNode, stats: ExecutionStats, governor: ResourceGovernor
    ) -> DataSet:
        if isinstance(node, Relation):
            return self._scan(node, stats)
        if isinstance(node, Select):
            return self._select(node, stats, governor)
        if isinstance(node, Project):
            return self._project(node, stats, governor)
        if isinstance(node, Product):
            return self._product(node, stats, governor)
        if isinstance(node, Join):
            return self._join(node, stats, governor)
        if isinstance(node, GroupApply):
            return self._group_apply(node, stats, governor)
        if isinstance(node, Group):
            return self._bare_group(node, stats, governor)
        if isinstance(node, Sort):
            return self._sort(node, stats, governor)
        if isinstance(node, Exchange):
            from repro.engine.exchange import run_exchange

            return run_exchange(
                self.database, self.config, self.params, node, stats, governor
            )
        if isinstance(node, Apply):
            raise ExecutionError(
                "Apply without Group beneath it; run fuse_group_apply first"
            )
        raise ExecutionError(f"cannot execute node {type(node).__name__}")

    # -- operators ------------------------------------------------------------

    def _scan(self, node: Relation, stats: ExecutionStats) -> DataSet:
        table = self.database.table(node.table_name)
        correlation = node.correlation
        columns = [f"{correlation}.{c}" for c in table.column_names()]
        if self.config.expose_rowids:
            columns.append(rowid_column(correlation))
            rows = [row.values + (row.rowid,) for row in table]
        else:
            rows = [row.values for row in table]
        dataset = DataSet(columns, rows)
        stats.record(
            id(node),
            NodeStats(node.label(), "scan", (), dataset.cardinality, dataset.cardinality),
        )
        return dataset

    def _select(
        self, node: Select, stats: ExecutionStats, governor: ResourceGovernor
    ) -> DataSet:
        child = self._execute(node.child, stats, governor)
        from repro.expressions.eval import ReusableRowScope

        scope = ReusableRowScope(child.columns)
        out_rows = []
        for row in child.rows:
            governor.tick("select")
            if evaluate_predicate(
                node.condition, scope.bind(row), self.params
            ).is_true():
                out_rows.append(row)
        # Filtering preserves any known sort order.
        dataset = DataSet(child.columns, out_rows, ordering=child.ordering)
        stats.record(
            id(node),
            NodeStats(
                node.label(),
                "select",
                (child.cardinality,),
                dataset.cardinality,
                child.cardinality,
            ),
        )
        return dataset

    def _project(
        self, node: Project, stats: ExecutionStats, governor: ResourceGovernor
    ) -> DataSet:
        child = self._execute(node.child, stats, governor)
        projected = child.project(node.columns)
        work = child.cardinality
        if node.distinct:
            projected, distinct_work = distinct(projected, governor)
            work += distinct_work
        stats.record(
            id(node),
            NodeStats(
                node.label(),
                "project",
                (child.cardinality,),
                projected.cardinality,
                work,
            ),
        )
        return projected

    def _product(
        self, node: Product, stats: ExecutionStats, governor: ResourceGovernor
    ) -> DataSet:
        left = self._execute(node.left, stats, governor, "L")
        right = self._execute(node.right, stats, governor, "R")
        dataset, work = joins.cartesian_product(left, right, governor)
        stats.record(
            id(node),
            NodeStats(
                node.label(),
                "join",
                (left.cardinality, right.cardinality),
                dataset.cardinality,
                work,
            ),
        )
        return dataset

    def _join(
        self, node: Join, stats: ExecutionStats, governor: ResourceGovernor
    ) -> DataSet:
        left = self._execute(node.left, stats, governor, "L")
        right = self._execute(node.right, stats, governor, "R")
        algorithm = self.config.join_algorithm
        if node.condition is None:
            dataset, work = joins.cartesian_product(left, right, governor)
        elif algorithm == "nested_loop":
            dataset, work = joins.nested_loop_join(
                left, right, node.condition, self.params, governor
            )
        elif algorithm == "sort_merge":
            dataset, work = joins.sort_merge_join(
                left, right, node.condition, self.params, governor
            )
        else:  # "hash" and "auto": hash_join falls back to NL itself
            dataset, work = joins.hash_join(
                left, right, node.condition, self.params, governor
            )
        stats.record(
            id(node),
            NodeStats(
                node.label(),
                "join",
                (left.cardinality, right.cardinality),
                dataset.cardinality,
                work,
            ),
        )
        return dataset

    def _group_apply(
        self, node: GroupApply, stats: ExecutionStats, governor: ResourceGovernor
    ) -> DataSet:
        child = self._execute(node.child, stats, governor)
        if self.config.aggregation == "sort":
            from repro.engine.sorting import is_sorted_on

            presorted = self.config.exploit_orders and is_sorted_on(
                child, node.grouping_columns
            )
            dataset, work = sort_group(
                child, node.grouping_columns, node.aggregates, self.params,
                presorted=presorted, governor=governor,
            )
        else:
            dataset, work = hash_group(
                child, node.grouping_columns, node.aggregates, self.params,
                governor,
            )
        stats.record(
            id(node),
            NodeStats(
                node.label(),
                "groupby",
                (child.cardinality,),
                dataset.cardinality,
                work,
            ),
        )
        return dataset

    def _sort(
        self, node: Sort, stats: ExecutionStats, governor: ResourceGovernor
    ) -> DataSet:
        child = self._execute(node.child, stats, governor)
        dataset, work = sort_dataset(child, node.columns, node.descending, governor)
        stats.record(
            id(node),
            NodeStats(
                node.label(),
                "sort",
                (child.cardinality,),
                dataset.cardinality,
                work,
            ),
        )
        return dataset

    def _bare_group(
        self, node: Group, stats: ExecutionStats, governor: ResourceGovernor
    ) -> DataSet:
        # G[GA] alone: the defining SQL is SELECT * FROM R ORDER BY GA —
        # grouping realized by sorting, rows unchanged.
        child = self._execute(node.child, stats, governor)
        dataset, work = sort_dataset(child, node.grouping_columns, governor=governor)
        stats.record(
            id(node),
            NodeStats(
                node.label(),
                "groupby",
                (child.cardinality,),
                dataset.cardinality,
                work,
            ),
        )
        return dataset


def execute(
    database: Database,
    plan: PlanNode,
    config: ExecutorConfig = ExecutorConfig(),
    params: Optional[Mapping[str, SqlValue]] = None,
) -> Tuple[DataSet, ExecutionStats]:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(database, config, params).run(plan)
