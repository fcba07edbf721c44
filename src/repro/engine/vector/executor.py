"""The vectorized plan executor: same plans, same stats, columnar inner loops.

:class:`VectorExecutor` walks the identical fused :class:`PlanNode` tree the
row executor walks, records :class:`NodeStats` under the same node ids with
the same work formulas, and returns the same result type (a
:class:`~repro.engine.dataset.DataSet`, materialized from the root batch) —
only the per-operator inner loops differ.  That contract is what keeps the
§7 cost study backend-independent, and the differential harness
(:mod:`repro.engine.vector.differential`) holds it to account.

Resilience rides on the same contract in two ways:

* **Spill routing** — blocking operators whose estimated state exceeds the
  memory budget are executed through the *row* implementations (which own
  the spill machinery), over the already-computed child batches.  Both
  backends compute the identical deterministic estimate, so they spill on
  exactly the same operators and produce identical results.
* **Graceful degradation** — a failing vector kernel (anything but a
  resource-budget error) is retried once on the row implementation, again
  over the already-computed children, and recorded in
  ``ExecutionStats.degradations``.  The row path is the specification the
  kernels are differentially tested against, so the retried operator
  produces the same rows and the same work count.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Tuple

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
)
from repro.catalog.catalog import Database
from repro.engine import faults, joins
from repro.engine.aggregation import distinct, hash_group, sort_group
from repro.engine.dataset import DataSet
from repro.engine.governor import ResourceGovernor, estimate_table_bytes
from repro.engine.sorting import sort_dataset
from repro.engine.stats import ExecutionStats, NodeStats
from repro.engine.vector import kernels
from repro.engine.vector.batch import ColumnBatch
from repro.errors import (
    ExecutionError,
    MemoryLimitExceeded,
    ReproError,
    ResourceError,
    annotate_operator,
)
from repro.expressions.eval import ReusableRowScope, evaluate_predicate
from repro.sqltypes.values import SqlValue
from repro.storage.columnar import table_to_batch

#: A kernel or fallback thunk: produces (result batch, work units).
_Compute = Callable[[], Tuple[ColumnBatch, int]]


class VectorExecutor:
    """Executes fused logical plans against columnar batches.

    Constructed by :class:`repro.engine.executor.Executor` when
    ``config.engine == "vector"``; not normally instantiated directly.
    ``config`` is the shared :class:`ExecutorConfig` (join algorithm,
    aggregation strategy, RowID exposure, order exploitation, and the
    resource budget).
    """

    def __init__(
        self,
        database: Database,
        config,
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> None:
        self.database = database
        self.config = config
        self.params = params

    def run(self, fused: PlanNode) -> Tuple[DataSet, ExecutionStats]:
        """Execute an already-fused plan; returns (result, statistics)."""
        stats = ExecutionStats()
        governor = ResourceGovernor.from_config(self.config)
        try:
            batch = self._execute(fused, stats, governor)
            result = batch.to_dataset()
        finally:
            stats.spill_count = governor.spill_count
            stats.spilled_rows = governor.spilled_rows
            governor.close()
        return result, stats

    # -- dispatch -----------------------------------------------------------

    def _execute(
        self,
        node: PlanNode,
        stats: ExecutionStats,
        governor: ResourceGovernor,
        position: str = "",
    ) -> ColumnBatch:
        """One operator frame: budget check, dispatch, breadcrumb annotation.

        Mirrors the row executor's frame exactly — same breadcrumb format
        (innermost-first, "L"/"R" child positions), same conversion of a
        raw :class:`MemoryError` into the typed
        :class:`~repro.errors.MemoryLimitExceeded`.  Non-Repro kernel
        exceptions that survive the degradation ladder are wrapped in a
        typed :class:`~repro.errors.ExecutionError` so nothing escapes
        bare.
        """
        label = node.label()
        frame = f"{position}:{label}" if position else label
        try:
            governor.check(label)
            result = self._dispatch(node, stats, governor)
            governor.charge_rows(result.length, label)
            return result
        except MemoryError as error:
            converted = MemoryLimitExceeded(f"allocation failed: {error}")
            annotate_operator(converted, frame)
            raise converted from error
        except ReproError as error:
            annotate_operator(error, frame)
            raise
        except Exception as error:
            wrapped = ExecutionError(f"{type(error).__name__}: {error}")
            annotate_operator(wrapped, frame)
            raise wrapped from error

    def _dispatch(
        self, node: PlanNode, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        if isinstance(node, Relation):
            return self._scan(node, stats, governor)
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
            return self._exchange(node, stats, governor)
        if isinstance(node, Apply):
            raise ExecutionError(
                "Apply without Group beneath it; run fuse_group_apply first"
            )
        raise ExecutionError(f"cannot execute node {type(node).__name__}")

    # -- the kernel guard (degradation ladder) -------------------------------

    def _kernel(
        self,
        label: str,
        stats: ExecutionStats,
        governor: ResourceGovernor,
        compute: _Compute,
        fallback: _Compute,
    ) -> Tuple[ColumnBatch, int]:
        """Run a vector kernel; on failure retry once on the row engine.

        Resource-budget errors (and raw allocation failures) are never
        retried — the row engine shares the same budget and would only
        fail later.  Everything else degrades when ``config.degrade`` is
        on: the failure is recorded in the stats and the operator re-runs
        through ``fallback`` (the row implementation over the same child
        batches).  The fault-injection point lives inside the guard so an
        injected kernel fault exercises exactly this ladder.
        """
        try:
            faults.injection_point("vector", label)
            return compute()
        except (ResourceError, MemoryError):
            raise
        except Exception as error:
            if not self.config.degrade:
                raise
            stats.note_degradation(label, error)
            governor.check(label)  # don't retry past the deadline
            return fallback()

    # -- operators ----------------------------------------------------------

    def _scan(
        self, node: Relation, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        governor.tick(node.label())
        table = self.database.table(node.table_name)
        correlation = node.correlation
        expose = self.config.expose_rowids

        def compute() -> Tuple[ColumnBatch, int]:
            batch = table_to_batch(table, correlation, expose_rowids=expose)
            return batch, batch.length

        def row_path() -> Tuple[ColumnBatch, int]:
            from repro.engine.executor import rowid_column

            columns = [f"{correlation}.{c}" for c in table.column_names()]
            if expose:
                columns.append(rowid_column(correlation))
                rows = [row.values + (row.rowid,) for row in table]
            else:
                rows = [row.values for row in table]
            dataset = DataSet(columns, rows)
            return ColumnBatch.from_dataset(dataset), dataset.cardinality

        batch, work = self._kernel(
            node.label(), stats, governor, compute, row_path
        )
        stats.record(
            id(node),
            NodeStats(node.label(), "scan", (), batch.length, work),
        )
        return batch

    def _select(
        self, node: Select, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        governor.tick(node.label())
        child = self._execute(node.child, stats, governor)

        def compute() -> Tuple[ColumnBatch, int]:
            return kernels.filter_batch(child, node.condition, self.params)

        def row_path() -> Tuple[ColumnBatch, int]:
            dataset = child.to_dataset()
            scope = ReusableRowScope(dataset.columns)
            out_rows = []
            for row in dataset.rows:
                governor.tick("select")
                if evaluate_predicate(
                    node.condition, scope.bind(row), self.params
                ).is_true():
                    out_rows.append(row)
            filtered = DataSet(
                dataset.columns, out_rows, ordering=dataset.ordering
            )
            return ColumnBatch.from_dataset(filtered), dataset.cardinality

        batch, work = self._kernel(
            node.label(), stats, governor, compute, row_path
        )
        stats.record(
            id(node),
            NodeStats(
                node.label(), "select", (child.length,), batch.length, work
            ),
        )
        return batch

    def _project(
        self, node: Project, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        governor.tick(node.label())
        child = self._execute(node.child, stats, governor)

        def compute() -> Tuple[ColumnBatch, int]:
            batch = kernels.project_batch(child, node.columns)
            work = child.length
            if node.distinct:
                batch, distinct_work = kernels.distinct_batch(batch)
                work += distinct_work
            return batch, work

        def row_path() -> Tuple[ColumnBatch, int]:
            dataset = child.to_dataset().project(node.columns)
            work = child.length
            if node.distinct:
                dataset, distinct_work = distinct(dataset, governor)
                work += distinct_work
            return ColumnBatch.from_dataset(dataset), work

        batch, work = self._kernel(
            node.label(), stats, governor, compute, row_path
        )
        stats.record(
            id(node),
            NodeStats(
                node.label(), "project", (child.length,), batch.length, work
            ),
        )
        return batch

    def _product(
        self, node: Product, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        governor.tick(node.label())
        left = self._execute(node.left, stats, governor, "L")
        right = self._execute(node.right, stats, governor, "R")

        def compute() -> Tuple[ColumnBatch, int]:
            return kernels.cartesian_product_batch(left, right)

        def row_path() -> Tuple[ColumnBatch, int]:
            dataset, work = joins.cartesian_product(
                left.to_dataset(), right.to_dataset(), governor
            )
            return ColumnBatch.from_dataset(dataset), work

        batch, work = self._kernel(
            node.label(), stats, governor, compute, row_path
        )
        stats.record(
            id(node),
            NodeStats(
                node.label(),
                "join",
                (left.length, right.length),
                batch.length,
                work,
            ),
        )
        return batch

    def _join(
        self, node: Join, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        governor.tick(node.label())
        left = self._execute(node.left, stats, governor, "L")
        right = self._execute(node.right, stats, governor, "R")
        algorithm = self.config.join_algorithm

        def row_path() -> Tuple[ColumnBatch, int]:
            left_ds, right_ds = left.to_dataset(), right.to_dataset()
            if node.condition is None:
                dataset, work = joins.cartesian_product(
                    left_ds, right_ds, governor
                )
            elif algorithm == "nested_loop":
                dataset, work = joins.nested_loop_join(
                    left_ds, right_ds, node.condition, self.params, governor
                )
            elif algorithm == "sort_merge":
                dataset, work = joins.sort_merge_join(
                    left_ds, right_ds, node.condition, self.params, governor
                )
            else:
                dataset, work = joins.hash_join(
                    left_ds, right_ds, node.condition, self.params, governor
                )
            return ColumnBatch.from_dataset(dataset), work

        def compute() -> Tuple[ColumnBatch, int]:
            if node.condition is None:
                return kernels.cartesian_product_batch(left, right)
            if algorithm == "nested_loop":
                return kernels.nested_loop_join_batch(
                    left, right, node.condition, self.params
                )
            if algorithm == "sort_merge":
                return kernels.sort_merge_join_batch(
                    left, right, node.condition, self.params
                )
            return kernels.hash_join_batch(
                left, right, node.condition, self.params
            )

        if self._join_needs_spill(node, left, right, algorithm, governor):
            batch, work = row_path()  # the row path owns the spill machinery
        else:
            batch, work = self._kernel(
                node.label(), stats, governor, compute, row_path
            )
        stats.record(
            id(node),
            NodeStats(
                node.label(),
                "join",
                (left.length, right.length),
                batch.length,
                work,
            ),
        )
        return batch

    def _join_needs_spill(
        self,
        node: Join,
        left: ColumnBatch,
        right: ColumnBatch,
        algorithm: str,
        governor: ResourceGovernor,
    ) -> bool:
        """Mirror the row engine's spill decision on the same estimates.

        Hash joins check the build side exactly as :func:`joins.hash_join`
        does (raising when over budget with spilling disabled); sort-merge
        delegates whenever a side *might* exceed the budget — the row
        implementation then re-checks on the NULL-filtered inputs, so the
        actual spill/raise behaviour matches the row engine's precisely.
        """
        if governor.memory_limit_bytes is None or node.condition is None:
            return False
        if algorithm == "nested_loop":
            return False
        pairs, __ = joins.extract_equi_keys(node.condition, left, right)
        if not pairs:
            return False  # falls back to nested loop on both backends
        if algorithm == "sort_merge":
            largest = max(
                estimate_table_bytes(left.length, len(left.names)),
                estimate_table_bytes(right.length, len(right.names)),
            )
            return largest > governor.memory_limit_bytes
        return governor.should_spill(
            estimate_table_bytes(right.length, len(right.names)),
            "hash join build",
        )

    def _group_apply(
        self, node: GroupApply, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        governor.tick(node.label())
        child = self._execute(node.child, stats, governor)
        state_bytes = estimate_table_bytes(child.length, len(child.names))
        if self.config.aggregation == "sort":
            from repro.engine.sorting import is_sorted_on

            presorted = self.config.exploit_orders and is_sorted_on(
                child, node.grouping_columns
            )

            def compute() -> Tuple[ColumnBatch, int]:
                return kernels.grouped_aggregate(
                    child,
                    node.grouping_columns,
                    node.aggregates,
                    self.params,
                    mode="sort",
                    presorted=presorted,
                )

            def row_path() -> Tuple[ColumnBatch, int]:
                dataset, work = sort_group(
                    child.to_dataset(), node.grouping_columns, node.aggregates,
                    self.params, presorted=presorted, governor=governor,
                )
                return ColumnBatch.from_dataset(dataset), work

            needs_spill = not presorted and governor.should_spill(
                state_bytes, "sort group"
            )
        else:

            def compute() -> Tuple[ColumnBatch, int]:
                return kernels.grouped_aggregate(
                    child, node.grouping_columns, node.aggregates, self.params
                )

            def row_path() -> Tuple[ColumnBatch, int]:
                dataset, work = hash_group(
                    child.to_dataset(), node.grouping_columns, node.aggregates,
                    self.params, governor,
                )
                return ColumnBatch.from_dataset(dataset), work

            needs_spill = governor.should_spill(state_bytes, "group by")

        if needs_spill:
            batch, work = row_path()
        else:
            batch, work = self._kernel(
                node.label(), stats, governor, compute, row_path
            )
        stats.record(
            id(node),
            NodeStats(
                node.label(), "groupby", (child.length,), batch.length, work
            ),
        )
        return batch

    def _exchange(
        self, node: Exchange, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        # The Exchange runner is engine-agnostic (it re-enters the public
        # execute() per shard with this config, so shard subplans still run
        # on the vector engine); the merged stream
        # comes back as rows and re-enters the batch world here.
        from repro.engine.exchange import run_exchange

        governor.tick(node.label())
        dataset = run_exchange(
            self.database, self.config, self.params, node, stats, governor
        )
        return ColumnBatch.from_dataset(dataset)

    def _sort(
        self, node: Sort, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        governor.tick(node.label())
        child = self._execute(node.child, stats, governor)
        batch, work = self._sorted(
            node.label(), child, node.columns, node.descending, stats, governor
        )
        stats.record(
            id(node),
            NodeStats(node.label(), "sort", (child.length,), batch.length, work),
        )
        return batch

    def _bare_group(
        self, node: Group, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        governor.tick(node.label())
        # G[GA] alone: grouping realized by sorting, rows unchanged.
        child = self._execute(node.child, stats, governor)
        batch, work = self._sorted(
            node.label(), child, node.grouping_columns, None, stats, governor
        )
        stats.record(
            id(node),
            NodeStats(
                node.label(), "groupby", (child.length,), batch.length, work
            ),
        )
        return batch

    def _sorted(
        self,
        label: str,
        child: ColumnBatch,
        columns,
        descending,
        stats: ExecutionStats,
        governor: ResourceGovernor,
    ) -> Tuple[ColumnBatch, int]:
        def compute() -> Tuple[ColumnBatch, int]:
            return kernels.sort_batch(child, columns, descending)

        def row_path() -> Tuple[ColumnBatch, int]:
            dataset, work = sort_dataset(
                child.to_dataset(), columns, descending, governor
            )
            return ColumnBatch.from_dataset(dataset), work

        if governor.should_spill(
            estimate_table_bytes(child.length, len(child.names)), "sort"
        ):
            return row_path()
        return self._kernel(label, stats, governor, compute, row_path)
