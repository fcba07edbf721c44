"""The top-level user API: a SQL session over an in-memory database.

:class:`Session` ties the whole stack together — parse, bind, normalize,
test the transformation, choose a plan cost-based, execute::

    from repro import Session

    session = Session()
    session.execute("CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, "
                    "Name VARCHAR(30))")
    session.execute("INSERT INTO Department VALUES (1, 'Engineering')")
    result = session.query("SELECT D.DeptID, D.Name, COUNT(E.EmpID) "
                           "FROM Employee E, Department D "
                           "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name")
    print(result.to_pretty())

``query`` returns a :class:`~repro.engine.dataset.DataSet`; ``explain``
returns the full :class:`QueryReport` (chosen strategy, estimated costs,
TestFD verdict, executed statistics) without hiding anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.algebra.display import render_annotated
from repro.algebra.ops import Apply, Group, PlanNode, Project, fuse_group_apply
from repro.catalog.catalog import Database
from repro.core.partition import FlatQuery, to_group_by_join_query
from repro.core.planbuild import build_join_tree
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import TransformationDecision
from repro.core.viewmerge import merge_aggregated_view
from repro.engine.aggregation import evaluate_aggregate_expression
from repro.engine.dataset import DataSet
from repro.engine.executor import Executor, ExecutorConfig
from repro.engine.stats import ExecutionStats
from repro.errors import ParseError, TransformationError
from repro.optimizer.planner import PlanChoice, Planner
from repro.parser.ast_nodes import SelectStatement, SetOperationStatement
from repro.parser.binder import bind_select, execute_statement
from repro.parser.parser import parse_statement
from repro.sqltypes.values import SqlValue


@dataclass
class QueryReport:
    """Everything the session knows about one executed query."""

    result: DataSet
    plan: PlanNode
    strategy: str  # "eager" | "standard" | "simple" | "scalar-aggregate"
    stats: ExecutionStats
    choice: Optional[PlanChoice] = None
    rewrites: Tuple = ()  # RuleCertificates of applied certified rewrites
    #: The commit epoch this query's snapshot was pinned at, when the
    #: query ran through the multi-session server (None otherwise).
    snapshot_epoch: Optional[int] = None

    @property
    def certificate(self):
        """The rewrite certificate attached to the executed plan, if any."""
        from repro.analysis.certificates import get_certificate

        return get_certificate(self.plan)

    @property
    def distribution_certificate(self):
        """The R704 shard-exchange certificate, when the plan was sharded."""
        from repro.optimizer.distribute import distribution_certificate

        return distribution_certificate(self.plan)

    def explain(self, certify: bool = False) -> str:
        """The plan-choice story; ``certify=True`` appends the rewrite
        certificate (re-audited first) when the plan carries one."""
        lines = [f"strategy: {self.strategy}"]
        if self.choice is not None:
            lines.append(f"standard cost (est.): {self.choice.standard_cost:.1f}")
            if self.choice.eager_cost is not None:
                lines.append(f"eager cost (est.):    {self.choice.eager_cost:.1f}")
            lines.append(f"transformable: {self.choice.decision.valid} "
                         f"({self.choice.decision.reason})")
        if self.rewrites:
            lines.append(
                "certified rewrites: "
                + ", ".join(certificate.rule for certificate in self.rewrites)
            )
        lines.append(render_annotated(self.plan, self.stats.cardinality_map()))
        for exchange in self.stats.exchanges:
            lines.append(f"exchange: {exchange.describe()}")
        distribution = self.distribution_certificate
        if distribution is not None:
            estimated = distribution.premise_values("estimated-shipped-rows")
            if estimated:
                lines.append(
                    f"exchange estimate: ~{float(estimated[0]):.0f} rows to ship "
                    f"({distribution.premise_values('strategy')[0]})"
                )
        if certify:
            certificate = self.certificate
            if certificate is None and not self.rewrites:
                lines.append(
                    "no rewrite certificate (plan is not a certified eager plan)"
                )
            if certificate is not None:
                lines.append(certificate.render())
            for rule_certificate in self.rewrites:
                lines.append(rule_certificate.render())
        return "\n".join(lines)


class Session:
    """A SQL session: DDL/DML via :meth:`execute`, queries via :meth:`query`."""

    def __init__(
        self,
        database: Optional[Database] = None,
        policy: str = "cost",
        executor_config: ExecutorConfig = ExecutorConfig(),
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> None:
        self.database = database if database is not None else Database()
        self.policy = policy
        self.executor_config = executor_config
        self.params = params

    # -- statements -------------------------------------------------------------

    def execute(self, sql: str) -> None:
        """Run a DDL or INSERT statement."""
        statement = parse_statement(sql)
        if isinstance(statement, (SelectStatement, SetOperationStatement)):
            raise ParseError("use query() for SELECT statements")
        execute_statement(self.database, statement)

    def query(self, sql: str, params: Optional[Mapping[str, SqlValue]] = None) -> DataSet:
        """Run a SELECT and return its result."""
        return self.report(sql, params).result

    def report(
        self, sql: str, params: Optional[Mapping[str, SqlValue]] = None
    ) -> QueryReport:
        """Run a SELECT and return the result plus plan/cost/stats detail."""
        statement = parse_statement(sql)
        if not isinstance(statement, (SelectStatement, SetOperationStatement)):
            raise ParseError("report()/query() take a SELECT statement")
        return self.report_statement(statement, params)

    def report_statement(
        self,
        statement: "SelectStatement | SetOperationStatement",
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> QueryReport:
        """Run an already-parsed SELECT or set operation."""
        effective = params if params is not None else self.params
        if isinstance(statement, SetOperationStatement):
            return self._run_set_operation(statement, effective)
        return self._run_select(statement, effective)

    def _run_set_operation(
        self, statement: SetOperationStatement, params: Optional[Mapping[str, SqlValue]]
    ) -> QueryReport:
        """UNION/EXCEPT/INTERSECT: run both sides, combine with =ⁿ
        duplicate semantics (§4.2), apply any trailing ORDER BY."""
        from repro.engine.setops import apply_set_operation
        from repro.engine.sorting import sort_dataset

        left = self.report_statement(statement.left, params)
        right = self.report_statement(statement.right, params)
        combined, __ = apply_set_operation(
            statement.operator, left.result, right.result, statement.all_rows
        )
        stats = ExecutionStats()
        for source in (left.stats, right.stats):
            for node_id in source.order:
                stats.record(node_id, source.nodes[node_id])
        report = QueryReport(
            combined,
            left.plan,
            f"set-{statement.operator}{'-all' if statement.all_rows else ''}",
            stats,
        )
        if statement.order_by:
            columns = [item.column.qualified for item in statement.order_by]
            descending = [item.descending for item in statement.order_by]
            ordered, __ = sort_dataset(report.result, columns, descending)
            report.result = ordered
        return report

    # -- internals -----------------------------------------------------------

    def _run_select(
        self, statement: SelectStatement, params: Optional[Mapping[str, SqlValue]]
    ) -> QueryReport:
        report = self._run_select_unordered(statement, params)
        return self._apply_order_by(report, statement)

    def _run_select_unordered(
        self, statement: SelectStatement, params: Optional[Mapping[str, SqlValue]]
    ) -> QueryReport:
        statement = self._resolve_subqueries(statement, params)
        uses_view = any(
            t.name in self.database.views for t in statement.from_tables
        )
        if uses_view:
            query = merge_aggregated_view(self.database, statement)
            return self._run_group_query(query, params)

        flat = bind_select(self.database, statement)
        if not flat.group_by:
            return self._run_ungrouped(flat, params)
        try:
            query = to_group_by_join_query(flat)
        except TransformationError:
            # No R1/R2 partition (e.g. single-table GROUP BY, or aggregation
            # columns everywhere): run the standard plan directly.
            return self._run_flat_standard(flat, params)
        return self._run_group_query(query, params)

    def _resolve_subqueries(
        self, statement: SelectStatement, params: Optional[Mapping[str, SqlValue]]
    ) -> SelectStatement:
        """Materialize uncorrelated IN-subqueries into value lists.

        ``x IN (SELECT c FROM ...)`` becomes ``x IN (v1, ..., vn)`` over the
        subquery's distinct values.  A NULL in the subquery result stays in
        the list, so the rewritten :class:`InList` reproduces SQL's
        three-valued IN semantics (a non-matching x then yields UNKNOWN).
        An empty result rewrites to constant FALSE (TRUE for NOT IN).
        Correlated subqueries surface as binding errors inside the nested
        run, with a hint appended.
        """
        from repro.errors import BindingError
        from repro.expressions.ast import (
            Expression,
            InList,
            InSubquery,
            Literal,
            transform_expression,
        )
        from repro.sqltypes.values import group_key

        def resolve(node: Expression):
            if not isinstance(node, InSubquery):
                return None
            subquery = node.subquery
            if not isinstance(subquery, SelectStatement):
                raise ParseError("IN-subquery has no parsed SELECT")
            try:
                inner = self._run_select(subquery, params)
            except BindingError as error:
                raise BindingError(
                    f"{error} (note: correlated subqueries are not supported; "
                    "IN-subqueries must be self-contained)"
                ) from error
            if len(inner.result.columns) != 1:
                raise ParseError(
                    "IN-subquery must produce exactly one column, got "
                    f"{len(inner.result.columns)}"
                )
            seen = {}
            for (value,) in inner.result.rows:
                seen.setdefault(group_key((value,)), value)
            values = list(seen.values())
            if not values:
                return Literal(bool(node.negated))
            items = tuple(Literal(value) for value in values)
            return InList(node.operand, items, node.negated)

        def rewrite(expression):
            if expression is None:
                return None
            return transform_expression(expression, resolve)

        new_where = rewrite(statement.where)
        new_having = rewrite(statement.having)
        if new_where is statement.where and new_having is statement.having:
            return statement
        return SelectStatement(
            statement.distinct,
            statement.items,
            statement.from_tables,
            new_where,
            statement.group_by,
            new_having,
            statement.order_by,
        )

    def _apply_order_by(
        self, report: QueryReport, statement: SelectStatement
    ) -> QueryReport:
        """ORDER BY is presentation-level: sort the finished result.

        Keys may be output column names (qualified or bare) or SELECT
        aliases; :meth:`DataSet.index_of` resolves both.
        """
        if not statement.order_by:
            return report
        from repro.engine.sorting import sort_dataset

        columns = [item.column.qualified for item in statement.order_by]
        descending = [item.descending for item in statement.order_by]
        ordered, __ = sort_dataset(report.result, columns, descending)
        report.result = ordered
        return report

    def _executor(self, params: Optional[Mapping[str, SqlValue]]) -> Executor:
        return Executor(self.database, self.executor_config, params)

    def _run_plan(self, plan: PlanNode, params: Optional[Mapping[str, SqlValue]]):
        """Execute ``plan``; returns (result, stats, executed plan).

        The executed plan can differ from ``plan`` when shard distribution
        wrapped it in an Exchange — the report carries the executed form so
        explain() shows the wire.
        """
        executor = self._executor(params)
        result, stats = executor.run(plan)
        executed = executor.executed_plan
        return result, stats, executed if executed is not None else plan

    def _maybe_rewrite(self, plan: PlanNode):
        """Apply configured certified rewrites; (plan, certificates)."""
        if not self.executor_config.rewrites:
            return plan, ()
        from repro.optimizer.rewrites import apply_rewrites

        algorithm = self.executor_config.join_algorithm
        outcome = apply_rewrites(
            fuse_group_apply(plan),
            self.database,
            self.executor_config.rewrites,
            join_algorithm="hash" if algorithm == "auto" else algorithm,
        )
        return outcome.plan, outcome.certificates

    def _run_group_query(
        self, query: GroupByJoinQuery, params: Optional[Mapping[str, SqlValue]]
    ) -> QueryReport:
        planner = Planner(
            self.database,
            policy=self.policy,
            engine=self.executor_config.engine,
        )
        choice = planner.choose(query)
        # Fuse Group/Apply before running so the report's plan nodes carry
        # the executor's per-node statistics (the executor would fuse to
        # fresh nodes otherwise and the annotations would not line up).
        plan = fuse_group_apply(choice.plan)
        if plan is not choice.plan:
            # Fusing rebuilt the root: carry the rewrite certificate over.
            from repro.analysis.certificates import attach_certificate, get_certificate

            certificate = get_certificate(choice.plan)
            if certificate is not None:
                attach_certificate(plan, certificate)
        plan, rewrites = self._maybe_rewrite(plan)
        result, stats, plan = self._run_plan(plan, params)
        return QueryReport(result, plan, choice.strategy, stats, choice, rewrites)

    def _run_flat_standard(
        self, flat: FlatQuery, params: Optional[Mapping[str, SqlValue]]
    ) -> QueryReport:
        from repro.core.having import grouped_plan_with_having

        tree = build_join_tree(flat.bindings, flat.where)
        columns = flat.select_group_columns + tuple(s.name for s in flat.aggregates)
        plan = fuse_group_apply(
            grouped_plan_with_having(
                tree, flat.group_by, flat.aggregates, flat.having,
                columns, flat.distinct,
            )
        )
        plan, rewrites = self._maybe_rewrite(plan)
        result, stats, plan = self._run_plan(plan, params)
        return QueryReport(result, plan, "standard", stats, rewrites=rewrites)

    def _run_ungrouped(
        self, flat: FlatQuery, params: Optional[Mapping[str, SqlValue]]
    ) -> QueryReport:
        tree = build_join_tree(flat.bindings, flat.where)
        if flat.aggregates:
            # Scalar aggregate: SQL yields exactly one row even on empty
            # input (unlike GROUP BY ()); patch the empty case explicitly.
            plan: PlanNode = fuse_group_apply(Apply(Group(tree, ()), flat.aggregates))
            plan, rewrites = self._maybe_rewrite(plan)
            result, stats, plan = self._run_plan(plan, params)
            if result.cardinality == 0:
                empty_input = DataSet((), [])
                row = tuple(
                    evaluate_aggregate_expression(spec.expression, empty_input, [], params)
                    for spec in flat.aggregates
                )
                result = DataSet(result.columns, [row])
            return QueryReport(
                result, plan, "scalar-aggregate", stats, rewrites=rewrites
            )
        plan = Project(tree, flat.select_group_columns, flat.distinct)
        plan, rewrites = self._maybe_rewrite(plan)
        result, stats, plan = self._run_plan(plan, params)
        return QueryReport(result, plan, "simple", stats, rewrites=rewrites)
