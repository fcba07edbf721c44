"""The HAVING plan fragment: rewriting, hidden specs, plan shape."""

import pytest

from repro.algebra.ops import AggregateSpec, Project, Relation, Select
from repro.core.having import HIDDEN_PREFIX, grouped_plan_with_having, rewrite_having
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import build_standard_plan
from repro.engine.executor import ExecutorConfig, execute
from repro.errors import BindingError
from repro.expressions.builder import and_, col, count, eq, gt, mul, sum_
from repro.expressions.ast import ColumnRef
from repro.expressions.compile import resolve_column
from repro.expressions.eval import ReusableRowScope, RowScope
from repro.fd.derivation import TableBinding
from repro.session import Session


class TestRewriteHaving:
    def test_reuses_matching_select_aggregate(self):
        specs = [AggregateSpec("n", count("T.id"))]
        rewritten, hidden = rewrite_having(gt(count("T.id"), 1), specs)
        assert hidden == ()
        assert "n" in str(rewritten)

    def test_synthesizes_hidden_spec(self):
        specs = [AggregateSpec("n", count("T.id"))]
        rewritten, hidden = rewrite_having(gt(sum_("T.v"), 10), specs)
        assert len(hidden) == 1
        assert hidden[0].name == f"{HIDDEN_PREFIX}0"
        assert f"{HIDDEN_PREFIX}0" in str(rewritten)

    def test_duplicate_aggregates_share_one_spec(self):
        rewritten, hidden = rewrite_having(
            and_(gt(sum_("T.v"), 10), gt(sum_("T.v"), 20)), []
        )
        assert len(hidden) == 1

    def test_aggregate_inside_arithmetic(self):
        rewritten, hidden = rewrite_having(gt(mul(sum_("T.v"), 2), 10), [])
        assert len(hidden) == 1
        assert isinstance(rewritten.left.left, ColumnRef)

    def test_grouping_columns_untouched(self):
        rewritten, hidden = rewrite_having(eq(col("T.g"), 1), [])
        assert hidden == ()
        assert str(rewritten) == "T.g = 1"


class TestPlanShape:
    def test_no_having_no_select_node(self):
        plan = grouped_plan_with_having(
            Relation("T", "T"), ["T.g"],
            [AggregateSpec("n", count("T.id"))],
            None, ["T.g", "n"], False,
        )
        assert isinstance(plan, Project)
        assert not isinstance(plan.child, Select)

    def test_having_adds_filter_between_group_and_project(self):
        plan = grouped_plan_with_having(
            Relation("T", "T"), ["T.g"],
            [AggregateSpec("n", count("T.id"))],
            gt(sum_("T.v"), 10), ["T.g", "n"], False,
        )
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Select)
        # The hidden sum is computed by the Apply below the Select.
        apply_node = plan.child.child
        names = [spec.name for spec in apply_node.aggregates]
        assert names == ["n", f"{HIDDEN_PREFIX}0"]

    def test_build_standard_plan_applies_having(self, example1_db):
        query = GroupByJoinQuery(
            r1=[TableBinding("E", "Employee")],
            r2=[TableBinding("D", "Department")],
            where=eq(col("E.DeptID"), col("D.DeptID")),
            ga1=[], ga2=["D.DeptID", "D.Name"],
            aggregates=[AggregateSpec("cnt", count("E.EmpID"))],
            having=gt(count("E.EmpID"), 0),
        )
        plan = build_standard_plan(query)
        result, __ = execute(example1_db, plan)
        assert result.cardinality == 10  # all departments have employees
        assert len(result.columns) == 3  # no hidden columns leak

    def test_having_filters_groups(self, example1_db):
        # 200 employees over 10 departments: each has ~20; demand > 25.
        query = GroupByJoinQuery(
            r1=[TableBinding("E", "Employee")],
            r2=[TableBinding("D", "Department")],
            where=eq(col("E.DeptID"), col("D.DeptID")),
            ga1=[], ga2=["D.DeptID", "D.Name"],
            aggregates=[AggregateSpec("cnt", count("E.EmpID"))],
            having=gt(count("E.EmpID"), 25),
        )
        result, __ = execute(example1_db, build_standard_plan(query))
        assert 0 < result.cardinality < 10
        assert all(row[2] > 25 for row in result.rows)


class TestHavingRepeatsSelectAggregate:
    """``HAVING SUM(v) > 10`` when ``SUM(v)`` is also an unaliased select
    item: the rewrite reuses the spec named ``SUM(A.v)``, and that name
    must resolve as an exact column name, on both engines."""

    SQL = "SELECT g, SUM(v) FROM A GROUP BY g HAVING SUM(v) > 10"

    @pytest.mark.parametrize("engine", ["row", "vector"])
    def test_query_runs_and_filters(self, engine):
        session = Session(executor_config=ExecutorConfig(engine=engine))
        session.execute("CREATE TABLE A (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER)")
        for i in range(10):
            session.execute(f"INSERT INTO A VALUES ({i}, {i % 4}, {i})")
        # Group sums: g=0 → 12, g=1 → 15, g=2 → 8, g=3 → 10.
        report = session.report(self.SQL)
        assert sorted(map(tuple, report.result.rows)) == [(0, 12), (1, 15)]
        assert report.stats.degradations == 0

    def test_exact_name_resolves_in_every_scope(self):
        names = ("A.g", "SUM(A.v)")
        ref = ColumnRef("", "SUM(A.v)")
        assert RowScope.from_pairs(names, (1, 30)).lookup(ref) == 30
        assert ReusableRowScope(names).bind((1, 30)).lookup(ref) == 30
        assert resolve_column(names, ref) == 1

    def test_ambiguous_bare_name_still_raises(self):
        names = ("A.g", "B.g")
        ref = ColumnRef("", "g")
        with pytest.raises(BindingError, match="ambiguous"):
            RowScope.from_pairs(names, (1, 2)).lookup(ref)
        with pytest.raises(BindingError, match="ambiguous"):
            ReusableRowScope(names).bind((1, 2)).lookup(ref)
        with pytest.raises(BindingError, match="ambiguous"):
            resolve_column(names, ref)
