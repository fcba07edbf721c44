"""Grouping and aggregation: SQL2 semantics, hash vs sort agreement."""

import pytest

from repro.algebra.ops import AggregateSpec
from repro.engine.aggregation import (
    compute_aggregate,
    distinct,
    evaluate_aggregate_expression,
    hash_group,
    sort_group,
)
from repro.engine.dataset import DataSet
from repro.expressions.aggregates import fold
from repro.expressions.builder import add, avg, col, count, count_star, max_, min_, sum_
from repro.sqltypes.values import NULL, is_null


def dataset():
    return DataSet(
        ("T.g", "T.v"),
        [
            (1, 10),
            (1, 20),
            (2, 5),
            (2, NULL),
            (NULL, 7),
            (NULL, 9),
        ],
    )


def group_result(specs, source=None, strategy=hash_group):
    result, __ = strategy(source or dataset(), ("T.g",), specs)
    return {row[0] if not is_null(row[0]) else None: row[1:] for row in result.rows}


class TestAggregateFunctions:
    def test_count_star_counts_rows(self):
        rows = group_result([AggregateSpec("n", count_star())])
        assert rows[1] == (2,)
        assert rows[2] == (2,)  # NULL value still counts as a row
        assert rows[None] == (2,)

    def test_count_column_skips_nulls(self):
        rows = group_result([AggregateSpec("n", count("T.v"))])
        assert rows[2] == (1,)

    def test_sum_skips_nulls(self):
        rows = group_result([AggregateSpec("s", sum_("T.v"))])
        assert rows[1] == (30,)
        assert rows[2] == (5,)

    def test_sum_of_all_nulls_is_null(self):
        ds = DataSet(("T.g", "T.v"), [(1, NULL), (1, NULL)])
        result, __ = hash_group(ds, ("T.g",), [AggregateSpec("s", sum_("T.v"))])
        assert is_null(result.rows[0][1])

    def test_min_max(self):
        rows = group_result([
            AggregateSpec("lo", min_("T.v")),
            AggregateSpec("hi", max_("T.v")),
        ])
        assert rows[1] == (10, 20)
        assert rows[2] == (5, 5)

    def test_avg(self):
        rows = group_result([AggregateSpec("a", avg("T.v"))])
        assert rows[1] == (15.0,)
        assert rows[2] == (5.0,)

    def test_count_distinct(self):
        ds = DataSet(("T.g", "T.v"), [(1, 5), (1, 5), (1, 6), (1, NULL)])
        result, __ = hash_group(
            ds, ("T.g",), [AggregateSpec("n", count("T.v", distinct=True))]
        )
        assert result.rows[0][1] == 2

    def test_arithmetic_aggregation_expression(self):
        """The paper's F(AA): e.g. COUNT(v) + SUM(v)."""
        spec = AggregateSpec("combo", add(count("T.v"), sum_("T.v")))
        rows = group_result([spec])
        assert rows[1] == (2 + 30,)


class TestGroupingSemantics:
    def test_null_groups_together(self):
        """=ⁿ: NULL grouping values form one group (Section 4.2)."""
        rows = group_result([AggregateSpec("n", count_star())])
        assert rows[None] == (2,)

    def test_empty_input_zero_groups(self):
        """GROUP BY over empty input yields no rows, even with no columns."""
        empty = DataSet(("T.g", "T.v"), [])
        for strategy in (hash_group, sort_group):
            result, __ = strategy(empty, (), [AggregateSpec("n", count_star())])
            assert result.cardinality == 0

    def test_empty_grouping_columns_single_group(self):
        result, __ = hash_group(dataset(), (), [AggregateSpec("n", count_star())])
        assert result.cardinality == 1
        assert result.rows[0] == (6,)

    def test_empty_f_still_collapses_groups(self):
        """F(AA) empty: one row per group regardless (Section 3)."""
        result, __ = hash_group(dataset(), ("T.g",), [])
        assert result.cardinality == 3

    def test_output_columns(self):
        result, __ = hash_group(dataset(), ("T.g",), [AggregateSpec("n", count_star())])
        assert result.columns == ("T.g", "n")


class TestHashSortAgreement:
    @pytest.mark.parametrize("specs", [
        [AggregateSpec("n", count_star())],
        [AggregateSpec("s", sum_("T.v")), AggregateSpec("m", min_("T.v"))],
        [AggregateSpec("a", avg("T.v"))],
    ])
    def test_strategies_agree(self, specs):
        hashed, __ = hash_group(dataset(), ("T.g",), specs)
        sorted_, __ = sort_group(dataset(), ("T.g",), specs)
        assert hashed.equals_multiset(sorted_)


class TestDistinct:
    def test_removes_duplicates_with_null_collation(self):
        ds = DataSet(("a",), [(1,), (1,), (NULL,), (NULL,), (2,)])
        result, __ = distinct(ds)
        assert result.cardinality == 3

    def test_preserves_first_occurrence(self):
        ds = DataSet(("a", "b"), [(1, "x"), (1, "x")])
        result, __ = distinct(ds)
        assert result.rows == [(1, "x")]


class TestComputeAggregate:
    """The row engine folds each group by the aggregate contract."""

    def test_direct_call(self):
        ds = dataset()
        group = [row for row in ds.rows if row[0] == 1]
        assert compute_aggregate(count("T.v"), ds, group) == 2
        assert compute_aggregate(sum_("T.v"), ds, group) == 30
        with_null = [row for row in ds.rows if row[0] == 2]
        for aggregate in (count("T.v"), sum_("T.v"), avg("T.v"), min_("T.v"),
                          max_("T.v"), count("T.v", distinct=True)):
            for rows in (group, with_null):
                assert compute_aggregate(aggregate, ds, rows) == fold(
                    aggregate.function, [row[1] for row in rows], aggregate.distinct
                )

    def test_evaluate_expression_over_empty_group(self):
        ds = dataset()
        assert compute_aggregate(count("T.v"), ds, []) == fold("COUNT", []) == 0
        assert is_null(compute_aggregate(sum_("T.v"), ds, []))
        assert is_null(fold("SUM", []))
        assert is_null(
            evaluate_aggregate_expression(add(sum_("T.v"), count("T.v")), ds, [])
        )
