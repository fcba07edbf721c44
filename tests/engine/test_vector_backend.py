"""Vector backend units: batches, compiled kernels, operator parity.

The integration-level guarantee (every workload, both backends, identical
multisets and stats) lives in the differential harness; these tests pin
the component contracts it rests on — ``=ⁿ`` key handling, 3VL truth
codes, lazy gathers, array-view gating, and the columnar scan cache.
"""

import pytest

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    GroupApply,
    Join,
    Product,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.engine.dataset import DataSet
from repro.engine.executor import Executor, ExecutorConfig, execute
from repro.engine.governor import CancellationToken, ResourceGovernor
from repro.engine.joins import hash_join
from repro.engine.stats import ExecutionStats
from repro.engine.vector.batch import ColumnBatch, _Gather, _Repeat, _np
from repro.engine.vector.executor import VectorExecutor
from repro.engine.vector.kernels import (
    distinct_batch,
    filter_batch,
    grouped_aggregate,
    hash_join_batch,
    sort_batch,
)
from repro.errors import QueryCancelled
from repro.expressions.builder import (
    and_,
    avg,
    col,
    count,
    count_star,
    eq,
    gt,
    is_null_,
    lit,
    max_,
    min_,
    not_,
    or_,
    sum_,
)
from repro.expressions.compile import (
    FALSE_CODE,
    TRUE_CODE,
    UNKNOWN_CODE,
    compile_predicate,
    compile_scalar,
)
from repro.sqltypes import FLOAT, INTEGER
from repro.sqltypes.values import NULL
from repro.storage.columnar import table_to_batch


def batch_of(names, rows, ordering=()):
    return ColumnBatch.from_rows(names, rows, ordering=ordering)


class TestColumnBatch:
    def test_roundtrip_preserves_rows_and_ordering(self):
        ds = DataSet(("T.a", "T.b"), [(1, "x"), (2, "y")], ordering=("T.a",))
        batch = ColumnBatch.from_dataset(ds)
        back = batch.to_dataset()
        assert back.rows == ds.rows
        assert back.ordering == ("T.a",)

    def test_index_of_bare_and_qualified(self):
        batch = batch_of(("T.a", "S.a", "T.b"), [(1, 2, 3)])
        assert batch.index_of("T.a") == 0
        assert batch.index_of("b") == 2
        with pytest.raises(Exception):
            batch.index_of("a")  # ambiguous bare name

    def test_column_kinds_and_plain_keys(self):
        batch = batch_of(("a", "b", "c"), [(1, NULL, True), (2, 3, False)])
        assert batch.plain_keys_on([0])
        assert not batch.plain_keys_on([1])  # NULL present
        assert not batch.plain_keys_on([2])  # BOOLEAN present
        assert batch.has_nulls(1) and not batch.has_nulls(0)

    def test_validity_mask(self):
        batch = batch_of(("a",), [(1,), (NULL,), (3,)])
        assert batch.validity(0) == [True, False, True]


class TestRepeatAndGather:
    def test_repeat_sequence_protocol(self):
        r = _Repeat(7, 3)
        assert len(r) == 3 and list(r) == [7, 7, 7] and r[2] == 7
        with pytest.raises(IndexError):
            r[3]

    def test_gather_is_lazy_until_read(self):
        g = _Gather([10, 20, 30, 40], [3, 1])
        assert g._data is None
        assert g[0] == 40  # point read does not materialize
        assert g._data is None
        assert list(g) == [40, 20]
        assert g._data == [40, 20]

    def test_take_produces_gather_views(self):
        batch = batch_of(("a", "b"), [(1, "x"), (2, "y"), (3, "z")])
        taken = batch.take([2, 0])
        assert all(isinstance(c, _Gather) for c in taken.columns)
        assert list(taken.iter_rows()) == [(3, "z"), (1, "x")]


@pytest.mark.skipif(_np is None, reason="numpy not available")
class TestArrayViews:
    def test_int_and_float_columns_get_arrays(self):
        batch = batch_of(("i", "f"), [(1, 1.5), (2, 2.5)])
        assert batch.as_array(0).dtype == _np.int64
        assert batch.as_array(1).dtype == _np.float64

    def test_null_bool_and_mixed_columns_do_not(self):
        batch = batch_of(
            ("n", "b", "m"), [(1, True, 1), (NULL, False, 1.5)]
        )
        assert batch.as_array(0) is None
        assert batch.as_array(1) is None  # bool is not int
        assert batch.as_array(2) is None

    def test_as_array_is_cached(self):
        batch = batch_of(("a",), [(1,), (2,)])
        assert batch.as_array(0) is batch.as_array(0)
        assert batch.cached_array(0) is not None

    def test_gather_column_reuses_source_array(self):
        batch = batch_of(("a",), [(10,), (20,), (30,)])
        batch.as_array(0)
        taken = batch.take([2, 0])
        arr = taken.as_array(0)
        assert arr.tolist() == [30, 10]
        assert taken.columns[0]._data is None  # never built the Python list


class TestScanCache:
    def make_db(self):
        db = Database()
        db.create_table(
            TableSchema(
                "T",
                [Column("id", INTEGER), Column("v", INTEGER)],
                [PrimaryKeyConstraint(["id"])],
            )
        )
        db.insert("T", [1, 10])
        return db

    def test_repeated_scans_share_one_batch(self):
        table = self.make_db().table("T")
        assert table_to_batch(table, "T") is table_to_batch(table, "T")

    def test_insert_invalidates(self):
        table = self.make_db().table("T")
        before = table_to_batch(table, "T")
        table.insert([2, 20])
        after = table_to_batch(table, "T")
        assert after is not before
        assert after.length == 2

    def test_clear_and_restore_invalidate(self):
        table = self.make_db().table("T")
        snapshot = table.snapshot()
        first = table_to_batch(table, "T")
        table.clear()
        assert table_to_batch(table, "T").length == 0
        table.restore(snapshot)
        revived = table_to_batch(table, "T")
        assert revived is not first and revived.length == 1

    def test_rowid_variant_cached_separately(self):
        table = self.make_db().table("T")
        plain = table_to_batch(table, "T")
        with_ids = table_to_batch(table, "T", expose_rowids=True)
        assert plain is not with_ids
        assert with_ids.names[-1] == "T.#rowid"


class TestCompiledPredicates:
    def test_truth_codes(self):
        batch = batch_of(("a",), [(1,), (NULL,), (3,)])
        codes = compile_predicate(gt(col("a"), 2), ("a",))(batch, None)
        assert codes == [FALSE_CODE, UNKNOWN_CODE, TRUE_CODE]

    def test_and_is_min_or_is_max_not_flips(self):
        batch = batch_of(("a", "b"), [(1, NULL), (NULL, NULL), (3, 3)])
        names = ("a", "b")
        p = and_(gt(col("a"), 2), gt(col("b"), 2))
        assert compile_predicate(p, names)(batch, None) == [
            FALSE_CODE, UNKNOWN_CODE, TRUE_CODE
        ]
        q = or_(gt(col("a"), 2), gt(col("b"), 2))
        assert compile_predicate(q, names)(batch, None) == [
            UNKNOWN_CODE, UNKNOWN_CODE, TRUE_CODE
        ]
        assert compile_predicate(not_(p), names)(batch, None) == [
            TRUE_CODE, UNKNOWN_CODE, FALSE_CODE
        ]

    def test_is_null(self):
        batch = batch_of(("a",), [(NULL,), (0,)])
        assert compile_predicate(is_null_(col("a")), ("a",))(batch, None) == [
            TRUE_CODE, FALSE_CODE
        ]

    def test_scalar_arithmetic_propagates_null(self):
        batch = batch_of(("a",), [(2,), (NULL,)])
        from repro.expressions.builder import add

        column = compile_scalar(add(col("a"), lit(1)), ("a",))(batch, None)
        assert list(column) == [3, NULL]


class TestFilterKernel:
    def test_unknown_rows_drop(self):
        batch = batch_of(("a",), [(1,), (NULL,), (3,)])
        result, work = filter_batch(batch, gt(col("a"), 0), None)
        assert list(result.iter_rows()) == [(1,), (3,)]
        assert work == 3

    def test_all_pass_shares_columns(self):
        batch = batch_of(("a",), [(1,), (2,)])
        result, __ = filter_batch(batch, gt(col("a"), 0), None)
        assert result is batch


class TestDistinctKernel:
    def test_null_collides_with_null(self):
        batch = batch_of(("a",), [(NULL,), (1,), (NULL,)])
        result, __ = distinct_batch(batch)
        assert result.length == 2

    def test_bool_stays_distinct_from_int(self):
        batch = batch_of(("a",), [(True,), (1,), (False,), (0,)])
        result, __ = distinct_batch(batch)
        assert result.length == 4


class TestJoinKernelParity:
    def left(self):
        return DataSet(("L.k", "L.v"), [(1, "a"), (2, "b"), (2, "c"), (NULL, "n")])

    def right(self):
        return DataSet(("R.k", "R.w"), [(1, 10), (2, 20), (3, 30), (NULL, 40)])

    def test_matches_and_stats_mirror_row_engine(self):
        condition = eq(col("L.k"), col("R.k"))
        row_result, row_work = hash_join(self.left(), self.right(), condition)
        vec_result, vec_work = hash_join_batch(
            ColumnBatch.from_dataset(self.left()),
            ColumnBatch.from_dataset(self.right()),
            condition,
            None,
        )
        assert vec_result.to_dataset().equals_multiset(row_result)
        assert vec_work == row_work

    def test_pair_order_identical_to_row_engine(self):
        """The numpy equi-join must emit pairs in the row engine's order
        (probe order, bucket order) — downstream per-batch censuses and
        representative picks depend on it."""
        condition = eq(col("L.k"), col("R.k"))
        left = DataSet(("L.k",), [(2,), (1,), (2,)])
        right = DataSet(("R.k", "R.i"), [(2, 0), (1, 1), (2, 2), (2, 3)])
        row_result, __ = hash_join(left, right, condition)
        vec_result, __ = hash_join_batch(
            ColumnBatch.from_dataset(left),
            ColumnBatch.from_dataset(right),
            condition,
            None,
        )
        assert list(vec_result.iter_rows()) == list(row_result.rows)


class TestSortKernel:
    def test_nulls_first_ascending(self):
        batch = batch_of(("a",), [(2,), (NULL,), (1,)])
        result, __ = sort_batch(batch, ["a"])
        assert list(result.iter_rows()) == [(NULL,), (1,), (2,)]
        assert result.ordering == ("a",)

    def test_descending_clears_ordering(self):
        batch = batch_of(("a",), [(1,), (3,), (2,)])
        result, __ = sort_batch(batch, ["a"], [True])
        assert [r[0] for r in result.iter_rows()] == [3, 2, 1]
        assert result.ordering == ()

    def test_multi_key_stable(self):
        rows = [(1, "b"), (2, "a"), (1, "a"), (2, "b"), (1, "a")]
        batch = batch_of(("a", "b"), rows)
        result, __ = sort_batch(batch, ["a", "b"])
        assert list(result.iter_rows()) == sorted(rows)


class TestGroupedAggregateKernel:
    def batch(self):
        return batch_of(
            ("g", "v"),
            [(1, 10), (2, 20), (1, 30), (NULL, 40), (2, NULL), (NULL, 50)],
        )

    def specs(self):
        return [
            AggregateSpec("s", sum_("v")),
            AggregateSpec("n", count_star()),
        ]

    def test_hash_mode_groups_nulls_together(self):
        result, work = grouped_aggregate(self.batch(), ["g"], self.specs())
        rows = {tuple(r[:1]): r[1:] for r in result.iter_rows()}
        assert rows[(1,)] == (40, 2)
        assert rows[(2,)] == (20, 2)
        assert rows[(NULL,)] == (90, 2)
        assert work == 6 + 3

    def test_sort_mode_orders_output(self):
        result, __ = grouped_aggregate(self.batch(), ["g"], self.specs(), mode="sort")
        assert result.ordering == ("g",)
        assert [r[0] for r in result.iter_rows()] == [NULL, 1, 2]

    def test_fast_and_generic_paths_agree(self):
        """Null-free int keys take the numpy factorization; the same batch
        with one string key takes the generic path. Same groups, sums."""
        numeric = batch_of(("g", "v"), [(i % 7, i) for i in range(500)])
        tagged = batch_of(
            ("g", "v"), [(f"k{i % 7}", i) for i in range(500)]
        )
        spec = [AggregateSpec("s", sum_("v"))]
        fast, __ = grouped_aggregate(numeric, ["g"], spec)
        slow, __ = grouped_aggregate(tagged, ["g"], spec)
        assert sorted(r[1] for r in fast.iter_rows()) == sorted(
            r[1] for r in slow.iter_rows()
        )


class TestVectorExecutorEndToEnd:
    @pytest.fixture
    def db(self):
        database = Database()
        database.create_table(
            TableSchema(
                "T",
                [Column("id", INTEGER), Column("g", INTEGER), Column("v", INTEGER)],
                [PrimaryKeyConstraint(["id"])],
            )
        )
        database.create_table(
            TableSchema(
                "S",
                [Column("g", INTEGER), Column("w", INTEGER)],
                [PrimaryKeyConstraint(["g"])],
            )
        )
        for i in range(1, 25):
            database.insert("T", [i, (i % 5) + 1, i * 10])
        for g in range(1, 6):
            database.insert("S", [g, g * 100])
        return database

    def plan(self):
        return Apply(
            Group(
                Select(
                    Join(
                        Relation("T", "T"),
                        Relation("S", "S"),
                        eq(col("T.g"), col("S.g")),
                    ),
                    gt(col("T.v"), 30),
                ),
                ["T.g"],
            ),
            [AggregateSpec("s", sum_("T.v")), AggregateSpec("n", count_star())],
        )

    @pytest.mark.parametrize(
        "config",
        [
            ExecutorConfig(),
            ExecutorConfig(join_algorithm="sort_merge"),
            ExecutorConfig(aggregation="sort"),
            ExecutorConfig(aggregation="sort", exploit_orders=True),
        ],
        ids=["hash", "sort_merge", "sort_group", "exploit_orders"],
    )
    def test_backends_agree_on_results_and_stats(self, db, config):
        from dataclasses import replace

        from repro.engine.vector.differential import stats_signature

        row_result, row_stats = Executor(db, config).run(self.plan())
        vec_result, vec_stats = Executor(
            db, replace(config, engine="vector")
        ).run(self.plan())
        assert vec_result.equals_multiset(row_result)
        assert vec_result.ordering == row_result.ordering
        assert stats_signature(vec_stats) == stats_signature(row_stats)

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(engine="gpu")

    def test_sorted_plan_identical_row_order(self, db):
        plan = Sort(self.plan(), ["T.g"])
        row_result, __ = Executor(db).run(plan)
        vec_result, __ = Executor(
            db, ExecutorConfig(engine="vector")
        ).run(plan)
        assert list(vec_result.rows) == list(row_result.rows)


# -- whole-plan edge cases, cancellation and ticking -------------------------


def _kv_db(rows):
    database = Database()
    database.create_table(
        TableSchema("T", [Column("k", INTEGER), Column("v", INTEGER)])
    )
    for row in rows:
        database.insert("T", list(row))
    return database


def _grouped_plan():
    return GroupApply(
        Select(Relation("T", "T"), gt(col("T.v"), 2)),
        ["T.k"],
        [
            AggregateSpec("n", count_star()),
            AggregateSpec("s", sum_("T.v")),
            AggregateSpec("mn", min_("T.v")),
            AggregateSpec("mx", max_("T.v")),
            AggregateSpec("a", avg("T.v")),
        ],
    )


def _minmax_plan():
    return GroupApply(
        Relation("T", "T"),
        ["T.k"],
        [AggregateSpec("lo", min_("T.v")), AggregateSpec("hi", max_("T.v"))],
    )


def _assert_vector_matches_row(database, plan):
    row_result, __ = execute(database, plan, ExecutorConfig(engine="row"))
    vec_result, __ = execute(database, plan, ExecutorConfig(engine="vector"))
    assert vec_result.equals_multiset(row_result)


def test_empty_table():
    result, __ = execute(
        _kv_db([]), _grouped_plan(), ExecutorConfig(engine="vector")
    )
    assert result.cardinality == 0


def test_tie_winner_matches_row_engine():
    """Duplicate extremes: MIN/MAX must keep the same value the row
    engine's fold keeps, bit for bit."""
    rows = [(0, 5), (0, 5), (0, 5), (1, -2), (1, -2)]
    _assert_vector_matches_row(_kv_db(rows), _minmax_plan())


def _contract_edge_plan(selected):
    return GroupApply(
        selected,
        ["T.k"],
        [
            AggregateSpec("n", count_star()),
            AggregateSpec("c", count("T.v")),
            AggregateSpec("s", sum_("T.v")),
            AggregateSpec("a", avg("T.v")),
            AggregateSpec("mn", min_("T.v")),
            AggregateSpec("mx", max_("T.v")),
            AggregateSpec("dc", count("T.v", distinct=True)),
            AggregateSpec("ds", sum_("T.v", distinct=True)),
            AggregateSpec("da", avg("T.v", distinct=True)),
        ],
    )


@pytest.mark.parametrize("aggregation", ["hash", "sort"])
@pytest.mark.parametrize("case", ["all-null-group", "distinct-group", "empty"])
def test_contract_edges_row_vs_vector(case, aggregation):
    """An all-NULL group (COUNT 0, NULL elsewhere), a group with repeated
    values under DISTINCT, and an empty input: both engines must emit the
    same values *and types* (``==`` cannot tell 1 from 1.0)."""
    rows = [(0, NULL), (0, NULL), (1, 4), (1, 4), (1, 7), (2, 3)]
    selected = Relation("T", "T")
    if case == "empty":
        selected = Select(selected, gt(col("T.v"), 100))
    elif case == "distinct-group":
        rows = [row for row in rows if row[0] != 0]
    database = _kv_db(rows)
    results = [
        execute(
            database,
            _contract_edge_plan(selected),
            ExecutorConfig(engine=engine, aggregation=aggregation),
        )[0]
        for engine in ("row", "vector")
    ]
    typed = [
        [tuple((type(v).__name__, repr(v)) for v in row) for row in result.rows]
        for result in results
    ]
    assert typed[0] == typed[1]
    if case == "all-null-group":
        assert results[0].rows[0] == (0, 2, 0, NULL, NULL, NULL, NULL, 0, NULL, NULL)
    elif case == "distinct-group":
        assert results[0].rows[0][1:] == (3, 3, 15, 5.0, 4, 7, 2, 11, 5.5)
    else:
        assert results[0].rows == []


def test_negative_zero_sum_matches_row_engine():
    """``bincount`` starts each sum at 0.0, and ``0.0 + -0.0`` is ``0.0``:
    a float column holding ``-0.0`` must fold like the row engine."""
    database = Database()
    database.create_table(
        TableSchema("T", [Column("k", INTEGER), Column("f", FLOAT)])
    )
    for k, f in ((0, -0.0), (0, -0.0), (1, 2.5), (1, -0.0)):
        database.insert("T", [k, f])
    plan = GroupApply(
        Relation("T", "T"),
        ["T.k"],
        [AggregateSpec("s", sum_("T.f")), AggregateSpec("a", avg("T.f"))],
    )
    rows = {
        engine: execute(database, plan, ExecutorConfig(engine=engine))[0].rows
        for engine in ("row", "vector")
    }
    assert repr(rows["vector"]) == repr(rows["row"]) == "[(0, -0.0, -0.0), (1, 2.5, 1.25)]"


def test_nulls_fall_back_and_stay_correct():
    rows = [(i % 3, NULL if i % 5 == 0 else i) for i in range(60)]
    _assert_vector_matches_row(_kv_db(rows), _minmax_plan())


class _TripwireToken(CancellationToken):
    """Cancels itself on the N-th ``cancelled`` check, counting accesses."""

    def __init__(self, trip_at):
        super().__init__()
        self.trip_at = trip_at
        self.accesses = 0

    @property
    def cancelled(self):
        self.accesses += 1
        if self.trip_at is not None and self.accesses >= self.trip_at:
            return True
        return self._cancelled


def _cancellation_plan():
    joined = Join(
        Relation("T", "T"), Relation("D", "D"), eq(col("T.k"), col("D.k"))
    )
    return GroupApply(
        Sort(joined, ["T.k"]), ["T.k"], [AggregateSpec("s", sum_("T.v"))]
    )


def _cancellation_db():
    database = _kv_db([(i % 20, i) for i in range(600)])
    database.create_table(
        TableSchema("D", [Column("k", INTEGER), Column("name", INTEGER)])
    )
    for k in range(20):
        database.insert("D", [k, k])
    return database


def test_cancellation_fires_at_every_check_boundary():
    """Sweep the trip point over every governor check of a multi-operator
    plan: wherever cancellation lands — at an operator entry, inside a
    join, in a blocking sort — the query must end in ``QueryCancelled``,
    never a silent completion."""
    db = _cancellation_db()
    probe = _TripwireToken(None)
    execute(
        db,
        _cancellation_plan(),
        ExecutorConfig(engine="vector", cancellation=probe),
    )
    total = probe.accesses
    assert total >= 4, "plan too small to sweep"
    step = max(1, total // 12)  # a dozen probe points across the plan
    for trip_at in range(1, total + 1, step):
        token = _TripwireToken(trip_at)
        with pytest.raises(QueryCancelled):
            execute(
                db,
                _cancellation_plan(),
                ExecutorConfig(engine="vector", cancellation=token),
            )


def test_every_vector_operator_ticks():
    """Every operator frame ticks the governor at least once, so
    tick-driven checks cannot starve on plans avoiding selections."""
    db = _cancellation_db()
    plans = {
        "scan": Relation("T", "T"),
        "select": Select(Relation("T", "T"), gt(col("T.v"), 10)),
        "project": Project(Relation("T", "T"), ["T.k"]),
        "product": Product(
            Select(Relation("T", "T"), gt(col("T.v"), 590)), Relation("D", "D")
        ),
        "join": Join(
            Relation("T", "T"), Relation("D", "D"), eq(col("T.k"), col("D.k"))
        ),
        "group_apply": GroupApply(
            Relation("T", "T"), ["T.k"], [AggregateSpec("n", count_star())]
        ),
        "sort": Sort(Relation("T", "T"), ["T.k"]),
        "group": Group(Relation("T", "T"), ["T.k"]),
    }
    for name, plan in plans.items():
        executor = VectorExecutor(db, ExecutorConfig(engine="vector"))
        governor = ResourceGovernor()
        before = governor._ticks
        executor._execute(plan, ExecutionStats(), governor)
        # one tick per operator frame: the plan's own node plus its scans
        n_frames = 1 + sum(
            1 for a in ("child", "left", "right") if hasattr(plan, a)
        )
        assert governor._ticks - before >= n_frames, name
