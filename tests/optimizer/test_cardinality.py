"""Cardinality estimation against known data."""

import pytest

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    Join,
    Product,
    Project,
    Relation,
    Select,
)
from repro.catalog import (
    Column,
    Database,
    ForeignKeyConstraint,
    PrimaryKeyConstraint,
    TableSchema,
)
from repro.errors import ConstraintViolation
from repro.expressions.builder import col, count, eq, gt, lit
from repro.optimizer import cardinality
from repro.optimizer.cardinality import (
    CardinalityEstimator,
    CardinalityEstimator as Estimator,
    Statistics,
    TableStats,
    ColumnStats,
    _scan_table,
    collect_statistics,
)
from repro.sqltypes import INTEGER


@pytest.fixture
def estimator(example1_db):
    return CardinalityEstimator(example1_db)


class TestCollectStatistics:
    def test_row_counts(self, example1_db):
        stats = collect_statistics(example1_db)
        assert stats.table("Employee").row_count == 200
        assert stats.table("Department").row_count == 10

    def test_distinct_counts(self, example1_db):
        stats = collect_statistics(example1_db)
        assert stats.table("Employee").columns["EmpID"].distinct == 200
        assert stats.table("Department").columns["DeptID"].distinct == 10

    def test_missing_table_defaults(self):
        assert Statistics().table("nope").row_count == 0


class TestNodeEstimates:
    def test_scan(self, estimator):
        assert estimator.rows(Relation("Employee", "E")) == 200

    def test_equality_selection(self, estimator):
        plan = Select(Relation("Employee", "E"), eq(col("E.DeptID"), lit(3)))
        # 200 rows / 10 distinct DeptIDs = 20.
        assert estimator.rows(plan) == pytest.approx(20, rel=0.01)

    def test_equi_join(self, estimator):
        plan = Join(
            Relation("Employee", "E"),
            Relation("Department", "D"),
            eq(col("E.DeptID"), col("D.DeptID")),
        )
        # 200 * 10 / max(10, 10) = 200.
        assert estimator.rows(plan) == pytest.approx(200, rel=0.01)

    def test_product(self, estimator):
        plan = Product(Relation("Employee", "E"), Relation("Department", "D"))
        assert estimator.rows(plan) == 2000

    def test_group_count_capped_by_input(self, estimator):
        plan = Apply(
            Group(Relation("Employee", "E"), ["E.EmpID"]),
            [AggregateSpec("n", count("E.DeptID"))],
        )
        assert estimator.rows(plan) <= 200

    def test_group_by_low_cardinality_column(self, estimator):
        plan = Apply(
            Group(Relation("Employee", "E"), ["E.DeptID"]),
            [AggregateSpec("n", count("E.EmpID"))],
        )
        assert estimator.rows(plan) == pytest.approx(10, rel=0.01)

    def test_distinct_projection(self, estimator):
        plan = Project(Relation("Employee", "E"), ["E.DeptID"], distinct=True)
        assert estimator.rows(plan) == pytest.approx(10, rel=0.01)

    def test_range_predicate_uses_default(self, estimator):
        plan = Select(Relation("Employee", "E"), gt(col("E.EmpID"), lit(100)))
        assert estimator.rows(plan) == pytest.approx(200 / 3, rel=0.01)

    def test_synthetic_statistics(self):
        from repro.catalog import Column, Database, TableSchema
        from repro.sqltypes import INTEGER

        db = Database()
        db.create_table(TableSchema("T", [Column("a", INTEGER)]))
        stats = Statistics(
            tables={"T": TableStats(row_count=1000, columns={"a": ColumnStats(50)})}
        )
        estimator = Estimator(db, stats)
        assert estimator.rows(Relation("T", "T")) == 1000
        plan = Select(Relation("T", "T"), eq(col("T.a"), lit(1)))
        assert estimator.rows(plan) == pytest.approx(20, rel=0.01)


@pytest.fixture
def parent_child_db():
    database = Database()
    database.create_table(
        TableSchema(
            "P",
            [Column("id", INTEGER), Column("g", INTEGER)],
            [PrimaryKeyConstraint(["id"])],
        )
    )
    database.create_table(
        TableSchema(
            "C",
            [Column("id", INTEGER), Column("pid", INTEGER), Column("v", INTEGER)],
            [
                PrimaryKeyConstraint(["id"]),
                ForeignKeyConstraint(["pid"], "P", ["id"]),
            ],
        )
    )
    database.insert_many("P", [[1, 10], [2, 10], [3, 20]])
    database.insert_many("C", [[i, 1 + i % 3, i % 4] for i in range(12)])
    return database


def _rollback_insert(db):
    with pytest.raises(ConstraintViolation):
        db.insert("C", [99, 999, 0])  # no such parent: the insert rolls back


def _write_then_restore(db):
    table = db.table("C")
    snapshot = table.snapshot()
    db.insert("C", [99, 1, 50])
    collect_statistics(db)  # memoize the intermediate version
    table.restore(snapshot)


def _clone_then_write(db):
    clone = db.table("C").clone()
    db.tables["C"] = clone
    clone.insert([99, 1, 50])


MUTATIONS = {
    "insert": lambda db: db.insert("C", [99, 1, 50]),
    "insert_many": lambda db: db.insert_many("P", [[4, 30], [5, 40]]),
    "fk_rollback": _rollback_insert,
    "delete": lambda db: db.delete("C", gt(col("C.v"), lit(1))),
    "update": lambda db: db.update("C", {"v": lit(7)}, eq(col("C.id"), lit(0))),
    "clear": lambda db: db.table("C").clear(),
    "restore": _write_then_restore,
    "clone_write": _clone_then_write,
}


class TestStatisticsCache:
    """``collect_statistics`` memoizes per ``Table.version`` and is always
    exactly equal to an uncached scan."""

    def test_unchanged_database_is_not_rescanned(self, parent_child_db, monkeypatch):
        first = collect_statistics(parent_child_db)
        scans = []
        monkeypatch.setattr(
            cardinality,
            "_scan_table",
            lambda table, buckets=0: scans.append(table.name) or _scan_table(table, buckets),
        )
        second = collect_statistics(parent_child_db)
        assert scans == []
        for name in ("P", "C"):
            assert second.tables[name] is first.tables[name]
        parent_child_db.insert("C", [99, 1, 50])
        third = collect_statistics(parent_child_db)
        assert scans == ["C"]  # only the written table is scanned again
        assert third.tables["P"] is first.tables["P"]

    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
    def test_equals_uncached_scan_after_mutation(self, parent_child_db, mutate):
        collect_statistics(parent_child_db)
        mutate(parent_child_db)
        cached = collect_statistics(parent_child_db)
        for name, table in parent_child_db.tables.items():
            assert cached.tables[name] == _scan_table(table)
            assert cached.tables[name].row_count == len(table)

    def test_histogram_buckets_do_not_share_an_entry(self, parent_child_db):
        plain = collect_statistics(parent_child_db)
        bucketed = collect_statistics(parent_child_db, histogram_buckets=4)
        for name, table in parent_child_db.tables.items():
            assert bucketed.tables[name] is not plain.tables[name]
            assert bucketed.tables[name] == _scan_table(table, 4)
            assert all(
                c.histogram is None for c in plain.tables[name].columns.values()
            )
            assert all(
                c.histogram is not None for c in bucketed.tables[name].columns.values()
            )
        again = collect_statistics(parent_child_db)
        assert again.tables["C"] is plain.tables["C"]

    def test_server_reads_see_post_write_statistics(self, monkeypatch):
        from repro.server.server import Server

        server = Server()
        admin = server.open_session(tenant="admin")
        admin.execute("CREATE TABLE D (DeptID INTEGER PRIMARY KEY, Budget INTEGER)")
        admin.execute(
            "CREATE TABLE E (EmpID INTEGER PRIMARY KEY, DeptID INTEGER, "
            "FOREIGN KEY (DeptID) REFERENCES D)"
        )
        for d in range(3):
            admin.execute(f"INSERT INTO D VALUES ({d}, {100 * d})")
        for e in range(30):
            admin.execute(f"INSERT INTO E VALUES ({e}, {e % 3})")
        reader = server.open_session()
        writer = server.open_session()
        sql = (
            "SELECT D.DeptID, COUNT(E.EmpID) FROM E, D "
            "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID"
        )
        seen = []

        def recording(database, histogram_buckets=0):
            stats = collect_statistics(database, histogram_buckets)
            seen.append(stats)
            return stats

        monkeypatch.setattr(cardinality, "collect_statistics", recording)
        reader.report(sql)  # memoizes statistics on the published tables
        writer.execute("INSERT INTO D VALUES (3, 300)")
        writer.execute("UPDATE E SET DeptID = 3 WHERE EmpID < 10")
        del seen[:]
        reader.report(sql)
        assert seen
        published = server.catalog.snapshot().database
        for stats in seen:
            for name in ("D", "E"):
                assert stats.tables[name] == _scan_table(published.table(name))
            assert stats.tables["D"].row_count == 4
            assert stats.tables["E"].columns["DeptID"].distinct == 4
