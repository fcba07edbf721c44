"""The ``Table.version`` invariant: every ``_rows`` mutation bumps it.

The vector backend's columnar scan cache is keyed on ``version``; a
mutation path that changes ``_rows`` without a bump would let a
mid-session query silently read stale columns.  These tests audit every
mutation path — including the constraint-violation rollback inside
``Database.insert`` — and pin the end-to-end symptom: a vector-engine
query after a mid-session mutation must see the new data.
"""

import pytest

from repro.algebra.ops import Relation
from repro.catalog import (
    Column,
    Database,
    ForeignKeyConstraint,
    PrimaryKeyConstraint,
    TableSchema,
)
from repro.engine.executor import Executor, ExecutorConfig
from repro.errors import ConstraintViolation
from repro.session import Session
from repro.sqltypes import INTEGER


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        TableSchema(
            "P",
            [Column("id", INTEGER)],
            [PrimaryKeyConstraint(["id"])],
        )
    )
    database.create_table(
        TableSchema(
            "C",
            [Column("id", INTEGER), Column("pid", INTEGER)],
            [
                PrimaryKeyConstraint(["id"]),
                ForeignKeyConstraint(["pid"], "P", ["id"]),
            ],
        )
    )
    database.insert("P", [1])
    database.insert("C", [1, 1])
    return database


class TestEveryMutationBumps:
    def test_insert(self, db):
        table = db.table("P")
        before = table.version
        db.insert("P", [2])
        assert table.version == before + 1

    def test_failed_insert_rollback_still_bumps(self, db):
        table = db.table("C")
        before = table.version
        rows_before = table.rows()
        with pytest.raises(ConstraintViolation):
            db.insert("C", [9, 999])  # no such parent
        assert table.rows() == rows_before  # no trace of the row...
        assert table.version > before  # ...but the mutation is versioned

    def test_clear(self, db):
        table = db.table("C")
        before = table.version
        table.clear()
        assert table.version == before + 1

    def test_delete_rowids(self, db):
        table = db.table("C")
        rowid = table.rows()[0].rowid
        before = table.version
        assert table.delete_rowids({rowid}) == 1
        assert table.version == before + 1

    def test_snapshot_restore(self, db):
        table = db.table("P")
        snapshot = table.snapshot()
        db.insert("P", [2])
        before = table.version
        table.restore(snapshot)
        assert table.version == before + 1


class TestVectorCacheInvalidation:
    def test_mid_session_mutation_visible_to_vector_engine(self, db):
        config = ExecutorConfig(engine="vector")
        plan = Relation("P", "P")
        first, __ = Executor(db, config).run(plan)
        assert first.cardinality == 1  # populates the columnar cache
        db.insert("P", [2])
        second, __ = Executor(db, config).run(plan)
        assert second.cardinality == 2
        assert sorted(row[0] for row in second.rows) == [1, 2]

    def test_failed_insert_never_leaks_into_vector_scan(self, db):
        config = ExecutorConfig(engine="vector")
        plan = Relation("C", "C")
        baseline, __ = Executor(db, config).run(plan)
        with pytest.raises(ConstraintViolation):
            db.insert("C", [9, 999])
        after, __ = Executor(db, config).run(plan)
        assert after.rows == baseline.rows

    def test_sql_session_roundtrip_on_vector_engine(self):
        session = Session(executor_config=ExecutorConfig(engine="vector"))
        session.execute("CREATE TABLE T (a INTEGER PRIMARY KEY);")
        session.execute("INSERT INTO T VALUES (1);")
        first = session.query("SELECT T.a FROM T;")
        session.execute("INSERT INTO T VALUES (2);")
        second = session.query("SELECT T.a FROM T;")
        assert first.cardinality == 1
        assert second.cardinality == 2


class TestDerivedMemo:
    """``Table.derived``: one memo per version for every derived representation."""

    def test_hit_until_mutation_then_old_entries_dropped(self, db):
        table = db.table("P")
        builds = []

        def build():
            builds.append(len(table))
            return object()

        first = table.derived("k", build)
        assert table.derived("k", build) is first
        table.derived("other", build)
        db.insert("P", [2])
        second = table.derived("k", build)
        assert second is not first
        assert builds == [1, 1, 2]
        # Only the current version's entries remain.
        assert table._derived == (table.version, {"k": second})

    def test_write_during_build_causes_a_miss_not_a_stale_hit(self, db):
        table = db.table("P")

        def racing_build():
            value = len(table)  # contents as the build saw them
            db.insert("P", [2])  # a write lands before the result is stored
            return value

        assert table.derived("n", racing_build) == 1
        assert table.derived("n", lambda: len(table)) == 2

    def test_frozen_tables_memoize(self, db):
        table = db.table("P").clone().freeze()
        first = table.derived("k", object)
        assert table.derived("k", object) is first
