"""UPDATE and DELETE through SQL, with constraint enforcement."""

import io

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.errors import BindingError, CatalogError, ConstraintViolation
from repro.cli import Shell
from repro.engine.executor import ExecutorConfig
from repro.errors import TypeMismatchError
from repro.expressions.ast import ColumnRef
from repro.expressions.builder import eq, lit
from repro.session import Session
from repro.sqltypes.datatypes import INTEGER
from repro.sqltypes.values import NULL, is_null


def make_session(executor_config=ExecutorConfig()):
    s = Session(executor_config=executor_config)
    s.execute("CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30))")
    s.execute(
        "CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, "
        "LastName VARCHAR(30), Salary INTEGER CHECK (Salary > 0), "
        "DeptID INTEGER REFERENCES Department (DeptID))"
    )
    s.execute("INSERT INTO Department VALUES (1, 'Eng'), (2, 'Sales')")
    s.execute(
        "INSERT INTO Employee VALUES (1, 'A', 100, 1), (2, 'B', 200, 1), "
        "(3, 'C', 300, 2)"
    )
    return s


@pytest.fixture
def session():
    return make_session()


class TestDelete:
    def test_delete_with_where(self, session):
        session.execute("DELETE FROM Employee WHERE Salary < 250")
        remaining = session.query("SELECT E.EmpID FROM Employee E")
        assert [row[0] for row in remaining.rows] == [3]

    def test_delete_all(self, session):
        session.execute("DELETE FROM Employee")
        assert session.query("SELECT E.EmpID FROM Employee E").cardinality == 0

    def test_delete_nothing_matches(self, session):
        session.execute("DELETE FROM Employee WHERE Salary > 9999")
        assert session.query("SELECT E.EmpID FROM Employee E").cardinality == 3

    def test_delete_referenced_parent_restricted(self, session):
        with pytest.raises(ConstraintViolation):
            session.execute("DELETE FROM Department WHERE DeptID = 1")
        # Nothing deleted.
        assert session.query("SELECT D.DeptID FROM Department D").cardinality == 2

    def test_delete_unreferenced_parent_after_children_gone(self, session):
        session.execute("DELETE FROM Employee WHERE DeptID = 1")
        session.execute("DELETE FROM Department WHERE DeptID = 1")
        assert session.query("SELECT D.DeptID FROM Department D").cardinality == 1

    def test_unknown_table(self, session):
        with pytest.raises(CatalogError):
            session.execute("DELETE FROM Nope")


class TestUpdate:
    def test_update_value(self, session):
        session.execute("UPDATE Employee SET Salary = 999 WHERE EmpID = 1")
        result = session.query(
            "SELECT E.Salary FROM Employee E WHERE E.EmpID = 1"
        )
        assert result.rows == [(999,)]

    def test_update_expression_references_old_row(self, session):
        session.execute("UPDATE Employee SET Salary = Salary + 50")
        salaries = sorted(
            row[0] for row in session.query("SELECT E.Salary FROM Employee E").rows
        )
        assert salaries == [150, 250, 350]

    def test_update_multiple_columns(self, session):
        session.execute(
            "UPDATE Employee SET LastName = 'Z', Salary = 1 WHERE EmpID = 2"
        )
        result = session.query(
            "SELECT E.LastName, E.Salary FROM Employee E WHERE E.EmpID = 2"
        )
        assert result.rows == [("Z", 1)]

    def test_update_check_violation_rolls_back(self, session):
        with pytest.raises(ConstraintViolation):
            session.execute("UPDATE Employee SET Salary = 0 - 5")
        salaries = sorted(
            row[0] for row in session.query("SELECT E.Salary FROM Employee E").rows
        )
        assert salaries == [100, 200, 300]  # untouched

    def test_update_pk_collision_rolls_back(self, session):
        with pytest.raises(ConstraintViolation):
            session.execute("UPDATE Employee SET EmpID = 1 WHERE EmpID = 2")
        assert session.query("SELECT E.EmpID FROM Employee E").cardinality == 3

    def test_update_fk_violation(self, session):
        with pytest.raises(ConstraintViolation):
            session.execute("UPDATE Employee SET DeptID = 99 WHERE EmpID = 1")

    def test_update_fk_to_null_allowed(self, session):
        session.execute("UPDATE Employee SET DeptID = NULL WHERE EmpID = 1")
        result = session.query(
            "SELECT E.DeptID FROM Employee E WHERE E.EmpID = 1"
        )
        assert is_null(result.rows[0][0])

    def test_update_referenced_key_restricted(self, session):
        with pytest.raises(ConstraintViolation):
            session.execute("UPDATE Department SET DeptID = 9 WHERE DeptID = 1")

    def test_update_unreferenced_key_allowed(self, session):
        session.execute("DELETE FROM Employee WHERE DeptID = 2")
        session.execute("UPDATE Department SET DeptID = 9 WHERE DeptID = 2")
        result = session.query("SELECT D.DeptID FROM Department D ORDER BY D.DeptID")
        assert [row[0] for row in result.rows] == [1, 9]

    def test_update_key_swap_within_statement(self, session):
        """Atomic apply: shifting all EmpIDs by 10 cannot self-collide."""
        session.execute("UPDATE Employee SET EmpID = EmpID + 10")
        ids = sorted(
            row[0] for row in session.query("SELECT E.EmpID FROM Employee E").rows
        )
        assert ids == [11, 12, 13]

    def test_update_unknown_column(self, session):
        with pytest.raises(CatalogError):
            session.execute("UPDATE Employee SET Bogus = 1")


@pytest.mark.parametrize("engine", ["row", "vector"])
@pytest.mark.parametrize(
    "sql",
    [
        "UPDATE Employee SET Salary = Salary + 'x'",
        "DELETE FROM Employee WHERE Salary + 'x' = 1",
        "SELECT SUM(E.Salary + 'x') FROM Employee E",
    ],
    ids=["update-set", "delete-where", "select-sum"],
)
class TestTypedArithmeticErrors:
    """Arithmetic over operands of different domains is a typed error in
    DML and on both engines, never a bare Python ``TypeError``."""

    def test_raises_type_mismatch(self, engine, sql):
        session = make_session(ExecutorConfig(engine=engine))
        before = session.database.table("Employee").rows()
        run = session.query if sql.startswith("SELECT") else session.execute
        with pytest.raises(TypeMismatchError, match=r"cannot apply \+ to int and str"):
            run(sql)
        assert session.database.table("Employee").rows() == before

    def test_cli_exits_with_execution_family(self, engine, sql):
        out = io.StringIO()
        shell = Shell(make_session(ExecutorConfig(engine=engine)), out=out)
        shell.handle(sql + ";")
        assert shell.exit_code == 4
        assert "cannot apply + to int and str" in out.getvalue()


class TestTypedErrorsInWhereScan:
    """UPDATE and DELETE evaluate WHERE and SET over every stored row, so a
    bad reference raises its typed error even when no row would match."""

    @pytest.mark.parametrize(
        "sql",
        [
            "DELETE FROM Employee WHERE EmpID = 'x'",
            "UPDATE Employee SET Salary = 1 WHERE EmpID = 'x'",
        ],
    )
    def test_incomparable_literal(self, session, sql):
        before = session.database.table("Employee").rows()
        with pytest.raises(TypeMismatchError, match="cannot compare int with str"):
            session.execute(sql)
        assert session.database.table("Employee").rows() == before

    @pytest.mark.parametrize(
        "statement",
        [
            lambda db, ref: db.delete("T", eq(ref, lit(1))),
            lambda db, ref: db.update("T", {"b": lit(0)}, eq(ref, lit(1))),
            lambda db, ref: db.update("T", {"b": ref}),
        ],
        ids=["delete-where", "update-where", "update-set"],
    )
    @pytest.mark.parametrize(
        "column, message",
        [
            ("Bogus", "unknown column: Bogus"),
            ("a", r"ambiguous column a: matches \['T.a', 'T.x.a'\]"),
        ],
        ids=["unknown", "ambiguous"],
    )
    def test_unresolvable_bare_name(self, statement, column, message):
        session = Session()
        db = session.database
        db.create_table(
            TableSchema(
                "T",
                [Column("a", INTEGER), Column("x.a", INTEGER), Column("b", INTEGER)],
            )
        )
        db.insert("T", [1, 2, 3])
        with pytest.raises(BindingError, match=message):
            statement(db, ColumnRef("", column))
        assert [row.values for row in db.table("T")] == [(1, 2, 3)]


class TestInSubquery:
    def test_in_subquery(self, session):
        result = session.query(
            "SELECT E.LastName FROM Employee E WHERE E.DeptID IN "
            "(SELECT D.DeptID FROM Department D WHERE D.Name = 'Eng')"
        )
        assert sorted(row[0] for row in result.rows) == ["A", "B"]

    def test_not_in_subquery(self, session):
        result = session.query(
            "SELECT E.LastName FROM Employee E WHERE E.DeptID NOT IN "
            "(SELECT D.DeptID FROM Department D WHERE D.Name = 'Eng')"
        )
        assert sorted(row[0] for row in result.rows) == ["C"]

    def test_empty_subquery_is_false(self, session):
        result = session.query(
            "SELECT E.LastName FROM Employee E WHERE E.DeptID IN "
            "(SELECT D.DeptID FROM Department D WHERE D.Name = 'Nothing')"
        )
        assert result.cardinality == 0

    def test_not_in_empty_subquery_is_true(self, session):
        result = session.query(
            "SELECT E.LastName FROM Employee E WHERE E.DeptID NOT IN "
            "(SELECT D.DeptID FROM Department D WHERE D.Name = 'Nothing')"
        )
        assert result.cardinality == 3

    def test_null_in_subquery_result(self, session):
        """NOT IN over a subquery containing NULL filters everything
        (each comparison is UNKNOWN at best) — strict SQL."""
        session.execute("INSERT INTO Employee VALUES (4, 'D', 50, NULL)")
        result = session.query(
            "SELECT E.LastName FROM Employee E WHERE E.Salary NOT IN "
            "(SELECT E2.DeptID FROM Employee E2)"
        )
        # Subquery yields {1, 2, NULL}: every NOT IN test is UNKNOWN or FALSE.
        assert result.cardinality == 0

    def test_subquery_with_aggregate(self, session):
        result = session.query(
            "SELECT E.LastName FROM Employee E WHERE E.DeptID IN "
            "(SELECT E2.DeptID FROM Employee E2 "
            "GROUP BY E2.DeptID HAVING COUNT(E2.EmpID) > 1)"
        )
        assert sorted(row[0] for row in result.rows) == ["A", "B"]

    def test_multi_column_subquery_rejected(self, session):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            session.query(
                "SELECT E.LastName FROM Employee E WHERE E.DeptID IN "
                "(SELECT D.DeptID, D.Name FROM Department D)"
            )
