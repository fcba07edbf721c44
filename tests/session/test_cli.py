"""The interactive shell, driven programmatically."""

import io

from repro.cli import Shell, feed_lines
from repro.session import Session


def make_shell():
    out = io.StringIO()
    shell = Shell(Session(), out=out)
    return shell, out


class TestSqlExecution:
    def test_ddl_insert_select_roundtrip(self):
        shell, out = make_shell()
        shell.handle("CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR(5));")
        shell.handle("INSERT INTO T VALUES (1, 'x'), (2, 'y');")
        shell.handle("SELECT T.a FROM T ORDER BY T.a;")
        text = out.getvalue()
        assert text.count("ok") == 2
        assert "2 rows" in text

    def test_grouped_query_reports_strategy(self):
        shell, out = make_shell()
        shell.handle("CREATE TABLE D (k INTEGER PRIMARY KEY, n VARCHAR(5));")
        shell.handle("CREATE TABLE E (id INTEGER PRIMARY KEY, k INTEGER);")
        shell.handle("INSERT INTO D VALUES (1, 'a');")
        shell.handle("INSERT INTO E VALUES (1, 1), (2, 1);")
        shell.handle(
            "SELECT D.k, D.n, COUNT(E.id) AS c FROM E E, D D "
            "WHERE E.k = D.k GROUP BY D.k, D.n;"
        )
        assert "strategy:" in out.getvalue()

    def test_error_reported_not_raised(self):
        shell, out = make_shell()
        shell.handle("SELECT * FROM Missing;")
        assert "error:" in out.getvalue()

    def test_parse_error_reported(self):
        shell, out = make_shell()
        shell.handle("SELEKT 1;")
        assert "error:" in out.getvalue()


class TestDotCommands:
    def test_help(self):
        shell, out = make_shell()
        shell.handle(".help")
        assert ".explain" in out.getvalue()

    def test_tables(self):
        shell, out = make_shell()
        shell.handle("CREATE TABLE T (a INTEGER);")
        shell.handle(".tables")
        assert "T" in out.getvalue()

    def test_policy_switch(self):
        shell, out = make_shell()
        shell.handle(".policy never_eager")
        assert shell.session.policy == "never_eager"
        shell.handle(".policy nonsense")
        assert "unknown policy" in out.getvalue()

    def test_quit(self):
        shell, __ = make_shell()
        shell.handle(".quit")
        assert shell.done

    def test_shards_switch(self):
        shell, out = make_shell()
        shell.handle(".shards 4 range")
        assert shell.session.executor_config.shards == 4
        assert shell.session.executor_config.partitioning == "range"
        assert (
            "shards set to 4 (range partitioning, memory transport)"
            in out.getvalue()
        )
        shell.handle(".shards off")
        assert shell.session.executor_config.shards == 1
        assert "shards off" in out.getvalue()

    def test_shards_bad_input(self):
        shell, out = make_shell()
        shell.handle(".shards many")
        assert "error: bad shards" in out.getvalue()
        assert shell.session.executor_config.shards == 1
        shell.handle(".shards 2 spiral")
        assert "error: bad shards" in out.getvalue()

    def test_sharded_query_and_explain_show_the_wire(self):
        shell, out = make_shell()
        shell.handle("CREATE TABLE T (k INTEGER, v INTEGER);")
        for i in range(8):
            shell.handle(f"INSERT INTO T VALUES ({i % 2}, {i});")
        shell.handle(".shards 2")
        shell.handle("SELECT T.k, SUM(T.v) AS s FROM T GROUP BY T.k;")
        assert "2 rows" in out.getvalue()
        shell.handle(".explain SELECT T.k, SUM(T.v) AS s FROM T GROUP BY T.k;")
        assert "Exchange[" in out.getvalue()

    def test_unknown_command(self):
        shell, out = make_shell()
        shell.handle(".frobnicate")
        assert "unknown command" in out.getvalue()

    def test_explain(self):
        shell, out = make_shell()
        shell.handle("CREATE TABLE D (k INTEGER PRIMARY KEY, n VARCHAR(5));")
        shell.handle("CREATE TABLE E (id INTEGER PRIMARY KEY, k INTEGER);")
        shell.handle(
            ".explain SELECT D.k, D.n, COUNT(E.id) AS c FROM E E, D D "
            "WHERE E.k = D.k GROUP BY D.k, D.n;"
        )
        text = out.getvalue()
        assert "transformable:" in text
        assert "cost" in text


class TestScripts:
    def test_script_file(self, tmp_path):
        script = tmp_path / "load.sql"
        script.write_text(
            "CREATE TABLE T (a INTEGER);\n"
            "INSERT INTO T VALUES (1), (2), (3);\n"
            "SELECT COUNT(T.a) AS n FROM T;\n"
        )
        shell, out = make_shell()
        shell.handle(f".script {script}")
        text = out.getvalue()
        assert "ran 3 statements" in text
        assert "3" in text

    def test_script_missing_file(self):
        shell, out = make_shell()
        shell.handle(".script /no/such/file.sql")
        assert "error:" in out.getvalue()

    def test_script_stops_on_error(self, tmp_path):
        script = tmp_path / "bad.sql"
        script.write_text(
            "CREATE TABLE T (a INTEGER);\nINSERT INTO Missing VALUES (1);\n"
        )
        shell, out = make_shell()
        shell.handle(f".script {script}")
        assert "error in statement 2" in out.getvalue()


class TestDumpAndOpen:
    def test_dump_to_stdout(self):
        shell, out = make_shell()
        shell.handle("CREATE TABLE T (a INTEGER);")
        shell.handle("INSERT INTO T VALUES (7);")
        shell.handle(".dump")
        text = out.getvalue()
        assert "CREATE TABLE T" in text
        assert "INSERT INTO T VALUES (7)" in text

    def test_dump_and_open_roundtrip(self, tmp_path):
        path = tmp_path / "db.sql"
        shell, out = make_shell()
        shell.handle("CREATE TABLE T (a INTEGER PRIMARY KEY);")
        shell.handle("INSERT INTO T VALUES (1), (2);")
        shell.handle(f".dump {path}")
        assert "dumped" in out.getvalue()

        fresh, fresh_out = make_shell()
        fresh.handle(f".open {path}")
        fresh.handle("SELECT COUNT(T.a) AS n FROM T;")
        assert "loaded 1 tables" in fresh_out.getvalue()
        assert "2" in fresh_out.getvalue()

    def test_open_missing_file(self):
        shell, out = make_shell()
        shell.handle(".open /no/such/dump.sql")
        assert "error:" in out.getvalue()

    def test_schema_command(self):
        shell, out = make_shell()
        shell.handle("CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR(5));")
        shell.handle(".schema T")
        text = out.getvalue()
        assert "CREATE TABLE T" in text
        assert "PRIMARY KEY (a)" in text

    def test_schema_all_tables(self):
        shell, out = make_shell()
        shell.handle("CREATE TABLE A (x INTEGER);")
        shell.handle("CREATE TABLE B (y INTEGER);")
        shell.handle(".schema")
        text = out.getvalue()
        assert "CREATE TABLE A" in text and "CREATE TABLE B" in text

    def test_schema_unknown_table(self):
        shell, out = make_shell()
        shell.handle(".schema Nope")
        assert "error:" in out.getvalue()


class TestFeedLines:
    def test_multiline_sql_accumulates(self):
        shell, out = make_shell()
        feed_lines(
            shell,
            [
                "CREATE TABLE T (",
                "  a INTEGER",
                ");",
                "INSERT INTO T VALUES (5);",
                "SELECT T.a FROM T;",
            ],
        )
        text = out.getvalue()
        assert text.count("ok") == 2
        assert "1 rows" in text

    def test_stops_after_quit(self):
        shell, out = make_shell()
        feed_lines(shell, [".quit", "SELECT 1;"])
        assert shell.done
        assert "error" not in out.getvalue()
