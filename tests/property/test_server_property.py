"""Property: concurrent interleavings are unobservable to snapshot reads.

For ANY schedule of concurrent reads and writes across N sessions, every
read's rows equal what a **serial replay** of the committed write log
(in epoch order, at the read's pinned epoch) produces — the snapshot
protocol makes the actual thread interleaving pure implementation
detail.

Hypothesis drives the *schedule*: which session performs which operation
(insert / delete / read) with which values.  Threads then race for real;
the oracle replays the log serially and compares bit-for-bit
(:func:`repro.sqltypes.values.group_key` — type identity included).
"""

from __future__ import annotations

import threading
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.catalog.catalog import Database
from repro.engine.executor import ExecutorConfig
from repro.errors import ReproError
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_statement
from repro.server.server import Server
from repro.server.snapshot import replay
from repro.session import Session
from repro.sqltypes.values import group_key

SETUP = (
    "CREATE TABLE Acct (Id INTEGER PRIMARY KEY, Bal INTEGER)",
    "INSERT INTO Acct VALUES (1, 100)",
    "INSERT INTO Acct VALUES (2, 200)",
)

READS = (
    "SELECT COUNT(Acct.Id), SUM(Acct.Bal) FROM Acct",
    "SELECT Acct.Id, Acct.Bal FROM Acct",
    "SELECT MIN(Acct.Bal), MAX(Acct.Bal) FROM Acct",
)

# One scheduled operation: (kind, payload).  Values are small so PK
# collisions (typed, recoverable errors) genuinely happen.
_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(10, 25), st.integers(0, 500)),
    st.tuples(st.just("delete"), st.integers(1, 25)),
    st.tuples(st.just("read"), st.integers(0, len(READS) - 1)),
)


def _rows_key(rows) -> Counter:
    return Counter(group_key(row) for row in rows)


@settings(max_examples=25, deadline=None)
@given(
    schedules=st.lists(
        st.lists(_op, min_size=1, max_size=5), min_size=2, max_size=4
    ),
    engine=st.sampled_from(["row", "vector"]),
)
def test_any_interleaving_reads_equal_serial_replay(schedules, engine):
    database = Database()
    for sql in SETUP:
        execute_statement(database, parse_statement(sql))
    config = ExecutorConfig(engine=engine)
    server = Server(database, executor_config=config)
    handles = [server.open_session() for __ in schedules]
    observed = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(schedules))

    def worker(index):
        session = handles[index]
        barrier.wait()
        for op in schedules[index]:
            try:
                if op[0] == "insert":
                    # Offset ids per session so *some* inserts conflict
                    # across sessions (same id range) and some don't.
                    session.execute(
                        f"INSERT INTO Acct VALUES ({op[1]}, {op[2]})"
                    )
                elif op[0] == "delete":
                    session.execute(
                        f"DELETE FROM Acct WHERE Acct.Id = {op[1]}"
                    )
                else:
                    report = session.report(READS[op[1]])
                    with lock:
                        observed.append(
                            (READS[op[1]], report.snapshot_epoch,
                             tuple(report.result.rows))
                        )
            except ReproError:
                pass  # typed rejections (PK conflicts) are part of life

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(len(schedules))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # The oracle: serial replay at each pinned epoch.
    log = server.catalog.log_upto(server.catalog.epoch)
    replay_db = replay(list(SETUP), [])
    session = Session(replay_db, executor_config=config)
    applied = 0
    for sql, epoch, rows in sorted(observed, key=lambda entry: entry[1]):
        while applied < len(log) and log[applied][0] <= epoch:
            execute_statement(replay_db, parse_statement(log[applied][1]))
            applied += 1
        expected = session.query(sql)
        assert _rows_key(expected.rows) == _rows_key(rows), (
            f"epoch {epoch}: {sql} diverged from serial replay"
        )
    # And the final live state equals the full replay, table versions too.
    while applied < len(log):
        execute_statement(replay_db, parse_statement(log[applied][1]))
        applied += 1
    live = server.catalog.snapshot().database
    assert (
        replay_db.table("Acct").version == live.table("Acct").version
    )
    assert _rows_key(
        Session(live, executor_config=config).query(READS[1]).rows
    ) == _rows_key(session.query(READS[1]).rows)
