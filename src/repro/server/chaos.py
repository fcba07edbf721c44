"""Deterministic chaos harness for the multi-session server.

N threads, one per server session, each running a *seeded* mix of

* snapshot reads (grouped-aggregate SELECTs over a parent/child schema),
* writes (INSERTs into per-session key ranges, cross-session DELETEs
  that exercise the FK RESTRICT path),
* cancellations (a sibling thread flips the session's token mid-query),
* injected faults (session-scoped kernel/write faults armed on the live
  injector — including mid-write crashes on the commit path).

Determinism: every thread owns ``random.Random(seed * 1000 + index)``,
so the *operation schedule* of each thread is a pure function of the
seed.  The thread interleaving is of course nondeterministic — that is
the point — but the consistency oracle is interleaving-independent:

    every read must equal a **serial replay** of the server's write log
    at the read's pinned epoch, bit for bit (value *and* type identity).

The harness records ``(sql, epoch, rows)`` per read, then replays the
write log incrementally on a fresh database (same engine configuration),
re-runs each pinned query serially at its epoch, and compares multisets
with :func:`repro.sqltypes.values.group_key` — the same strict identity
the row/vector differential harness uses.  Any divergence is a snapshot
isolation bug, not test flakiness.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.catalog.catalog import Database
from repro.engine import faults
from repro.engine.executor import ExecutorConfig
from repro.errors import ReproError
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_statement
from repro.server.server import Server
from repro.session import Session
from repro.sqltypes.values import group_key

SETUP_SQL: Tuple[str, ...] = (
    "CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Budget INTEGER)",
    "CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, DeptID INTEGER, "
    "Salary INTEGER, FOREIGN KEY (DeptID) REFERENCES Dept)",
)

#: Read pool: each hits the planner's interesting paths (eager/standard
#: group-by placement, joins, scalar aggregates).
READ_SQL: Tuple[str, ...] = (
    "SELECT Dept.DeptID, COUNT(Emp.EmpID) FROM Emp, Dept "
    "WHERE Emp.DeptID = Dept.DeptID GROUP BY Dept.DeptID",
    "SELECT Dept.DeptID, SUM(Emp.Salary) FROM Emp, Dept "
    "WHERE Emp.DeptID = Dept.DeptID GROUP BY Dept.DeptID",
    "SELECT Emp.DeptID, MIN(Emp.Salary), MAX(Emp.Salary) FROM Emp "
    "GROUP BY Emp.DeptID",
    "SELECT COUNT(Emp.EmpID) FROM Emp",
    "SELECT Dept.DeptID, Dept.Budget FROM Dept",
)

N_DEPTS = 5


@dataclass
class ChaosResult:
    """What happened, and whether every read was snapshot-consistent."""

    sessions: int
    operations: int
    reads_checked: int = 0
    commits: int = 0
    aborts: int = 0
    rejections: int = 0
    cancellations: int = 0
    faults_fired: int = 0
    degradations: int = 0
    errors: Counter = field(default_factory=Counter)
    mismatches: List[str] = field(default_factory=list)
    unexpected: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.unexpected

    def summary(self) -> str:
        return (
            f"{self.sessions} sessions x {self.operations} ops: "
            f"{self.reads_checked} reads checked, {self.commits} commits, "
            f"{self.aborts} aborts, {self.rejections} rejections, "
            f"{self.cancellations} cancellations, "
            f"{self.faults_fired} faults, {self.degradations} degradations, "
            f"{len(self.mismatches)} mismatches"
        )


def _seed_database() -> Tuple[Database, List[str]]:
    """The initial schema + data; returns (db, the setup SQL replayed)."""
    statements = list(SETUP_SQL)
    statements += [
        f"INSERT INTO Dept VALUES ({d}, {1000 * (d + 1)})"
        for d in range(N_DEPTS)
    ]
    database = Database()
    for sql in statements:
        execute_statement(database, parse_statement(sql))
    return database, statements


def _cancel_when_running(session, spins: int = 20_000) -> None:
    """Wait for the session's in-flight query token, then cancel it.

    A cancelled read either raises the typed
    :class:`~repro.errors.QueryCancelled` (no row is recorded) or — if
    the cancel lands after the last governor check — completes normally;
    both outcomes are snapshot-consistent, which is exactly what the
    harness asserts.
    """
    import time

    for __ in range(spins):
        if session.cancel("chaos"):
            return
        time.sleep(0)


def _rows_key(rows) -> Counter:
    """Order-independent, type-strict row multiset (1 vs 1.0 differ)."""
    return Counter(group_key(row) for row in rows)


def run_chaos(
    sessions: int = 8,
    operations: int = 12,
    seed: int = 0,
    engine: str = "vector",
    fault_sessions: int = 2,
    cancel_sessions: int = 2,
    max_slots: Optional[int] = None,
    check: bool = True,
    shards: int = 1,
    exchange_fault_sessions: int = 0,
    transport: str = "memory",
    kill_shards: int = 0,
) -> ChaosResult:
    """Run the chaos schedule; assert-ready result (see ``ChaosResult.ok``).

    ``fault_sessions`` threads get session-scoped faults armed against
    them (a mid-write crash and a read kernel fault each);
    ``cancel_sessions`` threads spawn a canceller against their own
    long-running read.  With ``check=True`` every recorded read is
    verified against the serial replay of the write log at its pinned
    epoch.

    ``shards > 1`` runs every read through the Exchange wire
    (shard-parallel two-phase aggregation), and
    ``exchange_fault_sessions`` threads additionally get a session-scoped
    shard crash armed mid-shuffle: the Exchange must degrade to
    single-site execution (counted in ``degradations``) and the degraded
    read must *still* pass the serial-replay oracle — losing a shard may
    cost a wire, never a row.

    ``transport="socket"`` runs the sharded reads over the real socket
    RPC (one OS process per shard, :mod:`repro.engine.shardrpc`), and
    ``kill_shards`` SIGKILLs that many randomly chosen live workers at
    seeded points *while the schedule runs*: a killed shard mid-query
    must be survived by retry + failover to a live peer, or by the
    single-site degrade — either way the serial-replay oracle must stay
    green.  The replay itself always uses the in-memory wire (transport
    never changes results; replaying through dead workers would test the
    transport twice and the oracle zero times).
    """
    database, setup_sql = _seed_database()
    config = ExecutorConfig(
        engine=engine, shards=shards,
        transport=transport, rpc_timeout_seconds=2.0,
    )
    server = Server(
        database, max_slots=max_slots, executor_config=config
    )
    result = ChaosResult(sessions=sessions, operations=operations)
    observed: List[Tuple[str, int, tuple]] = []
    observed_lock = threading.Lock()
    start = threading.Barrier(sessions)

    injector = faults.FaultInjector(())
    faults.install(injector)
    handles = [server.open_session(tenant=f"t{i % 2}") for i in range(sessions)]
    for i in range(min(fault_sessions, sessions)):
        # One mid-write crash and one read kernel fault per faulted
        # session; scoped, so only that session's work is hit.
        injector.arm(faults.FaultSpec(
            "kernel", engine="write", session=handles[i].id, occurrence=1,
        ))
        injector.arm(faults.FaultSpec(
            "kernel", engine=engine, session=handles[i].id, occurrence=2,
        ))
    for i in range(min(exchange_fault_sessions, sessions)):
        # A shard crash mid-shuffle: the wire's per-delivery injection
        # point fires inside the session's next Exchange, which must
        # degrade to single-site execution and keep the answer.
        injector.arm(faults.FaultSpec(
            "kernel", engine="exchange", session=handles[i].id, occurrence=0,
        ))

    def worker(index: int) -> None:
        session = handles[index]
        rng = random.Random(seed * 1000 + index)
        start.wait()
        for op in range(operations):
            roll = rng.random()
            try:
                if roll < 0.45:
                    sql = rng.choice(READ_SQL)
                    report = session.report(sql)
                    with observed_lock:
                        observed.append(
                            (sql, report.snapshot_epoch, tuple(report.result.rows))
                        )
                        result.degradations += report.stats.degradations
                elif roll < 0.80:
                    emp = index * 10_000 + op
                    dept = rng.randrange(N_DEPTS)
                    session.execute(
                        f"INSERT INTO Emp VALUES ({emp}, {dept}, "
                        f"{rng.randrange(100, 5000)})"
                    )
                elif roll < 0.90:
                    emp = index * 10_000 + rng.randrange(max(op, 1))
                    session.execute(f"DELETE FROM Emp WHERE Emp.EmpID = {emp}")
                else:
                    canceller = None
                    if index < cancel_sessions:
                        # Spin until the query's token appears, then flip
                        # it — lands the cancel *during* execution nearly
                        # every time (and harmlessly after it otherwise).
                        canceller = threading.Thread(
                            target=_cancel_when_running, args=(session,)
                        )
                        canceller.start()
                    try:
                        sql = rng.choice(READ_SQL)
                        report = session.report(sql)
                        with observed_lock:
                            observed.append(
                                (sql, report.snapshot_epoch,
                                 tuple(report.result.rows))
                            )
                            result.degradations += report.stats.degradations
                    finally:
                        if canceller is not None:
                            canceller.join()
            except ReproError as error:
                # Typed failures are the contract working: count them.
                name = type(error).__name__
                with observed_lock:
                    result.errors[name] += 1
            except Exception as error:  # pragma: no cover - a real bug
                with observed_lock:
                    result.unexpected.append(f"{session.id}: {error!r}")

    stop_killer = threading.Event()

    def shard_killer() -> None:
        """SIGKILL ``kill_shards`` live workers at seeded points."""
        import time

        from repro.engine.shardrpc import active_pool

        killer_rng = random.Random(seed * 7919 + 13)
        remaining = kill_shards
        while remaining > 0 and not stop_killer.is_set():
            time.sleep(killer_rng.uniform(0.01, 0.05))
            pool = active_pool()
            if pool is None:
                continue
            live = [
                i for i, w in enumerate(pool.workers)
                if w.process is not None and w.process.poll() is None
            ]
            if not live:
                continue
            pool.kill(killer_rng.choice(live))
            remaining -= 1

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"chaos-{i}")
        for i in range(sessions)
    ]
    killer = None
    if kill_shards > 0 and transport == "socket":
        killer = threading.Thread(target=shard_killer, name="chaos-killer")
    try:
        for thread in threads:
            thread.start()
        if killer is not None:
            killer.start()
        for thread in threads:
            thread.join()
    finally:
        stop_killer.set()
        if killer is not None:
            killer.join()
        faults.install(None)

    result.commits = server.catalog.commits
    result.aborts = server.catalog.aborts
    result.rejections = server.admission.rejected
    result.cancellations = result.errors.get("QueryCancelled", 0)
    result.faults_fired = len(injector.fired)

    if check:
        _check_serial_replay(
            server, setup_sql, observed, config, result
        )
    result.reads_checked = len(observed)
    return result


def _check_serial_replay(
    server: Server,
    setup_sql: List[str],
    observed: List[Tuple[str, int, tuple]],
    config: ExecutorConfig,
    result: ChaosResult,
) -> None:
    """Replay the write log serially; every pinned read must match it.

    The replay database is advanced *incrementally* — reads are checked
    in epoch order, applying log entries as their epoch is reached — so
    the whole check costs one pass over the log regardless of how many
    reads were recorded.
    """
    from dataclasses import replace

    log = server.catalog.log_upto(server.catalog.epoch)
    replay_db = Database()
    for sql in setup_sql:
        execute_statement(replay_db, parse_statement(sql))
    # Same engine configuration, but always the in-memory wire: transport
    # never changes results, and the oracle must not depend on workers
    # the killer thread just shot.
    session = Session(
        replay_db, executor_config=replace(config, transport="memory")
    )
    applied = 0
    for sql, epoch, rows in sorted(observed, key=lambda entry: entry[1]):
        while applied < len(log) and log[applied][0] <= epoch:
            execute_statement(replay_db, parse_statement(log[applied][1]))
            applied += 1
        expected = session.query(sql)
        if _rows_key(expected.rows) != _rows_key(rows):
            result.mismatches.append(
                f"epoch {epoch}: {sql!r} observed {sorted(rows)[:5]}... "
                f"expected {sorted(expected.rows)[:5]}..."
            )
