"""The chaos harness: snapshot consistency under concurrent mixed load.

Every test here asserts the single oracle that matters: **each read
equals a serial replay of the write log at the read's pinned epoch, bit
for bit** — under concurrent writers, session-scoped injected faults
(including mid-write crashes) and cancellations, on both engines.

The quick smoke runs in the default suite; the larger seed-matrix
stress runs are marked ``concurrency`` and run in their own CI job
(``pytest -m concurrency``).
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.engine import faults
from repro.engine.executor import ExecutorConfig
from repro.engine.faults import FaultSpec
from repro.errors import ReproError
from repro.server.chaos import run_chaos
from repro.server.server import Server
from repro.session import Session

#: CI's seed matrix: shifts every stress seed so each matrix job explores
#: a different deterministic schedule family (0 locally).
SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0")) * 100


def test_chaos_smoke_vector():
    result = run_chaos(sessions=4, operations=6, seed=0, engine="vector")
    assert result.ok, result.mismatches + result.unexpected
    assert result.commits > 0


def test_chaos_smoke_row():
    result = run_chaos(sessions=4, operations=6, seed=0, engine="row")
    assert result.ok, result.mismatches + result.unexpected


@pytest.mark.concurrency
@pytest.mark.parametrize("engine", ["row", "vector"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_eight_sessions(engine, seed):
    """The acceptance bar: ≥8 concurrent sessions, mixed load, faults,
    every read bit-identical to the serial replay at its pinned epoch."""
    result = run_chaos(
        sessions=8, operations=15, seed=seed + SEED_SHIFT, engine=engine,
        fault_sessions=2, cancel_sessions=2,
    )
    assert result.ok, result.mismatches + result.unexpected
    assert result.reads_checked > 0
    assert result.commits > 0
    assert result.faults_fired >= 2  # the armed write-crash faults fired


@pytest.mark.parametrize("engine", ["row", "vector"])
def test_chaos_sharded_reads_with_shard_crashes(engine):
    """Every read runs through the Exchange wire (2 shards); two sessions
    get a shard crash armed mid-shuffle.  The crashed Exchanges must
    degrade to single-site execution — counted in ``degradations`` — and
    every read, degraded or not, must still match the serial replay at
    its pinned epoch: losing a shard may cost a wire, never a row."""
    result = run_chaos(
        sessions=4, operations=8, seed=3, engine=engine,
        fault_sessions=0, cancel_sessions=0,
        shards=2, exchange_fault_sessions=2,
    )
    assert result.ok, result.mismatches + result.unexpected
    assert result.reads_checked > 0
    assert result.degradations >= 1
    assert result.faults_fired >= 1


@pytest.mark.concurrency
def test_chaos_under_admission_pressure():
    """Tight slot budget: rejections happen, reads stay consistent."""
    result = run_chaos(
        sessions=8, operations=12, seed=5 + SEED_SHIFT, engine="vector", max_slots=3,
    )
    assert result.ok, result.mismatches + result.unexpected


@pytest.mark.concurrency
def test_chaos_write_faults_never_leak_partial_state():
    """Many mid-write crash faults: every abort rolls the version bump
    back, so the replay check still holds exactly."""
    result = run_chaos(
        sessions=8, operations=15, seed=9 + SEED_SHIFT, engine="vector",
        fault_sessions=6,
    )
    assert result.ok, result.mismatches + result.unexpected
    assert result.aborts >= 1


def _fault_matrix_server():
    server = Server(executor_config=ExecutorConfig(engine="vector"))
    setup = server.open_session(session_id="setup")
    setup.execute("CREATE TABLE T (A INTEGER PRIMARY KEY, B INTEGER)")
    for i in range(40):
        setup.execute(f"INSERT INTO T VALUES ({i}, {i % 4})")
    setup.close()
    return server


@pytest.mark.faults
def test_fault_matrix_under_two_concurrent_sessions():
    """The fault matrix replayed with 2 live sessions: a fault scoped to
    one session fires only there; the other session's queries are
    untouched and stay correct throughout."""
    server = _fault_matrix_server()
    victim = server.open_session(session_id="victim")
    bystander = server.open_session(session_id="bystander")
    sql = "SELECT T.B, COUNT(T.A) FROM T GROUP BY T.B"
    expected = sorted(Session(server.catalog.snapshot().database).query(sql).rows)

    for kind in ("kernel", "alloc", "timeout"):
        injector = faults.FaultInjector(
            (FaultSpec(kind, engine="vector", session="victim"),)
        )
        faults.install(injector)
        stop = threading.Event()
        bystander_rows = []
        bystander_errors = []

        def hammer():
            while not stop.is_set():
                try:
                    bystander_rows.append(sorted(bystander.query(sql).rows))
                except ReproError as error:  # pragma: no cover - a real bug
                    bystander_errors.append(error)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            if kind == "kernel":
                # Vector kernel faults degrade to the row engine: the
                # victim's query still completes, correctly.
                assert sorted(victim.query(sql).rows) == expected
                assert len(injector.fired) == 1
            else:
                with pytest.raises(ReproError):
                    victim.query(sql)
        finally:
            stop.set()
            thread.join()
            faults.install(None)
        assert not bystander_errors
        assert all(rows == expected for rows in bystander_rows)

    victim.close()
    bystander.close()


@pytest.mark.faults
def test_scoped_write_fault_hits_only_its_session():
    server = _fault_matrix_server()
    victim = server.open_session(session_id="victim")
    other = server.open_session(session_id="other")
    injector = faults.FaultInjector(
        (FaultSpec("kernel", engine="write", session="victim"),)
    )
    faults.install(injector)
    try:
        other.execute("INSERT INTO T VALUES (100, 1)")  # unscoped: commits
        with pytest.raises(ReproError):
            victim.execute("INSERT INTO T VALUES (101, 1)")
        other.execute("INSERT INTO T VALUES (102, 1)")
    finally:
        faults.install(None)
    rows = Session(server.catalog.snapshot().database).query(
        "SELECT COUNT(T.A) FROM T"
    ).rows
    assert rows == [(42,)]  # 40 seed + 2 committed, the faulted one absent
    assert server.catalog.aborts == 1
