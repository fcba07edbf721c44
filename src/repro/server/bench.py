"""The concurrent-workload benchmark: queries/sec through the server.

``repro bench --server`` drives N session threads of mixed reads (90%)
and writes (10%) against one :class:`~repro.server.server.Server` for a
fixed number of operations per thread, and reports

* throughput (committed operations per wall-clock second, total and
  reads-only),
* admission statistics (admitted / rejected / peak concurrent slots),
* a post-run **consistency audit**: the final state must equal the
  serial replay of the write log (the cheap end-to-end check that the
  concurrency machinery did not corrupt anything while being timed).

The report lands in ``BENCH_server.json`` next to the other benchmark
artifacts.  Thread scheduling makes the timings non-deterministic, but
the *workload* is seeded, so runs are comparable.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, Optional

from repro.engine.executor import ExecutorConfig
from repro.errors import ReproError
from repro.server.chaos import (
    READ_SQL,
    N_DEPTS,
    _rows_key,
    _seed_database,
)
from repro.server.retry import call_with_backoff
from repro.server.server import Server
from repro.server.snapshot import replay
from repro.session import Session


def run_server_bench(
    sessions: int = 8,
    operations: int = 40,
    seed: int = 0,
    engine: str = "vector",
    max_slots: Optional[int] = None,
    prefill_rows: int = 2000,
) -> Dict:
    """Run the concurrent workload; returns the JSON-ready report."""
    database, setup_sql = _seed_database()
    config = ExecutorConfig(engine=engine)
    for emp in range(prefill_rows):
        database.insert("Emp", (emp, emp % N_DEPTS, 100 + emp % 900))
    # The prefill happened before the server pinned anything: fold it
    # into the setup script so the audit's replay starts from the same
    # state the server served.
    setup_sql = setup_sql + [
        f"INSERT INTO Emp VALUES ({emp}, {emp % N_DEPTS}, {100 + emp % 900})"
        for emp in range(prefill_rows)
    ]
    server = Server(database, max_slots=max_slots, executor_config=config)
    handles = [server.open_session(tenant=f"t{i % 2}") for i in range(sessions)]
    counts = {"reads": 0, "writes": 0, "rejected": 0, "errors": 0}
    lock = threading.Lock()
    barrier = threading.Barrier(sessions + 1)

    def worker(index: int) -> None:
        session = handles[index]
        rng = random.Random(seed * 7919 + index)
        barrier.wait()
        for op in range(operations):
            try:
                if rng.random() < 0.9:
                    sql = READ_SQL[rng.randrange(len(READ_SQL))]
                    call_with_backoff(
                        lambda: session.query(sql),
                        attempts=6,
                        base_delay=0.002,
                        rng=rng,
                    )
                    with lock:
                        counts["reads"] += 1
                else:
                    emp = 1_000_000 + index * 100_000 + op
                    sql = (
                        f"INSERT INTO Emp VALUES ({emp}, "
                        f"{rng.randrange(N_DEPTS)}, {rng.randrange(100, 999)})"
                    )
                    call_with_backoff(
                        lambda: session.execute(sql),
                        attempts=6,
                        base_delay=0.002,
                        rng=rng,
                    )
                    with lock:
                        counts["writes"] += 1
            except ReproError:
                with lock:
                    counts["errors"] += 1

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"bench-{i}")
        for i in range(sessions)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    # Consistency audit: final live state == serial replay of the log.
    log = server.catalog.log_upto(server.catalog.epoch)
    replayed = replay(setup_sql, log)
    audit_sql = READ_SQL[0]
    live = Session(
        server.catalog.snapshot().database, executor_config=config
    ).query(audit_sql)
    serial = Session(replayed, executor_config=config).query(audit_sql)
    consistent = _rows_key(live.rows) == _rows_key(serial.rows)

    total_ops = counts["reads"] + counts["writes"]
    stats = server.stats()
    return {
        "bench": "server",
        "engine": engine,
        "sessions": sessions,
        "operations_per_session": operations,
        "seed": seed,
        "max_slots": max_slots,
        "prefill_rows": prefill_rows,
        "wall_s": round(wall, 4),
        "completed_reads": counts["reads"],
        "completed_writes": counts["writes"],
        "typed_errors": counts["errors"],
        "queries_per_second": round(total_ops / wall, 2) if wall else None,
        "reads_per_second": round(counts["reads"] / wall, 2) if wall else None,
        "commits": stats["commits"],
        "aborts": stats["aborts"],
        "admitted": stats["admitted"],
        "rejected": stats["rejected"],
        "peak_slots": stats["peak_slots"],
        "replay_consistent": consistent,
    }


def render_server_report(report: Dict) -> str:
    return (
        f"server bench ({report['engine']} engine): "
        f"{report['sessions']} sessions x "
        f"{report['operations_per_session']} ops in {report['wall_s']}s — "
        f"{report['queries_per_second']} ops/s "
        f"({report['completed_reads']} reads, "
        f"{report['completed_writes']} writes, "
        f"{report['rejected']} rejected, peak {report['peak_slots']} slots), "
        f"replay consistent: {'yes' if report['replay_consistent'] else 'NO'}"
    )
