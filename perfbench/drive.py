"""Workload runs: set up, run the timed window, check, report.

Each workload loads the seeded retail star, drives generated SQL text
through the program's public entry points (``Session.report`` /
``Session.execute``, ``ServerSession.report`` / ``ServerSession.execute``)
in a closed loop, checks every answer against sqlite, and returns the
metrics.  With ``trace=True`` the window is split: the first half runs
untraced, the second half under a :class:`spans.Tracer`, and the result
carries the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import resource
import sqlite3
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import hostspeed
import oracle as oracle_mod
import sqlmix
import spans

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-ups per untraced run; ``setup_s`` is their median plus one warm-up.
SETUP_REPEATS = 3
#: Write-probe rounds (of :data:`sqlmix.WRITE_KINDS`) on read-only workloads.
PROBE_ROUNDS = 6

MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    n_sales: int
    clients: int
    writes: bool
    executor: Dict[str, Any]
    #: ``Server(...)`` keyword arguments; ``None`` runs a plain ``Session``.
    server: Optional[Dict[str, Any]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Why each workload exists: perfbench/README.md and BENCHMARK.json.
        Workload("olap-vector", 50_000, 1, False, {"engine": "vector"}),
        Workload(
            "mixed-server", 10_000, 2, True, {"rewrites": "all", "verify": True},
            # Below the largest grouping or hash build, so some reads spill.
            server={"default_query_bytes": 2 * MIB},
        ),
        Workload(
            "sharded-socket", 20_000, 1, False,
            {"engine": "vector", "shards": 2, "transport": "socket",
             "partitioning": "hash", "exchange": "auto"},
        ),
    )
}

END_TO_END_UNITS = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ops_per_s": "ops/s",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "failed_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "wire_kb_per_query": "KiB",
}

PER_LAYER_UNITS: Dict[str, str] = {
    **{metric: "ms" for metric in spans.LAYER_MS},
    "core.eager_share": "ratio",
    "optimizer.stats_scans": "count",
    "optimizer.stats_rows_scanned": "count",
    "optimizer.stats_useful_share": "ratio",
    "optimizer.stats_repeat_share": "ratio",
    "engine.rows_processed": "count",
    "engine.spills": "count",
    "engine.spilled_rows": "count",
    "engine.vector.morsels": "count",
    "engine.degradations": "count",
    "exchange.rows_shipped": "count",
    "exchange.payload_kb": "KiB",
    "exchange.wire_kb": "KiB",
    "exchange.payload_share": "ratio",
    "exchange.rpc_retries": "count",
    "exchange.rpc_failovers": "count",
    "server.rejected_per_kop": "1/kop",
    "server.reads_after_write_share": "ratio",
    "catalog.load_us_per_row": "us",
    "other.ms": "ms",
    "trace.overhead_share": "ratio",
}


# -- environment ---------------------------------------------------------------


def prepare_environment(root: Path) -> None:
    """Make ``root/src`` importable here and in shard worker processes."""
    import sys

    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + parts)


def _normalize(value: Any) -> Any:
    from repro.sqltypes.values import is_null

    if is_null(value):
        return None
    item = getattr(value, "item", None)  # numpy scalars
    return item() if callable(item) else value


def _rows(dataset) -> List[tuple]:
    return [tuple(_normalize(v) for v in row) for row in dataset.rows]


def _p(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- clients ---------------------------------------------------------------


class _SessionClient:
    def __init__(self, session) -> None:
        self.session = session

    def report(self, sql: str):
        return self.session.report(sql)

    def execute(self, sql: str) -> int:
        """Run a write; a plain session has no epochs, so report 0."""
        self.session.execute(sql)
        return 0


class _ServerClient:
    """A server session behind the client-side admission retry helper."""

    def __init__(self, session, seed: int) -> None:
        from repro.server.retry import call_with_backoff

        self.session = session
        self._retry = call_with_backoff
        self._seed = seed

    def report(self, sql: str):
        return self._retry(lambda: self.session.report(sql), attempts=4, seed=self._seed)

    def execute(self, sql: str) -> int:
        return self._retry(lambda: self.session.execute(sql), attempts=4, seed=self._seed)


# -- one run ---------------------------------------------------------------


@dataclass
class _Window:
    """What one timed window observed."""

    seconds: float = 0.0
    #: Latencies normalised to the reference speed (see hostspeed.py),
    #: and as measured.
    query_ms: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    query_raw_ms: List[float] = field(default_factory=list)
    write_raw_ms: List[float] = field(default_factory=list)
    reference: hostspeed.Reference = field(default_factory=hostspeed.Reference)
    #: Summed operation time over all clients, normalised and raw.
    busy_seconds: float = 0.0
    busy_raw_seconds: float = 0.0
    clients: int = 1
    reads: int = 0
    writes: int = 0
    completed: int = 0
    #: (template, sql, rows, epoch, stats) per read that returned rows.
    answers: List[tuple] = field(default_factory=list)
    #: (epoch, sql) per committed write.
    committed: List[Tuple[int, str]] = field(default_factory=list)
    #: (template, kind, detail) per operation that raised.
    errors: List[Tuple[str, str, str]] = field(default_factory=list)
    reads_after_write: int = 0
    reads_with_previous: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, scale: float = 1.0) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.n_sales = max(40, int(workload.n_sales * scale))
        self.tally = oracle_mod.Tally()
        #: Normalised (see hostspeed.py) and raw set-up seconds.
        self.setup_seconds: List[float] = []
        self.setup_raw_seconds: List[float] = []
        self.warmup_seconds = 0.0
        self.warmup_raw_seconds = 0.0
        self.insert_seconds = 0.0
        self.inserted_rows = 0
        self.worker_peak_kib = 0
        self.row_counts: Dict[str, int] = {}
        self.clients: List[Any] = []

    # -- set-up -----------------------------------------------------------

    def _config(self):
        from repro.engine.executor import ExecutorConfig

        options = dict(self.workload.executor)
        if self.workload.server is not None:
            spill = OUT_DIR / "spill"
            spill.mkdir(parents=True, exist_ok=True)
            options["spill_dir"] = str(spill)
        return ExecutorConfig(**options)

    def _populate(self, db) -> None:
        from repro.workloads.generators import populate_retail

        populate_retail(
            db, n_sales=self.n_sales, n_customers=sqlmix.CUSTOMERS,
            n_products=sqlmix.PRODUCTS, n_stores=sqlmix.STORES, seed=self.seed,
        )

    def _timed_insert(self):
        """Time ``Database.insert`` during one load (catalog layer)."""
        from repro.catalog.catalog import Database

        original = Database.insert
        run = self

        def insert(db, table_name, values):
            started = time.perf_counter()
            try:
                return original(db, table_name, values)
            finally:
                run.insert_seconds += time.perf_counter() - started
                run.inserted_rows += 1

        return Database, original, insert

    def setup(self, repeats: int) -> None:
        """Set up ``repeats`` times, keep the last, then warm up once.

        A set-up is DDL, load, and server or shard-pool start; the
        warm-up is one pass over the templates.  ``setup_s`` is the
        median set-up plus the warm-up pass.
        """
        reference = hostspeed.Reference()
        for _ in range(repeats):
            self.teardown()
            before = reference.sample()
            started = time.perf_counter()
            self._build()
            elapsed = time.perf_counter() - started
            factor = hostspeed.Reference.factor([before, reference.sample()])
            self.setup_seconds.append(elapsed * factor)
            self.setup_raw_seconds.append(elapsed)
        warm = sqlmix.Mix(self.seed + 7_000_003, self.n_sales, 0)
        before = reference.sample()
        for template in sqlmix.TEMPLATES:
            started = time.perf_counter()
            try:
                self.clients[0].report(warm.read(template).sql)
            except Exception:  # noqa: BLE001 - failures are counted in the window
                pass
            elapsed = time.perf_counter() - started
            after = reference.sample()
            self.warmup_seconds += elapsed * hostspeed.Reference.factor([before, after])
            self.warmup_raw_seconds += elapsed
            before = after

    def _build(self) -> None:
        from repro.engine.shardrpc import get_pool
        from repro.server.server import Server
        from repro.session import Session
        from repro.workloads.schemas import make_retail_star

        db = make_retail_star()
        if self.trace:
            owner, original, timed = self._timed_insert()
            owner.insert = timed
            try:
                self._populate(db)
            finally:
                owner.insert = original
        else:
            self._populate(db)
        config = self._config()
        if self.workload.server is not None:
            server = Server(db, executor_config=config, **self.workload.server)
            self.clients = [
                _ServerClient(
                    server.open_session(tenant=f"tenant-{i}"),
                    self.seed * 1000 + i,
                )
                for i in range(self.workload.clients)
            ]
        else:
            self.clients = [_SessionClient(Session(db, executor_config=config))]
        if config.transport == "socket":
            get_pool(config.shards, timeout_seconds=config.rpc_timeout_seconds,
                     attempts=config.rpc_attempts)
        self.row_counts = {name: len(t) for name, t in db.tables.items()}

    def teardown(self) -> None:
        self._note_worker_memory()
        from repro.engine.shardrpc import shutdown_pool

        shutdown_pool()
        self.clients = []
        gc.collect()

    def _note_worker_memory(self) -> None:
        from repro.engine.shardrpc import active_pool

        pool = active_pool()
        if pool is None:
            return
        total = 0
        for worker in pool.workers:
            if worker.process is None:
                continue
            try:
                status = Path(f"/proc/{worker.process.pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        self.worker_peak_kib = max(self.worker_peak_kib, total)

    # -- the timed window ---------------------------------------------------

    def _client_loop(self, index: int, window: _Window, seconds: float,
                     tracer: Optional[spans.Tracer]) -> None:
        clients = self.workload.clients
        mix = sqlmix.Mix(
            self.seed * 1000 + index + (500 if tracer is not None else 0),
            self.n_sales,
            first_new_id=self.n_sales + 1 + index + (clients * 100_000 if tracer else 0),
            id_step=clients,
        )
        cycles = iter(lambda: mix.cycle(self.workload.writes), None)
        self._drive(self.clients[index], cycles, window, tracer, seconds, f"c{index}")

    def _drive(self, client, cycles, window: _Window, tracer: Optional[spans.Tracer],
               seconds: float, label: str) -> None:
        """Run whole cycles until this client's normalised busy time
        reaches ``seconds`` (on a host over 3x slower, until 3x that in
        wall time), sampling the reference speed between operations."""
        previous: Dict[str, int] = {}
        samples = [window.reference.sample()]
        done: List[Tuple[sqlmix.Op, Tuple[float, bool]]] = []
        busy = 0.0
        wall_limit = time.perf_counter() + 3 * seconds
        for cycle in cycles:
            if busy >= seconds or time.perf_counter() >= wall_limit:
                break
            for op in cycle:
                if tracer is None:
                    outcome = self._op(client, op, window, None, previous)
                else:
                    with tracer.operation(
                        "read" if op.kind == "read" else "write",
                        f"{label}-{len(done) + 1}", op.tables,
                    ):
                        outcome = self._op(client, op, window, tracer, previous)
                samples.append(window.reference.sample())
                factor = hostspeed.Reference.factor(samples[-2:])
                busy += outcome[0] * factor / 1000.0
                done.append((op, outcome))
        for i, (op, outcome) in enumerate(done):
            factor = hostspeed.Reference.factor(samples[max(0, i - 2):i + 4])
            self._record(window, op, outcome, factor)

    @staticmethod
    def _record(window: _Window, op: sqlmix.Op, outcome: Tuple[float, bool],
                factor: float) -> None:
        elapsed_ms, ok = outcome
        with window.lock:
            window.busy_raw_seconds += elapsed_ms / 1000.0
            window.busy_seconds += elapsed_ms * factor / 1000.0
            if not ok:
                return
            if op.kind == "read":
                window.query_raw_ms.append(elapsed_ms)
                window.query_ms.append(elapsed_ms * factor)
            else:
                window.write_raw_ms.append(elapsed_ms)
                window.write_ms.append(elapsed_ms * factor)

    def _op(self, client, op: sqlmix.Op, window: _Window,
            tracer: Optional[spans.Tracer], previous: Dict[str, int]
            ) -> Tuple[float, bool]:
        """Run one operation; its latency in ms and whether it returned."""
        started = time.perf_counter()
        try:
            if op.kind == "read":
                report = client.report(op.sql)
                rows = _rows(report.result)
            else:
                epoch = client.execute(op.sql)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            with window.lock:
                if op.kind == "read":
                    window.reads += 1
                else:
                    window.writes += 1
                window.errors.append(
                    (op.template, oracle_mod.classify_error(error),
                     f"{type(error).__name__}: {error}")
                )
            return (time.perf_counter() - started) * 1000.0, False
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        changed = None
        if tracer is not None and op.kind == "read":
            versions = tracer.context.get("versions")
            if versions is not None:
                seen = [t for t in op.tables if t in previous]
                changed = bool(seen) and any(
                    previous[t] != versions.get(t) for t in seen
                )
                previous.update({t: versions[t] for t in op.tables if t in versions})
        with window.lock:
            window.completed += 1
            if op.kind == "read":
                window.reads += 1
                window.answers.append(
                    (op.template, op.sql, rows, report.snapshot_epoch, report.stats)
                )
                if changed is not None:
                    window.reads_with_previous += 1
                    window.reads_after_write += int(changed)
            else:
                window.writes += 1
                window.committed.append((epoch, op.sql))
        return elapsed_ms, True

    def window(self, seconds: float, tracer: Optional[spans.Tracer]) -> _Window:
        """Run whole cycles on every client for ``seconds`` of normalised
        client time."""
        window = _Window(clients=len(self.clients))
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client_loop, args=(i, window, seconds, tracer),
                name=f"client-{i}",
            )
            for i in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        window.seconds = time.perf_counter() - started
        return window

    def probe(self, window: _Window) -> None:
        """Single-row writes after a read-only window (write latency)."""
        mix = sqlmix.Mix(self.seed * 1000 + 999, self.n_sales,
                         first_new_id=self.n_sales + 900_001)
        rounds = [mix.probe() for _ in range(PROBE_ROUNDS)]
        self._drive(self.clients[0], rounds, window, None, float("inf"), "probe")

    # -- checks -----------------------------------------------------------

    def check(self, windows: List[_Window], oracle: oracle_mod.Oracle) -> None:
        """Every answer against sqlite; exchanges on the socket workload."""
        for window in windows:
            for template, kind, detail in window.errors:
                self.tally.add(template, kind, detail)
        sharded = self.workload.executor.get("transport") == "socket"
        answers = [a for w in windows for a in w.answers]
        if sharded:
            for template, sql, _rows_, _epoch, stats in answers:
                problem = _exchange_problem(stats)
                if problem:
                    self.tally.add(template, "degraded-exchange", f"{problem}: {sql}")
        if self.workload.writes:
            writes = [c for w in windows for c in w.committed]
            reads = [(a[3], a[0], a[1], a[2]) for a in answers]
            for template, kind, sql in oracle_mod.check_at_epochs(oracle, writes, reads):
                self.tally.add(template, kind, sql)
            return
        expected: Dict[str, List[tuple]] = {}
        for template, sql, rows, _epoch, _stats in answers:
            if sql not in expected:
                expected[sql] = oracle.rows(sql)
            kind = oracle_mod.compare(rows, expected[sql])
            if kind is not None:
                self.tally.add(template, kind, sql)

    def check_probe(self, window: _Window, oracle: oracle_mod.Oracle) -> None:
        """Apply the probe writes to sqlite and compare the fact table."""
        for _epoch, sql in window.committed:
            oracle.apply(sql)
        sql = "SELECT COUNT(S.SaleID), SUM(S.Amount), SUM(S.Qty) FROM Sales S"
        window.reads += 1
        try:
            rows = _rows(self.clients[0].report(sql).result)
        except Exception as error:  # noqa: BLE001
            self.tally.add("probe_check", oracle_mod.classify_error(error), str(error))
            return
        window.completed += 1
        kind = oracle_mod.compare(rows, oracle.rows(sql))
        if kind is not None:
            self.tally.add("probe_check", kind, sql)

    # -- context ------------------------------------------------------------

    def context(self) -> Dict[str, Any]:
        import numpy

        config = dataclasses.asdict(self._config())
        config.pop("cancellation", None)
        if "spill_dir" in config and config["spill_dir"]:
            config["spill_dir"] = os.path.relpath(config["spill_dir"])
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "sqlite": sqlite3.sqlite_version,
            "row_counts": self.row_counts,
            "clients": self.workload.clients,
            "executor_config": config,
            "server_args": self.workload.server,
            "templates": [t.name for t in sqlmix.TEMPLATES],
        }


def _exchange_problem(stats) -> str:
    """Why a sharded answer does not count as a healthy socket exchange."""
    if stats.degradations:
        return f"{stats.degradations} degradation(s)"
    if not stats.exchanges:
        return "no exchange"
    for exchange in stats.exchanges:
        if exchange.transport != "socket":
            return f"{exchange.transport} transport"
        unhealthy = [h for h in exchange.shard_health if not h.endswith(": healthy")]
        if unhealthy or not exchange.shard_health:
            return "unhealthy shards: " + ", ".join(unhealthy)
    return ""


def _peak_rss_mb(run: Run) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return (own + run.worker_peak_kib) / 1024.0


def _wire_kb_per_query(window: _Window, sharded: bool) -> float:
    """Framed KiB per query: the shard wire's frames on the socket
    workload; elsewhere, the answer framed the same way."""
    from repro.server.transport import pack_frame

    if not window.answers:
        return 0.0
    total = 0
    for _template, _sql, rows, _epoch, stats in window.answers:
        if sharded:
            total += sum(e.wire_bytes for e in stats.exchanges)
        else:
            total += len(pack_frame({"op": "result", "rows": rows}))
    return total / 1024.0 / len(window.answers)


def _ops_per_s(window: _Window) -> float:
    """Completed operations per second of normalised client time."""
    return window.completed * window.clients / window.busy_seconds


def _end_to_end(run: Run, window: _Window, write_ms: List[float],
                failed: int) -> Dict[str, float]:
    """Metrics of the untraced window, which had ``failed`` failures;
    ``write_ms`` comes from the window or the write probe.  Times are
    normalised to the reference speed (see hostspeed.py)."""
    sharded = run.workload.executor.get("transport") == "socket"
    return {
        "query_p50_ms": statistics.median(window.query_ms),
        "query_p90_ms": _p(window.query_ms, 90),
        "ops_per_s": _ops_per_s(window),
        "write_p50_ms": statistics.median(write_ms),
        "write_p90_ms": _p(write_ms, 90),
        "failed_share": failed / (window.reads + window.writes),
        "setup_s": statistics.median(run.setup_seconds) + run.warmup_seconds,
        "peak_rss_mb": _peak_rss_mb(run),
        "wire_kb_per_query": _wire_kb_per_query(window, sharded),
    }


def _raw(run: Run, window: _Window, write_raw_ms: List[float]) -> Dict[str, float]:
    """The time metrics as measured, before normalisation."""
    return {
        "query_p50_ms": statistics.median(window.query_raw_ms),
        "query_p90_ms": _p(window.query_raw_ms, 90),
        "ops_per_s": window.completed * window.clients / window.busy_raw_seconds,
        "write_p50_ms": statistics.median(write_raw_ms),
        "write_p90_ms": _p(write_raw_ms, 90),
        "setup_s": statistics.median(run.setup_raw_seconds) + run.warmup_raw_seconds,
        "reference_ms": statistics.median(window.reference.samples) * 1000.0,
        "query_samples": len(window.query_ms),
        "write_samples": len(write_raw_ms),
    }


def _per_layer(run: Run, tracer: spans.Tracer, plain: _Window,
               traced: _Window) -> Dict[str, float]:
    reads = max(1, traced.reads)
    ops = max(1, traced.reads + traced.writes)
    layers = {k: v / reads for k, v in tracer.layer_ms("read").items()}
    writes = traced.writes
    write_total = tracer.total_seconds.get(("write", "VersionedCatalog.execute"), 0.0)
    layers["server.write_ms"] = write_total * 1000.0 / writes if writes else 0.0
    c = tracer.counts
    stats = [a[4] for a in traced.answers]
    exchanges = [e for s in stats for e in s.exchanges]
    payload = sum(e.bytes_shipped for e in exchanges)
    wire = sum(e.wire_bytes for e in exchanges)
    other = tracer.self_seconds.get(("read", "bench.read"), 0.0) * 1000.0 / reads
    return {
        **layers,
        "core.eager_share": c["choose_eager"] / c["choose"] if c["choose"] else 0.0,
        "optimizer.stats_scans": c["stats_scans"] / reads,
        "optimizer.stats_rows_scanned": c["stats_rows"] / reads,
        "optimizer.stats_useful_share":
            c["stats_useful_rows"] / c["stats_rows"] if c["stats_rows"] else 0.0,
        "optimizer.stats_repeat_share":
            c["stats_repeat_scans"] / c["stats_scans"] if c["stats_scans"] else 0.0,
        "engine.rows_processed":
            sum(n.output_cardinality for s in stats for n in s.nodes.values()) / reads,
        "engine.spills": sum(s.spill_count for s in stats) / reads,
        "engine.spilled_rows": sum(s.spilled_rows for s in stats) / reads,
        "engine.vector.morsels":
            sum(s.pipelines.morsels for s in stats if s.pipelines) / reads,
        "engine.degradations": sum(s.degradations for s in stats) / reads,
        "exchange.rows_shipped": sum(e.rows_shipped for e in exchanges) / reads,
        "exchange.payload_kb": payload / 1024.0 / reads,
        "exchange.wire_kb": wire / 1024.0 / reads,
        "exchange.payload_share": payload / wire if wire else 0.0,
        "exchange.rpc_retries": sum(e.rpc_retries for e in exchanges) / reads,
        "exchange.rpc_failovers": sum(e.rpc_failovers for e in exchanges) / reads,
        "server.rejected_per_kop": c["admission_rejected"] * 1000.0 / ops,
        "server.reads_after_write_share":
            traced.reads_after_write / traced.reads_with_previous
            if traced.reads_with_previous else 0.0,
        "catalog.load_us_per_row":
            run.insert_seconds * 1e6 / run.inserted_rows if run.inserted_rows else 0.0,
        "other.ms": other,
        "trace.overhead_share":
            statistics.median(traced.query_ms) / statistics.median(plain.query_ms) - 1.0,
    }


def _observe(tracer: spans.Tracer) -> None:
    """Counters taken at the layer boundaries the tracer wraps."""
    seen: set = set()

    def statistics_scan(args) -> None:
        database = args[0]
        referenced = set(tracer.context.get("tables", ()))
        for name, table in database.tables.items():
            rows = len(table)
            key = (name, table.version)
            tracer.count("stats_scans")
            tracer.count("stats_rows", rows)
            if name in referenced:
                tracer.count("stats_useful_rows", rows)
            if key in seen:
                tracer.count("stats_repeat_scans")
            seen.add(key)

    def choice(_args, result) -> None:
        tracer.count("choose")
        if result.strategy == "eager":
            tracer.count("choose_eager")

    def snapshot(_args, result) -> None:
        tracer.context["versions"] = dict(result.versions)

    tracer.preobservers["collect_statistics"] = statistics_scan
    tracer.observers["Planner.choose"] = choice
    tracer.observers["VersionedCatalog.snapshot"] = snapshot


def _count_rejections(tracer: spans.Tracer):
    """Wrap ``AdmissionController.admit`` to count typed rejections."""
    from repro.errors import AdmissionRejected
    from repro.server.admission import AdmissionController

    original = AdmissionController.__dict__["admit"]

    def admit(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        except AdmissionRejected:
            tracer.count("admission_rejected")
            raise

    AdmissionController.admit = admit
    return lambda: setattr(AdmissionController, "admit", original)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns ``(result, details)``.

    ``result`` has the keys the last output line carries; ``details``
    holds the run context and the per-template failure counts.
    """
    workload = WORKLOADS[name]
    run = Run(workload, seed, seconds, trace, scale)
    recorder = sqlmix.Recorder()
    run._populate(recorder)
    oracle = oracle_mod.Oracle(recorder.rows)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        run.setup(1 if trace else SETUP_REPEATS)
        if not trace:
            window = run.window(seconds, None)
            run.check([window], oracle)
            window_failed = run.tally.failed
            attempted = window.reads + window.writes
            writes = window
            if not workload.writes:
                writes = _Window()
                run.probe(writes)
                run.check([writes], oracle)
                run.check_probe(writes, oracle)
                attempted += writes.reads + writes.writes
            run.teardown()  # drains shard workers, noting their peak RSS
            metrics = _end_to_end(run, window, writes.write_ms, window_failed)
            raw = _raw(run, window, writes.write_raw_ms)
            units = END_TO_END_UNITS
        else:
            plain = run.window(seconds / 2.0, None)
            tracer = spans.Tracer()
            _observe(tracer)
            tracer.install()
            restore = _count_rejections(tracer)
            try:
                traced = run.window(seconds / 2.0, tracer)
            finally:
                restore()
                tracer.uninstall()
            run.check([plain, traced], oracle)
            metrics = _per_layer(run, tracer, plain, traced)
            units = PER_LAYER_UNITS
            attempted = plain.reads + plain.writes + traced.reads + traced.writes
            trace_path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
            tracer.write(str(trace_path))
        run.teardown()
    finally:
        from repro.engine.shardrpc import shutdown_pool

        shutdown_pool()
        oracle.close()
    details = {"context": run.context(), **run.tally.report()}
    if not trace:
        details["as_measured"] = raw
    if trace:
        details["trace_file"] = os.path.relpath(trace_path)
        details["spans"] = len(tracer.spans)
    result = {
        "correct": run.tally.unexpected == 0,
        "attempted": attempted,
        "failed": run.tally.failed,
        "metrics": {
            metric: {"value": float(metrics[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }
    return result, details
