"""The benchmark trajectory: row vs. vector wall time on the bench scenarios.

Runs the repository's ``test_bench_*`` scenario shapes (Figure 1, Figure 8,
pipelined aggregation, the star schema, the crossover two-table sweep)
through **both** execution backends, timing each and checking ``=ⁿ`` result
equality and :class:`ExecutionStats` parity as it goes, then writes the
machine-readable ``BENCH_vector.json`` at the repository root — the first
point of the perf trajectory the ROADMAP's "as fast as the hardware
allows" north star needs.

Entry points: ``repro bench`` (CLI), ``python benchmarks/runner.py``
(wrapper), or :func:`run_bench` from Python.  ``--quick`` shrinks the data
and additionally runs the full differential-equivalence harness — the CI
smoke mode, failing on any backend divergence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    GroupApply,
    Join,
    PlanNode,
    Relation,
    Sort,
)
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.stats import ExecutionStats
from repro.engine.vector.differential import (
    failures,
    render_results,
    run_differential,
    stats_signature,
)
from repro.expressions.builder import col, count, eq, sum_
from repro.sqltypes import INTEGER, VARCHAR
from repro.workloads.generators import (
    TwoTableSpec,
    make_two_table,
    populate_employee_department,
    populate_example4,
    populate_retail,
)
from repro.workloads.schemas import make_employee_department, make_retail_star


@dataclass
class Scenario:
    """One timed workload: a database, a plan, and an executor config."""

    name: str
    rows: int  # driving-table cardinality, for the report
    build: Callable[[], Database]
    plan: Callable[[], PlanNode]  # fresh tree per run (node ids key stats)
    config: ExecutorConfig = ExecutorConfig()


def _fact_table_db(n_fact: int, n_dim: int = 60, seed: int = 5) -> Database:
    import random

    database = Database("bench_fact")
    database.create_table(
        TableSchema(
            "F",
            [Column("id", INTEGER), Column("k", INTEGER), Column("v", INTEGER)],
            [PrimaryKeyConstraint(["id"])],
        )
    )
    database.create_table(
        TableSchema(
            "D",
            [Column("k", INTEGER), Column("name", VARCHAR(10))],
            [PrimaryKeyConstraint(["k"])],
        )
    )
    rng = random.Random(seed)
    for i in range(1, n_fact + 1):
        database.insert("F", [i, rng.randint(1, n_dim), rng.randint(1, 100)])
    for k in range(1, n_dim + 1):
        database.insert("D", [k, f"d{k}"])
    return database


def _pipelined_plan() -> PlanNode:
    # test_bench_pipelined_aggregation's shape: sort feeds a grouped
    # aggregation that (with exploit_orders) pipelines over the scan.
    return Apply(
        Group(Sort(Relation("F", "F"), ["F.k"]), ["F.k"]),
        [AggregateSpec("s", sum_("F.v"))],
    )


def _star_db(n_sales: int) -> Database:
    db = make_retail_star()
    populate_retail(
        db, n_sales=n_sales, n_customers=500, n_products=60, n_stores=12, seed=3
    )
    return db


def _star_plan() -> PlanNode:
    # test_bench_star_schema's per-customer report, standard shape:
    # join the fact table to Customer, then group on the customer key.
    joined = Join(
        Relation("Sales", "S"),
        Relation("Customer", "C"),
        eq(col("S.CustID"), col("C.CustID")),
    )
    return GroupApply(
        joined,
        ["C.CustID", "C.Name"],
        [AggregateSpec("total", sum_("S.Amount"))],
    )


def _figure1_db(n_employees: int) -> Database:
    db = make_employee_department()
    populate_employee_department(db, n_employees=n_employees, n_departments=100, seed=0)
    return db


def _figure1_plan() -> PlanNode:
    # Figure 1 Plan 1 (standard): group-by after the join.
    joined = Join(
        Relation("Employee", "E"),
        Relation("Department", "D"),
        eq(col("E.DeptID"), col("D.DeptID")),
    )
    return GroupApply(
        joined,
        ["D.DeptID", "D.Name"],
        [AggregateSpec("cnt", count("E.EmpID"))],
    )


def _figure8_plan() -> PlanNode:
    joined = Join(
        Relation("A", "A"), Relation("B", "B"), eq(col("A.BRef"), col("B.BId"))
    )
    return GroupApply(joined, ["A.GKey"], [AggregateSpec("s", sum_("A.Val"))])


def scenarios(quick: bool) -> List[Scenario]:
    n_pipe = 4000 if quick else 100_000
    n_star = 4000 if quick else 100_000
    n_fig1 = 2000 if quick else 10_000
    n_fig8 = 2000 if quick else 10_000
    n_cross = 2000 if quick else 20_000
    return [
        Scenario(
            "pipelined_aggregation",
            n_pipe,
            lambda: _fact_table_db(n_pipe),
            _pipelined_plan,
            ExecutorConfig(aggregation="sort", exploit_orders=True),
        ),
        Scenario("star_schema", n_star, lambda: _star_db(n_star), _star_plan),
        Scenario(
            "figure1_example1", n_fig1, lambda: _figure1_db(n_fig1), _figure1_plan
        ),
        Scenario(
            "figure8_example4",
            n_fig8,
            lambda: populate_example4(
                n_a=n_fig8, n_b=100, a_groups=max(10, int(n_fig8 * 0.9)),
                match_rows=50, seed=4,
            ),
            _figure8_plan,
        ),
        Scenario(
            "crossover_two_table",
            n_cross,
            lambda: make_two_table(
                TwoTableSpec(n_a=n_cross, n_b=100, a_groups=100, seed=9)
            ),
            _figure8_plan,
        ),
    ]


def _time_engine(
    db: Database,
    plan_factory: Callable[[], PlanNode],
    config: ExecutorConfig,
    repeat: int,
) -> Tuple[float, object, ExecutionStats]:
    """Best-of-``repeat`` wall time; returns (seconds, result, stats)."""
    best = float("inf")
    result = stats = None
    for __ in range(repeat):
        plan = plan_factory()
        start = time.perf_counter()
        result, stats = execute(db, plan, config)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result, stats


def _engine_report(seconds: float, stats: ExecutionStats) -> Dict:
    return {
        "wall_s": round(seconds, 6),
        "total_work": stats.total_work(),
        "groupby_input_rows": stats.groupby_input_rows(),
        "join_input_sizes": stats.join_input_sizes(),
        "spills": stats.spill_count,
        "spilled_rows": stats.spilled_rows,
    }


def run_bench(
    quick: bool = False,
    repeat: int = 2,
    memory_limit_bytes: Optional[int] = None,
) -> Dict:
    """Time every scenario in both engines; returns the full report dict.

    ``memory_limit_bytes`` runs every scenario under that working-set
    budget — blocking operators spill to disk, and the equality checks
    then cover the external paths (the resilience smoke the CI bench job
    exercises).
    """
    report: Dict = {
        "benchmark": "row-vs-vector backend",
        "quick": quick,
        "repeat": repeat,
        "memory_limit_bytes": memory_limit_bytes,
        "scenarios": [],
    }
    for scenario in scenarios(quick):
        db = scenario.build()
        base = replace(scenario.config, memory_limit_bytes=memory_limit_bytes)
        row_s, row_result, row_stats = _time_engine(
            db, scenario.plan, replace(base, engine="row"), repeat
        )
        vec_s, vec_result, vec_stats = _time_engine(
            db, scenario.plan, replace(base, engine="vector"), repeat
        )
        entry = {
            "scenario": scenario.name,
            "rows": scenario.rows,
            "config": {
                "join_algorithm": scenario.config.join_algorithm,
                "aggregation": scenario.config.aggregation,
                "exploit_orders": scenario.config.exploit_orders,
            },
            "row": _engine_report(row_s, row_stats),
            "vector": _engine_report(vec_s, vec_stats),
            "speedup": round(row_s / vec_s, 2) if vec_s > 0 else None,
            "results_match": row_result.equals_multiset(vec_result),
            "stats_match": stats_signature(row_stats) == stats_signature(vec_stats),
        }
        report["scenarios"].append(entry)
    return report


#: Group counts the §7 distributed sweep measures: two-phase shipping wins
#: exactly while groups ≪ rows, so the sweep brackets the crossover.
DISTRIBUTED_GROUPS: Tuple[int, ...] = (10, 100, 1000)


def _section7_query():
    """The §7 two-table shape: SUM(A.Val) per A.GKey across A ⋈ B."""
    from repro.core.query_class import GroupByJoinQuery
    from repro.fd.derivation import TableBinding

    return GroupByJoinQuery(
        r1=[TableBinding("A", "A")],
        r2=[TableBinding("B", "B")],
        where=eq(col("A.BRef"), col("B.BId")),
        ga1=["A.GKey"],
        ga2=[],
        aggregates=[AggregateSpec("s", sum_("A.Val"))],
    )


def run_distributed_bench(
    quick: bool = False, repeat: int = 2, shards: int = 2,
    transport: str = "memory",
) -> Dict:
    """Section 7 measured on the wire: shipped rows/bytes, eager vs ship-all.

    For each group count, table ``A`` (n_a rows, hash-partitioned on the
    join column) runs through the Exchange operator two ways: the standard
    plan — whose only distributable region is the bare ``A`` scan, so the
    whole partition crosses the wire — and the eager plan, where the
    below-join group-by runs under the Exchange and each shard ships one
    partial row per group.  The wire meter records the *actual* pickled
    bytes, not an estimate; the report asserts the paper's claim in
    measured form (eager ships ≈ groups rows against the standard plan's
    n_a) and that the communication-aware planner picked the two-phase
    strategy on its own (the ``shard_exchange`` certificate's recorded
    strategy).  Every sharded run must be bit-identical to its unsharded
    counterpart on the same engine.

    ``transport="socket"`` runs the sharded side over the real shard RPC
    (one OS process per shard); the report then carries socket wall-clock
    plus the RPC retry/timeout/failover counters and framed wire bytes
    from :class:`~repro.engine.stats.ExchangeStats`.
    """
    from repro.core.transform import build_eager_plan, build_standard_plan
    from repro.engine.executor import Executor
    from repro.optimizer.cardinality import CardinalityEstimator
    from repro.optimizer.cost import CostModel, NetworkWeights
    from repro.optimizer.distribute import distribution_certificate
    from repro.storage.partition import PartitionSpec

    n_a = 1000 if quick else 5000
    n_b = 50
    report: Dict = {
        "benchmark": "shard-parallel distributed exchange",
        "quick": quick,
        "repeat": repeat,
        "shards": shards,
        "transport": transport,
        "n_a": n_a,
        "n_b": n_b,
        "sweep": [],
    }

    def timed(db, plan_factory, config):
        best = float("inf")
        result = stats = executed = None
        for __ in range(repeat):
            executor = Executor(db, config, None)
            plan = plan_factory()
            start = time.perf_counter()
            result, stats = executor.run(plan)
            best = min(best, time.perf_counter() - start)
            executed = executor.executed_plan
        return best, result, stats, executed

    def certificate_of(executed_plan) -> Dict[str, str]:
        certificate = distribution_certificate(executed_plan)
        if certificate is None:
            return {}
        return dict(certificate.premises)

    def rpc_of(stats) -> Dict[str, int]:
        """Summed RPC counters over the run's Exchange deliveries."""
        return {
            "retries": sum(e.rpc_retries for e in stats.exchanges),
            "timeouts": sum(e.rpc_timeouts for e in stats.exchanges),
            "failovers": sum(e.rpc_failovers for e in stats.exchanges),
            "wire_bytes": sum(e.wire_bytes for e in stats.exchanges),
        }

    for groups in DISTRIBUTED_GROUPS:
        db = make_two_table(
            TwoTableSpec(
                n_a=n_a, n_b=n_b, a_groups=groups,
                bref_mode="correlated", seed=groups,
            )
        )
        db.set_partitioning("A", PartitionSpec("hash", "BRef", shards))
        query = _section7_query()

        def standard_factory(q=query):
            return build_standard_plan(q)

        def eager_factory(q=query):
            return build_eager_plan(q)

        sharded = ExecutorConfig(shards=shards, transport=transport)
        single = ExecutorConfig()

        std_s, std_result, std_stats, std_plan = timed(
            db, standard_factory, replace(sharded, engine="row")
        )
        eager_s, eager_result, eager_stats, eager_plan = timed(
            db, eager_factory, replace(sharded, engine="row")
        )
        vec_s, vec_result, vec_stats, __ = timed(
            db, eager_factory, replace(sharded, engine="vector")
        )
        __, base_std, *___ = timed(
            db, standard_factory, replace(single, engine="row")
        )
        __, base_eager_row, *___ = timed(
            db, eager_factory, replace(single, engine="row")
        )
        __, base_eager_vec, *___ = timed(
            db, eager_factory, replace(single, engine="vector")
        )

        model = CostModel(CardinalityEstimator(db), network=NetworkWeights())
        standard_cost = model.cost(std_plan).total
        eager_cost = model.cost(eager_plan).total
        std_cert = certificate_of(std_plan)
        eager_cert = certificate_of(eager_plan)
        std_estimate = float(std_cert.get("estimated-shipped-rows", "nan"))
        eager_estimate = float(eager_cert.get("estimated-shipped-rows", "nan"))

        results_match = (
            std_result.rows == base_std.rows
            and eager_result.rows == base_eager_row.rows
            and vec_result.rows == base_eager_vec.rows
            and eager_result.equals_multiset(std_result)
        )
        entry = {
            "groups": groups,
            "standard": {
                "wall_s": round(std_s, 6),
                "strategy": std_cert.get("strategy"),
                "rows_shipped": std_stats.rows_shipped(),
                "bytes_shipped": std_stats.bytes_shipped(),
                "estimated_rows": std_estimate,
                "rpc": rpc_of(std_stats),
            },
            "eager": {
                "wall_s": round(eager_s, 6),
                "wall_s_vector": round(vec_s, 6),
                "strategy": eager_cert.get("strategy"),
                "rows_shipped": eager_stats.rows_shipped(),
                "bytes_shipped": eager_stats.bytes_shipped(),
                "estimated_rows": eager_estimate,
                "rpc": rpc_of(eager_stats),
            },
            "model_cost": {
                "standard": round(standard_cost, 1),
                "eager": round(eager_cost, 1),
            },
            "ships_one_row_per_group": (
                eager_stats.rows_shipped() <= groups + shards
            ),
            "transfer_saving": (
                round(
                    std_stats.bytes_shipped()
                    / max(1, eager_stats.bytes_shipped()),
                    2,
                )
            ),
            "results_match": results_match,
        }
        report["sweep"].append(entry)

    report["planner_two_phase"] = all(
        entry["eager"]["strategy"] == "two-phase" for entry in report["sweep"]
    )
    # Transfer against transfer: the model must never order the strategies
    # *against* the wire.  Ties are allowed — the product-NDV estimator
    # caps the (GKey, BRef) group count at |A| because it cannot see the
    # functional dependency GKey → BRef, so at high group counts both
    # strategies estimate |A| shipped rows while the wire still favours
    # the eager plan.
    report["bytes_follow_model"] = all(
        entry["eager"]["estimated_rows"] <= entry["standard"]["estimated_rows"]
        for entry in report["sweep"]
        if entry["eager"]["bytes_shipped"] < entry["standard"]["bytes_shipped"]
    )
    report["all_equal"] = all(
        entry["results_match"] for entry in report["sweep"]
    )
    if transport == "socket":
        from repro.engine.shardrpc import shutdown_pool

        shutdown_pool()
    return report


def render_distributed_report(report: Dict) -> str:
    lines = [
        f"distributed sweep: |A|={report['n_a']}, {report['shards']} shards, "
        f"{report.get('transport', 'memory')} transport, "
        "hash-partitioned on the join column",
        f"{'groups':>7} {'ship-all rows':>14} {'eager rows':>11} "
        f"{'ship-all B':>11} {'eager B':>9} {'saving':>7}  strategy",
    ]
    for entry in report["sweep"]:
        lines.append(
            f"{entry['groups']:>7} {entry['standard']['rows_shipped']:>14} "
            f"{entry['eager']['rows_shipped']:>11} "
            f"{entry['standard']['bytes_shipped']:>11} "
            f"{entry['eager']['bytes_shipped']:>9} "
            f"{entry['transfer_saving']:>6.1f}x  {entry['eager']['strategy']}"
        )
    if report.get("transport") == "socket":
        retries = sum(e["eager"]["rpc"]["retries"] for e in report["sweep"])
        timeouts = sum(e["eager"]["rpc"]["timeouts"] for e in report["sweep"])
        failovers = sum(
            e["eager"]["rpc"]["failovers"] for e in report["sweep"]
        )
        lines.append(
            f"socket rpc (eager runs): retries={retries} "
            f"timeouts={timeouts} failovers={failovers}"
        )
    lines.append(
        "planner picked two-phase: "
        + ("yes" if report["planner_two_phase"] else "NO")
    )
    lines.append(
        "measured bytes follow the model: "
        + ("yes" if report["bytes_follow_model"] else "NO")
    )
    lines.append(
        "sharded == unsharded (both engines): "
        + ("yes" if report["all_equal"] else "NO")
    )
    return "\n".join(lines)


def render_report(report: Dict) -> str:
    lines = [
        f"{'scenario':<24} {'rows':>8} {'row (s)':>10} {'vector (s)':>11} "
        f"{'speedup':>8}  equal"
    ]
    for entry in report["scenarios"]:
        ok = entry["results_match"] and entry["stats_match"]
        lines.append(
            f"{entry['scenario']:<24} {entry['rows']:>8} "
            f"{entry['row']['wall_s']:>10.4f} {entry['vector']['wall_s']:>11.4f} "
            f"{entry['speedup']:>7.2f}x  {'yes' if ok else 'NO'}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="benchmark the row vs. vector execution backends",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small row counts + the full differential harness (CI smoke); "
        "writes no file unless --out is given",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_vector.json unless --quick)",
    )
    parser.add_argument(
        "--repeat", type=int, default=2, help="timing runs per engine (best-of)"
    )
    parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="BYTES",
        help="run every scenario under this working-set budget "
        "(blocking operators spill to disk)",
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="run the §7 distributed sweep (measured shipped rows/bytes, "
        "eager vs ship-all) and write BENCH_distributed.json instead of "
        "the backend bench",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard count for --distributed",
    )
    parser.add_argument(
        "--transport",
        choices=("memory", "socket"),
        default="memory",
        help="shard wire for --distributed: in-process pickle round-trip "
        "(memory) or one OS process per shard over the framed socket RPC "
        "(socket)",
    )
    parser.add_argument(
        "--server",
        action="store_true",
        help="run the concurrent multi-session server workload and write "
        "BENCH_server.json instead of the backend bench",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=8,
        help="concurrent sessions for --server",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed for --server"
    )
    options = parser.parse_args(argv)

    if options.server:
        from repro.server.bench import render_server_report, run_server_bench

        report = run_server_bench(
            sessions=options.sessions,
            operations=10 if options.quick else 40,
            seed=options.seed,
            engine="vector",
            prefill_rows=200 if options.quick else 2000,
        )
        print(render_server_report(report))
        out_path = options.out or "BENCH_server.json"
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {out_path}")
        return 0 if report["replay_consistent"] else 1

    if options.distributed:
        report = run_distributed_bench(
            quick=options.quick,
            repeat=options.repeat,
            shards=options.shards,
            transport=options.transport,
        )
        print(render_distributed_report(report))
        out_path = options.out or "BENCH_distributed.json"
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {out_path}")
        ok = (
            report["all_equal"]
            and report["planner_two_phase"]
            and report["bytes_follow_model"]
        )
        return 0 if ok else 1

    diverged = False
    if options.quick:
        differential = run_differential(quick=True)
        print(render_results(differential))
        diverged = bool(failures(differential))
        if options.memory_limit is not None:
            budgeted = run_differential(
                quick=True,
                overrides={"memory_limit_bytes": options.memory_limit},
            )
            leaks = failures(budgeted)
            spilled = sum(r.row_spills for r in budgeted)
            print(
                f"budgeted differential ({options.memory_limit} bytes): "
                f"{len(budgeted)} cases, {spilled} spills, "
                f"{len(leaks)} divergences"
            )
            diverged = diverged or bool(leaks)

    report = run_bench(
        quick=options.quick,
        repeat=options.repeat,
        memory_limit_bytes=options.memory_limit,
    )
    print(render_report(report))
    mismatched = [
        e["scenario"]
        for e in report["scenarios"]
        if not (e["results_match"] and e["stats_match"])
    ]
    if mismatched:
        print(f"BACKEND DIVERGENCE in: {', '.join(mismatched)}")

    out_path = options.out
    if out_path is None and not options.quick:
        out_path = "BENCH_vector.json"
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {out_path}")

    return 1 if (diverged or mismatched) else 0


if __name__ == "__main__":
    raise SystemExit(main())
