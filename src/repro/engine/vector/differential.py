"""Differential equivalence: row backend vs. vector backend, every workload.

The vector backend's correctness story is not "it has tests"; it is "on
every workload in :mod:`repro.workloads`, both backends produce
``=ⁿ``-identical multisets (Definition 1's duplicate semantics, NULL
grouping with NULL) *and* identical per-operator
:class:`~repro.engine.stats.ExecutionStats`".  This module is that check,
runnable three ways: from tests, from ``repro bench --quick`` in CI, and
ad hoc via :func:`run_differential`.

Coverage: SQL queries through the full session stack (parser → planner →
executor) on every generated workload — including a NULL-infested variant
exercising NULL group keys and NULL join keys — plus bare-algebra plans
hitting each physical operator (products, distinct projection, descending
sorts, 3VL selections, inequality joins, same-side equalities) under a
matrix of executor configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    GroupApply,
    Join,
    PlanNode,
    Product,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.catalog.catalog import Database
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.stats import ExecutionStats
from repro.expressions.builder import (
    and_,
    avg,
    between,
    col,
    count,
    count_star,
    eq,
    gt,
    in_,
    is_null_,
    like,
    lt,
    max_,
    min_,
    not_,
    or_,
    sum_,
)
from repro.session import Session
from repro.workloads.generators import (
    TwoTableSpec,
    make_two_table,
    populate_employee_department,
    populate_example4,
    populate_part_supplier,
    populate_printer_accounting,
    populate_retail,
)
from repro.workloads.schemas import (
    make_employee_department,
    make_part_supplier,
    make_printer_schema,
    make_retail_star,
)


@dataclass
class CaseResult:
    """Outcome of one (case, configuration) differential run."""

    case: str
    config: str
    results_match: bool
    stats_match: bool
    cardinality: int
    #: Spill counts per backend — excluded from the stats signature (they
    #: are resilience accounting, not operator semantics) but reported so
    #: budgeted sweeps can assert both backends made identical spill
    #: decisions.
    row_spills: int = 0
    vector_spills: int = 0

    @property
    def ok(self) -> bool:
        return self.results_match and self.stats_match


def stats_signature(stats: ExecutionStats) -> List[Tuple]:
    """Order-preserving per-operator fingerprint for cross-run comparison.

    Node ids differ between runs (they are object identities), so compare
    the recorded sequence of (kind, label, inputs, output, work) instead.
    """
    return [
        (s.kind, s.label, s.input_cardinalities, s.output_cardinality, s.work)
        for s in (stats.nodes[i] for i in stats.order)
    ]


def _config_label(config: ExecutorConfig) -> str:
    parts = [config.join_algorithm, config.aggregation]
    if config.exploit_orders:
        parts.append("exploit_orders")
    if config.expose_rowids:
        parts.append("rowids")
    return "+".join(parts)


# -- case catalog ------------------------------------------------------------


@dataclass
class SqlCase:
    """A SQL query run through the full Session stack in both engines."""

    name: str
    build: Callable[[bool], Database]  # quick -> populated database
    sql: str


@dataclass
class PlanCase:
    """A bare-algebra plan executed directly in both engines."""

    name: str
    build: Callable[[bool], Database]
    plan: Callable[[], PlanNode]  # fresh tree per run (node ids are keys)


def _example1(quick: bool) -> Database:
    db = make_employee_department()
    populate_employee_department(
        db, n_employees=300 if quick else 3000, n_departments=20, seed=1
    )
    return db


def _example2(quick: bool) -> Database:
    db = make_part_supplier()
    populate_part_supplier(db, n_parts=200 if quick else 1000, n_suppliers=25, seed=2)
    return db


def _example3(quick: bool) -> Database:
    db = make_printer_schema()
    populate_printer_accounting(db, n_users=60 if quick else 300, seed=3)
    return db


def _retail(quick: bool) -> Database:
    db = make_retail_star()
    populate_retail(db, n_sales=400 if quick else 4000, seed=4)
    return db


def _two_table(quick: bool) -> Database:
    return make_two_table(
        TwoTableSpec(n_a=300 if quick else 3000, n_b=40, a_groups=25, seed=5)
    )


def _example4(quick: bool) -> Database:
    return populate_example4(
        n_a=300 if quick else 3000, n_b=40, a_groups=250 if quick else 2500,
        match_rows=30, seed=6,
    )


def _nullable(quick: bool) -> Database:
    # NULL group keys and NULL join keys, both at once.
    return make_two_table(
        TwoTableSpec(
            n_a=300 if quick else 3000, n_b=40, a_groups=15,
            match_fraction=0.8, null_fraction=0.15, seed=7,
        )
    )


SQL_CASES: Tuple[SqlCase, ...] = (
    SqlCase(
        "example1/count-per-dept",
        _example1,
        "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n "
        "FROM Employee E, Department D "
        "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name",
    ),
    SqlCase(
        "example2/parts-per-supplier",
        _example2,
        "SELECT S.SupplierNo, S.Name, COUNT(P.PartNo) AS parts "
        "FROM Part P, Supplier S "
        "WHERE P.SupplierNo = S.SupplierNo GROUP BY S.SupplierNo, S.Name",
    ),
    SqlCase(
        "example3/usage-on-dragon",
        _example3,
        "SELECT P.PNo, SUM(A.Usage) AS used "
        "FROM PrinterAuth A, Printer P, UserAccount U "
        "WHERE A.PNo = P.PNo AND A.UserId = U.UserId "
        "AND A.Machine = U.Machine AND U.Machine = 'dragon' "
        "GROUP BY P.PNo",
    ),
    SqlCase(
        "retail/per-customer",
        _retail,
        "SELECT C.CustID, C.Name, SUM(S.Amount) AS total "
        "FROM Sales S, Customer C "
        "WHERE S.CustID = C.CustID GROUP BY C.CustID, C.Name",
    ),
    SqlCase(
        "retail/by-region",
        _retail,
        "SELECT St.Region, COUNT(S.SaleID) AS n, SUM(S.Amount) AS total "
        "FROM Sales S, Store St "
        "WHERE S.StoreID = St.StoreID GROUP BY St.Region",
    ),
    SqlCase(
        "two_table/group-sum",
        _two_table,
        "SELECT A.GKey, COUNT(A.AId) AS n, SUM(A.Val) AS total "
        "FROM A, B WHERE A.BRef = B.BId GROUP BY A.GKey",
    ),
    SqlCase(
        "example4/selective-join",
        _example4,
        "SELECT A.GKey, COUNT(A.AId) AS n, SUM(A.Val) AS total "
        "FROM A, B WHERE A.BRef = B.BId GROUP BY A.GKey",
    ),
    SqlCase(
        "nullable/null-group-and-join-keys",
        _nullable,
        "SELECT A.GKey, COUNT(A.AId) AS n, SUM(A.Val) AS total, AVG(A.Val) AS av "
        "FROM A, B WHERE A.BRef = B.BId GROUP BY A.GKey",
    ),
    SqlCase(
        "nullable/scalar-aggregate",
        _nullable,
        "SELECT COUNT(A.Val) AS n, MIN(A.Val) AS mn, MAX(A.Val) AS mx FROM A",
    ),
)


def _plan_all_aggregates() -> PlanNode:
    return GroupApply(
        Relation("A", "A"),
        ["A.GKey"],
        [
            AggregateSpec("n", count_star()),
            AggregateSpec("nv", count(col("A.Val"))),
            AggregateSpec("s", sum_("A.Val")),
            AggregateSpec("a", avg("A.Val")),
            AggregateSpec("mn", min_("A.Val")),
            AggregateSpec("mx", max_("A.Val")),
            AggregateSpec("dc", count(col("A.Val"), distinct=True)),
            AggregateSpec("ds", sum_("A.Val", distinct=True)),
        ],
    )


def _plan_empty_scalar_aggregate() -> PlanNode:
    # GROUP BY () over an empty input: zero output rows in the algebra.
    filtered = Select(Relation("A", "A"), lt(col("A.Val"), -1))
    return Apply(
        Group(filtered, ()),
        [AggregateSpec("n", count_star()), AggregateSpec("s", sum_("A.Val"))],
    )


def _plan_join_group() -> PlanNode:
    joined = Join(
        Relation("A", "A"), Relation("B", "B"), eq(col("A.BRef"), col("B.BId"))
    )
    return GroupApply(
        joined,
        ["A.GKey"],
        [AggregateSpec("n", count_star()), AggregateSpec("s", sum_("A.Val"))],
    )


def _plan_same_side_equality() -> PlanNode:
    # A.GKey = A.Val binds entirely on the left: it must act as a residual
    # filter, not a join key (the extract_equi_keys regression).
    condition = and_(
        eq(col("A.BRef"), col("B.BId")), eq(col("A.GKey"), col("A.Val"))
    )
    return Join(Relation("A", "A"), Relation("B", "B"), condition)


def _plan_inequality_join() -> PlanNode:
    # No usable equi-key: all algorithms fall back to nested loop.
    small = Select(Relation("B", "B"), lt(col("B.BId"), 6))
    return Join(Relation("A", "A"), small, lt(col("A.GKey"), col("B.BId")))


def _plan_product_distinct() -> PlanNode:
    left = Project(Relation("A", "A"), ["A.GKey"], distinct=True)
    return Product(left, Select(Relation("B", "B"), lt(col("B.BId"), 4)))


def _plan_threevalued_select() -> PlanNode:
    condition = or_(
        and_(in_(col("A.GKey"), 1, 2, 3), between(col("A.Val"), 100, 800)),
        and_(not_(is_null_(col("A.BRef"))), gt(col("A.Val"), 950)),
    )
    return Select(Relation("A", "A"), condition)


def _plan_like_select() -> PlanNode:
    return Select(Relation("B", "B"), like(col("B.Name"), "B1%"))


def _plan_sort_mixed() -> PlanNode:
    return Sort(
        Project(Relation("A", "A"), ["A.GKey", "A.Val"]),
        ["A.GKey", "A.Val"],
        [False, True],
    )


def _plan_sorted_pipelined_group() -> PlanNode:
    # Sort feeds GroupApply: with exploit_orders + sort aggregation the
    # grouping skips its sort (pipelined aggregation, §2).
    return GroupApply(
        Sort(Relation("A", "A"), ["A.GKey"]),
        ["A.GKey"],
        [AggregateSpec("n", count_star()), AggregateSpec("mx", max_("A.Val"))],
    )


PLAN_CASES: Tuple[PlanCase, ...] = (
    PlanCase("plan/all-aggregates", _nullable, _plan_all_aggregates),
    PlanCase("plan/empty-scalar-aggregate", _nullable, _plan_empty_scalar_aggregate),
    PlanCase("plan/join-group", _nullable, _plan_join_group),
    PlanCase("plan/same-side-equality", _nullable, _plan_same_side_equality),
    PlanCase("plan/inequality-join", _nullable, _plan_inequality_join),
    PlanCase("plan/product-distinct", _nullable, _plan_product_distinct),
    PlanCase("plan/threevalued-select", _nullable, _plan_threevalued_select),
    PlanCase("plan/like-select", _nullable, _plan_like_select),
    PlanCase("plan/sort-mixed-directions", _nullable, _plan_sort_mixed),
    PlanCase("plan/sorted-pipelined-group", _nullable, _plan_sorted_pipelined_group),
)

#: Executor configurations every plan case runs under.
PLAN_CONFIGS: Tuple[ExecutorConfig, ...] = (
    ExecutorConfig(),
    ExecutorConfig(join_algorithm="nested_loop"),
    ExecutorConfig(join_algorithm="sort_merge"),
    ExecutorConfig(aggregation="sort"),
    ExecutorConfig(aggregation="sort", exploit_orders=True),
    ExecutorConfig(expose_rowids=True),
)

#: Executor configurations every SQL case runs under (through the planner).
SQL_CONFIGS: Tuple[ExecutorConfig, ...] = (
    ExecutorConfig(),
    ExecutorConfig(aggregation="sort", exploit_orders=True),
)


def run_differential(
    quick: bool = True, overrides: Optional[dict] = None
) -> List[CaseResult]:
    """Run every case through both backends; one :class:`CaseResult` per
    (case, configuration).  ``quick`` shrinks the data for CI smoke runs.

    ``overrides`` merges extra :class:`ExecutorConfig` fields into every
    configuration — e.g. ``{"memory_limit_bytes": 4096}`` re-runs the whole
    matrix under memory pressure, asserting the spill paths stay
    result- and stats-identical across backends.
    """
    results: List[CaseResult] = []
    extra = overrides or {}

    for sql_case in SQL_CASES:
        db = sql_case.build(quick)
        for config in SQL_CONFIGS:
            row_session = Session(
                db, executor_config=replace(config, engine="row", **extra)
            )
            vec_session = Session(
                db, executor_config=replace(config, engine="vector", **extra)
            )
            row_report = row_session.report(sql_case.sql)
            vec_report = vec_session.report(sql_case.sql)
            results.append(
                CaseResult(
                    sql_case.name,
                    _config_label(config),
                    row_report.result.equals_multiset(vec_report.result),
                    stats_signature(row_report.stats)
                    == stats_signature(vec_report.stats),
                    row_report.result.cardinality,
                    row_report.stats.spill_count,
                    vec_report.stats.spill_count,
                )
            )

    for plan_case in PLAN_CASES:
        db = plan_case.build(quick)
        for config in PLAN_CONFIGS:
            row_result, row_stats = execute(
                db, plan_case.plan(), replace(config, engine="row", **extra)
            )
            vec_result, vec_stats = execute(
                db, plan_case.plan(), replace(config, engine="vector", **extra)
            )
            results.append(
                CaseResult(
                    plan_case.name,
                    _config_label(config),
                    row_result.equals_multiset(vec_result)
                    and row_result.ordering == vec_result.ordering,
                    stats_signature(row_stats) == stats_signature(vec_stats),
                    row_result.cardinality,
                    row_stats.spill_count,
                    vec_stats.spill_count,
                )
            )

    return results


def failures(results: Sequence[CaseResult]) -> List[CaseResult]:
    return [r for r in results if not r.ok]


#: Shard configurations the full matrix replays under: both partitioning
#: methods at 2 and 4 shards, plus the shards=1 identity row.  Every entry
#: must be invisible — sharded execution through the Exchange wire is
#: required to be *bit-identical* (rows, order, columns) to the unsharded
#: baseline on both engines.
SHARD_MATRIX: Tuple[dict, ...] = (
    {"shards": 1},
    {"shards": 2, "partitioning": "hash"},
    {"shards": 2, "partitioning": "range"},
    {"shards": 4, "partitioning": "hash"},
    {"shards": 4, "partitioning": "range"},
)


def shard_config_label(overrides: dict) -> str:
    shards = overrides.get("shards", 1)
    if shards == 1:
        return "shards=1"
    label = f"shards={shards}+{overrides.get('partitioning', 'hash')}"
    transport = overrides.get("transport", "memory")
    if transport != "memory":
        label += f"+{transport}"
    return label


def _typed(rows) -> List[Tuple[Tuple[str, str], ...]]:
    """Rows as (type, repr) pairs: ``==`` holds for ``1``/``1.0``/``True``
    and for ``0.0``/``-0.0``, which bit-identity must tell apart."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


def run_shard_matrix(
    quick: bool = True, transport: str = "memory"
) -> List[Tuple[str, List[CaseResult]]]:
    """The full differential under every :data:`SHARD_MATRIX` entry.

    For each (case, configuration) each engine's own unsharded run is its
    baseline; that engine's sharded run must reproduce it **bit for bit**
    — columns, rows in order, ordering claim — because shard-parallel
    execution may change where work happens, never what comes out.
    Across engines the usual differential contract holds (same multiset):
    physical row order under hash aggregation legitimately differs
    between backends, sharded or not.

    ``transport="socket"`` replays the whole matrix over the real shard
    RPC (one OS process per shard) — same bit-identity bar; the wire
    must be invisible too.
    """
    sweeps: List[Tuple[str, List[CaseResult]]] = []
    for base_overrides in SHARD_MATRIX:
        overrides = dict(base_overrides)
        if overrides.get("shards", 1) > 1 and transport != "memory":
            overrides["transport"] = transport
        results: List[CaseResult] = []

        def compare(name: str, config: ExecutorConfig, run) -> None:
            # Bit-identity is a same-engine promise: sharding must not
            # change what an engine emits, row for row.  Across engines the
            # usual differential contract applies (same multiset, same
            # ordering claim) — physical row order under hash aggregation
            # legitimately differs between backends.
            base_row, __ = run(replace(config, engine="row"))
            base_vec, __ = run(replace(config, engine="vector"))
            row_result, row_stats = run(
                replace(config, engine="row", **overrides)
            )
            vec_result, vec_stats = run(
                replace(config, engine="vector", **overrides)
            )
            identical = (
                row_result.columns == base_row.columns
                and vec_result.columns == base_vec.columns
                and _typed(row_result.rows) == _typed(base_row.rows)
                and _typed(vec_result.rows) == _typed(base_vec.rows)
                and row_result.ordering == base_row.ordering
                and vec_result.ordering == base_vec.ordering
                and vec_result.equals_multiset(base_row)
            )
            results.append(
                CaseResult(
                    name,
                    _config_label(config) + "+" + shard_config_label(overrides),
                    identical,
                    stats_signature(row_stats) == stats_signature(vec_stats),
                    base_row.cardinality,
                    row_stats.spill_count,
                    vec_stats.spill_count,
                )
            )

        for sql_case in SQL_CASES:
            db = sql_case.build(quick)

            def run_sql(config: ExecutorConfig, db=db, sql=sql_case.sql):
                report = Session(db, executor_config=config).report(sql)
                return report.result, report.stats

            for config in SQL_CONFIGS:
                compare(sql_case.name, config, run_sql)

        for plan_case in PLAN_CASES:
            db = plan_case.build(quick)

            def run_plan(config: ExecutorConfig, db=db, plan=plan_case.plan):
                return execute(db, plan(), config)

            for config in PLAN_CONFIGS:
                compare(plan_case.name, config, run_plan)

        sweeps.append((shard_config_label(overrides), results))
    return sweeps


def run_rewrite_differential(
    quick: bool = True,
    rewrite_sets: Optional[Sequence[Tuple[str, ...]]] = None,
) -> List[CaseResult]:
    """Differential audit of the certified rewrite pass.

    For every (case, configuration, rewrite-set) triple, run the case once
    on the row engine with rewrites disabled (the trusted baseline), then
    on both engines with the rewrite set enabled.  ``results_match``
    requires both rewritten runs to reproduce the baseline's multiset AND
    its ordering metadata — a rewrite that silently reorders an ORDER BY
    result or drops a column fails here even if the checker passed it.
    ``stats_match`` compares the two rewritten engines against each other
    (rewrites change plan shape, so baseline stats are not comparable).

    ``rewrite_sets`` defaults to each rule alone plus all rules together.
    """
    from repro.optimizer.rewrites import REWRITE_RULES

    sets: Tuple[Tuple[str, ...], ...]
    if rewrite_sets is None:
        sets = tuple((rule,) for rule in REWRITE_RULES) + (REWRITE_RULES,)
    else:
        sets = tuple(tuple(rs) for rs in rewrite_sets)
    results: List[CaseResult] = []

    for sql_case in SQL_CASES:
        db = sql_case.build(quick)
        for config in SQL_CONFIGS:
            base = Session(
                db, executor_config=replace(config, engine="row")
            ).report(sql_case.sql)
            for rewrite_set in sets:
                row_report = Session(
                    db,
                    executor_config=replace(
                        config, engine="row", rewrites=rewrite_set
                    ),
                ).report(sql_case.sql)
                vec_report = Session(
                    db,
                    executor_config=replace(
                        config, engine="vector", rewrites=rewrite_set
                    ),
                ).report(sql_case.sql)
                results.append(
                    CaseResult(
                        sql_case.name,
                        _config_label(config) + "+rw:" + ",".join(rewrite_set),
                        row_report.result.equals_multiset(base.result)
                        and vec_report.result.equals_multiset(base.result)
                        and row_report.result.ordering == base.result.ordering
                        and vec_report.result.ordering == base.result.ordering,
                        stats_signature(row_report.stats)
                        == stats_signature(vec_report.stats),
                        row_report.result.cardinality,
                        row_report.stats.spill_count,
                        vec_report.stats.spill_count,
                    )
                )

    for plan_case in PLAN_CASES:
        db = plan_case.build(quick)
        for config in PLAN_CONFIGS:
            base_result, __ = execute(
                db, plan_case.plan(), replace(config, engine="row")
            )
            for rewrite_set in sets:
                row_result, row_stats = execute(
                    db,
                    plan_case.plan(),
                    replace(config, engine="row", rewrites=rewrite_set),
                )
                vec_result, vec_stats = execute(
                    db,
                    plan_case.plan(),
                    replace(config, engine="vector", rewrites=rewrite_set),
                )
                results.append(
                    CaseResult(
                        plan_case.name,
                        _config_label(config) + "+rw:" + ",".join(rewrite_set),
                        row_result.equals_multiset(base_result)
                        and vec_result.equals_multiset(base_result)
                        and row_result.ordering == base_result.ordering
                        and vec_result.ordering == base_result.ordering,
                        stats_signature(row_stats) == stats_signature(vec_stats),
                        row_result.cardinality,
                        row_stats.spill_count,
                        vec_stats.spill_count,
                    )
                )

    return results


# -- fault-injection matrix ---------------------------------------------------


@dataclass
class FaultOutcome:
    """One (case, engine, operator, fault kind) injection outcome.

    ``mode`` is how the fault surfaced: ``"degraded"`` (vector kernel fell
    back to the row engine and the results matched the unfaulted run),
    ``"typed-error"`` (a :class:`~repro.errors.ReproError` carrying the
    operator breadcrumb), or ``"not-fired"`` (matrix bug: the planted
    fault never triggered).  ``ok`` means the outcome honours the
    resilience contract — anything else is a silent divergence.
    """

    case: str
    engine: str
    label: str
    kind: str
    mode: str
    ok: bool
    detail: str = ""


def _operator_labels(stats: ExecutionStats) -> List[str]:
    """Each executed operator's label, de-duplicated to one occurrence per
    (label, occurrence) injection coordinate."""
    return [stats.nodes[i].label for i in stats.order]


def _check_fault(
    case_name: str,
    engine: str,
    label: str,
    occurrence: int,
    kind: str,
    run,
    baseline,
    base_signature,
) -> FaultOutcome:
    """Inject one fault into one execution and classify the outcome."""
    from repro.engine import faults
    from repro.errors import ReproError, operator_path

    spec = faults.FaultSpec(
        kind, engine=engine, label=label, occurrence=occurrence
    )
    with faults.inject(spec) as injector:
        try:
            result, stats = run()
        except ReproError as error:
            path = operator_path(error)
            ok = bool(injector.fired) and any(label in frame for frame in path)
            return FaultOutcome(
                case_name, engine, label, kind, "typed-error", ok, str(error)
            )
        except Exception as error:  # bare escape: contract violation
            return FaultOutcome(
                case_name, engine, label, kind, "bare-error", False, repr(error)
            )
    if not injector.fired:
        return FaultOutcome(
            case_name, engine, label, kind, "not-fired", False,
            "planted fault never triggered",
        )
    # The execution completed despite the fault: only legal for a degraded
    # vector kernel (or a shard lost mid-exchange, which degrades the
    # Exchange to single-site execution), and only if the fallback
    # reproduced the unfaulted run.  The exchange case relaxes the stats
    # comparison — degrading away the wire legitimately changes which
    # operators execute — but never the result.
    if engine == "exchange":
        ok = (
            kind == "kernel"
            and stats.degradations >= 1
            and result.equals_multiset(baseline)
            and result.ordering == baseline.ordering
        )
    else:
        ok = (
            engine == "vector"
            and kind == "kernel"
            and stats.degradations >= 1
            and result.equals_multiset(baseline)
            and result.ordering == baseline.ordering
            and stats_signature(stats) == base_signature
        )
    return FaultOutcome(
        case_name, engine, label, kind,
        "degraded" if ok else "silent-divergence", ok,
        "" if ok else "completed without matching the unfaulted run",
    )


def run_fault_matrix(
    quick: bool = True,
    kinds: Sequence[str] = ("kernel",),
    overrides: Optional[dict] = None,
    engines: Sequence[str] = ("row", "vector"),
) -> List[FaultOutcome]:
    """Inject each fault kind at every operator of every case, both engines.

    For every workload case the unfaulted run enumerates the executed
    operators; each then gets one injected fault per kind and engine.  The
    contract: a vector kernel fault degrades to the row engine with results
    identical to the unfaulted run; every other fault (row kernel faults,
    allocation failures, timeouts) surfaces as a typed error whose
    breadcrumb names the faulted operator.  Zero silent divergences.

    ``overrides`` merges extra :class:`ExecutorConfig` fields into every
    run — e.g. ``{"shards": 2}`` replays the matrix with sharded
    execution, asserting faults still degrade (or surface typed)
    identically when operators run behind an Exchange.

    ``engines`` may include the pseudo-engine ``"exchange"`` (meaningful
    only with sharded ``overrides``): its injection point fires per shard
    delivery inside Exchange operators, and a kernel fault there must
    degrade the whole Exchange to single-site execution with the result
    unchanged.  Exchange injections only target Exchange operator labels;
    the execution itself runs on the row engine.
    """
    outcomes: List[FaultOutcome] = []
    extra = overrides or {}

    def sweep(case_name: str, run) -> None:
        baseline, base_stats = run()
        base_signature = stats_signature(base_stats)
        seen: dict = {}
        for label in _operator_labels(base_stats):
            occurrence = seen.get(label, 0)
            seen[label] = occurrence + 1
            for kind in kinds:
                for engine in engines:
                    if engine == "exchange" and "Exchange[" not in label:
                        continue
                    if engine == "vector" and "Exchange[" in label:
                        # The Exchange runner is engine-agnostic and has no
                        # vector kernel; its faults belong to the "exchange"
                        # pseudo-engine above.
                        continue
                    run_engine = "row" if engine == "exchange" else engine
                    outcomes.append(
                        _check_fault(
                            case_name, engine, label, occurrence, kind,
                            lambda engine=run_engine: run(engine),
                            baseline, base_signature,
                        )
                    )

    for sql_case in SQL_CASES:
        db = sql_case.build(quick)

        def run_sql(engine: str = "row", db=db, sql=sql_case.sql):
            session = Session(
                db, executor_config=ExecutorConfig(engine=engine, **extra)
            )
            report = session.report(sql)
            return report.result, report.stats

        sweep(sql_case.name, run_sql)

    for plan_case in PLAN_CASES:
        db = plan_case.build(quick)

        def run_plan(engine: str = "row", db=db, plan=plan_case.plan):
            return execute(db, plan(), ExecutorConfig(engine=engine, **extra))

        sweep(plan_case.name, run_plan)

    return outcomes


def fault_failures(outcomes: Sequence[FaultOutcome]) -> List[FaultOutcome]:
    return [o for o in outcomes if not o.ok]


def render_fault_outcomes(outcomes: Sequence[FaultOutcome]) -> str:
    lines = []
    for o in fault_failures(outcomes):
        lines.append(
            f"FAULT-LEAK {o.case} [{o.engine}] {o.label} ({o.kind}): "
            f"{o.mode} {o.detail}"
        )
    degraded = sum(1 for o in outcomes if o.mode == "degraded")
    typed = sum(1 for o in outcomes if o.mode == "typed-error")
    lines.append(
        f"{len(outcomes)} injections: {degraded} degraded, {typed} typed "
        f"errors, {len(fault_failures(outcomes))} contract violation(s)"
    )
    return "\n".join(lines)


def render_results(results: Sequence[CaseResult]) -> str:
    lines = []
    for r in results:
        mark = "ok " if r.ok else "DIVERGED"
        lines.append(
            f"{mark:<8} {r.case:<38} [{r.config}] rows={r.cardinality}"
            + ("" if r.results_match else " results!=")
            + ("" if r.stats_match else " stats!=")
        )
    bad = failures(results)
    lines.append(
        f"{len(results)} comparisons, {len(bad)} divergence(s)"
        if bad
        else f"{len(results)} comparisons, all equivalent"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="row-vs-vector differential equivalence harness"
    )
    parser.add_argument(
        "--full", action="store_true", help="run at full (slower) data sizes"
    )
    options = parser.parse_args(argv)
    results = run_differential(quick=not options.full)
    print(render_results(results))
    return 1 if failures(results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
