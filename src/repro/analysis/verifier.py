"""The plan verifier: semantic analysis passes over a plan tree.

:func:`analyze_plan` walks a :class:`~repro.algebra.ops.PlanNode` tree
without executing it and returns typed diagnostics from five passes:

1. **Schema/scope resolution** — every column reference in every
   ``Select``/``Project``/``Join``/``Group``/``Apply``/``Sort`` must be
   bound by its child's inferred output schema (rules A001–A004, G102);
2. **Grouped-table discipline** — ``Apply`` only over ``Group`` (G101),
   grouping columns present, and duplicate-sensitive aggregates
   (SUM/COUNT/AVG) flagged when they sit below a join *without* a rewrite
   certificate proving the paper's FD conditions (G103);
3. **3VL/null-safety** — comparisons that conflate ``=`` with the
   null-aware ``=ⁿ`` of Figure 3 (N301, N302);
4. **Type checking** of all expressions (T401–T404);
5. **Certificate audit** — when the plan carries a rewrite certificate,
   it is independently re-validated (C501, C502) via
   :func:`repro.analysis.certificates.audit_certificate`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.algebra.ops import (
    Apply,
    Group,
    GroupApply,
    Join,
    PlanNode,
    Product,
    Select,
    Sort,
)
from repro.analysis.diagnostics import Diagnostic, DiagnosticSink, Severity
from repro.analysis.schema import PlanSchema, _node_path, infer_schemas
from repro.analysis.typecheck import check_expression
from repro.catalog.catalog import Database
from repro.expressions.aggregates import DUPLICATE_SENSITIVE
from repro.expressions.ast import Aggregate, Expression, walk as walk_expression


def _has_duplicate_sensitive(expression: Expression) -> bool:
    return any(
        isinstance(node, Aggregate)
        and node.function in DUPLICATE_SENSITIVE
        and not node.distinct
        for node in walk_expression(expression)
    )


def analyze_plan(
    plan: PlanNode,
    database: Database,
    certificate: "object | None" = None,
    min_severity: Severity = Severity.WARNING,
) -> List[Diagnostic]:
    """Statically verify ``plan`` against ``database``'s catalog.

    ``certificate`` is the :class:`~repro.analysis.certificates.RewriteCertificate`
    covering the plan, if any; when omitted, one attached to the plan root
    by :func:`repro.core.transform.transform` is picked up automatically.
    A (valid) certificate licenses aggregation below a join, so rule G103
    is suppressed for certified plans.

    Returns diagnostics of at least ``min_severity`` (default WARNING —
    pass ``Severity.INFO`` for the pedantic notes as well).
    """
    from repro.analysis.certificates import get_certificate

    if certificate is None:
        certificate = get_certificate(plan)

    sink = DiagnosticSink()
    schemas = infer_schemas(plan, database, sink)
    _check_expressions(plan, schemas, sink, "$")
    _check_pushdown(plan, sink, certificate, "$")
    return list(sink.at_least(min_severity))


def analyze_query(
    database: Database,
    query: "object",
    min_severity: Severity = Severity.WARNING,
) -> List[Diagnostic]:
    """Analyze both access plans (E1, and E2 when valid) of one query.

    ``query`` is a :class:`~repro.core.query_class.GroupByJoinQuery`.  The
    eager plan is only built — and analyzed — when TestFD proves the
    rewrite valid, in which case its certificate is issued and audited as
    part of the analysis.
    """
    from repro.analysis.certificates import audit_certificate, issue_certificate
    from repro.core.transform import (
        build_eager_plan,
        build_standard_plan,
        check_transformable,
    )

    diagnostics: List[Diagnostic] = []
    standard = build_standard_plan(query)
    diagnostics.extend(analyze_plan(standard, database, min_severity=min_severity))
    decision = check_transformable(database, query)
    if decision.valid:
        eager = build_eager_plan(query)
        certificate = issue_certificate(database, query, decision.testfd)
        diagnostics.extend(
            analyze_plan(
                eager, database, certificate=certificate, min_severity=min_severity
            )
        )
        audit = audit_certificate(database, query, certificate)
        diagnostics.extend(d for d in audit if d.severity >= min_severity)
    return diagnostics


# -- pass: expression scope / types / null-safety ---------------------------


def _check_expressions(
    plan: PlanNode,
    schemas: dict,
    sink: DiagnosticSink,
    prefix: str,
) -> None:
    path = _node_path(prefix, plan)
    if isinstance(plan, Select) and plan.condition is not None:
        child_schema = schemas[id(plan.child)]
        check_expression(plan.condition, child_schema, sink, path)
    elif isinstance(plan, Join) and plan.condition is not None:
        joined = PlanSchema(
            schemas[id(plan.left)].columns + schemas[id(plan.right)].columns
        )
        check_expression(plan.condition, joined, sink, path)
    elif isinstance(plan, (Apply, GroupApply)):
        input_schema = schemas[id(plan.child)]
        for spec in plan.aggregates:
            check_expression(spec.expression, input_schema, sink, path)
    elif isinstance(plan, Sort):
        child_schema = schemas[id(plan.child)]
        for column in plan.columns:
            _resolve_or_report(column, child_schema, sink, path)
    for i, child in enumerate(plan.children()):
        _check_expressions(child, schemas, sink, f"{prefix}.{i}")


def _resolve_or_report(
    name: str, schema: PlanSchema, sink: DiagnosticSink, path: str
) -> None:
    from repro.analysis.schema import AmbiguousColumn

    try:
        info = schema.resolve(name)
    except AmbiguousColumn:
        sink.report(
            "A004", path,
            f"column {name!r} is ambiguous in [{', '.join(schema.names())}]",
        )
        return
    if info is None:
        sink.report(
            "A001",
            path,
            f"column {name!r} is not produced by the input "
            f"(columns: {', '.join(schema.names()) or '(none)'})",
        )


# -- pass: duplicate-sensitive aggregate pushdown ---------------------------


def _check_pushdown(
    plan: PlanNode,
    sink: DiagnosticSink,
    certificate: "object | None",
    prefix: str,
    below_join: bool = False,
) -> None:
    if isinstance(plan, (Apply, GroupApply)) and below_join:
        sensitive = [
            spec
            for spec in plan.aggregates
            if _has_duplicate_sensitive(spec.expression)
        ]
        if sensitive and certificate is None:
            path = _node_path(prefix, plan)
            names = ", ".join(spec.name for spec in sensitive)
            sink.report(
                "G103",
                path,
                f"duplicate-sensitive aggregate(s) {names} computed below a "
                "join without a rewrite certificate",
                hint="obtain the plan via transform() so TestFD issues an "
                "FD1/FD2 certificate, or multiply by the join fan-out count",
            )
    below = below_join or isinstance(plan, (Join, Product))
    for i, child in enumerate(plan.children()):
        _check_pushdown(child, sink, certificate, f"{prefix}.{i}", below)
