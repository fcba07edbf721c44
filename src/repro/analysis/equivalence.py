"""Independent plan-equivalence checker for certified rewrites.

:func:`verify_rewrite` audits one :class:`~repro.optimizer.rewrites.RuleCertificate`
without trusting the code that produced it.  The checker shares only the
*analysis* libraries with the rewriter (schema inference, 3VL
null-rejection, the cost model) — never its decision logic:

* the **pushdown** check re-decomposes the rewritten site structurally and
  balances the conjunct multisets by *canonical name* (each reference
  replaced by its schema-resolved target), proving the pushed predicate
  reads only grouping keys and survives the move unchanged; recorded 3VL
  verdicts are re-derived from scratch and compared verbatim;
* the **reordering** check re-collects both join regions with its own
  region grammar and compares leaf and conjunct multisets, re-prices both
  regions with a fresh estimator/cost model, and re-establishes the
  order-insulation of the rewritten site from the plan context;
* the **pruning** check strips all non-distinct projections from both
  plans and requires the residues to be *equal* (the skeleton is
  untouched), then walks both trees in lockstep resolving every surviving
  expression against both schemas — a live column pruned away surfaces as
  a resolution divergence.

Every rule also re-infers both root schemas (exact ``ColumnInfo`` match —
names, order, types, nullability) and re-runs the static verifier to prove
the rewrite introduced no new errors.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.algebra.ops import (
    Apply,
    Exchange,
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
from repro.analysis.diagnostics import Diagnostic, DiagnosticSink, Severity
from repro.analysis.schema import (
    AmbiguousColumn,
    PlanSchema,
    infer_schema,
    infer_schemas,
)
from repro.catalog.catalog import Database
from repro.expressions.ast import (
    ColumnRef,
    Expression,
    column_refs,
    contains_aggregate,
    transform_expression,
)
from repro.expressions.normalize import split_conjuncts


def verify_rewrite(database: Database, certificate) -> List[Diagnostic]:
    """Re-verify one rewrite certificate; empty list means it checks out."""
    sink = DiagnosticSink()
    rule = certificate.rule
    before = certificate.before
    after = certificate.after
    path = certificate.path

    if not _check_schema_preserved(database, before, after, path, sink):
        return sink.diagnostics
    _check_no_new_findings(database, before, after, path, sink)

    if rule == "predicate_pushdown":
        _check_pushdown(database, certificate, sink)
    elif rule == "join_reordering":
        _check_reorder(database, certificate, sink)
    elif rule == "projection_pruning":
        _check_pruning(database, certificate, sink)
    elif rule == "shard_exchange":
        _check_shard_exchange(database, certificate, sink)
    else:
        sink.report(
            "R700",
            path,
            f"unknown rewrite rule {rule!r} in certificate",
            hint="valid rules: predicate_pushdown, join_reordering, "
            "projection_pruning, shard_exchange",
        )
    return sink.diagnostics


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _check_schema_preserved(
    database: Database,
    before: PlanNode,
    after: PlanNode,
    path: str,
    sink: DiagnosticSink,
) -> bool:
    try:
        schema_before = infer_schema(before, database)
        schema_after = infer_schema(after, database)
    except Exception as error:
        sink.report(
            "R700",
            path,
            f"could not infer root schemas to compare: {error}",
        )
        return False
    if schema_before.columns != schema_after.columns:
        sink.report(
            "R700",
            path,
            "root output schema changed: "
            f"[{', '.join(schema_before.names())}] → "
            f"[{', '.join(schema_after.names())}]",
            hint="a semantics-preserving rewrite must keep column names, "
            "order, types, and nullability",
        )
        return False
    return True


def _check_no_new_findings(
    database: Database,
    before: PlanNode,
    after: PlanNode,
    path: str,
    sink: DiagnosticSink,
) -> None:
    from repro.analysis.verifier import analyze_plan

    try:
        old = analyze_plan(before, database, min_severity=Severity.ERROR)
        new = analyze_plan(after, database, min_severity=Severity.ERROR)
    except Exception as error:
        sink.report("R700", path, f"static verification failed: {error}")
        return
    known = {(d.rule_id, d.message) for d in old}
    for diagnostic in new:
        if (diagnostic.rule_id, diagnostic.message) not in known:
            sink.report(
                "R700",
                diagnostic.path or path,
                "rewrite introduced a new verifier error: "
                f"{diagnostic.rule_id}: {diagnostic.message}",
            )


def _divergence(
    before: PlanNode,
    after: PlanNode,
    prefix: str = "$",
    stop=None,
) -> Optional[Tuple[str, PlanNode, PlanNode]]:
    """Locate the unique divergence point between two plans, if isolatable.

    Descends while exactly one child pair differs and the node headers
    (everything but the children) agree; returns ``(path, b, a)`` at the
    first node where that stops holding, or ``None`` for equal plans.
    ``stop(before)`` may force the walk to treat a differing node as the
    divergence unit without descending (used to keep join regions whole).
    """
    from repro.algebra.ops import _with_children

    if before == after:
        return None
    if stop is not None and stop(before):
        return prefix, before, after
    children_before = before.children()
    children_after = after.children()
    headers_match = (
        type(before) is type(after)
        and len(children_before) == len(children_after)
        and _with_children(before, children_after) == after
    )
    if headers_match:
        differing = [
            index
            for index, (one, two) in enumerate(zip(children_before, children_after))
            if one != two
        ]
        if len(differing) == 1:
            index = differing[0]
            return _divergence(
                children_before[index],
                children_after[index],
                f"{prefix}.{index}",
                stop,
            )
    return prefix, before, after


# ---------------------------------------------------------------------------
# predicate pushdown
# ---------------------------------------------------------------------------


def _canonicalize(
    expression: Expression, schema: PlanSchema
) -> Optional[Expression]:
    """Replace every reference with its schema-resolved target name."""
    mapping: Dict[ColumnRef, ColumnRef] = {}
    for ref in column_refs(expression):
        try:
            info = schema.resolve(ref.qualified)
        except AmbiguousColumn:
            return None
        if info is None:
            return None
        if "." in info.name:
            table, column = info.name.rsplit(".", 1)
            mapping[ref] = ColumnRef(table, column)
        else:
            mapping[ref] = ColumnRef("", info.name)

    def visit(node: Expression) -> Optional[Expression]:
        if isinstance(node, ColumnRef):
            return mapping.get(node)
        return None

    return transform_expression(expression, visit)


def _check_pushdown(database: Database, certificate, sink: DiagnosticSink) -> None:
    path = certificate.path
    located = _divergence(certificate.before, certificate.after)
    if located is None:
        sink.report("R701", path, "certificate rewrites nothing: plans are equal")
        return
    where, site_before, site_after = located

    # -- decompose the claimed shape -------------------------------------
    def peel(node: PlanNode):
        chain = []
        while isinstance(node, Project) and not node.distinct:
            chain.append((node.columns, node.distinct))
            node = node.child
        return chain, node

    if not isinstance(site_before, Select):
        sink.report(
            "R701",
            where,
            "rewritten site is not a filter above F[AA] G[GA]",
        )
        return
    chain_before, group_before = peel(site_before.child)
    if not isinstance(group_before, GroupApply):
        sink.report(
            "R701",
            where,
            "rewritten site's filter is not above F[AA] G[GA] (modulo "
            "non-distinct projections)",
        )
        return
    residual_node = site_after
    residual: Tuple[Expression, ...] = ()
    if isinstance(site_after, Select):
        residual = split_conjuncts(site_after.condition)
        residual_node = site_after.child
    chain_after, group_node = peel(residual_node)
    if chain_after != chain_before:
        sink.report(
            "R701",
            where,
            "pushdown altered the projection chain between the filter and "
            "the group-by",
        )
        return
    if not isinstance(group_node, GroupApply):
        sink.report(
            "R701", where, "rewritten site does not keep the group-by on top"
        )
        return
    group_after = group_node
    if (
        group_after.grouping_columns != group_before.grouping_columns
        or group_after.aggregates != group_before.aggregates
    ):
        sink.report(
            "R701", where, "pushdown altered the grouping keys or aggregates"
        )
        return
    if not isinstance(group_after.child, Select):
        sink.report(
            "R701", where, "no pushed filter found below the group-by"
        )
        return
    pushed_node = group_after.child
    if pushed_node.child != group_before.child:
        sink.report(
            "R701",
            where,
            "pushdown changed the subtree below the pushed filter",
        )
        return
    pushed = split_conjuncts(pushed_node.condition)

    # -- conjunct accounting by canonical name ---------------------------
    try:
        out_schema = infer_schema(site_before.child, database)
        child_schema = infer_schema(group_before.child, database)
    except Exception as error:
        sink.report("R701", where, f"cannot infer schemas at the site: {error}")
        return

    originals = split_conjuncts(site_before.condition)
    canon_original: List[Expression] = []
    for conjunct in originals:
        canonical = _canonicalize(conjunct, out_schema)
        if canonical is None:
            sink.report(
                "R701",
                where,
                f"original conjunct {conjunct} does not resolve against the "
                "group output schema",
            )
            return
        canon_original.append(canonical)
    canon_pushed: List[Expression] = []
    for conjunct in pushed:
        canonical = _canonicalize(conjunct, child_schema)
        if canonical is None:
            sink.report(
                "R701",
                where,
                f"pushed conjunct {conjunct} does not resolve against the "
                "group input schema",
            )
            return
        canon_pushed.append(canonical)
    canon_residual: List[Expression] = []
    for conjunct in residual:
        canonical = _canonicalize(conjunct, out_schema)
        if canonical is None:
            sink.report(
                "R701",
                where,
                f"residual conjunct {conjunct} does not resolve against the "
                "group output schema",
            )
            return
        canon_residual.append(canonical)
    if Counter(canon_original) != Counter(canon_pushed) + Counter(canon_residual):
        sink.report(
            "R701",
            where,
            "conjunct accounting does not balance: pushed + residual ≠ "
            "original (compared by canonical column names)",
        )
        return

    # -- key-only and aggregate guards on every pushed conjunct ----------
    canonical_keys = set()
    for key in group_before.grouping_columns:
        try:
            info = child_schema.resolve(key)
        except AmbiguousColumn:
            info = None
        canonical_keys.add(info.name if info is not None else key)
    grouping_set = set(group_before.grouping_columns)
    for conjunct, canonical in zip(pushed, canon_pushed):
        if contains_aggregate(conjunct):
            sink.report(
                "R701",
                where,
                f"pushed conjunct {conjunct} contains an aggregate",
                hint="the count guard: aggregates must stay above F[AA]",
            )
            return
        names = {ref.qualified for ref in column_refs(canonical)}
        if not names <= canonical_keys:
            sink.report(
                "R701",
                where,
                f"pushed conjunct {conjunct} references non-grouping columns "
                f"[{', '.join(sorted(names - canonical_keys))}]",
                hint="the alias guard: only grouping keys may cross F[AA] G[GA]",
            )
            return
        # The same conjunct must also be a key-only predicate when read
        # against the group *output* — i.e. it must correspond to one of
        # the original conjuncts whose references land on grouping keys.
        matching = [
            original
            for original, canon in zip(originals, canon_original)
            if canon == canonical
        ]
        if not matching:
            continue  # accounted for above by the multiset balance
        for original in matching:
            for ref in column_refs(original):
                try:
                    info = out_schema.resolve(ref.qualified)
                except AmbiguousColumn:
                    info = None
                if info is None or info.name not in grouping_set:
                    sink.report(
                        "R701",
                        where,
                        f"original conjunct {original} reads {ref.qualified}, "
                        "which is not a grouping key of the group output",
                    )
                    return

    # -- 3VL premises must re-derive exactly -----------------------------
    from repro.optimizer.rewrites import null_rejection_premises

    recorded = Counter(certificate.premise_values("null-rejection"))
    rederived = Counter(
        value
        for _, value in null_rejection_premises(
            list(pushed), sorted(canonical_keys)
        )
    )
    if recorded != rederived:
        missing = rederived - recorded
        forged = recorded - rederived
        details = []
        if missing:
            details.append("missing: " + "; ".join(sorted(missing)))
        if forged:
            details.append("not derivable: " + "; ".join(sorted(forged)))
        sink.report(
            "R701",
            where,
            "recorded 3VL null-rejection premises do not re-derive ("
            + " | ".join(details)
            + ")",
        )


# ---------------------------------------------------------------------------
# join reordering
# ---------------------------------------------------------------------------


def _check_reorder(database: Database, certificate, sink: DiagnosticSink) -> None:
    from repro.optimizer.rewrites import collect_join_region

    path = certificate.path
    located = _divergence(
        certificate.before,
        certificate.after,
        stop=lambda node: isinstance(node, (Join, Product)),
    )
    if located is None:
        sink.report("R703", path, "certificate rewrites nothing: plans are equal")
        return
    where, region_before, region_after = located

    # -- order insulation: the divergent region must sit below a π/F G ---
    if not _is_insulated(certificate.after, region_after):
        sink.report(
            "R703",
            where,
            "reordered region's output order is observable at the root "
            "(no π or F[AA] G[GA] ancestor insulates it)",
            hint="reordering a join changes row order; a consumer that "
            "exposes order must not sit directly above",
        )
        return

    leaves_before, conjuncts_before = collect_join_region(region_before)
    leaves_after, conjuncts_after = collect_join_region(region_after)
    if Counter(leaves_before) != Counter(leaves_after):
        sink.report(
            "R703",
            where,
            "leaf multiset changed: the reordered region does not join the "
            "same inputs",
        )
        return
    if Counter(conjuncts_before) != Counter(conjuncts_after):
        sink.report(
            "R703",
            where,
            "conjunct multiset changed: a predicate was dropped, duplicated, "
            "or invented during reordering",
        )
        return

    # -- recorded costs must re-derive with a fresh estimator ------------
    recorded_before = certificate.premise_values("cost-before")
    recorded_after = certificate.premise_values("cost-after")
    if len(recorded_before) != 1 or len(recorded_after) != 1:
        sink.report(
            "R703", where, "certificate must record exactly one cost pair"
        )
        return
    algorithms = certificate.premise_values("join-algorithm")
    algorithm = algorithms[0] if algorithms else "hash"
    try:
        from repro.optimizer.cardinality import CardinalityEstimator
        from repro.optimizer.cost import CostModel

        estimator = CardinalityEstimator(database)
        model = CostModel(estimator, join_algorithm=algorithm)
        cost_before = model.cost(region_before).total
        cost_after = model.cost(region_after).total
    except Exception as error:
        sink.report("R703", where, f"cannot re-price the regions: {error}")
        return
    tolerance = 1e-6 * max(1.0, cost_before, cost_after)
    if abs(cost_before - float(recorded_before[0])) > tolerance or abs(
        cost_after - float(recorded_after[0])
    ) > tolerance:
        sink.report(
            "R703",
            where,
            "recorded costs do not re-derive: certificate says "
            f"{recorded_before[0]} → {recorded_after[0]}, checker derives "
            f"{cost_before:.6f} → {cost_after:.6f}",
        )
        return
    if not cost_after < cost_before:
        sink.report(
            "R703",
            where,
            f"reordering is not an improvement: {cost_before:.6f} → "
            f"{cost_after:.6f}",
        )


def _is_insulated(root: PlanNode, target: PlanNode) -> bool:
    """True when every path from ``root`` to ``target`` (by identity or
    equality) crosses an order-insulating operator (π, F G, F)."""

    def search(node: PlanNode, insulated: bool) -> Optional[bool]:
        if node is target or node == target:
            return insulated
        child_insulated = insulated or isinstance(
            node, (Project, GroupApply, Apply)
        )
        for child in node.children():
            verdict = search(child, child_insulated)
            if verdict is not None:
                return verdict
        return None

    return bool(search(root, False))


# ---------------------------------------------------------------------------
# projection pruning
# ---------------------------------------------------------------------------


def _strip_projections(plan: PlanNode) -> PlanNode:
    """Remove every non-distinct π, the only operator pruning may touch."""
    from repro.algebra.ops import _with_children

    if isinstance(plan, Project) and not plan.distinct:
        return _strip_projections(plan.child)
    children = plan.children()
    if not children:
        return plan
    rebuilt = tuple(_strip_projections(child) for child in children)
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan
    return _with_children(plan, rebuilt)


def _skip_projections(plan: PlanNode) -> PlanNode:
    node = plan
    while isinstance(node, Project) and not node.distinct:
        node = node.child
    return node


def _check_pruning(database: Database, certificate, sink: DiagnosticSink) -> None:
    path = certificate.path
    before = certificate.before
    after = certificate.after

    if _strip_projections(before) != _strip_projections(after):
        sink.report(
            "R702",
            path,
            "pruning changed the plan skeleton: stripping non-distinct "
            "projections from both plans does not yield the same tree",
            hint="projection pruning may only insert, narrow, or remove "
            "non-distinct π operators",
        )
        return

    try:
        schemas_before = infer_schemas(before, database)
        schemas_after = infer_schemas(after, database)
    except Exception as error:
        sink.report("R702", path, f"cannot infer schemas to compare: {error}")
        return

    def resolve(name: str, schema: PlanSchema) -> Optional[str]:
        try:
            info = schema.resolve(name)
        except AmbiguousColumn:
            return "<ambiguous>"
        return info.name if info is not None else None

    def check_names(
        names,
        schema_b: PlanSchema,
        schema_a: PlanSchema,
        prefix: str,
        what: str,
    ) -> bool:
        for name in names:
            target_b = resolve(name, schema_b)
            target_a = resolve(name, schema_a)
            if target_b != target_a:
                sink.report(
                    "R702",
                    prefix,
                    f"{what} {name} resolves to {target_b!r} before pruning "
                    f"but {target_a!r} after",
                    hint="a live column was dropped or shadowed by an "
                    "inserted projection",
                )
                return False
        return True

    def walk(node_b: PlanNode, node_a: PlanNode, prefix: str) -> bool:
        node_b = _skip_projections(node_b)
        node_a = _skip_projections(node_a)
        if type(node_b) is not type(node_a):
            sink.report(
                "R702",
                prefix,
                f"skeleton mismatch during lockstep walk: "
                f"{type(node_b).__name__} vs {type(node_a).__name__}",
            )
            return False
        refs_b: List[str] = []
        schema_b: Optional[PlanSchema] = None
        schema_a: Optional[PlanSchema] = None
        what = "column"
        if isinstance(node_b, Select):
            refs_b = [ref.qualified for ref in column_refs(node_b.condition)]
            schema_b = schemas_before[id(node_b.child)]
            schema_a = schemas_after[id(node_a.child)]
            what = "filter column"
        elif isinstance(node_b, Join) and node_b.condition is not None:
            refs_b = [ref.qualified for ref in column_refs(node_b.condition)]
            schema_b = schemas_before[id(node_b)]
            schema_a = schemas_after[id(node_a)]
            what = "join column"
        elif isinstance(node_b, GroupApply):
            refs_b = list(node_b.grouping_columns)
            for spec in node_b.aggregates:
                refs_b.extend(
                    ref.qualified for ref in column_refs(spec.expression)
                )
            schema_b = schemas_before[id(node_b.child)]
            schema_a = schemas_after[id(node_a.child)]
            what = "grouping/aggregate column"
        elif isinstance(node_b, Group):
            refs_b = list(node_b.grouping_columns)
            schema_b = schemas_before[id(node_b.child)]
            schema_a = schemas_after[id(node_a.child)]
            what = "grouping column"
        elif isinstance(node_b, Sort):
            refs_b = list(node_b.columns)
            schema_b = schemas_before[id(node_b.child)]
            schema_a = schemas_after[id(node_a.child)]
            what = "sort column"
        elif isinstance(node_b, Project) and node_b.distinct:
            refs_b = list(node_b.columns)
            schema_b = schemas_before[id(node_b.child)]
            schema_a = schemas_after[id(node_a.child)]
            what = "distinct column"
        if refs_b and schema_b is not None and schema_a is not None:
            if not check_names(refs_b, schema_b, schema_a, prefix, what):
                return False
        children_b = node_b.children()
        children_a = node_a.children()
        if len(children_b) != len(children_a):
            sink.report(
                "R702", prefix, "lockstep walk found differing child counts"
            )
            return False
        for index, (child_b, child_a) in enumerate(
            zip(children_b, children_a)
        ):
            if not walk(child_b, child_a, f"{prefix}.{index}"):
                return False
        return True

    walk(before, after, "$")


# ---------------------------------------------------------------------------
# shard exchange (R704)
# ---------------------------------------------------------------------------


def exact_decomposition_reason(
    group: GroupApply, database: Database
) -> Optional[str]:
    """Why a two-phase split of ``group`` would NOT be bit-exact, or None.

    Re-derives (from the plan alone) the proof obligations of the
    partial+merge rewrite: every aggregate must be decomposable, and the
    order-sensitive ones (SUM/AVG) — whose merged fold reassociates
    additions — must run over a column of an exact integer type, so the
    regrouped sums are the very same values the one-phase fold produces.
    The others need no type guard: they merge by the same comparator / by
    exact integer addition.  Both facts come from the aggregate contract.
    """
    from repro.expressions.aggregates import ORDER_SENSITIVE, partials
    from repro.expressions.ast import Aggregate
    from repro.sqltypes.datatypes import IntegerType, SmallIntType

    for spec in group.aggregates:
        expression = spec.expression
        if not isinstance(expression, Aggregate) or partials(expression) is None:
            return "aggregates are not decomposable into mergeable partials"
    try:
        schema = infer_schema(group.child, database)
    except Exception as error:
        return f"cannot infer the group input schema: {error}"
    for spec in group.aggregates:
        expression = spec.expression
        if expression.function not in ORDER_SENSITIVE:
            continue
        argument = expression.argument
        if not isinstance(argument, ColumnRef):
            return (
                f"{spec.name}: {expression.function} over a computed "
                "expression; partial sums may reassociate inexactly"
            )
        try:
            info = schema.resolve(argument.qualified)
        except AmbiguousColumn:
            info = None
        if info is None:
            return f"{spec.name}: argument {argument.qualified} does not resolve"
        if not isinstance(info.datatype, (IntegerType, SmallIntType)):
            return (
                f"{spec.name}: {expression.function}({argument.qualified}) is "
                f"not over an exact integer column ({info.datatype}); "
                "re-associated partial sums would not be bit-identical"
            )
    return None


def _scan_chain_base(plan: PlanNode) -> Optional[Relation]:
    """The single Relation under a Select* chain, or None if not a chain."""
    cursor = plan
    while isinstance(cursor, Select):
        cursor = cursor.child
    return cursor if isinstance(cursor, Relation) else None


def _check_shard_exchange(
    database: Database, certificate, sink: DiagnosticSink
) -> None:
    """R704: shard-union and partial+merge obligations of an Exchange wrap.

    * **shard union** — the subtree below the wire must be a linear
      Relation/Select* region over exactly one base table.  Partitioning
      splits that table into disjoint, exhaustive shards, and Select is
      row-local, so the multiset union of the shard runs equals the
      unpartitioned run — regardless of hash vs range placement.
    * **partial + merge** (``merge=True`` only) — the replaced subtree must
      be a GroupApply over such a region whose aggregates re-derive as
      exactly decomposable (:func:`exact_decomposition_reason`): merging
      per-shard partials reproduces the one-phase aggregate bit for bit.
    * the recorded topology premises (shards/mode/partitioning) must match
      the Exchange node, and the recorded shipped-row estimate must
      re-derive from a fresh estimator.
    """
    path = certificate.path
    located = _divergence(certificate.before, certificate.after)
    if located is None:
        sink.report("R704", path, "certificate rewrites nothing: plans are equal")
        return
    where, site_before, site_after = located

    if not isinstance(site_after, Exchange):
        sink.report(
            "R704", where, "rewritten site is not an Exchange operator"
        )
        return
    if site_after.child != site_before:
        sink.report(
            "R704",
            where,
            "Exchange child differs from the subtree it replaced: the wire "
            "must wrap the original computation unchanged",
        )
        return

    if site_after.merge:
        if not isinstance(site_before, GroupApply):
            sink.report(
                "R704",
                where,
                "Exchange(merge) must replace a GroupApply (the one-phase "
                "aggregate being split)",
            )
            return
        reason = exact_decomposition_reason(site_before, database)
        if reason is not None:
            sink.report(
                "R704",
                where,
                f"partial+merge is not exact: {reason}",
                hint="only decomposable aggregates with integer-typed "
                "SUM/AVG may be pushed below the wire",
            )
            return
        region = site_before.child
    else:
        region = site_before
    if _scan_chain_base(region) is None:
        sink.report(
            "R704",
            where,
            "subtree below the wire is not a Relation/Select* chain over "
            "one base table; the shard union premise does not hold",
        )
        return

    for name, expected in (
        ("shards", str(site_after.shards)),
        ("mode", site_after.mode),
        ("partitioning", site_after.partitioning),
    ):
        recorded = certificate.premise_values(name)
        if tuple(recorded) != (expected,):
            sink.report(
                "R704",
                where,
                f"recorded premise {name}={recorded or '(missing)'} does not "
                f"match the Exchange node ({expected})",
            )
            return

    recorded_rows = certificate.premise_values("estimated-shipped-rows")
    if len(recorded_rows) != 1:
        sink.report(
            "R704", where, "certificate must record one shipped-row estimate"
        )
        return
    try:
        from repro.optimizer.cardinality import CardinalityEstimator
        from repro.optimizer.cost import exchange_mode_factor

        estimator = CardinalityEstimator(database)
        derived = estimator.rows(site_after.child) * exchange_mode_factor(
            site_after.mode, site_after.shards
        )
    except Exception as error:
        sink.report(
            "R704", where, f"cannot re-derive the shipped-row estimate: {error}"
        )
        return
    tolerance = 1e-6 * max(1.0, derived)
    if abs(derived - float(recorded_rows[0])) > tolerance:
        sink.report(
            "R704",
            where,
            "recorded shipped-row estimate does not re-derive: certificate "
            f"says {recorded_rows[0]}, checker derives {derived:.6f}",
        )
