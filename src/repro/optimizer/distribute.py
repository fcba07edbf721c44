"""Distribution planning: where to put the Exchange, and what to ship.

Section 7's argument, as a planning decision: on a partitioned table, a
group-by that sits directly on the scan side can run *below* the wire, so
each shard ships one row per (local) group instead of its whole partition.
:func:`distribute_plan` makes that choice with the communication-aware
cost model — it prices the **two-phase** plan (partial aggregation below
the Exchange, global merge above it) against the **ship-all** plan (the
bare scan region crosses the wire, the aggregate runs at the coordinator)
and keeps whichever the :class:`~repro.optimizer.cost.NetworkWeights`
term says is cheaper.  Eager plans are exactly where two-phase shines:
their below-join GroupApply already sits on a single-table region, so the
planner's eager/standard choice composes with the shard choice the way
the paper's distributed remark predicts.

Every wrap emits a ``shard_exchange`` :class:`RuleCertificate` (rule R704)
and self-audits through the independent equivalence checker before the
plan is allowed to run: the checker re-derives the shard-union premise
(linear single-table region below the wire) and, for two-phase, the
exact-decomposability of the aggregates (integer SUM/AVG only — float
partial sums would reassociate).  A failed audit raises rather than
executing an unproven plan.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.algebra.ops import (
    Exchange,
    GroupApply,
    PlanNode,
    Relation,
    Select,
    replace_subtree,
)
from repro.catalog.catalog import Database
from repro.errors import TransformationError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel, NetworkWeights, exchange_mode_factor
from repro.storage.partition import PartitionSpec

#: Attribute carrying the shard_exchange certificate on a distributed root.
_CERT_ATTR = "_distribution_certificate"


def distribution_certificate(plan: PlanNode):
    """The R704 certificate attached to a distributed plan root, if any."""
    return getattr(plan, _CERT_ATTR, None)


def _chain_relation(plan: PlanNode) -> Optional[Relation]:
    cursor = plan
    while isinstance(cursor, Select):
        cursor = cursor.child
    return cursor if isinstance(cursor, Relation) else None


class _Site:
    """One distributable region: a scan chain, maybe under a GroupApply."""

    __slots__ = ("group", "chain", "relation")

    def __init__(
        self, group: Optional[GroupApply], chain: PlanNode, relation: Relation
    ):
        self.group = group
        self.chain = chain
        self.relation = relation


def _find_sites(plan: PlanNode) -> List[_Site]:
    """All maximal Relation/Select* regions, tagged with a direct GroupApply
    parent when one exists (the two-phase opportunity)."""
    sites: List[_Site] = []

    def recurse(node: PlanNode, parent: Optional[PlanNode]) -> None:
        if isinstance(node, GroupApply):
            relation = _chain_relation(node.child)
            if relation is not None:
                sites.append(_Site(node, node.child, relation))
                return
        if not isinstance(parent, (Select, GroupApply)):
            relation = _chain_relation(node)
            if relation is not None:
                sites.append(_Site(None, node, relation))
                return
        for child in node.children():
            recurse(child, node)

    recurse(plan, None)
    return sites


def _exchange_keys(
    relation: Relation, method: str, database: Database
) -> Tuple[str, ...]:
    """Partition on the catalog-declared column when it fits the method."""
    declared = database.partitioning.get(relation.table_name)
    if isinstance(declared, PartitionSpec) and declared.column is not None:
        if declared.method == method:
            return (f"{relation.correlation}.{declared.column}",)
    return ()


def distribute_plan(plan: PlanNode, database: Database, config) -> PlanNode:
    """Wrap the best scan region of ``plan`` in an Exchange, cost-based.

    Picks the region over the largest estimated base table (preferring
    tables with a declared partitioning), builds the two-phase candidate
    when the region's GroupApply decomposes exactly, prices both candidates
    with the network-aware cost model, certifies the winner (R704), and
    returns the rewritten plan.  Returns ``plan`` unchanged when nothing is
    distributable.
    """
    sites = _find_sites(plan)
    if not sites:
        return plan
    estimator = CardinalityEstimator(database)
    declared = [
        site for site in sites
        if database.partitioning.get(site.relation.table_name) is not None
    ]
    pool = declared or sites
    site = max(pool, key=lambda s: estimator.rows(s.relation))

    mode = config.exchange if config.exchange in (
        "gather", "shuffle", "broadcast"
    ) else "gather"
    method = config.partitioning
    shards = config.shards
    keys = _exchange_keys(site.relation, method, database)

    # On the socket transport the communication term gains a per-site
    # latency charge from the pool's measured heartbeat RTTs (one RTT is
    # one tuple_cpu-second's worth of CPU units, scaled coarsely; 0 when
    # no pool has run yet or the wire is in-memory).  The charge is
    # ``shards x latency`` for *every* Exchange candidate, so it shifts
    # distributed totals against single-site without flipping the
    # ship-all vs two-phase choice.
    latency_weight = 0.0
    if getattr(config, "transport", "memory") == "socket":
        from repro.engine.shardrpc import active_pool

        live = active_pool()
        if live is not None:
            latency_weight = live.measured_latency() * 1_000_000.0

    model = CostModel(
        estimator,
        join_algorithm=(
            "hash" if config.join_algorithm == "auto" else config.join_algorithm
        ),
        engine=config.engine,
        network=NetworkWeights(per_site_latency=latency_weight),
    )

    candidates: List[Tuple[float, PlanNode, PlanNode, Exchange, str]] = []
    ship_all = Exchange(site.chain, mode, shards, method, keys, False)
    ship_all_plan = replace_subtree(plan, site.chain, ship_all)
    candidates.append(
        (model.cost(ship_all_plan).total, ship_all_plan, site.chain, ship_all,
         "ship-all")
    )
    if site.group is not None:
        from repro.analysis.equivalence import exact_decomposition_reason

        if exact_decomposition_reason(site.group, database) is None:
            two_phase = Exchange(site.group, mode, shards, method, keys, True)
            two_phase_plan = replace_subtree(plan, site.group, two_phase)
            candidates.append(
                (model.cost(two_phase_plan).total, two_phase_plan, site.group,
                 two_phase, "two-phase")
            )

    cost, chosen_plan, replaced, exchange, strategy = min(
        candidates, key=lambda item: item[0]
    )
    estimated_shipped = estimator.rows(exchange.child) * exchange_mode_factor(
        exchange.mode, exchange.shards
    )

    from repro.optimizer.rewrites import RuleCertificate

    premises: List[Tuple[str, str]] = [
        ("strategy", strategy),
        ("shards", str(exchange.shards)),
        ("mode", exchange.mode),
        ("partitioning", exchange.partitioning),
        ("keys", ", ".join(exchange.keys) or "(rowid)"),
        ("estimated-shipped-rows", f"{estimated_shipped:.6f}"),
        ("cost", f"{cost:.6f}"),
        ("transport", getattr(config, "transport", "memory")),
        ("per-site-latency", f"{latency_weight:.6f}"),
    ]
    if strategy == "two-phase":
        premises.append(
            (
                "partial-merge",
                "aggregates decompose exactly; merge restores one-phase "
                "values and order via the MIN(RowID) ordinal",
            )
        )
    certificate = RuleCertificate(
        "shard_exchange", "$", plan, chosen_plan, tuple(premises)
    )

    from repro.analysis.diagnostics import Severity, render_diagnostics
    from repro.analysis.equivalence import verify_rewrite

    problems = [
        diagnostic
        for diagnostic in verify_rewrite(database, certificate)
        if diagnostic.severity >= Severity.ERROR
    ]
    if problems:
        raise TransformationError(
            "shard exchange failed its R704 audit:\n"
            + render_diagnostics(problems)
        )

    if chosen_plan is not plan:
        # Carry root-attached evidence (eager certificate, rewrite marker)
        # over to the rebuilt root, as apply_rewrites does.
        from repro.analysis.certificates import attach_certificate, get_certificate
        from repro.optimizer.rewrites import _APPLIED_ATTR, rewrites_applied

        eager = get_certificate(plan)
        if eager is not None and get_certificate(chosen_plan) is None:
            attach_certificate(chosen_plan, eager)
        applied = rewrites_applied(plan)
        if applied is not None:
            object.__setattr__(chosen_plan, _APPLIED_ATTR, applied)
    object.__setattr__(chosen_plan, _CERT_ATTR, certificate)
    return chosen_plan
