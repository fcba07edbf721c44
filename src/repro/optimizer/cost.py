"""Plan cost model: CPU work plus the §7 communication term.

Section 7 of the paper lists the trade-offs of eager grouping — the join
input can only shrink, the group-by input may grow or shrink with join
selectivity, and in a distributed database the transformation can slash
communication because only one row per group crosses the wire.
:class:`CostModel` turns those observations into numbers: per-operator
CPU costs driven by the cardinality estimator (hash join ≈ |L|+|R|+|out|,
hash group ≈ n+groups, etc.), and for every
:class:`~repro.algebra.ops.Exchange` in the plan a transfer charge per
shipped row (:class:`NetworkWeights`).  To price shipping a subplan to
another site, wrap that subplan in an Exchange.

Costs are abstract units, not seconds: the reproduction targets the
*shape* of the paper's comparisons (who wins, where the crossover falls).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

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
from repro.optimizer.cardinality import CardinalityEstimator, EstimateContext


@dataclass(frozen=True)
class CostWeights:
    """Unit charges for the primitive operations."""

    tuple_cpu: float = 1.0          # touching one tuple
    hash_build: float = 1.5         # inserting into a hash table
    hash_probe: float = 1.0         # probing a hash table
    comparison: float = 1.0         # one sort comparison
    output_tuple: float = 0.2       # emitting a result tuple


#: Per-backend CPU scale factors.  The vector backend does the *same*
#: abstract work (its ExecutionStats are identical by contract) but each
#: unit is cheaper — columnar batches amortize interpretation overhead and
#: the numeric fast paths run at C speed.  The factor is deliberately
#: uniform across operators so plan comparisons (who wins, where the
#: crossover falls) are backend-independent: switching engines rescales
#: every candidate's cost by the same constant and never flips a choice.
ENGINE_CPU_FACTORS: Dict[str, float] = {"row": 1.0, "vector": 0.3}


@dataclass
class PlanCost:
    """A cost total plus the per-node breakdown for explainability."""

    total: float
    by_node: Dict[int, float]
    rows_out: float


@dataclass(frozen=True)
class NetworkWeights:
    """Communication charges of an Exchange (per row shipped).

    ``per_site_latency`` prices one round trip to one shard site in CPU
    units (the socket transport's measured heartbeat RTT is converted by
    the distributor; 0 for the in-memory wire).  Every Exchange candidate
    over the same shard count pays ``shards x per_site_latency`` equally —
    the term shifts distributed totals against the single-site baseline
    without ever flipping the choice *between* distributed candidates.
    """

    per_row: float = 50.0  # a shipped row costs this many CPU-units
    per_query_setup: float = 100.0
    per_site_latency: float = 0.0


#: How each Exchange mode multiplies the shipped-row charge: gather ships
#: every row once, shuffle re-partitions (two hops), broadcast fans every
#: row out to all shards.
EXCHANGE_MODE_FACTORS: Dict[str, float] = {"gather": 1.0, "shuffle": 2.0}


def exchange_mode_factor(mode: str, shards: int) -> float:
    if mode == "broadcast":
        return float(max(1, shards))
    return EXCHANGE_MODE_FACTORS[mode]


class CostModel:
    """Estimates the CPU cost of a logical plan.

    Plans containing :class:`~repro.algebra.ops.Exchange` nodes are priced
    with the §7 communication term folded in: the subtree below an
    Exchange runs shard-parallel (its CPU cost divides by the shard
    count), and every row the child produces is charged ``network.per_row``
    times the mode factor on its way through the wire.  This is what makes
    the planner push partial aggregation below the Exchange exactly when
    groups ≪ rows.
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        weights: CostWeights = CostWeights(),
        join_algorithm: str = "hash",
        engine: str = "row",
        network: "NetworkWeights | None" = None,
    ) -> None:
        if join_algorithm not in ("hash", "nested_loop", "sort_merge"):
            raise ValueError(f"bad join_algorithm: {join_algorithm}")
        if engine not in ENGINE_CPU_FACTORS:
            raise ValueError(f"bad engine: {engine}")
        self.estimator = estimator
        self.weights = weights
        self.join_algorithm = join_algorithm
        self.engine = engine
        self.network = network if network is not None else NetworkWeights()
        self.cpu_factor = ENGINE_CPU_FACTORS[engine]

    def cost(self, plan: PlanNode) -> PlanCost:
        by_node: Dict[int, float] = {}
        total, context = self._cost(plan, by_node)
        factor = self.cpu_factor
        if factor != 1.0:
            total *= factor
            by_node = {node: value * factor for node, value in by_node.items()}
        return PlanCost(total, by_node, context.rows)

    # -- recursion -----------------------------------------------------------

    def _cost(self, plan: PlanNode, by_node: Dict[int, float]) -> Tuple[float, EstimateContext]:
        w = self.weights
        if isinstance(plan, Relation):
            context = self.estimator.estimate(plan)
            node_cost = context.rows * w.tuple_cpu
            by_node[id(plan)] = node_cost
            return node_cost, context

        if isinstance(plan, Select):
            child_cost, child = self._cost(plan.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = child.rows * w.tuple_cpu
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, Project):
            child_cost, child = self._cost(plan.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = child.rows * w.tuple_cpu
            if plan.distinct:
                node_cost += child.rows * w.hash_build
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, (Join, Product)):
            left_cost, left = self._cost(plan.left, by_node)
            right_cost, right = self._cost(plan.right, by_node)
            context = self.estimator.estimate(plan)
            node_cost = self._join_cost(plan, left, right, context)
            by_node[id(plan)] = node_cost
            return left_cost + right_cost + node_cost, context

        if isinstance(plan, GroupApply):
            child_cost, child = self._cost(plan.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = (
                child.rows * w.hash_build + context.rows * w.output_tuple
            )
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, Apply) and isinstance(plan.child, Group):
            # Cost the fused form: Group+Apply is one aggregation operator.
            child_cost, child = self._cost(plan.child.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = child.rows * w.hash_build + context.rows * w.output_tuple
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, (Group, Sort)):
            child_cost, child = self._cost(plan.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = _nlogn(child.rows) * w.comparison
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, Exchange):
            child_cost, child = self._cost(plan.child, by_node)
            # The child's estimate is the shipped stream (for merge=True the
            # terminal GroupApply already shrank it to one row per group).
            shipped = child.rows
            factor = exchange_mode_factor(plan.mode, plan.shards)
            merge_weight = (
                self.weights.hash_build if plan.merge else self.weights.tuple_cpu
            )
            node_cost = (
                self.network.per_query_setup
                + plan.shards * self.network.per_site_latency
                + shipped * self.network.per_row * factor
                + shipped * merge_weight  # coordinator-side merge pass
            )
            by_node[id(plan)] = node_cost
            # The subtree below the wire runs once per shard in parallel,
            # so its CPU cost divides by the shard count.  (The per-node
            # breakdown keeps the undivided child entries: it explains the
            # work, the total explains the wall clock.)
            return child_cost / max(1, plan.shards) + node_cost, child

        raise TypeError(f"cannot cost {type(plan).__name__}")

    def estimated_transfer_rows(self, plan: PlanNode) -> float:
        """Estimated rows crossing the wire, summed over Exchange nodes."""
        from repro.algebra.ops import walk_plan

        total = 0.0
        for node in walk_plan(plan):
            if isinstance(node, Exchange):
                total += self.estimator.rows(node.child) * exchange_mode_factor(
                    node.mode, node.shards
                )
        return total

    def _join_cost(
        self,
        plan: "Join | Product",
        left: EstimateContext,
        right: EstimateContext,
        output: EstimateContext,
    ) -> float:
        w = self.weights
        if isinstance(plan, Product) or (isinstance(plan, Join) and plan.condition is None):
            return left.rows * right.rows * w.tuple_cpu
        if self.join_algorithm == "nested_loop":
            return left.rows * right.rows * w.tuple_cpu + output.rows * w.output_tuple
        if self.join_algorithm == "sort_merge":
            return (
                (_nlogn(left.rows) + _nlogn(right.rows)) * w.comparison
                + (left.rows + right.rows) * w.tuple_cpu
                + output.rows * w.output_tuple
            )
        # hash join: build on the smaller input
        build, probe = (right, left) if right.rows <= left.rows else (left, right)
        return (
            build.rows * w.hash_build
            + probe.rows * w.hash_probe
            + output.rows * w.output_tuple
        )


def _nlogn(n: float) -> float:
    if n <= 1.0:
        return n
    return n * math.log2(n)
