"""The planner: choose between the standard (E1) and eager (E2) plans.

Section 7: "Ultimately, the choice is determined by the estimated cost of
the two plans."  The planner

1. checks validity with TestFD (invalid ⇒ standard plan, no choice);
2. builds both plans, costs them with the cardinality-driven model;
3. returns the cheaper one, with the full decision record.

Policies ``always_eager`` / ``never_eager`` exist for the ablation bench
(what would a heuristic-only optimizer lose?).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.ops import PlanNode
from repro.catalog.catalog import Database
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import (
    TransformationDecision,
    build_eager_plan,
    build_standard_plan,
    check_transformable,
)
from repro.errors import PlanningError
from repro.optimizer.cardinality import CardinalityEstimator, Statistics
from repro.optimizer.cost import CostModel, CostWeights

POLICIES = ("cost", "always_eager", "never_eager")


@dataclass
class PlanChoice:
    """The planner's verdict for one query."""

    plan: PlanNode
    strategy: str  # "eager" or "standard"
    standard_cost: float
    eager_cost: Optional[float]  # None when the transformation is invalid
    decision: TransformationDecision

    @property
    def speedup(self) -> Optional[float]:
        """Estimated standard/eager cost ratio (>1 means eager wins)."""
        if self.eager_cost is None or self.eager_cost == 0:
            return None
        return self.standard_cost / self.eager_cost


class Planner:
    """Cost-based eager/standard plan selection."""

    def __init__(
        self,
        database: Database,
        statistics: Optional[Statistics] = None,
        weights: CostWeights = CostWeights(),
        join_algorithm: str = "hash",
        policy: str = "cost",
        assume_unique_keys: bool = False,
        engine: str = "row",
    ) -> None:
        if policy not in POLICIES:
            raise PlanningError(f"unknown policy {policy!r}; pick one of {POLICIES}")
        self.database = database
        self.estimator = CardinalityEstimator(database, statistics)
        self.cost_model = CostModel(self.estimator, weights, join_algorithm, engine)
        self.policy = policy
        self.assume_unique_keys = assume_unique_keys

    def choose(self, query: GroupByJoinQuery) -> PlanChoice:
        """Pick a plan for ``query`` under the configured policy.

        An aggregate-free HAVING is first folded into WHERE
        (:func:`repro.core.transform.normalize_having`), which can re-admit
        the query to the transformable class.
        """
        from repro.core.transform import normalize_having

        query = normalize_having(query)
        standard = build_standard_plan(query)
        standard_cost = self.cost_model.cost(standard).total
        decision = check_transformable(
            self.database, query, assume_unique_keys=self.assume_unique_keys
        )
        if not decision.valid:
            return PlanChoice(standard, "standard", standard_cost, None, decision)

        eager = build_eager_plan(query)
        eager_cost = self.cost_model.cost(eager).total
        self._certify(eager, query, decision)

        if self.policy == "always_eager":
            return PlanChoice(eager, "eager", standard_cost, eager_cost, decision)
        if self.policy == "never_eager":
            return PlanChoice(standard, "standard", standard_cost, eager_cost, decision)
        if eager_cost < standard_cost:
            return PlanChoice(eager, "eager", standard_cost, eager_cost, decision)
        return PlanChoice(standard, "standard", standard_cost, eager_cost, decision)

    def _certify(
        self,
        eager: PlanNode,
        query: GroupByJoinQuery,
        decision: TransformationDecision,
    ) -> None:
        """Attach the FD1/FD2 rewrite certificate to a valid eager plan.

        The certificate is what licenses the plan's below-join aggregation
        to the static verifier (rule G103) and what ``explain --certify``
        renders.  Lazy import: :mod:`repro.analysis` imports the plan
        builders from :mod:`repro.core.transform`.
        """
        from repro.analysis.certificates import attach_certificate, issue_certificate

        if decision.testfd is not None:
            attach_certificate(
                eager,
                issue_certificate(
                    self.database, query, decision.testfd,
                    assume_unique_keys=self.assume_unique_keys,
                ),
            )
