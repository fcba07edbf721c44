"""Cost-based planning: cardinality estimation, cost models, plan choice."""

from repro.optimizer.cardinality import (
    CardinalityEstimator,
    ColumnStats,
    EstimateContext,
    Statistics,
    TableStats,
    collect_statistics,
)
from repro.optimizer.cost import (
    CostModel,
    CostWeights,
    NetworkWeights,
    PlanCost,
)
from repro.optimizer.histogram import Histogram
from repro.optimizer.planner import POLICIES, PlanChoice, Planner
from repro.optimizer.rewrites import (
    REWRITE_RULES,
    RewriteOutcome,
    RuleCertificate,
    apply_rewrites,
    normalize_rewrites,
    rewrites_applied,
)

__all__ = [
    "CardinalityEstimator", "ColumnStats", "EstimateContext", "Statistics",
    "TableStats", "collect_statistics",
    "CostModel", "CostWeights", "NetworkWeights",
    "PlanCost", "Histogram",
    "POLICIES", "PlanChoice", "Planner",
    "REWRITE_RULES", "RewriteOutcome", "RuleCertificate",
    "apply_rewrites", "normalize_rewrites", "rewrites_applied",
]
