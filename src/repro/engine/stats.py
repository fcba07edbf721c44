"""Execution statistics: per-operator cardinalities and work counters.

The paper's evaluation arguments are all about cardinalities flowing between
operators ("the join is reduced from 10000 × 100 to 100 × 100 while the
group-by input stays 10000").  The executor records exactly those numbers
here, and the benchmark harness prints them next to the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class ExchangeStats:
    """Wire counters for one Exchange operator during one execution.

    ``rows_shipped``/``bytes_shipped`` are *measured* on the serialized
    stream (the spill codec is the wire format), already multiplied by the
    mode's fan-out — a broadcast of 10 rows to 4 shards ships 40.  One
    entry per Exchange node, in execution order.
    """

    label: str
    mode: str
    partitions: int
    rows_shipped: int = 0
    bytes_shipped: int = 0
    #: ``"memory"`` or ``"socket"`` — which wire carried the deliveries.
    transport: str = "memory"
    #: RPC counters for this Exchange (socket transport only; all zero on
    #: the memory wire): backoffs taken, per-call socket timeouts,
    #: deliveries re-dispatched to a peer, and bytes on the real wire
    #: (frames in both directions, as opposed to ``bytes_shipped``'s
    #: transport-independent payload accounting).
    rpc_retries: int = 0
    rpc_timeouts: int = 0
    rpc_failovers: int = 0
    wire_bytes: int = 0
    #: Per-shard health after the exchange, e.g. ``("shard-0: healthy",)``.
    shard_health: Tuple[str, ...] = ()

    def describe(self) -> str:
        text = (
            f"{self.mode} x{self.partitions}: {self.rows_shipped} rows, "
            f"{self.bytes_shipped} bytes shipped ({self.label})"
        )
        if self.transport != "memory":
            text += (
                f" [transport={self.transport}, retries={self.rpc_retries}, "
                f"timeouts={self.rpc_timeouts}, "
                f"failovers={self.rpc_failovers}, "
                f"wire_bytes={self.wire_bytes}]"
            )
        if self.shard_health:
            text += " health: " + ", ".join(self.shard_health)
        return text


@dataclass
class NodeStats:
    """Observed behaviour of one plan operator during one execution."""

    label: str
    kind: str  # e.g. "scan", "select", "join", "groupby", "project"
    input_cardinalities: Tuple[int, ...]
    output_cardinality: int
    work: int  # algorithm-dependent unit: tuples examined / comparisons

    @property
    def join_work_product(self) -> int:
        """For binary nodes: the |L| × |R| pairing the paper quotes."""
        if len(self.input_cardinalities) == 2:
            return self.input_cardinalities[0] * self.input_cardinalities[1]
        return 0


@dataclass
class ExecutionStats:
    """All operator stats for one plan execution.

    Besides the per-operator cardinality/work records, carries the
    resilience counters: ``degradations`` (vector kernels that fell back
    to the row engine, with the operator label and cause in
    ``degradation_events``) and ``spill_count``/``spilled_rows`` (blocking
    operators that partitioned state to disk under memory pressure).
    """

    nodes: Dict[int, NodeStats] = field(default_factory=dict)
    order: List[int] = field(default_factory=list)
    degradations: int = 0
    degradation_events: List[str] = field(default_factory=list)
    spill_count: int = 0
    spilled_rows: int = 0
    # Always None; kept because the end-to-end benchmark still reads it.
    pipelines: None = None
    exchanges: List[ExchangeStats] = field(default_factory=list)

    def record(self, node_id: int, stats: NodeStats) -> None:
        self.nodes[node_id] = stats
        self.order.append(node_id)

    def note_degradation(self, label: str, error: BaseException) -> None:
        """One vector operator retried on the row engine (and why)."""
        self.degradations += 1
        self.degradation_events.append(
            f"{label}: {type(error).__name__}: {error}"
        )

    def by_kind(self, kind: str) -> List[NodeStats]:
        return [self.nodes[i] for i in self.order if self.nodes[i].kind == kind]

    def total_work(self) -> int:
        """Sum of per-operator work: the engine's machine-independent cost."""
        return sum(self.nodes[i].work for i in self.order)

    def join_input_sizes(self) -> List[Tuple[int, int]]:
        """(|L|, |R|) of every join/product in execution order."""
        return [
            (s.input_cardinalities[0], s.input_cardinalities[1])
            for s in (self.nodes[i] for i in self.order)
            if len(s.input_cardinalities) == 2
        ]

    def groupby_input_rows(self) -> int:
        """Total rows fed to grouping operators (the Figure 8 quantity)."""
        return sum(s.input_cardinalities[0] for s in self.by_kind("groupby"))

    def rows_shipped(self) -> int:
        """Total rows crossing Exchange wires (mode fan-out included)."""
        return sum(exchange.rows_shipped for exchange in self.exchanges)

    def bytes_shipped(self) -> int:
        """Total serialized bytes crossing Exchange wires."""
        return sum(exchange.bytes_shipped for exchange in self.exchanges)

    def cardinality_map(self) -> Dict[int, Tuple[Tuple[int, ...], int]]:
        """The shape :func:`repro.algebra.display.render_annotated` wants."""
        return {
            node_id: (s.input_cardinalities, s.output_cardinality)
            for node_id, s in self.nodes.items()
        }

    def summary(self) -> str:
        lines = []
        for node_id in self.order:
            s = self.nodes[node_id]
            inputs = " x ".join(str(c) for c in s.input_cardinalities) or "-"
            lines.append(
                f"{s.kind:<8} {inputs:>15} -> {s.output_cardinality:<8} "
                f"work={s.work:<10} {s.label}"
            )
        lines.append(f"total work: {self.total_work()}")
        for exchange in self.exchanges:
            lines.append(f"exchange: {exchange.describe()}")
        if self.spill_count:
            lines.append(
                f"spills: {self.spill_count} ({self.spilled_rows} rows to disk)"
            )
        if self.degradations:
            lines.append(f"degradations: {self.degradations}")
            lines.extend(f"  {event}" for event in self.degradation_events)
        return "\n".join(lines)
