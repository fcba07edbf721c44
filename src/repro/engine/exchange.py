"""The Exchange runner: shard-parallel execution with a byte-metered wire.

This is Section 7 of the paper made executable.  An
:class:`~repro.algebra.ops.Exchange` node splits its child's base table
into partitions (:mod:`repro.storage.partition`), runs the child subtree
once per shard (re-entering the public executor, so shards keep the
configured engine), and
merges the shard streams back into one deterministic result:

* ``merge=False`` — the shard outputs are interleaved back into base-scan
  order using the hidden per-relation RowID (shards always execute with
  ``expose_rowids=True``; the extra column is stripped again unless the
  outer config asked for it).  The merged stream is bit-identical to the
  unsharded child's output.
* ``merge=True`` — the child's terminal :class:`GroupApply` is decomposed
  into per-shard *partial* aggregates plus a hidden ``MIN(RowID)`` ordinal,
  and the partials are re-aggregated globally above the wire.  Which
  partials each function needs, how each merges and how AVG is finalized
  come from the aggregate contract, :mod:`repro.expressions.aggregates`.
  The global merge runs through the requesting engine's *own* grouped
  aggregation over the ordinal-ordered partial union, so the merged
  stream is bit-identical to the unsharded GroupApply on that engine —
  group order included.

The wire is deterministic and measured, not estimated: every shard
delivery is serialized at the transport's pinned pickle protocol
(:data:`repro.server.transport.WIRE_PICKLE_PROTOCOL`) and the byte
length of the actual blob is what the governor's transfer meter and
:class:`~repro.engine.stats.ExchangeStats` record, multiplied by the
mode's fan-out (gather x1, shuffle x2, broadcast x shards).  Receives
always pass through the transport's **restricted unpickler** — even on
the in-memory wire — so a forged payload is rejected with a typed
:class:`~repro.errors.WireFormatError` regardless of transport.  Each
delivery passes an ``"exchange"`` fault-injection point; an injected
kernel fault (or a shard crashing mid-run) degrades the whole Exchange to
single-site execution of the original child, accounted in
``stats.degradations`` — the same ladder the vector kernels use.

Two transports carry the deliveries (``config.transport``):

* ``"memory"`` (default) — shards run in-process; the wire is a pickle
  round-trip through the restricted loader.  Byte accounting is real,
  failure independence is not.
* ``"socket"`` — one OS process per shard behind the framed RPC of
  :mod:`repro.engine.shardrpc`: per-call deadlines, jittered retries,
  idempotent request IDs, health-checked failover.  A delivery whose
  every worker is dead raises :class:`KernelFault` into the same
  single-site degrade ladder, so the answer never changes.  Payload
  byte accounting (``bytes_shipped``) is computed identically to the
  memory wire; the extra frames-on-the-wire total lands in
  ``wire_bytes``.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.algebra.ops import (
    AggregateSpec,
    Exchange,
    GroupApply,
    PlanNode,
    Relation,
    Select,
)
from repro.catalog.catalog import Database
from repro.engine import faults
from repro.engine.dataset import DataSet
from repro.engine.faults import KernelFault
from repro.engine.governor import ResourceGovernor
from repro.engine.stats import ExchangeStats, ExecutionStats, NodeStats
from repro.errors import ExecutionError, ShardUnavailable
from repro.expressions import aggregates
from repro.expressions.ast import Aggregate, ColumnRef
from repro.server.transport import WIRE_PICKLE_PROTOCOL, restricted_loads
from repro.sqltypes.values import SqlValue, sort_key
from repro.storage.partition import PartitionSpec, partition_table

#: Hidden partial column carrying each group's first-appearance RowID.
ORDINAL_COLUMN = "__ord"


def exchange_fanout(mode: str, shards: int) -> int:
    """How many times one shipped row crosses the wire under ``mode``."""
    if mode == "broadcast":
        return max(1, shards)
    return 2 if mode == "shuffle" else 1


# -- aggregate decomposition -------------------------------------------------

#: Per original spec: the spec, then its (partial column, merge function)
#: pairs in :data:`repro.expressions.aggregates.TWO_PHASE` order.
_Recipe = List[Tuple[AggregateSpec, List[Tuple[str, str]]]]


def _split_specs(
    specs: Sequence[AggregateSpec],
) -> Optional[Tuple[List[AggregateSpec], _Recipe]]:
    """Name the contract's partials of every spec for the shard plan, or
    ``None`` when any spec is not a bare aggregate with mergeable partials
    (the planner then ships all rows instead)."""
    partial_specs: List[AggregateSpec] = []
    recipe: _Recipe = []
    for i, spec in enumerate(specs):
        expression = spec.expression
        if not isinstance(expression, Aggregate):
            return None
        parts = aggregates.partials(expression)
        if parts is None:
            return None
        columns: List[Tuple[str, str]] = []
        for j, (partial, merge) in enumerate(parts):
            name = f"__p{i}_{j}"
            partial_specs.append(AggregateSpec(name, partial))
            columns.append((name, merge))
        recipe.append((spec, columns))
    return partial_specs, recipe


# -- plan plumbing -----------------------------------------------------------


def _scan_chain_relation(plan: PlanNode) -> Relation:
    """The single Relation at the bottom of a Select* chain.

    The Exchange contract (DESIGN.md section 14) requires the subtree below
    the wire to be linear in exactly one partitioned base table; a
    Relation + Select* chain guarantees that *and* that RowID order
    survives to the shard output, which is what the ordinal merge needs.
    """
    cursor = plan
    while isinstance(cursor, Select):
        cursor = cursor.child
    if not isinstance(cursor, Relation):
        raise ExecutionError(
            "Exchange expects a Relation/Select* chain below the wire, "
            f"found {type(cursor).__name__}"
        )
    return cursor


def _resolve_partition_spec(
    node: Exchange, relation: Relation, database: Database
) -> PartitionSpec:
    """The concrete partitioning for this Exchange: explicit keys win, then
    a spec declared in the catalog, then RowID partitioning."""
    declared = database.partitioning.get(relation.table_name)
    column: Optional[str] = None
    bounds: Tuple = ()
    if node.keys:
        key = node.keys[0]
        prefix, _, bare = key.rpartition(".")
        if prefix and prefix != relation.correlation:
            raise ExecutionError(
                f"Exchange key {key!r} does not name the partitioned "
                f"relation {relation.correlation!r}"
            )
        column = bare
        if (
            isinstance(declared, PartitionSpec)
            and declared.column == column
            and declared.method == node.partitioning
        ):
            bounds = declared.bounds
    elif isinstance(declared, PartitionSpec):
        column = declared.column
        if declared.method == node.partitioning:
            bounds = declared.bounds
    return PartitionSpec(node.partitioning, column, node.shards, bounds)


def _merge_substats(
    stats: ExecutionStats, governor: ResourceGovernor, sub: ExecutionStats
) -> None:
    """Fold one shard run's resilience counters into the outer execution."""
    stats.degradations += sub.degradations
    stats.degradation_events.extend(sub.degradation_events)
    stats.exchanges.extend(sub.exchanges)
    governor.spill_count += sub.spill_count
    governor.spilled_rows += sub.spilled_rows


# -- the runner --------------------------------------------------------------


def run_exchange(
    database: Database,
    config,
    params: Optional[Mapping[str, SqlValue]],
    node: Exchange,
    stats: ExecutionStats,
    governor: ResourceGovernor,
) -> DataSet:
    """Execute one Exchange: partition, run shards, meter the wire, merge.

    Engine-agnostic by construction — both executors delegate here, shard
    subplans re-enter the public executor under the outer config (same
    engine), and the recorded :class:`NodeStats` is
    deterministic, so row and vector stats stay identical.
    """
    label = node.label()
    try:
        return _run_sharded(database, config, params, node, stats, governor, label)
    except (KernelFault, ShardUnavailable) as error:
        if not config.degrade:
            raise
        # A shard died mid-exchange — or, on the socket transport, no
        # worker could even be reached (ShardUnavailable escaping the
        # retry/failover layer means the whole pool is down): degrade to
        # single-site execution of the original child at the coordinator
        # (no wire, exact semantics).
        stats.note_degradation(label, error)
        governor.check(label)
        fallback_config = replace(
            config, shards=1, exchange="off", rewrites=(), verify=False
        )
        from repro.engine.executor import Executor

        result, sub_stats = Executor(database, fallback_config, params).run(
            node.child
        )
        _merge_substats(stats, governor, sub_stats)
        stats.record(
            id(node),
            NodeStats(label, "exchange", (result.cardinality,), result.cardinality, 0),
        )
        return result


def _run_sharded(
    database: Database,
    config,
    params: Optional[Mapping[str, SqlValue]],
    node: Exchange,
    stats: ExecutionStats,
    governor: ResourceGovernor,
    label: str,
) -> DataSet:
    from repro.engine.executor import Executor, rowid_column

    if node.merge:
        child = node.child
        if not isinstance(child, GroupApply):
            raise ExecutionError(
                "Exchange(merge=True) requires a GroupApply child"
            )
        split = _split_specs(child.aggregates)
        if split is None:
            raise ExecutionError(
                "Exchange(merge=True) over non-decomposable aggregates; "
                "use merge=False (ship-all) instead"
            )
        partial_specs, recipe = split
        relation = _scan_chain_relation(child.child)
        ordinal = AggregateSpec(
            ORDINAL_COLUMN,
            Aggregate("MIN", ColumnRef(relation.correlation, "#rowid")),
        )
        shard_plan: PlanNode = GroupApply(
            child.child, child.grouping_columns, tuple(partial_specs) + (ordinal,)
        )
    else:
        relation = _scan_chain_relation(node.child)
        shard_plan = node.child

    table = database.table(relation.table_name)
    spec = _resolve_partition_spec(node, relation, database)
    partitions = partition_table(table, spec)
    # Shards always expose RowIDs: the ordinal merge needs them.  The
    # extra column is stripped below unless the outer config asked for it.
    shard_config = replace(
        config,
        shards=1,
        exchange="off",
        rewrites=(),
        verify=False,
        expose_rowids=True,
    )

    deliveries: List[List[tuple]] = []
    columns: Tuple[str, ...] = ()
    ordering: Tuple[str, ...] = ()
    received = 0
    raw_bytes = 0
    rpc_before = rpc_after = None
    health: Tuple[str, ...] = ()
    if config.transport == "socket":
        from repro.engine.shardrpc import get_pool

        pool = get_pool(
            len(partitions),
            timeout_seconds=config.rpc_timeout_seconds,
            attempts=config.rpc_attempts,
        )
        rpc_before = pool.counters.snapshot()
        worker_config = {
            "engine": config.engine,
            "join_algorithm": config.join_algorithm,
            "aggregation": config.aggregation,
            "exploit_orders": config.exploit_orders,
            "memory_limit_bytes": config.memory_limit_bytes,
            "max_rows": config.max_rows,
            "spill": config.spill,
            "degrade": config.degrade,
        }
        for index, shard_table in enumerate(partitions):
            # Same per-delivery crash point the memory wire exposes, so
            # the existing fault matrix and chaos schedules carry over.
            faults.injection_point("exchange", label)
            response = pool.execute(index, {
                "op": "execute",
                "table": shard_table,
                "table_name": relation.table_name,
                "plan": shard_plan,
                "params": dict(params) if params else None,
                "config": worker_config,
            })
            rows = list(response["rows"])
            deliveries.append(rows)
            columns = tuple(response["columns"])
            ordering = tuple(response["ordering"])
            received += len(rows)
            # Payload accounting identical to the memory wire (the framed
            # request/response totals land in wire_bytes instead).
            raw_bytes += len(
                pickle.dumps(rows, protocol=WIRE_PICKLE_PROTOCOL)
            )
            stats.degradations += response.get("degradations", 0)
            stats.degradation_events.extend(
                response.get("degradation_events", ())
            )
            governor.spill_count += response.get("spill_count", 0)
            governor.spilled_rows += response.get("spilled_rows", 0)
        rpc_after = pool.counters.snapshot()
        health = tuple(
            f"{entry['shard']}: {entry['health']}"
            for entry in pool.health()
        )
    else:
        for shard_table in partitions:
            shard_db = database.snapshot_view()
            shard_db.tables[relation.table_name] = shard_table
            result, sub_stats = Executor(shard_db, shard_config, params).run(
                shard_plan
            )
            _merge_substats(stats, governor, sub_stats)
            # The wire: serialize at the pinned wire protocol, meter the
            # actual bytes, decode through the restricted unpickler, and
            # give the fault injector its per-delivery crash point.
            faults.injection_point("exchange", label)
            blob = pickle.dumps(
                list(result.rows), protocol=WIRE_PICKLE_PROTOCOL
            )
            rows = restricted_loads(blob)
            deliveries.append(rows)
            columns = tuple(result.columns)
            ordering = tuple(result.ordering)
            received += len(rows)
            raw_bytes += len(blob)

    fanout = exchange_fanout(node.mode, node.shards)
    rows_shipped = received * fanout
    bytes_shipped = raw_bytes * fanout
    governor.charge_transfer(rows_shipped, bytes_shipped, label)

    if node.merge:
        merged = _merge_two_phase(
            node.child, columns, deliveries, recipe, config, params
        )
    else:
        merged = _merge_ordinal(
            columns, ordering, deliveries, rowid_column(relation.correlation),
            config.expose_rowids,
        )
    exchange_stats = ExchangeStats(
        label, node.mode, node.shards, rows_shipped, bytes_shipped,
        transport=config.transport, shard_health=health,
    )
    if rpc_before is not None and rpc_after is not None:
        exchange_stats.rpc_retries = rpc_after["retries"] - rpc_before["retries"]
        exchange_stats.rpc_timeouts = (
            rpc_after["timeouts"] - rpc_before["timeouts"]
        )
        exchange_stats.rpc_failovers = (
            rpc_after["failovers"] - rpc_before["failovers"]
        )
        exchange_stats.wire_bytes = (
            rpc_after["wire_bytes"] - rpc_before["wire_bytes"]
        )
    stats.exchanges.append(exchange_stats)
    stats.record(
        id(node),
        NodeStats(label, "exchange", (received,), merged.cardinality, rows_shipped),
    )
    return merged


def _merge_ordinal(
    columns: Tuple[str, ...],
    ordering: Tuple[str, ...],
    deliveries: List[List[tuple]],
    ordinal_column: str,
    keep_rowids: bool,
) -> DataSet:
    """Interleave shard streams back into base-scan (RowID) order."""
    try:
        ordinal_index = columns.index(ordinal_column)
    except ValueError:
        raise ExecutionError(
            f"shard output lost the ordinal column {ordinal_column!r}"
        ) from None
    rows = [row for delivery in deliveries for row in delivery]
    rows.sort(key=lambda row: row[ordinal_index])
    if keep_rowids:
        return DataSet(columns, rows, ordering=ordering)
    kept = [i for i in range(len(columns)) if i != ordinal_index]
    out_columns = tuple(columns[i] for i in kept)
    out_rows = [tuple(row[i] for i in kept) for row in rows]
    out_ordering = tuple(name for name in ordering if name != ordinal_column)
    return DataSet(out_columns, out_rows, ordering=out_ordering)


def _merge_two_phase(
    original: GroupApply,
    columns: Tuple[str, ...],
    deliveries: List[List[tuple]],
    recipe: _Recipe,
    config,
    params: Optional[Mapping[str, SqlValue]],
) -> DataSet:
    """Re-aggregate shard partials into the one-phase operator's output.

    The shard streams are interleaved into ordinal order (a partial row's
    ordinal is its group's minimum RowID within that shard, so the union
    replays groups in their base-scan first-appearance order) and then fed
    through the *requesting engine's own* grouped-aggregation operator
    with each partial's merge aggregate.  Running the real operator rather
    than a hand-rolled fold is what makes the merged stream bit-identical
    to the unsharded GroupApply on either engine — whatever group order
    that engine's kernel emits over the original input, it emits over the
    ordinal-ordered union too.  Each spec's merged partials are then
    finalized by the aggregate contract.
    """
    ordinal_index = columns.index(ORDINAL_COLUMN)
    rows = [row for delivery in deliveries for row in delivery]
    # sort_key, not the raw value: an empty shard's scalar partial carries
    # a NULL ordinal (MIN over no rows), which collates first.
    rows.sort(key=lambda row: sort_key((row[ordinal_index],)))
    union = DataSet(columns, rows)

    merge_specs = [
        AggregateSpec(f"__m{k}", Aggregate(merge, ColumnRef("", column)))
        for k, (column, merge) in enumerate(
            pair for __, pairs in recipe for pair in pairs
        )
    ]
    grouping = original.grouping_columns
    if config.engine == "vector":
        from repro.engine.vector import kernels
        from repro.engine.vector.batch import ColumnBatch

        batch, __ = kernels.grouped_aggregate(
            ColumnBatch.from_dataset(union),
            grouping,
            merge_specs,
            params,
            mode=config.aggregation,
        )
        merged = batch.to_dataset()
    else:
        from repro.engine.aggregation import hash_group, sort_group

        if config.aggregation == "sort":
            merged, __ = sort_group(union, grouping, merge_specs, params)
        else:
            merged, __ = hash_group(union, grouping, merge_specs, params)

    # Both engines emit the grouping columns, then one column per merge
    # spec in order; each original spec owns a consecutive run of them.
    n_group = len(grouping)
    finals: List[Tuple[str, int, int]] = []
    start = n_group
    for spec, pairs in recipe:
        finals.append((spec.expression.function, start, start + len(pairs)))
        start += len(pairs)
    out_columns = merged.columns[:n_group] + tuple(spec.name for spec, __ in recipe)
    out_rows = [
        row[:n_group]
        + tuple(
            aggregates.finalize(function, row[begin:end])
            for function, begin, end in finals
        )
        for row in merged.rows
    ]
    out_ordering = tuple(
        name for name in merged.ordering if name in out_columns
    )
    return DataSet(out_columns, out_rows, ordering=out_ordering)
