"""The multi-host shard wire: framed socket messages + the shard worker.

This module is the *mechanical* half of the fault-tolerant shard
transport (the policy half — retries, health, failover — lives in
:mod:`repro.engine.shardrpc`).  It reuses the TCP bones of the server's
line protocol (:mod:`repro.server.net`) but frames binary messages
instead of text lines, because shard deliveries carry pickled plans and
row blocks, not SQL strings.

Framing
-------

Every message is one frame::

    !2sBBII  =  magic b"RX" | wire version | flags | payload length | crc32

followed by exactly ``length`` payload bytes.  The payload is a dict
serialized with pickle at the **pinned** :data:`WIRE_PICKLE_PROTOCOL`
(not ``HIGHEST_PROTOCOL``: both ends must agree byte-for-byte across
interpreter versions, and the checksum is computed over the exact
bytes).  Bad magic, an unknown version, a checksum mismatch (garbled
bytes in transit), or an oversized frame all raise the typed
:class:`~repro.errors.WireFormatError` — the framing layer never lets a
corrupt payload reach the unpickler.

Restricted unpickling
---------------------

The receive path **never** calls raw ``pickle.loads``: payloads go
through :class:`RestrictedUnpickler`, which resolves only allow-listed
classes — anything under ``repro.`` (plan nodes, expression ASTs,
tables, SQL values) plus the standard value types SQL data lives in
(``decimal``, ``datetime``, ``uuid``) and a small set of builtins.  A
forged payload naming ``os.system`` (or any class outside the list) is
rejected with :class:`~repro.errors.WireFormatError` before its reduce
hook can run.  The same loader guards the in-memory Exchange wire
(:mod:`repro.engine.exchange`), so the trusted-codec discipline does not
depend on which transport is configured.

The worker
----------

``repro shard-worker`` runs :func:`run_worker`: bind a loopback socket,
print a ``READY`` line (the :class:`~repro.engine.shardrpc.ShardPool`
parses it to learn the bound port), and serve framed requests one
connection at a time.  Operations:

* ``hello`` — handshake: version check, returns pid + wire version;
* ``ping`` — health probe (heartbeats), returns served/duplicate counts;
* ``execute`` — run a shard subplan against a shipped table partition
  and return the result block.  Responses are cached by **request ID**:
  a retried or duplicated request is answered from the cache without
  re-executing, so retransmitted partials can never double-count.
* ``shutdown`` — drain: stop serving after the reply flushes.

Workers are stateless between requests (each ``execute`` ships its own
partition), which is what makes retry-elsewhere failover sound: any
worker can serve any delivery, bit-identically.
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
import sys
import zlib
from collections import OrderedDict
from typing import Any, BinaryIO, Dict, Optional, Tuple

from repro.errors import ReproError, WireFormatError

#: Pinned framing version; bumped on any incompatible frame/payload change.
WIRE_VERSION = 1

#: Pinned pickle protocol for every payload on the wire.  Protocol 4 is
#: supported by every interpreter this project targets; pinning (rather
#: than HIGHEST_PROTOCOL) keeps mixed-version coordinator/worker pairs
#: byte-compatible and makes the checksum meaningful across hosts.
WIRE_PICKLE_PROTOCOL = 4

#: Frame header: magic, version, flags, payload length, payload crc32.
_HEADER = struct.Struct("!2sBBII")
_MAGIC = b"RX"

#: Hard cap on one frame's payload (a forged length cannot OOM the peer).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Builtins a payload may reference (pickle resolves classes, not
#: instances of the primitive types, which need no lookup at all).
_SAFE_BUILTINS = frozenset({
    "set", "frozenset", "complex", "bytearray", "range", "slice",
})

#: Module prefixes whose classes may travel on the wire.
_SAFE_MODULE_PREFIXES = ("repro.",)

#: Exact stdlib modules whose classes may travel on the wire (the types
#: SQL values are made of).
_SAFE_MODULES = frozenset({"decimal", "datetime", "uuid", "collections"})


class RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that resolves allow-listed classes only (see module doc)."""

    def find_class(self, module: str, name: str) -> Any:
        if module == "builtins":
            if name in _SAFE_BUILTINS:
                return super().find_class(module, name)
        elif module in _SAFE_MODULES or module.startswith(
            _SAFE_MODULE_PREFIXES
        ):
            return super().find_class(module, name)
        raise WireFormatError(
            f"wire payload references forbidden class {module}.{name}; "
            "only repro plan/value classes may cross the shard wire"
        )


def restricted_loads(blob: bytes) -> Any:
    """Deserialize ``blob`` through the allow-listed unpickler.

    Any unpickling failure — forged classes, truncated or corrupt bytes —
    surfaces as the typed :class:`~repro.errors.WireFormatError`.
    """
    try:
        return RestrictedUnpickler(io.BytesIO(blob)).load()
    except WireFormatError:
        raise
    except Exception as error:
        raise WireFormatError(f"wire payload failed to decode: {error}") from error


def wire_dumps(payload: Any) -> bytes:
    """Serialize ``payload`` at the pinned wire pickle protocol."""
    return pickle.dumps(payload, protocol=WIRE_PICKLE_PROTOCOL)


def pack_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: header + pickled payload (pinned protocol)."""
    blob = wire_dumps(payload)
    if len(blob) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame payload of {len(blob)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    header = _HEADER.pack(
        _MAGIC, WIRE_VERSION, 0, len(blob), zlib.crc32(blob) & 0xFFFFFFFF
    )
    return header + blob


def send_frame(stream: BinaryIO, payload: Dict[str, Any]) -> int:
    """Write one frame; returns the bytes put on the wire."""
    frame = pack_frame(payload)
    stream.write(frame)
    stream.flush()
    return len(frame)


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            raise EOFError("peer closed the shard wire mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(stream: BinaryIO) -> Tuple[Dict[str, Any], int]:
    """Read one frame; returns ``(payload, bytes_read)``.

    Raises :class:`~repro.errors.WireFormatError` on bad magic, an
    unknown wire version, an oversized length, a checksum mismatch, or a
    payload outside the unpickling allow-list; raises :class:`EOFError`
    when the peer hangs up cleanly between frames.
    """
    header = _read_exact(stream, _HEADER.size)
    magic, version, _flags, length, crc = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"wire version mismatch: peer speaks v{version}, "
            f"this process v{WIRE_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    blob = _read_exact(stream, length)
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise WireFormatError("frame checksum mismatch (garbled in transit)")
    payload = restricted_loads(blob)
    if not isinstance(payload, dict) or "op" not in payload:
        raise WireFormatError("frame payload is not an op message")
    return payload, _HEADER.size + length


# -- the worker side ---------------------------------------------------------

#: ExecutorConfig fields a coordinator may set on a shard execution.
#: Everything else (budgets with coordinator-side meaning, cancellation
#: tokens, shard topology) is pinned worker-side.
_SHARD_CONFIG_FIELDS = frozenset({
    "engine", "join_algorithm", "aggregation", "exploit_orders",
    "memory_limit_bytes", "max_rows", "spill", "degrade",
})

#: Completed ``execute`` responses a worker keeps for duplicate requests.
#: A request ID is only retried inside one coordinator call, so only the
#: most recent responses can ever be asked for again; older ones are
#: evicted instead of growing the worker's memory with every query.
RESPONSE_CACHE_SIZE = 64


class ShardWorker:
    """One shard worker process' serving loop (testable in-process).

    Holds the idempotency cache: the last :data:`RESPONSE_CACHE_SIZE`
    completed ``execute`` responses, keyed by request ID.  A retransmitted
    request — a retry after a lost response,
    or an injected duplicate — is served from the cache without running
    the plan again, so retried partials can never double-count.
    """

    def __init__(self) -> None:
        self._responses: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.served = 0
        self.duplicates = 0
        self.draining = False

    # -- operations -------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request payload to its op handler."""
        op = request.get("op")
        try:
            if op == "hello":
                return self._hello(request)
            if op == "ping":
                return {
                    "op": "pong",
                    "served": self.served,
                    "duplicates": self.duplicates,
                }
            if op == "execute":
                return self._execute(request)
            if op == "shutdown":
                self.draining = True
                return {"op": "bye"}
            raise WireFormatError(f"unknown wire op {op!r}")
        except ReproError as error:
            return {
                "op": "error",
                "error_type": type(error).__name__,
                "message": str(error),
                "retryable": isinstance(error, WireFormatError),
            }

    def _hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        import os

        peer_version = request.get("version")
        if peer_version != WIRE_VERSION:
            raise WireFormatError(
                f"handshake version mismatch: coordinator speaks "
                f"v{peer_version}, worker v{WIRE_VERSION}"
            )
        return {"op": "hello", "version": WIRE_VERSION, "pid": os.getpid()}

    def _execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("request_id")
        if not isinstance(request_id, str):
            raise WireFormatError("execute request carries no request_id")
        cached = self._responses.get(request_id)
        if cached is not None:
            self.duplicates += 1
            return cached
        response = self._run(request)
        self._responses[request_id] = response
        if len(self._responses) > RESPONSE_CACHE_SIZE:
            self._responses.popitem(last=False)
        self.served += 1
        return response

    def _run(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.catalog.catalog import Database
        from repro.engine.executor import Executor, ExecutorConfig

        table = request["table"]
        table_name = request["table_name"]
        plan = request["plan"]
        params = request.get("params")
        overrides = {
            key: value
            for key, value in (request.get("config") or {}).items()
            if key in _SHARD_CONFIG_FIELDS
        }
        config = ExecutorConfig(
            expose_rowids=True,
            shards=1,
            exchange="off",
            **overrides,
        )
        database = Database()
        database.tables[table_name] = table
        result, stats = Executor(database, config, params).run(plan)
        return {
            "op": "result",
            "request_id": request["request_id"],
            "columns": tuple(result.columns),
            "rows": list(result.rows),
            "ordering": tuple(result.ordering),
            "degradations": stats.degradations,
            "degradation_events": list(stats.degradation_events),
            "spill_count": stats.spill_count,
            "spilled_rows": stats.spilled_rows,
        }

    # -- the serving loop -------------------------------------------------

    def serve_connection(self, stream_in: BinaryIO, stream_out: BinaryIO) -> None:
        """Answer frames on one connection until EOF or drain."""
        while not self.draining:
            try:
                request, __ = recv_frame(stream_in)
            except EOFError:
                return
            except WireFormatError as error:
                # A garbled frame is answered, not fatal: the header kept
                # the stream in sync, so the caller can retransmit.
                try:
                    send_frame(stream_out, {
                        "op": "error",
                        "error_type": "WireFormatError",
                        "message": str(error),
                        "retryable": True,
                    })
                    continue
                except OSError:
                    return
            response = self.handle(request)
            try:
                send_frame(stream_out, response)
            except OSError:
                return


READY_PREFIX = "SHARD-WORKER READY"


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    out: Optional[Any] = None,
) -> int:
    """Entry point for ``repro shard-worker``: bind, announce, serve.

    Prints ``SHARD-WORKER READY port=<p> pid=<p>`` once listening (the
    pool parses this line to learn an ephemeral port), then serves
    connections sequentially until a ``shutdown`` request or SIGTERM.
    """
    import os

    sink = out if out is not None else sys.stdout
    worker = ShardWorker()
    listener = socket.create_server((host, port))
    bound_port = listener.getsockname()[1]
    sink.write(f"{READY_PREFIX} port={bound_port} pid={os.getpid()}\n")
    sink.flush()
    try:
        while not worker.draining:
            try:
                connection, __ = listener.accept()
            except OSError:
                break
            with connection:
                reader = connection.makefile("rb")
                writer = connection.makefile("wb")
                worker.serve_connection(reader, writer)
    finally:
        listener.close()
    return 0
