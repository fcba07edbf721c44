"""The shard wire's mechanics: framing, restricted unpickling, the worker.

Everything here runs in-process (streams are BytesIO, the worker object
is driven directly) — the socket/pool integration lives in
``tests/engine/test_shardrpc.py``.  The contract under test: corrupt or
forged bytes never reach application code undetected, and a worker never
executes the same request twice.
"""

from __future__ import annotations

import io
import pickle
import pickletools
import struct

import pytest

from repro.errors import WireFormatError
from repro.server.transport import (
    MAX_FRAME_BYTES,
    RESPONSE_CACHE_SIZE,
    WIRE_PICKLE_PROTOCOL,
    WIRE_VERSION,
    RestrictedUnpickler,
    ShardWorker,
    pack_frame,
    recv_frame,
    restricted_loads,
    send_frame,
    wire_dumps,
)


def roundtrip(payload):
    stream = io.BytesIO(pack_frame(payload))
    decoded, nbytes = recv_frame(stream)
    return decoded, nbytes


class TestFraming:
    def test_roundtrip(self):
        payload = {"op": "ping", "data": [1, 2, 3], "text": "héllo"}
        decoded, nbytes = roundtrip(payload)
        assert decoded == payload
        assert nbytes == len(pack_frame(payload))

    def test_pinned_pickle_protocol(self):
        blob = wire_dumps({"op": "ping"})
        # pickletools.genops yields a PROTO opcode first; its argument is
        # the protocol the payload was serialized at.
        opcode, protocol, __ = next(pickletools.genops(blob))
        assert opcode.name == "PROTO"
        assert protocol == WIRE_PICKLE_PROTOCOL

    def test_bad_magic_rejected(self):
        frame = bytearray(pack_frame({"op": "ping"}))
        frame[0:2] = b"ZZ"
        with pytest.raises(WireFormatError, match="magic"):
            recv_frame(io.BytesIO(bytes(frame)))

    def test_version_mismatch_rejected(self):
        frame = bytearray(pack_frame({"op": "ping"}))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            recv_frame(io.BytesIO(bytes(frame)))

    def test_garbled_payload_caught_by_checksum(self):
        frame = bytearray(pack_frame({"op": "ping"}))
        frame[-1] ^= 0xFF
        with pytest.raises(WireFormatError, match="checksum"):
            recv_frame(io.BytesIO(bytes(frame)))

    def test_oversized_length_rejected_before_read(self):
        header = struct.pack(
            "!2sBBII", b"RX", WIRE_VERSION, 0, MAX_FRAME_BYTES + 1, 0
        )
        with pytest.raises(WireFormatError, match="cap"):
            recv_frame(io.BytesIO(header))

    def test_truncated_frame_is_eof(self):
        frame = pack_frame({"op": "ping"})
        with pytest.raises(EOFError):
            recv_frame(io.BytesIO(frame[: len(frame) - 3]))

    def test_non_op_payload_rejected(self):
        blob = wire_dumps({"not-an-op": 1})
        header = struct.pack(
            "!2sBBII", b"RX", WIRE_VERSION, 0, len(blob),
            __import__("zlib").crc32(blob) & 0xFFFFFFFF,
        )
        with pytest.raises(WireFormatError, match="op message"):
            recv_frame(io.BytesIO(header + blob))

    def test_send_frame_reports_wire_bytes(self):
        sink = io.BytesIO()
        sent = send_frame(sink, {"op": "ping"})
        assert sent == len(sink.getvalue())


class TestRestrictedUnpickler:
    def test_forged_payload_rejected_with_typed_error(self):
        # The canonical forgery: a payload whose reduce hook resolves
        # os.system.  The restricted loader must refuse to resolve the
        # class at all — typed error, no execution.
        class Evil:
            def __reduce__(self):
                import os

                return (os.system, ("true",))

        blob = pickle.dumps(Evil(), protocol=WIRE_PICKLE_PROTOCOL)
        with pytest.raises(WireFormatError, match="forbidden class"):
            restricted_loads(blob)

    def test_builtin_function_smuggling_rejected(self):
        blob = pickle.dumps(eval, protocol=WIRE_PICKLE_PROTOCOL)
        with pytest.raises(WireFormatError, match="forbidden class"):
            restricted_loads(blob)

    def test_repro_classes_allowed(self):
        from repro.algebra.ops import AggregateSpec, GroupApply, Relation
        from repro.expressions.builder import count

        plan = GroupApply(
            Relation("T", "T"), ("T.k",),
            (AggregateSpec("c", count("T.k")),),
        )
        decoded = restricted_loads(wire_dumps({"op": "x", "plan": plan}))
        assert isinstance(decoded["plan"], GroupApply)

    def test_sql_value_types_allowed(self):
        import datetime
        import decimal

        payload = {
            "op": "x",
            "values": (
                decimal.Decimal("1.5"),
                datetime.date(2026, 8, 9),
                {1, 2},
                None,
                b"raw",
            ),
        }
        assert restricted_loads(wire_dumps(payload)) == payload

    def test_truncated_pickle_is_typed(self):
        blob = wire_dumps({"op": "x"})[:-4]
        with pytest.raises(WireFormatError, match="failed to decode"):
            restricted_loads(blob)

    def test_find_class_direct(self):
        loader = RestrictedUnpickler(io.BytesIO(b""))
        with pytest.raises(WireFormatError):
            loader.find_class("subprocess", "Popen")
        with pytest.raises(WireFormatError):
            loader.find_class("builtins", "exec")
        assert loader.find_class("builtins", "set") is set


def make_execute_request(request_id="req-1"):
    from repro.algebra.ops import AggregateSpec, GroupApply, Relation
    from repro.catalog.catalog import Database
    from repro.catalog.schema import Column, TableSchema
    from repro.expressions.builder import count, sum_
    from repro.sqltypes.datatypes import INTEGER

    db = Database()
    db.create_table(
        TableSchema("T", [Column("k", INTEGER), Column("v", INTEGER)])
    )
    table = db.table("T")
    for i in range(20):
        table.insert([i % 3, i])
    plan = GroupApply(
        Relation("T", "T"), ("T.k",),
        (AggregateSpec("c", count("T.v")), AggregateSpec("s", sum_("T.v"))),
    )
    return {
        "op": "execute",
        "request_id": request_id,
        "table": table,
        "table_name": "T",
        "plan": plan,
        "params": None,
        "config": {"engine": "row"},
    }


class TestShardWorker:
    def test_hello_handshake(self):
        worker = ShardWorker()
        response = worker.handle({"op": "hello", "version": WIRE_VERSION})
        assert response["op"] == "hello"
        assert response["version"] == WIRE_VERSION
        assert response["pid"] > 0

    def test_hello_version_mismatch_is_typed_error(self):
        worker = ShardWorker()
        response = worker.handle({"op": "hello", "version": WIRE_VERSION + 9})
        assert response["op"] == "error"
        assert response["error_type"] == "WireFormatError"

    def test_ping(self):
        worker = ShardWorker()
        response = worker.handle({"op": "ping"})
        assert response == {"op": "pong", "served": 0, "duplicates": 0}

    def test_execute_returns_result_block(self):
        worker = ShardWorker()
        response = worker.handle(make_execute_request())
        assert response["op"] == "result"
        assert set(response["columns"]) >= {"T.k", "c", "s"}
        assert len(response["rows"]) == 3
        assert worker.served == 1

    def test_duplicate_request_served_from_cache(self):
        # The idempotency contract: a retransmitted request (same ID) is
        # answered byte-identically without re-executing the plan.
        worker = ShardWorker()
        first = worker.handle(make_execute_request("dup"))
        second = worker.handle(make_execute_request("dup"))
        assert second is first  # the cached object, not a re-computation
        assert worker.served == 1
        assert worker.duplicates == 1

    def test_distinct_request_ids_execute_separately(self):
        worker = ShardWorker()
        worker.handle(make_execute_request("a"))
        worker.handle(make_execute_request("b"))
        assert worker.served == 2
        assert worker.duplicates == 0

    def test_response_cache_is_bounded(self):
        # Recent duplicates are still served from the cache, while the
        # cache itself stops growing after many distinct requests.
        worker = ShardWorker()
        request = make_execute_request()
        total = RESPONSE_CACHE_SIZE + 50
        for i in range(total):
            worker.handle(dict(request, request_id=f"r{i}"))
        assert worker.served == total
        assert len(worker._responses) == RESPONSE_CACHE_SIZE
        worker.handle(dict(request, request_id=f"r{total - 1}"))
        assert worker.duplicates == 1
        assert worker.served == total
        # The oldest ID was evicted: a late duplicate re-executes.
        worker.handle(dict(request, request_id="r0"))
        assert worker.served == total + 1
        assert len(worker._responses) == RESPONSE_CACHE_SIZE

    def test_execute_without_request_id_is_error(self):
        request = make_execute_request()
        del request["request_id"]
        response = worker_response = ShardWorker().handle(request)
        assert worker_response["op"] == "error"
        assert response["error_type"] == "WireFormatError"

    def test_unknown_op_is_typed_error(self):
        response = ShardWorker().handle({"op": "frobnicate"})
        assert response["op"] == "error"

    def test_shutdown_drains(self):
        worker = ShardWorker()
        assert worker.handle({"op": "shutdown"}) == {"op": "bye"}
        assert worker.draining

    def test_execution_error_is_reported_not_fatal(self):
        request = make_execute_request()
        request["config"] = {"engine": "row", "max_rows": 1}
        response = ShardWorker().handle(request)
        assert response["op"] == "error"
        assert response["error_type"] == "RowLimitExceeded"
        assert response["retryable"] is False

    def test_serve_connection_answers_garbled_frame_and_stays_up(self):
        worker = ShardWorker()
        good = pack_frame({"op": "ping"})
        bad = bytearray(good)
        bad[-1] ^= 0xFF
        stream_in = io.BytesIO(bytes(bad) + good)
        stream_out = io.BytesIO()
        worker.serve_connection(stream_in, stream_out)
        stream_out.seek(0)
        first, __ = recv_frame(stream_out)
        second, __ = recv_frame(stream_out)
        assert first["op"] == "error"
        assert first["error_type"] == "WireFormatError"
        assert second["op"] == "pong"
