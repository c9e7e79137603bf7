"""Binary wire protocol between the service and shard worker processes.

Frames are the unit of exchange: a one-byte frame type followed by a
struct-packed, little-endian body.  Event payloads travel as raw
columnar array bytes (int32 pcs / uint8 taken / int64 instrs — see
:func:`repro.serve.events.pack_events`), so encoding a micro-batch is
three ``tobytes`` calls and decoding is three zero-copy ``frombuffer``
views; shard state travels as zlib-compressed JSON.

Transports carry opaque frame payloads and differ only in framing:

* :class:`PipeTransport` wraps a ``multiprocessing.Pipe`` connection,
  whose ``send_bytes``/``recv_bytes`` already delimit messages;
* :class:`SocketTransport` wraps a stream socket and adds the
  explicit ``<uint32 length><payload>`` prefix itself.

Both are blocking and thread-compatible: the supervisor sends from an
executor thread and receives on a dedicated reader thread per worker
(:mod:`repro.serve.workers`), while the worker process just loops
``recv → dispatch → send``.

Frame catalogue (body layouts, all little-endian)::

    LOAD         uint32 zlen | zlib(JSON shard state)   parent → worker
    HELLO        uint16 shard | uint32 pid              worker → parent
    APPLY        uint64 ticket | uint32 n | events      parent → worker
    APPLY_RESULT uint64 ticket | uint32 events
                 | uint64 correct | uint64 incorrect
                 | int64 last_instr | uint32 n_changed
                 | uint32 n_trans | uint64 col_fast
                 | uint64 col_fallback | uint64 col_single
                 | float64 apply_seconds
                 | float64 t_recv | float64 t_done
                 | int64 key[n_changed] | uint8 deployed[n_changed]
                 | int64 trans_key[n_trans] | uint8 trans_arc[n_trans]
                 | int64 trans_exec[n_trans] | int64 trans_instr[n_trans]
                                                        worker → parent
    BARRIER      uint64 ticket                          parent → worker
    BARRIER_ACK  uint64 ticket                          worker → parent
    STATE_REQ    (empty)                                parent → worker
    STATE        zlib(JSON shard state)                 worker → parent
    SHUTDOWN     (empty)                                parent → worker
    ERROR        utf-8 message                          worker → parent
    TAPPLY       uint64 ticket | uint32 n
                 | int64 key[n] | uint8 taken[n]
                 | int64 instr[n]                       parent → worker
    TSPILL       uint64 ticket | uint32 n
                 | uint32 tenant[n]                     parent → worker
    TSPILL_RESULT uint64 ticket | uint32 zlen
                 | zlib(JSON state list)                worker → parent
    TRESTORE     uint64 ticket | uint32 zlen
                 | zlib(JSON state list)                parent → worker
    TRESTORE_ACK uint64 ticket                          worker → parent

``APPLY`` carries bare int32 PCs — the legacy tenant-less frame, still
what tenant-0-only deployments speak — while ``TAPPLY`` carries packed
int64 ``(tenant << 32) | pc`` keys (see :mod:`repro.tenant.keys`).
Both produce the same ``APPLY_RESULT``, whose changed/transition id
columns are int64 keys; the frame is parent↔worker only and never
persisted, so widening it costs no compatibility.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

import numpy as np

from repro.serve.events import pack_events, unpack_events

__all__ = [
    "LOAD", "HELLO", "APPLY", "APPLY_RESULT", "BARRIER", "BARRIER_ACK",
    "STATE_REQ", "STATE", "SHUTDOWN", "ERROR", "TAPPLY", "TSPILL",
    "TSPILL_RESULT", "TRESTORE", "TRESTORE_ACK", "ProtocolError",
    "encode_load", "decode_load", "encode_hello", "decode_hello",
    "encode_apply", "decode_apply", "encode_tapply", "decode_tapply",
    "encode_apply_result", "decode_apply_result",
    "encode_tspill", "decode_tspill", "encode_tspill_result",
    "decode_tspill_result", "encode_trestore", "decode_trestore",
    "encode_trestore_ack", "decode_trestore_ack",
    "encode_barrier", "decode_barrier",
    "encode_state_req", "encode_state", "decode_state",
    "encode_shutdown", "encode_error", "decode_error", "frame_type",
    "PipeTransport", "SocketTransport",
]

LOAD = 0x01
HELLO = 0x02
APPLY = 0x03
APPLY_RESULT = 0x04
BARRIER = 0x05
BARRIER_ACK = 0x06
STATE_REQ = 0x07
STATE = 0x08
SHUTDOWN = 0x09
ERROR = 0x0A
TAPPLY = 0x0B
TSPILL = 0x0C
TSPILL_RESULT = 0x0D
TRESTORE = 0x0E
TRESTORE_ACK = 0x0F

_HELLO = struct.Struct("<BHI")
_APPLY = struct.Struct("<BQI")
_TAPPLY = struct.Struct("<BQI")
_RESULT = struct.Struct("<BQIQQqIIQQQddd")
_BARRIER = struct.Struct("<BQ")
_LOAD = struct.Struct("<BI")
_TSPILL = struct.Struct("<BQI")
_TBLOB = struct.Struct("<BQI")
_TACK = struct.Struct("<BQ")
_LEN = struct.Struct("<I")

#: Bytes per event in a TAPPLY frame: int64 key + uint8 taken + int64 instr.
TKEY_EVENT_WIRE_BYTES = 8 + 1 + 8


class ProtocolError(Exception):
    """A frame failed to decode (truncated, wrong type, bad length)."""


def frame_type(payload: bytes) -> int:
    if not payload:
        raise ProtocolError("empty frame")
    return payload[0]


def _expect(payload: bytes, ftype: int, name: str,
            min_len: int = 1, exact_len: int | None = None) -> None:
    """Validate frame type and length before any ``struct`` unpack.

    Every decoder funnels through here so a truncated or oversized
    frame surfaces as :class:`ProtocolError` naming the frame type —
    never as a bare ``struct.error`` leaking from the codec.
    """
    if not payload or payload[0] != ftype:
        got = payload[0] if payload else None
        raise ProtocolError(f"expected {name} frame, got type {got!r}")
    if exact_len is not None:
        if len(payload) != exact_len:
            raise ProtocolError(
                f"{name} frame is {len(payload)} bytes, expected "
                f"{exact_len}")
    elif len(payload) < min_len:
        raise ProtocolError(
            f"{name} frame truncated: {len(payload)} bytes, need at "
            f"least {min_len}")


# -- shard state (zlib JSON) ------------------------------------------------
def encode_load(state: dict | None) -> bytes:
    """Parent → worker: initial shard state (None = start fresh)."""
    if state is None:
        return _LOAD.pack(LOAD, 0)
    blob = zlib.compress(json.dumps(state, separators=(",", ":"))
                         .encode("utf-8"))
    return _LOAD.pack(LOAD, len(blob)) + blob


def decode_load(payload: bytes) -> dict | None:
    _expect(payload, LOAD, "LOAD", min_len=_LOAD.size)
    _, zlen = _LOAD.unpack_from(payload)
    if len(payload) != _LOAD.size + zlen:
        raise ProtocolError("LOAD frame length mismatch")
    if zlen == 0:
        return None
    try:
        return json.loads(zlib.decompress(payload[_LOAD.size:])
                          .decode("utf-8"))
    except (zlib.error, ValueError) as err:
        raise ProtocolError(f"LOAD frame body is not zlib JSON: {err}") \
            from err


def encode_hello(shard: int, pid: int) -> bytes:
    return _HELLO.pack(HELLO, shard, pid)


def decode_hello(payload: bytes) -> tuple[int, int]:
    _expect(payload, HELLO, "HELLO", exact_len=_HELLO.size)
    _, shard, pid = _HELLO.unpack(payload)
    return shard, pid


# -- event application ------------------------------------------------------
def encode_apply(ticket: int, pcs: np.ndarray, taken: np.ndarray,
                 instrs: np.ndarray) -> bytes:
    return _APPLY.pack(APPLY, ticket, len(pcs)) + pack_events(
        pcs, taken, instrs)


def decode_apply(payload: bytes,
                 ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(ticket, pcs, taken, instrs)`` — arrays are zero-copy
    read-only views into ``payload``."""
    _expect(payload, APPLY, "APPLY", min_len=_APPLY.size)
    _, ticket, n = _APPLY.unpack_from(payload)
    try:
        pcs, taken, instrs = unpack_events(payload, _APPLY.size, n)
    except ValueError as err:
        raise ProtocolError(f"APPLY frame truncated: {err}") from err
    return ticket, pcs, taken, instrs


def encode_apply_result(ticket: int, events: int, correct: int,
                        incorrect: int, last_instr: int,
                        changed_pcs, changed_deployed,
                        transitions=(), apply_seconds: float = 0.0,
                        t_recv: float = 0.0, t_done: float = 0.0,
                        col_fast: int = 0, col_fallback: int = 0,
                        col_single: int = 0) -> bytes:
    """``transitions`` piggybacks the worker's FSM arc firings —
    ``(pc, arc_code, exec_index, instr)`` tuples — and
    ``apply_seconds`` its measured apply latency, so observability
    data rides the result frame instead of needing a side channel.
    ``t_recv``/``t_done`` are the worker's CLOCK_MONOTONIC stamps at
    frame receipt and apply completion (system-wide on Linux, so they
    compare against parent-side stamps); 0.0 when capture is off.
    ``col_fast``/``col_fallback``/``col_single`` report how the
    columnar engine routed the batch's events."""
    pcs = np.asarray(changed_pcs, dtype=np.int64)
    dep = np.asarray(changed_deployed, dtype=np.uint8)
    head = _RESULT.pack(APPLY_RESULT, ticket, events, correct, incorrect,
                        last_instr, len(pcs), len(transitions),
                        col_fast, col_fallback, col_single,
                        apply_seconds, t_recv, t_done)
    body = head + pcs.tobytes() + dep.tobytes()
    if transitions:
        t_pc = np.fromiter((t[0] for t in transitions), dtype=np.int64,
                           count=len(transitions))
        t_arc = np.fromiter((t[1] for t in transitions), dtype=np.uint8,
                            count=len(transitions))
        t_exec = np.fromiter((t[2] for t in transitions), dtype=np.int64,
                             count=len(transitions))
        t_instr = np.fromiter((t[3] for t in transitions), dtype=np.int64,
                              count=len(transitions))
        body += (t_pc.tobytes() + t_arc.tobytes() + t_exec.tobytes()
                 + t_instr.tobytes())
    return body


def decode_apply_result(payload: bytes) -> tuple:
    """Returns ``(ticket, events, correct, incorrect, last_instr,
    changed_pcs, changed_deployed, transitions, apply_seconds,
    t_recv, t_done, col_fast, col_fallback, col_single)``."""
    _expect(payload, APPLY_RESULT, "APPLY_RESULT", min_len=_RESULT.size)
    (_, ticket, events, correct, incorrect, last_instr, n_changed,
     n_trans, col_fast, col_fallback, col_single, apply_seconds,
     t_recv, t_done) = _RESULT.unpack_from(payload)
    off = _RESULT.size
    if len(payload) != off + 9 * n_changed + 25 * n_trans:
        raise ProtocolError("APPLY_RESULT frame length mismatch")
    pcs = np.frombuffer(payload, dtype=np.int64, count=n_changed,
                        offset=off)
    dep = np.frombuffer(payload, dtype=np.uint8, count=n_changed,
                        offset=off + 8 * n_changed)
    transitions: tuple = ()
    if n_trans:
        t_off = off + 9 * n_changed
        t_pc = np.frombuffer(payload, dtype=np.int64, count=n_trans,
                             offset=t_off)
        t_arc = np.frombuffer(payload, dtype=np.uint8, count=n_trans,
                              offset=t_off + 8 * n_trans)
        t_exec = np.frombuffer(payload, dtype=np.int64, count=n_trans,
                               offset=t_off + 9 * n_trans)
        t_instr = np.frombuffer(payload, dtype=np.int64, count=n_trans,
                                offset=t_off + 17 * n_trans)
        transitions = tuple(
            (int(a), int(b), int(c), int(d))
            for a, b, c, d in zip(t_pc, t_arc, t_exec, t_instr))
    return (ticket, events, correct, incorrect, last_instr,
            tuple(int(p) for p in pcs), tuple(bool(d) for d in dep),
            transitions, float(apply_seconds), float(t_recv),
            float(t_done), col_fast, col_fallback, col_single)


# -- tenant frames ----------------------------------------------------------
def encode_tapply(ticket: int, keys: np.ndarray, taken: np.ndarray,
                  instrs: np.ndarray) -> bytes:
    """Like :func:`encode_apply` but with packed int64 tenant keys."""
    return (_TAPPLY.pack(TAPPLY, ticket, len(keys))
            + np.ascontiguousarray(keys, dtype=np.int64).tobytes()
            + np.ascontiguousarray(taken, dtype=np.uint8).tobytes()
            + np.ascontiguousarray(instrs, dtype=np.int64).tobytes())


def decode_tapply(payload: bytes,
                  ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(ticket, keys, taken, instrs)`` — arrays are zero-copy
    read-only views into ``payload``."""
    _expect(payload, TAPPLY, "TAPPLY", min_len=_TAPPLY.size)
    _, ticket, n = _TAPPLY.unpack_from(payload)
    off = _TAPPLY.size
    if len(payload) != off + n * TKEY_EVENT_WIRE_BYTES:
        raise ProtocolError("TAPPLY frame length mismatch")
    keys = np.frombuffer(payload, dtype=np.int64, count=n, offset=off)
    taken = np.frombuffer(payload, dtype=np.uint8, count=n,
                          offset=off + 8 * n).view(np.bool_)
    instrs = np.frombuffer(payload, dtype=np.int64, count=n,
                           offset=off + 9 * n)
    return ticket, keys, taken, instrs


def encode_tspill(ticket: int, tenants: list[int]) -> bytes:
    """Parent → worker: evict one spill group's tenants."""
    return (_TSPILL.pack(TSPILL, ticket, len(tenants))
            + np.asarray(tenants, dtype="<u4").tobytes())


def decode_tspill(payload: bytes) -> tuple[int, list[int]]:
    """Returns ``(ticket, tenants)``."""
    _expect(payload, TSPILL, "TSPILL", min_len=_TSPILL.size)
    _, ticket, n = _TSPILL.unpack_from(payload)
    if len(payload) != _TSPILL.size + 4 * n:
        raise ProtocolError("TSPILL frame length mismatch")
    tenants = np.frombuffer(payload, dtype="<u4", count=n,
                            offset=_TSPILL.size)
    return ticket, tenants.tolist()


def _encode_state_blob(ftype: int, ticket: int, states: list) -> bytes:
    blob = zlib.compress(json.dumps(states, separators=(",", ":"))
                         .encode("utf-8"))
    return _TBLOB.pack(ftype, ticket, len(blob)) + blob


def _decode_state_blob(payload: bytes, ftype: int, name: str,
                       ) -> tuple[int, list]:
    _expect(payload, ftype, name, min_len=_TBLOB.size)
    _, ticket, zlen = _TBLOB.unpack_from(payload)
    if len(payload) != _TBLOB.size + zlen:
        raise ProtocolError(f"{name} frame length mismatch")
    try:
        states = json.loads(zlib.decompress(payload[_TBLOB.size:])
                            .decode("utf-8"))
    except (zlib.error, ValueError) as err:
        raise ProtocolError(f"{name} frame body is not zlib JSON: {err}") \
            from err
    if not isinstance(states, list):
        raise ProtocolError(f"{name} frame body is not a state list")
    return ticket, states


def encode_tspill_result(ticket: int, states: list) -> bytes:
    """Worker → parent: controller states evicted by a TSPILL."""
    return _encode_state_blob(TSPILL_RESULT, ticket, states)


def decode_tspill_result(payload: bytes) -> tuple[int, list]:
    return _decode_state_blob(payload, TSPILL_RESULT, "TSPILL_RESULT")


def encode_trestore(ticket: int, states: list) -> bytes:
    """Parent → worker: controller states to re-intern into the shard."""
    return _encode_state_blob(TRESTORE, ticket, states)


def decode_trestore(payload: bytes) -> tuple[int, list]:
    return _decode_state_blob(payload, TRESTORE, "TRESTORE")


def encode_trestore_ack(ticket: int) -> bytes:
    return _TACK.pack(TRESTORE_ACK, ticket)


def decode_trestore_ack(payload: bytes) -> int:
    _expect(payload, TRESTORE_ACK, "TRESTORE_ACK", exact_len=_TACK.size)
    return _TACK.unpack(payload)[1]


# -- control frames ---------------------------------------------------------
def encode_barrier(ticket: int, ack: bool = False) -> bytes:
    return _BARRIER.pack(BARRIER_ACK if ack else BARRIER, ticket)


def decode_barrier(payload: bytes) -> int:
    if not payload or payload[0] not in (BARRIER, BARRIER_ACK):
        raise ProtocolError("expected BARRIER/BARRIER_ACK frame")
    if len(payload) != _BARRIER.size:
        raise ProtocolError(
            f"BARRIER frame is {len(payload)} bytes, expected "
            f"{_BARRIER.size}")
    return _BARRIER.unpack(payload)[1]


def encode_state_req() -> bytes:
    return bytes([STATE_REQ])


def encode_state(state: dict) -> bytes:
    blob = zlib.compress(json.dumps(state, separators=(",", ":"))
                         .encode("utf-8"))
    return bytes([STATE]) + blob


def decode_state(payload: bytes) -> dict:
    _expect(payload, STATE, "STATE", min_len=2)
    try:
        return json.loads(zlib.decompress(payload[1:]).decode("utf-8"))
    except (zlib.error, ValueError) as err:
        raise ProtocolError(f"STATE frame body is not zlib JSON: {err}") \
            from err


def encode_shutdown() -> bytes:
    return bytes([SHUTDOWN])


def encode_error(message: str) -> bytes:
    return bytes([ERROR]) + message.encode("utf-8", errors="replace")


def decode_error(payload: bytes) -> str:
    _expect(payload, ERROR, "ERROR")
    return payload[1:].decode("utf-8", errors="replace")


# -- transports -------------------------------------------------------------
class PipeTransport:
    """Frames over a ``multiprocessing.Pipe`` duplex connection.

    ``Connection.send_bytes`` delimits messages itself, so no explicit
    length prefix is added.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, payload: bytes) -> None:
        self._conn.send_bytes(payload)

    def recv(self) -> bytes:
        return self._conn.recv_bytes()

    def close(self) -> None:
        self._conn.close()


class SocketTransport:
    """Length-prefixed frames (``<uint32 length><payload>``) over a
    stream socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        sock.settimeout(None)

    def send(self, payload: bytes) -> None:
        self._sock.sendall(_LEN.pack(len(payload)) + payload)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(min(n, 1 << 20))
            if not chunk:
                raise EOFError("socket closed mid-frame")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> bytes:
        header = self._sock.recv(_LEN.size, socket.MSG_WAITALL)
        if len(header) < _LEN.size:
            raise EOFError("socket closed")
        (length,) = _LEN.unpack(header)
        return self._recv_exact(length)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
