"""The binary wire protocol: frame encode/decode and transports."""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.serve import wire
from repro.serve.events import EventBatch, pack_events, unpack_events


def _arrays(n=100, seed=3):
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, 500, n).astype(np.int32)
    taken = rng.uniform(size=n) < 0.5
    instrs = np.cumsum(rng.integers(1, 20, n)).astype(np.int64)
    return pcs, taken, instrs


def test_pack_unpack_events_roundtrip():
    pcs, taken, instrs = _arrays()
    buf = b"prefix!" + pack_events(pcs, taken, instrs)
    out_pcs, out_taken, out_instrs = unpack_events(buf, 7, len(pcs))
    np.testing.assert_array_equal(out_pcs, pcs)
    np.testing.assert_array_equal(out_taken, taken)
    np.testing.assert_array_equal(out_instrs, instrs)


def test_pack_events_accepts_noncontiguous_views():
    pcs, taken, instrs = _arrays(200)
    view = slice(10, 150)
    buf = pack_events(pcs[view], taken[view], instrs[view])
    out = unpack_events(buf, 0, 140)
    np.testing.assert_array_equal(out[0], pcs[view])


def test_unpack_events_rejects_truncation():
    pcs, taken, instrs = _arrays(8)
    buf = pack_events(pcs, taken, instrs)
    with pytest.raises(ValueError, match="truncated"):
        unpack_events(buf[:-1], 0, 8)


def test_event_batch_wire_roundtrip():
    pcs, taken, instrs = _arrays(64)
    batch = EventBatch(seq=17, pcs=pcs, taken=taken, instrs=instrs)
    clone = EventBatch.from_bytes(batch.to_bytes())
    assert clone.seq == 17
    np.testing.assert_array_equal(clone.pcs, batch.pcs)
    np.testing.assert_array_equal(clone.taken, batch.taken)
    np.testing.assert_array_equal(clone.instrs, batch.instrs)
    with pytest.raises(ValueError, match="length mismatch"):
        EventBatch.from_bytes(batch.to_bytes()[:-3])


def test_apply_frame_roundtrip():
    pcs, taken, instrs = _arrays(50)
    frame = wire.encode_apply(42, pcs, taken, instrs)
    ticket, out_pcs, out_taken, out_instrs = wire.decode_apply(frame)
    assert ticket == 42
    np.testing.assert_array_equal(out_pcs, pcs)
    np.testing.assert_array_equal(out_taken, taken)
    np.testing.assert_array_equal(out_instrs, instrs)


def test_apply_result_frame_roundtrip():
    frame = wire.encode_apply_result(
        7, events=1000, correct=800, incorrect=3, last_instr=123456,
        changed_pcs=(5, 9, 1000), changed_deployed=(True, False, True),
        col_fast=900, col_fallback=36, col_single=64)
    out = wire.decode_apply_result(frame)
    assert out == (7, 1000, 800, 3, 123456, (5, 9, 1000),
                   (True, False, True), (), 0.0, 0.0, 0.0, 900, 36, 64, ())
    with pytest.raises(wire.ProtocolError, match="length mismatch"):
        wire.decode_apply_result(frame[:-1])


def test_apply_result_frame_carries_transitions_and_latency():
    transitions = ((5, 0, 100, 12345), (9, 2, 2048, 99999),
                   (1000, 3, 7, -1))
    frame = wire.encode_apply_result(
        8, events=64, correct=50, incorrect=2, last_instr=777,
        changed_pcs=(5,), changed_deployed=(True,),
        transitions=transitions, apply_seconds=0.0125,
        t_recv=100.5, t_done=100.75)
    (ticket, events, correct, incorrect, last_instr, changed,
     deployed, out_trans, apply_seconds, t_recv,
     t_done, col_fast, col_fallback, col_single, tte) = \
        wire.decode_apply_result(frame)
    assert (ticket, events, correct, incorrect, last_instr) == (
        8, 64, 50, 2, 777)
    assert changed == (5,) and deployed == (True,)
    assert out_trans == transitions
    assert apply_seconds == pytest.approx(0.0125)
    # The worker-side monotonic stamps ride along so the parent can
    # attribute wire_out / wire_back span stages.
    assert t_recv == pytest.approx(100.5)
    assert t_done == pytest.approx(100.75)
    # Columnar routing counters and tte samples default to empty.
    assert (col_fast, col_fallback, col_single) == (0, 0, 0)
    assert tte == ()
    with pytest.raises(wire.ProtocolError, match="length mismatch"):
        wire.decode_apply_result(frame[:-1])


def test_apply_result_frame_carries_time_to_evict():
    tte = ((5, 9), ((7 << 32) | 3, 1 << 40), (11, 0))
    frame = wire.encode_apply_result(
        9, events=32, correct=30, incorrect=2, last_instr=640,
        changed_pcs=(5,), changed_deployed=(False,),
        transitions=((5, 2, 100, 640),), tte=tte)
    out = wire.decode_apply_result(frame)
    assert out[7] == ((5, 2, 100, 640),)
    assert out[-1] == tte
    with pytest.raises(wire.ProtocolError, match="length mismatch"):
        wire.decode_apply_result(frame[:-8])            # half a pair
    with pytest.raises(wire.ProtocolError, match="length mismatch"):
        wire.decode_apply_result(frame + bytes(16))     # an extra pair


def test_tapply_frame_roundtrip_with_packed_keys():
    """TAPPLY is APPLY with int64 (tenant << 32) | pc keys."""
    pcs, taken, instrs = _arrays(50)
    keys = pcs.astype(np.int64) | (np.int64(9) << 32)
    frame = wire.encode_tapply(42, keys, taken, instrs)
    ticket, out_keys, out_taken, out_instrs = wire.decode_tapply(frame)
    assert ticket == 42
    assert out_keys.dtype == np.int64
    np.testing.assert_array_equal(out_keys, keys)
    np.testing.assert_array_equal(out_taken, taken)
    np.testing.assert_array_equal(out_instrs, instrs)


def test_tenant_control_frames_roundtrip():
    assert wire.decode_tspill(wire.encode_tspill(7, [12345])) == (7, [12345])
    states = [{"branch": (9 << 32) | 5, "deployed": True},
              {"branch": (9 << 32) | 6, "deployed": False}]
    assert wire.decode_tspill_result(
        wire.encode_tspill_result(8, states)) == (8, states)
    assert wire.decode_trestore(
        wire.encode_trestore(9, states)) == (9, states)
    assert wire.decode_trestore_ack(wire.encode_trestore_ack(10)) == 10


def test_tspill_carries_a_spill_group():
    """One TSPILL frame names every tenant of a spill group, in order."""
    group = [5, 1, (1 << 31) - 1, 0, 77]
    frame = wire.encode_tspill(11, group)
    assert wire.decode_tspill(frame) == (11, group)
    assert wire.decode_tspill(wire.encode_tspill(12, [])) == (12, [])
    for cut in range(1, len(frame)):
        with pytest.raises(wire.ProtocolError, match="TSPILL"):
            wire.decode_tspill(frame[:cut])
    # A count field disagreeing with the body is refused both ways.
    with pytest.raises(wire.ProtocolError, match="TSPILL"):
        wire.decode_tspill(frame + b"\x00" * 4)
    with pytest.raises(wire.ProtocolError, match="TSPILL"):
        wire.decode_tspill(wire.encode_tspill(13, group)[:-4])


def test_tenant_blob_decoders_reject_non_list_bodies():
    import json
    import zlib

    blob = zlib.compress(json.dumps({"not": "a list"}).encode())
    frame = (bytes([wire.TRESTORE])
             + wire.encode_trestore(1, [])[1:9]
             + len(blob).to_bytes(4, "little") + blob)
    with pytest.raises(wire.ProtocolError, match="not a state list"):
        wire.decode_trestore(frame)


def test_load_and_state_frames_roundtrip():
    state = {"index": 2, "bank": [{"branch": 7, "state": "biased"}],
             "events_applied": 99}
    assert wire.decode_load(wire.encode_load(state)) == state
    assert wire.decode_load(wire.encode_load(None)) is None
    assert wire.decode_state(wire.encode_state(state)) == state


def test_control_frames():
    assert wire.decode_hello(wire.encode_hello(3, 4242)) == (3, 4242)
    assert wire.decode_barrier(wire.encode_barrier(9)) == 9
    ack = wire.encode_barrier(9, ack=True)
    assert wire.frame_type(ack) == wire.BARRIER_ACK
    assert wire.decode_barrier(ack) == 9
    assert wire.frame_type(wire.encode_shutdown()) == wire.SHUTDOWN
    assert wire.decode_error(wire.encode_error("boom")) == "boom"


def test_frame_type_mismatch_raises():
    with pytest.raises(wire.ProtocolError, match="expected HELLO"):
        wire.decode_hello(wire.encode_shutdown())
    with pytest.raises(wire.ProtocolError, match="empty"):
        wire.frame_type(b"")


def test_socket_transport_length_prefixed_frames():
    """Frames survive a real socket, including ones larger than any
    single recv and back-to-back small ones."""
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    left, right = wire.SocketTransport(a), wire.SocketTransport(b)
    big = bytes([wire.APPLY]) + bytes(3_000_000)
    frames = [wire.encode_hello(1, 2), big, wire.encode_shutdown()]

    received = []

    def reader():
        for _ in frames:
            received.append(right.recv())

    thread = threading.Thread(target=reader)
    thread.start()
    for frame in frames:
        left.send(frame)
    thread.join(timeout=10)
    assert received == frames
    left.close()
    with pytest.raises((EOFError, OSError)):
        right.recv()
    right.close()


def test_every_decoder_rejects_malformed_frames():
    """Socket bytes are attacker-adjacent: every decoder must fail
    with ProtocolError — never a bare struct.error or IndexError —
    on empty, truncated, oversized, or mistyped payloads."""
    pcs, taken, instrs = _arrays(16)
    state = {"index": 1, "bank": []}
    # (decoder, valid frame, name, every-truncation-fails,
    #  trailing-bytes-fail) — ERROR carries a free-form message, so a
    # bare type byte or extra bytes are legitimate for it; APPLY's body
    # length is derived from its count field, so only shortfalls fail.
    cases = [
        (wire.decode_load, wire.encode_load(state), "LOAD", True, True),
        (wire.decode_hello, wire.encode_hello(1, 99), "HELLO",
         True, True),
        (wire.decode_apply, wire.encode_apply(3, pcs, taken, instrs),
         "APPLY", True, False),
        (wire.decode_apply_result,
         wire.encode_apply_result(1, events=16, correct=9, incorrect=1,
                                  last_instr=64, changed_pcs=(5,),
                                  changed_deployed=(True,)),
         "APPLY_RESULT", True, True),
        # ... and with transition and time-to-evict sections, so cuts
        # land inside the tte pairs and trailing bytes overrun them.
        (wire.decode_apply_result,
         wire.encode_apply_result(2, events=16, correct=9, incorrect=1,
                                  last_instr=64, changed_pcs=(5,),
                                  changed_deployed=(True,),
                                  transitions=((5, 2, 15, 64),),
                                  tte=((5, 3), (6, 4))),
         "APPLY_RESULT", True, True),
        (wire.decode_barrier, wire.encode_barrier(4), "BARRIER",
         True, True),
        (wire.decode_state, wire.encode_state(state), "STATE",
         True, False),
        (wire.decode_error, wire.encode_error("x"), "ERROR",
         False, False),
        (wire.decode_tapply,
         wire.encode_tapply(3, pcs.astype(np.int64), taken, instrs),
         "TAPPLY", True, True),
        (wire.decode_tspill, wire.encode_tspill(4, [77, 3, 9]), "TSPILL",
         True, True),
        (wire.decode_tspill_result,
         wire.encode_tspill_result(5, [{"branch": 1}]),
         "TSPILL_RESULT", True, True),
        (wire.decode_trestore,
         wire.encode_trestore(6, [{"branch": 1}]),
         "TRESTORE", True, True),
        (wire.decode_trestore_ack, wire.encode_trestore_ack(7),
         "TRESTORE_ACK", True, True),
    ]
    for decode, frame, name, cuts_fail, trailing_fails in cases:
        with pytest.raises(wire.ProtocolError):
            decode(b"")
        with pytest.raises(wire.ProtocolError):
            decode(bytes([0x7F]) + frame[1:])  # foreign type byte
        if cuts_fail:
            for cut in range(1, len(frame)):
                with pytest.raises(wire.ProtocolError, match=name):
                    decode(frame[:cut])
        if trailing_fails:
            with pytest.raises(wire.ProtocolError, match=name):
                decode(frame + b"\x00")


def test_zlib_body_decoders_reject_garbage():
    blob = bytes([wire.STATE]) + b"\xde\xad\xbe\xef"
    with pytest.raises(wire.ProtocolError, match="not zlib JSON"):
        wire.decode_state(blob)
    bad_load = wire.encode_load({"k": 1})
    bad_load = bad_load[:6] + b"\xff" * (len(bad_load) - 6)
    with pytest.raises(wire.ProtocolError, match="not zlib JSON"):
        wire.decode_load(bad_load)


def test_decode_load_none_roundtrip():
    assert wire.decode_load(wire.encode_load(None)) is None


class _ScriptedSocket:
    """A socket stand-in that returns recv() chunks from a script.

    Lets the transport tests pin down exact short-read and mid-frame
    EOF behaviour without racing a real peer.
    """

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def recv(self, n, flags=0):
        if not self._chunks:
            return b""
        if flags & socket.MSG_WAITALL:
            # Kernel semantics: block until n bytes or EOF, whichever
            # comes first.
            out = b""
            while len(out) < n and self._chunks:
                out += self._chunks.pop(0)
            if len(out) > n:
                self._chunks.insert(0, out[n:])
            return out[:n]
        chunk = self._chunks.pop(0)
        if len(chunk) > n:
            self._chunks.insert(0, chunk[n:])
        return chunk[:n]

    def settimeout(self, value):
        pass


def _framed(payload: bytes) -> bytes:
    import struct

    return struct.pack("<I", len(payload)) + payload


def test_recv_exact_reassembles_short_reads():
    """recv() returning one byte at a time must still yield the whole
    frame — TCP guarantees nothing about read boundaries."""
    frame = wire.encode_hello(7, 4242)
    stream = _framed(frame)
    transport = wire.SocketTransport(
        _ScriptedSocket([stream[i:i + 1] for i in range(len(stream))]))
    assert transport.recv() == frame


def test_recv_eof_before_any_frame():
    transport = wire.SocketTransport(_ScriptedSocket([]))
    with pytest.raises(EOFError, match="socket closed"):
        transport.recv()


def test_recv_eof_mid_header():
    # Two of the four length-prefix bytes arrive, then the peer dies.
    transport = wire.SocketTransport(_ScriptedSocket([b"\x10\x00"]))
    with pytest.raises(EOFError, match="socket closed"):
        transport.recv()


def test_recv_eof_mid_payload():
    frame = wire.encode_hello(7, 4242)
    stream = _framed(frame)[:-3]  # header + partial payload, then EOF
    transport = wire.SocketTransport(
        _ScriptedSocket([stream[:4], stream[4:]]))
    with pytest.raises(EOFError, match="mid-frame"):
        transport.recv()
