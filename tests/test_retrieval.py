from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
import socket
import struct
import threading
import time
import tracemalloc

import pytest
from cryptography.hazmat.primitives.asymmetric import ec, rsa
from cryptography.hazmat.primitives.serialization import Encoding

from conftest import (
    ROOT_SECRET,
    build_replayed_store,
    build_store,
    fill_store,
    make_certificate,
)
from sealog.collector import reassemble_entries
from sealog.errors import (
    AuthFailure,
    ChannelClosed,
    NegotiationFailure,
    ParseError,
    StorageError,
)
from sealog.identity import DeviceIdentity
from sealog.keyschedule import RootLoggingKey
from sealog.logchain import FINDING_HISTORY_MISMATCH, FINDING_TRUNCATION, LogRecord
from sealog.sealstore import STATE_FILE, SealedStore, verify_store
from sealog import logchain, retrieval
from sealog.retrieval import (
    FRAME_DATA,
    FRAME_HELLO,
    FrameTransport,
    LogExportServer,
    RetrievalRequest,
    audit,
    client_handshake,
    fetch,
    load_archive,
    receive_transfer,
    save_archive,
    server_handshake,
    serve_range,
)


class TapSocket:
    """Socket proxy that records every byte crossing the wire."""

    def __init__(self, sock, log: bytearray):
        self._sock = sock
        self._log = log

    def sendall(self, data):
        self._log.extend(data)
        return self._sock.sendall(data)

    def recv(self, n):
        data = self._sock.recv(n)
        self._log.extend(data)
        return data

    def close(self):
        self._sock.close()


_open_pairs: list[socket.socket] = []


def _pair():
    pair = socket.socketpair()
    _open_pairs.extend(pair)
    return pair


@pytest.fixture(autouse=True)
def _close_pairs():
    """Close every socket ``_pair`` made once its test is done with it: the
    helpers hand out sessions over them, so they cannot close them earlier."""
    yield
    while _open_pairs:
        _open_pairs.pop().close()


def _handshake_pair(
    device,
    verifier,
    device_anchors,
    verifier_anchors,
    tap: bytearray | None = None,
    client_evidence: bytes = b"",
    **server_kwargs,
):
    """Run both handshake halves over a socketpair; returns both sessions."""
    a, b = _pair()
    sock_a = TapSocket(a, tap) if tap is not None else a
    results = {}

    def run_server():
        try:
            results["server"] = server_handshake(
                device, device_anchors, FrameTransport(sock_a), **server_kwargs
            )
        except Exception as exc:
            results["server_error"] = exc

    thread = threading.Thread(target=run_server)
    thread.start()
    try:
        results["client"] = client_handshake(
            verifier, verifier_anchors, FrameTransport(b), evidence=client_evidence
        )
    except Exception as exc:
        results["client_error"] = exc
    thread.join()
    return results


@pytest.fixture
def endpoints():
    device = DeviceIdentity.generate()
    verifier = DeviceIdentity.generate()
    return device, verifier


def test_handshake_mutual_success(endpoints):
    device, verifier = endpoints
    results = _handshake_pair(device, verifier, [verifier.certificate], [device.certificate])
    assert "client" in results and "server" in results
    assert results["client"].peer_device_id == device.device_id
    assert results["server"].peer_device_id == verifier.device_id


def test_handshake_rejects_unanchored_verifier(endpoints):
    device, verifier = endpoints
    stranger = DeviceIdentity.generate()
    results = _handshake_pair(device, verifier, [stranger.certificate], [device.certificate])
    assert isinstance(results.get("server_error"), AuthFailure)
    assert isinstance(results.get("client_error"), (AuthFailure, ChannelClosed, ParseError))


def test_handshake_rejects_unanchored_device(endpoints):
    device, verifier = endpoints
    stranger = DeviceIdentity.generate()
    results = _handshake_pair(device, verifier, [verifier.certificate], [stranger.certificate])
    assert isinstance(results.get("client_error"), AuthFailure)


def test_handshake_version_mismatch(endpoints):
    device, verifier = endpoints
    a, b = _pair()
    errors: list = []

    def run_server():
        try:
            server_handshake(device, [verifier.certificate], FrameTransport(a))
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=run_server)
    thread.start()
    # Craft a hello that speaks a future protocol version.
    hello, _eph = retrieval._make_hello(verifier, retrieval.ROLE_VERIFIER, b"")
    hello.version = 99
    transport = FrameTransport(b)
    transport.send_frame(FRAME_HELLO, hello.pack())
    with pytest.raises((NegotiationFailure, ChannelClosed)):
        retrieval._expect_frame(transport, FRAME_HELLO)
    thread.join()
    assert errors and isinstance(errors[0], NegotiationFailure)


def test_attestation_policy_reject(endpoints):
    device, verifier = endpoints
    results = _handshake_pair(
        device,
        verifier,
        [verifier.certificate],
        [device.certificate],
        attestation_policy=lambda evidence, role, device_id: False,
    )
    assert isinstance(results.get("server_error"), AuthFailure)


def test_hello_evidence_as_long_as_a_hello_frame_allows_still_handshakes(endpoints):
    device, verifier = endpoints
    evidence = os.urandom(60 * 1024)
    results = _handshake_pair(
        device,
        verifier,
        [verifier.certificate],
        [device.certificate],
        client_evidence=evidence,
        attestation_policy=lambda got, role, device_id: got == evidence,
    )
    assert "client" in results and "server" in results


def _frames(wire: bytes) -> list[bytes]:
    """Split recorded wire bytes into whole frames, header included."""
    frames, offset = [], 0
    while offset < len(wire):
        (length,) = struct.unpack_from(">I", wire, offset)
        frames.append(bytes(wire[offset : offset + 4 + length]))
        offset += 4 + length
    return frames


def test_hello_replay_detected(endpoints):
    device, verifier = endpoints

    # Record a legitimate handshake as the server's socket sees it: client
    # hello, server hello, client AUTH, server AUTH.
    recorded = bytearray()
    results = _handshake_pair(
        device, verifier, [verifier.certificate], [device.certificate], tap=recorded
    )
    assert "server" in results
    client_hello, _server_hello, client_auth, _server_auth = _frames(recorded)
    assert client_hello[4] == FRAME_HELLO and client_auth[4] == retrieval.FRAME_AUTH

    # Replay the client's hello and AUTH verbatim at a fresh server handshake.
    a, b = _pair()
    errors: list = []

    def run_server():
        try:
            server_handshake(device, [verifier.certificate], FrameTransport(a))
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=run_server)
    thread.start()
    b.settimeout(10)
    replayer = FrameTransport(b)
    b.sendall(client_hello)
    assert replayer.recv_frame()[0] == FRAME_HELLO  # a fresh server hello
    b.sendall(client_auth)
    frame_type, payload = replayer.recv_frame()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert (frame_type, payload[0]) == (retrieval.FRAME_ABORT, retrieval.ABORT_AUTH)
    assert len(errors) == 1 and isinstance(errors[0], AuthFailure)
    assert str(errors[0]) == "peer transcript signature invalid"


def test_an_abort_with_the_retired_replay_code_is_an_auth_failure(endpoints):
    device, verifier = endpoints
    a, b = _pair()
    # What an older server sends for a hello nonce it has seen: code 3.
    FrameTransport(a).send_frame(retrieval.FRAME_ABORT, bytes([3]) + b"hello nonce already seen")
    with pytest.raises(AuthFailure, match="peer aborted: hello nonce already seen"):
        client_handshake(verifier, [device.certificate], FrameTransport(b))


def test_session_frame_replay_detected(endpoints):
    device, verifier = endpoints
    results = _handshake_pair(device, verifier, [verifier.certificate], [device.certificate])
    client, server = results["client"], results["server"]

    # Capture the client's encrypted frames, then deliver them in any order.
    raw_a, raw_b = _pair()
    client._transport = FrameTransport(raw_b)
    server._transport = FrameTransport(raw_a)

    def captured(msg_type, body):
        client.send_message(msg_type, body)
        (length,) = struct.unpack(">I", raw_a.recv(4, socket.MSG_PEEK))
        frame = raw_a.recv(4 + length)
        assert frame[4] == FRAME_DATA
        return frame

    first, second, third = (captured(0x42, body) for body in (b"ping", b"pong", b"pang"))
    raw_b.sendall(first)  # feed the frames straight back to the server side
    assert server.recv_message() == (0x42, b"ping")
    raw_b.sendall(first)  # replayed
    with pytest.raises(AuthFailure, match="frame sequence 0 out of order, expected 1"):
        server.recv_message()
    raw_b.sendall(third)  # skipped ahead
    with pytest.raises(AuthFailure, match="frame sequence 2 out of order, expected 1"):
        server.recv_message()
    raw_b.sendall(second)  # the refusals consumed no sequence number
    assert server.recv_message() == (0x42, b"pong")


def _serving_store(tmp_path, n_entries=40, c=2, m=4):
    store = build_store(tmp_path / "store", c=c, m=m)
    fill_store(store, n_entries)
    return store


def test_serve_range_subset_and_summary(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0, end=4)
        result = fetch(
            "127.0.0.1",
            server.address[1],
            verifier,
            [store.identity().certificate],
            request,
        )
    finally:
        server.close()
    assert [b.block_id for b in result.blocks] == [0, 1, 2, 3, 4]
    assert result.summary.count == 5
    assert result.summary.state.latest_block_id == 9


def test_serve_range_clamped(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=8, end=20)
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()
    assert [b.block_id for b in result.blocks] == [8, 9]
    assert result.summary.clamped
    assert "clamped" in result.summary.notice


def test_corrupted_block_raises_integrity_alarm(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    raw = bytearray(store.block_path(6).read_bytes())
    raw[40] ^= 0x01
    store.block_path(6).write_bytes(bytes(raw))

    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0, end=None)
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()
    # blocks before the alarm were delivered and stay valid
    assert [b.block_id for b in result.blocks] == [0, 1, 2, 3, 4, 5]
    assert result.alarms and result.alarms[0]["block_id"] == 6
    report = audit(result, store.identity().certificate)
    assert report.verdict == "fail"
    assert any("integrity-alarm" in f for f in report.findings)


def test_end_to_end_blocks_hash_identical(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path, n_entries=80, c=2, m=4)  # 20 blocks
    committed_hashes = [
        hashlib.sha256(block.serialize()).hexdigest()
        for _, block, _ in store.iter_committed_blocks()
    ]
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0)
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()
    assert [
        hashlib.sha256(block.serialize()).hexdigest() for block in result.blocks
    ] == committed_hashes
    report = audit(result, store.identity().certificate, rlk=store.root_logging_key())
    assert report.verdict == "ok"


def test_wiretap_never_sees_plaintext(tmp_path, endpoints):
    _device, verifier = endpoints
    canary = b"WIRETAP-CANARY-this-must-stay-encrypted"
    store = build_store(tmp_path / "store", c=2, m=4)
    fill_store(store, 16, body=lambda i: canary + str(i).encode())
    device_identity = store.identity()

    tap = bytearray()
    results = _handshake_pair(
        device_identity,
        verifier,
        [verifier.certificate],
        [device_identity.certificate],
        tap=tap,
    )
    server_session, client_session = results["server"], results["client"]

    request = RetrievalRequest(store.manifest.device_id, start=0)
    done = threading.Event()

    def run_device():
        serve_range(server_session, store, request)
        done.set()

    thread = threading.Thread(target=run_device)
    thread.start()
    result = receive_transfer(client_session, request)
    thread.join()
    assert done.is_set()
    assert len(result.blocks) == 4
    assert canary not in bytes(tap)
    assert any(canary in rec.text for block in result.blocks for rec in block.records)


def test_dishonest_server_truncation_detected(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks, state says latest=9
    device_identity = store.identity()

    results = _handshake_pair(
        device_identity,
        verifier,
        [verifier.certificate],
        [device_identity.certificate],
    )
    server_session, client_session = results["server"], results["client"]
    request = RetrievalRequest(store.manifest.device_id, start=0)

    def dishonest_device():
        # serves only blocks 0..7 but must present the signed state
        for block_id in range(8):
            server_session.send_message(
                retrieval.MSG_BLOCK, store.load_block(block_id).serialize()
            )
        state, sig = store.signed_state_snapshot(store.state)
        summary = retrieval.TransferSummary(
            device_id=store.manifest.device_id,
            params=store.params,
            state=state,
            state_signature=sig,
            count=8,
            range_start=0,
            range_end=7,
        )
        server_session.send_message(retrieval.MSG_SUMMARY, summary.to_json())

    thread = threading.Thread(target=dishonest_device)
    thread.start()
    result = receive_transfer(client_session, request)
    thread.join()
    report = audit(result, device_identity.certificate)
    assert report.verdict == "fail"
    assert any(FINDING_TRUNCATION in f for f in report.findings)


def test_fetched_pre_crash_blocks_put_back_over_committed_ones_are_detected(
    tmp_path, endpoints
):
    _device, verifier = endpoints
    store = build_replayed_store(tmp_path / "store")
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0)
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()
    assert [b.block_id for b in result.blocks] == [0, 1, 2, 3]
    certificate = store.identity().certificate
    for rlk in (None, store.root_logging_key()):
        report = audit(result, certificate, rlk=rlk)
        assert [e.status for e in report.entries] == ["ok"] * 4
        assert report.findings == [
            f"{FINDING_HISTORY_MISMATCH}: blocks 0..3 are not the ones the chain state commits"
        ]
        assert report.verdict == "fail"


def test_single_block_poll_before_latest_audits_ok(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks, state says latest=9
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=3, end=3)
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()
    assert [b.block_id for b in result.blocks] == [3]
    report = audit(result, store.identity().certificate)
    assert report.verdict == "ok"
    assert report.findings == []


@pytest.mark.parametrize("end", [4, 9])
def test_dishonest_server_truncating_a_bounded_request_detected(tmp_path, endpoints, end):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks, state says latest=9
    device_identity = store.identity()
    results = _handshake_pair(
        device_identity,
        verifier,
        [verifier.certificate],
        [device_identity.certificate],
    )
    server_session, client_session = results["server"], results["client"]
    request = RetrievalRequest(store.manifest.device_id, start=0, end=end)

    def dishonest_device():
        # serves blocks 0..end-1 of the requested 0..end, with the signed state
        for block_id in range(end):
            server_session.send_message(
                retrieval.MSG_BLOCK, store.load_block(block_id).serialize()
            )
        state, sig = store.signed_state_snapshot(store.state)
        summary = retrieval.TransferSummary(
            device_id=store.manifest.device_id,
            params=store.params,
            state=state,
            state_signature=sig,
            count=end,
            range_start=0,
            range_end=end - 1,
        )
        server_session.send_message(retrieval.MSG_SUMMARY, summary.to_json())

    thread = threading.Thread(target=dishonest_device)
    thread.start()
    result = receive_transfer(client_session, request)
    thread.join()
    report = audit(result, device_identity.certificate)
    assert report.verdict == "fail"
    assert any(FINDING_TRUNCATION in f for f in report.findings)


def test_poll_past_newest_block_audits_ok(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks, state says latest=9
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=10)
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()
    assert result.blocks == [] and result.summary.count == 0
    for rlk in (None, store.root_logging_key()):
        report = audit(result, store.identity().certificate, rlk=rlk)
        assert report.verdict == "ok"
        assert report.findings == []


def test_dishonest_server_sending_nothing_for_due_blocks_detected(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks, state says latest=9
    device_identity = store.identity()
    results = _handshake_pair(
        device_identity,
        verifier,
        [verifier.certificate],
        [device_identity.certificate],
    )
    server_session, client_session = results["server"], results["client"]
    request = RetrievalRequest(store.manifest.device_id, start=8)

    def dishonest_device():
        # blocks 8 and 9 are due; sends none of them, with the signed state
        state, sig = store.signed_state_snapshot(store.state)
        summary = retrieval.TransferSummary(
            device_id=store.manifest.device_id,
            params=store.params,
            state=state,
            state_signature=sig,
            count=0,
            range_start=8,
            range_end=None,
        )
        server_session.send_message(retrieval.MSG_SUMMARY, summary.to_json())

    thread = threading.Thread(target=dishonest_device)
    thread.start()
    result = receive_transfer(client_session, request)
    thread.join()
    report = audit(result, device_identity.certificate)
    assert report.verdict == "fail"
    assert any(FINDING_TRUNCATION in f for f in report.findings)


def test_forged_state_signature_detected(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    device_identity = store.identity()
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0)
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [device_identity.certificate], request
        )
    finally:
        server.close()
    result.summary.state_signature = bytes(64)
    report = audit(result, device_identity.certificate)
    assert "state-signature-invalid" in report.findings
    assert report.verdict == "fail"


def test_full_audit_with_wrong_rlk_flags_key_mismatch(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0, mode="full")
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()
    report = audit(
        result,
        store.identity().certificate,
        rlk=RootLoggingKey(b"\xee" * 32),
        params=store.params,
    )
    assert report.verdict == "fail"
    assert all(e.status == "bad-hmac" for e in report.entries)
    assert any("wholesale-key-mismatch" in f for f in report.findings)


def test_public_audit_notes_unverified_hmacs(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0)
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()
    report = audit(result, store.identity().certificate)
    assert report.verdict == "ok"
    assert any("hmac-unverified" in note for note in report.notes)


def test_archive_roundtrip(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0)
        result = fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()
    path = tmp_path / "corpus.archive"
    save_archive(path, result, store.identity().certificate_pem())
    loaded, cert = load_archive(path)
    assert [b.block_id for b in loaded.blocks] == [b.block_id for b in result.blocks]
    report = audit(loaded, cert)
    assert report.verdict == "ok"


def test_request_validation():
    with pytest.raises(Exception):
        RetrievalRequest(b"\x00" * 16, start=5, end=2)
    with pytest.raises(Exception):
        RetrievalRequest(b"\x00" * 16, start=0, end=1, mode="superuser")


def test_inverted_range_request_does_not_kill_the_server(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks
    device_cert = store.identity().certificate
    server = LogExportServer(store, [verifier.certificate], port=0)
    thread = server.start()

    def session():
        sock = socket.create_connection(("127.0.0.1", server.address[1]), timeout=5)
        return sock, client_handshake(verifier, [device_cert], FrameTransport(sock))

    try:
        sock, bad = session()
        with sock:
            # RetrievalRequest refuses to build this range, so pack it by hand.
            body = store.manifest.device_id + struct.pack(">IIB", 5, 2, retrieval.MODE_PUBLIC)
            bad.send_message(retrieval.MSG_REQUEST, body)
            with pytest.raises(ChannelClosed):
                bad.recv_message()
        sock, good = session()
        with sock:
            result = receive_transfer(good, RetrievalRequest(store.manifest.device_id, start=0))
        assert thread.is_alive()
    finally:
        server.close()
    assert [b.block_id for b in result.blocks] == list(range(10))
    assert audit(result, device_cert).verdict == "ok"


def test_handle_one_after_close_stops_instead_of_raising(tmp_path, endpoints):
    _device, verifier = endpoints
    server = LogExportServer(_serving_store(tmp_path), [verifier.certificate], port=0)
    server.close()
    assert server.handle_one(timeout=0.1) is False


def test_peer_reset_during_transfer_does_not_kill_the_server(tmp_path, endpoints, caplog):
    _device, verifier = endpoints
    store = _serving_store(tmp_path, n_entries=20_000, c=10, m=100)  # 200 blocks
    device_cert = store.identity().certificate
    server = LogExportServer(store, [verifier.certificate], port=0)
    thread = server.start()

    def session():
        sock = socket.create_connection(("127.0.0.1", server.address[1]), timeout=5)
        return sock, client_handshake(verifier, [device_cert], FrameTransport(sock))

    try:
        with caplog.at_level(logging.WARNING, logger="sealog.retrieval"):
            sock, rude = session()
            with sock:
                rude.send_message(
                    retrieval.MSG_REQUEST, RetrievalRequest(store.manifest.device_id, 0).pack()
                )
                time.sleep(0.2)
                # Close with an RST while the server is still sending.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock, good = session()
            with sock:
                result = receive_transfer(good, RetrievalRequest(store.manifest.device_id, 0))
        assert thread.is_alive()
    finally:
        server.close()
    assert [b.block_id for b in result.blocks] == list(range(200))
    assert audit(result, device_cert).verdict == "ok"
    resets = [r for r in caplog.records if r.name == "sealog.retrieval"]
    assert any(
        "ConnectionResetError" in r.getMessage() or "BrokenPipeError" in r.getMessage()
        for r in resets
    )


def test_store_without_state_does_not_kill_the_server(tmp_path, endpoints, caplog):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks
    device_cert = store.identity().certificate
    server = LogExportServer(store, [verifier.certificate], port=0)
    thread = server.start()
    request = RetrievalRequest(store.manifest.device_id, start=0)

    def transfer():
        with socket.create_connection(("127.0.0.1", server.address[1]), timeout=5) as sock:
            return receive_transfer(
                client_handshake(verifier, [device_cert], FrameTransport(sock)), request
            )

    try:
        with caplog.at_level(logging.WARNING, logger="sealog.retrieval"):
            state_file = store.directory / STATE_FILE
            state_file.rename(store.directory / "state.away")
            refused = transfer()
            (store.directory / "state.away").rename(state_file)
            result = transfer()
        assert thread.is_alive()
    finally:
        server.close()
    assert refused.summary is None and refused.blocks == []
    assert [b.block_id for b in result.blocks] == list(range(10))
    assert any("StorageError" in r.getMessage() for r in caplog.records)


def test_storage_error_does_not_kill_the_server(tmp_path, endpoints, caplog, monkeypatch):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks
    device_cert = store.identity().certificate
    server = LogExportServer(store, [verifier.certificate], port=0)
    thread = server.start()
    request = RetrievalRequest(store.manifest.device_id, start=0)

    def disk_full(block_id):
        raise StorageError("failed writing state.seal: [Errno 28] No space left on device")

    try:
        with caplog.at_level(logging.WARNING, logger="sealog.retrieval"):
            monkeypatch.setattr(store, "mark_delivered", disk_full)
            failed = fetch("127.0.0.1", server.address[1], verifier, [device_cert], request)
            monkeypatch.undo()
            result = fetch("127.0.0.1", server.address[1], verifier, [device_cert], request)
        assert thread.is_alive()
    finally:
        server.close()
    assert failed.summary is None
    assert [b.block_id for b in result.blocks] == list(range(10))
    assert audit(result, device_cert).verdict == "ok"
    assert any("StorageError" in r.getMessage() for r in caplog.records)


def test_fetch_from_a_listener_that_never_accepts_times_out(endpoints, monkeypatch):
    monkeypatch.setattr(retrieval, "SESSION_TIMEOUT", 0.3)
    device, verifier = endpoints
    request = RetrievalRequest(device.device_id, start=0)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            fetch("127.0.0.1", listener.getsockname()[1], verifier, [device.certificate], request)
    assert time.monotonic() - start < 5


def _drip(sock, stop):
    """A peer that trickles a frame header one byte at a time, never
    finishing it: each read sees data well within any per-read timeout."""
    sock.sendall(struct.pack(">I", 1000))
    while not stop.is_set():
        try:
            sock.sendall(b"\x01")
        except OSError:
            return
        stop.wait(0.05)


@pytest.mark.parametrize("peer", ["silent", "dripping"])
def test_stalled_peer_cannot_hold_the_server_past_the_session_deadline(
    tmp_path, endpoints, caplog, monkeypatch, peer
):
    monkeypatch.setattr(retrieval, "SESSION_TIMEOUT", 0.5)
    margin = 3.0
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks
    device_cert = store.identity().certificate
    server = LogExportServer(store, [verifier.certificate], port=0)
    thread = server.start()
    address = ("127.0.0.1", server.address[1])
    request = RetrievalRequest(store.manifest.device_id, start=0, end=2)
    stop = threading.Event()
    try:
        with caplog.at_level(logging.WARNING, logger="sealog.retrieval"):
            with socket.create_connection(address) as stalled:
                if peer == "dripping":
                    threading.Thread(target=_drip, args=(stalled, stop), daemon=True).start()
                time.sleep(0.1)  # the server has accepted it by now
                start = time.monotonic()
                # The fetch gives up (failing the test) if the server is
                # still held once the deadline and the margin have passed.
                with socket.create_connection(
                    address, timeout=retrieval.SESSION_TIMEOUT + margin
                ) as sock:
                    session = client_handshake(verifier, [device_cert], FrameTransport(sock))
                    result = receive_transfer(session, request)
                elapsed = time.monotonic() - start
                stop.set()
        assert thread.is_alive()
    finally:
        stop.set()
        server.close()
    assert elapsed < retrieval.SESSION_TIMEOUT + margin
    assert [b.block_id for b in result.blocks] == [0, 1, 2]
    assert audit(result, device_cert).verdict == "ok"
    assert any(
        r.name == "sealog.retrieval" and "TimeoutError" in r.getMessage() for r in caplog.records
    )


def test_an_oversized_hello_costs_the_server_only_the_bytes_sent(tmp_path, endpoints, caplog):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    server = LogExportServer(store, [verifier.certificate], port=0)
    # A frame header declaring the largest frame, then 148 KB, then close.
    sent = struct.pack(">IB", retrieval.MAX_FRAME_LEN, retrieval.FRAME_HELLO) + b"\x00" * 148_000

    def session(data):
        """The server's heap peak while it serves a peer that sends ``data``."""
        def peer():
            with socket.create_connection(("127.0.0.1", server.address[1])) as sock:
                sock.sendall(data)

        thread = threading.Thread(target=peer)
        tracemalloc.start()
        try:
            thread.start()
            assert server.handle_one(timeout=10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            thread.join(timeout=10)
            assert not thread.is_alive()

    try:
        with caplog.at_level(logging.WARNING, logger="sealog.retrieval"):
            session(b"")  # first-use allocations
            peak = session(sent)
    finally:
        server.close()
    # The header alone is refused: the frame is longer than any hello.
    assert [r.session["outcome"] for r in caplog.records] == ["ChannelClosed", "ParseError"]
    assert peak < 256 * 1024, peak


def test_a_peer_that_declares_a_huge_frame_before_authenticating_is_dropped_at_once(
    tmp_path, endpoints, caplog
):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    server = LogExportServer(store, [verifier.certificate], port=0)
    # A header declaring the largest frame, then 1 MiB; the socket stays open.
    data = struct.pack(">IB", retrieval.MAX_FRAME_LEN, retrieval.FRAME_HELLO) + bytes(1 << 20)
    served = threading.Event()

    def peer():
        with socket.create_connection(("127.0.0.1", server.address[1])) as sock:
            try:
                sock.sendall(data)
            except OSError:
                pass  # the server closed first
            served.wait(timeout=15)

    thread = threading.Thread(target=peer)
    tracemalloc.start()
    try:
        with caplog.at_level(logging.WARNING, logger="sealog.retrieval"):
            thread.start()
            start = time.monotonic()
            assert server.handle_one(timeout=10)
            elapsed = time.monotonic() - start
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        served.set()
        thread.join(timeout=10)
        server.close()
    assert not thread.is_alive()
    assert elapsed < 1.0, elapsed
    assert peak < 256 * 1024, peak
    assert [r.session["outcome"] for r in caplog.records] == ["ParseError"]


def test_a_failed_session_releases_what_it_received_when_it_ends(tmp_path, endpoints, caplog):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    server = LogExportServer(store, [verifier.certificate], port=0)
    stranger = DeviceIdentity.generate()

    def hello_frame():
        """A hello of about 100 KiB whose certificate no anchor matches."""
        hello, _eph = retrieval._make_hello(stranger, retrieval.ROLE_VERIFIER, os.urandom(50_000))
        hello.certificate_der = os.urandom(50_000)
        return struct.pack(">IB", 1 + len(hello.pack()), FRAME_HELLO) + hello.pack()

    def refused_session(frame):
        """Traced bytes left once ``handle_one`` has served a refused hello,
        less those traced before it."""
        def peer():
            with socket.create_connection(("127.0.0.1", server.address[1])) as sock:
                sock.sendall(frame)
                while sock.recv(4096):  # until the server closes
                    pass

        thread = threading.Thread(target=peer)
        before = tracemalloc.get_traced_memory()[0]
        thread.start()
        assert server.handle_one(timeout=10)
        thread.join(timeout=10)
        assert not thread.is_alive()
        return tracemalloc.get_traced_memory()[0] - before

    frames = [hello_frame(), hello_frame()]
    gc.disable()
    tracemalloc.start()
    try:
        with caplog.at_level(logging.WARNING, logger="sealog.retrieval"):
            refused_session(frames[0])  # first-use allocations
            retained = refused_session(frames[1])
    finally:
        tracemalloc.stop()
        gc.enable()
        server.close()
    assert [r.session["outcome"] for r in caplog.records] == ["AuthFailure", "AuthFailure"]
    assert retained < 32 * 1024, retained


def test_public_audit_paths_build_no_records(tmp_path, endpoints, monkeypatch):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks
    device_cert = store.identity().certificate
    built = []
    decode, construct = logchain._record_from_fields, LogRecord.__new__

    def counting_decode(fields):
        built.append(fields)
        return decode(fields)

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return construct(cls, *args, **kwargs)

    # Every LogRecord comes from the record codec or from the constructor.
    monkeypatch.setattr(logchain, "_record_from_fields", counting_decode)
    monkeypatch.setattr(LogRecord, "__new__", staticmethod(counting_new))
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        report = verify_store(SealedStore.open(store.directory, ROOT_SECRET), full=False)
        request = RetrievalRequest(store.manifest.device_id, start=3, end=3)
        result = fetch("127.0.0.1", server.address[1], verifier, [device_cert], request)
        poll = audit(result, device_cert)
    finally:
        server.close()
    assert report.verdict == "ok" and len(report.entries) == 10
    assert poll.verdict == "ok" and [b.block_id for b in result.blocks] == [3]
    assert built == []
    # Nor does a full audit: it checks every record from the block's bytes.
    opened = SealedStore.open(store.directory, ROOT_SECRET)
    assert verify_store(opened, full=True).verdict == "ok"
    assert built == []
    # The counters do see decoding: entry reassembly reads every record.
    reassemble_entries(opened.load_block(block_id) for block_id in range(10))
    assert len(built) == 40


def test_delivered_watermark_advances(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0, end=4)
        fetch("127.0.0.1", server.address[1], verifier, [store.identity().certificate], request)
    finally:
        server.close()
    assert SealedStore.open(store.directory, ROOT_SECRET).delivered_mark() == 4


def test_blocks_committed_after_the_server_opened_the_store_are_served(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks
    device_cert = store.identity().certificate
    served = SealedStore.open(store.directory, ROOT_SECRET)  # as `sealog serve` opens it
    server = LogExportServer(served, [verifier.certificate], port=0)
    server.start()
    request = RetrievalRequest(store.manifest.device_id, start=0)
    try:
        fill_store(SealedStore.open(store.directory, ROOT_SECRET), 8)  # blocks 10-11
        result = fetch("127.0.0.1", server.address[1], verifier, [device_cert], request)
    finally:
        server.close()
    assert [b.block_id for b in result.blocks] == list(range(12))
    assert result.summary.state.latest_block_id == 11
    assert audit(result, device_cert).verdict == "ok"
    assert served.state.latest_block_id == 9  # the serving handle keeps no state it loads


def test_a_poll_leaves_the_chain_state_byte_identical(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks
    state_file = store.directory / STATE_FILE
    before = state_file.read_bytes()
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=3, end=3)
        fetch("127.0.0.1", server.address[1], verifier, [store.identity().certificate], request)
    finally:
        server.close()
    assert store.delivered_mark() == 3
    assert state_file.read_bytes() == before


def test_an_archive_of_another_version_is_refused(tmp_path, endpoints):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        request = RetrievalRequest(store.manifest.device_id, start=0, end=1)
        device_cert = store.identity().certificate
        result = fetch("127.0.0.1", server.address[1], verifier, [device_cert], request)
    finally:
        server.close()
    path = tmp_path / "corpus.archive"
    save_archive(path, result, store.identity().certificate_pem())
    assert load_archive(path)[0].summary is not None
    doc = json.loads(path.read_text())
    doc["version"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="unsupported archive version 1"):
        load_archive(path)
    del doc["version"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_archive(path)


def test_each_session_ends_in_one_structured_event(tmp_path, endpoints, caplog):
    _device, verifier = endpoints
    store = _serving_store(tmp_path)  # 10 blocks
    device_cert = store.identity().certificate
    server = LogExportServer(store, [verifier.certificate], port=0)
    stranger = DeviceIdentity.generate()  # not among the server's anchors
    request = RetrievalRequest(store.manifest.device_id, start=3, end=3)
    outcomes = {}

    def poll(name, identity):
        try:
            outcomes[name] = fetch("127.0.0.1", server.address[1], identity, [device_cert], request)
        except Exception as exc:  # the rejected peer's side of the abort
            outcomes[name] = exc

    try:
        with caplog.at_level(logging.INFO, logger="sealog.retrieval"):
            for name, identity in (("verifier", verifier), ("stranger", stranger)):
                client = threading.Thread(target=poll, args=(name, identity))
                client.start()
                assert server.handle_one(timeout=5)
                client.join(5)
                assert not client.is_alive()
    finally:
        server.close()
    assert [b.block_id for b in outcomes["verifier"].blocks] == [3]
    assert isinstance(outcomes["stranger"], Exception)

    good, rejected = [r for r in caplog.records if r.name == "sealog.retrieval"]
    block_bytes = len(store.load_block(3).serialize())
    assert good.levelno == logging.INFO
    assert good.session["peer"].startswith("127.0.0.1:")
    assert good.session["device"] == verifier.device_id.hex()
    assert (good.session["outcome"], good.session["blocks"]) == ("ok", 1)
    assert good.session["bytes"] == block_bytes
    assert good.session["ms"] > 0
    assert f"outcome=ok blocks=1 bytes={block_bytes} " in good.getMessage()

    assert rejected.levelno == logging.WARNING
    assert rejected.session["device"] is None  # the handshake never completed
    assert rejected.session["outcome"] == "AuthFailure"
    assert (rejected.session["blocks"], rejected.session["bytes"]) == (0, 0)
    assert "trust anchor" in rejected.session["error"]


def test_abort_to_a_gone_peer_is_logged_not_raised(caplog):
    a, b = socket.socketpair()
    b.close()
    transport = FrameTransport(a)
    with caplog.at_level(logging.DEBUG, logger="sealog.retrieval"):
        retrieval._abort(transport, retrieval.ABORT_AUTH, "rejected")
        transport.close()
    events = [r for r in caplog.records if r.name == "sealog.retrieval"]
    assert events and all(r.levelno == logging.DEBUG for r in events)
    assert "abort frame" in events[0].getMessage()


# Hostile peers ----------------------------------------------------------------


def _issued_by(issuer: DeviceIdentity, device_id: bytes) -> DeviceIdentity:
    """An identity for ``device_id`` with a fresh key, whose certificate
    ``issuer`` signs: an anchored leaf vouching for another device."""
    key = ec.generate_private_key(ec.SECP256R1())
    return DeviceIdentity(device_id, make_certificate(device_id, key, issuer), key)


def _survives_hostile_peer(tmp_path, verifier, caplog, hostile, server_anchors=()):
    """Serve a 10-block store on a live ``LogExportServer`` that trusts
    ``verifier`` and ``server_anchors``, and run ``hostile(server, device
    identity, request)``, which must raise ``AuthFailure``.  The serving
    thread must live, log the hostile session as an ``AuthFailure``, and
    then serve an honest fetch that audits ok."""
    store = _serving_store(tmp_path)
    device = store.identity()
    server = LogExportServer(store, [verifier.certificate, *server_anchors], port=0)
    thread = server.start()
    request = RetrievalRequest(store.manifest.device_id, start=0)
    try:
        with caplog.at_level(logging.WARNING, logger="sealog.retrieval"):
            with pytest.raises(AuthFailure):
                hostile(server, device, request)
            result = fetch("127.0.0.1", server.address[1], verifier, [device.certificate], request)
        assert thread.is_alive()
    finally:
        server.close()
    events = [r.session for r in caplog.records if hasattr(r, "session")]
    assert [event["outcome"] for event in events] == ["AuthFailure"]
    assert [b.block_id for b in result.blocks] == list(range(10))
    assert audit(result, device.certificate).verdict == "ok"


def test_a_malformed_certificate_is_refused_and_the_server_lives(tmp_path, endpoints, caplog):
    _device, verifier = endpoints

    def hostile(server, device, request):
        hello, _eph = retrieval._make_hello(verifier, retrieval.ROLE_VERIFIER, b"")
        hello.certificate_der = bytes.fromhex("3003020100")  # SEQUENCE { INTEGER 0 }
        with socket.create_connection(("127.0.0.1", server.address[1]), timeout=5) as sock:
            transport = FrameTransport(sock)
            transport.send_frame(FRAME_HELLO, hello.pack())
            retrieval._expect_frame(transport, FRAME_HELLO)

    _survives_hostile_peer(tmp_path, verifier, caplog, hostile)


def test_a_peer_presenting_an_anchored_rsa_certificate_cannot_kill_the_server(
    tmp_path, endpoints, caplog
):
    _device, verifier = endpoints
    # load_trust_anchors refuses it; a server built with it in code must live.
    rsa_id = DeviceIdentity.generate()
    rsa_cert = make_certificate(rsa_id.device_id, rsa.generate_private_key(65537, 2048))

    def hostile(server, device, request):
        hello, _eph = retrieval._make_hello(rsa_id, retrieval.ROLE_VERIFIER, b"")
        hello.certificate_der = rsa_cert.public_bytes(Encoding.DER)
        with socket.create_connection(("127.0.0.1", server.address[1]), timeout=5) as sock:
            transport = FrameTransport(sock)
            transport.send_frame(FRAME_HELLO, hello.pack())
            retrieval._expect_frame(transport, FRAME_HELLO)
            transport.send_frame(retrieval.FRAME_AUTH, os.urandom(64))
            retrieval._expect_frame(transport, retrieval.FRAME_AUTH)

    _survives_hostile_peer(tmp_path, verifier, caplog, hostile, server_anchors=[rsa_cert])


@pytest.mark.parametrize("forger", ["verifier", "device"])
def test_a_certificate_issued_by_an_anchored_leaf_is_refused(tmp_path, endpoints, caplog, forger):
    _device, verifier = endpoints
    other = DeviceIdentity.generate()  # anchored by the refusing end

    def forging_verifier(server, device, request):
        forged = _issued_by(verifier, other.device_id)
        fetch("127.0.0.1", server.address[1], forged, [device.certificate], request)

    def forging_device(server, device, request):
        server.identity = _issued_by(other, device.device_id)
        try:
            anchors = [device.certificate, other.certificate]
            fetch("127.0.0.1", server.address[1], verifier, anchors, request)
        finally:
            server.identity = device

    if forger == "verifier":
        _survives_hostile_peer(
            tmp_path, verifier, caplog, forging_verifier, server_anchors=[other.certificate]
        )
    else:
        _survives_hostile_peer(tmp_path, verifier, caplog, forging_device)


@pytest.mark.parametrize(
    "sender", [retrieval.ROLE_VERIFIER, retrieval.ROLE_DEVICE], ids=["verifier", "device"]
)
def test_a_hello_with_an_invalid_ephemeral_point_is_refused(
    tmp_path, endpoints, caplog, monkeypatch, sender
):
    _device, verifier = endpoints
    make_hello = retrieval._make_hello

    def off_curve_hello(identity, role, evidence):
        hello, eph = make_hello(identity, role, evidence)
        if role == sender:
            hello.ephemeral_pub = b"\x04" + b"\x01" * 64  # not a point on P-256
        return hello, eph

    def hostile(server, device, request):
        monkeypatch.setattr(retrieval, "_make_hello", off_curve_hello)
        try:
            fetch("127.0.0.1", server.address[1], verifier, [device.certificate], request)
        finally:
            monkeypatch.undo()

    _survives_hostile_peer(tmp_path, verifier, caplog, hostile)


@pytest.mark.parametrize("body", [b"\xff\xfe", b"not json", b"[1, 2]", b'"block 3"'])
def test_an_alarm_that_is_not_a_json_object_is_a_parse_error(tmp_path, endpoints, body):
    device, verifier = endpoints
    results = _handshake_pair(device, verifier, [verifier.certificate], [device.certificate])
    server_session, client_session = results["server"], results["client"]

    def dishonest_device():
        server_session.recv_message()  # the request
        server_session.send_message(retrieval.MSG_ALARM, body)
        server_session.close()  # a transfer that keeps such an alarm ends here

    thread = threading.Thread(target=dishonest_device)
    thread.start()
    with pytest.raises(ParseError, match="alarm"):
        receive_transfer(client_session, RetrievalRequest(device.device_id, start=0))
    thread.join()
