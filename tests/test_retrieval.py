from __future__ import annotations

import hashlib
import socket
import struct
import threading

import pytest

from conftest import ROOT_SECRET, build_store, fill_store
from sealog.errors import (
    AuthFailure,
    ChannelClosed,
    NegotiationFailure,
    ParseError,
    ReplayDetected,
)
from sealog.identity import DeviceIdentity
from sealog.keyschedule import RootLoggingKey
from sealog.logchain import FINDING_TRUNCATION
from sealog import retrieval
from sealog.retrieval import (
    FRAME_DATA,
    FRAME_HELLO,
    FrameTransport,
    HelloReplayCache,
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


def _pair():
    return socket.socketpair()


def _handshake_pair(
    device,
    verifier,
    device_anchors,
    verifier_anchors,
    tap: bytearray | None = None,
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
        results["client"] = client_handshake(verifier, verifier_anchors, FrameTransport(b))
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


def test_hello_replay_detected(endpoints):
    device, verifier = endpoints
    cache = HelloReplayCache()

    # Record a legitimate client hello frame.
    recorded = bytearray()
    results = _handshake_pair(
        device,
        verifier,
        [verifier.certificate],
        [device.certificate],
        tap=recorded,
        replay_cache=cache,
    )
    assert "server" in results

    # Replay the recorded hello verbatim at a fresh server handshake.
    (length,) = struct.unpack(">I", recorded[:4])
    hello_frame = bytes(recorded[: 4 + length])
    assert hello_frame[4] == FRAME_HELLO

    a, b = _pair()
    errors: list = []

    def run_server():
        try:
            server_handshake(
                device, [verifier.certificate], FrameTransport(a), replay_cache=cache
            )
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=run_server)
    thread.start()
    b.sendall(hello_frame)
    thread.join()
    assert errors and isinstance(errors[0], ReplayDetected)


def test_session_frame_replay_detected(endpoints):
    device, verifier = endpoints
    results = _handshake_pair(device, verifier, [verifier.certificate], [device.certificate])
    client, server = results["client"], results["server"]

    # Capture one encrypted frame, deliver it twice.
    raw_a, raw_b = _pair()
    client._transport = FrameTransport(raw_b)
    server._transport = FrameTransport(raw_a)
    client.send_message(0x42, b"ping")
    (length,) = struct.unpack(">I", raw_a.recv(4, socket.MSG_PEEK)[:4])
    frame = raw_a.recv(4 + length)
    assert frame[4] == FRAME_DATA

    # first delivery passes
    raw_b.sendall(frame)  # replay path: feed it straight back to the server side
    assert server.recv_message() == (0x42, b"ping")
    raw_b.sendall(frame)
    with pytest.raises(ReplayDetected):
        server.recv_message()


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
    assert result.block_hashes() == committed_hashes
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
        state, sig = store.signed_state_snapshot()
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
        state, sig = store.signed_state_snapshot()
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
    assert store.state.delivered_mark == 4
