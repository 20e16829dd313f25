"""Device-side export service and verifier-side retrieval client.

The wire format (protocol v4) is length-prefixed binary frames:

    frame    := BE32 length || type(1) || payload
    HELLO    := version(1) role(1)
                BE16 cert_len cert_der BE16 ev_len evidence
                ephemeral_pub(65, SEC1 uncompressed P-256) nonce(16)
    AUTH     := signature(64)   over "EMHS" || role || SHA256(transcript)
    DATA     := AES-256-GCM ciphertext   nonce: BE96 frame counter, no AAD
    ABORT    := code(1) || utf-8 reason

An archive (version 4) is a JSON object: ``version``, ``certificate_pem``,
``request`` (``device_id``, ``start``, ``end``), the transfer's ``summary``
and ``alarms``, and its ``blocks`` as base64 ``EMLB`` bytes.

A session is two round trips.  The handshake is three flights: the
verifier's HELLO; the device's HELLO and AUTH, in one send, since the
device's signature covers only the two hellos; and the verifier's AUTH,
which the verifier follows at once with its request.  The device checks
that AUTH before it reads the request, and answers with the blocks and
the summary.  The verifier's socket sets ``TCP_NODELAY``, so the request
is not held behind the AUTH until the device's delayed ACK; the device's
socket does not, since a whole-range transfer measured slower with it.
A device that reads the verifier's AUTH before it sends its own, as
earlier releases did, interoperates too: the frames are the same, and
only their timing differs.

Each end trusts the other only when the certificate in its hello is
byte-identical to one of its own trust anchors: the certificate bytes are
compared, never parsed, and the anchor supplies the peer's key and device
id.  Both ends prove key possession by signing the handshake transcript,
so the channel is mutually authenticated before any log material moves.
Session keys come from an ephemeral P-256 ECDH exchange.  Each direction
has its own key and a frame counter that both ends keep and neither
sends: it is the frame's nonce, so a replayed, reordered, skipped or
forged frame fails its one AEAD check.  Each side signs a transcript that
covers the other side's fresh nonce and ephemeral key, so a recorded
handshake replayed at either end fails that end's transcript signature
check.  Until the handshake has made a session, a frame may be
no longer than the largest hello the format can carry
(``MAX_HELLO_FRAME_LEN``); after it, a device reads one frame, the
request, and a frame may be no longer than that (``REQUEST_FRAME_LEN``).
A header declaring more is refused before its body is read.  Attestation
evidence is carried opaquely and handed to a pluggable policy hook;
validating it is out of scope here.

Inside the encrypted channel, messages are type-tagged: a range request,
the serialized blocks in ascending order, a final summary carrying the
signed chain state (so a dishonest transport cannot silently truncate),
and an integrity alarm if a sealed block fails to open mid-transfer.
Version 2 is version 1 with the chain digest in the summary's state in
place of a field nothing read.  Version 3 is version 2 with the state cut
to the blocks committed, the commit counter and the digest, and with no
range or clamp flag in the summary, which no audit read.  Version 4 is
version 3 with no sequence number or associated data in a session frame
and no device id in a hello, which the key, its counter and the anchor
already fix, and with no mode in an archive's request; each version
refuses the other's hello and archive.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from cryptography import x509
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.exceptions import InvalidTag

from .errors import (
    AuthFailure,
    ChannelClosed,
    InvalidParameter,
    NegotiationFailure,
    ParseError,
    SealogError,
)
from .identity import (
    DEVICE_ID_LEN,
    DeviceIdentity,
    device_id_from_certificate,
    validate_peer_certificate,
    verify_raw,
)
from .keyschedule import LABEL_CHANNEL, SCHEME_SALT, ChainParams, RootLoggingKey, hkdf
from .logchain import (
    FINDING_INTEGRITY_ALARM,
    Block,
    VerificationReport,
    verify_sequence,
)
from .sealstore import GCM_TAG_LEN, ChainState, SealedStore

_log = logging.getLogger("sealog.retrieval")

PROTOCOL_VERSION = 4
HELLO_NONCE_LEN = 16
_EPH_PUB_LEN = 65
MAX_FRAME_LEN = 32 * 1024 * 1024
# The longest frame before a session exists (131,158 bytes): the type byte
# and a hello whose certificate and evidence fill their BE16 lengths.
MAX_HELLO_FRAME_LEN = 1 + 2 + 2 + 0xFFFF + 2 + 0xFFFF + _EPH_PUB_LEN + HELLO_NONCE_LEN
RECV_CHUNK = 64 * 1024  # most bytes one socket read asks for
_FRAME_HEADER = struct.Struct(">IB")  # a frame's length, then its type byte
# A request's fields after the device id: BE32 start, BE32 end, mode byte.
_REQUEST_FIELDS = struct.Struct(">IIB")
# The only frame a device reads in a session (43 bytes): the type byte and
# the sealed request, its message type byte, device id and fields, then the
# GCM tag.
REQUEST_FRAME_LEN = 1 + 1 + DEVICE_ID_LEN + _REQUEST_FIELDS.size + GCM_TAG_LEN

FRAME_HELLO = 0x01
FRAME_AUTH = 0x02
FRAME_DATA = 0x10
FRAME_ABORT = 0x7F

MSG_REQUEST = 0x20
MSG_BLOCK = 0x21
MSG_SUMMARY = 0x22
MSG_ALARM = 0x23

ABORT_AUTH = 1
ABORT_NEGOTIATION = 2
ABORT_INTERNAL = 5

ROLE_DEVICE = 1
ROLE_VERIFIER = 2

RANGE_OPEN_END = 0xFFFFFFFF
MODE_PUBLIC = 0
MODE_FULL = 1

ARCHIVE_VERSION = 4
# Seconds an accepted connection gets for its handshake and request
# together, and then for each send of the transfer, before the export
# server drops it for the next peer.
SESSION_TIMEOUT = 10.0
_TRANSCRIPT_MAGIC = b"EMHS"

AttestationPolicy = Callable[[bytes, int, bytes], bool]


# Frame transport -----------------------------------------------------------


class FrameTransport:
    """Blocking length-prefixed frame IO over a connected socket.

    Received bytes land in one buffer of ``RECV_CHUNK`` bytes per
    transport, which ``recv_into`` fills: a read asks for no more than the
    buffer's free space, so one read may bring a header with what follows
    it, or several frames.  A header declaring more than ``max_len`` bytes
    is refused before any more is read.  A frame that fits in the buffer is
    handed on as one copy of its body; a longer one is read straight into a
    buffer of its declared length, at most ``RECV_CHUNK`` bytes a read.
    ``send_frames`` sends several frames in one ``sendall``.

    While ``deadline`` (a ``time.monotonic()`` value) is set, every send and
    receive must finish by then, however the peer paces its bytes; past it
    they raise ``TimeoutError``.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.deadline: float | None = None
        self._buf = bytearray(RECV_CHUNK)
        self._view = memoryview(self._buf)
        self._start = self._end = 0  # the bytes received and not yet handed on

    def _apply_deadline(self) -> None:
        if self.deadline is not None:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("session deadline passed")
            self._sock.settimeout(remaining)

    def send_frames(self, *frames: tuple[int, bytes]) -> None:
        """Each ``(type, payload)`` frame, in order, in one ``sendall``."""
        parts = []
        for frame_type, payload in frames:
            if 1 + len(payload) > MAX_FRAME_LEN:
                raise InvalidParameter("frame exceeds maximum length")
            parts += (_FRAME_HEADER.pack(1 + len(payload), frame_type), payload)
        self._apply_deadline()
        self._sock.sendall(b"".join(parts))

    def send_frame(self, frame_type: int, payload: bytes) -> None:
        self.send_frames((frame_type, payload))

    def _recv_into(self, view: memoryview) -> int:
        """One read of at most ``len(view)`` bytes into ``view``."""
        self._apply_deadline()
        n = self._sock.recv_into(view)
        if not n:
            raise ChannelClosed("peer closed the connection")
        return n

    def _fill(self, n: int) -> None:
        """Hold at least ``n`` (at most ``RECV_CHUNK``) unread bytes."""
        if self._start == self._end:
            self._start = self._end = 0
        elif self._start + n > RECV_CHUNK:  # move the unread bytes to the front
            unread = bytes(self._view[self._start : self._end])
            self._start, self._end = 0, len(unread)
            self._buf[: self._end] = unread
        while self._end - self._start < n:
            self._end += self._recv_into(self._view[self._end :])

    def recv_frame(self, max_len: int = MAX_HELLO_FRAME_LEN) -> tuple[int, bytearray]:
        """One frame's type and body; a header declaring more than
        ``max_len`` bytes is a ``ParseError``, and its body is never
        waited for."""
        self._fill(4)
        (length,) = struct.unpack_from(">I", self._buf, self._start)
        if length < 1 or length > max_len:
            raise ParseError(f"frame length {length} out of range 1..{max_len}")
        if 4 + length <= RECV_CHUNK:
            self._fill(4 + length)
            body_at = self._start + _FRAME_HEADER.size
            self._start += 4 + length
            return self._buf[body_at - 1], self._buf[body_at : self._start]
        self._fill(_FRAME_HEADER.size)
        frame_type = self._buf[self._start + 4]
        body = bytearray(length - 1)
        held = self._end - self._start - _FRAME_HEADER.size
        body[:held] = self._view[self._start + _FRAME_HEADER.size : self._end]
        self._start = self._end = 0
        view = memoryview(body)
        while held < len(body):
            held += self._recv_into(view[held : held + RECV_CHUNK])
        return frame_type, body

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError as exc:
            _log.debug("socket close failed: %r", exc)


def _abort(transport: FrameTransport, code: int, reason: str) -> None:
    """Tell the peer why the session ends; the peer may already be gone."""
    try:
        transport.send_frame(FRAME_ABORT, bytes([code]) + reason.encode("utf-8"))
    except (OSError, ChannelClosed) as exc:
        _log.debug("abort frame (code %d) not sent: %r", code, exc)


_ABORT_ERRORS = {
    ABORT_AUTH: AuthFailure,
    ABORT_NEGOTIATION: NegotiationFailure,
}


def _raise_abort(payload: bytes) -> None:
    code = payload[0] if payload else ABORT_INTERNAL
    reason = payload[1:].decode("utf-8", errors="replace") if len(payload) > 1 else ""
    exc = _ABORT_ERRORS.get(code, AuthFailure)
    raise exc(f"peer aborted: {reason or code}")


# Handshake -----------------------------------------------------------------


@dataclass
class ChannelHello:
    version: int
    role: int
    certificate_der: bytes
    evidence: bytes
    ephemeral_pub: bytes
    nonce: bytes

    def pack(self) -> bytes:
        return (
            bytes([self.version, self.role])
            + struct.pack(">H", len(self.certificate_der))
            + self.certificate_der
            + struct.pack(">H", len(self.evidence))
            + self.evidence
            + self.ephemeral_pub
            + self.nonce
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "ChannelHello":
        """The hello in ``payload``; its certificate and evidence are
        ``memoryview`` slices of ``payload``, not copies."""
        view, fields, offset = memoryview(payload), [], 2
        try:
            for _ in range(2):  # the certificate, then the evidence
                (length,) = struct.unpack_from(">H", view, offset)
                fields.append(view[offset + 2 : offset + 2 + length])
                offset += 2 + length
        except struct.error as exc:
            raise ParseError(f"malformed hello: {exc}") from exc
        tail = bytes(view[offset:])  # empty when a field was cut short
        if len(tail) != _EPH_PUB_LEN + HELLO_NONCE_LEN:
            raise ParseError("hello payload truncated")
        return cls(payload[0], payload[1], *fields, tail[:_EPH_PUB_LEN], tail[_EPH_PUB_LEN:])


class SecureSession:
    """AEAD-protected message channel after a completed handshake.

    Each direction has its own key, and each end counts the frames it has
    sent and accepted: the count is the frame's GCM nonce, never sent.  So
    the AEAD check is the one check a frame gets: a replayed, reordered,
    skipped or forged frame fails it with ``AuthFailure``, and consumes no
    count, so the next in-order frame is still accepted.  ``role`` is this
    end's role (``ROLE_DEVICE`` or ``ROLE_VERIFIER``).  A device reads only
    the request, so its session refuses a frame longer than
    ``REQUEST_FRAME_LEN`` at the header; a verifier's takes frames up to
    ``MAX_FRAME_LEN``.  ``peer_device_id`` is the device id of the anchor
    the peer's certificate matched.  ``blocks_sent`` and
    ``block_bytes_sent`` count the block messages sent and their payload
    (``EMLB``) bytes.
    """

    def __init__(
        self,
        transport: FrameTransport,
        send_key: bytes,
        recv_key: bytes,
        role: int,
        peer_device_id: bytes,
    ):
        self._transport = transport
        self._send = AESGCM(send_key)
        self._recv = AESGCM(recv_key)
        self._recv_max = MAX_FRAME_LEN if role == ROLE_VERIFIER else REQUEST_FRAME_LEN
        self._send_seq = 0
        self._recv_seq = 0
        self.peer_device_id = peer_device_id
        self.blocks_sent = 0
        self.block_bytes_sent = 0

    def send_message(self, msg_type: int, body: bytes) -> None:
        nonce = self._send_seq.to_bytes(12, "big")
        self._send_seq += 1
        self._transport.send_frame(
            FRAME_DATA, self._send.encrypt(nonce, bytes([msg_type]) + body, None)
        )
        if msg_type == MSG_BLOCK:
            self.blocks_sent += 1
            self.block_bytes_sent += len(body)

    def recv_message(self) -> tuple[int, bytes]:
        payload = _expect_frame(self._transport, FRAME_DATA, self._recv_max)
        try:
            plain = self._recv.decrypt(self._recv_seq.to_bytes(12, "big"), payload, None)
        except InvalidTag as exc:
            raise AuthFailure("session frame failed authentication") from exc
        self._recv_seq += 1
        if not plain:
            raise ParseError("empty session message")
        return plain[0], plain[1:]

    def close(self) -> None:
        self._transport.close()


def _session_keys(
    eph_private: ec.EllipticCurvePrivateKey,
    peer_pub: ec.EllipticCurvePublicKey,
    transcript_hash: bytes,
) -> tuple[bytes, bytes]:
    shared = eph_private.exchange(ec.ECDH(), peer_pub)
    okm = hkdf(shared, SCHEME_SALT, LABEL_CHANNEL + transcript_hash, 64)
    return okm[:32], okm[32:]  # (verifier->device, device->verifier)


def _make_hello(identity: DeviceIdentity, role: int, evidence: bytes) -> tuple[ChannelHello, ec.EllipticCurvePrivateKey]:
    eph = ec.generate_private_key(ec.SECP256R1())
    eph_pub = eph.public_key().public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint
    )
    hello = ChannelHello(
        version=PROTOCOL_VERSION,
        role=role,
        certificate_der=identity.certificate.public_bytes(serialization.Encoding.DER),
        evidence=evidence,
        ephemeral_pub=eph_pub,
        nonce=os.urandom(HELLO_NONCE_LEN),
    )
    return hello, eph


def _validate_hello(
    payload: bytes,
    expected_role: int,
    anchors: list[x509.Certificate],
    policy: AttestationPolicy | None,
    transport: FrameTransport,
) -> tuple[ec.EllipticCurvePublicKey, ec.EllipticCurvePublicKey, bytes]:
    """Check a peer's hello, its version byte first, so that a hello of
    another version is refused as such whatever its layout.  Returns the
    peer's signing key and device id, from the anchor its certificate
    matches, and its ephemeral key.

    A refusal is raised as a ``SealogError``.  The peer is sent
    ``ABORT_NEGOTIATION`` for the version and ``ABORT_AUTH`` for a field of
    a well-formed hello; a malformed hello gets no abort.
    """
    if payload and payload[0] != PROTOCOL_VERSION:
        _abort(transport, ABORT_NEGOTIATION, f"unsupported version {payload[0]}")
        raise NegotiationFailure(f"peer speaks version {payload[0]}")
    hello = ChannelHello.unpack(payload)
    try:
        if hello.role != expected_role:
            raise AuthFailure(f"peer declared role {hello.role}, expected {expected_role}")
        anchor = validate_peer_certificate(hello.certificate_der, anchors)
        device_id = device_id_from_certificate(anchor)
        try:
            eph_pub = ec.EllipticCurvePublicKey.from_encoded_point(
                ec.SECP256R1(), hello.ephemeral_pub
            )
        except ValueError as exc:
            raise AuthFailure("ephemeral key is not a P-256 point") from exc
        if policy is not None and not policy(bytes(hello.evidence), hello.role, device_id):
            raise AuthFailure("attestation evidence rejected by policy")
    except SealogError as exc:
        _abort(transport, ABORT_AUTH, str(exc))
        raise
    return anchor.public_key(), eph_pub, device_id


def _transcript_hash(client_hello: bytes, server_hello: bytes) -> bytes:
    transcript = hashlib.sha256(client_hello)
    transcript.update(server_hello)
    return transcript.digest()


def _transcript_preimage(role: int, transcript_hash: bytes) -> bytes:
    return _TRANSCRIPT_MAGIC + bytes([role]) + transcript_hash


def _expect_frame(
    transport: FrameTransport, wanted: int, max_len: int = MAX_HELLO_FRAME_LEN
) -> bytes:
    frame_type, payload = transport.recv_frame(max_len)
    if frame_type == FRAME_ABORT:
        _raise_abort(payload)
    if frame_type != wanted:
        raise ParseError(f"expected frame {wanted}, got {frame_type}")
    return payload


def _check_transcript(
    transport: FrameTransport, peer_key: ec.EllipticCurvePublicKey, peer_role: int, th: bytes
) -> None:
    """Receive the peer's AUTH frame; it must sign the transcript as ``peer_role``."""
    signature = _expect_frame(transport, FRAME_AUTH)
    if not verify_raw(peer_key, _transcript_preimage(peer_role, th), signature):
        _abort(transport, ABORT_AUTH, "transcript signature invalid")
        raise AuthFailure("peer transcript signature invalid")


def client_handshake(
    identity: DeviceIdentity,
    anchors: list[x509.Certificate],
    transport: FrameTransport,
    evidence: bytes = b"",
    attestation_policy: AttestationPolicy | None = None,
) -> SecureSession:
    """Verifier-side handshake: returns a mutually authenticated session."""
    hello, eph = _make_hello(identity, ROLE_VERIFIER, evidence)
    hello_bytes = hello.pack()
    transport.send_frame(FRAME_HELLO, hello_bytes)

    server_hello_bytes = _expect_frame(transport, FRAME_HELLO)
    server_key, server_eph, server_id = _validate_hello(
        server_hello_bytes, ROLE_DEVICE, anchors, attestation_policy, transport
    )

    th = _transcript_hash(hello_bytes, server_hello_bytes)
    transport.send_frame(FRAME_AUTH, identity.sign(_transcript_preimage(ROLE_VERIFIER, th)))
    _check_transcript(transport, server_key, ROLE_DEVICE, th)

    send_key, recv_key = _session_keys(eph, server_eph, th)
    return SecureSession(transport, send_key, recv_key, ROLE_VERIFIER, server_id)


def server_handshake(
    identity: DeviceIdentity,
    anchors: list[x509.Certificate],
    transport: FrameTransport,
    evidence: bytes = b"",
    attestation_policy: AttestationPolicy | None = None,
) -> SecureSession:
    """Device-side handshake, the responder of client_handshake.

    The device's signature covers only the two hellos, so its AUTH goes
    with its HELLO, in one send, before the client's AUTH is read.

    A recorded client hello and AUTH replayed here fail the transcript
    check: the client's signature covers the transcript of another server
    hello, not the fresh nonce and ephemeral key of this one.  The peer is
    sent ``ABORT_AUTH`` and ``AuthFailure`` is raised.
    """
    client_hello_bytes = _expect_frame(transport, FRAME_HELLO)
    client_key, client_eph, client_id = _validate_hello(
        client_hello_bytes, ROLE_VERIFIER, anchors, attestation_policy, transport
    )

    hello, eph = _make_hello(identity, ROLE_DEVICE, evidence)
    hello_bytes = hello.pack()
    th = _transcript_hash(client_hello_bytes, hello_bytes)
    transport.send_frames(
        (FRAME_HELLO, hello_bytes),
        (FRAME_AUTH, identity.sign(_transcript_preimage(ROLE_DEVICE, th))),
    )
    _check_transcript(transport, client_key, ROLE_VERIFIER, th)

    recv_key, send_key = _session_keys(eph, client_eph, th)
    return SecureSession(transport, send_key, recv_key, ROLE_DEVICE, client_id)


# Request / response messages ----------------------------------------------


@dataclass(frozen=True)
class RetrievalRequest:
    """Block range [start, end] (end=None means everything since start)."""

    device_id: bytes
    start: int
    end: int | None = None
    mode: str = "public"

    def __post_init__(self) -> None:
        if self.end is not None and self.start > self.end:
            raise InvalidParameter(f"range [{self.start}, {self.end}] is inverted")
        if self.mode not in ("public", "full"):
            raise InvalidParameter(f"unknown verification mode {self.mode!r}")

    def pack(self) -> bytes:
        end = RANGE_OPEN_END if self.end is None else self.end
        mode = MODE_FULL if self.mode == "full" else MODE_PUBLIC
        return self.device_id + _REQUEST_FIELDS.pack(self.start, end, mode)

    @classmethod
    def unpack(cls, body: bytes) -> "RetrievalRequest":
        if len(body) != DEVICE_ID_LEN + _REQUEST_FIELDS.size:
            raise ParseError("malformed retrieval request")
        start, end, mode = _REQUEST_FIELDS.unpack_from(body, DEVICE_ID_LEN)
        try:
            return cls(
                device_id=body[:DEVICE_ID_LEN],
                start=start,
                end=None if end == RANGE_OPEN_END else end,
                mode="full" if mode == MODE_FULL else "public",
            )
        except InvalidParameter as exc:
            raise ParseError(f"malformed retrieval request: {exc}") from exc


@dataclass
class TransferSummary:
    """What a transfer ends with: the device's chain state and its
    signature, the count of blocks sent, and a notice when fewer were sent
    than the request named (a clamped range, a start past the newest block
    or a store with none).

    The state carries the chain digest through its newest block, so an
    audit of a range from block 0 through that block checks the blocks
    against the digest the device signed.
    """

    device_id: bytes
    params: ChainParams
    state: ChainState
    state_signature: bytes
    count: int
    notice: str | None = None

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "device_id": self.device_id.hex(),
                "params": {"c": self.params.c, "m": self.params.m},
                "state": self.state.pack().hex(),
                "state_signature": self.state_signature.hex(),
                "count": self.count,
                "notice": self.notice,
            }
        ).encode("utf-8")

    @classmethod
    def from_json(cls, body: bytes) -> "TransferSummary":
        try:
            doc = json.loads(body.decode("utf-8"))
            return cls(
                device_id=bytes.fromhex(doc["device_id"]),
                params=ChainParams(c=doc["params"]["c"], m=doc["params"]["m"]),
                state=ChainState.unpack(bytes.fromhex(doc["state"])),
                state_signature=bytes.fromhex(doc["state_signature"]),
                count=doc["count"],
                notice=doc.get("notice"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"malformed transfer summary: {exc}") from exc


def serve_range(
    session: SecureSession,
    store: SealedStore,
    request: RetrievalRequest,
) -> int:
    """Stream the requested blocks then the signed-state summary.

    Each block is sent as its unsealed payload, the exact ``EMLB`` bytes
    committed for it: ``load_block`` checks the header's block id and the
    length, and no record is decoded or re-encoded on the way.  A block
    that cannot be read or unsealed raises the integrity alarm to the peer
    and aborts the transfer; blocks already sent remain usable.  Returns
    the number of blocks sent.

    The chain state is loaded from disk for each request, so blocks a
    writer committed after the server opened the store are served too.  It
    is never kept in ``store``, whose own state belongs to any writer that
    shares the handle.
    """
    state = store.load_state()
    latest, first, end = state.latest_block_id, request.start, request.end
    top = -1 if latest is None else latest
    last = top if end is None else min(end, top)
    notice = None
    if latest is None:
        notice = "store holds no blocks"
    elif first > latest:
        notice = f"start {first} beyond latest committed block {latest}"
    elif end is not None and end > latest:
        notice = f"range clamped to latest committed block {latest}"

    sent = 0
    for block_id in range(first, last + 1):
        try:
            block = store.load_block(block_id)
        except Exception as exc:
            session.send_message(
                MSG_ALARM,
                json.dumps({"block_id": block_id, "reason": str(exc)}).encode("utf-8"),
            )
            raise AuthFailure(f"integrity alarm at block {block_id}: {exc}") from exc
        session.send_message(MSG_BLOCK, block.serialize())
        sent += 1

    if sent:
        store.mark_delivered(last)
    state, state_sig = store.signed_state_snapshot(state)
    summary = TransferSummary(
        device_id=store.manifest.device_id,
        params=store.params,
        state=state,
        state_signature=state_sig,
        count=sent,
        notice=notice,
    )
    session.send_message(MSG_SUMMARY, summary.to_json())
    return sent


@dataclass
class FetchResult:
    request: RetrievalRequest
    blocks: list[Block] = field(default_factory=list)
    summary: TransferSummary | None = None
    alarms: list[dict] = field(default_factory=list)


def _checked_alarm(alarm: object) -> dict:
    """An integrity alarm, as received or archived: a JSON object, or a
    ``ParseError``."""
    if not isinstance(alarm, dict):
        raise ParseError("integrity alarm is not a JSON object")
    return alarm


def receive_transfer(session: SecureSession, request: RetrievalRequest) -> FetchResult:
    """Send the request and collect block/summary/alarm messages."""
    result = FetchResult(request=request)
    session.send_message(MSG_REQUEST, request.pack())
    while True:
        try:
            msg_type, body = session.recv_message()
        except ChannelClosed:
            break
        if msg_type == MSG_BLOCK:
            result.blocks.append(Block.deserialize(body))
        elif msg_type == MSG_ALARM:
            try:
                alarm = json.loads(body.decode("utf-8"))
            except ValueError as exc:
                raise ParseError(f"malformed integrity alarm: {exc}") from exc
            result.alarms.append(_checked_alarm(alarm))
        elif msg_type == MSG_SUMMARY:
            result.summary = TransferSummary.from_json(body)
            break
        else:
            raise ParseError(f"unexpected message type {msg_type}")
    return result


# Device-side service and verifier-side client ------------------------------


class LogExportServer:
    """Sequential TCP export service for one sealed store.

    Each accepted connection must finish its handshake and request within
    ``SESSION_TIMEOUT`` seconds, and each later send within the same bound,
    so a silent or stalled peer holds the service for at most that long.
    A peer's frames are bounded by ``MAX_HELLO_FRAME_LEN`` until its
    handshake is done, and then by ``REQUEST_FRAME_LEN``: one that declares
    more is dropped at its header.  A replayed handshake fails the
    transcript check, and a replayed or forged session frame the AEAD
    check, so the server keeps no record of the peers it has seen.
    """

    def __init__(
        self,
        store: SealedStore,
        anchors: list[x509.Certificate],
        host: str = "127.0.0.1",
        port: int = 0,
        evidence: bytes = b"",
        attestation_policy: AttestationPolicy | None = None,
    ):
        self.store = store
        self.identity = store.identity()
        self.anchors = anchors
        self.evidence = evidence
        self.attestation_policy = attestation_policy
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()
        self._stop = threading.Event()

    def handle_one(self, timeout: float | None = None) -> bool:
        """Accept and serve a single session; returns False on timeout.

        Each session ends in one event on the ``sealog.retrieval`` logger,
        INFO when it succeeded and WARNING when it failed, whose message
        and ``session`` attribute carry: the peer address, the peer device
        id once the handshake has it, the outcome (``ok`` or the exception
        type), the blocks and block payload bytes sent, and the duration.
        """
        try:
            self._listener.settimeout(timeout)
            conn, peer = self._listener.accept()
        except socket.timeout:
            return False
        except OSError:
            self._stop.set()  # listener closed under us
            return False
        start = time.monotonic()
        transport = FrameTransport(conn)
        transport.deadline = start + SESSION_TIMEOUT
        session = error = None
        try:
            session = server_handshake(
                self.identity,
                self.anchors,
                transport,
                evidence=self.evidence,
                attestation_policy=self.attestation_policy,
            )
            msg_type, body = session.recv_message()
            if msg_type != MSG_REQUEST:
                raise ParseError(f"expected request, got message {msg_type}")
            request = RetrievalRequest.unpack(body)
            if request.device_id != self.identity.device_id:
                _abort(transport, ABORT_AUTH, "request names a different device")
                raise AuthFailure("request device id mismatch")
            transport.deadline = None
            conn.settimeout(SESSION_TIMEOUT)
            serve_range(session, self.store, request)
        except (SealogError, OSError) as exc:
            # Aborted on the wire where possible; one session's failure,
            # a peer reset, a timeout or a store error included, must not
            # end the service.
            error = exc
        finally:
            transport.close()
        _log_session(peer, session, error, time.monotonic() - start)
        # The error's traceback holds this frame: dropping it here frees the
        # frames it raised through, and the bytes they received, at once
        # rather than at the next cyclic collection.
        del error
        return True

    def serve_forever(self) -> None:
        while not self._stop.is_set():
            self.handle_one(timeout=0.2)

    def start(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        self._stop.set()

    def close(self) -> None:
        self.stop()
        self._listener.close()


def _log_session(
    peer, session: SecureSession | None, error: Exception | None, seconds: float
) -> None:
    """Emit the session event, built only when ``sealog.retrieval`` logs
    at its level: INFO for a served session, WARNING for a failed one."""
    level = logging.INFO if error is None else logging.WARNING
    if not _log.isEnabledFor(level):
        return
    event = {
        "peer": f"{peer[0]}:{peer[1]}",
        "device": session.peer_device_id.hex() if session is not None else None,
        "outcome": "ok" if error is None else type(error).__name__,
        "blocks": session.blocks_sent if session is not None else 0,
        "bytes": session.block_bytes_sent if session is not None else 0,
        "ms": round(seconds * 1000, 3),
    }
    if error is not None:
        event["error"] = str(error)
    _log.log(
        level,
        "session %s",
        " ".join(f"{key}={value}" for key, value in event.items()),
        extra={"session": event},
    )


def fetch(
    host: str,
    port: int,
    identity: DeviceIdentity,
    anchors: list[x509.Certificate],
    request: RetrievalRequest,
    evidence: bytes = b"",
    attestation_policy: AttestationPolicy | None = None,
) -> FetchResult:
    """Connect, authenticate mutually, and retrieve the requested range.

    Connecting, and then each send and receive, gives up with
    ``TimeoutError`` after ``SESSION_TIMEOUT`` seconds.  The socket sets
    ``TCP_NODELAY``: the request follows the AUTH at once, and Nagle's
    algorithm would hold it until the device's delayed ACK of the AUTH.
    """
    with socket.create_connection((host, port), timeout=SESSION_TIMEOUT) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        transport = FrameTransport(sock)
        session = client_handshake(
            identity,
            anchors,
            transport,
            evidence=evidence,
            attestation_policy=attestation_policy,
        )
        return receive_transfer(session, request)


# Audit ----------------------------------------------------------------------


def audit(
    result: FetchResult,
    device_certificate: x509.Certificate,
    rlk: RootLoggingKey | None = None,
    params: ChainParams | None = None,
) -> VerificationReport:
    """Verify a retrieved corpus: signatures, contiguity, summary, HMACs.

    Public mode (rlk=None) checks origin and structure; full mode
    additionally recomputes the whole hash matrix, which requires the chain
    parameters (taken from the summary when not supplied).

    A request from block 0 with no end, or one ending at or past the
    summary's newest block, is due to cover every committed block, so its
    blocks must also reproduce the chain digest of the state the summary
    signs; a mismatch that no other check explains is a
    ``history-mismatch`` finding.  The audit is one fold that runs at most
    twice (see ``logchain.verify_sequence``): a full or public audit of
    such a range checks 1 signature, the summary's, which authenticates
    the digest, and every block's only when that first fold finds
    anything.  Any other range, and any transfer whose summary is missing
    or not validly signed, is folded once with every block signature
    checked and no digest check: 1 + N checks for N blocks.  The
    certificate's ``public_key`` is passed to the fold as its key getter,
    so the fold makes the key only when it checks a block signature.
    """
    request, summary = result.request, result.summary
    state = None
    report = VerificationReport(mode="full" if rlk else "public", expected_start=request.start)

    public_key = device_certificate.public_key
    if summary is not None:
        if params is None:
            params = summary.params
        if not verify_raw(public_key(), summary.state.sign_preimage(), summary.state_signature):
            report.findings.append("state-signature-invalid")
        else:
            state = summary.state
        if summary.device_id != request.device_id:
            report.findings.append("summary names a different device")
        if summary.count != len(result.blocks):
            report.findings.append(
                f"summary counts {summary.count} blocks, received {len(result.blocks)}"
            )
        if summary.notice:
            report.notes.append(summary.notice)
    else:
        report.notes.append("transfer ended without a summary")
    if params is None and rlk is not None:
        raise InvalidParameter("full audit needs chain parameters")

    for alarm in result.alarms:
        report.findings.append(
            f"{FINDING_INTEGRITY_ALARM}: block {alarm.get('block_id')} ({alarm.get('reason')})"
        )

    run = [(block.block_id, block, None) for block in result.blocks]
    ids = {block.block_id for block in result.blocks}
    return verify_sequence(
        run, request.start, state, rlk, public_key, params, report, request.end, run_ids=ids
    )


# Archives --------------------------------------------------------------------


def save_archive(path: str | Path, result: FetchResult, certificate_pem: bytes) -> None:
    """Persist a fetched corpus for offline audit."""
    doc = {
        "version": ARCHIVE_VERSION,
        "certificate_pem": certificate_pem.decode("ascii"),
        "request": {
            "device_id": result.request.device_id.hex(),
            "start": result.request.start,
            "end": result.request.end,
        },
        "summary": json.loads(result.summary.to_json()) if result.summary else None,
        "alarms": result.alarms,
        "blocks": [base64.b64encode(b.serialize()).decode("ascii") for b in result.blocks],
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def load_archive(path: str | Path) -> tuple[FetchResult, x509.Certificate]:
    try:
        doc = json.loads(Path(path).read_text())
        if doc["version"] != ARCHIVE_VERSION:
            raise ParseError(f"unsupported archive version {doc['version']!r}")
        cert = x509.load_pem_x509_certificate(doc["certificate_pem"].encode("ascii"))
        request = RetrievalRequest(
            device_id=bytes.fromhex(doc["request"]["device_id"]),
            start=doc["request"]["start"],
            end=doc["request"]["end"],
        )
        summary = None
        if doc["summary"] is not None:
            summary = TransferSummary.from_json(json.dumps(doc["summary"]).encode("utf-8"))
        result = FetchResult(
            blocks=[Block.deserialize(base64.b64decode(b)) for b in doc["blocks"]],
            summary=summary,
            alarms=[_checked_alarm(alarm) for alarm in doc.get("alarms", [])],
            request=request,
        )
        return result, cert
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"malformed archive: {exc}") from exc
