"""HMAC-chained log records, signed blocks, and the verification matrix.

Record layout (292 bytes): BE32 msg_id || 32-byte HMAC-SHA256 tag ||
256-byte text field.  The text field starts with a 2-byte prefix packing
the used length (12 bits), a continuation flag (1 bit, set when the entry
continues in the next record) and 3 reserved bits; the remaining 254 bytes
carry content, zero padded.

Each record tag is HMAC-SHA256 over BE32(block_id) || BE32(msg_id) ||
text field, keyed with the message key for that exact coordinate, so a
record moved to any other position fails verification locally.  A block is
signed over BE32(block_id) || BE32(record_count) || tag_0 || ... ||
tag_{n-1}; including the header bytes stops a signature from being
transplanted onto a different block id or record count.

Block serialization: magic "EMLB", version byte, BE32 block_id,
BE32 record_count, the records, then the 64-byte raw r||s signature.
"""

from __future__ import annotations

import hmac as hmac_mod
import struct
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric import ec

from .errors import InvalidParameter, KeyMisuse, KeyUnavailable, ParseError
from .identity import SIGNATURE_LEN, DeviceIdentity, verify_raw
from .keyschedule import (
    ChainParams,
    MessageKey,
    RootLoggingKey,
    block_key_at,
    first_message_key,
    next_message_key,
)

BLOCK_MAGIC = b"EMLB"
FORMAT_VERSION = 1

TAG_LEN = 32
TEXT_FIELD_LEN = 256
TEXT_PREFIX_LEN = 2
MAX_TEXT_LEN = TEXT_FIELD_LEN - TEXT_PREFIX_LEN  # 254
RECORD_LEN = 4 + TAG_LEN + TEXT_FIELD_LEN  # 292

_BLOCK_HEADER = struct.Struct(">4sBII")
# Bytes a serialized block adds around its records: header and signature.
BLOCK_ENVELOPE_LEN = _BLOCK_HEADER.size + SIGNATURE_LEN

# Record statuses used in verification reports.
STATUS_OK = "ok"
STATUS_BAD_SIGNATURE = "bad-signature"
STATUS_BAD_HMAC = "bad-hmac"
STATUS_ORDER_VIOLATION = "order-violation"
STATUS_GAP = "gap"
STATUS_SEAL_FAILURE = "seal-failure"

FINDING_TRUNCATION = "truncation"
FINDING_MISSING_STATE = "missing-state"
FINDING_BEYOND_STATE = "blocks-beyond-state"
FINDING_KEY_MISMATCH = "wholesale-key-mismatch"
FINDING_INTEGRITY_ALARM = "integrity-alarm"


def pack_text_field(text: bytes, continuation: bool = False) -> bytes:
    """Build the fixed 256-byte text field: length/flag prefix + content."""
    if len(text) > MAX_TEXT_LEN:
        raise InvalidParameter(f"text exceeds {MAX_TEXT_LEN} bytes: {len(text)}")
    prefix = (len(text) << 4) | (0x08 if continuation else 0x00)
    return struct.pack(">H", prefix) + text + b"\x00" * (MAX_TEXT_LEN - len(text))


def unpack_text_field(fieldbytes: bytes) -> tuple[bytes, bool]:
    """Inverse of pack_text_field; returns (content, continuation)."""
    if len(fieldbytes) != TEXT_FIELD_LEN:
        raise ParseError(f"text field must be {TEXT_FIELD_LEN} bytes")
    prefix = struct.unpack(">H", fieldbytes[:TEXT_PREFIX_LEN])[0]
    used = prefix >> 4
    continuation = bool(prefix & 0x08)
    if used > MAX_TEXT_LEN:
        raise ParseError(f"text field claims {used} used bytes")
    return fieldbytes[TEXT_PREFIX_LEN : TEXT_PREFIX_LEN + used], continuation


def record_preimage(block_id: int, msg_id: int, text_field: bytes) -> bytes:
    return struct.pack(">II", block_id, msg_id) + text_field


@dataclass(frozen=True)
class LogRecord:
    msg_id: int
    tag: bytes
    text_field: bytes

    def __post_init__(self) -> None:
        if len(self.tag) != TAG_LEN:
            raise InvalidParameter(f"tag must be {TAG_LEN} bytes")
        if len(self.text_field) != TEXT_FIELD_LEN:
            raise InvalidParameter(f"text field must be {TEXT_FIELD_LEN} bytes")

    @property
    def text(self) -> bytes:
        return unpack_text_field(self.text_field)[0]

    @property
    def continuation(self) -> bool:
        return unpack_text_field(self.text_field)[1]

    def serialize(self) -> bytes:
        return struct.pack(">I", self.msg_id) + self.tag + self.text_field

    @classmethod
    def deserialize(cls, data: bytes) -> "LogRecord":
        if len(data) != RECORD_LEN:
            raise ParseError(f"record must be {RECORD_LEN} bytes, got {len(data)}")
        msg_id = struct.unpack(">I", data[:4])[0]
        return cls(msg_id=msg_id, tag=data[4 : 4 + TAG_LEN], text_field=data[4 + TAG_LEN :])


def make_record(
    msg_id: int,
    text: bytes,
    key: MessageKey,
    continuation: bool = False,
    erase_key: bool = True,
) -> LogRecord:
    """Tag one log chunk under its position-bound message key.

    The key must match the record coordinate exactly.  By default the key
    buffer is zeroed after tagging; the writer defers erasure to the chain
    advance because the same key material also feeds the successor
    derivation.
    """
    if key.msg_id != msg_id:
        raise KeyMisuse(
            f"key coordinate ({key.block_id},{key.msg_id}) does not match msg_id {msg_id}"
        )
    text_field = pack_text_field(text, continuation)
    tag = hmac_mod.digest(
        key.key_bytes(), record_preimage(key.block_id, msg_id, text_field), "sha256"
    )
    if erase_key:
        key.erase()
    return LogRecord(msg_id=msg_id, tag=tag, text_field=text_field)


@dataclass(frozen=True)
class Block:
    """A finalized, signed run of records."""

    block_id: int
    records: tuple[LogRecord, ...]
    signature: bytes

    def serialize(self) -> bytes:
        head = _BLOCK_HEADER.pack(BLOCK_MAGIC, FORMAT_VERSION, self.block_id, len(self.records))
        body = b"".join(r.serialize() for r in self.records)
        return head + body + self.signature

    @classmethod
    def deserialize(cls, data: bytes) -> "Block":
        if len(data) < BLOCK_ENVELOPE_LEN:
            raise ParseError("block too short")
        magic, version, block_id, count = _BLOCK_HEADER.unpack_from(data)
        if magic != BLOCK_MAGIC:
            raise ParseError(f"bad block magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ParseError(f"unsupported block format version {version}")
        expected = BLOCK_ENVELOPE_LEN + count * RECORD_LEN
        if len(data) != expected:
            raise ParseError(f"block length {len(data)} does not match declared count {count}")
        records = []
        offset = _BLOCK_HEADER.size
        for _ in range(count):
            records.append(LogRecord.deserialize(data[offset : offset + RECORD_LEN]))
            offset += RECORD_LEN
        return cls(block_id=block_id, records=tuple(records), signature=data[offset:])


def block_sign_preimage(block_id: int, tags: list[bytes]) -> bytes:
    return struct.pack(">II", block_id, len(tags)) + b"".join(tags)


def sign_block(block_id: int, records: list[LogRecord], identity: DeviceIdentity) -> Block:
    """Finalize a block: sign the tag concatenation with the device key."""
    if not records:
        raise InvalidParameter("cannot sign an empty block")
    preimage = block_sign_preimage(block_id, [r.tag for r in records])
    return Block(block_id=block_id, records=tuple(records), signature=identity.sign(preimage))


def verify_block_public(block: Block, public_key: ec.EllipticCurvePublicKey) -> str:
    """Signature-only check: authenticates origin without any chain secret.

    Record text is not covered directly (only the tags are signed), so
    HMAC-level tampering is out of this path's scope by design.
    """
    if len(block.signature) != SIGNATURE_LEN:
        raise ParseError(f"signature must be {SIGNATURE_LEN} bytes, got {len(block.signature)}")
    preimage = block_sign_preimage(block.block_id, [r.tag for r in block.records])
    return STATUS_OK if verify_raw(public_key, preimage, block.signature) else STATUS_BAD_SIGNATURE


@dataclass
class BlockVerification:
    """Per-record verification outcome for one block."""

    block_id: int
    signature_ok: bool
    record_order_ok: bool = True
    bad_records: list[int] = field(default_factory=list)
    checked_records: int = 0

    @property
    def ok(self) -> bool:
        return self.signature_ok and self.record_order_ok and not self.bad_records

    @property
    def first_bad_msg_id(self) -> int | None:
        return self.bad_records[0] if self.bad_records else None


def verify_block_full(
    block: Block,
    rlk: RootLoggingKey,
    params: ChainParams,
    public_key: ec.EllipticCurvePublicKey,
) -> BlockVerification:
    """Recompute every message key and tag from the RLK, plus the signature."""
    if rlk.destroyed:
        raise KeyUnavailable("root logging key unavailable for full verification")
    try:
        signature_ok = verify_block_public(block, public_key) == STATUS_OK
    except ParseError:
        signature_ok = False
    result = BlockVerification(block_id=block.block_id, signature_ok=signature_ok)
    result.checked_records = len(block.records)

    order_ok = [r.msg_id for r in block.records] == list(range(len(block.records)))
    result.record_order_ok = order_ok
    # Keys are derived for the declared positions, each erased as its
    # successor is derived; records whose claimed msg_id disagrees with
    # their position fail their tag check below.
    if len(block.records) > params.m:
        raise InvalidParameter(f"count {len(block.records)} outside [0, m={params.m}]")
    bk = block_key_at(rlk, block.block_id, params)
    key = first_message_key(bk) if block.records else None
    bk.erase()
    for position, record in enumerate(block.records):
        if position:
            key = next_message_key(key, params)
        preimage = record_preimage(block.block_id, position, record.text_field)
        expected = hmac_mod.digest(key.key_bytes(), preimage, "sha256")
        if record.msg_id != position or not hmac_mod.compare_digest(expected, record.tag):
            result.bad_records.append(position)
    if key is not None:
        key.erase()
    return result


# Sequence-level verification ---------------------------------------------


@dataclass
class BlockEntry:
    block_id: int
    status: str
    msg_id: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        d = {"block_id": self.block_id, "status": self.status}
        if self.msg_id is not None:
            d["msg_id"] = self.msg_id
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class VerificationReport:
    """Per-block outcomes plus sequence-level findings for an audit run."""

    mode: str
    expected_start: int
    entries: list[BlockEntry] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        ok = all(e.status == STATUS_OK for e in self.entries) and not self.findings
        return "ok" if ok else "fail"

    @property
    def first_failure(self) -> tuple[int, int | None] | None:
        for entry in self.entries:
            if entry.status != STATUS_OK:
                return (entry.block_id, entry.msg_id)
        return None

    def add(self, entry: BlockEntry) -> None:
        self.entries.append(entry)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "expected_start": self.expected_start,
            "verdict": self.verdict,
            "first_failure": self.first_failure,
            "entries": [e.to_dict() for e in self.entries],
            "findings": list(self.findings),
            "notes": list(self.notes),
        }


def verify_sequence(
    blocks: list[Block],
    expected_start: int,
    state,
    rlk: RootLoggingKey | None,
    public_key: ec.EllipticCurvePublicKey,
    params: ChainParams,
    report: VerificationReport | None = None,
    expected_end: int | None = None,
) -> VerificationReport:
    """Audit an ordered run of blocks against the committed chain state.

    ``state`` is a ChainState (or None for a missing state record, which is
    itself a finding).  With an RLK the full hash matrix is recomputed; with
    rlk=None only signatures and structure are checked (public mode).  The
    run must reach ``expected_end`` (a requested last block) or, when that
    is None or beyond the state, the newest committed block.
    """
    mode = "full" if rlk is not None else "public"
    if report is None:
        report = VerificationReport(mode=mode, expected_start=expected_start)
    else:
        report.mode = mode
    if rlk is None:
        report.notes.append("hmac-unverified (no RLK)")

    claimed_ids = {b.block_id for b in blocks}
    expected_id = expected_start
    for position, block in enumerate(blocks):
        if block.block_id != expected_id:
            if expected_id in claimed_ids:
                # The expected block exists elsewhere in the run: a reorder,
                # not a deletion.
                report.add(
                    BlockEntry(
                        block.block_id,
                        STATUS_ORDER_VIOLATION,
                        detail=f"position {position}: got block {block.block_id}, "
                        f"expected {expected_id}",
                    )
                )
                expected_id = block.block_id + 1
                continue
            if block.block_id < expected_id:
                report.add(
                    BlockEntry(
                        block.block_id,
                        STATUS_ORDER_VIOLATION,
                        detail=f"position {position}: block id regressed below {expected_id}",
                    )
                )
                expected_id = block.block_id + 1
                continue
            report.add(
                BlockEntry(
                    expected_id,
                    STATUS_GAP,
                    detail=f"blocks {expected_id}..{block.block_id - 1} missing",
                )
            )
            expected_id = block.block_id

        report.add(_verify_one(block, rlk, params, public_key, report))
        expected_id = block.block_id + 1

    _check_state_consistency(report, blocks, state, mode, expected_end)
    return report


def _verify_one(block, rlk, params, public_key, report) -> BlockEntry:
    if rlk is not None:
        try:
            outcome = verify_block_full(block, rlk, params, public_key)
        except InvalidParameter as exc:
            return BlockEntry(block.block_id, STATUS_ORDER_VIOLATION, detail=str(exc))
        if outcome.ok:
            return BlockEntry(block.block_id, STATUS_OK)
        if outcome.bad_records:
            if not outcome.signature_ok:
                report.notes.append(f"block {block.block_id}: signature also invalid")
            return BlockEntry(
                block.block_id, STATUS_BAD_HMAC, msg_id=outcome.first_bad_msg_id
            )
        if not outcome.record_order_ok:
            return BlockEntry(block.block_id, STATUS_ORDER_VIOLATION)
        return BlockEntry(block.block_id, STATUS_BAD_SIGNATURE)
    try:
        status = verify_block_public(block, public_key)
    except ParseError as exc:
        report.notes.append(f"block {block.block_id}: {exc}")
        status = STATUS_BAD_SIGNATURE
    return BlockEntry(block.block_id, status)


def _check_state_consistency(report, blocks, state, mode, expected_end) -> None:
    if state is None:
        report.findings.append(FINDING_MISSING_STATE)
        return
    latest = state.latest_block_id
    highest = max((b.block_id for b in blocks), default=None)
    if latest is None:
        if highest is not None:
            report.findings.append(
                f"{FINDING_BEYOND_STATE}: state records no commits but blocks present"
            )
        return
    if highest is None:
        report.findings.append(
            f"{FINDING_TRUNCATION}: no blocks presented but state commits through {latest}"
        )
        return
    if expected_end is not None and expected_end < latest:
        due, source = expected_end, "request ends at"
    else:
        due, source = latest, "state commits through"
    if highest < due:
        report.findings.append(f"{FINDING_TRUNCATION}: blocks end at {highest} but {source} {due}")
    elif highest > latest:
        report.findings.append(
            f"{FINDING_BEYOND_STATE}: block {highest} exceeds committed {latest}"
        )
    if mode == "full" and report.entries:
        hmac_failures = sum(1 for e in report.entries if e.status == STATUS_BAD_HMAC)
        if hmac_failures == len(report.entries) and hmac_failures > 1:
            report.findings.append(
                f"{FINDING_KEY_MISMATCH}: every block failed HMAC; root key likely wrong"
            )
