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
BE32 record_count, the records, then the 64-byte raw r||s signature.  The
signed header fields are bytes 5 to 12 of that encoding, so a serialized
block carries its own signature preimage.

A ``Block`` read from bytes (disk or wire) keeps those bytes: deserializing
checks only the header and the length, the signature check reads the tags
straight out of the body, and records are decoded on the first read of
``block.records``, which only the full audit and entry reassembly make.
"""

from __future__ import annotations

import hmac as hmac_mod
import struct
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, starmap
from operator import itemgetter
from typing import NamedTuple

from cryptography.hazmat.primitives.asymmetric import ec

from .errors import InvalidParameter, KeyUnavailable, ParseError
from .identity import SIGNATURE_LEN, DeviceIdentity, verify_raw
from .keyschedule import (
    ChainParams,
    RootLoggingKey,
    hmac_sha256,
    walk_message_chain,
)

BLOCK_MAGIC = b"EMLB"
FORMAT_VERSION = 1

TAG_LEN = 32
TEXT_FIELD_LEN = 256
TEXT_PREFIX_LEN = 2
MAX_TEXT_LEN = TEXT_FIELD_LEN - TEXT_PREFIX_LEN  # 254
# The one record codec: BE32 msg_id, tag, text field.
_RECORD = struct.Struct(">I32s256s")
RECORD_LEN = _RECORD.size  # 292

# The text field: the length/flag prefix, then the content zero padded.
_TEXT_FIELD = struct.Struct(">H254s")

# One record's tag, read in place from a serialized body.
_RECORD_TAG = struct.Struct(">4x32s256x")

_BLOCK_HEADER = struct.Struct(">4sBII")
# BE32 block_id || BE32 record_count inside a serialized block's header.
_SIGNED_HEADER = slice(5, _BLOCK_HEADER.size)
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
    return _TEXT_FIELD.pack(len(text) << 4 | (0x08 if continuation else 0x00), text)


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


# A record tag's preimage: BE32 block_id || BE32 msg_id || text field.
record_preimage = struct.Struct(">II256s").pack


class _RecordFields(NamedTuple):
    msg_id: int
    tag: bytes
    text_field: bytes


class LogRecord(_RecordFields):
    """One 292-byte record: an immutable (msg_id, tag, text_field) triple.

    Direct construction checks the field lengths; the codec builds records
    through ``_record_from_fields``, since its struct format fixes them.
    """

    __slots__ = ()

    def __new__(cls, msg_id: int, tag: bytes, text_field: bytes) -> "LogRecord":
        if len(tag) != TAG_LEN:
            raise InvalidParameter(f"tag must be {TAG_LEN} bytes")
        if len(text_field) != TEXT_FIELD_LEN:
            raise InvalidParameter(f"text field must be {TEXT_FIELD_LEN} bytes")
        return super().__new__(cls, msg_id, tag, text_field)

    @property
    def text(self) -> bytes:
        return unpack_text_field(self.text_field)[0]

    @property
    def continuation(self) -> bool:
        return unpack_text_field(self.text_field)[1]

    def serialize(self) -> bytes:
        return _RECORD.pack(*self)

    @classmethod
    def deserialize(cls, data: bytes) -> "LogRecord":
        if len(data) != RECORD_LEN:
            raise ParseError(f"record must be {RECORD_LEN} bytes, got {len(data)}")
        return _record_from_fields(_RECORD.unpack(data))


# ``LogRecord._make`` minus its field-count check, as one C call.
_record_from_fields = partial(tuple.__new__, LogRecord)


def make_record(
    block_id: int, msg_id: int, text: bytes, key: bytearray, continuation: bool = False
) -> LogRecord:
    """Tag one log chunk under the message key of its position.

    ``key`` is the 32-byte message key for (block_id, msg_id), as the
    message walk yields it.  The caller owns the key buffer: it is read,
    never kept or erased here.
    """
    text_field = pack_text_field(text, continuation)
    tag = hmac_sha256(key, record_preimage(block_id, msg_id, text_field))
    return _record_from_fields((msg_id, tag, text_field))


class Block:
    """A finalized, signed run of records.

    A block holds its records, its serialized bytes, or both, and derives
    the missing one once, on first use: a block built from records encodes
    on its first ``serialize()``, and a block read by ``deserialize`` keeps
    the bytes it was given, so ``serialize()`` returns exactly them and
    ``records`` decodes them on first read.  ``sign_preimage()`` reads the
    tags from the bytes and never decodes a record.  Blocks are compared by
    their bytes and are not changed after construction.
    """

    __slots__ = ("block_id", "signature", "_records", "_data")

    def __init__(self, block_id: int, records: tuple[LogRecord, ...], signature: bytes) -> None:
        self.block_id = block_id
        self.signature = signature
        self._records: tuple[LogRecord, ...] | None = tuple(records)
        self._data: bytes | None = None

    @property
    def records(self) -> tuple[LogRecord, ...]:
        if self._records is None:
            body = memoryview(self._data)[_BLOCK_HEADER.size : -SIGNATURE_LEN]
            self._records = tuple(map(_record_from_fields, _RECORD.iter_unpack(body)))
        return self._records

    def serialize(self) -> bytes:
        if self._data is None:
            records = self._records
            head = _BLOCK_HEADER.pack(BLOCK_MAGIC, FORMAT_VERSION, self.block_id, len(records))
            self._data = b"".join((head, *starmap(_RECORD.pack, records), self.signature))
        return self._data

    def sign_preimage(self) -> bytes:
        """``block_sign_preimage(block_id, tags)``, taken from the bytes."""
        data = self.serialize()
        body = memoryview(data)[_BLOCK_HEADER.size : len(data) - len(self.signature)]
        tags = map(itemgetter(0), _RECORD_TAG.iter_unpack(body))
        return data[_SIGNED_HEADER] + b"".join(tags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self.serialize() == other.serialize()

    def __hash__(self) -> int:
        return hash(self.serialize())

    def __repr__(self) -> str:
        return f"Block(block_id={self.block_id}, {len(self.serialize())} bytes)"

    @classmethod
    def deserialize(cls, data: bytes) -> "Block":
        data = bytes(data)
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
        block = cls.__new__(cls)
        block.block_id = block_id
        block.signature = data[-SIGNATURE_LEN:]
        block._records = None
        block._data = data
        return block


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
    HMAC-level tampering is out of this path's scope by design.  The tags
    are read from the block's bytes; no record is decoded.
    """
    if len(block.signature) != SIGNATURE_LEN:
        raise ParseError(f"signature must be {SIGNATURE_LEN} bytes, got {len(block.signature)}")
    ok = verify_raw(public_key, block.sign_preimage(), block.signature)
    return STATUS_OK if ok else STATUS_BAD_SIGNATURE


@dataclass
class BlockVerification:
    """Per-record verification outcome for one block."""

    block_id: int
    signature_ok: bool
    bad_records: list[int] = field(default_factory=list)
    checked_records: int = 0

    @property
    def ok(self) -> bool:
        return self.signature_ok and not self.bad_records

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

    # Keys are derived for the declared positions, each overwriting its
    # predecessor; records whose claimed msg_id disagrees with their
    # position fail their tag check below.
    records = block.records
    keys = walk_message_chain(rlk, block.block_id, len(records), params)
    for position, key in enumerate(keys):
        record = records[position]
        expected = hmac_sha256(key, record_preimage(block.block_id, position, record.text_field))
        if record.msg_id != position or not hmac_mod.compare_digest(expected, record.tag):
            result.bad_records.append(position)
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
    params: ChainParams | None = None,
    report: VerificationReport | None = None,
    expected_end: int | None = None,
    unreadable: dict[int, str] | None = None,
) -> VerificationReport:
    """Audit an ordered run of blocks against the committed chain state.

    ``state`` is a ChainState (or None for a missing state record, which is
    itself a finding).  With an RLK the full hash matrix is recomputed under
    the chain ``params``; with rlk=None only signatures and structure are
    checked (public mode), and ``params`` is not needed.  The
    run must reach ``expected_end`` (a requested last block) or, when that
    is None or beyond the state, the newest committed block.  A run that
    starts past the newest committed block has nothing due.

    ``unreadable`` maps the ids of blocks whose stored copy exists but could
    not be read to the reason; each gets a ``seal-failure`` entry at its
    place in the run, and a ``gap`` covers only the ids with no copy.
    """
    unreadable = unreadable or {}
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
            _add_absent(report, expected_id, block.block_id - 1, unreadable)
            expected_id = block.block_id

        report.add(_verify_one(block, rlk, params, public_key, report))
        expected_id = block.block_id + 1
    trailing = [block_id for block_id in unreadable if block_id >= expected_id]
    if trailing:
        _add_absent(report, expected_id, max(trailing), unreadable)

    _check_state_consistency(
        report, blocks, unreadable, state, mode, expected_start, expected_end
    )
    return report


def _add_absent(report, first: int, last: int, unreadable: dict[int, str]) -> None:
    """Entries for ids first..last, which no block of the run has: a seal
    failure for each unreadable one, a gap over each run of the others."""
    for block_id in sorted(i for i in unreadable if first <= i <= last):
        if first < block_id:
            report.add(_gap(first, block_id - 1))
        report.add(BlockEntry(block_id, STATUS_SEAL_FAILURE, detail=unreadable[block_id]))
        first = block_id + 1
    if first <= last:
        report.add(_gap(first, last))


def _gap(first: int, last: int) -> BlockEntry:
    return BlockEntry(first, STATUS_GAP, detail=f"blocks {first}..{last} missing")


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
        return BlockEntry(block.block_id, STATUS_BAD_SIGNATURE)
    try:
        status = verify_block_public(block, public_key)
    except ParseError as exc:
        report.notes.append(f"block {block.block_id}: {exc}")
        status = STATUS_BAD_SIGNATURE
    return BlockEntry(block.block_id, status)


def _check_state_consistency(
    report, blocks, unreadable, state, mode, expected_start, expected_end
) -> None:
    if state is None:
        report.findings.append(FINDING_MISSING_STATE)
        return
    latest = state.latest_block_id
    # An unreadable block is present, and already reported as a seal
    # failure: it does not also end the run early.
    highest = max(chain((b.block_id for b in blocks), unreadable), default=None)
    if latest is None:
        if highest is not None:
            report.findings.append(
                f"{FINDING_BEYOND_STATE}: state records no commits but blocks present"
            )
        return
    if highest is None:
        # A run that starts past the newest committed block has nothing due.
        if expected_start <= latest:
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
