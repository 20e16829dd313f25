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

The chain digest binds a run of blocks to the exact bytes committed:
H_k = SHA-256(H_{k-1} || sign_preimage_k || signature_k), from
H_{-1} = 32 zero bytes.  It covers what each signature covers, plus the
signature; record texts are bound by their tags, which the full audit
checks.  The chain state carries H through its newest block, so a block
the device signed under the same id but never committed, such as one a
crash left behind, no longer passes for the committed one.

A ``Block`` is its bytes.  One built from records is encoded when it is
built; one read from bytes (disk or wire) keeps them, and deserializing
checks only the header and the length.  A block has two checks, one
function each: ``verify_block_public`` checks the signature over the tags,
``verify_block_full`` every record's tag under the RLK; a full audit makes
both.  Both read the records straight out of the body, the signature check
its tags and the tag check every field.  The signer reads the signature
preimage from the encoded block with the same code the verifier uses.
Records read from bytes are decoded on the first read of
``block.records``, which only entry reassembly makes.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import struct
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import starmap
from typing import Callable, Container, Iterable, NamedTuple, Sequence

from cryptography.hazmat.primitives.asymmetric import ec

from .errors import InvalidParameter, ParseError
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
FINDING_HISTORY_MISMATCH = "history-mismatch"

# The chain digest before any block, H_{-1}.
GENESIS_DIGEST = bytes(32)


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


# Most signed-field structs kept compiled, one per record count.  Each
# holds about 42 bytes per record (100 KB at 2,500 records), so the cache
# is bounded; 8 covers a block length and the partial blocks audited with it.
_SIGNED_FIELDS_CACHED = 8


@lru_cache(maxsize=_SIGNED_FIELDS_CACHED)
def _signed_fields(count: int) -> struct.Struct:
    """The struct that reads, from the encoding of a block of ``count``
    records, the BE32 block_id || BE32 record_count header bytes and then
    each record's tag, skipping every other byte."""
    return struct.Struct(">5x8s" + "4x32s256x" * count)


def _sign_preimage(data: bytes, end: int) -> bytes:
    """What a block's signature covers, read from its encoding ``data``
    whose records end at ``end``: BE32 block_id || BE32 record_count, then
    each record's tag.  The signer and the verifier both read it here.

    The header bytes and all the tags come out of one ``unpack_from``
    whose struct is compiled once per record count and kept in a small
    bounded cache.
    """
    count = (end - _BLOCK_HEADER.size) // RECORD_LEN
    return b"".join(_signed_fields(count).unpack_from(data))


def _encode_unsigned(block_id: int, records: Sequence[LogRecord]) -> bytes:
    """A block's encoding up to its signature: the header, then the records."""
    head = _BLOCK_HEADER.pack(BLOCK_MAGIC, FORMAT_VERSION, block_id, len(records))
    return b"".join((head, *starmap(_RECORD.pack, records)))


class Block:
    """A finalized, signed run of records, held as its ``EMLB`` bytes.

    Every block keeps its bytes only, whether built from records, signed by
    ``sign_block`` or read by ``deserialize``, and decodes its records on
    the first read of ``records``.  ``serialize()``
    returns the bytes, and ``sign_preimage()`` reads the tags from them on
    each call, without decoding a record.  Blocks are compared by their
    bytes and are not changed after construction.
    """

    __slots__ = ("block_id", "signature", "_records", "_data")

    def __init__(self, block_id: int, records: Sequence[LogRecord], signature: bytes) -> None:
        self.block_id = block_id
        self.signature = signature
        self._records: tuple[LogRecord, ...] | None = None
        self._data = _encode_unsigned(block_id, records) + signature

    @property
    def records(self) -> tuple[LogRecord, ...]:
        if self._records is None:
            body = memoryview(self._data)[_BLOCK_HEADER.size : -SIGNATURE_LEN]
            self._records = tuple(map(_record_from_fields, _RECORD.iter_unpack(body)))
        return self._records

    def serialize(self) -> bytes:
        return self._data

    def sign_preimage(self) -> bytes:
        return _sign_preimage(self._data, len(self._data) - len(self.signature))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"Block(block_id={self.block_id}, {len(self._data)} bytes)"

    @classmethod
    def _of(cls, data: bytes, block_id: int) -> "Block":
        """The block ``block_id`` whose checked encoding is ``data``."""
        block = cls.__new__(cls)
        block.block_id = block_id
        block.signature = data[-SIGNATURE_LEN:]
        block._records = None
        block._data = data
        return block

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
        return cls._of(data, block_id)


def sign_block(block_id: int, records: list[LogRecord], identity: DeviceIdentity) -> Block:
    """Finalize a block: encode it, then sign the preimage read from its
    bytes with the device key."""
    if not records:
        raise InvalidParameter("cannot sign an empty block")
    unsigned = _encode_unsigned(block_id, records)
    signature = identity.sign(_sign_preimage(unsigned, len(unsigned)))
    return Block._of(unsigned + signature, block_id)


def chain_digest(digest: bytes, block: Block) -> bytes:
    """The chain digest through ``block``, from ``digest``, the one through
    the block before it: SHA-256(digest || sign preimage || signature)."""
    return hashlib.sha256(digest + block.sign_preimage() + block.signature).digest()


def verify_block_public(block: Block, public_key: ec.EllipticCurvePublicKey | None) -> str:
    """Signature-only check: authenticates origin without any chain secret.

    Record text is not covered directly (only the tags are signed), so
    HMAC-level tampering is out of this path's scope by design.  The tags
    are read from the block's bytes; no record is decoded.  A signature
    that is not 64 bytes is a bad one.  With ``public_key`` None nothing
    is checked and the status is ok: the caller checks the chain digest,
    which covers every signature.
    """
    ok = public_key is None or verify_raw(public_key, block.sign_preimage(), block.signature)
    return STATUS_OK if ok else STATUS_BAD_SIGNATURE


def verify_block_full(block: Block, rlk: RootLoggingKey, params: ChainParams) -> list[int]:
    """Recompute every message key and tag from the RLK; return the
    positions whose record fails, in order.  The signature is
    ``verify_block_public``'s to check.

    The records are checked in one pass over the block's bytes; none is
    decoded into a ``LogRecord``.  A block of more than ``params.m``
    records raises ``InvalidParameter``.
    """
    data, block_id = block.serialize(), block.block_id
    body = memoryview(data)[_BLOCK_HEADER.size : len(data) - len(block.signature)]

    # Keys are derived for the declared positions, each overwriting its
    # predecessor; records whose claimed msg_id disagrees with their
    # position fail their tag check below.  The walk is drawn first, so it
    # runs to its end, and zeroes its buffer, before the records do.
    bad, compare = [], hmac_mod.compare_digest
    keys = walk_message_chain(rlk, block_id, len(body) // RECORD_LEN, params)
    for position, (key, (msg_id, tag, text_field)) in enumerate(
        zip(keys, _RECORD.iter_unpack(body))
    ):
        expected = hmac_sha256(key, record_preimage(block_id, position, text_field))
        if msg_id != position or not compare(expected, tag):
            bad.append(position)
    return bad


# Sequence-level verification ---------------------------------------------


@dataclass(slots=True)
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
    run: Iterable[tuple[int, Block | None, str | None]],
    expected_start: int,
    state,
    rlk: RootLoggingKey | None,
    public_key: Callable[[], ec.EllipticCurvePublicKey],
    params: ChainParams | None = None,
    report: VerificationReport | None = None,
    expected_end: int | None = None,
    run_ids: Container[int] = (),
) -> VerificationReport:
    """Audit a run of blocks against the committed chain state.

    ``run`` yields ``(block_id, block, error)`` triples in the order the
    blocks were presented, as ``SealedStore.iter_committed_blocks`` does,
    and none is kept.  An ``error`` of ``"missing"`` means the id has no
    stored copy: it is skipped, so the next present id opens a ``gap``, and
    a missing tail is left to the truncation check.  Any other ``error``
    makes a ``seal-failure`` entry at the id's place; a ``block`` is
    verified.  ``run_ids`` holds every id of a presented (fetched) run, so
    an expected id that comes later makes an ``order-violation``, not a
    ``gap``; a store run reads ids in ascending order and passes none.

    ``state`` is a ChainState (or None for a missing state record, which is
    itself a finding).  ``public_key`` returns the device key: it is called
    at most once, just before a fold that checks signatures, so an audit
    that checks none never makes the key, which may mean parsing a
    certificate.  Each block's signature is checked and, with an RLK,
    every record tag under the chain ``params``: a block with a failing tag
    is ``bad-hmac`` at its first failing position, with a note when its
    signature failed too.  With rlk=None only signatures and structure are
    checked (public mode), and ``params`` is not needed.  The
    run must reach ``expected_end`` (a requested last block) or, when that
    is None or beyond the state, the newest committed block.  A run that
    starts past the newest committed block has nothing due.

    A run due from block 0 through the newest committed block must also
    reproduce the state's chain digest.  The audit is one fold over the
    run, which gives each id its entry and extends the digest when one is
    due; it runs at most twice.  A full or public audit of a due run folds
    it first with no public key: the digest, and with an RLK every record
    tag, but no block signature, since a matching digest covers every
    signature the device made at commit.  When that fold finds nothing,
    its entries are the report's: 0 signature checks.  Otherwise, and on
    any other run, the fold runs with the key into ``report``: one check
    per block, and 2 fold calls per block present on a faulted due run.
    So ``run`` must start over on each ``iter()``, as a list does; a
    one-shot iterator is folded once, with the key.  A digest that does
    not match when the fold finds nothing else is a ``history-mismatch``
    finding: every block is one the device signed, but not the one it
    committed.
    """
    mode = "full" if rlk is not None else "public"
    if report is None:
        report = VerificationReport(mode=mode, expected_start=expected_start)
    report.mode = mode
    if rlk is None:
        report.notes.append("hmac-unverified (no RLK)")

    due = _due_digest(state, expected_start, expected_end)
    if due is not None and iter(run) is not run:
        first = VerificationReport(mode=mode, expected_start=expected_start)
        _fold(run, first, state, rlk, params, None, due, expected_end, run_ids)
        if first.verdict == "ok":
            report.entries.extend(first.entries)
            return report
    _fold(run, report, state, rlk, params, public_key(), due, expected_end, run_ids)
    return report


def _fold(run, report, state, rlk, params, public_key, due, expected_end, run_ids) -> None:
    """Audit ``run`` from ``report.expected_start`` into ``report``: an
    entry per presented id, then the findings on the run as a whole."""
    # All the fold keeps: the id due next, the highest id seen and the digest.
    expected_id, highest, digest = report.expected_start, -1, GENESIS_DIGEST
    findings = len(report.findings)
    for position, (block_id, block, error) in enumerate(run):
        if error == "missing":
            continue
        highest = max(highest, block_id)
        if block_id != expected_id:
            if block_id > expected_id and expected_id not in run_ids:
                detail = f"blocks {expected_id}..{block_id - 1} missing"
                report.entries.append(BlockEntry(expected_id, STATUS_GAP, detail=detail))
            else:
                # A reorder, not a deletion: the expected block comes later
                # in the run, or this one belongs before it.
                if expected_id in run_ids:
                    detail = f"position {position}: got block {block_id}, expected {expected_id}"
                else:
                    detail = f"position {position}: block id regressed below {expected_id}"
                report.entries.append(BlockEntry(block_id, STATUS_ORDER_VIOLATION, detail=detail))
                expected_id = block_id + 1
                continue
        if error is not None:
            report.entries.append(BlockEntry(block_id, STATUS_SEAL_FAILURE, detail=error))
        else:
            report.entries.append(_verify_one(block, rlk, params, public_key, report))
            if due is not None:
                digest = chain_digest(digest, block)
        expected_id = block_id + 1

    _check_state_consistency(report, highest, state, expected_end)
    if (
        due is not None
        and digest != due
        and len(report.findings) == findings
        and all(e.status == STATUS_OK for e in report.entries)
    ):
        report.findings.append(
            f"{FINDING_HISTORY_MISMATCH}: blocks 0..{state.latest_block_id} "
            "are not the ones the chain state commits"
        )


def _due_digest(state, expected_start: int, expected_end: int | None) -> bytes | None:
    """The chain digest a run must reproduce: the state's, when the run is
    due from block 0 through the newest committed block; otherwise None."""
    if state is None or state.latest_block_id is None or expected_start != 0:
        return None
    if expected_end is not None and expected_end < state.latest_block_id:
        return None
    return state.chain_digest


def _verify_one(block, rlk, params, public_key, report) -> BlockEntry:
    signature = verify_block_public(block, public_key)
    if rlk is None:
        return BlockEntry(block.block_id, signature)
    try:
        bad = verify_block_full(block, rlk, params)
    except InvalidParameter as exc:
        return BlockEntry(block.block_id, STATUS_ORDER_VIOLATION, detail=str(exc))
    if not bad:
        return BlockEntry(block.block_id, signature)
    if signature != STATUS_OK:
        report.notes.append(f"block {block.block_id}: signature also invalid")
    return BlockEntry(block.block_id, STATUS_BAD_HMAC, msg_id=bad[0])


def beyond_state_finding(block_id: int, latest: int | None) -> str:
    """The finding for block ``block_id`` lying beyond the newest committed
    block ``latest`` (None when nothing is committed)."""
    if latest is None:
        return f"{FINDING_BEYOND_STATE}: state records no commits but blocks present"
    return f"{FINDING_BEYOND_STATE}: block {block_id} exceeds committed {latest}"


def _check_state_consistency(report, highest, state, expected_end) -> None:
    """Findings on the run as a whole; ``highest`` is the highest id it
    presented, -1 for none.  An unreadable block is present, and already
    reported as a seal failure: it does not also end the run early."""
    if state is None:
        report.findings.append(FINDING_MISSING_STATE)
        return
    latest = state.latest_block_id
    if latest is None:
        if highest >= 0:
            report.findings.append(beyond_state_finding(highest, latest))
        return
    if highest < 0:
        # A run that starts past the newest committed block has nothing due.
        if report.expected_start <= latest:
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
        report.findings.append(beyond_state_finding(highest, latest))
    if report.mode == "full" and report.entries:
        hmac_failures = sum(1 for e in report.entries if e.status == STATUS_BAD_HMAC)
        if hmac_failures == len(report.entries) and hmac_failures > 1:
            report.findings.append(
                f"{FINDING_KEY_MISMATCH}: every block failed HMAC; root key likely wrong"
            )
