"""Log ingestion: source shape checks, entry chunking, and chain assembly.

Entries arrive as newline-delimited lines in one of the supported source
formats (Apache access, Snort fast alerts, dmesg, or generic).  Each line
is committed verbatim; parsing only checks that a structured line has its
source's shape, and reads no field out of it.  Malformed lines are never
dropped: they are downgraded to generic entries with a warning and
counted, because an audit pipeline must not discard evidence on a parse
failure.

Bodies longer than one record's 254-byte payload are split into
continuation chunks; the record field's length prefix carries a
continuation bit so the verifier can reassemble entries byte-exactly.

The writer owns the producer side of the chain: it derives keys in order,
tags records, signs blocks at ``m`` records, buffers finished blocks in
RAM, and seals them to the store when the group completes (every ``c``
blocks), on epoch expiry, or on an explicit flush.  Its keys come from the
verifier's own two walks: the open group's ``block_walk``, over a copy of
the group's sealed IK, and the open block's ``message_walk``, over a copy
of that block's key.  Each walk's one buffer is overwritten by each step
and zeroed when its group or block ends or the writer closes.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from itertools import islice
from typing import Generator, Iterable, Iterator, NamedTuple

from .errors import InvalidParameter
from .keyschedule import ChainParams, block_walk, derive_ik, message_walk
from .logchain import (
    BLOCK_ENVELOPE_LEN,
    MAX_TEXT_LEN,
    RECORD_LEN,
    Block,
    LogRecord,
    make_record,
    sign_block,
)
from .sealstore import SealedStore

MAX_LINE_LEN = 64 * 1024

SOURCE_APACHE = "apache_access"
SOURCE_SNORT = "snort_fast"
SOURCE_DMESG = "dmesg"
SOURCE_GENERIC = "generic"
SOURCES = (SOURCE_APACHE, SOURCE_SNORT, SOURCE_DMESG, SOURCE_GENERIC)

# Shape checks for the structured sources.  These validate the envelope,
# not the full grammar: host token + bracketed time + quoted request for
# Apache; date-time prefix + "[**]" delimiters for Snort fast alerts;
# "[ seconds.micros ]" prefix for dmesg.
_APACHE_RE = re.compile(
    rb'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) (\S+)'
)
_SNORT_RE = re.compile(
    rb"^(\d{2}/\d{2}(?:/\d{2,4})?-\d{2}:\d{2}:\d{2}\.\d+)\s+\[\*\*\].*\[\*\*\]"
)
_DMESG_RE = re.compile(rb"^\[\s*(\d+\.\d+)\]")
_SHAPES = {SOURCE_APACHE: _APACHE_RE, SOURCE_SNORT: _SNORT_RE, SOURCE_DMESG: _DMESG_RE}


class RawEntry(NamedTuple):
    """One log line as ingested: its source, its verbatim body (the line
    without its newline) and, for a line that failed its source's shape
    check and was kept as a generic entry, the warning saying so."""

    source: str
    body: bytes
    warning: str | None = None


def parse_line(source: str, line: bytes) -> RawEntry:
    """Parse one line for the declared source format.

    A line that fails its source's shape check comes back as a generic
    entry with ``warning`` set rather than an error: ingestion is lossless.
    """
    if source not in SOURCES:
        raise InvalidParameter(f"unknown source {source!r}")
    if len(line) > MAX_LINE_LEN:
        raise InvalidParameter(f"line of {len(line)} bytes exceeds {MAX_LINE_LEN}")
    body = line.rstrip(b"\r\n")
    if not body:
        raise InvalidParameter("empty line has no entry body")

    if source == SOURCE_GENERIC:
        return RawEntry(SOURCE_GENERIC, body)
    if _SHAPES[source].match(body) is None:
        return RawEntry(SOURCE_GENERIC, body, f"line does not match {source} format")
    return RawEntry(source, body)


def chunk_entry(entry: RawEntry) -> list[tuple[bytes, bool]]:
    """Split an entry body into (payload, continuation) record chunks.

    Concatenating the payloads in order restores the body exactly; the
    continuation flag is set on every chunk except the last.
    """
    body = entry.body
    if len(body) <= MAX_TEXT_LEN:
        return [(body, False)]
    chunks = []
    for offset in range(0, len(body), MAX_TEXT_LEN):
        piece = body[offset : offset + MAX_TEXT_LEN]
        chunks.append((piece, offset + MAX_TEXT_LEN < len(body)))
    return chunks


def reassemble_entries(blocks: Iterable[Block]) -> list[bytes]:
    """Rebuild logical entry bodies from verified blocks (verifier export)."""
    entries: list[bytes] = []
    pending: list[bytes] = []
    for block in blocks:
        for record in block.records:
            pending.append(record.text)
            if not record.continuation:
                entries.append(b"".join(pending))
                pending.clear()
    if pending:  # entry truncated mid-chunk run; surface what exists
        entries.append(b"".join(pending))
    return entries


@dataclass
class IngestPolicy:
    """Chain geometry that ``ingest`` checks against the writer's store.

    The seal triggers live elsewhere: group completion and the epoch belong
    to the ``LogWriter``, and ``ingest`` flushes at the end of its input.
    """

    params: ChainParams


@dataclass
class IngestStats:
    entries: int = 0
    records: int = 0
    blocks: int = 0
    groups: int = 0
    parse_warnings: int = 0
    elapsed_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        return self.entries / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "records": self.records,
            "blocks": self.blocks,
            "groups": self.groups,
            "parse_warnings": self.parse_warnings,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_logs_per_sec": self.throughput,
        }


class LogWriter:
    """Single-writer chain producer bound to one sealed store.

    Keys are strictly single-owner here, and the writer holds them only
    inside its two walks.  The open group's block walk holds the key of the
    open block: it steps to the next block's key as soon as a block is
    signed, and is zeroed at group end or ``close()``.  The open block's
    message walk holds the last record's key: each record's key overwrites
    its predecessor's, and its buffer is zeroed at block end or
    ``close()``.  A group's intermediate key lives only until it is sealed,
    before the group's first record is tagged.
    """

    def __init__(self, store: SealedStore, epoch_seconds: float | None = None):
        if epoch_seconds is not None and epoch_seconds < 1:
            raise InvalidParameter("epoch_seconds must be >= 1 when set")
        if store.state is None:
            raise InvalidParameter("store has no chain state; cannot write")
        self.store = store
        self.params = store.params
        self.epoch_seconds = epoch_seconds
        self._identity = store.identity()
        self._rlk = store.root_logging_key()
        latest = store.state.latest_block_id
        self._next_block_id = 0 if latest is None else latest + 1
        self._records: list[LogRecord] = []
        self._ram_blocks: list[Block] = []
        self._ram_block_records = 0  # records inside self._ram_blocks
        self._blocks: Generator[bytearray, None, None] | None = None  # open group's keys
        self._walk: Generator[bytearray, None, None] | None = None  # open block's keys
        self._last_seal = time.monotonic()
        self.blocks_committed = 0
        self.groups_sealed = 0
        # The window's peak before the open block's records: noted as each
        # block is finalized, since the window only grows between seals.
        self._peak_records = 0
        self._peak_bytes = 0

    # -- accounting --

    @property
    def ram_records(self) -> int:
        """Records currently held unsealed in memory (R9 window)."""
        return self._ram_block_records + len(self._records)

    @property
    def ram_bytes(self) -> int:
        """Serialized size of the R9 window: its records plus block envelopes."""
        return self.ram_records * RECORD_LEN + len(self._ram_blocks) * BLOCK_ENVELOPE_LEN

    @property
    def peak_ram_records(self) -> int:
        """Largest ``ram_records`` right after any append so far."""
        if self._records:
            return max(self._peak_records, self.ram_records)
        return self._peak_records

    @property
    def peak_ram_bytes(self) -> int:
        """Largest ``ram_bytes`` right after any append so far."""
        if self._records:
            return max(self._peak_bytes, self.ram_bytes)
        return self._peak_bytes

    # -- key chain --

    def _open_group(self) -> Generator[bytearray, None, None]:
        # A group's first block derives and seals the group's IK.  A restart
        # mid-group, or a replay after a crash, walks the block chain from
        # the sealed IK instead, so it never touches the RLK.  The walks are
        # kept only once the IK is sealed: after a failed seal the next
        # append derives and seals it again.
        block_id, c = self._next_block_id, self.params.c
        group_id = block_id // c
        if block_id % c == 0 and not self.store.has_ik(group_id):
            ik = derive_ik(self._rlk, group_id)
            blocks = block_walk(bytearray(ik), group_id, self.params)
            key = next(blocks)
            try:
                self.store.seal_ik(group_id, ik)
            except BaseException:
                blocks.close()
                raise
        else:
            blocks = block_walk(self.store.load_ik(group_id), group_id, self.params)
            key = next(islice(blocks, block_id % c, None))
        self._blocks = blocks
        self._walk = _block_messages(key, block_id, self.params)
        return self._walk

    def _close_walks(self) -> None:
        for walk in (self._walk, self._blocks):
            if walk is not None:
                walk.close()
        self._walk = self._blocks = None

    # -- record/block assembly --

    def append_entry(self, entry: RawEntry) -> int:
        """Chunk and append one entry; returns the number of records added."""
        body = entry.body
        if len(body) <= MAX_TEXT_LEN:
            self._append_record(body, False)
            added = 1
        else:
            chunks = chunk_entry(entry)
            for payload, continuation in chunks:
                self._append_record(payload, continuation)
            added = len(chunks)
        if (
            self.epoch_seconds is not None
            and time.monotonic() - self._last_seal >= self.epoch_seconds
        ):
            self.flush()
        return added

    def _append_record(self, payload: bytes, continuation: bool) -> None:
        walk, records, block_id = self._walk, self._records, self._next_block_id
        if walk is None:
            walk = self._open_group()
        records.append(make_record(block_id, len(records), payload, next(walk), continuation))
        if len(records) == self.params.m:
            self._finalize_block()

    def _finalize_block(self) -> None:
        if not self._records:
            return
        # The window as it stood right after the last append: its peak so far.
        self._peak_records = max(self._peak_records, self.ram_records)
        self._peak_bytes = max(self._peak_bytes, self.ram_bytes)
        block_id = self._next_block_id
        block = sign_block(block_id, self._records, self._identity)
        self._ram_blocks.append(block)
        self._ram_block_records += len(self._records)
        self._records = []
        next_id = self._next_block_id = block_id + 1
        if next_id % self.params.c == 0:
            # Group complete: retire the chain and seal the RAM window.
            self._close_walks()
            self._seal_ram_blocks()
        else:
            # Step the block chain at once, so the signed block's key is gone.
            self._walk.close()
            self._walk = _block_messages(next(self._blocks), next_id, self.params)

    def _seal_ram_blocks(self) -> None:
        if self._ram_blocks:
            batch = list(self._ram_blocks)
            self.store.commit_blocks(batch)
            self._ram_blocks.clear()
            self._ram_block_records = 0
            for block in batch:
                self.blocks_committed += 1
                if (block.block_id + 1) % self.params.c == 0:
                    self.groups_sealed += 1
        self._last_seal = time.monotonic()

    def flush(self) -> None:
        """Finalize the in-progress block (if any) and seal the RAM window."""
        self._finalize_block()
        self._seal_ram_blocks()

    def close(self) -> None:
        """Flush, then erase the writer's keys even if the last commit fails."""
        try:
            self.flush()
        finally:
            self._close_walks()
            self._rlk.destroy()


def _block_messages(
    block_key: bytearray, block_id: int, params: ChainParams
) -> Generator[bytearray, None, None]:
    """The writer's message walk of one block: ``message_walk`` over a copy
    of the block walk's buffer, taken at the first step.  Until then the
    walk holds no key of its own, only the block walk's buffer, which that
    walk zeroes; a block that never gets a record leaves nothing to erase.
    """
    yield from message_walk(bytearray(block_key), block_id, params.m, params)


def ingest(
    entries: Iterable[RawEntry],
    policy: IngestPolicy,
    writer: LogWriter,
) -> IngestStats:
    """Drive the assembly pipeline over a stream of parsed entries."""
    if policy.params != writer.params:
        raise InvalidParameter("policy chain params differ from the store manifest")
    stats = IngestStats()
    start = time.perf_counter()
    blocks_before = writer.blocks_committed
    groups_before = writer.groups_sealed
    for entry in entries:
        stats.entries += 1
        if entry.warning is not None:
            stats.parse_warnings += 1
        stats.records += writer.append_entry(entry)
    writer.flush()
    stats.elapsed_seconds = time.perf_counter() - start
    stats.blocks = writer.blocks_committed - blocks_before
    stats.groups = writer.groups_sealed - groups_before
    return stats


def read_entries(lines: Iterable[bytes], source: str) -> Iterator[RawEntry]:
    """Parse a line stream, skipping blank lines."""
    for line in lines:
        if not line.rstrip(b"\r\n"):
            continue
        yield parse_line(source, line)
