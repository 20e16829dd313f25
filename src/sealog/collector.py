"""Log ingestion: format parsers, entry chunking, and chain assembly.

Entries arrive as newline-delimited lines in one of the supported source
formats (Apache access, Snort fast alerts, dmesg, or generic).  Malformed
lines are never dropped: they are downgraded to generic entries and
counted, because an audit pipeline must not discard evidence on a parse
failure.

Bodies longer than one record's 254-byte payload are split into
continuation chunks; the record field's length prefix carries a
continuation bit so the verifier can reassemble entries byte-exactly.

The writer owns the producer side of the chain: it derives keys in order,
tags records, signs blocks at ``m`` records, buffers finished blocks in
RAM, and seals them to the store when the group completes (every ``c``
blocks), on epoch expiry, or on an explicit flush.
"""

from __future__ import annotations

import queue
import re
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator

from .errors import InvalidParameter
from .keyschedule import (
    BlockKey,
    ChainParams,
    MessageKey,
    derive_ik,
    first_block_key,
    first_message_key,
    next_block_key,
    next_message_key,
    walk_block_chain,
)
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
# not the full grammar: host token + bracketed timestamp + quoted request
# for Apache; timestamp prefix + "[**]" delimiters for Snort fast alerts;
# "[ seconds.micros ]" prefix for dmesg.
_APACHE_RE = re.compile(
    rb'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) (\S+)'
)
_SNORT_RE = re.compile(
    rb"^(\d{2}/\d{2}(?:/\d{2,4})?-\d{2}:\d{2}:\d{2}\.\d+)\s+\[\*\*\].*\[\*\*\]"
)
_DMESG_RE = re.compile(rb"^\[\s*(\d+\.\d+)\]")


@dataclass
class RawEntry:
    """One parsed log line; ``body`` is the verbatim line sans newline."""

    source: str
    body: bytes
    timestamp: float | None = None
    warning: str | None = None


def _parse_apache_timestamp(raw: bytes) -> float | None:
    try:
        return datetime.strptime(raw.decode("ascii"), "%d/%b/%Y:%H:%M:%S %z").timestamp()
    except (ValueError, UnicodeDecodeError):
        return None


def _parse_snort_timestamp(raw: bytes) -> float | None:
    text = raw.decode("ascii", errors="replace")
    for fmt in ("%m/%d/%y-%H:%M:%S.%f", "%m/%d/%Y-%H:%M:%S.%f", "%m/%d-%H:%M:%S.%f"):
        try:
            return datetime.strptime(text, fmt).replace(tzinfo=timezone.utc).timestamp()
        except ValueError:
            continue
    return None


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
        return RawEntry(source=SOURCE_GENERIC, body=body)

    if source == SOURCE_APACHE:
        match = _APACHE_RE.match(body)
        if match:
            return RawEntry(
                source=SOURCE_APACHE,
                body=body,
                timestamp=_parse_apache_timestamp(match.group(4)),
            )
    elif source == SOURCE_SNORT:
        match = _SNORT_RE.match(body)
        if match:
            return RawEntry(
                source=SOURCE_SNORT,
                body=body,
                timestamp=_parse_snort_timestamp(match.group(1)),
            )
    elif source == SOURCE_DMESG:
        match = _DMESG_RE.match(body)
        if match:
            return RawEntry(
                source=SOURCE_DMESG,
                body=body,
                timestamp=float(match.group(1)),
            )
    return RawEntry(
        source=SOURCE_GENERIC,
        body=body,
        warning=f"line does not match {source} format",
    )


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
    """Assembly policy: chain geometry plus the seal triggers."""

    params: ChainParams
    epoch_seconds: float | None = None
    on_full_queue: str = "block"  # or "drop-with-count"

    def __post_init__(self) -> None:
        if self.epoch_seconds is not None and self.epoch_seconds < 1:
            raise InvalidParameter("epoch_seconds must be >= 1 when set")
        if self.on_full_queue not in ("block", "drop-with-count"):
            raise InvalidParameter(f"unknown queue policy {self.on_full_queue!r}")


@dataclass
class IngestStats:
    entries: int = 0
    records: int = 0
    blocks: int = 0
    groups: int = 0
    parse_warnings: int = 0
    dropped: int = 0
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
            "dropped": self.dropped,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_logs_per_sec": self.throughput,
        }


class BoundedEntryQueue:
    """Ordered handoff between a concurrent producer and the ingest loop."""

    _SENTINEL = object()

    def __init__(self, capacity: int = 1024, on_full: str = "block") -> None:
        self._queue: queue.Queue = queue.Queue(maxsize=capacity)
        self._on_full = on_full
        self.dropped = 0

    def put(self, entry: RawEntry) -> bool:
        if self._on_full == "block":
            self._queue.put(entry)
            return True
        try:
            self._queue.put_nowait(entry)
            return True
        except queue.Full:
            self.dropped += 1
            return False

    def close(self) -> None:
        self._queue.put(self._SENTINEL)

    def __iter__(self) -> Iterator[RawEntry]:
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                return
            yield item


class LogWriter:
    """Single-writer chain producer bound to one sealed store.

    Keys are strictly single-owner here: each message key is erased when
    the chain advances past it, each block key when its successor is
    derived or its group ends, and each intermediate key when sealed.
    """

    def __init__(self, store: SealedStore, epoch_seconds: float | None = None):
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
        self._bk: BlockKey | None = None
        self._mk: MessageKey | None = None
        self._last_seal = time.monotonic()
        self.blocks_committed = 0
        self.groups_sealed = 0
        self.peak_ram_records = 0
        self.peak_ram_bytes = 0

    # -- accounting --

    @property
    def ram_records(self) -> int:
        """Records currently held unsealed in memory (R9 window)."""
        return self._ram_block_records + len(self._records)

    @property
    def ram_bytes(self) -> int:
        """Serialized size of the R9 window: its records plus block envelopes."""
        return self.ram_records * RECORD_LEN + len(self._ram_blocks) * BLOCK_ENVELOPE_LEN

    def _note_peak(self) -> None:
        self.peak_ram_records = max(self.peak_ram_records, self.ram_records)
        self.peak_ram_bytes = max(self.peak_ram_bytes, self.ram_bytes)

    # -- key chain --

    def _ensure_block_key(self) -> BlockKey:
        # A group's first block derives and seals the group's IK.  A restart
        # mid-group, or a replay after a crash, walks the block chain from
        # the sealed IK instead, so it never touches the RLK.
        if self._bk is not None:
            return self._bk
        group_id = self.params.group_of(self._next_block_id)
        if self._next_block_id % self.params.c == 0 and not self.store.has_ik(group_id):
            ik = derive_ik(self._rlk, group_id)
            self._bk = first_block_key(ik, self._next_block_id, self.params)
            self.store.seal_ik(ik)
        else:
            ik = self.store.load_ik(group_id)
            self._bk = walk_block_chain(ik, self._next_block_id, self.params)
        return self._bk

    def _advance_message_key(self) -> MessageKey:
        if self._mk is None:
            self._mk = first_message_key(self._ensure_block_key())
        else:
            self._mk = next_message_key(self._mk, self.params)
        return self._mk

    # -- record/block assembly --

    def append_entry(self, entry: RawEntry) -> int:
        """Chunk and append one entry; returns the number of records added."""
        chunks = chunk_entry(entry)
        for payload, continuation in chunks:
            self._append_record(payload, continuation)
        if (
            self.epoch_seconds is not None
            and time.monotonic() - self._last_seal >= self.epoch_seconds
        ):
            self.flush()
        return len(chunks)

    def _append_record(self, payload: bytes, continuation: bool) -> None:
        key = self._advance_message_key()
        record = make_record(
            key.msg_id, payload, key, continuation=continuation, erase_key=False
        )
        self._records.append(record)
        self._note_peak()
        if len(self._records) == self.params.m:
            self._finalize_block()

    def _finalize_block(self) -> None:
        if not self._records:
            return
        block_id = self._next_block_id
        block = sign_block(block_id, self._records, self._identity)
        self._ram_blocks.append(block)
        self._ram_block_records += len(self._records)
        self._records = []
        if self._mk is not None:
            self._mk.erase()
            self._mk = None
        self._next_block_id = block_id + 1
        if self._next_block_id % self.params.c == 0:
            # Group complete: retire the chain and seal the RAM window.
            if self._bk is not None:
                self._bk.erase()
                self._bk = None
            self._seal_ram_blocks()
        else:
            assert self._bk is not None
            self._bk = next_block_key(self._bk, self._next_block_id, self.params)

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
        self.flush()
        if self._mk is not None:
            self._mk.erase()
        if self._bk is not None:
            self._bk.erase()
        self._rlk.destroy()


def ingest(
    entries: Iterable[RawEntry],
    policy: IngestPolicy,
    writer: LogWriter,
    final_flush: bool = True,
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
    if final_flush:
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
