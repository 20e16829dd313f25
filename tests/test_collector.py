from __future__ import annotations

import hashlib
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT_SECRET, build_store, fill_store
from sealog import collector
from sealog.collector import (
    MAX_LINE_LEN,
    IngestPolicy,
    LogWriter,
    RawEntry,
    chunk_entry,
    ingest,
    parse_line,
    read_entries,
    reassemble_entries,
)
from sealog.errors import InvalidParameter, StorageError
from sealog.identity import DeviceIdentity
from sealog.keyschedule import ChainParams, RootLoggingKey
from sealog.logchain import BLOCK_ENVELOPE_LEN, RECORD_LEN
from sealog.sealstore import SealedStore, verify_store

APACHE_LINE = b'127.0.0.1 - - [30/Jun/2016:00:00:00 -0400] "GET /index HTTP/1.1" 200 512'
SNORT_LINE = (
    b"06/28-21:31:12.754698  [**] [1:399:7] ICMP Destination Unreachable [**] "
    b"[Classification: Misc activity] [Priority: 3] {ICMP} 10.0.0.1 -> 10.0.0.2"
)
DMESG_LINE = b"[    0.000000] Booting Linux on physical CPU 0x0"


# parsing ----------------------------------------------------------------------


def test_parse_apache_line():
    entry = parse_line("apache_access", APACHE_LINE + b"\n")
    assert entry.source == "apache_access"
    assert entry.body == APACHE_LINE
    assert entry.warning is None


def test_parse_dmesg_line():
    entry = parse_line("dmesg", DMESG_LINE)
    assert entry.source == "dmesg"


def test_parse_snort_line():
    entry = parse_line("snort_fast", SNORT_LINE)
    assert entry.source == "snort_fast"


def test_malformed_snort_downgrades_to_generic():
    truncated = b"06/28-21:31:12.754698  [**] [1:399:7] ICMP Destination Unreachable"
    entry = parse_line("snort_fast", truncated)
    assert entry.source == "generic"
    assert entry.warning is not None
    assert entry.body == truncated  # body preserved verbatim


def test_malformed_apache_downgrades_to_generic():
    entry = parse_line("apache_access", b"not an access log at all")
    assert entry.source == "generic"
    assert entry.warning


def test_generic_passthrough_never_warns():
    entry = parse_line("generic", b"anything goes\n")
    assert entry.source == "generic" and entry.warning is None


def test_line_length_precondition():
    with pytest.raises(InvalidParameter):
        parse_line("generic", b"x" * (MAX_LINE_LEN + 1))


def test_empty_line_rejected():
    with pytest.raises(InvalidParameter):
        parse_line("generic", b"\r\n")


def test_unknown_source_rejected():
    with pytest.raises(InvalidParameter):
        parse_line("rfc5424", b"data")


# chunking ----------------------------------------------------------------------


def test_single_chunk_no_continuation():
    chunks = chunk_entry(RawEntry("generic", b"a" * 100))
    assert chunks == [(b"a" * 100, False)]


def test_chunk_boundary_254_255():
    assert chunk_entry(RawEntry("generic", b"a" * 254)) == [(b"a" * 254, False)]
    chunks = chunk_entry(RawEntry("generic", b"a" * 255))
    assert len(chunks) == 2
    assert chunks[0] == (b"a" * 254, True)
    assert chunks[1] == (b"a", False)


@settings(max_examples=50, deadline=None)
@given(body=st.binary(min_size=1, max_size=10 * 1024))
def test_chunk_roundtrip_property(body):
    chunks = chunk_entry(RawEntry("generic", body))
    assert b"".join(payload for payload, _ in chunks) == body
    assert all(len(payload) <= 254 for payload, _ in chunks)
    assert all(cont for _, cont in chunks[:-1])
    assert chunks[-1][1] is False


# ingest -----------------------------------------------------------------------


def test_ingest_counts_and_groups(tmp_path):
    store = build_store(tmp_path / "s", c=1, m=100)
    stats = fill_store(store, 1000)
    assert stats.entries == 1000
    assert stats.records == 1000
    assert stats.blocks == 10
    assert stats.groups == 10

    # Across calls on one writer: each call's counts are the change in the
    # committed state, partial blocks flushed at each call's end included.
    store = build_store(tmp_path / "g", c=3, m=2)
    writer = LogWriter(store)
    counts = []
    for n in (7, 5, 6):
        entries = (RawEntry("generic", b"e%d" % i) for i in range(n))
        stats = ingest(entries, IngestPolicy(params=store.params), writer)
        counts.append((stats.blocks, stats.groups, store.state.sealed_blocks))
    writer.close()
    assert counts == [(4, 1, 4), (3, 1, 7), (3, 1, 10)]


def test_partial_block_signed_on_flush(tmp_path):
    store = build_store(tmp_path / "s", c=1, m=100)
    stats = fill_store(store, 95)
    assert stats.blocks == 1
    block = store.load_block(0)
    assert len(block.records) == 95
    assert verify_store(store, full=True).verdict == "ok"


def test_multichunk_records_equal_oracle_count(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=7)
    bodies = [b"s" * n for n in (10, 254, 255, 600, 1, 2540, 77)]
    writer = LogWriter(store)
    stats = ingest(
        (RawEntry("generic", b) for b in bodies),
        IngestPolicy(params=store.params),
        writer,
    )
    oracle = sum(-(-len(b) // 254) for b in bodies)
    assert stats.records == oracle


def test_order_preservation_and_lossless_roundtrip(tmp_path):
    store = build_store(tmp_path / "s", c=3, m=4)
    bodies = [f"entry-{i}-".encode() + b"z" * (i * 37 % 700) for i in range(50)]
    writer = LogWriter(store)
    ingest((RawEntry("generic", b) for b in bodies), IngestPolicy(params=store.params), writer)
    blocks = [b for _, b, _ in store.iter_committed_blocks() if b is not None]
    assert reassemble_entries(blocks) == bodies


def test_parse_warning_counter(tmp_path):
    store = build_store(tmp_path / "s", c=1, m=10)
    lines = [APACHE_LINE, b"garbage line", APACHE_LINE, b"more garbage"]
    writer = LogWriter(store)
    stats = ingest(
        read_entries(iter(lines), "apache_access"),
        IngestPolicy(params=store.params),
        writer,
    )
    assert stats.entries == 4
    assert stats.parse_warnings == 2


def test_policy_params_must_match_store(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    writer = LogWriter(store)
    with pytest.raises(InvalidParameter):
        ingest(iter([]), IngestPolicy(params=ChainParams(c=3, m=3)), writer)


def test_epoch_flush_seals_partial_group(tmp_path):
    store = build_store(tmp_path / "s", c=100, m=2)
    writer = LogWriter(store, epoch_seconds=1)
    writer._last_seal -= 10  # pretend the epoch expired long ago
    writer.append_entry(RawEntry("generic", b"a"))
    writer.append_entry(RawEntry("generic", b"b"))
    # epoch flush happens on the entry boundary: block 0 committed mid-group
    assert store.state.latest_block_id == 0


def test_ram_window_bound(tmp_path):
    c, m = 3, 5
    store = build_store(tmp_path / "s", c=c, m=m)
    writer = LogWriter(store)
    bound = c * m + m - 1
    for i in range(4 * c * m):
        writer.append_entry(RawEntry("generic", f"e{i}".encode()))
        assert writer.ram_records <= bound
    writer.flush()
    assert writer.peak_ram_records <= bound


@pytest.mark.parametrize("c", [1, 3, 200])
def test_ram_window_accounting_matches_recount(tmp_path, c):
    m = 2
    store = build_store(tmp_path / "s", c=c, m=m)
    writer = LogWriter(store)
    appended = peak_records = peak_bytes = blocks_completed = 0
    # One whole group, then some; entries of one or two records.
    for i in range(c * m + 2 * m + 1):
        added = writer.append_entry(RawEntry("generic", b"z" * (1 + i * 37 % 300)))
        for k in range(appended + 1, appended + added + 1):
            # Right after record k is appended, the window holds the records
            # since the last group seal: full blocks of m, then the open one.
            window = (k - 1) % (c * m) + 1
            peak_records = max(peak_records, window)
            peak_bytes = max(
                peak_bytes, window * RECORD_LEN + (window - 1) // m * BLOCK_ENVELOPE_LEN
            )
        appended += added
        ram_blocks, open_records = writer._ram_blocks, writer._records
        assert writer.ram_records == sum(len(b.records) for b in ram_blocks) + len(open_records)
        assert writer.ram_bytes == (
            sum(len(b.serialize()) for b in ram_blocks) + len(open_records) * RECORD_LEN
        )
        assert (writer.peak_ram_records, writer.peak_ram_bytes) == (peak_records, peak_bytes)
        blocks_completed += not open_records
    assert store.state.sealed_blocks // c >= 1 and blocks_completed >= 2
    writer.close()
    assert (writer.peak_ram_records, writer.peak_ram_bytes) == (peak_records, peak_bytes)


def test_writer_rejects_sub_second_epoch_before_copying_the_root_key(tmp_path, monkeypatch):
    store = build_store(tmp_path / "s", c=1, m=1)
    monkeypatch.setattr(store, "root_logging_key", lambda: pytest.fail("RLK copied"))
    with pytest.raises(InvalidParameter):
        LogWriter(store, epoch_seconds=0.5)


def test_close_erases_keys_when_the_last_commit_fails(tmp_path, monkeypatch):
    # Record every walk the writer starts, with the buffer it owns.
    walks = []

    def recording(start_walk):
        def start(key, *args):
            walk = start_walk(key, *args)
            walks.append((key, walk))
            return walk

        return start

    monkeypatch.setattr(collector, "block_walk", recording(collector.block_walk))
    monkeypatch.setattr(collector, "message_walk", recording(collector.message_walk))
    store = build_store(tmp_path / "s", c=3, m=4)
    writer = LogWriter(store)
    for i in range(5):  # block 0 signed, block 1 open with one record
        writer.append_entry(RawEntry("generic", b"pending %d" % i))

    def failing_commit(blocks):
        raise StorageError("disk full")

    store.commit_blocks = failing_commit
    with pytest.raises(StorageError):
        writer.close()
    assert writer._rlk.destroyed
    assert writer._blocks is None and writer._walk is None
    # The group's block walk and the message walks of blocks 0 and 1.
    assert len(walks) == 3
    for key, walk in walks:
        assert inspect.getgeneratorstate(walk) == inspect.GEN_CLOSED
        assert key == bytes(32)


def test_a_failed_ik_seal_is_retried_by_the_next_append(tmp_path):
    store = build_store(tmp_path / "s", c=3, m=2)
    writer = LogWriter(store)

    def fail_once(step):
        if step == "ik0:start":
            store.crash_hook = None
            raise StorageError("injected")

    store.crash_hook = fail_once
    with pytest.raises(StorageError):
        writer.append_entry(RawEntry("generic", b"lost"))
    assert writer._blocks is None and writer._walk is None
    for i in range(4):  # blocks 0 and 1
        writer.append_entry(RawEntry("generic", b"entry %d" % i))
    writer.flush()
    assert store.has_ik(0)

    # A writer reopened mid-group resumes from the sealed IK.
    resumed = LogWriter(SealedStore.open(tmp_path / "s", ROOT_SECRET))
    for i in range(4, 6):  # block 2 ends group 0
        resumed.append_entry(RawEntry("generic", b"entry %d" % i))
    resumed.close()
    final = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert final.state.latest_block_id == 2
    report = verify_store(final, full=True)
    assert report.verdict == "ok", report.findings


def test_writer_output_matches_golden_digest(tmp_path):
    # Pins what the writer commits under a fixed RLK: message keys, tags and
    # record packing over two groups (c=3, m=4), with an entry that spans two
    # records and a partial last block.  Signatures are randomized (ECDSA
    # under a fresh device key), so each block's 64-byte signature is cut.
    store = SealedStore.create(
        tmp_path / "s",
        ROOT_SECRET,
        ChainParams(c=3, m=4),
        DeviceIdentity.generate(),
        RootLoggingKey(bytes(range(32))),
    )
    bodies = [b"entry %d" % i for i in range(9)]
    bodies += [b"x" * 254, b"y" * 300, b"after the long one"]
    bodies += [b"entry %d" % i for i in range(9, 14)]
    stats = fill_store(store, len(bodies), body=bodies.__getitem__)
    assert (stats.records, stats.blocks, stats.groups) == (18, 5, 1)
    digest = hashlib.sha256()
    for _, block, _ in store.iter_committed_blocks():
        digest.update(block.serialize()[:-64])
    assert digest.hexdigest() == (
        "e221c77fcfe7aee68555abc143471f3819037976647c4df9a827e886bc9241b5"
    )
