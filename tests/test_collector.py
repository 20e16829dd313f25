from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT_SECRET, build_store, fill_store
from sealog.collector import (
    MAX_LINE_LEN,
    BoundedEntryQueue,
    IngestPolicy,
    LogWriter,
    RawEntry,
    chunk_entry,
    ingest,
    parse_line,
    read_entries,
    reassemble_entries,
)
from sealog.errors import InvalidParameter
from sealog.keyschedule import ChainParams
from sealog.logchain import RECORD_LEN
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
    assert entry.timestamp is not None


def test_parse_dmesg_line():
    entry = parse_line("dmesg", DMESG_LINE)
    assert entry.source == "dmesg"
    assert entry.timestamp == 0.0


def test_parse_snort_line():
    entry = parse_line("snort_fast", SNORT_LINE)
    assert entry.source == "snort_fast"
    assert entry.timestamp is not None


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
    # One whole group, then some; entries of one or two records.
    for i in range(c * m + 2 * m + 1):
        writer.append_entry(RawEntry("generic", b"z" * (1 + i * 37 % 300)))
        ram_blocks, open_records = writer._ram_blocks, writer._records
        assert writer.ram_records == sum(len(b.records) for b in ram_blocks) + len(open_records)
        assert writer.ram_bytes == (
            sum(len(b.serialize()) for b in ram_blocks) + len(open_records) * RECORD_LEN
        )
    assert writer.groups_sealed >= 1
    writer.close()


def test_ingest_policy_validation():
    with pytest.raises(InvalidParameter):
        IngestPolicy(params=ChainParams(1, 1), epoch_seconds=0.5)
    with pytest.raises(InvalidParameter):
        IngestPolicy(params=ChainParams(1, 1), on_full_queue="explode")


# queue handoff -------------------------------------------------------------------


def test_bounded_queue_preserves_order_across_threads(tmp_path):
    q = BoundedEntryQueue(capacity=8, on_full="block")
    bodies = [f"line {i}".encode() for i in range(200)]

    def produce():
        for body in bodies:
            q.put(RawEntry("generic", body))
        q.close()

    thread = threading.Thread(target=produce)
    thread.start()
    received = [e.body for e in q]
    thread.join()
    assert received == bodies
    assert q.dropped == 0


def test_bounded_queue_drop_policy():
    q = BoundedEntryQueue(capacity=2, on_full="drop-with-count")
    assert q.put(RawEntry("generic", b"1"))
    assert q.put(RawEntry("generic", b"2"))
    assert not q.put(RawEntry("generic", b"3"))
    assert q.dropped == 1
