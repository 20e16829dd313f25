from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import resource
import shutil
import stat
import subprocess
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sealog
from conftest import ROOT_SECRET, build_replayed_store, build_store, fill_store
from sealog.collector import LogWriter, RawEntry
from sealog.errors import (
    AlreadyExists,
    AuthFailure,
    InvalidParameter,
    ParseError,
    SealogError,
    StorageError,
)
from sealog.keyschedule import ChainParams, RootLoggingKey, derive_ik
from sealog.logchain import (
    BLOCK_ENVELOPE_LEN,
    FINDING_BEYOND_STATE,
    FINDING_HISTORY_MISMATCH,
    FINDING_MISSING_STATE,
    FINDING_TRUNCATION,
    RECORD_LEN,
    STATUS_GAP,
    STATUS_OK,
    STATUS_SEAL_FAILURE,
    Block,
    LogRecord,
    pack_text_field,
)
from sealog.sealstore import (
    DEFAULT_MAX_PAYLOAD,
    DELIVERED_FILE,
    MANIFEST_FILE,
    OBJECT_BLOCK,
    OBJECT_IK,
    OBJECT_MANIFEST,
    STATE_FILE,
    ChainState,
    SealedStore,
    derive_storage_key,
    seal,
    unseal,
    verify_store,
)


# seal / unseal ---------------------------------------------------------------


def test_seal_roundtrip_zero_byte_payload():
    sk = derive_storage_key(b"\x01" * 32, b"app-a")
    assert unseal(seal(b"", sk, OBJECT_BLOCK, 7), sk, OBJECT_BLOCK, 7) == b""


def test_seal_roundtrip_serialization():
    sk = derive_storage_key(b"\x01" * 32, b"app-a")
    data = seal(b"payload bytes", sk, OBJECT_IK, 3)
    assert data[:14] == b"EMLS\x01\x02" + (3).to_bytes(8, "big")
    assert len(data) == 14 + 12 + len(b"payload bytes") + 16
    assert unseal(data, sk, OBJECT_IK, 3) == b"payload bytes"


@pytest.mark.parametrize("object_type, object_id", [(OBJECT_IK, 4), (OBJECT_BLOCK, 3)])
def test_unseal_as_another_object_fails(object_type, object_id):
    sk = derive_storage_key(b"\x01" * 32, b"app-a")
    data = seal(b"payload bytes", sk, OBJECT_IK, 3)
    with pytest.raises(AuthFailure, match="claims type=2 id=3"):
        unseal(data, sk, object_type, object_id)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda data: data[: 14 + 12 + 15], "too short"),
        (lambda data: b"EMLX" + data[4:], "magic"),
        (lambda data: data[:4] + b"\x02" + data[5:], "version"),
    ],
)
def test_unseal_rejects_a_malformed_envelope(damage, message):
    sk = derive_storage_key(b"\x01" * 32, b"app-a")
    data = seal(b"", sk, OBJECT_IK, 3)
    with pytest.raises(ParseError, match=message):
        unseal(damage(data), sk, OBJECT_IK, 3)


def test_unseal_with_wrong_key_fails():
    sk_a = derive_storage_key(b"\x01" * 32, b"app-a")
    sk_b = derive_storage_key(b"\x01" * 32, b"app-b")
    data = seal(b"secret", sk_a, OBJECT_BLOCK, 0)
    with pytest.raises(AuthFailure):
        unseal(data, sk_b, OBJECT_BLOCK, 0)


def test_app_id_one_byte_apart_cross_unseal_matrix():
    root = b"\x55" * 32
    app_ids = [b"logger-a", b"logger-b", b"logger-" + bytes([ord("a") ^ 1])]
    keys = [derive_storage_key(root, app) for app in app_ids]
    sealed = [seal(b"x" * 33, k, OBJECT_BLOCK, 1) for k in keys]
    for i, data in enumerate(sealed):
        for j, key in enumerate(keys):
            if i == j:
                assert unseal(data, key, OBJECT_BLOCK, 1) == b"x" * 33
            else:
                with pytest.raises(AuthFailure):
                    unseal(data, key, OBJECT_BLOCK, 1)


def test_storage_key_derivation_deterministic():
    a = derive_storage_key(b"\x09" * 32, b"ta-1")
    b = derive_storage_key(b"\x09" * 32, b"ta-1")
    assert unseal(seal(b"same key", a, OBJECT_IK, 5), b, OBJECT_IK, 5) == b"same key"


def test_seal_payload_cap():
    sk = derive_storage_key(b"\x01" * 32, b"a")
    with pytest.raises(InvalidParameter):
        seal(b"x" * (DEFAULT_MAX_PAYLOAD + 1), sk, OBJECT_BLOCK, 0)


def test_exhaustive_byte_flip_always_detected():
    sk = derive_storage_key(b"\x01" * 32, b"a")
    raw = seal(b"forty-two bytes of very sensitive logs!!!", sk, OBJECT_BLOCK, 9)
    for position in range(len(raw)):
        for mask in (0x01, 0x80):
            mutated = bytearray(raw)
            mutated[position] ^= mask
            with pytest.raises((AuthFailure, ParseError)):
                unseal(bytes(mutated), sk, OBJECT_BLOCK, 9)


class _FixedIdentity:
    """Just what ``SealedStore.create`` reads of a device identity, with
    fixed bytes: a generated key or certificate would change every run."""

    device_id = bytes(range(16))

    def private_key_der(self) -> bytes:
        return b"\x30fixed-signing-key"

    def certificate_pem(self) -> bytes:
        return b"-----BEGIN CERTIFICATE-----\nZml4ZWQ=\n-----END CERTIFICATE-----\n"


def test_sealed_envelopes_match_golden_digests(tmp_path, monkeypatch):
    # Pins the EMLS bytes of one object of each type, sealed under a fixed
    # root storage key with every nonce fixed, and checks each unseals.
    monkeypatch.setattr(os, "urandom", lambda n: b"\x5a" * n)
    store = SealedStore.create(
        tmp_path / "s", b"\x07" * 32, ChainParams(c=2, m=3), _FixedIdentity(),
        RootLoggingKey(b"\x11" * 32),
    )
    record = LogRecord(0, b"\x22" * 32, pack_text_field(b"golden entry"))
    block = Block(block_id=0, records=(record,), signature=b"\x33" * 64)
    store.commit_blocks([block])
    store.seal_ik(0, bytearray(b"\x44" * 32))
    digests = {
        name: hashlib.sha256((tmp_path / "s" / name).read_bytes()).hexdigest()
        for name in ("manifest.seal", "state.seal", "blk_00000000.seal", "ik_00000000.seal")
    }
    assert digests == {
        "manifest.seal": "a5863a076ee2d38483e59f541c9189f407aacb9ba6413b333ce5e4d40a0a95d4",
        "state.seal": "3fd9cfefed07bf84b8a01be53b7ac5d27eaf17801da5d322ac7df616def427c0",
        "blk_00000000.seal": "ae85bd214e6e818ac1b253cbf51a225e56a1b4c63c5bb98f626ada22bd75f9f1",
        "ik_00000000.seal": "7a40e543795ea6d61c3a0bfe4af9b170019e9ae913be16e6ef471981e9e19a14",
    }
    # Header 14 + nonce 12 + the 44-byte state + tag 16.
    assert (tmp_path / "s" / "state.seal").stat().st_size == 86
    reopened = SealedStore.open(tmp_path / "s", b"\x07" * 32)
    assert reopened.manifest == store.manifest
    # H_0 by hand: SHA-256 of H_{-1} (32 zero bytes), then what the block's
    # signature covers (BE32 block id, BE32 record count, the one tag), then
    # the signature.
    h0 = hashlib.sha256(bytes(32) + struct.pack(">II", 0, 1) + b"\x22" * 32 + b"\x33" * 64)
    assert reopened.state == ChainState(
        sealed_blocks=1, commit_counter=1, chain_digest=h0.digest()
    )
    assert reopened.load_block(0) == block
    assert reopened.load_ik(0) == b"\x44" * 32


@settings(max_examples=30, deadline=None)
@given(payload=st.binary(max_size=4096), object_id=st.integers(min_value=0, max_value=2**64 - 1))
def test_seal_roundtrip_property(payload, object_id):
    sk = derive_storage_key(b"\x0d" * 32, b"prop")
    data = seal(payload, sk, OBJECT_BLOCK, object_id)
    assert unseal(data, sk, OBJECT_BLOCK, object_id) == payload


# chain state -----------------------------------------------------------------


def test_chain_state_roundtrip():
    state = ChainState(sealed_blocks=8, commit_counter=42, chain_digest=b"\x5c" * 32)
    assert len(state.pack()) == 44
    assert ChainState.unpack(state.pack()) == state
    # A version 2 payload: group id, block id, record count, blocks, counter, digest.
    with pytest.raises(ParseError, match="must be 44 bytes"):
        ChainState.unpack(struct.pack(">IIIQQ32s", 3, 7, 12, 8, 42, b"\x5c" * 32))


def test_latest_block_id_none_before_any_commit():
    assert ChainState().latest_block_id is None
    assert ChainState(sealed_blocks=1).latest_block_id == 0
    assert ChainState(sealed_blocks=8).latest_block_id == 7


# store lifecycle ----------------------------------------------------------------


def test_create_then_open_restores_manifest(tmp_path):
    store = build_store(tmp_path / "s", c=3, m=5)
    reopened = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert reopened.params == ChainParams(c=3, m=5)
    assert reopened.manifest.device_id == store.manifest.device_id
    assert reopened.state.sealed_blocks == 0


def test_identity_is_parsed_once_per_handle(tmp_path):
    store = build_store(tmp_path / "s", c=3, m=5)
    reopened = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert reopened.identity() is reopened.identity()
    assert reopened.identity().certificate == store.identity().certificate
    message = b"state"
    assert store.identity().verify(message, reopened.identity().sign(message))


def test_create_refuses_nonempty_directory(tmp_path):
    (tmp_path / "s").mkdir()
    (tmp_path / "s" / "junk").write_text("x")
    with pytest.raises(AlreadyExists):
        build_store(tmp_path / "s")


@pytest.mark.parametrize("m", [57_455, 57_456])
def test_create_refuses_a_block_length_whose_full_block_cannot_be_sealed(tmp_path, m):
    # A full block, its 77-byte envelope and m records, is one sealed
    # payload: from m = 57,456 on it is over the cap, and no ingest of a
    # full block could ever commit.
    fits = BLOCK_ENVELOPE_LEN + m * RECORD_LEN <= DEFAULT_MAX_PAYLOAD
    assert fits == (m == 57_455)
    if fits:
        assert build_store(tmp_path / "s", c=1, m=m).params == ChainParams(c=1, m=m)
        return
    with pytest.raises(InvalidParameter, match=f"m={m} makes a 16777229-byte block"):
        build_store(tmp_path / "s", c=1, m=m)
    assert not (tmp_path / "s").exists()


def test_open_with_wrong_secret_fails(tmp_path):
    build_store(tmp_path / "s")
    with pytest.raises(AuthFailure):
        SealedStore.open(tmp_path / "s", b"\x00" * 32)


@pytest.mark.parametrize("version", [1, 2])
def test_a_manifest_of_another_version_is_refused(tmp_path, version):
    store = build_store(tmp_path / "s")
    doc = json.loads(store.manifest.pack())
    doc["version"] = version
    sealed = seal(json.dumps(doc).encode(), store.sk, OBJECT_MANIFEST, 0)
    (store.directory / MANIFEST_FILE).write_bytes(sealed)
    with pytest.raises(ParseError, match=f"unsupported store manifest version {version}"):
        SealedStore.open(tmp_path / "s", ROOT_SECRET)
    del doc["version"]
    sealed = seal(json.dumps(doc).encode(), store.sk, OBJECT_MANIFEST, 0)
    (store.directory / MANIFEST_FILE).write_bytes(sealed)
    with pytest.raises(ParseError):
        SealedStore.open(tmp_path / "s", ROOT_SECRET)


def test_commit_blocks_in_order(tmp_path, small_store):
    assert small_store.state.latest_block_id == 3
    assert small_store.state.sealed_blocks == 4
    assert small_store.block_ids_on_disk() == [0, 1, 2, 3]


def test_commit_out_of_order_rejected(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8)  # blocks 0..3
    block5 = store.load_block(3)
    from sealog.logchain import Block

    fake = Block(block_id=5, records=block5.records, signature=block5.signature)
    with pytest.raises(InvalidParameter):
        store.commit_blocks([fake])


def test_commit_counter_strictly_increases(tmp_path):
    store = build_store(tmp_path / "s", c=1, m=2)
    counters = [store.state.commit_counter]
    writer = LogWriter(store)
    for i in range(6):
        writer.append_entry(RawEntry("generic", b"x"))
        if store.state.commit_counter != counters[-1]:
            counters.append(store.state.commit_counter)
    assert counters == sorted(set(counters))
    assert counters[-1] > counters[0]


def test_stale_handle_cannot_roll_the_chain_state_back(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    writer = LogWriter(store)
    for i in range(4):
        writer.append_entry(RawEntry("generic", b"entry %d" % i))
    assert store.state.latest_block_id == 1
    stale = SealedStore.open(tmp_path / "s", ROOT_SECRET)  # as `sealog serve` opens it
    for i in range(4, 8):
        writer.append_entry(RawEntry("generic", b"entry %d" % i))
    writer.close()
    assert store.state.latest_block_id == 3
    try:
        stale.mark_delivered(1)
    except SealogError:
        return  # refused
    # Accepted: then the committed state must not have gone back.
    fresh = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert fresh.state.latest_block_id == 3 and fresh.state.commit_counter >= 2
    assert verify_store(fresh, full=True).verdict == "ok"


def test_a_delivered_watermark_swapped_with_the_state_fails_auth(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 4)  # blocks 0..1
    store.mark_delivered(1)
    state, delivered = store.directory / STATE_FILE, store.directory / DELIVERED_FILE
    swapped = delivered.read_bytes(), state.read_bytes()
    state.write_bytes(swapped[0])
    delivered.write_bytes(swapped[1])
    fresh = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert fresh.state is None and "type=5" in fresh.state_error
    with pytest.raises(AuthFailure):
        fresh.load_state()
    with pytest.raises(AuthFailure):
        fresh.delivered_mark()


# intermediate key sealing ---------------------------------------------------------


def test_seal_ik_once_then_already_exists(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    ik = derive_ik(store.root_logging_key(), 0)
    key_bytes = bytes(ik)
    store.seal_ik(0, ik)
    assert ik == bytes(32)
    assert store.load_ik(0) == key_bytes
    with pytest.raises(AlreadyExists):
        store.seal_ik(0, bytearray(32))


def test_restart_resumes_group_from_sealed_ik_without_rlk(tmp_path):
    store = build_store(tmp_path / "s", c=3, m=2)
    writer = LogWriter(store)
    for i in range(4):  # blocks 0,1 committed? no: c=3 seals at group end; flush instead
        writer.append_entry(RawEntry("generic", f"e{i}".encode()))
    writer.flush()  # commits blocks 0,1 mid-group
    assert store.state.latest_block_id == 1

    # Reopen and continue; the writer must resume from the sealed IK.
    reopened = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    # Destroying the manifest RLK copy is not possible (sealed), but the
    # resume path must not touch it: break it in memory to prove that.
    writer2 = LogWriter(reopened)
    writer2._rlk.destroy()
    for i in range(2):
        writer2.append_entry(RawEntry("generic", f"late{i}".encode()))
    writer2.flush()
    assert reopened.state.latest_block_id == 2
    report = verify_store(reopened, full=True)
    assert report.verdict == "ok"


# truncation / missing state -------------------------------------------------------


def test_truncation_detected_for_every_suffix(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 20)  # 10 blocks
    for cut in range(1, 11):
        victim_dir = tmp_path / f"victim{cut}"
        victim_dir.mkdir()
        for name in os.listdir(store.directory):
            (victim_dir / name).write_bytes((store.directory / name).read_bytes())
        victim = SealedStore.open(victim_dir, ROOT_SECRET)
        for block_id in range(10 - cut, 10):
            victim.block_path(block_id).unlink()
        report = verify_store(victim, full=True)
        assert report.verdict == "fail"
        assert any(FINDING_TRUNCATION in f for f in report.findings), report.findings


def test_missing_state_is_a_finding(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8)
    (store.directory / STATE_FILE).unlink()
    reopened = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert reopened.state is None
    report = verify_store(reopened, full=True)
    assert report.verdict == "fail"
    assert FINDING_MISSING_STATE in report.findings
    # blocks themselves still verify
    assert all(e.status == "ok" for e in report.entries)


def test_corrupted_block_is_seal_failure(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8)
    path = store.block_path(2)
    raw = bytearray(path.read_bytes())
    raw[30] ^= 0xFF
    path.write_bytes(bytes(raw))
    report = verify_store(store, full=True)
    assert report.verdict == "fail"
    assert any(
        e.status == STATUS_SEAL_FAILURE and e.block_id == 2 for e in report.entries
    )


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_unreadable_block_is_seal_failure_and_audit_goes_on(tmp_path, full):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 12)  # 6 blocks
    store.block_path(3).unlink()
    store.block_path(3).mkdir()  # exists, but reading it fails
    store.block_path(4).unlink()
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=full)
    # One entry per id, in block order: the unreadable block is a seal
    # failure at its place, and the gap covers only the id with no file.
    assert [(e.block_id, e.status) for e in report.entries] == [
        (0, STATUS_OK),
        (1, STATUS_OK),
        (2, STATUS_OK),
        (3, STATUS_SEAL_FAILURE),
        (4, STATUS_GAP),
        (5, STATUS_OK),
    ]
    assert "blk_00000003.seal" in report.entries[3].detail
    assert report.entries[4].detail == "blocks 4..4 missing"
    assert report.first_failure == (3, None)
    assert report.verdict == "fail" and report.findings == []


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_a_deleted_block_and_a_directory_block_give_the_pinned_report(tmp_path, full):
    # The store the cross-version CI gate audits: c=3/m=4, 50 entries, so
    # 13 blocks; block 4 deleted and block 7 replaced by a directory.  The
    # gate compares these reports byte for byte across versions.
    store = build_store(tmp_path / "s", c=3, m=4)
    fill_store(store, 50)
    store.block_path(4).unlink()
    store.block_path(7).unlink()
    store.block_path(7).mkdir()
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=full)
    entries = [{"block_id": i, "status": STATUS_OK} for i in range(13) if i != 4]
    entries[4:4] = [{"block_id": 4, "status": STATUS_GAP, "detail": "blocks 4..4 missing"}]
    entries[7] = {
        "block_id": 7,
        "status": STATUS_SEAL_FAILURE,
        "detail": "cannot read blk_00000007.seal: [Errno 21] Is a directory: "
        f"'{store.block_path(7)}'",
    }
    assert report.to_dict() == {
        "mode": "full" if full else "public",
        "expected_start": 0,
        "verdict": "fail",
        "first_failure": (4, None),
        "entries": entries,
        "findings": [],
        "notes": [] if full else ["hmac-unverified (no RLK)"],
    }


_FIFO_CHILD = """
import json
import sys

from sealog.identity import DeviceIdentity
from sealog.retrieval import LogExportServer, RetrievalRequest, fetch
from sealog.sealstore import SealedStore, verify_store

store = SealedStore.open(sys.argv[1], bytes.fromhex(sys.argv[2]))
for full in (True, False):
    print(json.dumps(verify_store(store, full=full).to_dict()))
verifier = DeviceIdentity.generate()
server = LogExportServer(store, [verifier.certificate])
server.start()
try:
    request = RetrievalRequest(store.manifest.device_id, 0)
    result = fetch("127.0.0.1", server.address[1], verifier, [store.identity().certificate], request)
finally:
    server.close()
print(json.dumps({"blocks": [b.block_id for b in result.blocks], "alarms": result.alarms}))
"""


def test_a_named_pipe_block_is_a_seal_failure_and_an_alarm_not_a_stall(tmp_path):
    # Opening a named pipe for reading blocks until a writer comes, so the
    # audit and the export run in a child that a timeout can end.
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8)  # 4 blocks
    store.block_path(1).unlink()
    os.mkfifo(store.block_path(1))
    src = str(Path(sealog.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _FIFO_CHILD, str(store.directory), ROOT_SECRET.hex()],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    *reports, transfer = map(json.loads, child.stdout.splitlines())
    reason = "cannot read blk_00000001.seal: not a regular file"
    for report in reports:
        assert report["entries"] == [
            {"block_id": 0, "status": STATUS_OK},
            {"block_id": 1, "status": STATUS_SEAL_FAILURE, "detail": reason},
            {"block_id": 2, "status": STATUS_OK},
            {"block_id": 3, "status": STATUS_OK},
        ]
        assert report["verdict"] == "fail" and report["findings"] == []
    assert transfer == {"blocks": [0], "alarms": [{"block_id": 1, "reason": reason}]}


def test_a_large_sealed_object_is_read_whole(tmp_path):
    # One c=1/m=4000 block: a sealed object of about 1.2 MB.
    store = build_store(tmp_path / "s", c=1, m=4000)
    fill_store(store, 4000)
    reopened = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert store.block_path(0).stat().st_size > 1_150_000
    block = reopened.load_block(0)
    assert [r.text for r in block.records] == [f"log entry {i}".encode() for i in range(4000)]
    assert verify_store(reopened, full=True).verdict == "ok"


def test_an_object_that_grew_past_its_fstat_is_read_whole(tmp_path, monkeypatch):
    # One read of a byte more than ``fstat`` reports is the whole file only
    # when it comes back short; a file that grew is read on to its end.
    fill_store(build_store(tmp_path / "s", c=2, m=2), 8)  # 4 blocks
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    real_fstat, shortened = os.fstat, []

    def one_record_short(fd):
        # The state object is shorter than a record; every block is longer.
        info = real_fstat(fd)
        if not stat.S_ISREG(info.st_mode) or info.st_size <= RECORD_LEN:
            return info
        shortened.append(fd)
        fields = list(info)
        fields[stat.ST_SIZE] -= RECORD_LEN
        return os.stat_result(fields)

    monkeypatch.setattr(os, "fstat", one_record_short)
    for full in (True, False):
        shortened.clear()
        report = verify_store(store, full=full)
        assert len(shortened) == 4
        assert report.verdict == "ok" and len(report.entries) == 4


def test_unreadable_last_block_keeps_block_order(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8)  # 4 blocks
    store.block_path(2).unlink()
    store.block_path(3).unlink()
    store.block_path(3).mkdir()
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=False)
    assert [(e.block_id, e.status) for e in report.entries] == [
        (0, STATUS_OK),
        (1, STATUS_OK),
        (2, STATUS_GAP),
        (3, STATUS_SEAL_FAILURE),
    ]
    assert report.entries[2].detail == "blocks 2..2 missing"
    assert report.first_failure == (2, None)
    # The unreadable block 3 is present: the run does not end early.
    assert report.verdict == "fail" and report.findings == []


def test_unreadable_block_without_state_is_seal_failure(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8)  # 4 blocks
    (store.directory / STATE_FILE).unlink()
    store.block_path(1).unlink()
    store.block_path(1).mkdir()
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=True)
    assert [(e.block_id, e.status) for e in report.entries] == [
        (0, STATUS_OK),
        (1, STATUS_SEAL_FAILURE),
        (2, STATUS_OK),
        (3, STATUS_OK),
    ]
    assert FINDING_MISSING_STATE in report.findings


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_block_file_gone_after_the_listing_without_state_is_seal_failure(tmp_path, full):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8)  # 4 blocks
    (store.directory / STATE_FILE).unlink()
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    listed = store.block_ids_on_disk

    def list_then_delete():
        ids = listed()
        store.block_path(2).unlink(missing_ok=True)
        return ids

    store.block_ids_on_disk = list_then_delete
    report = verify_store(store, full=full)
    # The file was listed, so it was present: no committed range says it is due.
    assert [(e.block_id, e.status) for e in report.entries] == [
        (0, STATUS_OK),
        (1, STATUS_OK),
        (2, STATUS_SEAL_FAILURE),
        (3, STATUS_OK),
    ]
    assert report.findings == [FINDING_MISSING_STATE]


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_block_file_beyond_the_state_is_a_finding(tmp_path, full):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8)  # 4 blocks
    entries = [e.to_dict() for e in verify_store(store, full=full).entries]
    shutil.copy(store.block_path(1), store.block_path(7))
    (store.directory / ".tmp-x").write_bytes(b"")
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=full)
    # The stray id is a finding, not an entry: no gap opens before it.
    assert report.findings == [f"{FINDING_BEYOND_STATE}: block 7 exceeds committed 3"]
    assert report.verdict == "fail"
    assert [e.to_dict() for e in report.entries] == entries


def test_block_file_before_any_commit_is_a_finding(tmp_path):
    donor = build_store(tmp_path / "donor", c=2, m=2)
    fill_store(donor, 2)
    store = build_store(tmp_path / "s", c=2, m=2)
    shutil.copy(donor.block_path(0), store.block_path(0))
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=False)
    assert report.findings == [
        f"{FINDING_BEYOND_STATE}: state records no commits but blocks present"
    ]
    assert report.entries == [] and report.verdict == "fail"


def test_block_ids_on_disk_are_the_names_block_files_have(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    ids = [0, 99, 10**8 - 1, 10**8, 2**32 - 1]
    for block_id in ids:
        store.block_path(block_id).touch()
    for name in ("blk_99.seal", "blk_99_x.seal", "blk_000000099.seal", "blk_+0000099.seal",
                 "blk_0000009\u0669.seal", "x\nblk_00000005.seal", "blk_00000006.seal.x"):
        (store.directory / name).touch()
    assert store.block_ids_on_disk() == ids


@pytest.mark.parametrize("name", ["blk_99_x.seal", "blk_99.seal", "blk_000000099.seal"])
def test_a_block_name_no_writer_makes_leaves_no_finding_behind(tmp_path, name):
    # ``recover`` removes block files by id: a file whose name only parses
    # as an id would be a finding that no writer's open ever clears.
    _two_committed_blocks(tmp_path / "s")
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    shutil.copy(store.block_path(1), store.directory / name)
    shutil.copy(store.block_path(1), store.block_path(99))
    beyond = [f"{FINDING_BEYOND_STATE}: block 99 exceeds committed 1"]
    for full in (True, False):
        assert verify_store(store, full=full).findings == beyond
    LogWriter(SealedStore.open(tmp_path / "s", ROOT_SECRET)).close()
    for full in (True, False):
        report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=full)
        assert report.verdict == "ok" and report.findings == []
    assert not store.block_path(99).exists()


@pytest.mark.parametrize("kind", ["empty-directory", "fifo", "symlink"])
def test_any_entry_under_a_block_name_beyond_the_state_is_removed_as_a_writer_opens(
    tmp_path, kind
):
    _two_committed_blocks(tmp_path / "s")
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    stray, committed = store.block_path(99), store.block_path(0).read_bytes()
    if kind == "empty-directory":
        stray.mkdir()
    elif kind == "fifo":
        os.mkfifo(stray)
    else:
        stray.symlink_to(store.block_path(0))
    stats = fill_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), 4)  # blocks 2-3
    assert (stats.entries, stats.blocks) == (4, 2)
    for full in (True, False):
        report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=full)
        assert report.verdict == "ok" and report.findings == [], report.to_dict()
    assert not os.path.lexists(stray)
    assert store.block_path(0).read_bytes() == committed


def test_a_non_empty_directory_beyond_the_state_is_a_storage_error_naming_it(tmp_path):
    _two_committed_blocks(tmp_path / "s")
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    store.block_path(99).mkdir()
    (store.block_path(99) / "inside").write_bytes(b"x")
    state = (store.directory / STATE_FILE).read_bytes()
    with pytest.raises(StorageError, match="cannot remove blk_00000099.seal"):
        LogWriter(SealedStore.open(tmp_path / "s", ROOT_SECRET))
    assert (store.directory / STATE_FILE).read_bytes() == state
    assert (store.block_path(99) / "inside").exists()


def test_a_commit_replaces_an_empty_directory_under_its_block_name(tmp_path):
    _two_committed_blocks(tmp_path / "s")
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    store.block_path(2).mkdir()
    store.recover = lambda: store.state  # the commit meets it, not ``recover``
    fill_store(store, 4)  # blocks 2-3
    for full in (True, False):
        report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=full)
        assert report.verdict == "ok" and report.findings == [], report.to_dict()


def test_pre_crash_blocks_put_back_over_committed_ones_are_detected(tmp_path):
    store = build_replayed_store(tmp_path / "s")
    for full in (True, False):
        report = verify_store(store, full=full)
        # Every block is one the device signed: only the digest tells.
        assert [e.status for e in report.entries] == [STATUS_OK] * 4
        assert report.findings == [
            f"{FINDING_HISTORY_MISMATCH}: blocks 0..3 are not the ones the chain state commits"
        ]
        assert report.verdict == "fail"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: with no pinned anchor a local audit cannot tell an older "
    "sealed state from the newest",
)
def test_an_older_state_put_back_with_the_tail_deleted_is_detected(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 4)  # blocks 0-1
    older = (store.directory / STATE_FILE).read_bytes()
    fill_store(store, 4)  # blocks 2-3
    (store.directory / STATE_FILE).write_bytes(older)
    for block_id in (2, 3):
        store.block_path(block_id).unlink()
    replayed = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert {verify_store(replayed, full=full).verdict for full in (True, False)} == {"fail"}


# More than one handle on a store (ROADMAP item 1) -------------------------------


def _two_committed_blocks(directory):
    """A c=2/m=2 store with blocks 0-1 committed."""
    fill_store(build_store(directory, c=2, m=2), 4)


def _append(writer, tag, n=4):
    for i in range(n):
        writer.append_entry(RawEntry("generic", f"{tag}-{i}".encode()))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: no lock stops a second writer, which overwrites the first's "
    "blocks 2-3 and state",
)
def test_a_second_writer_on_a_store_is_refused(tmp_path):
    _two_committed_blocks(tmp_path / "s")
    first = LogWriter(SealedStore.open(tmp_path / "s", ROOT_SECRET))
    second_store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    _append(first, "FIRST")
    first.flush()
    with pytest.raises(StorageError, match="another writer"):
        second = LogWriter(second_store)
        _append(second, "SECOND")
        second.flush()
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert store.state.commit_counter == 2
    assert verify_store(store, full=True).verdict == "ok"


def test_a_writer_opened_after_a_crash_before_the_state_commit_recovers(tmp_path):
    _two_committed_blocks(tmp_path / "s")
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)

    def crash_before_state(step):
        if step == "state:start":
            raise _Crash(step)

    store.crash_hook = crash_before_state
    writer = LogWriter(store)
    with pytest.raises(_Crash):
        _append(writer, "LOST")
        writer.flush()
    assert store.block_ids_on_disk() == [0, 1, 2, 3]  # the crash left blocks 2-3
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    LogWriter(store)
    assert store.block_ids_on_disk() == [0, 1]
    assert not list(store.directory.glob(".tmp-*"))
    assert verify_store(store, full=True).verdict == "ok"


def test_a_writer_leaves_the_export_servers_temp_file(tmp_path):
    _two_committed_blocks(tmp_path / "s")
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    for name in (f".tmp-{DELIVERED_FILE}-x", f".tmp-{STATE_FILE}-x"):
        (store.directory / name).write_bytes(b"")
    shutil.copy(store.block_path(1), store.block_path(2))
    LogWriter(store)
    # The delivered watermark's replace may be in flight in a server.
    assert [p.name for p in store.directory.glob(".tmp-*")] == [f".tmp-{DELIVERED_FILE}-x"]
    assert store.block_ids_on_disk() == [0, 1]


def test_a_writer_opened_during_a_delivered_mark_leaves_its_replace(tmp_path):
    _two_committed_blocks(tmp_path / "s")
    server_store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    writers = []

    def open_a_writer(step):
        if step == "delivered:tmp-written":
            writers.append(LogWriter(SealedStore.open(tmp_path / "s", ROOT_SECRET)))

    server_store.crash_hook = open_a_writer
    server_store.mark_delivered(1)
    assert len(writers) == 1
    assert SealedStore.open(tmp_path / "s", ROOT_SECRET).delivered_mark() == 1


def test_an_audit_handle_opened_before_an_honest_commit_says_ok(tmp_path):
    _two_committed_blocks(tmp_path / "s")
    auditor = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    fill_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), 4)  # blocks 2-3
    for full in (True, False):
        report = verify_store(auditor, full=full)
        assert report.findings == [] and report.verdict == "ok"
        # The audit covers the state on disk, not the one loaded at open.
        assert [e.block_id for e in report.entries] == [0, 1, 2, 3]


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_an_honest_commit_between_the_fold_and_the_listing_says_ok(tmp_path, full):
    _two_committed_blocks(tmp_path / "s")
    auditor = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    listed = auditor.block_ids_on_disk

    def commit_then_list():
        # Another handle commits blocks 2-3 after the fold audited 0-1.
        fill_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), 4)
        return listed()

    auditor.block_ids_on_disk = commit_then_list
    report = verify_store(auditor, full=full)
    assert report.findings == [] and report.verdict == "ok"
    assert [e.block_id for e in report.entries] == [0, 1]


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_audit_memory_does_not_grow_with_the_store(tmp_path, full):
    # c=10/m=100 blocks are 29 KB each, so a block list would show at once;
    # the per-block report entry is small beside that.
    directories = {}
    for n_blocks in (20, 80):
        directories[n_blocks] = tmp_path / f"s{n_blocks}"
        store = build_store(directories[n_blocks], c=10, m=100)
        fill_store(store, n_blocks * 100, body=lambda i: f"entry {i:08d}".encode().ljust(120, b"."))

    def audit_peak(n_blocks):
        store = SealedStore.open(directories[n_blocks], ROOT_SECRET)
        tracemalloc.start()
        try:
            report = verify_store(store, full=full)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "ok" and len(report.entries) == n_blocks
        return peak

    audit_peak(20)  # first-use allocations
    small, large = audit_peak(20), audit_peak(80)
    assert large <= 1.10 * small, (small, large)
    assert large < 256 * 1024, large


def test_confidentiality_no_plaintext_in_store(tmp_path):
    canary = b"TOP-SECRET-CANARY-9000"
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8, body=lambda i: canary + str(i).encode())
    for path in store.directory.iterdir():
        if path.name == "cert.pem":
            continue
        assert canary not in path.read_bytes(), f"plaintext leaked into {path.name}"


# crash injection -------------------------------------------------------------------


class _Crash(Exception):
    pass


def _run_until_crash(directory, crash_at: int, n_entries: int):
    """Ingest with a crash armed at the Nth commit step.

    Returns (entries appended before the crash, records committed before
    this run, peak RAM records, completed).
    """
    store = SealedStore.open(directory, ROOT_SECRET)
    store.recover()
    committed_before = sum(len(b.records) for _, b, _ in store.iter_committed_blocks() if b)
    steps = itertools.count(1)  # block steps run on pool threads

    def hook(step):
        if next(steps) == crash_at:
            raise _Crash(step)

    store.crash_hook = hook
    writer = LogWriter(store)
    appended = 0
    try:
        for i in range(committed_before, n_entries):
            writer.append_entry(RawEntry("generic", f"entry {i}".encode()))
            appended += 1
        writer.flush()
        return appended, committed_before, writer.peak_ram_records, True
    except _Crash:
        return appended, committed_before, writer.peak_ram_records, False


def test_crash_at_every_commit_step_recovers_cleanly(tmp_path):
    params = ChainParams(c=2, m=3)
    window = params.c * params.m + params.m - 1
    n_entries = 24  # 8 blocks, 4 groups
    build_store(tmp_path / "s", c=params.c, m=params.m)

    crash_at = 1
    while True:
        appended, before, peak, completed = _run_until_crash(tmp_path / "s", crash_at, n_entries)
        assert peak <= window
        survivor = SealedStore.open(tmp_path / "s", ROOT_SECRET)
        survivor.recover()
        report = verify_store(survivor, full=True)
        assert report.verdict == "ok", (crash_at, report.to_dict())
        committed = sum(
            len(b.records) for _, b, _ in survivor.iter_committed_blocks() if b
        )
        # entries handed to the writer but not durably committed stay
        # within the in-RAM window
        assert (before + appended) - committed <= window
        if completed:
            assert committed == n_entries
            break
        crash_at += 1
    # the walk resumes from committed progress, so later runs shrink; it
    # still has to survive a meaningful number of distinct injection points
    assert crash_at >= 10


# group commit protocol ---------------------------------------------------------


def _block_steps(block_id):
    """The events one block's task makes, in order."""
    b = f"block{block_id}"
    return [f"{b}:start", f"{b}:created", "fsync:file", f"{b}:written", "fsync:dir", f"{b}:durable"]


def test_full_group_commit_creates_blocks_once(tmp_path, monkeypatch):
    c = 11  # more blocks than pool workers
    store = build_store(tmp_path / "s", c=c, m=2)
    events = []  # (thread, event), in the order they happened

    def record(event):
        events.append((threading.get_ident(), event))

    real_fsync, real_replace, real_mkstemp = os.fsync, os.replace, tempfile.mkstemp

    def fsync(fd):
        record("fsync:dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync:file")
        real_fsync(fd)

    def replace(*args, **kwargs):
        record("replace")
        return real_replace(*args, **kwargs)

    def mkstemp(*args, **kwargs):
        record("mkstemp")
        return real_mkstemp(*args, **kwargs)

    store.crash_hook = record
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    writer = LogWriter(store)
    for i in range(c * 2):  # one full group: the last append commits it
        writer.append_entry(RawEntry("generic", f"entry {i}".encode()))
    monkeypatch.undo()

    def replaced(step):
        return [f"{step}:start", "mkstemp", "fsync:file", f"{step}:tmp-written", "replace",
                f"{step}:renamed", "fsync:dir", f"{step}:durable"]

    main = threading.get_ident()
    assert [e for t, e in events if t == main] == replaced("ik0") + replaced("state")
    # Each block is made durable once, by one task on one thread, its own
    # events in order: its file fsync before its directory fsync.
    order = [e for _, e in events]
    for block_id in range(c):
        start = order.index(f"block{block_id}:start")
        thread = events[start][0]
        assert thread != main
        own = [e for t, e in events[start:] if t == thread][:6]
        assert own == _block_steps(block_id)
        assert order.count(f"block{block_id}:created") == 1
    assert order.count("fsync:file") + order.count("fsync:dir") == 2 * c + 4
    assert order.count("replace") == 2 and order.count("mkstemp") == 2
    # The state names the blocks only once every one is durable.
    last_durable = max(i for i, e in enumerate(order) if e.endswith(":durable") and "block" in e)
    assert order.index("state:start") > last_durable
    assert store.load_state().latest_block_id == c - 1
    assert not list(store.directory.glob(".tmp-*"))


def test_group_commit_holds_at_most_a_window_of_blocks_open(tmp_path, monkeypatch):
    c = 35  # more than four blocks for each of the pool's 8 workers
    store = build_store(tmp_path / "s", c=c, m=1)
    kinds = {}  # open fd -> "blk" or "dir"
    fsyncs = []  # (thread, kind)
    peak = 0
    lock = threading.Lock()
    real_open, real_close, real_fsync = os.open, os.close, os.fsync

    def tracked_open(path, flags, *args, **kwargs):
        nonlocal peak
        fd = real_open(path, flags, *args, **kwargs)
        with lock:
            if str(path).startswith("blk_"):
                kinds[fd] = "blk"
                peak = max(peak, list(kinds.values()).count("blk"))
            elif flags & os.O_DIRECTORY:
                kinds[fd] = "dir"
        return fd

    def tracked_close(fd):
        with lock:
            kinds.pop(fd, None)
        real_close(fd)

    def tracked_fsync(fd):
        with lock:
            fsyncs.append((threading.get_ident(), kinds.get(fd, "other")))
        real_fsync(fd)

    monkeypatch.setattr(os, "open", tracked_open)
    monkeypatch.setattr(os, "close", tracked_close)
    monkeypatch.setattr(os, "fsync", tracked_fsync)
    fill_store(store, c)
    monkeypatch.undo()

    assert 1 <= peak <= 8
    assert "blk" not in kinds.values()
    # IK and state: a temp file, then the directory, on the writer's thread.
    main = threading.get_ident()
    assert [k for t, k in fsyncs if t == main] == ["other", "dir"] * 2
    # On each pool thread, every block file's fsync is followed by the
    # directory's: c of each in all.
    workers = {t for t, _ in fsyncs} - {main}
    assert 1 <= len(workers) <= 8
    for thread in workers:
        kinds_on_thread = [k for t, k in fsyncs if t == thread]
        assert kinds_on_thread == ["blk", "dir"] * (len(kinds_on_thread) // 2)
    assert [k for _, k in fsyncs].count("blk") == c
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=True)
    assert report.verdict == "ok" and len(report.entries) == c


def _failing_writes(monkeypatch, errors):
    """Make ``os.write`` to the block files named in ``errors`` call the
    mapped function, which raises, instead of writing."""
    names = {}  # open fd -> file name
    real_open, real_write = os.open, os.write

    def tracked_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        names[fd] = os.path.basename(str(path))
        return fd

    def write(fd, data):
        fail = errors.get(names.get(fd))
        if fail is not None:
            fail()
        return real_write(fd, data)

    monkeypatch.setattr(os, "open", tracked_open)
    monkeypatch.setattr(os, "write", write)


def _no_space():
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_block_write_closes_every_fd_and_keeps_the_state(tmp_path, monkeypatch):
    store = build_store(tmp_path / "s", c=3, m=2)
    fill_store(store, 6)  # group 0: blocks 0-2
    state = store.load_state()
    writer = LogWriter(store)
    for i in range(5):  # blocks 3-4 in RAM, block 5 one record short
        writer.append_entry(RawEntry("generic", f"log entry {6 + i}".encode()))

    fds = sorted(os.listdir("/proc/self/fd"))
    _failing_writes(monkeypatch, {"blk_00000004.seal": _no_space})
    with pytest.raises(StorageError, match="failed writing blk_00000004.seal"):
        writer.append_entry(RawEntry("generic", b"log entry 11"))  # commits group 1
    monkeypatch.undo()
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert store.state == state and store.load_state() == state
    # Block 3 was taken before block 4 failed, so its task ran to the end.
    assert store.block_path(3).stat().st_size > 0
    assert store.block_path(4).stat().st_size == 0

    writer.flush()  # the same batch again, over the leftovers
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=True)
    assert report.verdict == "ok", report.to_dict()
    assert [e.block_id for e in report.entries] == list(range(6))


def test_a_crash_in_one_block_task_stops_the_commit(tmp_path):
    c = 8
    store = build_store(tmp_path / "s", c=c, m=1)
    calls = []

    def hook(step):
        calls.append(step)
        if step == "block3:written":
            raise _Crash(step)

    def files():
        return {p.name: p.stat().st_size for p in store.directory.iterdir()}

    store.crash_hook = hook
    with pytest.raises(_Crash, match="block3:written"):
        fill_store(store, c)
    seen, listed = list(calls), files()
    assert "state:start" not in seen
    time.sleep(0.2)  # a task still running would create or write by now
    assert calls == seen and files() == listed
    # Every block that was taken ran to its end, but block 3.
    for block_id in {int(s[5:].split(":")[0]) for s in seen if s.startswith("block")} - {3}:
        assert f"block{block_id}:durable" in seen

    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert store.recover().latest_block_id is None
    assert store.block_ids_on_disk() == []
    for full in (True, False):
        assert verify_store(store, full=full).verdict == "ok"


def test_a_commit_takes_no_block_after_one_fails(tmp_path):
    c = 16  # two blocks for each of the pool's 8 workers
    store = build_store(tmp_path / "s", c=c, m=1)
    started = []

    def hook(step):
        if step.startswith("block") and step.endswith(":start"):
            started.append(int(step[5:].split(":")[0]))
            if step == "block0:start":
                raise _Crash(step)
            time.sleep(0.2)  # block 0's task fails meanwhile

    store.crash_hook = hook
    with pytest.raises(_Crash):
        fill_store(store, c)
    assert sorted(started) == list(range(min(8, len(started))))  # none of blocks 8-15
    assert store.load_state().latest_block_id is None


def test_a_commit_with_two_failed_blocks_raises_the_lower_ones_error(tmp_path, monkeypatch):
    store = build_store(tmp_path / "s", c=8, m=1)
    block_5_failed = threading.Event()

    def fail_5():
        block_5_failed.set()
        _no_space()

    def fail_2_after_5():
        # Block 2 was taken before block 5, so its task is running.
        assert block_5_failed.wait(timeout=10)
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    _failing_writes(monkeypatch, {"blk_00000002.seal": fail_2_after_5, "blk_00000005.seal": fail_5})
    with pytest.raises(StorageError, match="failed writing blk_00000002.seal") as raised:
        fill_store(store, 8)
    monkeypatch.undo()
    assert raised.value.__cause__.errno == errno.EIO
    assert store.load_state().latest_block_id is None


def test_group_commits_under_fast_thread_switching_write_each_block_once(tmp_path):
    c = 64  # eight times the pool's workers, and more workers than cores
    store = build_store(tmp_path / "s", c=c, m=1)
    created = []
    store.crash_hook = lambda step: step.endswith(":created") and created.append(step)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fill_store(store, 3 * c)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(created) == sorted(f"block{i}:created" for i in range(3 * c))
    assert store.load_state().latest_block_id == 3 * c - 1
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=True)
    assert report.verdict == "ok" and len(report.entries) == 3 * c


def test_a_forked_child_commits_on_a_pool_of_its_own(tmp_path):
    store = build_store(tmp_path / "s", c=4, m=1)
    fill_store(store, 4)  # the pool's threads exist in this process now
    pid = os.fork()
    if pid == 0:  # the child: only this thread was copied
        code = 1
        try:
            fill_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), 4)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0, "the child's commit hung"
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=True)
    assert report.verdict == "ok" and len(report.entries) == 8


_CHILD = """
import sys
from sealog.cli import main

store, logs = sys.argv[1:]
for argv in (
    ["init", "--store", store, "--c", "200", "--m", "1"],
    ["ingest", "--store", store, logs],
    ["verify", "--store", store, "--full"],
):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def test_group_of_200_blocks_commits_under_64_open_files(tmp_path):
    logs = tmp_path / "logs.txt"
    logs.write_bytes(b"".join(f"line {i}\n".encode() for i in range(200)))  # one group
    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    src = str(Path(sealog.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "store"), str(logs)],
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert "verdict: ok" in child.stdout


# A crash at the first block's ``written`` leaves it unsynced in its
# directory and the blocks taken with it durable; one at the last block's
# ``created`` leaves that block empty.
_CRASH_POINTS = [
    pytest.param("block5:created", id="created"),
    pytest.param("block3:written", id="written"),
]


def _crash_group_commit(directory, label):
    """Commit group 0 (blocks 0-2), then crash group 1's commit at ``label``."""
    store = build_store(directory, c=3, m=2)
    fill_store(store, 6)

    started = set()

    def hook(step):
        started.add(step)
        if step == label:
            # Let the other tasks take blocks 4 and 5 before the crash.
            deadline = time.monotonic() + 10
            while not {"block4:start", "block5:start"} <= started:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            raise _Crash(step)

    store.crash_hook = hook
    writer = LogWriter(store)
    with pytest.raises(_Crash):
        for i in range(6):
            writer.append_entry(RawEntry("generic", f"late entry {i}".encode()))
    return store


@pytest.mark.parametrize("label", _CRASH_POINTS)
def test_block_left_by_a_crash_is_committed_over(tmp_path, label):
    store = _crash_group_commit(tmp_path / "s", label)
    assert all(store.block_path(i).is_file() for i in (3, 4, 5))
    assert store.load_state().latest_block_id == 2

    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    # No recover: blocks 3-5 are created again over the leftovers.
    store.recover = lambda: store.state
    fill_store(store, 6)
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=True)
    assert report.verdict == "ok", report.to_dict()
    assert [e.block_id for e in report.entries] == list(range(6))
    texts = [r.text for i in (3, 4, 5) for r in store.load_block(i).records]
    assert texts == [f"log entry {i}".encode() for i in range(6)]


@pytest.mark.parametrize("label", _CRASH_POINTS)
def test_recover_drops_a_block_left_by_a_crash(tmp_path, label):
    _crash_group_commit(tmp_path / "s", label)
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    assert store.recover().latest_block_id == 2
    assert store.block_ids_on_disk() == [0, 1, 2]
    assert verify_store(store, full=True).verdict == "ok"


def test_block_commit_never_follows_a_planted_symlink(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 4)  # blocks 0-1 committed
    target = tmp_path / "target"
    target.write_bytes(b"not a block")
    store.block_path(2).symlink_to(target)
    fill_store(store, 4)
    assert target.read_bytes() == b"not a block"
    assert not store.block_path(2).is_symlink()
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=True)
    assert report.verdict == "ok", report.to_dict()
