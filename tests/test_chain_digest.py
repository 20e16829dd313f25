"""The chain digest: full and public audits that check it first give the
reports of the per-block path, and make no block-signature check on an
honest run (locally) or only the summary's (remotely).  The audit is one
fold that runs at most twice; the counts below pin what each run costs."""

from __future__ import annotations

import dataclasses
import struct

import pytest

from conftest import ROOT_SECRET, build_store, fill_store
from sealog import logchain
from sealog.errors import KeyUnavailable
from sealog.identity import DeviceIdentity
from sealog.logchain import (
    FINDING_BEYOND_STATE,
    FINDING_HISTORY_MISMATCH,
    STATUS_BAD_HMAC,
    STATUS_BAD_SIGNATURE,
    STATUS_GAP,
    STATUS_OK,
    STATUS_ORDER_VIOLATION,
    STATUS_SEAL_FAILURE,
    Block,
    verify_block_full,
    verify_sequence,
)
from sealog.retrieval import LogExportServer, RetrievalRequest, audit, fetch
from sealog.sealstore import OBJECT_BLOCK, SealedStore, seal, verify_store

# (c, m, entries): one record per entry, so entries / m blocks.
HONEST = [
    pytest.param(1, 1, 5, id="c1_m1"),
    pytest.param(3, 4, 24, id="c3_m4"),
    pytest.param(20, 2, 80, id="c20_m2"),
    pytest.param(3, 4, 30, id="c3_m4_partial_last_group"),
]

# Offset of the first content byte of record 0 in an EMLB block: the
# 13-byte header, then the record's msg id, tag and text prefix.
_RECORD0_TEXT = 13 + 4 + 32 + 2


def _block_calls(monkeypatch, name):
    """The block id of every call an audit makes to ``logchain.<name>``."""
    calls = []
    real = getattr(logchain, name)

    def counted(block, *args):
        calls.append(block.block_id)
        return real(block, *args)

    monkeypatch.setattr(logchain, name, counted)
    return calls


@pytest.fixture
def full_checks(monkeypatch):
    return _block_calls(monkeypatch, "verify_block_full")


@pytest.fixture
def public_checks(monkeypatch):
    return _block_calls(monkeypatch, "verify_block_public")


def _per_block_report(store: SealedStore, full: bool):
    """The store audited on the per-block path alone: a one-shot run
    cannot be read twice, so it never takes the digest-first pass."""
    rlk = store.root_logging_key() if full else None
    return verify_sequence(
        store.iter_committed_blocks(), 0, store.state, rlk, store.public_key, store.params
    )


def _reseal(store: SealedStore, block_id: int, payload: bytes) -> None:
    store.block_path(block_id).write_bytes(seal(payload, store.sk, OBJECT_BLOCK, block_id))


@pytest.mark.parametrize("c, m, entries", HONEST)
def test_digest_first_gives_the_per_block_report_on_honest_stores(
    tmp_path, signature_checks, c, m, entries
):
    fill_store(build_store(tmp_path / "s", c=c, m=m), entries)
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    blocks = -(-entries // m)
    for full in (True, False):
        signature_checks.clear()
        report = verify_store(store, full=full)
        # A local audit, full or public, checks no block signature.
        assert len(signature_checks) == 0
        signature_checks.clear()
        reference = _per_block_report(store, full)
        assert len(signature_checks) == blocks
        assert report.to_dict() == reference.to_dict()
        assert report.verdict == "ok" and len(report.entries) == blocks


def _served(store: SealedStore, verifier, request: RetrievalRequest):
    server = LogExportServer(store, [verifier.certificate], port=0)
    server.start()
    try:
        return fetch(
            "127.0.0.1", server.address[1], verifier, [store.identity().certificate], request
        )
    finally:
        server.close()


@pytest.mark.parametrize("end", [None, 9, 12], ids=["open", "latest", "past_latest"])
def test_a_remote_full_audit_of_the_whole_range_checks_only_the_summary_signature(
    tmp_path, signature_checks, end
):
    store = build_store(tmp_path / "s", c=2, m=4)
    fill_store(store, 40)  # 10 blocks
    verifier = DeviceIdentity.generate()
    result = _served(store, verifier, RetrievalRequest(store.manifest.device_id, 0, end))
    certificate = store.identity().certificate
    # Full or public, the summary's signature is the only one checked.
    for rlk in (store.root_logging_key(), None):
        signature_checks.clear()
        report = audit(result, certificate, rlk=rlk)
        assert len(signature_checks) == 1
        assert report.verdict == "ok" and len(report.entries) == 10


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_a_remote_full_audit_of_a_partial_range_checks_each_block(
    tmp_path, signature_checks, full
):
    store = build_store(tmp_path / "s", c=2, m=4)
    fill_store(store, 40)  # 10 blocks
    verifier = DeviceIdentity.generate()
    result = _served(store, verifier, RetrievalRequest(store.manifest.device_id, 0, 8))
    signature_checks.clear()
    rlk = store.root_logging_key() if full else None
    report = audit(result, store.identity().certificate, rlk=rlk)
    assert len(signature_checks) == 1 + 9
    assert report.verdict == "ok"


def _flip_signature(store):
    data = bytearray(store.load_block(2).serialize())
    data[-1] ^= 0x01
    _reseal(store, 2, bytes(data))


def _flip_text(store):
    data = bytearray(store.load_block(2).serialize())
    data[_RECORD0_TEXT] ^= 0x01
    _reseal(store, 2, bytes(data))


def _swap_blocks(store):
    one, two = store.load_block(1).serialize(), store.load_block(2).serialize()
    _reseal(store, 1, two)
    _reseal(store, 2, one)


# Each tamper and the entries it leaves at blocks 1-3 of a 6-block store.
# A public audit covers no record text, so a text flip passes it.
_SIGNATURE = [STATUS_OK, STATUS_BAD_SIGNATURE, STATUS_OK]
_GAP = [STATUS_OK, STATUS_GAP, STATUS_OK]
_REORDER = [STATUS_SEAL_FAILURE, STATUS_SEAL_FAILURE, STATUS_OK]
TAMPERS = [
    pytest.param(_flip_signature, _SIGNATURE, _SIGNATURE, id="signature"),
    pytest.param(lambda s: s.block_path(2).unlink(), _GAP, _GAP, id="deleted"),
    pytest.param(_swap_blocks, _REORDER, _REORDER, id="reorder"),
    pytest.param(_flip_text, [STATUS_OK, STATUS_BAD_HMAC, STATUS_OK], [STATUS_OK] * 3, id="hmac"),
]


@pytest.mark.parametrize("tamper, full_statuses, public_statuses", TAMPERS)
@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_a_tampered_store_gets_the_per_block_report(
    tmp_path, tamper, full_statuses, public_statuses, full
):
    fill_store(build_store(tmp_path / "s", c=2, m=2), 12)  # 6 blocks
    tamper(SealedStore.open(tmp_path / "s", ROOT_SECRET))
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    report = verify_store(store, full=full)
    assert report.to_dict() == _per_block_report(store, full).to_dict()
    statuses = full_statuses if full else public_statuses
    assert [e.status for e in report.entries[1:4]] == statuses
    assert report.verdict == ("ok" if statuses == [STATUS_OK] * 3 else "fail")
    assert not any(f.startswith(FINDING_HISTORY_MISMATCH) for f in report.findings)


def test_an_honest_audit_parses_no_certificate(tmp_path, monkeypatch):
    fill_store(build_store(tmp_path / "s", c=2, m=2), 12)  # 6 blocks

    def refuse(*args):
        raise AssertionError("the audit parsed the device certificate")

    with monkeypatch.context() as patched:
        patched.setattr(DeviceIdentity, "from_material", refuse)
        for full in (True, False):
            report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=full)
            assert report.verdict == "ok" and len(report.entries) == 6

    # A bad signature sends the audit to the fold that checks signatures,
    # which makes the key once for all of them.
    _flip_signature(SealedStore.open(tmp_path / "s", ROOT_SECRET))
    real, parsed = DeviceIdentity.from_material, []

    def counted(*args):
        parsed.append(args)
        return real(*args)

    for full in (True, False):
        parsed.clear()
        store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
        with monkeypatch.context() as patched:
            patched.setattr(DeviceIdentity, "from_material", counted)
            report = verify_store(store, full=full)
        assert len(parsed) == 1
        assert report.to_dict() == _per_block_report(store, full).to_dict()
        assert [e.status for e in report.entries[1:4]] == _SIGNATURE


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_a_reordered_fetched_run_gets_the_per_block_report(tmp_path, full):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 12)  # 6 blocks
    verifier = DeviceIdentity.generate()
    result = _served(store, verifier, RetrievalRequest(store.manifest.device_id, 0))
    result.blocks[1], result.blocks[2] = result.blocks[2], result.blocks[1]
    certificate = store.identity().certificate
    rlk = store.root_logging_key() if full else None
    report = audit(result, certificate, rlk=rlk)
    run = [(block.block_id, block, None) for block in result.blocks]
    reference = verify_sequence(
        iter(run), 0, result.summary.state, rlk, certificate.public_key, store.params,
        run_ids={block.block_id for block in result.blocks},
    )
    assert report.to_dict() == reference.to_dict()
    assert [e.status for e in report.entries][1:3] == [STATUS_ORDER_VIOLATION] * 2
    assert not any(f.startswith(FINDING_HISTORY_MISMATCH) for f in report.findings)


def test_a_bad_tag_under_a_bad_signature_is_one_entry_and_a_note(tmp_path):
    fill_store(build_store(tmp_path / "s", c=2, m=2), 12)  # 6 blocks
    store = SealedStore.open(tmp_path / "s", ROOT_SECRET)
    data = bytearray(store.load_block(2).serialize())
    data[_RECORD0_TEXT] ^= 0x01
    data[-1] ^= 0x01
    _reseal(store, 2, bytes(data))
    local = verify_store(store, full=True)
    verifier = DeviceIdentity.generate()
    result = _served(store, verifier, RetrievalRequest(store.manifest.device_id, 0))
    remote = audit(result, store.identity().certificate, rlk=store.root_logging_key())
    assert remote.to_dict() == local.to_dict()
    assert local.verdict == "fail" and local.findings == []
    failed = [(e.block_id, e.status, e.msg_id) for e in local.entries if e.status != STATUS_OK]
    assert failed == [(2, STATUS_BAD_HMAC, 0)]
    assert local.notes == ["block 2: signature also invalid"]


@pytest.mark.parametrize("c, m, entries", HONEST)
def test_a_full_audit_of_an_honest_store_checks_each_block_once(
    tmp_path, full_checks, c, m, entries
):
    fill_store(build_store(tmp_path / "s", c=c, m=m), entries)
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=True)
    assert report.verdict == "ok"
    assert full_checks == list(range(-(-entries // m)))


@pytest.mark.parametrize(
    "tamper, present, calls",
    [
        pytest.param(_flip_text, 6, 12, id="hmac"),
        pytest.param(lambda s: s.block_path(2).unlink(), 5, 10, id="deleted"),
    ],
)
def test_a_full_audit_of_a_tampered_store_folds_every_present_block_twice(
    tmp_path, full_checks, tamper, present, calls
):
    # The first fold does not stop at the first anomaly: it reads the whole
    # run, and the fold with signatures then reads it again.
    fill_store(build_store(tmp_path / "s", c=2, m=2), 12)  # 6 blocks
    tamper(SealedStore.open(tmp_path / "s", ROOT_SECRET))
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=True)
    assert report.verdict == "fail"
    assert len(full_checks) == 2 * present == calls


@pytest.mark.parametrize("c, m, entries", HONEST)
def test_a_public_audit_of_an_honest_store_calls_the_block_check_once_per_block(
    tmp_path, public_checks, signature_checks, c, m, entries
):
    fill_store(build_store(tmp_path / "s", c=c, m=m), entries)
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=False)
    assert report.verdict == "ok"
    assert public_checks == list(range(-(-entries // m)))
    assert signature_checks == []


@pytest.mark.parametrize(
    "tamper, present, calls",
    [
        pytest.param(_flip_signature, 6, 12, id="signature"),
        pytest.param(lambda s: s.block_path(2).unlink(), 5, 10, id="deleted"),
    ],
)
def test_a_public_audit_of_a_tampered_store_folds_every_present_block_twice(
    tmp_path, public_checks, signature_checks, tamper, present, calls
):
    fill_store(build_store(tmp_path / "s", c=2, m=2), 12)  # 6 blocks
    tamper(SealedStore.open(tmp_path / "s", ROOT_SECRET))
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=False)
    assert report.verdict == "fail"
    assert len(public_checks) == 2 * present == calls
    # Only the second fold checks signatures, one per block present.
    assert len(signature_checks) == present


def test_a_text_flip_passes_a_public_audit_in_one_fold(tmp_path, public_checks):
    # A public audit covers no record text: the tags, signatures and
    # digest all still match, so the first fold is the report.
    fill_store(build_store(tmp_path / "s", c=2, m=2), 12)  # 6 blocks
    _flip_text(SealedStore.open(tmp_path / "s", ROOT_SECRET))
    report = verify_store(SealedStore.open(tmp_path / "s", ROOT_SECRET), full=False)
    assert report.verdict == "ok" and not report.findings
    assert public_checks == list(range(6))


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_a_summary_count_that_disagrees_is_a_finding_beside_ok_entries(
    tmp_path, signature_checks, full
):
    store = build_store(tmp_path / "s", c=2, m=4)
    fill_store(store, 40)  # 10 blocks
    verifier = DeviceIdentity.generate()
    result = _served(store, verifier, RetrievalRequest(store.manifest.device_id, 0))
    result.summary.count += 1
    signature_checks.clear()
    rlk = store.root_logging_key() if full else None
    report = audit(result, store.identity().certificate, rlk=rlk)
    assert len(signature_checks) == 1
    assert report.findings == ["summary counts 11 blocks, received 10"]
    assert [e.to_dict() for e in report.entries] == [
        {"block_id": i, "status": STATUS_OK} for i in range(10)
    ]
    assert report.verdict == "fail"


@pytest.mark.parametrize("full", [True, False], ids=["full", "public"])
def test_a_summary_signed_over_an_older_state_gets_the_per_block_report(tmp_path, full):
    store = build_store(tmp_path / "s", c=2, m=4)
    fill_store(store, 32)  # blocks 0-7
    older = store.state
    fill_store(store, 8)  # blocks 8-9
    verifier = DeviceIdentity.generate()
    result = _served(store, verifier, RetrievalRequest(store.manifest.device_id, 0))
    state, signature = store.signed_state_snapshot(older)
    result.summary = dataclasses.replace(result.summary, state=state, state_signature=signature)
    certificate = store.identity().certificate
    rlk = store.root_logging_key() if full else None
    report = audit(result, certificate, rlk=rlk)
    assert report.findings == [f"{FINDING_BEYOND_STATE}: block 9 exceeds committed 7"]
    run = [(block.block_id, block, None) for block in result.blocks]
    reference = verify_sequence(
        iter(run), 0, older, rlk, certificate.public_key, store.params,
        run_ids={block.block_id for block in result.blocks},
    )
    assert report.to_dict() == reference.to_dict()


def test_an_audit_with_a_destroyed_root_key_raises(tmp_path):
    store = build_store(tmp_path / "s", c=2, m=2)
    fill_store(store, 8)  # 4 blocks
    verifier = DeviceIdentity.generate()
    result = _served(store, verifier, RetrievalRequest(store.manifest.device_id, 0))
    certificate = store.identity().certificate
    rlk = store.root_logging_key()
    rlk.destroy()
    # A block of no records derives no message key, but still its block key.
    header = struct.pack(">4sBII", logchain.BLOCK_MAGIC, logchain.FORMAT_VERSION, 1, 0)
    empty = Block.deserialize(header + bytes(64))
    for block in (store.load_block(1), empty):
        with pytest.raises(KeyUnavailable):
            verify_block_full(block, rlk, store.params)
    run = list(store.iter_committed_blocks())
    with pytest.raises(KeyUnavailable):
        verify_sequence(run, 0, store.state, rlk, store.public_key, store.params)
    with pytest.raises(KeyUnavailable):
        audit(result, certificate, rlk=rlk)
