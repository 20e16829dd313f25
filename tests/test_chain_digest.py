"""The chain digest: full audits that check it first give the reports of the
per-block path, and make no block-signature check on an honest run."""

from __future__ import annotations

import pytest

from conftest import ROOT_SECRET, build_store, fill_store
from sealog import logchain, retrieval
from sealog.identity import DeviceIdentity
from sealog.logchain import (
    FINDING_HISTORY_MISMATCH,
    STATUS_BAD_HMAC,
    STATUS_BAD_SIGNATURE,
    STATUS_GAP,
    STATUS_OK,
    STATUS_ORDER_VIOLATION,
    STATUS_SEAL_FAILURE,
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


@pytest.fixture
def signature_checks(monkeypatch):
    """Every signature check the audit modules make, one item per call."""
    calls = []
    for module in (logchain, retrieval):
        real = module.verify_raw

        def counted(*args, real=real):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, "verify_raw", counted)
    return calls


def _per_block_report(store: SealedStore, full: bool):
    """The store audited on the per-block path alone: a one-shot run
    cannot be read twice, so it never takes the digest-first pass."""
    rlk = store.root_logging_key() if full else None
    return verify_sequence(
        store.iter_committed_blocks(), 0, store.state, rlk, store.public_key(), store.params
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
        # A local full audit checks no block signature; a public one checks each.
        assert len(signature_checks) == (0 if full else blocks)
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
    for rlk, checks in ((store.root_logging_key(), 1), (None, 11)):
        signature_checks.clear()
        report = audit(result, certificate, rlk=rlk)
        assert len(signature_checks) == checks
        assert report.verdict == "ok" and len(report.entries) == 10


def test_a_remote_full_audit_of_a_partial_range_checks_each_block(tmp_path, signature_checks):
    store = build_store(tmp_path / "s", c=2, m=4)
    fill_store(store, 40)  # 10 blocks
    verifier = DeviceIdentity.generate()
    result = _served(store, verifier, RetrievalRequest(store.manifest.device_id, 0, 8))
    signature_checks.clear()
    report = audit(result, store.identity().certificate, rlk=store.root_logging_key())
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
        iter(run), 0, result.summary.state, rlk, certificate.public_key(), store.params,
        run_ids={block.block_id for block in result.blocks},
    )
    assert report.to_dict() == reference.to_dict()
    assert [e.status for e in report.entries][1:3] == [STATUS_ORDER_VIOLATION] * 2
    assert not any(f.startswith(FINDING_HISTORY_MISMATCH) for f in report.findings)
