from __future__ import annotations

import datetime

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.x509.oid import NameOID

from sealog import logchain, retrieval
from sealog.collector import IngestPolicy, LogWriter, RawEntry, ingest
from sealog.identity import DeviceIdentity
from sealog.keyschedule import ChainParams, RootLoggingKey
from sealog.sealstore import SealedStore

ROOT_SECRET = b"\x24" * 32


def build_store(directory, c=2, m=4, device_id=None, root_secret=ROOT_SECRET):
    identity = DeviceIdentity.generate(device_id)
    rlk = RootLoggingKey.generate()
    store = SealedStore.create(directory, root_secret, ChainParams(c=c, m=m), identity, rlk)
    return store


def fill_store(store, n_entries, body=lambda i: f"log entry {i}".encode()):
    writer = LogWriter(store)
    entries = (RawEntry(source="generic", body=body(i)) for i in range(n_entries))
    stats = ingest(entries, IngestPolicy(params=store.params), writer)
    return stats


def make_certificate(
    device_id: bytes, key, issuer: DeviceIdentity | None = None
) -> x509.Certificate:
    """A certificate binding ``key`` to ``device_id``, signed by ``issuer``
    or, without one, self-signed."""
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, device_id.hex())])
    now = datetime.datetime.now(datetime.timezone.utc)
    return (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(issuer.certificate.subject if issuer else name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(minutes=5))
        .not_valid_after(now + datetime.timedelta(days=1))
        .sign(issuer.private_key if issuer else key, hashes.SHA256())
    )


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


@pytest.fixture
def small_store(tmp_path):
    """2 groups of 2 blocks of 4 records, fully committed."""
    store = build_store(tmp_path / "store", c=2, m=4)
    fill_store(store, 16)
    return store


class _Crash(Exception):
    pass


def build_replayed_store(directory):
    """A c=2/m=2 store whose committed blocks 2-3 are copies written before
    a crash, put back over the blocks committed after it.

    Blocks 0-1 are committed.  A writer then writes blocks 2-3 (entries
    ``LOST-0..3``) and crashes before its state commit; their files are
    saved.  A new writer commits blocks 2-3 with ``NEW-0..3``, and the
    saved files are copied back over them.
    """
    store = build_store(directory, c=2, m=2)
    fill_store(store, 4)

    def crash_before_state(step):
        if step == "state:start":
            raise _Crash(step)

    store.crash_hook = crash_before_state
    writer = LogWriter(store)
    with pytest.raises(_Crash):
        for i in range(4):
            writer.append_entry(RawEntry("generic", f"LOST-{i}".encode()))
        writer.flush()
    saved = {i: store.block_path(i).read_bytes() for i in (2, 3)}

    store = SealedStore.open(directory, ROOT_SECRET)
    fill_store(store, 4, body=lambda i: f"NEW-{i}".encode())
    assert store.state.latest_block_id == 3
    for block_id, data in saved.items():
        store.block_path(block_id).write_bytes(data)
    return SealedStore.open(directory, ROOT_SECRET)
