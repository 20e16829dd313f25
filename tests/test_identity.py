from __future__ import annotations

import pytest
from cryptography.hazmat.primitives.serialization import Encoding

from sealog.errors import AuthFailure, ParseError
from sealog.identity import (
    DeviceIdentity,
    der_signature_from_raw,
    device_id_from_certificate,
    load_trust_anchors,
    raw_signature_from_der,
    validate_peer_certificate,
)


def test_sign_verify_roundtrip():
    identity = DeviceIdentity.generate()
    sig = identity.sign(b"message")
    assert len(sig) == 64
    assert identity.verify(b"message", sig)
    assert not identity.verify(b"other", sig)


def test_raw_der_signature_conversion():
    identity = DeviceIdentity.generate()
    raw = identity.sign(b"x")
    der = der_signature_from_raw(raw)
    assert raw_signature_from_der(der) == raw
    with pytest.raises(ParseError):
        der_signature_from_raw(raw[:63])


def test_certificate_binds_device_id():
    identity = DeviceIdentity.generate(b"\xab" * 16)
    assert device_id_from_certificate(identity.certificate) == b"\xab" * 16


def test_save_load_roundtrip(tmp_path):
    identity = DeviceIdentity.generate()
    identity.save(tmp_path / "id")
    loaded = DeviceIdentity.load(tmp_path / "id")
    assert loaded.device_id == identity.device_id
    sig = loaded.sign(b"still signs")
    assert identity.verify(b"still signs", sig)


def test_save_refuses_an_existing_key_before_writing_the_certificate(tmp_path):
    directory = tmp_path / "id"
    directory.mkdir()
    (directory / "key.der").write_bytes(b"an earlier key")
    with pytest.raises(FileExistsError):
        DeviceIdentity.generate().save(directory)
    assert (directory / "key.der").read_bytes() == b"an earlier key"
    assert not (directory / "cert.pem").exists()


def test_public_only_identity_cannot_sign(tmp_path):
    identity = DeviceIdentity.generate()
    public_only = DeviceIdentity.from_material(identity.certificate_pem(), None)
    with pytest.raises(AuthFailure):
        public_only.sign(b"x")


def test_trust_anchor_validation(tmp_path):
    trusted = DeviceIdentity.generate()
    stranger = DeviceIdentity.generate()
    anchors_dir = tmp_path / "anchors"
    anchors_dir.mkdir()
    (anchors_dir / "trusted.pem").write_bytes(trusted.certificate_pem())
    anchors = load_trust_anchors(anchors_dir)
    trusted_der = trusted.certificate.public_bytes(Encoding.DER)
    assert validate_peer_certificate(trusted_der, anchors) is anchors[0]
    with pytest.raises(AuthFailure):
        validate_peer_certificate(stranger.certificate.public_bytes(Encoding.DER), anchors)
