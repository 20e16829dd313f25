"""Device signing identity: P-256 key pair, certificate, trust anchors.

Signatures use ECDSA over NIST P-256 with SHA-256.  On the wire and in
block serialization, signatures are a fixed 64-byte raw ``r || s`` pair
(each coordinate 32-byte big-endian); DER is used only inside X.509
certificates.  Certificates are self-signed at desk scale and bind the
public key to a 16-byte device identifier carried in the subject CN.
"""

from __future__ import annotations

import datetime
import os
from dataclasses import dataclass
from pathlib import Path

from cryptography import x509
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)
from cryptography.x509.oid import NameOID

from .errors import AuthFailure, InvalidParameter, ParseError

DEVICE_ID_LEN = 16
SIGNATURE_LEN = 64
_CURVE = ec.SECP256R1()
_CERT_LIFETIME_DAYS = 3650
# The one signature algorithm object; it holds no state, so every sign and
# verify shares it.
_ECDSA_SHA256 = ec.ECDSA(hashes.SHA256())


# A file that is only ever created: never truncated, written through an
# existing entry, or reached through a symlink.
CREATE_ONCE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC


def fsync_dir(path: str | Path) -> None:
    """Fsync a directory, making the entries created or renamed in it durable."""
    fd = os.open(path, os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_private_file(path: str | Path, data: bytes) -> None:
    """Create ``path`` as a new file readable by its owner only, write
    ``data`` and fsync it and its directory.

    The file is 0600 from its creation on, never through a later chmod.  An
    existing file or symlink at ``path`` is refused (``FileExistsError``);
    a file left part-written by a failed write is removed.
    """
    path = Path(path)
    fd = os.open(path, CREATE_ONCE, 0o600)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)


def raw_signature_from_der(der: bytes) -> bytes:
    r, s = decode_dss_signature(der)
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def der_signature_from_raw(raw: bytes) -> bytes:
    if len(raw) != SIGNATURE_LEN:
        raise ParseError(f"raw signature must be {SIGNATURE_LEN} bytes, got {len(raw)}")
    r = int.from_bytes(raw[:32], "big")
    s = int.from_bytes(raw[32:], "big")
    return encode_dss_signature(r, s)


def sign_raw(private_key: ec.EllipticCurvePrivateKey, message: bytes) -> bytes:
    """Sign and return the fixed 64-byte r||s encoding."""
    return raw_signature_from_der(private_key.sign(message, _ECDSA_SHA256))


def verify_raw(public_key: ec.EllipticCurvePublicKey, message: bytes, signature: bytes) -> bool:
    """Whether ``signature`` is a valid 64-byte r||s signature of
    ``message``; a signature of any other length is not."""
    if len(signature) != SIGNATURE_LEN:
        return False
    try:
        public_key.verify(der_signature_from_raw(signature), message, _ECDSA_SHA256)
        return True
    except InvalidSignature:
        return False


def device_id_from_certificate(cert: x509.Certificate) -> bytes:
    cns = cert.subject.get_attributes_for_oid(NameOID.COMMON_NAME)
    if not cns:
        raise ParseError("certificate has no common name to carry the device id")
    try:
        device_id = bytes.fromhex(str(cns[0].value))
    except ValueError as exc:
        raise ParseError("certificate common name is not a hex device id") from exc
    if len(device_id) != DEVICE_ID_LEN:
        raise ParseError(f"device id must be {DEVICE_ID_LEN} bytes")
    return device_id


@dataclass
class DeviceIdentity:
    """Signing identity for one endpoint (device or verifier role).

    The private key never leaves this object; the certificate and public
    key are freely exportable.
    """

    device_id: bytes
    certificate: x509.Certificate
    private_key: ec.EllipticCurvePrivateKey | None = None

    @property
    def public_key(self) -> ec.EllipticCurvePublicKey:
        return self.certificate.public_key()

    @classmethod
    def generate(cls, device_id: bytes | None = None) -> "DeviceIdentity":
        if device_id is None:
            device_id = os.urandom(DEVICE_ID_LEN)
        if len(device_id) != DEVICE_ID_LEN:
            raise InvalidParameter(f"device id must be {DEVICE_ID_LEN} bytes")
        key = ec.generate_private_key(_CURVE)
        name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, device_id.hex())])
        now = datetime.datetime.now(datetime.timezone.utc)
        cert = (
            x509.CertificateBuilder()
            .subject_name(name)
            .issuer_name(name)
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(minutes=5))
            .not_valid_after(now + datetime.timedelta(days=_CERT_LIFETIME_DAYS))
            .sign(key, hashes.SHA256())
        )
        return cls(device_id=device_id, certificate=cert, private_key=key)

    def sign(self, message: bytes) -> bytes:
        if self.private_key is None:
            raise AuthFailure("identity holds no private key; cannot sign")
        return sign_raw(self.private_key, message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return verify_raw(self.public_key, message, signature)

    # Serialization -------------------------------------------------------

    def certificate_pem(self) -> bytes:
        return self.certificate.public_bytes(serialization.Encoding.PEM)

    def private_key_der(self) -> bytes:
        if self.private_key is None:
            raise AuthFailure("identity holds no private key")
        return self.private_key.private_bytes(
            serialization.Encoding.DER,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )

    @classmethod
    def from_material(cls, certificate_pem: bytes, private_key_der: bytes | None) -> "DeviceIdentity":
        cert = x509.load_pem_x509_certificate(certificate_pem)
        key = None
        if private_key_der is not None:
            loaded = serialization.load_der_private_key(private_key_der, password=None)
            if not isinstance(loaded, ec.EllipticCurvePrivateKey):
                raise ParseError("private key is not an EC key")
            key = loaded
        return cls(
            device_id=device_id_from_certificate(cert),
            certificate=cert,
            private_key=key,
        )

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # The key first: refusing an existing key.der changes nothing, so
        # cert.pem never sits beside a key that is not its own.
        if self.private_key is not None:
            write_private_file(directory / "key.der", self.private_key_der())
        (directory / "cert.pem").write_bytes(self.certificate_pem())

    @classmethod
    def load(cls, directory: str | Path) -> "DeviceIdentity":
        directory = Path(directory)
        cert_pem = (directory / "cert.pem").read_bytes()
        key_path = directory / "key.der"
        key_der = key_path.read_bytes() if key_path.exists() else None
        return cls.from_material(cert_pem, key_der)


# Trust anchors -----------------------------------------------------------


def load_trust_anchors(directory: str | Path) -> list[x509.Certificate]:
    """Load every ``*.pem`` certificate in a directory as a trust anchor.

    A file that is not a PEM certificate raises ``InvalidParameter`` naming it.
    """
    anchors = []
    for path in sorted(Path(directory).glob("*.pem")):
        try:
            anchors.append(x509.load_pem_x509_certificate(path.read_bytes()))
        except ValueError as exc:
            raise InvalidParameter(f"trust anchor {path} is not a PEM certificate") from exc
    return anchors


def validate_peer_certificate(
    cert: x509.Certificate, anchors: list[x509.Certificate]
) -> bytes:
    """Check a peer certificate against the anchor set; returns its device id.

    A certificate is accepted when it is byte-identical to an anchor, or
    when an anchor whose subject matches the issuer verifies its signature.
    """
    cert_der = cert.public_bytes(serialization.Encoding.DER)
    for anchor in anchors:
        if anchor.public_bytes(serialization.Encoding.DER) == cert_der:
            return device_id_from_certificate(cert)
    for anchor in anchors:
        if anchor.subject != cert.issuer:
            continue
        anchor_pub = anchor.public_key()
        if not isinstance(anchor_pub, ec.EllipticCurvePublicKey):
            continue
        try:
            anchor_pub.verify(
                cert.signature,
                cert.tbs_certificate_bytes,
                ec.ECDSA(cert.signature_hash_algorithm),
            )
            return device_id_from_certificate(cert)
        except InvalidSignature:
            continue
    raise AuthFailure("peer certificate does not chain to any trust anchor")
