"""Hierarchical forward-secure key derivation.

The key matrix has four levels, all derived with HKDF-SHA256:

    root logging key (RLK)
      -> intermediate key per group of ``c`` blocks   (position-addressed)
        -> block key chain within the group           (hash-chained)
          -> message key chain within each block      (hash-chained)

Intermediate keys are addressed directly by group index so a verifier can
re-derive group g without touching groups 0..g-1, and so leaking one IK
exposes at most the c blocks it serves.  Block and message keys are chained:
each derivation consumes its predecessor, making earlier keys
computationally unreachable from later ones.

Chain keys are plain 32-byte ``bytearray``s; ``RootLoggingKey`` is the one
key class.  Each chain level has one walk, shared by the writer and the
verifier, that owns one buffer and overwrites it in place with each step's
key, so a key lives only until the next step, and zeroes it when it ends,
fails or is closed:

- ``block_walk`` steps a group's c block keys from its IK.  The writer
  holds one per open group, over a copy of the IK it seals; the verifier
  (``block_key_at``) steps a fresh one from the RLK to the block it checks.
- ``message_walk`` steps a block's message keys from its block key.  The
  writer holds one per open block, over a copy of the block walk's key;
  the verifier (``walk_message_chain``) runs one over ``block_key_at``'s
  copy.

All context labels, the fixed salt, and the index encodings below are
normative: changing any of them changes every derived key.

Every chain derivation must stay one call of this module's ``hkdf``,
looked up at call time as a module global, so that wrapping
``keyschedule.hkdf`` (as a profiler does) sees each one; the chain's
modules reach it only through this module's functions.
Every HMAC-SHA256 runs on one kernel, ``hmac_sha256`` (inline in ``hkdf``).
Its contexts are copies of ``_EMPTY``, the empty SHA-256 context, fed the
key XOR the pad, a constant pad tail and the message, or of the
``SCHEME_SALT`` pad states; none of the three is updated after import, so
threads share them.  Copying a context beats building one or ``hmac.digest``
(which fetches OpenSSL's digest per call): ``timeit`` minima on a 2-CPU
CPython 3.11 host, 2.35 -> 2.10 µs per ``hkdf`` and 1.49 -> 1.39 µs per tag.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Generator

from .errors import InvalidParameter, KeyUnavailable

KEY_LEN = 32

# Fixed non-secret salt for every HKDF call in the scheme.
SCHEME_SALT = bytes.fromhex(
    "4760771f1ad5ea64577b4e353b78483780930c764414fc4f9c7afde532bc3533"
)

# Context labels; each derivation level gets its own prefix in the info field.
LABEL_IK = b"IK"
LABEL_BLOCK_FIRST = b"BK0"
LABEL_BLOCK_NEXT = b"BK"
LABEL_MESSAGE = b"MK"
LABEL_STORAGE = b"SSK"
LABEL_CHANNEL = b"CHK"


def _check_u32(value: int) -> None:
    if not 0 <= value < 2**32:
        raise InvalidParameter(f"index {value} outside unsigned 32-bit range")


def _be32(value: int) -> bytes:
    _check_u32(value)
    return struct.pack(">I", value)


# KDF info of the two chain steps: LABEL_BLOCK_NEXT || BE32 block_id, and
# LABEL_MESSAGE || BE32 block_id || BE32 msg_id.  Each walk range-checks its
# indices with ``_check_u32``: an InvalidParameter, never a struct.error.
_BLOCK_INFO = struct.Struct(">2sI")
_MESSAGE_INFO = struct.Struct(">2sII")


def hkdf_extract(ikm: bytes, salt: bytes, hash_name: str = "sha256") -> bytes:
    """RFC 5869 extract step: PRK = HMAC-Hash(salt, IKM)."""
    return hmac.new(salt, ikm, hash_name).digest()


def hkdf_expand(prk: bytes, info: bytes, out_len: int, hash_name: str = "sha256") -> bytes:
    """RFC 5869 expand step: out_len bytes of output keying material."""
    hash_len = hashlib.new(hash_name).digest_size
    if out_len <= 0 or out_len > 255 * hash_len:
        raise InvalidParameter(f"out_len {out_len} exceeds HKDF expansion limit")
    blocks = []
    t = b""
    for counter in range(1, (out_len + hash_len - 1) // hash_len + 1):
        t = hmac.new(prk, t + info + bytes([counter]), hash_name).digest()
        blocks.append(t)
    return b"".join(blocks)[:out_len]


# RFC 2104 pads: a key of at most 64 bytes XOR 0x36 / 0x5C, then 64 - len(key) pad bytes.
_SHA256_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_IPAD_TAILS = tuple(b"\x36" * (_SHA256_BLOCK - n) for n in range(_SHA256_BLOCK + 1))
_OPAD_TAILS = tuple(b"\x5c" * (_SHA256_BLOCK - n) for n in range(_SHA256_BLOCK + 1))
_EMPTY = hashlib.sha256()
_SALT_INNER, _SALT_OUTER = _EMPTY.copy(), _EMPTY.copy()
_SALT_INNER.update(SCHEME_SALT.translate(_IPAD) + _IPAD_TAILS[len(SCHEME_SALT)])
_SALT_OUTER.update(SCHEME_SALT.translate(_OPAD) + _OPAD_TAILS[len(SCHEME_SALT)])


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104), equal to ``hmac.digest(key, msg, "sha256")``.

    Both contexts are copies of ``_EMPTY``; a key over 64 bytes is hashed
    first.  ``hkdf`` keys ``SCHEME_SALT`` from its pad states instead.
    """
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    inner, outer = _EMPTY.copy(), _EMPTY.copy()
    inner.update(key.translate(_IPAD))
    inner.update(_IPAD_TAILS[len(key)])
    inner.update(msg)
    outer.update(key.translate(_OPAD))
    outer.update(_OPAD_TAILS[len(key)])
    outer.update(inner.digest())
    return outer.digest()


def hkdf(ikm: bytes, salt: bytes, info: bytes, out_len: int, hash_name: str = "sha256") -> bytes:
    """HKDF extract-then-expand (RFC 5869).

    The scheme fixes hash_name to SHA-256; the parameter exists so the
    published RFC test vectors for other hashes remain checkable.  An
    output of at most one SHA-256 block, as every chain key is, takes two
    HMACs, inline: PRK, from the pad states if the salt is ``SCHEME_SALT``
    (the object), then T(1) = HMAC(PRK, info || 0x01) on ``_EMPTY`` copies.
    """
    if hash_name != "sha256" or not 0 < out_len <= KEY_LEN:
        return hkdf_expand(hkdf_extract(ikm, salt, hash_name), info, out_len, hash_name)
    if salt is SCHEME_SALT:
        inner, outer = _SALT_INNER.copy(), _SALT_OUTER.copy()
        inner.update(ikm)
        outer.update(inner.digest())
        prk = outer.digest()
    else:
        prk = hmac_sha256(salt, ikm)
    inner, outer = _EMPTY.copy(), _EMPTY.copy()
    inner.update(prk.translate(_IPAD))
    inner.update(_IPAD_TAILS[KEY_LEN])
    inner.update(info + b"\x01")
    outer.update(prk.translate(_OPAD))
    outer.update(_OPAD_TAILS[KEY_LEN])
    outer.update(inner.digest())
    return outer.digest()[:out_len]


def _erase_buffer(buf: bytearray) -> None:
    buf[:] = bytes(len(buf))


@dataclass(frozen=True)
class ChainParams:
    """Chain geometry: ``c`` blocks per group, ``m`` messages per block.

    Immutable for the lifetime of a store; persisted in the store manifest.
    """

    c: int
    m: int

    def __post_init__(self) -> None:
        if self.c < 1 or self.m < 1:
            raise InvalidParameter(f"chain params must be >= 1, got c={self.c} m={self.m}")

    def group_of(self, block_id: int) -> int:
        return block_id // self.c

    def first_block_of(self, group_id: int) -> int:
        return group_id * self.c


class RootLoggingKey:
    """Device-specific 32-byte root secret for the whole key matrix.

    Never leaves memory except inside a sealed object; ``destroy`` zeroes
    the buffer so the material is unrecoverable from this process.
    """

    __slots__ = ("_buf", "_destroyed")

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_LEN:
            raise InvalidParameter(f"root logging key must be {KEY_LEN} bytes")
        self._buf = bytearray(key)
        self._destroyed = False

    @classmethod
    def generate(cls) -> "RootLoggingKey":
        return cls(os.urandom(KEY_LEN))

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def key_bytes(self) -> bytes:
        if self._destroyed:
            raise KeyUnavailable("root logging key has been destroyed")
        return bytes(self._buf)

    def destroy(self) -> None:
        _erase_buffer(self._buf)
        self._destroyed = True

    def __repr__(self) -> str:  # never expose material
        state = "destroyed" if self._destroyed else "live"
        return f"<RootLoggingKey {state}>"


def derive_ik(rlk: RootLoggingKey, group_id: int) -> bytearray:
    """Derive the intermediate key for one block group directly from the RLK."""
    info = LABEL_IK + _be32(group_id)
    return bytearray(hkdf(rlk.key_bytes(), SCHEME_SALT, info, KEY_LEN))


def block_walk(
    ik: bytearray, group_id: int, params: ChainParams
) -> Generator[bytearray, None, None]:
    """Step the block keys of one group from its intermediate key.

    The walk owns ``ik``, the IK's buffer: for j = first … first+c−1 it
    derives block key j (key 0 from the IK with ``LABEL_BLOCK_FIRST``, key
    j from key j−1 with ``LABEL_BLOCK_NEXT``) into that same buffer and
    yields it, so a key lives until the next step.  The buffer is zeroed
    when the walk ends, fails or is closed after its first step.  An
    all-zero (erased) IK raises ``KeyUnavailable`` on the first step, and a
    block id past 2**32 − 1 raises ``InvalidParameter`` on its step.
    """
    try:
        if not any(ik):
            raise KeyUnavailable(f"intermediate key of group {group_id} was erased")
        first = params.first_block_of(group_id)
        ik[:] = hkdf(ik, SCHEME_SALT, LABEL_BLOCK_FIRST + _be32(first), KEY_LEN)
        yield ik
        pack, label = _BLOCK_INFO.pack, LABEL_BLOCK_NEXT
        for block_id in range(first + 1, min(first + params.c, 2**32)):
            ik[:] = hkdf(ik, SCHEME_SALT, pack(label, block_id), KEY_LEN)
            yield ik
        _check_u32(first + params.c - 1)  # the step past block 2**32 - 1
    finally:
        _erase_buffer(ik)


def block_key_at(rlk: RootLoggingKey, block_id: int, params: ChainParams) -> bytearray:
    """Re-derive the key of an arbitrary block from the RLK (verifier path):
    the group's IK, then its block walk stepped to the block.  Returns a
    copy; the walk's own buffer is zeroed."""
    group_id = params.group_of(block_id)
    with closing(block_walk(derive_ik(rlk, group_id), group_id, params)) as walk:
        return bytearray(next(islice(walk, block_id - params.first_block_of(group_id), None)))


def message_walk(
    key: bytearray, block_id: int, count: int, params: ChainParams
) -> Generator[bytearray, None, None]:
    """Step the first ``count`` message keys of a block from its block key.

    The walk owns ``key``, the block key's buffer: each step derives the
    next message key from the buffer's content (key 0 from the block key,
    key i from key i-1) into that same buffer and yields it, so a key lives
    until the next step.  The buffer is zeroed when the walk ends, fails or
    is closed after its first step.  A ``count`` outside [0, m] raises
    ``InvalidParameter`` on the first step: a block holds at most m keys.
    """
    try:
        if count < 0 or count > params.m:
            raise InvalidParameter(f"count {count} outside [0, m={params.m}]")
        _check_u32(block_id)
        _check_u32(max(count - 1, 0))
        pack, label = _MESSAGE_INFO.pack, LABEL_MESSAGE
        for msg_id in range(count):
            key[:] = hkdf(key, SCHEME_SALT, pack(label, block_id, msg_id), KEY_LEN)
            yield key
    finally:
        _erase_buffer(key)


def walk_message_chain(
    rlk: RootLoggingKey, block_id: int, count: int, params: ChainParams
) -> Generator[bytearray, None, None]:
    """Re-derive the first ``count`` message keys of a block from the RLK:
    the block key from ``block_key_at``, derived at the call, then
    ``message_walk`` over its buffer."""
    return message_walk(block_key_at(rlk, block_id, params), block_id, count, params)

