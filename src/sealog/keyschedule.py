"""Hierarchical forward-secure key derivation.

The key matrix has four levels, all derived with HKDF-SHA256:

    root logging key (RLK)
      -> intermediate key per group of ``c`` blocks   (position-addressed)
        -> block key chain within the group           (hash-chained)
          -> message key chain within each block      (hash-chained)

Intermediate keys are addressed directly by group index so a verifier can
re-derive group g without touching groups 0..g-1, and so leaking one IK
exposes at most the c blocks it serves.  Block and message keys are chained:
each derivation consumes its predecessor, whose buffer is zeroed, making
earlier keys computationally unreachable from later ones.

All context labels, the fixed salt, and the index encodings below are
normative: changing any of them changes every derived key.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass

from .errors import BlockFull, InvalidParameter, KeyUnavailable

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


def _be32(value: int) -> bytes:
    if not 0 <= value < 2**32:
        raise InvalidParameter(f"index {value} outside unsigned 32-bit range")
    return struct.pack(">I", value)


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


def hkdf(ikm: bytes, salt: bytes, info: bytes, out_len: int, hash_name: str = "sha256") -> bytes:
    """HKDF extract-then-expand (RFC 5869).

    The scheme fixes hash_name to SHA-256; the parameter exists so the
    published RFC test vectors for other hashes remain checkable.  An
    output of at most one SHA-256 block, as every chain key is, takes two
    one-shot HMACs: PRK, then T(1) = HMAC(PRK, info || 0x01).
    """
    if hash_name == "sha256" and 0 < out_len <= 32:
        prk = hmac.digest(salt, ikm, "sha256")
        return hmac.digest(prk, info + b"\x01", "sha256")[:out_len]
    return hkdf_expand(hkdf_extract(ikm, salt, hash_name), info, out_len, hash_name)


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


class _ChainKey:
    """A 32-byte key of the matrix, held in a buffer ``erase`` zeroes in
    place.  Subclasses add the key's coordinates as their slots."""

    __slots__ = ("key", "erased")

    def key_bytes(self) -> bytes:
        if self.erased:
            raise KeyUnavailable(f"{self._where()} was erased")
        return bytes(self.key)

    def erase(self) -> None:
        _erase_buffer(self.key)
        self.erased = True

    def _where(self) -> str:
        coords = " ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"{type(self).__name__} {coords}"

    def __repr__(self) -> str:  # never expose material
        return f"<{self._where()} {'erased' if self.erased else 'live'}>"


class IntermediateKey(_ChainKey):
    """Per-group key; serves exactly blocks [group_id*c, (group_id+1)*c - 1]."""

    __slots__ = ("group_id",)

    def __init__(self, group_id: int, key: bytearray) -> None:
        self.group_id, self.key, self.erased = group_id, key, False


class BlockKey(_ChainKey):
    __slots__ = ("block_id",)

    def __init__(self, block_id: int, key: bytearray) -> None:
        self.block_id, self.key, self.erased = block_id, key, False


class MessageKey(_ChainKey):
    __slots__ = ("block_id", "msg_id")

    def __init__(self, block_id: int, msg_id: int, key: bytearray) -> None:
        self.block_id, self.msg_id, self.key, self.erased = block_id, msg_id, key, False


def derive_ik(rlk: RootLoggingKey, group_id: int) -> IntermediateKey:
    """Derive the intermediate key for one block group directly from the RLK."""
    info = LABEL_IK + _be32(group_id)
    okm = hkdf(rlk.key_bytes(), SCHEME_SALT, info, KEY_LEN)
    return IntermediateKey(group_id=group_id, key=bytearray(okm))


def first_block_key(ik: IntermediateKey, block_id: int, params: ChainParams) -> BlockKey:
    """Derive the first block key of a group from its intermediate key."""
    if block_id != params.first_block_of(ik.group_id):
        raise InvalidParameter(
            f"block {block_id} is not the first block of group {ik.group_id}"
        )
    info = LABEL_BLOCK_FIRST + _be32(block_id)
    okm = hkdf(ik.key_bytes(), SCHEME_SALT, info, KEY_LEN)
    return BlockKey(block_id=block_id, key=bytearray(okm))


def next_block_key(
    prev: BlockKey, block_id: int, params: ChainParams, erase: bool = True
) -> BlockKey:
    """Advance the block-key chain; the predecessor buffer is zeroed.

    Group boundaries are rejected: the first block of each group derives
    from a fresh intermediate key, not from the previous group's chain.
    """
    if block_id != prev.block_id + 1:
        raise InvalidParameter(
            f"block key chain must advance by one: {prev.block_id} -> {block_id}"
        )
    if block_id % params.c == 0:
        raise InvalidParameter(
            f"block {block_id} starts a new group; derive from its intermediate key"
        )
    info = LABEL_BLOCK_NEXT + _be32(block_id)
    okm = hkdf(prev.key_bytes(), SCHEME_SALT, info, KEY_LEN)
    if erase:
        prev.erase()
    return BlockKey(block_id=block_id, key=bytearray(okm))


def first_message_key(bk: BlockKey) -> MessageKey:
    """Derive message key 0 of a block.  The block key is kept alive: it is
    still needed to advance the block chain at the end of the block."""
    info = LABEL_MESSAGE + _be32(bk.block_id) + _be32(0)
    okm = hkdf(bk.key_bytes(), SCHEME_SALT, info, KEY_LEN)
    return MessageKey(block_id=bk.block_id, msg_id=0, key=bytearray(okm))


def next_message_key(prev: MessageKey, params: ChainParams, erase: bool = True) -> MessageKey:
    """Advance the message-key chain; the predecessor buffer is zeroed."""
    msg_id = prev.msg_id + 1
    if msg_id >= params.m:
        raise BlockFull(
            f"block {prev.block_id} holds at most {params.m} messages"
        )
    info = LABEL_MESSAGE + _be32(prev.block_id) + _be32(msg_id)
    okm = hkdf(prev.key_bytes(), SCHEME_SALT, info, KEY_LEN)
    if erase:
        prev.erase()
    return MessageKey(block_id=prev.block_id, msg_id=msg_id, key=bytearray(okm))


def walk_block_chain(ik: IntermediateKey, block_id: int, params: ChainParams) -> BlockKey:
    """Derive the key of a block in ik's group by walking the group's block
    chain from its first block; the IK and every key passed are erased."""
    first = params.first_block_of(ik.group_id)
    bk = first_block_key(ik, first, params)
    ik.erase()
    for bid in range(first + 1, block_id + 1):
        bk = next_block_key(bk, bid, params)
    return bk


def block_key_at(rlk: RootLoggingKey, block_id: int, params: ChainParams) -> BlockKey:
    """Re-derive the key of an arbitrary block from the RLK (verifier path)."""
    return walk_block_chain(derive_ik(rlk, params.group_of(block_id)), block_id, params)


def message_keys_for_block(
    rlk: RootLoggingKey, block_id: int, count: int, params: ChainParams
) -> list[MessageKey]:
    """Re-derive the first ``count`` message keys of a block from the RLK.

    The returned keys are live copies; the internal chain intermediates are
    consumed along the way.
    """
    if count < 0 or count > params.m:
        raise InvalidParameter(f"count {count} outside [0, m={params.m}]")
    bk = block_key_at(rlk, block_id, params)
    keys = [first_message_key(bk)] if count else []
    bk.erase()
    for _ in range(1, count):
        keys.append(next_message_key(keys[-1], params, erase=False))
    return keys
