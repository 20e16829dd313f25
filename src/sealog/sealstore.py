"""Sealed persistent storage emulating TEE secure storage on an untrusted FS.

Every persisted object is an AES-256-GCM envelope: a 14-byte header
(magic "EMLS", version, object type, BE64 object id) authenticated as
associated data, a random 96-bit nonce, then ciphertext+tag.  The storage
key is derived per application identity from a device root storage key, so
no other application identity can unseal or forge objects.  The envelope
has one codec, over bytes: ``seal`` writes it and ``unseal`` reads it,
checking that its header names the object the caller expects.

Random 96-bit nonces bound the use of one key: at most 2**32 seals per
storage key (NIST SP 800-38D, section 8.3).  Nothing counts them.  A store
seals ``c + 2`` objects per whole group (its ``c`` blocks, the group's IK
and the chain state) plus one per export poll that advances the delivered
watermark; with no polls, the limit comes after about 2**32 / (c + 2)
groups.  To re-key, create a new store under a new root storage key.

The store keeps one file per object, and each has one writer:

- ``manifest.seal``: chain parameters and device secrets, written once by
  ``create``;
- ``state.seal``: the committed chain state, written by ``create`` and
  then only by ``commit_blocks``, that is by the log writer.  Its payload
  (``>IIIQQ32s``) is the newest block's group id, block id and record
  count, the number of blocks committed, the commit counter and the chain
  digest through the newest block, which binds the state to the bytes of
  every block it commits (see ``logchain``);
- ``blk_<id>.seal``: one signed block, written by ``commit_blocks``;
- ``ik_<gid>.seal``: a group's intermediate key, written once by
  ``seal_ik`` as the log writer opens the group;
- ``delivered.seal``: the delivered watermark, the newest block handed to
  a verifier, written by ``mark_delivered``, that is by the export server.

So a handle that only serves exports never writes the chain state, and
cannot roll back what a writer committed after it was opened.  Commits are
crash-safe:

- ``state.seal``, ``ik_<gid>.seal``, ``manifest.seal`` and
  ``delivered.seal`` are replaced atomically: the payload is written to a
  temp file and fsynced, renamed over the name, and the directory fsynced,
  so a crash leaves the old or the new object, never a torn one.
- A block file is created once, under its final name, and never replaced.
  A commit makes each block durable as one task on a pool of 8 threads,
  with its own file and directory fsync, as if written alone: the tasks
  only overlap the waits.  A block counts only once the chain state,
  committed after every task of its batch has returned, names it.  So a
  torn, unsynced or stale block file can only exist beyond the committed
  state, where an audit reports it, ``recover`` drops it and the next
  commit of that id replaces it.
"""

from __future__ import annotations

import errno
import json
import os
import re
import stat
import struct
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Callable, Iterator

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import (
    AlreadyExists,
    AuthFailure,
    InvalidParameter,
    ParseError,
    StorageError,
)
from .identity import CREATE_ONCE, DeviceIdentity, fsync_dir
from .keyschedule import (
    KEY_LEN,
    LABEL_STORAGE,
    SCHEME_SALT,
    ChainParams,
    RootLoggingKey,
    hkdf,
)
from .logchain import (
    BLOCK_ENVELOPE_LEN,
    GENESIS_DIGEST,
    RECORD_LEN,
    Block,
    beyond_state_finding,
    chain_digest,
    verify_sequence,
)

SEAL_MAGIC = b"EMLS"
SEAL_VERSION = 1
MANIFEST_VERSION = 2
NONCE_LEN = 12
GCM_TAG_LEN = 16

OBJECT_BLOCK = 1
OBJECT_IK = 2
OBJECT_STATE = 3
OBJECT_MANIFEST = 4
OBJECT_DELIVERED = 5

DEFAULT_MAX_PAYLOAD = 16 * 1024 * 1024

# Default application identity for the log-writer role.
LOG_WRITER_APP_ID = b"log-writer-v1"

_HEADER = struct.Struct(">4sBBQ")
# Where the ciphertext starts: after the header and the nonce.
_BODY = _HEADER.size + NONCE_LEN
_STATE_PAYLOAD = struct.Struct(">IIIQQ32s")
_DELIVERED_PAYLOAD = struct.Struct(">I")

# Sentinel for "no blocks delivered yet" in the delivered watermark.
NO_WATERMARK = 0xFFFFFFFF

# Signature context for chain-state snapshots exported off-device.
STATE_SIGN_MAGIC = b"EMST"


def derive_storage_key(root_storage_key: bytes, app_id: bytes) -> AESGCM:
    """The AES-GCM context that seals for one application identity.

    Its ``repr`` shows no key material.
    """
    if len(root_storage_key) != KEY_LEN:
        raise InvalidParameter(f"root storage key must be {KEY_LEN} bytes")
    return AESGCM(hkdf(root_storage_key, SCHEME_SALT, LABEL_STORAGE + app_id, KEY_LEN))


def seal(payload: bytes, sk: AESGCM, object_type: int, object_id: int) -> bytes:
    """The ``EMLS`` envelope of ``payload`` as the object ``(object_type, object_id)``."""
    if len(payload) > DEFAULT_MAX_PAYLOAD:
        raise InvalidParameter(f"payload of {len(payload)} bytes exceeds {DEFAULT_MAX_PAYLOAD}")
    header = _HEADER.pack(SEAL_MAGIC, SEAL_VERSION, object_type, object_id)
    nonce = os.urandom(NONCE_LEN)
    return header + nonce + sk.encrypt(nonce, payload, header)


def unseal(data: bytes, sk: AESGCM, object_type: int, object_id: int) -> bytes:
    """The payload of the ``EMLS`` envelope ``data`` of object ``(object_type, object_id)``.

    AES-GCM decrypts from views of ``data``: the ciphertext is not copied
    out of the envelope first.  A short envelope, a bad magic or an unknown
    version raises ``ParseError``.  A header naming another object, any
    other header or body mutation, and a wrong key raise ``AuthFailure``: a
    wrong key is indistinguishable from tampering.
    """
    if len(data) < _BODY + GCM_TAG_LEN:
        raise ParseError("sealed object too short")
    magic, version, got_type, got_id = _HEADER.unpack_from(data)
    if magic != SEAL_MAGIC:
        raise ParseError(f"bad seal magic {magic!r}")
    if version != SEAL_VERSION:
        raise ParseError(f"unsupported seal version {version}")
    if (got_type, got_id) != (object_type, object_id):
        raise AuthFailure(
            f"sealed header claims type={got_type} id={got_id}, "
            f"expected type={object_type} id={object_id}"
        )
    view = memoryview(data)
    try:
        return sk.decrypt(view[_HEADER.size : _BODY], view[_BODY:], view[: _HEADER.size])
    except InvalidTag as exc:
        raise AuthFailure(f"unseal failed for object type={object_type} id={object_id}") from exc


# Chain state ---------------------------------------------------------------


@dataclass
class ChainState:
    """Monotonic record of the latest committed chain position.

    ``sealed_blocks == 0`` means nothing is committed yet and the position
    fields are meaningless.  The commit counter strictly increases with
    every state write.  ``chain_digest`` is H_k through the newest block k,
    SHA-256(H_{k-1} || sign preimage || signature) from H_{-1} = 32 zero
    bytes (``logchain.chain_digest``), so the state names the exact blocks
    it commits, not only their position.
    """

    group_id: int = 0
    block_id: int = 0
    msg_count: int = 0
    sealed_blocks: int = 0
    commit_counter: int = 0
    chain_digest: bytes = GENESIS_DIGEST

    @property
    def latest_block_id(self) -> int | None:
        return self.block_id if self.sealed_blocks > 0 else None

    def pack(self) -> bytes:
        return _STATE_PAYLOAD.pack(
            self.group_id,
            self.block_id,
            self.msg_count,
            self.sealed_blocks,
            self.commit_counter,
            self.chain_digest,
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "ChainState":
        if len(payload) != _STATE_PAYLOAD.size:
            raise ParseError(f"chain state payload must be {_STATE_PAYLOAD.size} bytes")
        return cls(*_STATE_PAYLOAD.unpack(payload))

    def sign_preimage(self) -> bytes:
        return STATE_SIGN_MAGIC + self.pack()


@dataclass
class StoreManifest:
    """Device-local sealed bundle: chain parameters plus the device secrets."""

    params: ChainParams
    device_id: bytes
    rlk: bytes
    signing_key_der: bytes
    certificate_pem: bytes

    def pack(self) -> bytes:
        return json.dumps(
            {
                "version": MANIFEST_VERSION,
                "c": self.params.c,
                "m": self.params.m,
                "device_id": self.device_id.hex(),
                "rlk": self.rlk.hex(),
                "signing_key_der": self.signing_key_der.hex(),
                "certificate_pem": self.certificate_pem.decode("ascii"),
            }
        ).encode("utf-8")

    @classmethod
    def unpack(cls, payload: bytes) -> "StoreManifest":
        try:
            doc = json.loads(payload.decode("utf-8"))
            if doc["version"] != MANIFEST_VERSION:
                raise ParseError(f"unsupported store manifest version {doc['version']!r}")
            return cls(
                params=ChainParams(c=doc["c"], m=doc["m"]),
                device_id=bytes.fromhex(doc["device_id"]),
                rlk=bytes.fromhex(doc["rlk"]),
                signing_key_der=bytes.fromhex(doc["signing_key_der"]),
                certificate_pem=doc["certificate_pem"].encode("ascii"),
            )
        except (KeyError, ValueError, UnicodeDecodeError) as exc:
            raise ParseError(f"malformed store manifest: {exc}") from exc


# Atomic file plumbing ------------------------------------------------------

STATE_FILE = "state.seal"
MANIFEST_FILE = "manifest.seal"
DELIVERED_FILE = "delivered.seal"


def _block_file(block_id: int) -> str:
    return f"blk_{block_id:08d}.seal"


# In a listing joined by ``/``, the names ``_block_file`` writes and no
# others: 8 digits, or more than 8 with no leading zero.
_BLOCK_NAMES = re.compile(r"(?:^|/)blk_(\d{8}|[1-9]\d{8,})\.seal(?=/|$)", re.ASCII)


def _ik_file(group_id: int) -> str:
    return f"ik_{group_id:08d}.seal"


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to the open file ``fd``."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _remove_entry(path: str, dir_fd: int | None = None) -> None:
    """Remove the entry ``path``, relative to ``dir_fd`` when given, unless
    it is gone: a file, a pipe, a symlink or an empty directory."""
    try:
        os.unlink(path, dir_fd=dir_fd)
    except IsADirectoryError:
        os.rmdir(path, dir_fd=dir_fd)
    except FileNotFoundError:
        return


# Workers that make a commit's blocks durable, each one block at a time.
_WORKERS = 8


@cache
def _pool() -> ThreadPoolExecutor:
    """The block writers' pool, shared by every store, created on first use."""
    return ThreadPoolExecutor(_WORKERS, thread_name_prefix="sealstore-block")


# A forked child has none of the pool's threads: it makes its own.
os.register_at_fork(after_in_child=_pool.cache_clear)


class SealedStore:
    """One directory of sealed objects plus the committed chain state.

    ``crash_hook`` is a test seam: when set, it is invoked with a step
    label at every point a power loss could strike during a commit, and may
    raise to simulate the crash.  A block's steps run on a pool thread, so
    the hook may be called from several threads at once.
    """

    def __init__(self, directory: str | Path, sk: AESGCM, manifest: StoreManifest):
        self.directory = Path(directory)
        # Sealed objects are read and written by plain string paths.
        self._prefix = os.path.join(self.directory, "")
        self.sk = sk
        self.manifest = manifest
        self._identity: DeviceIdentity | None = None
        self.state: ChainState | None = ChainState()
        self.state_error: str | None = None
        self._delivered: int | None = None  # the watermark last read or written
        self.crash_hook: Callable[[str], None] | None = None

    # -- paths --

    def block_path(self, block_id: int) -> Path:
        return self.directory / _block_file(block_id)

    # -- lifecycle --

    @classmethod
    def create(
        cls,
        directory: str | Path,
        root_storage_key: bytes,
        params: ChainParams,
        identity: DeviceIdentity,
        rlk: RootLoggingKey,
    ) -> "SealedStore":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if any(directory.iterdir()):
            raise AlreadyExists(f"store directory {directory} is not empty")
        sk = derive_storage_key(root_storage_key, LOG_WRITER_APP_ID)
        manifest = StoreManifest(
            params=params,
            device_id=identity.device_id,
            rlk=rlk.key_bytes(),
            signing_key_der=identity.private_key_der(),
            certificate_pem=identity.certificate_pem(),
        )
        store = cls(directory, sk, manifest)
        store._identity = identity
        store._write_sealed(MANIFEST_FILE, manifest.pack(), OBJECT_MANIFEST, 0, MANIFEST_FILE)
        store._commit_state(store.state)
        # Exportable copy of the public certificate for verifiers.
        (directory / "cert.pem").write_bytes(identity.certificate_pem())
        return store

    @classmethod
    def open(cls, directory: str | Path, root_storage_key: bytes) -> "SealedStore":
        directory = Path(directory)
        if not directory.is_dir():
            raise StorageError(f"store directory {directory} does not exist")
        sk = derive_storage_key(root_storage_key, LOG_WRITER_APP_ID)
        placeholder = StoreManifest(ChainParams(1, 1), b"\x00" * 16, b"\x00" * 32, b"", b"")
        store = cls(directory, sk, placeholder)
        store.manifest = StoreManifest.unpack(store._read_sealed(MANIFEST_FILE, OBJECT_MANIFEST, 0))
        store.refresh_state()
        return store

    def identity(self) -> DeviceIdentity:
        """The device identity with its signing key: on a handle from
        ``create``, the object it was given; on one from ``open``, parsed
        from the manifest on first use."""
        if self._identity is None:
            self._identity = DeviceIdentity.from_material(
                self.manifest.certificate_pem, self.manifest.signing_key_der
            )
        return self._identity

    def public_key(self):
        """The device's public key: from the identity this handle holds, or
        else from the manifest's certificate alone, without parsing the
        signing key."""
        identity = self._identity or DeviceIdentity.from_material(self.manifest.certificate_pem, None)
        return identity.public_key

    def root_logging_key(self) -> RootLoggingKey:
        return RootLoggingKey(self.manifest.rlk)

    @property
    def params(self) -> ChainParams:
        return self.manifest.params

    # -- sealed file IO --

    def _hook(self, step: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(step)

    def _write_sealed(
        self, name: str, payload: bytes, object_type: int, object_id: int, step: str
    ) -> None:
        """Seal ``payload`` and replace ``name`` with it atomically.

        Crash points: ``<step>:start``; a temp file written and fsynced
        (``tmp-written``); renamed over ``name`` (``renamed``); the
        directory fsynced (``durable``).  An ``OSError`` becomes a
        ``StorageError``.
        """
        data = seal(payload, self.sk, object_type, object_id)
        self._hook(f"{step}:start")
        try:
            fd, tmp_name = tempfile.mkstemp(prefix=f".tmp-{name}-", dir=self.directory)
            try:
                try:
                    _write_all(fd, data)
                    os.fsync(fd)
                finally:
                    os.close(fd)
                self._hook(f"{step}:tmp-written")
                os.replace(tmp_name, self._prefix + name)
            except BaseException:
                Path(tmp_name).unlink(missing_ok=True)
                raise
            self._hook(f"{step}:renamed")
            fsync_dir(self.directory)
        except OSError as exc:
            raise StorageError(f"failed writing {name}: {exc}") from exc
        self._hook(f"{step}:durable")

    def _write_block(self, block: Block, dir_fd: int) -> None:
        """Seal ``block`` into a new file under its final name, through the
        directory ``dir_fd``, and make it durable.

        Crash points: ``block<id>:start`` once sealed, ``:created``,
        ``:written`` once the file is fsynced and closed, and ``:durable``
        once the directory is.  An entry already under the name is removed
        first, whatever it is (``_remove_entry``); an ``OSError`` becomes a
        ``StorageError``.
        """
        name = _block_file(block.block_id)
        data = seal(block.serialize(), self.sk, OBJECT_BLOCK, block.block_id)
        self._hook(f"block{block.block_id}:start")
        try:
            try:
                fd = os.open(name, CREATE_ONCE, 0o600, dir_fd=dir_fd)
            except FileExistsError:
                # A crashed commit's leftover: this id is beyond the state.
                _remove_entry(name, dir_fd)
                fd = os.open(name, CREATE_ONCE, 0o600, dir_fd=dir_fd)
            try:
                self._hook(f"block{block.block_id}:created")
                _write_all(fd, data)
                os.fsync(fd)
            finally:
                os.close(fd)
            self._hook(f"block{block.block_id}:written")
            os.fsync(dir_fd)
        except OSError as exc:
            raise StorageError(f"failed writing {name}: {exc}") from exc
        self._hook(f"block{block.block_id}:durable")

    def _read_sealed(self, name: str, object_type: int, object_id: int) -> bytes:
        """The named object read whole, then its ``unseal``.

        One ``os.open``, one ``fstat`` and one ``os.read`` of one byte more
        than the file holds, with no buffered file object: a read that
        returns less has reached the end of the file.  Only a file that
        grew past its ``fstat`` is read on, to its end.
        The errors are those of ``open``: a directory raises
        ``IsADirectoryError`` naming the path.  Any ``OSError`` becomes a
        ``StorageError`` whose ``__cause__`` is the original, so a caller
        can tell a missing file (``FileNotFoundError``) from one that
        exists but cannot be read.  The open does not block, so a named
        pipe or device under the name cannot stall the reader: anything but
        a regular file is a ``StorageError`` with no cause.
        """
        path = self._prefix + name
        try:
            fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | os.O_CLOEXEC)
            try:
                info = os.fstat(fd)
                if not stat.S_ISREG(info.st_mode):
                    if stat.S_ISDIR(info.st_mode):
                        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                    raise StorageError(f"cannot read {name}: not a regular file")
                data = os.read(fd, info.st_size + 1)
                if len(data) > info.st_size:
                    chunks = [data]
                    while chunk := os.read(fd, info.st_size + 1):
                        chunks.append(chunk)
                    data = b"".join(chunks)
            finally:
                os.close(fd)
        except OSError as exc:
            raise StorageError(f"cannot read {name}: {exc}") from exc
        return unseal(data, self.sk, object_type, object_id)

    # -- chain state --

    def _commit_state(self, new_state: ChainState) -> None:
        self._write_sealed(STATE_FILE, new_state.pack(), OBJECT_STATE, 0, step="state")
        self.state = new_state

    def load_state(self) -> ChainState:
        return ChainState.unpack(self._read_sealed(STATE_FILE, OBJECT_STATE, 0))

    def refresh_state(self) -> ChainState | None:
        """Read the chain state from disk again.  A missing or unreadable
        one is an audit finding, not an error: ``state`` is then None and
        ``state_error`` says why."""
        try:
            self.state, self.state_error = self.load_state(), None
        except (StorageError, AuthFailure, ParseError) as exc:
            self.state, self.state_error = None, str(exc)
        return self.state

    def _require_state(self) -> ChainState:
        if self.state is None:
            raise StorageError(f"chain state unavailable: {self.state_error}")
        return self.state

    def signed_state_snapshot(self, state: ChainState) -> tuple[ChainState, bytes]:
        """``state`` plus a device signature, so off-device copies stay auditable."""
        return state, self.identity().sign(state.sign_preimage())

    # -- delivered watermark --

    def delivered_mark(self) -> int:
        """The newest block handed to a verifier, or NO_WATERMARK: read
        from ``delivered.seal`` once, then the value this handle last read
        or wrote."""
        if self._delivered is None:
            try:
                payload = self._read_sealed(DELIVERED_FILE, OBJECT_DELIVERED, 0)
            except StorageError as exc:
                if not isinstance(exc.__cause__, FileNotFoundError):
                    raise
                payload = _DELIVERED_PAYLOAD.pack(NO_WATERMARK)
            if len(payload) != _DELIVERED_PAYLOAD.size:
                raise ParseError(f"delivered watermark must be {_DELIVERED_PAYLOAD.size} bytes")
            (self._delivered,) = _DELIVERED_PAYLOAD.unpack(payload)
        return self._delivered

    def mark_delivered(self, block_id: int) -> None:
        """Advance the delivered watermark to ``block_id``: one durable
        replace of ``delivered.seal``, and none when it is not newer."""
        mark = self.delivered_mark()
        if mark != NO_WATERMARK and block_id <= mark:
            return
        payload = _DELIVERED_PAYLOAD.pack(block_id)
        self._write_sealed(DELIVERED_FILE, payload, OBJECT_DELIVERED, 0, step="delivered")
        self._delivered = block_id

    # -- blocks --

    def commit_blocks(self, blocks: list[Block]) -> ChainState:
        """Seal a contiguous batch of blocks, then one state advance.

        The state record is committed once, after every block of the batch
        is durable: one durable state write per group instead of per block,
        which makes larger groups cheaper per log.  Up to 8 tasks on the
        shared pool take the blocks in turn from one iterator and make each
        durable (``_write_block``) through one directory fd, so the fsyncs
        stay ``2c + 4`` per group with the IK and the state, their waits
        overlap, and at most 8 sealed blocks are held at once.  After a
        failure no task takes a block; the commit waits for those running,
        then raises the failure of the lowest block id, the state untouched.
        A crash mid-batch leaves block files beyond the state that recovery
        drops and a later commit of the same ids replaces; the producer
        replays them from its in-RAM window.  The new state's chain digest
        extends the old one over the batch.
        """
        if not blocks:
            return self._require_state()
        latest = self._require_state().latest_block_id
        expected = 0 if latest is None else latest + 1
        for offset, block in enumerate(blocks):
            if block.block_id != expected + offset:
                raise InvalidParameter(
                    f"commit out of order: block {block.block_id}, "
                    f"expected {expected + offset}"
                )
        try:
            dir_fd = os.open(self.directory, os.O_DIRECTORY | os.O_CLOEXEC)
        except OSError as exc:
            raise StorageError(f"cannot open store directory: {exc}") from exc
        failures: dict[int, BaseException] = {}  # block id -> what its task raised
        lock, pending, tasks = threading.Lock(), iter(blocks), []

        def drain() -> None:
            while True:
                with lock:
                    block = None if failures else next(pending, None)
                if block is None:
                    return
                try:
                    self._write_block(block, dir_fd)
                except BaseException as exc:  # raised again by the commit
                    failures[block.block_id] = exc

        try:
            for _ in range(min(_WORKERS, len(blocks))):
                tasks.append(_pool().submit(drain))
        finally:
            wait(tasks)
            os.close(dir_fd)
        for task in tasks:
            task.result()
        if failures:
            raise failures[min(failures)]
        digest = self.state.chain_digest
        for block in blocks:
            digest = chain_digest(digest, block)
        last = blocks[-1]
        new_state = replace(
            self.state,
            group_id=self.params.group_of(last.block_id),
            block_id=last.block_id,
            msg_count=(len(last.serialize()) - BLOCK_ENVELOPE_LEN) // RECORD_LEN,
            sealed_blocks=self.state.sealed_blocks + len(blocks),
            commit_counter=self.state.commit_counter + 1,
            chain_digest=digest,
        )
        self._commit_state(new_state)
        return new_state

    def load_block(self, block_id: int) -> Block:
        """Read, unseal and deserialize one block file.

        The block keeps the unsealed payload as its bytes and decodes no
        record until one is read.  Raises ``StorageError`` when the file
        cannot be read (missing or not), ``AuthFailure`` when it does not
        unseal as this block, and ``ParseError`` when the payload is not a
        block.
        """
        payload = self._read_sealed(_block_file(block_id), OBJECT_BLOCK, block_id)
        block = Block.deserialize(payload)
        if block.block_id != block_id:
            raise AuthFailure(
                f"sealed payload carries block {block.block_id}, expected {block_id}"
            )
        return block

    def block_ids_on_disk(self) -> list[int]:
        """The ids of the entries in the store named as ``_block_file``
        names a block, ascending.  Any other name, such as ``blk_99.seal``,
        is no block of this store: ``recover`` could not remove it by id.
        The listing is joined by ``/``, which no name contains, and matched
        in one pass."""
        return sorted(map(int, _BLOCK_NAMES.findall("/".join(os.listdir(self.directory)))))

    def iter_committed_blocks(self) -> Iterator[tuple[int, Block | None, str | None]]:
        """Yield (block_id, block, error) for every committed id in order.

        With no chain state there is no committed range, and every block
        file on disk is read instead, in id order.  Each block is read
        once, with no existence probe.  ``block`` is None when the read
        fails; ``error`` is then ``"missing"`` when a committed id has no
        file (an audit ``gap``), else the reason it could not be read,
        unsealed or parsed (an audit ``seal-failure``).  A listed file that
        is gone by its read is such a reason: it was present.  A yielded
        block has decoded none of its records.
        """
        committed = self.state is not None
        if committed:
            latest = self.state.latest_block_id
            ids = range(0 if latest is None else latest + 1)
        else:
            ids = self.block_ids_on_disk()
        for block_id in ids:
            try:
                block, error = self.load_block(block_id), None
            except StorageError as exc:
                missing = committed and isinstance(exc.__cause__, FileNotFoundError)
                block, error = None, "missing" if missing else str(exc)
            except (AuthFailure, ParseError) as exc:
                block, error = None, str(exc)
            yield block_id, block, error

    # Iterating a store reads its committed run afresh each time: an
    # audit's fold may read it twice (``verify_store``).
    __iter__ = iter_committed_blocks

    # -- intermediate keys --

    def seal_ik(self, group_id: int, ik: bytearray) -> None:
        """Persist a group's intermediate key exactly once, then zero ``ik``.

        The buffer is zeroed also when the seal fails: the writer keeps no
        key of a group whose IK is not sealed, and derives it again on its
        next append.
        """
        try:
            if self.has_ik(group_id):
                raise AlreadyExists(f"intermediate key for group {group_id} already sealed")
            self._write_sealed(_ik_file(group_id), ik, OBJECT_IK, group_id, step=f"ik{group_id}")
        finally:
            ik[:] = bytes(KEY_LEN)

    def has_ik(self, group_id: int) -> bool:
        return os.path.exists(self._prefix + _ik_file(group_id))

    def load_ik(self, group_id: int) -> bytearray:
        return bytearray(self._read_sealed(_ik_file(group_id), OBJECT_IK, group_id))

    # -- recovery --

    def recover(self) -> ChainState:
        """Bring the directory back to the committed view after a crash.

        The chain state is read first, so a store with none that reads is
        refused with the read's error, untouched.  Then, in one listing,
        temp files of an interrupted state, IK or manifest replace are
        removed, and so is every entry under a block name beyond the
        committed state, whatever it is (``_remove_entry``): a block file
        there may be torn, and its content is still re-derivable and
        re-committable by the producer.  One that cannot be removed, such as
        a non-empty directory, is a ``StorageError`` naming it.  Committed
        blocks are never touched; they were durable before the state that
        names them.  A temp file of the delivered watermark is left: that
        object is the export server's, whose replace may be in flight.
        """
        self.state = self.load_state()
        latest = self.state.latest_block_id
        for name in os.listdir(self.directory):
            if name.startswith(".tmp-"):
                stray = not name.startswith(f".tmp-{DELIVERED_FILE}-")
            else:
                block = _BLOCK_NAMES.fullmatch(name)
                stray = block is not None and (latest is None or int(block[1]) > latest)
            if stray:
                try:
                    _remove_entry(self._prefix + name)
                except OSError as exc:
                    raise StorageError(f"cannot remove {name}: {exc}") from exc
        return self.state


def verify_store(store: SealedStore, full: bool = True):
    """Audit everything committed to a local store.

    The sequence verifier reads the blocks as ``iter_committed_blocks``
    yields them and keeps none, so the audit holds one block at a time
    whatever the size of the store; each id gets one entry in block order.
    The blocks must reproduce the digest of the chain state read afresh,
    which its seal authenticates.  The audit is one fold that runs at most
    twice (see ``logchain.verify_sequence``): a full or public audit checks
    0 block signatures, and reads the store again to check them all, 2
    fold calls per block present, only when that first fold finds
    anything.  A missing block file leaves a ``gap``; one that cannot be
    read, unsealed or parsed is a ``seal-failure`` entry, and the audit
    goes on.
    A missing or unreadable state record becomes a ``missing-state``
    finding rather than an error, and every block file on disk is audited.
    A block file beyond the audited state is a ``blocks-beyond-state``
    finding, with no entry, unless a state read after the listing commits
    it.  Neither audit decodes a record or parses the signing key, and no
    audit parses the certificate unless it checks a signature: an honest
    audit, full or public, parses neither.
    """
    rlk = store.root_logging_key() if full else None
    state = store.refresh_state()
    report = verify_sequence(store, 0, state, rlk, store.public_key, store.params)
    if state is not None:
        latest = state.latest_block_id
        on_disk = store.block_ids_on_disk()
        if on_disk and (latest is None or on_disk[-1] > latest):
            # Unless another handle has committed it since the audit's read.
            now = (store.refresh_state() or state).latest_block_id
            if now is None or on_disk[-1] > now:
                report.findings.append(beyond_state_finding(on_disk[-1], latest))
    return report
