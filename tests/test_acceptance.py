"""Acceptance criteria, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``) and enforces the criterion's runtime budget.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import os
import random
import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest

from conftest import ROOT_SECRET, build_store, fill_store
from sealog.bench import BenchConfig, bench_grid, gen_synthetic
from sealog.collector import IngestPolicy, LogWriter, RawEntry, ingest
from sealog.errors import AuthFailure, ChannelClosed, ParseError
from sealog.identity import DeviceIdentity
from sealog.keyschedule import (
    LABEL_BLOCK_FIRST,
    LABEL_BLOCK_NEXT,
    LABEL_IK,
    LABEL_MESSAGE,
    SCHEME_SALT,
    ChainParams,
    RootLoggingKey,
    block_key_at,
    hkdf,
    walk_message_chain,
)
from sealog.logchain import (
    FINDING_MISSING_STATE,
    FINDING_TRUNCATION,
    STATUS_OK,
    Block,
    LogRecord,
    pack_text_field,
    verify_block_full,
    verify_block_public,
    verify_sequence,
)
from sealog.retrieval import (
    LogExportServer,
    RetrievalRequest,
    audit,
    fetch,
)
from sealog.sealstore import SealedStore, verify_store
from test_keyschedule import RFC5869_VECTORS, oracle_hkdf


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s)")


# 1 -----------------------------------------------------------------------------


def test_criterion_01_kdf_correctness():
    with criterion(1, "RFC 5869 Appendix A vectors pass exactly", 1.0):
        for hash_name, ikm, salt, info, length, okm_hex in RFC5869_VECTORS:
            expected = bytes.fromhex(okm_hex)
            assert hkdf(ikm, salt, info, length, hash_name) == expected
            assert oracle_hkdf(ikm, salt, info, length, hash_name) == expected


# 2 -----------------------------------------------------------------------------


def test_criterion_02_deterministic_matrix(tmp_path):
    with criterion(2, "verifier re-derivation byte-identical for 50 random tuples", 30.0):
        rng = random.Random(0xD1CE)
        for case in range(50):
            c = rng.randint(1, 4)
            m = rng.randint(1, 6)
            params = ChainParams(c=c, m=m)
            n_entries = rng.randint(1, 3 * c * m)
            store = build_store(tmp_path / f"case{case}", c=c, m=m)
            writer = LogWriter(store)
            bodies = [
                bytes(rng.randrange(32, 127) for _ in range(rng.randint(1, 200)))
                for _ in range(n_entries)
            ]
            ingest(
                (RawEntry("generic", b) for b in bodies),
                IngestPolicy(params=params),
                writer,
            )
            rlk_bytes = store.manifest.rlk

            for _, block, error in store.iter_committed_blocks():
                assert error is None
                # independent scratch re-derivation of keys and tags
                ik = oracle_hkdf(
                    rlk_bytes,
                    SCHEME_SALT,
                    LABEL_IK + struct.pack(">I", block.block_id // c),
                    32,
                    "sha256",
                )
                bk = oracle_hkdf(
                    ik,
                    SCHEME_SALT,
                    LABEL_BLOCK_FIRST + struct.pack(">I", (block.block_id // c) * c),
                    32,
                    "sha256",
                )
                for bid in range((block.block_id // c) * c + 1, block.block_id + 1):
                    bk = oracle_hkdf(
                        bk, SCHEME_SALT, LABEL_BLOCK_NEXT + struct.pack(">I", bid), 32, "sha256"
                    )
                mk = None
                for i, record in enumerate(block.records):
                    seed = bk if i == 0 else mk
                    mk = oracle_hkdf(
                        seed,
                        SCHEME_SALT,
                        LABEL_MESSAGE + struct.pack(">II", block.block_id, i),
                        32,
                        "sha256",
                    )
                    expected_tag = hmac_mod.new(
                        mk,
                        struct.pack(">II", block.block_id, i) + record.text_field,
                        "sha256",
                    ).digest()
                    assert expected_tag == record.tag
                    # production verifier path derives the same key bytes
                keys = [
                    bytes(k)
                    for k in walk_message_chain(
                        store.root_logging_key(), block.block_id, len(block.records), params
                    )
                ]
                assert keys[-1] == mk
                # and the production full verification agrees
                assert verify_block_public(block, store.identity().public_key) == STATUS_OK
                assert verify_block_full(block, store.root_logging_key(), params) == []


# 3 -----------------------------------------------------------------------------


def test_criterion_03_tamper_detection(tmp_path):
    with criterion(3, "10,000+ single-byte mutations all detected, zero false positives", 120.0):
        params = ChainParams(c=2, m=4)
        store = build_store(tmp_path / "store", c=params.c, m=params.m)
        fill_store(store, 40)  # 10 blocks
        rlk = store.root_logging_key
        public_key = store.identity().public_key
        rng = random.Random(0xBEEF)

        # Zero false positives on the untampered corpus.
        assert verify_store(store, full=True).verdict == "ok"
        plain_blocks = {bid: store.load_block(bid) for bid in range(10)}
        for block in plain_blocks.values():
            assert verify_block_public(block, public_key) == STATUS_OK
            assert verify_block_full(block, rlk(), params) == []

        detected = 0

        # (a) sealed-file mutations: unsealing must fail
        block_files = [store.block_path(i) for i in range(10)]
        for _ in range(4000):
            path = rng.choice(block_files)
            raw = bytearray(path.read_bytes())
            pos = rng.randrange(len(raw))
            raw[pos] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(raw))
            try:
                store.load_block(int(path.stem.split("_")[1]))
            except (AuthFailure, ParseError):
                detected += 1
            else:
                pytest.fail(f"sealed mutation not detected at {path.name}:{pos}")
            raw[pos] ^= 0  # restore below
            path.write_bytes(bytes(bytearray(path.read_bytes())))  # placeholder, replaced next line

        # restore pristine files once (cheaper than per-mutation copies)
        # -- re-seal from the plaintext blocks
        for bid, block in plain_blocks.items():
            store.block_path(bid).unlink()
        state = store.state
        # reuse the sealing path directly
        from sealog.sealstore import OBJECT_BLOCK, seal as seal_obj

        for bid, block in plain_blocks.items():
            sealed = seal_obj(block.serialize(), store.sk, OBJECT_BLOCK, bid)
            store.block_path(bid).write_bytes(sealed)
        assert verify_store(store, full=True).verdict == "ok"

        # (b) plaintext block-body mutations (includes signature bytes)
        serialized = {bid: b.serialize() for bid, b in plain_blocks.items()}
        for _ in range(5000):
            bid = rng.randrange(10)
            raw = bytearray(serialized[bid])
            pos = rng.randrange(len(raw))
            raw[pos] ^= 1 << rng.randrange(8)
            try:
                mutant = Block.deserialize(bytes(raw))
            except ParseError:
                detected += 1
                continue
            assert (
                verify_block_full(mutant, rlk(), params)
                or verify_block_public(mutant, public_key) != STATUS_OK
            ), f"undetected mutation in block {bid} at byte {pos}"
            detected += 1

        # (c) signature-field mutations specifically
        for _ in range(1200):
            bid = rng.randrange(10)
            block = plain_blocks[bid]
            sig = bytearray(block.signature)
            pos = rng.randrange(64)
            sig[pos] ^= 1 << rng.randrange(8)
            mutant = Block(block.block_id, block.records, bytes(sig))
            assert verify_block_public(mutant, public_key) != "ok"
            detected += 1

        assert detected >= 10_000
        # corpus still pristine: zero false positives after the campaign
        assert verify_store(store, full=True).verdict == "ok"


# 4 -----------------------------------------------------------------------------


def test_criterion_04_reorder_detection(tmp_path):
    with criterion(4, "all pairwise block swaps and record swaps detected", 60.0):
        params = ChainParams(c=2, m=10)
        store = build_store(tmp_path / "store", c=params.c, m=params.m)
        fill_store(store, 100)  # 10 blocks of m=10
        rlk = store.root_logging_key
        public_key = store.identity().public_key
        blocks = [store.load_block(i) for i in range(10)]
        state = store.state

        # pairwise block swaps in the presented sequence
        for i in range(10):
            for j in range(i + 1, 10):
                shuffled = list(blocks)
                shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
                report = verify_sequence(
                    [(b.block_id, b, None) for b in shuffled],
                    0,
                    state,
                    None,
                    lambda: public_key,
                    params,
                    run_ids={b.block_id for b in shuffled},
                )
                assert report.verdict == "fail", (i, j)
                assert any(e.status == "order-violation" for e in report.entries), (i, j)

        # in-block record swaps: full verification must fail every pair
        for block in blocks:
            for i in range(10):
                for j in range(i + 1, 10):
                    records = list(block.records)
                    records[i], records[j] = records[j], records[i]
                    mutant = Block(block.block_id, tuple(records), block.signature)
                    assert (
                        verify_block_full(mutant, rlk(), params)
                        or verify_block_public(mutant, public_key) != STATUS_OK
                    ), (block.block_id, i, j)

        # text-field-only swaps keep msg_ids plausible; position-bound keys
        # still catch them
        block = blocks[3]
        for i in range(10):
            for j in range(i + 1, 10):
                records = list(block.records)
                records[i] = LogRecord(i, records[i].tag, block.records[j].text_field)
                records[j] = LogRecord(j, records[j].tag, block.records[i].text_field)
                mutant = Block(block.block_id, tuple(records), block.signature)
                assert verify_block_full(mutant, rlk(), params)[:1] == [i]


# 5 -----------------------------------------------------------------------------


def test_criterion_05_truncation_detection(tmp_path):
    with criterion(5, "every suffix deletion reported; missing state reported", 60.0):
        params = ChainParams(c=2, m=2)
        base = build_store(tmp_path / "base", c=params.c, m=params.m)
        fill_store(base, 20)  # 10 blocks

        for cut in range(1, 11):
            victim_dir = tmp_path / f"cut{cut}"
            victim_dir.mkdir()
            for name in os.listdir(base.directory):
                (victim_dir / name).write_bytes((base.directory / name).read_bytes())
            victim = SealedStore.open(victim_dir, ROOT_SECRET)
            for bid in range(10 - cut, 10):
                victim.block_path(bid).unlink()
            report = verify_store(victim, full=True)
            assert report.verdict == "fail", cut
            assert any(FINDING_TRUNCATION in f for f in report.findings), cut

        # deleting the state record itself is an audit finding
        nodir = tmp_path / "nostate"
        nodir.mkdir()
        for name in os.listdir(base.directory):
            (nodir / name).write_bytes((base.directory / name).read_bytes())
        (nodir / "state.seal").unlink()
        victim = SealedStore.open(nodir, ROOT_SECRET)
        report = verify_store(victim, full=True)
        assert report.verdict == "fail"
        assert FINDING_MISSING_STATE in report.findings


# 6 -----------------------------------------------------------------------------


def test_criterion_06_compromise_confinement():
    with criterion(6, "leaked block key forges only forward within its group", 60.0):
        rng = random.Random(0xC0FFEE)
        identity = DeviceIdentity.generate()

        def forge(bk_bytes: bytes, block_id: int, count: int) -> Block:
            mk = None
            records = []
            for i in range(count):
                seed = bk_bytes if i == 0 else mk
                mk = hkdf(seed, SCHEME_SALT, LABEL_MESSAGE + struct.pack(">II", block_id, i), 32)
                field = pack_text_field(b"forged #%d" % i)
                tag = hmac_mod.new(
                    mk, struct.pack(">II", block_id, i) + field, "sha256"
                ).digest()
                records.append(LogRecord(i, tag, field))
            return Block(block_id, tuple(records), b"\x00" * 64)

        def hmac_only_ok(block: Block, rlk_seed: bytes, params: ChainParams) -> bool:
            keys = [
                bytes(k)
                for k in walk_message_chain(
                    RootLoggingKey(rlk_seed), block.block_id, len(block.records), params
                )
            ]
            return all(
                hmac_mod.new(
                    keys[i],
                    struct.pack(">II", block.block_id, i) + block.records[i].text_field,
                    "sha256",
                ).digest()
                == block.records[i].tag
                for i in range(len(block.records))
            )

        for _ in range(100):
            c = rng.randint(2, 5)
            m = rng.randint(1, 4)
            params = ChainParams(c=c, m=m)
            rlk_seed = bytes(rng.randrange(256) for _ in range(32))
            group = rng.randint(0, 6)
            offset = rng.randrange(c)
            leak_block = group * c + offset
            group_end = (group + 1) * c - 1
            leaked = bytes(block_key_at(RootLoggingKey(rlk_seed), leak_block, params))

            # positive direction: every block from the leak to group end
            bk = leaked
            for target in range(leak_block, group_end + 1):
                if target > leak_block:
                    bk = hkdf(
                        bk, SCHEME_SALT, LABEL_BLOCK_NEXT + struct.pack(">I", target), 32
                    )
                forged = forge(bk, target, m)
                assert hmac_only_ok(forged, rlk_seed, params), (c, m, leak_block, target)
                assert verify_block_public(forged, identity.public_key) != "ok"

            # negative direction: before the leak or outside the group
            negatives = [bid for bid in (leak_block - 1, group * c - 1, group_end + 1) if bid >= 0]
            for target in negatives:
                forged = forge(leaked, target, m)
                assert not hmac_only_ok(forged, rlk_seed, params), (c, m, leak_block, target)


# 7 -----------------------------------------------------------------------------


def test_criterion_07_power_loss_bound(tmp_path):
    with criterion(7, "200 injected crash points never exceed the RAM-window loss", 300.0):
        params = ChainParams(c=2, m=3)
        window = params.c * params.m + params.m - 1
        n_entries = 75  # 25 blocks; ~204 commit hooks per full run

        class Crash(Exception):
            pass

        def run_with_crash(directory, crash_at):
            store = build_store(directory, c=params.c, m=params.m)
            hits = [0]

            def hook(step):
                hits[0] += 1
                if hits[0] == crash_at:
                    raise Crash(step)

            store.crash_hook = hook
            writer = LogWriter(store)
            appended = 0
            try:
                for i in range(n_entries):
                    writer.append_entry(RawEntry("generic", f"entry {i}".encode()))
                    appended += 1
                writer.flush()
                return appended, hits[0], True
            except Crash:
                return appended, hits[0], False

        crash_at = 0
        injected = 0
        exhausted = False
        while not exhausted:
            crash_at += 1
            workdir = tmp_path / f"run{crash_at}"
            appended, hits, completed = run_with_crash(workdir, crash_at)
            if completed:
                exhausted = True  # crash point beyond the last commit step
                break
            injected += 1
            survivor = SealedStore.open(workdir, ROOT_SECRET)
            survivor.recover()
            report = verify_store(survivor, full=True)
            assert report.verdict == "ok", (crash_at, report.to_dict())
            committed = sum(
                len(b.records) for _, b, _ in survivor.iter_committed_blocks() if b
            )
            assert appended - committed <= window, (crash_at, appended, committed)
        assert injected >= 200, injected


# 8 -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_report():
    return bench_grid(BenchConfig(entries=5000, repetitions=3))


def test_criterion_08_evaluation_trends(grid_report):
    with criterion(8, "block-create monotone in m; throughput(c=25) >= c=1; floor", 600.0):
        trends = grid_report.trends
        assert trends["block_create_monotone_in_m"], grid_report.block_create
        assert trends["throughput_c25_ge_c1_pass"], grid_report.group_throughput
        assert trends["throughput_floor_logs_per_sec"] > 625.0, grid_report.group_throughput


# 9 -----------------------------------------------------------------------------


def test_criterion_09_storage_scaling(grid_report):
    with criterion(9, "storage linear (R^2 >= 0.999); overhead <= 5x at m >= 250", 600.0):
        assert grid_report.storage_fit["r_squared"] >= 0.999
        # measurement must match the record-format arithmetic exactly:
        # header(14) + nonce(12) + block header(13) + 292*m + sig(64) + tag(16)
        for m, measured in grid_report.sealed_bytes_per_block.items():
            assert measured == 292 * m + 119, (m, measured)
        assert grid_report.overhead["m"] >= 250
        assert grid_report.overhead["ratio"] <= 5.0, grid_report.overhead


# 10 ----------------------------------------------------------------------------


def test_criterion_10_retrieval_end_to_end(tmp_path):
    with criterion(10, "100-block loopback transfer, mutual auth, no plaintext leaks", 60.0):
        canary = b"RETRIEVAL-CANARY-must-not-leak"
        params = ChainParams(c=5, m=4)
        store = build_store(tmp_path / "store", c=params.c, m=params.m)
        fill_store(store, 400, body=lambda i: canary + b" #%d" % i)  # 100 blocks
        device_identity = store.identity()
        verifier = DeviceIdentity.generate()

        committed_hashes = [
            hashlib.sha256(block.serialize()).hexdigest()
            for _, block, _ in store.iter_committed_blocks()
        ]
        assert len(committed_hashes) == 100

        # wiretap proxy between client and server
        wire = bytearray()
        server = LogExportServer(store, [verifier.certificate], port=0)
        server.start()

        proxy_listener = socket.create_server(("127.0.0.1", 0))
        proxy_port = proxy_listener.getsockname()[1]

        def proxy():
            conn, _ = proxy_listener.accept()
            upstream = socket.create_connection(("127.0.0.1", server.address[1]))

            def pump(src, dst):
                while True:
                    try:
                        data = src.recv(65536)
                    except OSError:
                        break
                    if not data:
                        break
                    wire.extend(data)
                    try:
                        dst.sendall(data)
                    except OSError:
                        break
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pass

            t1 = threading.Thread(target=pump, args=(conn, upstream))
            t2 = threading.Thread(target=pump, args=(upstream, conn))
            t1.start(), t2.start()
            t1.join(), t2.join()
            conn.close()
            upstream.close()

        proxy_thread = threading.Thread(target=proxy)
        proxy_thread.start()

        request = RetrievalRequest(store.manifest.device_id, start=0)
        result = fetch(
            "127.0.0.1", proxy_port, verifier, [device_identity.certificate], request
        )
        proxy_thread.join()
        proxy_listener.close()

        # received blocks byte-identical to committed blocks
        assert [
            hashlib.sha256(block.serialize()).hexdigest() for block in result.blocks
        ] == committed_hashes
        report = audit(result, device_identity.certificate, rlk=store.root_logging_key())
        assert report.verdict == "ok"

        # wiretap never carries plaintext log bytes
        assert len(wire) > 0
        assert canary not in bytes(wire)

        # mutual-auth failures transfer zero block frames
        stranger = DeviceIdentity.generate()
        with pytest.raises((AuthFailure, ChannelClosed, ParseError)):
            fetch(
                "127.0.0.1",
                server.address[1],
                stranger,  # not anchored on the device side
                [device_identity.certificate],
                request,
            )
        unanchored_server = LogExportServer(store, [verifier.certificate], port=0)
        unanchored_server.start()
        with pytest.raises((AuthFailure, ChannelClosed, ParseError)):
            fetch(
                "127.0.0.1",
                unanchored_server.address[1],
                verifier,
                [stranger.certificate],  # verifier does not trust the device
                request,
            )
        unanchored_server.close()
        server.close()
