from __future__ import annotations

import ast
import base64
import dataclasses
import importlib
import json
import os
import socket
import stat
import threading
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric import ec, rsa
from cryptography.hazmat.primitives.serialization import Encoding

from conftest import make_certificate
import sealog
from sealog import collector, logchain, retrieval
from sealog.cli import main
from sealog.errors import SealogError, StorageError
from sealog.identity import DeviceIdentity
from sealog.keyschedule import RootLoggingKey
from sealog.logchain import GENESIS_DIGEST, Block, chain_digest, sign_block
from sealog.sealstore import DELIVERED_FILE, STATE_FILE, ChainState, SealedStore


def _init(tmp_path, capsys, c=2, m=5, rlk_out=False):
    store = tmp_path / "store"
    argv = ["init", "--store", str(store), "--c", str(c), "--m", str(m)]
    if rlk_out:
        argv += ["--rlk-out", str(tmp_path / "rlk.hex")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "BEGIN CERTIFICATE" in out
    return store


def _write_lines(path, n):
    with open(path, "wb") as fh:
        for i in range(n):
            fh.write(f"test log line number {i}\n".encode())


def test_init_ingest_verify_full_happy_path(tmp_path, capsys):
    store = _init(tmp_path, capsys)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 1000)
    assert main(["ingest", "--store", str(store), "--source", "generic", str(logfile)]) == 0
    assert main(["verify", "--store", str(store), "--full"]) == 0
    out = capsys.readouterr().out
    assert "verdict: ok" in out


def test_verify_empty_store_is_vacuously_ok(tmp_path, capsys):
    store = _init(tmp_path, capsys)
    assert main(["verify", "--store", str(store), "--full"]) == 0


def test_corrupted_seal_exits_one_and_names_block(tmp_path, capsys):
    store = _init(tmp_path, capsys)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 100)
    assert main(["ingest", "--store", str(store), str(logfile)]) == 0
    capsys.readouterr()

    victim = store / "blk_00000003.seal"
    raw = bytearray(victim.read_bytes())
    raw[25] ^= 0x40
    victim.write_bytes(bytes(raw))

    assert main(["verify", "--store", str(store), "--full", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert any(
        e["block_id"] == 3 and e["status"] == "seal-failure" for e in report["entries"]
    )


def test_usage_errors_exit_two(tmp_path):
    assert main(["verify"]) == 2  # neither --store nor --archive
    assert main(["ingest", "--store", str(tmp_path / "nope"), "/dev/null"]) == 3


def test_ingest_rejects_sub_second_epoch(tmp_path, capsys):
    store = _init(tmp_path, capsys)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 10)
    argv = ["ingest", "--store", str(store), "--epoch-seconds", "0.5", str(logfile)]
    assert main(argv) == 2


@pytest.mark.parametrize("damage", ["deleted", "delivered-copy"])
def test_a_writer_refuses_a_store_with_no_readable_state_untouched(
    tmp_path, capsys, monkeypatch, damage
):
    store = _init(tmp_path, capsys, c=2, m=2)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 4)
    assert main(["ingest", "--store", str(store), str(logfile)]) == 0
    secret = bytes.fromhex((tmp_path / "store.secret").read_text())
    SealedStore.open(store, secret).mark_delivered(1)
    if damage == "deleted":
        (store / STATE_FILE).unlink()
    else:
        (store / STATE_FILE).write_bytes((store / DELIVERED_FILE).read_bytes())
    (store / ".tmp-state.seal-x").write_bytes(b"torn")
    (store / "blk_00000099.seal").write_bytes((store / "blk_00000001.seal").read_bytes())
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    capsys.readouterr()

    opened = SealedStore.open(store, secret)
    with pytest.raises(SealogError) as read:
        opened.load_state()
    # Refused with the read's own error, before a key is read.
    monkeypatch.setattr(opened, "identity", lambda: pytest.fail("identity parsed"))
    monkeypatch.setattr(opened, "root_logging_key", lambda: pytest.fail("RLK copied"))
    with pytest.raises(type(read.value)) as refused:
        collector.LogWriter(opened)
    assert str(refused.value) == str(read.value)
    assert main(["ingest", "--store", str(store), str(logfile)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in store.iterdir()} == before


def test_ingest_json_stats(tmp_path, capsys):
    store = _init(tmp_path, capsys, c=1, m=10)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 25)
    assert main(["ingest", "--store", str(store), "--json", str(logfile)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 25
    assert stats["blocks"] == 3  # two full + one partial on flush
    assert stats["records"] == 25
    assert "dropped" not in stats


def test_gen_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.log", tmp_path / "b.log"
    assert main(["gen", "--count", "500", "--seed", "11", "--out", str(out1)]) == 0
    assert main(["gen", "--count", "500", "--seed", "11", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_export_formats_json(capsys):
    assert main(["export-formats"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["block"]["magic"] == "EMLB"
    assert doc["seal"]["magic"] == "EMLS"
    assert len(bytes.fromhex(doc["scheme_salt_hex"])) == 32
    assert doc["exit_codes"] == {"ok": 0, "findings": 1, "usage": 2, "io_or_alarm": 3}
    for module in doc["docs"]:  # each names a module whose docstring defines formats
        assert importlib.import_module(module).__doc__


def _serve_and_fetch(tmp_path, capsys, prepare=lambda store: None):
    """Init a c=2/m=5 store of 100 lines, serve it through a handle opened
    as `sealog serve` opens it (after ``prepare(handle)``), and run
    `sealog fetch` against it.  Returns fetch's exit code and its archive."""
    store = _init(tmp_path, capsys, c=2, m=5, rlk_out=True)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 100)
    main(["ingest", "--store", str(store), str(logfile)])

    # anchor setup: device trusts the verifier, verifier trusts the device
    verifier = DeviceIdentity.generate()
    verifier_dir = tmp_path / "verifier-id"
    verifier.save(verifier_dir)
    verifier_anchors = tmp_path / "verifier-anchors"
    verifier_anchors.mkdir()
    (verifier_anchors / "device.pem").write_bytes((store / "cert.pem").read_bytes())

    opened = SealedStore.open(store, bytes.fromhex((tmp_path / "store.secret").read_text().strip()))
    prepare(opened)
    server = retrieval.LogExportServer(opened, anchors=[verifier.certificate], port=0)
    server.start()
    archive = tmp_path / "corpus.archive"
    try:
        rc = main(
            [
                "fetch",
                "--host",
                "127.0.0.1",
                "--port",
                str(server.address[1]),
                "--anchors",
                str(verifier_anchors),
                "--identity",
                str(verifier_dir),
                "--out",
                str(archive),
            ]
        )
    finally:
        server.close()
    return rc, archive


def test_serve_fetch_verify_archive_roundtrip(tmp_path, capsys):
    rc, archive = _serve_and_fetch(tmp_path, capsys)
    assert rc == 0
    capsys.readouterr()
    anchors = str(tmp_path / "verifier-anchors")
    assert main(["verify", "--archive", str(archive), "--anchors", anchors, "--public"]) == 0
    assert (
        main(
            [
                "verify",
                "--archive",
                str(archive),
                "--anchors",
                anchors,
                "--full",
                "--rlk",
                str(tmp_path / "rlk.hex"),
            ]
        )
        == 0
    )


def test_fetch_cut_before_its_summary_exits_three_and_keeps_the_archive(tmp_path, capsys):
    def disk_full(block_id):
        raise StorageError("failed writing delivered.seal: [Errno 28] No space left on device")

    rc, archive = _serve_and_fetch(
        tmp_path, capsys, prepare=lambda store: setattr(store, "mark_delivered", disk_full)
    )
    assert rc == 3
    assert "error: transfer ended without a summary" in capsys.readouterr().err
    result, _cert = retrieval.load_archive(archive)
    assert result.summary is None and len(result.blocks) == 20


def test_verify_archive_trusts_the_anchors_not_the_archive(tmp_path, capsys):
    rc, archive = _serve_and_fetch(tmp_path, capsys)  # 20 blocks, c=2/m=5
    assert rc == 0
    # Cut the last two blocks, re-sign the rest and a state naming block 17
    # and their chain digest with a fresh identity for the same device id,
    # and name its certificate.
    doc = json.loads(archive.read_text())
    impostor = DeviceIdentity.generate(bytes.fromhex(doc["request"]["device_id"]))
    blocks = [Block.deserialize(base64.b64decode(b)) for b in doc["blocks"][:-2]]
    forged = [sign_block(b.block_id, list(b.records), impostor) for b in blocks]
    doc["blocks"] = [base64.b64encode(b.serialize()).decode() for b in forged]
    digest = GENESIS_DIGEST
    for block in forged:
        digest = chain_digest(digest, block)
    state = ChainState.unpack(bytes.fromhex(doc["summary"]["state"]))
    state = dataclasses.replace(state, sealed_blocks=18, chain_digest=digest)
    doc["summary"].update(
        state=state.pack().hex(),
        state_signature=impostor.sign(state.sign_preimage()).hex(),
        count=18,
    )
    doc["certificate_pem"] = impostor.certificate_pem().decode("ascii")
    archive.write_text(json.dumps(doc))
    rlk = RootLoggingKey(bytes.fromhex((tmp_path / "rlk.hex").read_text()))
    assert retrieval.audit(*retrieval.load_archive(archive), rlk=rlk).verdict == "ok"
    capsys.readouterr()

    assert main(["verify", "--archive", str(archive), "--public"]) == 2
    assert "needs --anchors" in capsys.readouterr().err
    anchors = str(tmp_path / "verifier-anchors")
    for mode in (["--public"], ["--full", "--rlk", str(tmp_path / "rlk.hex")]):
        assert main(["verify", "--archive", str(archive), "--anchors", anchors, *mode]) == 3
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert captured.err == "error: peer certificate is not one of the trust anchors\n"


def test_a_public_archive_audit_checks_the_digest_and_one_signature(
    tmp_path, capsys, signature_checks
):
    rc, archive = _serve_and_fetch(tmp_path, capsys)  # 20 blocks, c=2/m=5, whole range
    assert rc == 0
    signature_checks.clear()
    anchors = str(tmp_path / "verifier-anchors")
    argv = ["verify", "--archive", str(archive), "--anchors", anchors, "--public", "--json"]
    capsys.readouterr()
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "ok"
    assert len(signature_checks) == 1  # the summary's

    doc = json.loads(archive.read_text())
    data = bytearray(base64.b64decode(doc["blocks"][7]))
    data[-1] ^= 0x01
    doc["blocks"][7] = base64.b64encode(bytes(data)).decode()
    archive.write_text(json.dumps(doc))
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert [e for e in report["entries"] if e["status"] != "ok"] == [
        {"block_id": 7, "status": logchain.STATUS_BAD_SIGNATURE}
    ]
    assert not any(f.startswith(logchain.FINDING_HISTORY_MISMATCH) for f in report["findings"])
    # The one-shot per-block reference: a run read once folds once, with the key.
    result, cert = retrieval.load_archive(archive)
    reference = logchain.verify_sequence(
        iter([(block.block_id, block, None) for block in result.blocks]),
        0, result.summary.state, None, cert.public_key,
        run_ids={block.block_id for block in result.blocks},
    )
    assert report == json.loads(json.dumps(reference.to_dict()))


@pytest.mark.parametrize("length", [63, 65])
def test_a_state_signature_of_the_wrong_length_is_a_finding(tmp_path, capsys, length):
    rc, archive = _serve_and_fetch(tmp_path, capsys)
    assert rc == 0
    doc = json.loads(archive.read_text())
    signature = bytes.fromhex(doc["summary"]["state_signature"])
    doc["summary"]["state_signature"] = (signature + b"\x00")[:length].hex()
    archive.write_text(json.dumps(doc))
    capsys.readouterr()
    anchors = str(tmp_path / "verifier-anchors")
    assert main(["verify", "--archive", str(archive), "--anchors", anchors, "--public"]) == 1
    assert "finding: state-signature-invalid" in capsys.readouterr().out


def test_an_archived_alarm_that_is_not_an_object_exits_three(tmp_path, capsys):
    rc, archive = _serve_and_fetch(tmp_path, capsys)
    assert rc == 0
    doc = json.loads(archive.read_text())
    doc["alarms"] = ["x"]
    archive.write_text(json.dumps(doc))
    capsys.readouterr()
    anchors = str(tmp_path / "verifier-anchors")
    assert main(["verify", "--archive", str(archive), "--anchors", anchors, "--public"]) == 3
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert captured.err == "error: integrity alarm is not a JSON object\n"


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "sealog.json"
    config.write_text(json.dumps({"c": 4, "m": 3}))
    store = tmp_path / "store"
    assert main(["--config", str(config), "init", "--store", str(store)]) == 0
    assert "c=4, m=3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc, command",
    [
        ({"frobnicate": 1}, "init"),
        # The seal payload cap is a format constant, not a setting.
        ({"max_payload_bytes": 1024}, "init"),
        # Each known key takes one JSON type; a JSON true is not an integer.
        ({"c": "4"}, "init"),
        ({"c": True}, "init"),
        ({"m": 4.0}, "init"),
        ({"epoch_seconds": "5"}, "ingest"),
        ({"epoch_seconds": False}, "ingest"),
        ({"secret": ["store.secret"]}, "ingest"),
        ({"anchors": 5}, "serve"),
        ({"port": None}, "serve"),
        ({"host": ["127.0.0.1"]}, "serve"),
        (5, "init"),
    ],
)
def test_config_rejects_unknown_keys(tmp_path, capsys, doc, command):
    store = _init(tmp_path, capsys)
    (tmp_path / "anchors").mkdir()
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    argv = {
        "init": ["init", "--store", str(tmp_path / "s")],
        "ingest": ["ingest", "--store", str(store), os.devnull],
        "serve": ["serve", "--store", str(store)],
    }[command]
    if command == "serve" and "anchors" not in doc:
        argv += ["--anchors", str(tmp_path / "anchors")]  # a flag wins over the config
    assert main(["--config", str(config), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if isinstance(doc, dict):
        assert repr(next(iter(doc))) in err or "unknown config keys" in err
    assert not (tmp_path / "s").exists() and not (tmp_path / "s.secret").exists()


def test_init_refuses_a_block_length_over_the_seal_payload_and_writes_nothing(tmp_path, capsys):
    store = tmp_path / "store"
    argv = ["init", "--store", str(store), "--c", "1", "--m", "57456"]
    assert main([*argv, "--rlk-out", str(tmp_path / "rlk.hex")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: m=57456 makes a") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == []


def test_public_surface_resolves_and_every_error_is_raised():
    for name in sealog.__all__:
        assert hasattr(sealog, name), name
    # An error class that no ``raise`` in the package names is dead API.
    raised = set()
    for path in Path(sealog.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    errors = {
        name
        for name, obj in vars(sealog.errors).items()
        if isinstance(obj, type)
        and issubclass(obj, sealog.SealogError)
        and obj is not sealog.SealogError
    }
    assert errors and errors <= raised, errors - raised


def test_ingest_commits_the_entries_it_accepted_before_a_failing_line(tmp_path, capsys):
    store = _init(tmp_path, capsys, c=10, m=100)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 250)
    with open(logfile, "ab") as fh:
        fh.write(b"x" * 70_000 + b"\n")
    assert main(["ingest", "--store", str(store), str(logfile)]) == 2
    assert "line of 70001 bytes exceeds 65536" in capsys.readouterr().err
    assert main(["verify", "--store", str(store), "--full"]) == 0

    from sealog.collector import reassemble_entries
    from sealog.sealstore import SealedStore

    opened = SealedStore.open(store, bytes.fromhex((tmp_path / "store.secret").read_text()))
    blocks = [block for _, block, _ in opened.iter_committed_blocks()]
    assert opened.state.sealed_blocks == 3
    assert reassemble_entries(blocks) == [b"test log line number %d" % i for i in range(250)]


def test_init_writes_no_store_when_its_secret_cannot_be_written(tmp_path, capsys):
    store = tmp_path / "st"
    argv = ["init", "--store", str(store), "--secret", str(tmp_path / "nodir" / "x.secret")]
    assert main(argv) == 3
    assert not store.exists()
    # So a second init, with a secret it can write, makes a store it can open.
    (tmp_path / "nodir").mkdir()
    assert main(argv) == 0
    assert main(["verify", "--store", str(store), "--secret", argv[-1]]) == 0


def test_init_removes_the_files_it_wrote_for_a_store_it_could_not_create(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    (store / "unrelated").write_text("not a store")
    rlk_out = tmp_path / "rlk.hex"
    assert main(["init", "--store", str(store), "--rlk-out", str(rlk_out)]) == 3
    assert "is not empty" in capsys.readouterr().err
    assert not (tmp_path / "store.secret").exists() and not rlk_out.exists()


def test_secret_files_are_owner_only_from_creation(tmp_path, capsys, monkeypatch):
    # With no chmod at all, each file must be created 0600.
    monkeypatch.setattr(Path, "chmod", lambda *args, **kwargs: None)
    monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
    old_umask = os.umask(0o022)
    try:
        _init(tmp_path, capsys, rlk_out=True)
        DeviceIdentity.generate().save(tmp_path / "verifier-id")
    finally:
        os.umask(old_umask)
    secrets = ("store.secret", "rlk.hex", "verifier-id/key.der")
    for path in (tmp_path / name for name in secrets):
        assert stat.S_IMODE(path.stat().st_mode) == 0o600, path


@pytest.mark.parametrize(
    "case",
    [
        "init --device-id",
        "serve --evidence",
        "unparsable anchor",
        "RSA anchor",
        "P-384 anchor",
        "fetch --device-id",
        "verify --rlk",
    ],
)
def test_malformed_input_is_a_usage_error(tmp_path, capsys, case):
    anchors = tmp_path / "anchors"
    anchors.mkdir()
    (anchors / "peer.pem").write_bytes(DeviceIdentity.generate().certificate_pem())
    fetch = ["fetch", "--anchors", str(anchors), "--identity", str(tmp_path / "id"),
             "--out", str(tmp_path / "archive.json"), "--port", "9"]
    if case == "init --device-id":
        argv = ["init", "--store", str(tmp_path / "s"), "--device-id", "xyz"]
    elif case == "serve --evidence":
        store = _init(tmp_path, capsys)
        argv = ["serve", "--store", str(store), "--anchors", str(anchors), "--evidence", "qq",
                "--port", "0", "--once"]
    elif case == "unparsable anchor":
        (anchors / "broken.pem").write_text("not a certificate\n")
        argv = fetch
    elif case in ("RSA anchor", "P-384 anchor"):
        key = (
            rsa.generate_private_key(public_exponent=65537, key_size=2048)
            if case == "RSA anchor"
            else ec.generate_private_key(ec.SECP384R1())
        )
        certificate = make_certificate(bytes(16), key)
        (anchors / "broken.pem").write_bytes(certificate.public_bytes(Encoding.PEM))
        argv = fetch
    elif case == "fetch --device-id":
        argv = fetch + ["--device-id", "not-hex"]
    else:
        (tmp_path / "rlk.hex").write_text("zz\n")
        argv = ["verify", "--archive", str(tmp_path / "archive.json"), "--full",
                "--anchors", str(anchors), "--rlk", str(tmp_path / "rlk.hex")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if case.endswith("anchor"):
        assert "broken.pem" in err


def _export_argv(tmp_path, capsys, command, anchors):
    """An argv for ``serve`` (on a fresh store) or ``fetch`` with ``--anchors``."""
    if command == "serve":
        argv = ["serve", "--store", str(_init(tmp_path, capsys)), "--once"]
    else:
        argv = ["fetch", "--identity", str(tmp_path / "id"), "--out", str(tmp_path / "archive.json")]
    return argv + ["--anchors", str(anchors)]


@pytest.mark.parametrize("command", ["serve", "fetch"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("port", [-1, 65536, 70000])
def test_a_port_outside_0_to_65535_is_a_usage_error(tmp_path, capsys, command, source, port):
    # 70000 once reached bind() as an OverflowError (serve) or wrapped to
    # port 4464 (fetch).
    anchors = tmp_path / "anchors"
    anchors.mkdir()
    (anchors / "peer.pem").write_bytes(DeviceIdentity.generate().certificate_pem())
    argv = _export_argv(tmp_path, capsys, command, anchors)
    if source == "flag":
        argv += ["--port", str(port)]
    else:
        config = tmp_path / "sealog.json"
        config.write_text(json.dumps({"port": port}))
        argv = ["--config", str(config), *argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: port {port} outside 0-65535\n"
    assert captured.out == ""
    assert not (tmp_path / "id").exists() and not (tmp_path / "archive.json").exists()


@pytest.mark.parametrize("command", ["serve", "fetch", "verify --archive"])
def test_an_anchors_directory_with_no_certificate_is_a_usage_error(tmp_path, capsys, command):
    anchors = tmp_path / "anchors"
    anchors.mkdir()
    (anchors / "README.txt").write_text("not a *.pem file\n")
    # Were no anchor refused, serve would fail to bind a taken port and fetch
    # find nothing listening on port 9, instead of waiting for a peer.
    with socket.create_server(("127.0.0.1", 0)) as taken:
        if command == "verify --archive":
            argv = ["verify", "--archive", str(tmp_path / "archive.json"), "--public",
                    "--anchors", str(anchors)]
        else:
            port = taken.getsockname()[1] if command == "serve" else 9
            argv = _export_argv(tmp_path, capsys, command, anchors) + ["--port", str(port)]
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no *.pem certificate in anchors directory {anchors}\n"
    assert captured.out == ""
    assert not (tmp_path / "id").exists()


def test_fetch_refuses_several_anchors_without_a_device_id_before_writing_an_identity(
    tmp_path, capsys
):
    anchors = tmp_path / "anchors"
    anchors.mkdir()
    for name in ("a.pem", "b.pem"):
        (anchors / name).write_bytes(DeviceIdentity.generate().certificate_pem())
    argv = _export_argv(tmp_path, capsys, "fetch", anchors) + ["--port", "9"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --device-id required when several anchors are loaded\n"
    assert captured.out == "" and not (tmp_path / "id").exists()
