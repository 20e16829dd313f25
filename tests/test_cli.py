from __future__ import annotations

import ast
import importlib
import json
import os
import stat
import threading
from pathlib import Path

import pytest

import sealog
from sealog import retrieval
from sealog.cli import main
from sealog.errors import StorageError
from sealog.identity import DeviceIdentity
from sealog.keyschedule import RootLoggingKey
from sealog.sealstore import SealedStore


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


def test_flush_reports_latest(tmp_path, capsys):
    store = _init(tmp_path, capsys, c=1, m=5)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 5)
    main(["ingest", "--store", str(store), str(logfile)])
    assert main(["flush", "--store", str(store)]) == 0
    assert "latest committed block: 0" in capsys.readouterr().out


def test_flush_destroys_the_writers_root_key(tmp_path, capsys, monkeypatch):
    store = _init(tmp_path, capsys, c=1, m=5)
    destroyed = []
    original = RootLoggingKey.destroy

    def recording_destroy(self):
        original(self)
        destroyed.append(self)

    monkeypatch.setattr(RootLoggingKey, "destroy", recording_destroy)
    assert main(["flush", "--store", str(store)]) == 0
    assert destroyed and all(rlk.destroyed for rlk in destroyed)


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
    assert main(["verify", "--archive", str(archive), "--public"]) == 0
    assert (
        main(
            [
                "verify",
                "--archive",
                str(archive),
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


@pytest.mark.parametrize("length", [63, 65])
def test_a_state_signature_of_the_wrong_length_is_a_finding(tmp_path, capsys, length):
    rc, archive = _serve_and_fetch(tmp_path, capsys)
    assert rc == 0
    doc = json.loads(archive.read_text())
    signature = bytes.fromhex(doc["summary"]["state_signature"])
    doc["summary"]["state_signature"] = (signature + b"\x00")[:length].hex()
    archive.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--archive", str(archive), "--public"]) == 1
    assert "finding: state-signature-invalid" in capsys.readouterr().out


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "sealog.json"
    config.write_text(json.dumps({"c": 4, "m": 3}))
    store = tmp_path / "store"
    assert main(["--config", str(config), "init", "--store", str(store)]) == 0
    assert "c=4, m=3" in capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"frobnicate": 1}))
    assert main(["--config", str(config), "init", "--store", str(tmp_path / "s")]) == 2
    # The seal payload cap is a format constant, not a setting.
    config.write_text(json.dumps({"max_payload_bytes": 1024}))
    assert main(["--config", str(config), "init", "--store", str(tmp_path / "s")]) == 2


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
    assert main(["flush", "--store", str(store), "--secret", argv[-1]]) == 0


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
    ["init --device-id", "serve --evidence", "unparsable anchor", "fetch --device-id", "verify --rlk"],
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
    elif case == "fetch --device-id":
        argv = fetch + ["--device-id", "not-hex"]
    else:
        (tmp_path / "rlk.hex").write_text("zz\n")
        argv = ["verify", "--archive", str(tmp_path / "archive.json"), "--full",
                "--rlk", str(tmp_path / "rlk.hex")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if case == "unparsable anchor":
        assert "broken.pem" in err
