from __future__ import annotations

import importlib
import json
import threading

import pytest

from sealog import retrieval
from sealog.cli import main
from sealog.identity import DeviceIdentity
from sealog.keyschedule import RootLoggingKey


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


def test_ingest_json_stats(tmp_path, capsys):
    store = _init(tmp_path, capsys, c=1, m=10)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 25)
    assert main(["ingest", "--store", str(store), "--json", str(logfile)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 25
    assert stats["blocks"] == 3  # two full + one partial on flush
    assert stats["records"] == 25


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


def test_serve_fetch_verify_archive_roundtrip(tmp_path, capsys):
    store = _init(tmp_path, capsys, c=2, m=5, rlk_out=True)
    logfile = tmp_path / "logs.txt"
    _write_lines(logfile, 100)
    main(["ingest", "--store", str(store), str(logfile)])

    # anchor setup: device trusts the verifier, verifier trusts the device
    verifier = DeviceIdentity.generate()
    verifier_dir = tmp_path / "verifier-id"
    verifier.save(verifier_dir)
    device_anchors = tmp_path / "device-anchors"
    device_anchors.mkdir()
    (device_anchors / "verifier.pem").write_bytes(verifier.certificate_pem())
    verifier_anchors = tmp_path / "verifier-anchors"
    verifier_anchors.mkdir()
    (verifier_anchors / "device.pem").write_bytes((store / "cert.pem").read_bytes())

    from sealog.sealstore import SealedStore

    opened = SealedStore.open(store, bytes.fromhex((tmp_path / "store.secret").read_text().strip()))
    server = retrieval.LogExportServer(
        opened,
        anchors=[verifier.certificate],
        port=0,
    )
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
