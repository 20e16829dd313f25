"""Operator command-line surface.

Exit codes: 0 success / verified; 1 verification findings; 2 usage or
configuration error; 3 I/O failure or integrity alarm.

A JSON config file (``--config``) can supply defaults for the keys
c, m, host, port, epoch_seconds, secret and anchors; explicit flags always
win.  Any other key is a configuration error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from cryptography.hazmat.primitives.serialization import Encoding

from . import bench as bench_mod
from . import collector, keyschedule, logchain, retrieval, sealstore
from .errors import InvalidParameter, SealogError, StorageError
from .identity import (
    DeviceIdentity,
    device_id_from_certificate,
    load_trust_anchors,
    validate_peer_certificate,
    write_private_file,
)
from .keyschedule import ChainParams, RootLoggingKey

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_IO = 3

_CONFIG_KEYS = ("c", "m", "host", "port", "epoch_seconds", "secret", "anchors")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidParameter(f"cannot read config {path}: {exc}") from exc
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise InvalidParameter(f"unknown config keys: {sorted(unknown)}")
    return doc


def _cfg(args, config: dict, key: str, fallback=None):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    return config.get(key, fallback)


def _secret_path(store: str, args, config: dict) -> Path:
    explicit = _cfg(args, config, "secret")
    return Path(explicit) if explicit else Path(str(store).rstrip("/") + ".secret")


def _hex(text: str, what: str) -> bytes:
    """``text`` (a flag or a file's content) decoded from hex; anything
    else is a usage error naming ``what``, never its content."""
    try:
        return bytes.fromhex(text.strip())
    except ValueError as exc:
        raise InvalidParameter(f"{what} is not hex") from exc


def _read_secret(path: Path) -> bytes:
    try:
        text = path.read_text()
    except OSError as exc:
        raise StorageError(f"cannot read device secret {path}: {exc}") from exc
    secret = _hex(text, f"device secret {path}")
    if len(secret) != 32:
        raise InvalidParameter("device secret must be 32 bytes of hex")
    return secret


def _open_store(args, config: dict) -> sealstore.SealedStore:
    secret = _read_secret(_secret_path(args.store, args, config))
    return sealstore.SealedStore.open(args.store, secret)


# Subcommands ----------------------------------------------------------------


def _cmd_init(args, config) -> int:
    params = ChainParams(c=_cfg(args, config, "c", 10), m=_cfg(args, config, "m", 100))
    device_id = _hex(args.device_id, "--device-id") if args.device_id else None
    identity = DeviceIdentity.generate(device_id)
    rlk = RootLoggingKey.generate()
    # The files a store needs are written before the store, so a failed
    # write leaves no store that nothing can open; a failed store removes
    # the files written for it.
    created: list[Path] = []
    try:
        secret_path = _secret_path(args.store, args, config)
        if secret_path.exists():
            secret = _read_secret(secret_path)
        else:
            secret = os.urandom(32)
            write_private_file(secret_path, secret.hex().encode("ascii") + b"\n")
            created.append(secret_path)
        if args.rlk_out:
            # Verifier provisioning: the pre-shared root key for full audits.
            write_private_file(args.rlk_out, rlk.key_bytes().hex().encode("ascii") + b"\n")
            created.append(Path(args.rlk_out))
        sealstore.SealedStore.create(args.store, secret, params, identity, rlk)
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise
    finally:
        rlk.destroy()
    print(f"store initialized at {args.store} (c={params.c}, m={params.m})")
    print(f"device id: {identity.device_id.hex()}")
    print(identity.certificate_pem().decode("ascii"), end="")
    return EXIT_OK


def _cmd_ingest(args, config) -> int:
    store = _open_store(args, config)
    policy = collector.IngestPolicy(params=store.params)
    if args.input and args.input != "-":
        fh = open(args.input, "rb")
    else:
        fh = sys.stdin.buffer
    try:
        writer = collector.LogWriter(store, epoch_seconds=_cfg(args, config, "epoch_seconds"))
        try:
            # The entries accepted before a failing line are still committed.
            stats = collector.ingest(collector.read_entries(fh, args.source), policy, writer)
        finally:
            writer.close()
    finally:
        if fh is not sys.stdin.buffer:
            fh.close()
    if args.json:
        print(json.dumps(stats.to_dict()))
    else:
        print(
            f"ingested {stats.entries} entries -> {stats.records} records, "
            f"{stats.blocks} blocks, {stats.groups} groups "
            f"({stats.parse_warnings} parse warnings, "
            f"{stats.throughput:.0f} logs/s)"
        )
    return EXIT_OK


def _print_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict()))
        return
    print(f"verdict: {report.verdict} (mode={report.mode})")
    for entry in report.entries:
        if entry.status != logchain.STATUS_OK:
            where = f" msg {entry.msg_id}" if entry.msg_id is not None else ""
            detail = f" ({entry.detail})" if entry.detail else ""
            print(f"  block {entry.block_id}: {entry.status}{where}{detail}")
    for finding in report.findings:
        print(f"  finding: {finding}")
    for note in report.notes:
        print(f"  note: {note}")


def _load_anchors(args, config, what: str) -> list:
    anchors_dir = _cfg(args, config, "anchors")
    if not anchors_dir:
        raise InvalidParameter(f"{args.command} needs --anchors (trusted {what} certificates)")
    return load_trust_anchors(anchors_dir)


def _cmd_verify(args, config) -> int:
    if args.archive:
        anchors = _load_anchors(args, config, "device")
        rlk = None
        if args.mode == "full":
            if not args.rlk:
                raise InvalidParameter("full archive verification needs --rlk")
            rlk = RootLoggingKey(_hex(Path(args.rlk).read_text(), f"root logging key {args.rlk}"))
        result, cert = retrieval.load_archive(args.archive)
        # The archive names its device's certificate; only an anchor vouches for it.
        device_cert = validate_peer_certificate(cert.public_bytes(Encoding.DER), anchors)
        report = retrieval.audit(result, device_cert, rlk=rlk)
    else:
        if not args.store:
            raise InvalidParameter("verify needs --store or --archive")
        store = _open_store(args, config)
        report = sealstore.verify_store(store, full=args.mode == "full")
    _print_report(report, args.json)
    return EXIT_OK if report.verdict == "ok" else EXIT_FINDINGS


def _cmd_serve(args, config) -> int:
    evidence = _hex(args.evidence, "--evidence") if args.evidence else b""
    store = _open_store(args, config)
    anchors = _load_anchors(args, config, "verifier")
    server = retrieval.LogExportServer(
        store,
        anchors,
        host=_cfg(args, config, "host", "127.0.0.1"),
        port=_cfg(args, config, "port", 7060),
        evidence=evidence,
    )
    host, port = server.address[0], server.address[1]
    print(f"serving {store.manifest.device_id.hex()} on {host}:{port}")
    try:
        if args.once:
            server.handle_one()
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return EXIT_OK


def _cmd_fetch(args, config) -> int:
    device_id = _hex(args.device_id, "--device-id") if args.device_id else None
    anchors = _load_anchors(args, config, "device")

    identity_dir = Path(args.identity)
    if (identity_dir / "cert.pem").exists():
        identity = DeviceIdentity.load(identity_dir)
    else:
        identity = DeviceIdentity.generate()
        identity.save(identity_dir)
        print(f"generated verifier identity in {identity_dir}; anchor this certificate device-side:")
        print(identity.certificate_pem().decode("ascii"), end="")

    if device_id is None:
        if len(anchors) != 1:
            raise InvalidParameter("--device-id required when several anchors are loaded")
        device_id = device_id_from_certificate(anchors[0])

    request = retrieval.RetrievalRequest(device_id=device_id, start=args.start, end=args.end)
    result = retrieval.fetch(
        _cfg(args, config, "host", "127.0.0.1"),
        _cfg(args, config, "port", 7060),
        identity,
        anchors,
        request,
    )
    device_cert = next(
        (a for a in anchors if device_id_from_certificate(a) == device_id), anchors[0]
    )
    retrieval.save_archive(args.out, result, device_cert.public_bytes(Encoding.PEM))
    summary = result.summary
    print(
        f"fetched {len(result.blocks)} blocks from {device_id.hex()}"
        + (f" (notice: {summary.notice})" if summary and summary.notice else "")
    )
    for alarm in result.alarms:
        print(f"integrity alarm: block {alarm.get('block_id')}: {alarm.get('reason')}")
    if summary is None:
        # The archive stays: what did arrive is evidence.
        print("error: transfer ended without a summary", file=sys.stderr)
    return EXIT_IO if result.alarms or summary is None else EXIT_OK


def _cmd_bench(args, config) -> int:
    kwargs = {}
    if args.entries:
        kwargs["entries"] = args.entries
    if args.reps:
        kwargs["repetitions"] = args.reps
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.m_values:
        kwargs["m_values"] = tuple(int(v) for v in args.m_values.split(","))
    if args.c_values:
        kwargs["c_values"] = tuple(int(v) for v in args.c_values.split(","))
    if args.storage_m_values:
        kwargs["storage_m_values"] = tuple(int(v) for v in args.storage_m_values.split(","))
    report = bench_mod.bench_grid(bench_mod.BenchConfig(**kwargs))
    if args.json:
        print(json.dumps(report.to_dict()))
        return EXIT_OK
    print("block length sweep (create / verify, ms):")
    for m in sorted(report.block_create):
        c = report.block_create[m]
        v = report.block_verify[m]
        print(
            f"  m={m:>5}: {c.mean_seconds * 1e3:9.3f} ({c.stddev_seconds * 1e3:.3f})"
            f" / {v.mean_seconds * 1e3:9.3f} ({v.stddev_seconds * 1e3:.3f})"
        )
    print("group sweep throughput (logs/s per repetition):")
    for c_val in sorted(report.group_throughput):
        samples = ", ".join(f"{s:,.0f}" for s in report.group_throughput[c_val])
        print(f"  c={c_val:>3}: {samples}")
    print(f"storage fit: {report.storage_fit}")
    print(f"overhead: {report.overhead}")
    print("trends:")
    for key, value in report.trends.items():
        print(f"  {key}: {value}")
    return EXIT_OK


def _cmd_gen(args, config) -> int:
    bench_mod.write_synthetic_file(
        args.out, args.count, args.mean, args.stddev, args.seed
    )
    print(f"wrote {args.count} synthetic entries to {args.out}")
    return EXIT_OK


def _cmd_export_formats(args, config) -> int:
    constants = {
        "hkdf": "HKDF-SHA256 (RFC 5869)",
        "scheme_salt_hex": keyschedule.SCHEME_SALT.hex(),
        "labels": {
            "intermediate_key": keyschedule.LABEL_IK.decode(),
            "first_block_key": keyschedule.LABEL_BLOCK_FIRST.decode(),
            "next_block_key": keyschedule.LABEL_BLOCK_NEXT.decode(),
            "message_key": keyschedule.LABEL_MESSAGE.decode(),
            "storage_key": keyschedule.LABEL_STORAGE.decode(),
            "channel_keys": keyschedule.LABEL_CHANNEL.decode(),
        },
        "record": {
            "length": logchain.RECORD_LEN,
            "tag_length": logchain.TAG_LEN,
            "text_field_length": logchain.TEXT_FIELD_LEN,
            "max_text_length": logchain.MAX_TEXT_LEN,
        },
        "block": {"magic": logchain.BLOCK_MAGIC.decode(), "version": logchain.FORMAT_VERSION},
        "seal": {
            "magic": sealstore.SEAL_MAGIC.decode(),
            "version": sealstore.SEAL_VERSION,
            "object_types": {
                "block": sealstore.OBJECT_BLOCK,
                "ik": sealstore.OBJECT_IK,
                "state": sealstore.OBJECT_STATE,
                "manifest": sealstore.OBJECT_MANIFEST,
                "delivered": sealstore.OBJECT_DELIVERED,
            },
            "max_payload_bytes": sealstore.DEFAULT_MAX_PAYLOAD,
        },
        "protocol": {
            "version": retrieval.PROTOCOL_VERSION,
            "frame_types": {
                "hello": retrieval.FRAME_HELLO,
                "auth": retrieval.FRAME_AUTH,
                "data": retrieval.FRAME_DATA,
                "abort": retrieval.FRAME_ABORT,
            },
            "message_types": {
                "request": retrieval.MSG_REQUEST,
                "block": retrieval.MSG_BLOCK,
                "summary": retrieval.MSG_SUMMARY,
                "alarm": retrieval.MSG_ALARM,
            },
        },
        "exit_codes": {"ok": 0, "findings": 1, "usage": 2, "io_or_alarm": 3},
        # The module docstrings that define the formats above.
        "docs": ["sealog.keyschedule", "sealog.logchain", "sealog.sealstore", "sealog.retrieval"],
    }
    print(json.dumps(constants, indent=2))
    return EXIT_OK


# Parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sealog", description=__doc__)
    parser.add_argument("--config", help="JSON config file with defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create store, identity, and root logging key")
    p.add_argument("--store", required=True)
    p.add_argument("--secret", help="device secret file (default: <store>.secret)")
    p.add_argument("--c", type=int, dest="c")
    p.add_argument("--m", type=int, dest="m")
    p.add_argument("--device-id", help="16-byte hex device id (random when omitted)")
    p.add_argument("--rlk-out", help="write the root logging key hex here for verifier provisioning")
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("ingest", help="ingest newline-delimited log entries")
    p.add_argument("--store", required=True)
    p.add_argument("--secret")
    p.add_argument("--source", choices=collector.SOURCES, default="generic")
    p.add_argument("--epoch-seconds", type=float, dest="epoch_seconds")
    p.add_argument("--json", action="store_true")
    p.add_argument("input", nargs="?", help="input file ('-' or omitted for stdin)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("verify", help="audit a local store or a fetched archive")
    p.add_argument("--store")
    p.add_argument("--secret")
    p.add_argument("--archive", help="archive file produced by fetch")
    p.add_argument("--rlk", help="root logging key hex file (full archive audits)")
    p.add_argument(
        "--anchors",
        help="directory of trusted device certificates (*.pem); an archive is audited only"
        " when its certificate is byte-identical to one of them",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--full", dest="mode", action="store_const", const="full")
    mode.add_argument("--public", dest="mode", action="store_const", const="public")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify, mode="full")

    p = sub.add_parser("serve", help="run the device-side export service")
    p.add_argument("--store", required=True)
    p.add_argument("--secret")
    p.add_argument("--host")
    p.add_argument("--port", type=int)
    p.add_argument(
        "--anchors",
        help="directory of trusted verifier certificates (*.pem); a verifier is served only"
        " when its certificate is byte-identical to one of them",
    )
    p.add_argument("--evidence", help="hex attestation evidence to present")
    p.add_argument("--once", action="store_true", help="serve one session then exit")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("fetch", help="retrieve blocks from a device into an archive")
    p.add_argument("--host")
    p.add_argument("--port", type=int)
    p.add_argument(
        "--anchors",
        help="directory of trusted device certificates (*.pem); a device is trusted only"
        " when its certificate is byte-identical to one of them",
    )
    p.add_argument("--identity", required=True, help="verifier identity directory")
    p.add_argument("--device-id", help="target device id (hex)")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--end", type=int, default=None)
    p.add_argument("--out", required=True, help="archive output path")
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("bench", help="run the benchmark grid and trend checks")
    p.add_argument("--entries", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--m-values", help="comma-separated block lengths")
    p.add_argument("--c-values", help="comma-separated group sizes")
    p.add_argument("--storage-m-values", help="comma-separated block lengths for the storage fit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--mean", type=float, default=bench_mod.MEAN_LENGTH)
    p.add_argument("--stddev", type=float, default=bench_mod.STDDEV_LENGTH)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("export-formats", help="print the normative format constants")
    p.set_defaults(func=_cmd_export_formats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return args.func(args, config)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SealogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
