"""Layer boundaries the traced pass wraps, and what is computed from them.

Spans are recorded around sealog's public functions from outside the
program: each wrap point replaces a module global or class attribute that
the layer above looks up at call time.  Per-layer metrics and the
closed-form count checks are computed from the spans alone.
"""

from __future__ import annotations

import os
import statistics
from bisect import bisect_right
from collections import defaultdict

from sealog import collector, identity, keyschedule, logchain, retrieval, sealstore

from phases import PHASES, PassResult
from tracer import END, KEY, NAME, PARENT, SIZE, START, Tracer, duration, self_times


def _result_records(args, kwargs, result):
    return len(result.records)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    points = [
        (collector, "parse_line", "collector.parse_line", None, None),
        (collector.LogWriter, "append_entry", "collector.append_entry",
         lambda a, kw, r: r, None),
        (collector, "make_record", "logchain.make_record", None, None),
        (collector, "sign_block", "logchain.sign_block", _result_records, None),
        (keyschedule, "hkdf", "keyschedule.hkdf", None, None),
        (sealstore, "hkdf", "keyschedule.hkdf", None, None),
        (retrieval, "hkdf", "keyschedule.hkdf", None, None),
        (identity.DeviceIdentity, "sign", "identity.sign", None, None),
        (logchain, "verify_raw", "identity.verify", None, None),
        (retrieval, "verify_raw", "identity.verify", None, None),
        (logchain, "verify_block_full", "logchain.verify_block_full",
         lambda a, kw, r: len(a[0].records), lambda a, kw, r: a[0].block_id),
        (logchain, "verify_block_public", "logchain.verify_block_public", None, None),
        (logchain.Block, "deserialize", "logchain.block_deserialize", _result_records, None),
        (sealstore.SealedStore, "commit_blocks", "sealstore.commit_blocks",
         lambda a, kw, r: sum(len(b.records) for b in a[1]), lambda a, kw, r: len(a[1])),
        (sealstore.SealedStore, "seal_ik", "sealstore.seal_ik", None, None),
        (sealstore, "seal", "sealstore.seal", lambda a, kw, r: len(a[0]), None),
        (sealstore, "unseal", "sealstore.unseal", lambda a, kw, r: len(r), None),
        (sealstore.SealedStore, "load_block", "sealstore.load_block", _result_records, None),
        (sealstore.SealedStore, "mark_delivered", "sealstore.mark_delivered", None, None),
        # sealstore reaches fsync as os.fsync at call time; nothing else in
        # the process calls it while the traced pass runs.
        (os, "fsync", "sealstore.fsync", None, None),
        (retrieval, "client_handshake", "retrieval.client_handshake", None, None),
        (retrieval, "server_handshake", "retrieval.server_handshake", None, None),
        (retrieval, "serve_range", "retrieval.serve_range", lambda a, kw, r: r, None),
        (retrieval, "receive_transfer", "retrieval.receive_transfer",
         lambda a, kw, r: len(r.blocks), None),
        (retrieval, "fetch", "retrieval.fetch", lambda a, kw, r: len(r.blocks), None),
        (retrieval, "audit", "retrieval.audit", lambda a, kw, r: len(a[0].blocks), None),
    ]
    for owner, attr, name, size, key in points:
        tracer.wrap(owner, attr, name, size, key)


def by_phase(spans: list[list]) -> dict[str, dict[str, list[list]]]:
    """Spans grouped by the phase that was running when they started, then
    by name.  Server-thread spans have no parent on the main thread, so
    phases are assigned by time; set-up spans fall outside every phase."""
    phases = sorted((s for s in spans if s[NAME].startswith("phase.")), key=lambda s: s[START])
    starts = [p[START] for p in phases]
    grouped: dict[str, dict[str, list[list]]] = defaultdict(lambda: defaultdict(list))
    for s in spans:
        i = bisect_right(starts, s[START]) - 1
        if i >= 0 and s[START] <= phases[i][END]:
            grouped[phases[i][NAME].removeprefix("phase.")][s[NAME]].append(s)
    return grouped


def _sum(spans: list[list]) -> float:
    return sum(duration(s) for s in spans)


def _mean(spans: list[list]) -> float:
    return _sum(spans) / len(spans)


def _p(spans: list[list], q: int) -> float:
    """The q-th percentile of the span durations (q in 1..99)."""
    return statistics.quantiles([duration(s) for s in spans], n=100)[q - 1]


def _sizes(spans: list[list]) -> int:
    return sum(s[SIZE] for s in spans)


def layer_metrics(spans: list[list], traced: PassResult, untraced: PassResult) -> dict[str, float]:
    """Every per-layer metric from one traced pass and the untraced pass whose
    plan it repeated.  README.md names the end-to-end metric and workload
    each one should move."""
    ph = by_phase(spans)
    selfs = self_times(spans)
    every = defaultdict(list)
    for named in ph.values():
        for name, group in named.items():
            every[name].extend(group)

    ingest, full, public = ph["ingest"], ph["audit_full"], ph["audit_public"]
    polls, fetch = ph["polls"], ph["fetch_audit"]
    entries = traced.entries
    seconds = {phase: sum(traced.seconds[phase]) for phase in PHASES}
    appends = ingest["collector.append_entry"]
    verifies = every["logchain.verify_block_full"]
    store_ingest = ingest["sealstore.commit_blocks"] + ingest["sealstore.seal_ik"]
    seals, unseals = every["sealstore.seal"], every["sealstore.unseal"]
    loads = full["sealstore.load_block"] + public["sealstore.load_block"]

    metrics = {
        "collector.parse_us_per_log": _sum(ingest["collector.parse_line"]) / entries * 1e6,
        "collector.append_self_us_per_record":
            sum(selfs[id(s)] for s in appends) / _sizes(appends) * 1e6,
        "collector.ram_window_peak_records": traced.ram_peak_records,
        "keyschedule.hkdf_us": _mean(every["keyschedule.hkdf"]) * 1e6,
        "keyschedule.hkdf_per_log.audit_full":
            len(full["keyschedule.hkdf"]) / sum(traced.logs["audit_full"]),
        "keyschedule.hkdf_per_log.ingest": len(ingest["keyschedule.hkdf"]) / entries,
        "keyschedule.share.audit_full":
            _sum(full["keyschedule.hkdf"]) / seconds["audit_full"],
        "logchain.make_record_us": _mean(ingest["logchain.make_record"]) * 1e6,
        "logchain.sign_block_us": _mean(ingest["logchain.sign_block"]) * 1e6,
        "identity.sign_us": _mean(every["identity.sign"]) * 1e6,
        "logchain.verify_block_full_self_us_per_record":
            sum(selfs[id(s)] for s in verifies) / _sizes(verifies) * 1e6,
        "logchain.verify_block_public_us": _mean(public["logchain.verify_block_public"]) * 1e6,
        "identity.verify_us": _mean(every["identity.verify"]) * 1e6,
        "logchain.block_deserialize_us_per_record":
            _sum(every["logchain.block_deserialize"])
            / _sizes(every["logchain.block_deserialize"]) * 1e6,
        "sealstore.fsyncs_per_log": len(ingest["sealstore.fsync"]) / entries,
        "sealstore.commit_blocks_ms_p50": _p(ingest["sealstore.commit_blocks"], 50) * 1e3,
        "sealstore.commit_blocks_ms_p90": _p(ingest["sealstore.commit_blocks"], 90) * 1e3,
        "sealstore.seal_ik_ms": _mean(ingest["sealstore.seal_ik"]) * 1e3,
        "sealstore.share.ingest": _sum(store_ingest) / seconds["ingest"],
        "sealstore.seal_us_per_kib": _sum(seals) / (_sizes(seals) / 1024) * 1e6,
        "sealstore.unseal_us_per_kib": _sum(unseals) / (_sizes(unseals) / 1024) * 1e6,
        "sealstore.load_block_us_per_record": _sum(loads) / _sizes(loads) * 1e6,
        "sealstore.mark_delivered_ms": _p(polls["sealstore.mark_delivered"], 50) * 1e3,
        "retrieval.handshake_ms": _p(polls["retrieval.client_handshake"], 50) * 1e3,
        "retrieval.serve_range_ms_per_poll": _p(polls["retrieval.serve_range"], 50) * 1e3,
        "retrieval.receive_transfer_us_per_block":
            _sum(fetch["retrieval.receive_transfer"])
            / _sizes(fetch["retrieval.receive_transfer"]) * 1e6,
        "retrieval.audit_us_per_block":
            _sum(fetch["retrieval.audit"]) / _sizes(fetch["retrieval.audit"]) * 1e6,
    }
    untraced_seconds = {phase: sum(untraced.seconds[phase]) for phase in PHASES}
    for phase in PHASES:
        metrics[f"trace.overhead_ratio.{phase}"] = seconds[phase] / untraced_seconds[phase]
    metrics["trace.overhead_ratio"] = sum(seconds.values()) / sum(untraced_seconds.values())
    return metrics


def closed_form_check(spans: list[list], c: int, m: int) -> tuple[dict[str, int], list[str]]:
    """Compare traced counts with the closed forms for whole groups.

    Per whole group, ingest derives ``c*m + c + 1`` keys and makes
    ``2c + 4`` fsyncs (IK seal, c blocks, one state commit, each a file and
    a directory fsync); a full audit derives ``c*(m+2) + c*(c-1)/2`` keys,
    because block j of a group walks the block chain j steps from its IK.
    Each poll makes 2 fsyncs, the watermark's state commit.  Returns how
    many groups or polls each check covered, and every mismatch.
    """
    ph = by_phase(spans)
    checked: dict[str, int] = defaultdict(int)
    bad: list[str] = []

    # Ingest: a group's work starts after the previous group's commit ends.
    commits = sorted(ph["ingest"]["sealstore.commit_blocks"], key=lambda s: s[START])
    ends = [s[END] for s in commits]
    counts = defaultdict(lambda: [0, 0])
    for slot, name in enumerate(("keyschedule.hkdf", "sealstore.fsync")):
        for s in ph["ingest"][name]:
            counts[bisect_right(ends, s[START])][slot] += 1
    for g, commit in enumerate(commits):
        if commit[KEY] != c or commit[SIZE] != c * m:
            continue  # the flush of a partial group at close
        checked["ingest_groups"] += 1
        hkdfs, fsyncs = counts[g]
        if (hkdfs, fsyncs) != (c * m + c + 1, 2 * c + 4):
            bad.append(
                f"ingest group {g}: {hkdfs} HKDFs and {fsyncs} fsyncs, "
                f"expected {c * m + c + 1} and {2 * c + 4}"
            )

    # Full audits: HKDFs under each verify_block_full, summed per group.
    want = c * (m + 2) + c * (c - 1) // 2
    for phase in ("audit_full", "fetch_audit"):
        per_verify = defaultdict(int)
        for s in ph[phase]["keyschedule.hkdf"]:
            if s[PARENT] is not None and s[PARENT][NAME] == "logchain.verify_block_full":
                per_verify[id(s[PARENT])] += 1
        # Block ids rise within one verification and restart at the next.
        runs: dict[tuple[int, int], list[list]] = defaultdict(list)
        rep, last = 0, -1
        for v in sorted(ph[phase]["logchain.verify_block_full"], key=lambda s: s[START]):
            rep += v[KEY] <= last
            last = v[KEY]
            runs[rep, v[KEY] // c].append(v)
        for (_, group), run in runs.items():
            if [s[KEY] for s in run] != list(range(group * c, group * c + c)) or any(
                s[SIZE] != m for s in run
            ):
                continue  # the partial last group
            checked[f"{phase}_groups"] += 1
            got = sum(per_verify[id(s)] for s in run)
            if got != want:
                bad.append(f"{phase} group {group}: {got} HKDFs, expected {want}")

    # Polls: the fsyncs the server thread made while each poll was open.
    polls = sorted(ph["polls"]["bench.poll"], key=lambda s: s[START])
    starts = [p[START] for p in polls]
    per_poll = defaultdict(int)
    for s in ph["polls"]["sealstore.fsync"]:
        i = bisect_right(starts, s[START]) - 1
        if i >= 0 and s[START] <= polls[i][END]:
            per_poll[i] += 1
    for i, poll in enumerate(polls):
        checked["polls"] += 1
        if per_poll[i] != 2:
            bad.append(f"poll of block {poll[KEY]}: {per_poll[i]} fsyncs, expected 2")
    return dict(checked), bad
