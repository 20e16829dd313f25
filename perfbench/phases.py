"""Set-up and the five measured phases, run in rounds.

A round, in order: set-up, ingest into a fresh store, ``verify_store`` full
then public on freshly opened handles, single-block auditor polls over
loopback, then whole-range fetches with a full audit under the RLK.  Every
round does the same work, fixed by the workload (``Workload.plan``), and a
pass repeats rounds until its time is up, so every metric samples the whole
run rather than one slice of it, and no phase's work depends on how fast
the host happened to be in an earlier one.

Load is closed loop from one process: the main thread produces and audits,
and the round's ``LogExportServer`` thread serves the sessions.  Every
operation is checked and counted; a failure is recorded with its reason,
never dropped.

An untraced pass interleaves reference slices (``refspeed``) with the
operations of every phase, outside their timed spans, so that each phase's
times can be given at the reference speed; a traced pass runs none.  Each
operation's user CPU time is kept beside its wall time for that.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from sealog import retrieval
from sealog.collector import IngestPolicy, LogWriter, ingest, read_entries, reassemble_entries
from sealog.errors import SealogError
from sealog.identity import DeviceIdentity
from sealog.keyschedule import ChainParams, RootLoggingKey
from sealog.logchain import FINDING_TRUNCATION, STATUS_OK
from sealog.retrieval import LogExportServer, RetrievalRequest
from sealog.sealstore import SealedStore, verify_store

from refspeed import Reference, user_seconds
from tracer import Tracer
from workloads import Plan, Workload

PHASES = ("ingest", "audit_full", "audit_public", "polls", "fetch_audit")


@dataclass
class PassResult:
    plans: list[Plan] = field(default_factory=list)
    # Per phase, one sample per operation (per round for ingest and polls):
    # logs handled and seconds taken.
    logs: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    seconds: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    user: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    setup_seconds: list[float] = field(default_factory=list)
    poll_seconds: list[float] = field(default_factory=list)
    # Polls whose audit verdict is "fail" only through the known truncation
    # finding (see _Round.polls); counted apart from ``failed``.
    poll_audits_not_ok: int = 0
    blocks: int = 0
    ram_peak_bytes: int = 0
    ram_peak_records: int = 0
    stored_bytes: int = 0
    input_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # Reference slices run beside the phases; None in a traced pass.
    ref: Reference | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def record(self, phase: str, logs: int, seconds: float, user: float = 0.0) -> None:
        self.logs[phase].append(logs)
        self.seconds[phase].append(seconds)
        self.user[phase].append(user)

    def raw_rate(self, phase: str) -> float:
        """Logs per measured second over all of the phase's samples."""
        return sum(self.logs[phase]) / sum(self.seconds[phase])

    def rate(self, phase: str) -> float:
        """Logs per second of the phase at the reference speed."""
        seconds = self.ref.nominal_seconds(
            phase, sum(self.seconds[phase]), sum(self.user[phase])
        )
        return sum(self.logs[phase]) / seconds

    @property
    def entries(self) -> int:
        return sum(p.entries for p in self.plans)


def _feed(pool: list[bytes], offset: int, limit: int):
    """``limit`` pool lines in a cycle from ``offset``."""
    for k in range(limit):
        yield pool[(offset + k) % len(pool)]


def _stop_server(server: LogExportServer, thread) -> None:
    # Let serve_forever leave its accept loop before the listener closes
    # under it.
    server.stop()
    thread.join(timeout=10)
    server.close()
    if thread.is_alive():
        raise RuntimeError("export server thread did not stop")


class _Round:
    def __init__(self, workload, pool, offset, workdir, plan, tracer, res):
        self.workload = workload
        self.params = ChainParams(workload.c, workload.m)
        self.pool = pool
        self.offset = offset
        self.workdir = workdir
        self.plan = plan
        self.res = res
        self.span = tracer.span if tracer is not None else (lambda name, key=0: nullcontext())
        self.ref = res.ref

    def _record(self, phase: str, logs: int, seconds: float, user: float) -> None:
        """Record one operation of a phase and run the reference slices due."""
        self.res.record(phase, logs, seconds, user)
        if self.ref is not None:
            self.ref.after(phase, seconds)

    def setup(self) -> None:
        self.root_key = os.urandom(32)
        start, user = time.perf_counter(), user_seconds()
        self.device = DeviceIdentity.generate()
        self.store = SealedStore.create(
            self.workdir, self.root_key, self.params, self.device, RootLoggingKey.generate()
        )
        self.verifier = DeviceIdentity.generate()
        self.server = LogExportServer(self.store, [self.verifier.certificate])
        self.thread = self.server.start()
        elapsed, user = time.perf_counter() - start, user_seconds() - user
        self.res.setup_seconds.append(elapsed)
        if self.ref is not None:
            self.ref.sample("setup", elapsed, user)

    def ingest(self) -> None:
        res, plan = self.res, self.plan
        with self.span("phase.ingest"):
            start, user = time.perf_counter(), user_seconds()
            writer = LogWriter(self.store)
            lines = _feed(self.pool, self.offset, plan.entries)
            stats = ingest(read_entries(lines, self.workload.source), IngestPolicy(self.params), writer)
            writer.close()
            elapsed, user = time.perf_counter() - start, user_seconds() - user
        res.check(stats.entries == plan.entries, f"ingested {stats.entries}/{plan.entries} entries")
        self._record("ingest", stats.entries, elapsed, user)
        self.inputs = [
            self.pool[(self.offset + k) % len(self.pool)] for k in range(stats.entries)
        ]
        self.parse_warnings = stats.parse_warnings
        self.blocks = self.store.state.sealed_blocks
        res.blocks += self.blocks
        res.ram_peak_bytes = max(res.ram_peak_bytes, writer.peak_ram_bytes)
        res.ram_peak_records = max(res.ram_peak_records, writer.peak_ram_records)
        res.input_bytes += sum(len(line) + 1 for line in self.inputs)
        res.stored_bytes += sum(
            p.stat().st_size for p in self.workdir.glob("*.seal") if p.name != "manifest.seal"
        )

    def store_audit(self, full: bool) -> None:
        phase = "audit_full" if full else "audit_public"
        res, plan = self.res, self.plan
        with self.span(f"phase.{phase}"):
            for reps in range(1, (plan.full_reps if full else plan.public_reps) + 1):
                start, user = time.perf_counter(), user_seconds()
                report = verify_store(SealedStore.open(self.workdir, self.root_key), full)
                elapsed, user = time.perf_counter() - start, user_seconds() - user
                self._record(phase, len(self.inputs), elapsed, user)
                res.check(
                    report.verdict == "ok"
                    and not report.findings
                    and len(report.entries) == self.blocks,
                    f"{phase} rep {reps}: verdict {report.verdict}, "
                    f"{len(report.entries)}/{self.blocks} blocks, findings {report.findings}",
                )

    def polls(self) -> None:
        """One fetch session per next single block, then a public audit.

        The gate wants the audit's verdict ``ok``.  At this version ``audit``
        compares a fetched range with the device's newest committed block,
        not with the requested end, so the audit of any block before the
        newest fails with exactly one truncation finding naming that block
        and the newest.  Such a poll is counted in ``poll_audits_not_ok``,
        which every run reports, rather than in ``failed``; a poll whose
        audit fails in any other way is failed.
        """
        res, plan = self.res, self.plan
        host, port = self.server.address[:2]
        cert = self.device.certificate
        latest = self.blocks - 1
        polls, samples, users = min(plan.polls, self.blocks), [], []
        with self.span("phase.polls"):
            for i in range(polls):
                request = RetrievalRequest(self.device.device_id, start=i, end=i)
                start, user = time.perf_counter(), user_seconds()
                try:
                    with self.span("bench.poll", key=i):
                        result = retrieval.fetch(host, port, self.verifier, [cert], request)
                        report = retrieval.audit(result, cert)
                except (SealogError, OSError) as exc:
                    res.check(False, f"poll {i}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    samples.append(time.perf_counter() - start)
                    users.append(user_seconds() - user)
                    if self.ref is not None:
                        self.ref.sample("polls", samples[-1], users[-1])
                truncated = (
                    f"{FINDING_TRUNCATION}: blocks end at {i} but state commits through {latest}"
                )
                known_defect = i < latest and report.findings == [truncated]
                res.poll_audits_not_ok += known_defect
                res.check(
                    [b.block_id for b in result.blocks] == [i]
                    and result.summary is not None
                    and [(e.block_id, e.status) for e in report.entries] == [(i, STATUS_OK)]
                    and (report.verdict == "ok" or known_defect),
                    f"poll {i}: verdict {report.verdict}, "
                    f"blocks {[b.block_id for b in result.blocks]}, "
                    f"entries {[e.to_dict() for e in report.entries]}, findings {report.findings}",
                )
        res.poll_seconds.extend(samples)
        res.record("polls", polls, sum(samples), sum(users))

    def fetch_audit(self) -> None:
        res, plan = self.res, self.plan
        host, port = self.server.address[:2]
        cert = self.device.certificate
        rlk = SealedStore.open(self.workdir, self.root_key).root_logging_key()
        request = RetrievalRequest(self.device.device_id, start=0, end=None, mode="full")
        bodies = None
        with self.span("phase.fetch_audit"):
            for reps in range(1, plan.fetch_reps + 1):
                start, user = time.perf_counter(), user_seconds()
                try:
                    result = retrieval.fetch(host, port, self.verifier, [cert], request)
                    report = retrieval.audit(result, cert, rlk=rlk, params=self.params)
                except (SealogError, OSError) as exc:
                    # A failed fetch audits nothing: a sample of 0 logs/s.
                    res.record("fetch_audit", 0, time.perf_counter() - start)
                    res.check(False, f"fetch {reps}: {type(exc).__name__}: {exc}")
                    continue
                elapsed, user = time.perf_counter() - start, user_seconds() - user
                self._record("fetch_audit", len(self.inputs), elapsed, user)
                got = reassemble_entries(result.blocks)
                bodies = got if bodies is None else bodies
                res.check(
                    report.verdict == "ok"
                    and not report.findings
                    and len(result.blocks) == self.blocks
                    and got == self.inputs,
                    f"fetch {reps}: verdict {report.verdict}, {len(result.blocks)}/"
                    f"{self.blocks} blocks, findings {report.findings}, "
                    f"bodies {'match' if got == self.inputs else 'differ'}",
                )
        self._check_entries(bodies)

    def _check_entries(self, bodies: list[bytes] | None) -> None:
        """Each input entry counts once: its body must come back byte for byte."""
        res, n = self.res, len(self.inputs)
        if bodies is None:
            bad = n
        else:
            bad = sum(a != b for a, b in zip(bodies, self.inputs)) + abs(len(bodies) - n)
        bad = min(n, bad + self.parse_warnings)
        res.attempted += n
        res.failed += bad
        if bad:
            res.failures.append(
                f"{bad}/{n} entries not returned intact ({self.parse_warnings} parse warnings)"
            )

    def run(self) -> None:
        self.setup()
        try:
            self.ingest()
            self.store_audit(full=True)
            self.store_audit(full=False)
            self.polls()
            self.fetch_audit()
        finally:
            _stop_server(self.server, self.thread)


def run_pass(
    workload: Workload,
    pool: list[bytes],
    workdir: Path,
    budget: float,
    plans: list[Plan] | None = None,
    tracer: Tracer | None = None,
) -> PassResult:
    """Run the workload's round until ``budget`` seconds have gone by, at
    least once; given the plans of an earlier pass, run exactly those."""
    res = PassResult(ref=Reference(workdir / "refspeed") if tracer is None else None)
    offset, start = 0, time.perf_counter()
    while True:
        if plans is None:
            plan = workload.plan()
        elif len(res.plans) < len(plans):
            plan = plans[len(res.plans)]
        else:
            break
        round_dir = workdir / f"round{len(res.plans)}"
        _Round(workload, pool, offset, round_dir, plan, tracer, res).run()
        res.plans.append(plan)
        offset += plan.entries
        shutil.rmtree(round_dir)
        if plans is None and time.perf_counter() - start >= budget:
            break
    return res
