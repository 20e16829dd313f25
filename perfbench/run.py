"""Benchmark sealog end to end and per layer on one workload.

Usage, from the root of a sealog checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` one untraced pass repeats the workload's round for about S
seconds and the end-to-end metrics are reported, their times at the
reference speed of ``refspeed``.  With ``--trace 1`` an untraced pass runs
for S/2 seconds, a traced pass repeats exactly its rounds, and the
per-layer metrics, the tracing overhead and the closed-form count checks
are reported; the spans are written to ``.perfbench-out/``.

Every line but the last is a human-readable JSON report (host, work done,
failures, closed-form checks).  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``, each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

# The poll p90 is taken over all rounds' polls; it needs at least this many.
MIN_POLLS = 100


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(res) -> dict[str, float]:
    """The end-to-end metrics, times at the reference speed (refspeed)."""
    polls = res.ref.nominal_samples("polls")
    return {
        "ingest_logs_per_s": res.rate("ingest"),
        "audit_full_logs_per_s": res.rate("audit_full"),
        "audit_public_logs_per_s": res.rate("audit_public"),
        "fetch_audit_logs_per_s": res.rate("fetch_audit"),
        "poll_ms_p50": statistics.median(polls) * 1e3,
        "poll_ms_p90": statistics.quantiles(polls, n=10)[-1] * 1e3,
        "setup_s": statistics.median(res.ref.nominal_samples("setup")),
        "ram_window_peak_bytes": res.ram_peak_bytes,
        "stored_bytes_per_log_byte": res.stored_bytes / res.input_bytes,
    }


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from mountinfo."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                fields = line.split()
                mount, sep = fields[4], fields.index("-")
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[sep + 1]
    except OSError as exc:
        return f"unknown ({exc})"
    return fstype


def host_info(store_dir: Path) -> dict:
    import cryptography

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "store_filesystem": filesystem_of(store_dir),
        "note": "fsync cost is that of this filesystem; the page cache is not dropped",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "sealog" / "__init__.py").is_file():
        print(f"perfbench: no sealog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    from phases import run_pass
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    pool = workload.pool(args.seed)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    details: dict = {"workload": workload.name, "seed": args.seed, "c": workload.c, "m": workload.m}
    try:
        workdir.mkdir(parents=True)
        details["host"] = host_info(workdir)
        if args.trace:
            untraced = run_pass(workload, pool, workdir / "untraced", args.seconds / 2)
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = run_pass(
                    workload, pool, workdir / "traced", args.seconds / 2, untraced.plans, tracer
                )
            finally:
                tracer.unwrap_all()
            passes = [untraced, traced]
            metrics = layers.layer_metrics(tracer.spans, traced, untraced)
            checked, mismatches = layers.closed_form_check(tracer.spans, workload.c, workload.m)
            trace_file = OUT / f"trace-{workload.name}.tsv"
            tracer.write(trace_file)
            details.update(
                closed_form_checked=checked,
                closed_form_mismatches=mismatches,
                spans=len(tracer.spans),
                trace_file=str(trace_file.relative_to(ROOT)),
            )
            # Every check must have covered something, or it proved nothing.
            covered = ("ingest_groups", "audit_full_groups", "fetch_audit_groups", "polls")
            correct_counts = not mismatches and all(checked.get(k) for k in covered)
        else:
            passes = [run_pass(workload, pool, workdir, args.seconds)]
            if len(passes[0].poll_seconds) < MIN_POLLS:
                print(
                    f"perfbench: {len(passes[0].poll_seconds)} polls, a p90 needs {MIN_POLLS}",
                    file=sys.stderr,
                )
                return 1
            metrics = end_to_end(passes[0])
            correct_counts = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    details.update(
        rounds=len(passes[-1].plans),
        round_plan=vars(workload.plan()),
        poll_samples=len(passes[-1].poll_seconds),
        poll_audits_not_ok=passes[-1].poll_audits_not_ok,
        blocks=passes[-1].blocks,
        phase_seconds={phase: sum(s) for phase, s in passes[-1].seconds.items()},
        measured_rates={phase: passes[0].raw_rate(phase) for phase in passes[0].seconds},
        user_share={
            phase: sum(passes[0].user[phase]) / sum(passes[0].seconds[phase])
            for phase in passes[0].seconds
        },
        reference_slices=passes[0].ref.slice_ms(),
        error_rate=failed / attempted,
        failures=[f for p in passes for f in p.failures],
    )
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0 and correct_counts,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units(args.trace).items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
