"""The traced pass sees every call: its counts equal the closed forms.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from phases import Plan, run_pass  # noqa: E402
from sealog import keyschedule  # noqa: E402
from sealog.bench import gen_synthetic  # noqa: E402
from tracer import NAME, START, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# Lines of up to ~600 bytes, so entries span one to three records.
SMALL = Workload(
    "small_c3_m4", 3, 4, "generic", lambda seed, n: gen_synthetic(n, 300.0, 120.0, seed), 2, 2, 1, 5, 1
)
POLLS = 5


@pytest.mark.parametrize("workload", [*WORKLOADS.values(), SMALL], ids=lambda w: w.name)
def test_traced_counts_match_closed_forms(tmp_path, workload):
    c, m = workload.c, workload.m
    # At least two whole groups however many records an entry takes.
    plan = Plan(entries=2 * c * m + 1, full_reps=2, public_reps=1, polls=POLLS, fetch_reps=1)
    plans = [plan, plan]  # a second round must not disturb the counts of the first
    original_hkdf = keyschedule.hkdf
    tracer = Tracer()
    layers.install(tracer)
    try:
        res = run_pass(workload, workload.pool(3), tmp_path, 1.0, plans, tracer)
    finally:
        tracer.unwrap_all()
    assert keyschedule.hkdf is original_hkdf
    assert res.failed == 0, res.failures

    checked, mismatches = layers.closed_form_check(tracer.spans, c, m)
    assert mismatches == []
    assert checked["ingest_groups"] >= 2 * len(plans)
    assert checked["audit_full_groups"] == plan.full_reps * checked["ingest_groups"]
    assert checked["fetch_audit_groups"] == checked["ingest_groups"]
    assert checked["polls"] == POLLS * len(plans)

    # One lost call in the first (whole) group must show as a mismatch.
    ingest = next(s for s in tracer.spans if s[NAME] == "phase.ingest")
    for name in ("keyschedule.hkdf", "sealstore.fsync"):
        dropped = next(s for s in tracer.spans if s[NAME] == name and s[START] > ingest[START])
        _, mismatches = layers.closed_form_check(
            [s for s in tracer.spans if s is not dropped], c, m
        )
        assert mismatches, f"dropping one {name} span went unnoticed"
