"""Seeded inputs and chain geometries of the benchmark workloads.

Each workload fixes a chain geometry ``(c, m)``, the source format the
lines are parsed as, and a generator of newline-free log lines.  The same
seed always gives the same lines; the program under test sees only them.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Callable

from sealog.bench import gen_synthetic
from sealog.collector import SOURCE_APACHE, SOURCE_GENERIC

# Lines are drawn from a seeded pool of this size and fed in a cycle.
# Nothing in sealog caches or deduplicates by content, so cycling costs the
# program the same as fresh lines while keeping generation out of the runs.
POOL_SIZE = 8192

# The paper's alert-log line length profile, the one length profile it
# gives (sealog's tests check gen_synthetic against it).
ALERT_LOG_MEAN, ALERT_LOG_SD = 165.27, 38.21

# The fields apache_access checks take plain values; they barely change a
# line's length, which the request path sets.
_METHODS = ("GET", "POST", "HEAD")
_STATUS = (200, 304, 404)
_PATH_CHARS = string.ascii_lowercase + string.digits + "/-_."


def apache_lines(seed: int, count: int) -> list[bytes]:
    """Apache Common Log Format lines that ``apache_access`` accepts.

    A line's length is drawn from the alert-log profile as ``gen_synthetic``
    draws it, and the request path pads the line to that length, so the
    share of entries that spill into a second record and the parser's
    per-byte cost follow a profile with a source.  Lines too short for the
    envelope keep a one-character path.
    """
    rng = random.Random(seed)
    clock = datetime(2017, 12, 11, 8, 0, 0, tzinfo=timezone.utc)
    lines = []
    for _ in range(count):
        clock += timedelta(seconds=rng.randint(0, 3))
        host = ".".join(str(rng.randint(1, 254)) for _ in range(4))
        head = f'{host} - - [{clock:%d/%b/%Y:%H:%M:%S %z}] "{rng.choice(_METHODS)} /'
        tail = f' HTTP/1.1" {rng.choice(_STATUS)} {rng.randint(0, 250_000)}'
        length = int(round(rng.gauss(ALERT_LOG_MEAN, ALERT_LOG_SD)))
        path = "".join(rng.choices(_PATH_CHARS, k=max(0, length - len(head) - len(tail))))
        lines.append((head + path + tail).encode("ascii"))
    return lines


@dataclass(frozen=True)
class Plan:
    """The work of one round: entries ingested, repetitions of each audit,
    and polls (of blocks 0, 1, ..., at most one per block)."""

    entries: int
    full_reps: int
    public_reps: int
    polls: int
    fetch_reps: int


@dataclass(frozen=True)
class Workload:
    name: str
    c: int
    m: int
    source: str
    make_lines: Callable[[int, int], list[bytes]]
    # The work of every round: ``groups`` groups' worth of c*m entries, and
    # the repetitions that give each phase a few hundred milliseconds of a
    # round on the baseline host.
    groups: int
    full_reps: int
    public_reps: int
    polls: int
    fetch_reps: int

    def pool(self, seed: int) -> list[bytes]:
        return self.make_lines(seed, POOL_SIZE)

    def plan(self) -> Plan:
        return Plan(
            self.groups * self.c * self.m,
            self.full_reps,
            self.public_reps,
            self.polls,
            self.fetch_reps,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # CLI default geometry with parsed Apache lines: the balanced case.
        Workload(
            "syslog_c10_m100",
            10,
            100,
            SOURCE_APACHE,
            apache_lines,
            groups=3,
            full_reps=3,
            public_reps=8,
            polls=30,
            fetch_reps=3,
        ),
        # The paper's alert-log length profile in long groups of short
        # blocks: the verifier's per-block key walk is O(c) here.
        Workload(
            "long_groups_c200_m10",
            200,
            10,
            SOURCE_GENERIC,
            lambda seed, n: gen_synthetic(n, ALERT_LOG_MEAN, ALERT_LOG_SD, seed),
            groups=2,
            full_reps=1,
            public_reps=2,
            polls=40,
            fetch_reps=1,
        ),
        # One block per group and ~400-byte lines that span two records:
        # durable writes bound ingest, the key chain is trivial.
        Workload(
            "durable_c1_m10",
            1,
            10,
            SOURCE_GENERIC,
            lambda seed, n: gen_synthetic(n, 400.0, 60.0, seed),
            groups=40,
            full_reps=4,
            public_reps=6,
            polls=20,
            fetch_reps=4,
        ),
    )
}
