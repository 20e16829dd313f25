"""Benchmark harness and synthetic dataset generator.

The grid mirrors the evaluation methodology at desk scale: block creation
and verification are timed across block lengths, group ingest throughput
across group sizes (at a fixed block length of 100), persistent storage is
fitted against block length, and the sealed-vs-raw overhead ratio is
measured and cross-checked against the record-format arithmetic.

Absolute timings are hardware-local and deliberately not compared with any
published figures; the report instead evaluates trends:

  T1  block creation time grows monotonically with block length
  T2  ingest throughput with c=25 is at least that of c=1 (fewer durable
      state commits per log), in a majority of repetitions

plus a sanity floor on absolute throughput and a linearity fit (R^2) for
storage growth.  Timing windows widen automatically when a single
operation is too fast for the clock.  Repetitions are interleaved, each
timing every cell in turn, and a cell's time is its fastest repetition: a
host busy for a while slows one repetition of several cells, not every
repetition of one.
"""

from __future__ import annotations

import random
import statistics
import string
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .collector import IngestPolicy, LogWriter, RawEntry, ingest
from .errors import InvalidParameter
from .identity import DeviceIdentity
from .keyschedule import ChainParams, RootLoggingKey, walk_message_chain
from .logchain import (
    MAX_TEXT_LEN,
    Block,
    make_record,
    sign_block,
    verify_block_full,
    verify_block_public,
)
from .sealstore import MANIFEST_FILE, OBJECT_BLOCK, SealedStore, derive_storage_key, seal

MIN_TIMING_WINDOW = 0.005  # seconds; widen batches below this
MEAN_LENGTH = 115.08  # synthetic line length: mean and standard deviation
STDDEV_LENGTH = 5.73
GROUP_M = 100  # block length fixed for the group sweep

_PRINTABLE = (string.ascii_letters + string.digits + string.punctuation + " ").encode()


def gen_synthetic(
    count: int,
    mean_length: float = MEAN_LENGTH,
    stddev_length: float = STDDEV_LENGTH,
    seed: int = 7,
) -> list[bytes]:
    """Printable log lines with normally distributed lengths.

    Deterministic under the seed; lengths are clamped to [1, 64 KiB] so
    every line survives the parser's size precondition.
    """
    if mean_length < 1:
        raise InvalidParameter("mean length must be >= 1")
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        length = int(round(rng.gauss(mean_length, stddev_length)))
        length = max(1, min(length, 64 * 1024))
        lines.append(bytes(rng.choices(_PRINTABLE, k=length)))
    return lines


def write_synthetic_file(
    path: str | Path,
    count: int,
    mean_length: float = MEAN_LENGTH,
    stddev_length: float = STDDEV_LENGTH,
    seed: int = 7,
) -> None:
    lines = gen_synthetic(count, mean_length, stddev_length, seed)
    with open(path, "wb") as fh:
        for line in lines:
            fh.write(line + b"\n")


@dataclass
class BenchConfig:
    entries: int = 2500
    m_values: tuple[int, ...] = (10, 100, 250, 500)
    c_values: tuple[int, ...] = (1, 10, 25, 50)
    storage_m_values: tuple[int, ...] = (10, 50, 100, 250, 500, 750, 1000, 2500)
    repetitions: int = 3
    seed: int = 7

    def __post_init__(self) -> None:
        if self.repetitions < 3:
            raise InvalidParameter("reported means need at least 3 repetitions")
        if any(v <= 0 for v in self.m_values + self.c_values + self.storage_m_values):
            raise InvalidParameter("grid values must be positive")


@dataclass
class Cell:
    samples: list[float] = field(default_factory=list)  # seconds per call, one per repetition

    @property
    def mean_seconds(self) -> float:
        return statistics.mean(self.samples)

    @property
    def stddev_seconds(self) -> float:
        return statistics.pstdev(self.samples)

    def to_dict(self) -> dict:
        return {
            "mean_ms": self.mean_seconds * 1e3,
            "stddev_ms": self.stddev_seconds * 1e3,
            "samples_ms": [s * 1e3 for s in self.samples],
        }


@dataclass
class BenchReport:
    block_create: dict[int, Cell] = field(default_factory=dict)
    block_verify: dict[int, Cell] = field(default_factory=dict)
    group_throughput: dict[int, list[float]] = field(default_factory=dict)
    sealed_bytes_per_block: dict[int, int] = field(default_factory=dict)
    storage_fit: dict = field(default_factory=dict)
    overhead: dict = field(default_factory=dict)
    memory_peaks: dict[str, int] = field(default_factory=dict)
    trends: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "block_create": {m: c.to_dict() for m, c in self.block_create.items()},
            "block_verify": {m: c.to_dict() for m, c in self.block_verify.items()},
            "group_throughput_logs_per_sec": self.group_throughput,
            "sealed_bytes_per_block": self.sealed_bytes_per_block,
            "storage_fit": self.storage_fit,
            "overhead": self.overhead,
            "memory_peaks_bytes": self.memory_peaks,
            "trends": self.trends,
            "counts": self.counts,
        }


def _timed(fn, *, min_window: float = MIN_TIMING_WINDOW) -> float:
    """Per-call seconds for fn, widening the batch until the window is sane."""
    batch = 1
    while True:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_window:
            return elapsed / batch
        batch *= 4


def _build_block(
    rlk: RootLoggingKey, identity: DeviceIdentity, lines: list[bytes], m: int
) -> Block:
    """Block 0 of ``m`` records, the lines in turn cut to one record's
    payload, tagged and signed."""
    keys = walk_message_chain(rlk, 0, m, ChainParams(c=1, m=m))
    records = [
        make_record(0, i, lines[i % len(lines)][:MAX_TEXT_LEN], key) for i, key in enumerate(keys)
    ]
    return sign_block(0, records, identity)


def _bench_block_cells(
    config: BenchConfig,
    rlk: RootLoggingKey,
    identity: DeviceIdentity,
    lines: list[bytes],
    report: BenchReport,
) -> None:
    cells = []  # (timed function, its cell)
    for m in config.m_values:
        params = ChainParams(c=1, m=m)
        create_block = partial(_build_block, rlk, identity, lines, m)
        block = create_block()  # warm-up, reused by the verify cell

        def verify(block=block, params=params):
            verify_block_public(block, identity.public_key)
            verify_block_full(block, rlk, params)

        report.block_create[m], report.block_verify[m] = Cell(), Cell()
        cells += [(create_block, report.block_create[m]), (verify, report.block_verify[m])]
    for _ in range(config.repetitions):  # each repetition times every cell in turn
        for fn, cell in cells:
            cell.samples.append(_timed(fn))


def _run_ingest(params: ChainParams, lines: list[bytes]) -> tuple[float, int, int]:
    """One full ingest run into a fresh store; returns its logs/second, the
    bytes it stored (every sealed file but the manifest) and the writer's
    peak RAM window in bytes."""
    with tempfile.TemporaryDirectory(prefix="sealog-bench-") as workdir:
        store_dir = Path(workdir) / "store"
        store = SealedStore.create(
            store_dir,
            root_storage_key=b"\x42" * 32,
            params=params,
            identity=DeviceIdentity.generate(),
            rlk=RootLoggingKey.generate(),
        )
        writer = LogWriter(store)
        entries = (RawEntry(source="generic", body=line) for line in lines)
        try:
            stats = ingest(entries, IngestPolicy(params=params), writer)
        finally:
            writer.close()
        stored = sum(
            p.stat().st_size for p in store_dir.glob("*.seal") if p.name != MANIFEST_FILE
        )
    return stats.throughput, stored, writer.peak_ram_bytes


def _bench_group_cells(config: BenchConfig, lines: list[bytes], report: BenchReport) -> None:
    def run(params: ChainParams, batch: list[bytes]) -> float:
        throughput, _, peak = _run_ingest(params, batch)
        key = f"c={params.c},m={params.m}"
        report.memory_peaks[key] = max(report.memory_peaks.get(key, 0), peak)
        return throughput

    for c in config.c_values:  # warm-up, excluded from statistics
        run(ChainParams(c=c, m=GROUP_M), lines[: c * GROUP_M])
    for _ in range(config.repetitions):  # each repetition runs every c in turn
        for c in config.c_values:
            report.group_throughput.setdefault(c, []).append(run(ChainParams(c, GROUP_M), lines))
    # Memory peaks for the block-length sweep, measured the same way.
    for m in config.m_values:
        run(ChainParams(c=1, m=m), lines[: 2 * m])


def _bench_storage(
    config: BenchConfig,
    rlk: RootLoggingKey,
    identity: DeviceIdentity,
    lines: list[bytes],
    report: BenchReport,
) -> None:
    sk = derive_storage_key(b"\x42" * 32, b"bench")
    for m in config.storage_m_values:
        block = _build_block(rlk, identity, lines, m)
        report.sealed_bytes_per_block[m] = len(seal(block.serialize(), sk, OBJECT_BLOCK, 0))

    xs = list(report.sealed_bytes_per_block.keys())
    ys = [float(report.sealed_bytes_per_block[m]) for m in xs]
    slope, intercept = statistics.linear_regression(xs, ys)
    r = statistics.correlation(xs, ys)
    report.storage_fit = {"slope": slope, "intercept": intercept, "r_squared": r * r}


def _bench_overhead(lines: list[bytes], report: BenchReport) -> None:
    params = ChainParams(c=1, m=250)
    _, sealed_bytes, _ = _run_ingest(params, lines)
    raw_bytes = sum(len(line) + 1 for line in lines)
    report.overhead = {
        "raw_bytes": raw_bytes,
        "sealed_bytes": sealed_bytes,
        "ratio": sealed_bytes / raw_bytes if raw_bytes else float("inf"),
        "m": params.m,
    }


def _evaluate_trends(report: BenchReport) -> None:
    # A cell's time is its fastest repetition; T2 votes per repetition.
    ms = sorted(report.block_create.keys())
    creates = [min(report.block_create[m].samples) for m in ms]
    t1 = all(b > a for a, b in zip(creates, creates[1:]))

    base, high = report.group_throughput.get(1, []), report.group_throughput.get(25, [])
    votes = sum(h >= b for b, h in zip(base, high))
    floor = min((max(v) for c, v in report.group_throughput.items() if c >= 10), default=0.0)
    report.trends = {
        "block_create_monotone_in_m": t1,
        "throughput_c25_ge_c1_votes": votes,
        "throughput_c25_ge_c1_pass": votes >= 2,
        "throughput_floor_logs_per_sec": floor,
        "throughput_floor_pass": floor > 625.0,
        "storage_linear_r2": report.storage_fit.get("r_squared", 0.0),
        "storage_linear_pass": report.storage_fit.get("r_squared", 0.0) >= 0.999,
    }


def bench_grid(config: BenchConfig | None = None) -> BenchReport:
    """Run the full grid and trend evaluation; counts are seed-deterministic."""
    config = config or BenchConfig()
    lines = gen_synthetic(config.entries, seed=config.seed)
    rlk = RootLoggingKey.generate()
    identity = DeviceIdentity.generate()
    report = BenchReport()
    report.counts = {
        "entries": len(lines),
        "mean_length": statistics.mean(len(l) for l in lines),
        "repetitions": config.repetitions,
    }
    _bench_block_cells(config, rlk, identity, lines, report)
    _bench_group_cells(config, lines, report)
    _bench_storage(config, rlk, identity, lines, report)
    _bench_overhead(lines, report)
    _evaluate_trends(report)
    return report
