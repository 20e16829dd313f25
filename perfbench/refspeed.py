"""Host speed references: fixed slices of work that do not use sealog.

A shared host changes the speed it gives this process by a factor of two
and more, over fractions of a second and from one run to the next: the CPU
for user code, and, separately, the kernel's file operations and fsyncs.
Every phase of sealog speeds up and slows down with them, and no statistic
of one run's own samples removes a change that lasts the whole run.  So a
run interleaves short reference slices with its measured operations and
reports each phase at the reference speed:

- the CPU slice is interpreted Python over bytes, dicts and ``struct``,
  HMAC-SHA256, AES-GCM and an ECDSA P-256 sign and verify, the last two
  through ``cryptography`` as sealog calls them;
- the file slice writes, fsyncs and renames small files and fsyncs their
  directory, as sealstore's durable commits do, in a directory of its own.

A phase's measured seconds W, of which U were user CPU time of the process,
become ``W * (f / r_cpu + (1 - f) / r_file)`` nominal seconds, with
``f = min(1, U / W)`` and ``r`` the mean time of the phase's slices over
their nominal time.  On a host that runs both slices in their nominal time,
nominal and measured seconds agree.  Neither slice uses sealog, so a change
to sealog cannot change them, and their own time is never counted in a
phase.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import os
import resource
import struct
import time
from collections import defaultdict
from pathlib import Path

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# Seconds each slice takes on the baseline host (2 CPUs, CPython 3.11.7,
# cryptography 48.0.0, ext4) at its usual speed; they only set the scale.
NOMINAL_CPU_S = 0.0028
NOMINAL_FILE_S = 0.0020

# After a phase's operations, one pair of slices runs per this many seconds
# of them, so the slices sample the phase's time evenly.
INTERVAL_S = 0.040

_KEY = ec.derive_private_key(0x5EA1061, ec.SECP256R1())
_AEAD = AESGCM(bytes(range(32)))
_NONCE = bytes(12)
_PAYLOAD = bytes(range(256)) * 16
_FILE_BYTES = bytes(3000)
_FILES = 4


def user_seconds() -> float:
    """User CPU seconds of this process so far, all threads."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def cpu_slice() -> None:
    """A fixed piece of CPU work; its time measures the CPU's speed."""
    for _ in range(4):
        table: dict[bytes, int] = {}
        acc = b""
        for i in range(400):
            word = struct.pack(">IQ", i, i * 2654435761)
            table[word] = len(table)
            acc = (acc + word)[-64:]
        tag = acc
        for _ in range(40):
            tag = hmac.new(tag, acc, hashlib.sha256).digest()
        sealed = _AEAD.encrypt(_NONCE, _PAYLOAD, tag)
        _AEAD.decrypt(_NONCE, sealed, tag)
        signature = _KEY.sign(tag, ec.ECDSA(hashes.SHA256()))
        _KEY.public_key().verify(signature, tag, ec.ECDSA(hashes.SHA256()))


def file_slice(directory: Path) -> None:
    """A fixed piece of durable file work in ``directory``."""
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        for i in range(_FILES):
            tmp, final = directory / f"{i}.tmp", directory / f"{i}.ref"
            with open(tmp, "wb") as fh:
                fh.write(_FILE_BYTES)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
            os.fsync(dir_fd)
        for i in range(_FILES):
            os.unlink(directory / f"{i}.ref")
    finally:
        os.close(dir_fd)


class Reference:
    """Interleaves reference slices with a run's phases and keeps their times.

    ``after(phase, seconds)`` is called after each measured operation of a
    phase.  One pair of slices runs for each INTERVAL_S of the phase's
    operations, so every slice stands for the same share of the phase.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self._pending: dict[str, float] = defaultdict(float)
        # phase -> [slices, sum of CPU slice seconds, sum of file slice seconds]
        self._sums: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        # phase -> [(seconds, user seconds, CPU slice seconds, file slice seconds)]
        self._samples: dict[str, list[tuple]] = defaultdict(list)

    def after(self, phase: str, seconds: float) -> None:
        self._pending[phase] += seconds
        while self._pending[phase] >= INTERVAL_S:
            self._pending[phase] -= INTERVAL_S
            self._run(phase)

    def sample(self, phase: str, seconds: float, user: float) -> None:
        """Keep one sample of ``seconds``, ``user`` of them user CPU, with
        the pair of slices run right after it."""
        self._samples[phase].append((seconds, user, *self._run(phase)))

    def nominal_samples(self, phase: str) -> list[float]:
        """The phase's samples at the reference speed of their own slices."""
        samples = self._samples[phase]
        share = _share(sum(s[0] for s in samples), sum(s[1] for s in samples))
        return [
            seconds * _factor(share, cpu, fs) for seconds, _, cpu, fs in samples
        ]

    def _run(self, phase: str) -> tuple[float, float]:
        # The collector must not run inside a slice: its cost grows with
        # sealog's heap, which would tie the reference to the program.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            cpu_slice()
            middle = time.perf_counter()
            file_slice(self.directory)
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        sums = self._sums[phase]
        sums[0] += 1
        sums[1] += middle - start
        sums[2] += end - middle
        return middle - start, end - middle

    def slice_ms(self) -> dict[str, dict[str, float]]:
        """Per phase: slices run and their mean milliseconds."""
        return {
            phase: {"slices": n, "cpu_ms": cpu / n * 1e3, "file_ms": fs / n * 1e3}
            for phase, (n, cpu, fs) in self._sums.items()
        }

    def nominal_seconds(self, phase: str, seconds: float, user: float) -> float:
        """``seconds`` of the phase, ``user`` of them user CPU, at the
        reference speed."""
        n, cpu, fs = self._sums[phase]
        if not n:
            return seconds
        return seconds * _factor(_share(seconds, user), cpu / n, fs / n)


def _share(seconds: float, user: float) -> float:
    """The user CPU share of a phase's time."""
    return min(1.0, user / seconds) if seconds > 0 else 0.0


def _factor(share: float, cpu: float, fs: float) -> float:
    """Nominal over measured seconds, given the slices' mean seconds."""
    return share * NOMINAL_CPU_S / cpu + (1.0 - share) * NOMINAL_FILE_S / fs
