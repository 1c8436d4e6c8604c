"""Shared measurement helpers: percentiles, memory, I/O and the run record."""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

MB = 1024 * 1024
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def spans(tracer):
    """``tracer.span`` in a traced run; a no-op context otherwise."""
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


#: The CPUs this process may run on when the benchmark starts.
CPUS = sorted(os.sched_getaffinity(0))


def pin(index: int, pids=()) -> int:
    """Run this thread, and every thread of the processes ``pids``, on CPU
    number ``index`` (cyclically) of :data:`CPUS`; returns that CPU.

    Threads and processes started afterwards inherit the pin.  The
    workloads take consecutive samples of one operation on consecutive
    CPUs: each vCPU of the shared 2-vCPU machine the benchmark was sized
    on ran the same code about 1.5x slower in stretches of one to twenty
    seconds, mostly not both at once, so an operation timed on every CPU
    has a sample at full speed far more often than one timed on a single
    CPU.  A client and server on one CPU also never wait for the other
    CPU to wake up.
    """
    cpu = CPUS[index % len(CPUS)]
    os.sched_setaffinity(0, {cpu})
    for pid in pids:
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(task), {cpu})
            except ProcessLookupError:
                pass
    return cpu


def unpin() -> None:
    """Let this thread run on every CPU of :data:`CPUS` again."""
    os.sched_setaffinity(0, CPUS)


def proc_status_kb(pid: int | str, key: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (``VmHWM``, ``VmRSS``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def peak_rss_mb(pid: int | str = "self") -> float:
    return proc_status_kb(pid, "VmHWM") / 1024


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any reaped child process (build workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def io_write_bytes(pid: int | str = "self") -> int:
    """Bytes this process caused to be written to storage."""
    with open(f"/proc/{pid}/io") as io:
        for line in io:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    return 0


def source_digest() -> str:
    """SHA-256 over the program's source files: identifies the code
    measured even in a checkout that is not a git repository."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD's commit id when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_digest": source_digest(),
        "seed": seed,
        "argv": sys.argv[1:],
    }


@dataclass
class Outcome:
    """What one workload run produced: metrics, details, failures."""

    metrics: dict[str, float] = field(default_factory=dict)
    #: The workload's own end-to-end numbers: name -> (value, unit).
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        """One correctness check: attempted always, failed when not ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(message)
