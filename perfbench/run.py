"""The repository's benchmark: one workload per process, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload build-apb --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``build-apb``, ``serve-hot``, ``serve-scan`` and ``ingest-mixed``.
Inputs are generated from ``--seed``; the program receives only them.

Every detail line is ``<name> <value>``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The traced run first repeats the
untraced measurement, then measures again with span wrappers installed
(in this process, in the ``repro serve`` subprocess and in spawned build
workers) and reports the difference as ``trace.overhead_share``.

The exit status is 0 only when every correctness check passed; 2 when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("build-apb", "serve-hot", "serve-scan", "ingest-mixed")

#: Spans that must record calls inside the measured window of a traced
#: run; a miss means a wrapper lost its binding and the layer would look
#: free.
EXPECTED_SPANS = {
    "build-apb": (
        "partition.select", "partition.pass", "executor.run", "task.execute",
        "apply_outcome", "pool.flush", "plus", "bundle.save", "storage.persist",
        "storage2.publish", "bundle.open", "planner.answer", "kernel.node",
    ),
    "serve-hot": ("http.request", "dispatch", "encode", "planner.answer", "rollup", "iceberg"),
    "serve-scan": ("http.request", "dispatch", "encode", "planner.answer", "rollup", "iceberg"),
    "ingest-mixed": (
        "log.append", "log.seal", "apply_delta", "plus", "invalidate", "checkpoint",
        "checkpoint.publish_storage", "planner.answer", "kernel.node", "kernel.slice",
        "encode", "rollup", "iceberg",
    ),
}


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so :func:`stop_children` can wait for a
    grandchild whose parent exited first.  Elsewhere this does nothing."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Live and zombie children of this process, from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir() if Path("/proc").is_dir() else ():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # ``pid (comm) state ppid ...``; comm may hold spaces or parens.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Spawned build workers leave the ``multiprocessing`` resource tracker
    behind: it would outlive this process by a moment, so it is stopped
    and waited for here.  Any other child still present (an orphaned
    grandchild included) gets SIGTERM, then SIGKILL, and is reaped.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (OSError, ChildProcessError):
        pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pids.remove(pid)
            if pids:
                time.sleep(0.01)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.update(extra or {})
    return env


def run_workload(name: str, seed: int, seconds: float, work: Path, env, tracer=None):
    work.mkdir(parents=True)
    if name == "build-apb":
        import workload_build

        return workload_build.run(seed, seconds, work, tracer)
    if name in ("serve-hot", "serve-scan"):
        import workload_serve

        traffic = workload_serve.HOT if name == "serve-hot" else workload_serve.SCAN
        return workload_serve.run(traffic, seed, seconds, work, env, tracer)
    import workload_ingest

    return workload_ingest.run(seed, seconds, work, tracer)


def traced_run(name: str, seed: int, seconds: float, work: Path):
    """The untraced measurement, then the same with spans recorded."""
    import tracing
    from layers import layer_metrics

    plain = run_workload(name, seed, seconds, work / "plain", child_env())
    trace_dir = work / "spans"
    trace_dir.mkdir()
    extra = {
        "PYTHONPATH": os.pathsep.join((str(HERE / "hook"), str(SRC))),
        tracing.TRACE_DIR_ENV: str(trace_dir),
    }
    # Spawned build workers inherit this process's environment.
    os.environ.update(extra)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = run_workload(name, seed, seconds, work / "traced", child_env(extra), tracer)
    tracer.dump(trace_dir)
    spans, counters = tracing.load(trace_dir)
    metrics, missing = layer_metrics(name, spans, counters, plain, traced)
    for span_name in EXPECTED_SPANS[name]:
        if span_name in missing:
            traced.fail(f"expected span {span_name!r} recorded no calls in the measured window")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems = plain.problems + traced.problems
    traced.details["plain_metrics"] = plain.metrics
    traced.metrics = metrics
    return traced


def emit(name: str, trace: int, outcome, env_record: dict) -> bool:
    """Print the run: environment, details, every metric by name with its
    unit, and the result object as the last line; returns correctness.

    The metrics of the result object, and their units, are the lists in
    ``BENCHMARK.json``: ``end_to_end`` untraced, ``per_layer`` traced.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}

    print(f"workload {name}")
    print(f"environment {json.dumps(env_record, sort_keys=True)}")
    for key, value in sorted(outcome.details.items()):
        print(f"detail {key} {json.dumps(value, sort_keys=True, default=str)}")
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    correct = outcome.failed == 0
    report = {key: (outcome.metrics[key], unit) for key, unit in units.items()}
    if not trace:
        report["failed_fraction"] = (outcome.failed / max(1, outcome.attempted), "ratio")
        report.update(outcome.report)
    for key, (value, unit) in report.items():
        print(f"metric {key} {value!r} {unit}")
    metrics = {key: {"value": outcome.metrics[key], "unit": unit} for key, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return correct


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = subprocess.run(command, cwd=ROOT).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    adopt_orphans()
    sys.path.insert(0, str(SRC))
    from measure import environment

    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The server shuts down cleanly on SIGINT.  A launcher that ignores
    # SIGINT (a background job of a non-interactive shell) would pass the
    # ignored disposition on to it; a handler here is reset on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}.", dir=WORK_ROOT))
    scratch = work / "tmp"
    scratch.mkdir()
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    try:
        env_record = environment(args.seed)
        started = time.perf_counter()
        if args.trace:
            outcome = traced_run(args.workload, args.seed, args.seconds, work / "run")
        else:
            outcome = run_workload(args.workload, args.seed, args.seconds, work / "run", child_env())
        env_record["wall_s"] = time.perf_counter() - started
        correct = emit(args.workload, args.trace, outcome, env_record)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
