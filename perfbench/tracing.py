"""Per-layer spans, recorded from outside the program.

The benchmark never edits ``src/``: it wraps the public functions each
layer exposes.  :func:`install` replaces every target with a timing
wrapper, both on the module or class that defines it and on every
``repro.*`` module that imported it by name (``from x import f`` makes a
second binding a module-only patch would miss).  A wrapper records one
span per call — name, start, end, its own id, its parent's id and the
root id shared by every span of one request or record — and may add
counters taken from the call's arguments and result.

Spans stay in memory and are written out when the process ends, one
JSON-lines file per process.  Subprocesses (the ``repro serve`` server,
spawned build workers) load the same wrappers through the
``hook/sitecustomize.py`` shim, which the traced run puts on
``PYTHONPATH`` together with ``PERFBENCH_TRACE_DIR``.
"""

from __future__ import annotations

import atexit
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from measure import io_write_bytes

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Modules imported before patching, so that every by-name binding of a
#: target already exists when the call sites are rewritten.
MODULES = (
    "repro.bundle",
    "repro.cli",
    "repro.core.cure",
    "repro.core.incremental",
    "repro.core.partition",
    "repro.core.postprocess",
    "repro.core.recovery",
    "repro.core.signature",
    "repro.core.storage",
    "repro.core.variants",
    "repro.build",
    "repro.build.executor",
    "repro.build.parallel",
    "repro.build.runtime",
    "repro.build.tasks",
    "repro.ingest.ingestor",
    "repro.ingest.log",
    "repro.query.answer",
    "repro.query.cache",
    "repro.query.iceberg",
    "repro.query.planner",
    "repro.query.rollup",
    "repro.query.slice",
    "repro.server.app",
    "repro.server.encoding",
    "repro.server.replay",
    "repro.storage2.publish",
)


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def span(self, name: str):
        """A context manager recording one span (for the benchmark's own
        phases, which are not functions of the program)."""
        return _Span(self, name)

    def record(self, name, start, end, span_id, parent, root) -> None:
        self.spans.append((name, start, end, span_id, parent, root))

    def dump(self, directory: str | Path) -> Path:
        path = Path(directory) / f"spans.{os.getpid()}.jsonl"
        with open(path, "w") as out:
            out.write(json.dumps({"pid": os.getpid(), "counters": self.counters}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        return path


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = _enter(self.tracer)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        _leave(self.tracer, self.name, self.start, end, self.frame)


def _enter(tracer: Tracer) -> tuple[int, int | None, int]:
    stack = tracer.stack()
    span_id = next(tracer._ids)
    if stack:
        parent, root = stack[-1]
    else:
        parent, root = None, span_id
    stack.append((span_id, root))
    return span_id, parent, root


def _leave(tracer, name, start, end, frame) -> None:
    tracer.stack().pop()
    span_id, parent, root = frame
    tracer.record(name, start, end, span_id, parent, root)


def _wrap(tracer: Tracer, name: str | None, fn, before=None, after=None):
    """A wrapper timing ``fn`` as span ``name`` (``None``: counters only).

    ``before(args, kwargs)`` may rewrite the arguments and returns state
    handed to ``after(tracer, args, result, state)``.
    """

    def traced(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        if state is not None:
            args, kwargs, state = state
        if name is None:
            result = fn(*args, **kwargs)
        else:
            frame = _enter(tracer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                _leave(tracer, name, start, time.perf_counter(), frame)
        if after is not None:
            after(tracer, args, result, state)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
    traced.__doc__ = fn.__doc__
    return traced


# -- counters taken from arguments and results -------------------------------


def _inject_query_stats(position: int):
    """Give a kernel a fresh ``QueryStats`` when its caller passed none, so
    rows examined can be counted without changing the answer."""

    def before(args, kwargs):
        from repro.query.answer import QueryStats

        if len(args) > position:
            if args[position] is not None:
                return None
            stats = QueryStats()
            args = args[:position] + (stats,) + args[position + 1 :]
        elif kwargs.get("stats") is None:
            stats = QueryStats()
            kwargs = {**kwargs, "stats": stats}
        else:
            return None
        return args, kwargs, stats

    return before


def _after_kernel(prefix: str):
    def after(tracer, args, result, stats):
        tracer.count(f"{prefix}.returned", len(result))
        if stats is not None:
            tracer.count(
                f"{prefix}.examined", stats.rows_scanned + stats.fact_fetches
            )

    return after


def _after_dispatch(tracer, args, result, _state):
    if not result[0].startswith("200"):
        tracer.count("dispatch.errors")


def _after_encode(tracer, args, result, _state):
    tracer.count("encode.bytes", len(result))


def _after_plan(tracer, args, result, _state):
    tracer.count(f"planner.strategy.{result.strategy}")


def _after_rollup(tracer, args, result, _state):
    tracer.count("rollup.rows_in", len(args[1]))
    tracer.count("rollup.rows_out", len(result))


def _before_evict(args, kwargs):
    return args, kwargs, len(args[0]._entries)


def _after_evict(tracer, args, result, before_len):
    # The newest entry is already inserted when eviction runs, so every
    # entry that left the dict here was evicted.
    tracer.count("result_cache.evictions", before_len - len(args[0]._entries))


def _after_encode_record(tracer, args, result, _state):
    tracer.count("log.bytes", len(result))
    tracer.count("log.events", len(args[0]))


def _after_apply_delta(tracer, args, report, _state):
    tracer.count("apply_delta.records")
    tracer.count("apply_delta.nts_merged", report.nts_merged)
    tracer.count("apply_delta.tts_devalued", report.tts_devalued)
    tracer.count("apply_delta.nodes_touched", len(report.nodes_touched))


def _after_invalidate(tracer, args, dropped, _state):
    tracer.count("invalidate.dropped", dropped)


def _before_io(args, kwargs):
    return args, kwargs, io_write_bytes()


def _after_partition_pass(tracer, args, result, written_before):
    tracer.count("partition.bytes_written", io_write_bytes() - written_before)


def _after_repartition(tracer, args, result, _state):
    tracer.count("partition.repartitioned")


#: (module, attribute path, span name or None, before, after).
TARGETS = (
    # core.partition
    ("repro.core.partition", "select_partition_level", "partition.select", None, None),
    ("repro.core.partition", "partition_relation", "partition.pass", _before_io, _after_partition_pass),
    ("repro.core.partition", "repartition_partition", "partition.repartition", None, _after_repartition),
    # build
    ("repro.build.parallel", "ProcessPoolExecutor.run", "executor.run", None, None),
    ("repro.build.executor", "SequentialExecutor.run", "executor.run", None, None),
    ("repro.build.runtime", "execute_task", "task.execute", None, None),
    ("repro.build.tasks", "apply_outcome", "apply_outcome", None, None),
    # core.signature / core.postprocess
    ("repro.core.signature", "SignaturePool.flush", "pool.flush", None, None),
    ("repro.core.postprocess", "postprocess_plus", "plus", None, None),
    # bundle / storage
    ("repro.core.storage", "CubeStorage.persist", "storage.persist", None, None),
    ("repro.bundle", "save_bundle", "bundle.save", None, None),
    ("repro.bundle", "open_bundle", "bundle.open", None, None),
    ("repro.storage2.publish", "publish_v2_bundle", "storage2.publish", None, None),
    # server
    ("repro.server.app", "SlicerApp.dispatch_request", "dispatch", None, _after_dispatch),
    ("repro.server.encoding", "encode_answer", "encode", None, _after_encode),
    # query
    ("repro.query.planner", "CubePlanner.answer", "planner.answer", None, None),
    ("repro.query.planner", "CubePlanner.plan", None, None, _after_plan),
    ("repro.query.planner", "CubePlanner.invalidate_results", "invalidate", None, _after_invalidate),
    ("repro.query.answer", "answer_cure_query", "kernel.node", _inject_query_stats(3), _after_kernel("planner")),
    ("repro.query.slice", "answer_cure_sliced", "kernel.slice", _inject_query_stats(5), _after_kernel("planner")),
    ("repro.query.rollup", "rollup_base_answer", "rollup", None, _after_rollup),
    ("repro.query.iceberg", "iceberg_over_cure", "iceberg", _inject_query_stats(4), _after_kernel("iceberg")),
    ("repro.query.cache", "ResultCache._evict_over_limits", None, _before_evict, _after_evict),
    # ingest
    ("repro.ingest.log", "AppendLog.append", "log.append", None, None),
    ("repro.ingest.log", "AppendLog.seal", "log.seal", None, None),
    ("repro.ingest.log", "_encode_record", None, None, _after_encode_record),
    ("repro.core.incremental", "apply_delta", "apply_delta", None, _after_apply_delta),
    ("repro.ingest.ingestor", "StreamingIngestor.checkpoint", "checkpoint", None, None),
    ("repro.core.recovery", "publish_storage", "checkpoint.publish_storage", None, None),
)


def install(tracer: Tracer) -> int:
    """Wrap every target and rebind its by-name imports; returns the
    number of bindings replaced."""
    for module_name in MODULES:
        importlib.import_module(module_name)
    replaced = 0
    for module_name, path, name, before, after in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, name, original, before, after))
            replaced += 1
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, name, original, before, after)
        for loaded in _binding_modules():
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    replaced += 1
    return replaced


def _binding_modules():
    """The program's modules and the benchmark's own (which import some
    targets by name too)."""
    here = str(Path(__file__).resolve().parent)
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        source = getattr(module, "__file__", None) or ""
        if name.startswith("repro") or source.startswith(here):
            yield module


def install_from_env() -> Tracer | None:
    """Install in a subprocess when the traced run asked for it."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    tracer = Tracer()
    install(tracer)

    def flush() -> None:
        if not getattr(tracer, "flushed", False):
            tracer.flushed = True
            tracer.count("io.write_bytes", io_write_bytes())
            tracer.dump(directory)

    atexit.register(flush)
    # Spawned multiprocessing workers leave through os._exit, which skips
    # atexit but runs multiprocessing's own exit finalizers.
    from multiprocessing import util

    util.Finalize(None, flush, exitpriority=100)
    return tracer


# -- reading spans back --------------------------------------------------------


def load(directory: str | Path) -> tuple[list[tuple], Counter]:
    """Every process's spans (tagged with the pid) and summed counters."""
    spans: list[tuple] = []
    counters: Counter = Counter()
    for path in sorted(Path(directory).glob("spans.*.jsonl")):
        with open(path) as handle:
            header = json.loads(handle.readline())
            pid = header["pid"]
            counters.update(header["counters"])
            for line in handle:
                spans.append((pid, *json.loads(line)))
    return spans, counters


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its children
    (spans whose parent id is it, in the same process).
    """
    children = defaultdict(float)
    for pid, _name, start, end, _span_id, parent, _root in spans:
        if parent is not None:
            children[(pid, parent)] += end - start
    summary: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for pid, name, start, end, span_id, _parent, _root in spans:
        entry = summary[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children[(pid, span_id)]
    return dict(summary)
