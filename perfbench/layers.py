"""Per-layer metrics of a traced run, named by the module they measure.

Every workload reports every metric listed under ``per_layer`` in
``BENCHMARK.json``; a layer a workload does not use reads 0.  Time
metrics are normalised per unit of the workload's work: per request on
the serve workloads, per build iteration on build-apb and per record on
ingest-mixed (``trace.units`` says how many units the
window held).  Per-call means (``bundle.open_ms``, ``log.append_ms``,
…) are per call of that function.  Counters come from the whole life of
each process; span times from the measured window only.

Self time is a span's duration minus its children's.  On the serve
workloads the server's spans are children of the client round trip in
another process, so ``http.self_ms`` is the round trip minus the
``dispatch`` span; on build-apb the workers' ``task.execute`` spans run
beside the coordinating process's ``executor.run`` (whose self time is its wait).
``trace.unattributed_share`` is the share of the window no layer span
covers (the self time of the benchmark's own ``bench.*`` spans); ``trace.overhead_share`` is how much longer the traced work
took than the untraced run's.
"""

from __future__ import annotations

import os

import tracing


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _windows(spans, name="bench.measure"):
    """(start, end) of each of the bench process's measured windows."""
    own = os.getpid()
    return sorted((span[2], span[3]) for span in spans if span[0] == own and span[1] == name)


def layer_metrics(workload: str, spans, counters, plain, traced):
    """Per-layer metrics and the span names that recorded no calls in the
    measured window."""
    windows = _windows(spans)
    inside = [span for span in spans if any(start <= span[2] and span[3] <= end for start, end in windows)]
    window = tracing.summarize(inside)
    lifetime = tracing.summarize(spans)
    details = traced.details

    def self_s(name):
        return window.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return window.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return window.get(name, {}).get("calls", 0)

    def mean_call_s(name):
        entry = lifetime.get(name)
        return entry["total_s"] / entry["calls"] if entry else 0.0

    serve = workload.startswith("serve")
    if serve:
        units = calls("http.request")
    elif workload == "build-apb":
        units = calls("bench.build")
    else:
        units = details["records"]

    def per_unit_ms(seconds):
        return _ratio(seconds, units) * 1e3

    dispatch_total = total_s("dispatch")
    kernel_self = self_s("kernel.node") + self_s("kernel.slice")
    metrics = {
        "http.self_ms": per_unit_ms(total_s("http.request") - dispatch_total) if serve else 0.0,
        "http.connections_per_request": details.get("connections_per_request", 0.0),
        "dispatch.self_ms": per_unit_ms(self_s("dispatch")),
        "dispatch.calls": calls("dispatch"),
        "dispatch.errors": counters.get("dispatch.errors", 0),
        "encode.self_ms": per_unit_ms(self_s("encode")),
        "encode.calls": calls("encode"),
        "encode.bytes_per_request": _ratio(counters.get("encode.bytes", 0), lifetime.get("encode", {}).get("calls", 0)),
        "encode.share_of_dispatch": _ratio(self_s("encode"), dispatch_total),
        "planner.answer.self_ms": per_unit_ms(self_s("planner.answer")),
        "planner.answer.calls": calls("planner.answer"),
        "planner.tuples_examined_per_returned": _ratio(
            counters.get("planner.examined", 0), counters.get("planner.returned", 0)
        ),
        "kernel.self_ms": per_unit_ms(kernel_self),
        "kernel.share_of_dispatch": _ratio(kernel_self + self_s("rollup") + self_s("iceberg"), dispatch_total),
        "rollup.self_ms": per_unit_ms(self_s("rollup")),
        "rollup.rows_in_per_out": _ratio(counters.get("rollup.rows_in", 0), counters.get("rollup.rows_out", 0)),
        "iceberg.self_ms": per_unit_ms(self_s("iceberg")),
        "iceberg.rows_examined_per_returned": _ratio(
            counters.get("iceberg.examined", 0), counters.get("iceberg.returned", 0)
        ),
        "bundle.open_ms": mean_call_s("bundle.open") * 1e3,
        "bundle.save_s": mean_call_s("bundle.save"),
        "storage.persist_s": mean_call_s("storage.persist"),
        "storage2.publish_s": mean_call_s("storage2.publish"),
        "partition.select_s": mean_call_s("partition.select"),
        "partition.pass_s": mean_call_s("partition.pass"),
        "partition.repartitioned": counters.get("partition.repartitioned", 0),
        "partition.bytes_written": _ratio(counters.get("partition.bytes_written", 0), lifetime.get("partition.pass", {}).get("calls", 0)),
        "executor.run_s": _ratio(total_s("executor.run"), units) if not serve else 0.0,
        "executor.wait_s": _ratio(self_s("executor.run"), units) if not serve else 0.0,
        "executor.first_completion_s": _first_completion(inside),
        "task.execute_s": _ratio(total_s("task.execute"), units) if workload == "build-apb" else 0.0,
        "apply_outcome.self_s": _ratio(self_s("apply_outcome"), units) if workload == "build-apb" else 0.0,
        "apply_outcome.share_of_build": _ratio(self_s("apply_outcome"), total_s("bench.build")),
        "pool.flush_s": _ratio(self_s("pool.flush"), units) if workload == "build-apb" else 0.0,
        "plus.s": _ratio(total_s("plus"), units),
        "log.append_ms": mean_call_s("log.append") * 1e3,
        "log.seal_ms": mean_call_s("log.seal") * 1e3,
        "log.bytes_per_event": _ratio(counters.get("log.bytes", 0), counters.get("log.events", 0)),
        "apply_delta.ms_per_record": mean_call_s("apply_delta") * 1e3,
        "invalidate.ms": mean_call_s("invalidate") * 1e3,
        "invalidate.dropped": _ratio(counters.get("invalidate.dropped", 0), lifetime.get("invalidate", {}).get("calls", 0)),
        "checkpoint.publish_storage_s": mean_call_s("checkpoint.publish_storage"),
        "checkpoint.bytes_written": details.get("checkpoint_bytes_written") or 0,
        "result_cache.evictions": counters.get("result_cache.evictions", 0),
    }
    for strategy in ("direct", "indexed", "postfilter", "rollup"):
        metrics[f"planner.strategy.{strategy}"] = counters.get(f"planner.strategy.{strategy}", 0)
    records = counters.get("apply_delta.records", 0)
    for key in ("nts_merged", "tts_devalued", "nodes_touched"):
        metrics[f"apply_delta.{key}"] = _ratio(counters.get(f"apply_delta.{key}", 0), records)

    cache = details.get("result_cache", {})
    metrics["result_cache.hit_ratio"] = cache.get("hit_ratio") or 0.0
    metrics["result_cache.bytes"] = cache.get("bytes", 0)
    metrics["result_cache.entries"] = cache.get("entries", 0)
    metrics["result_cache.rejected"] = cache.get("rejected", 0)
    metrics["fact_cache.hit_ratio"] = details.get("fact_cache_hit_ratio") or 0.0

    sections = details.get("v2_section_bytes", {})
    metrics["storage2.v2_bytes"] = details.get("v2_bytes", 0)
    metrics["storage2.v2_bytes_per_fact_byte"] = details.get("cube_bytes_per_fact_byte", 0.0)
    for kind in ("fact", "index", "aggregates"):
        metrics[f"storage2.{kind}_bytes"] = sections.get(kind, 0)
    for kind in ("nt", "tt", "cat"):
        metrics[f"storage2.node_{kind}_bytes"] = sections.get(f"node.{kind}", 0)

    pool = details.get("pool", {})
    for key in ("flushes", "signatures_added", "nt_runs", "cat_runs"):
        metrics[f"pool.{key}"] = pool.get(key, 0)
    storage = details.get("storage", {})
    for key in ("nt_rows", "tt_rows", "cat_rows", "total_bytes"):
        metrics[f"storage.{key}"] = storage.get(key, 0)
    metrics["partition.partitions"] = details.get("partitions", 0)
    metrics["executor.tasks_run"] = details.get("tasks_run", 0)
    metrics["executor.tasks_stolen"] = details.get("tasks_stolen", 0)
    metrics["executor.peak_worker_bytes"] = details.get("peak_worker_bytes", 0)

    io_bytes = details.get("io_write_bytes", 0) + counters.get("io.write_bytes", 0)
    metrics["io.write_bytes_per_fact_byte"] = _ratio(io_bytes, details.get("io_fact_bytes", 0))

    metrics["trace.units"] = units
    metrics["trace.spans"] = len(spans)
    metrics["trace.unattributed_share"] = _ratio(_unattributed(inside), sum(end - start for start, end in windows))
    metrics["trace.overhead_share"] = _ratio(
        plain.metrics["throughput_per_s"], traced.metrics["throughput_per_s"]
    ) - 1.0
    names = {target[2] for target in tracing.TARGETS if target[2] is not None}
    missing = {name for name in names | {"http.request"} if calls(name) == 0}
    return metrics, missing


def _first_completion(inside) -> float:
    """Mean time from ``executor.run`` start to its first ``apply_outcome``
    (pool start-up plus the first unit's tasks)."""
    runs = {(span[0], span[4]): span[2] for span in inside if span[1] == "executor.run"}
    first: dict = {}
    for pid, name, start, _end, _span_id, parent, _root in inside:
        if name == "apply_outcome" and (pid, parent) in runs:
            first[(pid, parent)] = min(first.get((pid, parent), start), start)
    delays = [first[key] - runs[key] for key in first]
    return sum(delays) / len(delays) if delays else 0.0


def _unattributed(inside) -> float:
    """Window time covered by no layer span: the self time of the bench
    process's own ``bench.*`` spans (``bench.measure``, ``bench.build``,
    ``bench.publish``), which wrap layers but are none.  On the serve
    workloads client round trips have no in-process children, so the
    whole round trip counts as attributed (split into ``http.self`` and
    the server's spans)."""
    own = os.getpid()
    summary = tracing.summarize([span for span in inside if span[0] == own])
    return sum(entry["self_s"] for name, entry in summary.items() if name.startswith("bench."))
