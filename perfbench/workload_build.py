"""build-apb: construct, publish and cold-query the APB-1 cube.

APB-1 (``repro.datasets.apb``) at density 4, scale 1/2000 and member
scale 1/20: 24,786 facts over the full 168-node lattice.  CURE+ builds
with a 5,000-signature pool under a 0.6 MB engine budget, so the
Section 4 external-partitioning path runs on ``min(2, cpu_count)``
spawned workers.  Each iteration then saves the bundle, compacts it into
``cube.v2`` and, for 1.5 seconds, queries every node on a freshly
opened bundle, sweep after sweep.

End-to-end metrics of this workload:

* ``setup_s`` — generate the facts and store them in the engine (median
  of samples taken before the first build and after every build);
* ``throughput_per_s`` — fact rows per second of the run's fastest build,
  of at least four (paper Fig 23);
* ``latency_p50_ms`` / ``latency_p90_ms`` — over the 168 nodes, each
  node's fastest query on a freshly opened bundle (paper Fig 25) across
  every sweep of the run.

Best-of-run figures: on a shared machine, interference from other
tenants only ever adds time, in bursts of a few milliseconds that a
median over a dozen-second run still feels.  Set-up samples and sweeps
are spread over the whole run, not taken in one stretch: the 2-vCPU
machine this was sized on ran the same code about 1.5x slower in
stretches of one to twenty seconds, and one stretch could hold every
sample.  For the same reason set-up sample ``k`` and sweep ``k`` run on
CPU ``k`` of ``measure.CPUS`` (cyclically, see ``measure.pin``); builds
run on every CPU.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
from pathlib import Path

from measure import (
    MB,
    Outcome,
    children_peak_rss_mb,
    io_write_bytes,
    median,
    peak_rss_mb,
    percentile,
    pin,
    spans,
    unpin,
)

DENSITY = 4.0
SCALE = 1 / 2000
MEMBER_SCALE = 1 / 20
BUDGET_BYTES = int(0.6 * MB)
POOL_CAPACITY = 5_000
VARIANT = "CURE+"
#: Set-up samples before the first build and after every build.
SETUP_PER_SLOT = 4
#: Builds per run at the least: the same build took 3.1 s or 4.4 s
#: depending on the minute, and the fastest of four is steadier than
#: the fastest of three.
MIN_BUILDS = 4
#: Seconds of lattice sweeps on each build's bundle.
SWEEP_SECONDS = 1.5
ORACLE_NODES = 4


def generate(seed: int):
    from repro.datasets.apb import generate_apb_dataset

    return generate_apb_dataset(
        density=DENSITY,
        scale=SCALE,
        member_scale=MEMBER_SCALE,
        seed=seed,
        with_count=True,
    )


def fact_bytes(schema, fact) -> int:
    return len(fact) * schema.fact_schema.row_size_bytes


def store(directory: Path, fact):
    from repro.relational.catalog import Catalog
    from repro.relational.engine import Engine
    from repro.relational.memory import MemoryManager

    engine = Engine(Catalog(directory), MemoryManager(BUDGET_BYTES))
    engine.store_table("fact", fact)
    return engine


def build(schema, engine):
    from repro.core.variants import VARIANTS

    config = VARIANTS[VARIANT].with_pool(POOL_CAPACITY)
    return config.build(
        schema,
        engine=engine,
        relation="fact",
        workers=min(2, os.cpu_count() or 1),
    )


def publish(directory: Path, schema, fact, storage) -> Path:
    """``save_bundle`` + ``publish_v2_bundle``; returns the bundle root."""
    import repro.bundle
    import repro.storage2.publish

    repro.bundle.save_bundle(directory, schema, fact, storage, extra={"variant": VARIANT})
    repro.storage2.publish.publish_v2_bundle(directory)
    return directory


def build_bundle(work: Path, schema, fact) -> Path:
    """One built and published APB bundle (the serve workloads' set-up)."""
    engine = store(work / "catalog", fact)
    try:
        result, _plus = build(schema, engine)
    finally:
        engine.close()
    bundle = publish(work / "bundle", schema, fact, result.storage)
    shutil.rmtree(work / "catalog")
    return bundle


def sweep(bundle_root: Path, schema, best: list[float], keep: set[int]):
    """Every node once on a freshly opened bundle; lowers ``best[node_id]``
    to the fastest query of that node so far and returns (open seconds,
    sweep seconds, answers of the nodes in ``keep``)."""
    import repro.bundle
    from repro.query.planner import QueryRequest

    started = time.perf_counter()
    with repro.bundle.open_bundle(bundle_root) as bundle:
        planner = bundle.planner()
        opened = time.perf_counter()
        kept = {}
        for node_id in range(schema.enumerator.n_nodes):
            node = schema.decode_node(node_id)
            before = time.perf_counter()
            answer = planner.answer(QueryRequest.of(node))
            best[node_id] = min(best[node_id], time.perf_counter() - before)
            if node_id in keep:
                kept[node_id] = answer
        finished = time.perf_counter()
    return opened - started, finished - opened, kept


def section_bytes(report) -> dict[str, int]:
    """``cube.v2`` bytes by section kind: fact, index, aggregates,
    reorder and the per-node NT / TT / CAT relations."""
    totals: dict[str, int] = {}
    for section in report.sections:
        parts = section.name.split("/")
        kind = f"node.{parts[-1]}" if parts[0] == "node" else parts[0]
        totals[kind] = totals.get(kind, 0) + section.nbytes
    return totals


def build_facts(result, report) -> dict:
    """What one build did, as plain numbers (the cube itself is dropped)."""
    size = result.storage.size_report()
    stats, pool = result.stats, result.pool_stats
    return {
        "v2_ok": report.ok,
        "v2_problems": report.problems,
        "v2_bytes": report.file_bytes,
        "v2_section_bytes": section_bytes(report),
        "partitions": stats.partitions_created,
        "repartitioned": stats.repartitioned_partitions,
        "tasks_run": stats.tasks_run,
        "tasks_stolen": stats.tasks_stolen,
        "workers": stats.workers,
        "peak_worker_bytes": stats.peak_worker_bytes,
        "pool": {
            "flushes": pool.flushes,
            "signatures_added": pool.signatures_added,
            "nt_runs": pool.nt_runs,
            "cat_runs": pool.cat_runs,
        },
        "storage": {
            "nt_rows": size.n_nt,
            "tt_rows": size.n_tt,
            "cat_rows": size.n_cat,
            "total_bytes": size.total_bytes,
        },
    }


def run(seed: int, seconds: float, work: Path, tracer=None) -> Outcome:
    from repro.query.answer import normalize_answer, reference_group_by
    from repro.storage2.verify import verify_v2

    outcome = Outcome()

    setup_times, setup_written = [], []

    def sample_setup():
        written_before = io_write_bytes()
        for _ in range(SETUP_PER_SLOT):
            directory = work / f"setup{len(setup_times)}"
            pin(len(setup_times))
            started = time.perf_counter()
            generated = generate(seed)
            engine = store(directory, generated[1])
            setup_times.append(time.perf_counter() - started)
            engine.close()
            shutil.rmtree(directory)
        unpin()
        setup_written.append(io_write_bytes() - written_before)
        return generated

    schema, fact = sample_setup()
    n_nodes = schema.enumerator.n_nodes
    oracle_nodes = set(random.Random(seed).sample(range(n_nodes), ORACLE_NODES))

    build_times, publish_times, sweep_times, open_times, rates = [], [], [], [], []
    best = [float("inf")] * n_nodes
    digests = set()
    first = kept = None
    span = spans(tracer)
    io_before = io_write_bytes()
    deadline = time.perf_counter() + seconds
    iteration = 0
    while iteration < MIN_BUILDS or time.perf_counter() < deadline:
        with span("bench.measure"):
            engine = store(work / f"catalog{iteration}", fact)
            try:
                started = time.perf_counter()
                with span("bench.build"):
                    result, _plus = build(schema, engine)
                built = time.perf_counter()
            finally:
                engine.close()
            bundle_root = work / f"bundle{iteration}"
            with span("bench.publish"):
                publish(bundle_root, schema, fact, result.storage)
            published = time.perf_counter()
            build_times.append(built - started)
            publish_times.append(published - built)
            rates.append(len(fact) / (built - started))
            outcome.attempted += 2
            sweeps_end = time.perf_counter() + SWEEP_SECONDS
            keep = oracle_nodes if first is None else set()
            while time.perf_counter() < sweeps_end:
                pin(len(sweep_times))
                open_s, sweep_s, kept = sweep(bundle_root, schema, best, keep)
                open_times.append(open_s)
                sweep_times.append(sweep_s)
                outcome.attempted += n_nodes
                if keep:
                    first_answers = {node_id: normalize_answer(answer) for node_id, answer in kept.items()}
                    keep = set()
            unpin()
        v2 = bundle_root / "cube.v2"
        digests.add(hashlib.sha256(v2.read_bytes()).hexdigest())
        if first is None:
            first = build_facts(result, verify_v2(v2, bundle_root))
        result = kept = None  # hold one iteration's cube at a time
        shutil.rmtree(work / f"catalog{iteration}")
        if iteration:
            shutil.rmtree(work / f"bundle{iteration - 1}")
        iteration += 1
        sample_setup()
    shutil.rmtree(bundle_root)
    io_written = io_write_bytes() - io_before - sum(setup_written[1:])

    outcome.metrics = {
        "setup_s": median(setup_times),
        "throughput_per_s": max(rates),
        "latency_p50_ms": percentile(best, 50) * 1e3,
        "latency_p90_ms": percentile(best, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb() + children_peak_rss_mb(),
    }
    data_bytes = fact_bytes(schema, fact)
    outcome.report = {
        "build_s": (median(build_times), "s"),
        "publish_s": (median(publish_times), "s"),
        "cube_bytes_per_fact_byte": (first["v2_bytes"] / data_bytes, "ratio"),
        "lattice_query_s": (median(sweep_times), "s"),
    }

    # Correctness, outside the timed region.
    outcome.check(first.pop("v2_ok"), f"verify_v2 failed: {first.pop('v2_problems')}")
    outcome.check(len(digests) == 1, f"{len(digests)} different cube.v2 files from one input")
    outcome.check(first["partitions"] > 0, "the build did not take the external-partitioning path")
    for node_id in sorted(oracle_nodes):
        expected = reference_group_by(schema, fact.rows, schema.decode_node(node_id))
        outcome.check(first_answers[node_id] == expected, f"node {node_id} differs from reference_group_by")

    outcome.details.update(first)
    outcome.details.update(
        {
            "fact_rows": len(fact),
            "fact_bytes": data_bytes,
            "lattice_nodes": n_nodes,
            "iterations": iteration,
            "node_queries": len(sweep_times) * n_nodes,
            "latency_samples": n_nodes,
            "build_s_each": build_times,
            "bundle_open_s": median(open_times),
            "cube_bytes_per_fact_byte": first["v2_bytes"] / data_bytes,
            "io_write_bytes": io_written,
            "io_fact_bytes": data_bytes * iteration,
        }
    )
    return outcome
