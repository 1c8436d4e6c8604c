"""ingest-mixed: streaming appends beside reads, under CURE+.

The 9-node schema (A 100→10, B 50→5; SUM and COUNT of one measure) with
20,000 base facts is bootstrapped into a :class:`StreamingIngestor`
with CURE+ post-processing and a planner attached (64 MB result cache).
One round appends 50 records of 50 rows; each is appended durably,
sealed and applied, ten ``mixed_workload`` reads run between records and
a checkpoint commits after the 50th record.  Rounds replay the same
records on a fresh bootstrap, at least five and until the run's seconds
are up, so every record and every read is timed several times.

End-to-end metrics:

* ``setup_s`` — ``StreamingIngestor.bootstrap``: the median of three
  before the first round and of three after every round, and of every
  round's own bootstrap, so that the samples span the run;
* ``throughput_per_s`` — rows per second through the record loop
  (append + seal, ``apply_ready`` and the ten reads beside each record),
  each step at its fastest over the rounds.  Checkpoints are left out:
  they are fsync-bound and spread 0.3-0.7 between runs.  The loop's
  parts are reported beside it (``append_events_per_s``,
  ``apply_events_per_s``, ``checkpoint_s``), ungated;
* ``latency_p50_ms`` / ``latency_p90_ms`` — over the reads of a round,
  each read's fastest time (answer + canonical encode) over the rounds;
* ``peak_rss_mb`` — this process's ``VmHWM``.

Fastest-of-rounds figures: on a shared machine, interference from other
tenants only ever adds time, in bursts that a single pass feels.  Record
``i`` of round ``r``, with the reads after it, runs on CPU ``i + r`` of
``measure.CPUS`` (cyclically), and bootstrap ``k`` on CPU ``k``, so that
each step is timed on every CPU (see ``measure.pin``).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from measure import CPUS, Outcome, io_write_bytes, median, peak_rss_mb, percentile, pin, spans

BASE_ROWS = 20_000
RECORD_ROWS = 50
READS_PER_RECORD = 10
CHECKPOINT_EVERY = 50
#: Timed bootstraps before the first round and after every round.
BOOTSTRAPS_PER_SLOT = 3
#: The read ops are the same on every seed: which nodes a Zipf draw makes
#: hot decides how many reads hit the result cache, and the read median
#: sits between the hit and the miss latencies.
READS_SEED = 7
#: Records per round.  A record's apply cost falls as the cube fills (the
#: first records devalue the most TTs), so every round replays the same
#: records from the same bootstrap instead of counting records by clock.
RECORDS = 50
MIN_ROUNDS = 5
CHECK_READS_EVERY = 25
RESULT_CACHE_BYTES = 64 * 1024 * 1024


def schema():
    from repro import CubeSchema, linear_dimension, make_aggregates

    a = linear_dimension("A", [("A0", 100), ("A1", 10)])
    b = linear_dimension("B", [("B0", 50), ("B1", 5)])
    return CubeSchema((a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1)


def rows(rng: random.Random, n: int) -> list[tuple]:
    return [(rng.randrange(100), rng.randrange(50), rng.randrange(1000)) for _ in range(n)]


def open_engine(directory: Path):
    from repro.relational.catalog import Catalog
    from repro.relational.engine import Engine
    from repro.relational.memory import MemoryManager

    return Engine(Catalog(directory), MemoryManager())


def bootstrap(cube_schema, base: list[tuple], directory: Path):
    from repro import Table
    from repro.ingest import StreamingIngestor
    from repro.query import CubePlanner, FactCache
    from repro.query.cache import ResultCache

    engine = open_engine(directory / "catalog")
    ingestor = StreamingIngestor.bootstrap(
        cube_schema,
        engine,
        Table(cube_schema.fact_schema, list(base)),
        directory / "log",
        plus=True,
    )
    ingestor.planner = CubePlanner(
        ingestor.storage,
        FactCache(cube_schema, table=ingestor.fact_table),
        results=ResultCache(max_entries=4096, max_bytes=RESULT_CACHE_BYTES),
    )
    return engine, ingestor


def node_answers(cube_schema, storage, fact_table) -> dict[int, list]:
    """Every node's answer straight from the storage (no result cache)."""
    from repro.query import FactCache
    from repro.query.answer import answer_cure_query, normalize_answer

    cache = FactCache(cube_schema, table=fact_table)
    return {
        node_id: normalize_answer(answer_cure_query(storage, cache, cube_schema.decode_node(node_id)))
        for node_id in range(cube_schema.enumerator.n_nodes)
    }


def replay_records(ingestor, cube_schema, records, reads, outcome: Outcome, round_index: int) -> dict:
    """Append, seal and apply every record, with reads between and a
    checkpoint every ``CHECKPOINT_EVERY`` records; returns the times."""
    from repro.query import CubePlanner, FactCache
    from repro.server.replay import replay_op

    times = {"append": [], "apply": [], "reads": [], "checkpoint": [], "checkpoint_bytes": []}
    for index, batch in enumerate(records, start=1):
        pin(index + round_index)
        started = time.perf_counter()
        ingestor.append(batch)
        ingestor.log.seal()
        sealed = time.perf_counter()
        applied = ingestor.apply_ready()
        done = time.perf_counter()
        times["append"].append(sealed - started)
        times["apply"].append(done - sealed)
        outcome.attempted += 1
        if applied != 1:
            outcome.fail(f"record {index}: apply_ready applied {applied} records")
        if index % CHECKPOINT_EVERY == 0:
            written_before = io_write_bytes()
            started = time.perf_counter()
            ingestor.checkpoint()
            times["checkpoint"].append(time.perf_counter() - started)
            times["checkpoint_bytes"].append(io_write_bytes() - written_before)
            outcome.attempted += 1
        first = (index * READS_PER_RECORD) % len(reads)
        window = reads[first : first + READS_PER_RECORD]
        bodies = []
        for op in window:
            started = time.perf_counter()
            bodies.append(replay_op(ingestor.planner, op))
            times["reads"].append(time.perf_counter() - started)
        outcome.attempted += len(window)
        if index % CHECK_READS_EVERY == 0:
            # Cached reads must match a fresh, uncached computation.
            fresh = CubePlanner(ingestor.storage, FactCache(cube_schema, table=ingestor.fact_table), results=None)
            for op, body in zip(window, bodies):
                if replay_op(fresh, op) != body:
                    outcome.fail(f"record {index}: cached read of {op.kind} {op.node} is stale")
    return times


def fastest(rounds: list[dict], key: str) -> list[float]:
    """Per position, the fastest time of ``key`` over every round."""
    return [min(column) for column in zip(*(times[key] for times in rounds))]


def run(seed: int, seconds: float, work: Path, tracer=None) -> Outcome:
    from repro.ingest import StreamingIngestor
    from repro.query.answer import reference_group_by
    from repro.query.workload import mixed_workload

    outcome = Outcome()
    cube_schema = schema()
    rng = random.Random(seed)
    base = rows(rng, BASE_ROWS)
    records = [rows(rng, RECORD_ROWS) for _ in range(RECORDS)]
    reads = mixed_workload(cube_schema, RECORDS * READS_PER_RECORD, seed=READS_SEED)

    setup_times = []

    def timed_bootstrap(directory: Path):
        pin(len(setup_times))
        started = time.perf_counter()
        opened = bootstrap(cube_schema, base, directory)
        setup_times.append(time.perf_counter() - started)
        return opened

    setup_written = []

    def sample_setup():
        written_before = io_write_bytes()
        for _ in range(BOOTSTRAPS_PER_SLOT):
            engine, _ingestor = timed_bootstrap(work / f"setup{len(setup_times)}")
            engine.close()
        setup_written.append(io_write_bytes() - written_before)

    sample_setup()
    rounds = []
    hits = lookups = 0
    io_before = io_write_bytes()
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        if rounds:
            engine.close()
        root = work / f"ingest{len(rounds)}"
        engine, ingestor = timed_bootstrap(root)
        cache_stats = ingestor.planner.results.stats
        with spans(tracer)("bench.measure"):
            rounds.append(replay_records(ingestor, cube_schema, records, reads, outcome, len(rounds)))
        hits += cache_stats.hits
        lookups += cache_stats.hits + cache_stats.misses
        sample_setup()
    io_written = io_write_bytes() - io_before - sum(setup_written[1:])

    append_s, apply_s, read_s = fastest(rounds, "append"), fastest(rounds, "apply"), fastest(rounds, "reads")
    outcome.metrics = {
        "setup_s": median(setup_times),
        "throughput_per_s": RECORDS * RECORD_ROWS / (sum(append_s) + sum(apply_s) + sum(read_s)),
        "latency_p50_ms": percentile(read_s, 50) * 1e3,
        "latency_p90_ms": percentile(read_s, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    checkpoints = [value for times in rounds for value in times["checkpoint"]]
    outcome.report = {
        "read_p99_ms": (percentile(read_s, 99) * 1e3, "ms"),
        "append_events_per_s": (RECORDS * RECORD_ROWS / sum(append_s), "ev/s"),
        "apply_events_per_s": (RECORDS * RECORD_ROWS / sum(apply_s), "ev/s"),
        "checkpoint_s": (median(checkpoints), "s"),
    }

    # Correctness after the last checkpoint: every node against the
    # reference group-by, and recovery reads the same answers.
    ingestor.checkpoint()
    all_rows = base + [row for batch in records for row in batch]
    outcome.check(len(ingestor.fact_table) == len(all_rows), "fact table lost rows")
    answers = node_answers(cube_schema, ingestor.storage, ingestor.fact_table)
    for node_id, answer in answers.items():
        expected = reference_group_by(cube_schema, all_rows, cube_schema.decode_node(node_id))
        outcome.check(answer == expected, f"node {node_id} differs from reference_group_by")
    engine.close()
    engine = open_engine(root / "catalog")
    try:
        recovered = StreamingIngestor.recover(cube_schema, engine, root / "log")
        outcome.check(
            node_answers(cube_schema, recovered.storage, recovered.fact_table) == answers,
            "recovered cube answers differ",
        )
    finally:
        engine.close()

    outcome.details.update(
        {
            "fact_rows": len(all_rows),
            "base_rows": BASE_ROWS,
            "cpus": CPUS,
            "lattice_nodes": cube_schema.enumerator.n_nodes,
            "rounds": len(rounds),
            "records": len(rounds) * RECORDS,
            "events": len(rounds) * RECORDS * RECORD_ROWS,
            "reads": len(rounds) * len(read_s),
            "latency_samples": len(read_s),
            "checkpoints": len(checkpoints),
            "checkpoint_bytes_written": median([value for times in rounds for value in times["checkpoint_bytes"]]),
            "record_loop_s_each": [sum(times["append"]) + sum(times["apply"]) + sum(times["reads"]) for times in rounds],
            "results_dropped": ingestor.stats.results_dropped,
            "result_cache": {
                "bytes": ingestor.planner.results.total_bytes,
                "max_bytes": RESULT_CACHE_BYTES,
                "entries": len(ingestor.planner.results),
                "hit_ratio": hits / lookups if lookups else None,
                "lookups": lookups,
                "rejected": cache_stats.rejected,
            },
            "io_write_bytes": io_written,
            "io_fact_bytes": len(rounds) * RECORDS * RECORD_ROWS * cube_schema.fact_schema.row_size_bytes,
        }
    )
    return outcome
