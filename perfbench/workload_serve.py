"""serve-hot and serve-scan: the APB bundle behind ``python -m repro serve``.

Both workloads publish the build-apb bundle once per run (outside every
timed region) and serve it from ``repro serve`` in its own process with
CLI defaults (64 MB result cache).  A list of 300 ops is replayed over
HTTP: one warm-up pass, then the measured passes cycle through it.

* serve-hot: the default browse mix (``DEFAULT_MIX``, Zipf s=1.1) drawn
  with a fixed seed (``OPS_SEED``).  After the warm-up pass
  every node and slice answer of the list sits in the result cache and
  is served from it; roll-up and iceberg answers (about a quarter of the
  requests) are computed on every request.
* serve-scan: uniform node choice over a roll-up/iceberg mix (0.5/0.5,
  ``min_count`` 8-64), drawn with the same fixed seed.  Final answers of
  both kinds never enter the result cache; only the base-node answers
  roll-ups start from do.

End-to-end metrics:

* ``setup_s`` — spawn ``repro serve`` until its first 200: the median
  of two spawns before the measured rounds and two after each, so
  that the samples span the run (the last spawn before the rounds is
  the server measured; the others are stopped once they answer);
* ``throughput_per_s`` — closed loop, one connection: the op list's
  requests over the sum of each request's fastest round trip over the
  run's passes;
* ``latency_p50_ms`` / ``latency_p90_ms`` — over the op list, each
  request's fastest round trip;
* ``peak_rss_mb`` — the server's ``VmHWM``.

The open loop at the workload's fixed rate, over two connections with
each request timed from its due time, is reported beside them
(``open_loop_p50_ms``, ``open_loop_p99_ms``, requests over the p99
limit, generator lateness, backlog) but not gated: on a shared 2-vCPU
virtual machine its percentiles spread 0.2-0.7 between runs, the closed
loop's under 0.1.  Every closed-loop request is reported too
(``closed_loop_rps``, ``closed_loop_p50_ms``, ``closed_loop_p99_ms``);
the gated figures take each request at its fastest because other
tenants' interference only ever adds time.  A failed request counts as
missing every latency limit.  The benchmark and the server share one CPU,
a different one on each closed-loop pass and each spawn (see
``measure.pin``); the two loops alternate in three rounds so that each
samples the whole run.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workload_build
from measure import CPUS, Outcome, median, percentile, pin, proc_status_kb

N_OPS = 300
#: Timed spawns before the measured rounds and after each.
SPAWNS_PER_SLOT = 2
CLOSED_SHARE = 0.75
ROUNDS = 3
FAILED_LATENCY_S = 3600.0
CONNECTIONS = 2
ORACLE_OPS = 4
#: The op lists are the same whatever the run's seed, which then changes
#: only the facts: serve-hot's cost is set by which nodes the Zipf draw
#: makes hot, so a seeded hot set would change the cached working set from
#: seed to seed, and serve-scan's by which nodes its 300 draws roll up
#: (seeded lists moved its throughput by 0.18 between seeds).
OPS_SEED = 7
BANNER = re.compile(rb"on http://([0-9.]+):(\d+)")


@dataclass(frozen=True)
class Traffic:
    """One serve workload: its op mix, the open-loop rate and the p99
    limit that rate was chosen to meet."""

    rate_per_s: float
    p99_limit_ms: float
    mix: tuple[tuple[str, float], ...] | None = None
    zipf_s: float = 1.1
    min_count_range: tuple[int, int] = (2, 4)

    def ops(self, schema):
        from repro.query.workload import DEFAULT_MIX, mixed_workload

        return mixed_workload(
            schema,
            N_OPS,
            seed=OPS_SEED,
            mix=self.mix or DEFAULT_MIX,
            zipf_s=self.zipf_s,
            min_count_range=self.min_count_range,
        )


HOT = Traffic(rate_per_s=60.0, p99_limit_ms=150.0)
SCAN = Traffic(
    rate_per_s=120.0,
    p99_limit_ms=50.0,
    mix=(("rollup", 0.5), ("iceberg", 0.5)),
    zipf_s=0.0,
    min_count_range=(8, 64),
)


class ServerProcess:
    """``python -u -m repro serve --port 0`` in its own process.

    The banner line names the bound port; the per-request stderr log is
    discarded.  :meth:`stop` interrupts the server (its clean shutdown
    path), and kills it if it does not exit; it is safe to call twice.
    """

    def __init__(self, bundle: Path, env: dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--cube", str(bundle), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            env={**env, "PYTHONUNBUFFERED": "1"},
        )
        try:
            self.host, self.port = self._read_banner(timeout=60.0)
            self.setup_s = self._wait_ready(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_banner(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        buffered = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.5):
                    if self.process.poll() is not None:
                        break
                    continue
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = BANNER.search(buffered)
                if match:
                    return match.group(1).decode(), int(match.group(2))
        raise RuntimeError(f"repro serve printed no banner: {buffered[:200]!r}")

    def _wait_ready(self, timeout: float) -> float:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _body = fetch(http.client.HTTPConnection(self.host, self.port), "/cube")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /cube with 200")

    def peak_rss_mb(self) -> float:
        return proc_status_kb(self.process.pid, "VmHWM") / 1024

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()


class CountingConnection(http.client.HTTPConnection):
    """An HTTP connection that counts the TCP connections it opens."""

    opened = 0
    _lock = threading.Lock()

    def connect(self) -> None:
        super().connect()
        with CountingConnection._lock:
            CountingConnection.opened += 1


def fetch(connection: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, response.read()


@dataclass
class Responses:
    """Every measured response, checked for consistency as it arrives."""

    first_body: dict[str, bytes] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    bad_status: int = 0
    inconsistent: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, path: str, status: int, body: bytes) -> bool:
        with self.lock:
            self.counts[path] = self.counts.get(path, 0) + 1
            if status != 200:
                self.bad_status += 1
                return False
            known = self.first_body.setdefault(path, body)
            if known != body:
                self.inconsistent += 1
                return False
            return True


def closed_loop(host, port, paths, duration, responses, best, latencies, rates, pids, span=None):
    """One connection, next request after the previous reply, in whole
    passes over ``paths`` until ``duration`` is used (at least one).
    Pass ``k`` of the run runs here and in the processes ``pids`` on
    CPU ``k`` of :data:`measure.CPUS`, cyclically.

    Lowers ``best[i]`` to the fastest round trip of ``paths[i]`` so far
    (a failed request pins it at ``FAILED_LATENCY_S``), and appends every
    round trip and the throughput of each pass.
    """
    connection = CountingConnection(host, port)
    deadline = time.perf_counter() + duration
    passes = 0
    try:
        while passes == 0 or time.perf_counter() < deadline:
            passes += 1
            pin(len(rates), pids)
            started = time.perf_counter()
            for i, path in enumerate(paths):
                before = time.perf_counter()
                try:
                    if span:
                        with span("http.request"):
                            status, body = fetch(connection, path)
                    else:
                        status, body = fetch(connection, path)
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                    connection.close()
                elapsed = time.perf_counter() - before
                if not responses.add(path, status, body):
                    elapsed = best[i] = FAILED_LATENCY_S
                elif best[i] != FAILED_LATENCY_S:
                    best[i] = min(best[i], elapsed)
                latencies.append(elapsed)
            rates.append(len(paths) / (time.perf_counter() - started))
    finally:
        connection.close()


def open_loop(host, port, paths, first, rate, duration, responses, latencies, lateness):
    """Requests due every ``1/rate`` seconds, sent by ``CONNECTIONS``
    threads; each latency counts from the request's due time.

    Appends each latency and how late each request
    was sent; returns the backlog: requests due in the window but never
    sent.  Request ``i`` of the window is ``paths[first + i]``, cyclically.
    """
    interval = 1.0 / rate
    due_count = int(duration * rate)
    t0 = time.perf_counter() + 0.05
    window_end = t0 + duration
    cursor = [0]
    lock = threading.Lock()

    def worker() -> None:
        connection = CountingConnection(host, port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= due_count:
                        return
                    due = t0 + i * interval
                    if time.perf_counter() >= window_end:
                        return
                    cursor[0] += 1
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                path = paths[(first + i) % len(paths)]
                try:
                    status, body = fetch(connection, path)
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                    connection.close()
                done = time.perf_counter()
                ok = responses.add(path, status, body)
                with lock:
                    lateness.append(sent - due)
                    latencies.append(done - due if ok else FAILED_LATENCY_S)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return due_count - cursor[0]


def server_stats(host: str, port: int) -> dict:
    status, body = fetch(http.client.HTTPConnection(host, port), "/stats")
    if status != 200:
        raise RuntimeError(f"/stats returned {status}")
    return json.loads(body)


def expected_answer(schema, fact_rows, op):
    """The answer to ``op`` from ``reference_group_by`` alone."""
    from repro.query.answer import reference_group_by

    rows = reference_group_by(schema, fact_rows, op.node)
    if op.kind == "slice":
        grouping = list(op.node.grouping_dims(schema.dimensions))
        for item in op.slices:
            position = grouping.index(item.dim)
            rows = [row for row in rows if row[0][position] in item.members]
    elif op.kind == "iceberg":
        count = schema.count_aggregate_index()
        rows = [row for row in rows if row[1][count] >= op.min_count]
    return rows


def verify(outcome: Outcome, bundle_root: Path, schema, fact, ops, paths, responses, seed):
    """Every measured body equals the in-process replay; a sample of
    decoded answers equals the reference group-by."""
    import repro.bundle
    from repro.query.answer import normalize_answer
    from repro.server.encoding import decode_answer
    from repro.server.replay import replay_op

    outcome.check(responses.bad_status == 0, f"{responses.bad_status} responses were not 200")
    outcome.check(responses.inconsistent == 0, f"{responses.inconsistent} bodies differ between repeats of one request")
    outcome.failed += max(0, responses.bad_status - 1) + max(0, responses.inconsistent - 1)
    op_of = dict(zip(paths, ops))
    with repro.bundle.open_bundle(bundle_root) as bundle:
        planner = bundle.planner(result_cache_bytes=64 * 1024 * 1024, result_cache_entries=4096)
        for path, body in responses.first_body.items():
            outcome.attempted += responses.counts[path]
            if replay_op(planner, op_of[path]) != body:
                outcome.fail(f"{path}: HTTP body differs from replay_op", responses.counts[path])
    sample = random.Random(seed).sample(sorted(responses.first_body), ORACLE_OPS)
    for path in sample:
        _meta, answer = decode_answer(responses.first_body[path])
        outcome.check(
            normalize_answer(answer) == expected_answer(schema, fact.rows, op_of[path]),
            f"{path}: answer differs from reference_group_by",
        )


def run(traffic: Traffic, seed: int, seconds: float, work: Path, env: dict, tracer=None) -> Outcome:
    from repro.server.replay import op_path

    outcome = Outcome()
    schema, fact = workload_build.generate(seed)
    bundle_root = workload_build.build_bundle(work, schema, fact)
    outcome.details["cpus"] = CPUS
    ops = traffic.ops(schema)
    paths = [op_path(schema, op) for op in ops]
    responses = Responses()

    setup_times = []

    def sample_setup(keep_last: bool):
        for spawn in range(SPAWNS_PER_SLOT):
            pin(len(setup_times))
            probe = ServerProcess(bundle_root, env)
            setup_times.append(probe.setup_s)
            if keep_last and spawn == SPAWNS_PER_SLOT - 1:
                return probe
            probe.stop()
        return None

    server = None
    try:
        server = sample_setup(keep_last=True)
        host, port = server.host, server.port
        pids = [server.process.pid]

        warm = Responses()
        connection = CountingConnection(host, port)
        for path in paths:  # the warm-up pass
            warm.add(path, *fetch(connection, path))
        before = server_stats(host, port)
        CountingConnection.opened = 0

        best = [float("inf")] * len(paths)
        closed, rates, open_latencies, lateness = [], [], [], []
        backlog = 0
        if tracer is not None:
            with tracer.span("bench.measure"):
                closed_loop(
                    host, port, paths, seconds * CLOSED_SHARE, responses, best, closed, rates, pids, tracer.span
                )
        else:
            # Alternate the two loops so both sample the whole run.
            for _ in range(ROUNDS):
                closed_loop(
                    host, port, paths, seconds * CLOSED_SHARE / ROUNDS, responses, best, closed, rates, pids
                )
                backlog += open_loop(
                    host, port, paths, len(open_latencies), traffic.rate_per_s,
                    seconds * (1 - CLOSED_SHARE) / ROUNDS, responses, open_latencies, lateness,
                )
                sample_setup(keep_last=False)
        requests = len(closed) + len(open_latencies)
        connections = CountingConnection.opened
        after = server_stats(host, port)
        server_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    outcome.metrics = {
        "setup_s": median(setup_times),
        "throughput_per_s": len(best) / sum(best),
        "latency_p50_ms": percentile(best, 50) * 1e3,
        "latency_p90_ms": percentile(best, 90) * 1e3,
        "peak_rss_mb": server_rss,
    }
    outcome.report = {
        "throughput_rps": (outcome.metrics["throughput_per_s"], "req/s"),
        "closed_loop_rps": (median(rates), "req/s"),
        "closed_loop_p50_ms": (percentile(closed, 50) * 1e3, "ms"),
        "closed_loop_p99_ms": (percentile(closed, 99) * 1e3, "ms"),
    }
    if open_latencies:
        outcome.report["open_loop_p50_ms"] = (percentile(open_latencies, 50) * 1e3, "ms")
        outcome.report["open_loop_p99_ms"] = (percentile(open_latencies, 99) * 1e3, "ms")
    verify(outcome, bundle_root, schema, fact, ops, paths, responses, seed)
    if warm.bad_status or warm.inconsistent:
        outcome.fail("warm-up pass had failures")

    results = {key: after["result_cache"][key] - before["result_cache"][key] for key in ("hits", "misses", "rejected")}
    facts = {key: after["fact_cache"][key] - before["fact_cache"][key] for key in ("hits", "misses")}
    lookups = results["hits"] + results["misses"]
    kind_of = {path: op.kind for path, op in zip(paths, ops)}
    kinds: dict[str, int] = {}
    for path, count in responses.counts.items():
        kinds[kind_of[path]] = kinds.get(kind_of[path], 0) + count
    # A node or slice request is answered from the result cache when its
    # one lookup hits; roll-up and iceberg answers are computed on every
    # request (a roll-up's base-node lookup may hit).  Every miss is
    # charged to a node or slice request, so the share is a lower bound,
    # exact when nothing missed.
    from_cache = max(0, kinds.get("node", 0) + kinds.get("slice", 0) - results["misses"])
    outcome.details.update(
        {
            "fact_rows": len(fact),
            "lattice_nodes": schema.enumerator.n_nodes,
            "ops": len(ops),
            "distinct_requests": len(set(paths)),
            "latency_samples": len(best),
            "closed_loop": {"requests": len(closed), "passes": len(rates), "pass_rates_per_s": rates},
            "open_loop": {
                "rate_per_s": traffic.rate_per_s,
                "connections": CONNECTIONS,
                "requests": len(open_latencies),
                "p99_limit_ms": traffic.p99_limit_ms,
                "over_limit": sum(1 for value in open_latencies if value * 1e3 > traffic.p99_limit_ms),
                "lateness_p50_ms": percentile(lateness, 50) * 1e3 if lateness else None,
                "lateness_p99_ms": percentile(lateness, 99) * 1e3 if lateness else None,
                "backlog": backlog,
            },
            "requests": requests,
            "connections_per_request": connections / requests,
            "result_cache": {
                "bytes": after["result_cache"]["bytes"],
                "max_bytes": after["result_cache"]["max_bytes"],
                "entries": after["result_cache"]["entries"],
                "hit_ratio": results["hits"] / lookups if lookups else None,
                "lookups": lookups,
                "rejected": results["rejected"],
                "requests_answered_share": from_cache / requests,
            },
            "request_kinds": kinds,
            "fact_cache_hit_ratio": facts["hits"] / (facts["hits"] + facts["misses"])
            if facts["hits"] + facts["misses"]
            else None,
            "server_errors": after["errors"],
        }
    )
    return outcome
