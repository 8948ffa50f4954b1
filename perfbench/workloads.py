"""The benchmark's four workloads (see README.md for why each exists).

Every workload is driven only through the program's public API and is a
pure function of the workload seed: :func:`derive_seeds` turns it into
the trace, fault-schedule and policy seeds.  Each workload offers

* ``measure(seeds, seconds, work, expected)`` — the untraced run that
  yields the end-to-end metrics and the correctness verdict,
* ``traced(seeds, seconds, work, tracer, untraced)`` — one run with the
  layer tracer installed, whose spans give the per-layer metrics, and
* ``record(seeds, work)`` — the modelled-statistics digests to record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.analysis.parallel import run_many
from repro.cluster import (
    PAPER_NODE_CACHE_BYTES,
    ClusterConfig,
    ClusterSimulator,
    RetryPolicy,
    SimulationResult,
    generate_fault_schedule,
    run_simulation,
)
from repro.core import POLICY_NAMES
from repro.handoff import DocumentStore, HandoffCluster, fetch_one
from repro.obs import nearest_rank
from repro.workload import Trace, cached_trace

from layertrace import LayerTracer, SpanRecord

HERE = Path(__file__).resolve().parent

__all__ = ["Seeds", "derive_seeds", "split_seed", "Measurement", "Traced", "WORKLOADS", "stats_digest"]

#: Node cache of every simulated workload: 0.1 x the paper's 32 MB,
#: matching the 0.1-scale Rice-like catalog.
SIM_CACHE_BYTES = int(PAPER_NODE_CACHE_BYTES * 0.1)

# Timings are reported as they would read on a reference host, because a
# shared host's speed drifts by up to a third within minutes (README.md,
# "Timings are scaled to a reference host").  Simulations are scaled by a
# Python loop, the live cluster by a minimal loopback server.

#: Iterations per second of :func:`host_speed`'s loop on the reference host.
REFERENCE_LOOP_PER_S = 20e6
#: Exchanges per second of :meth:`LoopbackProbe.speed` on the reference host.
REFERENCE_EXCHANGES_PER_S = 10e3


def host_speed(iterations: int = 200_000) -> float:
    """Pure-Python loop iterations per second, measured now (about 10 ms)."""
    start = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i & 7
    return iterations / (time.perf_counter() - start)


def loop_scale() -> float:
    """Reference seconds per host second for pure-Python work, measured now."""
    return host_speed() / REFERENCE_LOOP_PER_S


@dataclass(frozen=True)
class Seeds:
    """Seeds derived from the one workload seed the benchmark takes."""

    workload: int
    trace: int
    faults: int
    policy: int


def split_seed(seed: int, count: int) -> List[int]:
    """``count`` independent seeds derived from one."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def derive_seeds(seed: int) -> Seeds:
    trace, faults, policy = split_seed(seed, 3)
    return Seeds(workload=seed, trace=trace, faults=faults, policy=policy)


def stats_digest(result: SimulationResult) -> str:
    """Digest of every modelled statistic of one simulation."""
    # The per-request delays go in as raw doubles: serializing 100k floats
    # as JSON would cost more than a tenth of the simulation itself.
    rest = dataclasses.asdict(dataclasses.replace(result, delays_s=[]))
    digest = hashlib.sha256(json.dumps(rest, sort_keys=True, default=repr).encode("utf-8"))
    digest.update(np.asarray(result.delays_s, dtype=np.float64).tobytes())
    return digest.hexdigest()[:20]


def config_digest(configs: Sequence[Any]) -> str:
    return hashlib.sha256(repr(list(configs)).encode("utf-8")).hexdigest()[:16]


@dataclass
class Measurement:
    """The outcome of one untraced run of a workload."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Failed correctness checks; empty means the outputs were correct.
    problems: List[str] = field(default_factory=list)
    #: Human-readable facts printed before the result line.
    notes: List[str] = field(default_factory=list)
    #: Modelled-statistics digests of the run (simulations only).
    digests: List[str] = field(default_factory=list)
    config_digest: str = ""
    #: Workload-specific raw values the traced run reports as layer metrics.
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass
class Traced:
    """The outcome of one traced run: raw inputs of the per-layer metrics."""

    req_per_s: float
    spans: List[SpanRecord]
    counts: Dict[str, int]
    results: List[SimulationResult] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


SpanFactory = Callable[[str], ContextManager[None]]


def _no_span(name: str) -> ContextManager[None]:
    return nullcontext()


def _median_time(action: Callable[[], Any], reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def modelled_metrics(results: Sequence[SimulationResult]) -> Dict[str, float]:
    """Simulated throughput, miss ratio and request delays: medians over runs.

    A few very large files set a catalog's tail delays and throughput, so
    a pooled figure follows the one catalog that drew them; the median
    over catalogs does not.
    """

    def one(r: SimulationResult) -> Dict[str, float]:
        delays = sorted(r.delays_s)
        return {
            "sim_cluster_rps": r.num_requests / r.sim_time_s,
            "sim_miss_ratio": r.cache_misses / (r.cache_hits + r.cache_misses),
            "latency_p50_ms": nearest_rank(delays, 50) * 1e3,
            "latency_p99_ms": nearest_rank(delays, 99) * 1e3,
        }

    each = [one(r) for r in results]
    return {name: statistics.median(e[name] for e in each) for name in each[0]}


# -- simulation workloads ------------------------------------------------------


class SimWorkload:
    """A workload whose unit of work is a set of simulation cells.

    A cell is one ``(trace index, ClusterConfig)`` pair.  One timed
    iteration simulates every cell once.
    """

    name = ""
    #: Independent Rice-like traces per run, and the requests in each.  The
    #: size draws of one 0.1-scale catalog move modelled results by about
    #: 15% from seed to seed; the median over eight catalogs keeps runs
    #: with different seeds comparable.
    catalogs = 1
    num_requests = 0
    setup_reps = 25
    #: Name of the benchmark's own span around one traced iteration.
    iteration_span = "bench.iteration"

    def traces(self, seeds: Seeds) -> List[Trace]:
        return [
            cached_trace("rice", num_requests=self.num_requests, scale=0.1, seed=seed)
            for seed in split_seed(seeds.trace, self.catalogs)
        ]

    def cells(self, seeds: Seeds) -> List[Tuple[int, ClusterConfig]]:
        raise NotImplementedError

    def run_cell(self, trace: Trace, config: ClusterConfig, index: int, work: Path) -> SimulationResult:
        return run_simulation(trace, config)

    def simulate(
        self, traces: List[Trace], cells: List[Tuple[int, ClusterConfig]], work: Path, span: SpanFactory = _no_span
    ) -> Tuple[List[SimulationResult], float, float]:
        """Every cell's result, and the reference and host seconds spent simulating.

        The host speed is measured between cells; each cell's time is
        scaled by the mean of the speeds on either side of it.
        """
        results = []
        elapsed = host = 0.0
        with span(self.iteration_span):
            scale = loop_scale()
            for index, (t, config) in enumerate(cells):
                start = time.perf_counter()
                results.append(self.run_cell(traces[t], config, index, work))
                took = time.perf_counter() - start
                after = loop_scale()
                elapsed += took * (scale + after) / 2
                host += took
                scale = after
        return results, elapsed, host

    def end_to_end(self, results: List[SimulationResult]) -> Dict[str, float]:
        """The modelled end-to-end metrics."""
        return modelled_metrics(results)

    def _setup(self, seeds: Seeds, cells: List[Tuple[int, ClusterConfig]]) -> None:
        traces = self.traces(seeds)
        for t, config in cells:
            ClusterSimulator(traces[t], config)

    def measure(
        self, seeds: Seeds, seconds: float, work: Path, expected: Optional[List[str]]
    ) -> Measurement:
        traces = self.traces(seeds)  # untimed: fills the trace memo on a first run
        cells = self.cells(seeds)
        setup_s = _median_time(lambda: self._setup(seeds, cells), self.setup_reps)
        m = Measurement(metrics={}, attempted=0, failed=0, config_digest=config_digest([c for _, c in cells]))
        if expected is None:
            m.notes.append(f"seed {seeds.workload} has no recorded statistics; checked run-to-run identity only")
        total = sum(len(traces[t]) for t, _ in cells)
        rates: List[float] = []
        host_rates: List[float] = []
        first: List[SimulationResult] = []
        deadline = time.perf_counter() + seconds
        took = 0.0
        # Start another iteration only if it is expected to end in time.
        while not rates or time.perf_counter() + took <= deadline:
            start = time.perf_counter()
            try:
                results, elapsed, host = self.simulate(traces, cells, work)
            except Exception as exc:  # a failing run counts all its requests as failed
                m.attempted += total
                m.failed += total
                m.problems.append(f"simulation raised {exc!r}")
                if time.perf_counter() >= deadline:
                    break
                continue
            took = time.perf_counter() - start
            rates.append(total / elapsed)
            host_rates.append(total / host)
            digests = [stats_digest(r) for r in results]
            want = expected if expected is not None else (m.digests or digests)
            if len(want) != len(digests):
                m.problems.append(f"{len(digests)} results but {len(want)} recorded")
            for result, got, wanted in zip(results, digests, want):
                m.attempted += result.num_requests
                if got != wanted:
                    m.failed += result.num_requests
            if not first:
                first, m.digests = results, digests
        if m.failed:
            m.problems.append(f"{m.failed} of {m.attempted} requests in runs whose statistics differ from the record")
        if rates:
            m.metrics["req_per_s"] = statistics.median(rates)
            m.notes.append(
                f"{len(rates)} timed iterations of {len(cells)} cells, {total} requests; "
                f"{statistics.median(host_rates):.6g} req/s on this host before scaling"
            )
        if first:
            m.metrics.update(self.end_to_end(first))
        m.metrics["setup_s"] = setup_s
        return m

    def record(self, seeds: Seeds, work: Path) -> List[str]:
        """Digests of this seed's modelled statistics, for the record."""
        results, _, _ = self.simulate(self.traces(seeds), self.cells(seeds), work)
        return [stats_digest(r) for r in results]

    def traced(
        self, seeds: Seeds, seconds: float, work: Path, tracer: LayerTracer, untraced: Measurement
    ) -> Traced:
        with tracer:
            with tracer.span("workload.trace_load"):
                traces = self.traces(seeds)
            cells = self.cells(seeds)
            results, elapsed, _ = self.simulate(traces, cells, work, span=tracer.span)
        tracer.collect_spool()
        spans, counts = tracer.results()
        total = sum(r.num_requests for r in results)
        out = Traced(req_per_s=total / elapsed, spans=spans, counts=counts, results=results, attempted=total)
        if [stats_digest(r) for r in results] != untraced.digests:
            out.failed = total
            out.problems.append("traced statistics differ from the untraced run's")
        return out


class SimReference(SimWorkload):
    """Every paper-figure cell's shape; runs entirely on the fast path."""

    name = "sim-reference"
    catalogs = 8
    num_requests = 12_500

    def cells(self, seeds: Seeds) -> List[Tuple[int, ClusterConfig]]:
        config = ClusterConfig(policy="lard/r", num_nodes=8, node_cache_bytes=SIM_CACHE_BYTES, collect_delays=True)
        return [(t, config) for t in range(self.catalogs)]


class SimChaos(SimWorkload):
    """Faults, persistent connections, the span log and the sanitizer at once."""

    name = "sim-chaos"
    catalogs = 8
    num_requests = 12_500

    @property
    def duration_s(self) -> float:
        """Rough simulated duration of a fault-free run; it scales the fault
        processes the way ``repro.analysis.chaos`` scales its scenarios."""
        return self.num_requests / 2500.0

    def cells(self, seeds: Seeds) -> List[Tuple[int, ClusterConfig]]:
        d = self.duration_s
        retry = RetryPolicy(max_retries=1, timeout_s=d / 50, backoff_base_s=d / 100, backoff_cap_s=d / 25)
        cells = []
        for t, fault_seed in enumerate(split_seed(seeds.faults, self.catalogs)):
            schedule = generate_fault_schedule(
                8,
                d * 0.8,
                seed=fault_seed,
                mttf_s=d * 0.6,
                mttr_s=d * 0.1,
                detect_s=d * 0.03,
                brownout_mttf_s=d * 0.35,
                brownout_duration_s=d * 0.15,
                cpu_factor=0.4,
                disk_factor=0.4,
                retry=retry,
            )
            config = ClusterConfig(
                policy="lard/r",
                num_nodes=8,
                node_cache_bytes=SIM_CACHE_BYTES,
                requests_per_connection=4,
                persistent_policy="rehandoff",
                fault_schedule=schedule,
                sanitize=True,
                collect_delays=True,
            )
            cells.append((t, config))
        return cells

    def run_cell(self, trace: Trace, config: ClusterConfig, index: int, work: Path) -> SimulationResult:
        return run_simulation(
            trace, config, trace_out=self.span_log(work, index), sample_interval_s=self.duration_s / 50
        )

    def span_log(self, work: Path, index: int) -> Path:
        return work / f"sim-chaos-span-log-{index}.jsonl"

    def traced(
        self, seeds: Seeds, seconds: float, work: Path, tracer: LayerTracer, untraced: Measurement
    ) -> Traced:
        out = super().traced(seeds, seconds, work, tracer, untraced)
        sizes = (self.span_log(work, i).stat().st_size for i in range(self.catalogs))
        out.extras["obs.span_log_mb"] = sum(sizes) / 2**20
        return out


class SimScaleout(SimWorkload):
    """All nine policies at 64 and 1024 nodes through the process pool."""

    name = "sim-scaleout"
    num_requests = 8_000
    setup_reps = 7
    node_counts = (64, 1024)
    iteration_span = "analysis.run_many"

    def cells(self, seeds: Seeds) -> List[Tuple[int, ClusterConfig]]:
        return [
            (0, ClusterConfig(policy=policy, num_nodes=nodes, node_cache_bytes=SIM_CACHE_BYTES, policy_seed=seeds.policy))
            for nodes in self.node_counts
            for policy in POLICY_NAMES
        ]

    def simulate(
        self, traces: List[Trace], cells: List[Tuple[int, ClusterConfig]], work: Path, span: SpanFactory = _no_span
    ) -> Tuple[List[SimulationResult], float, float]:
        """One ``run_many`` call, timed and scaled by the host speed around it.

        A call lasts seconds, so each side takes the median of five loops.
        """
        before = statistics.median(loop_scale() for _ in range(5))
        with span(self.iteration_span):
            start = time.perf_counter()
            results = run_many(traces[0], [config for _, config in cells], jobs=os.cpu_count() or 1)
            took = time.perf_counter() - start
        after = statistics.median(loop_scale() for _ in range(5))
        return results, took * (before + after) / 2, took

    def end_to_end(self, results: List[SimulationResult]) -> Dict[str, float]:
        """Modelled miss ratio, service rate and per-node mean delays.

        Modelled throughput and request delays here are set by a few large
        files at 1024 nodes and move a lot from seed to seed, so the
        workload reports the rate at which the modelled nodes serve
        requests while busy, and the percentiles over all nodes of all
        cells of each node's mean request delay.
        """
        hits = sum(r.cache_hits for r in results)
        misses = sum(r.cache_misses for r in results)
        busy = sum((r.cpu_busy_fraction + r.disk_busy_fraction) * r.sim_time_s * r.num_nodes for r in results)
        node_delays = sorted(d for r in results for d in r.per_node_mean_delay_s)
        return {
            "sim_cluster_rps": sum(r.num_requests for r in results) / busy,
            "sim_miss_ratio": misses / (hits + misses),
            "latency_p50_ms": nearest_rank(node_delays, 50) * 1e3,
            "latency_p99_ms": nearest_rank(node_delays, 99) * 1e3,
        }


# -- the live cluster ------------------------------------------------------------


@contextmanager
def _one_cpu() -> Iterator[None]:
    """Keep this thread, and the threads and processes it starts, on one CPU.

    On a small virtual machine, wake-ups that cross CPUs cost more and vary
    more than the request itself: with the cluster and its clients free to
    move, runs came out in two modes, one with half the throughput and a
    p99 four times longer.  On one CPU no run fell into the slow mode.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class LoopbackProbe:
    """A minimal loopback server the benchmark times the host with.

    Each exchange is what the live cluster does per request, without the
    program: connect, send a request line, accept, read it, answer a
    small response, close.  :meth:`speed` times a run of them from this
    thread against the probe's own server thread.
    """

    response = b"HTTP/1.0 200 OK\r\nContent-Length: 512\r\n\r\n" + b"x" * 512

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0), backlog=64)
        self.address = self._listener.getsockname()
        self._stopping = False
        self._thread = threading.Thread(target=self._serve, name="bench-loopback-probe", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            conn, _ = self._listener.accept()
            with conn:
                if self._stopping:
                    return
                conn.recv(1024)
                conn.sendall(self.response)

    def speed(self, exchanges: int = 1000) -> float:
        """Exchanges per second, measured now (about 70 ms)."""
        start = time.perf_counter()
        for _ in range(exchanges):
            with socket.create_connection(self.address) as conn:
                conn.sendall(b"GET / HTTP/1.0\r\n\r\n")
                while conn.recv(4096):
                    pass
        return exchanges / (time.perf_counter() - start)

    def scale(self) -> float:
        """Reference seconds per host second for the live cluster's work, measured now."""
        return self.speed() / REFERENCE_EXCHANGES_PER_S

    def close(self) -> None:
        self._stopping = True
        socket.create_connection(self.address).close()  # wakes the accept
        self._thread.join()
        self._listener.close()


def _open_fds() -> int:
    for directory in ("/proc/self/fd", "/dev/fd"):
        try:
            return len(os.listdir(directory))
        except OSError:
            continue
    return -1


def _histogram_quantile(bounds: Sequence[float], counts: Sequence[int], q: float) -> float:
    """Quantile from per-bucket counts, linear inside the bucket (as Prometheus)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    running = 0
    lower = 0.0
    for bound, n in zip(bounds, counts):
        if n and running + n >= rank:
            return lower + (bound - lower) * (rank - running) / n
        running += n
        lower = bound
    return bounds[-1]  # the rank falls in the +Inf bucket


@dataclass(frozen=True)
class Window:
    """One window of the live load, its times already on the reference host."""

    attempted: int
    ok: int
    seconds: float
    p50_s: float
    p99_s: float
    host_req_per_s: float

    @classmethod
    def measured(cls, wall: float, latencies: List[float], scale: float) -> "Window":
        """A window of ``wall`` host seconds; ``scale`` is reference seconds per host second."""
        ordered = sorted(latencies)
        ok = sum(1 for x in ordered if x != math.inf)
        return cls(
            attempted=len(ordered),
            ok=ok,
            seconds=wall * scale,
            p50_s=nearest_rank(ordered, 50) * scale,
            p99_s=nearest_rank(ordered, 99) * scale,
            host_req_per_s=ok / wall,
        )


def window_stats(windows: Sequence[Window]) -> Dict[str, float]:
    """Medians over the windows of verified req/s and of p50/p99 latency."""
    return {
        "req_per_s": statistics.median(w.ok / w.seconds for w in windows),
        "p50_s": statistics.median(w.p50_s for w in windows),
        "p99_s": statistics.median(w.p99_s for w in windows),
        "host_req_per_s": statistics.median(w.host_req_per_s for w in windows),
        "beyond_p99": min(w.attempted - math.ceil(0.99 * w.attempted) for w in windows),
    }


class LiveHandoff:
    """A real front-end handing real sockets to four back-ends on loopback."""

    name = "live-handoff"
    backends = 4
    cache_bytes = 256 * 1024
    miss_penalty_s = 0.002
    catalog_targets = 1000
    catalog_requests = 20_000
    setup_reps = 9
    #: Length of one window of the timed load; the host speed is measured
    #: between windows.
    window_s = 1.0
    #: Concurrent fetchers of the untimed warm-up.  LARD maps a new target
    #: to the least-loaded back-end, so a serial warm-up would map the
    #: whole catalog to back-end 0.
    warm_clients = 4 * backends

    def catalog(self, seeds: Seeds) -> Trace:
        # Fits the back-ends' combined caches, not one: the Fig. 18 regime.
        return cached_trace(
            "synthetic",
            num_requests=self.catalog_requests,
            num_targets=self.catalog_targets,
            total_bytes=int(self.backends * self.cache_bytes * 0.85),
            zipf_alpha=0.9,
            size_popularity_correlation=-0.4,
            seed=seeds.trace,
            name="live-catalog",
        )

    def prediction_config(self) -> ClusterConfig:
        return ClusterConfig(policy="lard/r", num_nodes=self.backends, node_cache_bytes=self.cache_bytes, collect_delays=True)

    def predict(self, seeds: Seeds) -> SimulationResult:
        """The simulator's prediction for the same request stream and cluster shape."""
        return run_simulation(self.catalog(seeds), self.prediction_config())

    def record(self, seeds: Seeds, work: Path) -> List[str]:
        return [stats_digest(self.predict(seeds))]

    def cluster_params(self) -> Dict[str, Any]:
        return dict(
            num_backends=self.backends,
            policy="lard/r",
            cache_bytes=self.cache_bytes,
            miss_penalty_s=self.miss_penalty_s,
        )

    def session(
        self, seeds: Seeds, seconds: float, work: Path, tracer: Optional[LayerTracer]
    ) -> Dict[str, Any]:
        """Set up (several times when untraced), warm, drive, check, tear down."""
        trace = self.catalog(seeds)
        span = tracer.span if tracer is not None else _no_span
        reps = self.setup_reps if tracer is None else 1
        setup_times: List[float] = []
        leaked_threads = leaked_fds = 0
        drive: Dict[str, Any] = {}
        # Every set-up rebuilds one docroot in place.  Creating a thousand
        # files costs whatever the filesystem's backlog from earlier runs
        # dictates (0.1 to 0.65 s on the build host); rewriting them costs a
        # steady 0.15 s.  So an untimed build creates the files first, and
        # the writes earlier runs left pending are flushed before timing.
        root = work / "docroot"
        DocumentStore.from_trace(root, trace)
        os.sync()
        with _one_cpu():
            probe = LoopbackProbe()
            for rep in range(reps):
                threads_before, fds_before = threading.active_count(), _open_fds()
                start = time.perf_counter()
                with span("workload.docroot"):
                    store, urls = DocumentStore.from_trace(root, trace)
                cluster = HandoffCluster(store, **self.cluster_params())
                cluster.start()
                setup_times.append(time.perf_counter() - start)
                try:
                    if rep == reps - 1:
                        drive = self._drive(cluster, urls, seconds, probe)
                finally:
                    cluster.stop()
                leaked_threads += threading.active_count() - threads_before
                leaked_fds += _open_fds() - fds_before
            probe.close()
        drive.update(
            setup_s=statistics.median(setup_times),
            leaked_threads=leaked_threads,
            leaked_fds=leaked_fds,
            urls=len(urls),
        )
        return drive

    def _drive(
        self,
        cluster: HandoffCluster,
        urls: List[str],
        seconds: float,
        probe: LoopbackProbe,
    ) -> Dict[str, Any]:
        address = cluster.address
        problems: List[str] = []

        def fetch_verified(url: str) -> bool:
            try:
                status, body = fetch_one(address, url, timeout=10.0)
            except (OSError, RuntimeError, ValueError):
                return False
            return status == 200 and cluster.verify(url, body)

        distinct = sorted(set(urls))
        with ThreadPoolExecutor(self.warm_clients) as pool:
            for _ in range(2):
                bad = sum(1 for ok in pool.map(fetch_verified, distinct) if not ok)
                if bad:
                    problems.append(f"{bad} warm-up requests failed")

        frontend = cluster.frontend
        hist = frontend.handoff_latency
        hist_before = hist.snapshot()[0] if hist is not None else []
        fe_before = (frontend.stats.rejected, frontend.stats.handoff_failures)
        be_before = [(b.stats.requests_served, b.stats.cache_hits, b.stats.cache_misses) for b in cluster.backends]

        clients = os.cpu_count() or 1
        expected = {url: cluster.store.expected_content(url) for url in distinct}
        # The clients run in a child process on two pipes (perfbench/loadgen.py).
        process = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py"), str(Path(repro.__file__).resolve().parent.parent)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        commands, results = process.stdin, process.stdout
        assert commands is not None and results is not None

        def send(message: Any) -> None:
            pickle.dump(message, commands)
            commands.flush()

        window_s = min(self.window_s, seconds)
        timed: List[Window] = []
        deadline = time.perf_counter() + seconds
        try:  # every window's samples are received before the wait below
            send((address, urls, expected, clients))
            scale = probe.scale()
            while not timed or time.perf_counter() + window_s <= deadline:
                send(window_s)
                ready, _, _ = select.select([results], [], [], window_s + 60)
                if not ready:
                    raise RuntimeError("the load generator gave no result within a minute of its window")
                wall, latencies = pickle.load(results)  # raises if the clients died
                after = probe.scale()
                timed.append(Window.measured(wall, latencies, (scale + after) / 2))
                scale = after
        finally:
            try:
                send(None)
                commands.close()
            except OSError:  # the clients already exited
                pass
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            results.close()  # its pipes are released before the fds are counted
        if not cluster.wait_idle(timeout_s=10.0):
            problems.append(f"dispatcher still has {cluster.dispatcher.in_flight} connections in flight")
        loads = cluster.dispatcher.loads
        if any(loads):
            problems.append(f"back-end loads not zero after the run: {loads}")

        be_after = [(b.stats.requests_served, b.stats.cache_hits, b.stats.cache_misses) for b in cluster.backends]
        served = [a[0] - b[0] for a, b in zip(be_after, be_before)]
        hits = sum(a[1] - b[1] for a, b in zip(be_after, be_before))
        misses = sum(a[2] - b[2] for a, b in zip(be_after, be_before))
        hist_delta: List[int] = []
        if hist is not None:
            cumulative = [a - b for a, b in zip(hist.snapshot()[0], hist_before)]
            hist_delta = [c - p for c, p in zip(cumulative, [0] + cumulative[:-1])]
        bounds = hist.buckets if hist is not None else ()
        return {
            "windows": timed,
            "clients": clients,
            "problems": problems,
            "handoff_p50_us": _histogram_quantile(bounds, hist_delta, 0.50) * 1e6 if hist_delta else 0.0,
            "handoff_p99_us": _histogram_quantile(bounds, hist_delta, 0.99) * 1e6 if hist_delta else 0.0,
            "backend_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "backend_imbalance": max(served) / statistics.mean(served) if any(served) else 0.0,
            "rejected": frontend.stats.rejected - fe_before[0],
            "handoff_failures": frontend.stats.handoff_failures - fe_before[1],
        }

    def measure(
        self, seeds: Seeds, seconds: float, work: Path, expected: Optional[List[str]]
    ) -> Measurement:
        run = self.session(seeds, seconds, work, tracer=None)
        timed = run["windows"]
        m = Measurement(
            metrics={},
            attempted=sum(w.attempted for w in timed),
            failed=sum(w.attempted - w.ok for w in timed),
            problems=list(run["problems"]),
            config_digest=config_digest([self.cluster_params(), self.prediction_config()]),
        )
        if m.failed:
            m.problems.append(f"{m.failed} of {m.attempted} requests without a verified 200")
        windows = window_stats(timed)
        m.notes.append(
            f"{m.attempted} latency samples from {run['clients']} closed-loop clients in "
            f"{len(timed)} windows; at least {windows['beyond_p99']} beyond p99 in each; "
            f"{windows['host_req_per_s']:.6g} req/s on this host before scaling"
        )
        if windows["beyond_p99"] < 10:
            m.notes.append("fewer than 10 samples beyond p99 in a window: latency_p99_ms is not supported")
        m.extras = {"handoff.leaked_threads": run["leaked_threads"], "handoff.leaked_fds": run["leaked_fds"]}
        prediction = self.predict(seeds)
        m.digests = [stats_digest(prediction)]
        if expected is None:
            m.notes.append(f"seed {seeds.workload} has no recorded prediction statistics")
        elif m.digests != expected:
            m.problems.append("simulated prediction differs from the record")
        modelled = modelled_metrics([prediction])
        m.metrics.update(
            req_per_s=windows["req_per_s"],
            setup_s=run["setup_s"],
            latency_p50_ms=windows["p50_s"] * 1e3,
            latency_p99_ms=windows["p99_s"] * 1e3,
            sim_cluster_rps=modelled["sim_cluster_rps"],
            sim_miss_ratio=modelled["sim_miss_ratio"],
        )
        return m

    def traced(
        self, seeds: Seeds, seconds: float, work: Path, tracer: LayerTracer, untraced: Measurement
    ) -> Traced:
        tracer.policy_label = "lard-r"
        with tracer:
            run = self.session(seeds, seconds, work, tracer=tracer)
        spans, counts = tracer.results()
        timed = run["windows"]
        out = Traced(req_per_s=window_stats(timed)["req_per_s"], spans=spans, counts=counts)
        out.attempted = sum(w.attempted for w in timed)
        out.failed = sum(w.attempted - w.ok for w in timed)
        out.problems = list(run["problems"])
        out.extras = {
            "handoff.handoff_latency_p50_us": run["handoff_p50_us"],
            "handoff.handoff_latency_p99_us": run["handoff_p99_us"],
            "handoff.backend_hit_ratio": run["backend_hit_ratio"],
            "handoff.backend_imbalance": run["backend_imbalance"],
            "handoff.rejected": run["rejected"],
            "handoff.handoff_failures": run["handoff_failures"],
            "handoff.leaked_threads": run["leaked_threads"] + untraced.extras["handoff.leaked_threads"],
            "handoff.leaked_fds": run["leaked_fds"] + untraced.extras["handoff.leaked_fds"],
        }
        return out


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (SimReference(), SimChaos(), SimScaleout(), LiveHandoff())
}
