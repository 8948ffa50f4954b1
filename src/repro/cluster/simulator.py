"""Top-level trace-driven cluster simulation (paper Sections 3 and 4).

:class:`ClusterConfig` captures every knob the paper sweeps — strategy,
cluster size, per-node cache size and replacement policy, disks per node,
CPU speed — with defaults equal to the paper's defaults (GDS replacement,
32 MB caches, one disk, T_low=25 / T_high=65, K=20 s).
:func:`run_simulation` wires the policy, back-ends and front-end together,
runs the trace to completion, and returns a
:class:`~repro.cluster.metrics.SimulationResult`.

Multi-disk placement follows the paper's footnote: "the files were
distributed across the disks in round-robin fashion based on decreasing
order of request frequency in the trace" — see :func:`stripe_by_frequency`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from ..cache import GDSCache, GlobalMemorySystem, LFUCache, LRUCache
from ..cache.base import Cache
from ..core import Policy, make_policy, uses_gms
from ..core.base import DEFAULT_T_HIGH, DEFAULT_T_LOW
from ..core.lardr import DEFAULT_K_SECONDS
from ..sim import Engine, InvariantSanitizer
from ..workload.trace import Trace
from .costs import PAPER_NODE_CACHE_BYTES, CostModel
from .faults import FaultRuntime, FaultSchedule
from .frontend import FrontEnd
from .metrics import UNDERUTILIZATION_FRACTION, LoadTracker, SimulationResult
from .node import BackendNode

__all__ = [
    "ClusterConfig",
    "ClusterSimulator",
    "run_simulation",
    "make_cache",
    "stripe_by_frequency",
    "CACHE_POLICIES",
]

#: Replacement policies selectable per back-end node.
CACHE_POLICIES = ("gds", "lru", "lru-unbounded", "lfu")


def make_cache(policy: str, capacity_bytes: int, name: str = "") -> Cache:
    """Instantiate a per-node cache by name.

    ``lru`` is the paper's LRU variant (files > 500 KB never cached);
    ``lru-unbounded`` is textbook LRU with no admission filter.
    """
    key = policy.lower()
    if key == "gds":
        return GDSCache(capacity_bytes, name=name)
    if key == "lru":
        return LRUCache.paper_variant(capacity_bytes, name=name)
    if key == "lru-unbounded":
        return LRUCache(capacity_bytes, name=name)
    if key == "lfu":
        return LFUCache(capacity_bytes, name=name)
    raise ValueError(f"unknown cache policy {policy!r}; expected one of {CACHE_POLICIES}")


def stripe_by_frequency(trace: Trace, num_disks: int) -> np.ndarray:
    """Target -> disk index, round-robin in decreasing request frequency.

    This is the paper's generous multi-disk placement: it balances the hot
    set across the disks of each node with respect to the trace.
    """
    counts = trace.request_counts()
    order = np.argsort(-counts, kind="stable")
    disk_of = np.empty(trace.num_targets, dtype=np.int64)
    disk_of[order] = np.arange(trace.num_targets) % num_disks
    return disk_of


def _validate_membership_events(
    events: Tuple[Tuple[float, str, int], ...], num_nodes: int
) -> None:
    """Reject malformed membership schedules at config time (clear errors
    instead of a corrupted run): unknown actions or node ids, negative or
    non-monotonic times, failing a failed node, joining an alive one."""
    alive = [True] * num_nodes
    last_when: Optional[float] = None
    for event in events:
        try:
            when, action, node = event
        except (TypeError, ValueError):
            raise ValueError(
                f"membership event must be (time_s, action, node), got {event!r}"
            ) from None
        if action not in ("fail", "join"):
            raise ValueError(
                f"unknown membership action {action!r} (expected 'fail' or 'join')"
            )
        if isinstance(node, bool) or not isinstance(node, int) or not 0 <= node < num_nodes:
            raise ValueError(
                f"membership event names unknown node {node!r} "
                f"(cluster has nodes 0..{num_nodes - 1})"
            )
        if when < 0:
            raise ValueError(f"membership event time must be >= 0, got {when!r}")
        if last_when is not None and when < last_when:
            raise ValueError(
                "membership events must be in non-decreasing time order: "
                f"t={when!r} after t={last_when!r}"
            )
        last_when = when
        if action == "fail":
            if not alive[node]:
                raise ValueError(
                    f"membership event at t={when!r} fails node {node}, "
                    "which is already failed"
                )
            alive[node] = False
        else:
            if alive[node]:
                raise ValueError(
                    f"membership event at t={when!r} joins node {node}, "
                    "which is already alive"
                )
            alive[node] = True


@dataclass(frozen=True)
class ClusterConfig:
    """One simulated cluster configuration."""

    policy: str = "lard/r"
    num_nodes: int = 8
    node_cache_bytes: int = PAPER_NODE_CACHE_BYTES
    cache_policy: str = "gds"
    disks_per_node: int = 1
    costs: CostModel = field(default_factory=CostModel)
    t_low: int = DEFAULT_T_LOW
    t_high: int = DEFAULT_T_HIGH
    k_seconds: float = DEFAULT_K_SECONDS
    #: Override the cluster-wide admission limit (default: the paper's S).
    max_in_flight: Optional[int] = None
    #: Bound on the front-end mapping table (None = unbounded, Section 2.6).
    max_mappings: Optional[int] = None
    #: GMS remote hits copy the file into the requester's cache
    #: (Feeley-style page movement); see :class:`repro.cache.GlobalMemorySystem`.
    gms_copy: bool = True
    #: GMS replacement mode: "gds" (per-node caches + copy) or "lru"
    #: (single-copy global LRU with forwarding).
    gms_replacement: str = "gds"
    #: Coalesce concurrent misses on one file into a single disk read
    #: (paper Section 3.1); disable only for the ablation bench.
    coalesce_reads: bool = True
    #: Membership schedule: ``((time_s, "fail"|"join", node), ...)``.
    #: Failures drop the node's mappings/cache per paper Section 2.6;
    #: joins bring it back cold.
    membership_events: Tuple[Tuple[float, str, int], ...] = ()
    #: When set, completions are bucketed into intervals of this many
    #: simulated seconds (throughput timelines for dynamic experiments).
    timeline_interval_s: Optional[float] = None
    #: HTTP/1.1 persistent connections: consecutive trace requests grouped
    #: per connection (1 = the paper's HTTP/1.0 evaluation).
    requests_per_connection: int = 1
    #: How persistent connections are distributed: "sticky" (first
    #: request's back-end serves the whole connection) or "rehandoff"
    #: (re-run the policy per request; paper Section 5).
    persistent_policy: str = "sticky"
    #: Record every request's delay so percentiles can be reported
    #: (Section 4.4 extension; costs one float per request).
    collect_delays: bool = False
    #: Run under the invariant sanitizer (:mod:`repro.sim.sanitize`):
    #: engine-level checks per event plus deep cluster sweeps every
    #: ``sanitize_interval`` events.  Also enabled by ``REPRO_SANITIZE=1``
    #: in the environment.  Read-only — results are identical either way.
    sanitize: bool = False
    sanitize_interval: int = 256
    #: Optional simulator fault model (:mod:`repro.cluster.faults`):
    #: crash faults with detection lag and client retries, brownouts,
    #: and cold/warm/aged rejoins.  ``None`` runs fault-free.
    #: Mutually exclusive with
    #: ``membership_events`` (the fault model subsumes them).
    fault_schedule: Optional[FaultSchedule] = None
    #: Seed for randomized policies (``pod``, ``pod/lc``); equal seeds
    #: reproduce byte-identical runs.
    policy_seed: int = 0
    #: Probes per request for ``pod``/``pod/lc``.
    pod_d: int = 2
    #: Replica locations per target for ``pod/lc`` (the r of
    #: arXiv:1706.10209).
    pod_replication: int = 3
    #: Load-bound factor c for ``chash`` (arXiv:1608.01350).
    chash_bound_factor: float = 1.25
    #: Optional heterogeneous back-end capacity weights, one per node;
    #: ``None`` (or an all-equal vector) keeps the paper's homogeneous
    #: cluster and its exact integer comparison fast paths.
    node_weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.num_nodes >= 1:
            _validate_membership_events(self.membership_events, self.num_nodes)
            if self.fault_schedule is not None:
                self.fault_schedule.validate(self.num_nodes)
        if self.fault_schedule is not None and self.membership_events:
            raise ValueError(
                "fault_schedule and membership_events cannot be combined; "
                "express clean fail/join pairs as CrashFaults instead"
            )
        if self.node_weights is not None and len(self.node_weights) != self.num_nodes:
            raise ValueError(
                f"node_weights must have one entry per node ({self.num_nodes}), "
                f"got {len(self.node_weights)}"
            )

    def scaled_cpu(self, cpu_multiplier: float, memory_multiplier: float = 1.0) -> "ClusterConfig":
        """The Figure 11/12 scaling: faster CPU, proportionally larger cache."""
        return replace(
            self,
            costs=self.costs.with_cpu_speed(cpu_multiplier),
            node_cache_bytes=int(self.node_cache_bytes * memory_multiplier),
        )


class ClusterSimulator:
    """Builds and runs one cluster over one trace.

    ``tracer`` attaches a :class:`repro.obs.tracer.SimTracer` to the
    request lifecycle, emitting one span per request (plus periodic
    samples) while producing the exact same
    :class:`~repro.cluster.metrics.SimulationResult`.
    """

    def __init__(
        self, trace: Trace, config: ClusterConfig, tracer: Optional[Any] = None
    ) -> None:
        if config.num_nodes < 1:
            raise ValueError(f"need at least one node, got {config.num_nodes}")
        self.trace = trace
        self.config = config
        self.engine = Engine()
        policy_kwargs = dict(t_low=config.t_low, t_high=config.t_high)
        if config.policy in ("lard", "lard/r") and config.max_mappings is not None:
            policy_kwargs["max_mappings"] = config.max_mappings
        if config.policy == "lard/r":
            policy_kwargs["k_seconds"] = config.k_seconds
        if config.policy in ("pod", "pod/lc"):
            policy_kwargs["d"] = config.pod_d
            policy_kwargs["seed"] = config.policy_seed
        if config.policy == "pod/lc":
            policy_kwargs["replication"] = config.pod_replication
        if config.policy == "chash":
            policy_kwargs["bound_factor"] = config.chash_bound_factor
        if config.node_weights is not None:
            policy_kwargs["weights"] = config.node_weights
        self.policy: Policy = make_policy(
            config.policy,
            config.num_nodes,
            node_cache_bytes=config.node_cache_bytes,
            **policy_kwargs,
        )
        self.gms: Optional[GlobalMemorySystem] = None
        if uses_gms(config.policy):
            self.gms = GlobalMemorySystem(
                config.num_nodes,
                config.node_cache_bytes,
                replacement=config.gms_replacement,
                copy_on_remote_hit=config.gms_copy,
            )
        self.nodes: List[BackendNode] = []
        disk_of = (
            stripe_by_frequency(trace, config.disks_per_node)
            if config.disks_per_node > 1
            else None
        )
        for node_id in range(config.num_nodes):
            cache = (
                None
                if self.gms is not None
                else make_cache(config.cache_policy, config.node_cache_bytes, name=f"n{node_id}")
            )
            node = BackendNode(
                self.engine,
                node_id,
                config.costs,
                cache,
                num_disks=config.disks_per_node,
                gms=self.gms,
                coalesce_reads=config.coalesce_reads,
            )
            node.disk_of_target = disk_of
            self.nodes.append(node)
        # One shared dynamic-cost table (or None) across all nodes.
        dynamic_costs = trace.dynamic_cost_list()
        for node in self.nodes:
            node.peers = self.nodes
            node.dynamic_cost_of_target = dynamic_costs
        self.tracker = LoadTracker(
            config.num_nodes, threshold=UNDERUTILIZATION_FRACTION * config.t_low
        )
        self.frontend = FrontEnd(
            self.engine,
            self.policy,
            self.nodes,
            trace,
            self.tracker,
            max_in_flight=config.max_in_flight,
            requests_per_connection=config.requests_per_connection,
            persistent_policy=config.persistent_policy,
        )
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self.frontend, self.nodes, self.policy)
            self.frontend.tracer = tracer
        self.fault_runtime: Optional[FaultRuntime] = None
        if config.fault_schedule is not None:
            self.fault_runtime = FaultRuntime(
                config.fault_schedule, self.frontend, self.nodes, tracer=tracer
            )
            self.frontend.faults = self.fault_runtime
        self.sanitizer: Optional[InvariantSanitizer] = None
        if config.sanitize or os.environ.get("REPRO_SANITIZE") == "1":  # lardlint: disable=transitive-nondeterminism -- config-time switch; the sanitizer only checks invariants and CI proves results identical with it on
            sanitizer = InvariantSanitizer(deep_interval=config.sanitize_interval)
            sanitizer.watch_frontend(self.frontend)
            sanitizer.watch_policy(self.policy)
            sanitizer.watch_nodes(self.nodes)
            self.engine.install_sanitizer(sanitizer.after_event)
            self.sanitizer = sanitizer

    def run(self) -> SimulationResult:
        """Serve the whole trace and report the paper's metrics."""
        self.frontend.timeline_interval_s = self.config.timeline_interval_s
        self.frontend.collect_delays = self.config.collect_delays
        for when, action, node in self.config.membership_events:
            # Validated by ClusterConfig.__post_init__; re-checked here
            # for configs built before validation existed (defensive).
            if action == "fail":
                self.engine.schedule(when, self.frontend.fail_node, node)
            elif action == "join":
                self.engine.schedule(when, self.frontend.join_node, node)
            else:
                raise ValueError(f"unknown membership action {action!r}")
        runtime = self.fault_runtime
        if runtime is not None:
            runtime.interval_s = self.config.timeline_interval_s
            runtime.schedule_events(self.engine)
        self.frontend.start()
        end_time = self.engine.run()
        if self.sanitizer is not None:
            self.sanitizer.final_check(end_time)
        if not self.frontend.done:
            raise RuntimeError(
                f"simulation stalled: {self.frontend.completed}/{len(self.trace)} served"
            )
        nodes = self.nodes
        return SimulationResult(
            policy=self.config.policy,
            num_nodes=self.config.num_nodes,
            num_requests=len(self.trace),
            sim_time_s=end_time,
            cache_hits=sum(n.cache_hits for n in nodes),
            cache_misses=sum(n.cache_misses for n in nodes),
            disk_reads=sum(n.disk_reads for n in nodes),
            coalesced_reads=sum(n.coalesced_reads for n in nodes),
            total_delay_s=self.frontend.total_delay_s,
            idle_fraction=self.tracker.mean_underutilized_fraction(end_time),
            cpu_busy_fraction=sum(n.cpu_utilization() for n in nodes) / len(nodes),
            disk_busy_fraction=sum(n.disk_utilization() for n in nodes) / len(nodes),
            bytes_served=sum(n.bytes_served for n in nodes),
            gms_local_hits=sum(n.gms_local_hits for n in nodes),
            gms_remote_hits=sum(n.gms_remote_hits for n in nodes),
            dynamic_requests=sum(n.dynamic_requests for n in nodes),
            per_node_mean_delay_s=[
                d / c if c else 0.0
                for d, c in zip(
                    self.frontend.per_node_delay_s, self.frontend.per_node_completions
                )
            ],
            timeline=dict(self.frontend.timeline),
            orphaned_connections=self.frontend.orphaned,
            connections=self.frontend.connections,
            rehandoffs=self.frontend.rehandoffs,
            delays_s=list(self.frontend.delays_s),
            lost_requests=runtime.lost_requests if runtime is not None else 0,
            retried_requests=runtime.retried_requests if runtime is not None else 0,
            degraded=runtime.degraded_timeline() if runtime is not None else None,
        )


def run_simulation(
    trace: Trace,
    config: Optional[ClusterConfig] = None,
    profile: Optional[Union[str, Path]] = None,
    trace_out: Optional[Union[str, Path]] = None,
    sample_interval_s: Optional[float] = None,
    **overrides,
) -> SimulationResult:
    """Convenience wrapper: build a config (plus overrides) and run it.

    ``profile`` runs the simulation under :mod:`cProfile` and dumps the
    stats to that path (inspect with ``python -m pstats`` or snakeviz);
    construction and trace generation are excluded so the profile shows
    the simulation hot path only.

    ``trace_out`` writes a JSONL span log (one span per request; see
    :mod:`repro.obs.span`) to that path; ``sample_interval_s``
    additionally emits periodic time-series samples.  The returned
    result is identical to an untraced run's.
    """
    base = config if config is not None else ClusterConfig()
    if overrides:
        base = replace(base, **overrides)
    if trace_out is not None:
        # Imported lazily: the untraced path must not even import obs.
        from ..obs.span import SpanWriter
        from ..obs.tracer import SimTracer

        with SpanWriter(trace_out, source="sim") as writer:
            tracer = SimTracer(writer, sample_interval_s=sample_interval_s)
            simulator = ClusterSimulator(trace, base, tracer=tracer)
            return _run(simulator, profile)
    simulator = ClusterSimulator(trace, base)
    return _run(simulator, profile)


def _run(
    simulator: ClusterSimulator, profile: Optional[Union[str, Path]]
) -> SimulationResult:
    if profile is None:
        return simulator.run()
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = simulator.run()
    finally:
        profiler.disable()
        profiler.dump_stats(str(profile))
    return result
