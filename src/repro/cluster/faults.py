"""Simulator fault model: crashes with detection lag, brownouts, rejoins.

The paper's Section 2.6 treats back-end failure as an instantaneous,
loss-free membership change, and ``ClusterConfig.membership_events``
implements exactly that.  The live hand-off prototype knows better: a
crashed node keeps *receiving* dispatches until the health monitor
notices, in-flight work is orphaned, and clients retry with backoff.
This module closes that gap for the discrete-event simulator:

* :class:`CrashFault` — the node goes dark at ``at_s`` but the front-end
  keeps routing to it until detection at ``at_s + detect_s``; requests
  dispatched into that window time out client-side and are retried (per
  :class:`RetryPolicy`) or counted **lost**.  An optional rejoin brings
  the node back with a ``cold``, ``warm``, or partially ``aged`` cache.
* :class:`Brownout` — the node stays in the cluster but its CPU and disk
  rates are scaled down for an interval (slow node, not dead node).
* :func:`generate_fault_schedule` — a seeded MTTF/MTTR process that
  produces a :class:`FaultSchedule` deterministically from its config,
  replacing hand-written event tuples for chaos campaigns.

:class:`FaultRuntime` executes a schedule against a running cluster.  It
follows the sanitizer/tracer pattern: it is attached from outside
(``FrontEnd.faults``) and the request lifecycle consults it at each
dispatch; detached, it costs one ``None`` check per stage.  With an
**empty** schedule no timeout ever fires, so the results and the event
count are identical to a run without a runtime — the test suite asserts
both properties.

Scheduling caveat (shared with ``membership_events``): the engine runs
until its queue is empty, so fault events placed past trace completion
still fire and extend the run's final simulated time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .metrics import DegradedTimeline

__all__ = [
    "REJOIN_MODES",
    "RetryPolicy",
    "CrashFault",
    "Brownout",
    "FaultSchedule",
    "generate_fault_schedule",
    "FaultRuntime",
]

#: Cache state a crashed node rejoins with: ``cold`` (cleared), ``warm``
#: (exactly as it died — fast restart, memory preserved), or ``aged``
#: (a fraction of its bytes evicted — restart with partial page-cache
#: survival).  GMS-backed nodes have no private cache and always
#: effectively rejoin cold.
REJOIN_MODES = ("cold", "warm", "aged")


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry behavior for requests sent to a dark node.

    A request dispatched to a crashed-but-undetected back-end waits
    ``timeout_s`` (the client's request timeout), then retries through
    the front-end after an exponential backoff capped at
    ``backoff_cap_s``.  After ``max_retries`` unanswered attempts the
    request is abandoned and counted lost.
    """

    max_retries: int = 2
    timeout_s: float = 0.5
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_cap_s ({self.backoff_cap_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )

    def backoff_s(self, attempt: int) -> float:
        """Capped exponential backoff before retry ``attempt`` (1-based)."""
        backoff = self.backoff_base_s * (2.0 ** (attempt - 1))
        return backoff if backoff < self.backoff_cap_s else self.backoff_cap_s


@dataclass(frozen=True)
class CrashFault:
    """One crash: dark at ``at_s``, detected ``detect_s`` later, and
    (optionally) rejoining at ``rejoin_at_s`` with ``rejoin_mode`` cache
    state (``aged_fraction`` of bytes evicted in ``aged`` mode)."""

    node: int
    at_s: float
    detect_s: float
    rejoin_at_s: Optional[float] = None
    rejoin_mode: str = "cold"
    aged_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"crash at_s must be >= 0, got {self.at_s}")
        if self.detect_s <= 0:
            raise ValueError(f"crash detect_s must be positive, got {self.detect_s}")
        if self.rejoin_at_s is not None and self.rejoin_at_s < self.at_s + self.detect_s:
            raise ValueError(
                f"node {self.node} rejoin_at_s ({self.rejoin_at_s}) precedes "
                f"detection at {self.at_s + self.detect_s}"
            )
        if self.rejoin_mode not in REJOIN_MODES:
            raise ValueError(
                f"rejoin_mode must be one of {REJOIN_MODES}, got {self.rejoin_mode!r}"
            )
        if not 0.0 <= self.aged_fraction <= 1.0:
            raise ValueError(
                f"aged_fraction must be in [0, 1], got {self.aged_fraction}"
            )

    @property
    def detected_at_s(self) -> float:
        """When the front-end notices the crash and fails the node."""
        return self.at_s + self.detect_s

    @property
    def end_s(self) -> Optional[float]:
        """When the node is whole again (None = never rejoins)."""
        return self.rejoin_at_s


@dataclass(frozen=True)
class Brownout:
    """A degraded interval: the node's CPU and disk run at a fraction of
    their healthy speed for ``duration_s`` starting at ``at_s``."""

    node: int
    at_s: float
    duration_s: float
    cpu_factor: float = 0.5
    disk_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"brownout at_s must be >= 0, got {self.at_s}")
        if self.duration_s <= 0:
            raise ValueError(
                f"brownout duration_s must be positive, got {self.duration_s}"
            )
        for name in ("cpu_factor", "disk_factor"):
            factor = getattr(self, name)
            if not 0.0 < factor <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {factor}")

    @property
    def end_s(self) -> float:
        return self.at_s + self.duration_s


@dataclass(frozen=True)
class FaultSchedule:
    """A complete, validated fault scenario for one simulated run."""

    crashes: Tuple[CrashFault, ...] = ()
    brownouts: Tuple[Brownout, ...] = ()
    retry: RetryPolicy = RetryPolicy()

    def validate(self, num_nodes: int) -> None:
        """Raise ``ValueError`` unless this schedule is executable on a
        ``num_nodes``-node cluster (ids in range, per-node crash
        intervals ordered and disjoint, brownouts never overlapping a
        crash, and at least one node alive at every detection)."""
        for fault in self.crashes + self.brownouts:
            if not 0 <= fault.node < num_nodes:
                raise ValueError(
                    f"fault schedule names unknown node {fault.node} "
                    f"(cluster has nodes 0..{num_nodes - 1})"
                )
        per_node: Dict[int, List[CrashFault]] = {}
        for crash in self.crashes:
            per_node.setdefault(crash.node, []).append(crash)
        for node, crashes in per_node.items():
            crashes.sort(key=lambda c: c.at_s)
            for earlier, later in zip(crashes, crashes[1:]):
                if earlier.rejoin_at_s is None:
                    raise ValueError(
                        f"node {node} crashes at {later.at_s} but never "
                        f"rejoined after its crash at {earlier.at_s}"
                    )
                if later.at_s < earlier.rejoin_at_s:
                    raise ValueError(
                        f"node {node} crashes at {later.at_s} while still down "
                        f"from its crash at {earlier.at_s} "
                        f"(rejoins at {earlier.rejoin_at_s})"
                    )
        for brownout in self.brownouts:
            for crash in per_node.get(brownout.node, []):
                crash_end = (
                    crash.rejoin_at_s if crash.rejoin_at_s is not None else float("inf")
                )
                if brownout.at_s < crash_end and crash.at_s < brownout.end_s:
                    raise ValueError(
                        f"node {brownout.node} brownout "
                        f"[{brownout.at_s}, {brownout.end_s}) overlaps its "
                        f"crash at {crash.at_s}"
                    )
            for other in self.brownouts:
                if other is brownout or other.node != brownout.node:
                    continue
                if brownout.at_s < other.end_s and other.at_s < brownout.end_s:
                    raise ValueError(
                        f"node {brownout.node} has overlapping brownouts at "
                        f"{brownout.at_s} and {other.at_s}"
                    )
        # Detection must never remove the last alive node: replay the
        # detect/rejoin timeline and count the dead.
        timeline: List[Tuple[float, int]] = []
        for crash in self.crashes:
            timeline.append((crash.detected_at_s, +1))
            if crash.rejoin_at_s is not None:
                timeline.append((crash.rejoin_at_s, -1))
        timeline.sort()
        dead = 0
        for _, delta in timeline:
            dead += delta
            if dead >= num_nodes:
                raise ValueError(
                    "fault schedule leaves no node alive "
                    f"({dead} of {num_nodes} down simultaneously)"
                )

    @property
    def last_disruption_s(self) -> float:
        """When the last scheduled disruption clears (un-rejoined crashes
        clear at detection: from then on the cluster is stable again)."""
        ends = [
            crash.rejoin_at_s if crash.rejoin_at_s is not None else crash.detected_at_s
            for crash in self.crashes
        ]
        ends.extend(brownout.end_s for brownout in self.brownouts)
        return max(ends, default=0.0)


def generate_fault_schedule(
    num_nodes: int,
    duration_s: float,
    *,
    seed: int,
    mttf_s: Optional[float] = None,
    mttr_s: Optional[float] = None,
    detect_s: Optional[float] = None,
    rejoin_modes: Sequence[str] = REJOIN_MODES,
    aged_fraction: float = 0.5,
    brownout_mttf_s: Optional[float] = None,
    brownout_duration_s: Optional[float] = None,
    cpu_factor: float = 0.5,
    disk_factor: float = 0.5,
    retry: Optional[RetryPolicy] = None,
) -> FaultSchedule:
    """Draw a :class:`FaultSchedule` from seeded MTTF/MTTR processes.

    Per node, crash times follow an exponential inter-failure process
    with mean ``mttf_s`` and downtimes are ``detect_s`` plus an
    exponential repair with mean ``mttr_s``; rejoin cache modes cycle
    through ``rejoin_modes`` by seeded choice.  Brownouts follow an
    independent exponential process with mean ``brownout_mttf_s`` and
    fixed ``brownout_duration_s`` (default ``brownout_mttf_s / 4``),
    skipping intervals that would overlap a crash.  Candidate crashes
    that would leave no node alive are dropped, and only events starting
    before ``duration_s`` are kept.  The result is a pure function of
    the arguments — same config, same schedule, byte for byte.
    """
    if num_nodes < 1:
        raise ValueError(f"need at least one node, got {num_nodes}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    rng = random.Random(seed)
    crashes: List[CrashFault] = []
    if mttf_s is not None:
        if mttf_s <= 0:
            raise ValueError(f"mttf_s must be positive, got {mttf_s}")
        repair = mttr_s if mttr_s is not None else mttf_s / 4.0
        if repair <= 0:
            raise ValueError(f"mttr_s must be positive, got {repair}")
        detect = detect_s if detect_s is not None else repair / 4.0
        if not rejoin_modes:
            raise ValueError("rejoin_modes must be non-empty")
        candidates: List[Tuple[float, int, float, str]] = []
        for node in range(num_nodes):
            t = rng.expovariate(1.0 / mttf_s)
            while t < duration_s:
                down = detect + rng.expovariate(1.0 / repair)
                mode = rejoin_modes[rng.randrange(len(rejoin_modes))]
                candidates.append((t, node, down, mode))
                t += down + rng.expovariate(1.0 / mttf_s)
        candidates.sort()
        rejoin_at: Dict[int, float] = {}
        for t, node, down, mode in candidates:
            dark = sum(1 for until in rejoin_at.values() if until > t)
            if dark >= num_nodes - 1:
                continue  # never schedule a crash that could strand the cluster
            crashes.append(
                CrashFault(
                    node=node,
                    at_s=t,
                    detect_s=detect,
                    rejoin_at_s=t + down,
                    rejoin_mode=mode,
                    aged_fraction=aged_fraction,
                )
            )
            rejoin_at[node] = t + down
    brownouts: List[Brownout] = []
    if brownout_mttf_s is not None:
        if brownout_mttf_s <= 0:
            raise ValueError(
                f"brownout_mttf_s must be positive, got {brownout_mttf_s}"
            )
        length = (
            brownout_duration_s
            if brownout_duration_s is not None
            else brownout_mttf_s / 4.0
        )
        if length <= 0:
            raise ValueError(f"brownout_duration_s must be positive, got {length}")
        node_crashes: Dict[int, List[CrashFault]] = {}
        for crash in crashes:
            node_crashes.setdefault(crash.node, []).append(crash)
        for node in range(num_nodes):
            t = rng.expovariate(1.0 / brownout_mttf_s)
            while t < duration_s:
                end = t + length
                clear = True
                for crash in node_crashes.get(node, []):
                    crash_end = (
                        crash.rejoin_at_s
                        if crash.rejoin_at_s is not None
                        else float("inf")
                    )
                    if t < crash_end and crash.at_s < end:
                        clear = False
                        break
                if clear:
                    brownouts.append(
                        Brownout(
                            node=node,
                            at_s=t,
                            duration_s=length,
                            cpu_factor=cpu_factor,
                            disk_factor=disk_factor,
                        )
                    )
                t = end + rng.expovariate(1.0 / brownout_mttf_s)
    schedule = FaultSchedule(
        crashes=tuple(crashes),
        brownouts=tuple(brownouts),
        retry=retry if retry is not None else RetryPolicy(),
    )
    schedule.validate(num_nodes)
    return schedule


class FaultRuntime:
    """Executes one :class:`FaultSchedule` against a running cluster.

    All cluster references are duck-typed (``Any``), mirroring the
    sanitizer and tracer: the runtime is attached from outside
    (``FrontEnd.faults``) and the request lifecycle consults it only
    when it is present.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        frontend: Any,
        nodes: Sequence[Any],
        tracer: Optional[Any] = None,
    ) -> None:
        self.schedule = schedule
        self.retry = schedule.retry
        self.frontend = frontend
        self.nodes = list(nodes)
        self.tracer = tracer
        self._dark = [False] * len(self.nodes)
        self._base_costs = [node.costs for node in self.nodes]
        # Counters: ``served + lost == completed`` at every event (the
        # sanitizer's lost-request conservation law).
        self.lost_requests = 0
        self.retried_requests = 0
        self.served_requests = 0
        self.doomed_dispatches = 0
        #: Every fault event executed, as (time_s, event, node) —
        #: retained even when no tracer is attached.
        self.events: List[Tuple[float, str, int]] = []
        #: Bucket width for the degraded-mode series (set by the
        #: simulator from ``timeline_interval_s``; None disables).
        self.interval_s: Optional[float] = None
        self._completions: Dict[int, int] = {}
        self._misses: Dict[int, int] = {}
        self._lost: Dict[int, int] = {}
        self._delays: Dict[int, List[float]] = {}
        self._engine: Optional[Any] = None

    # -- hot helpers (called per dispatch by the request lifecycle) ------------

    def is_dark(self, node: int) -> bool:
        """True while ``node`` is crashed (detected or not)."""
        return self._dark[node]

    # -- schedule execution ----------------------------------------------------

    def schedule_events(self, engine: Any) -> None:
        """Install every crash/brownout transition into the engine."""
        self._engine = engine
        for crash in self.schedule.crashes:
            engine.schedule(crash.at_s, self._crash, crash.node)
            engine.schedule(crash.detected_at_s, self._detect, crash.node)
            if crash.rejoin_at_s is not None:
                engine.schedule(
                    crash.rejoin_at_s,
                    self._rejoin,
                    crash.node,
                    crash.rejoin_mode,
                    crash.aged_fraction,
                )
        for brownout in self.brownouts():
            engine.schedule(
                brownout.at_s,
                self._brownout_start,
                brownout.node,
                brownout.cpu_factor,
                brownout.disk_factor,
            )
            engine.schedule(brownout.end_s, self._brownout_end, brownout.node)

    def brownouts(self) -> Tuple[Brownout, ...]:
        """The schedule's brownout intervals (convenience accessor)."""
        return self.schedule.brownouts

    def _emit(self, event: str, node: int, **details: Any) -> None:
        now = self._engine.now if self._engine is not None else 0.0
        self.events.append((now, event, node))
        if self.tracer is not None:
            self.tracer.fault_event(now, node, event, **details)

    def _crash(self, node: int) -> None:
        """The node goes dark; the front-end keeps routing to it until
        detection.  Requests already being served there drain (a
        service in progress is not torn down, an approximation the
        orphan accounting at detection compensates for); new dispatches
        time out client-side."""
        self._dark[node] = True
        self._emit("crash", node)

    def _detect(self, node: int) -> None:
        """Detection: the membership layer finally fails the node."""
        self.frontend.fail_node(node)
        self._emit("detect", node)

    def _rejoin(self, node: int, mode: str, aged_fraction: float) -> None:
        self._dark[node] = False
        self.frontend.join_node(node, cache_mode=mode, aged_fraction=aged_fraction)
        self._emit("join", node, mode=mode)

    def _brownout_start(self, node: int, cpu_factor: float, disk_factor: float) -> None:
        base = self._base_costs[node]
        self.nodes[node].set_costs(
            replace(
                base,
                cpu_speed=base.cpu_speed * cpu_factor,
                disk_speed=base.disk_speed * disk_factor,
            )
        )
        self._emit("brownout_start", node, cpu_factor=cpu_factor, disk_factor=disk_factor)

    def _brownout_end(self, node: int) -> None:
        self.nodes[node].set_costs(self._base_costs[node])
        self._emit("brownout_end", node)

    # -- degraded-mode accounting ----------------------------------------------

    def record_served(self, now: float, delay_s: float, missed: bool) -> None:
        """One request served to completion (goodput)."""
        self.served_requests += 1
        interval = self.interval_s
        if interval is None:
            return
        bucket = int(now // interval)
        self._completions[bucket] = self._completions.get(bucket, 0) + 1
        if missed:
            self._misses[bucket] = self._misses.get(bucket, 0) + 1
        self._delays.setdefault(bucket, []).append(delay_s)

    def record_lost(self, now: float, delay_s: float) -> None:
        """One request abandoned after exhausting its retries."""
        self.lost_requests += 1
        interval = self.interval_s
        if interval is None:
            return
        bucket = int(now // interval)
        self._lost[bucket] = self._lost.get(bucket, 0) + 1
        self._delays.setdefault(bucket, []).append(delay_s)

    def degraded_timeline(self) -> Optional[DegradedTimeline]:
        """The per-bucket degraded-mode series (None without a timeline)."""
        if self.interval_s is None:
            return None
        return DegradedTimeline(
            interval_s=self.interval_s,
            completions=dict(self._completions),
            misses=dict(self._misses),
            lost=dict(self._lost),
            delays={bucket: list(values) for bucket, values in self._delays.items()},
        )
