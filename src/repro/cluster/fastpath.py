"""The simulated request lifecycle, as one explicit state machine.

The paper models a request's life on a back-end as one fixed sequence
(Section 3.1): connection establishment, a chunked disk read interleaved
with transmit when the file misses the cache, transmit, teardown.  This
module is the only implementation of that sequence.  Each stage is one
pre-bound callback handed directly to the engine, with the bookkeeping
``Resource._enqueue``/``_finish`` would do inlined at the head and tail
of the stage, so one event dispatch performs one whole lifecycle step.
Connection objects are pooled: the steady state allocates nothing per
request.

Around the paper's sequence the same machine also runs

* persistent connections (Section 5): a connection carries a start
  index and an end index into the trace; with ``rehandoff`` the policy
  re-runs per request and may move the connection.  The next request
  starts inside the event that finished the previous request's data,
  and only the first pays establishment and only the last teardown;
* the fault model (Section 2.6, :mod:`repro.cluster.faults`): a request
  dispatched to a crashed-but-undetected node waits out the client
  timeout and backoff as scheduled stages, then is re-dispatched by the
  policy or, out of retries, counted lost;
* brownouts: every duration is read from ``node.costs`` at the instant
  the service is enqueued, and the precomputed single-chunk disk-time
  table applies only while a node runs the base cost model.

Resource waiters need care.  Every job on a node resource belongs to a
connection of this machine, so the canonical ``Resource._finish``
wrapper never runs: a contended enqueue appends the stage callback
itself to ``_waiting``, and the completing stage promotes it by
scheduling it directly; the callback books its own completion when it
fires.  The promotion skips ``Resource._start``'s busy-integral fold
deliberately: the promoting stage has just set ``_last_change`` to the
current instant, so the fold would add ``busy * 0.0`` — bit-identical
to not folding at all (the integral is always >= +0.0).

Determinism contract (enforced by ``tests/test_lifecycle_golden.py``,
whose digests were recorded from the coroutine implementation this
machine replaced):

* the relative order of every ``engine.schedule`` call — admissions,
  service starts, waiter promotions, coalesced-read wakeups, timeouts
  and backoffs — is fixed, so the engine consumes the same
  ``(time, seq)`` stream;
* per-request state is read at fixed event boundaries: the membership
  epoch and start timestamp when the connection's start event
  dispatches; the pending-read table is deregistered after the last
  data chunk completes and before teardown is enqueued; a freed server
  promotes its next waiter *before* the finishing request's own logic
  runs;
* float arithmetic is fixed operation for operation: busy-time
  integrals fold ``busy * (now - last_change)``, transmit time is
  ``units * per_unit`` with the precomputed integer ``units``, and the
  GMS paths call the ``CostModel`` methods.

Observers attach from outside, before the front end starts.  A
:class:`~repro.obs.tracer.SimTracer` (``FrontEnd.tracer``) gets one span
per request: hooks in front of the stages that end a phase charge the
stage-to-stage delta to it.  A :class:`~repro.cluster.faults.FaultRuntime`
(``FrontEnd.faults``) is asked at each dispatch whether the node is dark
and gets served/lost accounting.  Neither observer schedules an event of
its own.  Each connection binds its stage callbacks once, so a plain run
pays for neither: its per-request path keeps just two flag tests, whether
an establishment is to be booked and whether the connection continues
past the data path.

The bodies of ``Policy.on_dispatch``/``on_complete``,
``LoadTracker._update`` and ``FrontEnd._account_request``/``_detach``
are inlined on the per-request path, because at ~4 events per request
the call frames themselves dominated the profile; the rarer paths call
the canonical methods.  A semantic change to those methods must be
mirrored here; the golden tests catch a missed mirror.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..cache.gms import GMSOutcome
from ..sim.resources import SimEvent

__all__ = ["FastPath", "FastConnection"]

#: Shared empty plan for single-service data paths (cache hits,
#: coalesced reads): ``_advance`` sees no remaining steps and proceeds
#: straight to teardown.
_EMPTY_PLAN: Tuple[Tuple[Any, float], ...] = ()

#: Span outcomes that count as a miss in the degraded-mode series.
_MISSED = ("miss", "coalesced")


def _chunk_pairs(costs: Any, size: int) -> Tuple[Tuple[float, int], ...]:
    """A chunked read as ``((disk_time, cpu_units), ...)`` under ``costs``."""
    return tuple(
        (disk_time, (chunk_bytes + 511) // 512)
        for chunk_bytes, disk_time in costs.disk_chunks(size)
    )


class FastPath:
    """Per-front-end state of the lifecycle: precomputed cost tables,
    resolved references into the policy/tracker hot state, admission,
    and the connection pool.

    Cost tables are derived once per front end from the first node's
    :class:`~repro.cluster.costs.CostModel` (the base model) with numpy:

    * ``units[t]`` — target ``t``'s size in 512-byte transmit blocks;
      multiplied by a node's folded ``_transmit_per_unit`` this is
      bit-for-bit ``((size + 511) // 512) * per_unit``.
    * ``single_disk_time[t]`` — the full disk service time for targets
      that fit one 44 KB chunk (the overwhelming majority), mirroring
      ``CostModel.disk_chunks`` arithmetic exactly.

    Multi-chunk read plans are built lazily per target and memoized.
    A node whose ``costs`` is not the base model (heterogeneous nodes, a
    brownout) prices its reads from its own model instead.  The
    policy's ``loads``/``_alive`` lists and the tracker's arrays are
    captured by reference (they are mutated in place, never
    reassigned), so per-request accounting runs on plain list indexing.
    """

    __slots__ = (
        "fe",
        "pool",
        "units",
        "single_disk_time",
        "chunk_bytes",
        "costs",
        "plans",
        "targets_l",
        "sizes_l",
        "n",
        "rpc",
        "rehandoff",
        "tracer",
        "faults",
        "general",
        "choose",
        "take",
        "policy",
        "p_loads",
        "p_alive",
        "tracker",
        "t_load",
        "t_under_since",
        "t_under_time",
        "t_is_under",
        "t_threshold",
        "epochs",
        "nodes",
        "per_node_dispatches",
        "per_node_delay_s",
        "per_node_completions",
    )

    def __init__(self, fe: Any) -> None:
        self.fe = fe
        self.pool: List[FastConnection] = []
        trace = fe.trace
        costs = fe.nodes[0].costs
        self.costs = costs
        self.units: List[int] = trace.transmit_units(512)
        sizes = trace.sizes_by_target
        # Vectorized single-chunk disk time: latency/disk_speed +
        # ((size + 4095) // 4096) * transfer/disk_speed, the same
        # left-to-right float operations CostModel.disk_chunks performs.
        disk_units = (sizes + 4095) // 4096
        disk_time = (
            costs.disk_initial_latency_s / costs.disk_speed
            + disk_units * costs.disk_transfer_s_per_4kb / costs.disk_speed
        )
        self.single_disk_time: List[float] = disk_time.tolist()
        self.chunk_bytes: int = costs.disk_chunk_bytes
        self.plans: Dict[int, Tuple[Tuple[float, int], ...]] = {}
        # Admission-side references, resolved once.
        self.targets_l, self.sizes_l = fe._target_list, fe._size_list
        self.n = len(self.targets_l)
        self.rpc: int = fe.requests_per_connection
        self.rehandoff: bool = fe.persistent_policy == "rehandoff"
        self.tracer: Optional[Any] = fe.tracer
        self.faults: Optional[Any] = fe.faults
        #: False only for the paper's plain configuration: one request
        #: per connection, no tracer, no fault runtime.
        self.general: bool = (
            self.tracer is not None or self.faults is not None or self.rpc > 1
        )
        policy = fe.policy
        self.policy = policy
        self.choose = policy.choose
        self.take = fe._take_prediction
        self.p_loads: List[int] = policy.loads
        self.p_alive: List[bool] = policy._alive
        tracker = fe.tracker
        self.tracker = tracker
        self.t_load: List[int] = tracker._load
        self.t_under_since: List[float] = tracker._under_since
        self.t_under_time: List[float] = tracker._under_time
        self.t_is_under: List[bool] = tracker._is_under
        self.t_threshold: float = tracker.threshold
        self.epochs: List[int] = fe._epoch
        self.nodes = fe.nodes
        self.per_node_dispatches: List[int] = fe.per_node_dispatches
        self.per_node_delay_s: List[float] = fe.per_node_delay_s
        self.per_node_completions: List[int] = fe.per_node_completions

    def admit(self) -> None:
        """Admit connections while the admission limit allows: one
        policy call and one scheduled start event per connection, which
        takes the next ``requests_per_connection`` trace requests.

        This loop serves pipeline (re)fills — ``start()``, ``join_node``
        and connections that end off the per-request path — and the
        rare completion that frees more than the one slot it refills;
        the steady-state single admission is inlined in
        :meth:`FastConnection._complete`.
        """
        fe = self.fe
        engine = fe.engine
        now = engine.now
        targets, sizes = self.targets_l, self.sizes_l
        n = self.n
        rpc = self.rpc
        choose = self.choose
        take = self.take
        policy = self.policy
        p_loads = self.p_loads
        p_alive = self.p_alive
        t_load = self.t_load
        t_is_under = self.t_is_under
        t_under_time = self.t_under_time
        t_under_since = self.t_under_since
        threshold = self.t_threshold
        dispatches = self.per_node_dispatches
        nodes = self.nodes
        pool = self.pool
        schedule = engine.schedule
        while fe.in_flight < fe.max_in_flight and fe._next < n:
            first = fe._next
            end = first + rpc
            if end > n:
                end = n
            fe._next = end
            target = targets[first]
            size = sizes[target]
            node_id = choose(target, size, now=now)
            hit_hint = take() if take is not None else None
            # Policy.on_dispatch, inlined (the canonical call reproduces
            # the error on the failure branch).
            if not p_alive[node_id]:
                policy.on_dispatch(node_id)
            p_loads[node_id] += 1
            policy.dispatches += 1
            # LoadTracker.on_dispatch, inlined.  Admission never moves
            # the clock, so one ``now`` read serves the whole loop; a
            # +1 delta can only cross the threshold upward, so only the
            # leaves-underutilization transition is reachable.
            load = t_load[node_id] + 1
            t_load[node_id] = load
            if load >= threshold and t_is_under[node_id]:
                t_under_time[node_id] += now - t_under_since[node_id]
                t_is_under[node_id] = False
            dispatches[node_id] += 1
            fe.connections += 1
            fe.in_flight += 1
            conn = pool.pop() if pool else FastConnection(self)
            conn.node_id = node_id
            conn.node = nodes[node_id]
            conn.target = target
            conn.size = size
            conn.hit_hint = hit_hint
            conn.first = first
            conn.end = end
            schedule(0.0, conn._begin_cb)

    def chunk_plan(self, target: int, size: int) -> Tuple[Tuple[float, int], ...]:
        """Memoized multi-chunk read plan under the base cost model."""
        plan = self.plans.get(target)
        if plan is None:
            plan = self.plans[target] = _chunk_pairs(self.costs, size)
        return plan


class FastConnection:
    """One admitted connection as a state machine.

    Per request: start event -> establish service -> ``_decide`` (cache
    / GMS / pending-read decision, enqueues the data plan) ->
    ``_advance`` per data service -> teardown service -> ``_complete``.
    A persistent connection skips establishment after its first request
    (``_decide`` is then called directly) and teardown before its last;
    a GMS remote hit runs its two fetch services through ``_remote``; a
    coalesced miss waits in ``_coalesced``; a dark node sends the
    connection through ``_timeout`` and ``_retry``.

    Each service-completion stage opens with the inlined body of
    ``Resource._finish`` for the resource that served it, then runs the
    stage logic; the same callback sits in a contended resource's
    waiter queue (see the module docstring for why that is sound).

    ``general`` is fixed per run.  It is false for the paper's plain
    configuration (one request per connection, no tracer, no fault
    runtime), whose stages run entirely inline from ``_begin`` to
    ``_complete``.  Otherwise the connection starts in
    ``_begin_general``, loops through ``_serve_next`` and
    ``_request_done``, and ends in ``_complete_general``.  The start,
    completion and traced stage callbacks are chosen once per pooled
    object, so neither mode pays for the other's checks.
    """

    __slots__ = (
        "fp",
        "fe",
        "engine",
        "node",
        "node_id",
        "target",
        "size",
        "hit_hint",
        "epoch",
        "start",
        "plan",
        "plan_i",
        "res",
        "read_event",
        "schedule",
        "units",
        "outcome",
        "fetch",
        "first",
        "end",
        "i",
        "fresh",
        "t_first",
        "attempts",
        "general",
        "tracer",
        "faults",
        "span",
        "t0",
        "_begin_cb",
        "_decide_cb",
        "_advance_cb",
        "_complete_cb",
        "_coalesced_cb",
        "_remote_cb",
        "_timeout_cb",
        "_retry_cb",
    )

    def __init__(self, fp: FastPath) -> None:
        self.fp = fp
        fe = fp.fe
        self.fe = fe
        self.engine = fe.engine
        # Bound once: scheduling is the single hottest call each stage
        # makes, and the per-target transmit-unit table is read on every
        # hit path.
        self.schedule = self.engine.schedule
        self.units = fp.units
        self.node: Any = None
        self.node_id = 0
        self.target = 0
        self.size = 0
        self.hit_hint: Optional[bool] = None
        self.epoch = 0
        self.start = 0.0
        self.plan: Any = _EMPTY_PLAN
        self.plan_i = 0
        #: Resource serving the in-flight data service (read by _advance
        #: to book its completion; establish/teardown book the CPU).
        self.res: Any = None
        self.read_event: Optional[SimEvent] = None
        #: How the current request's data path resolved (a span outcome).
        self.outcome = "error"
        #: A GMS remote hit's fetch time, paid by holder then requester.
        self.fetch = 0.0
        #: Trace indices: the connection's requests are [first, end) and
        #: ``i`` is the one being served (kept on the general path only).
        self.first = 0
        self.end = 0
        self.i = 0
        #: The next request is on a fresh dispatch and pays establishment.
        self.fresh = True
        self.t_first = 0.0
        self.attempts = 0
        self.tracer = fp.tracer
        self.faults = fp.faults
        self.general = fp.general
        self.span: Any = None
        #: Start of the span phase in progress.
        self.t0 = 0.0
        # Stage callbacks, bound once per pooled object (not per request).
        # With a tracer attached, the stages that end a span phase are
        # entered through a hook that charges the phase first (pure
        # observation: it reads the clock and writes only the span).
        traced = self.tracer is not None
        general = self.general
        self._begin_cb = self._begin_general if general else self._begin
        self._decide_cb = self._decide_traced if traced else self._decide
        self._advance_cb = self._advance_traced if traced else self._advance
        self._complete_cb = (
            self._complete_traced
            if traced
            else self._complete_general if general else self._complete
        )
        self._coalesced_cb = self._coalesced_traced if traced else self._coalesced
        self._remote_cb = self._remote
        self._timeout_cb = self._timeout
        self._retry_cb = self._retry

    # -- the per-request stages ----------------------------------------------

    def _begin(self) -> None:
        """Start event: read epoch/start *now*, then queue establishment."""
        node = self.node
        self.epoch = self.fp.epochs[self.node_id]
        now = self.engine.now
        self.start = now
        cpu = node.cpu
        # Resource._enqueue, inlined (establish service).
        if cpu._busy < cpu.capacity:
            cpu._busy_integral += cpu._busy * (now - cpu._last_change)
            cpu._last_change = now
            cpu._busy += 1
            self.schedule(node._conn_time, self._decide_cb)
        else:
            cpu._waiting.append((self._decide_cb, node._conn_time))

    def _decide(self) -> None:
        """The data-path decision: dynamic content, a hinted or cached
        hit, a coalesced or fresh disk read, or a GMS hit; enqueues the
        first data service.

        A fresh request arrives here as the completion of its
        establishment service and books it first; a later request on a
        persistent connection is called directly, with nothing to book.
        """
        node = self.node
        if self.fresh:
            cpu = node.cpu
            now = self.engine.now
            # Resource._finish, inlined: the freed server promotes its
            # next waiter *before* this request's own logic continues.
            cpu.jobs_served += 1
            cpu._busy_integral += cpu._busy * (now - cpu._last_change)
            cpu._last_change = now
            cpu._busy -= 1
            waiting = cpu._waiting
            if waiting and cpu._busy < cpu.capacity:
                wcb, wdur = waiting.popleft()
                cpu._busy += 1
                self.schedule(wdur, wcb)
        target = self.target
        dyn = node.dynamic_cost_of_target
        if dyn is not None and dyn[target] > 0.0:
            # Dynamic (CGI) request: uncacheable CPU-bound compute plus
            # transmit as one combined service, neither a hit nor a miss.
            node.dynamic_requests += 1
            self.outcome = "dynamic"
            self.plan = _EMPTY_PLAN
            self.plan_i = 0
            self._enqueue(
                node.cpu,
                node.costs.dynamic_service_time(dyn[target])
                + self.units[target] * node._transmit_per_unit,
                self._advance_cb,
            )
            return
        hint = self.hit_hint
        if hint is not None:
            # LB/GC: the front-end's idealized cache model dictated the
            # outcome (the hit is checked before any in-flight read).
            if hint:
                node.cache_hits += 1
                self.outcome = "hit"
                self.plan = _EMPTY_PLAN
                self.plan_i = 0
                self._enqueue(
                    node.cpu, self.units[target] * node._transmit_per_unit, self._advance_cb
                )
                return
            if node._pending:
                pending = node._pending.get(target)
                if pending is not None:
                    self._join_pending(pending)
                    return
            node.cache_misses += 1
            self._start_disk_read()
            return
        gms = node.gms
        if gms is None:
            # Private cache: an in-flight read is checked before the
            # cache is touched.
            if node._pending:
                pending = node._pending.get(target)
                if pending is not None:
                    self._join_pending(pending)
                    return
            if node.cache.access(target, self.size):
                node.cache_hits += 1
                self.outcome = "hit"
                self.plan = _EMPTY_PLAN
                self.plan_i = 0
                self._enqueue(
                    node.cpu, self.units[target] * node._transmit_per_unit, self._advance_cb
                )
                return
            node.cache_misses += 1
            self._start_disk_read()
            return
        # WRR/GMS.
        if node._pending:
            pending = node._pending.get(target)
            if pending is not None:
                self._join_pending(pending)
                return
        result = gms.access(node.node_id, target, self.size)
        outcome = result.outcome
        costs = node.costs
        self.plan = _EMPTY_PLAN
        self.plan_i = 0
        if outcome is GMSOutcome.LOCAL_HIT:
            node.cache_hits += 1
            node.gms_local_hits += 1
            self.outcome = "gms_local"
            self._enqueue(node.cpu, costs.transmit_time(self.size), self._advance_cb)
        elif outcome is GMSOutcome.REMOTE_HIT:
            # Counted as a memory hit cluster-wide: no disk is touched,
            # but both peers pay fetch CPU.
            node.cache_hits += 1
            node.gms_remote_hits += 1
            self.outcome = "gms_remote"
            fetch = costs.gms_fetch_time(self.size)
            self.fetch = fetch
            self._enqueue(node.peers[result.holder].cpu, fetch, self._remote_cb)
        else:
            node.cache_misses += 1
            self._start_disk_read()

    def _enqueue(self, resource: Any, duration: float, callback: Any) -> None:
        """Resource._enqueue, inlined, with ``callback`` as the fused
        completion stage."""
        self.res = resource
        if resource._busy < resource.capacity:
            now = self.engine.now
            resource._busy_integral += resource._busy * (now - resource._last_change)
            resource._last_change = now
            resource._busy += 1
            self.schedule(duration, callback)
        else:
            resource._waiting.append((callback, duration))

    def _join_pending(self, pending: SimEvent) -> None:
        """The file is already being read from disk on this node: wait
        for that read (coalescing) or issue an independent one."""
        node = self.node
        node.cache_misses += 1
        if node.coalesce_reads:
            node.coalesced_reads += 1
            self.outcome = "coalesced"
            # The event is registered in _pending, hence not yet
            # triggered: join its waiter list in arrival order.
            pending._waiters.append(self._coalesced_cb)
        else:
            self.outcome = "miss"
            self._start_chunked_read()

    def _coalesced(self, value: Any = None) -> None:
        """The awaited disk read finished: transmit from memory."""
        node = self.node
        self.plan = _EMPTY_PLAN
        self.plan_i = 0
        self._enqueue(
            node.cpu, self.units[self.target] * node._transmit_per_unit, self._advance_cb
        )

    def _remote(self) -> None:
        """A GMS remote hit's fetch service finished: after the holder's,
        the requester pays the same fetch; after the requester's, the
        transmit is priced by the cost model in force now."""
        res = self.res
        self._release(res)
        node = self.node
        if self.plan_i == 0:
            self.plan_i = 1
            self._enqueue(node.cpu, self.fetch, self._remote_cb)
        else:
            self.plan_i = 0
            self._enqueue(node.cpu, node.costs.transmit_time(self.size), self._advance_cb)

    def _start_disk_read(self) -> None:
        """First reader of a file: register the in-flight marker, then
        perform the chunked read."""
        node = self.node
        event = SimEvent(self.engine)
        node._pending[self.target] = event
        self.read_event = event
        self.outcome = "miss"
        self._start_chunked_read()

    def _start_chunked_read(self) -> None:
        """Disk service then CPU transmit per 44 KB chunk, first chunk
        enqueued here, the rest via the plan.  Durations come from the
        cost model in force when the read starts."""
        node = self.node
        target = self.target
        size = self.size
        fp = self.fp
        node.disk_reads += 1
        cpu = node.cpu
        per_unit = node._transmit_per_unit
        if node.costs is fp.costs:
            if size <= fp.chunk_bytes:
                # Single chunk (the common case): both durations precomputed.
                self.plan = ((cpu, fp.units[target] * per_unit),)
                self.plan_i = 0
                self._enqueue(
                    node.disk_for(target), fp.single_disk_time[target], self._advance_cb
                )
                return
            pairs = fp.chunk_plan(target, size)
        else:
            pairs = _chunk_pairs(node.costs, size)
        disk = node.disk_for(target)
        plan: List[Tuple[Any, float]] = [(cpu, pairs[0][1] * per_unit)]
        append = plan.append
        for disk_time, cpu_units in pairs[1:]:
            append((disk, disk_time))
            append((cpu, cpu_units * per_unit))
        self.plan = plan
        self.plan_i = 0
        self._enqueue(disk, pairs[0][0], self._advance_cb)

    def _advance(self) -> None:
        """One data service done: book it, then enqueue the next plan
        step, or close out the read and move to teardown (or, mid
        persistent connection, to the next request)."""
        res = self.res
        now = self.engine.now
        # Resource._finish, inlined (waiter promotion before our logic).
        res.jobs_served += 1
        res._busy_integral += res._busy * (now - res._last_change)
        res._last_change = now
        res._busy -= 1
        waiting = res._waiting
        if waiting and res._busy < res.capacity:
            wcb, wdur = waiting.popleft()
            res._busy += 1
            self.schedule(wdur, wcb)
        plan = self.plan
        i = self.plan_i
        if i < len(plan):
            self.plan_i = i + 1
            resource, duration = plan[i]
            self._enqueue(resource, duration, self._advance_cb)
            return
        event = self.read_event
        node = self.node
        if event is not None:
            # Deregister *after* the last chunk completes and *before*
            # teardown is enqueued, so coalesced waiters wake in order.
            self.read_event = None
            del node._pending[self.target]
            event.trigger()
        if self.general and self.i + 1 < self.end:
            self._request_done(now)
            return
        # Resource._enqueue, inlined (teardown service).
        cpu = node.cpu
        if cpu._busy < cpu.capacity:
            cpu._busy_integral += cpu._busy * (now - cpu._last_change)
            cpu._last_change = now
            cpu._busy += 1
            self.schedule(node._teardown_time, self._complete_cb)
        else:
            cpu._waiting.append((self._complete_cb, node._teardown_time))

    def _complete(self) -> None:
        """Teardown done: book it, fold the request into the node and
        front-end counters, park the object, refill the admission
        pipeline (``_account_request``/``_detach``/``admit`` inlined)."""
        node = self.node
        cpu = node.cpu
        now = self.engine.now
        # Resource._finish, inlined.
        cpu.jobs_served += 1
        cpu._busy_integral += cpu._busy * (now - cpu._last_change)
        cpu._last_change = now
        cpu._busy -= 1
        waiting = cpu._waiting
        if waiting and cpu._busy < cpu.capacity:
            wcb, wdur = waiting.popleft()
            cpu._busy += 1
            self.schedule(wdur, wcb)
        node.requests_served += 1
        node.bytes_served += self.size
        fe = self.fe
        fp = self.fp
        node_id = self.node_id
        delay = now - self.start
        # FrontEnd._account_request, inlined.
        fe.total_delay_s += delay
        if fe.collect_delays:
            fe.delays_s.append(delay)
        live = fp.epochs[node_id] == self.epoch
        if live:
            fp.per_node_delay_s[node_id] += delay
            fp.per_node_completions[node_id] += 1
        if fe.timeline_interval_s is not None:
            bucket = int(now // fe.timeline_interval_s)
            fe.timeline[bucket] = fe.timeline.get(bucket, 0) + 1
        fe.completed += 1
        # FrontEnd._detach, inlined (Policy.on_complete and
        # LoadTracker.on_complete bodies folded in; the canonical calls
        # reproduce the errors on the failure branches, and a -1 delta
        # can only cross the threshold downward, so only the
        # enters-underutilization transition is reachable).
        policy = fp.policy
        if live:
            p_loads = fp.p_loads
            if p_loads[node_id] <= 0:
                policy.on_complete(node_id)
            p_loads[node_id] -= 1
            policy.completions += 1
            t_load = fp.t_load
            load = t_load[node_id] - 1
            if load < 0:
                fp.tracker.on_complete(node_id, now)
            t_load[node_id] = load
            if load < fp.t_threshold and not fp.t_is_under[node_id]:
                fp.t_under_since[node_id] = now
                fp.t_is_under[node_id] = True
        else:
            fe.orphaned += 1
        fe.in_flight -= 1
        # Park before re-admission so the next admitted request can
        # reuse this object; nothing below touches self.
        fp.pool.append(self)
        # The steady-state single admission, inlined from FastPath.admit
        # (a plain run has one request per connection, and nothing on
        # the plain path reads the connection's trace indices).
        i = fe._next
        if i < fp.n and fe.in_flight < fe.max_in_flight:
            target = fp.targets_l[i]
            fe._next = i + 1
            size = fp.sizes_l[target]
            node_id = fp.choose(target, size, now=now)
            take = fp.take
            hit_hint = take() if take is not None else None
            if not fp.p_alive[node_id]:
                policy.on_dispatch(node_id)
            fp.p_loads[node_id] += 1
            policy.dispatches += 1
            t_load = fp.t_load
            load = t_load[node_id] + 1
            t_load[node_id] = load
            if load >= fp.t_threshold and fp.t_is_under[node_id]:
                fp.t_under_time[node_id] += now - fp.t_under_since[node_id]
                fp.t_is_under[node_id] = False
            fp.per_node_dispatches[node_id] += 1
            fe.connections += 1
            fe.in_flight += 1
            pool = fp.pool
            conn = pool.pop() if pool else FastConnection(fp)
            conn.node_id = node_id
            conn.node = fp.nodes[node_id]
            conn.target = target
            conn.size = size
            conn.hit_hint = hit_hint
            self.schedule(0.0, conn._begin_cb)
            # A single freed slot admits a single connection; anything
            # more (a raised admission limit racing this completion)
            # falls through to the general loop.
            if fe.in_flight < fe.max_in_flight and fe._next < fp.n:
                fp.admit()

    # -- the general path: persistent connections, faults, tracing -------------

    def _begin_general(self) -> None:
        """Start event on the general path: read epoch/start *now*, then
        enter the connection loop."""
        self.epoch = self.fp.epochs[self.node_id]
        now = self.engine.now
        self.start = self.t_first = now
        self.attempts = 0
        self.i = self.first
        self.fresh = True
        self._serve_next()

    def _complete_general(self) -> None:
        """Teardown done on the general path: book it, then account the
        request and close the connection."""
        self._release(self.node.cpu)
        self._request_done(self.engine.now)

    def _serve_next(self) -> None:
        """Top of the connection loop: serve request ``i`` on the
        current node, re-running the policy first under ``rehandoff``;
        a dark node sends the request into a client timeout instead."""
        fp = self.fp
        i = self.i
        target = fp.targets_l[i]
        size = fp.sizes_l[target]
        self.target = target
        self.size = size
        faults = self.faults
        if faults is not None and faults.is_dark(self.node_id):
            self._doom()
            return
        if not self.fresh:
            self.hit_hint = None
            if fp.rehandoff:
                self._rehandoff()
                if faults is not None and faults.is_dark(self.node_id):
                    # Rehandoff landed on a dark node: the attempt times
                    # out there like any doomed dispatch.
                    self.fresh = True
                    self._doom()
                    return
        now = self.engine.now
        if i != self.first:
            # The connection's first request is timed from its admission
            # (retries included); later ones from when they start.
            self.start = now
        if self.tracer is not None:
            self.span = self.tracer.begin(target, size, self.node_id, now)
            self.t0 = now
        if self.fresh:
            node = self.node
            self._enqueue(node.cpu, node._conn_time, self._decide_cb)
        else:
            self._decide()

    def _request_done(self, now: float) -> None:
        """The current request's service ended (teardown, or its data
        mid-connection): account it, then serve the next request or
        close the connection."""
        node = self.node
        node.requests_served += 1
        node.bytes_served += self.size
        span = self.span
        if span is not None:
            span.outcome = self.outcome
            span.t_complete = now
            self.tracer.finish(span)
        fe = self.fe
        fe._account_request(self.node_id, self.epoch, self.start)
        faults = self.faults
        if faults is not None:
            faults.record_served(now, now - self.start, self.outcome in _MISSED)
        self.fresh = False
        self.i += 1
        if self.i < self.end:
            self._serve_next()
            return
        fe._detach(self.node_id, self.epoch)
        self._close()

    def _close(self) -> None:
        """Release the admission slot, park, and refill the pipeline."""
        self.fe.in_flight -= 1
        fp = self.fp
        fp.pool.append(self)
        fp.admit()

    def _rehandoff(self) -> None:
        """Re-run the policy for the next request on a persistent
        connection and move the connection when it says so."""
        fp = self.fp
        fe = self.fe
        now = self.engine.now
        node_id = self.node_id
        epoch = self.epoch
        new_node = fp.choose(self.target, self.size, now=now)
        take = fp.take
        self.hit_hint = take() if take is not None else None
        if new_node == node_id and fp.epochs[node_id] == epoch:
            return
        # Move the connection: release the old node's slot, take the new.
        fe._detach(node_id, epoch)
        fe._attach(new_node)
        fe.rehandoffs += 1
        self.node_id = new_node
        self.node = fp.nodes[new_node]
        self.epoch = fp.epochs[new_node]

    def _doom(self) -> None:
        """Dispatched to a crashed-but-undetected node: the request is
        a black hole until the client's timeout."""
        faults = self.faults
        faults.doomed_dispatches += 1
        self.schedule(faults.retry.timeout_s, self._timeout_cb)

    def _timeout(self) -> None:
        """Client timeout: release the dark node's slot, then back off
        and retry, or, out of retries, abandon the connection's
        remaining requests as lost."""
        fe = self.fe
        faults = self.faults
        retry = faults.retry
        fe._detach(self.node_id, self.epoch)
        if self.attempts >= retry.max_retries:
            now = self.engine.now
            t_first = self.t_first
            tracer = self.tracer
            fp = self.fp
            for i in range(self.i, self.end):
                fe._account_lost(t_first)
                faults.record_lost(now, now - t_first)
                if tracer is not None:
                    target = fp.targets_l[i]
                    tracer.lost(target, fp.sizes_l[target], self.node_id, t_first, now)
            self._close()
            return
        self.attempts += 1
        faults.retried_requests += self.end - self.i
        self.schedule(retry.backoff_s(self.attempts), self._retry_cb)

    def _retry(self) -> None:
        """Backoff over: the front end re-runs the policy for the
        request and dispatches it afresh."""
        fp = self.fp
        node_id = fp.choose(self.target, self.size, now=self.engine.now)
        take = fp.take
        self.hit_hint = take() if take is not None else None
        self.fe._attach(node_id)
        self.node_id = node_id
        self.node = fp.nodes[node_id]
        self.epoch = fp.epochs[node_id]
        self.fresh = True
        self._serve_next()

    # -- helpers -----------------------------------------------------------------

    def _release(self, res: Any) -> None:
        """Resource._finish for the stages off the per-request path."""
        now = self.engine.now
        res.jobs_served += 1
        res._busy_integral += res._busy * (now - res._last_change)
        res._last_change = now
        res._busy -= 1
        waiting = res._waiting
        if waiting and res._busy < res.capacity:
            wcb, wdur = waiting.popleft()
            res._busy += 1
            self.schedule(wdur, wcb)

    # -- tracer hooks: charge the phase that just ended, then run the stage --

    def _phase(self, name: str) -> None:
        """Charge ``now - t0`` to span phase ``name`` and start the next
        phase."""
        now = self.engine.now
        phases = self.span.phases
        phases[name] = phases.get(name, 0.0) + (now - self.t0)
        self.t0 = now

    def _decide_traced(self) -> None:
        self._phase("establish")
        self._decide()

    def _advance_traced(self) -> None:
        # A GMS remote hit's two fetch services run through ``_remote``,
        # so its transmit charges the whole fetch-and-transmit span.
        self._phase("cpu" if self.res is self.node.cpu else "disk")
        self._advance()

    def _coalesced_traced(self, value: Any = None) -> None:
        self._phase("queue")
        self._coalesced(value)

    def _complete_traced(self) -> None:
        self._phase("teardown")
        self._complete_general()
