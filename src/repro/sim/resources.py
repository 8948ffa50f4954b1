"""Queueing resources and synchronization primitives for the DES engine.

Three building blocks cover everything the cluster model needs:

* :class:`Resource` — a FIFO multi-server queue (``capacity`` servers).  A
  process yields ``Service(resource, duration)`` to enqueue a job and is
  resumed once its service completes.  The paper's back-end CPU and each
  disk are modelled as single-server :class:`Resource` instances.
* :class:`Acquire` / :class:`Release` — classic counting-semaphore style
  hold of a server for a process-controlled span (used where service time
  is not known up front).
* :class:`SimEvent` — a one-shot broadcast event; processes yielding
  ``Wait(event)`` are all resumed when ``event.trigger(value)`` fires.
  Used for read-coalescing: concurrent misses on one file wait for a single
  disk read.

All resources track time-integrated busy-ness so that utilization can be
reported without sampling.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from .engine import Engine, Process, SimulationError

__all__ = ["Resource", "Service", "Acquire", "Release", "SimEvent", "Wait"]


class Resource:
    """A FIFO queue in front of ``capacity`` identical servers.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.sim.engine.Engine`.
    capacity:
        Number of jobs that may be in service simultaneously.
    name:
        Label used in ``repr`` and error messages.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._busy = 0
        # Waiters are stored as their *resume callables*, not process
        # objects: generator processes enqueue ``process._resume`` and
        # the cluster's request lifecycle (repro.cluster.fastpath)
        # enqueues its per-stage bound callbacks.
        self._waiting: Deque[Tuple[Callable[..., None], Optional[float]]] = deque()
        # Utilization accounting: integral of (busy servers) dt.
        self._busy_integral = 0.0
        self._last_change = engine.now
        self.jobs_served = 0
        # Pre-bound completion callback: _finish is scheduled once per job,
        # so re-binding the method per call would allocate on the hot path.
        self._finish_cb = self._finish

    # -- accounting ---------------------------------------------------------

    def _account(self) -> None:
        now = self.engine.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Total server-busy time integrated up to the current clock."""
        self._account()
        return self._busy_integral

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity in use between ``since`` and now."""
        elapsed = self.engine.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / (elapsed * self.capacity)

    @property
    def busy(self) -> int:
        """Servers currently in service."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not yet in service)."""
        return len(self._waiting)

    # -- mechanics ----------------------------------------------------------

    def _enqueue(self, resume: Callable[..., None], duration: Optional[float]) -> None:
        # _start's body is inlined for the uncontended case: enqueue and
        # finish are the two most frequent operations in a simulation.
        if self._busy < self.capacity:
            engine = self.engine
            now = engine.now
            self._busy_integral += self._busy * (now - self._last_change)
            self._last_change = now
            self._busy += 1
            if duration is None:
                # Acquire-style hold: resume the caller immediately; it
                # will yield Release(resource) later.
                engine.schedule(0.0, resume)
            else:
                engine.schedule(duration, self._finish_cb, resume)
        else:
            self._waiting.append((resume, duration))

    def _start(self, resume: Callable[..., None], duration: Optional[float]) -> None:
        now = self.engine.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now
        self._busy += 1
        if duration is None:
            # Acquire-style hold: resume the caller immediately; it will
            # yield Release(resource) later.
            self.engine.schedule(0.0, resume)
        else:
            self.engine.schedule(duration, self._finish_cb, resume)

    def _finish(self, resume: Callable[..., None]) -> None:
        self.jobs_served += 1
        now = self.engine.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now
        self._busy -= 1
        if self._waiting and self._busy < self.capacity:
            waiter, duration = self._waiting.popleft()
            self._start(waiter, duration)
        resume()

    def _release_server(self) -> None:
        now = self.engine.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now
        self._busy -= 1
        if self._busy < 0:  # pragma: no cover - defensive
            raise SimulationError(f"resource {self.name!r} released below zero")
        if self._waiting and self._busy < self.capacity:
            resume, duration = self._waiting.popleft()
            self._start(resume, duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name or hex(id(self))} busy={self._busy}/"
            f"{self.capacity} queued={len(self._waiting)}>"
        )


class Service:
    """Command: enqueue at ``resource`` for ``duration`` of FIFO service."""

    __slots__ = ("resource", "duration")

    def __init__(self, resource: Resource, duration: float) -> None:
        if duration < 0:
            raise SimulationError(f"negative service duration: {duration!r}")
        self.resource = resource
        self.duration = duration

    def _activate(self, process: Process) -> None:
        self.resource._enqueue(process._resume, self.duration)


class Acquire:
    """Command: hold one server of ``resource`` until a matching Release."""

    __slots__ = ("resource",)

    def __init__(self, resource: Resource) -> None:
        self.resource = resource

    def _activate(self, process: Process) -> None:
        self.resource._enqueue(process._resume, None)


class Release:
    """Command: give back a server previously taken with :class:`Acquire`."""

    __slots__ = ("resource",)

    def __init__(self, resource: Resource) -> None:
        self.resource = resource

    def _activate(self, process: Process) -> None:
        self.resource._release_server()
        self.resource.engine.schedule(0.0, process._resume)


class SimEvent:
    """One-shot broadcast event.

    ``Wait(event)`` suspends a process until :meth:`trigger` fires; the
    triggered value is delivered as the result of the ``yield``.  Waiting on
    an already-triggered event resumes immediately with the stored value.
    """

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.triggered = False
        self.value: Any = None
        # Resume callables (see Resource._waiting): a generator waiter
        # registers ``process._resume``, a request-lifecycle connection
        # its coalesced-wakeup callback.
        self._waiters: List[Callable[..., None]] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming every waiter with ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            self.engine.schedule(0.0, resume, value)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered={self.value!r}" if self.triggered else "pending"
        return f"<SimEvent {self.name or hex(id(self))} {state}>"


class Wait:
    """Command: suspend until ``event`` triggers; yields the trigger value."""

    __slots__ = ("event",)

    def __init__(self, event: SimEvent) -> None:
        self.event = event

    def _activate(self, process: Process) -> None:
        if self.event.triggered:
            self.event.engine.schedule(0.0, process._resume, self.event.value)
        else:
            self.event._waiters.append(process._resume)
