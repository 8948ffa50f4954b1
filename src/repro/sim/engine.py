"""Discrete-event simulation engine.

This module provides the minimal-but-complete event-driven substrate used by
the cluster simulator (:mod:`repro.cluster`).  It is deliberately independent
of any web-server concepts so that it can be tested (and reused) on its own.

The engine follows the classic event-list design:

* :class:`Engine` owns a simulated clock and a priority queue of pending
  events, each a ``(time, sequence, callback, args)`` tuple.  Ties in time
  are broken by insertion order, which makes runs fully deterministic.
  Storing the argument tuple in the queue entry (instead of wrapping the
  callback in a closure) keeps :meth:`Engine.schedule` allocation-free on
  the hot path — a simulation dispatches one of these per event, so a
  per-event lambda is pure overhead.
* :class:`Process` wraps a Python generator.  The generator *yields* command
  objects (:class:`Delay`, :class:`Service`, :class:`Wait`, :class:`Acquire`,
  :class:`Release` from :mod:`repro.sim.resources`) and is resumed by the
  engine when the command completes.  This is the same coroutine style used
  by SimPy, implemented here from scratch so the reproduction has no
  third-party simulation dependency.

Example
-------
>>> eng = Engine()
>>> log = []
>>> def proc():
...     yield Delay(2.0)
...     log.append(eng.now)
>>> _ = eng.process(proc())
>>> eng.run()
2.0
>>> log
[2.0]
"""

from __future__ import annotations

import heapq  # lardlint: disable-file=raw-heapq -- this IS the engine: every push carries the (time, seq) tie-break the rule exists to enforce
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

__all__ = ["Engine", "Process", "Delay", "SimulationError"]

_EMPTY_ARGS: Tuple[Any, ...] = ()
_INF = float("inf")
# Bound once: schedule() pushes on every call.
_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling into the past)."""


class Delay:
    """Command: suspend the issuing process for ``duration`` simulated units.

    ``Delay(0)`` is legal and yields control back to the engine for one
    scheduling round, which is occasionally useful to let same-time events
    interleave deterministically.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise SimulationError(f"negative delay: {duration!r}")
        self.duration = float(duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.duration!r})"


class Process:
    """A generator-driven simulation process.

    Created via :meth:`Engine.process`.  The wrapped generator communicates
    with the engine by yielding command objects; any other yielded value
    raises :class:`SimulationError` so silent protocol mistakes cannot
    corrupt a simulation.

    Attributes
    ----------
    finished:
        True once the generator has run to completion.
    value:
        The value returned by the generator (via ``return value``), or
        ``None``.
    """

    __slots__ = ("engine", "_gen", "finished", "value", "name", "_resume")

    def __init__(
        self, engine: "Engine", gen: Generator[Any, Any, Any], name: str = ""
    ) -> None:
        self.engine = engine
        self._gen = gen
        self.finished = False
        self.value: Any = None
        self.name = name
        # The bound method is scheduled once per event; binding it eagerly
        # avoids re-creating a method object on every wakeup.
        self._resume = self._step

    def _step(self, send_value: Any = None) -> None:
        """Advance the generator by one command and arm the next wakeup."""
        try:
            command = self._gen.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.value = stop.value
            return
        # Exact-type check instead of isinstance: Delay is final in
        # practice and this is the engine's innermost dispatch.
        if command.__class__ is Delay:
            self.engine.schedule(command.duration, self._resume)
            return
        try:
            # Resource-style commands (Service/Acquire/Release/Wait)
            # register themselves and invoke ``process._step(result)``
            # when done.  The direct call avoids the bound-method
            # allocation a getattr-then-call would pay per event.
            command._activate(self)
        except AttributeError:
            if hasattr(command, "_activate"):
                raise  # genuine AttributeError from inside the command
            raise SimulationError(
                f"process {self.name or self._gen!r} yielded an unknown "
                f"command: {command!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "active"
        return f"<Process {self.name or hex(id(self))} {state}>"


class Engine:
    """Deterministic event-list simulation engine.

    The clock starts at 0.0 and only moves forward.  Most scheduling is
    done in relative time via :meth:`schedule`, which composes well and
    cannot create events in the past; :meth:`schedule_at` offers absolute
    time with an explicit past-guard for callers that already hold a
    deadline.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[..., None], Tuple[Any, ...]]] = []
        # Same-instant staging FIFO.  An event scheduled for the
        # *current* clock reading necessarily sorts after every queued
        # event with an earlier time and after every same-time event
        # already in the heap (those were pushed at an earlier clock
        # reading, hence with a smaller seq), so it can skip the heap
        # entirely: a quarter of a cluster simulation's events are
        # zero-delay admissions and wakeups, and each would otherwise
        # sift to the heap root on push and back down on pop.  Entries
        # keep the full (time, seq, callback, args) shape, so they can
        # be flushed back into the heap whenever the invariant "staged
        # time == current clock" is about to break (see run()).
        self._nowq: Deque[Tuple[float, int, Callable[..., None], Tuple[Any, ...]]] = (
            deque()
        )
        self._seq = 0
        self._stopped = False
        self.events_dispatched = 0
        # Optional per-event invariant hook (see repro.sim.sanitize).
        self._sanitizer: Optional[Callable[[float, Callable[..., None]], None]] = None

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated time units."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq = self._seq + 1
        now = self.now
        when = now + delay
        # Route on the *computed* event time, not on ``delay == 0``: a
        # subnormal delay can round ``now + delay`` back to ``now``, and
        # such an event must keep FIFO order with the staged ones.
        if when > now:
            _heappush(self._queue, (when, seq, callback, args))
        else:
            self._nowq.append((when, seq, callback, args))

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``.

        ``when`` may equal the current clock (the event runs after all
        events already queued for this instant, preserving insertion
        order); scheduling strictly into the past raises
        :class:`SimulationError`.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self.now})"
            )
        self._seq += 1
        if when > self.now:
            heapq.heappush(self._queue, (when, self._seq, callback, args))
        else:
            self._nowq.append((when, self._seq, callback, args))

    def process(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        """Register a generator as a process, starting it at the current time."""
        proc = Process(self, gen, name=name)
        # Start the process via the event queue (not synchronously) so that
        # creation order and execution order are both deterministic.
        self._seq += 1
        self._nowq.append((self.now, self._seq, proc._resume, _EMPTY_ARGS))
        return proc

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the queue is empty or the clock passes ``until``.

        Returns the final simulated time.  When ``until`` is given, events
        scheduled after it are left in the queue and the clock is advanced
        exactly to ``until``.
        """
        self._flush_nowq()
        limit = _INF if until is None else until
        hook = self._sanitizer
        self._stopped = False
        queue = self._queue
        nowq = self._nowq
        if nowq and nowq[0][0] > limit:
            # Only a rewinding ``until`` can land here: from now on every
            # staged event carries the time of the event that staged it,
            # which was within the bound.
            self.now = limit
            return limit
        pop = heapq.heappop
        # Every schedule call adds one entry under a fresh seq and every
        # dispatch removes one, so the events this run dispatched are
        # the seqs it issued minus the growth of the queue — counted
        # once at the end instead of once per event.
        issued_before = self._seq - len(queue) - len(nowq)
        try:
            # schedule/schedule_at guarantee event times are never in the
            # past, so the only bound to check is ``until``, and only heap
            # entries can exceed it.  Staged same-instant events dispatch
            # after any equal-time heap entry (the heap entry's seq is
            # necessarily smaller).
            while not self._stopped:
                if nowq:
                    if queue and queue[0][0] <= nowq[0][0]:
                        when, _seq, callback, args = pop(queue)
                    else:
                        when, _seq, callback, args = nowq.popleft()
                elif queue:
                    when, _seq, callback, args = pop(queue)
                    if when > limit:
                        # Put it back: the same (time, seq) key keeps
                        # its place in the dispatch order.
                        _heappush(queue, (when, _seq, callback, args))
                        self.now = limit
                        return limit
                else:
                    break
                self.now = when
                # Most events carry no args (the request lifecycle binds
                # its state into the callback), and a plain call is
                # measurably cheaper than a star-call on an empty tuple.
                if args:
                    callback(*args)
                else:
                    callback()
                if hook is not None:
                    hook(when, callback)
            if until is not None and self.now < until and not self._stopped:
                self.now = until
            return self.now
        finally:
            self.events_dispatched += (
                self._seq - len(queue) - len(nowq) - issued_before
            )

    def _flush_nowq(self) -> None:
        """Re-heap staged same-instant events whose instant has passed.

        Only a ``run(until=...)`` that rewound the clock (``until`` before
        ``now``) can leave the staging FIFO holding events whose time no
        longer equals the clock.  Entries keep their ``(time, seq)`` keys,
        so re-inserting them into the heap preserves dispatch order
        exactly; the run loop's tie rule (heap before FIFO at equal
        times) then remains valid because it only ever compares entries
        staged at the current clock reading.
        """
        nowq = self._nowq
        if nowq and nowq[0][0] != self.now:
            push = heapq.heappush
            queue = self._queue
            while nowq:
                push(queue, nowq.popleft())

    def install_sanitizer(
        self, hook: Callable[[float, Callable[..., None]], None]
    ) -> None:
        """Invoke ``hook(event_time, callback)`` after every dispatched event.

        Pass ``None`` to uninstall.  Without a hook the run loop pays one
        ``None`` check per event.
        """
        self._sanitizer = hook

    def stop(self) -> None:
        """Halt :meth:`run` after the currently dispatching event returns."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue) + len(self._nowq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now:.6f} pending={self.pending}>"
