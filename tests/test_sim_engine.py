"""Unit tests for the discrete-event engine."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim import Delay, Engine, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_in_time_order():
    eng = Engine()
    log = []
    eng.schedule(2.0, lambda: log.append(("b", eng.now)))
    eng.schedule(1.0, lambda: log.append(("a", eng.now)))
    eng.schedule(3.0, lambda: log.append(("c", eng.now)))
    eng.run()
    assert log == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_ties_break_by_insertion_order():
    eng = Engine()
    log = []
    for name in "abc":
        eng.schedule(1.0, lambda n=name: log.append(n))
    eng.run()
    assert log == ["a", "b", "c"]


def test_schedule_with_args():
    eng = Engine()
    log = []
    eng.schedule(1.0, log.append, "x")
    eng.run()
    assert log == ["x"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-0.1, lambda: None)


def test_run_until_stops_clock_exactly():
    eng = Engine()
    log = []
    eng.schedule(5.0, lambda: log.append("late"))
    end = eng.run(until=2.0)
    assert end == 2.0
    assert eng.now == 2.0
    assert log == []
    assert eng.pending == 1
    eng.run()
    assert log == ["late"]


def test_run_until_beyond_last_event_advances_clock():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    end = eng.run(until=10.0)
    assert end == 10.0


def test_stop_halts_dispatch():
    eng = Engine()
    log = []
    eng.schedule(1.0, lambda: (log.append("first"), eng.stop()))
    eng.schedule(2.0, lambda: log.append("second"))
    eng.run()
    assert log == ["first"]
    assert eng.pending == 1


def test_events_dispatched_counter():
    eng = Engine()
    for _ in range(5):
        eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.events_dispatched == 5


def test_events_scheduled_during_run_are_dispatched():
    eng = Engine()
    log = []

    def first():
        eng.schedule(1.0, lambda: log.append(eng.now))

    eng.schedule(1.0, first)
    eng.run()
    assert log == [2.0]


class TestProcess:
    def test_simple_delay_process(self):
        eng = Engine()
        log = []

        def proc():
            yield Delay(1.5)
            log.append(eng.now)
            yield Delay(0.5)
            log.append(eng.now)

        eng.process(proc())
        eng.run()
        assert log == [1.5, 2.0]

    def test_process_return_value_captured(self):
        eng = Engine()

        def proc():
            yield Delay(1.0)
            return 42

        handle = eng.process(proc())
        eng.run()
        assert handle.finished
        assert handle.value == 42

    def test_zero_delay_is_legal(self):
        eng = Engine()
        log = []

        def proc():
            yield Delay(0.0)
            log.append(eng.now)

        eng.process(proc())
        eng.run()
        assert log == [0.0]

    def test_negative_delay_in_process_rejected(self):
        with pytest.raises(SimulationError):
            Delay(-1.0)

    def test_unknown_yield_raises(self):
        eng = Engine()

        def proc():
            yield "not a command"

        eng.process(proc())
        with pytest.raises(SimulationError, match="unknown"):
            eng.run()

    def test_two_processes_interleave(self):
        eng = Engine()
        log = []

        def proc(name, step):
            for _ in range(3):
                yield Delay(step)
                log.append((name, eng.now))

        eng.process(proc("fast", 1.0))
        eng.process(proc("slow", 2.0))
        eng.run()
        assert log == [
            ("fast", 1.0),
            ("slow", 2.0),  # slow's wakeup was queued earlier -> dispatched first
            ("fast", 2.0),
            ("fast", 3.0),
            ("slow", 4.0),
            ("slow", 6.0),
        ]

    def test_process_not_started_synchronously(self):
        eng = Engine()
        log = []

        def proc():
            log.append("started")
            yield Delay(1.0)

        eng.process(proc())
        assert log == []  # starts via the event queue, not at creation
        eng.run()
        assert log == ["started"]


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        log = []

        def proc(n):
            yield Delay(n * 0.1)
            log.append(n)
            yield Delay(1.0)
            log.append(n * 10)

        for n in range(5):
            eng.process(proc(n))
        eng.run()
        return log

    assert build() == build()


class TestScheduleAt:
    def test_runs_at_absolute_time(self):
        eng = Engine()
        log = []
        eng.schedule_at(2.5, lambda: log.append(eng.now))
        eng.run()
        assert log == [2.5]

    def test_past_rejected(self):
        eng = Engine()
        eng.schedule(1.0, lambda: eng.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError, match="past"):
            eng.run()

    def test_now_is_legal_and_runs_after_queued_same_time_events(self):
        eng = Engine()
        log = []

        def first():
            log.append("first")
            eng.schedule_at(eng.now, lambda: log.append("at-now"))

        eng.schedule(1.0, first)
        eng.schedule(1.0, lambda: log.append("second"))
        eng.run()
        # The schedule_at(now) event was inserted after 'second' was already
        # queued for t=1.0, so insertion order places it last.
        assert log == ["first", "second", "at-now"]

    def test_interleaved_schedule_and_schedule_at_tie_break_by_insertion(self):
        eng = Engine()
        log = []
        eng.schedule(3.0, lambda: log.append("rel"))
        eng.schedule_at(3.0, lambda: log.append("abs"))
        eng.schedule(3.0, lambda: log.append("rel2"))
        eng.run()
        assert log == ["rel", "abs", "rel2"]

    def test_schedule_at_with_args(self):
        eng = Engine()
        log = []
        eng.schedule_at(1.0, lambda a, b: log.append((a, b)), 1, "x")
        eng.run()
        assert log == [(1, "x")]

    def test_mixed_determinism_two_identical_runs(self):
        def build():
            eng = Engine()
            log = []
            for i in range(5):
                eng.schedule(1.0 + (i % 2), lambda i=i: log.append(("rel", i)))
                eng.schedule_at(1.0 + (i % 3), lambda i=i: log.append(("abs", i)))
            eng.run()
            return log

        assert build() == build()


# -- the run loop: until windows and stop/resume --------------------------------
#
# A schedule program is a list of instructions, one per event label.  When
# event ``i`` fires it schedules the children listed in ``program[i]``;
# child indices always point *forward* so the recursion terminates.  Each
# child is (index, mode, delay): mode "rel" uses schedule(delay), "abs"
# uses schedule_at(now + delay), and "at-now" uses schedule_at(now).
_delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.75])
_modes = st.sampled_from(["rel", "abs", "at-now"])


@st.composite
def _programs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    program = []
    for i in range(n):
        children = draw(
            st.lists(
                st.tuples(st.integers(i + 1, max(i + 1, n - 1)), _modes, _delays),
                min_size=0,
                max_size=3,
            )
        )
        if i >= n - 1:
            children = []  # the last label cannot have forward children
        program.append(children)
    roots = draw(
        st.lists(st.tuples(st.integers(0, n - 1), _delays), min_size=1, max_size=6)
    )
    return program, roots


def _execute(program, roots, stop_at=None, until_steps=()):
    """Run ``program`` on a fresh engine; return its (label, time) log."""
    engine = Engine()
    log = []

    def fire(label):
        log.append((label, engine.now))
        if stop_at is not None and len(log) == stop_at:
            engine.stop()
        for child, mode, delay in program[label]:
            if mode == "rel":
                engine.schedule(delay, fire, child)
            elif mode == "abs":
                engine.schedule_at(engine.now + delay, fire, child)
            else:
                engine.schedule_at(engine.now, fire, child)

    for label, delay in roots:
        engine.schedule(delay, fire, label)
    for until in until_steps:
        engine.run(until=until)
    engine.run()
    if stop_at is not None:
        engine.run()  # resume after the stop
    return log


@given(_programs())
@settings(max_examples=120, deadline=None)
def test_dispatch_never_moves_time_backwards(prog):
    times = [t for _, t in _execute(*prog)]
    assert times == sorted(times)


@given(_programs())
@settings(max_examples=80, deadline=None)
def test_stop_and_resume_matches_an_uninterrupted_run(prog):
    """stop() mid-run halts after the current event; a fresh run()
    resumes the identical remaining stream."""
    assert _execute(*prog, stop_at=2) == _execute(*prog)


@given(_programs(), st.lists(_delays, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_until_windows_match_an_uninterrupted_run(prog, boundaries):
    """run(until=...) windows, including boundaries that land exactly on
    event times, dispatch the same stream as one uninterrupted run."""
    assert _execute(*prog, until_steps=sorted(boundaries)) == _execute(*prog)


def test_until_boundary_dispatches_events_at_exactly_until():
    """An event scheduled exactly at ``until`` runs within that window,
    and the clock parks exactly at ``until``."""
    eng = Engine()
    log = []
    eng.schedule(1.0, log.append, "a")
    eng.schedule(2.0, log.append, "b")
    assert eng.run(until=1.0) == 1.0
    assert log == ["a"]
    assert eng.pending == 1


def test_zero_delay_cascade_keeps_fifo_order():
    """A chain of 0.0-delay events at one instant dispatches in insertion
    order (the engine stages these in a same-instant FIFO)."""
    eng = Engine()
    log = []
    for name in "abc":
        eng.schedule(0.0, log.append, name)
    eng.schedule(0.0, lambda: eng.schedule(0.0, log.append, "child"))
    eng.run()
    assert log == ["a", "b", "c", "child"]


def test_schedule_at_now_runs_after_queued_same_time_events():
    """schedule_at(now) and schedule(0.0) issued from one callback share
    the same-instant FIFO: they run in insertion order, after every event
    already queued for this instant."""
    eng = Engine()
    log = []

    def first():
        log.append("first")
        eng.schedule_at(eng.now, log.append, "abs")
        eng.schedule(0.0, log.append, "rel")
        eng.schedule_at(eng.now, log.append, "abs2")

    eng.schedule(1.0, first)
    eng.schedule(1.0, log.append, "second")  # queued before the others exist
    eng.run()
    assert log == ["first", "second", "abs", "rel", "abs2"]


def test_hook_runs_after_every_event_and_schedules_nothing():
    """The per-event hook sees each dispatched event once, after it ran."""
    eng = Engine()
    seen = []
    log = []
    eng.install_sanitizer(lambda when, callback: seen.append((when, len(log))))
    eng.schedule(1.0, log.append, "a")
    eng.schedule(2.0, log.append, "b")
    assert eng.run() == 2.0
    assert seen == [(1.0, 1), (2.0, 2)]
    assert eng.events_dispatched == 2
