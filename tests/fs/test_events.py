"""Discrete-event engine semantics."""

import pytest

from repro.fs.events import Engine


def test_runs_in_time_order():
    eng = Engine()
    order = []
    eng.schedule_at(3.0, order.append, "c")
    eng.schedule_at(1.0, order.append, "a")
    eng.schedule_at(2.0, order.append, "b")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 3.0


def test_ties_break_by_scheduling_order():
    eng = Engine()
    order = []
    for label in "abc":
        eng.schedule_at(1.0, order.append, label)
    eng.run()
    assert order == ["a", "b", "c"]


def test_schedule_in_is_relative():
    eng = Engine()
    times = []
    eng.schedule_in(2.0, lambda: times.append(eng.now))
    eng.run()
    assert times == [2.0]


def test_events_can_schedule_events():
    eng = Engine()
    seen = []

    def first():
        seen.append(("first", eng.now))
        eng.schedule_in(5.0, lambda: seen.append(("second", eng.now)))

    eng.schedule_at(1.0, first)
    eng.run()
    assert seen == [("first", 1.0), ("second", 6.0)]


def test_cancelled_event_is_skipped():
    eng = Engine()
    hits = []
    ev = eng.schedule_at(1.0, hits.append, "no")
    eng.schedule_at(2.0, hits.append, "yes")
    ev.cancelled = True
    eng.run()
    assert hits == ["yes"]


def test_cannot_schedule_in_the_past():
    eng = Engine()
    eng.schedule_at(5.0, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_at(1.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Engine().schedule_in(-1.0, lambda: None)


def test_run_until_stops_early():
    eng = Engine()
    hits = []
    eng.schedule_at(1.0, hits.append, 1)
    eng.schedule_at(10.0, hits.append, 10)
    eng.run(until=5.0)
    assert hits == [1]
    assert eng.now == 5.0
    eng.run()
    assert hits == [1, 10]


def test_pending_and_processed_counters():
    eng = Engine()
    eng.schedule_at(1.0, lambda: None)
    eng.schedule_at(2.0, lambda: None).cancelled = True
    eng.run(until=1.5)
    assert eng.events_processed == 1
    eng.run()
    assert eng.events_processed == 1  # the cancelled event never ran


def test_callback_args_passed():
    eng = Engine()
    got = []
    eng.schedule_at(1.0, lambda a, b: got.append(a + b), 2, 3)
    eng.run()
    assert got == [5]


def test_idle_engine_run_is_noop():
    eng = Engine()
    eng.run()
    assert eng.now == 0.0
