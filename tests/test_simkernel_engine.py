"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.simkernel import (
    Engine,
    Interrupt,
    StopSimulation,
    Tracer,
    derive_seed,
)


class TestEngineBasics:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_clock_starts_at_custom_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_timeout_advances_clock(self):
        eng = Engine()
        eng.timeout(3.5)
        eng.run()
        assert eng.now == pytest.approx(3.5)

    def test_run_until_time_stops_early(self):
        eng = Engine()
        eng.timeout(10.0)
        eng.run(until=4.0)
        assert eng.now == pytest.approx(4.0)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Engine().timeout(-1.0)

    def test_run_until_past_time_rejected(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(ValueError):
            eng.run(until=5.0)

    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        for delay in (3.0, 1.0, 2.0):
            eng.timeout(delay, value=delay).add_callback(
                lambda ev: fired.append(ev.value))
        eng.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_call_at_runs_callback(self):
        eng = Engine()
        seen = []
        eng.call_at(2.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [2.0]

    def test_call_at_in_past_rejected(self):
        eng = Engine(start_time=3.0)
        with pytest.raises(ValueError):
            eng.call_at(1.0, lambda: None)

    def test_event_cannot_fire_twice(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_event_value_before_trigger_raises(self):
        eng = Engine()
        with pytest.raises(RuntimeError):
            _ = eng.event().value


class TestRunUntilTimeBound:
    def test_later_events_stay_queued_and_resume(self):
        eng = Engine()
        fired = []
        eng.timeout(1.0, value="early").add_callback(
            lambda ev: fired.append(ev.value))
        eng.timeout(5.0, value="late").add_callback(
            lambda ev: fired.append(ev.value))
        eng.run(until=2.0)
        assert fired == ["early"]
        assert eng.now == pytest.approx(2.0)
        # The time bound pauses, it does not cancel: a later run continues.
        eng.run()
        assert fired == ["early", "late"]
        assert eng.now == pytest.approx(5.0)

    def test_until_exact_event_time_fires_the_event(self):
        eng = Engine()
        fired = []
        eng.timeout(3.0).add_callback(lambda ev: fired.append(eng.now))
        eng.run(until=3.0)
        assert fired == [3.0]
        assert eng.now == pytest.approx(3.0)

    def test_until_with_empty_queue_advances_clock(self):
        eng = Engine()
        eng.run(until=7.0)
        assert eng.now == pytest.approx(7.0)

    def test_until_now_is_a_noop(self):
        eng = Engine(start_time=2.0)
        eng.timeout(1.0)
        eng.run(until=2.0)
        assert eng.now == pytest.approx(2.0)


class TestStopSimulation:
    def test_stop_from_process_terminates_run(self):
        eng = Engine()
        fired = []
        eng.timeout(10.0).add_callback(lambda ev: fired.append("too late"))

        def stopper():
            yield eng.timeout(1.0)
            raise StopSimulation("done")

        eng.process(stopper())
        assert eng.run() == "done"
        assert eng.now == pytest.approx(1.0)
        assert fired == []

    def test_stop_without_value_returns_none(self):
        eng = Engine()

        def stopper():
            yield eng.timeout(1.0)
            raise StopSimulation

        eng.process(stopper())
        assert eng.run() is None

    def test_stop_from_callback_terminates_run(self):
        def boom(_event):
            raise StopSimulation("from-callback")

        eng = Engine()
        eng.timeout(2.0).add_callback(boom)
        eng.timeout(5.0)
        assert eng.run() == "from-callback"
        assert eng.now == pytest.approx(2.0)


class TestProcesses:
    def test_process_return_value(self):
        eng = Engine()

        def worker():
            yield eng.timeout(1.0)
            return "done"

        proc = eng.process(worker())
        assert eng.run(until=proc) == "done"
        assert eng.now == pytest.approx(1.0)

    def test_process_receives_event_value(self):
        eng = Engine()
        results = []

        def worker():
            value = yield eng.timeout(1.0, value=42)
            results.append(value)

        eng.process(worker())
        eng.run()
        assert results == [42]

    def test_processes_wait_on_each_other(self):
        eng = Engine()

        def child():
            yield eng.timeout(2.0)
            return 7

        def parent():
            value = yield eng.process(child())
            return value * 2

        proc = eng.process(parent())
        assert eng.run(until=proc) == 14

    def test_interrupt_wakes_process(self):
        eng = Engine()
        caught = []

        def sleeper():
            try:
                yield eng.timeout(100.0)
            except Interrupt as exc:
                caught.append(exc.cause)
            return "interrupted"

        proc = eng.process(sleeper())
        eng.call_at(1.0, lambda: proc.interrupt("wake up"))
        assert eng.run(until=proc) == "interrupted"
        assert caught == ["wake up"]
        assert eng.now == pytest.approx(1.0)

    def test_interrupting_finished_process_is_noop(self):
        eng = Engine()

        def quick():
            yield eng.timeout(0.1)

        proc = eng.process(quick())
        eng.run(until=proc)
        proc.interrupt("too late")  # must not raise
        eng.run()

    def test_strict_mode_propagates_exceptions(self):
        eng = Engine()

        def boom():
            yield eng.timeout(0.1)
            raise ValueError("boom")

        proc = eng.process(boom())
        with pytest.raises(ValueError):
            eng.run(until=proc)

    def test_yielding_non_event_raises(self):
        eng = Engine()

        def bad():
            yield 42

        eng.process(bad())
        with pytest.raises(TypeError):
            eng.run()

    def test_all_of_waits_for_everything(self):
        eng = Engine()

        def waiter():
            result = yield eng.all_of([eng.timeout(5.0, "slow"),
                                       eng.timeout(1.0, "fast")])
            return sorted(result.values())

        proc = eng.process(waiter())
        assert eng.run(until=proc) == ["fast", "slow"]
        assert eng.now == pytest.approx(5.0)


class TestRandomStreams:
    def test_derive_seed_is_stable_and_positive(self):
        assert derive_seed(3, "abc") == derive_seed(3, "abc")
        assert derive_seed(3, "abc") >= 0


class TestTracer:
    def test_emit_and_select(self):
        tracer = Tracer()
        tracer.emit(1.0, "a", x=1)
        tracer.emit(2.0, "b", x=2)
        tracer.emit(3.0, "a", x=3)
        assert len(tracer) == 3
        assert [r["x"] for r in tracer.select("a")] == [1, 3]
        assert tracer.select("a", x=3)[0].time == 3.0
        assert tracer.categories() == {"a": 2, "b": 1}
