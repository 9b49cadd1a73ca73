"""Tests of the perf plumbing: the work counters and the fast-path switch."""

import threading

from repro import perf
from repro.obs.metrics import REGISTRY, MetricsRegistry

WORK_NAMES = ("events", "allocations", "probe_memo_hits", "route_cache_hits",
              "route_cache_misses")


def _work_delta(**counts):
    """A registry delta growing the named work counters, as a pool task
    would ship it home."""
    worker = MetricsRegistry()
    base = worker.stored()
    for name, count in counts.items():
        worker.counter(f"repro_perf_{name}_total").inc(count)
    return worker.delta(base)


class TestCounterThreadSafety:
    def test_add_and_snapshot_are_mutually_atomic(self):
        """A snapshot must never observe half of a multi-counter add.

        Regression for the serving layer: ``GET /metrics`` snapshots the
        counters from the event loop while job dispatchers add worker
        deltas in.  ``merge`` commits a delta under the registry lock, so
        the paired counters below can never drift apart in any observed
        snapshot.
        """
        delta = _work_delta(events=1, allocations=1)
        base = perf.counters_snapshot()
        offset = base["events"] - base["allocations"]
        stop = threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                REGISTRY.merge(delta)

        def reader():
            while not stop.is_set():
                snap = perf.counters_snapshot()
                if snap["events"] - snap["allocations"] != offset:
                    torn.append(snap)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.4, stop.set)
        timer.start()
        for thread in threads:
            thread.join()
        timer.cancel()
        assert torn == [], f"snapshot observed torn updates: {torn[:3]}"

    def test_reset_is_atomic_under_concurrent_snapshots(self):
        """Concurrent resets (``REGISTRY.zero``) never expose a half-zeroed
        counter set."""
        delta = _work_delta(**{name: 5 for name in WORK_NAMES})
        REGISTRY.zero()
        stop = threading.Event()
        torn = []

        def zeroer():
            while not stop.is_set():
                REGISTRY.merge(delta)
                REGISTRY.zero()

        def reader():
            while not stop.is_set():
                values = set(perf.counters_snapshot().values())
                # All counters move together (all 0 or all 5); a mixture
                # means the snapshot interleaved a zero or a merge.
                if len(values) != 1:
                    torn.append(values)

        threads = [threading.Thread(target=zeroer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.4, stop.set)
        timer.start()
        for thread in threads:
            thread.join()
        timer.cancel()
        REGISTRY.zero()
        assert torn == [], f"zero interleaved with snapshot: {torn[:3]}"

    def test_snapshot_shape_and_reset(self):
        REGISTRY.zero()
        snap = perf.counters_snapshot()
        assert tuple(snap) == WORK_NAMES
        assert all(type(value) is int and value == 0
                   for value in snap.values())
        perf.EVENTS.value += 3          # the hot loops' bare increment
        assert perf.counters_snapshot()["events"] == 3
        # The same stored series is what /metrics exports.
        assert REGISTRY.value("repro_perf_events_total") == 3
        REGISTRY.zero()
        assert perf.counters_snapshot()["events"] == 0

    def test_work_counters_ride_a_registry_delta(self):
        base = REGISTRY.stored()
        perf.ALLOCATIONS.value += 2
        delta = REGISTRY.delta(base)
        assert [(row[0], row[-1][0]) for row in delta] == \
            [("repro_perf_allocations_total", 2.0)]
        parent = MetricsRegistry()
        parent.merge(delta)
        assert parent.value("repro_perf_allocations_total") == 2.0


class TestFastPathSwitch:
    def test_context_manager_restores_previous_state(self):
        assert perf.fast_path_enabled()
        with perf.fast_path(False):
            assert not perf.fast_path_enabled()
            with perf.fast_path(True):
                assert perf.fast_path_enabled()
            assert not perf.fast_path_enabled()
        assert perf.fast_path_enabled()
