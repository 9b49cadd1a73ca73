"""Tests of the NWS simulator: forecasting, memories, cliques, full system."""

import pytest

from repro.core import plan_from_view, independent_pairs_plan
from repro.nws import (
    ExponentialSmoothingForecaster,
    Forecast,
    ForecasterBank,
    LastValueForecaster,
    METRIC_BANDWIDTH,
    METRIC_CONNECT,
    METRIC_LATENCY,
    Measurement,
    MemoryServer,
    NameServer,
    NWSClient,
    NWSConfig,
    NWSSystem,
    Registration,
    RunningMeanForecaster,
    SlidingWindowMeanForecaster,
    SlidingWindowMedianForecaster,
    default_forecasters,
)
from repro.netsim import FlowModel, build_ens_lyon
from repro.simkernel import Engine


class TestForecasters:
    def test_last_value(self):
        f = LastValueForecaster()
        assert f.predict() is None
        f.update(3.0)
        f.update(5.0)
        assert f.predict() == 5.0

    def test_running_mean(self):
        f = RunningMeanForecaster()
        for v in (2.0, 4.0, 6.0):
            f.update(v)
        assert f.predict() == pytest.approx(4.0)

    def test_window_mean_forgets_old_values(self):
        f = SlidingWindowMeanForecaster(window=2)
        for v in (100.0, 1.0, 3.0):
            f.update(v)
        assert f.predict() == pytest.approx(2.0)

    def test_window_median_robust_to_spike(self):
        f = SlidingWindowMedianForecaster(window=5)
        for v in (10.0, 10.0, 10.0, 1000.0, 10.0):
            f.update(v)
        assert f.predict() == pytest.approx(10.0)

    def test_exponential_smoothing_converges(self):
        f = ExponentialSmoothingForecaster(alpha=0.5)
        for _ in range(20):
            f.update(8.0)
        assert f.predict() == pytest.approx(8.0)

    @pytest.mark.parametrize("cls,kwargs", [
        (SlidingWindowMeanForecaster, {"window": 0}),
        (SlidingWindowMedianForecaster, {"window": 0}),
        (ExponentialSmoothingForecaster, {"alpha": 0.0}),
    ])
    def test_invalid_parameters_rejected(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    def test_reset(self):
        f = LastValueForecaster()
        f.update(1.0)
        f.reset()
        assert f.predict() is None
        # The median also forgets the NaN it saw.
        median = SlidingWindowMedianForecaster(window=3)
        for v in (1.0, float("nan")):
            median.update(v)
        median.reset()
        assert median.predict() is None
        median.update(4.0)
        assert median.predict() == 4.0

    def test_default_battery_has_distinct_names(self):
        names = [f.name for f in default_forecasters()]
        assert len(names) == len(set(names))


class TestForecasterBank:
    def test_empty_bank_has_no_forecast(self):
        assert ForecasterBank().forecast() is None

    def test_constant_series_predicted_exactly(self):
        bank = ForecasterBank()
        bank.update_many([42.0] * 20)
        forecast = bank.forecast()
        assert isinstance(forecast, Forecast)
        assert forecast.value == pytest.approx(42.0)
        assert forecast.mae == pytest.approx(0.0)

    def test_best_method_tracks_lowest_error(self):
        # alternating series: the running mean beats last-value prediction
        bank = ForecasterBank()
        series = [10.0, 20.0] * 25
        bank.update_many(series)
        assert bank.mae("running_mean") < bank.mae("last_value")
        assert bank.best_method() != "last_value"

    def test_mae_of_unknown_method_is_infinite(self):
        assert ForecasterBank().mae("nope") == float("inf")

    def test_single_sample_still_forecasts(self):
        bank = ForecasterBank()
        bank.update(7.0)
        forecast = bank.forecast()
        assert forecast is not None and forecast.value == pytest.approx(7.0)


class TestMemoryAndNameServer:
    def test_series_ring_buffer(self):
        memory = MemoryServer("m", "host", capacity=3)
        for i in range(5):
            memory.store(Measurement(time=i, value=float(i), src="a", dst="b",
                                     metric=METRIC_BANDWIDTH))
        series = memory.fetch("a", "b", METRIC_BANDWIDTH)
        assert len(series) == 3
        assert series.values() == [2.0, 3.0, 4.0]
        assert series.last().value == 4.0

    def test_fetch_unknown_series_returns_none(self):
        memory = MemoryServer("m", "host")
        assert memory.fetch("x", "y", METRIC_LATENCY) is None

    def test_nameserver_registration_and_lookup(self):
        ns = NameServer("host0")
        ns.register(Registration(name="sensor@a", kind="sensor", host="a"))
        ns.register(Registration(name="memory@c", kind="memory", host="c"))
        assert ns.lookup("sensor@a").host == "a"
        assert [r.name for r in ns.processes_of_kind("memory")] == ["memory@c"]
        assert len(ns) == 2
        ns.unregister("sensor@a")
        assert ns.lookup("sensor@a") is None

    def test_series_index(self):
        ns = NameServer("host0")
        ns.register_series("a", "b", METRIC_BANDWIDTH, "memory@c")
        assert ns.memory_for_series("a", "b", METRIC_BANDWIDTH) == "memory@c"
        assert ns.memory_for_series("b", "a", METRIC_BANDWIDTH) is None

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NWSConfig(bandwidth_probe_bytes=0)
        with pytest.raises(ValueError):
            NWSConfig(memory_capacity=0)
        with pytest.raises(ValueError):
            NWSConfig(exponential_alpha=1.5)


@pytest.fixture(scope="module")
def running_system(ens_lyon_module, ens_plan_module):
    system = NWSSystem(ens_lyon_module, ens_plan_module,
                       config=NWSConfig(token_hold_gap_s=1.0))
    system.run(240.0)
    return system


@pytest.fixture(scope="module")
def ens_lyon_module():
    return build_ens_lyon()


@pytest.fixture(scope="module")
def ens_plan_module(ens_lyon_module):
    from repro.env import map_ens_lyon
    view = map_ens_lyon(ens_lyon_module)
    return plan_from_view(view, period_s=20.0)


class TestNWSSystem:
    def test_all_cliques_measure(self, running_system):
        counts = running_system.measurement_counts()
        assert all(count > 0 for count in counts.values())

    def test_direct_query_close_to_ground_truth(self, running_system, ens_lyon_module):
        answer = NWSClient(running_system).bandwidth("sci1", "sci2")
        truth = FlowModel(Engine(), ens_lyon_module).single_flow_mbps("sci1", "sci2")
        assert answer.method == "direct"
        assert answer.forecast.value == pytest.approx(truth, rel=0.1)

    def test_representative_query_uses_measured_pair(self, running_system):
        answer = NWSClient(running_system).bandwidth("the-doors", "moby")
        assert answer.method == "representative"
        assert set(answer.source_pair) == {"canaria", "moby"}

    def test_aggregated_query_reflects_bottleneck(self, running_system):
        answer = NWSClient(running_system).bandwidth("the-doors", "sci3")
        assert answer.method == "aggregated"
        assert answer.forecast.value == pytest.approx(10.0, rel=0.25)

    def test_latency_and_connect_metrics_available(self, running_system):
        client = NWSClient(running_system)
        latency = client.latency("sci1", "sci2")
        connect = client.connect_time("sci1", "sci2")
        assert latency.available and latency.forecast.value > 0
        assert connect.available and connect.forecast.value > 0

    def test_every_pair_answerable(self, running_system):
        assert NWSClient(running_system).availability() == pytest.approx(1.0)

    def test_unknown_metric_unavailable(self, running_system):
        answer = running_system.query("sci1", "sci2", "cpu_load")
        assert not answer.available and answer.method == "unavailable"

    def test_host_configs_built(self, running_system):
        assert "the-doors" in running_system.host_configs

    def test_measurement_error_small_for_env_plan(self, running_system):
        errors = running_system.measurement_error_report()
        assert errors
        mean_error = sum(errors.values()) / len(errors)
        assert mean_error < 0.15

    def test_probe_bytes_accounted(self, running_system):
        assert running_system.total_probe_bytes() > 0


class TestFailureInjection:
    def test_failed_host_triggers_token_regeneration(self, ens_lyon_module,
                                                     ens_plan_module):
        system = NWSSystem(ens_lyon_module, ens_plan_module,
                           config=NWSConfig(token_timeout_s=10.0))
        system.run(60.0)
        system.fail_host("sci3")
        system.run(120.0)
        sci_clique = next(name for name in system.cliques if "sci" in name)
        assert system.cliques[sci_clique].stats.token_regenerations > 0
        # other members keep being measured
        before = system.cliques[sci_clique].stats.experiments
        system.run(60.0)
        assert system.cliques[sci_clique].stats.experiments > before

    def test_recovered_host_measured_again(self, ens_lyon_module, ens_plan_module):
        system = NWSSystem(ens_lyon_module, ens_plan_module,
                           config=NWSConfig(token_timeout_s=5.0))
        system.fail_host("sci3")
        system.run(60.0)
        assert system.series("sci3", "sci1", METRIC_BANDWIDTH) is None
        system.recover_host("sci3")
        system.run(120.0)
        assert system.sensors["sci3"].experiments_completed > 0


class TestForecastsFollowTheStoredWindow:
    def test_eviction_and_host_failure(self, ens_lyon_module, ens_plan_module):
        """With a 4-sample memory, every direct and representative answer
        is a fresh bank's replay of the stored series, and the series holds
        the last 4 samples stored, across a host failure and recovery."""
        capacity = 4
        system = NWSSystem(ens_lyon_module, ens_plan_module,
                           config=NWSConfig(memory_capacity=capacity,
                                            token_timeout_s=5.0))
        stored = {}
        for memory in system.memories.values():
            def store(measurement, _store=memory.store):
                key = (measurement.src, measurement.dst, measurement.metric)
                stored.setdefault(key, []).append(measurement.value)
                _store(measurement)
            memory.store = store
        system.run(60.0)
        system.fail_host("sci3")
        system.run(60.0)
        system.recover_host("sci3")
        system.run(240.0)
        assert all(len(values) > capacity for values in stored.values())

        config = system.config
        checked = set()
        hosts = sorted(ens_plan_module.hosts)
        for src in hosts:
            for dst in hosts:
                for metric in (METRIC_BANDWIDTH, METRIC_LATENCY,
                               METRIC_CONNECT):
                    if src == dst:
                        continue
                    answer = system.query(src, dst, metric)
                    if answer.method not in ("direct", "representative"):
                        continue
                    a, b = answer.source_pair
                    series = (system.series(a, b, metric)
                              or system.series(b, a, metric))
                    key = (series.src, series.dst, metric)
                    assert series.values() == stored[key][-capacity:]
                    bank = ForecasterBank(window=config.forecast_window,
                                          alpha=config.exponential_alpha)
                    bank.update_many(series.values())
                    assert answer.forecast == bank.forecast()
                    checked.add((answer.method, key))
        assert {method for method, _ in checked} == {"direct",
                                                     "representative"}
        assert any("sci3" in key[:2] for _, key in checked)


class TestCollisionCorruption:
    def test_uncoordinated_plan_corrupts_measurements(self, ens_lyon_module):
        """Paper §2.3: colliding experiments report about half the real value."""
        hub_hosts = ["myri0", "myri1", "myri2", "popc0"]
        bad_plan = independent_pairs_plan(ens_lyon_module, hub_hosts, period_s=5.0)
        system = NWSSystem(ens_lyon_module, bad_plan,
                           config=NWSConfig(token_hold_gap_s=0.0))
        system.run(120.0)
        errors = system.measurement_error_report()
        assert errors
        worst = max(errors.values())
        assert worst > 0.25, "concurrent probes on one hub must distort results"
