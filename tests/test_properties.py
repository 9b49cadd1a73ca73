"""Property-based tests (hypothesis) on core data structures and invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import perf
from repro.core import (
    Aggregator,
    Clique,
    DeploymentPlan,
    ground_truth_store,
    parse_config,
    plan_from_view,
    random_partition_plan,
    render_config,
)
from repro.env import map_platform
from repro.ingest import platform_from_gridml
from repro.gridml import (
    GridDocument,
    MachineEntry,
    NetworkEntry,
    SiteEntry,
    from_xml,
    to_xml,
)
from repro.netsim import (
    FatTreeSpec,
    FlowModel,
    IPv4Address,
    RingSpec,
    SyntheticSpec,
    WanGridSpec,
    generate_constellation,
    generate_fat_tree,
    generate_ring,
    generate_wan_grid,
    max_min_allocation,
)
from repro.nws import (
    ExponentialSmoothingForecaster,
    ForecasterBank,
    LastValueForecaster,
    RunningMeanForecaster,
    SlidingWindowMeanForecaster,
    SlidingWindowMedianForecaster,
)
from repro.simkernel import derive_seed
from tests.test_core_quality import oracle_estimate
from tests.test_fastpath import (_run_schedule, build_contended_platform,
                                 transfers)


# ---------------------------------------------------------------------------
# IPv4 addresses
# ---------------------------------------------------------------------------
ip_values = st.integers(min_value=0, max_value=0xFFFFFFFF)


@given(ip_values)
def test_ipv4_parse_str_roundtrip(value):
    addr = IPv4Address(value)
    assert IPv4Address.parse(str(addr)) == addr


@given(ip_values)
def test_ipv4_classful_network_is_prefix(value):
    addr = IPv4Address(value)
    network = addr.classful_network
    if addr.address_class in ("A", "B", "C"):
        prefix_octets = {"A": 1, "B": 2, "C": 3}[addr.address_class]
        assert network.split(".")[:prefix_octets] == \
            str(addr).split(".")[:prefix_octets]
        assert all(octet == "0" for octet in network.split(".")[prefix_octets:])


# ---------------------------------------------------------------------------
# Max-min fairness
# ---------------------------------------------------------------------------
@st.composite
def allocation_problems(draw):
    n_keys = draw(st.integers(min_value=1, max_value=8))
    keys = [("k", i) for i in range(n_keys)]
    capacities = {key: draw(st.floats(min_value=1.0, max_value=1000.0))
                  for key in keys}
    n_flows = draw(st.integers(min_value=1, max_value=40))
    flow_keys = [
        draw(st.lists(st.sampled_from(keys), min_size=1, max_size=n_keys,
                      unique=True))
        for _ in range(n_flows)
    ]
    return flow_keys, capacities


@given(allocation_problems())
@settings(max_examples=200, deadline=None)
def test_max_min_never_exceeds_capacity(problem):
    flow_keys, capacities = problem
    rates = max_min_allocation(flow_keys, capacities)
    for key, capacity in capacities.items():
        used = sum(rate for rate, keys in zip(rates, flow_keys) if key in keys)
        assert used <= capacity + 1e-6


@given(allocation_problems())
@settings(max_examples=200, deadline=None)
def test_max_min_rates_positive_and_bottlenecked(problem):
    flow_keys, capacities = problem
    rates = max_min_allocation(flow_keys, capacities)
    for rate, keys in zip(rates, flow_keys):
        assert rate > 0
        assert rate <= min(capacities[k] for k in keys) + 1e-6


def assert_max_min_certificate(flow_keys, rates, capacities, rel=1e-9):
    """The bottleneck characterisation of max-min fairness (Bertsekas and
    Gallager, *Data Networks*, ch. 6): no key carries more than its
    capacity, and every flow crosses a saturated key on which no flow gets
    a larger rate."""
    usage = dict.fromkeys(capacities, 0.0)
    largest = dict.fromkeys(capacities, 0.0)
    for rate, keys in zip(rates, flow_keys):
        for key in keys:
            usage[key] += rate
            largest[key] = max(largest[key], rate)
    for key, capacity in capacities.items():
        assert usage[key] <= capacity * (1 + rel), key
    saturated = {key for key, capacity in capacities.items()
                 if usage[key] >= capacity * (1 - rel)}
    for rate, keys in zip(rates, flow_keys):
        assert any(key in saturated and rate >= largest[key] * (1 - rel)
                   for key in keys), (rate, keys)


@given(allocation_problems())
@settings(max_examples=100, deadline=None)
def test_max_min_every_flow_has_a_saturated_bottleneck(problem):
    flow_keys, capacities = problem
    rates = max_min_allocation(flow_keys, capacities)
    assert_max_min_certificate(flow_keys, rates, capacities)


@given(schedule=st.lists(transfers, min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_live_rates_are_max_min_after_every_reallocation(schedule):
    """The running FlowModel's rates, over every active flow, satisfy the
    certificate after each flow start and finish, in both reallocation
    modes."""
    reallocate = FlowModel._reallocate
    checked = []

    def certified(model, seed_keys=None):
        reallocate(model, seed_keys)
        flows = list(model.active.values())
        assert_max_min_certificate([f.keys for f in flows],
                                   [f.rate_mbps for f in flows],
                                   model.capacities)
        checked.append(len(flows))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlowModel, "_reallocate", certified)
        for incremental in (False, True):
            done = _run_schedule(build_contended_platform(), schedule,
                                 incremental)
    # At least one reallocation per start, in each mode.
    assert len(checked) >= 2 * len(done)


# ---------------------------------------------------------------------------
# GridML round-trip
# ---------------------------------------------------------------------------
name_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           whitelist_characters="-._"),
    min_size=1, max_size=12,
)


@st.composite
def gridml_documents(draw):
    doc = GridDocument(label=draw(name_strategy))
    n_sites = draw(st.integers(min_value=1, max_value=3))
    for s in range(n_sites):
        site = SiteEntry(domain=f"site{s}.org")
        for m in range(draw(st.integers(min_value=0, max_value=4))):
            machine = MachineEntry(name=f"host-{s}-{m}", ip=f"10.{s}.0.{m + 1}")
            if draw(st.booleans()):
                machine.add_property("prop", draw(st.integers(0, 1000)))
            site.machines.append(machine)
        doc.sites.append(site)
    network = NetworkEntry(label=draw(name_strategy),
                           network_type=draw(st.sampled_from(
                               ["Structural", "ENV_Shared", "ENV_Switched"])))
    network.machines = [m.name for site in doc.sites for m in site.machines][:3]
    doc.networks.append(network)
    return doc


@given(gridml_documents())
@settings(max_examples=50, deadline=None)
def test_gridml_roundtrip_preserves_structure(doc):
    parsed = from_xml(to_xml(doc))
    assert parsed.all_machine_names() == doc.all_machine_names()
    assert [n.label for n in parsed.all_networks()] == \
        [n.label for n in doc.all_networks()]
    assert [n.network_type for n in parsed.all_networks()] == \
        [n.network_type for n in doc.all_networks()]


@given(gridml_documents(),
       st.sampled_from(["bandwidth_mbps", "ENV_base_BW", "latency_s"]),
       st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                 st.text(max_size=8)))
@settings(max_examples=100, deadline=None)
def test_gridml_import_validates_or_raises_value_error(doc, prop, value):
    """Any segment value: the import builds a platform that validates, or
    it raises ``ValueError`` (never a crash in a later sweep)."""
    doc.networks[0].add_property(prop, value)
    try:
        platform = platform_from_gridml(doc)
    except ValueError:
        return
    assert platform.validate() == []


# ---------------------------------------------------------------------------
# Deployment plan config round-trip
# ---------------------------------------------------------------------------
host_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
            max_size=8),
    min_size=2, max_size=8, unique=True,
)


@given(host_names, st.integers(min_value=2, max_value=4),
       st.floats(min_value=1.0, max_value=600.0))
@settings(max_examples=100, deadline=None)
def test_plan_config_roundtrip(hosts, clique_size, period):
    plan = DeploymentPlan(hosts=sorted(hosts), nameserver_host=sorted(hosts)[0])
    plan.notes["planner"] = "property"
    for idx in range(0, len(hosts) - 1, clique_size):
        members = sorted(hosts)[idx:idx + clique_size]
        if len(members) >= 2:
            plan.cliques.append(Clique(name=f"c{idx}", hosts=tuple(members),
                                       kind="adhoc", period_s=round(period, 3)))
    parsed = parse_config(render_config(plan))
    assert parsed.nameserver_host == plan.nameserver_host
    assert {frozenset(c.hosts) for c in parsed.cliques} == \
        {frozenset(c.hosts) for c in plan.cliques}
    assert [c.period_s for c in parsed.cliques] == \
        [c.period_s for c in plan.cliques]


# ---------------------------------------------------------------------------
# Forecaster bank
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_forecaster_bank_prediction_within_observed_range(values):
    bank = ForecasterBank()
    bank.update_many(values)
    forecast = bank.forecast()
    assert forecast is not None
    assert min(values) - 1e-9 <= forecast.value <= max(values) + 1e-9


@given(st.floats(min_value=0.1, max_value=1e6),
       st.integers(min_value=2, max_value=50))
@settings(max_examples=50, deadline=None)
def test_forecaster_bank_constant_series_zero_error(value, repetitions):
    bank = ForecasterBank()
    bank.update_many([value] * repetitions)
    forecast = bank.forecast()
    assert forecast.value == value
    assert forecast.mae == 0.0


#: Any float, with NaN, +-inf, +-0.0 and subnormals drawn often.
any_floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -5e-324, 2.2250738585072014e-308]),
    st.floats(), st.floats(min_value=-1e3, max_value=1e3))
#: Window and series lengths on each side of 8 and of 128, where numpy's
#: pairwise summation changes its order.
window_sizes = st.one_of(st.integers(1, 8), st.integers(9, 128),
                         st.integers(129, 300))


def hexed(value):
    """``value.hex()``, with every NaN as ``nan``."""
    return None if value is None else float(value).hex()


@st.composite
def windows(draw):
    """(window size, series): the series draws its values from a short
    pool, so long series cost hypothesis little."""
    window, count = draw(window_sizes), draw(window_sizes)
    pool = draw(st.lists(any_floats, min_size=1, max_size=40))
    rng = draw(st.randoms())
    return window, [rng.choice(pool) for _ in range(count)]


@given(windows())
@example((1, [-0.0]))                   # numpy's +0.0 identity
@example((2, [-0.0, -0.0]))
@example((2, [-5e-324, 0.0]))           # the median halves to -0.0
@example((9, [-0.0] * 9))
@example((3, [math.nan, 1.0, 2.0, 3.0]))  # the NaN was evicted
@example((3, [1.0, math.nan, 2.0, 3.0]))  # the NaN is the oldest value
@settings(max_examples=100, deadline=None)
def test_window_kernels_equal_numpy(drawn):
    """The windowed predictors equal ``np.mean`` and ``np.median`` of their
    window bit for bit."""
    window, values = drawn
    mean = SlidingWindowMeanForecaster(window)
    median = SlidingWindowMedianForecaster(window)
    for value in values:
        mean.update(value)
        median.update(value)
    kept = values[-window:]
    with np.errstate(all="ignore"):
        assert hexed(mean.predict()) == hexed(np.mean(kept))
        assert hexed(median.predict()) == hexed(np.median(kept))


class NumpyWindowMean(SlidingWindowMeanForecaster):
    def predict(self):
        return float(np.mean(self._values)) if self._values else None


class NumpyWindowMedian(SlidingWindowMedianForecaster):
    def predict(self):
        return float(np.median(self._values)) if self._values else None


class ReferenceBank(ForecasterBank):
    """The bank scored one sample at a time, each predictor's error added
    straight onto its name's total."""

    def update_many(self, values):
        for value in values:
            for forecaster in self.forecasters:
                prediction = forecaster.predict()
                if prediction is not None:
                    self._abs_error[forecaster.name] += abs(prediction - value)
                    self._error_count[forecaster.name] += 1
                forecaster.update(value)
            self.sample_count += 1


def battery(window, alpha, mean, median, shared):
    predictors = [LastValueForecaster(), RunningMeanForecaster(),
                  mean(window), median(window),
                  ExponentialSmoothingForecaster(alpha)]
    if shared:
        # A second predictor under the last-value name: the two share one
        # error entry, filled in sample order.
        twin = RunningMeanForecaster()
        twin.name = "last_value"
        predictors.append(twin)
    return predictors


@given(st.lists(any_floats, min_size=1, max_size=80), st.integers(1, 20),
       st.floats(min_value=0.01, max_value=1.0), st.booleans())
@settings(max_examples=100, deadline=None)
def test_bank_replay_equals_numpy_reference(values, window, alpha, shared):
    """A replay through ``update_many``, and one split between ``update``
    and ``update_many``, equal a reference bank whose windows call numpy and
    whose loop scores one sample at a time: forecast value, method, MAE and
    sample count, and every predictor's MAE, bit for bit."""
    def snapshot(bank):
        forecast = bank.forecast()
        return (None if forecast is None else (
            hexed(forecast.value), forecast.method, hexed(forecast.mae),
            forecast.sample_count),
            [hexed(bank.mae(f.name)) for f in bank.forecasters])

    with np.errstate(all="ignore"):
        reference = ReferenceBank(battery(window, alpha, NumpyWindowMean,
                                          NumpyWindowMedian, shared))
        reference.update_many(values)
        expected = snapshot(reference)
    bank = ForecasterBank(battery(window, alpha, SlidingWindowMeanForecaster,
                                  SlidingWindowMedianForecaster, shared))
    bank.update_many(values)
    assert snapshot(bank) == expected
    # Half the series one sample at a time, the rest in one call.
    stepped = ForecasterBank(battery(window, alpha,
                                     SlidingWindowMeanForecaster,
                                     SlidingWindowMedianForecaster, shared))
    half = len(values) // 2
    for value in values[:half]:
        stepped.update(value)
    stepped.update_many(values[half:])
    assert snapshot(stepped) == expected
    if not shared:
        default = ForecasterBank(window=window, alpha=alpha)
        default.update_many(values)
        assert snapshot(default) == expected


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=0, max_size=20))
@settings(max_examples=100, deadline=None)
def test_derived_seeds_deterministic_and_in_range(seed, name):
    a = derive_seed(seed, name)
    assert a == derive_seed(seed, name)
    assert 0 <= a < 2**63


# ---------------------------------------------------------------------------
# Aggregation paths
# ---------------------------------------------------------------------------
@st.composite
def small_platforms(draw):
    seed = draw(st.integers(min_value=0, max_value=2**20))
    kind = draw(st.sampled_from(["constellation", "wan-grid", "fat-tree",
                                 "ring"]))
    if kind == "constellation":
        return generate_constellation(SyntheticSpec(
            sites=draw(st.integers(2, 3)), seed=seed,
            clusters_per_site=(1, 2), hosts_per_cluster=(2, 3)))
    if kind == "wan-grid":
        return generate_wan_grid(WanGridSpec(
            rows=draw(st.integers(1, 2)), cols=draw(st.integers(2, 3)),
            seed=seed, hosts_per_site=(2, 3)))
    if kind == "fat-tree":
        return generate_fat_tree(FatTreeSpec(
            pods=draw(st.integers(1, 3)), edges_per_pod=draw(st.integers(1, 2)),
            hosts_per_edge=draw(st.integers(2, 3))))
    return generate_ring(RingSpec(sites=draw(st.integers(3, 4)),
                                  hosts_per_site=(2, 3), seed=seed))


@given(small_platforms(), st.one_of(st.none(), st.integers(2, 4)),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_path_index_matches_per_pair_search(platform, clique_size, seed):
    """Every estimate read from the single-source path index equals a
    per-pair ``nx.shortest_path`` in path, latency and bandwidth, on the
    ENV plan (``clique_size`` None) or a random partition."""
    if clique_size is None:
        plan = plan_from_view(map_platform(platform, platform.host_names()[0]))
    else:
        plan = random_partition_plan(platform, clique_size=clique_size,
                                     seed=seed)
    aggregator = Aggregator(plan, ground_truth_store(platform))
    graph = aggregator.graph
    for a, b in itertools.permutations(sorted(plan.hosts), 2):
        if graph.has_edge(a, b):
            continue
        estimate = aggregator.estimate(a, b)
        got = None if estimate is None else (
            estimate.path, estimate.latency_s, estimate.bandwidth_mbps)
        assert got == oracle_estimate(graph, a, b)


@st.composite
def nan_coverage_plans(draw):
    """A plan of random two- and three-host cliques, and values for its
    coverage edges where about a quarter of the latencies and of the
    bandwidths are NaN.  The latencies are distinct powers of two, so no
    two paths tie and every search has one answer."""
    hosts = [f"h{i}" for i in range(draw(st.integers(3, 7)))]
    plan = DeploymentPlan(hosts=hosts)
    members = draw(st.lists(st.lists(st.sampled_from(hosts), min_size=2,
                                     max_size=3, unique=True),
                            min_size=1, max_size=8))
    for index, clique in enumerate(members):
        plan.cliques.append(Clique(name=f"c{index}", hosts=tuple(clique)))
    pairs = sorted({tuple(sorted(pair)) for clique in members
                    for pair in itertools.combinations(clique, 2)})
    exponents = draw(st.permutations(range(len(pairs))))
    values = {}
    for pair, exponent in zip(pairs, exponents):
        nan_latency, nan_bandwidth = draw(st.integers(0, 3)), draw(
            st.integers(0, 3))
        values[pair] = (math.nan if nan_latency == 0 else 2.0 ** exponent,
                        math.nan if nan_bandwidth == 0
                        else float(draw(st.integers(1, 1000))))
    return plan, values


@given(nan_coverage_plans())
@settings(max_examples=100, deadline=None)
def test_path_index_matches_per_pair_search_with_nan_edges(drawn):
    """With NaN latencies and bandwidths on the coverage edges, no search
    raises, and the single-source index answers every pair as the per-pair
    search and as the oracle (NaN-latency edges filtered out of the graph)."""
    plan, values = drawn

    def answers():
        aggregator = Aggregator(plan, lambda a, b: values[(a, b)])
        out = {}
        for a, b in itertools.permutations(plan.hosts, 2):
            if aggregator.graph.has_edge(a, b):
                continue
            estimate = aggregator.estimate(a, b)
            got = None if estimate is None else (
                estimate.path, estimate.latency_s, estimate.bandwidth_mbps)
            assert repr(got) == repr(oracle_estimate(aggregator.graph, a, b))
            out[a, b] = got
        return out

    fast = answers()
    with perf.fast_path(False):
        assert repr(answers()) == repr(fast)
