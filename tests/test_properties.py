"""Property-based tests (hypothesis) on core data structures and invariants."""

import itertools

from hypothesis import given, settings, strategies as st

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
from repro.nws import ForecasterBank
from repro.simkernel import RandomStreams, derive_seed
from tests.test_core_quality import oracle_estimate


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
    n_keys = draw(st.integers(min_value=1, max_value=5))
    keys = [("k", i) for i in range(n_keys)]
    capacities = {key: draw(st.floats(min_value=1.0, max_value=1000.0))
                  for key in keys}
    n_flows = draw(st.integers(min_value=1, max_value=6))
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


@given(allocation_problems())
@settings(max_examples=100, deadline=None)
def test_max_min_every_flow_has_a_saturated_bottleneck(problem):
    """Max-min optimality: each flow crosses a key it (almost) saturates."""
    flow_keys, capacities = problem
    rates = max_min_allocation(flow_keys, capacities)
    usage = {key: 0.0 for key in capacities}
    for rate, keys in zip(rates, flow_keys):
        for key in keys:
            usage[key] += rate
    for rate, keys in zip(rates, flow_keys):
        # a flow could only be increased if all its keys had spare capacity AND
        # it were not the smallest flow on the saturated ones; the weaker check
        # below (some key nearly saturated) holds for progressive filling.
        assert any(usage[key] >= capacities[key] - 1e-6 for key in keys)


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


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=0, max_size=20))
@settings(max_examples=100, deadline=None)
def test_derived_seeds_deterministic_and_in_range(seed, name):
    a = derive_seed(seed, name)
    assert a == derive_seed(seed, name)
    assert 0 <= a < 2**63


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_streams_reset_reproduces_sequence(seed):
    streams = RandomStreams(seed)
    first = list(streams.stream("s").random(4))
    streams.reset()
    assert list(streams.stream("s").random(4)) == first


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
