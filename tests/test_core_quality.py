"""Tests of constraints checking, aggregation and plan quality metrics."""

import itertools
import math

import networkx as nx
import pytest

from repro import perf
from repro.core import (
    Aggregator,
    check_completeness,
    check_constraints,
    compare_plans,
    completeness_accuracy,
    coverage_graph,
    evaluate_plan,
    find_collisions,
    global_clique_plan,
    ground_truth_store,
    harmful_collisions,
    independent_pairs_plan,
    measurement_periods,
    plan_from_view,
    random_partition_plan,
    subnet_plan,
    Clique,
    DeploymentPlan,
    host_pair,
)
from repro.dynamics import DynamicScenario
from repro.env import map_platform
from repro.netsim import FatTreeSpec, FlowModel, build_ens_lyon, \
    generate_fat_tree
from repro.pipeline import BASELINE_PLANNERS
from repro.scenarios import list_scenarios
from repro.simkernel import Engine


def all_plans(platform):
    """The ENV plan (master: the first host) and every baseline plan."""
    view = map_platform(platform, platform.host_names()[0])
    plans = {"env": plan_from_view(view)}
    hosts = sorted(plans["env"].hosts)
    for name, planner in BASELINE_PLANNERS.items():
        plans[name] = planner(platform, hosts)
    return plans


def oracle_estimate(graph, src, dst):
    """(path, latency, bandwidth) of a per-pair ``nx.shortest_path`` over
    the measured segments: NaN-latency edges are filtered out of the graph,
    and a NaN bandwidth on the path makes the path's bandwidth NaN."""
    measured = nx.subgraph_view(graph, filter_edge=lambda a, b: not math.isnan(
        graph.edges[a, b]["latency"]))
    try:
        path = nx.shortest_path(measured, src, dst, weight="latency")
    except nx.NetworkXNoPath:
        return None
    hops = [graph.edges[a, b] for a, b in zip(path, path[1:])]
    bandwidths = [hop["bandwidth"] for hop in hops]
    return (tuple(path), sum(hop["latency"] for hop in hops),
            math.nan if any(map(math.isnan, bandwidths)) else min(bandwidths))


def searches():
    return perf.counters_snapshot()["path_searches"]


class TestCollisions:
    def test_independent_pairs_collide_on_shared_media(self, ens_lyon):
        plan = independent_pairs_plan(ens_lyon, ["myri0", "myri1", "myri2"])
        collisions = find_collisions(plan, ens_lyon)
        assert collisions, "three pairs on one hub must collide"

    def test_single_clique_never_collides(self, ens_lyon):
        plan = global_clique_plan(ens_lyon)
        assert find_collisions(plan, ens_lyon) == []

    def test_env_plan_has_no_harmful_collisions(self, ens_lyon, ens_plan):
        assert harmful_collisions(ens_plan, ens_lyon) == 0

    def test_independent_pairs_have_harmful_collisions(self, ens_lyon):
        plan = independent_pairs_plan(ens_lyon, ["myri0", "myri1", "myri2", "popc0"])
        assert harmful_collisions(plan, ens_lyon) > 0

    def test_collision_report_names_shared_elements(self, ens_lyon):
        plan = independent_pairs_plan(ens_lyon, ["myri1", "myri2", "myri0"])
        report = find_collisions(plan, ens_lyon)[0]
        assert report.shared_elements
        assert report.clique_a != report.clique_b


class TestCompletenessAndAggregation:
    def test_env_plan_is_complete(self, ens_plan):
        unreachable, uncovered = check_completeness(ens_plan)
        assert unreachable == []
        # the master runs no sensor in the paper's plan: it may be uncovered
        assert set(uncovered) <= {"the-doors"}

    def test_random_plan_is_incomplete(self, ens_lyon):
        plan = random_partition_plan(ens_lyon, clique_size=3, seed=1)
        unreachable, _ = check_completeness(plan)
        assert unreachable

    def test_coverage_graph_marks_direct_and_representative(self, ens_plan):
        graph = coverage_graph(ens_plan)
        assert graph.edges["canaria", "moby"]["direct"] is True
        assert graph.edges["the-doors", "canaria"]["direct"] is False

    def test_aggregated_latency_is_sum_and_bandwidth_is_min(self, ens_lyon, ens_plan):
        aggregator = Aggregator(ens_plan, ground_truth_store(ens_lyon))
        estimate = aggregator.estimate("moby", "sci3")
        assert estimate is not None
        assert estimate.method == "aggregated"
        # the 10 Mbit/s bottleneck dominates the composed bandwidth
        assert estimate.bandwidth_mbps == pytest.approx(10.0, rel=0.05)
        # path latency is at least the direct route latency
        direct = ens_lyon.route("moby", "sci3").latency
        assert estimate.latency_s >= direct * 0.9

    def test_direct_pair_estimate_matches_ground_truth(self, ens_lyon, ens_plan):
        aggregator = Aggregator(ens_plan, ground_truth_store(ens_lyon))
        estimate = aggregator.estimate("sci1", "sci2")
        fm = FlowModel(Engine(), ens_lyon)
        assert estimate.method == "direct"
        assert estimate.bandwidth_mbps == pytest.approx(
            fm.single_flow_mbps("sci1", "sci2"))

    def test_same_host_estimate(self, ens_lyon, ens_plan):
        aggregator = Aggregator(ens_plan, ground_truth_store(ens_lyon))
        estimate = aggregator.estimate("moby", "moby")
        assert estimate.latency_s == 0.0

    def test_estimate_none_when_disconnected(self, ens_lyon):
        plan = DeploymentPlan(hosts=["moby", "canaria", "sci1"])
        plan.cliques.append(Clique(name="c", hosts=("moby", "canaria")))
        aggregator = Aggregator(plan, ground_truth_store(ens_lyon))
        assert aggregator.estimate("moby", "sci1") is None

    def test_estimate_all_pairs_covers_everything(self, ens_lyon, ens_plan):
        aggregator = Aggregator(ens_plan, ground_truth_store(ens_lyon))
        estimates = aggregator.estimate_all_pairs()
        n = len(ens_plan.hosts)
        assert len(estimates) == n * (n - 1) // 2


class TestPathIndex:
    """One single-source search per source host, checked against per-pair
    ``nx.shortest_path`` (an oracle outside the aggregator)."""

    def test_catalog_estimates_match_per_pair_search(self):
        compared = 0
        for scenario in list_scenarios():
            if isinstance(scenario, DynamicScenario):
                continue
            platform = scenario.build()
            for name, plan in all_plans(platform).items():
                aggregator = Aggregator(plan, ground_truth_store(platform))
                graph = aggregator.graph
                for a, b in itertools.permutations(sorted(plan.hosts), 2):
                    if graph.has_edge(a, b):
                        continue
                    estimate = aggregator.estimate(a, b)
                    expected = oracle_estimate(graph, a, b)
                    got = None if estimate is None else (
                        estimate.path, estimate.latency_s,
                        estimate.bandwidth_mbps)
                    assert got == expected, (scenario.name, name, a, b)
                    compared += 1
        assert compared > 5000

    def test_completeness_searches_once_per_source(self):
        platform = generate_fat_tree(FatTreeSpec(pods=3, edges_per_pod=2,
                                                 hosts_per_edge=3))
        plan = all_plans(platform)["env"]
        graph = coverage_graph(plan)
        hosts = sorted(plan.hosts)
        unjoined = [(a, b) for a, b in itertools.combinations(hosts, 2)
                    if not graph.has_edge(a, b)]
        assert unjoined, "the ENV plan should aggregate some pairs"
        before = searches()
        fast = completeness_accuracy(plan, platform)
        assert searches() - before == len({a for a, _ in unjoined})
        with perf.fast_path(False):
            before = searches()
            reference = completeness_accuracy(plan, platform)
            assert searches() - before == len(unjoined)
        assert fast == reference
        assert fast[0] == 1.0

    def test_unknown_and_unreachable_hosts_answer_none(self, ens_lyon):
        plan = DeploymentPlan(hosts=["moby", "canaria", "sci1"])
        plan.cliques.append(Clique(name="c", hosts=("moby", "canaria")))
        for enabled in (True, False):
            with perf.fast_path(enabled):
                aggregator = Aggregator(plan, ground_truth_store(ens_lyon))
                before = searches()
                assert aggregator.estimate("moby", "nowhere") is None
                assert aggregator.estimate("nowhere", "moby") is None
                assert searches() == before
                for src in ("moby", "moby", "canaria"):
                    assert aggregator.estimate(src, "sci1") is None
                # One search per source, or one per query on the reference.
                assert searches() - before == (2 if enabled else 3)

    def test_nan_latency_graph_answers_as_the_per_pair_search(self):
        # A missing NWS series gives its edge a NaN latency.  Such an edge is
        # not a measured segment: every search skips s-a, so both directions
        # answer through b, and a-b through t.
        nan = float("nan")
        values = {("a", "s"): (nan, 5.0), ("b", "s"): (1.0, 10.0),
                  ("b", "t"): (1.0, 20.0), ("a", "t"): (1.0, 30.0)}
        plan = DeploymentPlan(hosts=["s", "a", "b", "t"])
        for index, pair in enumerate([("s", "a"), ("s", "b"), ("t", "b"),
                                      ("t", "a")]):
            plan.cliques.append(Clique(name=f"c{index}", hosts=pair))

        def answers():
            aggregator = Aggregator(plan,
                                    lambda a, b: values[tuple(sorted((a, b)))])
            out = {}
            for a, b in [("s", "t"), ("t", "s"), ("a", "b"), ("b", "a")]:
                estimate = aggregator.estimate(a, b)
                expected = oracle_estimate(aggregator.graph, a, b)
                got = (estimate.path, estimate.latency_s,
                       estimate.bandwidth_mbps)
                assert repr(got) == repr(expected), (a, b)
                out[a, b] = got
            return out

        before = searches()
        fast = answers()
        assert searches() - before == 4
        with perf.fast_path(False):
            reference = answers()
        assert repr(fast) == repr(reference)
        assert fast["s", "t"] == (("s", "b", "t"), 2.0, 10.0)
        assert fast["t", "s"] == (("t", "b", "s"), 2.0, 10.0)
        assert fast["a", "b"] == (("a", "t", "b"), 2.0, 20.0)

    def test_nan_bandwidth_on_the_path_gives_nan(self):
        # s-a has a latency but no bandwidth forecast: the path s-a-t crosses
        # an unmeasured segment, so its bandwidth is NaN in both directions
        # (min() would answer 5.0 from a-t alone).
        nan = float("nan")
        values = {("a", "s"): (1.0, nan), ("a", "t"): (1.0, 5.0)}
        plan = DeploymentPlan(hosts=["s", "a", "t"])
        plan.cliques.append(Clique(name="c0", hosts=("s", "a")))
        plan.cliques.append(Clique(name="c1", hosts=("a", "t")))
        for enabled in (True, False):
            with perf.fast_path(enabled):
                aggregator = Aggregator(
                    plan, lambda a, b: values[tuple(sorted((a, b)))])
                for a, b in [("s", "t"), ("t", "s")]:
                    estimate = aggregator.estimate(a, b)
                    assert estimate.latency_s == 2.0
                    assert math.isnan(estimate.bandwidth_mbps), (a, b)
                    assert repr((estimate.path, estimate.latency_s,
                                 estimate.bandwidth_mbps)) == repr(
                        oracle_estimate(aggregator.graph, a, b))

    def test_repeated_queries_reuse_the_search(self, ens_lyon, ens_plan):
        aggregator = Aggregator(ens_plan, ground_truth_store(ens_lyon))
        before = searches()
        first = aggregator.estimate_all_pairs()
        once = searches() - before
        assert aggregator.estimate_all_pairs() == first
        assert searches() - before == once
        assert 0 < once < len(ens_plan.hosts)


class TestQualityMetrics:
    def test_measurement_period_grows_quadratically(self):
        plan = DeploymentPlan(hosts=list("abcdefgh"))
        plan.cliques.append(Clique(name="small", hosts=("a", "b")))
        plan.cliques.append(Clique(name="large", hosts=tuple("abcdefgh")))
        periods = measurement_periods(plan, experiment_seconds=1.0)
        assert periods["small"] == pytest.approx(2.0)
        assert periods["large"] == pytest.approx(56.0)

    def test_constraint_report_summary_shape(self, ens_lyon, ens_plan):
        report = check_constraints(ens_plan, ens_lyon)
        summary = report.summary()
        assert set(summary) >= {"collision_free", "complete", "intrusiveness"}
        assert 0.0 <= report.intrusiveness <= 1.0

    def test_env_plan_less_intrusive_than_global(self, ens_lyon, ens_plan):
        env_report = evaluate_plan(ens_plan, ens_lyon)
        global_report = evaluate_plan(global_clique_plan(ens_lyon), ens_lyon)
        assert env_report.measured_pairs < global_report.measured_pairs
        assert env_report.worst_period_s < global_report.worst_period_s

    def test_env_plan_complete_unlike_subnet_plan(self, ens_lyon, ens_plan):
        env_report = evaluate_plan(ens_plan, ens_lyon)
        subnet_report = evaluate_plan(subnet_plan(ens_lyon), ens_lyon)
        assert env_report.completeness == pytest.approx(1.0)
        assert subnet_report.completeness < 1.0

    def test_compare_plans_keeps_names(self, ens_lyon, ens_plan):
        reports = compare_plans({"env": ens_plan,
                                 "global": global_clique_plan(ens_lyon)}, ens_lyon)
        assert [r.planner for r in reports] == ["env", "global"]
        rows = [r.as_row() for r in reports]
        assert all("completeness" in row for row in rows)


class TestBaselines:
    def test_global_clique_contains_all_hosts(self, ens_lyon):
        plan = global_clique_plan(ens_lyon)
        assert plan.cliques[0].size == len(ens_lyon.host_names())

    def test_independent_pairs_count(self, ens_lyon):
        hosts = ens_lyon.host_names()
        plan = independent_pairs_plan(ens_lyon, hosts)
        n = len(hosts)
        assert len(plan.cliques) == n * (n - 1) // 2

    def test_random_partition_covers_all_hosts(self, ens_lyon):
        plan = random_partition_plan(ens_lyon, clique_size=4, seed=9)
        assert plan.monitored_hosts() == set(ens_lyon.host_names())

    def test_random_partition_rejects_tiny_cliques(self, ens_lyon):
        with pytest.raises(ValueError):
            random_partition_plan(ens_lyon, clique_size=1)

    def test_random_partition_deterministic_per_seed(self, ens_lyon):
        a = random_partition_plan(ens_lyon, clique_size=4, seed=5)
        b = random_partition_plan(ens_lyon, clique_size=4, seed=5)
        assert [c.hosts for c in a.cliques] == [c.hosts for c in b.cliques]

    def test_subnet_plan_groups_by_prefix(self, ens_lyon):
        plan = subnet_plan(ens_lyon)
        sci_clique = next(c for c in plan.cliques if "sci1" in c.hosts)
        assert set(sci_clique.hosts) == {f"sci{i}" for i in range(1, 7)}
