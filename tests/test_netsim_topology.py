"""Unit tests for addresses, DNS, topology and routing."""

import pytest

from repro.netsim import (
    IPv4Address,
    NodeKind,
    Platform,
    Resolver,
    ResolutionError,
    classful_network,
    is_private_ip,
    mbps_to_bytes_per_s,
    bytes_per_s_to_mbps,
    build_ens_lyon,
    finish_platform,
)

INF, NAN = float("inf"), float("nan")


class TestIPv4Address:
    def test_parse_and_str_roundtrip(self):
        assert str(IPv4Address.parse("140.77.13.229")) == "140.77.13.229"

    @pytest.mark.parametrize("text", ["1.2.3", "256.1.1.1", "a.b.c.d", "1.2.3.4.5"])
    def test_invalid_addresses_rejected(self, text):
        with pytest.raises(ValueError):
            IPv4Address.parse(text)

    @pytest.mark.parametrize("text,cls", [
        ("10.0.0.1", "A"), ("140.77.13.1", "B"), ("192.168.81.50", "C"),
        ("224.0.0.1", "D"), ("250.0.0.1", "E"),
    ])
    def test_address_class(self, text, cls):
        assert IPv4Address.parse(text).address_class == cls

    def test_classful_network(self):
        assert classful_network("140.77.13.229") == "140.77.0.0"
        assert classful_network("192.168.81.50") == "192.168.81.0"
        assert classful_network("10.1.2.3") == "10.0.0.0"

    @pytest.mark.parametrize("text,private", [
        ("10.1.2.3", True), ("172.16.0.1", True), ("172.32.0.1", False),
        ("192.168.254.1", True), ("140.77.13.1", False),
    ])
    def test_private_ranges(self, text, private):
        assert is_private_ip(text) is private

    def test_ordering(self):
        assert IPv4Address.parse("1.0.0.1") < IPv4Address.parse("1.0.0.2")

    def test_same_subnet_24(self):
        a = IPv4Address.parse("192.168.83.1")
        b = IPv4Address.parse("192.168.83.200")
        c = IPv4Address.parse("192.168.84.1")
        assert a.same_subnet_24(b)
        assert not a.same_subnet_24(c)

    def test_bandwidth_unit_conversions(self):
        assert mbps_to_bytes_per_s(8.0) == pytest.approx(1e6)
        assert bytes_per_s_to_mbps(1e6) == pytest.approx(8.0)


class TestResolver:
    def test_forward_and_reverse(self):
        res = Resolver()
        res.register("host.example.org", "10.0.0.1", aliases=["host"])
        assert str(res.resolve("host.example.org")) == "10.0.0.1"
        assert str(res.resolve("host")) == "10.0.0.1"
        assert res.reverse("10.0.0.1") == "host.example.org"

    def test_unnamed_host_fails_reverse(self):
        res = Resolver()
        res.register(None, "10.0.0.9")
        assert res.try_reverse("10.0.0.9") is None
        with pytest.raises(ResolutionError):
            res.reverse("10.0.0.9")

    def test_unknown_name_raises(self):
        with pytest.raises(ResolutionError):
            Resolver().resolve("nope")

    def test_alias_canonicalisation(self):
        res = Resolver()
        res.register("gw.private", "192.168.0.1")
        res.add_alias("gw.public", "gw.private")
        assert res.canonical("gw.public") == "gw.private"
        assert "gw.public" in res.aliases_of("gw.private")

    def test_domain_of(self):
        assert Resolver.domain_of("canaria.ens-lyon.fr") == "ens-lyon.fr"
        assert Resolver.domain_of("bare") == ""


def small_platform() -> Platform:
    p = Platform("small")
    p.add_host("a", "10.0.1.1")
    p.add_host("b", "10.0.1.2")
    p.add_host("c", "10.0.2.1")
    p.add_hub("hub", 100.0)
    p.add_switch("sw")
    p.add_router("r", "10.0.0.1")
    p.add_link("a", "hub", 100.0, duplex=False)
    p.add_link("b", "hub", 100.0, duplex=False)
    p.add_link("hub", "r", 100.0)
    p.add_link("r", "sw", 100.0)
    p.add_link("sw", "c", 100.0)
    return p


class TestPlatform:
    def test_duplicate_node_rejected(self):
        p = Platform()
        p.add_host("a", "10.0.0.1")
        with pytest.raises(ValueError):
            p.add_host("a", "10.0.0.2")

    def test_link_to_unknown_node_rejected(self):
        p = Platform()
        p.add_host("a", "10.0.0.1")
        with pytest.raises(KeyError):
            p.add_link("a", "missing", 100.0)

    def test_route_hops_and_latency(self):
        p = small_platform()
        route = p.route("a", "c")
        assert route.nodes == ["a", "hub", "r", "sw", "c"]
        assert route.hop_count == 4
        assert route.latency == pytest.approx(4e-4)

    def test_route_same_host_is_empty(self):
        p = small_platform()
        route = p.route("a", "a")
        assert route.links == [] and route.nodes == ["a"]

    def test_route_constraint_keys_include_hub(self):
        p = small_platform()
        keys = p.route("a", "b").constraint_keys(p)
        assert ("hub", "hub") in keys

    def test_duplex_link_has_per_direction_keys(self):
        p = small_platform()
        fwd = p.route("r", "c").constraint_keys(p)
        rev = p.route("c", "r").constraint_keys(p)
        assert set(fwd) != set(rev)

    def test_half_duplex_link_has_single_key(self):
        p = small_platform()
        link = p.link_between("a", "hub")
        assert link.direction_key("a", "hub") == link.direction_key("hub", "a")

    def test_bottleneck(self):
        p = small_platform()
        assert p.route("a", "c").bottleneck_mbps(p) == pytest.approx(100.0)

    def test_route_override_changes_path(self):
        p = Platform()
        p.add_host("x", "10.0.0.1")
        p.add_host("y", "10.0.0.2")
        p.add_router("r1", "10.0.0.3")
        p.add_router("r2", "10.0.0.4")
        p.add_link("x", "r1", 100.0)
        p.add_link("r1", "y", 100.0)
        p.add_link("x", "r2", 10.0)
        p.add_link("r2", "y", 10.0)
        p.set_route("x", "y", ["x", "r2", "y"])
        assert p.route("x", "y").nodes == ["x", "r2", "y"]
        # the reverse direction keeps the shortest path
        assert p.route("y", "x").nodes in (["y", "r1", "x"], ["y", "r2", "x"])
        assert not p.routes_are_symmetric("x", "y") or \
            p.route("y", "x").nodes == ["y", "r2", "x"]

    def test_route_override_must_use_existing_edges(self):
        p = small_platform()
        with pytest.raises(ValueError):
            p.set_route("a", "c", ["a", "c"])

    def test_shared_elements_detects_collisions(self):
        p = small_platform()
        shared = p.shared_elements(("a", "c"), ("b", "c"))
        assert shared  # both cross the hub and the hub-r link
        assert ("hub", "hub") in shared

    def test_no_path_raises(self):
        p = Platform()
        p.add_host("a", "10.0.0.1")
        p.add_host("b", "10.0.0.2")
        with pytest.raises(KeyError):
            p.route("a", "b")

    def test_validate_flags_bad_bandwidth(self):
        p = Platform()
        p.add_host("a", "10.0.0.1")
        p.add_host("b", "10.0.0.2")
        p.add_link("a", "b", 100.0)
        p.links["a--b"].bandwidth_mbps = 0.0
        assert any("bandwidth" in msg for msg in p.validate())

    @pytest.mark.parametrize("value", [INF, NAN, 0.0, -1.0])
    def test_set_link_bandwidth_rejects_non_positive_or_non_finite(self, value):
        p = small_platform()
        with pytest.raises(ValueError, match="positive and finite"):
            p.set_link_bandwidth("sw--c", value)
        assert p.links["sw--c"].bandwidth_mbps == 100.0

    @pytest.mark.parametrize("value", [INF, NAN, -1e-3])
    def test_set_link_latency_rejects_negative_or_non_finite(self, value):
        p = small_platform()
        before = p.links["sw--c"].latency_s
        with pytest.raises(ValueError, match="non-negative and finite"):
            p.set_link_latency("sw--c", value)
        assert p.links["sw--c"].latency_s == before
        p.set_link_latency("sw--c", 0.0)

    @pytest.mark.parametrize("value", [INF, NAN, 0.0])
    def test_set_hub_bandwidth_rejects_non_positive_or_non_finite(self, value):
        p = small_platform()
        with pytest.raises(ValueError, match="positive and finite"):
            p.set_hub_bandwidth("hub", value)
        assert p.nodes["hub"].bandwidth_mbps == 100.0

    def test_validate_flags_non_finite_values(self):
        platform = build_ens_lyon()
        link = next(iter(platform.links.values()))
        link.bandwidth_mbps = INF
        link.latency_s = NAN
        problems = platform.validate()
        assert any(link.name in msg and "bandwidth inf" in msg
                   for msg in problems)
        assert any(link.name in msg and "latency nan" in msg
                   for msg in problems)
        with pytest.raises(ValueError, match="failed validation"):
            finish_platform(platform, {})

    def test_hosts_sorted(self):
        p = small_platform()
        assert [n.name for n in p.hosts()] == ["a", "b", "c"]

    def test_capacities_cover_all_keys(self):
        p = small_platform()
        caps = p.capacities()
        for key in p.route("a", "c").constraint_keys(p):
            assert key in caps
