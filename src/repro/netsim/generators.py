"""Synthetic platform generators.

The paper's quantitative arguments (naive-mapping cost, clique frequency,
plan quality) deserve evaluation beyond the single ENS-Lyon case study, so
the benchmark suite sweeps over synthetic platforms shaped like the ones the
paper targets: "a WAN constellation of LAN resources" (§5) — several sites
joined by a backbone, each site holding a mix of hub segments and switched
clusters behind routers, optionally with firewalled private sub-domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .address import IPv4Address
from .builders import SiteBuilder
from .firewall import Firewall, attach_firewall
from .topology import Platform
from .vlan import VlanPlan

__all__ = ["SyntheticSpec", "generate_constellation", "generate_single_site",
           "ground_truth_groups", "attach_cluster", "finish_platform",
           "WanGridSpec", "generate_wan_grid",
           "CampusSpec", "generate_campus",
           "FatTreeSpec", "generate_fat_tree",
           "StarSpec", "generate_star",
           "RingSpec", "generate_ring",
           "DegradedSpec", "generate_degraded"]


@dataclass
class SyntheticSpec:
    """Parameters of a synthetic Grid constellation."""

    sites: int = 2
    clusters_per_site: Tuple[int, int] = (1, 3)        # inclusive range
    hosts_per_cluster: Tuple[int, int] = (2, 6)        # inclusive range
    hub_probability: float = 0.5                       # else switched
    lan_bandwidth_mbps: Tuple[float, ...] = (100.0, 1000.0)
    wan_bandwidth_mbps: float = 10.0
    lan_latency_s: float = 1e-4
    wan_latency_s: float = 5e-3
    firewall_probability: float = 0.0
    seed: int = 0


def _site_subnet(site_idx: int, cluster_idx: int) -> str:
    return f"10.{site_idx + 1}.{cluster_idx + 1}"


def generate_constellation(spec: SyntheticSpec) -> Platform:
    """Generate a multi-site platform according to ``spec``.

    The ground-truth grouping (which hosts share a segment and of which kind)
    is recorded on the platform as ``platform.ground_truth`` for scoring.
    """
    rng = np.random.default_rng(spec.seed)
    b = SiteBuilder(name=f"synthetic-{spec.seed}")
    platform = b.platform
    platform.add_external("internet")

    ground_truth: Dict[str, Dict[str, object]] = {}
    backbone_name = "backbone"
    b.add_router(backbone_name, ip="192.168.254.1")
    b.connect(backbone_name, "internet", spec.wan_bandwidth_mbps * 10,
              latency_s=spec.wan_latency_s)

    firewall = Firewall()
    any_firewalled = False

    for s in range(spec.sites):
        site_router = f"site{s}-router"
        b.add_router(site_router, ip=f"10.{s + 1}.0.1")
        b.connect(site_router, backbone_name, spec.wan_bandwidth_mbps,
                  latency_s=spec.wan_latency_s)
        domain = f"site{s}.example.org"
        n_clusters = int(rng.integers(spec.clusters_per_site[0],
                                      spec.clusters_per_site[1] + 1))
        for c in range(n_clusters):
            n_hosts = int(rng.integers(spec.hosts_per_cluster[0],
                                       spec.hosts_per_cluster[1] + 1))
            kind = "hub" if rng.random() < spec.hub_probability else "switch"
            bw = float(rng.choice(spec.lan_bandwidth_mbps))
            host_names = [f"s{s}c{c}h{h}" for h in range(n_hosts)]
            subnet = _site_subnet(s, c)
            segment = f"s{s}c{c}-{kind}"
            # Up-link: the cluster's first host is a dual-homed gateway (a
            # traceroute hop, enough structural separation) half the time,
            # otherwise the segment connects straight to the site router,
            # which then reports a per-subnet interface address (as real
            # routers do) so traceroutes separate the clusters structurally.
            gateway = (host_names[0]
                       if n_hosts >= 2 and rng.random() < 0.5 else None)
            attach_cluster(b, segment=segment, kind=kind, host_names=host_names,
                         subnet=subnet, domain=domain, bandwidth_mbps=bw,
                         latency_s=spec.lan_latency_s, attach_to=site_router,
                         site=s, ground_truth=ground_truth, gateway=gateway)
            if spec.firewall_probability > 0 and rng.random() < spec.firewall_probability:
                private_domain = f"private-s{s}c{c}"
                for name in host_names:
                    platform.nodes[name].domain = private_domain
                gateways = [gateway] if gateway else [host_names[0]]
                firewall.isolate_domain(private_domain, gateways=gateways)
                any_firewalled = True

    if any_firewalled:
        attach_firewall(platform, firewall)

    return finish_platform(platform, ground_truth)


def generate_single_site(n_hub_clusters: int = 1, n_switch_clusters: int = 1,
                         hosts_per_cluster: int = 4,
                         bandwidth_mbps: float = 100.0,
                         seed: int = 0) -> Platform:
    """A deterministic single-site platform (useful for unit tests)."""
    spec = SyntheticSpec(sites=1,
                         clusters_per_site=(n_hub_clusters + n_switch_clusters,
                                            n_hub_clusters + n_switch_clusters),
                         hosts_per_cluster=(hosts_per_cluster, hosts_per_cluster),
                         hub_probability=1.0,
                         lan_bandwidth_mbps=(bandwidth_mbps,),
                         seed=seed)
    # Build manually so the hub/switch split is exact rather than probabilistic.
    b = SiteBuilder(name=f"single-site-{seed}")
    platform = b.platform
    platform.add_external("internet")
    b.add_router("site-router", ip="10.1.0.1")
    b.connect("site-router", "internet", 100.0, latency_s=5e-3)
    ground_truth: Dict[str, Dict[str, object]] = {}
    cluster_idx = 0
    for kind, count in (("hub", n_hub_clusters), ("switch", n_switch_clusters)):
        for _ in range(count):
            host_names = [f"c{cluster_idx}h{h}" for h in range(hosts_per_cluster)]
            attach_cluster(b, segment=f"c{cluster_idx}-{kind}", kind=kind,
                         host_names=host_names,
                         subnet=_site_subnet(0, cluster_idx),
                         domain="site0.example.org",
                         bandwidth_mbps=bandwidth_mbps, latency_s=1e-4,
                         attach_to="site-router", site=0,
                         ground_truth=ground_truth)
            cluster_idx += 1
    platform.ground_truth = ground_truth  # type: ignore[attr-defined]
    return platform


def ground_truth_groups(platform: Platform) -> Dict[str, Dict[str, object]]:
    """The recorded ground-truth grouping of a generated platform."""
    truth = getattr(platform, "ground_truth", None)
    if truth is None:
        raise ValueError("platform has no recorded ground truth")
    return truth


# ---------------------------------------------------------------------------
# Scenario-suite generators
#
# The generators below parameterise the platform families the scenario
# registry (:mod:`repro.scenarios`) sweeps over: multi-site WAN grids with a
# heterogeneous backbone, firewalled campus networks, fat-tree / star / ring
# LAN variants and degraded platforms (asymmetric routes, lossy VLANs).
# Every generator records ``platform.ground_truth`` and validates the result.
# ---------------------------------------------------------------------------


def finish_platform(platform: Platform,
                    ground_truth: Dict[str, Dict[str, object]]) -> Platform:
    """Record the ground truth, validate and return the platform.

    A platform that fails :meth:`Platform.validate` raises ``ValueError``
    naming every problem."""
    platform.ground_truth = ground_truth  # type: ignore[attr-defined]
    problems = platform.validate()
    if problems:
        raise ValueError(f"{platform.name}: platform failed validation: "
                         + "; ".join(problems))
    return platform


def attach_cluster(b: SiteBuilder, segment: str, kind: str,
                   host_names: List[str], subnet: str, domain: str,
                   bandwidth_mbps: float, latency_s: float,
                   attach_to: str, site: int,
                   ground_truth: Dict[str, Dict[str, object]],
                   gateway: Optional[str] = None,
                   uplink_mbps: Optional[float] = None,
                   create_hosts: bool = True) -> None:
    """One hub/switch cluster attached to ``attach_to`` (router or gateway).

    ``create_hosts=False`` wires up pre-existing hosts (callers that need
    explicit per-host addresses or properties, like the GridML bridge).
    """
    if create_hosts:
        for name in host_names:
            b.add_host(name, subnet=subnet, domain=domain)
    if kind == "hub":
        b.add_hub_segment(segment, host_names, bandwidth_mbps,
                          latency_s=latency_s)
    else:
        b.add_switch_segment(segment, host_names, bandwidth_mbps,
                             latency_s=latency_s)
    uplink = uplink_mbps if uplink_mbps is not None else bandwidth_mbps
    if gateway is not None:
        b.connect(gateway, attach_to, uplink, latency_s=latency_s)
    else:
        b.connect(segment, attach_to, uplink, latency_s=latency_s)
        b.platform.nodes[attach_to].interface_ips[segment] = \
            IPv4Address.parse(f"{subnet}.254")
    ground_truth[segment] = {
        "hosts": set(host_names),
        "kind": "shared" if kind == "hub" else "switched",
        "site": site,
        "gateway": gateway,
        "bandwidth_mbps": bandwidth_mbps,
    }


@dataclass
class WanGridSpec:
    """A rows×cols grid of sites joined by a heterogeneous WAN backbone.

    Each grid point holds one backbone router and one LAN cluster; adjacent
    backbone routers are joined by links whose bandwidth and latency are
    drawn independently from the given ranges, so paths across the grid see
    genuinely heterogeneous WAN conditions.
    """

    rows: int = 2
    cols: int = 2
    hosts_per_site: Tuple[int, int] = (3, 5)           # inclusive range
    hub_probability: float = 0.3                       # else switched
    lan_bandwidth_mbps: Tuple[float, ...] = (100.0, 1000.0)
    backbone_bandwidth_mbps: Tuple[float, float] = (8.0, 100.0)   # range
    backbone_latency_s: Tuple[float, float] = (1e-3, 2e-2)        # range
    lan_latency_s: float = 1e-4
    seed: int = 0


def generate_wan_grid(spec: WanGridSpec) -> Platform:
    """Generate a multi-site WAN grid according to ``spec``."""
    if spec.rows < 1 or spec.cols < 1:
        raise ValueError("a WAN grid needs at least one row and one column")
    rng = np.random.default_rng(spec.seed)
    b = SiteBuilder(name=f"wan-grid-{spec.rows}x{spec.cols}-{spec.seed}")
    platform = b.platform
    platform.add_external("internet")
    ground_truth: Dict[str, Dict[str, object]] = {}

    def router_name(r: int, c: int) -> str:
        return f"bb-r{r}c{c}"

    for r in range(spec.rows):
        for c in range(spec.cols):
            site = r * spec.cols + c
            b.add_router(router_name(r, c), ip=f"192.168.{site + 1}.1")
    b.connect(router_name(0, 0), "internet",
              spec.backbone_bandwidth_mbps[1],
              latency_s=spec.backbone_latency_s[1])

    lo_bw, hi_bw = spec.backbone_bandwidth_mbps
    lo_lat, hi_lat = spec.backbone_latency_s
    for r in range(spec.rows):
        for c in range(spec.cols):
            for dr, dc in ((0, 1), (1, 0)):        # right and down neighbours
                nr, nc = r + dr, c + dc
                if nr >= spec.rows or nc >= spec.cols:
                    continue
                bw = float(rng.uniform(lo_bw, hi_bw))
                lat = float(rng.uniform(lo_lat, hi_lat))
                b.connect(router_name(r, c), router_name(nr, nc), bw,
                          latency_s=lat)

    for r in range(spec.rows):
        for c in range(spec.cols):
            site = r * spec.cols + c
            n_hosts = int(rng.integers(spec.hosts_per_site[0],
                                       spec.hosts_per_site[1] + 1))
            kind = "hub" if rng.random() < spec.hub_probability else "switch"
            bw = float(rng.choice(spec.lan_bandwidth_mbps))
            host_names = [f"g{site}h{h}" for h in range(n_hosts)]
            attach_cluster(b, segment=f"g{site}-{kind}", kind=kind,
                         host_names=host_names, subnet=f"10.{site + 1}.1",
                         domain=f"site{site}.grid.example.org",
                         bandwidth_mbps=bw, latency_s=spec.lan_latency_s,
                         attach_to=router_name(r, c), site=site,
                         ground_truth=ground_truth)
    return finish_platform(platform, ground_truth)


@dataclass
class CampusSpec:
    """A campus network: departments behind a core, some of them firewalled.

    The first ``firewalled_departments`` departments sit behind a NAT-style
    firewall: their hosts live in a private domain and only the dual-homed
    gateway host may talk across the boundary (exercising
    :mod:`repro.netsim.firewall` exactly like the paper's popc.private side).
    """

    departments: int = 3
    firewalled_departments: int = 1
    hosts_per_department: Tuple[int, int] = (3, 5)     # inclusive range
    hub_probability: float = 0.4                       # else switched
    lan_bandwidth_mbps: Tuple[float, ...] = (100.0,)
    core_bandwidth_mbps: float = 1000.0
    uplink_bandwidth_mbps: float = 100.0
    lan_latency_s: float = 1e-4
    core_latency_s: float = 5e-4
    seed: int = 0


def generate_campus(spec: CampusSpec) -> Platform:
    """Generate a firewalled campus topology according to ``spec``."""
    if spec.firewalled_departments > spec.departments:
        raise ValueError("cannot firewall more departments than exist")
    rng = np.random.default_rng(spec.seed)
    b = SiteBuilder(name=f"campus-{spec.departments}-{spec.seed}")
    platform = b.platform
    platform.add_external("internet")
    b.add_router("campus-core", ip="172.16.0.1")
    b.connect("campus-core", "internet", spec.uplink_bandwidth_mbps,
              latency_s=5e-3)
    ground_truth: Dict[str, Dict[str, object]] = {}
    firewall = Firewall()

    for d in range(spec.departments):
        dept_router = f"dept{d}-router"
        b.add_router(dept_router, ip=f"172.16.{d + 1}.1")
        b.connect(dept_router, "campus-core", spec.core_bandwidth_mbps,
                  latency_s=spec.core_latency_s)
        n_hosts = int(rng.integers(spec.hosts_per_department[0],
                                   spec.hosts_per_department[1] + 1))
        kind = "hub" if rng.random() < spec.hub_probability else "switch"
        bw = float(rng.choice(spec.lan_bandwidth_mbps))
        host_names = [f"d{d}h{h}" for h in range(n_hosts)]
        firewalled = d < spec.firewalled_departments
        domain = (f"private-d{d}" if firewalled
                  else "campus.example.edu")
        # Firewalled departments reach the core through a dual-homed gateway
        # host (the NAT box); open departments attach their segment directly.
        gateway = host_names[0] if firewalled else None
        attach_cluster(b, segment=f"d{d}-{kind}", kind=kind,
                     host_names=host_names, subnet=f"10.{100 + d}.1",
                     domain=domain, bandwidth_mbps=bw,
                     latency_s=spec.lan_latency_s, attach_to=dept_router,
                     site=d, ground_truth=ground_truth, gateway=gateway,
                     uplink_mbps=spec.uplink_bandwidth_mbps)
        if firewalled:
            firewall.isolate_domain(domain, gateways=[gateway])

    if spec.firewalled_departments:
        attach_firewall(platform, firewall)
    return finish_platform(platform, ground_truth)


@dataclass
class FatTreeSpec:
    """A two-level fat-tree LAN: core router, per-pod routers, edge switches."""

    pods: int = 2
    edges_per_pod: int = 2
    hosts_per_edge: int = 3
    edge_bandwidth_mbps: float = 100.0
    aggregation_bandwidth_mbps: float = 1000.0
    core_bandwidth_mbps: float = 10000.0
    latency_s: float = 5e-5


def generate_fat_tree(spec: FatTreeSpec) -> Platform:
    """Generate a fat-tree LAN according to ``spec``."""
    if min(spec.pods, spec.edges_per_pod, spec.hosts_per_edge) < 1:
        raise ValueError("fat-tree dimensions must be positive")
    b = SiteBuilder(name=f"fat-tree-{spec.pods}x{spec.edges_per_pod}")
    platform = b.platform
    platform.add_external("internet")
    b.add_router("ft-core", ip="10.0.0.1")
    b.connect("ft-core", "internet", spec.core_bandwidth_mbps, latency_s=1e-3)
    ground_truth: Dict[str, Dict[str, object]] = {}
    for p in range(spec.pods):
        pod_router = f"pod{p}-agg"
        b.add_router(pod_router, ip=f"10.{p + 1}.0.1")
        b.connect(pod_router, "ft-core", spec.core_bandwidth_mbps,
                  latency_s=spec.latency_s)
        for e in range(spec.edges_per_pod):
            host_names = [f"p{p}e{e}h{h}" for h in range(spec.hosts_per_edge)]
            attach_cluster(b, segment=f"p{p}e{e}-switch", kind="switch",
                         host_names=host_names, subnet=f"10.{p + 1}.{e + 1}",
                         domain="fat-tree.example.org",
                         bandwidth_mbps=spec.edge_bandwidth_mbps,
                         latency_s=spec.latency_s, attach_to=pod_router,
                         site=p, ground_truth=ground_truth,
                         uplink_mbps=spec.aggregation_bandwidth_mbps)
    return finish_platform(platform, ground_truth)


@dataclass
class StarSpec:
    """A single star LAN: every host on one central hub or switch."""

    hosts: int = 8
    kind: str = "switch"                               # or "hub"
    bandwidth_mbps: float = 100.0
    latency_s: float = 1e-4


def generate_star(spec: StarSpec) -> Platform:
    """Generate a star LAN according to ``spec``."""
    if spec.hosts < 2:
        raise ValueError("a star needs at least two hosts")
    if spec.kind not in ("hub", "switch"):
        raise ValueError(f"unknown star kind {spec.kind!r}")
    b = SiteBuilder(name=f"star-{spec.kind}-{spec.hosts}")
    platform = b.platform
    platform.add_external("internet")
    b.add_router("star-router", ip="10.9.0.1")
    b.connect("star-router", "internet", spec.bandwidth_mbps, latency_s=5e-3)
    ground_truth: Dict[str, Dict[str, object]] = {}
    host_names = [f"star{h}" for h in range(spec.hosts)]
    attach_cluster(b, segment=f"star-{spec.kind}", kind=spec.kind,
                 host_names=host_names, subnet="10.9.1",
                 domain="star.example.org", bandwidth_mbps=spec.bandwidth_mbps,
                 latency_s=spec.latency_s, attach_to="star-router", site=0,
                 ground_truth=ground_truth)
    return finish_platform(platform, ground_truth)


@dataclass
class RingSpec:
    """Sites on a WAN ring; traffic between sites crosses part of the ring."""

    sites: int = 4
    hosts_per_site: Tuple[int, int] = (2, 4)           # inclusive range
    hub_probability: float = 0.5                       # else switched
    lan_bandwidth_mbps: float = 100.0
    ring_bandwidth_mbps: Tuple[float, float] = (10.0, 60.0)       # range
    ring_latency_s: float = 5e-3
    lan_latency_s: float = 1e-4
    seed: int = 0


def generate_ring(spec: RingSpec) -> Platform:
    """Generate a ring of sites according to ``spec``."""
    if spec.sites < 3:
        raise ValueError("a ring needs at least three sites")
    rng = np.random.default_rng(spec.seed)
    b = SiteBuilder(name=f"ring-{spec.sites}-{spec.seed}")
    platform = b.platform
    platform.add_external("internet")
    ground_truth: Dict[str, Dict[str, object]] = {}
    for s in range(spec.sites):
        b.add_router(f"ring{s}-router", ip=f"192.168.{s + 1}.1")
    b.connect("ring0-router", "internet", spec.ring_bandwidth_mbps[1],
              latency_s=spec.ring_latency_s)
    for s in range(spec.sites):
        bw = float(rng.uniform(*spec.ring_bandwidth_mbps))
        b.connect(f"ring{s}-router", f"ring{(s + 1) % spec.sites}-router",
                  bw, latency_s=spec.ring_latency_s)
    for s in range(spec.sites):
        n_hosts = int(rng.integers(spec.hosts_per_site[0],
                                   spec.hosts_per_site[1] + 1))
        kind = "hub" if rng.random() < spec.hub_probability else "switch"
        host_names = [f"r{s}h{h}" for h in range(n_hosts)]
        attach_cluster(b, segment=f"r{s}-{kind}", kind=kind,
                     host_names=host_names, subnet=f"10.{s + 1}.1",
                     domain=f"site{s}.ring.example.org",
                     bandwidth_mbps=spec.lan_bandwidth_mbps,
                     latency_s=spec.lan_latency_s,
                     attach_to=f"ring{s}-router", site=s,
                     ground_truth=ground_truth)
    return finish_platform(platform, ground_truth)


@dataclass
class DegradedSpec:
    """Two sites with degraded interconnect and a lossy in-site VLAN.

    The inter-site path is asymmetric: the forward direction (site 0 →
    site 1) is forced over a slow detour router while the reverse uses the
    fast direct link (the paper's §4.3 "Asymmetric routes").  Site 1 also
    holds a degraded hub — low bandwidth, high latency — whose hosts are
    spread over VLANs that do not match the physical segments (§3.1).
    """

    hosts_per_cluster: int = 3
    lan_bandwidth_mbps: float = 100.0
    degraded_bandwidth_mbps: float = 10.0
    fast_wan_mbps: float = 100.0
    slow_wan_mbps: float = 10.0
    wan_latency_s: float = 5e-3
    degraded_latency_s: float = 2e-3


def generate_degraded(spec: DegradedSpec) -> Platform:
    """Generate the degraded-link platform described by ``spec``."""
    if spec.hosts_per_cluster < 2:
        raise ValueError("clusters need at least two hosts")
    b = SiteBuilder(name=f"degraded-{spec.hosts_per_cluster}")
    platform = b.platform
    platform.add_external("internet")
    b.add_router("site0-router", ip="10.1.0.1")
    b.add_router("site1-router", ip="10.2.0.1")
    b.add_router("detour-router", ip="10.3.0.1")
    b.connect("site0-router", "internet", spec.fast_wan_mbps,
              latency_s=spec.wan_latency_s)
    # Fast direct link plus a slow detour between the two sites.
    b.connect("site0-router", "site1-router", spec.fast_wan_mbps,
              latency_s=spec.wan_latency_s)
    b.connect("site0-router", "detour-router", spec.fast_wan_mbps,
              latency_s=spec.wan_latency_s)
    b.connect("detour-router", "site1-router", spec.slow_wan_mbps,
              latency_s=spec.wan_latency_s * 2)

    ground_truth: Dict[str, Dict[str, object]] = {}
    clusters = (
        ("a", "switch", "site0-router", spec.lan_bandwidth_mbps, 1e-4, 0),
        ("b", "switch", "site1-router", spec.lan_bandwidth_mbps, 1e-4, 1),
        ("lossy", "hub", "site1-router", spec.degraded_bandwidth_mbps,
         spec.degraded_latency_s, 1),
    )
    for idx, (tag, kind, router, bw, lat, site) in enumerate(clusters):
        host_names = [f"{tag}{h}" for h in range(spec.hosts_per_cluster)]
        attach_cluster(b, segment=f"{tag}-{kind}", kind=kind,
                     host_names=host_names, subnet=f"10.{idx + 1}.1",
                     domain=f"site{site}.degraded.example.org",
                     bandwidth_mbps=bw, latency_s=lat, attach_to=router,
                     site=site, ground_truth=ground_truth)

    # Asymmetric routes: site-0 → site-1 traffic is forced over the detour.
    for dst_segment, dst_spec in ground_truth.items():
        if dst_spec["site"] != 1:
            continue
        for src in sorted(ground_truth["a-switch"]["hosts"]):
            for dst in sorted(dst_spec["hosts"]):
                platform.set_route(src, dst, [
                    src, "a-switch", "site0-router", "detour-router",
                    "site1-router", dst_segment, dst,
                ])

    # Lossy VLAN plan: the logical grouping interleaves the two site-1
    # clusters, so the logical view is a misleading proxy of physical sharing.
    vlans = VlanPlan()
    b_hosts = sorted(ground_truth["b-switch"]["hosts"])
    lossy_hosts = sorted(ground_truth["lossy-hub"]["hosts"])
    for i, host in enumerate(b_hosts + lossy_hosts):
        vlans.assign(host, f"vlan{i % 2}")
    vlans.apply(platform)
    platform.vlan_plan = vlans  # type: ignore[attr-defined]
    return finish_platform(platform, ground_truth)
