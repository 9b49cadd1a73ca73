"""Network substrate: topology model, flow-level simulation and probes."""

from .address import IPv4Address, classful_network, is_private_ip, parse_ip
from .builders import ClusterSpec, SiteBuilder
from .dns import Resolver, ResolutionError
from .ens_lyon import (
    ENS_LYON_DOMAIN,
    GATEWAY_ALIASES,
    POPC_PRIVATE_DOMAIN,
    PRIVATE_HOSTS,
    PUBLIC_HOSTS,
    build_ens_lyon,
    expected_effective_groups,
)
from .firewall import CommunicationBlocked, Firewall, attach_firewall, platform_allows
from .flows import Flow, FlowModel, TransferResult, max_min_allocation
from .generators import (
    CampusSpec,
    DegradedSpec,
    FatTreeSpec,
    RingSpec,
    StarSpec,
    SyntheticSpec,
    WanGridSpec,
    attach_cluster,
    finish_platform,
    generate_campus,
    generate_constellation,
    generate_degraded,
    generate_fat_tree,
    generate_ring,
    generate_single_site,
    generate_star,
    generate_wan_grid,
    ground_truth_groups,
)
from .tcp import (
    DEFAULT_BANDWIDTH_PROBE_BYTES,
    DEFAULT_LATENCY_PROBE_BYTES,
    ProbeOutcome,
    TcpModel,
)
from .topology import (
    Link,
    Node,
    NodeKind,
    Platform,
    Route,
    bytes_per_s_to_mbps,
    mbps_to_bytes_per_s,
)
from .traceroute import ANONYMOUS_HOP, TracerouteHop, TracerouteResult, ping_rtt, traceroute
from .vlan import VlanPlan

__all__ = [
    "IPv4Address", "parse_ip", "classful_network", "is_private_ip",
    "Resolver", "ResolutionError",
    "NodeKind", "Node", "Link", "Route", "Platform",
    "mbps_to_bytes_per_s", "bytes_per_s_to_mbps",
    "Flow", "FlowModel", "TransferResult", "max_min_allocation",
    "TcpModel", "ProbeOutcome",
    "DEFAULT_LATENCY_PROBE_BYTES", "DEFAULT_BANDWIDTH_PROBE_BYTES",
    "traceroute", "ping_rtt", "TracerouteResult", "TracerouteHop", "ANONYMOUS_HOP",
    "Firewall", "CommunicationBlocked", "attach_firewall", "platform_allows",
    "VlanPlan",
    "SiteBuilder", "ClusterSpec",
    "SyntheticSpec", "generate_constellation", "generate_single_site",
    "ground_truth_groups", "attach_cluster", "finish_platform",
    "WanGridSpec", "generate_wan_grid",
    "CampusSpec", "generate_campus",
    "FatTreeSpec", "generate_fat_tree",
    "StarSpec", "generate_star",
    "RingSpec", "generate_ring",
    "DegradedSpec", "generate_degraded",
    "build_ens_lyon", "expected_effective_groups",
    "ENS_LYON_DOMAIN", "POPC_PRIVATE_DOMAIN", "GATEWAY_ALIASES",
    "PUBLIC_HOSTS", "PRIVATE_HOSTS",
]
