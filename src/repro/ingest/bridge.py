"""GridDocument ↔ Platform bridge.

GridML is what ENV *emits* (paper §4 listings); until now a GridML file was a
dead end — readable, mergeable, but not runnable.  This module closes the
loop:

* :func:`platform_from_gridml` builds a runnable
  :class:`~repro.netsim.topology.Platform` from a document: every ``NETWORK``
  becomes an anchor router plus a hub/switch segment (``ENV_Shared`` maps to
  a hub, everything else to a switch), nested networks hang off their
  parent's router, and machines that no network references are grouped into
  one switched segment per site.  Bandwidth/latency come from
  ``bandwidth_mbps`` / ``ENV_base_BW`` / ``latency_s`` properties when
  present.
* :func:`gridml_from_platform` is the inverse-ish export: a structural
  document with one ``SITE`` per DNS domain and one ``NETWORK`` per physical
  segment, annotated with the properties the importer reads back — so
  platform → document → platform round-trips the evaluation-relevant
  structure, and document → XML → document round-trips exactly
  (see the ingest tests).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..gridml.model import GridDocument, MachineEntry, NetworkEntry, SiteEntry
from ..netsim.builders import SiteBuilder
from ..netsim.generators import attach_cluster, finish_platform
from ..netsim.topology import NodeKind, Platform

__all__ = ["platform_from_gridml", "gridml_from_platform"]

_DEFAULT_SEGMENT_MBPS = 100.0
_DEFAULT_SEGMENT_LATENCY_S = 1e-4
_BACKBONE_MBPS = 1000.0
_BACKBONE_LATENCY_S = 1e-3


def _network_number(net: NetworkEntry, prop: str, value: str,
                    positive: bool) -> float:
    """``value`` of property ``prop`` as a finite, non-negative float
    (strictly positive when ``positive``); ``ValueError`` otherwise."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number) or number < 0 or (positive and number == 0):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"network {net.label!r}: property {prop} = {value!r} "
                         f"is not a finite {kind} number")
    return number


def _network_bandwidth(net: NetworkEntry) -> float:
    for prop in ("bandwidth_mbps", "ENV_base_BW"):
        value = net.property_value(prop)
        if value is not None:
            return _network_number(net, prop, value, positive=True)
    return _DEFAULT_SEGMENT_MBPS


def _network_latency(net: NetworkEntry) -> float:
    value = net.property_value("latency_s")
    if value is None:
        return _DEFAULT_SEGMENT_LATENCY_S
    return _network_number(net, "latency_s", value, positive=False)


class _GridBuilder:
    """Stateful walk of a document's networks/sites into one platform."""

    def __init__(self, doc: GridDocument, name: Optional[str]):
        self.doc = doc
        self.b = SiteBuilder(name=name or doc.label or "gridml-import")
        self.machines: Dict[str, MachineEntry] = {}
        self.domains: Dict[str, str] = {}
        for site in doc.sites:
            for entry in site.machines:
                if entry.name not in self.machines:
                    self.machines[entry.name] = entry
                    self.domains[entry.name] = site.domain
        self.placed: set = set()
        # Separate address spaces: routers live in 192.168.<n>.1 (the core
        # holds .250), segments in 10.<n>.1.0/24.
        self.router_count = 0
        self.subnet_count = 0
        self.ground_truth: Dict[str, Dict[str, object]] = {}

    def _next_router_index(self) -> int:
        self.router_count += 1
        if self.router_count > 249:
            raise ValueError("GridML document too large for the bridge's "
                             "address plan (>249 networks)")
        return self.router_count

    def _next_subnet_index(self) -> int:
        self.subnet_count += 1
        if self.subnet_count > 254:
            raise ValueError("GridML document too large for the bridge's "
                             "address plan (>254 machine-bearing segments)")
        return self.subnet_count

    def _add_hosts(self, names: List[str], subnet: str) -> None:
        for host in names:
            entry = self.machines.get(host)
            domain = self.domains.get(host, "")
            properties = None
            ip = None
            if entry is not None:
                properties = {p.name: p.value for p in entry.properties} or None
                ip = entry.ip
            self.b.add_host(host, subnet=subnet, domain=domain, ip=ip,
                            properties=properties)

    def _add_segment(self, label: str, kind: str, members: List[str],
                     bandwidth: float, latency: float, router: str) -> str:
        idx = self._next_subnet_index()
        subnet = f"10.{idx}.1"
        self._add_hosts(members, subnet)
        # Labels are not unique identifiers in GridML (every site may declare
        # its own "lan"); fall back to the unique segment index on collision.
        segment = f"{label}-seg"
        if segment in self.b.platform.nodes:
            segment = f"{label}-seg{idx}"
        attach_cluster(self.b, segment=segment, kind=kind,
                       host_names=members, subnet=subnet, domain="",
                       bandwidth_mbps=bandwidth, latency_s=latency,
                       attach_to=router, site=idx,
                       ground_truth=self.ground_truth, create_hosts=False)
        self.placed.update(members)
        return segment

    def _add_network(self, net: NetworkEntry, parent_router: str) -> None:
        idx = self._next_router_index()
        label = net.label or f"net{idx}"
        router = f"rt-{label}-{idx}"
        self.b.add_router(router, ip=net.label_ip or f"192.168.{idx}.1")
        self.b.connect(router, parent_router, _BACKBONE_MBPS,
                       latency_s=_BACKBONE_LATENCY_S)
        # dict.fromkeys: a reference may legitimately repeat inside one
        # NETWORK (merged/hand-edited exports); first occurrence wins.
        members = [m for m in dict.fromkeys(net.machines)
                   if m not in self.placed]
        if members:
            kind = "hub" if net.network_type == "ENV_Shared" else "switch"
            self._add_segment(label, kind, members, _network_bandwidth(net),
                              _network_latency(net), router)
        for sub in net.subnetworks:
            self._add_network(sub, router)

    def build(self) -> Platform:
        platform = self.b.platform
        platform.add_external("internet")
        core = "grid-core"
        self.b.add_router(core, ip="192.168.250.1")
        self.b.connect(core, "internet", _BACKBONE_MBPS,
                       latency_s=5e-3)
        for net in self.doc.networks:
            self._add_network(net, core)
        # Machines no network references still deserve a home: one switched
        # segment per site, straight off the core.
        for site in self.doc.sites:
            leftover = [m.name for m in site.machines
                        if m.name not in self.placed]
            if leftover:
                label = site.label or site.domain or "site"
                self._add_segment(label, "switch", leftover,
                                  _DEFAULT_SEGMENT_MBPS,
                                  _DEFAULT_SEGMENT_LATENCY_S, core)
        if not platform.hosts():
            raise ValueError("GridML document holds no machines; "
                             "nothing to build")
        return finish_platform(platform, self.ground_truth)


def platform_from_gridml(doc: GridDocument,
                         name: Optional[str] = None) -> Platform:
    """Build a runnable platform from a GridML document."""
    return _GridBuilder(doc, name).build()


def gridml_from_platform(platform: Platform) -> GridDocument:
    """Export a platform's observable structure as a GridML document."""
    doc = GridDocument(label=platform.name)
    sites: Dict[str, SiteEntry] = {}
    for host in platform.hosts():
        domain = host.domain or "imported.local"
        site = sites.get(domain)
        if site is None:
            site = SiteEntry(domain=domain,
                             label=domain.upper().replace(".", "-"))
            sites[domain] = site
            doc.sites.append(site)
        entry = MachineEntry(name=host.name,
                             ip=str(host.ip) if host.ip else None)
        for key, value in sorted(host.properties.items()):
            entry.add_property(key, value)
        site.machines.append(entry)
    for node in platform.nodes.values():
        if node.kind not in (NodeKind.HUB, NodeKind.SWITCH):
            continue
        members = sorted(peer for peer in platform.graph.neighbors(node.name)
                         if platform.nodes[peer].is_host)
        if not members:
            continue
        net = NetworkEntry(
            label=node.name,
            network_type="ENV_Shared" if node.is_hub else "ENV_Switched",
            machines=members)
        link = platform.link_between(members[0], node.name)
        bandwidth = node.bandwidth_mbps if node.is_hub else link.bandwidth_mbps
        net.add_property("bandwidth_mbps", f"{bandwidth:g}", units="Mbps")
        net.add_property("latency_s", f"{link.latency_s:g}", units="s")
        doc.networks.append(net)
    return doc
