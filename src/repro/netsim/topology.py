"""Platform topology model: hosts, hubs, switches, routers and links.

The platform is the *ground truth* against which the ENV mapper and the NWS
deployment are evaluated.  It distinguishes the element kinds that matter for
bandwidth sharing:

* **Host** — an end point running sensors / ENV probes.
* **Hub** — a half-duplex shared segment: *all* traffic crossing the hub
  shares the hub bandwidth (one collision domain).
* **Switch** — every attached device gets a dedicated full-duplex port; the
  backplane is never the bottleneck.
* **Router** — a layer-3 element joining subnets; may or may not answer
  traceroute probes and may report different addresses per interface.

Bandwidths are expressed in Mbit/s (as in the paper), latencies in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from ..perf import ROUTE_CACHE_HITS, ROUTE_CACHE_MISSES, fast_path_enabled
from .address import IPv4Address
from .dns import Resolver

__all__ = [
    "NodeKind",
    "Node",
    "Link",
    "Route",
    "Platform",
    "mbps_to_bytes_per_s",
    "bytes_per_s_to_mbps",
]


def mbps_to_bytes_per_s(mbps: float) -> float:
    """Convert a bandwidth in Mbit/s to bytes/s."""
    return mbps * 1e6 / 8.0


def bytes_per_s_to_mbps(rate: float) -> float:
    """Convert a rate in bytes/s to Mbit/s."""
    return rate * 8.0 / 1e6


class NodeKind(Enum):
    """The kind of a platform node."""

    HOST = "host"
    ROUTER = "router"
    SWITCH = "switch"
    HUB = "hub"
    EXTERNAL = "external"


@dataclass
class Node:
    """A platform node.

    Attributes
    ----------
    name:
        Unique node identifier (also the canonical hostname for hosts).
    kind:
        One of :class:`NodeKind`.
    ip:
        Primary IPv4 address (hosts and routers).
    bandwidth_mbps:
        For hubs: the shared segment capacity.  Ignored otherwise.
    answers_traceroute:
        Routers only — whether the router reveals itself in traceroutes
        (paper §4.3 "Dropped traceroute").
    interface_ips:
        Routers only — per-neighbour address reported in traceroutes, keyed by
        the neighbour-side subnet tag (may differ per interface).
    properties:
        Free-form host properties reported by ENV's extra-information phase
        (CPU model, clock, OS, kflops, ...).
    domain:
        DNS domain the node belongs to (e.g. ``ens-lyon.fr``).
    """

    name: str
    kind: NodeKind
    ip: Optional[IPv4Address] = None
    bandwidth_mbps: float = 0.0
    answers_traceroute: bool = True
    interface_ips: Dict[str, IPv4Address] = field(default_factory=dict)
    properties: Dict[str, object] = field(default_factory=dict)
    domain: str = ""
    vlan: Optional[str] = None

    @property
    def is_host(self) -> bool:
        return self.kind is NodeKind.HOST

    @property
    def is_hub(self) -> bool:
        return self.kind is NodeKind.HUB

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Link:
    """A physical link between two nodes.

    ``duplex=True`` means each direction has the full ``bandwidth_mbps``
    available (switched/point-to-point cabling); ``duplex=False`` means both
    directions share the capacity (hub segments, legacy coax).
    """

    name: str
    a: str
    b: str
    bandwidth_mbps: float
    latency_s: float = 1e-4
    duplex: bool = True

    def other_end(self, node: str) -> str:
        """The node at the other end of the link from ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of link {self.name!r}")

    def direction_key(self, src: str, dst: str) -> Tuple[str, str]:
        """The capacity-constraint key when traversing from ``src`` to ``dst``.

        Full-duplex links have one constraint per direction; half-duplex
        (shared) links have a single constraint for both directions.
        """
        if not self.duplex:
            return (self.name, "shared")
        if src == self.a and dst == self.b:
            return (self.name, "ab")
        if src == self.b and dst == self.a:
            return (self.name, "ba")
        raise ValueError(f"({src!r}, {dst!r}) does not traverse link {self.name!r}")

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Route:
    """A directed network path: node sequence plus the traversed links."""

    src: str
    dst: str
    nodes: List[str]
    links: List[Link]
    #: Lazily computed constraint-key cache.  Safe because the keys depend
    #: only on the path structure (link names/directions, hubs crossed), not
    #: on bandwidths, and any mutation that changes a path drops the Route
    #: from the platform's route cache.
    _cached_keys: Optional[List[Tuple]] = field(
        default=None, repr=False, compare=False)
    _cached_keyset: Optional[frozenset] = field(
        default=None, repr=False, compare=False)

    @property
    def latency(self) -> float:
        """One-way latency: sum of the link latencies."""
        return sum(link.latency_s for link in self.links)

    @property
    def hop_count(self) -> int:
        return len(self.links)

    def _compute_keys(self, platform: "Platform") -> List[Tuple]:
        keys: List[Tuple] = []
        for i, link in enumerate(self.links):
            keys.append(link.direction_key(self.nodes[i], self.nodes[i + 1]))
        for node_name in self.nodes:
            node = platform.nodes[node_name]
            if node.is_hub:
                keys.append(("hub", node.name))
        return keys

    def constraint_keys(self, platform: "Platform") -> List[Tuple]:
        """All capacity-constraint keys crossed by a flow on this route.

        Includes per-link directional constraints and the shared-segment
        constraint of every hub traversed.  The returned list is cached and
        shared — callers must not mutate it.
        """
        if not fast_path_enabled():
            return self._compute_keys(platform)
        if self._cached_keys is None:
            self._cached_keys = self._compute_keys(platform)
        return self._cached_keys

    def constraint_keyset(self, platform: "Platform") -> frozenset:
        """The constraint keys as a shared frozenset (for overlap tests)."""
        if not fast_path_enabled():
            return frozenset(self._compute_keys(platform))
        if self._cached_keyset is None:
            self._cached_keyset = frozenset(self.constraint_keys(platform))
        return self._cached_keyset

    def bottleneck_mbps(self, platform: "Platform") -> float:
        """The minimum capacity along the route (single-flow upper bound)."""
        capacities = [link.bandwidth_mbps for link in self.links]
        capacities += [
            platform.nodes[n].bandwidth_mbps
            for n in self.nodes
            if platform.nodes[n].is_hub
        ]
        return min(capacities) if capacities else float("inf")


class Platform:
    """The simulated network: nodes, links, routing and name service."""

    def __init__(self, name: str = "platform"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self.resolver = Resolver()
        self.graph = nx.Graph()
        #: Static per-(src, dst) node-path overrides, used to model asymmetric
        #: routes (paper §4.3 "Asymmetric routes").
        self.route_overrides: Dict[Tuple[str, str], List[str]] = {}
        #: Name of the node representing "outside the mapped network".
        self.external_node: Optional[str] = None
        self._route_cache: Dict[Tuple[str, str], Route] = {}
        #: Reverse index: link name -> cached route pairs traversing it, used
        #: to invalidate only the affected entries on link mutations.
        self._routes_by_link: Dict[str, set] = {}
        #: Total mutation counter (any topology change bumps it).
        self._version = 0
        #: Bumped when shortest paths may change for *any* pair (e.g. a link
        #: was added); per-pair and per-element changes use the finer counters.
        self._route_epoch = 0
        self._pair_epochs: Dict[Tuple[str, str], int] = {}
        self._element_versions: Dict[Tuple[str, str], int] = {}

    # -- topology versioning ---------------------------------------------------
    @property
    def version(self) -> int:
        """Total mutation count: bumps on every topology change."""
        return self._version

    @property
    def route_epoch(self) -> int:
        """Bumps when shortest paths may have changed platform-wide."""
        return self._route_epoch

    def element_version(self, key: Tuple[str, str]) -> int:
        """Mutation count of one element, keyed ``("link", name)``/``("hub", name)``."""
        return self._element_versions.get(key, 0)

    def pair_epoch(self, src: str, dst: str) -> int:
        """Mutation count of the explicit routing of one directed pair."""
        return self._pair_epochs.get((src, dst), 0)

    def _bump(self, *element_keys: Tuple[str, str]) -> None:
        self._version += 1
        for key in element_keys:
            self._element_versions[key] = self._element_versions.get(key, 0) + 1

    def _invalidate_all_routes(self) -> None:
        self._route_epoch += 1
        self._route_cache.clear()
        self._routes_by_link.clear()

    def _invalidate_pair(self, src: str, dst: str) -> None:
        key = (src, dst)
        self._pair_epochs[key] = self._pair_epochs.get(key, 0) + 1
        # A stale pair left in _routes_by_link is harmless: invalidation only
        # pops cache entries that still exist.
        self._route_cache.pop(key, None)

    def _invalidate_link_routes(self, name: str) -> None:
        for pair in self._routes_by_link.pop(name, ()):
            self._route_cache.pop(pair, None)

    # -- construction --------------------------------------------------------
    def _add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self.graph.add_node(node.name)
        if node.kind is NodeKind.HOST and node.ip is not None:
            fqdn = node.name if "." in node.name else None
            self.resolver.register(fqdn or node.name, node.ip)
        # A new node starts isolated: no existing route can change, so cached
        # routes stay valid.
        self._version += 1
        return node

    def add_host(self, name: str, ip: str, domain: str = "",
                 properties: Optional[Dict[str, object]] = None,
                 unnamed: bool = False, vlan: Optional[str] = None) -> Node:
        """Add an end host.  ``unnamed=True`` makes reverse DNS fail for it."""
        addr = IPv4Address.parse(ip)
        node = Node(name=name, kind=NodeKind.HOST, ip=addr, domain=domain,
                    properties=dict(properties or {}), vlan=vlan)
        self._add_node(node)
        if unnamed:
            self.resolver.register(None, addr)
        return node

    def add_router(self, name: str, ip: str, answers_traceroute: bool = True,
                   interface_ips: Optional[Dict[str, str]] = None) -> Node:
        """Add a layer-3 router."""
        node = Node(
            name=name,
            kind=NodeKind.ROUTER,
            ip=IPv4Address.parse(ip),
            answers_traceroute=answers_traceroute,
            interface_ips={k: IPv4Address.parse(v)
                           for k, v in (interface_ips or {}).items()},
        )
        return self._add_node(node)

    def add_switch(self, name: str) -> Node:
        """Add a switch (dedicated full-duplex ports, no shared constraint)."""
        return self._add_node(Node(name=name, kind=NodeKind.SWITCH))

    def add_hub(self, name: str, bandwidth_mbps: float) -> Node:
        """Add a hub: one shared half-duplex segment of ``bandwidth_mbps``."""
        return self._add_node(
            Node(name=name, kind=NodeKind.HUB, bandwidth_mbps=bandwidth_mbps)
        )

    def add_external(self, name: str = "internet") -> Node:
        """Add the node representing destinations outside the mapped network."""
        node = self._add_node(Node(name=name, kind=NodeKind.EXTERNAL))
        self.external_node = name
        return node

    def add_link(self, a: str, b: str, bandwidth_mbps: float,
                 latency_s: float = 1e-4, duplex: bool = True,
                 name: Optional[str] = None) -> Link:
        """Connect nodes ``a`` and ``b`` with a link."""
        for end in (a, b):
            if end not in self.nodes:
                raise KeyError(f"unknown node {end!r}")
        link_name = name or f"{a}--{b}"
        if link_name in self.links:
            raise ValueError(f"duplicate link name {link_name!r}")
        link = Link(name=link_name, a=a, b=b, bandwidth_mbps=bandwidth_mbps,
                    latency_s=latency_s, duplex=duplex)
        self.links[link_name] = link
        self.graph.add_edge(a, b, link=link_name)
        # A new edge can shorten the path of any pair: full invalidation is
        # the only sound choice here.
        self._bump(("link", link_name))
        self._invalidate_all_routes()
        return link

    # -- mutation (time-varying platforms) -----------------------------------
    def set_link_bandwidth(self, name: str, bandwidth_mbps: float) -> None:
        """Change a link's capacity in place (routes are unaffected)."""
        if not 0 < bandwidth_mbps < math.inf:
            raise ValueError(f"link {name!r} bandwidth must be positive and "
                             f"finite, not {bandwidth_mbps!r}")
        self.links[name].bandwidth_mbps = bandwidth_mbps
        self._bump(("link", name))

    def set_link_latency(self, name: str, latency_s: float) -> None:
        """Change a link's latency in place (routes are unaffected)."""
        if not 0 <= latency_s < math.inf:
            raise ValueError(f"link {name!r} latency must be non-negative "
                             f"and finite, not {latency_s!r}")
        self.links[name].latency_s = latency_s
        self._bump(("link", name))

    def set_hub_bandwidth(self, name: str, bandwidth_mbps: float) -> None:
        """Change a hub segment's shared capacity in place.

        The only sound way to drift a hub: assigning
        ``node.bandwidth_mbps`` directly would leave the ``("hub", name)``
        element version untouched, so probe memos would keep serving
        measurements of the old capacity.
        """
        if not 0 < bandwidth_mbps < math.inf:
            raise ValueError(f"hub {name!r} bandwidth must be positive and "
                             f"finite, not {bandwidth_mbps!r}")
        node = self.nodes[name]
        if not node.is_hub:
            raise ValueError(f"{name!r} is not a hub")
        node.bandwidth_mbps = bandwidth_mbps
        self._bump(("hub", name))

    def remove_link(self, name: str) -> Link:
        """Remove a link (failure).  Returns it so it can be restored later.

        Route overrides traversing the removed edge are dropped: the platform
        falls back to shortest-path routing for those pairs.
        """
        link = self.links.pop(name, None)
        if link is None:
            raise KeyError(f"unknown link {name!r}")
        edge = self.graph.get_edge_data(link.a, link.b)
        if edge is not None and edge.get("link") == name:
            self.graph.remove_edge(link.a, link.b)
        for key, path in list(self.route_overrides.items()):
            for u, v in zip(path, path[1:]):
                if {u, v} == {link.a, link.b}:
                    del self.route_overrides[key]
                    self._invalidate_pair(*key)
                    break
        # Removing an edge cannot shorten any other path, so only the cached
        # routes that traversed it (plus the dropped overrides) are stale.
        self._bump(("link", name))
        self._invalidate_link_routes(name)
        return link

    def restore_link(self, link: Link) -> Link:
        """Re-attach a previously removed link (repair) with its old parameters."""
        return self.add_link(link.a, link.b, link.bandwidth_mbps,
                             latency_s=link.latency_s, duplex=link.duplex,
                             name=link.name)

    def remove_host(self, name: str) -> Node:
        """Remove a host and its incident links (host leave).

        Only plain hosts can be removed; routers/switches/hubs carry other
        nodes' connectivity.  Route overrides involving the host are dropped.
        """
        node = self.nodes.get(name)
        if node is None:
            raise KeyError(f"unknown node {name!r}")
        if node.kind is not NodeKind.HOST:
            raise ValueError(f"only hosts can be removed, {name!r} is "
                             f"{node.kind.value}")
        for link_name in [l.name for l in self.links.values()
                          if name in (l.a, l.b)]:
            self.remove_link(link_name)
        self.graph.remove_node(name)
        del self.nodes[name]
        for key, path in list(self.route_overrides.items()):
            if name in key or name in path:
                del self.route_overrides[key]
                self._invalidate_pair(*key)
        # Routes crossing the host went through its (now removed) links and
        # were already dropped; only entries with the host as endpoint remain.
        for pair in [p for p in self._route_cache if name in p]:
            self._invalidate_pair(*pair)
        self._bump()
        return node

    def set_route(self, src: str, dst: str, node_path: List[str]) -> None:
        """Force the path used from ``src`` to ``dst`` (asymmetric routing)."""
        if node_path[0] != src or node_path[-1] != dst:
            raise ValueError("route override must start at src and end at dst")
        for u, v in zip(node_path, node_path[1:]):
            if not self.graph.has_edge(u, v):
                raise ValueError(f"override uses non-existent edge {u!r}-{v!r}")
        self.route_overrides[(src, dst)] = list(node_path)
        self._version += 1
        self._invalidate_pair(src, dst)

    def clear_route(self, src: str, dst: str) -> bool:
        """Drop a route override; returns whether one existed."""
        existed = self.route_overrides.pop((src, dst), None) is not None
        if existed:
            self._version += 1
            self._invalidate_pair(src, dst)
        return existed

    # -- queries ---------------------------------------------------------------
    def hosts(self) -> List[Node]:
        """All host nodes, sorted by name."""
        return sorted((n for n in self.nodes.values() if n.is_host),
                      key=lambda n: n.name)

    def host_names(self) -> List[str]:
        return [n.name for n in self.hosts()]

    def link_between(self, a: str, b: str) -> Link:
        """The link directly connecting ``a`` and ``b``."""
        data = self.graph.get_edge_data(a, b)
        if not data:
            raise KeyError(f"no direct link between {a!r} and {b!r}")
        return self.links[data["link"]]

    def route(self, src: str, dst: str) -> Route:
        """The directed route from ``src`` to ``dst``.

        Uses an explicit override when one was registered, otherwise the
        minimum-hop path of the underlying graph.  Routes are cached.
        """
        if src == dst:
            return Route(src=src, dst=dst, nodes=[src], links=[])
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            ROUTE_CACHE_HITS.value += 1.0
            return cached
        ROUTE_CACHE_MISSES.value += 1.0
        if key in self.route_overrides:
            node_path = self.route_overrides[key]
        else:
            try:
                node_path = nx.shortest_path(self.graph, src, dst)
            except nx.NetworkXNoPath:
                raise KeyError(f"no path between {src!r} and {dst!r}") from None
        links = [self.link_between(u, v) for u, v in zip(node_path, node_path[1:])]
        route = Route(src=src, dst=dst, nodes=list(node_path), links=links)
        self._route_cache[key] = route
        for link in links:
            self._routes_by_link.setdefault(link.name, set()).add(key)
        return route

    def routes_are_symmetric(self, a: str, b: str) -> bool:
        """Whether the forward and reverse paths traverse the same links."""
        fwd = {l.name for l in self.route(a, b).links}
        rev = {l.name for l in self.route(b, a).links}
        return fwd == rev

    def shared_elements(self, pair1: Tuple[str, str], pair2: Tuple[str, str]) -> List[Tuple]:
        """Constraint keys shared by the routes of two host pairs.

        Two NWS experiments collide exactly when this is non-empty (paper
        §2.3, "Do not let experiments collide").
        """
        keys1 = self.route(*pair1).constraint_keyset(self)
        keys2 = self.route(*pair2).constraint_keyset(self)
        return sorted(keys1 & keys2)

    def capacities(self) -> Dict[Tuple, float]:
        """Capacity (Mbit/s) of every constraint key in the platform."""
        caps: Dict[Tuple, float] = {}
        for link in self.links.values():
            if link.duplex:
                caps[(link.name, "ab")] = link.bandwidth_mbps
                caps[(link.name, "ba")] = link.bandwidth_mbps
            else:
                caps[(link.name, "shared")] = link.bandwidth_mbps
        for node in self.nodes.values():
            if node.is_hub:
                caps[("hub", node.name)] = node.bandwidth_mbps
        return caps

    def validate(self) -> List[str]:
        """Sanity-check the platform; returns a list of problem descriptions."""
        problems: List[str] = []
        if not nx.is_connected(self.graph) and len(self.graph) > 1:
            components = list(nx.connected_components(self.graph))
            problems.append(f"platform graph is disconnected ({len(components)} components)")
        for node in self.nodes.values():
            if node.kind is NodeKind.HUB and not 0 < node.bandwidth_mbps < math.inf:
                problems.append(f"hub {node.name!r} has non-positive or "
                                f"non-finite bandwidth {node.bandwidth_mbps!r}")
        for link in self.links.values():
            if not 0 < link.bandwidth_mbps < math.inf:
                problems.append(f"link {link.name!r} has non-positive or "
                                f"non-finite bandwidth {link.bandwidth_mbps!r}")
            if not 0 <= link.latency_s < math.inf:
                problems.append(f"link {link.name!r} has negative or "
                                f"non-finite latency {link.latency_s!r}")
        return problems

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Platform {self.name!r}: {len(self.hosts())} hosts, "
                f"{len(self.nodes)} nodes, {len(self.links)} links>")
