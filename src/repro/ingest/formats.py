"""Parsers turning external topology descriptions into a neutral graph.

The ENV evaluation so far ran exclusively on hand-built or synthetic
platforms; real measured topologies (CAIDA-style AS graphs, GraphML router
maps) are a far richer source of structure.  This module reads the common
interchange formats into a :class:`TopologyGraph` — a plain undirected graph
of named nodes — which :mod:`repro.ingest.build` then scales down and
annotates into a runnable :class:`~repro.netsim.topology.Platform`.

Supported formats (``FORMATS``):

``aslinks``
    CAIDA AS-links traces: ``D <from_AS> <to_AS> ...`` (direct) and
    ``I <from_AS> <to_AS> ...`` (indirect) lines; multi-origin AS tokens
    (``"701_1239"``) contribute their first AS.
``edges``
    Plain edge lists: one ``a b`` pair per line, ``#`` comments,
    whitespace- or comma-separated.
``graphml``
    GraphML XML (namespace-agnostic ``<node id>`` / ``<edge source target>``).
``brite``
    BRITE topology generator output (``Nodes:``/``Edges:`` sections); both
    router- and AS-level single-plane topologies.
``gridml``
    GridML documents; these carry full platform structure and bypass the
    graph stage (see :func:`repro.ingest.bridge.platform_from_gridml`).

Files ending in ``.gz`` are decompressed transparently — CAIDA publishes its
traces gzipped.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import re
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

__all__ = ["TopologyGraph", "TopologyParseError", "FORMATS",
           "parse_edge_list", "parse_aslinks", "parse_graphml",
           "parse_brite", "detect_format", "file_digest", "read_text",
           "load_topology", "source_stem", "sanitise_name"]

#: Formats ``repro import`` understands.
FORMATS: Tuple[str, ...] = ("aslinks", "brite", "edges", "graphml", "gridml")


class TopologyParseError(ValueError):
    """Raised when a topology file cannot be parsed in the claimed format."""


@dataclass(frozen=True)
class TopologyGraph:
    """An undirected graph of named nodes (the neutral ingest representation).

    Nodes and edges are canonicalised: edges are stored with their endpoints
    sorted, deduplicated, self-loop free; node order is sorted.  Two parses
    of the same file therefore always compare equal.
    """

    name: str
    nodes: Tuple[str, ...] = ()
    edges: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def from_edges(cls, name: str, edges: Iterable[Tuple[str, str]],
                   extra_nodes: Iterable[str] = ()) -> "TopologyGraph":
        node_set = set(extra_nodes)
        edge_set = set()
        for a, b in edges:
            if a == b:
                continue
            node_set.update((a, b))
            edge_set.add((a, b) if a < b else (b, a))
        return cls(name=name, nodes=tuple(sorted(node_set)),
                   edges=tuple(sorted(edge_set)))

    def adjacency(self) -> Dict[str, FrozenSet[str]]:
        """Node → neighbour set."""
        adj: Dict[str, set] = {node: set() for node in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {node: frozenset(peers) for node, peers in adj.items()}

    def degrees(self) -> Dict[str, int]:
        """Node → degree, in one edge pass (no adjacency sets allocated)."""
        degree = {node: 0 for node in self.nodes}
        for a, b in self.edges:
            degree[a] += 1
            degree[b] += 1
        return degree

    def largest_component(self) -> "TopologyGraph":
        """The induced subgraph of the largest connected component.

        Ties break on the smallest member name, so the choice is
        deterministic; isolated nodes never survive (a one-node component is
        only returned when the graph holds nothing else).
        """
        adj = self.adjacency()
        unvisited = set(self.nodes)
        best: List[str] = []
        while unvisited:
            seed = min(unvisited)
            component = {seed}
            queue = [seed]
            while queue:
                for peer in adj[queue.pop()]:
                    if peer not in component:
                        component.add(peer)
                        queue.append(peer)
            unvisited -= component
            # Seeds are taken in increasing name order, so among equal-size
            # components the first found already has the smallest member —
            # strictly-larger keeps the documented tie-break.
            if len(component) > len(best):
                best = sorted(component)
        members = set(best)
        return TopologyGraph.from_edges(
            self.name,
            (e for e in self.edges if e[0] in members and e[1] in members),
            extra_nodes=best)


def parse_edge_list(text: str, name: str = "edges") -> TopologyGraph:
    """Parse a plain edge list (``a b`` per line, ``#`` comments)."""
    edges: List[Tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
        if len(tokens) < 2:
            raise TopologyParseError(
                f"{name}:{lineno}: edge line needs two node names: {raw!r}")
        edges.append((tokens[0], tokens[1]))
    if not edges:
        raise TopologyParseError(f"{name}: no edges found")
    return TopologyGraph.from_edges(name, edges)


def _first_as(token: str) -> str:
    """The first AS of a (possibly multi-origin) CAIDA AS token."""
    return token.split("_", 1)[0].split(",", 1)[0]


def parse_aslinks(text: str, name: str = "aslinks") -> TopologyGraph:
    """Parse a CAIDA AS-links trace (``D``/``I`` link lines).

    Nodes are named ``as<number>`` so they read naturally as router names in
    the derived platforms.
    """
    edges: List[Tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] not in "DI":
            continue
        tokens = line.split()
        if len(tokens) < 3:
            raise TopologyParseError(
                f"{name}:{lineno}: truncated AS-links line: {raw!r}")
        src, dst = _first_as(tokens[1]), _first_as(tokens[2])
        if not src.isdigit() or not dst.isdigit():
            raise TopologyParseError(
                f"{name}:{lineno}: non-numeric AS numbers: {raw!r}")
        edges.append((f"as{src}", f"as{dst}"))
    if not edges:
        raise TopologyParseError(f"{name}: no D/I link lines found")
    return TopologyGraph.from_edges(name, edges)


def parse_graphml(text: str, name: str = "graphml") -> TopologyGraph:
    """Parse a GraphML document (namespace-agnostic)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise TopologyParseError(f"{name}: not well-formed XML: {exc}") from exc

    def local(tag: object) -> str:
        return tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""

    nodes: List[str] = []
    edges: List[Tuple[str, str]] = []
    for elem in root.iter():
        kind = local(elem.tag)
        if kind == "node":
            node_id = elem.get("id")
            if node_id:
                nodes.append(node_id)
        elif kind == "edge":
            src, dst = elem.get("source"), elem.get("target")
            if not src or not dst:
                raise TopologyParseError(
                    f"{name}: edge element without source/target")
            edges.append((src, dst))
    if not nodes and not edges:
        raise TopologyParseError(f"{name}: no GraphML nodes found")
    return TopologyGraph.from_edges(name, edges, extra_nodes=nodes)


#: Section headers a BRITE file is made of (``Topology:`` opens the file,
#: ``Nodes:``/``Edges:`` open the data sections; ``Model`` lines are
#: metadata).
_BRITE_SECTION = re.compile(r"^(Nodes|Edges)\s*:", re.IGNORECASE)


def parse_brite(text: str, name: str = "brite") -> TopologyGraph:
    """Parse BRITE topology-generator output.

    BRITE files carry a ``Nodes: ( N )`` section (``NodeId x y inDegree
    outDegree ASid type``) and an ``Edges: ( M )`` section (``EdgeId from
    to length delay bandwidth ASfrom ASto type [direction]``).  Only the
    structure is kept — nodes are named ``n<id>`` and edges connect them —
    because the sampling/annotation stage re-derives link properties from
    degree tiers, exactly as for the other graph formats.
    """
    section = None
    nodes: List[str] = []
    edges: List[Tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        header = _BRITE_SECTION.match(line)
        if header:
            section = header.group(1).lower()
            continue
        if section is None or line[0].isalpha():
            # Preamble ("Topology:", "Model ..."), or a stray header.
            continue
        tokens = line.split()
        if section == "nodes":
            if not tokens[0].lstrip("-").isdigit():
                raise TopologyParseError(
                    f"{name}:{lineno}: BRITE node line must start with a "
                    f"node id: {raw!r}")
            nodes.append(f"n{tokens[0]}")
        elif section == "edges":
            if len(tokens) < 3 or not tokens[1].lstrip("-").isdigit() \
                    or not tokens[2].lstrip("-").isdigit():
                raise TopologyParseError(
                    f"{name}:{lineno}: BRITE edge line needs numeric "
                    f"endpoints: {raw!r}")
            edges.append((f"n{tokens[1]}", f"n{tokens[2]}"))
    if not nodes and not edges:
        raise TopologyParseError(f"{name}: no BRITE Nodes:/Edges: sections "
                                 "found")
    if not edges:
        raise TopologyParseError(f"{name}: BRITE file has no edges")
    return TopologyGraph.from_edges(name, edges, extra_nodes=nodes)


_PARSERS = {
    "edges": parse_edge_list,
    "aslinks": parse_aslinks,
    "graphml": parse_graphml,
    "brite": parse_brite,
}


#: Archive/format suffixes stripped off a source file's basename when
#: deriving graph and scenario names (``a/b.txt.gz`` → ``b``).
_STEM_SUFFIXES = (".gz", ".txt", ".csv", ".edges", ".graphml", ".gridml",
                  ".grid", ".xml", ".brite")


def source_stem(path: str) -> str:
    """The source file's basename with archive/format suffixes stripped."""
    stem = os.path.basename(path)
    for suffix in _STEM_SUFFIXES:
        if stem.endswith(suffix):
            stem = stem[:-len(suffix)]
    return stem


def sanitise_name(name: str, fallback: str = "node") -> str:
    """``name`` reduced to a safe lowercase [a-z0-9-] identifier.

    Imported identifiers feed platform element names and cache-file paths,
    so separators and other specials must not survive.
    """
    cleaned = re.sub(r"[^A-Za-z0-9-]+", "-", name).strip("-").lower()
    return cleaned or fallback


def _read(path: str, limit: int = -1, errors: str = "strict") -> str:
    """Up to ``limit`` characters of the file (all when negative),
    transparently decompressing ``.gz`` files; a truncated or corrupt
    compressed stream raises ``ValueError``."""
    if path.endswith(".gz"):
        try:
            with gzip.open(path, "rt", encoding="utf-8",
                           errors=errors) as handle:
                return handle.read(limit)
        except (EOFError, zlib.error) as exc:
            raise ValueError(f"{path}: damaged gzip stream ({exc})") from exc
    with open(path, "r", encoding="utf-8", errors=errors) as handle:
        return handle.read(limit)


def read_text(path: str) -> str:
    """File content as text, transparently decompressing ``.gz`` files."""
    return _read(path)


def _read_prefix(path: str, limit: int = 1 << 18) -> str:
    """The first ``limit`` characters (sniffing must not slurp a huge trace)."""
    return _read(path, limit, errors="replace")


def file_digest(path: str) -> str:
    """SHA-256 over the raw file bytes (the import's source identity)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def detect_format(path: str, text: str = None) -> str:
    """Guess the topology format from extension, then content."""
    stem = path[:-3] if path.endswith(".gz") else path
    ext = os.path.splitext(stem)[1].lower()
    if ext == ".graphml":
        return "graphml"
    if ext in (".gridml", ".grid"):
        return "gridml"
    if ext == ".brite":
        return "brite"
    if text is None:
        text = _read_prefix(path)
    stripped = text.lstrip()
    # BRITE output opens with "Topology: ( N Nodes, M Edges )" and carries
    # Nodes:/Edges: section headers — unmistakable, check before the
    # line-shape heuristics below.
    if stripped.startswith("Topology:") or _BRITE_SECTION.match(stripped):
        return "brite"
    if stripped.startswith("<"):
        # The GRID root may follow an XML declaration, long comment/license
        # headers and carry attributes — search the whole sniffed prefix.
        if re.search(r"<GRID[\s>/]", stripped):
            return "gridml"
        return "graphml"
    # Real CAIDA traces open with metadata lines (T/M/...) before the first
    # D/I link line — scan a prefix instead of judging the first data line,
    # and never mistake a metadata-only prefix for an edge list: a line
    # whose first token is a single uppercase letter is a CAIDA-style
    # record, not edge evidence.
    scanned = edge_like = 0
    for raw in stripped.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if line[0] in "DI" and len(tokens) >= 3 \
                and _first_as(tokens[1]).isdigit():
            return "aslinks"
        # A CAIDA-style record line ("T 1438387200", "M 12"): one uppercase
        # letter followed by a number.  "A B" is a legitimate edge.
        is_record = (len(tokens[0]) == 1 and tokens[0].isupper()
                     and len(tokens) >= 2
                     and tokens[1].lstrip("-").isdigit())
        if not is_record:
            edge_like += 1
        scanned += 1
        if scanned >= 200:
            break
    if edge_like:
        return "edges"
    if scanned:
        raise TopologyParseError(
            f"{path}: ambiguous topology format (only record-type lines "
            "in the scanned prefix); pass the format explicitly")
    raise TopologyParseError(f"{path}: cannot detect topology format "
                             "(empty file?)")


def load_topology(path: str, fmt: str = None,
                  digest: str = None) -> Tuple[TopologyGraph, str, str]:
    """Read ``path`` and return ``(graph, sha256 digest, resolved format)``.

    ``digest`` lets a caller that already hashed the file (scenario builders
    re-verifying their registration) skip the second read.  ``gridml`` files
    do not reduce to a plain graph (they carry full platform structure);
    callers route them through
    :func:`repro.ingest.bridge.platform_from_gridml` instead.
    """
    text = read_text(path)
    resolved = fmt or detect_format(path, text)
    if resolved == "gridml":
        raise ValueError("gridml files carry platform structure; "
                         "use platform_from_gridml instead of load_topology")
    if resolved not in _PARSERS:
        raise ValueError(f"unknown topology format {resolved!r}; "
                         f"supported: {', '.join(FORMATS)}")
    graph = _PARSERS[resolved](text, name=source_stem(path) or "topology")
    return graph, digest or file_digest(path), resolved
