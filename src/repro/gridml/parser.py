"""GridML XML parsing (inverse of :mod:`repro.gridml.writer`)."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from .model import GridDocument, GridProperty, MachineEntry, NetworkEntry, SiteEntry

__all__ = ["from_element", "from_xml", "read_gridml", "GridMLParseError"]


class GridMLParseError(ValueError):
    """Raised when a document does not look like GridML."""


#: Deepest ``NETWORK`` nesting a document may use.  The parse and every later
#: walk of the network tree recurse once per level, so the bound keeps them
#: far below the interpreter's recursion limit.
MAX_NETWORK_DEPTH = 64


def _parse_property(elem: ET.Element) -> GridProperty:
    name = elem.get("name")
    value = elem.get("value")
    if name is None or value is None:
        raise GridMLParseError("PROPERTY element requires name and value attributes")
    return GridProperty(name=name, value=value, units=elem.get("units"))


def _machine_name(elem: ET.Element) -> str:
    """Canonical name of a ``MACHINE`` element (LABEL name, else attribute).

    The LABEL is authoritative when present (full machine declarations);
    bare references carry only a name attribute.  Raises
    :class:`GridMLParseError` when neither yields a non-empty name, so
    unnamed machine references fail loudly instead of being dropped.
    """
    label = elem.find("LABEL")
    name = label.get("name") if label is not None else None
    if name is None:
        name = elem.get("name")
    if not name:
        raise GridMLParseError("MACHINE element without a usable name "
                               "(no LABEL name and no name attribute)")
    return name


def _parse_machine(elem: ET.Element) -> MachineEntry:
    label = elem.find("LABEL")
    if label is None:
        # Machine reference inside a NETWORK: only a name attribute.
        return MachineEntry(name=_machine_name(elem))
    machine = MachineEntry(name=_machine_name(elem), ip=label.get("ip"))
    for alias in label.findall("ALIAS"):
        alias_name = alias.get("name")
        if alias_name:
            machine.aliases.append(alias_name)
    for prop in elem.findall("PROPERTY"):
        machine.properties.append(_parse_property(prop))
    return machine


def _parse_network(elem: ET.Element, depth: int = 1) -> NetworkEntry:
    if depth > MAX_NETWORK_DEPTH:
        raise GridMLParseError(f"NETWORK elements nested deeper than "
                               f"{MAX_NETWORK_DEPTH} levels")
    label_elem = elem.find("LABEL")
    label = label_elem.get("name") if label_elem is not None else ""
    label_ip = label_elem.get("ip") if label_elem is not None else None
    network = NetworkEntry(label=label or "", label_ip=label_ip,
                           network_type=elem.get("type", "Structural"))
    for child in elem:
        if child.tag == "PROPERTY":
            network.properties.append(_parse_property(child))
        elif child.tag == "MACHINE":
            network.machines.append(_machine_name(child))
        elif child.tag == "NETWORK":
            network.subnetworks.append(_parse_network(child, depth + 1))
    return network


def from_element(root: ET.Element) -> GridDocument:
    """Build a :class:`GridDocument` from an element tree rooted at ``GRID``."""
    if root.tag != "GRID":
        raise GridMLParseError(f"expected GRID root element, found {root.tag!r}")
    doc = GridDocument(label="")
    label_elem = root.find("LABEL")
    if label_elem is not None:
        doc.label = label_elem.get("name", "")
    for site_elem in root.findall("SITE"):
        site = SiteEntry(domain=site_elem.get("domain", ""))
        site_label = site_elem.find("LABEL")
        if site_label is not None:
            site.label = site_label.get("name", "")
        for machine_elem in site_elem.findall("MACHINE"):
            site.machines.append(_parse_machine(machine_elem))
        doc.sites.append(site)
    for network_elem in root.findall("NETWORK"):
        doc.networks.append(_parse_network(network_elem))
    return doc


def from_xml(text: str) -> GridDocument:
    """Parse a GridML string."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise GridMLParseError(f"not well-formed XML: {exc}") from exc
    return from_element(root)


def read_gridml(path: str) -> GridDocument:
    """Read and parse a GridML file."""
    with open(path, "r", encoding="utf-8") as handle:
        return from_xml(handle.read())
