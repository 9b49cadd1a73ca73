"""The ``imported`` scenario family: external topologies as first-class
registered scenarios.

:func:`register_imported` turns one source file into a family of registered
scenarios — one per requested host count for graph formats, one for a GridML
file — that list, sweep, cache and replay exactly like the built-in catalog.
The parameters of an imported scenario (and therefore its content hash, and
therefore its sweep-cache key) cover the **source file's SHA-256 digest**
plus every sampling knob, so:

* the same file imported twice (even in different processes) hashes
  identically and is served from the sweep cache;
* editing the source file changes the digest, invalidating exactly the
  scenarios derived from it;
* builders re-verify the digest at build time, so a stale registration never
  silently runs against a changed file.

:func:`register_imported_dynamic` layers the standard churn machinery on top
(:class:`~repro.dynamics.scenarios.DynamicScenario` wrappers with a mild
drift schedule), so imported platforms participate in the maintenance-loop
evaluation too.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..dynamics.scenarios import DynamicScenario, register_dynamic_scenario
from ..gridml import from_xml
from ..netsim.topology import Platform
from ..scenarios.registry import (
    Scenario,
    get_scenario,
    list_scenarios,
    register,
    unregister,
)
from .bridge import platform_from_gridml
from .build import import_platform
from .formats import (
    detect_format,
    file_digest,
    load_topology,
    read_text,
    sanitise_name,
    source_stem,
)
from .sample import SampleSpec

__all__ = ["IMPORTED_FAMILY", "DEFAULT_SIZES", "register_imported",
           "register_imported_dynamic", "imported_name", "same_source"]

IMPORTED_FAMILY = "imported"

#: Host counts registered per graph import unless the caller chooses.
DEFAULT_SIZES: Tuple[int, ...] = (32, 64, 128)


def _check_digest(path: str, digest: str) -> None:
    actual = file_digest(path)
    if actual != digest:
        raise ValueError(
            f"{path}: source file changed since import "
            f"(digest {actual[:12]} != registered {digest[:12]}); re-import "
            "to refresh the scenario family")


# Builders live at module level so imported scenarios stay picklable by
# reference (the sweep pool ships Scenario objects to workers).

#: One-entry parse memo: building a whole size family re-reads the same
#: source otherwise (once per registered host count).
_GRAPH_MEMO: Dict[Tuple[str, str], object] = {}


def _load_graph(path: str, fmt: str, digest: str):
    # fmt is part of the key: the same bytes parse to different graphs under
    # different formats.
    key = (os.path.abspath(path), digest, fmt)
    graph = _GRAPH_MEMO.get(key)
    if graph is None:
        # The caller just verified ``digest``; don't hash the file again.
        graph, _, _ = load_topology(path, fmt, digest=digest)
        _GRAPH_MEMO.clear()
        _GRAPH_MEMO[key] = graph
    return graph


def _build_imported(path: str, format: str, digest: str, hosts: int,
                    seed: int, strategy: str) -> Platform:
    _check_digest(path, digest)
    spec = SampleSpec(hosts=hosts, seed=seed, strategy=strategy)
    return import_platform(_load_graph(path, format, digest), spec)


def _build_imported_gridml(path: str, digest: str) -> Platform:
    _check_digest(path, digest)
    # read_text (not read_gridml) so gzipped documents work like the graph
    # formats.
    return platform_from_gridml(from_xml(read_text(path)))


def imported_name(path: str, hosts: Optional[int] = None,
                  stem: Optional[str] = None) -> str:
    """The registry name of one imported scenario (``imported-<stem>[-hN]``).

    The stem derives from the file's basename unless overridden — two
    *different* files sharing a basename need distinct stems (``--name``).
    """
    if stem is None:
        stem = source_stem(path)
    # Full sanitisation: scenario names feed cache-file paths, so separators
    # and other specials must not survive a user-supplied stem.
    stem = sanitise_name(stem, fallback="topology")
    return f"imported-{stem}" if hosts is None else f"imported-{stem}-h{hosts}"


def _register(scenario: Scenario) -> Scenario:
    """Register one imported scenario, resolving benign name conflicts.

    The registry refuses a second, different definition under an existing
    name.  Two conflicts are benign for imports:

    * the *same source path* re-imported with new knobs (or new content) —
      a deliberate refresh, so the stale registration is replaced;
    * a mismatch that is *only* the path string of a byte-identical file
      (``traces/x.txt`` vs an absolute spelling) — the first registration
      is kept; its digest and every sampling knob match, so it builds the
      same platform and its cached sweep results stay reachable.

    A genuinely different definition (typically two different source files
    sharing a basename) points the user at the stem override.
    """
    try:
        return register(scenario)
    except ValueError as exc:
        existing = get_scenario(scenario.name)
        if (existing.family == IMPORTED_FAMILY
                and existing.builder is scenario.builder):
            if ({k: v for k, v in existing.params if k != "path"}
                    == {k: v for k, v in scenario.params if k != "path"}
                    and existing.tags == scenario.tags
                    and existing.description == scenario.description):
                return existing
            if same_source(existing.param_dict.get("path"),
                           scenario.param_dict.get("path")):
                unregister(scenario.name)
                _drop_stale_wrapper(scenario.name)
                return register(scenario)
        raise ValueError(
            f"{exc}; another import already uses this name — pass a "
            "distinct stem (CLI: --name) or re-import the original "
            "source") from None


def same_source(a: object, b: object) -> bool:
    """Whether two path spellings name the same file (canonical compare)."""
    return os.path.abspath(str(a)) == os.path.abspath(str(b))


def _drop_stale_wrapper(base_name: str) -> None:
    """Unregister the ``dyn-`` wrapper of a replaced base registration.

    The wrapper's identity covers the old base hash, so it must follow a
    replaced base out — or a sweep would silently replay the old platform
    and keep serving its old cache entry.
    """
    try:
        wrapper = get_scenario(f"dyn-{base_name}")
    except KeyError:
        return
    if isinstance(wrapper, DynamicScenario) and wrapper.base == base_name:
        unregister(wrapper.name)


def _drop_stale_registrations(path: str, digest: str,
                              seed: Optional[int] = None,
                              strategy: Optional[str] = None,
                              fmt: Optional[str] = None) -> None:
    """Unregister every scenario of ``path`` that the re-import obsoletes.

    A re-import must refresh the *whole* same-source family, not just the
    sizes it re-requests: a sibling left behind with the old digest fails
    its build-time check on the next sweep, and one left with old knobs
    (seed/strategy/format) silently sweeps a mixed-knob family.  Sizes
    previously imported with *identical* knobs stay registered, so imports
    accumulate sizes.  Dynamic wrappers follow their bases out.
    """
    new_is_gridml = fmt is None
    for scenario in list_scenarios(family=IMPORTED_FAMILY):
        params = scenario.param_dict
        if not same_source(params.get("path"), path):
            continue
        # GridML registrations carry no sampling params; a category switch
        # (graph <-> gridml) obsoletes the other category's family outright.
        existing_is_gridml = "format" not in params
        stale = (params.get("digest") != digest
                 or existing_is_gridml != new_is_gridml
                 or (not new_is_gridml
                     and (params.get("seed") != seed
                          or params.get("strategy") != strategy
                          or params.get("format") != fmt)))
        if not stale:
            continue
        unregister(scenario.name)
        _drop_stale_wrapper(scenario.name)


def register_imported(path: str, format: Optional[str] = None,
                      sizes: Sequence[int] = DEFAULT_SIZES,
                      seed: int = 0, strategy: str = "bfs",
                      tags: Sequence[str] = (),
                      name: Optional[str] = None,
                      digest: Optional[str] = None) -> List[Scenario]:
    """Register the scenario family derived from one topology file.

    Graph formats yield one scenario per entry of ``sizes`` (target host
    counts); GridML files carry their own structure and yield exactly one.
    ``name`` overrides the basename-derived scenario stem (needed when two
    different files share a basename); ``digest`` lets a caller that already
    hashed the file (the manifest loader) skip a redundant read.  A fresh
    GridML import (no ``digest``) builds its platform once before anything
    is registered, so a document that cannot build or validate raises
    ``ValueError`` here rather than in every later sweep; a recorded one is
    trusted until build time, like every other recorded import.
    Registration is idempotent for an unchanged file; re-importing the same
    source with changed content or knobs *replaces* its registration (new
    digest → new hashes → new cache keys), while a *different* file under
    the same stem raises.
    """
    path = os.path.normpath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"topology file not found: {path}")
    resolved = format or detect_format(path)
    if resolved == "gridml" and digest is None:
        platform_from_gridml(from_xml(read_text(path)))
    digest = digest or file_digest(path)
    if resolved == "gridml":
        _drop_stale_registrations(path, digest)
    else:
        _drop_stale_registrations(path, digest, seed=int(seed),
                                  strategy=strategy, fmt=resolved)
    tags = tuple(tags)
    if IMPORTED_FAMILY not in tags:
        tags = (IMPORTED_FAMILY,) + tags

    scenarios: List[Scenario] = []
    if resolved == "gridml":
        scenarios.append(_register(Scenario(
            name=imported_name(path, stem=name),
            family=IMPORTED_FAMILY,
            description=f"GridML platform imported from {path}",
            tags=tags,
            params=tuple(sorted({"path": path, "digest": digest}.items())),
            builder=_build_imported_gridml)))
        return scenarios

    sizes = tuple(dict.fromkeys(int(hosts) for hosts in sizes))
    if not sizes:
        raise ValueError("graph imports need at least one target host count")
    # Validate the sampling knobs once, eagerly — not per build in a worker.
    for hosts in sizes:
        SampleSpec(hosts=hosts, seed=seed, strategy=strategy)
    for hosts in sizes:
        params = {"path": path, "format": resolved, "digest": digest,
                  "hosts": int(hosts), "seed": int(seed),
                  "strategy": strategy}
        scenarios.append(_register(Scenario(
            name=imported_name(path, hosts, stem=name),
            family=IMPORTED_FAMILY,
            description=(f"{resolved} topology {os.path.basename(path)}, "
                         f"sampled to {hosts} hosts (seed {seed})"),
            tags=tags,
            params=tuple(sorted(params.items())),
            builder=_build_imported)))
    return scenarios


def register_imported_dynamic(scenarios: Sequence[Scenario],
                              epochs: int = 6,
                              drift_rate: float = 1.0,
                              ) -> List[DynamicScenario]:
    """Churn wrappers (``dyn-imported-...``) for imported scenarios.

    A mild drift-only schedule: real measured topologies are most interesting
    under changing conditions, and drift keeps replays cheap enough for the
    smoke path.  The wrapper's hash covers the base scenario's hash — which
    covers the source digest — so churn replays invalidate with the file.
    """
    dynamic: List[DynamicScenario] = []
    for scenario in scenarios:
        # A re-import replaced the base registration; the stale wrapper
        # (whose hash covers the old base hash) must follow it out.
        _drop_stale_wrapper(scenario.name)
        dynamic.append(register_dynamic_scenario(
            f"dyn-{scenario.name}", base=scenario.name,
            tags=(IMPORTED_FAMILY,),
            description=f"{scenario.name} under link-condition drift",
            epochs=epochs, seed=scenario.param_dict.get("seed", 0),
            drift_rate=drift_rate, drift_factor_range=(0.4, 2.0)))
    return dynamic
