"""Tests of repro.ingest: parsers, sampling, platform building, the GridML
bridge, imported-scenario registration/hashing and the import manifest."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import main
from repro.dynamics import run_replay
from repro.gridml import from_xml, read_gridml, to_xml, write_gridml
from repro.ingest import (
    SampleSpec,
    TopologyGraph,
    TopologyParseError,
    degree_tiers,
    detect_format,
    file_digest,
    gridml_from_platform,
    import_platform,
    imported_name,
    load_manifest,
    load_topology,
    parse_aslinks,
    parse_brite,
    parse_edge_list,
    parse_graphml,
    platform_from_gridml,
    platform_from_graph,
    record_import,
    register_imported,
    register_imported_dynamic,
    sample_subgraph,
)
from repro.pipeline import run_pipeline
from repro.scenarios import list_scenarios, registry_snapshot, restore_registry
from repro.sweep import run_sweep

FIXTURE_ASLINKS = os.path.join(os.path.dirname(__file__), "data",
                               "sample-aslinks.txt")
FIXTURE_GRAPHML = os.path.join(os.path.dirname(__file__), "data",
                               "campus.graphml")
FIXTURE_BRITE = os.path.join(os.path.dirname(__file__), "data",
                             "sample.brite")


def _segment_document(prop: str, value: str) -> str:
    """A GridML document of one shared segment carrying ``prop=value``."""
    return ('<GRID><NETWORK type="ENV_Shared"><LABEL name="lan"/>'
            f'<PROPERTY name="{prop}" value="{value}"/>'
            '<MACHINE name="h1"/><MACHINE name="h2"/></NETWORK></GRID>')


def _nested_document(depth: int) -> str:
    """``depth`` nested NETWORK elements, two machines in the innermost."""
    inner = '<MACHINE name="h1"/><MACHINE name="h2"/>'
    return ("<GRID>" + '<NETWORK type="Structural">' * depth + inner
            + "</NETWORK>" * depth + "</GRID>")


#: Documents every import must refuse, each with the words its error names.
MALFORMED_GRIDML = {
    "inf-bandwidth": (_segment_document("ENV_base_BW", "inf"),
                      "'lan'.*ENV_base_BW"),
    "zero-bandwidth": (_segment_document("ENV_base_BW", "0"),
                       "'lan'.*ENV_base_BW"),
    "nested-1200": (_nested_document(1200), "nested deeper"),
}


class TestParsers:
    def test_edge_list_canonicalises(self):
        graph = parse_edge_list("a b\nb a  # duplicate reversed\nb c\nc c\n")
        assert graph.nodes == ("a", "b", "c")
        assert graph.edges == (("a", "b"), ("b", "c"))

    def test_edge_list_commas_and_comments(self):
        graph = parse_edge_list("# header\nx,y\n\ny,z\n")
        assert graph.edges == (("x", "y"), ("y", "z"))

    def test_uppercase_node_names_still_detect_as_edges(self, tmp_path):
        # "A B" is a legitimate edge, not CAIDA metadata ("T 1438387200").
        path = tmp_path / "caps.txt"
        path.write_text("A B\nB C\nC A\n")
        assert detect_format(str(path)) == "edges"

    def test_edge_list_rejects_single_token_line(self):
        with pytest.raises(TopologyParseError, match="two node names"):
            parse_edge_list("lonely\n")

    def test_aslinks_direct_indirect_and_multiorigin(self):
        graph = parse_aslinks("D 1 2 mon1\nI 2 3\nD 701_7018 2 x\nM 9 9\n")
        assert graph.nodes == ("as1", "as2", "as3", "as701")
        assert ("as2", "as701") in graph.edges

    def test_aslinks_rejects_non_numeric(self):
        with pytest.raises(TopologyParseError, match="non-numeric"):
            parse_aslinks("D foo bar\n")

    def test_graphml_namespace_agnostic(self):
        text = ('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
                '<graph><node id="a"/><node id="b"/>'
                '<edge source="a" target="b"/></graph></graphml>')
        graph = parse_graphml(text)
        assert graph.edges == (("a", "b"),)

    def test_fixture_files_load(self):
        graph, digest, fmt = load_topology(FIXTURE_ASLINKS)
        assert fmt == "aslinks"
        assert len(graph.nodes) == 30 and len(graph.edges) == 38
        assert digest == file_digest(FIXTURE_ASLINKS)
        campus, _, fmt = load_topology(FIXTURE_GRAPHML)
        assert fmt == "graphml"
        assert len(campus.nodes) == 12

    def test_detect_format_skips_aslinks_metadata_prefix(self, tmp_path):
        # Real CAIDA traces open with T/M metadata lines before the first
        # D/I link line; the sniffer must scan past them.
        trace = tmp_path / "cycle.txt"
        trace.write_text("T\t1438387200\nM\t12\nN\t3\nD 1 2 mon\nI 2 3\n")
        assert detect_format(str(trace)) == "aslinks"
        graph, _, fmt = load_topology(str(trace))
        assert fmt == "aslinks"
        assert graph.nodes == ("as1", "as2", "as3")
        # A metadata-only prefix must not be mistaken for an edge list.
        headers = tmp_path / "headers.txt"
        headers.write_text("T\t1438387200\nM\t12\nN\t3\n")
        with pytest.raises(TopologyParseError, match="ambiguous"):
            detect_format(str(headers))

    def test_detect_format(self, tmp_path):
        assert detect_format(FIXTURE_ASLINKS) == "aslinks"
        assert detect_format(FIXTURE_GRAPHML) == "graphml"
        edges = tmp_path / "plain.txt"
        edges.write_text("a b\n")
        assert detect_format(str(edges)) == "edges"
        gridml = tmp_path / "doc.xml"
        gridml.write_text('<?xml version="1.0"?>\n<GRID></GRID>\n')
        assert detect_format(str(gridml)) == "gridml"
        # An XML declaration plus attributes on GRID must not look like
        # GraphML.
        attributed = tmp_path / "doc2.xml"
        attributed.write_text('<?xml version="1.0"?>\n'
                              '<GRID version="1"></GRID>\n')
        assert detect_format(str(attributed)) == "gridml"
        # ...even behind a long license-comment header.
        commented = tmp_path / "doc3.xml"
        commented.write_text('<?xml version="1.0"?>\n<!-- '
                             + ("license " * 100) + '-->\n<GRID></GRID>\n')
        assert detect_format(str(commented)) == "gridml"

    def test_gridml_refused_by_load_topology(self, tmp_path):
        path = tmp_path / "doc.gridml"
        path.write_text("<GRID></GRID>")
        with pytest.raises(ValueError, match="platform_from_gridml"):
            load_topology(str(path))

    def test_brite_nodes_and_edges_sections(self):
        text = ("Topology: ( 3 Nodes, 2 Edges )\n"
                "Model (1 - RTWaxman):  3 100 100 1 2 0.15 0.2 1 1 10.0\n"
                "\n"
                "Nodes: ( 3 )\n"
                "0\t12.0\t80.0\t2\t2\t-1\tRT_NODE\n"
                "1\t44.0\t15.0\t1\t1\t-1\tRT_NODE\n"
                "2\t90.0\t62.0\t1\t1\t-1\tRT_NODE\n"
                "\n"
                "Edges: ( 2 )\n"
                "0\t0\t1\t33.0\t0.11\t512.0\t-1\t-1\tE_RT\tU\n"
                "1\t0\t2\t81.0\t0.27\t155.0\t-1\t-1\tE_RT\tU\n")
        graph = parse_brite(text)
        assert graph.nodes == ("n0", "n1", "n2")
        assert graph.edges == (("n0", "n1"), ("n0", "n2"))

    def test_brite_rejects_malformed_sections(self):
        with pytest.raises(TopologyParseError, match="Nodes:/Edges:"):
            parse_brite("a b\nb c\n")
        with pytest.raises(TopologyParseError, match="no edges"):
            parse_brite("Nodes: ( 1 )\n0 1.0 2.0 0 0 -1 RT_NODE\n")
        with pytest.raises(TopologyParseError, match="node id"):
            parse_brite("Nodes: ( 1 )\n# 1.0\n")
        with pytest.raises(TopologyParseError, match="numeric endpoints"):
            parse_brite("Edges: ( 1 )\n0 zero one\n")

    def test_brite_fixture_loads_and_detects(self, tmp_path):
        assert detect_format(FIXTURE_BRITE) == "brite"
        graph, digest, fmt = load_topology(FIXTURE_BRITE)
        assert fmt == "brite"
        assert len(graph.nodes) == 14 and len(graph.edges) == 21
        assert digest == file_digest(FIXTURE_BRITE)
        # Content sniffing works without the extension too.
        renamed = tmp_path / "mystery.dat"
        renamed.write_text(open(FIXTURE_BRITE, encoding="utf-8").read())
        assert detect_format(str(renamed)) == "brite"

    def test_largest_component(self):
        graph = TopologyGraph.from_edges(
            "g", [("a", "b"), ("b", "c"), ("x", "y")], extra_nodes=["iso"])
        component = graph.largest_component()
        assert component.nodes == ("a", "b", "c")

    def test_largest_component_tie_prefers_smallest_member(self):
        graph = TopologyGraph.from_edges("g", [("a", "b"), ("x", "y")])
        assert graph.largest_component().nodes == ("a", "b")


class TestSampling:
    def test_sample_is_connected_and_deterministic(self):
        graph, _, _ = load_topology(FIXTURE_ASLINKS)
        spec = SampleSpec(hosts=24, seed=11)
        sub = sample_subgraph(graph, spec)
        assert sub.largest_component().nodes == sub.nodes
        again = sample_subgraph(graph, spec)
        assert sub == again

    def test_different_seed_changes_bfs_sample(self):
        graph, _, _ = load_topology(FIXTURE_ASLINKS)
        samples = {sample_subgraph(graph, SampleSpec(hosts=24, seed=s)).nodes
                   for s in range(6)}
        assert len(samples) > 1

    def test_degree_strategy_keeps_the_backbone(self):
        graph, _, _ = load_topology(FIXTURE_ASLINKS)
        sub = sample_subgraph(graph, SampleSpec(hosts=24, seed=0,
                                                strategy="degree"))
        # The three core ASes are the best-connected nodes of the fixture.
        assert {"as10", "as20", "as30"} <= set(sub.nodes)

    def test_small_graph_returned_whole(self):
        graph = TopologyGraph.from_edges("tiny", [("a", "b"), ("b", "c")])
        sub = sample_subgraph(graph, SampleSpec(hosts=64, seed=0))
        assert sub.nodes == ("a", "b", "c")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="two hosts"):
            SampleSpec(hosts=1)
        with pytest.raises(ValueError, match="strategy"):
            SampleSpec(strategy="magic")
        # Negative seeds must fail at import time with a clear message, not
        # per build inside a sweep worker with numpy's opaque error.
        with pytest.raises(ValueError, match="non-negative"):
            SampleSpec(seed=-1)
        with pytest.raises(ValueError, match="non-negative"):
            register_imported(FIXTURE_ASLINKS, sizes=(8,), seed=-1)


class TestPlatformBuild:
    def test_platform_meets_host_target_and_validates(self):
        graph, _, _ = load_topology(FIXTURE_ASLINKS)
        for hosts in (8, 16, 32):
            platform = import_platform(graph, SampleSpec(hosts=hosts, seed=3))
            assert len(platform.hosts()) == hosts
            assert platform.validate() == []
            assert platform.ground_truth

    def test_build_is_deterministic(self):
        graph, _, _ = load_topology(FIXTURE_ASLINKS)
        spec = SampleSpec(hosts=16, seed=5)
        a, b = import_platform(graph, spec), import_platform(graph, spec)
        assert sorted(a.nodes) == sorted(b.nodes)
        assert {(l.a, l.b, l.bandwidth_mbps, l.latency_s)
                for l in a.links.values()} == \
            {(l.a, l.b, l.bandwidth_mbps, l.latency_s)
             for l in b.links.values()}

    def test_tier_annotation_orders_bandwidth(self):
        graph, _, _ = load_topology(FIXTURE_ASLINKS)
        sub = sample_subgraph(graph, SampleSpec(hosts=48, seed=1))
        tiers = degree_tiers(sub)
        assert set(tiers.values()) == {"core", "transit", "stub"}
        platform = platform_from_graph(sub, SampleSpec(hosts=48, seed=1))
        routers = {n for n in sub.nodes}
        core_bw = [l.bandwidth_mbps for l in platform.links.values()
                   if l.a in routers and l.b in routers
                   and tiers[l.a] == tiers[l.b] == "core"]
        stub_bw = [l.bandwidth_mbps for l in platform.links.values()
                   if l.a in routers and l.b in routers
                   and "stub" in (tiers[l.a], tiers[l.b])]
        if core_bw and stub_bw:
            assert min(core_bw) > max(stub_bw)

    def test_graph_node_named_like_generated_host_builds(self):
        # A source node spelled like a generated host name must not crash
        # the host-attachment loop.
        graph = TopologyGraph.from_edges(
            "trap", [("z", "a"), ("z", "ah0n0"), ("z", "b"), ("z", "c"),
                     ("b", "c")])
        platform = platform_from_graph(graph, SampleSpec(hosts=4))
        assert platform.validate() == []
        assert len(platform.hosts()) == 4

    def test_sanitised_node_names_never_collide(self):
        # Sanitisation can map distinct ids onto each other and onto
        # suffixed forms ('a@' → 'a', 'a!2' → 'a-2'); all must survive.
        graph = TopologyGraph.from_edges(
            "weird", [("a", "a@"), ("a@", "a!2"), ("a!2", "a")])
        platform = platform_from_graph(graph, SampleSpec(hosts=4))
        assert platform.validate() == []

    def test_subnet_plan_boundary(self):
        # 255 hosts with one-host clusters fill exactly 254 subnets (the last
        # cluster absorbs the trailing host) — allowed; one more host is not.
        graph = TopologyGraph.from_edges("p", [("a", "b"), ("b", "c"),
                                               ("c", "d")])
        spec = SampleSpec(hosts=255, hosts_per_cluster=(1, 1))
        platform = platform_from_graph(graph, spec)
        assert len(platform.hosts()) == 255
        with pytest.raises(ValueError, match="subnet plan exhausted"):
            platform_from_graph(graph, SampleSpec(hosts=256,
                                                  hosts_per_cluster=(1, 1)))

    def test_pipeline_runs_on_imported_platform(self):
        graph, _, _ = load_topology(FIXTURE_GRAPHML)
        platform = import_platform(graph, SampleSpec(hosts=10, seed=2))
        result = run_pipeline(platform, baselines=("subnet",))
        assert result.n_hosts == 10
        assert result.env_report.completeness > 0.9


class TestGridMLBridge:
    def test_roundtrip_platform_to_document_and_back(self, tmp_path):
        """source file → Platform → write_gridml → read_gridml → same doc."""
        graph, _, _ = load_topology(FIXTURE_GRAPHML)
        platform = import_platform(graph, SampleSpec(hosts=8, seed=4))
        doc = gridml_from_platform(platform)
        path = str(tmp_path / "imported.gridml")
        write_gridml(doc, path)
        assert read_gridml(path) == doc
        assert from_xml(to_xml(doc, pretty=False)) == doc

    def test_bridged_platform_is_runnable(self):
        graph, _, _ = load_topology(FIXTURE_GRAPHML)
        platform = import_platform(graph, SampleSpec(hosts=8, seed=4))
        doc = gridml_from_platform(platform)
        bridged = platform_from_gridml(doc)
        assert bridged.validate() == []
        assert sorted(bridged.host_names()) == sorted(platform.host_names())
        result = run_pipeline(bridged, baselines=())
        assert result.n_hosts == 8

    def test_bridge_preserves_segment_kinds_and_bandwidth(self):
        graph, _, _ = load_topology(FIXTURE_ASLINKS)
        platform = import_platform(graph, SampleSpec(hosts=12, seed=9,
                                                     hub_probability=1.0))
        doc = gridml_from_platform(platform)
        assert doc.networks_of_type("ENV_Shared")
        bridged = platform_from_gridml(doc)
        for net in doc.networks_of_type("ENV_Shared"):
            segment = bridged.nodes[f"{net.label}-seg"]
            assert segment.is_hub
            assert segment.bandwidth_mbps == \
                pytest.approx(float(net.property_value("bandwidth_mbps")))

    def test_duplicate_network_labels_build_distinct_segments(self):
        # Labels are not unique identifiers in GridML: every site may declare
        # its own "lan".  Both segments must survive the bridge.
        doc = from_xml("""<GRID>
            <NETWORK type="ENV_Switched"><LABEL name="lan"/>
                <MACHINE name="h1"/><MACHINE name="h2"/></NETWORK>
            <NETWORK type="ENV_Switched"><LABEL name="lan"/>
                <MACHINE name="h3"/><MACHINE name="h4"/></NETWORK>
        </GRID>""")
        platform = platform_from_gridml(doc)
        assert platform.validate() == []
        assert sorted(platform.host_names()) == ["h1", "h2", "h3", "h4"]
        segments = [n for n in platform.nodes if n.startswith("lan-seg")]
        assert len(segments) == 2

    def test_repeated_machine_reference_in_one_network(self):
        doc = from_xml('<GRID><NETWORK type="ENV_Switched">'
                       '<LABEL name="lan"/><MACHINE name="m1"/>'
                       '<MACHINE name="m1"/><MACHINE name="m2"/>'
                       '</NETWORK></GRID>')
        platform = platform_from_gridml(doc)
        assert sorted(platform.host_names()) == ["m1", "m2"]

    def test_site_only_document_builds(self):
        doc = from_xml("""<GRID><SITE domain="lab.example.org">
            <MACHINE><LABEL ip="10.1.1.1" name="m1"/></MACHINE>
            <MACHINE><LABEL ip="10.1.1.2" name="m2"/></MACHINE>
        </SITE></GRID>""")
        platform = platform_from_gridml(doc)
        assert sorted(platform.host_names()) == ["m1", "m2"]
        assert platform.validate() == []

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="no machines"):
            platform_from_gridml(from_xml("<GRID></GRID>"))

    @pytest.mark.parametrize("case", sorted(MALFORMED_GRIDML))
    def test_malformed_document_rejected(self, case):
        text, message = MALFORMED_GRIDML[case]
        with pytest.raises(ValueError, match=message):
            platform_from_gridml(from_xml(text))

    @pytest.mark.parametrize("prop,value", [
        ("bandwidth_mbps", "nan"), ("bandwidth_mbps", "-5"),
        ("latency_s", "inf"), ("latency_s", "-1e-3"),
        ("latency_s", "fast")])
    def test_bad_segment_value_names_network_and_property(self, prop, value):
        with pytest.raises(ValueError, match=f"'lan'.*{prop}"):
            platform_from_gridml(from_xml(_segment_document(prop, value)))

    def test_zero_latency_and_moderate_nesting_build(self):
        platform = platform_from_gridml(
            from_xml(_segment_document("latency_s", "0")))
        assert sorted(platform.host_names()) == ["h1", "h2"]
        platform = platform_from_gridml(from_xml(_nested_document(40)))
        assert platform.validate() == []

    def test_platform_failing_validation_raises_value_error(self,
                                                             monkeypatch):
        from repro.netsim.topology import Platform
        monkeypatch.setattr(Platform, "validate",
                            lambda self: ["forced problem"])
        with pytest.raises(ValueError, match="forced problem"):
            platform_from_gridml(from_xml(_segment_document("latency_s",
                                                            "0")))

    def test_many_networks_within_address_plan(self):
        # Routers and segments draw from separate address spaces, so ~130
        # machine-bearing networks (each consuming one of both) must build.
        networks = "".join(
            f'<NETWORK type="ENV_Switched"><LABEL name="n{i}"/>'
            f'<MACHINE name="m{i}a"/><MACHINE name="m{i}b"/></NETWORK>'
            for i in range(130))
        platform = platform_from_gridml(from_xml(f"<GRID>{networks}</GRID>"))
        assert len(platform.hosts()) == 260
        assert platform.validate() == []


class TestImportedScenarios:
    def test_registers_one_scenario_per_size(self):
        scenarios = register_imported(FIXTURE_ASLINKS, sizes=(8, 10, 12),
                                      seed=7)
        assert [s.name for s in scenarios] == [
            imported_name(FIXTURE_ASLINKS, h) for h in (8, 10, 12)]
        assert all(s.family == "imported" for s in scenarios)
        assert all("imported" in s.tags for s in scenarios)
        listed = list_scenarios(family="imported")
        assert {s.name for s in scenarios} <= {s.name for s in listed}

    def test_hash_covers_digest_and_knobs(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("a b\nb c\nc d\nd a\n")
        first = register_imported(str(path), sizes=(8,), seed=1)[0]
        assert first.param_dict["digest"] == file_digest(str(path))
        # Same content elsewhere under another name: different scenario,
        # same digest parameter.
        other = tmp_path / "b.txt"
        other.write_text("a b\nb c\nc d\nd a\n")
        second = register_imported(str(other), sizes=(8,), seed=1)[0]
        assert second.param_dict["digest"] == first.param_dict["digest"]
        # Changed content: changed digest, changed hash.
        changed = tmp_path / "c.txt"
        changed.write_text("a b\nb c\nc d\nd a\nd e\n")
        third = register_imported(str(changed), sizes=(8,), seed=1)[0]
        assert third.param_dict["digest"] != first.param_dict["digest"]
        assert third.content_hash != first.content_hash

    def test_hash_stable_across_processes(self):
        scenario = register_imported(FIXTURE_ASLINKS, sizes=(12,), seed=7)[0]
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.ingest import register_imported\n"
            f"s = register_imported({FIXTURE_ASLINKS!r}, sizes=(12,), "
            "seed=7)[0]\n"
            "print(s.content_hash)\n")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True,
                             cwd=os.path.dirname(os.path.dirname(
                                 os.path.abspath(__file__))))
        assert out.stdout.strip() == scenario.content_hash

    def test_path_spelling_variants_reuse_first_registration(self):
        first = register_imported(FIXTURE_ASLINKS, sizes=(12,), seed=7)[0]
        # ``./``-style variants collapse via normpath to the same params —
        # a plain idempotent re-registration.
        dotted = os.path.join(os.path.dirname(FIXTURE_ASLINKS), ".",
                              os.path.basename(FIXTURE_ASLINKS))
        assert register_imported(dotted, sizes=(12,), seed=7)[0] == first
        # A relative spelling of the same bytes differs in the path param
        # only; the digest-equivalence tolerance keeps the first
        # registration (and therefore its content hash and cache entries).
        relative = os.path.relpath(FIXTURE_ASLINKS)
        assert relative != FIXTURE_ASLINKS
        again = register_imported(relative, sizes=(12,), seed=7)[0]
        assert again.param_dict["path"] == FIXTURE_ASLINKS
        assert again.content_hash == first.content_hash

    def test_same_basename_collision_raises_with_name_escape(self, tmp_path):
        # Two *different* files sharing a basename cannot silently coexist
        # under one scenario name; --name/-style stems disambiguate.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "topo.txt").write_text("a b\nb c\nc a\n")
        (tmp_path / "b" / "topo.txt").write_text("x y\ny z\nz x\nx z\n")
        register_imported(str(tmp_path / "a" / "topo.txt"), sizes=(4,))
        with pytest.raises(ValueError, match="distinct stem"):
            register_imported(str(tmp_path / "b" / "topo.txt"), sizes=(4,))
        named = register_imported(str(tmp_path / "b" / "topo.txt"),
                                  sizes=(4,), name="topo-b")
        assert named[0].name == "imported-topo-b-h4"
        # User-supplied stems are sanitised — separators must not reach the
        # scenario name (it feeds cache-file paths).
        weird = register_imported(str(tmp_path / "b" / "topo.txt"),
                                  sizes=(4,), name="a/b c")
        assert weird[0].name == "imported-a-b-c-h4"

    def test_changed_file_reimported_under_new_spelling_refreshes(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("a b\nb c\nc a\n")
        register_imported("t.txt", sizes=(4,))
        (tmp_path / "t.txt").write_text("a b\nb c\nc a\nc d\n")
        refreshed = register_imported(str(tmp_path / "t.txt"), sizes=(4,))
        assert refreshed[0].build().validate() == []

    def test_builder_refuses_changed_source(self, tmp_path):
        path = tmp_path / "churn.txt"
        path.write_text("a b\nb c\nc a\n")
        scenario = register_imported(str(path), sizes=(4,))[0]
        assert scenario.build().validate() == []
        path.write_text("a b\nb c\nc a\nc d\n")
        with pytest.raises(ValueError, match="changed since import"):
            scenario.build()

    def test_format_change_reimport_reparses_and_refreshes(self, tmp_path):
        # The parse memo must key on format too, and a format switch must
        # refresh the whole same-source family.
        path = tmp_path / "src.txt"
        path.write_text("D 1 2 x\nD 2 3 y\nD 3 1 z\n")
        as_edges = register_imported(str(path), format="edges", sizes=(4,))
        hosts_edges = sorted(as_edges[0].build().host_names())
        as_links = register_imported(str(path), format="aslinks", sizes=(4,))
        hosts_links = sorted(as_links[0].build().host_names())
        # aslinks parsing yields as<N> routers; edges parsing yields D/x/...
        assert hosts_edges != hosts_links
        assert all(h.startswith("as") for h in hosts_links)
        # The edges-format registration was replaced, not left beside it.
        family = [s for s in list_scenarios(family="imported")
                  if s.param_dict.get("path") == str(path)]
        assert [s.param_dict["format"] for s in family] == ["aslinks"]

    def test_knob_change_reimport_refreshes_whole_family(self, tmp_path):
        # Same digest, new seed, subset of sizes: the sizes NOT re-requested
        # must not linger with the old seed (a mixed-knob family).
        path = tmp_path / "t.txt"
        path.write_text("a b\nb c\nc a\n")
        register_imported(str(path), sizes=(4, 6), seed=0)
        register_imported(str(path), sizes=(4,), seed=5)
        family = {s.name: s.param_dict
                  for s in list_scenarios(family="imported")}
        assert family[imported_name(str(path), 4)]["seed"] == 5
        assert imported_name(str(path), 6) not in family
        # Identical knobs accumulate sizes instead.
        register_imported(str(path), sizes=(6,), seed=5)
        names = {s.name for s in list_scenarios(family="imported")}
        assert {imported_name(str(path), 4),
                imported_name(str(path), 6)} <= names

    def test_knob_change_reimport_drops_stale_dynamic_wrapper(self,
                                                              tmp_path):
        # Same digest, new seed: the replaced base must take its dyn-
        # wrapper (whose hash covers the old base hash) with it.
        path = tmp_path / "t.txt"
        path.write_text("a b\nb c\nc a\n")
        base = register_imported(str(path), sizes=(4,), seed=0)
        register_imported_dynamic(base, epochs=2)
        register_imported(str(path), sizes=(4,), seed=1)
        names = {s.name for s in list_scenarios()}
        assert f"dyn-{base[0].name}" not in names

    def test_reimport_of_changed_file_drops_stale_siblings(self, tmp_path):
        # Refreshing only a subset of sizes must still drop old-digest
        # siblings, or the next family sweep fails their digest check.
        path = tmp_path / "t.txt"
        path.write_text("a b\nb c\nc a\n")
        register_imported(str(path), sizes=(4, 6))
        register_imported_dynamic(
            [s for s in list_scenarios(family="imported")
             if s.param_dict.get("hosts") == 6], epochs=2)
        path.write_text("a b\nb c\nc a\nc d\n")
        refreshed = register_imported(str(path), sizes=(4,))
        names = {s.name for s in list_scenarios()}
        assert refreshed[0].name in names
        assert imported_name(str(path), 6) not in names
        assert f"dyn-{imported_name(str(path), 6)}" not in names

    def test_gridml_import_registers_single_scenario(self, tmp_path):
        graph, _, _ = load_topology(FIXTURE_GRAPHML)
        platform = import_platform(graph, SampleSpec(hosts=8, seed=4))
        path = str(tmp_path / "campus.gridml")
        write_gridml(gridml_from_platform(platform), path)
        scenarios = register_imported(path)
        assert len(scenarios) == 1
        assert scenarios[0].name == "imported-campus"
        assert len(scenarios[0].build().hosts()) == 8

    def test_gzipped_gridml_imports_and_builds(self, tmp_path):
        import gzip
        graph, _, _ = load_topology(FIXTURE_GRAPHML)
        platform = import_platform(graph, SampleSpec(hosts=8, seed=4))
        from repro.gridml import to_xml
        path = str(tmp_path / "campus.gridml.gz")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(to_xml(gridml_from_platform(platform)))
        scenario = register_imported(path)[0]
        assert len(scenario.build().hosts()) == 8

    def test_duplicate_sizes_register_once(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a b\nb c\nc a\n")
        scenarios = register_imported(str(path), sizes=(4, 4, 6))
        assert [s.param_dict["hosts"] for s in scenarios] == [4, 6]

    def test_sweep_cache_and_dynamic_replay_end_to_end(self, tmp_path):
        scenarios = register_imported(FIXTURE_ASLINKS, sizes=(8, 10, 12),
                                      seed=7)
        dynamic = register_imported_dynamic(scenarios[:1], epochs=3)
        names = [s.name for s in scenarios] + [d.name for d in dynamic]
        cold = run_sweep(names=names, cache_dir=str(tmp_path))
        assert cold.errors == []
        warm = run_sweep(names=names, cache_dir=str(tmp_path))
        assert warm.cache_hits == len(names)
        replay = run_replay(dynamic[0])
        assert len(replay.records) == 3


class TestManifest:
    def test_record_and_load_roundtrip(self, tmp_path):
        manifest = str(tmp_path / "imports.json")
        record_import({
            "path": FIXTURE_ASLINKS, "format": "aslinks",
            "sizes": [8, 10], "seed": 7, "strategy": "bfs", "tags": [],
            "dynamic": True, "epochs": 3,
            "digest": file_digest(FIXTURE_ASLINKS),
        }, manifest_path=manifest)
        registered = load_manifest(manifest)
        names = {s.name for s in registered}
        assert imported_name(FIXTURE_ASLINKS, 8) in names
        assert f"dyn-{imported_name(FIXTURE_ASLINKS, 8)}" in names

    def test_reimport_replaces_entry(self, tmp_path):
        manifest = str(tmp_path / "imports.json")
        entry = {"path": FIXTURE_ASLINKS, "format": "aslinks",
                 "sizes": [8], "seed": 7, "strategy": "bfs", "tags": [],
                 "dynamic": False, "epochs": 6,
                 "digest": file_digest(FIXTURE_ASLINKS)}
        record_import(dict(entry), manifest_path=manifest)
        entry["sizes"] = [10]
        record_import(dict(entry), manifest_path=manifest)
        with open(manifest, encoding="utf-8") as handle:
            data = json.load(handle)
        assert len(data["imports"]) == 1
        assert data["imports"][0]["sizes"] == [10]

    def test_path_spellings_collapse_to_one_entry(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("a b\nb c\n")
        manifest = str(tmp_path / "imports.json")
        entry = {"format": "edges", "sizes": [4], "seed": 0,
                 "strategy": "bfs", "tags": [], "dynamic": False,
                 "epochs": 6, "digest": file_digest("t.txt")}
        record_import(dict(entry, path="t.txt"), manifest_path=manifest)
        record_import(dict(entry, path=str(tmp_path / "t.txt")),
                      manifest_path=manifest)
        with open(manifest, encoding="utf-8") as handle:
            data = json.load(handle)
        assert len(data["imports"]) == 1

    def test_missing_source_is_skipped_with_warning(self, tmp_path):
        manifest = str(tmp_path / "imports.json")
        record_import({"path": str(tmp_path / "gone.txt"),
                       "format": "edges", "sizes": [8], "seed": 0,
                       "strategy": "bfs", "tags": [], "dynamic": False,
                       "epochs": 6, "digest": "dead"},
                      manifest_path=manifest)
        with pytest.warns(UserWarning, match="skipping import entry"):
            assert load_manifest(manifest) == []

    def test_mistyped_entry_field_is_skipped_with_warning(self, tmp_path):
        # A null seed (hand edit, merge artifact) must warn-skip, not crash.
        (tmp_path / "t.txt").write_text("a b\nb c\n")
        manifest = str(tmp_path / "imports.json")
        record_import({"path": str(tmp_path / "t.txt"), "format": "edges",
                       "sizes": [4], "seed": None, "strategy": "bfs",
                       "tags": [], "dynamic": False, "epochs": 6,
                       "digest": file_digest(str(tmp_path / "t.txt"))},
                      manifest_path=manifest)
        with pytest.warns(UserWarning, match="skipping import entry"):
            assert load_manifest(manifest) == []

    def test_non_dict_entry_rejected_and_cli_survives(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open(tmp_path / ".repro-imports.json", "w",
                  encoding="utf-8") as handle:
            json.dump({"schema": 1, "imports": ["junk"]}, handle)
        from repro.ingest import manifest_entries
        with pytest.raises(ValueError, match="not an import manifest"):
            manifest_entries(str(tmp_path / ".repro-imports.json"))
        # Any CLI command degrades to a warning, never a traceback.
        assert main(["scenarios", "--filter", "smoke"]) == 0
        assert "warning: ignoring manifest" in capsys.readouterr().err

    def test_changed_source_registers_but_fails_at_build(self, tmp_path):
        # No start-up hashing: the stale entry registers with its recorded
        # digest and the builder's digest check raises at build time.
        path = tmp_path / "t.txt"
        path.write_text("a b\nb c\n")
        manifest = str(tmp_path / "imports.json")
        record_import({"path": str(path), "format": "edges", "sizes": [4],
                       "seed": 0, "strategy": "bfs", "tags": [],
                       "dynamic": False, "epochs": 6,
                       "digest": file_digest(str(path))},
                      manifest_path=manifest)
        path.write_text("a b\nb c\nc d\n")
        registered = load_manifest(manifest)
        assert len(registered) == 1
        with pytest.raises(ValueError, match="changed since import"):
            registered[0].build()


class TestImportCLI:
    def test_import_registers_sweeps_and_persists(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        pristine = registry_snapshot()
        fixture = os.path.relpath(FIXTURE_ASLINKS, str(tmp_path))
        assert main(["import", fixture, "--sizes", "8", "10", "12",
                     "--seed", "7", "--dynamic", "--epochs", "3",
                     "--sweep", "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "registered 6 scenarios" in out
        assert "0 served from cache" in out
        assert os.path.exists(tmp_path / ".repro-imports.json")
        # A fresh CLI invocation (simulated by dropping the in-process
        # registrations) sees the manifest-recorded family.
        restore_registry(pristine)
        assert main(["scenarios", "--family", "imported"]) == 0
        out = capsys.readouterr().out
        assert "3 scenarios registered" in out
        # And the sweep cache carries across invocations.
        restore_registry(pristine)
        assert main(["sweep", "--filter", "imported", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        assert "6 served from cache" in capsys.readouterr().out

    def test_custom_manifest_reloaded_via_env(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        pristine = registry_snapshot()
        manifest = str(tmp_path / "my-imports.json")
        assert main(["import", FIXTURE_ASLINKS, "--sizes", "8",
                     "--seed", "7", "--manifest", manifest]) == 0
        assert "REPRO_IMPORTS" in capsys.readouterr().out
        # Without the env var the custom manifest is invisible...
        restore_registry(pristine)
        assert main(["scenarios", "--family", "imported"]) == 1
        capsys.readouterr()
        # ...with it, later invocations re-register automatically.
        monkeypatch.setenv("REPRO_IMPORTS", manifest)
        assert main(["scenarios", "--family", "imported"]) == 0
        assert "imported-sample-aslinks-h8" in capsys.readouterr().out
        # With the env var set, a later import defaults to the same manifest.
        (tmp_path / "extra.txt").write_text("a b\nb c\nc a\n")
        assert main(["import", "extra.txt", "--sizes", "4"]) == 0
        with open(manifest, encoding="utf-8") as handle:
            assert len(json.load(handle)["imports"]) == 2

    def test_import_no_save_leaves_no_manifest(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["import", FIXTURE_ASLINKS, "--sizes", "8",
                     "--no-save"]) == 0
        assert not os.path.exists(tmp_path / ".repro-imports.json")

    def test_import_rejects_missing_file(self, capsys, tmp_path):
        assert main(["import", str(tmp_path / "missing.txt")]) == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_GRIDML))
    def test_import_rejects_malformed_gridml(self, case, capsys, tmp_path,
                                             monkeypatch):
        # Refused at import: exit 2, nothing registered, no manifest entry
        # (before, the file was recorded and every later sweep failed).
        monkeypatch.chdir(tmp_path)
        text, message = MALFORMED_GRIDML[case]
        (tmp_path / f"{case}.xml").write_text(text)
        assert main(["import", f"{case}.xml", "--sweep",
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(message, err)
        assert not os.path.exists(tmp_path / ".repro-imports.json")
        assert not list_scenarios(family="imported")

    def test_truncated_recorded_gzip_keeps_startup_lazy(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        # Only a fresh import builds the document.  A recorded entry whose
        # file was damaged later still registers from its recorded digest,
        # so registry-reading commands start, and its build fails on the
        # digest check.  A fresh import of the damaged file exits 2.
        import gzip
        monkeypatch.chdir(tmp_path)
        pristine = registry_snapshot()
        with gzip.open("campus.gridml.gz", "wt", encoding="utf-8") as handle:
            handle.write(_segment_document("latency_s", "0"))
        assert main(["import", "campus.gridml.gz"]) == 0
        data = (tmp_path / "campus.gridml.gz").read_bytes()
        (tmp_path / "campus.gridml.gz").write_bytes(data[:len(data) // 2])
        capsys.readouterr()
        restore_registry(pristine)
        assert main(["scenarios", "--family", "imported"]) == 0
        captured = capsys.readouterr()
        assert "imported-campus" in captured.out
        assert "warning" not in captured.err
        with pytest.raises(ValueError, match="source file changed"):
            list_scenarios(family="imported")[0].build()
        restore_registry(pristine)
        assert main(["import", "campus.gridml.gz", "--no-save"]) == 2
        assert "damaged gzip stream" in capsys.readouterr().err

    def test_import_basename_collision_fails_at_import_time(self, capsys,
                                                            tmp_path,
                                                            monkeypatch):
        # A second, different file sharing a basename must fail *now* (and
        # record nothing), not succeed and be skipped on later invocations.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d1").mkdir()
        (tmp_path / "d2").mkdir()
        (tmp_path / "d1" / "x.txt").write_text("a b\nb c\nc a\n")
        (tmp_path / "d2" / "x.txt").write_text("p q\nq r\nr p\np r\n")
        assert main(["import", "d1/x.txt", "--sizes", "4"]) == 0
        capsys.readouterr()
        assert main(["import", "d2/x.txt", "--sizes", "4"]) == 2
        assert "--name" in capsys.readouterr().err
        with open(tmp_path / ".repro-imports.json", encoding="utf-8") as fh:
            assert len(json.load(fh)["imports"]) == 1
        # The --name escape hatch works and records a second entry.
        assert main(["import", "d2/x.txt", "--sizes", "4",
                     "--name", "x-two"]) == 0
        with open(tmp_path / ".repro-imports.json", encoding="utf-8") as fh:
            assert len(json.load(fh)["imports"]) == 2

    def test_reimport_under_new_spelling_keeps_recorded_path_and_hash(
            self, capsys, tmp_path, monkeypatch):
        # A respelled path would be a different scenario parameter, so a
        # re-import must keep the recorded spelling — otherwise hashes drift
        # and the existing sweep cache is orphaned.  Simulate fresh CLI
        # processes by dropping the in-process registrations between calls.
        monkeypatch.chdir(tmp_path)
        pristine = registry_snapshot()
        (tmp_path / "t.txt").write_text("a b\nb c\nc a\n")
        assert main(["import", "t.txt", "--sizes", "4"]) == 0
        h4 = next(s.content_hash for s in list_scenarios(family="imported")
                  if s.name == "imported-t-h4")
        restore_registry(pristine)
        assert main(["import", str(tmp_path / "t.txt"),
                     "--sizes", "4", "6"]) == 0
        with open(tmp_path / ".repro-imports.json", encoding="utf-8") as fh:
            entries = json.load(fh)["imports"]
        assert len(entries) == 1 and entries[0]["path"] == "t.txt"
        assert next(s.content_hash
                    for s in list_scenarios(family="imported")
                    if s.name == "imported-t-h4") == h4

    def test_reimport_with_new_knobs_replaces_cleanly(self, capsys, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("a b\nb c\nc a\n")
        assert main(["import", "t.txt", "--sizes", "4", "--seed", "1"]) == 0
        assert main(["import", "t.txt", "--sizes", "4", "--seed", "2"]) == 0
        with open(tmp_path / ".repro-imports.json", encoding="utf-8") as fh:
            entries = json.load(fh)["imports"]
        assert len(entries) == 1 and entries[0]["seed"] == 2
        # A corrected --format replaces the record too (keyed by path, not
        # by (path, format)).
        assert main(["import", "t.txt", "--sizes", "4", "--seed", "2",
                     "--format", "edges"]) == 0
        with open(tmp_path / ".repro-imports.json", encoding="utf-8") as fh:
            entries = json.load(fh)["imports"]
        assert len(entries) == 1 and entries[0]["format"] == "edges"

    def test_scenarios_family_filter_excludes_builtins(self, capsys):
        register_imported(FIXTURE_ASLINKS, sizes=(8,), seed=7)
        assert main(["scenarios", "--family", "imported"]) == 0
        out = capsys.readouterr().out
        assert "imported-sample-aslinks-h8" in out
        assert "ens-lyon" not in out


class TestBriteImport:
    def test_brite_registers_builds_and_pipelines(self):
        scenarios = register_imported(FIXTURE_BRITE, sizes=(8,), seed=3)
        assert [s.name for s in scenarios] == ["imported-sample-h8"]
        assert scenarios[0].param_dict["format"] == "brite"
        platform = scenarios[0].build()
        assert len(platform.host_names()) == 8
        result = run_pipeline(platform, baselines=())
        assert result.env_report.completeness > 0.0

    def test_brite_cli_import_detects_format(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["import", FIXTURE_BRITE, "--sizes", "8",
                     "--no-save"]) == 0
        out = capsys.readouterr().out
        assert "imported-sample-h8" in out
        assert "brite topology sample.brite" in out


class TestConcurrentManifestWriters:
    def test_parallel_record_import_never_corrupts_manifest(self, tmp_path,
                                                            monkeypatch):
        # Two processes recording imports into the same REPRO_IMPORTS-
        # relocated manifest concurrently: the atomic replace means the
        # file always parses; a racing writer can lose the other's entry
        # (last writer wins) but never produce garbage.
        manifest = str(tmp_path / "shared-imports.json")
        monkeypatch.setenv("REPRO_IMPORTS", manifest)
        sources = []
        for name in ("one", "two"):
            path = tmp_path / f"{name}.txt"
            path.write_text("a b\nb c\nc a\n")
            sources.append(str(path))
        script = (
            "import sys, json\n"
            "sys.path.insert(0, {src!r})\n"
            "from repro.ingest import record_import, file_digest\n"
            "path = sys.argv[1]\n"
            "for _ in range(25):\n"
            "    record_import({{'path': path, 'format': 'edges',\n"
            "                    'sizes': [4], 'seed': 0, 'strategy': 'bfs',\n"
            "                    'tags': [], 'dynamic': False, 'epochs': 6,\n"
            "                    'digest': file_digest(path)}},\n"
            "                  manifest_path={manifest!r})\n"
        ).format(src=os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"), manifest=manifest)
        procs = [subprocess.Popen([sys.executable, "-c", script, source],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
                 for source in sources]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        with open(manifest, encoding="utf-8") as handle:
            data = json.load(handle)                 # must always parse
        paths = [entry["path"] for entry in data["imports"]]
        assert 1 <= len(paths) <= 2
        assert set(paths) <= set(sources)
        # Whatever survived loads cleanly.
        registered = load_manifest(manifest)
        assert len(registered) == len(paths)
