"""Tests of ``repro.check``: the engine, each rule, noqa, reporters, CLI."""

import ast
import json
import os

import pytest

from repro.check import render_json, render_text, run_check
from repro.check.engine import CheckedFile, _extract_noqa
from repro.check.rules import VersionBumpRule
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "data", "check")
SRC_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                         os.pardir, "src", "repro"))


def _findings(result, rule=None, path=None):
    found = result.findings
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    if path is not None:
        found = [f for f in found if f.path == path]
    return found


@pytest.fixture(scope="module")
def fixture_result():
    return run_check(FIXTURES)


class TestRulesFire:
    def test_rc001_wallclock_entropy_rng(self, fixture_result):
        messages = [f.message for f in
                    _findings(fixture_result, "RC001", "rc001.py")]
        assert len(messages) == 4
        assert any("time.time()" in m for m in messages)
        assert any("os.urandom" in m for m in messages)
        assert any("random.random" in m for m in messages)
        assert any("without a seed" in m for m in messages)
        # the seeded constructor is NOT flagged
        assert all("random.Random()" not in m or "without a seed" in m
                   for m in messages)

    def test_rc001_set_iteration_only_in_hash_critical(self, fixture_result):
        sets = _findings(fixture_result, "RC001", "sweep/rc001_sets.py")
        assert len(sets) == 2
        assert all("hash order" in f.message for f in sets)
        # clean.py iterates a set too (inside sorted) but is not
        # hash-critical and not flagged
        assert not _findings(fixture_result, "RC001", "clean.py")

    def test_rc002_fires_on_unbumped_mutators_only(self, fixture_result):
        names = sorted(f.message.split()[0] for f in
                       _findings(fixture_result, "RC002", "rc002.py"))
        assert names == ["Platform.bad_alias_write",
                         "Platform.bad_forgot_bump",
                         "Platform.bad_mutator_call"]

    def test_rc003_raw_writes(self, fixture_result):
        found = _findings(fixture_result, "RC003", "rc003.py")
        assert len(found) == 2
        assert any("open" in f.message for f in found)
        assert any("os.replace" in f.message for f in found)

    def test_rc004_blocking_in_async(self, fixture_result):
        messages = [f.message for f in
                    _findings(fixture_result, "RC004", "serve/rc004.py")]
        assert len(messages) == 4
        assert any("time.sleep" in m for m in messages)
        assert any("subprocess.run" in m for m in messages)
        assert any("file I/O" in m for m in messages)
        assert any("pool_result.get()" in m for m in messages)

    def test_rc005_silent_handlers(self, fixture_result):
        found = _findings(fixture_result, "RC005", "rc005.py")
        assert len(found) == 2

    def test_rc006_pool_boundary(self, fixture_result):
        messages = [f.message for f in
                    _findings(fixture_result, "RC006", "rc006.py")]
        assert len(messages) == 3
        assert any("lambda" in m for m in messages)
        assert any("closure" in m for m in messages)
        assert any("bound/attribute" in m for m in messages)

    def test_clean_file_has_no_findings(self, fixture_result):
        assert not _findings(fixture_result, path="clean.py")


class TestNoqa:
    def test_noqa_suppresses_matching_and_bare(self, fixture_result):
        # stamp() carries noqa[RC001], save() a bare noqa: both silent.
        found = _findings(fixture_result, path="noqa.py")
        assert len(found) == 1           # only the wrong-rule site survives
        assert found[0].rule == "RC003"
        assert fixture_result.suppressed >= 2

    def test_wrong_rule_noqa_does_not_suppress(self, fixture_result):
        surviving = _findings(fixture_result, "RC003", "noqa.py")
        assert len(surviving) == 1
        assert "'a'" in surviving[0].message

    def test_every_rule_is_suppressible(self, fixture_result):
        # noqa.py waives RC001/RC003, noqa_more.py RC002/RC005/RC006,
        # serve/noqa_rc004.py RC004: one suppressed site per rule, and
        # none of them survives into the findings.
        assert not _findings(fixture_result, path="noqa_more.py")
        assert not _findings(fixture_result, path="serve/noqa_rc004.py")
        assert fixture_result.suppressed == 6

    def test_noqa_inside_string_literal_is_inert(self):
        noqa = _extract_noqa('x = "# repro: noqa"\ny = 1  # repro: noqa\n')
        assert list(noqa) == [2]


class TestReporters:
    def test_json_schema(self, fixture_result):
        payload = json.loads(render_json(fixture_result))
        assert set(payload) == {"version", "files_checked", "new",
                                "suppressed", "counts"}
        assert payload["counts"]["new"] == len(payload["new"])
        for finding in payload["new"]:
            assert set(finding) == {"rule", "path", "line", "col", "message"}
            assert finding["rule"].startswith("RC")
            assert finding["line"] >= 1

    def test_text_report_lists_locations_and_summary(self, fixture_result):
        text = render_text(fixture_result)
        assert "rc003.py:" in text
        assert text.splitlines()[-1].startswith(
            f"checked {fixture_result.files_checked} files:")

    def test_syntax_error_becomes_rc000_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def nope(:\n")  # repro: noqa[RC003]
        result = run_check(str(tmp_path))
        assert [f.rule for f in result.findings] == ["RC000"]
        assert result.exit_code == 1


class TestRepoIsClean:
    def test_source_tree_passes_all_rules(self):
        result = run_check(SRC_ROOT)
        assert result.findings == [], render_text(result)

    def test_rc002_catches_reverted_hub_bump(self):
        """Deleting set_hub_bandwidth's version bump must trip RC002."""
        topo = os.path.join(SRC_ROOT, "netsim", "topology.py")
        with open(topo, "r", encoding="utf-8") as handle:
            source = handle.read()
        assert 'self._bump(("hub", name))' in source
        broken = source.replace('self._bump(("hub", name))', "pass")
        cf = CheckedFile(abspath=topo, rel="netsim/topology.py",
                         source=broken, tree=ast.parse(broken))
        findings = list(VersionBumpRule().check(cf))
        assert any("set_hub_bandwidth" in f.message for f in findings)
        # and the committed source is clean
        cf_ok = CheckedFile(abspath=topo, rel="netsim/topology.py",
                            source=source, tree=ast.parse(source))
        assert not list(VersionBumpRule().check(cf_ok))


class TestCLI:
    def test_check_command_exit_codes(self, capsys):
        args = ["check", "--root", FIXTURES]
        assert main(args) == 1                     # unsuppressed findings
        capsys.readouterr()
        assert main(args + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["new"] == len(payload["new"]) > 0
        assert payload["counts"]["suppressed"] == 6

    def test_repo_default_invocation_is_clean(self, capsys):
        assert main(["check"]) == 0
