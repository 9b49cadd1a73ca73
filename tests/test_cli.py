"""Tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self):
        args = build_parser().parse_args(["map"])
        assert args.platform == "ens-lyon"
        assert args.master is None

    def test_monitor_pairs_argument(self):
        args = build_parser().parse_args(
            ["monitor", "--pairs", "a:b", "c:d", "--duration", "60"])
        assert args.pairs == ["a:b", "c:d"]
        assert args.duration == 60.0

    @pytest.mark.parametrize("argv", [
        ["top", "--url", "http://127.0.0.1:8765"],
        ["obs", "dump", "--url", "http://127.0.0.1:8765"],
        ["obs", "dump", "--flight-dir", "flight"],
        ["serve", "--runtime-interval", "1"],
        ["check", "--baseline", "x"],
        ["check", "--update-baseline"],
    ])
    def test_removed_surface_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


class TestCommands:
    def test_map_ens_lyon(self, capsys, tmp_path):
        gridml = tmp_path / "view.xml"
        assert main(["map", "--gridml", str(gridml)]) == 0
        out = capsys.readouterr().out
        assert "[shared]" in out and "[switched]" in out
        assert gridml.exists()

    def test_plan_writes_config(self, capsys, tmp_path):
        config = tmp_path / "nws.conf"
        assert main(["plan", "--period", "30", "--config-out", str(config)]) == 0
        out = capsys.readouterr().out
        assert "clique" in out
        assert "nameserver the-doors" in config.read_text()

    def test_quality_table(self, capsys):
        assert main(["quality"]) == 0
        out = capsys.readouterr().out
        assert "env" in out and "global-clique" in out and "completeness" in out

    def test_monitor_with_pairs(self, capsys):
        assert main(["monitor", "--duration", "90",
                     "--pairs", "sci1:sci2", "the-doors:sci3"]) == 0
        out = capsys.readouterr().out
        assert "sci1" in out and "answered by" in out

    def test_monitor_rejects_malformed_pair(self, capsys):
        assert main(["monitor", "--duration", "30", "--pairs", "nocolon"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_fault_plan_is_a_usage_error(self, capsys):
        # A field of the wrong type must not end in a traceback, nor fail
        # only once the fault fires inside a pool worker.
        assert main(["sweep", "--inject-faults", '{"seed": [1]}']) == 2
        assert "error: fault field 'seed'" in capsys.readouterr().err

    def test_synthetic_platform_plan(self, capsys):
        assert main(["plan", "--platform", "synthetic", "--sites", "1",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Deployment plan" in out

    def test_profile_static_scenario(self, capsys):
        assert main(["profile", "star-hub-8", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profiled one pipeline run of star-hub-8" in out
        assert "cumulative" in out
        assert "run_pipeline" in out

    def test_profile_dynamic_scenario(self, capsys):
        assert main(["profile", "dyn-hub-flash", "--top", "3",
                     "--sort", "tottime"]) == 0
        out = capsys.readouterr().out
        assert "profiled one dynamic replay of dyn-hub-flash" in out

    def test_profile_unknown_scenario_fails(self, capsys):
        assert main(["profile", "no-such-scenario"]) == 2
        assert "error" in capsys.readouterr().err
