"""Tests of the fault-injection layer: plans, determinism, write faults."""

import errno
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults
from repro.faults import (
    ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    activate_from_env,
    active_plan,
    clear_plan,
    fired_counts,
    inject_worker,
    install_plan,
    load_plan,
    write_fault,
)
from repro.ioutils import append_line, write_atomic


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no plan armed (env included)."""
    clear_plan()
    yield
    clear_plan()


class TestPlanParsing:
    def test_round_trip(self):
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(kind="kill", match="star", on_attempts=(0,)),
            FaultSpec(kind="enospc", match="results.jsonl", times=2),
            FaultSpec(kind="hang", delay_s=1.5, probability=0.5),
        ))
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            FaultPlan.from_json('{"faults": [{"kind": "kill", "bogus": 1}]}')
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_json('{"seed": 1, "bogus": []}')

    def test_probability_bounds_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="raise", probability=1.5)

    @pytest.mark.parametrize("field, text", [
        ("seed", '{"seed": [1]}'),
        ("seed", '{"seed": 1e400}'),
        ("seed", '{"seed": true}'),
        ("times", '{"faults": [{"kind": "raise", "times": null}]}'),
        ("on_attempts", '{"faults": [{"kind": "kill", "on_attempts": 5}]}'),
        ("on_attempts",
         '{"faults": [{"kind": "kill", "on_attempts": [-1]}]}'),
        ("delay_s", '{"faults": [{"kind": "hang", "delay_s": {}}]}'),
        ("delay_s", '{"faults": [{"kind": "hang", "delay_s": -1}]}'),
        ("delay_s", '{"faults": [{"kind": "hang", "delay_s": NaN}]}'),
        ("signum", '{"faults": [{"kind": "kill", "signum": 999}]}'),
        ("match", '{"faults": [{"kind": "raise", "match": 5}]}'),
    ])
    def test_malformed_field_values_rejected(self, field, text):
        # Each would fail late (a TypeError in the CLI, a ValueError or
        # OSError inside a pool worker when the fault fires) if accepted.
        with pytest.raises(ValueError, match=f"'{field}'"):
            FaultPlan.from_json(text)

    def test_non_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_load_plan_literal_and_file(self, tmp_path):
        text = '{"seed": 3, "faults": [{"kind": "raise", "match": "x"}]}'
        literal = load_plan(text)
        assert literal.seed == 3 and literal.specs[0].kind == "raise"
        path = tmp_path / "plan.json"
        path.write_text(text, encoding="utf-8")
        assert load_plan(str(path)) == literal


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)
_PLAN_FIELDS = ("seed", "faults")
_SPEC_FIELDS = ("kind", "match", "times", "on_attempts", "probability",
                "delay_s", "signum")


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(_PLAN_FIELDS + _SPEC_FIELDS),
       value=_JSON_VALUES)
def test_any_json_field_value_parses_or_raises_value_error(field, value):
    plan = {"seed": 1, "faults": [{"kind": "hang"}]}
    if field in _PLAN_FIELDS:
        plan[field] = value
    else:
        plan["faults"][0][field] = value
    try:
        parsed = FaultPlan.from_json(json.dumps(plan))
    except ValueError:
        return
    assert FaultPlan.from_json(parsed.to_json()) == parsed


class TestInstallation:
    def test_install_exports_env_and_clear_removes_it(self):
        plan = FaultPlan(specs=(FaultSpec(kind="raise"),))
        install_plan(plan)
        assert active_plan() == plan
        assert os.environ[ENV_VAR] == plan.to_json()
        clear_plan()
        assert active_plan() is None
        assert ENV_VAR not in os.environ

    def test_activate_from_env_adopts_inherited_plan(self):
        plan = FaultPlan(seed=9, specs=(FaultSpec(kind="enospc"),))
        os.environ[ENV_VAR] = plan.to_json()
        assert activate_from_env() == plan
        assert active_plan() == plan

    def test_activate_is_idempotent_and_keeps_firing_counters(self):
        install_plan(FaultPlan(specs=(FaultSpec(kind="raise", times=5),)))
        with pytest.raises(FaultInjected):
            inject_worker("anything")
        assert fired_counts() == {0: 1}
        # Re-activation with an unchanged env token must NOT reset counters
        # (the worker entrypoint calls this per task).
        activate_from_env()
        assert fired_counts() == {0: 1}

    def test_invalid_env_plan_is_ignored_with_warning(self):
        os.environ[ENV_VAR] = "{broken"
        assert activate_from_env() is None


class TestWorkerFaults:
    def test_raise_fires_only_on_matching_key(self):
        install_plan(FaultPlan(specs=(FaultSpec(kind="raise", match="star"),)))
        inject_worker("ring-4")                      # no match: no fault
        with pytest.raises(FaultInjected):
            inject_worker("star-hub-8")

    def test_attempt_gating(self):
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="raise", on_attempts=(0, 2), times=-1),)))
        with pytest.raises(FaultInjected):
            inject_worker("s", attempt=0)
        inject_worker("s", attempt=1)                # gated off
        with pytest.raises(FaultInjected):
            inject_worker("s", attempt=2)
        inject_worker("s", attempt=3)

    def test_times_caps_firings_per_process(self):
        install_plan(FaultPlan(specs=(FaultSpec(kind="raise", times=2),)))
        for _ in range(2):
            with pytest.raises(FaultInjected):
                inject_worker("s")
        inject_worker("s")                           # cap reached

    def test_probability_is_deterministic_per_key_and_attempt(self):
        install_plan(FaultPlan(seed=11, specs=(
            FaultSpec(kind="raise", probability=0.5, times=-1),)))
        outcomes = {}
        for key in ("a", "b", "c", "d", "e", "f", "g", "h"):
            try:
                inject_worker(key)
                outcomes[key] = False
            except FaultInjected:
                outcomes[key] = True
        assert any(outcomes.values()) and not all(outcomes.values())
        # Same seed, same keys: identical outcomes on a fresh plan install.
        install_plan(FaultPlan(seed=11, specs=(
            FaultSpec(kind="raise", probability=0.5, times=-1),)))
        for key, fired in outcomes.items():
            if fired:
                with pytest.raises(FaultInjected):
                    inject_worker(key)
            else:
                inject_worker(key)

    def test_probability_zero_never_fires(self):
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="raise", probability=0.0, times=-1),)))
        for key in ("a", "b", "c"):
            inject_worker(key)
        assert fired_counts() == {}

    def test_kill_and_hang_are_inert_outside_pool_workers(self):
        # This test process is NOT a pool worker: a kill here would take
        # down pytest itself.  The fault must skip (and un-count itself so
        # a real worker can still fire it).
        install_plan(FaultPlan(specs=(FaultSpec(kind="kill"),
                                      FaultSpec(kind="hang", delay_s=60.0))))
        assert not faults.in_worker_process()
        inject_worker("anything")
        assert fired_counts() == {}


class TestWriteFaults:
    def test_enospc_append_raises_and_writes_nothing(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="enospc", match="out.jsonl"),)))
        with pytest.raises(OSError) as excinfo:
            append_line(path, "hello\n")
        assert excinfo.value.errno == errno.ENOSPC
        assert not os.path.exists(path)
        # The fault is spent: the retry lands.
        append_line(path, "hello\n")
        assert _read(path) == "hello\n"

    def test_torn_append_leaves_half_a_line(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        append_line(path, "committed\n")
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="torn", match="out.jsonl"),)))
        with pytest.raises(OSError) as excinfo:
            append_line(path, "torn-away\n")
        assert excinfo.value.errno == errno.ENOSPC
        raw = _read(path)
        assert raw.startswith("committed\n")
        assert not raw.endswith("\n")                # the torn tail
        assert len(raw) < len("committed\n") + len("torn-away\n")

    def test_next_append_heals_a_torn_tail(self, tmp_path):
        # A later committed append must not be swallowed by merging into
        # the torn half-line a failed append left behind.
        path = str(tmp_path / "out.jsonl")
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="torn", match="out.jsonl"),)))
        with pytest.raises(OSError):
            append_line(path, "torn-away\n")
        append_line(path, "committed\n")
        lines = _read(path).split("\n")
        assert "committed" in lines                  # a whole line of its own

    def test_enospc_write_atomic_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="enospc", match="doc.json"),)))
        with pytest.raises(OSError):
            write_atomic(path, "{}")
        assert not os.path.exists(path)
        assert os.listdir(str(tmp_path)) == []       # no tmp litter either

    def test_write_fault_matches_path_substring_only(self, tmp_path):
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="enospc", match="results.jsonl"),)))
        assert write_fault(str(tmp_path / "other.jsonl")) is None
        assert write_fault(str(tmp_path / "results.jsonl")) == "enospc"

    def test_no_plan_means_no_overhead_faults(self, tmp_path):
        assert write_fault(str(tmp_path / "x")) is None
        path = str(tmp_path / "x.jsonl")
        append_line(path, "fine\n")
        assert _read(path) == "fine\n"

    def test_gridml_export_site_is_fault_covered(self, tmp_path):
        """Regression: ``write_gridml`` goes through ``write_atomic``.

        The exporter used to raw-``open(path, "w")`` — a write site
        invisible to fault injection that could leave half an XML file.
        ENOSPC at the site must now leave *nothing*, and the retry after
        the disk "recovers" must produce a complete, parseable document.
        """
        from repro.gridml import GridDocument, from_xml, write_gridml
        path = str(tmp_path / "export.xml")
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="enospc", match="export.xml", times=1),)))
        with pytest.raises(OSError):
            write_gridml(GridDocument(label="Grid1"), path)
        assert not os.path.exists(path)              # no partial export
        assert os.listdir(str(tmp_path)) == []       # no tmp litter either
        write_gridml(GridDocument(label="Grid1"), path)   # fault exhausted
        assert from_xml(_read(path)).label == "Grid1"
