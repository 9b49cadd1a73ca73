"""Tests of the sampling profiler: SIGPROF, nesting, shipping, teardown.

The edge cases a sampling profiler lives or dies by: arming off the main
thread (SIGPROF refused → a typed error that leaves no trace), nested
``profiled()`` scopes (the inner disarm must not stop the outer scope's
sampling), and pool-worker teardown (a worker that exits mid-profile must
not hang or kill the process).
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time

import pytest

from repro.obs.profile import (
    DEFAULT_HZ,
    MAX_HZ,
    MIN_HZ,
    PROFILER,
    Profiler,
    ProfilerError,
    collapse,
)


@pytest.fixture(autouse=True)
def _profiler_isolation():
    """Every test starts and ends with the global profiler clean."""
    PROFILER.reset()
    yield
    while PROFILER.armed:
        PROFILER.disarm()
    PROFILER.reset()


def _busy(seconds: float) -> int:
    """Burn CPU (not wall) time — ITIMER_PROF only ticks on CPU."""
    deadline = time.process_time() + seconds
    acc = 0
    while time.process_time() < deadline:
        acc += sum(range(500))
    return acc


# ---------------------------------------------------------------------------
# collapse format


class TestCollapse:
    def test_collapsed_lines_heaviest_first(self):
        text = collapse({"a;b;c": 3, "a;b": 10, "a;z": 3})
        assert text.splitlines() == ["a;b 10", "a;b;c 3", "a;z 3"]

    def test_empty_profile_collapses_to_nothing(self):
        assert collapse({}) == ""


# ---------------------------------------------------------------------------
# SIGPROF sampling (main thread only)


class TestSignalBackend:
    def test_profiled_busy_loop_catches_the_hot_frame(self):
        profiler = Profiler()
        with profiler.profiled(hz=1000) as capture:
            _busy(0.2)
        assert capture.samples > 10
        assert any("_busy" in frame
                   for stack in capture.stacks for frame in stack)
        assert not profiler.armed
        # The scope's samples also reached the process-wide aggregate.
        assert profiler.samples() == capture.samples

    def test_hz_is_clamped_into_the_sane_band(self):
        profiler = Profiler()
        profiler.configure(hz=10 ** 9)
        assert profiler.hz == MAX_HZ
        profiler.configure(hz=0)
        assert profiler.hz == DEFAULT_HZ      # 0 = "default", not "min"
        profiler.configure(hz=-5)
        assert profiler.hz == MIN_HZ

    def test_disarm_restores_the_previous_sigprof_handler(self):
        before = signal.getsignal(signal.SIGPROF)
        profiler = Profiler()
        with profiler.profiled(hz=100):
            assert signal.getsignal(signal.SIGPROF) == profiler._on_sigprof
        assert signal.getsignal(signal.SIGPROF) == before

    def test_arming_off_the_main_thread_raises(self, monkeypatch):
        """Python installs signal handlers on the main thread only: arming
        anywhere else, or without setitimer, is a typed error that leaves
        the arm depth and the SIGPROF handler as they were."""
        before = signal.getsignal(signal.SIGPROF)
        profiler = Profiler()
        errors = []

        def work():
            try:
                with profiler.profiled(hz=500):
                    _busy(0.01)
            except ProfilerError as exc:
                errors.append(exc)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert not profiler.armed
        assert signal.getsignal(signal.SIGPROF) == before

        monkeypatch.delattr(signal, "setitimer")
        with pytest.raises(ProfilerError):
            profiler.arm()
        assert not profiler.armed
        assert signal.getsignal(signal.SIGPROF) == before


# ---------------------------------------------------------------------------
# nesting


class TestNesting:
    def test_inner_scope_exit_keeps_outer_sampling(self):
        profiler = Profiler()
        with profiler.profiled(hz=1000) as outer:
            with profiler.profiled(hz=1) as inner:   # hz ignored: nested
                _busy(0.1)
            assert profiler.armed, "inner exit disarmed the outer scope"
            _busy(0.1)
        assert not profiler.armed
        # The outer capture saw both halves, the inner only its own.
        assert outer.samples > inner.samples > 0

    def test_nested_arm_ignores_mode_and_hz_preferences(self):
        profiler = Profiler()
        profiler.arm(hz=500)
        try:
            profiler.arm(hz=1)
            assert profiler.hz == 500
        finally:
            profiler.disarm()
            assert profiler.armed             # one arm still outstanding
            profiler.disarm()
        assert not profiler.armed


# ---------------------------------------------------------------------------
# maybe() and payload shipping


class TestMaybeAndShipping:
    def test_maybe_disabled_returns_the_shared_null_scope(self):
        one = PROFILER.maybe(False)
        two = PROFILER.maybe(False)
        assert one is two                     # no per-call allocation
        with one as capture:
            pass
        assert capture.samples == 0
        assert capture.as_payload() is None
        assert capture.collapsed() == ""
        assert not PROFILER.armed

    def test_payload_roundtrip_through_ingest(self):
        profiler = Profiler()
        with profiler.profiled(hz=1000) as capture:
            _busy(0.1)
        payload = capture.as_payload()
        assert payload["samples"] == capture.samples > 0

        home = Profiler()
        assert home.ingest(payload) == capture.samples
        assert home.samples() == capture.samples
        assert home.stacks() == {";".join(s): n
                                 for s, n in capture.stacks.items()}

    def test_ingest_rejects_malformed_payloads(self):
        profiler = Profiler()
        assert profiler.ingest(None) == 0
        assert profiler.ingest({}) == 0
        assert profiler.ingest({"stacks": "nope"}) == 0
        assert profiler.ingest({"stacks": {"a;b": -3, 7: 1,
                                           "c": "many"}}) == 0
        assert profiler.samples() == 0

    def test_state_token_tracks_samples_and_ingests(self):
        profiler = Profiler()
        token = profiler.state_token()
        assert profiler.ingest({"stacks": {"a;b": 2}, "samples": 2}) == 2
        assert profiler.state_token() != token
        token = profiler.state_token()
        profiler.reset()
        assert profiler.state_token() != token
        assert profiler.samples() == 0


# ---------------------------------------------------------------------------
# pool-worker teardown


def _pool_task_arms_without_disarm(seconds):
    """A worker that starts profiling and never cleans up."""
    from repro.obs.profile import PROFILER as worker_profiler

    worker_profiler.arm(hz=500)
    _busy(seconds)
    return worker_profiler.samples()


class TestPoolTeardown:
    def test_worker_torn_down_mid_profile_does_not_hang(self):
        """A pool worker dying with its profiler still armed must not hang
        the pool's teardown or poison the parent."""
        with multiprocessing.Pool(processes=1) as pool:
            samples = pool.apply(_pool_task_arms_without_disarm, (0.1,))
            assert samples > 0
            pool.terminate()
        # The parent's profiler was never involved.
        assert not PROFILER.armed
        assert PROFILER.samples() == 0
