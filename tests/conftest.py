"""Shared fixtures.

The ENS-Lyon platform, its ENV views and the derived deployment plan are
expensive enough to be worth sharing across the test session; they are all
deterministic, and tests never mutate them (tests that need to mutate build
their own instances).
"""

from __future__ import annotations

import logging
import os

import pytest

from repro.core import plan_from_view
from repro.env import map_ens_lyon, map_platform
from repro.netsim import PRIVATE_HOSTS, PUBLIC_HOSTS, build_ens_lyon
from repro.obs import TRACER
from repro.scenarios import registry_snapshot, restore_registry

# The chaos harness (`make chaos`, the CI chaos job) exports
# REPRO_CHAOS_SPAN_LOG so a failing seeded chaos run leaves a span log
# behind for post-mortem rendering (`repro trace <log>`).
_CHAOS_SPAN_LOG = os.environ.get("REPRO_CHAOS_SPAN_LOG")
if _CHAOS_SPAN_LOG:
    TRACER.configure(sample_rate=1.0, log_path=_CHAOS_SPAN_LOG)


@pytest.fixture(autouse=True)
def _tracer_and_logging_isolation():
    """Restore the tracer settings and the ``repro`` logger around every test.

    ``repro.cli.main`` reconfigures the process-wide tracer and binds the
    ``repro`` logger to the stderr of the moment (pytest's capture stream,
    closed after the test).  Without this fixture one CLI test would turn
    off the chaos run's full tracing for every later test, and later log
    records would hit a closed stream ("Logging error").
    """
    settings = (TRACER.sample_rate, TRACER.log_path, TRACER.slow_span_s,
                TRACER.log_max_bytes)
    logger = logging.getLogger("repro")
    handlers, level, propagate = logger.handlers[:], logger.level, \
        logger.propagate
    yield
    sample_rate, log_path, slow_span_s, log_max_bytes = settings
    TRACER.configure(sample_rate=sample_rate, log_path=log_path or "",
                     slow_span_s=slow_span_s or 0.0,
                     log_max_bytes=log_max_bytes)
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate


@pytest.fixture(autouse=True)
def _scenario_registry_isolation():
    """Restore the scenario registry around every test.

    Tests may clear the registry or register throwaway scenarios; without
    this fixture the visible registrations (and therefore scenario listings,
    sweep selections and cache keys) would depend on test execution order.
    """
    snapshot = registry_snapshot()
    yield
    restore_registry(snapshot)


@pytest.fixture(scope="session")
def ens_lyon():
    """The ENS-Lyon platform of Figure 1(a) (firewalled, asymmetric routes)."""
    return build_ens_lyon()


@pytest.fixture(scope="session")
def public_view(ens_lyon):
    """ENV view of the public side, master the-doors."""
    return map_platform(ens_lyon, "the-doors", hosts=PUBLIC_HOSTS)


@pytest.fixture(scope="session")
def private_view(ens_lyon):
    """ENV view of the popc.private side, master popc0."""
    return map_platform(ens_lyon, "popc0", hosts=PRIVATE_HOSTS)


@pytest.fixture(scope="session")
def merged_view(ens_lyon):
    """The merged effective view of Figure 1(b)."""
    return map_ens_lyon(ens_lyon)


@pytest.fixture(scope="session")
def ens_plan(merged_view):
    """The NWS deployment plan of Figure 3."""
    return plan_from_view(merged_view)
