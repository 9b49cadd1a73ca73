"""Seeded, deterministic fault injection for chaos testing.

Real deployments lose workers to the OOM killer, hang on dead NFS mounts
and run disks out of space; this module lets tests inject exactly those
failures *reproducibly*.  A :class:`FaultPlan` is a seed plus a list of
:class:`FaultSpec` schedules:

* ``kill``   — the pool worker kills itself with a signal (default
  ``SIGKILL``) before running the task;
* ``hang``   — the worker sleeps ``delay_s`` seconds before the task (long
  enough to trip any per-task deadline);
* ``raise``  — the worker entrypoint raises :class:`FaultInjected`;
* ``enospc`` — a write path raises ``OSError(ENOSPC)`` before writing;
* ``torn``   — an append writes *half* its payload, then raises
  ``OSError(ENOSPC)``: a torn JSONL tail, exactly what a full disk leaves.

The plan is installed process-wide with :func:`install_plan`, which also
exports it through the ``REPRO_FAULT_PLAN`` environment variable so pool
workers (forked or spawned *after* installation) and subprocesses inherit
it; :func:`activate_from_env` (called from the worker entrypoints and the
write hook) adopts the inherited plan lazily.

Determinism without shared state: worker faults are gated on the task's
*attempt number* (shipped with the task), so "kill the worker on attempt 0
of scenario X" fires exactly once no matter how many times the pool is
respawned, and probabilistic faults hash ``(seed, spec, key, attempt)``
instead of consulting a stateful RNG (at write sites, where the path is
constant across appends, a per-spec consult sequence number stands in
for the attempt).  ``times`` additionally caps firings
per process (the natural cap for write faults, whose injecting process —
the sweep parent or the server — lives across retries).

Injection sites hook in from the outside: :mod:`repro.sweep.runner` calls
:func:`inject_worker` at the pool-worker entrypoint, and importing this
module registers :func:`write_fault` with :mod:`repro.ioutils` (the
hook-based coupling keeps ``ioutils`` import-cycle-free).  Worker kills
and hangs only ever fire inside real pool worker processes (marked by the
pool initializer) — an in-process ``--jobs 1`` sweep must not kill the
CLI that runs it.

Every injected fault increments ``repro_faults_injected_total`` (labelled
by site and kind) and emits a structured warning, so a chaos run's
injected failures are visible on ``/metrics`` next to the retries and
respawns they caused.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from . import ioutils
from .obs.logs import get_logger, kv
from .obs.metrics import REGISTRY

__all__ = ["FaultSpec", "FaultPlan", "FaultInjected", "ENV_VAR",
           "WORKER_KINDS", "WRITE_KINDS", "install_plan", "clear_plan",
           "active_plan", "activate_from_env", "load_plan", "inject_worker",
           "write_fault", "mark_worker_process", "in_worker_process",
           "fired_counts"]

ENV_VAR = "REPRO_FAULT_PLAN"

WORKER_KINDS = ("kill", "hang", "raise")
WRITE_KINDS = ("enospc", "torn")

_LOG = get_logger("faults")

_INJECTED = REGISTRY.counter(
    "repro_faults_injected_total",
    "faults injected by the active fault plan",
    labels=("site", "kind"))


class FaultInjected(RuntimeError):
    """The failure a ``raise`` fault injects (propagates out of the worker
    entrypoint, so the dispatcher sees a lost task, not an error record)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault schedule of a plan."""

    kind: str
    #: Substring the injection key (scenario name for worker faults, file
    #: path for write faults) must contain; empty matches everything.
    match: str = ""
    #: Max firings per process; ``-1`` removes the cap.  Attempt-gated
    #: worker faults usually rely on ``on_attempts`` instead — a respawned
    #: worker process starts with fresh counters, attempt numbers travel
    #: with the task.
    times: int = 1
    #: Task attempt numbers (0-based) the fault fires on; ``None`` fires on
    #: every attempt.  Ignored at write sites.
    on_attempts: Optional[Tuple[int, ...]] = None
    #: Deterministic firing probability: the fault fires when
    #: ``hash(seed, spec, key, attempt) < probability``.
    probability: float = 1.0
    #: Sleep duration of a ``hang`` fault.
    delay_s: float = 30.0
    #: Signal of a ``kill`` fault.
    signum: int = int(signal.SIGKILL)

    def __post_init__(self) -> None:
        if self.kind not in WORKER_KINDS + WRITE_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.times < -1:
            raise ValueError("times must be >= -1")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    @property
    def site(self) -> str:
        return "worker" if self.kind in WORKER_KINDS else "write"

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind}
        if self.match:
            data["match"] = self.match
        if self.times != 1:
            data["times"] = self.times
        if self.on_attempts is not None:
            data["on_attempts"] = list(self.on_attempts)
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.delay_s != 30.0:
            data["delay_s"] = self.delay_s
        if self.signum != int(signal.SIGKILL):
            data["signum"] = self.signum
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ValueError(f"fault spec is not an object: {data!r}")
        unknown = [k for k in data if k not in (
            "kind", "match", "times", "on_attempts", "probability",
            "delay_s", "signum")]
        if unknown:
            raise ValueError(f"unknown fault spec fields: {unknown}")
        on_attempts = data.get("on_attempts")
        return cls(
            kind=str(data.get("kind", "")),
            match=str(data.get("match", "")),
            times=int(data.get("times", 1)),
            on_attempts=(None if on_attempts is None
                         else tuple(int(a) for a in on_attempts)),
            probability=float(data.get("probability", 1.0)),
            delay_s=float(data.get("delay_s", 30.0)),
            signum=int(data.get("signum", int(signal.SIGKILL))))


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault schedules of one chaos run."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return json.dumps({"seed": self.seed,
                           "faults": [s.to_dict() for s in self.specs]},
                          sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        unknown = [k for k in data if k not in ("seed", "faults")]
        if unknown:
            raise ValueError(f"unknown fault plan fields: {unknown}")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise ValueError("fault plan field 'faults' must be a list")
        return cls(seed=int(data.get("seed", 0)),
                   specs=tuple(FaultSpec.from_dict(s) for s in faults))


def load_plan(source: str) -> FaultPlan:
    """A plan from a JSON literal or (when the argument names an existing
    file) a JSON file — the shape the CLI's ``--inject-faults`` accepts."""
    text = source
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return FaultPlan.from_json(text)


# -- process-wide plan state --------------------------------------------------

_lock = threading.Lock()
ioutils.fresh_lock_after_fork(sys.modules[__name__])
_PLAN: Optional[FaultPlan] = None
#: The serialised plan the current ``_PLAN`` came from; compared against the
#: environment so :func:`activate_from_env` re-parses only on change.
_TOKEN: Optional[str] = None
_FIRED: Dict[int, int] = {}              # spec index -> firings this process
#: spec index -> write-site consults this process; the sequence number is
#: the probability-hash variate (a path is constant across appends, so
#: hashing it alone would make a probabilistic write fault all-or-nothing).
_CONSULTS: Dict[int, int] = {}
_IN_POOL_WORKER = False


def install_plan(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process and export it to future children."""
    global _PLAN, _TOKEN
    token = plan.to_json()
    with _lock:
        _PLAN = plan
        _TOKEN = token
        _FIRED.clear()
        _CONSULTS.clear()
    os.environ[ENV_VAR] = token
    _LOG.warning("event=fault_plan_installed %s",
                 kv(seed=plan.seed, specs=len(plan.specs)))


def clear_plan() -> None:
    """Disarm any active plan and stop exporting it."""
    global _PLAN, _TOKEN
    with _lock:
        _PLAN = None
        _TOKEN = None
        _FIRED.clear()
        _CONSULTS.clear()
    os.environ.pop(ENV_VAR, None)


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def activate_from_env() -> Optional[FaultPlan]:
    """Adopt the plan exported through :data:`ENV_VAR`, if any.

    Cheap when nothing changed (a string compare), so the worker
    entrypoints call it per task; a plan installed directly through
    :func:`install_plan` is already token-matched and never re-parsed
    (which would reset the firing counters mid-run).
    """
    global _PLAN, _TOKEN
    token = os.environ.get(ENV_VAR)
    with _lock:
        if token == _TOKEN:
            return _PLAN
    if token is None:
        clear_plan()
        return None
    try:
        plan = FaultPlan.from_json(token)
    except ValueError as exc:
        _LOG.warning("event=fault_plan_invalid %s", kv(error=str(exc)))
        return _PLAN
    with _lock:
        _PLAN = plan
        _TOKEN = token
        _FIRED.clear()
        _CONSULTS.clear()
    return plan


def mark_worker_process() -> None:
    """Mark this process as a pool worker (set by the pool initializer):
    only marked processes are allowed to kill or hang themselves."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def in_worker_process() -> bool:
    return _IN_POOL_WORKER


def fired_counts() -> Dict[int, int]:
    """Firings per spec index in this process (test hook)."""
    with _lock:
        return dict(_FIRED)


# -- firing decision ----------------------------------------------------------

def _hash_fraction(seed: int, index: int, key: str, attempt: int) -> float:
    digest = hashlib.sha256(
        f"{seed}|{index}|{key}|{attempt}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16) / float(16 ** 12)


def _should_fire(plan: FaultPlan, index: int, spec: FaultSpec, key: str,
                 attempt: int) -> bool:
    if spec.match and spec.match not in key:
        return False
    if spec.site == "worker" and spec.on_attempts is not None \
            and attempt not in spec.on_attempts:
        return False
    if spec.probability < 1.0 and \
            _hash_fraction(plan.seed, index, key, attempt) >= spec.probability:
        return False
    with _lock:
        fired = _FIRED.get(index, 0)
        if spec.times >= 0 and fired >= spec.times:
            return False
        _FIRED[index] = fired + 1
    _INJECTED.labels(site=spec.site, kind=spec.kind).inc()
    _LOG.warning("event=fault_injected %s",
                 kv(site=spec.site, kind=spec.kind, key=key, attempt=attempt,
                    pid=os.getpid()))
    return True


def inject_worker(key: str, attempt: int = 0) -> None:
    """Fire any matching worker fault for task ``key`` at ``attempt``.

    Called from the pool worker entrypoint (and the in-process serial
    path).  ``kill`` and ``hang`` are restricted to marked pool worker
    processes; ``raise`` fires anywhere the plan is active.
    """
    plan = activate_from_env()
    if plan is None:
        return
    for index, spec in enumerate(plan.specs):
        if spec.site != "worker":
            continue
        if spec.kind != "raise" and not _IN_POOL_WORKER:
            # A kill/hang outside a pool worker would take down (or wedge)
            # the submitting process itself; stay inert (and uncounted) so
            # a real worker can still fire this spec.
            continue
        if not _should_fire(plan, index, spec, key, attempt):
            continue
        if spec.kind == "raise":
            raise FaultInjected(f"injected failure for {key!r} "
                                f"(attempt {attempt})")
        if spec.kind == "hang":
            time.sleep(spec.delay_s)
        elif spec.kind == "kill":
            os.kill(os.getpid(), spec.signum)


def write_fault(path: str) -> Optional[str]:
    """The write fault kind (``"enospc"`` / ``"torn"``) armed for ``path``,
    or ``None`` — consulted by the :mod:`repro.ioutils` writers."""
    plan = activate_from_env()
    if plan is None:
        return None
    for index, spec in enumerate(plan.specs):
        if spec.site != "write":
            continue
        with _lock:
            sequence = _CONSULTS.get(index, 0)
            _CONSULTS[index] = sequence + 1
        if _should_fire(plan, index, spec, path, sequence):
            return spec.kind
    return None


# Register the write hook: ioutils stays import-cycle-free (it must not
# import the obs stack), and write faults arm as soon as anything imports
# the faults layer (the sweep runner always does).
ioutils.set_write_fault_hook(write_fault)
