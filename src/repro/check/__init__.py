"""``repro.check`` — the repo's AST invariant checker.

The reproduction rests on invariants that tests only catch *after* they are
violated: scenario content hashes must be deterministic or the sweep cache
silently serves stale results, every :class:`~repro.netsim.topology.Platform`
mutator must bump the topology version counters or ``ProbeMemo`` serves
stale measurements, persistence must flow through :mod:`repro.ioutils` or
fault injection and torn-write healing are bypassed, and the serving
layer's event loop must never block.  ``repro check`` walks the source tree
with a small :mod:`ast` engine and enforces them *statically*, before the
code runs.

Rules (see :mod:`repro.check.rules` for the precise semantics):

========  ==================================================================
RC001     determinism — no wall-clock / unseeded randomness / set-iteration
          order in modules feeding content hashes
RC002     version-bump — every ``Platform`` method that writes topology
          state must bump a version counter (attribute-write analysis)
RC003     atomic-write — persistence goes through ``ioutils``, never raw
          ``open(..., "w")`` / ``os.replace``
RC004     async-blocking — no blocking calls inside ``async def`` under
          ``serve/``
RC005     silent-except — no exception handler whose body is only ``pass``
RC006     pool-boundary — pool dispatch takes module-level callables, never
          lambdas or closures
========  ==================================================================

Suppress one finding with an inline ``# repro: noqa[RC00X]`` on the flagged
line, with a one-line reason.  The CLI exits 1 on any finding left.
"""

from .engine import (
    ALL_RULES,
    CheckResult,
    Finding,
    render_json,
    render_text,
    run_check,
)
from . import rules as _rules        # noqa: F401  (registers ALL_RULES)

__all__ = [
    "ALL_RULES",
    "CheckResult",
    "Finding",
    "render_json",
    "render_text",
    "run_check",
]
