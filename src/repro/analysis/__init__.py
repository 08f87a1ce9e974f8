"""hodor-lint: static purity/determinism analysis of the pipeline.

The delta-aware vector backend's correctness argument (see
:mod:`repro.core.vector.backend`) rests on code-level invariants
nothing at runtime can check: per-entity units must be pure functions
of their declared inputs, stages must not read or write hidden module
state, iteration feeding ordered reports must be deterministically
ordered, and every per-entity unit of the serial stages must be
accounted for by the vector backend.  This package verifies those invariants
mechanically, over the AST, on every commit -- the same move the paper
makes for controller inputs, applied to our own pipeline.

Rule catalog (see ``docs/LINT.md`` for rationale):

- **P1** argument mutation inside per-entity units / stage functions;
- **P2** module-level mutable state touched from core stages;
- **D1** nondeterminism hazards (global ``random``, wall-clock reads,
  set iteration into ordered output, ``id()``-keyed maps);
- **F1** bare float ``==``/``!=`` in ``core/``/``engine/``;
- **A1** blocking calls inside ``async def`` in core (sync sleeps,
  file/socket I/O, discarded executor futures);
- **A2** state mutated across an ``await`` without a queue/lock
  discipline (the coroutine-interleaving hazard class);
- **X1** cache-store mutation without try/except-reset or
  build-then-swap exception safety;
- **T1** interprocedural validated-before-use taint: raw
  snapshot/update/epoch values must pass a declared sanitizer before
  reaching a verdict/report/apply sink (``--explain T1`` shows the
  call-graph taint path);
- **C1** python-units vs vector-manifest registry parity (every
  per-entity unit run by the serial pipeline and accounted for by the
  vector backend);
- **L1** unused ``# lint: ignore[...]`` suppression.

Entry points: ``python -m repro lint`` (CLI) or :func:`run_lint`
(importable API).  Pass ``cache_path`` (CLI ``--cache``) for
incremental runs keyed on content hashes.
"""

from repro.analysis.config import LintConfig
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.report import render_text, to_json_text
from repro.analysis.rules import ALL_RULE_CODES, RULES, rule_catalog
from repro.analysis.runner import LintResult, run_lint

__all__ = [
    "ALL_RULE_CODES",
    "Diagnostic",
    "LintConfig",
    "LintResult",
    "RULES",
    "Severity",
    "render_text",
    "rule_catalog",
    "run_lint",
    "to_json_text",
]
