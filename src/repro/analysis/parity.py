"""C1: python-units vs vector-manifest registry parity.

The array-compiled vector backend is only equivalent to the per-entity
python pipeline if both agree on *coverage*: every per-entity unit the
serial stages run must be accounted for in
:mod:`repro.core.vector.backend`, and everything the backend dispatches
must exist as a real unit.  A stage added to one side but not the
other silently diverges the reports -- the exact bug class the
differential harness can only catch per-input, while this rule catches
it structurally on every commit.

Checks, all driven by :class:`~repro.analysis.config.LintConfig`
(``entity_patterns`` + ``vector_path``):

1. every entity-pattern function defined under a core directory is
   referenced inside its *own* module beyond the ``def`` itself (the
   serial path must call it);
2. every such function appears in the vector backend's *source text*
   -- as an exceptional-path dispatch, or named in the replacement
   manifest (the module docstring) where the unit has an array-math
   twin instead of a call site;
3. every entity-pattern AST reference the vector backend makes
   resolves to a defined unit (no ghost dispatches).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.analysis.config import LintConfig
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import ModuleUnderLint

__all__ = ["RegistryParityRule"]


class RegistryParityRule:
    """Project-scoped C1 rule (runs once over every module together)."""

    code = "C1"
    title = "per-entity unit missing from the python pipeline or the vector registry"
    severity = Severity.ERROR
    rationale = (
        "The python and vector backends must cover the same checks: a "
        "per-entity unit that only one of the paths runs (or a "
        "dispatch with no defined unit behind it) silently breaks report "
        "parity in a way no per-input differential test is guaranteed to "
        "hit."
    )

    def check(
        self, modules: List[ModuleUnderLint], config: LintConfig
    ) -> Iterator[Diagnostic]:
        """Tree-based entry point: project modules to facts, compare."""
        from repro.analysis.facts import extract_facts

        yield from self.check_facts(
            [extract_facts(module, config) for module in modules], config
        )

    def check_facts(self, facts_list, config: LintConfig) -> Iterator[Diagnostic]:
        """Facts-based entry point (what the incremental lint runner calls).

        ``facts_list`` holds :class:`~repro.analysis.facts.ModuleFacts`
        in discovery order; unchanged files contribute cached facts, so
        parity keeps cross-file soundness without re-parsing them.
        """
        by_relpath = {facts.relpath: facts for facts in facts_list}
        vector = by_relpath.get(config.vector_path)
        if vector is None:
            # Nothing to compare against (e.g. a fixture tree without a
            # vector backend); registry parity is vacuously satisfied.
            return

        # name -> (relpath, line, col); first definition in discovery
        # order wins, matching the original tree walk.
        defs: Dict[str, Tuple[str, int, int]] = {}
        for facts in facts_list:
            if not config.is_core_path(facts.relpath):
                continue
            for name, line, col in facts.entity_defs:
                defs.setdefault(name, (facts.relpath, line, col))

        vector_words = set(vector.entity_words)
        for name, (relpath, line, col) in sorted(defs.items()):
            own_refs = {ref for ref, _, _ in by_relpath[relpath].entity_refs}
            if name not in own_refs:
                yield self._diagnostic(
                    relpath,
                    line,
                    col,
                    f"per-entity unit {name}() is not exercised by the "
                    "serial pipeline in its own module; the python path "
                    "must run every unit the vector backend accounts for",
                )
            if name not in vector_words:
                yield self._diagnostic(
                    relpath,
                    line,
                    col,
                    f"per-entity unit {name}() is unaccounted for in "
                    f"{config.vector_path}; dispatch it on the exceptional "
                    "path or name it in the replacement manifest",
                )

        vector_refs: Dict[str, Tuple[int, int]] = {}
        for name, line, col in vector.entity_refs:
            vector_refs.setdefault(name, (line, col))
        for name, (line, col) in sorted(vector_refs.items()):
            if name not in defs:
                yield self._diagnostic(
                    config.vector_path,
                    line,
                    col,
                    f"vector backend references {name}(), but no per-entity "
                    "unit with that name is defined in the core",
                )

    # ------------------------------------------------------------------

    def _diagnostic(self, path: str, line: int, col: int, message: str) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            message=message,
            path=path,
            line=line,
            col=col,
            severity=self.severity,
        )
