"""E16: what the scenario fuzzer actually covers, and what it kills.

Two measurements back the fuzz harness's value claim:

* **Coverage**: a bounded campaign over generated worlds -- how many
  distinct fault/bug kinds the generator exercised, how often, and
  that the tri-modal oracle agreed on every case (the current tree is
  green under fuzzing).
* **Mutation kill**: plant the canonical mode-divergence bug (a
  verdict flip in one execution path, via the oracle's hooks seam) and
  measure how many generated cases the campaign needs to find it and
  how small the shrinker makes the reproducer.  This is the harness
  testing itself: a fuzzer that cannot find a planted bug finds no
  real ones either.

Everything is seed-pinned; the campaign uses case caps rather than
wall-clock budgets so the measured numbers are machine-independent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.fuzz import FuzzReport, TriModalOracle

__all__ = ["FuzzCensusRow", "MutationRow", "FuzzCoverageStudy", "flip_one_verdict"]


@dataclass(frozen=True)
class FuzzCensusRow:
    """One fault/bug kind's appearance count across a campaign."""

    fault: str
    cases: int


@dataclass(frozen=True)
class MutationRow:
    """One planted mode-divergence bug and how the harness killed it."""

    mode: str
    cases_to_find: int
    shrunk_epochs: int
    shrunk_faults: int
    checks: int
    reductions: int


def flip_one_verdict(index: int, report):
    """The canonical planted bug: flip one verdict whenever hardening
    produced findings.  Keyed to findings so benign epochs still agree
    across modes -- the shrinker must keep the triggering fault."""
    if not report.hardened.findings or not report.verdicts:
        return report
    name = sorted(report.verdicts)[0]
    verdicts = dict(report.verdicts)
    verdicts[name] = dataclasses.replace(
        verdicts[name], valid=not verdicts[name].valid
    )
    return dataclasses.replace(report, verdicts=verdicts)


class FuzzCoverageStudy:
    """Seed-pinned fuzz-campaign measurements for E16."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # ------------------------------------------------------------------

    def run_coverage(self, cases: int = 40) -> Tuple["FuzzReport", List[FuzzCensusRow]]:
        """A bounded campaign on the clean tree: every case must pass,
        and the census shows which injector kinds were exercised."""
        # Imported lazily: repro.fuzz itself imports repro.scenarios,
        # whose package init pulls this module back in via
        # repro.experiments -- a module-level import here would cycle.
        from repro.fuzz import FuzzRunner

        runner = FuzzRunner(
            seed=self.seed, budget_s=None, max_cases=cases, shrink=False
        )
        report = runner.run()
        rows = [
            FuzzCensusRow(fault=name, cases=report.fault_census[name])
            for name in sorted(report.fault_census)
        ]
        return report, rows

    # ------------------------------------------------------------------

    def run_mutation(
        self,
        modes: Sequence[str] = ("full", "vector", "streamed"),
        max_cases: int = 60,
    ) -> List[MutationRow]:
        """Plant the verdict-flip bug in each mode in turn; report the
        cases needed to find it and the shrunk reproducer's size."""
        from repro.fuzz import Shrinker, TriModalOracle

        rows: List[MutationRow] = []
        for mode in modes:
            oracle = TriModalOracle(hooks={mode: flip_one_verdict})
            found = self._first_failure(oracle, max_cases)
            if found is None:
                rows.append(
                    MutationRow(
                        mode=mode,
                        cases_to_find=-1,
                        shrunk_epochs=0,
                        shrunk_faults=0,
                        checks=0,
                        reductions=0,
                    )
                )
                continue
            case_index, spec = found
            shrunk = Shrinker(oracle).shrink(spec)
            rows.append(
                MutationRow(
                    mode=mode,
                    cases_to_find=case_index + 1,
                    shrunk_epochs=shrunk.spec.num_epochs,
                    shrunk_faults=shrunk.total_faults,
                    checks=shrunk.checks,
                    reductions=shrunk.reductions,
                )
            )
        return rows

    def _first_failure(self, oracle: "TriModalOracle", max_cases: int):
        """Walk the same seed-derived case stream a campaign would and
        return the first failing (index, spec), or None."""
        import random

        from repro.fuzz import CaseGenerator

        generator = CaseGenerator()
        master = random.Random(self.seed)
        for case_index in range(max_cases):
            spec = generator.generate(master.randrange(2**32))
            if oracle.run(spec).failed:
                return case_index, spec
        return None
