"""The oracle's vector differential mode: the array-compiled backend.

These tests pin that (a) the mode exists and runs clean timelines
cleanly, and (b) it is load-bearing -- a bug planted in the vector path
(via the hooks seam) is attributed to the ``vector`` mode, not masked
by the other two.
"""

import dataclasses

from repro.fuzz import CaseGenerator, TriModalOracle


def _flip_first_verdict(_index, report):
    if not report.verdicts:
        return report
    name = sorted(report.verdicts)[0]
    verdicts = dict(report.verdicts)
    verdicts[name] = dataclasses.replace(
        verdicts[name], valid=not verdicts[name].valid
    )
    return dataclasses.replace(report, verdicts=verdicts)


class TestVectorMode:
    def test_vector_is_a_registered_mode(self):
        assert "vector" in TriModalOracle.MODES

    def test_clean_timelines_pass_all_three_modes(self):
        oracle = TriModalOracle()
        for seed in (0, 1, 2):
            result = oracle.run(CaseGenerator().generate(seed))
            assert result.passed, result.detail()

    def test_planted_vector_bug_is_attributed_to_vector_mode(self):
        oracle = TriModalOracle(hooks={"vector": _flip_first_verdict})
        result = oracle.run(CaseGenerator().generate(0))
        assert result.failed
        assert result.kind == "divergence"
        assert {d.mode for d in result.divergences} == {"vector"}
