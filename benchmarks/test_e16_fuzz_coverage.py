"""E16: fuzz coverage and mutation kill.

The scenario fuzzer is the repo's first harness that *searches* for
bugs instead of pinning known ones, so its own value needs measuring:

* a seed-pinned 40-case campaign must run green on the current tree
  while exercising the whole injector palette (coverage);
* a deliberately planted mode-divergence bug -- one verdict flipped in
  one execution path via the oracle's hooks seam -- must be found
  within the campaign and shrunk to the acceptance bounds of at most
  3 epochs and at most 2 faults (mutation kill), for each of the
  three execution paths.

Case caps, not wall-clock budgets, bound the campaign, so every
number here is machine-independent.
"""

from repro.experiments import FuzzCoverageStudy, format_table

CASES = 40
MUTATION_MAX_CASES = 60
MODES = ("full", "vector", "streamed")


def test_fuzz_coverage_and_mutation_kill(benchmark, write_result):
    study = FuzzCoverageStudy(seed=0)

    def run():
        report, census = study.run_coverage(cases=CASES)
        mutation = study.run_mutation(modes=MODES, max_cases=MUTATION_MAX_CASES)
        return report, census, mutation

    report, census, mutation = benchmark.pedantic(run, rounds=1, iterations=1)

    census_table = format_table(
        ["fault kind", "cases"],
        [[row.fault, row.cases] for row in census],
    )
    mutation_table = format_table(
        ["planted in", "cases to find", "epochs", "faults", "oracle checks"],
        [
            [
                row.mode,
                row.cases_to_find,
                row.shrunk_epochs,
                row.shrunk_faults,
                row.checks,
            ]
            for row in mutation
        ],
    )
    write_result(
        "E16_fuzz_coverage",
        f"campaign: {report.cases} cases, {report.failures} failures, "
        f"{len(census)} distinct fault kinds\n\n"
        f"{census_table}\n\nmutation kill\n{mutation_table}",
    )

    # The current tree is green under tri-modal fuzzing.
    assert report.cases == CASES
    assert report.failures == 0
    # The generator exercises a broad slice of the palette.
    assert len(census) >= 12
    # Every planted mode-divergence is found and shrunk within the
    # acceptance bounds (<= 3 epochs, <= 2 faults).
    assert len(mutation) == len(MODES)
    for row in mutation:
        assert row.cases_to_find > 0, f"{row.mode}: planted bug never found"
        assert row.shrunk_epochs <= 3, row
        assert row.shrunk_faults <= 2, row
        assert row.reductions > 0, row
