"""Differential tests for the array-compiled vector backend.

The vector backend's contract is total observational equivalence: for
every snapshot the per-entity reference units can validate, the
array-compiled path must produce a byte-identical
:class:`~repro.core.report.ValidationReport` *and* identical
:class:`~repro.obs.provenance.VerdictProvenance` records -- on
priming epochs, on deltas, and on identical-snapshot replays.  These tests pin that contract over the
whole outage catalog, randomized worlds, and hypothesis-driven fuzz
timelines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ValidationEngine, compare_reports
from repro.fuzz.generate import CaseGenerator
from repro.scenarios.catalog import all_scenarios

from tests.engine.conftest import random_epoch


def _provenance_dict(report):
    return {name: record.to_dict() for name, record in report.provenance.items()}


def assert_reports_identical(reference, candidate, context=""):
    diffs = compare_reports(reference, candidate)
    assert not diffs, f"{context}: {diffs[:5]}"
    assert _provenance_dict(reference) == _provenance_dict(candidate), (
        f"{context}: provenance diverged"
    )


def _scenario_ids():
    return [s.scenario_id for s in all_scenarios()]


class TestCatalogParity:
    """Every catalog scenario, serial reference vs vector engine."""

    @pytest.mark.parametrize("scenario_id", _scenario_ids())
    def test_timeline_parity(self, scenario_id):
        scenario = next(
            s for s in all_scenarios() if s.scenario_id == scenario_id
        )
        world = scenario.build(seed=7)
        with ValidationEngine(
            world.topology,
            config=world.hodor_config,
            backend="vector",
        ) as engine:
            for epoch in range(3):
                outcome = world.run_epoch(timestamp=float(epoch))
                report = engine.validate(outcome.snapshot, outcome.inputs)
                assert_reports_identical(
                    outcome.report,
                    report,
                    context=f"{scenario_id} epoch {epoch}",
                )
            assert engine.stats.backend == "vector"
            assert engine.stats.epochs == 3


class TestRandomWorlds:
    """Random Waxman worlds, clean and corrupted."""

    @pytest.mark.parametrize(
        "size,seed,corrupted",
        [(6, 0, False), (8, 1, False), (12, 2, True), (16, 3, True)],
    )
    def test_single_epoch_parity(self, size, seed, corrupted):
        topology, snapshot, inputs = random_epoch(size, seed, corrupted=corrupted)
        with ValidationEngine(topology) as serial:
            reference = serial.validate(snapshot, inputs)
        with ValidationEngine(topology, backend="vector") as engine:
            report = engine.validate(snapshot, inputs)
        assert_reports_identical(
            reference, report, context=f"size={size} seed={seed}"
        )

    def test_identical_snapshot_replay(self):
        """Replaying the same snapshot object takes the wholesale
        short-circuit and still reproduces the serial report exactly."""
        topology, snapshot, inputs = random_epoch(10, 4)
        with ValidationEngine(topology) as serial:
            reference = serial.validate(snapshot, inputs)
        with ValidationEngine(topology, backend="vector") as engine:
            for replay in range(3):
                report = engine.validate(snapshot, inputs)
                assert_reports_identical(
                    reference, report, context=f"replay {replay}"
                )

    def test_vector_records_reuse_on_replay(self):
        """Unlike the python path, the vector backend is delta-aware:
        an identical replay shows up as reused entities in the stats."""
        topology, snapshot, inputs = random_epoch(10, 5)
        with ValidationEngine(topology, backend="vector") as engine:
            engine.validate(snapshot, inputs)
            primed = engine.stats.total_entities_reused
            engine.validate(snapshot, inputs)
            assert engine.stats.total_entities_reused > primed

    def test_model_compiles_once_per_topology(self):
        topology, snapshot, inputs = random_epoch(8, 6)
        with ValidationEngine(topology, backend="vector") as engine:
            for _ in range(4):
                engine.validate(snapshot, inputs)
            store = engine._model_store
            assert store.misses == 1
            assert len(store) == 1

    def test_unknown_backend_rejected(self):
        topology, _, _ = random_epoch(6, 0)
        with pytest.raises(ValueError, match="backend"):
            ValidationEngine(topology, backend="numpy")


class TestFuzzTimelineParity:
    """Hypothesis-driven fault timelines through the vector backend.

    The :class:`~repro.fuzz.generate.CaseGenerator` draws multi-epoch
    timelines over the whole fault palette (malformed telemetry, probe
    outages, aggregation bugs, drain intent faults, ...), which is
    exactly the input space where the vector backend's exceptional
    routes -- serial fallbacks for non-finite readings, out-of-universe
    links, malformed drains -- must stay finding-identical.
    """

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=12, deadline=None)
    def test_generated_timeline_parity(self, seed):
        spec = CaseGenerator().generate(seed)
        epochs = []
        references = []
        for index in range(spec.num_epochs):
            world = spec.world_for_epoch(index)
            outcome = world.run_epoch(timestamp=spec.timestamp_for(index))
            epochs.append((outcome.snapshot, outcome.inputs))
            references.append(outcome.report)
        with ValidationEngine(
            spec.topology, config=spec.hodor_config, backend="vector"
        ) as engine:
            for index, (snapshot, inputs) in enumerate(epochs):
                report = engine.validate(snapshot, inputs)
                assert_reports_identical(
                    references[index],
                    report,
                    context=f"seed={seed} epoch={index}",
                )
