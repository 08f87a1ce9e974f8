"""Property tests for the engine's equivalence guarantees.

Two invariances the engine promises on either backend, checked over
randomized worlds:

1. **Batching invariance** -- replaying an epoch stream in one
   ``replay`` call equals validating the epochs one at a time.
2. **Cache-path invariance** -- an epoch served from a topology-cache
   hit equals the same epoch served by a cache miss, including after
   intervening topology changes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EpochInput, ValidationEngine, compare_reports

from tests.engine.conftest import random_epoch

backends = st.sampled_from(["python", "vector"])
world_seeds = st.integers(min_value=0, max_value=3)


@given(seed=world_seeds, backend=backends)
@settings(max_examples=12, deadline=None)
def test_epoch_batching_invariance(seed, backend):
    epochs = []
    for offset in (0, 10, 20):
        _, snapshot, inputs = random_epoch(8, seed + offset)
        epochs.append(EpochInput(snapshot=snapshot, inputs=inputs))
    topology = random_epoch(8, seed)[0]

    with ValidationEngine(topology, backend=backend) as batched:
        batch_reports = batched.replay(epochs)
    with ValidationEngine(topology, backend=backend) as stepped:
        step_reports = [stepped.validate(e.snapshot, e.inputs) for e in epochs]

    assert len(batch_reports) == len(step_reports) == 3
    for batch_report, step_report in zip(batch_reports, step_reports):
        assert not compare_reports(batch_report, step_report)


@given(seed=world_seeds, backend=backends)
@settings(max_examples=12, deadline=None)
def test_cache_hit_path_equals_cache_miss_path(seed, backend):
    """A hit-served epoch equals its miss-served twin, even after the
    reference topology changed in between."""
    topology_a, snapshot_a, inputs_a = random_epoch(8, seed)
    topology_b, snapshot_b, inputs_b = random_epoch(10, seed + 50)

    with ValidationEngine(topology_a, backend=backend) as engine:
        miss_report = engine.validate(snapshot_a, inputs_a)  # miss
        engine.validate(snapshot_b, inputs_b, topology=topology_b)  # miss
        hit_report = engine.validate(snapshot_a, inputs_a)  # hit
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses == 2
    assert not compare_reports(miss_report, hit_report)

    # And the hit-served report equals a completely fresh engine's.
    with ValidationEngine(topology_a, backend=backend) as fresh:
        assert not compare_reports(fresh.validate(snapshot_a, inputs_a), hit_report)
