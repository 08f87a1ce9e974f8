"""The in-fleet vs standalone differential (acceptance bar).

Catalog scenarios run as fleet tenants must produce digests --
verdicts, provenance, fingerprints -- identical to the same spec run
standalone through :func:`repro.fleet.scenario.run_tenant`, and the
standalone digests must in turn match a direct single-engine batch
run.  Both engine backends are covered, so the full chain batch ==
standalone stream == in-fleet holds for each.

One supervisor run carries the whole matrix (3 scenarios x 2 backends
= 6 tenants over 2 workers) -- the differential is
per-tenant, so multiplexing them is itself part of the test: tenants
must not bleed into each other's verdicts.
"""

import pytest

from repro.fleet import (
    FleetConfig,
    FleetSupervisor,
    TenantSpec,
    digest_report,
    run_tenant,
)
from repro.scenarios.catalog import scenario_by_id

SCENARIOS = ("S01", "S08", "S16")
EPOCHS = 3


def _matrix_specs():
    specs = []
    for scenario in SCENARIOS:
        for backend in ("python", "vector"):
            specs.append(
                TenantSpec(
                    tenant=f"{scenario}-{backend}",
                    scenario=scenario,
                    epochs=EPOCHS,
                    seed=11,
                    backend=backend,
                )
            )
    return specs


@pytest.fixture(scope="module")
def fleet_result():
    specs = _matrix_specs()
    supervisor = FleetSupervisor(specs, FleetConfig(workers=2))
    return supervisor.run()


def test_all_matrix_tenants_complete(fleet_result):
    assert fleet_result.statuses() == {"done": len(SCENARIOS) * 2}
    assert fleet_result.errors == []
    assert fleet_result.crashes == 0
    for summary in fleet_result.tenants.values():
        assert summary.epochs_sealed == EPOCHS
        assert len(summary.digests) == EPOCHS


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend", ["python", "vector"])
def test_in_fleet_matches_standalone(fleet_result, scenario, backend):
    """Fleet digests byte-match a standalone run of the same spec."""
    tenant = f"{scenario}-{backend}"
    spec = TenantSpec(
        tenant=tenant,
        scenario=scenario,
        epochs=EPOCHS,
        seed=11,
        backend=backend,
    )
    standalone = run_tenant(spec)
    in_fleet = fleet_result.tenants[tenant].digests
    assert len(in_fleet) == len(standalone.digests) == EPOCHS
    for fleet_digest, solo_digest in zip(in_fleet, standalone.digests):
        assert fleet_digest.fingerprint == solo_digest.fingerprint
        assert fleet_digest.verdicts == solo_digest.verdicts
        assert fleet_digest.provenance_json == solo_digest.provenance_json


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fleet_matches_single_engine_batch(fleet_result, scenario):
    """Fleet verdicts and provenance == a direct batch engine run.

    This anchors the differential chain: the world's own ``run_epoch``
    reports (single engine, no streaming, no fleet) digest to the same
    verdict and provenance payloads the fleet shipped.
    """
    for backend in ("python", "vector"):
        tenant = f"{scenario}-{backend}"
        in_fleet = fleet_result.tenants[tenant].digests
        batch_world = scenario_by_id(scenario).build(seed=11)
        for index, fleet_digest in enumerate(in_fleet):
            outcome = batch_world.run_epoch(timestamp=float(index) * 10.0)
            batch = digest_report(tenant, _BatchEpoch(outcome), outcome.report)
            assert fleet_digest.verdicts == batch.verdicts, (
                f"{tenant} epoch {index}: verdicts diverged from batch"
            )
            assert fleet_digest.provenance_json == batch.provenance_json, (
                f"{tenant} epoch {index}: provenance diverged from batch"
            )


class _BatchEpoch:
    """Adapts a batch EpochOutcome to digest_report's epoch interface."""

    def __init__(self, outcome):
        self.timestamp = outcome.snapshot.timestamp
        self.sealed_by = "watermark"
        self.complete = True
        self.updates = 0
        self.duplicates = 0
        self.missing = ()


def test_fleet_run_is_deterministic():
    """Two supervisor runs of the same small fleet produce identical
    digest fingerprints in identical order (deterministic drain)."""
    specs = [
        TenantSpec(tenant="S01-a", scenario="S01", epochs=2, seed=5),
        TenantSpec(tenant="S16-b", scenario="S16", epochs=2, seed=5),
        TenantSpec(tenant="syn-c", nodes=8, epochs=3, seed=5),
    ]
    first = FleetSupervisor(specs, FleetConfig(workers=2)).run()
    second = FleetSupervisor(specs, FleetConfig(workers=2)).run()
    assert first.statuses() == second.statuses() == {"done": 3}
    for tenant in first.tenants:
        a = [d.fingerprint for d in first.tenants[tenant].digests]
        b = [d.fingerprint for d in second.tenants[tenant].digests]
        assert a == b and a
