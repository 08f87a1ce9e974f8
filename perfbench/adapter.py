"""The benchmark's one seam onto the program under test.

Every call the benchmark makes into ``repro`` -- fixture generation,
object construction, the measured runs, the serial oracle, and the
list of callables the traced run wraps -- lives in this module, so a
later change to a program knob or signature touches one place.  The
other benchmark modules never import ``repro``; a self-test enforces
that.

Fixtures follow the E15 soak (:func:`repro.stream.soak.run_soak`): an
80-node Waxman topology with gravity demand, telemetry collected once
and then churned per epoch by
:func:`repro.experiments.scale_study.churn_snapshot`.  The topology is
fixed (Waxman seed 0, the E15 shape); the run seed drives demand,
counter jitter, probes, churn and feed perturbations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.control.demand_service import records_from_matrix
from repro.control.infra import ControlPlane
import repro.core.vector.model  # noqa: F401 -- the lazy scipy import, paid before any timing
from repro.core.flow_repair import ConservationSystem
from repro.core.hardening import Hardener
from repro.core.pipeline import Hodor
from repro.engine import ValidationEngine
from repro.engine.cache import VectorModelStore
from repro.experiments import scale_study
from repro.fleet import FleetConfig, FleetSupervisor, TenantSpec, run_tenant
from repro.fleet import scenario as fleet_scenario
from repro.fleet.rollup import registry_from_exposition
from repro.history.sink import HistorySink
from repro.net.demand import gravity_demand
from repro.net.simulation import NetworkSimulator
from repro.stream import feed as feed_module
from repro.stream.assembler import EpochAssembler
from repro.stream.events import apply_update, reporting_routers, router_updates
from repro.stream.feed import Perturbations, RouterFeed
from repro.stream.fold import EventFolder
from repro.stream.ingest import IngestConfig, StreamPipeline
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import Jitter
from repro.telemetry.probes import ProbeEngine
from repro.telemetry.snapshot import NetworkSnapshot
from repro.topologies.synthetic import waxman_topology

#: E15's churn, spacing, lateness and perturbation settings.
CHURN = 0.10
EPOCH_SPACING_S = 10.0
LATENESS_S = 2.0
REORDER, DROP, DUPLICATE = 0.10, 0.01, 0.02
#: Bounded ingest queue with blocking backpressure: every workload is a
#: closed loop, producers wait for the single consumer.
QUEUE_SIZE = 256
BACKPRESSURE = "block"


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@dataclass
class Fixture:
    """One seeded telemetry timeline on one topology."""

    topology: object
    inputs: object
    epochs: List[Tuple[float, NetworkSnapshot]]


def build_fixture(
    nodes: int, epochs: int, seed: int, topology_seed: int, restamp: bool
) -> Fixture:
    """E15's fixture: simulate once, then churn ``epochs - 1`` times.

    With ``restamp`` every counter is re-stamped to its epoch's instant
    after churning (healthy telemetry); without it, counters that were
    not churned keep the instant they were last measured at, which is
    E15's timeline as the program builds it.
    """
    topology = waxman_topology(nodes, seed=topology_seed)
    demand = gravity_demand(topology.node_names(), total=4.0 * nodes, seed=seed)
    truth = NetworkSimulator(topology, demand, strategy="single").run()
    collector = TelemetryCollector(
        Jitter(0.005, seed=seed), probe_engine=ProbeEngine(seed=seed)
    )
    base = collector.collect(truth)
    inputs = ControlPlane(topology).compute_inputs(
        base, records_from_matrix(demand, seed=seed)
    )
    return Fixture(topology, inputs, churn_timeline(base, epochs, seed, restamp))


def churn_timeline(
    base: NetworkSnapshot, epochs: int, seed: int, restamp: bool
) -> List[Tuple[float, NetworkSnapshot]]:
    """``epochs`` snapshots: ``base`` at t=0, then one churn per epoch."""
    rng = random.Random(seed)
    snapshot = base.copy()
    snapshot.timestamp = 0.0
    if restamp:
        _restamp(snapshot)
    timeline = [(0.0, snapshot)]
    for index in range(1, epochs):
        timestamp = index * EPOCH_SPACING_S
        snapshot = scale_study.churn_snapshot(snapshot, CHURN, rng, timestamp)
        if restamp:
            _restamp(snapshot)
        timeline.append((timestamp, snapshot))
    return timeline


def _restamp(snapshot: NetworkSnapshot) -> None:
    for reading in snapshot.counters.values():
        reading.timestamp = snapshot.timestamp


def counters_fresh(fixture: Fixture) -> bool:
    """Every counter carries its own epoch's timestamp."""
    return all(
        reading.timestamp == timestamp
        for timestamp, snapshot in fixture.epochs
        for reading in snapshot.counters.values()
    )


def signal_count(snapshot: NetworkSnapshot) -> int:
    """Deliveries a feed would make for this snapshot (one per signal)."""
    return sum(
        len(router_updates(snapshot, router)) for router in reporting_routers(snapshot)
    )


def same_signal_keys(fixture: Fixture) -> bool:
    """Churn never adds or removes a signal: one count serves every epoch."""
    first = fixture.epochs[0][1]
    return all(
        snapshot.counters.keys() == first.counters.keys()
        and snapshot.link_status.keys() == first.link_status.keys()
        for _ts, snapshot in fixture.epochs
    )


# ----------------------------------------------------------------------
# stream-steady: feeds -> pipeline -> assembler (scatter) -> vector engine
# ----------------------------------------------------------------------


@dataclass
class StreamSystem:
    """A ready-to-run streaming pipeline and what it will report into."""

    fixture: Fixture
    feeds: Dict[str, RouterFeed]
    engine: ValidationEngine
    pipeline: StreamPipeline
    latencies_s: List[float] = field(default_factory=list)


def build_stream_system(fixture: Fixture, seed: int) -> StreamSystem:
    """Production path: merged deterministic producer, scatter seal,
    vector backend, no history sink."""
    feeds = feed_module.make_feeds(
        fixture.epochs,
        perturb=Perturbations(reorder=REORDER, drop=DROP, duplicate=DUPLICATE),
        seed=seed,
    )
    assembler = EpochAssembler(
        routers=list(feeds), lateness_s=LATENESS_S, build_snapshots=False
    )
    engine = ValidationEngine(fixture.topology, backend="vector")
    latencies: List[float] = []
    inputs = fixture.inputs
    pipeline = StreamPipeline(
        list(feeds.values()),
        assembler,
        engine,
        inputs_for=lambda _ts: inputs,
        config=IngestConfig(
            queue_size=QUEUE_SIZE, backpressure=BACKPRESSURE, deterministic=True
        ),
        on_epoch=lambda _epoch, _report, latency_s: latencies.append(latency_s),
    )
    return StreamSystem(fixture, feeds, engine, pipeline, latencies)


@dataclass
class StreamRun:
    """What one pipeline run produced, reduced to plain values."""

    wall_s: float
    updates: int
    latencies_s: List[float]
    epochs: List[Tuple[float, Tuple[object, ...]]]
    reports: List[str]
    duplicates: int
    late_dropped: int
    partial_epochs: int
    retries: int
    backpressure_dropped: int
    feed_dropped: int
    feed_duplicated: int


def run_stream(system: StreamSystem, clock: Callable[[], float]) -> StreamRun:
    """Run the pipeline once; only ``pipeline.run()`` is timed."""
    start = clock()
    result = system.pipeline.run()
    wall_s = clock() - start
    system.engine.close()
    return StreamRun(
        wall_s=wall_s,
        updates=result.updates,
        latencies_s=list(system.latencies_s),
        epochs=[(epoch.timestamp, epoch.events) for epoch in result.epochs],
        reports=[canonical(report) for report in result.reports],
        duplicates=result.duplicates,
        late_dropped=result.late_dropped,
        partial_epochs=result.partial_epochs,
        retries=result.retries,
        backpressure_dropped=result.backpressure_dropped,
        feed_dropped=sum(f.stats.dropped for f in system.feeds.values()),
        feed_duplicated=sum(f.stats.duplicated for f in system.feeds.values()),
    )


def snapshot_from_events(timestamp: float, events: Sequence[object]) -> NetworkSnapshot:
    """Rebuild a sealed epoch through the reference codec (``apply_update``),
    independent of the scatter fold under test."""
    snapshot = NetworkSnapshot(timestamp=timestamp)
    for event in events:
        apply_update(snapshot, event.path, event.value, event.meta)
    return snapshot


# ----------------------------------------------------------------------
# replay-stale: snapshots straight into the vector engine
# ----------------------------------------------------------------------


def build_replay_engine(fixture: Fixture) -> ValidationEngine:
    return ValidationEngine(fixture.topology, backend="vector")


def validate(engine: ValidationEngine, snapshot: NetworkSnapshot, inputs) -> object:
    return engine.validate(snapshot, inputs)


# ----------------------------------------------------------------------
# Oracle and canonical output
# ----------------------------------------------------------------------


def canonical(report) -> str:
    """Canonical verdict + provenance JSON of one validation report."""
    return json.dumps(
        {
            "verdicts": [
                [name, v.valid, v.num_violations, v.num_evaluated]
                for name, v in sorted(report.verdicts.items())
            ],
            "provenance": {
                name: record.to_dict() for name, record in report.provenance.items()
            },
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def oracle(topology) -> Hodor:
    """The serial per-entity reference validator."""
    return Hodor(topology)


def oracle_canonical(hodor: Hodor, snapshot: NetworkSnapshot, inputs) -> str:
    return canonical(hodor.validate(snapshot, inputs))


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------


def fleet_specs(tenants: int, nodes: int, epochs: int, seed: int) -> Tuple[TenantSpec, ...]:
    """Synthetic tenants seeded like :func:`repro.fleet.spec.synthetic_fleet`,
    on the production path with E15's perturbations and history on."""
    return tuple(
        TenantSpec(
            tenant=f"t{index:04d}",
            nodes=nodes,
            epochs=epochs,
            seed=seed + index * 1009,
            backend="vector",
            scatter=True,
            reorder=REORDER,
            drop=DROP,
            duplicate=DUPLICATE,
            queue_size=QUEUE_SIZE,
            history=True,
        )
        for index in range(tenants)
    )


def fleet_supervisor(specs, workers: int, store_dir: str) -> FleetSupervisor:
    return FleetSupervisor(specs, FleetConfig(workers=workers, store_dir=store_dir))


@dataclass
class TenantOutcome:
    status: str
    fingerprints: Tuple[str, ...]
    latencies_s: Tuple[float, ...]
    updates: int
    epochs_sealed: int
    reschedules: int


@dataclass
class FleetRun:
    wall_s: float
    tenants: Dict[str, TenantOutcome]
    errors: int
    crashes: int
    rollup: Dict[str, float]


def run_fleet(supervisor: FleetSupervisor, clock: Callable[[], float]) -> FleetRun:
    """Run the fleet once; only ``supervisor.run()`` is timed."""
    start = clock()
    result = supervisor.run()
    wall_s = clock() - start
    tenants = {
        tenant: TenantOutcome(
            status=summary.status,
            fingerprints=tuple(d.fingerprint for d in summary.digests),
            latencies_s=tuple(summary.latencies_s),
            updates=summary.updates,
            epochs_sealed=summary.epochs_sealed,
            reschedules=summary.reschedules,
        )
        for tenant, summary in result.tenants.items()
    }
    return FleetRun(
        wall_s=wall_s,
        tenants=tenants,
        errors=len(result.errors),
        crashes=result.crashes,
        rollup=_flat_samples(result.metrics),
    )


def run_tenant_standalone(
    spec: TenantSpec, store_path: Optional[str]
) -> Tuple[Tuple[str, ...], Dict[str, float]]:
    """The fleet == standalone comparator: same spec, same code path.

    Returns the per-epoch digest fingerprints and the tenant's own
    metrics samples.
    """
    run = run_tenant(spec, store_path=store_path)
    return (
        tuple(d.fingerprint for d in run.digests),
        _flat_samples(registry_from_exposition(run.exposition)),
    )


def _flat_samples(registry) -> Dict[str, float]:
    """Registry samples keyed ``name`` or ``name/label=value``."""
    flat: Dict[str, float] = {}
    for name, labels, value in registry.samples():
        key = name + "".join(f"/{k}={v}" for k, v in sorted(labels.items()))
        flat[key] = value
    return flat


# ----------------------------------------------------------------------
# Engine statistics
# ----------------------------------------------------------------------


def engine_totals(stats_objects: Sequence[object]) -> Dict[str, float]:
    """Stage seconds and reuse counts summed over engines."""
    totals = {"collect": 0.0, "harden": 0.0, "check": 0.0, "reused": 0.0, "recomputed": 0.0}
    for stats in stats_objects:
        for stage in ("collect", "harden", "check"):
            totals[stage] += stats.stage_seconds.get(stage, 0.0)
        totals["reused"] += stats.total_entities_reused
        totals["recomputed"] += stats.total_entities_recomputed
    return totals


# ----------------------------------------------------------------------
# Traced callables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TracePoint:
    """One callable the traced run wraps.

    Attributes:
        owner: Class or module the callable is an attribute of.
        attr: Attribute name.
        span: Span name the wrapper records.
        pre: Optional ``pre(args) -> token``, called before the call.
        post: Optional ``post(rec, args, result, token, seconds)``.
        is_async: The callable is a coroutine function.
    """

    owner: object
    attr: str
    span: str
    pre: Optional[Callable] = None
    post: Optional[Callable] = None
    is_async: bool = False


def _offer_pre(args):
    assembler = args[0]
    return (assembler.late_dropped, assembler.duplicates)


def _offer_post(rec, args, result, token, _seconds):
    assembler, event = args[0], args[1]
    now = rec.now()
    if (assembler.late_dropped, assembler.duplicates) == token:
        rec.state[("accepted", id(assembler), event.epoch_ts)] = now
    _sealed_post(rec, args, result, None, 0.0)


def _sealed_post(rec, args, result, _token, _seconds):
    """Watermark wait: last accepted delivery of an epoch -> its seal."""
    assembler = args[0]
    now = rec.now()
    for epoch in result:
        accepted = rec.state.pop(("accepted", id(assembler), epoch.timestamp), None)
        if accepted is not None:
            rec.sample("assembler.watermark_wait", now - accepted)


def _delivery_post(rec, _args, result, _token, _seconds):
    if result is not None:
        rec.count("feed.deliveries")


def _feeds_post(rec, _args, result, _token, _seconds):
    rec.count("feed.dropped", sum(feed.stats.dropped for feed in result.values()))


def _validate_post(rec, args, _result, _token, _seconds):
    engine = args[0]
    rec.state.setdefault("engines", {})[id(engine)] = engine.stats


def _model_get_pre(args):
    return args[0].misses


def _model_get_post(rec, args, _result, token, seconds):
    if args[0].misses > token:
        rec.add("engine.model_compile", seconds)


def _solve_post(rec, _args, result, _token, _seconds):
    rec.count("r2.unknowns", result.num_unknowns)
    rec.count("r2.rank", result.rank)


def _run_async_post(rec, _args, _result, _token, _seconds):
    rec.state["run_async_end"] = rec.now()


def _run_post(rec, _args, _result, _token, _seconds):
    ended = rec.state.pop("run_async_end", None)
    if ended is not None:
        rec.add("ingest.teardown", rec.now() - ended)


def trace_points() -> Tuple[TracePoint, ...]:
    """Every callable the traced run wraps, by layer."""
    return (
        # setup: net, telemetry, control, stream.feed
        TracePoint(NetworkSimulator, "run", "setup.simulate"),
        TracePoint(scale_study, "churn_snapshot", "setup.churn"),
        TracePoint(feed_module, "make_feeds", "setup.feeds", post=_feeds_post),
        TracePoint(fleet_scenario, "build_workload", "fleet.build_workload"),
        # stream.feed
        TracePoint(RouterFeed, "next_event", "feed.next_event", post=_delivery_post),
        # stream.ingest
        TracePoint(StreamPipeline, "run", "ingest.run", post=_run_post),
        TracePoint(
            StreamPipeline, "run_async", "ingest.run_async",
            post=_run_async_post, is_async=True,
        ),
        # stream.assembler
        TracePoint(EpochAssembler, "offer", "assembler.offer", pre=_offer_pre, post=_offer_post),
        TracePoint(EpochAssembler, "mark_done", "assembler.mark_done", post=_sealed_post),
        TracePoint(EpochAssembler, "drain", "assembler.drain", post=_sealed_post),
        TracePoint(EpochAssembler, "watermark", "assembler.watermark"),
        # stream.fold
        TracePoint(EventFolder, "fold", "fold.fold"),
        # engine
        TracePoint(ValidationEngine, "validate", "engine.validate", post=_validate_post),
        TracePoint(
            VectorModelStore, "get", "engine.model_get",
            pre=_model_get_pre, post=_model_get_post,
        ),
        # R2 (core.hardening, core.flow_repair)
        TracePoint(Hardener, "repair_flows", "r2.repair"),
        TracePoint(ConservationSystem, "solve", "r2.solve", post=_solve_post),
        # history
        TracePoint(HistorySink, "record", "history.record"),
    )
