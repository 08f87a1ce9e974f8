"""The three workloads: set-up, one measured run, checks and layer split.

Each workload is a closed loop: one caller per pipeline, and inside a
pipeline the feed producer is held back by the bounded ingest queue
(256 deliveries, ``block`` backpressure), so a slower validator means
less offered load, never a growing backlog.  ``replay-stale`` has no
queue: one caller validates one snapshot after another.

* ``stream-steady`` -- E15's 80-node shape on the production path
  (merged deterministic producer, scatter seal, vector backend) with
  healthy telemetry: every counter re-stamped to its epoch.
* ``replay-stale`` -- the same topology with E15's churn as the program
  builds it, so counters that were not churned go stale after epoch 6
  and R2 repair dominates.  Snapshots go straight into the engine.
* ``fleet`` -- a ``FleetSupervisor`` with one worker per CPU running
  synthetic 20-node tenants with history stores.
"""

from __future__ import annotations

import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import adapter
from perfbench.metrics import p50
from perfbench.trace import Tracer

CLOCK = time.perf_counter
#: Waxman seed of the E15 topology; the run seed drives everything else.
TOPOLOGY_SEED = 0
#: With 10 s spacing and a 60 s staleness limit, counters that were not
#: churned are stale from epoch 7 on.
STALE_FROM_EPOCH = 7


@dataclass(frozen=True)
class Sizes:
    """Workload sizes, and the nominal seconds of one repeat (set-up plus
    run) of each.  ``--seconds`` divided by the nominal length fixes the
    repeat count, so the pooled latency sample does not grow or shrink
    with how fast the machine happens to run.  ``stream-steady`` runs
    four short repeats rather than two long ones: on a shared host the
    speed of the machine shifts for several seconds at a time, so the
    epochs of one repeat's run mostly see one such phase, and each
    epoch's latency averaged over repeats (``metrics.epoch_means``)
    needs several of them.  The fleet's nominal length keeps it at two
    repeats in a 36 s run: each repeat has 2-4 latency outliers from
    full collections in the workers, and more repeats would push them
    past the 10 samples the tail leaves beyond it."""

    stream_rep_s: float = 9.0
    replay_rep_s: float = 8.5
    fleet_rep_s: float = 16.0
    stream_nodes: int = 80
    stream_epochs: int = 8
    replay_nodes: int = 80
    replay_epochs: int = 48
    reference_epochs: int = 2
    tenants: int = 24
    tenant_nodes: int = 20
    tenant_epochs: int = 20
    fleet_setups: int = 25


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(
        stream_rep_s=1.0, replay_rep_s=1.0, fleet_rep_s=1.0,
        stream_nodes=12, stream_epochs=4, replay_nodes=12, replay_epochs=10,
        reference_epochs=2, tenants=3, tenant_nodes=8, tenant_epochs=4, fleet_setups=3,
    ),
}


@dataclass
class Rep:
    """One set-up plus one measured run."""

    wall_s: float
    updates: int
    validated: int
    expected: int
    latencies_s: List[float]
    outcome: object
    setup_s: List[float] = field(default_factory=list)
    setup_rss_mb: float = 0.0
    peak_rss_mb: float = 0.0
    failed: int = 0


def maxrss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _guard(value, ok: bool, rule: str) -> Dict[str, object]:
    return {"value": value, "ok": bool(ok), "rule": rule}


class Workload:
    name = ""
    setup_repeats = 1
    rep_seconds = 1.0

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def run(self, system) -> Rep:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return maxrss_mb()

    def verify(self, rep: Rep) -> int:
        """Check one repeat's outputs (outside the timed run); returns
        the epochs that failed."""
        raise NotImplementedError

    def guards(self) -> Dict[str, Dict[str, object]]:
        """Whether the workload still exercises what it was chosen for."""
        raise NotImplementedError

    def layers(self, rec, traced: Rep) -> Dict[str, float]:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        raise NotImplementedError


def _engine_layers(rec) -> Dict[str, float]:
    """engine.* and r2.* from one recorder."""
    engines = rec.state.get("engines", {})
    stages = adapter.engine_totals(list(engines.values()))
    validate_s = rec.busy["engine.validate"]
    repair_s = rec.busy["r2.repair"]
    staged = stages["collect"] + stages["harden"] + stages["check"]
    looked_at = stages["reused"] + stages["recomputed"]
    unknowns = rec.counts["r2.unknowns"]
    return {
        "engine.validate_s": validate_s,
        "engine.collect_s": stages["collect"],
        "engine.harden_s": stages["harden"],
        "engine.check_s": stages["check"],
        "engine.harden_other_s": stages["harden"] - repair_s,
        "engine.overhead_s": validate_s - staged,
        "engine.model_compile_s": rec.busy["engine.model_compile"],
        "engine.reuse_ratio": stages["reused"] / looked_at if looked_at else 0.0,
        "r2.repair_s": repair_s,
        "r2.solve_s": rec.busy["r2.solve"],
        "r2.solves": float(rec.calls["r2.solve"]),
        "r2.unknowns": unknowns,
        "r2.identified_frac": rec.counts["r2.rank"] / unknowns if unknowns else 0.0,
    }


def _stream_layers(rec) -> Dict[str, float]:
    """setup.*, feed.*, ingest time, assembler time and fold from one recorder."""
    teardown = rec.busy["ingest.teardown"]
    waits = rec.samples["assembler.watermark_wait"]
    return {
        "setup.simulate_s": rec.busy["setup.simulate"],
        "setup.churn_s": rec.busy["setup.churn"],
        "setup.feeds_s": rec.busy["setup.feeds"],
        "feed.next_event_s": rec.busy["feed.next_event"],
        "feed.deliveries": rec.counts["feed.deliveries"],
        "feed.dropped": rec.counts["feed.dropped"],
        "ingest.teardown_s": teardown,
        "ingest.self_s": rec.self_s["ingest.run"] - teardown if rec.calls["ingest.run"] else 0.0,
        "assembler.offer_s": rec.busy["assembler.offer"],
        "assembler.offers": float(rec.calls["assembler.offer"]),
        "assembler.watermark_s": rec.busy["assembler.watermark"],
        "assembler.watermark_calls": float(rec.calls["assembler.watermark"]),
        "assembler.watermark_wait_p50_ms": 1000.0 * p50(waits),
        "fold.fold_s": rec.busy["fold.fold"],
        "history.record_s": rec.busy["history.record"],
        "history.records": float(rec.calls["history.record"]),
    }


def _absent_layers() -> Dict[str, float]:
    """Layers a workload bypasses read zero."""
    return {
        name: 0.0
        for name in (
            "ingest.retries", "ingest.backpressure_dropped", "assembler.duplicates",
            "assembler.late_dropped", "assembler.partial_epochs", "history.store_bytes",
            "fleet.tenant_build_s", "fleet.engine_collect_s", "fleet.engine_harden_s",
            "fleet.engine_check_s", "fleet.history_epochs_written",
            "fleet.history_store_bytes", "fleet.crashes", "fleet.reschedules",
        )
    }


class _Oracle:
    """Serial ``Hodor`` verdicts, computed once per distinct snapshot."""

    def __init__(self) -> None:
        self._hodor = None
        self._cache: Dict[float, Tuple[object, str]] = {}

    def canonical(self, topology, snapshot, inputs) -> str:
        cached = self._cache.get(snapshot.timestamp)
        if cached is None or cached[0] != snapshot:
            if self._hodor is None:
                self._hodor = adapter.oracle(topology)
            cached = (snapshot, adapter.oracle_canonical(self._hodor, snapshot, inputs))
            self._cache[snapshot.timestamp] = cached
        return cached[1]


# ----------------------------------------------------------------------


@dataclass
class _StreamOutcome:
    run: adapter.StreamRun
    topology: object
    inputs: object
    counters_fresh: bool


class StreamSteady(Workload):
    name = "stream-steady"

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        super().__init__(sizes, seed, workdir)
        self.rep_seconds = sizes.stream_rep_s
        self._oracle = _Oracle()
        self._facts: List[Tuple[bool, int, int]] = []

    def setup(self):
        fixture = adapter.build_fixture(
            self.sizes.stream_nodes, self.sizes.stream_epochs, self.seed,
            TOPOLOGY_SEED, restamp=True,
        )
        return adapter.build_stream_system(fixture, self.seed)

    def run(self, system) -> Rep:
        out = adapter.run_stream(system, CLOCK)
        fixture = system.fixture
        return Rep(
            wall_s=out.wall_s,
            updates=out.updates,
            validated=len(out.reports),
            expected=len(fixture.epochs),
            latencies_s=out.latencies_s,
            outcome=_StreamOutcome(
                out, fixture.topology, fixture.inputs, adapter.counters_fresh(fixture)
            ),
        )

    def verify(self, rep: Rep) -> int:
        outcome = rep.outcome
        run = outcome.run
        failed = rep.expected - rep.validated
        for (timestamp, events), got in zip(run.epochs, run.reports):
            snapshot = adapter.snapshot_from_events(timestamp, events)
            if got != self._oracle.canonical(outcome.topology, snapshot, outcome.inputs):
                failed += 1
        self._facts.append((outcome.counters_fresh, run.feed_dropped, run.feed_duplicated))
        return failed

    def guards(self) -> Dict[str, Dict[str, object]]:
        fresh = all(fact[0] for fact in self._facts)
        dropped = min(fact[1] for fact in self._facts)
        duplicated = min(fact[2] for fact in self._facts)
        return {
            "counters_fresh": _guard(fresh, fresh, "every counter carries its epoch's timestamp"),
            "feed_dropped": _guard(dropped, dropped > 0, "feeds drop deliveries"),
            "feed_duplicated": _guard(duplicated, duplicated > 0, "feeds duplicate deliveries"),
        }

    def layers(self, rec, traced: Rep) -> Dict[str, float]:
        run = traced.outcome.run
        values = _absent_layers()
        values.update(_stream_layers(rec))
        values.update(_engine_layers(rec))
        values.update({
            "ingest.retries": float(run.retries),
            "ingest.backpressure_dropped": float(run.backpressure_dropped),
            "assembler.duplicates": float(run.duplicates),
            "assembler.late_dropped": float(run.late_dropped),
            "assembler.partial_epochs": float(run.partial_epochs),
        })
        return values

    def describe(self) -> Dict[str, object]:
        return {
            "nodes": self.sizes.stream_nodes, "epochs": self.sizes.stream_epochs,
            "topology_seed": TOPOLOGY_SEED, "queue": [adapter.QUEUE_SIZE, adapter.BACKPRESSURE],
            "perturb": [adapter.REORDER, adapter.DROP, adapter.DUPLICATE],
        }


# ----------------------------------------------------------------------


@dataclass
class _ReplayOutcome:
    fixture: adapter.Fixture
    reports: List[str]


class ReplayStale(Workload):
    name = "replay-stale"

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        super().__init__(sizes, seed, workdir)
        self.rep_seconds = sizes.replay_rep_s
        self._signals: Optional[int] = None
        self._oracle = _Oracle()
        self._unknowns: Optional[List[float]] = None
        self._reference = 0.0

    def setup(self):
        fixture = adapter.build_fixture(
            self.sizes.replay_nodes, self.sizes.replay_epochs, self.seed,
            TOPOLOGY_SEED, restamp=False,
        )
        return fixture, adapter.build_replay_engine(fixture)

    def run(self, system) -> Rep:
        fixture, engine = system
        latencies: List[float] = []
        reports = []
        start = CLOCK()
        for _timestamp, snapshot in fixture.epochs:
            began = CLOCK()
            reports.append(adapter.validate(engine, snapshot, fixture.inputs))
            latencies.append(CLOCK() - began)
        wall_s = CLOCK() - start
        if self._signals is None:
            if not adapter.same_signal_keys(fixture):
                raise RuntimeError("churn changed the signal set; signal count is per epoch")
            self._signals = adapter.signal_count(fixture.epochs[0][1])
        return Rep(
            wall_s=wall_s,
            updates=self._signals * len(fixture.epochs),
            validated=len(reports),
            expected=len(fixture.epochs),
            latencies_s=latencies,
            outcome=_ReplayOutcome(fixture, [adapter.canonical(r) for r in reports]),
        )

    def verify(self, rep: Rep) -> int:
        fixture = rep.outcome.fixture
        failed = rep.expected - rep.validated
        first = self._unknowns is None
        unknowns: List[float] = []
        with Tracer(adapter.trace_points()) as rec:
            for (_ts, snapshot), got in zip(fixture.epochs, rep.outcome.reports):
                before = rec.counts["r2.unknowns"]
                expected = self._oracle.canonical(fixture.topology, snapshot, fixture.inputs)
                unknowns.append(rec.counts["r2.unknowns"] - before)
                if got != expected:
                    failed += 1
        if first:
            self._unknowns = unknowns
            self._reference = self._stream_reference(fixture)
        return failed

    def guards(self) -> Dict[str, Dict[str, object]]:
        stale = self._unknowns[STALE_FROM_EPOCH:]
        stale_mean = sum(stale) / len(stale) if stale else 0.0
        ok = stale_mean > 0 and stale_mean >= 10.0 * self._reference
        return {
            "r2_unknowns_stale_vs_steady": _guard(
                [stale_mean, self._reference], ok,
                f"mean R2 unknowns per epoch from epoch {STALE_FROM_EPOCH} >= 10x "
                "stream-steady's",
            ),
        }

    def _stream_reference(self, fixture: adapter.Fixture) -> float:
        """stream-steady's mean R2 unknowns per epoch, on a short stream
        of the same topology and seed (fresh counters, so epoch index
        does not matter)."""
        timeline = adapter.churn_timeline(
            fixture.epochs[0][1], self.sizes.reference_epochs, self.seed, restamp=True
        )
        steady = adapter.Fixture(fixture.topology, fixture.inputs, timeline)
        with Tracer(adapter.trace_points()) as rec:
            adapter.run_stream(adapter.build_stream_system(steady, self.seed), CLOCK)
        validated = rec.calls["engine.validate"]
        return rec.counts["r2.unknowns"] / validated if validated else 0.0

    def layers(self, rec, traced: Rep) -> Dict[str, float]:
        values = _absent_layers()
        values.update(_stream_layers(rec))
        values.update(_engine_layers(rec))
        return values

    def describe(self) -> Dict[str, object]:
        return {
            "nodes": self.sizes.replay_nodes, "epochs": self.sizes.replay_epochs,
            "topology_seed": TOPOLOGY_SEED, "stale_from_epoch": STALE_FROM_EPOCH,
            "signals_per_epoch": self._signals,
        }


# ----------------------------------------------------------------------


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


@dataclass
class _FleetOutcome:
    run: adapter.FleetRun
    store_bytes: int


class Fleet(Workload):
    name = "fleet"

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        super().__init__(sizes, seed, workdir)
        self.rep_seconds = sizes.fleet_rep_s
        self.setup_repeats = sizes.fleet_setups
        self.workers = len(os.sched_getaffinity(0))
        self.standalone: Dict[str, Tuple[str, ...]] = {}
        self._stores = 0
        self._first: Optional[Dict[str, Tuple[str, ...]]] = None
        self._written: List[float] = []
        self._crashes: List[int] = []

    def _specs(self):
        s = self.sizes
        return adapter.fleet_specs(s.tenants, s.tenant_nodes, s.tenant_epochs, self.seed)

    def _sample(self):
        specs = self._specs()
        return (specs[0], specs[-1])

    def setup(self):
        self._stores += 1
        store_dir = os.path.join(self.workdir, f"stores-{self._stores}")
        return adapter.fleet_supervisor(self._specs(), self.workers, store_dir), store_dir

    def run(self, system) -> Rep:
        supervisor, store_dir = system
        out = adapter.run_fleet(supervisor, CLOCK)
        store_bytes = _dir_bytes(store_dir)
        shutil.rmtree(store_dir, ignore_errors=True)
        return Rep(
            wall_s=out.wall_s,
            updates=sum(t.updates for t in out.tenants.values()),
            validated=sum(t.epochs_sealed for t in out.tenants.values() if t.status == "done"),
            expected=self.sizes.tenants * self.sizes.tenant_epochs,
            latencies_s=[x for _, t in sorted(out.tenants.items()) for x in t.latencies_s],
            outcome=_FleetOutcome(out, store_bytes),
        )

    def peak_rss_mb(self) -> float:
        return max(maxrss_mb(), maxrss_mb(resource.RUSAGE_CHILDREN))

    def verify(self, rep: Rep) -> int:
        epochs = self.sizes.tenant_epochs
        for spec in self._sample():
            if spec.tenant not in self.standalone:
                self.standalone[spec.tenant] = adapter.run_tenant_standalone(spec, None)[0]
        run = rep.outcome.run
        if self._first is None:
            self._first = {t: o.fingerprints for t, o in run.tenants.items()}
        self._written.append(run.rollup.get("history_epochs_written_total", 0.0))
        self._crashes.append(run.crashes)
        failed = 0
        for tenant, outcome in run.tenants.items():
            if outcome.status != "done":
                failed += epochs
                continue
            reference = self.standalone.get(tenant, self._first.get(tenant, ()))
            failed += max(0, epochs - len(outcome.fingerprints))
            failed += sum(a != b for a, b in zip(outcome.fingerprints, reference))
        if run.errors or run.crashes:
            failed += max(1, run.errors)
        return failed

    def guards(self) -> Dict[str, Dict[str, object]]:
        want = float(self.sizes.tenants * self.sizes.tenant_epochs)
        return {
            "history_records": _guard(
                min(self._written), all(w == want for w in self._written),
                "fleet history epochs written == tenants x epochs",
            ),
            "crashes": _guard(sum(self._crashes), not any(self._crashes), "no worker crashes"),
        }

    def layers(self, rec, traced: Rep) -> Dict[str, float]:
        """Workers are forked, so their spans stay in the workers: the
        stream, engine and history layers come from a traced standalone
        run of the fixed tenant sample (the same code path the fleet ==
        standalone contract pins); fleet.* come from the fleet's rollup."""
        sample_dir = tempfile.mkdtemp(prefix="sample-", dir=self.workdir)
        tenant_samples: Dict[str, float] = {}
        with Tracer(adapter.trace_points()) as srec:
            for spec in self._sample():
                path = os.path.join(sample_dir, f"{spec.tenant}.sqlite")
                fingerprints, samples = adapter.run_tenant_standalone(spec, path)
                self.standalone[spec.tenant] = fingerprints
                for key, value in samples.items():
                    tenant_samples[key] = tenant_samples.get(key, 0.0) + value
        store_bytes = _dir_bytes(sample_dir)
        shutil.rmtree(sample_dir, ignore_errors=True)

        values = _absent_layers()
        values.update(_stream_layers(srec))
        values.update(_engine_layers(srec))
        run = traced.outcome.run
        rollup = run.rollup
        values.update({
            "ingest.retries": tenant_samples.get("stream_feed_retries_total", 0.0),
            "ingest.backpressure_dropped": tenant_samples.get("stream_backpressure_dropped_total", 0.0),
            "assembler.duplicates": tenant_samples.get("stream_duplicate_updates_total", 0.0),
            "assembler.late_dropped": tenant_samples.get("stream_late_updates_total", 0.0),
            "assembler.partial_epochs": tenant_samples.get("stream_epochs_sealed_total/result=partial", 0.0),
            "history.store_bytes": float(store_bytes),
            "fleet.tenant_build_s": srec.busy["fleet.build_workload"] + srec.busy["setup.feeds"],
            "fleet.engine_collect_s": rollup.get("engine_stage_seconds_total/stage=collect", 0.0),
            "fleet.engine_harden_s": rollup.get("engine_stage_seconds_total/stage=harden", 0.0),
            "fleet.engine_check_s": rollup.get("engine_stage_seconds_total/stage=check", 0.0),
            "fleet.history_epochs_written": rollup.get("history_epochs_written_total", 0.0),
            "fleet.history_store_bytes": float(traced.outcome.store_bytes),
            "fleet.crashes": float(run.crashes),
            "fleet.reschedules": float(sum(t.reschedules for t in run.tenants.values())),
        })
        return values

    def describe(self) -> Dict[str, object]:
        s = self.sizes
        return {
            "tenants": s.tenants, "nodes": s.tenant_nodes, "epochs": s.tenant_epochs,
            "workers": self.workers, "setups_per_rep": self.setup_repeats,
            "sample": [spec.tenant for spec in self._sample()],
            "perturb": [adapter.REORDER, adapter.DROP, adapter.DUPLICATE],
        }


WORKLOADS = {cls.name: cls for cls in (StreamSteady, ReplayStale, Fleet)}
