"""The always-on validation engine.

:class:`ValidationEngine` is the long-lived counterpart to
constructing a fresh :class:`~repro.core.pipeline.Hodor` per epoch.
It keeps three things alive across validation passes:

1. A :class:`~repro.engine.cache.TopologyCacheStore`, so every epoch
   on an unchanged topology reuses the memoized topology-derived
   structures (directed-edge order, incidence maps, conservation
   equation blocks) instead of rebuilding them.
2. One validator per topology fingerprint: the per-entity python
   units (``backend="python"``) or the delta-aware array-compiled
   :class:`~repro.core.vector.VectorValidator` (``backend="vector"``).
   Either way the engine's reports are *identical* to the serial
   path's -- the differential harness in ``tests/engine`` asserts
   this verdict for verdict.
3. :class:`~repro.engine.stats.EngineStats` counters: epochs, cache
   hits/misses, per-stage wall time, entity reuse.

Example:
    >>> from repro.engine import ValidationEngine
    >>> engine = ValidationEngine(topology, backend="vector")
    >>> for epoch in timeline:
    ...     report = engine.validate(epoch.snapshot, epoch.inputs)
    >>> engine.stats.cache_hits   # doctest: +SKIP
    len(timeline) - 1
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.history.sink import HistorySink

from repro.control.inputs import ControllerInputs
from repro.core.collection import SignalCollector
from repro.core.config import HodorConfig
from repro.core.demand_check import DemandChecker
from repro.core.drain_check import DrainChecker
from repro.core.hardening import Hardener
from repro.core.pipeline import Hodor
from repro.core.report import ValidationReport
from repro.core.topology_check import TopologyChecker
from repro.engine.cache import TopologyCache, TopologyCacheStore, VectorModelStore
from repro.engine.stats import STAGES, EngineStats
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer
from repro.telemetry.snapshot import NetworkSnapshot

__all__ = ["EpochInput", "ValidationEngine"]


@dataclass
class EpochInput:
    """One epoch of work for :meth:`ValidationEngine.replay`.

    Attributes:
        snapshot: The telemetry snapshot for this epoch.
        inputs: The controller inputs produced for this epoch.
        topology: Optional reference-topology override; ``None`` means
            the engine's configured reference.  Passing the changed
            topology here is how a live deployment rolls a topology
            update through the engine (the cache store handles
            invalidation transparently).
    """

    snapshot: NetworkSnapshot
    inputs: ControllerInputs
    topology: Optional[Topology] = None


class _Components:
    """The per-topology pipeline components, built once per cache."""

    __slots__ = ("collector", "hardener", "demand", "topology", "drain")

    def __init__(
        self, reference: Topology, config: HodorConfig, cache: TopologyCache
    ) -> None:
        self.collector = SignalCollector(config)
        self.hardener = Hardener(reference, config, cache=cache)
        self.demand = DemandChecker(config, cache=cache)
        self.topology = TopologyChecker(config)
        self.drain = DrainChecker(config, cache=cache)


class ValidationEngine:
    """Streaming multi-epoch validation with topology caching.

    Args:
        reference: The design-time network model epochs default to.
        config: Thresholds and options; defaults follow the paper.
        cache_store: Optional shared topology-cache store; one is
            created when omitted.  Sharing a store across engines
            shares the memoized topology structures.
        backend: ``"python"`` recomputes every epoch through the
            per-entity reference units; ``"vector"`` evaluates epochs
            on the array-compiled topology model (see
            :mod:`repro.core.vector`), which diffs each epoch against
            the previous one and reuses every per-entity verdict whose
            inputs did not change.  Both produce identical reports
            (the differential harness and the fuzz oracle enforce
            this).
        tracer: Optional :class:`repro.obs.trace.Tracer`.  When given,
            every epoch records a span tree (epoch -> stage, plus
            per-verdict provenance instants).  Defaults to
            the allocation-free :class:`~repro.obs.trace.NullTracer`.
        metrics: Optional shared
            :class:`repro.obs.metrics.MetricsRegistry` to record the
            epoch/stage latency histograms into; one is created when
            omitted (exposed as :attr:`metrics`).
        history: Optional :class:`repro.history.sink.HistorySink`;
            every validated epoch is written through to it (durable
            verdict history).  The engine never owns the sink -- the
            caller closes it.  Attach a sink to either the engine or
            the stream pipeline, not both, or epochs record twice.
    """

    _BACKENDS = ("python", "vector")

    def __init__(
        self,
        reference: Topology,
        config: Optional[HodorConfig] = None,
        cache_store: Optional[TopologyCacheStore] = None,
        backend: str = "python",
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        history: Optional["HistorySink"] = None,
    ) -> None:
        if backend not in self._BACKENDS:
            raise ValueError(
                f"unknown engine backend {backend!r}; expected one of {self._BACKENDS}"
            )
        self._reference = reference
        self._config = config or HodorConfig()
        self._store = cache_store or TopologyCacheStore()
        self._backend = backend
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._epoch_hist = self.metrics.histogram(
            "engine_epoch_latency_seconds",
            "Wall-clock seconds per validation epoch.",
        )
        self._stage_hist = self.metrics.histogram(
            "engine_stage_latency_seconds",
            "Wall-clock seconds per pipeline stage per epoch.",
            labels=("stage",),
        )
        self.history = history
        self.stats = EngineStats(backend=backend)
        self._components: "OrderedDict[str, _Components]" = OrderedDict()
        self._vector: "OrderedDict[str, object]" = OrderedDict()
        self._model_store = VectorModelStore()
        self._max_component_sets = 32
        self._folder = None

    @property
    def config(self) -> HodorConfig:
        return self._config

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def cache_store(self) -> TopologyCacheStore:
        return self._store

    # ------------------------------------------------------------------

    def _components_for(
        self, reference: Topology
    ) -> Tuple[TopologyCache, _Components]:
        """Cache lookup plus per-fingerprint component reuse."""
        hits_before = self._store.hits
        cache = self._store.get(reference)
        if self._store.hits > hits_before:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1

        components = self._components.get(cache.fingerprint)
        if components is None:
            components = _Components(reference, self._config, cache)
            self._components[cache.fingerprint] = components
            while len(self._components) > self._max_component_sets:
                evicted, _ = self._components.popitem(last=False)
                self._vector.pop(evicted, None)
        else:
            self._components.move_to_end(cache.fingerprint)
        return cache, components

    def _vector_for(self, cache: TopologyCache, components: _Components):
        """One array-compiled validator per topology fingerprint.

        The compiled :class:`VectorModel` is shared through
        :class:`~repro.engine.cache.VectorModelStore` and survives
        validator eviction.
        """
        validator = self._vector.get(cache.fingerprint)
        if validator is None:
            from repro.core.vector import VectorValidator

            model = self._model_store.get(cache)
            validator = VectorValidator(
                self._config,
                cache,
                components,
                self.stats,
                tracer=self.tracer,
                model=model,
            )
            self._vector[cache.fingerprint] = validator
        else:
            self._vector.move_to_end(cache.fingerprint)
        return validator

    def validate(
        self,
        snapshot: NetworkSnapshot,
        inputs: ControllerInputs,
        topology: Optional[Topology] = None,
    ) -> ValidationReport:
        """Validate one epoch; identical output to ``Hodor.validate``.

        Args:
            snapshot: The telemetry snapshot for this epoch.
            inputs: The controller inputs under validation.
            topology: Optional reference override for this epoch.
        """
        reference = topology if topology is not None else self._reference
        tracer = self.tracer
        with tracer.span(
            "epoch",
            epoch=self.stats.epochs,
            backend=self._backend,
            timestamp=snapshot.timestamp,
        ) as epoch_span:
            total_start = time.perf_counter()
            hits_before = self.stats.cache_hits
            cache, components = self._components_for(reference)
            if tracer.enabled:
                epoch_span.annotate(cache_hit=self.stats.cache_hits > hits_before)

            if self._backend == "vector":
                stage_before = {
                    stage: self.stats.stage_seconds.get(stage, 0.0) for stage in STAGES
                }
                report = self._vector_for(cache, components).validate(snapshot, inputs)
                for stage in STAGES:
                    self._stage_hist.labels(stage=stage).observe(
                        self.stats.stage_seconds.get(stage, 0.0) - stage_before[stage]
                    )
            else:
                report = self._validate_python(snapshot, inputs, components)

            self.stats.epochs += 1
            total_seconds = time.perf_counter() - total_start
            self.stats.record_stage("total", total_seconds)
            self._epoch_hist.observe(total_seconds)
            self._emit_verdicts(report)
            self._record_history(report, total_seconds)
        return report

    def _validate_python(
        self,
        snapshot: NetworkSnapshot,
        inputs: ControllerInputs,
        components: _Components,
    ) -> ValidationReport:
        """One epoch through the per-entity reference units, stage-timed."""
        tracer = self.tracer
        stage_start = time.perf_counter()
        with tracer.span("collect", category="stage"):
            collected = components.collector.collect(snapshot)
        self._stage_done("collect", stage_start)

        stage_start = time.perf_counter()
        with tracer.span("harden", category="stage"):
            hardened = components.hardener.harden(collected)
        self._stage_done("harden", stage_start)

        stage_start = time.perf_counter()
        report = ValidationReport(timestamp=snapshot.timestamp, hardened=hardened)
        with tracer.span("check", category="stage"):
            Hodor._record(report, components.demand.check(inputs.demand, hardened))
            Hodor._record(report, components.topology.check(inputs.topology, hardened))
            Hodor._record(report, components.drain.check(inputs.drains, hardened))
        self._stage_done("check", stage_start)
        return report

    def _stage_done(self, stage: str, stage_start: float) -> None:
        stage_seconds = time.perf_counter() - stage_start
        self.stats.record_stage(stage, stage_seconds)
        self._stage_hist.labels(stage=stage).observe(stage_seconds)

    def validate_events(
        self,
        events,
        timestamp: float,
        inputs: ControllerInputs,
        topology: Optional[Topology] = None,
    ) -> ValidationReport:
        """Validate one sealed epoch directly from its update events.

        The scatter entry point: sealed epochs from an assembler running
        with ``build_snapshots=False`` arrive as sorted event buffers;
        the engine folds them through a persistent
        :class:`~repro.stream.fold.EventFolder` (one regex decode per
        *distinct* path for the engine's whole lifetime, then dict
        lookups) and validates the folded snapshot on the configured
        backend.  Because folding replicates the reference apply
        codec object for object, the report -- findings, verdicts, and
        provenance -- is byte-identical to :meth:`validate` on a
        snapshot applied the classic way; the scatter differential in
        ``tests/stream`` enforces this on both backends.

        Args:
            events: Deduped deliveries in sorted ``(router, uid)`` seal
                order (``AssembledEpoch.events``).
            timestamp: The epoch's collection instant.
            inputs: The controller inputs under validation.
            topology: Optional reference override for this epoch.
        """
        if self._folder is None:
            from repro.stream.fold import EventFolder

            self._folder = EventFolder()
        snapshot = self._folder.fold(events, timestamp)
        return self.validate(snapshot, inputs, topology=topology)

    def _record_history(self, report: ValidationReport, elapsed_s: float) -> None:
        """Write one validated epoch through the attached history sink."""
        if self.history is None:
            return
        self.history.record(
            report,
            source="engine",
            backend=self._backend,
            sealed_by="batch",
            elapsed_s=elapsed_s,
            stats=self.stats,
        )

    def _emit_verdicts(self, report: ValidationReport) -> None:
        """Emit one provenance instant per verdict (tracing only)."""
        if not self.tracer.enabled:
            return
        for name in sorted(report.provenance):
            record = report.provenance[name]
            self.tracer.instant(
                "verdict", input=name, valid=record.valid, provenance=record.to_dict()
            )

    def replay(self, epochs: Iterable[EpochInput]) -> List[ValidationReport]:
        """Validate a whole epoch stream, in order."""
        return [
            self.validate(epoch.snapshot, epoch.inputs, topology=epoch.topology)
            for epoch in epochs
        ]

    def close(self) -> None:
        """End the engine's run; it holds no pool or file, so the
        caches stay valid and this is a no-op kept for the
        context-manager protocol."""

    def __enter__(self) -> "ValidationEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
