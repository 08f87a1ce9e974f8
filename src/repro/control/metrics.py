"""Network-health metrics: how bad did an epoch actually get?

Experiments evaluate a controller allocation on the *real* network (via
:meth:`repro.net.simulation.NetworkSimulator.evaluate`) and summarise
the outcome here.  Severity bands follow how the paper talks about
outages: local congestion, severe congestion, and major outages with
packet loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.net.demand import DemandMatrix
from repro.net.simulation import GroundTruth

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.stats import EngineStats
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Severity",
    "HealthReport",
    "assess_health",
    "engine_registry",
]


class Severity(Enum):
    """How healthy one epoch was, worst condition wins."""

    OK = "ok"
    DEGRADED = "degraded"  # high utilization, no meaningful loss
    CONGESTED = "congested"  # saturated links / measurable loss
    OUTAGE = "outage"  # major loss or undelivered demand

    def at_least(self, other: "Severity") -> bool:
        order = [Severity.OK, Severity.DEGRADED, Severity.CONGESTED, Severity.OUTAGE]
        return order.index(self) >= order.index(other)


#: Severity thresholds (fractions).  The degraded bound sits just above
#: the TE's default 0.9 engineering target so a healthy network running
#: exactly at target classifies as OK.
_DEGRADED_MLU = 0.92
_CONGESTED_LOSS = 1e-3
_OUTAGE_LOSS = 0.05
_OUTAGE_DELIVERY = 0.90


@dataclass
class HealthReport:
    """Outcome of evaluating an allocation on the real network.

    Attributes:
        mlu: Maximum link utilization (post-drop).
        loss_rate: Fraction of admitted traffic dropped in-network.
        delivered_fraction: Delivered rate over *true* total demand
            (captures both in-network drops and demand that was never
            admitted/routed).
        congested_links: Directed edges at full utilization.
        severity: Overall classification.
    """

    mlu: float
    loss_rate: float
    delivered_fraction: float
    congested_links: List[Tuple[str, str]] = field(default_factory=list)
    severity: Severity = Severity.OK

    def is_outage(self) -> bool:
        return self.severity == Severity.OUTAGE

    def summary(self) -> str:
        return (
            f"{self.severity.value}: mlu={self.mlu:.2f} loss={self.loss_rate:.2%} "
            f"delivered={self.delivered_fraction:.2%} "
            f"congested={len(self.congested_links)}"
        )


def assess_health(truth: GroundTruth, true_demand: DemandMatrix) -> HealthReport:
    """Classify one epoch's real network state.

    Args:
        truth: Simulator output for the allocation actually programmed.
        true_demand: The demand hosts actually offered (not the
            controller's belief), the denominator for delivery.
    """
    mlu = truth.max_link_utilization()
    loss = truth.loss_rate()
    offered = true_demand.total()
    delivered = truth.total_delivered() / offered if offered > 0 else 1.0

    if loss >= _OUTAGE_LOSS or delivered < _OUTAGE_DELIVERY:
        severity = Severity.OUTAGE
    elif loss >= _CONGESTED_LOSS or mlu >= 1.0 - 1e-9:
        severity = Severity.CONGESTED
    elif mlu >= _DEGRADED_MLU:
        severity = Severity.DEGRADED
    else:
        severity = Severity.OK

    return HealthReport(
        mlu=mlu,
        loss_rate=loss,
        delivered_fraction=delivered,
        congested_links=truth.congested_edges(),
        severity=severity,
    )


def engine_registry(
    stats: "EngineStats", registry: Optional["MetricsRegistry"] = None
) -> "MetricsRegistry":
    """Project engine counters into a Prometheus metrics registry.

    Takes anything shaped like
    :class:`~repro.engine.stats.EngineStats` (duck-typed so this
    module never imports the engine package).  Names follow Prometheus
    conventions: monotonically accumulating quantities are counters
    with a ``_total`` suffix; ratios and configuration are gauges.
    Per-stage quantities use a ``stage`` label, with the aggregate
    epoch time under ``engine_stage_seconds_total{stage="all"}``.

    Projection uses absolute snapshot writes (``set_to``), so re-running
    it against a shared ``registry`` (e.g. the engine's own, which
    already holds the latency histograms) is idempotent rather than
    double-counting.
    """
    # Imported here, not at module top: ``core.serialize`` imports this
    # module while ``repro.obs`` imports ``core``, so a module-level
    # import would close an import cycle during package init.
    from repro.obs.metrics import MetricsRegistry

    reg = registry if registry is not None else MetricsRegistry()

    reg.counter("engine_epochs_total", "Validation passes completed.").set_to(stats.epochs)
    reg.counter(
        "engine_cache_hits_total", "Epochs that reused a memoized topology cache."
    ).set_to(stats.cache_hits)
    reg.counter(
        "engine_cache_misses_total", "Epochs that had to build topology structures."
    ).set_to(stats.cache_misses)
    reg.counter(
        "engine_entities_recomputed_total",
        "Per-entity units computed fresh, summed over stages.",
    ).set_to(stats.total_entities_recomputed)
    reg.counter(
        "engine_entities_reused_total",
        "Per-entity units served from the previous epoch, summed over stages.",
    ).set_to(stats.total_entities_reused)
    reg.counter(
        "engine_repair_solves_total", "Conservation components solved fresh."
    ).set_to(stats.repair_solves)
    reg.counter(
        "engine_repair_reuses_total", "Conservation components served from the solver cache."
    ).set_to(stats.repair_reuses)

    stage_seconds = reg.counter(
        "engine_stage_seconds_total",
        "Cumulative wall seconds per pipeline stage ('all' is the whole epoch).",
        labels=("stage",),
    )
    for stage in sorted(stats.stage_seconds):
        label = "all" if stage == "total" else stage
        stage_seconds.labels(stage=label).set_to(stats.stage_seconds[stage])
    recomputed = reg.counter(
        "engine_stage_recomputed_total",
        "Per-entity units computed fresh, by fine-grained stage.",
        labels=("stage",),
    )
    for stage in sorted(stats.entities_recomputed):
        recomputed.labels(stage=stage).set_to(stats.entities_recomputed[stage])
    reused = reg.counter(
        "engine_stage_reused_total",
        "Per-entity units served from the previous epoch, by fine-grained stage.",
        labels=("stage",),
    )
    for stage in sorted(stats.entities_reused):
        reused.labels(stage=stage).set_to(stats.entities_reused[stage])

    # Info-style gauge: one sample, value 1, the backend as a label.
    reg.gauge(
        "engine_backend_info",
        "Active evaluation backend (value 1 on the active label).",
        labels=("backend",),
    ).labels(backend=getattr(stats, "backend", "python")).set(1.0)
    reg.gauge(
        "engine_cache_hit_rate", "Fraction of epochs served from the topology cache."
    ).set(stats.cache_hit_rate)
    reg.gauge("engine_mean_epoch_ms", "Mean wall-clock per validation pass (ms).").set(
        stats.mean_epoch_ms()
    )
    reg.gauge(
        "engine_reuse_rate", "Fraction of per-entity units served without recomputation."
    ).set(stats.reuse_rate())
    return reg
