"""Metric definitions, and which end-to-end metric each layer should move.

``BENCHMARK.json`` lists the names, units and directions; this module
adds what that file has no field for: how each end-to-end metric is
defined on each workload, and the prediction for every per-layer
metric (the end-to-end metric it should move, on which workload).  Later
changes cite these by name.  A self-test holds the two in agreement.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS = ("stream-steady", "replay-stale", "fleet")

#: name -> (unit, better, definition)
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "setup_s": (
        "s", "lower",
        "seed to ready system: fixture generation plus object construction "
        "(fleet: spec generation plus the supervisor; tenants rebuild inside "
        "the run); median of the run's set-ups",
    ),
    "updates_per_s": (
        "1/s", "higher",
        "deliveries offered to assemblers / run wall (replay-stale: signals "
        "in the validated snapshots, one per delivery a feed would make)",
    ),
    "epochs_per_s": ("1/s", "higher", "validated epochs / run wall"),
    "verdict_p50_ms": (
        "ms", "lower",
        "nearest-rank median over epochs of each epoch's seal-to-report "
        "latency, averaged over the run's repeats, which all validate the "
        "same epochs (stream: on_epoch latency; fleet: TenantSummary.latencies_s "
        "per tenant epoch; replay: validate() call)",
    ),
    "verdict_tail_ms": (
        "ms", "lower",
        "highest nearest-rank percentile of the same samples with at least "
        "10 samples beyond it; percentile and sample count are in the detail line",
    ),
    "peak_rss_mb": (
        "MB", "lower",
        "ru_maxrss after the first set-up and run of a fresh process (fleet: "
        "max of the supervisor and its largest worker)",
    ),
}

#: name -> (unit, better, [(end-to-end metric, workload), ...])
PER_LAYER: Dict[str, Tuple[str, str, List[Tuple[str, str]]]] = {
    # setup (net, telemetry, control, stream.feed)
    "setup.simulate_s": ("s", "lower", [
        ("setup_s", "stream-steady"), ("setup_s", "replay-stale"), ("updates_per_s", "fleet"),
    ]),
    "setup.churn_s": ("s", "lower", [("setup_s", "replay-stale")]),
    "setup.feeds_s": ("s", "lower", [
        ("setup_s", "stream-steady"), ("peak_rss_mb", "stream-steady"), ("updates_per_s", "fleet"),
    ]),
    "setup.rss_mb": ("MB", "lower", [("peak_rss_mb", w) for w in WORKLOADS]),
    # stream.feed
    "feed.next_event_s": ("s", "lower", [("updates_per_s", "stream-steady")]),
    "feed.deliveries": ("count", "higher", [("updates_per_s", "stream-steady")]),
    "feed.dropped": ("count", "lower", [("updates_per_s", "stream-steady")]),
    # stream.ingest
    "ingest.teardown_s": ("s", "lower", [
        ("updates_per_s", "stream-steady"), ("epochs_per_s", "stream-steady"),
    ]),
    "ingest.self_s": ("s", "lower", [("updates_per_s", "stream-steady")]),
    "ingest.retries": ("count", "lower", [("updates_per_s", "stream-steady")]),
    "ingest.backpressure_dropped": ("count", "lower", [("updates_per_s", "stream-steady")]),
    # stream.assembler
    "assembler.offer_s": ("s", "lower", [("updates_per_s", "stream-steady")]),
    "assembler.offers": ("count", "higher", [("updates_per_s", "stream-steady")]),
    "assembler.watermark_s": ("s", "lower", [("updates_per_s", "stream-steady"), ("updates_per_s", "fleet")]),
    "assembler.watermark_calls": ("count", "lower", [("updates_per_s", "stream-steady")]),
    "assembler.watermark_wait_p50_ms": ("ms", "lower", [("verdict_p50_ms", "stream-steady")]),
    "assembler.duplicates": ("count", "lower", [("updates_per_s", "stream-steady")]),
    "assembler.late_dropped": ("count", "lower", [("updates_per_s", "stream-steady")]),
    "assembler.partial_epochs": ("count", "lower", [("verdict_p50_ms", "stream-steady")]),
    # stream.fold
    "fold.fold_s": ("s", "lower", [("verdict_p50_ms", "stream-steady"), ("verdict_p50_ms", "fleet")]),
    # engine
    **{
        name: ("s", "lower", [(m, w) for w in WORKLOADS for m in ("verdict_p50_ms", "verdict_tail_ms")])
        for name in (
            "engine.validate_s", "engine.collect_s", "engine.harden_s", "engine.check_s",
            "engine.harden_other_s", "engine.overhead_s", "engine.model_compile_s",
        )
    },
    "engine.reuse_ratio": ("ratio", "higher", [("verdict_p50_ms", w) for w in WORKLOADS]),
    # R2 (core.hardening, core.flow_repair); predicted: no change on stream-steady
    **{
        name: (unit, better, [("verdict_p50_ms", "replay-stale"), ("epochs_per_s", "replay-stale")])
        for name, unit, better in (
            ("r2.repair_s", "s", "lower"),
            ("r2.solve_s", "s", "lower"),
            ("r2.solves", "count", "lower"),
            ("r2.unknowns", "count", "lower"),
            ("r2.identified_frac", "ratio", "higher"),
        )
    },
    # history; latency is taken before the write, so verdict_* do not move
    "history.record_s": ("s", "lower", [("epochs_per_s", "fleet"), ("updates_per_s", "fleet")]),
    "history.records": ("count", "higher", [("epochs_per_s", "fleet"), ("updates_per_s", "fleet")]),
    "history.store_bytes": ("bytes", "lower", [("epochs_per_s", "fleet"), ("updates_per_s", "fleet")]),
    # fleet
    "fleet.tenant_build_s": ("s", "lower", [("updates_per_s", "fleet")]),
    "fleet.engine_collect_s": ("s", "lower", [("verdict_p50_ms", "fleet")]),
    "fleet.engine_harden_s": ("s", "lower", [("verdict_p50_ms", "fleet")]),
    "fleet.engine_check_s": ("s", "lower", [("verdict_p50_ms", "fleet")]),
    "fleet.history_epochs_written": ("count", "higher", [("epochs_per_s", "fleet")]),
    "fleet.history_store_bytes": ("bytes", "lower", [("epochs_per_s", "fleet")]),
    "fleet.crashes": ("count", "lower", [("epochs_per_s", "fleet")]),
    "fleet.reschedules": ("count", "lower", [("epochs_per_s", "fleet")]),
    # the tracing itself
    "trace.overhead_frac": ("ratio", "lower", []),
}


def nearest_rank(sorted_values, rank: int) -> float:
    return sorted_values[max(1, min(rank, len(sorted_values))) - 1]


def p50(values) -> float:
    ordered = sorted(values)
    return nearest_rank(ordered, -(-len(ordered) // 2)) if ordered else 0.0


def epoch_means(runs: List[List[float]]) -> List[float]:
    """Each epoch's mean over ``runs``, one latency list per repeat.

    Every repeat validates the same epochs in the same order.  The
    machine's speed shifts for seconds at a time, so one repeat's epochs
    mostly see one phase: a median over pooled samples jumps between
    phases, while each epoch's mean over repeats moves with the share of
    time spent in each."""
    return [sum(column) / len(column) for column in zip(*runs)]


def tail(values) -> Tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest nearest-rank
    percentile with at least 10 samples beyond it.  With 10 or fewer
    samples there is none, and the median stands in."""
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    rank = count - 10 if count > 10 else -(-count // 2)
    return nearest_rank(ordered, rank), 100.0 * rank / count, count
