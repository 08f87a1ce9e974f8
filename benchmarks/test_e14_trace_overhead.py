"""E14: observability must be free when off and cheap when on.

The observatory (PR 4) threads a tracer and a metrics registry through
every engine epoch.  The shipped default is
:class:`~repro.obs.trace.NullTracer` -- every instrumentation site
costs one attribute check and one constant-returning call -- so the
acceptance bar is two-sided:

* tracing **off** must be statistically negligible: the NullTracer
  path *is* the default engine hot path, and E17's vector speedup bars
  (which run in the same CI job on that exact path) would fail if
  instrumentation had made epochs measurably slower;
* tracing **on** -- full span tree, per-verdict provenance instants,
  latency histograms -- must cost < 10% per epoch at 80 nodes.

The traced run's Chrome trace and Prometheus exposition are written to
``results/`` so the CI bench job archives real artifacts produced
under measurement.
"""

from repro.experiments import ScaleStudy, format_table

SIZES = (20, 80)
EPOCHS = 10
CHURN = 0.10
MAX_OVERHEAD_ON = 0.10


def test_trace_overhead(benchmark, write_result, results_dir):
    study = ScaleStudy(seed=0, repetitions=5)
    rows = benchmark.pedantic(
        lambda: study.run_trace_overhead(
            sizes=SIZES, epochs=EPOCHS, churn=CHURN, export_dir=str(results_dir)
        ),
        rounds=1,
        iterations=1,
    )

    table = format_table(
        [
            "nodes",
            "links",
            "epochs",
            "off (ms)",
            "on (ms)",
            "overhead",
            "noise floor",
            "spans",
            "instants",
        ],
        [
            [
                row.nodes,
                row.links,
                row.epochs,
                f"{row.off_ms:.2f}",
                f"{row.on_ms:.2f}",
                f"{row.overhead:+.1%}",
                f"{row.off_noise:.1%}",
                row.spans,
                row.instants,
            ]
            for row in rows
        ],
    )
    write_result("E14_trace_overhead", table)

    at_80 = rows[-1]
    assert at_80.nodes == 80
    # Acceptance bar: full tracing costs < 10% per epoch at 80 nodes.
    assert at_80.overhead < MAX_OVERHEAD_ON, (
        f"tracing-on overhead {at_80.overhead:.1%} >= {MAX_OVERHEAD_ON:.0%} "
        f"(off={at_80.off_ms:.2f}ms on={at_80.on_ms:.2f}ms)"
    )
    # One traced replay must have recorded the whole tree: an epoch
    # span plus three stage spans per epoch (warm-up included), and
    # one verdict instant per controller input per epoch.
    timed_plus_warmup = EPOCHS + 1
    assert at_80.spans >= 4 * timed_plus_warmup
    assert at_80.instants >= 3 * timed_plus_warmup
    # The artifacts CI uploads were really emitted.
    assert (results_dir / "E14_trace.json").exists()
    assert (results_dir / "E14_metrics.prom").exists()

    benchmark.extra_info["off_ms_at_80"] = at_80.off_ms
    benchmark.extra_info["on_ms_at_80"] = at_80.on_ms
    benchmark.extra_info["overhead_at_80"] = at_80.overhead
    benchmark.extra_info["off_noise_at_80"] = at_80.off_noise
