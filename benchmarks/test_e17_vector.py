"""E17: the array-compiled vector backend at WAN scale.

PR 7's tentpole compiles the topology once into indexed numpy arrays
(:mod:`repro.core.vector`) and re-expresses the hot validation stages
as array math, with the per-entity units kept as the differential
oracle.  This bench prices that trade on two workload shapes and then
pushes the backend past the sizes the python path can sustain:

- **E9 shape** (steady replay, 80 nodes): the identical snapshot
  object replayed every epoch, the always-on engine's baseline
  workload.  Acceptance bar: the vector backend is >= 10x faster per
  epoch than the python full path.
- **Churn shape** (10% link churn, 80 nodes): the production steady
  state between two 30-second collections.  Acceptance bar: >= 4x
  (measured ~7x).
- **Scale sweep** (200 / 500 / 1000 nodes, 10% churn): epochs/s and
  per-epoch p99 for the vector backend, with a bounded python
  reference column (one timed epoch) -- the sweep's acceptance bar is
  that a 1000-node epoch completes at all and the vector path wins at
  every size.

Report equality across backends is the differential harness's job
(``tests/engine/test_vector.py``); this file measures pure cost.
"""

from repro.experiments import ScaleStudy, format_table


def _table(rows):
    return format_table(
        [
            "nodes",
            "links",
            "churn",
            "python (ms)",
            "vector (ms)",
            "p99 (ms)",
            "speedup",
            "epochs/s",
            "reuse",
        ],
        [
            [
                row.nodes,
                row.links,
                f"{row.churn:.0%}",
                f"{row.python_ms:.1f}",
                f"{row.vector_ms:.2f}",
                f"{row.p99_ms:.2f}",
                f"{row.speedup:.1f}x",
                f"{row.epochs_per_s:.0f}",
                f"{row.reuse_rate:.0%}",
            ]
            for row in rows
        ],
    )


def test_vector_acceptance_at_80(benchmark, write_result):
    study = ScaleStudy(seed=0, repetitions=3)

    def run():
        replay = study.run_vector(sizes=(80,), epochs=10, churn=0.0)
        churned = study.run_vector(sizes=(20, 40, 80), epochs=10, churn=0.10)
        return replay + churned

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result("E17_vector", _table(rows))

    replay_80 = rows[0]
    assert replay_80.nodes == 80 and replay_80.churn == 0.0
    # Acceptance bar: >= 10x on the E9 steady-replay shape at 80 nodes.
    assert replay_80.speedup >= 10.0, (
        f"vector replay speedup {replay_80.speedup:.2f}x < 10x"
    )

    churned_80 = rows[-1]
    assert churned_80.nodes == 80 and churned_80.churn == 0.10
    # Churned shape: >= 4x against the python full path.
    assert churned_80.speedup >= 4.0, (
        f"vector churn speedup {churned_80.speedup:.2f}x < 4x"
    )
    assert churned_80.reuse_rate > 0.5


def test_e17_scale_sweep(benchmark, write_result):
    """200/500/1000 nodes: the sizes the ROADMAP's north star names.

    Bounded for CI: one repetition, three timed vector epochs, one
    timed python reference epoch per size.  The hard acceptance is
    completion -- a 1000-node epoch through the compiled path -- plus
    the vector backend beating the python reference at every size.
    """
    study = ScaleStudy(seed=0, repetitions=1)
    rows = benchmark.pedantic(
        lambda: study.run_vector(
            sizes=(200, 500, 1000),
            epochs=3,
            churn=0.10,
            python_epochs=1,
            fixture="sparse",
        ),
        rounds=1,
        iterations=1,
    )
    write_result("E17_vector_scale", _table(rows))

    assert [row.nodes for row in rows] == [200, 500, 1000]
    for row in rows:
        assert row.vector_ms > 0.0  # the epoch completed
        assert row.speedup > 1.0, (
            f"vector slower than python at {row.nodes} nodes "
            f"({row.vector_ms:.1f}ms vs {row.python_ms:.1f}ms)"
        )
