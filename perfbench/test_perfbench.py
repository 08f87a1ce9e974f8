"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import adapter, metrics, run, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _originals():
    return {
        (point.owner, point.attr): vars(point.owner)[point.attr]
        for point in adapter.trace_points()
    }


def _installed(originals):
    """Trace points whose current attribute is not the original."""
    return [
        key for key, raw in originals.items() if vars(key[0])[key[1]] is not raw
    ]


def test_benchmark_json_matches_the_definitions():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(metrics.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert e2e == {name: (u, b) for name, (u, b, _d) in metrics.END_TO_END.items()}
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup_bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in BENCHMARK["end_to_end"])
    layers = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert layers == {name: (u, b) for name, (u, b, _t) in metrics.PER_LAYER.items()}
    for _unit, _better, targets in metrics.PER_LAYER.values():
        for e2e_name, workload in targets:
            assert e2e_name in metrics.END_TO_END and workload in metrics.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], (int, float))
    detail = json.loads(lines[-2])
    for key in ("nproc", "python", "numpy", "scipy", "git_sha", "seed"):
        assert key in detail["environment"]
    assert detail["environment"]["seed"] == 5


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_untraced_runs_call_the_original_callables(name, tmp_path):
    originals = _originals()
    seen = []

    class Checked(workloads.WORKLOADS[name]):
        def run(self, system):
            seen.append(_installed(originals))
            return super().run(system)

    probe = Checked(workloads.SIZES["tiny"], 3, str(tmp_path))
    reps, layers = run.measure(probe, seconds=0.0, trace=False)
    assert layers is None and len(reps) == run.MIN_REPS
    assert seen == [[]] * run.MIN_REPS


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_traced_run_restores_every_wrapper(name, tmp_path):
    originals = _originals()
    during = []

    class Checked(workloads.WORKLOADS[name]):
        def run(self, system):
            during.append(len(_installed(originals)))
            return super().run(system)

    probe = Checked(workloads.SIZES["tiny"], 3, str(tmp_path))
    _reps, layers = run.measure(probe, seconds=0.0, trace=True)
    # untraced first, then traced with every point wrapped
    assert during == [0, len(originals)]
    assert _installed(originals) == []
    assert set(layers) == set(metrics.PER_LAYER)


def test_tracer_restores_after_an_error():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with Tracer(adapter.trace_points()):
            assert len(_installed(originals)) == len(originals)
            raise RuntimeError("boom")
    assert _installed(originals) == []


def test_only_the_adapter_imports_the_program():
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if path.name == "adapter.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for module in names:
                assert module.split(".")[0] != "repro", f"{path.name} imports {module}"


def test_self_time_excludes_child_spans():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    points = [
        adapter.TracePoint(Layer, "outer", "outer"),
        adapter.TracePoint(Layer, "inner", "inner"),
    ]
    with Tracer(points) as rec:
        assert Layer().outer() == 2
    assert rec.calls == {"outer": 1, "inner": 1}
    assert rec.self_s["outer"] == pytest.approx(rec.busy["outer"] - rec.busy["inner"])
    assert rec.self_s["inner"] == rec.busy["inner"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 31))
    value, percentile, samples = metrics.tail(values)
    assert (value, samples) == (20, 30)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert sum(v > value for v in values) == 10
    assert metrics.p50(values) == 15
    assert metrics.tail([3, 1, 2])[0] == 2


def test_p50_is_taken_over_each_epochs_mean_across_repeats():
    # one repeat in a slow phase, one in a fast phase: every epoch
    # averages the two, where a pooled median would pick one phase
    slow, fast = [0.9, 0.3, 0.3, 0.3], [0.5, 0.1, 0.1, 0.1]
    means = metrics.epoch_means([slow, fast])
    assert means == pytest.approx([0.7, 0.2, 0.2, 0.2])
    assert metrics.p50(means) == pytest.approx(0.2)
    assert metrics.p50(slow + fast) == 0.3
