"""Acceptance: full-catalog engine replay with tracing and metrics on.

Drives ``python -m repro engine`` over every catalog scenario with
``--trace``/``--trace-jsonl``/``--metrics-prom`` and checks the whole
observability contract end to end: the Chrome export is schema-valid
with one epoch span per replayed epoch and nested stage spans,
every flagged verdict instant carries provenance naming the fired
invariants and their signals, and the Prometheus exposition parses and
round-trips the engine's own counters.
"""

import json

import pytest

from repro.__main__ import main
from repro.obs import load_trace_file
from repro.scenarios.catalog import all_scenarios

from tests.obs.test_metrics import parse_exposition

EPOCHS = 2


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One full-catalog CLI replay; returns the emitted artifact paths."""
    out = tmp_path_factory.mktemp("obs")
    paths = {
        "chrome": out / "trace.json",
        "jsonl": out / "trace.jsonl",
        "prom": out / "metrics.prom",
        "stdout": out / "stdout.json",
    }
    import contextlib
    import io

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(
            [
                "engine",
                "--epochs",
                str(EPOCHS),
                "--json",
                "--trace",
                str(paths["chrome"]),
                "--trace-jsonl",
                str(paths["jsonl"]),
                "--metrics-prom",
                str(paths["prom"]),
            ]
        )
    assert code == 0
    paths["stdout"].write_text(stdout.getvalue())
    return paths


@pytest.fixture(scope="module")
def chrome_payload(traced_run):
    return json.loads(traced_run["chrome"].read_text())


@pytest.fixture(scope="module")
def cli_payload(traced_run):
    return json.loads(traced_run["stdout"].read_text())


class TestChromeTraceSchema:
    def test_top_level_shape(self, chrome_payload):
        assert set(chrome_payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert chrome_payload["displayTimeUnit"] == "ms"
        assert chrome_payload["otherData"]["schema_version"] == 1

    def test_every_event_is_schema_valid(self, chrome_payload):
        for event in chrome_payload["traceEvents"]:
            assert isinstance(event["name"], str) and event["name"]
            assert event["ph"] in ("X", "i")
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)
            assert isinstance(event["ts"], float)
            assert event["ts"] >= 0.0
            assert isinstance(event["args"], dict)
            assert isinstance(event["args"]["span_id"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            else:
                assert event["s"] == "t"

    def test_one_epoch_span_per_catalog_epoch(self, chrome_payload):
        epochs = [
            e
            for e in chrome_payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "epoch"
        ]
        assert len(epochs) == len(all_scenarios()) * EPOCHS

    def test_epochs_nest_stage_spans(self, chrome_payload):
        spans = [e for e in chrome_payload["traceEvents"] if e["ph"] == "X"]
        by_parent = {}
        for span in spans:
            by_parent.setdefault(span["args"].get("parent_id"), []).append(span)
        epoch_ids = [s["args"]["span_id"] for s in spans if s["name"] == "epoch"]
        for epoch_id in epoch_ids:
            stages = {s["name"] for s in by_parent.get(epoch_id, [])}
            assert stages == {"collect", "harden", "check"}

    def test_scenario_instants_mark_replay_boundaries(self, chrome_payload):
        scenario_ids = [
            e["args"]["scenario"]
            for e in chrome_payload["traceEvents"]
            if e["ph"] == "i" and e["name"] == "scenario"
        ]
        assert scenario_ids == [s.scenario_id for s in all_scenarios()]


class TestVerdictProvenance:
    def test_every_flagged_verdict_names_invariants_and_signals(self, chrome_payload):
        verdicts = [
            e
            for e in chrome_payload["traceEvents"]
            if e["ph"] == "i" and e["name"] == "verdict"
        ]
        assert len(verdicts) == len(all_scenarios()) * EPOCHS * 3  # 3 inputs each
        flagged = [v for v in verdicts if not v["args"]["valid"]]
        assert flagged, "the catalog contains detecting scenarios"
        for verdict in flagged:
            provenance = verdict["args"]["provenance"]
            assert provenance["valid"] is False
            assert provenance["num_violations"] >= 1
            assert provenance["fired"], "flagged verdict must carry provenance"
            for fired in provenance["fired"]:
                assert fired["name"].count("/") >= 2  # kind/entity shape
                assert fired["signals"], f"{fired['name']} resolved no signals"
                for signal in fired["signals"]:
                    assert signal["signal"]
                    assert signal["disposition"] in (
                        "raw", "confirmed", "repaired", "unknown",
                    )

    def test_jsonl_and_chrome_agree_on_verdicts(self, traced_run, chrome_payload):
        jsonl_events = load_trace_file(str(traced_run["jsonl"]))
        jsonl_verdicts = [
            e["args"] for e in jsonl_events
            if e["type"] == "instant" and e["name"] == "verdict"
        ]
        chrome_verdicts = [
            {k: v for k, v in e["args"].items() if k not in ("span_id", "parent_id")}
            for e in chrome_payload["traceEvents"]
            if e["ph"] == "i" and e["name"] == "verdict"
        ]
        assert jsonl_verdicts == chrome_verdicts

    def test_trace_subcommand_renders_both_formats(self, traced_run, capsys):
        assert main(["trace", str(traced_run["chrome"]), "--epochs", "1"]) == 0
        chrome_text = capsys.readouterr().out
        assert chrome_text.startswith("trace: ")
        assert "epoch" in chrome_text
        assert main(["trace", str(traced_run["jsonl"]), "--provenance"]) == 0
        jsonl_text = capsys.readouterr().out
        assert "violations" in jsonl_text


class TestPrometheusRoundTrip:
    def test_exposition_parses_with_help_and_type(self, traced_run):
        helps, types, samples = parse_exposition(traced_run["prom"].read_text())
        assert samples
        for name, _ in samples:
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                base = name[: -len(suffix)] if name.endswith(suffix) else None
                if base and types.get(base) == "histogram":
                    family = base
            assert family in helps, f"{name} lacks # HELP"
            assert family in types, f"{name} lacks # TYPE"

    def test_counters_round_trip_engine_stats(self, traced_run, cli_payload):
        stats = cli_payload["stats"]
        _, _, samples = parse_exposition(traced_run["prom"].read_text())

        def sample(name, **labels):
            return samples[(name, tuple(sorted(labels.items())))]

        assert sample("engine_epochs_total") == stats["epochs"]
        assert sample("engine_cache_hits_total") == stats["cache_hits"]
        assert sample("engine_cache_misses_total") == stats["cache_misses"]
        assert sample("engine_backend_info", backend=stats["backend"]) == 1.0
        for stage in ("collect", "harden", "check"):
            assert sample("engine_stage_seconds_total", stage=stage) == pytest.approx(
                stats["stage_seconds"][stage]
            )
        assert sample("engine_stage_seconds_total", stage="all") == pytest.approx(
            stats["stage_seconds"]["total"]
        )

    def test_latency_histograms_cover_every_epoch(self, traced_run, cli_payload):
        epochs = cli_payload["stats"]["epochs"]
        _, types, samples = parse_exposition(traced_run["prom"].read_text())
        assert types["engine_epoch_latency_seconds"] == "histogram"
        assert samples[("engine_epoch_latency_seconds_count", ())] == epochs
        for stage in ("collect", "harden", "check"):
            key = ("engine_stage_latency_seconds_count", (("stage", stage),))
            assert samples[key] == epochs
