"""Golden tests for ``python -m repro stream``."""

import json

from repro.__main__ import main


class TestStreamScenario:
    def test_single_scenario_matches_batch(self, capsys):
        assert main(["stream", "--scenario", "S16", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == [
            "id", "sealed", "complete", "partial", "late", "dups", "matches", "batch"
        ]
        assert lines[2].split() == ["S16", "2/2", "2", "0", "0", "0", "yes"]

    def test_json_payload(self, capsys):
        assert main(["stream", "--scenario", "S01", "--epochs", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mismatched"] == 0
        assert payload["scenarios"] == [
            {
                "id": "S01",
                "sealed": "2/2",
                "complete": 2,
                "partial": 0,
                "late_dropped": 0,
                "duplicates": 0,
                "matches_batch": "yes",
            }
        ]

    def test_vector_backend(self, capsys):
        assert main(
            ["stream", "--scenario", "S16", "--epochs", "2", "--backend", "vector"]
        ) == 0
        assert "yes" in capsys.readouterr().out

    def test_perturbed_run_skips_identity_check(self, capsys):
        assert main(
            ["stream", "--scenario", "S16", "--epochs", "2", "--drop", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "-" in out.splitlines()[2].split()

    def test_invalid_probability_is_a_usage_error(self, capsys):
        assert main(["stream", "--scenario", "S16", "--drop", "1.5"]) == 2

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["stream", "--scenario", "S99"]) == 2

    def test_metrics_prom_export(self, capsys, tmp_path):
        target = tmp_path / "stream.prom"
        assert main(
            [
                "stream", "--scenario", "S16", "--epochs", "2",
                "--metrics-prom", str(target),
            ]
        ) == 0
        text = target.read_text()
        assert "stream_updates_total" in text
        assert "stream_epochs_sealed_total" in text
        assert "engine_epoch_latency_seconds" in text  # shared registry


class TestStreamSoak:
    def test_small_soak_json(self, capsys):
        assert main(
            [
                "stream", "--soak", "--nodes", "8", "--epochs", "3",
                "--reorder", "0.1", "--duplicate", "0.1", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 8
        assert payload["epochs_streamed"] == payload["epochs_sealed"] == 3
        assert payload["updates"] > 0
        assert payload["duplicates"] > 0
        assert payload["updates_per_s"] > 0
