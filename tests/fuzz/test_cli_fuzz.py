"""The ``python -m repro fuzz`` command."""

import json

import pytest

from repro.__main__ import _parse_budget, main


class TestBudgetParsing:
    def test_seconds_suffix(self):
        assert _parse_budget("30s") == 30.0

    def test_minutes_suffix(self):
        assert _parse_budget("2m") == 120.0

    def test_bare_number_is_seconds(self):
        assert _parse_budget("45") == 45.0

    def test_fractional(self):
        assert _parse_budget("0.5s") == 0.5

    @pytest.mark.parametrize("raw", ["0s", "-3", "nonsense", ""])
    def test_rejects_bad_budgets(self, raw):
        with pytest.raises(ValueError):
            _parse_budget(raw)


class TestFuzzCommand:
    def test_green_run_exits_zero(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--budget",
                "5s",
                "--cases",
                "3",
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 cases" in out
        assert "0 failures" in out
        assert not list(tmp_path.glob("*.json"))

    def test_json_report_shape(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--budget",
                "5s",
                "--cases",
                "2",
                "--seed",
                "2",
                "--out",
                str(tmp_path),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"] == 2
        assert payload["failures"] == 0
        assert payload["master_seed"] == 2
        assert payload["reproducers"] == []
        assert isinstance(payload["fault_census"], dict)

    def test_bad_budget_exits_two(self, capsys):
        assert main(["fuzz", "--budget", "bogus"]) == 2

    def test_bad_cases_exits_two(self, capsys):
        assert main(["fuzz", "--cases", "0"]) == 2

    def test_self_test_finds_planted_bug(self, capsys):
        """The planted vector-mode divergence is found, shrunk,
        and reproduced -- exercising the failure path end to end."""
        code = main(["fuzz", "--budget", "60s", "--self-test", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "found and reproduced" in out
