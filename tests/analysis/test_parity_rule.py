"""C1 registry-parity rule against its fixture trees."""

from pathlib import Path

from repro.analysis import LintConfig, run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def test_wired_unit_passes():
    result = run_lint(FIXTURES / "c1_good")
    assert result.ok
    assert result.diagnostics == []


def test_missing_wiring_flags_both_directions():
    result = run_lint(FIXTURES / "c1_bad")
    findings = [(d.path, d.line, d.code) for d in result.diagnostics]
    assert findings == [
        ("core/units.py", 8, "C1"),           # orphan: not in serial path
        ("core/units.py", 8, "C1"),           # orphan: not in vector
        ("core/vector/backend.py", 7, "C1"),  # ghost: defined nowhere
    ]
    messages = [d.message for d in result.diagnostics]
    assert "not exercised by the serial pipeline" in messages[0]
    assert "unaccounted for in core/vector/backend.py" in messages[1]
    assert "no per-entity unit with that name" in messages[2]


def test_vector_manifest_or_dispatch_passes():
    # One unit dispatched by the vector backend, the other named in its
    # replacement manifest (the module docstring) -- both count.
    result = run_lint(FIXTURES / "c1_vector_good")
    assert result.ok
    assert result.diagnostics == []


def test_vector_gaps_flag_both_directions():
    result = run_lint(FIXTURES / "c1_vector_bad")
    findings = [(d.path, d.code) for d in result.diagnostics]
    assert findings == [
        ("core/units.py", "C1"),           # gap: unaccounted for in vector
        ("core/vector/backend.py", "C1"),  # ghost: defined nowhere
    ]
    messages = [d.message for d in result.diagnostics]
    assert "unaccounted for in core/vector/backend.py" in messages[0]
    assert "harden_gap_entity" in messages[0]
    assert "no per-entity unit with that name" in messages[1]
    assert "check_ghost_entity" in messages[1]


def test_tree_without_vector_module_is_vacuously_clean():
    # No vector backend at the configured path -> nothing to compare
    # against; the p1 clean/bad trees rely on this.
    result = run_lint(
        FIXTURES / "c1_bad", config=LintConfig(vector_path="core/vector/absent.py")
    )
    assert all(d.code != "C1" for d in result.diagnostics)


def test_live_tree_registry_parity_holds():
    import repro

    result = run_lint(
        Path(repro.__file__).parent, config=LintConfig(enabled_codes=frozenset({"C1"}))
    )
    assert result.diagnostics == []
