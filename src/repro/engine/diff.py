"""Structural comparison of validation reports.

The engine's correctness claim is that cache-backed, delta-aware
validation is *observably identical* to the serial pipeline: same
verdicts, same invariants in the same order, same findings in the same
order, same hardened values.  :func:`compare_reports` checks that
claim field by field and returns human-readable differences (empty
list = identical), which is what the differential harness in
``tests/engine`` asserts on.

Floats are compared exactly -- both paths run the same code in the
same order, so they should agree bitwise -- except values the R2
repair produced (confidence ``REPAIRED``), which come out of
``numpy.linalg.lstsq`` and are allowed a tight ``math.isclose``
tolerance to stay robust against BLAS-level nondeterminism.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.report import ValidationReport
from repro.core.signals import Confidence, HardenedState, HardenedValue

__all__ = ["compare_reports"]

#: Relative tolerance applied to REPAIRED (lstsq-derived) values.
REPAIR_REL_TOL = 1e-9
#: Absolute tolerance applied to REPAIRED (lstsq-derived) values.
REPAIR_ABS_TOL = 1e-9


def _values_equal(
    a: Optional[float], b: Optional[float], *, repaired: bool, tolerance: float
) -> bool:
    if a is None or b is None:
        return a is b
    if repaired:
        return math.isclose(a, b, rel_tol=tolerance, abs_tol=REPAIR_ABS_TOL)
    # Exact comparison is this comparator's contract: outside REPAIRED
    # values, both paths run the same code in the same order and must
    # agree bitwise; a tolerance here would mask real divergence.
    return a == b  # lint: ignore[F1]


def _compare_hardened_values(
    label: str,
    a: HardenedValue,
    b: HardenedValue,
    diffs: List[str],
    tolerance: float,
) -> None:
    if a.confidence != b.confidence:
        diffs.append(f"{label}: confidence {a.confidence} != {b.confidence}")
        return
    if a.source != b.source:
        diffs.append(f"{label}: source {a.source!r} != {b.source!r}")
    repaired = a.confidence == Confidence.REPAIRED
    if not _values_equal(a.value, b.value, repaired=repaired, tolerance=tolerance):
        diffs.append(f"{label}: value {a.value!r} != {b.value!r}")


def _compare_hardened(
    a: HardenedState, b: HardenedState, diffs: List[str], tolerance: float
) -> None:
    if a.findings != b.findings:
        if len(a.findings) != len(b.findings):
            diffs.append(
                f"findings: {len(a.findings)} != {len(b.findings)} entries"
            )
        for i, (fa, fb) in enumerate(zip(a.findings, b.findings)):
            if fa != fb:
                diffs.append(f"findings[{i}]: {fa} != {fb}")

    for attr in ("edge_flows", "ext_in", "ext_out", "drops"):
        map_a, map_b = getattr(a, attr), getattr(b, attr)
        if set(map_a) != set(map_b):
            diffs.append(f"{attr}: key sets differ")
            continue
        for key in map_a:
            _compare_hardened_values(
                f"{attr}[{key!r}]", map_a[key], map_b[key], diffs, tolerance
            )

    for attr in ("links", "node_drains", "link_drains"):
        map_a, map_b = getattr(a, attr), getattr(b, attr)
        if set(map_a) != set(map_b):
            diffs.append(f"{attr}: key sets differ")
            continue
        for key in map_a:
            if map_a[key] != map_b[key]:
                diffs.append(f"{attr}[{key!r}]: {map_a[key]} != {map_b[key]}")


def compare_reports(
    a: ValidationReport,
    b: ValidationReport,
    repair_tolerance: float = REPAIR_REL_TOL,
) -> List[str]:
    """Every observable difference between two validation reports.

    Args:
        a: Typically the serial (reference) report.
        b: Typically the engine's report.
        repair_tolerance: Relative tolerance for REPAIRED values.

    Returns:
        Human-readable difference descriptions; empty means the
        reports are observably identical.
    """
    diffs: List[str] = []
    # Timestamps are copied from the snapshot, never computed; any
    # difference at all means the reports describe different epochs.
    if a.timestamp != b.timestamp:  # lint: ignore[F1]
        diffs.append(f"timestamp: {a.timestamp!r} != {b.timestamp!r}")

    _compare_hardened(a.hardened, b.hardened, diffs, repair_tolerance)

    if list(a.verdicts) != list(b.verdicts):
        diffs.append(f"verdicts: key order {list(a.verdicts)} != {list(b.verdicts)}")
    for name in sorted(a.verdicts.keys() & b.verdicts.keys()):
        if a.verdicts[name] != b.verdicts[name]:
            diffs.append(
                f"verdicts[{name!r}]: {a.verdicts[name]} != {b.verdicts[name]}"
            )

    if list(a.checks) != list(b.checks):
        diffs.append(f"checks: key order {list(a.checks)} != {list(b.checks)}")
    for name in sorted(a.checks.keys() & b.checks.keys()):
        check_a, check_b = a.checks[name], b.checks[name]
        if check_a.notes != check_b.notes:
            diffs.append(
                f"checks[{name!r}].notes: {check_a.notes} != {check_b.notes}"
            )
        if len(check_a.results) != len(check_b.results):
            diffs.append(
                f"checks[{name!r}]: {len(check_a.results)} != "
                f"{len(check_b.results)} invariants"
            )
            continue
        for i, (res_a, res_b) in enumerate(zip(check_a.results, check_b.results)):
            label = f"checks[{name!r}].results[{i}]"
            if res_a.invariant.name != res_b.invariant.name:
                diffs.append(
                    f"{label}: name {res_a.invariant.name!r} != "
                    f"{res_b.invariant.name!r}"
                )
                continue
            if res_a.status != res_b.status:
                diffs.append(
                    f"{label} ({res_a.invariant.name}): status "
                    f"{res_a.status} != {res_b.status}"
                )
            if res_a != res_b:
                # Invariant operands may derive from REPAIRED values;
                # accept them within the repair tolerance.
                close = all(
                    _values_equal(va, vb, repaired=True, tolerance=repair_tolerance)
                    for va, vb in (
                        (res_a.invariant.lhs, res_b.invariant.lhs),
                        (res_a.invariant.rhs, res_b.invariant.rhs),
                        (res_a.error, res_b.error),
                    )
                )
                if not close:
                    diffs.append(f"{label} ({res_a.invariant.name}): {res_a} != {res_b}")
    return diffs
