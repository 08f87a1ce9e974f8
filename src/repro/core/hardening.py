"""Hodor step 2: hardening input signals.

Implements the paper's detect-and-repair process over a collected
snapshot:

1. **Detect (R1, link symmetry).** For each traffic direction of each
   link there are two independent measurements -- the transmitter's tx
   counter and the receiver's rx counter.  Pairs that are missing or
   differ by more than the hardening threshold tau_h are "deemed
   spurious and replaced with an unknown variable"; agreeing pairs are
   averaged, "producing a flow vector containing constants and
   variables for traffic volume on each link."
2. **Repair (R2, flow conservation).** The unknown variables are solved
   through the incidence-matrix conservation system
   (:mod:`repro.core.flow_repair`).  When a flagged pair is repaired,
   comparing the repaired value against the two original reports also
   identifies *which* endpoint lied (the paper's arbitration step).
3. **Link status (R1 + R3 + R4).** Status reports from both ends are
   cross-checked against counter activity and active probes through the
   Section 4.2 truth table (:mod:`repro.core.link_status`).
4. **Drain (R1 analogue).** Link drains must agree at both ends
   (Section 4.3's proposed symmetry); node drains are annotated with
   whether the router demonstrably carries traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.config import HodorConfig
from repro.core.drain_reasons import reason_allows_traffic
from repro.core.flow_repair import ConservationSolveCache
from repro.core.link_status import LinkEvidence, combine_link_evidence
from repro.core.signals import (
    CollectedState,
    Confidence,
    DrainVerdict,
    Finding,
    FindingSeverity,
    HardenedDrain,
    HardenedState,
    HardenedValue,
    LinkVerdict,
)
from repro.net.topology import EXTERNAL_PEER, Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.cache import TopologyCache

__all__ = ["Hardener"]


def _relative_gap(a: float, b: float, floor: float) -> float:
    """Relative disagreement between two measurements of one quantity."""
    magnitude = max(abs(a), abs(b))
    if magnitude <= floor:
        return 0.0
    return abs(a - b) / magnitude


class Hardener:
    """Hodor's hardening step.

    The topology-derived structures hardening needs every pass (the
    directed-edge order, per-router incidence lists, the conservation
    equation blocks) live in a
    :class:`~repro.engine.cache.TopologyCache` built once per
    ``Hardener`` -- or shared across validators by passing a memoized
    cache in, which is how the always-on engine skips all topology
    setup on repeat epochs.

    Args:
        reference: The design-time network model; hardening needs the
            link structure to know which interfaces pair up.
        config: Thresholds and truth-table profile.
        cache: Prebuilt topology cache for ``reference``; built on the
            spot when omitted.
    """

    def __init__(
        self,
        reference: Topology,
        config: Optional[HodorConfig] = None,
        cache: Optional["TopologyCache"] = None,
    ) -> None:
        self._reference = reference
        self._config = config or HodorConfig()
        if cache is None:
            from repro.engine.cache import TopologyCache

            cache = TopologyCache.from_topology(reference)
        self._cache = cache

    def harden(self, collected: CollectedState) -> HardenedState:
        """Produce the trusted low-level view of the network.

        Args:
            collected: Step-1 output for this epoch.
        """
        state = HardenedState()
        state.findings.extend(collected.findings)
        self._harden_flows(collected, state)
        self.repair_flows(collected, state)
        self._harden_link_status(collected, state)
        self._harden_drains(collected, state)
        self._harden_link_drains(collected, state)
        return state

    # ------------------------------------------------------------------
    # Step 2a: R1 detection over counters
    # ------------------------------------------------------------------

    def _harden_flows(self, collected: CollectedState, state: HardenedState) -> None:
        for src, dst in self._cache.directed_edges:
            flow, flow_findings = self.harden_edge_entity(collected, src, dst)
            state.edge_flows[(src, dst)] = flow
            state.findings.extend(flow_findings)

        for node in self._cache.nodes:
            node_in, node_out, node_drop, node_findings = self.harden_external_entity(
                collected, node
            )
            state.ext_in[node] = node_in
            state.ext_out[node] = node_out
            state.drops[node] = node_drop
            state.findings.extend(node_findings)

    def harden_edge_entity(
        self, collected: CollectedState, src: str, dst: str
    ) -> Tuple[HardenedValue, Tuple[Finding, ...]]:
        """R1 symmetry for one directed edge (pure per-entity unit).

        Reads only the two interface counters measuring this edge, so
        the vector backend can reuse its output whenever neither
        counter changed.
        """
        findings: List[Finding] = []
        tx_side = collected.counter(src, dst)
        rx_side = collected.counter(dst, src)
        tx = tx_side.tx if tx_side else None
        rx = rx_side.rx if rx_side else None
        return self._symmetry_check(src, dst, tx, rx, findings), tuple(findings)

    def harden_external_entity(
        self, collected: CollectedState, node: str
    ) -> Tuple[HardenedValue, HardenedValue, HardenedValue, Tuple[Finding, ...]]:
        """External counters and drops for one router (per-entity unit).

        Reads only the router's external-interface counter and its drop
        counter.
        """
        external = collected.counter(node, EXTERNAL_PEER)
        ext_in = self._single_source(
            external.rx if external else None, f"{node}:ext rx"
        )
        ext_out = self._single_source(
            external.tx if external else None, f"{node}:ext tx"
        )
        drop = self._single_source(collected.drops.get(node), f"{node} drops")
        findings: Tuple[Finding, ...] = ()
        if external is None:
            findings = (
                Finding(
                    code="MISSING_EXTERNAL_COUNTERS",
                    severity=FindingSeverity.WARNING,
                    subject=node,
                    detail="no external interface reading; left unknown",
                ),
            )
        return ext_in, ext_out, drop, findings

    def _symmetry_check(
        self,
        src: str,
        dst: str,
        tx: Optional[float],
        rx: Optional[float],
        findings: List[Finding],
    ) -> HardenedValue:
        subject = f"{src}->{dst}"
        if tx is None and rx is None:
            findings.append(
                Finding(
                    code="R1_BOTH_MISSING",
                    severity=FindingSeverity.WARNING,
                    subject=subject,
                    detail="no measurement from either end",
                    redundancy="R1",
                )
            )
            return HardenedValue(None, Confidence.UNKNOWN, "no measurements")
        if tx is None or rx is None:
            findings.append(
                Finding(
                    code="R1_ONE_MISSING",
                    severity=FindingSeverity.WARNING,
                    subject=subject,
                    detail="only one end reported; flagged for repair",
                    redundancy="R1",
                )
            )
            return HardenedValue(None, Confidence.UNKNOWN, "one measurement missing")

        gap = _relative_gap(tx, rx, self._config.rate_floor)
        if gap > self._config.tau_h:
            findings.append(
                Finding(
                    code="R1_COUNTER_MISMATCH",
                    severity=FindingSeverity.WARNING,
                    subject=subject,
                    detail=(
                        f"tx@{src}={tx:.6g} vs rx@{dst}={rx:.6g} "
                        f"differ by {gap:.1%} (> tau_h={self._config.tau_h:.1%})"
                    ),
                    redundancy="R1",
                )
            )
            return HardenedValue(None, Confidence.UNKNOWN, "R1 mismatch")
        return HardenedValue((tx + rx) / 2.0, Confidence.CORROBORATED, "avg of both ends")

    def _single_source(self, value: Optional[float], source: str) -> HardenedValue:
        if value is None:
            return HardenedValue(None, Confidence.UNKNOWN, f"{source}: missing")
        return HardenedValue(value, Confidence.REPORTED, source)

    # ------------------------------------------------------------------
    # Step 2b: R2 repair through flow conservation
    # ------------------------------------------------------------------

    def repair_flows(
        self,
        collected: CollectedState,
        state: HardenedState,
        solver_cache: Optional["ConservationSolveCache"] = None,
    ) -> Tuple[Tuple[str, ...], ...]:
        """Solve the conservation system and apply repairs in place.

        Args:
            collected: Step-1 output (needed for R2 arbitration).
            state: Hardened state with the R1 flow vector already
                assembled; repaired values are written back into it.
            solver_cache: Optional
                :class:`~repro.core.flow_repair.ConservationSolveCache`
                memoizing per-component solves across epochs (hits are
                bitwise-identical, so sharing one across epochs never
                changes output).

        Returns:
            The :data:`~repro.core.flow_repair.VarKey` of every unknown
            a repaired value was actually written for, in emission
            order -- the vector backend patches exactly these slots.
        """
        if not self._config.enable_repair:
            return ()
        if not (
            any(hv.value is None for hv in state.edge_flows.values())
            or any(hv.value is None for hv in state.ext_in.values())
            or any(hv.value is None for hv in state.ext_out.values())
            or any(hv.value is None for hv in state.drops.values())
        ):
            return ()  # nothing to repair
        nodes = self._cache.nodes
        edges = self._cache.directed_edges
        edge_values = {e: state.edge_flows[e].value for e in edges}
        ext_in = {n: state.ext_in[n].value for n in nodes}
        ext_out = {n: state.ext_out[n].value for n in nodes}
        drops = {n: state.drops[n].value for n in nodes}

        result = self._cache.conservation.solve(
            edge_values, ext_in, ext_out, drops, cache=solver_cache
        )

        if not result.is_consistent(self._config.repair_residual_tol):
            # In-place repair IS repair_flows()'s documented contract:
            # it upgrades `state` and reports what it wrote.  The
            # vector backend accounts for this by re-running repair
            # whenever any unknown remains (never reusing a mutated
            # state across epochs).
            state.findings.append(  # lint: ignore[P1]
                Finding(
                    code="R2_INCONSISTENT",
                    severity=FindingSeverity.CRITICAL,
                    subject="network",
                    detail=(
                        f"flow conservation residual {result.residual:.3g} exceeds "
                        f"tolerance; corruption is not isolated, repairs withheld"
                    ),
                    redundancy="R2",
                )
            )
            return ()

        repaired: List[Tuple[str, ...]] = []
        for key, value in result.values.items():
            if self._apply_repair(collected, state, key, value):
                repaired.append(key)
        return tuple(repaired)

    def _apply_repair(
        self,
        collected: CollectedState,
        state: HardenedState,
        key: Tuple[str, ...],
        value: Optional[float],
    ) -> bool:
        """Apply one solved unknown; True when a value was written."""
        kind = key[0]
        subject = "->".join(key[1:]) if kind == "edge" else key[1]
        if value is None:
            state.findings.append(
                Finding(
                    code="R2_UNDERDETERMINED",
                    severity=FindingSeverity.WARNING,
                    subject=subject,
                    detail=f"{kind} value not uniquely recoverable; stays unknown",
                    redundancy="R2",
                )
            )
            return False
        if value < -self._config.rate_floor:
            state.findings.append(
                Finding(
                    code="R2_NEGATIVE_SOLUTION",
                    severity=FindingSeverity.CRITICAL,
                    subject=subject,
                    detail=f"conservation solve produced negative rate {value:.6g}",
                    redundancy="R2",
                )
            )
            return False

        repaired = HardenedValue(
            max(0.0, value), Confidence.REPAIRED, "flow conservation"
        )
        if kind == "edge":
            src, dst = key[1], key[2]
            state.edge_flows[(src, dst)] = repaired
            state.findings.append(
                Finding(
                    code="R2_REPAIRED",
                    severity=FindingSeverity.INFO,
                    subject=f"{src}->{dst}",
                    detail=f"flow repaired to {repaired.value:.6g} via conservation",
                    redundancy="R2",
                )
            )
            self._arbitrate(collected, state, src, dst, repaired.value)
        elif kind == "ext_in":
            state.ext_in[key[1]] = repaired
        elif kind == "ext_out":
            state.ext_out[key[1]] = repaired
        elif kind == "drop":
            state.drops[key[1]] = repaired
        return True

    def _arbitrate(
        self,
        collected: CollectedState,
        state: HardenedState,
        src: str,
        dst: str,
        repaired: Optional[float],
    ) -> None:
        """Name the endpoint whose counter disagrees with the repair."""
        if repaired is None:
            return
        tx_side = collected.counter(src, dst)
        rx_side = collected.counter(dst, src)
        reports = {
            f"tx@{src}->{dst}": tx_side.tx if tx_side else None,
            f"rx@{dst}->{src}": rx_side.rx if rx_side else None,
        }
        for label, report in reports.items():
            if report is None:
                continue
            gap = _relative_gap(report, repaired, self._config.rate_floor)
            if gap > self._config.tau_h:
                state.findings.append(
                    Finding(
                        code="R2_CULPRIT",
                        severity=FindingSeverity.WARNING,
                        subject=label,
                        detail=(
                            f"reported {report:.6g} but conservation implies "
                            f"{repaired:.6g}; this counter is most likely incorrect"
                        ),
                        redundancy="R2",
                    )
                )

    # ------------------------------------------------------------------
    # Step 2c: link-status truth table (R1 + R3 + R4)
    # ------------------------------------------------------------------

    def _harden_link_status(self, collected: CollectedState, state: HardenedState) -> None:
        for link in self._cache.links:
            hardened, findings = self.harden_link_status_entity(collected, link)
            state.links[link.name] = hardened
            state.findings.extend(findings)

    def harden_link_status_entity(
        self, collected: CollectedState, link
    ) -> Tuple[HardenedLinkStatus, Tuple[Finding, ...]]:
        """Truth-table verdict for one link (pure per-entity unit).

        Reads only the link's two status reports, two counters, and two
        probes.
        """
        a, b = link.a, link.b
        status_ab = collected.statuses.get((a, b))
        status_ba = collected.statuses.get((b, a))
        counter_ab = collected.counter(a, b)
        counter_ba = collected.counter(b, a)
        rates: Tuple[Optional[float], ...] = tuple(
            value
            for counter in (counter_ab, counter_ba)
            if counter is not None
            for value in (counter.rx, counter.tx)
        )
        evidence = LinkEvidence(
            status_a=status_ab.oper_up if status_ab else None,
            status_b=status_ba.oper_up if status_ba else None,
            rates=rates,
            probe_ab=collected.probes.get((a, b)),
            probe_ba=collected.probes.get((b, a)),
        )
        hardened = combine_link_evidence(evidence, self._config)

        findings: List[Finding] = []
        if evidence.status_consensus() == "conflict":
            findings.append(
                Finding(
                    code="R1_STATUS_MISMATCH",
                    severity=FindingSeverity.WARNING,
                    subject=link.name,
                    detail="endpoints disagree on oper-status",
                    redundancy="R1",
                )
            )
        if hardened.verdict == LinkVerdict.SUSPECT:
            findings.append(
                Finding(
                    code="LINK_SUSPECT",
                    severity=FindingSeverity.WARNING,
                    subject=link.name,
                    detail=f"evidence unresolved: {', '.join(hardened.evidence)}",
                    redundancy="R3",
                )
            )
        if hardened.verdict == LinkVerdict.UP and hardened.forwarding is False:
            findings.append(
                Finding(
                    code="SEMANTIC_LINK_FAILURE",
                    severity=FindingSeverity.CRITICAL,
                    subject=link.name,
                    detail="status up but dataplane does not forward",
                    redundancy="R4",
                )
            )
        return hardened, tuple(findings)

    # ------------------------------------------------------------------
    # Step 2d: drain hardening
    # ------------------------------------------------------------------

    def _harden_drains(self, collected: CollectedState, state: HardenedState) -> None:
        for node in self._cache.nodes:
            hardened, findings = self.harden_node_drain_entity(collected, node, state)
            state.findings.extend(findings)
            state.node_drains[node] = hardened

    def harden_node_drain_entity(
        self, collected: CollectedState, node: str, state: HardenedState
    ) -> Tuple[HardenedDrain, Tuple[Finding, ...]]:
        """Drain verdict for one router (per-entity unit).

        Reads the router's drain bit and reason plus the *post-repair*
        flow vector around it (``state.edge_flows``/``ext_in``/
        ``ext_out``), so a repaired edge dirties both its endpoints.
        """
        findings: List[Finding] = []
        reported = collected.drains.get(node)
        reason = collected.drain_reasons.get(node)
        carrying = self._node_carries_traffic(node, state)
        if reported is None:
            verdict = DrainVerdict.CONFLICTED
            findings.append(
                Finding(
                    code="DRAIN_MISSING",
                    severity=FindingSeverity.WARNING,
                    subject=node,
                    detail="no usable drain report",
                )
            )
        else:
            verdict = DrainVerdict.DRAINED if reported else DrainVerdict.SERVING
            if reported and carrying:
                findings.append(self._drained_but_carrying_finding(node, reason))
        evidence = []
        if carrying is not None:
            evidence.append("traffic:active" if carrying else "traffic:idle")
        if reason is not None:
            evidence.append(f"reason:{reason.value}")
        hardened = HardenedDrain(
            verdict=verdict,
            carrying_traffic=carrying,
            reason=reason,
            evidence=tuple(evidence),
        )
        return hardened, tuple(findings)

    @staticmethod
    def _drained_but_carrying_finding(node, reason) -> Finding:
        """The paper's "case 2": drained yet demonstrably carrying.

        Without a reason (or with one that does not explain traffic)
        this is warning-grade -- possibly an erroneous drain, possibly
        a fresh one; an SRE should look.  A declared maintenance or
        incident drain legitimately overlaps with traffic draining
        away, so the finding degrades to informational -- the Section
        4.3 reasons proposal eliminating the acknowledged false
        positive.
        """
        explained = reason is not None and reason_allows_traffic(reason)
        return Finding(
            code="DRAINED_BUT_CARRYING",
            severity=FindingSeverity.INFO if explained else FindingSeverity.WARNING,
            subject=node,
            detail=(
                "reports drained yet demonstrably carries traffic; "
                + (
                    f"expected while a {reason.value} drain settles"
                    if explained
                    else "consistent with a fresh or erroneous drain"
                )
            ),
            redundancy="R3",
        )

    def _harden_link_drains(self, collected: CollectedState, state: HardenedState) -> None:
        for link in self._cache.links:
            hardened, findings = self.harden_link_drain_entity(collected, link)
            state.findings.extend(findings)
            state.link_drains[link.name] = hardened

    def harden_link_drain_entity(
        self, collected: CollectedState, link
    ) -> Tuple[HardenedDrain, Tuple[Finding, ...]]:
        """Link-drain symmetry for one link (pure per-entity unit)."""
        bits = [
            collected.link_drains.get((link.a, link.b)),
            collected.link_drains.get((link.b, link.a)),
        ]
        known = [bit for bit in bits if bit is not None]
        findings: Tuple[Finding, ...] = ()
        if known and all(known) and len(known) == 2:
            verdict = DrainVerdict.DRAINED
        elif known and not any(known):
            verdict = DrainVerdict.SERVING
        else:
            verdict = DrainVerdict.CONFLICTED
            findings = (
                Finding(
                    code="R1_DRAIN_MISMATCH",
                    severity=FindingSeverity.WARNING,
                    subject=link.name,
                    detail=f"link-drain bits disagree across endpoints: {bits}",
                    redundancy="R1",
                ),
            )
        return HardenedDrain(verdict=verdict), findings

    def _node_carries_traffic(self, node: str, state: HardenedState) -> Optional[bool]:
        """Does the hardened flow vector show traffic at this router?"""
        rates = []
        for edge in self._cache.node_edges.get(node, ()):
            hardened = state.edge_flows.get(edge)
            if hardened is not None and hardened.known:
                rates.append(hardened.value)
        for mapping in (state.ext_in, state.ext_out):
            hardened = mapping.get(node)
            if hardened is not None and hardened.known:
                rates.append(hardened.value)
        if not rates:
            return None
        return any(rate > self._config.active_threshold for rate in rates)
