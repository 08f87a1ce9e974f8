"""Epoch-time array evaluation for the vector backend.

:class:`VectorValidator` re-expresses the core pipeline stages on the
compiled :class:`~repro.core.vector.model.VectorModel` arrays:

- **collect** packs each snapshot family into dense slot arrays with a
  ``np.fromiter`` fast path (NaN codes missing rates, small ints code
  tri-state booleans); any entry the fast path cannot prove benign --
  malformed, stale, boolean-typed, out of universe -- is routed
  through the corresponding serial per-entity unit so coercion
  findings and crash behavior stay byte-identical;
- **R1 symmetry** is one paired-column comparison (``tx[edge]`` vs
  ``rx[edge_rev[edge]]``) plus vectorized relative-gap math that
  reproduces the scalar arithmetic bit for bit;
- **R2 conservation** keeps the serial solver (component solves are
  cached bitwise in :class:`ConservationSolveCache`); the vector layer
  contributes the gate (an ``isnan``-any over the flow arrays) and
  scatter-updates of the post-repair value arrays;
- **link status / drains** reduce each entity to a small integer
  category; one hardened object per distinct category is interned and
  findings are memoized per ``(slot, category)``, so steady-state
  epochs allocate almost nothing;
- **dynamic checks** gather per-entity signature arrays in the
  checkers' sorted orders and call the serial per-entity check units
  only for entities whose signature moved.

Parity contract (enforced by ``tests/engine/test_vector.py`` and the
fuzz oracle's ``vector`` mode): reports -- findings, invariants,
notes, and :class:`~repro.obs.provenance.VerdictProvenance` -- are
identical to the per-entity path's.  The per-entity units this module
is the array twin of: ``collect_counter_entity``,
``collect_status_entity``, ``collect_drain_entity``,
``collect_drain_reason_entity``, ``collect_link_drain_entity``,
``collect_drop_entity`` (exception path + oracle),
``harden_edge_entity`` / ``harden_external_entity`` /
``harden_node_drain_entity`` / ``harden_link_drain_entity``
(replicated as array math), ``repair_flows`` (delegated),
``harden_link_status_entity`` (interned via
:func:`~repro.core.link_status.combine_codes`; serial on exceptional
probes), and ``check_node_entity`` / ``check_link_entity`` of the
demand/topology/drain checkers (called on signature change).
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.demand_check import DemandChecker
from repro.core.drain_reasons import DrainReason
from repro.core.flow_repair import ConservationSolveCache
from repro.core.invariants import CheckResult
from repro.core.link_status import combine_codes
from repro.core.pipeline import Hodor
from repro.core.report import ValidationReport
from repro.core.signals import (
    CollectedCounter,
    CollectedStatus,
    Confidence,
    DrainVerdict,
    Finding,
    FindingSeverity,
    HardenedDrain,
    HardenedState,
    HardenedValue,
    LinkVerdict,
)
from repro.core.vector.model import VectorModel
from repro.obs.trace import NullTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.control.inputs import ControllerInputs
    from repro.core.config import HodorConfig
    from repro.engine.cache import TopologyCache
    from repro.engine.stats import EngineStats
    from repro.telemetry.snapshot import NetworkSnapshot

__all__ = ["VectorValidator"]

_INF = float("inf")
#: Largest int magnitude float64 represents exactly; bigger timestamps
#: go through the serial unit so staleness math never loses precision.
_EXACT_INT = 2**52

# Code tables (plain immutable literals only; all arrays and interned
# objects live on the validator instance).
_STATUS_STRS = ("up", "down", "conflict", "unknown")
_ACTIVE_VALS = (False, True, None)
_PROBE_STRS = ("ok", "fail", "unknown")
_TRI = (None, False, True)


def _neq(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Elementwise "signature moved" mask; NaN equals NaN.

    Exact bit comparison is the reuse guard's contract: a spurious
    difference costs a recompute, a tolerance could reuse stale output
    and break parity.  Returns
    ``None`` (nothing moved) when both operands are the same array.
    """
    if a is b:
        return None
    return ~((a == b) | (np.isnan(a) & np.isnan(b)))


class _PackedStatuses:
    """``collected.statuses``-shaped read view over the packed arrays."""

    __slots__ = ("_v",)

    def __init__(self, validator: "VectorValidator") -> None:
        self._v = validator

    def get(self, key, default=None):
        v = self._v
        obj = v._extra_statuses.get(key)
        if obj is not None:
            return obj
        idx = v._model.edge_index.get(key)
        if idx is None or not v._st_present[idx]:
            return default
        code = v._st_oper[idx]
        # admin_up is never read downstream of collection.
        return CollectedStatus(oper_up=None if code < 0 else bool(code), admin_up=None)


class _PackedProbes:
    """``collected.probes``-shaped read view over the packed arrays."""

    __slots__ = ("_v",)

    def __init__(self, validator: "VectorValidator") -> None:
        self._v = validator

    def get(self, key, default=None):
        v = self._v
        if key in v._extra_probes:
            return v._extra_probes[key]
        idx = v._model.edge_index.get(key)
        if idx is None:
            return default
        code = v._pr[idx]
        return default if code < 0 else bool(code)


class _CollectedView:
    """Lazy ``CollectedState`` facade for the serial units we delegate to.

    Only the accessors the delegated units actually touch exist:
    ``counter()`` (R2 arbitration, link-status fallback),
    ``statuses.get`` and ``probes.get`` (link-status fallback).
    """

    __slots__ = ("_v", "statuses", "probes")

    def __init__(self, validator: "VectorValidator") -> None:
        self._v = validator
        self.statuses = _PackedStatuses(validator)
        self.probes = _PackedProbes(validator)

    def counter(self, node: str, peer: str) -> Optional[CollectedCounter]:
        v = self._v
        obj = v._counter_objs.get((node, peer))
        if obj is not None:
            return obj
        idx = v._model.counter_slot.get((node, peer))
        if idx is None or not v._cnt_present[idx]:
            return None
        rx = v._cnt_rx[idx]
        tx = v._cnt_tx[idx]
        return CollectedCounter(
            rx=None if math.isnan(rx) else float(rx),
            tx=None if math.isnan(tx) else float(tx),
            timestamp=float(v._cnt_ts[idx]),
        )


class VectorValidator:
    """Array-compiled epoch validation for one topology fingerprint.

    Produces reports identical to the per-entity python units, with
    the same stage spans and stats.  Internally every epoch is
    evaluated on the compiled arrays with cross-epoch object reuse
    keyed on exact value signatures, so cost tracks churn.

    Args:
        config: Pipeline configuration.
        cache: The topology cache shared with the serial path.
        components: The per-topology pipeline components (collector,
            hardener, checkers) -- the serial units double as the
            exception path and the differential oracle.
        stats: Engine counters; stage timings and reuse counts land here.
        tracer: Optional tracer; stage spans are annotated with
            recomputed/reused entity counts.
        model: Precompiled :class:`VectorModel` (from
            :class:`~repro.engine.cache.VectorModelStore`); compiled
            on the spot when omitted.
    """

    def __init__(
        self,
        config: HodorConfig,
        cache: TopologyCache,
        components,
        stats: EngineStats,
        tracer=None,
        model: Optional[VectorModel] = None,
    ) -> None:
        self._config = config
        self._cache = cache
        self._components = components
        self._stats = stats
        self._tracer = tracer if tracer is not None else NullTracer()
        self._model = model if model is not None else VectorModel.from_cache(cache)
        self._solver_cache = ConservationSolveCache()

        m = self._model
        self._link_name_set = frozenset(m.link_names)
        # edge index -> owning link index (marks exceptional-probe links).
        edge_link = np.empty(m.num_edges, dtype=np.int64)
        edge_link[m.link_ab] = np.arange(m.num_links, dtype=np.int64)
        edge_link[m.link_ba] = np.arange(m.num_links, dtype=np.int64)
        self._edge_link = edge_link
        self._reason_code = {reason: i for i, reason in enumerate(tuple(DrainReason))}

        # Interned shared objects (frozen dataclasses; one per disposition).
        self._hv_both = HardenedValue(None, Confidence.UNKNOWN, "no measurements")
        self._hv_one = HardenedValue(None, Confidence.UNKNOWN, "one measurement missing")
        self._hv_mismatch = HardenedValue(None, Confidence.UNKNOWN, "R1 mismatch")
        self._edge_fnd_memo: Dict[Tuple[int, int], Tuple[Finding, ...]] = {}
        self._ext_fnd_memo: Dict[int, Tuple[Finding, ...]] = {}
        self._ls_intern: Dict[int, object] = {}
        self._ls_usable = np.zeros(36, dtype=bool)
        self._ls_fnd_memo: Dict[Tuple[int, int], Tuple[Finding, ...]] = {}
        self._nd_intern: Dict[int, HardenedDrain] = {}
        self._nd_fnd_memo: Dict[Tuple[int, int], Tuple[Finding, ...]] = {}
        self._ld_intern: Dict[int, HardenedDrain] = {}
        self._ld_fnd_memo: Dict[Tuple[int, int], Tuple[Finding, ...]] = {}

        # Per-family (keys, slots) layout caches for the pack stage.
        self._lay_counters: Optional[Tuple[tuple, np.ndarray]] = None
        self._lay_statuses: Optional[Tuple[tuple, np.ndarray]] = None
        self._lay_drains: Optional[Tuple[tuple, np.ndarray]] = None
        self._lay_link_drains: Optional[Tuple[tuple, np.ndarray]] = None
        self._lay_drops: Optional[Tuple[tuple, np.ndarray]] = None
        self._lay_probes: Optional[Tuple[tuple, np.ndarray]] = None

        self.reset()

    def reset(self) -> None:
        """Drop all epoch state (the next epoch primes from scratch)."""
        m = self._model
        self._primed = False
        self._prev_snapshot: Optional[NetworkSnapshot] = None
        self._state: Optional[HardenedState] = None

        # -- collect (rebound per epoch)
        self._cnt_rx = np.full(m.num_counter_slots, np.nan)
        self._cnt_tx = np.full(m.num_counter_slots, np.nan)
        self._cnt_ts = np.zeros(m.num_counter_slots)
        self._cnt_present = np.zeros(m.num_counter_slots, dtype=bool)
        self._st_oper = np.full(m.num_edges, -1, dtype=np.int8)
        self._st_present = np.zeros(m.num_edges, dtype=bool)
        self._pr = np.full(m.num_edges, -1, dtype=np.int8)
        self._nd_bit = np.full(m.num_nodes, -1, dtype=np.int8)
        self._nd_reason = np.full(m.num_nodes, -1, dtype=np.int8)
        self._ld_code = np.full(m.num_edges, -1, dtype=np.int8)
        self._dp = np.full(m.num_nodes, np.nan)
        self._counter_objs: Dict[Tuple[str, str], CollectedCounter] = {}
        self._extra_statuses: Dict[Tuple[str, str], CollectedStatus] = {}
        self._extra_probes: Dict[Tuple[str, str], object] = {}
        self._serial_links: List[int] = []
        self._collected_findings: List[Finding] = []
        self._pack_total = 0
        self._pack_recomputed = 0

        # -- harden signatures + object/finding arrays (mutated in place)
        self._TX: Optional[np.ndarray] = None
        self._RX: Optional[np.ndarray] = None
        self._edge_objs = np.empty(m.num_edges, dtype=object)
        self._edge_fnds = np.empty(m.num_edges, dtype=object)
        self._edge_has = np.zeros(m.num_edges, dtype=bool)
        self._ex_rx: Optional[np.ndarray] = None
        self._ex_tx: Optional[np.ndarray] = None
        self._ex_dp: Optional[np.ndarray] = None
        self._ex_pres: Optional[np.ndarray] = None
        self._ext_in_objs = np.empty(m.num_nodes, dtype=object)
        self._ext_out_objs = np.empty(m.num_nodes, dtype=object)
        self._drop_objs = np.empty(m.num_nodes, dtype=object)
        self._ext_fnds = np.empty(m.num_nodes, dtype=object)
        self._ext_has = np.zeros(m.num_nodes, dtype=bool)
        self._EV: Optional[np.ndarray] = None
        self._EI: Optional[np.ndarray] = None
        self._EO: Optional[np.ndarray] = None
        self._DR: Optional[np.ndarray] = None
        self._ei_rep = np.zeros(m.num_nodes, dtype=bool)
        self._eo_rep = np.zeros(m.num_nodes, dtype=bool)
        self._ls_cats = np.full(m.num_links, -1, dtype=np.int64)
        self._ls_objs = np.empty(m.num_links, dtype=object)
        self._ls_fnds = np.empty(m.num_links, dtype=object)
        self._ls_has = np.zeros(m.num_links, dtype=bool)
        self._nd_cats: Optional[np.ndarray] = None
        self._nd_objs = np.empty(m.num_nodes, dtype=object)
        self._nd_fnds = np.empty(m.num_nodes, dtype=object)
        self._nd_has = np.zeros(m.num_nodes, dtype=bool)
        self._ld_cats: Optional[np.ndarray] = None
        self._ld_objs = np.empty(m.num_links, dtype=object)
        self._ld_fnds = np.empty(m.num_links, dtype=object)
        self._ld_has = np.zeros(m.num_links, dtype=bool)

        # -- check signatures + entry arrays (sorted orders)
        self._dem_nodes: Optional[tuple] = None
        self._dem_arr: Optional[np.ndarray] = None
        self._dem_member: Optional[np.ndarray] = None
        self._dem_pos: Optional[np.ndarray] = None
        self._dem_ei: Optional[np.ndarray] = None
        self._dem_eo: Optional[np.ndarray] = None
        self._dem_eirep: Optional[np.ndarray] = None
        self._dem_eorep: Optional[np.ndarray] = None
        self._prev_total_dropped: Optional[float] = None
        self._demand_entries = np.empty(m.num_nodes, dtype=object)
        self._topo_bits: Optional[np.ndarray] = None
        self._topo_cats_sig: Optional[np.ndarray] = None
        self._topo_entries = np.empty(m.num_links, dtype=object)
        self._topo_serial = False
        self._dn_bits: Optional[np.ndarray] = None
        self._dn_cats_sig: Optional[np.ndarray] = None
        self._dn_cc_sig: Optional[np.ndarray] = None
        self._dn_hf_sig: Optional[np.ndarray] = None
        self._dn_entries = np.empty(m.num_nodes, dtype=object)
        self._dl_bits: Optional[np.ndarray] = None
        self._dl_cats_sig: Optional[np.ndarray] = None
        self._dl_entries = np.empty(m.num_links, dtype=object)

    # ------------------------------------------------------------------

    def validate(
        self, snapshot: NetworkSnapshot, inputs: ControllerInputs
    ) -> ValidationReport:
        """Validate one epoch on the compiled arrays."""
        tracer = self._tracer
        m = self._model
        same = self._primed and snapshot is self._prev_snapshot
        if tracer.enabled:
            tracer.instant("vector", priming=not self._primed, replay=same)

        try:
            with tracer.span("collect", category="stage") as span:
                reuse_before = self._reuse_totals("collect") if tracer.enabled else None
                stage_start = time.perf_counter()
                if same:
                    self._stats.record_reuse("collect", 0, self._pack_total)
                else:
                    self._pack(snapshot)
                self._stats.record_stage("collect", time.perf_counter() - stage_start)
                self._annotate_reuse(span, "collect", reuse_before)

            with tracer.span("harden", category="stage") as span:
                reuse_before = self._reuse_totals("harden") if tracer.enabled else None
                stage_start = time.perf_counter()
                if same:
                    state = self._state
                    self._stats.record_reuse("harden.flows", 0, m.num_edges)
                    self._stats.record_reuse("harden.external", 0, m.num_nodes)
                    self._stats.record_reuse("harden.links", 0, m.num_links)
                    self._stats.record_reuse("harden.drains", 0, m.num_nodes)
                    self._stats.record_reuse("harden.drains", 0, m.num_links)
                else:
                    state = self._harden(snapshot)
                self._stats.record_stage("harden", time.perf_counter() - stage_start)
                self._annotate_reuse(span, "harden", reuse_before)

            with tracer.span("check", category="stage") as span:
                reuse_before = self._reuse_totals("check") if tracer.enabled else None
                stage_start = time.perf_counter()
                report = ValidationReport(timestamp=snapshot.timestamp, hardened=state)
                Hodor._record(report, self._check_demand(inputs, state))
                Hodor._record(report, self._check_topology(inputs, state))
                Hodor._record(report, self._check_drain(inputs, state))
                self._stats.record_stage("check", time.perf_counter() - stage_start)
                self._annotate_reuse(span, "check", reuse_before)
        except BaseException:
            self.reset()
            raise

        self._state = state
        self._prev_snapshot = snapshot
        self._primed = True
        return report

    def _reuse_totals(self, prefix: str) -> Tuple[int, int]:
        """(recomputed, reused) totals across a stage's entity families."""
        recomputed = sum(
            count
            for stage, count in self._stats.entities_recomputed.items()
            if stage.startswith(prefix)
        )
        reused = sum(
            count
            for stage, count in self._stats.entities_reused.items()
            if stage.startswith(prefix)
        )
        return recomputed, reused

    def _annotate_reuse(self, span, prefix: str, before: Optional[Tuple[int, int]]) -> None:
        if before is None:
            return
        recomputed, reused = self._reuse_totals(prefix)
        span.annotate(recomputed=recomputed - before[0], reused=reused - before[1])

    # ------------------------------------------------------------------
    # Stage 1: pack (collection)
    # ------------------------------------------------------------------

    def _layout(self, cached, mapping, slot_map) -> Tuple[tuple, np.ndarray]:
        """Key->slot gather for one family, revalidated by key tuple."""
        keys = tuple(mapping)
        if cached is not None and cached[0] == keys:
            return cached
        slots = np.fromiter(
            (slot_map.get(key, -1) for key in keys), np.int64, count=len(keys)
        )
        return (keys, slots)

    def _pack(self, snapshot: NetworkSnapshot) -> None:
        """Pack every snapshot family into the dense slot arrays.

        Fast paths cover exactly the values whose serial coercion is
        the identity with no finding; everything else goes through the
        serial ``collect_*_entity`` units (crash/finding parity) and is
        scattered into the arrays afterwards.  Family findings are
        emitted in sorted-key order, matching serial collection.
        """
        m = self._model
        collector = self._components.collector
        config = self._config
        snap_ts = snapshot.timestamp
        findings: List[Finding] = []
        self._counter_objs = {}
        self._extra_statuses = {}
        self._extra_probes = {}
        serial_links: Set[int] = set()
        total = 0
        recomputed = 0

        # -- interface counters -------------------------------------------------
        counters = snapshot.counters
        n = len(counters)
        total += n
        self._lay_counters = self._layout(self._lay_counters, counters, m.counter_slot)
        keys, slots = self._lay_counters
        crx = np.full(m.num_counter_slots, np.nan)
        ctx = np.full(m.num_counter_slots, np.nan)
        cts = np.zeros(m.num_counter_slots)
        cpres = np.zeros(m.num_counter_slots, dtype=bool)
        if n:
            rx = np.fromiter(
                (
                    v
                    if type(v := r.rx_rate) is float and 0.0 <= v < _INF
                    else (np.nan if v is None else -1.0)
                    for r in counters.values()
                ),
                np.float64,
                count=n,
            )
            tx = np.fromiter(
                (
                    v
                    if type(v := r.tx_rate) is float and 0.0 <= v < _INF
                    else (np.nan if v is None else -1.0)
                    for r in counters.values()
                ),
                np.float64,
                count=n,
            )
            ts = np.fromiter(
                (
                    t
                    if type(t := r.timestamp) is float
                    else (
                        float(t)
                        if type(t) is int and -_EXACT_INT < t < _EXACT_INT
                        else -_INF
                    )
                    for r in counters.values()
                ),
                np.float64,
                count=n,
            )
            # -1.0 flags a rate the fast path could not clear (valid rates
            # are >= 0); -inf timestamps force the stale branch, whose
            # serial unit reproduces exact serial behavior (including the
            # TypeError a non-numeric timestamp raises there).
            exc = (
                (rx == -1.0)  # lint: ignore[F1]
                | (tx == -1.0)  # lint: ignore[F1]
                | ((snap_ts - ts) > config.max_staleness_s)
                | (slots < 0)
            )
            ok = ~exc
            sl = slots[ok]
            crx[sl] = rx[ok]
            ctx[sl] = tx[ok]
            cts[sl] = ts[ok]
            cpres[sl] = True
            if exc.any():
                fmap: Dict[Tuple[str, str], Tuple[Finding, ...]] = {}
                for i in np.nonzero(exc)[0].tolist():
                    key = keys[i]
                    obj, fnds = collector.collect_counter_entity(
                        snap_ts, key, counters[key]
                    )
                    recomputed += 1
                    self._counter_objs[key] = obj
                    slot = slots[i]
                    if slot >= 0:
                        crx[slot] = np.nan if obj.rx is None else obj.rx
                        ctx[slot] = np.nan if obj.tx is None else obj.tx
                        cpres[slot] = True
                    if fnds:
                        fmap[key] = fnds
                for key in sorted(fmap):
                    findings.extend(fmap[key])
        self._cnt_rx, self._cnt_tx, self._cnt_ts, self._cnt_present = crx, ctx, cts, cpres

        # -- link status --------------------------------------------------------
        statuses = snapshot.link_status
        n = len(statuses)
        total += n
        self._lay_statuses = self._layout(self._lay_statuses, statuses, m.edge_index)
        keys, slots = self._lay_statuses
        st = np.full(m.num_edges, -1, dtype=np.int8)
        spres = np.zeros(m.num_edges, dtype=bool)
        if n:
            codes = np.fromiter(
                (
                    1
                    if (o := rep.oper_up) is True
                    else (0 if o is False else (-1 if o is None else -2))
                    for rep in statuses.values()
                ),
                np.int8,
                count=n,
            )
            exc = (codes == -2) | (slots < 0)
            ok = ~exc
            sl = slots[ok]
            st[sl] = codes[ok]
            spres[sl] = True
            if exc.any():
                fmap = {}
                for i in np.nonzero(exc)[0].tolist():
                    key = keys[i]
                    obj, fnds = collector.collect_status_entity(key, statuses[key])
                    recomputed += 1
                    slot = slots[i]
                    if slot >= 0:
                        oper = obj.oper_up
                        st[slot] = -1 if oper is None else int(oper)
                        spres[slot] = True
                    self._extra_statuses[key] = obj
                    if fnds:
                        fmap[key] = fnds
                for key in sorted(fmap):
                    findings.extend(fmap[key])
        self._st_oper, self._st_present = st, spres

        # -- node drains --------------------------------------------------------
        drains = snapshot.drains
        n = len(drains)
        total += n
        self._lay_drains = self._layout(self._lay_drains, drains, m.node_slot)
        keys, slots = self._lay_drains
        nd = np.full(m.num_nodes, -1, dtype=np.int8)
        if n:
            codes = np.fromiter(
                (
                    1
                    if (o := raw) is True
                    else (0 if o is False else (-1 if o is None else -2))
                    for raw in drains.values()
                ),
                np.int8,
                count=n,
            )
            exc = codes == -2
            ok = ~exc & (slots >= 0)
            nd[slots[ok]] = codes[ok]
            if exc.any():
                fmap = {}
                for i in np.nonzero(exc)[0].tolist():
                    key = keys[i]
                    value, fnds = collector.collect_drain_entity(key, drains[key])
                    recomputed += 1
                    slot = slots[i]
                    if slot >= 0:
                        nd[slot] = -1 if value is None else int(value)
                    if fnds:
                        fmap[key] = fnds
                for key in sorted(fmap):
                    findings.extend(fmap[key])
        self._nd_bit = nd

        # -- drain reasons (small family; parsed inline) ------------------------
        reasons = snapshot.drain_reasons
        total += len(reasons)
        rs = np.full(m.num_nodes, -1, dtype=np.int8)
        if reasons:
            fmap = {}
            reason_code = self._reason_code
            for key, raw in reasons.items():
                value, fnds = collector.collect_drain_reason_entity(key, raw)
                recomputed += 1
                slot = m.node_slot.get(key)
                if slot is not None and value is not None:
                    rs[slot] = reason_code[value]
                if fnds:
                    fmap[key] = fnds
            for key in sorted(fmap):
                findings.extend(fmap[key])
        self._nd_reason = rs

        # -- link drains --------------------------------------------------------
        link_drains = snapshot.link_drains
        n = len(link_drains)
        total += n
        self._lay_link_drains = self._layout(
            self._lay_link_drains, link_drains, m.edge_index
        )
        keys, slots = self._lay_link_drains
        ld = np.full(m.num_edges, -1, dtype=np.int8)
        if n:
            codes = np.fromiter(
                (
                    1
                    if (o := raw) is True
                    else (0 if o is False else (-1 if o is None else -2))
                    for raw in link_drains.values()
                ),
                np.int8,
                count=n,
            )
            exc = codes == -2
            ok = ~exc & (slots >= 0)
            ld[slots[ok]] = codes[ok]
            if exc.any():
                # collect_link_drain_entity never emits findings.
                for i in np.nonzero(exc)[0].tolist():
                    key = keys[i]
                    value, _fnds = collector.collect_link_drain_entity(
                        key, link_drains[key]
                    )
                    recomputed += 1
                    slot = slots[i]
                    if slot >= 0:
                        ld[slot] = -1 if value is None else int(value)
        self._ld_code = ld

        # -- drop counters ------------------------------------------------------
        drops = snapshot.drops
        n = len(drops)
        total += n
        self._lay_drops = self._layout(self._lay_drops, drops, m.node_slot)
        keys, slots = self._lay_drops
        dp = np.full(m.num_nodes, np.nan)
        if n:
            vals = np.fromiter(
                (
                    v
                    if type(v := raw) is float and 0.0 <= v < _INF
                    else (np.nan if v is None else -1.0)
                    for raw in drops.values()
                ),
                np.float64,
                count=n,
            )
            exc = vals == -1.0  # lint: ignore[F1]
            ok = ~exc & (slots >= 0)
            dp[slots[ok]] = vals[ok]
            if exc.any():
                fmap = {}
                for i in np.nonzero(exc)[0].tolist():
                    key = keys[i]
                    value, fnds = collector.collect_drop_entity(key, drops[key])
                    recomputed += 1
                    slot = slots[i]
                    if slot >= 0:
                        dp[slot] = np.nan if value is None else value
                    if fnds:
                        fmap[key] = fnds
                for key in sorted(fmap):
                    findings.extend(fmap[key])
        self._dp = dp

        # -- probes (raw booleans; no collection unit, no findings) -------------
        probes = snapshot.probes
        n = len(probes)
        self._lay_probes = self._layout(self._lay_probes, probes, m.edge_index)
        keys, slots = self._lay_probes
        pr = np.full(m.num_edges, -1, dtype=np.int8)
        if n:
            codes = np.fromiter(
                (
                    1
                    if (o := result.ok) is True
                    else (0 if o is False else -2)
                    for result in probes.values()
                ),
                np.int8,
                count=n,
            )
            exc = codes == -2
            ok = ~exc & (slots >= 0)
            pr[slots[ok]] = codes[ok]
            if exc.any():
                # A probe whose .ok is not a plain bool routes its link's
                # status hardening through the serial unit.
                for i in np.nonzero(exc)[0].tolist():
                    key = keys[i]
                    self._extra_probes[key] = probes[key].ok
                    slot = slots[i]
                    if slot >= 0:
                        serial_links.add(int(self._edge_link[slot]))
        self._pr = pr

        self._serial_links = sorted(serial_links)
        self._collected_findings = findings
        self._pack_total = total
        self._pack_recomputed = recomputed
        self._stats.record_reuse("collect", recomputed, total - recomputed)

    # ------------------------------------------------------------------
    # Stage 2: hardening
    # ------------------------------------------------------------------

    def _harden(self, snapshot: NetworkSnapshot) -> HardenedState:
        m = self._model
        cache = self._cache
        config = self._config
        primed = self._primed
        state = HardenedState()
        state.findings.extend(self._collected_findings)

        # -- R1 symmetry: paired-column comparison over all edges --------------
        E = m.num_edges
        tx = self._cnt_tx[:E]
        rx = self._cnt_rx[m.edge_rev]
        tx_nan = np.isnan(tx)
        rx_nan = np.isnan(rx)
        both = tx_nan & rx_nan
        one = tx_nan ^ rx_nan
        known2 = ~(tx_nan | rx_nan)
        mag = np.maximum(np.abs(tx), np.abs(rx))
        gaps = np.divide(
            np.abs(tx - rx),
            mag,
            out=np.zeros(E),
            where=known2 & (mag > config.rate_floor),
        )
        mismatch = known2 & (gaps > config.tau_h)
        cats = np.select([both, one, mismatch], [1, 2, 3], default=0).astype(np.int8)
        vals = (tx + rx) / 2.0

        if primed:
            moved_tx = _neq(tx, self._TX)
            moved_rx = _neq(rx, self._RX)
            if moved_tx is None and moved_rx is None:
                changed_e: List[int] = []
            else:
                mask = moved_tx if moved_tx is not None else moved_rx
                if moved_tx is not None and moved_rx is not None:
                    mask = moved_tx | moved_rx
                changed_e = np.nonzero(mask)[0].tolist()
        else:
            changed_e = list(range(E))
        for e in changed_e:
            cat = cats[e]
            if cat == 0:
                obj = HardenedValue(
                    float(vals[e]), Confidence.CORROBORATED, "avg of both ends"
                )
                fnds: Tuple[Finding, ...] = ()
            elif cat == 3:
                obj = self._hv_mismatch
                src, dst = cache.directed_edges[e]
                fnds = (
                    Finding(
                        code="R1_COUNTER_MISMATCH",
                        severity=FindingSeverity.WARNING,
                        subject=m.edge_subjects[e],
                        detail=(
                            f"tx@{src}={float(tx[e]):.6g} vs rx@{dst}={float(rx[e]):.6g} "
                            f"differ by {float(gaps[e]):.1%} (> tau_h={config.tau_h:.1%})"
                        ),
                        redundancy="R1",
                    ),
                )
            else:
                obj = self._hv_both if cat == 1 else self._hv_one
                fnds = self._edge_missing_findings(e, int(cat))
            self._edge_objs[e] = obj
            self._edge_fnds[e] = fnds
            self._edge_has[e] = bool(fnds)
        self._TX, self._RX = tx, rx
        self._stats.record_reuse("harden.flows", len(changed_e), E - len(changed_e))

        state.edge_flows = dict(zip(cache.directed_edges, self._edge_objs.tolist()))
        for e in np.nonzero(self._edge_has)[0].tolist():
            state.findings.extend(self._edge_fnds[e])

        # -- external counters and drops ---------------------------------------
        N = m.num_nodes
        ex_rx = self._cnt_rx[m.ext_slots]
        ex_tx = self._cnt_tx[m.ext_slots]
        ex_pres = self._cnt_present[m.ext_slots]
        dp = self._dp
        if primed:
            moved = None
            for pair in (
                _neq(ex_rx, self._ex_rx),
                _neq(ex_tx, self._ex_tx),
                _neq(dp, self._ex_dp),
            ):
                if pair is not None:
                    moved = pair if moved is None else (moved | pair)
            pres_moved = (
                None if ex_pres is self._ex_pres else (ex_pres != self._ex_pres)
            )
            if pres_moved is not None:
                moved = pres_moved if moved is None else (moved | pres_moved)
            changed_n = [] if moved is None else np.nonzero(moved)[0].tolist()
        else:
            changed_n = list(range(N))
        nodes = cache.nodes
        for i in changed_n:
            node = nodes[i]
            rxv = ex_rx[i]
            txv = ex_tx[i]
            dv = dp[i]
            self._ext_in_objs[i] = (
                HardenedValue(None, Confidence.UNKNOWN, f"{node}:ext rx: missing")
                if math.isnan(rxv)
                else HardenedValue(float(rxv), Confidence.REPORTED, f"{node}:ext rx")
            )
            self._ext_out_objs[i] = (
                HardenedValue(None, Confidence.UNKNOWN, f"{node}:ext tx: missing")
                if math.isnan(txv)
                else HardenedValue(float(txv), Confidence.REPORTED, f"{node}:ext tx")
            )
            self._drop_objs[i] = (
                HardenedValue(None, Confidence.UNKNOWN, f"{node} drops: missing")
                if math.isnan(dv)
                else HardenedValue(float(dv), Confidence.REPORTED, f"{node} drops")
            )
            fnds = () if ex_pres[i] else self._ext_missing_findings(i)
            self._ext_fnds[i] = fnds
            self._ext_has[i] = bool(fnds)
        self._ex_rx, self._ex_tx, self._ex_dp, self._ex_pres = ex_rx, ex_tx, dp, ex_pres
        self._stats.record_reuse("harden.external", len(changed_n), N - len(changed_n))

        state.ext_in = dict(zip(nodes, self._ext_in_objs.tolist()))
        state.ext_out = dict(zip(nodes, self._ext_out_objs.tolist()))
        state.drops = dict(zip(nodes, self._drop_objs.tolist()))
        for i in np.nonzero(self._ext_has)[0].tolist():
            state.findings.extend(self._ext_fnds[i])

        # -- R2 conservation repair (delegated; vector supplies the gate) ------
        EV_pre = np.where(cats == 0, vals, np.nan)
        EI_pre = ex_rx
        EO_pre = ex_tx
        DR_pre = dp
        unknown = (
            np.isnan(EV_pre).any()
            or np.isnan(EI_pre).any()
            or np.isnan(EO_pre).any()
            or np.isnan(DR_pre).any()
        )
        ei_rep = np.zeros(N, dtype=bool)
        eo_rep = np.zeros(N, dtype=bool)
        if config.enable_repair and unknown:
            if self._tracer.enabled:
                self._tracer.instant(
                    "repair_gate",
                    unknown_vars=int(
                        np.isnan(
                            np.concatenate((EV_pre, EI_pre, EO_pre, DR_pre))
                        ).sum()
                    ),
                )
            view = _CollectedView(self)
            hits_before = self._solver_cache.hits
            misses_before = self._solver_cache.misses
            repaired = self._components.hardener.repair_flows(
                view, state, solver_cache=self._solver_cache
            )
            self._stats.repair_reuses += self._solver_cache.hits - hits_before
            self._stats.repair_solves += self._solver_cache.misses - misses_before
        else:
            repaired = ()
        if repaired:
            EV = EV_pre.copy()
            EI = EI_pre.copy()
            EO = EO_pre.copy()
            DR = DR_pre.copy()
            for key in repaired:
                kind = key[0]
                if kind == "edge":
                    edge = (key[1], key[2])
                    EV[m.edge_index[edge]] = state.edge_flows[edge].value
                elif kind == "ext_in":
                    i = m.node_slot[key[1]]
                    EI[i] = state.ext_in[key[1]].value
                    ei_rep[i] = True
                elif kind == "ext_out":
                    i = m.node_slot[key[1]]
                    EO[i] = state.ext_out[key[1]].value
                    eo_rep[i] = True
                elif kind == "drop":
                    DR[m.node_slot[key[1]]] = state.drops[key[1]].value
        else:
            EV, EI, EO, DR = EV_pre, EI_pre, EO_pre, DR_pre
        self._EV, self._EI, self._EO, self._DR = EV, EI, EO, DR
        self._ei_rep, self._eo_rep = ei_rep, eo_rep

        self._harden_link_status(state)
        self._harden_node_drains(state)
        self._harden_link_drains(state)
        return state

    def _edge_missing_findings(self, e: int, cat: int) -> Tuple[Finding, ...]:
        key = (e, cat)
        fnds = self._edge_fnd_memo.get(key)
        if fnds is None:
            if cat == 1:
                code, detail = "R1_BOTH_MISSING", "no measurement from either end"
            else:
                code, detail = "R1_ONE_MISSING", "only one end reported; flagged for repair"
            fnds = (
                Finding(
                    code=code,
                    severity=FindingSeverity.WARNING,
                    subject=self._model.edge_subjects[e],
                    detail=detail,
                    redundancy="R1",
                ),
            )
            self._edge_fnd_memo[key] = fnds
        return fnds

    def _ext_missing_findings(self, i: int) -> Tuple[Finding, ...]:
        fnds = self._ext_fnd_memo.get(i)
        if fnds is None:
            fnds = (
                Finding(
                    code="MISSING_EXTERNAL_COUNTERS",
                    severity=FindingSeverity.WARNING,
                    subject=self._cache.nodes[i],
                    detail="no external interface reading; left unknown",
                ),
            )
            self._ext_fnd_memo[i] = fnds
        return fnds

    # -- link status --------------------------------------------------------

    def _harden_link_status(self, state: HardenedState) -> None:
        m = self._model
        config = self._config
        L = m.num_links
        sa = self._st_oper[m.link_ab]
        sb = self._st_oper[m.link_ba]
        both_missing = (sa == -1) & (sb == -1)
        conflict = (sa >= 0) & (sb >= 0) & (sa != sb)
        up = ~both_missing & (sa != 0) & (sb != 0)
        scode = np.select([both_missing, conflict, up], [3, 2, 0], default=1)

        if config.use_counters_for_status:
            r1 = self._cnt_rx[m.link_ab]
            r2 = self._cnt_tx[m.link_ab]
            r3 = self._cnt_rx[m.link_ba]
            r4 = self._cnt_tx[m.link_ba]
            known_any = ~(
                np.isnan(r1) & np.isnan(r2) & np.isnan(r3) & np.isnan(r4)
            )
            thr = config.active_threshold
            act = (r1 > thr) | (r2 > thr) | (r3 > thr) | (r4 > thr)
            acode = np.where(known_any, np.where(act, 1, 0), 2)
        else:
            acode = np.full(L, 2, dtype=np.int64)

        if config.use_probes:
            pa = self._pr[m.link_ab]
            pb = self._pr[m.link_ba]
            has = (pa >= 0) | (pb >= 0)
            fail = (pa == 0) | (pb == 0)
            pcode = np.where(has, np.where(fail, 1, 0), 2)
        else:
            pcode = np.full(L, 2, dtype=np.int64)

        cats = scode * 9 + acode * 3 + pcode
        serial = self._serial_links
        if serial:
            cats[serial] = -1

        prev = self._ls_cats
        if self._primed:
            moved = (cats != prev) | (cats == -1) | (prev == -1)
            changed = np.nonzero(moved)[0].tolist()
        else:
            changed = list(range(L))
        view: Optional[_CollectedView] = None
        hardener = self._components.hardener
        for li in changed:
            cat = int(cats[li])
            if cat < 0:
                if view is None:
                    view = _CollectedView(self)
                obj, fnds = hardener.harden_link_status_entity(
                    view, self._cache.links[li]
                )
            else:
                obj = self._ls_object(cat)
                fnds = self._ls_findings(li, cat, obj)
            self._ls_objs[li] = obj
            self._ls_fnds[li] = fnds
            self._ls_has[li] = bool(fnds)
        self._ls_cats = cats
        self._stats.record_reuse("harden.links", len(changed), L - len(changed))

        state.links = dict(zip(m.link_names, self._ls_objs.tolist()))
        for li in np.nonzero(self._ls_has)[0].tolist():
            state.findings.extend(self._ls_fnds[li])

    def _ls_object(self, cat: int):
        obj = self._ls_intern.get(cat)
        if obj is None:
            scode, rem = divmod(cat, 9)
            acode, pcode = divmod(rem, 3)
            obj = combine_codes(
                _STATUS_STRS[scode],
                _ACTIVE_VALS[acode],
                _PROBE_STRS[pcode],
                self._config,
            )
            self._ls_intern[cat] = obj
            self._ls_usable[cat] = obj.usable
        return obj

    def _ls_findings(self, li: int, cat: int, obj) -> Tuple[Finding, ...]:
        key = (li, cat)
        fnds = self._ls_fnd_memo.get(key)
        if fnds is None:
            name = self._model.link_names[li]
            out: List[Finding] = []
            if cat // 9 == 2:
                out.append(
                    Finding(
                        code="R1_STATUS_MISMATCH",
                        severity=FindingSeverity.WARNING,
                        subject=name,
                        detail="endpoints disagree on oper-status",
                        redundancy="R1",
                    )
                )
            if obj.verdict == LinkVerdict.SUSPECT:
                out.append(
                    Finding(
                        code="LINK_SUSPECT",
                        severity=FindingSeverity.WARNING,
                        subject=name,
                        detail=f"evidence unresolved: {', '.join(obj.evidence)}",
                        redundancy="R3",
                    )
                )
            if obj.verdict == LinkVerdict.UP and obj.forwarding is False:
                out.append(
                    Finding(
                        code="SEMANTIC_LINK_FAILURE",
                        severity=FindingSeverity.CRITICAL,
                        subject=name,
                        detail="status up but dataplane does not forward",
                        redundancy="R4",
                    )
                )
            fnds = tuple(out)
            self._ls_fnd_memo[key] = fnds
        return fnds

    # -- node drains --------------------------------------------------------

    def _harden_node_drains(self, state: HardenedState) -> None:
        m = self._model
        config = self._config
        N = m.num_nodes
        EV, EI, EO = self._EV, self._EI, self._EO
        thr = config.active_threshold
        known_counts = (
            m.edge_incidence_abs.dot((~np.isnan(EV)).astype(np.float64))
            + ~np.isnan(EI)
            + ~np.isnan(EO)
        )
        active_counts = (
            m.edge_incidence_abs.dot((EV > thr).astype(np.float64))
            + (EI > thr)
            + (EO > thr)
        )
        # Counts are exact small integers, so == 0 is an exact emptiness
        # test, not a float tolerance decision.
        k = np.where(
            known_counts == 0,
            -1,
            (active_counts > 0).astype(np.int64),
        )
        cats = ((self._nd_bit.astype(np.int64) + 1) * 5 + (self._nd_reason + 1)) * 3 + (
            k + 1
        )

        prev = self._nd_cats
        if self._primed and prev is not None:
            changed = np.nonzero(cats != prev)[0].tolist()
        else:
            changed = list(range(N))
        nodes = self._cache.nodes
        for i in changed:
            cat = int(cats[i])
            self._nd_objs[i] = self._nd_object(cat)
            fnds = self._nd_findings(i, cat)
            self._nd_fnds[i] = fnds
            self._nd_has[i] = bool(fnds)
        self._nd_cats = cats
        self._stats.record_reuse("harden.drains", len(changed), N - len(changed))

        for i in np.nonzero(self._nd_has)[0].tolist():
            state.findings.extend(self._nd_fnds[i])
        state.node_drains = dict(zip(nodes, self._nd_objs.tolist()))

    @staticmethod
    def _nd_decode(cat: int) -> Tuple[int, int, int]:
        """(drain bit, reason code, carrying code), each ``-1`` unknown."""
        k = cat % 3 - 1
        rest = cat // 3
        rc = rest % 5 - 1
        dr = rest // 5 - 1
        return dr, rc, k

    def _nd_object(self, cat: int) -> HardenedDrain:
        obj = self._nd_intern.get(cat)
        if obj is None:
            dr, rc, k = self._nd_decode(cat)
            reason = None if rc < 0 else tuple(DrainReason)[rc]
            carrying = None if k < 0 else bool(k)
            if dr < 0:
                verdict = DrainVerdict.CONFLICTED
            elif dr == 1:
                verdict = DrainVerdict.DRAINED
            else:
                verdict = DrainVerdict.SERVING
            evidence: List[str] = []
            if carrying is not None:
                evidence.append("traffic:active" if carrying else "traffic:idle")
            if reason is not None:
                evidence.append(f"reason:{reason.value}")
            obj = HardenedDrain(
                verdict=verdict,
                carrying_traffic=carrying,
                reason=reason,
                evidence=tuple(evidence),
            )
            self._nd_intern[cat] = obj
        return obj

    def _nd_findings(self, i: int, cat: int) -> Tuple[Finding, ...]:
        key = (i, cat)
        fnds = self._nd_fnd_memo.get(key)
        if fnds is None:
            dr, rc, k = self._nd_decode(cat)
            node = self._cache.nodes[i]
            if dr < 0:
                fnds = (
                    Finding(
                        code="DRAIN_MISSING",
                        severity=FindingSeverity.WARNING,
                        subject=node,
                        detail="no usable drain report",
                    ),
                )
            elif dr == 1 and k == 1:
                reason = None if rc < 0 else tuple(DrainReason)[rc]
                fnds = (
                    self._components.hardener._drained_but_carrying_finding(
                        node, reason
                    ),
                )
            else:
                fnds = ()
            self._nd_fnd_memo[key] = fnds
        return fnds

    # -- link drains --------------------------------------------------------

    def _harden_link_drains(self, state: HardenedState) -> None:
        m = self._model
        L = m.num_links
        ba = self._ld_code[m.link_ab].astype(np.int64)
        bb = self._ld_code[m.link_ba].astype(np.int64)
        cats = (ba + 1) * 3 + (bb + 1)

        prev = self._ld_cats
        if self._primed and prev is not None:
            changed = np.nonzero(cats != prev)[0].tolist()
        else:
            changed = list(range(L))
        for li in changed:
            cat = int(cats[li])
            self._ld_objs[li] = self._ld_object(cat)
            fnds = self._ld_findings(li, cat)
            self._ld_fnds[li] = fnds
            self._ld_has[li] = bool(fnds)
        self._ld_cats = cats
        self._stats.record_reuse("harden.drains", len(changed), L - len(changed))

        for li in np.nonzero(self._ld_has)[0].tolist():
            state.findings.extend(self._ld_fnds[li])
        state.link_drains = dict(zip(m.link_names, self._ld_objs.tolist()))

    @staticmethod
    def _ld_verdict(cat: int) -> DrainVerdict:
        bits = [_TRI[cat // 3], _TRI[cat % 3]]
        known = [bit for bit in bits if bit is not None]
        if known and all(known) and len(known) == 2:
            return DrainVerdict.DRAINED
        if known and not any(known):
            return DrainVerdict.SERVING
        return DrainVerdict.CONFLICTED

    def _ld_object(self, cat: int) -> HardenedDrain:
        obj = self._ld_intern.get(cat)
        if obj is None:
            obj = HardenedDrain(verdict=self._ld_verdict(cat))
            self._ld_intern[cat] = obj
        return obj

    def _ld_findings(self, li: int, cat: int) -> Tuple[Finding, ...]:
        key = (li, cat)
        fnds = self._ld_fnd_memo.get(key)
        if fnds is None:
            if self._ld_verdict(cat) == DrainVerdict.CONFLICTED:
                bits = [_TRI[cat // 3], _TRI[cat % 3]]
                fnds = (
                    Finding(
                        code="R1_DRAIN_MISMATCH",
                        severity=FindingSeverity.WARNING,
                        subject=self._model.link_names[li],
                        detail=f"link-drain bits disagree across endpoints: {bits}",
                        redundancy="R1",
                    ),
                )
            else:
                fnds = ()
            self._ld_fnd_memo[key] = fnds
        return fnds

    # ------------------------------------------------------------------
    # Stage 3: dynamic checks
    # ------------------------------------------------------------------

    def _check_demand(self, inputs: ControllerInputs, state: HardenedState):
        m = self._model
        cache = self._cache
        checker = self._components.demand
        N = m.num_nodes
        total_dropped = DemandChecker.total_dropped(state)
        demand = inputs.demand
        dnodes = demand.nodes
        arr = demand.to_array()

        ei_s = self._EI[m.sorted_node_idx]
        eo_s = self._EO[m.sorted_node_idx]
        eirep_s = self._ei_rep[m.sorted_node_idx]
        eorep_s = self._eo_rep[m.sorted_node_idx]

        all_dirty = (
            not self._primed
            or self._dem_nodes != dnodes
            or self._dem_arr is None
            or self._dem_arr.shape != arr.shape
            or self._prev_total_dropped is None
            # Exact identity is the reuse guard's contract (the drop
            # total widens every egress tolerance).
            or total_dropped != self._prev_total_dropped  # lint: ignore[F1]
        )
        if all_dirty:
            index = {node: i for i, node in enumerate(dnodes)}
            self._dem_member = np.fromiter(
                (node in index for node in cache.sorted_nodes), bool, count=N
            )
            self._dem_pos = np.fromiter(
                (index.get(node, 0) for node in cache.sorted_nodes),
                np.int64,
                count=N,
            )
            dirty_idx = list(range(N))
        else:
            data_moved = _neq(arr, self._dem_arr)
            mask = np.zeros(N, dtype=bool)
            if data_moved is not None and data_moved.any():
                rows_ch = data_moved.any(axis=1)
                cols_ch = data_moved.any(axis=0)
                mask |= self._dem_member & (
                    rows_ch[self._dem_pos] | cols_ch[self._dem_pos]
                )
            for pair in (_neq(ei_s, self._dem_ei), _neq(eo_s, self._dem_eo)):
                if pair is not None:
                    mask |= pair
            mask |= eirep_s != self._dem_eirep
            mask |= eorep_s != self._dem_eorep
            dirty_idx = np.nonzero(mask)[0].tolist()

        sorted_nodes = cache.sorted_nodes
        for i in dirty_idx:
            self._demand_entries[i] = checker.check_node_entity(
                demand, state, sorted_nodes[i], total_dropped
            )
        self._stats.record_reuse("check.demand", len(dirty_idx), N - len(dirty_idx))

        self._dem_nodes = dnodes
        self._dem_arr = arr
        self._dem_ei, self._dem_eo = ei_s, eo_s
        self._dem_eirep, self._dem_eorep = eirep_s, eorep_s
        self._prev_total_dropped = total_dropped

        result = CheckResult(input_name="demand")
        floor = max(self._config.rate_floor, self._config.active_threshold)
        if total_dropped > floor:
            result.notes.append(DemandChecker.dropped_note(total_dropped))
        for invariants, notes in self._demand_entries.tolist():
            result.results.extend(invariants)
            result.notes.extend(notes)
        skipped = result.num_skipped
        if skipped:
            result.notes.append(DemandChecker.skipped_note(skipped))
        return result

    def _check_topology(self, inputs: ControllerInputs, state: HardenedState):
        m = self._model
        cache = self._cache
        checker = self._components.topology
        believed = frozenset(link.name for link in inputs.topology.links())

        if not believed <= self._link_name_set:
            # Believed links outside the hardened universe: the key
            # universe no longer matches the compiled link order, so run
            # the whole serial check (rare -- a topology/cache mismatch
            # is itself a finding-worthy condition the checker handles).
            self._topo_serial = True
            universe = set(state.links) | believed
            self._stats.record_reuse("check.topology", len(universe), 0)
            return checker.check(inputs.topology, state)

        L = m.num_links
        bits = np.fromiter(
            (name in believed for name in cache.sorted_link_names), bool, count=L
        )
        cats_s = self._ls_cats[m.sorted_link_idx]
        if self._primed and not self._topo_serial and self._topo_bits is not None:
            moved = (
                (bits != self._topo_bits)
                | (cats_s != self._topo_cats_sig)
                | (cats_s == -1)
                | (self._topo_cats_sig == -1)
            )
            dirty_idx = np.nonzero(moved)[0].tolist()
        else:
            dirty_idx = list(range(L))
        sorted_names = cache.sorted_link_names
        for i in dirty_idx:
            name = sorted_names[i]
            self._topo_entries[i] = checker.check_link_entity(
                name, bool(bits[i]), state.links.get(name)
            )
        self._stats.record_reuse("check.topology", len(dirty_idx), L - len(dirty_idx))
        self._topo_bits = bits
        self._topo_cats_sig = cats_s
        self._topo_serial = False

        result = CheckResult(input_name="topology")
        for conditions, notes in self._topo_entries.tolist():
            result.results.extend(conditions)
            result.notes.extend(notes)
        return result

    def _check_drain(self, inputs: ControllerInputs, state: HardenedState):
        m = self._model
        cache = self._cache
        checker = self._components.drain
        N, L = m.num_nodes, m.num_links

        node_bits = np.fromiter(
            (bool(inputs.drains.is_node_drained(node)) for node in cache.sorted_nodes),
            bool,
            count=N,
        )
        link_bits = np.fromiter(
            (
                bool(inputs.drains.is_link_drained(name))
                for name in cache.sorted_link_names
            ),
            bool,
            count=L,
        )

        usable = np.zeros(L, dtype=bool)
        normal = self._ls_cats >= 0
        usable[normal] = self._ls_usable[self._ls_cats[normal]]
        for li in np.nonzero(~normal)[0].tolist():
            usable[li] = state.links[m.link_names[li]].usable
        usable_counts = m.link_incidence_abs.dot(usable.astype(np.float64))
        # node_degree and usable_counts are exact small integers.
        can_carry = (m.node_degree == 0) | (usable_counts > 0)
        has_faulty = (m.node_degree - usable_counts) > 0

        nc_s = self._nd_cats[m.sorted_node_idx]
        cc_s = can_carry[m.sorted_node_idx]
        hf_s = has_faulty[m.sorted_node_idx]
        lc_s = self._ld_cats[m.sorted_link_idx]

        if self._primed and self._dn_bits is not None:
            node_moved = (
                (node_bits != self._dn_bits)
                | (nc_s != self._dn_cats_sig)
                | (cc_s != self._dn_cc_sig)
                | (hf_s != self._dn_hf_sig)
            )
            link_moved = (link_bits != self._dl_bits) | (lc_s != self._dl_cats_sig)
            dirty_nodes = np.nonzero(node_moved)[0].tolist()
            dirty_links = np.nonzero(link_moved)[0].tolist()
        else:
            dirty_nodes = list(range(N))
            dirty_links = list(range(L))

        for i in dirty_nodes:
            self._dn_entries[i] = checker.check_node_entity(
                inputs.drains, state, cache.node_links, cache.sorted_nodes[i]
            )
        for i in dirty_links:
            self._dl_entries[i] = checker.check_link_entity(
                inputs.drains, state, cache.sorted_link_names[i]
            )
        recomputed = len(dirty_nodes) + len(dirty_links)
        self._stats.record_reuse("check.drain", recomputed, N + L - recomputed)

        self._dn_bits, self._dl_bits = node_bits, link_bits
        self._dn_cats_sig, self._dn_cc_sig, self._dn_hf_sig = nc_s, cc_s, hf_s
        self._dl_cats_sig = lc_s

        result = CheckResult(input_name="drain")
        for conditions, notes in self._dn_entries.tolist():
            result.results.extend(conditions)
            result.notes.extend(notes)
        for conditions in self._dl_entries.tolist():
            result.results.extend(conditions)
        return result
