"""The wire format of streaming telemetry: per-path update events.

Batch collection hands Hodor a fully-formed
:class:`~repro.telemetry.snapshot.NetworkSnapshot`; real WAN telemetry
arrives as per-router gNMI subscription updates -- one (path, value)
pair at a time, late, duplicated, and reordered.  This module defines
that unit (:class:`UpdateEvent`) and the lossless codec between the
snapshot and event representations:

- :func:`router_updates` flattens the slice of a snapshot one router
  reported into path-addressed updates (the gNMI path vocabulary from
  :mod:`repro.telemetry.paths`), carrying every raw field validation
  can observe -- including malformed junk values, which ride the wire
  untouched exactly as :class:`~repro.telemetry.gnmi.GnmiFacade`
  returns them;
- :func:`apply_update` replays one update into an under-construction
  snapshot (the assembler's half of the codec).

The round trip is *validation-exact*: rebuilding a snapshot from its
full update set yields one that is signal-for-signal identical to the
original, which is what lets the differential harness prove the streamed
path verdict-identical to the batch path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.telemetry.counters import CounterReading
from repro.telemetry.paths import SignalKind, SignalPath
from repro.telemetry.snapshot import LinkStatusReport, NetworkSnapshot, ProbeResult

__all__ = [
    "UpdateEvent",
    "FeedError",
    "router_updates",
    "apply_update",
    "reporting_routers",
]


class FeedError(RuntimeError):
    """A transient per-feed failure (the ingest layer retries these)."""


@dataclass(frozen=True)
class UpdateEvent:
    """One telemetry update from one router's feed.

    Attributes:
        router: The reporting router (feed identity).
        path: Rendered :class:`~repro.telemetry.paths.SignalPath`.
        epoch_ts: The collection instant this update belongs to -- the
            assembler's epoch bucket key.  Matches the snapshot
            timestamp of the epoch the reading was taken in.
        emit_ts: Virtual transmission time.  Equal to ``epoch_ts`` for
            a punctual update; delay perturbations push it later, which
            is how an update becomes *late* relative to the assembler's
            watermark.
        uid: Per-feed monotone update id.  A duplicated delivery reuses
            the uid of the original (dedupe identity); a genuinely
            newer update for the same path always has a larger uid.
        value: The raw wire value -- exactly what the router reported,
            malformed bytes included.
        meta: Extra raw fields the path alone cannot carry, as sorted
            ``(name, value)`` pairs (e.g. a counter reading's own
            measurement timestamp, window and sequence; a probe's
            rtt).  Kept flat and immutable so events can be copied and
            compared cheaply.
    """

    router: str
    path: str
    epoch_ts: float
    emit_ts: float
    uid: int
    value: object
    meta: Tuple[Tuple[str, object], ...] = ()

    def meta_dict(self) -> Dict[str, object]:
        return dict(self.meta)


def _counter_meta(reading: CounterReading) -> Tuple[Tuple[str, object], ...]:
    return (
        ("sequence", reading.sequence),
        ("timestamp", reading.timestamp),
        ("window_s", reading.window_s),
    )


def reporting_routers(snapshot: NetworkSnapshot) -> List[str]:
    """Every router that owns at least one signal, sorted.

    Unlike :meth:`NetworkSnapshot.nodes` this spans *all* signal
    families (drain reasons, link drains and probes included), so a
    router whose only signal is a drain-reason label still gets a feed.
    """
    owners = set(snapshot.drains) | set(snapshot.drain_reasons) | set(snapshot.drops)
    for family in (
        snapshot.counters,
        snapshot.link_status,
        snapshot.link_drains,
        snapshot.probes,
    ):
        owners.update(node for node, _peer in family)
    return sorted(owners)


def router_updates(
    snapshot: NetworkSnapshot, router: str
) -> List[Tuple[str, object, Tuple[Tuple[str, object], ...]]]:
    """One router's slice of a snapshot as ``(path, value, meta)`` rows.

    Rows come out in deterministic path order (sorted within each
    signal family, families in registry order), so feeds built from the
    same snapshot always emit identical streams for a given seed.
    """
    rows: List[Tuple[str, object, Tuple[Tuple[str, object], ...]]] = []

    for (node, peer), reading in sorted(snapshot.counters.items()):
        if node != router:
            continue
        meta = _counter_meta(reading)
        rows.append(
            (SignalPath(SignalKind.RX_RATE, node, peer).render(), reading.rx_rate, meta)
        )
        rows.append(
            (SignalPath(SignalKind.TX_RATE, node, peer).render(), reading.tx_rate, meta)
        )
    for (node, peer), status in sorted(snapshot.link_status.items()):
        if node != router:
            continue
        rows.append(
            (SignalPath(SignalKind.OPER_STATUS, node, peer).render(), status.oper_up, ())
        )
        rows.append(
            (
                SignalPath(SignalKind.ADMIN_STATUS, node, peer).render(),
                status.admin_up,
                (),
            )
        )
    if router in snapshot.drains:
        rows.append(
            (SignalPath(SignalKind.DRAIN, router).render(), snapshot.drains[router], ())
        )
    if router in snapshot.drain_reasons:
        rows.append(
            (
                SignalPath(SignalKind.DRAIN_REASON, router).render(),
                snapshot.drain_reasons[router],
                (),
            )
        )
    for (node, peer), drained in sorted(snapshot.link_drains.items()):
        if node != router:
            continue
        rows.append((SignalPath(SignalKind.LINK_DRAIN, node, peer).render(), drained, ()))
    if router in snapshot.drops:
        rows.append(
            (
                SignalPath(SignalKind.NODE_DROPS, router).render(),
                snapshot.drops[router],
                (),
            )
        )
    for (node, peer), probe in sorted(snapshot.probes.items()):
        if node != router:
            continue
        rows.append(
            (
                SignalPath(SignalKind.PROBE, node, peer).render(),
                probe.ok,
                (("rtt_ms", probe.rtt_ms),),
            )
        )
    return rows


def apply_update(
    snapshot: NetworkSnapshot,
    path: str,
    value: object,
    meta: Tuple[Tuple[str, object], ...] = (),
) -> None:
    """Replay one update into an under-construction snapshot.

    The inverse of :func:`router_updates`.  Counter rx/tx halves merge
    into one :class:`~repro.telemetry.counters.CounterReading` (a half
    whose partner update was dropped leaves the partner rate ``None``
    -- a reading with a hole, which collection treats as an unknown,
    never a zero).  Link-status halves merge the same way.
    """
    parsed = SignalPath.parse(path)
    kind = parsed.kind
    node, peer = parsed.node, parsed.peer
    extra = dict(meta)

    if kind in (SignalKind.RX_RATE, SignalKind.TX_RATE):
        key = (node, peer or "")
        reading = snapshot.counters.get(key)
        if reading is None:
            reading = CounterReading(rx_rate=None, tx_rate=None)
            snapshot.counters[key] = reading
        if kind == SignalKind.RX_RATE:
            reading.rx_rate = value
        else:
            reading.tx_rate = value
        if "sequence" in extra:
            reading.sequence = extra["sequence"]
        if "timestamp" in extra:
            reading.timestamp = extra["timestamp"]
        if "window_s" in extra:
            reading.window_s = extra["window_s"]
        return
    if kind in (SignalKind.OPER_STATUS, SignalKind.ADMIN_STATUS):
        key = (node, peer or "")
        status = snapshot.link_status.get(key)
        if status is None:
            status = LinkStatusReport(oper_up=None)
            snapshot.link_status[key] = status
        if kind == SignalKind.OPER_STATUS:
            status.oper_up = value
        else:
            status.admin_up = value
        return
    if kind == SignalKind.DRAIN:
        snapshot.drains[node] = value
        return
    if kind == SignalKind.DRAIN_REASON:
        snapshot.drain_reasons[node] = value
        return
    if kind == SignalKind.LINK_DRAIN:
        snapshot.link_drains[(node, peer or "")] = value
        return
    if kind == SignalKind.NODE_DROPS:
        snapshot.drops[node] = value
        return
    if kind == SignalKind.PROBE:
        rtt: Optional[float] = extra.get("rtt_ms")
        snapshot.probes[(node, peer or "")] = ProbeResult(ok=bool(value), rtt_ms=rtt)
        return
    raise ValueError(f"unsupported signal kind {kind!r}")  # pragma: no cover
