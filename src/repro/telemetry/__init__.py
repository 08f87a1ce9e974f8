"""Router telemetry: signal paths, counters, probes, and snapshots.

This layer produces what routers *report* -- the raw material for both
the SDN control infrastructure and for Hodor's collection step.
"""

from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.gnmi import GnmiError, GnmiFacade
from repro.telemetry.counters import (
    CounterReading,
    Jitter,
    MalformedValueError,
    RawValue,
    coerce_rate,
)
from repro.telemetry.paths import SIGNAL_REGISTRY, PathError, SignalKind, SignalPath
from repro.telemetry.probes import LinkHealth, ProbeEngine
from repro.telemetry.self_correct import SelfCorrection, peer_exchange_correct
from repro.telemetry.snapshot import (
    InterfaceKey,
    LinkStatusReport,
    NetworkSnapshot,
    ProbeResult,
)

__all__ = [
    "CounterReading",
    "GnmiError",
    "GnmiFacade",
    "InterfaceKey",
    "Jitter",
    "LinkHealth",
    "LinkStatusReport",
    "MalformedValueError",
    "NetworkSnapshot",
    "PathError",
    "ProbeEngine",
    "ProbeResult",
    "RawValue",
    "SIGNAL_REGISTRY",
    "SelfCorrection",
    "SignalKind",
    "SignalPath",
    "TelemetryCollector",
    "coerce_rate",
    "peer_exchange_correct",
]
