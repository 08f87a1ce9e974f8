"""EpochAssembler: watermarks, dedupe, partial epochs, lateness."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import EpochAssembler, UpdateEvent, reporting_routers, router_updates
from repro.telemetry.counters import CounterReading
from repro.telemetry.snapshot import NetworkSnapshot

from tests.engine.conftest import random_epoch


def _event(router, epoch_ts, uid, emit_ts=None, node=None):
    node = node or router
    return UpdateEvent(
        router=router,
        path=f"/system/processes/drain[node={node}]/state/drained",
        epoch_ts=epoch_ts,
        emit_ts=epoch_ts if emit_ts is None else emit_ts,
        uid=uid,
        value=False,
    )


class TestWatermark:
    def test_starts_below_everything(self):
        assembler = EpochAssembler(["a", "b"])
        assert assembler.watermark() == float("-inf")

    def test_is_min_over_live_routers(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=1.0)
        assembler.offer(_event("a", 0.0, 1, emit_ts=50.0))
        assert assembler.watermark() == float("-inf")  # b has not spoken
        assembler.offer(_event("b", 0.0, 1, emit_ts=5.0))
        assert assembler.watermark() == 5.0

    def test_epoch_seals_when_watermark_passes_lateness(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=1.0)
        assert assembler.offer(_event("a", 0.0, 1)) == []
        assert assembler.offer(_event("b", 0.0, 1)) == []
        # Watermark 0.0 < 0.0 + 1.0: still open.
        assert assembler.open_epochs == 1
        sealed = assembler.offer(_event("a", 10.0, 2, emit_ts=10.0))
        assert sealed == []  # b's frontier still at 0.0
        sealed = assembler.offer(_event("b", 10.0, 2, emit_ts=10.0))
        assert [epoch.timestamp for epoch in sealed] == [0.0]
        assert sealed[0].sealed_by == "watermark"
        assert sealed[0].complete

    def test_mark_done_releases_the_watermark(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=1.0)
        assembler.offer(_event("a", 0.0, 1, emit_ts=50.0))
        assert assembler.open_epochs == 1
        sealed = assembler.mark_done("b")
        assert [epoch.timestamp for epoch in sealed] == [0.0]
        assert sealed[0].missing == ("b",)
        assert not sealed[0].complete

    def test_unknown_router_never_holds_sealing_back(self):
        assembler = EpochAssembler(["a"], lateness_s=0.0)
        assembler.offer(_event("ghost", 0.0, 1))  # not in expected set
        sealed = assembler.offer(_event("a", 0.0, 1, emit_ts=5.0))
        assert [epoch.timestamp for epoch in sealed] == [0.0]
        assert sealed[0].coverage == {"a": 1, "ghost": 1}


class TestDedupeAndLateness:
    def test_duplicates_suppressed_by_router_uid(self):
        assembler = EpochAssembler(["a"], lateness_s=1.0)
        assembler.offer(_event("a", 0.0, 1))
        assembler.offer(_event("a", 0.0, 1, emit_ts=0.2))  # same uid redelivered
        (epoch,) = assembler.drain()
        assert epoch.updates == 1
        assert epoch.duplicates == 1
        assert assembler.duplicates == 1

    def test_same_uid_from_different_routers_not_deduped(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=1.0)
        assembler.offer(_event("a", 0.0, 1))
        assembler.offer(_event("b", 0.0, 1))
        (epoch,) = assembler.drain()
        assert epoch.updates == 2
        assert epoch.duplicates == 0

    def test_late_delivery_counted_and_never_applied(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=0.0)
        assembler.offer(_event("a", 0.0, 1))
        sealed = assembler.offer(_event("b", 0.0, 1, emit_ts=5.0))
        assert [epoch.timestamp for epoch in sealed] == [0.0]
        before = dict(sealed[0].snapshot.drains)
        late = assembler.offer(_event("a", 0.0, 99, emit_ts=9.0))
        assert late == []
        assert assembler.late_dropped == 1
        assert sealed[0].snapshot.drains == before  # history untouched

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError):
            EpochAssembler(["a"], lateness_s=-1.0)


class TestDrainAndMetrics:
    def test_drain_seals_in_timestamp_order(self):
        assembler = EpochAssembler(["a"], lateness_s=100.0)
        assembler.offer(_event("a", 10.0, 2))
        assembler.offer(_event("a", 0.0, 1))
        drained = assembler.drain()
        assert [epoch.timestamp for epoch in drained] == [0.0, 10.0]
        assert all(epoch.sealed_by == "drain" for epoch in drained)
        assert assembler.open_epochs == 0

    def test_metric_families_present_from_boot(self):
        assembler = EpochAssembler(["a"])
        rendered = assembler.metrics.render()
        assert "stream_updates_total 0" in rendered
        assert "stream_late_updates_total 0" in rendered
        assert "stream_duplicate_updates_total 0" in rendered
        assert "stream_open_epochs 0" in rendered

    def test_sealed_counter_labelled_by_completeness(self):
        assembler = EpochAssembler(["a", "b"], lateness_s=0.0)
        assembler.offer(_event("a", 0.0, 1))
        assembler.offer(_event("b", 0.0, 1, emit_ts=5.0))  # seals complete
        assembler.offer(_event("a", 10.0, 2, emit_ts=10.0))
        assembler.mark_done("a")
        assembler.mark_done("b")  # seals partial (b never spoke for 10.0)
        rendered = assembler.metrics.render()
        assert 'stream_epochs_sealed_total{result="complete"} 1' in rendered
        assert 'stream_epochs_sealed_total{result="partial"} 1' in rendered

    def test_interleaving_cannot_change_the_snapshot(self):
        forward = EpochAssembler(["a", "b"], lateness_s=100.0)
        backward = EpochAssembler(["a", "b"], lateness_s=100.0)
        events = [
            _event("a", 0.0, 1),
            _event("b", 0.0, 1),
            _event("a", 0.0, 2, node="x"),
            _event("b", 0.0, 2, node="y"),
        ]
        for event in events:
            forward.offer(event)
        for event in reversed(events):
            backward.offer(event)
        (left,) = forward.drain()
        (right,) = backward.drain()
        assert left.snapshot.drains == right.snapshot.drains
        assert left.coverage == right.coverage


def _assemble(events, snapshot, lateness_s=1.0):
    """Push an event sequence through an assembler; return the snapshot."""
    assembler = EpochAssembler(reporting_routers(snapshot), lateness_s=lateness_s)
    sealed = []
    for event in events:
        sealed.extend(assembler.offer(event))
    sealed.extend(assembler.drain())
    assert len(sealed) == 1
    return sealed[0].snapshot


def _events_for(snapshot):
    events = []
    for router in reporting_routers(snapshot):
        for uid, (path, value, meta) in enumerate(router_updates(snapshot, router)):
            events.append(
                UpdateEvent(
                    router=router,
                    path=path,
                    epoch_ts=snapshot.timestamp,
                    emit_ts=snapshot.timestamp,
                    uid=uid,
                    value=value,
                    meta=meta,
                )
            )
    return events


class TestAssemblerStreamInvariance:
    """Reordered/duplicated update streams cannot change the snapshot.

    The streaming path replaces batch snapshots with per-path update
    events.  These properties pin the contract the stream subsystem
    leans on: for *any* permutation of the update sequence, with
    arbitrary duplicated deliveries mixed in, the assembled snapshot
    equals the one the router updates were taken from.
    """

    @given(
        seed=st.integers(min_value=0, max_value=3),
        order_seed=st.integers(min_value=0, max_value=2**16),
        dup_stride=st.integers(min_value=2, max_value=7),
    )
    @settings(max_examples=15, deadline=None)
    def test_permuted_duplicated_stream_assembles_losslessly(
        self, seed, order_seed, dup_stride
    ):
        _topology, target, _inputs = random_epoch(8, seed)
        events = _events_for(target)
        rng = random.Random(order_seed)
        rng.shuffle(events)
        stream = []
        for index, event in enumerate(events):
            stream.append(event)
            if index % dup_stride == 0:  # redeliver with the same uid
                stream.append(event)
        assert _assemble(stream, target) == target

    def test_interleaved_counter_halves_merge_order_free(self):
        """rx/tx halves of distinct interfaces arriving interleaved and
        reversed still merge into the exact target readings."""
        target = NetworkSnapshot(
            timestamp=30.0,
            counters={
                ("a", "b"): CounterReading(
                    rx_rate=1.0, tx_rate=2.0, timestamp=25.0, sequence=3
                ),
                ("a", "c"): CounterReading(
                    rx_rate=4.0, tx_rate=8.0, timestamp=26.0, sequence=4
                ),
            },
        )
        events = _events_for(target)
        assert _assemble(events, target) == target
        assert _assemble(reversed(events), target) == target

    def test_duplicated_counter_updates_are_deduped_not_reapplied(self):
        target = NetworkSnapshot(
            timestamp=10.0, counters={("a", "b"): CounterReading(rx_rate=1.0, tx_rate=2.0)}
        )
        events = _events_for(target)
        assembler = EpochAssembler(reporting_routers(target), lateness_s=1.0)
        sealed = []
        for event in events + events + events:  # every update delivered thrice
            sealed.extend(assembler.offer(event))
        sealed.extend(assembler.drain())
        (epoch,) = sealed
        assert epoch.duplicates == len(events) * 2
        assert epoch.updates == len(events)
        assert epoch.snapshot == target
