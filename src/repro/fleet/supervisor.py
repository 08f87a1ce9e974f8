"""The fleet supervisor: dispatch, admission, recovery, rollup.

:class:`FleetSupervisor` owns the worker pool and, per worker, a
control channel down and a results channel back (isolated queues, so
one crashed worker cannot wedge another's channel).  It is a single
synchronous control loop -- all concurrency lives in the worker
processes -- which keeps every decision (quarantine, readmission,
crash recovery, drain) a deterministic function of the message
sequence it consumes:

* **Dispatch** is round-robin over tenant ids sorted ascending, so
  the same fleet spec always lands on the same workers.
* **Admission**: every digest is scored by the
  :class:`~repro.fleet.admission.AdmissionController`; a quarantine
  decision cancels the tenant on its worker immediately.  Cooled-down
  tenants are readmitted as a *fresh dispatch* -- their partial
  digests and store file are discarded first, so a readmitted
  tenant's final output is byte-identical to an untroubled run.
* **Crash recovery**: when a worker dies (liveness poll, no goodbye),
  a replacement process takes over its slot and every unfinished
  tenant is re-dispatched.  Digests the dead worker already shipped
  are kept; the re-run's duplicates are deduplicated by
  ``(tenant, timestamp)`` and their fingerprints *asserted* equal --
  rescheduling can neither lose nor double-count a verdict, and a
  fingerprint mismatch (nondeterminism) fails loudly.
* **Drain**: once every tenant is terminal the supervisor drains all
  workers -- each finishes its assigned work, says goodbye, and
  exits; the supervisor joins every process before returning.

The per-tenant metrics expositions shipped in ``tenant_done``
summaries are merged into one fleet-level registry via
:mod:`repro.fleet.rollup`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fleet.admission import EVICTED, QUARANTINED, AdmissionController
from repro.fleet.digest import EpochDigest
from repro.fleet.rollup import merge_expositions
from repro.fleet.spec import FleetConfig, TenantSpec, tenant_store_path
from repro.fleet.worker import worker_main
from repro.obs.metrics import MetricsRegistry

__all__ = ["FleetResult", "FleetSupervisor", "TenantSummary"]


class FleetProtocolError(RuntimeError):
    """A worker message violated the fleet's determinism contract."""


@dataclass
class TenantSummary:
    """One tenant's final standing after a fleet run.

    Attributes:
        tenant: Tenant id.
        status: ``"done"``, ``"quarantined"``, ``"evicted"``, or
            ``"error"``.
        epochs_streamed / epochs_sealed / shed_epochs: Run counters
            (zero for tenants cancelled before completion).
        updates / late_dropped / duplicates: Assembler counters.
        latencies_s: Seal-to-verdict seconds per validated epoch.
        digests: Per-epoch digests in timestamp order (deduplicated
            across reschedules).
        store_path: The tenant's history store file, when written.
        reschedules: Times this tenant was re-dispatched after a
            worker crash.
    """

    tenant: str
    status: str = "running"
    epochs_streamed: int = 0
    epochs_sealed: int = 0
    shed_epochs: int = 0
    updates: int = 0
    late_dropped: int = 0
    duplicates: int = 0
    latencies_s: Tuple[float, ...] = ()
    digests: Tuple[EpochDigest, ...] = ()
    store_path: Optional[str] = None
    reschedules: int = 0

    def p99_latency_s(self) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = max(1, int(0.99 * len(ordered) + 0.999999))
        return ordered[min(rank, len(ordered)) - 1]

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "status": self.status,
            "epochs_streamed": self.epochs_streamed,
            "epochs_sealed": self.epochs_sealed,
            "shed_epochs": self.shed_epochs,
            "updates": self.updates,
            "late_dropped": self.late_dropped,
            "duplicates": self.duplicates,
            "p99_latency_s": self.p99_latency_s(),
            "digest_count": len(self.digests),
            "store_path": self.store_path,
            "reschedules": self.reschedules,
        }


@dataclass
class FleetResult:
    """Everything one fleet run produced.

    Attributes:
        tenants: Final per-tenant summaries, keyed by tenant id.
        metrics: The fleet-level rollup registry (every finished
            tenant's families merged).
        admission: The admission controller's final per-tenant
            standing.
        workers: Worker processes the run used (pool size).
        crashes: Worker deaths detected and recovered from.
        errors: ``(tenant, detail)`` tuples for tenants that raised.
    """

    tenants: Dict[str, TenantSummary]
    metrics: MetricsRegistry = field(repr=False, default_factory=MetricsRegistry)
    admission: Dict[str, Dict[str, object]] = field(default_factory=dict)
    workers: int = 0
    crashes: int = 0
    errors: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def total_updates(self) -> int:
        return sum(s.updates for s in self.tenants.values())

    @property
    def total_epochs_sealed(self) -> int:
        return sum(s.epochs_sealed for s in self.tenants.values())

    def statuses(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for summary in self.tenants.values():
            counts[summary.status] = counts.get(summary.status, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenants": {
                tenant: summary.to_dict()
                for tenant, summary in sorted(self.tenants.items())
            },
            "statuses": self.statuses(),
            "admission": self.admission,
            "workers": self.workers,
            "crashes": self.crashes,
            "errors": [list(pair) for pair in self.errors],
            "total_updates": self.total_updates,
            "total_epochs_sealed": self.total_epochs_sealed,
        }

    def write_manifest(self, out_dir: str) -> str:
        """Write ``fleet.json`` + ``fleet.prom`` under ``out_dir``."""
        os.makedirs(out_dir, exist_ok=True)
        manifest = os.path.join(out_dir, "fleet.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        self.metrics.write(os.path.join(out_dir, "fleet.prom"))
        return manifest


@dataclass
class _Worker:
    """Supervisor-side handle for one worker slot.

    Each worker gets its *own* results queue: a worker that dies
    mid-``put`` (hard crash) can wedge a queue's shared write lock
    forever, and with a fleet-wide queue that would deadlock every
    healthy worker.  Isolated queues confine the damage to the dead
    worker, whose replacement gets a fresh queue.
    """

    worker_id: int
    proc: object
    control: object
    results: object
    active: set = field(default_factory=set)
    done: bool = False
    degraded: bool = False


class FleetSupervisor:
    """Runs a tenant fleet across a worker-process pool to completion.

    Args:
        specs: The tenant fleet (ids must be unique).
        config: Pool size, store layout, admission policy.

    The supervisor is single-use: construct, :meth:`run`, inspect the
    :class:`FleetResult`.
    """

    def __init__(self, specs, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()
        self.specs: Dict[str, TenantSpec] = {}
        for spec in specs:
            if spec.tenant in self.specs:
                raise ValueError(f"duplicate tenant id {spec.tenant!r}")
            self.specs[spec.tenant] = spec
        self.admission = AdmissionController(self.config.admission)
        # Fork keeps tenant dispatch cheap: specs pickle over the
        # control queue, but the interpreter and imports are shared.
        self._ctx = multiprocessing.get_context("fork")
        self._workers: Dict[int, _Worker] = {}
        self._summaries: Dict[str, TenantSummary] = {
            tenant: TenantSummary(tenant=tenant) for tenant in self.specs
        }
        self._digests: Dict[str, Dict[float, EpochDigest]] = {
            tenant: {} for tenant in self.specs
        }
        self._expositions: Dict[str, str] = {}
        self._errors: List[Tuple[str, str]] = []
        self._crashes = 0
        self._degraded = False
        self._chaos_fired = False

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _spawn_worker(self, worker_id: int) -> _Worker:
        control = self._ctx.Queue()
        results = self._ctx.Queue()
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, control, results),
            kwargs={
                "store_dir": self.config.store_dir,
                "deterministic_history": self.config.deterministic_history,
            },
            daemon=True,
        )
        proc.start()
        worker = _Worker(
            worker_id=worker_id, proc=proc, control=control, results=results
        )
        if self._degraded:
            control.put(("degrade", True))
            worker.degraded = True
        return worker

    def _least_loaded_worker(self) -> _Worker:
        """Live worker with the fewest active tenants (ties: lowest id)."""
        candidates = [
            w for w in self._workers.values() if not w.done and w.proc.is_alive()
        ]
        if not candidates:
            raise FleetProtocolError("no live workers to dispatch to")
        return min(candidates, key=lambda w: (len(w.active), w.worker_id))

    def _dispatch(self, tenant: str, worker: Optional[_Worker] = None) -> None:
        if worker is None:
            worker = self._least_loaded_worker()
        spec = self.specs[tenant]
        if self.config.store_dir is not None and spec.history:
            # A fresh dispatch owns its store file end to end: stale
            # bytes from a crashed or quarantined predecessor would
            # break the deterministic-bytes contract.
            self._remove_store(tenant)
        worker.control.put(("run", spec))
        worker.active.add(tenant)

    def _remove_store(self, tenant: str) -> None:
        if self.config.store_dir is None:
            return
        base = tenant_store_path(self.config.store_dir, tenant)
        for suffix in ("", "-wal", "-shm", ".lock"):
            try:
                os.remove(base + suffix)
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _on_digest(self, worker_id: int, tenant: str, digest: EpochDigest) -> None:
        if tenant not in self.specs:
            raise FleetProtocolError(f"digest for unknown tenant {tenant!r}")
        known = self._digests[tenant].get(digest.timestamp)
        if known is not None:
            # A rescheduled tenant re-produces already-shipped epochs;
            # dedup, but hold the re-run to byte-identical verdicts.
            if known.fingerprint != digest.fingerprint:
                raise FleetProtocolError(
                    f"tenant {tenant!r} epoch {digest.timestamp} fingerprint "
                    f"mismatch after reschedule: {known.fingerprint[:12]} != "
                    f"{digest.fingerprint[:12]}"
                )
            return
        self._digests[tenant][digest.timestamp] = digest
        decision = self.admission.observe(digest)
        if decision == "quarantine":
            worker = self._workers.get(worker_id)
            if worker is not None and not worker.done:
                worker.control.put(("quarantine", tenant))
            status = self.admission.status(tenant)
            self._summaries[tenant].status = (
                "evicted" if status == EVICTED else "quarantined"
            )
        self._maybe_degrade()
        self._maybe_chaos()

    def _maybe_chaos(self) -> None:
        chaos = self.config.chaos_crash
        if chaos is None or self._chaos_fired:
            return
        if self.admission.observed < chaos[1]:
            return
        self._chaos_fired = True
        victim = self._workers.get(chaos[0])
        if victim is not None and not victim.done and victim.proc.is_alive():
            victim.control.put(("crash",))

    def _maybe_degrade(self) -> None:
        if self._degraded or not self.admission.should_degrade():
            return
        self._degraded = True
        for worker in self._workers.values():
            if not worker.done and worker.proc.is_alive() and not worker.degraded:
                worker.control.put(("degrade", True))
                worker.degraded = True

    def _on_tenant_done(
        self, worker_id: int, tenant: str, payload: Dict[str, object]
    ) -> None:
        worker = self._workers.get(worker_id)
        if worker is not None:
            worker.active.discard(tenant)
        summary = self._summaries[tenant]
        status = str(payload.get("status", "done"))
        admission_status = self.admission.status(tenant)
        if admission_status == EVICTED:
            status = "evicted"
        elif admission_status == QUARANTINED and status == "done":
            # The cancel raced the tenant's natural completion; the
            # admission verdict stands.
            status = "quarantined"
        summary.status = status
        if status == "done":
            summary.epochs_streamed = int(payload.get("epochs_streamed", 0))
            summary.epochs_sealed = int(payload.get("epochs_sealed", 0))
            summary.shed_epochs = int(payload.get("shed_epochs", 0))
            summary.updates = int(payload.get("updates", 0))
            summary.late_dropped = int(payload.get("late_dropped", 0))
            summary.duplicates = int(payload.get("duplicates", 0))
            summary.latencies_s = tuple(payload.get("latencies_s", ()))  # type: ignore[arg-type]
            summary.store_path = payload.get("store_path")  # type: ignore[assignment]
            exposition = payload.get("exposition")
            if exposition:
                self._expositions[tenant] = str(exposition)

    def _on_error(self, tenant: str, detail: str) -> None:
        self._errors.append((tenant, detail))
        self._summaries[tenant].status = "error"

    # ------------------------------------------------------------------
    # Recovery and readmission
    # ------------------------------------------------------------------

    def _check_liveness(self) -> None:
        for worker_id, worker in list(self._workers.items()):
            if worker.done or worker.proc.is_alive():
                continue
            # Dead without a goodbye: a crash.  Salvage whatever it
            # shipped before dying, then replace the slot and
            # re-dispatch everything it had not finished.
            self._pump_worker(worker)
            self._crashes += 1
            orphans = sorted(worker.active)
            worker.done = True
            worker.active = set()
            replacement = self._spawn_worker(worker_id)
            self._workers[worker_id] = replacement
            for tenant in orphans:
                if self._summaries[tenant].status not in ("running",):
                    continue
                self._summaries[tenant].reschedules += 1
                self._dispatch(tenant, replacement)

    def _check_readmissions(self) -> None:
        for tenant in self.admission.readmittable():
            if any(
                tenant in worker.active
                for worker in self._workers.values()
                if not worker.done
            ):
                # The quarantined run's cancellation is still
                # unwinding; readmit only once its tenant_done lands.
                continue
            self.admission.readmit(tenant)
            # Fresh start: discard the quarantined run's partial
            # output so the readmitted run is indistinguishable from
            # an untroubled one.
            self._digests[tenant] = {}
            self._expositions.pop(tenant, None)
            summary = self._summaries[tenant]
            summary.status = "running"
            summary.latencies_s = ()
            self._dispatch(tenant)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _terminal(self, tenant: str) -> bool:
        return self._summaries[tenant].status in (
            "done",
            "error",
            "quarantined",
            "evicted",
        )

    def _work_remaining(self) -> bool:
        if any(not self._terminal(tenant) for tenant in self.specs):
            return True
        # Quarantined tenants with cooldown already elapsed still owe
        # a readmission run.
        return bool(self.admission.readmittable())

    def _handle(self, message: Tuple) -> None:
        kind = message[0]
        if kind == "digest":
            self._on_digest(message[1], message[2], message[3])
        elif kind == "tenant_done":
            self._on_tenant_done(message[1], message[2], message[3])
        elif kind == "error":
            self._on_error(message[2], message[3])
        elif kind == "worker_done":
            worker = self._workers.get(message[1])
            if worker is not None:
                worker.done = True

    def _pump(self) -> bool:
        """Drain every worker's results queue; ``True`` if anything
        arrived.  Queues are visited in worker-id order and drained
        fully, so message handling order is a deterministic function
        of what each worker had shipped."""
        handled = False
        for worker_id in sorted(self._workers):
            handled |= self._pump_worker(self._workers[worker_id])
        return handled

    def _pump_worker(self, worker: _Worker) -> bool:
        handled = False
        while True:
            try:
                message = worker.results.get_nowait()
            except queue_mod.Empty:
                return handled
            handled = True
            self._handle(message)

    def run(self) -> FleetResult:
        """Run the whole fleet to completion and roll results up."""
        if self.config.store_dir is not None:
            os.makedirs(self.config.store_dir, exist_ok=True)
        for worker_id in range(self.config.workers):
            self._workers[worker_id] = self._spawn_worker(worker_id)
        for tenant in sorted(self.specs):
            self._dispatch(tenant)

        while self._work_remaining():
            self._check_readmissions()
            if not self._pump():
                self._check_liveness()
                time.sleep(self.config.poll_s)

        self._drain()
        return self._finalize()

    def _drain(self) -> None:
        """Deterministic shutdown: every live worker finishes its
        assigned work, says goodbye, and is joined."""
        awaiting = set()
        for worker in self._workers.values():
            if worker.done:
                continue
            if not worker.proc.is_alive():
                self._reap(worker)
                continue
            worker.control.put(("drain",))
            awaiting.add(worker.worker_id)
        while awaiting:
            handled = False
            for worker_id in sorted(awaiting):
                worker = self._workers[worker_id]
                handled |= self._pump_worker(worker)
                if worker.done:
                    awaiting.discard(worker_id)
                elif not worker.proc.is_alive():
                    self._reap(worker)
                    awaiting.discard(worker_id)
            if not handled and awaiting:
                time.sleep(self.config.poll_s)
        for worker in self._workers.values():
            worker.proc.join(timeout=10.0)

    def _reap(self, worker: _Worker) -> None:
        """Account for a worker found dead during shutdown.

        Its tenants have all finished (the main loop only ends once
        every tenant is terminal), but a worker that exits without a
        goodbye still crashed -- e.g. a chaos crash that landed after
        its last digest.  Pump first: a goodbye written just before a
        clean exit is still in the pipe.
        """
        self._pump_worker(worker)
        if not worker.done:
            self._crashes += 1
            worker.done = True

    def _finalize(self) -> FleetResult:
        for tenant, summary in self._summaries.items():
            ordered = tuple(
                self._digests[tenant][ts] for ts in sorted(self._digests[tenant])
            )
            summary.digests = ordered
        rollup = merge_expositions(
            text for _tenant, text in sorted(self._expositions.items())
        )
        return FleetResult(
            tenants=dict(sorted(self._summaries.items())),
            metrics=rollup,
            admission=self.admission.snapshot(),
            workers=self.config.workers,
            crashes=self._crashes,
            errors=list(self._errors),
        )
