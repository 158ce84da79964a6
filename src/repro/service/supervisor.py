"""The supervisor: worker threads draining the queue into the platform.

One :class:`Supervisor` owns the long-lived platform state the whole
daemon shares — one :class:`~repro.flow.cache.FlowCache` with a disk
tier under the state directory, one :class:`~repro.flow.batch.
BatchBuilder` warm process pool, one metrics registry / event bus /
telemetry store — plus the durable job table. Worker threads block on
the priority queue and push each job through
:meth:`~repro.flow.batch.BatchBuilder.build_one` (build jobs, with a
per-job checkpoint directory) or :meth:`~repro.core.platform.
PrEspPlatform.deploy_wami` (deploy jobs, under the PR-5 recovery
ladder).

Crash safety is a replay, not a transaction log: every state change of
a job is persisted to its own JSON file *before* it becomes externally
observable, and :meth:`Supervisor.start` requeues any job found
``queued`` or ``running`` on disk. No result is visible that a crash
could roll back: :meth:`Supervisor.wait_terminal` — the long-poll
behind ``GET /v1/jobs/<id>?wait=`` — wakes a waiter only after the
job's terminal state has been saved, never when the in-memory table
flips. A requeued build resumes from its checkpoint directory
(completed stages restore byte-identically; the result summary of a
resumed build equals the uninterrupted one), and the daemon reports
itself ``recovering`` — HTTP 503 — until the requeued backlog drains.

On top of that replay sits the resilience ladder this module owns:

* a **deadline watchdog** — each attempt runs in a body thread the
  worker joins against the job's deadline (``JobSpec.deadline_s``,
  then the tenant's, then the daemon default). A blown deadline
  abandons the attempt; whatever stages completed are already
  checkpointed, so the requeued rerun resumes instead of restarting.
* **bounded attempts with a dead letter** — retryable failures
  (worker crash, timeout, hang) requeue with seeded exponential
  backoff until ``max_attempts``, then the job lands in ``DEAD``:
  recovery never requeues it, only the operator's
  :meth:`Supervisor.requeue` revives it (with a fresh budget).
* a **circuit breaker** in front of admission — executed-job outcomes
  feed :class:`~repro.service.breaker.CircuitBreaker`; past the
  failure-rate threshold submits are shed with ``429 breaker_open``
  until half-open probes prove the backend recovered.
* **graceful drain** — ``stop(drain=True)`` stops admitting, waits
  out the drain deadline, then flips still-running jobs back to
  ``queued`` (checkpoints intact) so the next start resumes them
  byte-identically.

Faults are a model, not an accident: the seeded
:class:`~repro.service.faults.ServiceFaultModel` injects worker
crashes and wedged workers here, and store IO errors / torn writes in
:class:`~repro.service.jobs.JobStore` — same replayable SHA-256 draw
discipline as the CAD and runtime tiers.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.designs import resolve_config
from repro.core.platform import PrEspPlatform
from repro.core.strategy import ImplementationStrategy
from repro.errors import PrEspError
from repro.flow.batch import BuildOutcome, BuildRequest
from repro.flow.cache import FlowCache
from repro.flow.options import BuildOptions
from repro.obs.context import activate
from repro.obs.events import (
    SERVICE_BREAKER_CLOSED,
    SERVICE_BREAKER_OPENED,
    SERVICE_JOB_DEAD,
    SERVICE_JOB_REQUEUED,
    SERVICE_JOB_TIMED_OUT,
    EventBus,
)
from repro.obs.health import HealthMonitor, Verdict, _worst
from repro.obs.instrumentation import Instrumentation
from repro.obs.logconfig import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.obs.tsdb import TelemetryStore
from repro.service.breaker import BreakerPolicy, CircuitBreaker
from repro.service.faults import (
    NO_SERVICE_FAULTS,
    ServiceFaultError,
    ServiceFaultKind,
    ServiceFaultModel,
)
from repro.service.jobs import (
    JobError,
    JobIdMinter,
    JobRecord,
    JobSpec,
    JobState,
    JobStore,
)
from repro.service.queue import AdmissionError, JobQueue, TenantQuota

logger = get_logger("service.supervisor")

#: Service event kinds (the job lifecycle on the daemon's bus).
JOB_SUBMITTED = "service.job_submitted"
JOB_STARTED = "service.job_started"
JOB_FINISHED = "service.job_finished"
JOB_CANCELLED = "service.job_cancelled"
JOB_REQUEUED = SERVICE_JOB_REQUEUED
JOB_DEAD = SERVICE_JOB_DEAD
JOB_TIMED_OUT = SERVICE_JOB_TIMED_OUT


class _AttemptOutcome:
    """What one execution attempt produced (applied only if current)."""

    __slots__ = ("state", "result", "error", "cached", "resumed_stages")

    def __init__(
        self,
        state: JobState,
        result: Optional[Dict] = None,
        error: Optional[Dict] = None,
        cached: bool = False,
        resumed_stages: Tuple[str, ...] = (),
    ) -> None:
        self.state = state
        self.result = result
        self.error = error
        self.cached = cached
        self.resumed_stages = resumed_stages


class Supervisor:
    """Owns the shared platform state and the worker threads."""

    def __init__(
        self,
        state_dir,
        workers: int = 2,
        jobs: int = 2,
        seed: int = 0,
        queue_capacity: Optional[int] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: TenantQuota = TenantQuota(),
        cache_entries: int = 256,
        faults: ServiceFaultModel = NO_SERVICE_FAULTS,
        default_deadline_s: Optional[float] = None,
        tenant_deadlines: Optional[Dict[str, float]] = None,
        default_max_attempts: int = 3,
        breaker_policy: BreakerPolicy = BreakerPolicy(),
        requeue_backoff_s: float = 0.05,
        requeue_backoff_cap_s: float = 2.0,
    ) -> None:
        if workers <= 0:
            raise PrEspError(f"supervisor needs at least one worker, got {workers}")
        if default_max_attempts < 1:
            raise PrEspError(
                f"default_max_attempts must be >= 1, got {default_max_attempts}"
            )
        self.state_dir = Path(state_dir)
        self.workers = workers
        self.seed = int(seed)
        self.faults = faults
        self.default_deadline_s = default_deadline_s
        self.tenant_deadlines = dict(tenant_deadlines or {})
        self.default_max_attempts = default_max_attempts
        self.requeue_backoff_s = requeue_backoff_s
        self.requeue_backoff_cap_s = requeue_backoff_cap_s

        # One observability plane for every tenant's jobs.
        self.registry = MetricsRegistry()
        self.events = EventBus(capacity=4096)
        self.telemetry = TelemetryStore()
        self.health = HealthMonitor(self.events)
        self.slo = SloTracker(self.telemetry)

        #: Admission breaker: executed-job outcomes open it, half-open
        #: probes close it; submit() consults it before the quotas.
        self.breaker = CircuitBreaker(
            policy=breaker_policy,
            on_open=self._on_breaker_open,
            on_close=self._on_breaker_close,
        )

        # One warm pool + one shared two-tier cache, via the platform.
        self.cache = FlowCache(
            max_entries=cache_entries,
            disk_dir=self.state_dir / "cache",
            metrics=self.registry,
        )
        self.platform = PrEspPlatform(
            options=BuildOptions(cache=self.cache, jobs=jobs),
            instrumentation=Instrumentation(
                metrics=self.registry, events=self.events
            ),
        )
        self.batch = self.platform.batch

        self.store = JobStore(self.state_dir / "jobs", faults=self.faults)
        self.queue = JobQueue(
            capacity=queue_capacity, quotas=quotas, default_quota=default_quota
        )
        self.minter = JobIdMinter(seed=self.seed)

        self._table: Dict[str, JobRecord] = {}
        self._table_lock = threading.Lock()
        self._submit_seq = 0
        self._start_seq = 0
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._started = False
        #: Jobs requeued by crash recovery that have not finished yet;
        #: the daemon reports ``recovering`` (503) until this drains.
        self._recovering: set = set()
        self._recovering_lock = threading.Lock()
        #: job_id -> abandon event of the attempt currently executing
        #: (the watchdog and the drain path flip these).
        self._live_attempts: Dict[str, threading.Event] = {}
        #: Pending seeded-backoff requeue timers, so stop() can cancel.
        self._timers: List[threading.Timer] = []
        self._timers_lock = threading.Lock()
        #: job_id -> the state its last save wrote; ``_persisted``
        #: notifies after each save, so long-poll waiters wake on a
        #: persisted state, never on the table flip that precedes it.
        self._saved: Dict[str, JobState] = {}
        self._persisted = threading.Condition()

        self._jobs_counter = self.registry.counter(
            "service_jobs_total", "service jobs by terminal status"
        )
        self._submit_counter = self.registry.counter(
            "service_submits_total", "submit admissions and rejections"
        )
        self._queue_gauge = self.registry.gauge(
            "service_queue_depth", "jobs waiting in the priority queue"
        )
        self._job_seconds = self.registry.histogram(
            "service_job_seconds", "wall seconds per executed job"
        )
        self._requeue_counter = self.registry.counter(
            "service_requeues_total", "watchdog/crash/manual requeues by reason"
        )
        self._fault_counter = self.registry.counter(
            "service_faults_total", "service-tier faults drawn or injected"
        )

    # ------------------------------------------------------------------
    # breaker hooks
    # ------------------------------------------------------------------
    def _on_breaker_open(self, reason: str) -> None:
        logger.warning("admission breaker opened: %s", reason)
        self.events.emit(SERVICE_BREAKER_OPENED, source="breaker", reason=reason)

    def _on_breaker_close(self) -> None:
        logger.info("admission breaker closed (probes succeeded)")
        self.events.emit(SERVICE_BREAKER_CLOSED, source="breaker")

    # ------------------------------------------------------------------
    # policy lookups
    # ------------------------------------------------------------------
    def deadline_for(self, spec: JobSpec) -> Optional[float]:
        """The attempt deadline: job, then tenant, then daemon default."""
        if spec.deadline_s is not None:
            return spec.deadline_s
        tenant = self.tenant_deadlines.get(spec.tenant)
        if tenant is not None:
            return tenant
        return self.default_deadline_s

    def max_attempts_for(self, spec: JobSpec) -> int:
        if spec.max_attempts is not None:
            return spec.max_attempts
        return self.default_max_attempts

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover persisted jobs, then start the worker threads."""
        if self._started:
            return
        self._started = True
        recovered = self.store.load_all()
        self.minter.advance_past(recovered)
        # Jobs submitted in-process before start() are already queued;
        # recovery only concerns records a *previous* daemon persisted.
        with self._table_lock:
            live = set(self._table)
        recovered = [record for record in recovered if record.job_id not in live]
        dead_lettered = 0
        for record in recovered:
            self._submit_seq = max(self._submit_seq, record.submit_seq + 1)
            if record.start_seq is not None:
                self._start_seq = max(self._start_seq, record.start_seq + 1)
            with self._table_lock:
                self._table[record.job_id] = record
            with self._persisted:
                self._saved[record.job_id] = record.state
            if record.state is JobState.RUNNING:
                # The previous daemon died mid-job. A job that already
                # burned its whole attempt budget is poison: requeueing
                # it would cycle it through crash recovery forever, so
                # it dead-letters instead.
                if record.attempts >= self.max_attempts_for(record.spec):
                    record.error = {
                        "kind": "DeadLetter",
                        "message": (
                            f"{record.attempts} attempts exhausted across "
                            "crash recoveries; requeue explicitly to retry"
                        ),
                    }
                    record.transition(JobState.DEAD)
                    self._persist(record)
                    self._jobs_counter.inc(status="dead")
                    dead_lettered += 1
                    self.events.emit(
                        JOB_DEAD,
                        source=record.job_id,
                        tenant=record.spec.tenant,
                        attempts=record.attempts,
                        reason="recovery",
                    )
                    continue
                # Otherwise the checkpoint directory holds its
                # completed stages: requeue and re-run with resume.
                record.transition(JobState.QUEUED)
                self._persist(record)
            if record.state is JobState.QUEUED:
                if record.cancel_requested:
                    record.transition(JobState.CANCELLED)
                    self._persist(record)
                    continue
                with self._recovering_lock:
                    self._recovering.add(record.job_id)
                self.events.emit(
                    JOB_REQUEUED,
                    source=record.job_id,
                    tenant=record.spec.tenant,
                    manual=False,
                )
                # Recovered work already passed admission once — a
                # momentarily tight quota must not drop it.
                self.queue.requeue(record)
        if recovered:
            logger.info(
                "recovered %d job records (%d requeued, %d dead-lettered)",
                len(recovered),
                len(self._recovering),
                dead_lettered,
            )
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0, drain: bool = False) -> int:
        """Stop admitting, join the workers, shut the warm pool down.

        The join budget is one shared deadline across all workers, not
        ``timeout`` per worker; workers still alive at expiry are
        counted, logged and returned. With ``drain`` the workers stop
        picking up new jobs (queued ones stay persisted for the next
        start) and every job still running at the deadline is flipped
        back to ``queued`` — checkpoints intact — so a restart resumes
        it.
        """
        self._stopping.set()
        with self._persisted:
            self._persisted.notify_all()  # no long-poll outlives the daemon
        if drain:
            self._draining.set()
        self.queue.close()
        with self._timers_lock:
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        deadline = time.monotonic() + timeout
        survivors = 0
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                survivors += 1
        if survivors:
            logger.warning(
                "%d worker(s) still alive after the %.1fs stop deadline",
                survivors,
                timeout,
            )
        self._threads.clear()
        if drain:
            requeued = self._requeue_survivors()
            if requeued:
                logger.info(
                    "drain requeued %d in-flight job(s) for the next start",
                    requeued,
                )
        self.platform.close()
        return survivors

    def _requeue_survivors(self) -> int:
        """Flip still-running jobs back to QUEUED at drain expiry."""
        requeued = 0
        with self._table_lock:
            for record in self._table.values():
                if record.state is not JobState.RUNNING:
                    continue
                abandon = self._live_attempts.pop(record.job_id, None)
                if abandon is not None:
                    abandon.set()
                record.transition(JobState.QUEUED)
                record.requeues += 1
                requeued += 1
                records_tenant = record.spec.tenant
                self.events.emit(
                    JOB_REQUEUED,
                    source=record.job_id,
                    tenant=records_tenant,
                    manual=False,
                )
                self._requeue_counter.inc(reason="drain")
                self.store.save_retrying(record)
        return requeued

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _persist(self, record: JobRecord) -> None:
        """Write-through with bounded retries of injected IO faults,
        then wake the long-poll waiters on what reached disk."""
        state = record.state  # the save writes this state or a later one
        saved = self.store.save_retrying(record)
        with self._persisted:
            if saved:
                self._saved[record.job_id] = state
                self._persisted.notify_all()
            else:
                self._saved.pop(record.job_id, None)

    # ------------------------------------------------------------------
    # the API surface the HTTP layer calls
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job (or let :class:`AdmissionError` escape)."""
        # Validate the config eagerly: an unknown design must 400 at
        # submit, not fail a worker thread minutes later.
        resolve_config(spec.config)
        if not self.breaker.allow():
            self._submit_counter.inc(status="rejected")
            raise AdmissionError(
                "admission breaker is open: the backend is failing; "
                "retry after the cooldown",
                reason="breaker_open",
            )
        job_id = self.minter.mint(spec.tenant)
        with self._table_lock:
            record = JobRecord(job_id=job_id, spec=spec, submit_seq=self._submit_seq)
            self._submit_seq += 1
            self._table[job_id] = record
        try:
            # Persist before enqueueing: a job a client saw accepted
            # must survive a crash between submit and first run.
            self.store.save_retrying(record)
            self.queue.submit(record)
        except Exception:
            self._submit_counter.inc(status="rejected")
            # A submit admitted through a half-open breaker but shed by
            # the quotas never produces an outcome; hand the probe back.
            self.breaker.release_probe()
            with self._table_lock:
                self._table.pop(job_id, None)
            self.store.path_for(job_id).unlink(missing_ok=True)
            raise
        self._submit_counter.inc(status="admitted")
        self._queue_gauge.set(self.queue.depth())
        self.events.emit(JOB_SUBMITTED, source=job_id, tenant=spec.tenant)
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._table_lock:
            return self._table.get(job_id)

    def wait_terminal(self, job_id: str, timeout: float) -> Optional[JobRecord]:
        """The job's record once its terminal state is persisted.

        Blocks until then, until ``timeout`` seconds pass, or until
        :meth:`stop` runs — whichever comes first — and returns the
        record as it stands (non-terminal on expiry); None for an
        unknown ID. The wake-up comes from :meth:`_persist`, after the
        save: a waiter is never woken by a state a crash could roll back.
        """
        if self.get(job_id) is None:
            return None
        deadline = time.monotonic() + timeout
        with self._persisted:
            while not self._stopping.is_set():
                saved = self._saved.get(job_id)
                remaining = deadline - time.monotonic()
                if (saved is not None and saved.terminal) or remaining <= 0:
                    break
                self._persisted.wait(remaining)
        return self.get(job_id)

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Cancel a queued job (terminal); flag a running one.

        Returns the record, or None for an unknown ID. A job already
        terminal is returned unchanged — cancel is idempotent.
        """
        record = self.get(job_id)
        if record is None:
            return None
        with self._table_lock:
            if record.state is JobState.QUEUED and self.queue.cancel(record):
                record.cancel_requested = True
                record.transition(JobState.CANCELLED)
            elif record.state is JobState.RUNNING:
                record.cancel_requested = True
        self._persist(record)
        if record.state is JobState.CANCELLED:
            self._jobs_counter.inc(status="cancelled")
            # If this was a half-open probe it will never report an
            # outcome; hand the slot back so probing can continue.
            self.breaker.release_probe()
            self._finish_recovery(job_id)
            self.events.emit(
                JOB_CANCELLED, source=job_id, tenant=record.spec.tenant
            )
        self._queue_gauge.set(self.queue.depth())
        return record

    def requeue(self, job_id: str) -> Optional[JobRecord]:
        """Revive one dead-lettered job with a fresh attempt budget.

        Returns None for an unknown ID; raises :class:`JobError` when
        the job is not ``DEAD`` (the HTTP layer maps that to 409) —
        one POST revives the job exactly once, a second POST conflicts.
        """
        record = self.get(job_id)
        if record is None:
            return None
        with self._table_lock:
            if record.state is not JobState.DEAD:
                raise JobError(
                    f"job {job_id} is {record.state.value}; only dead jobs "
                    "can be requeued"
                )
            record.transition(JobState.QUEUED)
            record.attempts = 0
            record.timeouts = 0
            record.requeues += 1
            record.error = None
        self._persist(record)
        self.queue.requeue(record)
        self._requeue_counter.inc(reason="manual")
        self._queue_gauge.set(self.queue.depth())
        self.events.emit(
            JOB_REQUEUED, source=job_id, tenant=record.spec.tenant, manual=True
        )
        return record

    def jobs(
        self, tenant: Optional[str] = None, state: Optional[JobState] = None
    ) -> List[JobRecord]:
        """Records in admission order, optionally filtered."""
        with self._table_lock:
            records = sorted(
                self._table.values(), key=lambda r: (r.submit_seq, r.job_id)
            )
        if tenant is not None:
            records = [r for r in records if r.spec.tenant == tenant]
        if state is not None:
            records = [r for r in records if r.state is state]
        return records

    def recovering(self) -> int:
        """Requeued-by-recovery jobs still outstanding."""
        with self._recovering_lock:
            return len(self._recovering)

    def health_verdict(self) -> Tuple[str, Verdict]:
        """The live ``/healthz`` verdict.

        The worst of the event-driven health monitor and the SLO
        tracker, with a ``recovering`` state (reported as critical →
        503) while crash-recovered jobs are still draining: a client
        must not read results as current until the replay converges.
        """
        if self.recovering() > 0:
            return "recovering", Verdict.CRITICAL
        verdict = self.health.report().verdict
        if len(self.telemetry):
            verdict = _worst(verdict, self.slo.evaluate().verdict)
        return verdict.value, verdict

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            if self._draining.is_set():
                return
            job_id = self.queue.pop(timeout=0.2)
            if job_id is None:
                if self._stopping.is_set():
                    return
                continue
            if self._draining.is_set():
                # Popped after the drain flag flipped: leave the job
                # queued on disk for the next start instead of racing
                # the drain deadline.
                record = self.get(job_id)
                if record is not None:
                    self.queue.mark_done(record.spec.tenant)
                return
            record = self.get(job_id)
            if record is None:  # persisted table and queue disagree
                logger.warning("popped unknown job %s", job_id)
                continue
            try:
                self._run_job(record)
            finally:
                self.queue.mark_done(record.spec.tenant)
                self._queue_gauge.set(self.queue.depth())
                self._finish_recovery(job_id)

    def _finish_recovery(self, job_id: str) -> None:
        with self._recovering_lock:
            self._recovering.discard(job_id)

    # ------------------------------------------------------------------
    # one attempt under the watchdog
    # ------------------------------------------------------------------
    def _run_job(self, record: JobRecord) -> None:
        with self._table_lock:
            if record.cancel_requested and record.state is JobState.QUEUED:
                record.transition(JobState.CANCELLED)
                done = True
            else:
                record.transition(JobState.RUNNING)
                record.start_seq = self._start_seq
                self._start_seq += 1
                record.attempts += 1
                done = False
        self._persist(record)
        if done:
            self._jobs_counter.inc(status="cancelled")
            self.breaker.release_probe()
            self.events.emit(
                JOB_CANCELLED, source=record.job_id, tenant=record.spec.tenant
            )
            return

        self.events.emit(
            JOB_STARTED, source=record.job_id, tenant=record.spec.tenant
        )
        attempt = record.attempts
        deadline = self.deadline_for(record.spec)
        abandon = threading.Event()
        with self._table_lock:
            self._live_attempts[record.job_id] = abandon
        box: Dict[str, object] = {}

        def body() -> None:
            try:
                fault = (
                    self.faults.execution_fault(record.job_id, attempt)
                    if self.faults.enabled
                    else None
                )
                if fault is not None:
                    self._fault_counter.inc(kind=fault.value)
                if fault is ServiceFaultKind.WORKER_CRASH:
                    raise ServiceFaultError(
                        fault,
                        f"injected worker crash (attempt {attempt})",
                    )
                if fault is ServiceFaultKind.SLOW_WORKER:
                    # The worker wedges: nothing happens until the
                    # watchdog abandons the attempt (or the hang
                    # window expires and the attempt fails on its own).
                    if abandon.wait(timeout=self.faults.hang_s):
                        return
                    raise ServiceFaultError(
                        fault,
                        f"worker wedged past its {self.faults.hang_s:g}s "
                        "hang window",
                    )
                with activate(record.context()):
                    if record.spec.kind == "build":
                        box["outcome"] = self._run_build(record)
                    else:
                        box["outcome"] = self._run_deploy(record)
            except BaseException as error:  # noqa: BLE001 - routed to the worker
                box["error"] = error

        started = time.perf_counter()
        thread = threading.Thread(
            target=body, name=f"attempt-{record.job_id}-{attempt}", daemon=True
        )
        thread.start()
        thread.join(timeout=deadline)
        timed_out = thread.is_alive()
        if timed_out:
            abandon.set()
            self.events.emit(
                JOB_TIMED_OUT,
                source=record.job_id,
                tenant=record.spec.tenant,
                attempt=attempt,
                deadline_s=deadline,
            )
        elapsed = time.perf_counter() - started
        self._resolve_attempt(record, box, timed_out, elapsed)

    def _resolve_attempt(
        self,
        record: JobRecord,
        box: Dict[str, object],
        timed_out: bool,
        elapsed: float,
    ) -> None:
        error = box.get("error")
        outcome = box.get("outcome")
        retryable = timed_out or isinstance(error, ServiceFaultError)
        requeue_backoff: Optional[float] = None
        with self._table_lock:
            self._live_attempts.pop(record.job_id, None)
            if record.state is not JobState.RUNNING:
                # The drain path already requeued this attempt.
                return
            record.elapsed_s = elapsed
            if retryable:
                if timed_out:
                    record.timeouts += 1
                    reason = "timeout"
                else:
                    reason = error.kind.value  # type: ignore[union-attr]
                if record.attempts >= self.max_attempts_for(record.spec):
                    record.error = {
                        "kind": "DeadLetter",
                        "message": (
                            f"attempt {record.attempts}/"
                            f"{self.max_attempts_for(record.spec)} lost to "
                            f"{reason}; attempt budget exhausted"
                        ),
                    }
                    record.transition(JobState.DEAD)
                else:
                    record.transition(JobState.QUEUED)
                    record.requeues += 1
                    requeue_backoff = self.faults.backoff_s(
                        record.job_id,
                        record.attempts,
                        self.requeue_backoff_s,
                        self.requeue_backoff_cap_s,
                    )
            elif error is not None:
                record.error = {
                    "kind": type(error).__name__,
                    "message": str(error),
                }
                record.transition(JobState.FAILED)
            else:
                assert isinstance(outcome, _AttemptOutcome)
                record.cached = outcome.cached
                record.resumed_stages = outcome.resumed_stages
                record.result = outcome.result
                record.error = outcome.error
                record.transition(outcome.state)
            state = record.state
            reason_label = (
                ("timeout" if timed_out else error.kind.value)  # type: ignore[union-attr]
                if retryable
                else None
            )
        self._persist(record)
        self._job_seconds.observe(elapsed, kind=record.spec.kind)

        if state is JobState.QUEUED:
            # Retryable loss below the attempt cap: seeded backoff,
            # then back into the heap (quota-exempt — the job was
            # already admitted once).
            self.breaker.record(False)
            self._requeue_counter.inc(reason=reason_label)
            self.events.emit(
                JOB_REQUEUED,
                source=record.job_id,
                tenant=record.spec.tenant,
                manual=False,
            )
            logger.warning(
                "job %s lost attempt %d to %s; requeueing in %.3fs",
                record.job_id,
                record.attempts,
                reason_label,
                requeue_backoff,
            )
            self._requeue_later(record, requeue_backoff)
            return

        self._jobs_counter.inc(status=state.value)
        if state is JobState.DEAD:
            self.breaker.record(False)
            self.events.emit(
                JOB_DEAD,
                source=record.job_id,
                tenant=record.spec.tenant,
                attempts=record.attempts,
                reason=reason_label,
            )
        else:
            self.breaker.record(state is JobState.SUCCEEDED)
        self.telemetry.record(self.registry)
        self.events.emit(
            JOB_FINISHED,
            source=record.job_id,
            tenant=record.spec.tenant,
            state=state.value,
        )

    def _requeue_later(self, record: JobRecord, backoff_s: float) -> None:
        def fire() -> None:
            if self._stopping.is_set():
                # The record is persisted QUEUED; the next start's
                # recovery pass re-enters it.
                return
            try:
                self.queue.requeue(record)
            except AdmissionError:
                pass  # closed mid-flight: same story as stopping
            self._queue_gauge.set(self.queue.depth())

        timer = threading.Timer(backoff_s, fire)
        timer.daemon = True
        timer.start()
        with self._timers_lock:
            # Opportunistic cleanup so a long-lived daemon does not
            # hoard finished timers.
            self._timers = [t for t in self._timers if t.is_alive()]
            self._timers.append(timer)

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.state_dir / "checkpoints" / job_id

    @staticmethod
    def _build_failed(outcome: BuildOutcome) -> _AttemptOutcome:
        return _AttemptOutcome(
            state=JobState.FAILED,
            error={"kind": outcome.error.kind, "message": outcome.error.message},
        )

    def _run_build(self, record: JobRecord) -> _AttemptOutcome:
        spec = record.spec
        config = resolve_config(spec.config)
        strategy = (
            ImplementationStrategy(spec.strategy) if spec.strategy else None
        )
        request = BuildRequest(config=config, strategy_override=strategy)
        outcome = self.batch.build_one(
            request,
            checkpoint_dir=self.checkpoint_dir(record.job_id),
            resume=True,
        )
        if outcome.error is not None:
            return self._build_failed(outcome)
        assert outcome.result is not None
        return _AttemptOutcome(
            state=JobState.SUCCEEDED,
            result=outcome.result.to_summary_dict(),
            cached=outcome.cached,
            resumed_stages=tuple(outcome.result.resumed_stages),
        )

    def _run_deploy(self, record: JobRecord) -> _AttemptOutcome:
        # The flow comes through the shared cache like a build job's:
        # a deploy of an already-built design skips the floorplanner.
        spec = record.spec
        config = resolve_config(spec.config)
        outcome = self.batch.build_one(BuildRequest(config=config))
        if outcome.error is not None:
            return self._build_failed(outcome)
        report = self.platform.deploy_wami(
            config, flow_result=outcome.result, frames=spec.frames
        )
        return _AttemptOutcome(
            state=JobState.SUCCEEDED,
            result=report.to_summary_dict(),
            cached=outcome.cached,
        )
