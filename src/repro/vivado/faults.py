"""A deterministic CAD fault model with retry/backoff planning.

Real DPR flows lose Vivado jobs to license hiccups, OOM kills and
transient tool crashes; the paper's hundreds-of-jobs orchestration only
stays push-button if the flow absorbs those failures. This module
models them the same way the rest of the reproduction models CAD cost:
*deterministically*, on the modelled CAD-minute clock.

Two ingredients:

* :class:`CadFaultModel` — seeded per-:class:`~repro.vivado.
  runtime_model.JobKind` failure probabilities (drawn by the
  :mod:`repro.faults` kernel, keyed ``kind, stage, job, attempt``) plus
  targeted :meth:`~CadFaultModel.inject_fault` arming.
* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  seeded jitter, charged in modelled CAD minutes so retried jobs
  genuinely reshape the schedule makespan.

:func:`plan_job_execution` combines the two into a
:class:`JobExecution` — the full attempt timeline of one tool job —
which the flow charges onto its :class:`~repro.vivado.tool.
VivadoInstance` and surfaces in reports, events and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import FlowError
from repro.faults import (
    capped_backoff,
    check_backoff,
    check_rates,
    rate_map,
    stacked_draw,
)
from repro.vivado.runtime_model import JobKind


class CadFaultError(FlowError):
    """A CAD job exhausted its retry budget.

    Carries the full :class:`JobExecution` so callers (the flow's
    degradation logic, reports) can account for the minutes burned.
    """

    def __init__(self, execution: "JobExecution") -> None:
        self.execution = execution
        super().__init__(
            f"job {execution.job_name} ({execution.kind.value}) failed "
            f"permanently after {len(execution.attempts)} attempts "
            f"({execution.total_minutes:.1f} CAD minutes burned)"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff in CAD minutes.

    The backoff before attempt ``n`` (n >= 2) is the kernel's
    :func:`~repro.faults.capped_backoff` with exponent ``n - 2``; the
    bound visible to schedulers is ``cap_minutes * (1 + jitter)``.
    """

    max_attempts: int = 3
    backoff_minutes: float = 2.0
    factor: float = 2.0
    cap_minutes: float = 30.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FlowError(f"retry policy needs >= 1 attempt, got {self.max_attempts}")
        check_backoff(
            self.backoff_minutes, self.factor, self.cap_minutes, self.jitter, FlowError
        )

    @property
    def max_backoff_minutes(self) -> float:
        """Upper bound of any single backoff wait."""
        return self.cap_minutes * (1.0 + self.jitter)

    def backoff_before(self, attempt: int, seed: int, job_name: str) -> float:
        """Backoff minutes charged before ``attempt`` (1-based).

        Attempt 1 starts immediately; attempt ``n`` waits the capped
        exponential plus the seeded jitter for ``(seed, job, n)``.
        """
        if attempt <= 1:
            return 0.0
        return capped_backoff(
            self.backoff_minutes, self.factor, attempt - 2, self.cap_minutes,
            self.jitter, seed, "backoff", job_name, attempt,
        )


#: Retry policy of the default flow: three attempts, 2-minute base
#: backoff doubling to a 30-minute cap, 25% seeded jitter.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: A policy that never retries (one attempt, fail fast).
NO_RETRY = RetryPolicy(max_attempts=1, backoff_minutes=0.0, cap_minutes=0.0, jitter=0.0)


@dataclass(frozen=True)
class JobAttempt:
    """One attempt of a tool job on the modelled clock."""

    index: int  # 1-based
    succeeded: bool
    busy_minutes: float  # tool time burned by this attempt
    backoff_minutes: float  # wait charged before this attempt started


@dataclass(frozen=True)
class JobExecution:
    """The complete (deterministic) attempt timeline of one tool job."""

    job_name: str
    kind: JobKind
    attempts: Tuple[JobAttempt, ...]

    @property
    def succeeded(self) -> bool:
        """True when the final attempt completed."""
        return bool(self.attempts) and self.attempts[-1].succeeded

    @property
    def retries(self) -> int:
        """Failed attempts that were followed by another attempt."""
        return max(0, len(self.attempts) - 1)

    @property
    def total_minutes(self) -> float:
        """Instance-occupancy minutes: busy time plus backoff waits."""
        return sum(a.busy_minutes + a.backoff_minutes for a in self.attempts)

    def to_dict(self) -> Dict:
        """JSON form (checkpoint manifests, summary dicts)."""
        return {
            "job": self.job_name,
            "kind": self.kind.value,
            "succeeded": self.succeeded,
            "total_minutes": self.total_minutes,
            "attempts": [
                {
                    "index": a.index,
                    "succeeded": a.succeeded,
                    "busy_minutes": a.busy_minutes,
                    "backoff_minutes": a.backoff_minutes,
                }
                for a in self.attempts
            ],
        }


class CadFaultModel:
    """Seeded, order-independent CAD job failures.

    ``rates`` maps a :class:`JobKind` to its per-attempt failure
    probability (kinds absent from the map never fail stochastically).
    :meth:`inject_fault` arms targeted failures for one job regardless
    of the stochastic rates.

    The model is stateless with respect to stochastic draws (pure
    hashing), so re-planning the same job after a resume reproduces the
    same outcome. Targeted injections are consumed per (stage, job)
    pair in attempt order and also survive re-planning: an injection of
    ``count`` faults makes the job's first ``count`` attempts fail
    deterministically.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Mapping[JobKind, float]] = None,
    ) -> None:
        self.rates: Dict[JobKind, float] = check_rates(rates, JobKind, FlowError)
        self.seed = seed
        self._injected: Dict[Tuple[str, str], int] = {}

    @property
    def enabled(self) -> bool:
        """True when any stochastic rate or injection is armed."""
        return bool(self.rates) or bool(self._injected)

    # ------------------------------------------------------------------
    def inject_fault(self, stage: str, job: str, count: int = 1) -> None:
        """Arm ``count`` deterministic failures for ``job`` in ``stage``.

        ``stage`` is the flow stage name (``synthesis``,
        ``implementation``, ``bitstreams``); ``job`` the tool-job name
        (``synth_rt0``, ``impl_ctx_1``...). With ``count`` at or above
        the retry policy's attempt budget the job fails permanently.
        """
        if count <= 0:
            raise FlowError(f"fault count must be positive, got {count}")
        self._injected[(stage, job)] = self._injected.get((stage, job), 0) + count

    def injected_count(self, stage: str, job: str) -> int:
        """Armed targeted failures for (stage, job)."""
        return self._injected.get((stage, job), 0)

    def attempt_fails(self, kind: JobKind, stage: str, job: str, attempt: int) -> bool:
        """Deterministic outcome of one attempt (1-based)."""
        if attempt <= self._injected.get((stage, job), 0):
            return True
        return (
            stacked_draw(self.seed, (kind,), self.rates, kind.value, stage, job, attempt)
            is not None
        )

    # ------------------------------------------------------------------
    def fingerprint(self) -> Dict:
        """Cache-key form: everything that can change a build's outcome."""
        return {
            "seed": self.seed,
            "rates": rate_map(self.rates),
            "injected": {
                f"{stage}/{job}": count
                for (stage, job), count in sorted(self._injected.items())
            },
        }


class _NoFaults(CadFaultModel):
    """The always-healthy model instrumented code defaults to."""

    def __init__(self) -> None:
        super().__init__(seed=0, rates=None)

    def inject_fault(self, stage: str, job: str, count: int = 1) -> None:
        raise FlowError(
            "cannot inject faults into the shared NO_FAULTS model; "
            "construct a CadFaultModel instead"
        )


#: Shared disabled model: no job ever fails.
NO_FAULTS = _NoFaults()


def plan_job_execution(
    faults: CadFaultModel,
    policy: RetryPolicy,
    kind: JobKind,
    stage: str,
    job_name: str,
    base_minutes: float,
) -> JobExecution:
    """The deterministic attempt timeline of one job.

    Each attempt burns the job's full modelled runtime (a crashed
    Vivado run is paid for in wall time whether or not it produced a
    checkpoint); failed attempts are followed by the policy's backoff.
    The returned execution may end in failure — callers decide whether
    that aborts the flow or degrades it.
    """
    if base_minutes < 0:
        raise FlowError(f"job {job_name}: negative base runtime")
    attempts = []
    for index in range(1, policy.max_attempts + 1):
        backoff = policy.backoff_before(index, faults.seed, job_name)
        failed = faults.attempt_fails(kind, stage, job_name, index)
        attempts.append(
            JobAttempt(
                index=index,
                succeeded=not failed,
                busy_minutes=base_minutes,
                backoff_minutes=backoff,
            )
        )
        if not failed:
            break
    return JobExecution(job_name=job_name, kind=kind, attempts=tuple(attempts))


@dataclass
class FaultPlanner:
    """Per-build fault bookkeeping: plans executions, keeps the ledger.

    One planner is created per ``DprFlow.build()`` call; it owns the
    (model, policy) pair, accumulates every :class:`JobExecution` it
    planned, and answers the aggregate questions the report and the
    summary dict ask (total retries, permanently failed jobs).
    """

    faults: CadFaultModel = NO_FAULTS
    policy: RetryPolicy = DEFAULT_RETRY_POLICY
    executions: Dict[str, JobExecution] = field(default_factory=dict)

    def run(
        self, kind: JobKind, stage: str, job_name: str, base_minutes: float
    ) -> JobExecution:
        """Plan (and record) one job's execution; never raises."""
        execution = plan_job_execution(
            self.faults, self.policy, kind, stage, job_name, base_minutes
        )
        self.executions[job_name] = execution
        return execution

    def restore(self, execution: JobExecution) -> None:
        """Re-admit a checkpointed execution into the ledger on resume."""
        self.executions[execution.job_name] = execution

    @property
    def total_retries(self) -> int:
        return sum(e.retries for e in self.executions.values())

    @property
    def failed_jobs(self) -> Tuple[JobExecution, ...]:
        return tuple(
            e for _, e in sorted(self.executions.items()) if not e.succeeded
        )

    def executions_dict(self) -> Dict[str, Dict]:
        """Name-sorted JSON form of every planned execution."""
        return {name: e.to_dict() for name, e in sorted(self.executions.items())}
