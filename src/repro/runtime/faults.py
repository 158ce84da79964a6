"""A deterministic runtime fault model with watchdog/recovery policy.

Where the CAD tier loses Vivado jobs, this one loses *runtime*
operations — corrupted partial bitstreams, wedged DFXC transfers and
hung accelerators — the failure modes a deployed DPR SoC actually
sees. Everything is modelled deterministically on the simulated clock:

* :class:`RuntimeFaultModel` — seeded per-:class:`RuntimeFaultKind`
  failure probabilities (drawn by the :mod:`repro.faults` kernel,
  keyed ``"transfer"``/``"invoke"``, tile, mode, attempt) plus
  targeted :meth:`~RuntimeFaultModel.inject` arming.
* :class:`RecoveryPolicy` — the watchdog: per-operation deadlines,
  bounded retries with exponential backoff (charged in simulated
  seconds), last-known-good bitstream fallback, and the quarantine
  threshold after which a persistently failing tile is taken dark.
* :class:`RuntimeFaultOptions` — the ``BuildOptions``-style bundle
  ``repro.api.deploy``/``monitor`` accept.

``NO_RUNTIME_FAULTS`` is the always-healthy shared model instrumented
code defaults to; like ``NO_FAULTS`` on the CAD side it refuses
injection so a test cannot accidentally poison every other run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ReconfigurationError
from repro.faults import (
    capped_backoff,
    check_backoff,
    check_rates,
    rate_map,
    stacked_draw,
)

#: Injection count meaning "every attempt fails until the tile is
#: quarantined" — the CLI's default for ``--inject-runtime-fault``.
PERSISTENT = -1


class RuntimeFaultKind(enum.Enum):
    """The three runtime failure modes the model can draw."""

    #: The partial bitstream arrives corrupted: the transfer runs its
    #: full window, then the modelled CRC check at the ICAP write fails.
    BITSTREAM_CORRUPTION = "crc"
    #: The DFXC wedges mid-transfer: the ICAP is held far past the
    #: nominal window until the watchdog aborts the transfer.
    STUCK_TRANSFER = "stuck"
    #: The accelerator never raises its completion interrupt; the
    #: invocation burns the watchdog deadline instead of its exec time.
    KERNEL_HANG = "hang"


#: Kinds drawn per *transfer* attempt (stacked: at most one fires).
TRANSFER_KINDS = (
    RuntimeFaultKind.BITSTREAM_CORRUPTION,
    RuntimeFaultKind.STUCK_TRANSFER,
)

class RuntimeFaultModel:
    """Seeded, order-independent runtime operation failures.

    ``rates`` maps a :class:`RuntimeFaultKind` to its per-attempt
    failure probability (absent kinds never fail stochastically). The
    two transfer kinds are stacked into one draw per attempt, so their
    rates must sum below 1.

    Attempts are numbered per ``(tile, mode, operation)`` by an
    internal counter — the per-tile lock already serializes operations
    on one tile, so the counter is deterministic regardless of
    cross-tile interleaving. Targeted injections are consumed in
    attempt order: ``inject(count=n)`` makes the next ``n`` attempts
    fail; :data:`PERSISTENT` makes every attempt fail.

    The counters make a model instance single-deployment state; use
    :meth:`fresh` (the platform does) to re-run the same fault
    *specification* from attempt one.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Mapping[RuntimeFaultKind, float]] = None,
    ) -> None:
        self.rates: Dict[RuntimeFaultKind, float] = check_rates(
            rates, RuntimeFaultKind, ReconfigurationError, (TRANSFER_KINDS,)
        )
        self.seed = seed
        self._injected: Dict[Tuple[str, str, RuntimeFaultKind], int] = {}
        self._attempts: Dict[Tuple[str, str, str], int] = {}
        #: Faults this model produced, by kind (shared accounting for
        #: both the stochastic draws and the targeted injections).
        self.drawn: Dict[RuntimeFaultKind, int] = {k: 0 for k in RuntimeFaultKind}

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when any stochastic rate or injection is armed."""
        return any(r > 0.0 for r in self.rates.values()) or bool(self._injected)

    def inject(
        self,
        tile_name: str,
        mode_name: str,
        kind: RuntimeFaultKind = RuntimeFaultKind.BITSTREAM_CORRUPTION,
        count: int = 1,
    ) -> None:
        """Arm ``count`` deterministic faults for (tile, mode, kind).

        ``count=PERSISTENT`` arms the fault on every attempt — the way
        to force a tile into quarantine.
        """
        if not isinstance(kind, RuntimeFaultKind):
            raise ReconfigurationError(
                f"kind must be a RuntimeFaultKind, got {kind!r}"
            )
        if count != PERSISTENT and count <= 0:
            raise ReconfigurationError(
                f"fault count must be positive (or PERSISTENT), got {count}"
            )
        key = (tile_name, mode_name, kind)
        if count == PERSISTENT or self._injected.get(key, 0) == PERSISTENT:
            self._injected[key] = PERSISTENT
        else:
            self._injected[key] = self._injected.get(key, 0) + count

    def injected_count(
        self, tile_name: str, mode_name: str, kind: RuntimeFaultKind
    ) -> int:
        """Armed targeted faults for (tile, mode, kind); -1 = persistent."""
        return self._injected.get((tile_name, mode_name, kind), 0)

    # ------------------------------------------------------------------
    def _next_attempt(self, tile_name: str, mode_name: str, op: str) -> int:
        key = (tile_name, mode_name, op)
        self._attempts[key] = self._attempts.get(key, 0) + 1
        return self._attempts[key]

    def _covered(self, tile_name: str, mode_name: str, kind: RuntimeFaultKind,
                 attempt: int, offset: int = 0) -> bool:
        armed = self._injected.get((tile_name, mode_name, kind), 0)
        if armed == PERSISTENT:
            return True
        return attempt - offset <= armed

    def _count(self, kind: Optional[RuntimeFaultKind]) -> Optional[RuntimeFaultKind]:
        if kind is not None:
            self.drawn[kind] += 1
        return kind

    def transfer_fault(
        self, tile_name: str, mode_name: str
    ) -> Optional[RuntimeFaultKind]:
        """Outcome of the next transfer attempt for (tile, mode).

        Targeted injections fire first (corruption before stuck, each
        consuming attempts in order), then one stacked stochastic draw
        decides between corruption, stuck, and healthy.
        """
        attempt = self._next_attempt(tile_name, mode_name, "transfer")
        crc, stuck = TRANSFER_KINDS
        crc_armed = self._injected.get((tile_name, mode_name, crc), 0)
        if self._covered(tile_name, mode_name, crc, attempt):
            kind = crc
        elif self._covered(tile_name, mode_name, stuck, attempt, max(0, crc_armed)):
            kind = stuck
        else:
            kind = stacked_draw(
                self.seed, TRANSFER_KINDS, self.rates,
                "transfer", tile_name, mode_name, attempt,
            )
        return self._count(kind)

    def invoke_fault(self, tile_name: str, mode_name: str) -> bool:
        """True when the next invocation attempt for (tile, mode) hangs."""
        attempt = self._next_attempt(tile_name, mode_name, "invoke")
        hang = RuntimeFaultKind.KERNEL_HANG
        if self._covered(tile_name, mode_name, hang, attempt):
            kind = hang
        else:
            kind = stacked_draw(
                self.seed, (hang,), self.rates, "invoke", tile_name, mode_name, attempt
            )
        return self._count(kind) is not None

    # ------------------------------------------------------------------
    def fresh(self) -> "RuntimeFaultModel":
        """A copy of this fault *specification* with virgin counters.

        The platform calls this once per deployment, so repeated
        same-seed deploys replay the identical fault timeline instead
        of continuing a shared attempt numbering.
        """
        model = RuntimeFaultModel(seed=self.seed, rates=dict(self.rates))
        model._injected.update(self._injected)
        return model

    def fingerprint(self) -> Dict:
        """Everything that can change a deployment's fault timeline."""
        return {
            "seed": self.seed,
            "rates": rate_map(self.rates),
            "injected": {
                f"{tile}/{mode}/{kind.value}": count
                for (tile, mode, kind), count in sorted(
                    self._injected.items(),
                    key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value),
                )
            },
        }


class _NoRuntimeFaults(RuntimeFaultModel):
    """The always-healthy model instrumented code defaults to.

    Draw methods are overridden to skip even the attempt bookkeeping,
    so the shared instance carries no cross-run state at all.
    """

    def inject(self, tile_name, mode_name, kind=RuntimeFaultKind.BITSTREAM_CORRUPTION, count=1):
        raise ReconfigurationError(
            "cannot inject faults into the shared NO_RUNTIME_FAULTS model; "
            "construct a RuntimeFaultModel instead"
        )

    def transfer_fault(self, tile_name, mode_name):
        return None

    def invoke_fault(self, tile_name, mode_name):
        return False


#: Shared disabled model: no runtime operation ever fails.
NO_RUNTIME_FAULTS = _NoRuntimeFaults()


@dataclass(frozen=True)
class RecoveryPolicy:
    """The manager's watchdog and recovery parameters.

    Retries of a failed transfer back off exponentially on the
    *simulated* clock: the wait before attempt ``n`` (n >= 2) is the
    kernel's :func:`~repro.faults.capped_backoff` with exponent
    ``n - 2``. ``max_attempts=2`` keeps the manager's historical
    retry-once contract.
    """

    #: Transfer attempts before a reconfiguration is abandoned.
    max_attempts: int = 2
    backoff_s: float = 0.002
    factor: float = 2.0
    cap_s: float = 0.05
    jitter: float = 0.25
    #: Watchdog deadline for one bitstream transfer; a transfer still
    #: in flight past this is aborted as stuck (only armed when the
    #: fault model is enabled, so healthy runs pay zero overhead).
    reconfig_deadline_s: float = 0.25
    #: A kernel invocation is declared hung after
    #: ``exec_deadline_factor`` times its nominal execution time.
    exec_deadline_factor: float = 4.0
    #: Hung-kernel restarts before the invocation is abandoned.
    hang_max_attempts: int = 2
    #: Reload the tile's last-known-good bitstream when a newer one is
    #: abandoned (repeated CRC failures).
    fallback_to_last_good: bool = True
    #: Abandoned operations on one tile before it is quarantined
    #: (taken dark and blanked; schedulers must re-plan around it).
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1 or self.hang_max_attempts < 1:
            raise ReconfigurationError("recovery needs >= 1 attempt per operation")
        check_backoff(
            self.backoff_s, self.factor, self.cap_s, self.jitter, ReconfigurationError
        )
        if self.reconfig_deadline_s <= 0:
            raise ReconfigurationError("reconfiguration deadline must be positive")
        if self.exec_deadline_factor <= 1.0:
            raise ReconfigurationError(
                "exec deadline factor must exceed 1 (the nominal exec time)"
            )
        if self.quarantine_after < 1:
            raise ReconfigurationError("quarantine threshold must be >= 1")

    @property
    def max_backoff_s(self) -> float:
        """Upper bound of any single backoff wait."""
        return self.cap_s * (1.0 + self.jitter)

    def backoff_before(
        self, attempt: int, seed: int, tile_name: str, mode_name: str
    ) -> float:
        """Backoff seconds charged before ``attempt`` (1-based).

        Attempt 1 starts immediately; attempt ``n`` waits the capped
        exponential plus the seeded jitter for (seed, tile, mode, n) —
        order-independent like the fault draws themselves.
        """
        if attempt <= 1:
            return 0.0
        return capped_backoff(
            self.backoff_s, self.factor, attempt - 2, self.cap_s, self.jitter,
            seed, "rbackoff", tile_name, mode_name, attempt,
        )


#: The default watchdog: retry-once with 2 ms backoff, 250 ms transfer
#: deadline, 4x exec deadline, fallback on, quarantine after 3.
DEFAULT_RECOVERY = RecoveryPolicy()


@dataclass
class RuntimeFaultOptions:
    """The deploy-side options bundle (mirror of ``BuildOptions``).

    ``faults`` is a fault *specification*: the platform re-instantiates
    it per deployment (:meth:`RuntimeFaultModel.fresh`), so one options
    object can drive many identical runs.
    """

    faults: RuntimeFaultModel = field(default_factory=lambda: NO_RUNTIME_FAULTS)
    recovery: RecoveryPolicy = field(default_factory=lambda: DEFAULT_RECOVERY)

    def __post_init__(self) -> None:
        if not isinstance(self.faults, RuntimeFaultModel):
            raise ReconfigurationError(
                f"faults must be a RuntimeFaultModel, got {type(self.faults).__name__}"
            )
        if not isinstance(self.recovery, RecoveryPolicy):
            raise ReconfigurationError(
                f"recovery must be a RecoveryPolicy, got {type(self.recovery).__name__}"
            )
