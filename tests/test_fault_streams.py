"""Pinned draw streams of the three seeded fault tiers.

The CAD, runtime and service fault models draw every stochastic outcome
from a SHA-256 hash of the seed and a per-tier key. The FlowCache key,
``perfbench/golden.json`` and the committed baselines all depend on
those streams staying byte-for-byte the same, so each tier's public
draw surface is hashed here over a seed x identity x attempt grid and
compared against a constant digest:

* every draw method, over a grid of rates (so a changed key flips
  outcomes) and through the targeted-injection paths;
* every backoff, compared by ``float.hex`` (so a changed unit draw or
  backoff formula shows in the last bit);
* every ``fingerprint()``.

A refactor of the fault code must leave all three digests unchanged.
"""

from __future__ import annotations

import hashlib
import json

from repro.runtime.faults import (
    PERSISTENT,
    RecoveryPolicy,
    RuntimeFaultKind,
    RuntimeFaultModel,
)
from repro.service.faults import ServiceFaultKind, ServiceFaultModel
from repro.vivado.faults import (
    CadFaultModel,
    RetryPolicy,
    plan_job_execution,
)
from repro.vivado.runtime_model import JobKind

SEEDS = (0, 1, 7, 2**31 - 1)
ATTEMPTS = (1, 2, 3, 4)
RATES = (0.1, 0.3, 0.5, 0.7, 0.9)

CAD_JOBS = (
    ("synthesis", "synth_rt0"),
    ("implementation", "impl_ctx_1"),
    ("bitstreams", "bit_rt2"),
)
RUNTIME_OPS = (("rt0", "fft"), ("rt1", "change_detection"), ("rt4", "warp"))
SERVICE_JOBS = ("job-00000000-0001", "acme-00000042-0007", "j")

CAD_DIGEST = "c34e41cbf5a0af733c7f09bb6970c8aefaef7f6a8548972a29d3414c2f39db2c"
RUNTIME_DIGEST = "a90157325103b3bae8b460a4f335746865cc5ff45aaf36eaea86b8ce7c99c822"
SERVICE_DIGEST = "e015c04bf723c2f73df82ff1cffc4769c251c1b50566264224d04dc2ccb3777a"


class _Stream:
    """Accumulates one canonical text line per observation."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts: object) -> None:
        line = "|".join(
            part.hex() if isinstance(part, float) else str(part) for part in parts
        )
        self._hash.update(line.encode("utf-8") + b"\n")

    def add_json(self, label: str, payload: object) -> None:
        self.add(label, json.dumps(payload, sort_keys=True))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def cad_stream() -> str:
    stream = _Stream()
    policy = RetryPolicy()
    odd = RetryPolicy(
        max_attempts=4, backoff_minutes=1.5, factor=3.0, cap_minutes=7.0, jitter=1.0
    )
    for seed in SEEDS:
        for rate in RATES:
            model = CadFaultModel(seed=seed, rates={kind: rate for kind in JobKind})
            stream.add_json("fingerprint", model.fingerprint())
            for kind in JobKind:
                for stage, job in CAD_JOBS:
                    for attempt in ATTEMPTS:
                        stream.add(
                            "attempt", seed, rate, kind.value, stage, job, attempt,
                            model.attempt_fails(kind, stage, job, attempt),
                        )
        injected = CadFaultModel(seed=seed, rates={JobKind.OOC_SYNTH: 0.5})
        injected.inject_fault("synthesis", "synth_rt0", count=2)
        injected.inject_fault("synthesis", "synth_rt0")
        stream.add_json("fingerprint", injected.fingerprint())
        for stage, job in CAD_JOBS:
            for attempt in ATTEMPTS:
                stream.add(
                    "injected", seed, stage, job, attempt,
                    injected.attempt_fails(JobKind.OOC_SYNTH, stage, job, attempt),
                )
            execution = plan_job_execution(
                injected, odd, JobKind.OOC_SYNTH, stage, job, 12.5
            )
            stream.add_json("execution", execution.to_dict())
        for _, job in CAD_JOBS:
            for attempt in (0,) + ATTEMPTS + (9,):
                for label, retry in (("backoff", policy), ("odd", odd)):
                    stream.add(
                        label, seed, job, attempt,
                        retry.backoff_before(attempt, seed, job),
                    )
    return stream.hexdigest()


def runtime_stream() -> str:
    stream = _Stream()
    policy = RecoveryPolicy()
    odd = RecoveryPolicy(backoff_s=0.003, factor=1.5, cap_s=0.005, jitter=1.0)
    crc, stuck, hang = (
        RuntimeFaultKind.BITSTREAM_CORRUPTION,
        RuntimeFaultKind.STUCK_TRANSFER,
        RuntimeFaultKind.KERNEL_HANG,
    )
    for seed in SEEDS:
        for rate in RATES:
            model = RuntimeFaultModel(
                seed=seed, rates={crc: rate / 2, stuck: rate / 3, hang: rate}
            )
            stream.add_json("fingerprint", model.fingerprint())
            for tile, mode in RUNTIME_OPS:
                for attempt in ATTEMPTS:
                    fault = model.transfer_fault(tile, mode)
                    stream.add(
                        "transfer", seed, rate, tile, mode, attempt,
                        fault.value if fault else None,
                    )
                    stream.add(
                        "invoke", seed, rate, tile, mode, attempt,
                        model.invoke_fault(tile, mode),
                    )
            stream.add_json(
                "drawn", {kind.value: n for kind, n in model.drawn.items()}
            )
        injected = RuntimeFaultModel(seed=seed, rates={stuck: 0.4})
        injected.inject("rt0", "fft", crc, count=2)
        injected.inject("rt0", "fft", stuck, count=1)
        injected.inject("rt1", "change_detection", hang, count=PERSISTENT)
        injected.inject("rt4", "warp", stuck, count=PERSISTENT)
        stream.add_json("fingerprint", injected.fingerprint())
        for run in ("first", "fresh"):
            model = injected if run == "first" else injected.fresh()
            for tile, mode in RUNTIME_OPS:
                for attempt in ATTEMPTS + (5, 6):
                    fault = model.transfer_fault(tile, mode)
                    stream.add(
                        run, seed, tile, mode, attempt,
                        fault.value if fault else None,
                        model.invoke_fault(tile, mode),
                    )
        for tile, mode in RUNTIME_OPS:
            for attempt in (0,) + ATTEMPTS + (9,):
                for label, recovery in (("rbackoff", policy), ("odd", odd)):
                    stream.add(
                        label, seed, tile, mode, attempt,
                        recovery.backoff_before(attempt, seed, tile, mode),
                    )
    return stream.hexdigest()


def service_stream() -> str:
    stream = _Stream()
    kinds = list(ServiceFaultKind)
    for seed in SEEDS:
        for rate in RATES:
            model = ServiceFaultModel(
                seed=seed,
                rates={kind: rate / (2 + i) for i, kind in enumerate(kinds)},
            )
            stream.add_json("fingerprint", model.fingerprint())
            for job in SERVICE_JOBS:
                for attempt in ATTEMPTS:
                    execution = model.execution_fault(job, attempt)
                    store = model.store_fault(job)
                    stream.add(
                        "draw", seed, rate, job, attempt,
                        execution.value if execution else None,
                        store.value if store else None,
                    )
            stream.add_json("fired", model.fired)
        injected = ServiceFaultModel(
            seed=seed, rates={ServiceFaultKind.TORN_WRITE: 0.3}, hang_s=2.5
        )
        injected.inject(ServiceFaultKind.SLOW_WORKER, count=2)
        injected.inject(ServiceFaultKind.STORE_IO)
        stream.add_json("fingerprint", injected.fingerprint())
        for job in SERVICE_JOBS:
            for attempt in ATTEMPTS:
                execution = injected.execution_fault(job, attempt)
                store = injected.store_fault(job)
                stream.add(
                    "injected", seed, job, attempt,
                    execution.value if execution else None,
                    store.value if store else None,
                )
        stream.add_json("fingerprint", injected.fingerprint())
        for job in SERVICE_JOBS:
            for attempt in (0,) + ATTEMPTS + (9,):
                for base_s, cap_s in ((0.05, 2.0), (0.3, 0.5)):
                    stream.add(
                        "backoff", seed, job, attempt, base_s, cap_s,
                        injected.backoff_s(job, attempt, base_s, cap_s),
                    )
    return stream.hexdigest()


def test_cad_draw_stream_is_pinned():
    assert cad_stream() == CAD_DIGEST


def test_runtime_draw_stream_is_pinned():
    assert runtime_stream() == RUNTIME_DIGEST


def test_service_draw_stream_is_pinned():
    assert service_stream() == SERVICE_DIGEST
