"""The seeded fault kernel shared by the CAD, runtime and service tiers.

Every stochastic fault the reproduction models — a lost Vivado job, a
corrupted partial bitstream, a crashed service worker — is a pure
SHA-256 hash of the tier's seed and a key naming the operation and its
attempt. The outcome depends only on the seed and the operation
identities, never on execution order, worker count or resume
boundaries. This module holds that draw and what is built on it; the
tier modules (:mod:`repro.vivado.faults`, :mod:`repro.runtime.faults`,
:mod:`repro.service.faults`) are tables of kinds and draw keys on top.
"""

from __future__ import annotations

import hashlib


def unit_draw(*parts: object) -> float:
    """A deterministic uniform draw in [0, 1) keyed by ``parts``."""
    key = "|".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def check_rate(rate: float, what: str, error) -> None:
    """Raise ``error`` unless ``rate`` is a probability in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise error(f"{what} must be in [0, 1), got {rate}")


def check_rates(rates, kind_type, error, stacks=()) -> dict:
    """A validated copy of a ``{kind: rate}`` map; raises ``error``.

    Every key must be a ``kind_type``, every rate in [0, 1), and the
    rates of each group in ``stacks`` (kinds sharing one draw) must sum
    below 1.
    """
    rates = dict(rates or {})
    for kind, rate in rates.items():
        if not isinstance(kind, kind_type):
            raise error(
                f"fault rates must be keyed by {kind_type.__name__}, got {kind!r}"
            )
        check_rate(rate, f"failure probability for {kind.value}", error)
    for kinds in stacks:
        total = sum(rates.get(kind, 0.0) for kind in kinds)
        if total >= 1.0:
            raise error(
                " + ".join(kind.value for kind in kinds)
                + f" rates are stacked into one draw and must sum below 1, got {total}"
            )
    return rates


def stacked_draw(seed, kinds, rates, *key):
    """The kind (if any) that one shared draw fires among ``kinds``.

    The kinds split [0, 1) in order by their rates, so at most one
    fires per draw. A group with no positive rate returns None without
    hashing.
    """
    if not any(rates.get(kind, 0.0) > 0.0 for kind in kinds):
        return None
    draw = unit_draw(seed, *key)
    threshold = 0.0
    for kind in kinds:
        threshold += rates.get(kind, 0.0)
        if draw < threshold:
            return kind
    return None


def check_backoff(base, factor, cap, jitter, error) -> None:
    """Raise ``error`` unless the backoff parameters are well-formed."""
    if base < 0 or cap < 0:
        raise error("backoff and cap must be non-negative")
    if factor < 1.0:
        raise error(f"backoff factor must be >= 1, got {factor}")
    if not 0.0 <= jitter <= 1.0:
        raise error(f"jitter must be in [0, 1], got {jitter}")


def capped_backoff(base, factor, exponent, cap, jitter, seed, *key) -> float:
    """``min(base * factor**exponent, cap) * (1 + jitter * draw)``.

    ``draw`` is the unit draw for ``(seed, *key)``; the jitter applies
    after the cap, so no wait exceeds ``cap * (1 + jitter)``.
    """
    return min(base * factor**exponent, cap) * (1.0 + jitter * unit_draw(seed, *key))


def rate_map(rates) -> dict:
    """The JSON form of a ``{kind: rate}`` map, sorted by kind value."""
    return {
        kind.value: rate
        for kind, rate in sorted(rates.items(), key=lambda kv: kv[0].value)
    }
