"""Thin stdlib HTTP client for the service daemon.

The client the ``repro.api`` service verbs and the ``repro jobs`` CLI
ride: plain ``urllib`` requests, every body checked against the
versioned envelope before it is returned, HTTP failures surfaced as
typed exceptions (:class:`ServiceError` carries the status and the
machine-readable ``reason`` token — a 429 quota rejection is
``error.status == 429``, ``error.reason in ("tenant_queued", ...)``).
No third-party HTTP stack, matching the daemon's stdlib server.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, Optional, TypeVar
from urllib.parse import urlencode

from repro.errors import PrEspError
from repro.service.schema import check_envelope

#: Job states the wait loop treats as finished. ``dead`` is terminal
#: too: a dead-lettered job will never progress without an explicit
#: operator requeue, so waiting on it would only time out.
_TERMINAL = ("succeeded", "failed", "cancelled", "dead")

_T = TypeVar("_T")


def _retry_jitter(seed: int, attempt: int) -> float:
    """Deterministic jitter fraction in [0, 0.25) for one retry."""
    digest = hashlib.sha256(f"{seed}|client-retry|{attempt}".encode()).digest()
    return 0.25 * (int.from_bytes(digest[:8], "big") / 2**64)


class ServiceUnavailable(PrEspError):
    """The daemon could not be reached at all (connection refused...)."""


class ServiceError(PrEspError):
    """The daemon answered with an error envelope."""

    def __init__(self, status: int, reason: str, message: str) -> None:
        super().__init__(f"HTTP {status} ({reason}): {message}")
        self.status = status
        self.reason = reason


class ServiceClient:
    """Talks to one daemon at ``http://host:port``."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        timeout: float = 30.0,
        retries: int = 3,
        retry_backoff_s: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        #: Transient-failure budget for the idempotent verbs (wait's
        #: long-polls, healthz): a daemon mid-restart refuses connections
        #: for a moment, which should read as "ask again", not crash
        #: the caller. Non-idempotent verbs (submit, cancel, requeue)
        #: never retry — a resend could double-apply.
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.seed = int(seed)

    def _with_retries(self, call: Callable[[], _T]) -> _T:
        """Run an idempotent call, retrying transient unreachability.

        Seeded exponential backoff between attempts — deterministic
        like every other delay the platform draws, so two runs with
        the same seed retry at the same cadence.
        """
        attempt = 0
        while True:
            try:
                return call()
            except ServiceUnavailable:
                if attempt >= self.retries:
                    raise
                delay = self.retry_backoff_s * (2**attempt)
                time.sleep(delay * (1.0 + _retry_jitter(self.seed, attempt)))
                attempt += 1

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        kind: Optional[str] = None,
    ) -> Dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                document = json.loads(response.read())
        except urllib.error.HTTPError as error:
            raise self._service_error(error) from error
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            raise ServiceUnavailable(
                f"cannot reach the service at {self.base_url}: {error}"
            ) from error
        return check_envelope(document, kind=kind)

    @staticmethod
    def _service_error(error: urllib.error.HTTPError) -> ServiceError:
        reason, message = "error", str(error)
        try:
            detail = json.loads(error.read()).get("error", {})
            reason = detail.get("reason", reason)
            message = detail.get("message", message)
        except (ValueError, AttributeError, OSError):
            pass
        return ServiceError(error.code, reason, message)

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def submit(
        self,
        config: str,
        kind: str = "build",
        tenant: str = "default",
        priority: int = 0,
        strategy: Optional[str] = None,
        frames: int = 1,
        deadline_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
    ) -> Dict:
        """Submit one job; returns the accepted job record payload."""
        payload = {
            "schema_version": 1,
            "kind": "submit",
            "config": config,
            "job_kind": kind,
            "tenant": tenant,
            "priority": priority,
            "strategy": strategy,
            "frames": frames,
            "deadline_s": deadline_s,
            "max_attempts": max_attempts,
        }
        return self._request("POST", "/v1/jobs", payload=payload, kind="job")

    def status(self, job_id: str, wait: Optional[float] = None) -> Dict:
        """The job record; with ``wait``, a long-poll: the daemon holds
        the request until the job is terminal or ``wait`` seconds pass
        (capped server-side), then answers with the record as it stands."""
        query = "" if wait is None else f"?wait={wait:.3f}"
        return self._request("GET", f"/v1/jobs/{job_id}{query}", kind="job")

    def jobs(
        self, tenant: Optional[str] = None, state: Optional[str] = None
    ) -> Dict:
        query = {}
        if tenant is not None:
            query["tenant"] = tenant
        if state is not None:
            query["state"] = state
        path = "/v1/jobs" + (f"?{urlencode(query)}" if query else "")
        return self._request("GET", path, kind="jobs")

    def cancel(self, job_id: str) -> Dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel", kind="job")

    def requeue(self, job_id: str) -> Dict:
        """Revive one dead-lettered job (409 ``not_dead`` otherwise)."""
        return self._request("POST", f"/v1/jobs/{job_id}/requeue", kind="job")

    def result(self, job_id: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result", kind="result")

    def artifacts(self, job_id: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{job_id}/artifacts", kind="artifacts")

    def healthz(self) -> Dict:
        """The health envelope; a 503 verdict is returned, not raised.

        A critical daemon answers 503 *with* a full health body, so
        the 503 is decoded like the 200 instead of raised. Transient
        unreachability (a daemon mid-restart) is retried with seeded
        backoff before :class:`ServiceUnavailable` escapes.
        """
        return self._with_retries(self._healthz_once)

    def _healthz_once(self) -> Dict:
        request = urllib.request.Request(
            self.base_url + "/healthz", headers={"Accept": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                document = json.loads(response.read())
        except urllib.error.HTTPError as error:
            if error.code != 503:
                raise self._service_error(error) from error
            try:
                document = json.loads(error.read())
            except ValueError:
                raise self._service_error(error) from error
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            raise ServiceUnavailable(
                f"cannot reach the service at {self.base_url}: {error}"
            ) from error
        return check_envelope(document, kind="health")

    def metrics(self) -> str:
        """The raw Prometheus text page."""
        request = urllib.request.Request(
            self.base_url + "/metrics", headers={"Accept": "text/plain"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            raise ServiceUnavailable(
                f"cannot reach the service at {self.base_url}: {error}"
            ) from error

    # ------------------------------------------------------------------
    def wait(self, job_id: str, timeout: float = 120.0) -> Dict:
        """Block until the job reaches a terminal state; returns it.

        A loop of long-polls: the daemon answers as soon as the job's
        terminal state is persisted, so completion is seen one save
        after it happens. Each hold is at most half the socket timeout,
        so the socket never times out mid-hold.

        Raises :class:`ServiceUnavailable` on timeout — from the
        caller's seat an unresponsive job and an unreachable daemon
        call for the same remedy. Each long-poll retries transient
        connection failures with seeded backoff, so a daemon restart
        mid-wait doesn't abort the wait.
        """
        deadline = time.monotonic() + timeout
        while True:
            hold = max(0.0, min(deadline - time.monotonic(), self.timeout / 2))
            record = self._with_retries(lambda: self.status(job_id, wait=hold))
            if record.get("state") in _TERMINAL:
                return record
            if time.monotonic() >= deadline:
                raise ServiceUnavailable(
                    f"job {job_id} still {record.get('state')!r} after "
                    f"{timeout:g}s"
                )
