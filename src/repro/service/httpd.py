"""The daemon's HTTP/JSON API (stdlib ``http.server``, no new deps).

Versioned routes, all bodies in the :mod:`repro.service.schema`
envelope::

    POST /v1/jobs               submit   (schema-validated; 202 / 400 / 429)
    GET  /v1/jobs               list     (?tenant=&state= filters)
    GET  /v1/jobs/<id>          status   (404 unknown; ?wait=<s> long-polls)
    POST /v1/jobs/<id>/cancel   cancel   (idempotent)
    POST /v1/jobs/<id>/requeue  revive a dead-lettered job (409 unless dead)
    GET  /v1/jobs/<id>/result   result   (409 until terminal)
    GET  /v1/jobs/<id>/artifacts        checkpoint manifest + result
    GET  /healthz               live verdict (200 ok/degraded, 503 else)
    GET  /metrics               Prometheus text exposition

``ThreadingHTTPServer`` gives each request its own thread; everything
the handlers touch on the :class:`~repro.service.supervisor.Supervisor`
is lock-guarded there. Admission failures map to HTTP 429 with a
machine-readable ``reason`` — an over-quota submit is *rejected*, never
queued.

``GET /v1/jobs/<id>?wait=<s>`` is the long-poll a client waits on: the
handler thread holds the request in
:meth:`~repro.service.supervisor.Supervisor.wait_terminal` until the
job's terminal state is persisted, ``s`` seconds pass (capped at
:data:`MAX_WAIT_S`) or the daemon stops, then answers with the record
as it stands — so a waiting client learns of completion one save after
it happens, with no poll interval in between.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import PrEspError
from repro.obs.export import prometheus_text
from repro.obs.logconfig import get_logger
from repro.service.jobs import JobError, JobSpec, JobState
from repro.service.queue import AdmissionError
from repro.service.schema import (
    SUBMIT_REQUEST_SCHEMA,
    SchemaError,
    envelope,
    validate,
)
from repro.service.supervisor import Supervisor

logger = get_logger("service.httpd")

#: The one API version this build serves.
API_PREFIX = "/v1"

#: Cap on request bodies: a submit is a small JSON document, so
#: anything bigger is garbage (or abuse) and is rejected before read.
MAX_BODY_BYTES = 64 * 1024

#: Longest hold of one ``?wait=`` long-poll; a client waiting longer
#: re-issues the request.
MAX_WAIT_S = 30.0


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying the supervisor reference."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, supervisor: Supervisor) -> None:
        super().__init__(address, ServiceHandler)
        self.supervisor = supervisor


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the supervisor; every body is an envelope."""

    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, document: Dict) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(
        self, status: int, message: str, reason: str = "error"
    ) -> None:
        self._send_json(
            status,
            envelope("error", {"error": {"reason": reason, "message": message}}),
        )

    def _read_body(self) -> Optional[Dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            self._send_error(400, "request body required", reason="bad_request")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error(
                413,
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap",
                reason="too_large",
            )
            return None
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw)
        except ValueError:
            self._send_error(400, "body is not valid JSON", reason="bad_request")
            return None
        if not isinstance(document, dict):
            self._send_error(400, "body must be a JSON object", reason="bad_request")
            return None
        return document

    def _route(self, path: str) -> Tuple[str, ...]:
        return tuple(part for part in path.split("/") if part)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = self._route(url.path)
        try:
            if parts in ((), ("healthz",), ("v1", "healthz")):
                return self._get_healthz()
            if parts in (("metrics",), ("v1", "metrics")):
                return self._get_metrics()
            if parts == ("v1", "jobs"):
                return self._get_jobs(parse_qs(url.query))
            if len(parts) == 3 and parts[:2] == ("v1", "jobs"):
                return self._get_job(parts[2], parse_qs(url.query))
            if (
                len(parts) == 4
                and parts[:2] == ("v1", "jobs")
                and parts[3] in ("result", "artifacts")
            ):
                if parts[3] == "result":
                    return self._get_result(parts[2])
                return self._get_artifacts(parts[2])
            self._send_error(404, f"no route for GET {url.path}", reason="not_found")
        except Exception as error:  # noqa: BLE001 - a request never kills the daemon
            logger.exception("GET %s failed", self.path)
            self._send_error(500, str(error), reason="internal")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = self._route(url.path)
        try:
            if parts == ("v1", "jobs"):
                return self._post_submit()
            if len(parts) == 4 and parts[:2] == ("v1", "jobs") and parts[3] == "cancel":
                return self._post_cancel(parts[2])
            if len(parts) == 4 and parts[:2] == ("v1", "jobs") and parts[3] == "requeue":
                return self._post_requeue(parts[2])
            self._send_error(404, f"no route for POST {url.path}", reason="not_found")
        except Exception as error:  # noqa: BLE001
            logger.exception("POST %s failed", self.path)
            self._send_error(500, str(error), reason="internal")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _post_submit(self) -> None:
        document = self._read_body()
        if document is None:
            return
        errors = validate(document, SUBMIT_REQUEST_SCHEMA)
        if errors:
            self._send_error(
                400, "; ".join(errors), reason="schema_violation"
            )
            return
        try:
            spec = JobSpec(
                config=document["config"],
                kind=document.get("job_kind", "build"),
                tenant=document.get("tenant", "default"),
                priority=int(document.get("priority", 0)),
                strategy=document.get("strategy"),
                frames=int(document.get("frames", 1)),
                deadline_s=(
                    float(document["deadline_s"])
                    if document.get("deadline_s") is not None
                    else None
                ),
                max_attempts=(
                    int(document["max_attempts"])
                    if document.get("max_attempts") is not None
                    else None
                ),
            )
            record = self.server.supervisor.submit(spec)
        except AdmissionError as error:
            self._send_error(429, str(error), reason=error.reason)
            return
        except (JobError, SchemaError, PrEspError) as error:
            self._send_error(400, str(error), reason="bad_request")
            return
        self._send_json(202, envelope("job", record.to_dict()))

    def _get_jobs(self, query: Dict) -> None:
        tenant = (query.get("tenant") or [None])[0]
        state_name = (query.get("state") or [None])[0]
        state = None
        if state_name is not None:
            try:
                state = JobState(state_name)
            except ValueError:
                self._send_error(
                    400, f"unknown state {state_name!r}", reason="bad_request"
                )
                return
        records = self.server.supervisor.jobs(tenant=tenant, state=state)
        self._send_json(
            200,
            envelope(
                "jobs",
                {
                    "jobs": [record.to_dict() for record in records],
                    "queue": self.server.supervisor.queue.snapshot(),
                },
            ),
        )

    def _get_job(self, job_id: str, query: Dict) -> None:
        wait = (query.get("wait") or [None])[0]
        if wait is None:
            record = self.server.supervisor.get(job_id)
        else:
            try:
                hold = float(wait)
            except ValueError:
                hold = -1.0
            if not hold >= 0.0:  # negative, non-numeric or NaN
                self._send_error(
                    400,
                    f"wait must be a non-negative number of seconds, got {wait!r}",
                    reason="bad_request",
                )
                return
            record = self.server.supervisor.wait_terminal(
                job_id, min(hold, MAX_WAIT_S)
            )
        if record is None:
            self._send_error(404, f"unknown job {job_id!r}", reason="not_found")
            return
        self._send_json(200, envelope("job", record.to_dict()))

    def _post_cancel(self, job_id: str) -> None:
        record = self.server.supervisor.cancel(job_id)
        if record is None:
            self._send_error(404, f"unknown job {job_id!r}", reason="not_found")
            return
        self._send_json(200, envelope("job", record.to_dict()))

    def _post_requeue(self, job_id: str) -> None:
        try:
            record = self.server.supervisor.requeue(job_id)
        except JobError as error:
            # Requeue revives a dead job exactly once: a second POST
            # (or one against a live job) is a state conflict, not a
            # bad request.
            self._send_error(409, str(error), reason="not_dead")
            return
        except AdmissionError as error:
            self._send_error(429, str(error), reason=error.reason)
            return
        if record is None:
            self._send_error(404, f"unknown job {job_id!r}", reason="not_found")
            return
        self._send_json(200, envelope("job", record.to_dict()))

    def _get_result(self, job_id: str) -> None:
        record = self.server.supervisor.get(job_id)
        if record is None:
            self._send_error(404, f"unknown job {job_id!r}", reason="not_found")
            return
        if not record.state.terminal:
            self._send_error(
                409,
                f"job {job_id} is {record.state.value}; result not ready",
                reason="not_ready",
            )
            return
        self._send_json(
            200,
            envelope(
                "result",
                {
                    "job_id": record.job_id,
                    "state": record.state.value,
                    "cached": record.cached,
                    "resumed_stages": list(record.resumed_stages),
                    "result": record.result,
                    "error": record.error,
                },
            ),
        )

    def _get_artifacts(self, job_id: str) -> None:
        supervisor = self.server.supervisor
        record = supervisor.get(job_id)
        if record is None:
            self._send_error(404, f"unknown job {job_id!r}", reason="not_found")
            return
        directory = supervisor.checkpoint_dir(job_id)
        files = []
        stages = []
        if directory.is_dir():
            for path in sorted(directory.rglob("*")):
                if path.is_file():
                    files.append(
                        {
                            "name": str(path.relative_to(directory)),
                            "bytes": path.stat().st_size,
                        }
                    )
            manifest = directory / "manifest.json"
            if manifest.is_file():
                try:
                    stages = [
                        entry["stage"]
                        for entry in json.loads(manifest.read_text()).get(
                            "stages", []
                        )
                    ]
                except (ValueError, KeyError, TypeError):
                    stages = []
        self._send_json(
            200,
            envelope(
                "artifacts",
                {
                    "job_id": record.job_id,
                    "state": record.state.value,
                    "checkpoint_stages": stages,
                    "files": files,
                    "result": record.result,
                },
            ),
        )

    def _get_healthz(self) -> None:
        supervisor = self.server.supervisor
        status, verdict = supervisor.health_verdict()
        http_status = 200 if verdict.exit_code < 2 else 503
        self._send_json(
            http_status,
            envelope(
                "health",
                {
                    "status": status,
                    "verdict": verdict.value,
                    "exit_code": verdict.exit_code,
                    "recovering": supervisor.recovering(),
                    "queue": supervisor.queue.snapshot(),
                    "breaker": supervisor.breaker.snapshot(),
                    "dead": len(supervisor.jobs(state=JobState.DEAD)),
                },
            ),
        )

    def _get_metrics(self) -> None:
        body = prometheus_text(self.server.supervisor.registry).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
