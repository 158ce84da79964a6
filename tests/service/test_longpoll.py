"""Event-driven job completion: the ``?wait=`` long-poll end to end.

The supervisor wakes a waiter from the save of a terminal state (never
from the in-memory flip before it), the HTTP layer holds a status
request for at most ``MAX_WAIT_S``, and ``ServiceClient.wait`` is a
loop of such holds. Every test bounds how long it blocks; none of them
sleeps to let the daemon catch up.
"""

import threading
import time

import pytest

from repro.service import httpd
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.daemon import BuildService, ServiceConfig
from repro.service.jobs import JobSpec, JobState
from repro.service.supervisor import Supervisor


@pytest.fixture
def idle_supervisor(tmp_path):
    """A supervisor without workers: jobs stay queued until cancelled."""
    sup = Supervisor(state_dir=tmp_path / "state", workers=1, jobs=1)
    yield sup
    sup.stop()


@pytest.fixture
def holds(monkeypatch):
    """The ``wait`` argument of every ``ServiceClient.status`` call."""
    seen = []
    status = ServiceClient.status

    def recording(self, job_id, wait=None):
        seen.append(wait)
        return status(self, job_id, wait=wait)

    monkeypatch.setattr(ServiceClient, "status", recording)
    return seen


class TestSupervisorWait:
    def test_waiter_wakes_on_the_persist_not_the_flip(self, idle_supervisor):
        sup = idle_supervisor
        record = sup.submit(JobSpec(config="soc_2"))
        entered, gate = threading.Event(), threading.Event()
        saved_at = {}
        save = sup.store.save

        def gated_save(rec):
            if rec.state.terminal:
                entered.set()
                gate.wait(timeout=10)
                save(rec)
                saved_at["t"] = time.perf_counter()
            else:
                save(rec)

        sup.store.save = gated_save
        out = {}

        def wait():
            out["state"] = sup.wait_terminal(record.job_id, 30).state
            out["at"] = time.perf_counter()

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        canceller = threading.Thread(target=sup.cancel, args=(record.job_id,))
        canceller.start()
        try:
            # The table has flipped to CANCELLED once the save is
            # entered; the gated save keeps the waiter blocked anyway.
            assert entered.wait(timeout=10)
            assert sup.get(record.job_id).state is JobState.CANCELLED
            waiter.join(timeout=0.1)
            assert waiter.is_alive(), "woken before the terminal save"
        finally:
            gate.set()
        canceller.join(timeout=10)
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        assert out["state"] is JobState.CANCELLED
        assert sup.store.load(record.job_id).state is JobState.CANCELLED
        # Woken by the save itself, not by a later poll.
        assert out["at"] - saved_at["t"] < 0.05


class TestHttpWait:
    def test_expired_wait_returns_non_terminal_record(self, idle_client):
        record = idle_client.submit("soc_2")
        started = time.monotonic()
        current = idle_client.status(record["job_id"], wait=0.2)
        elapsed = time.monotonic() - started
        assert current["state"] == "queued"
        assert 0.2 <= elapsed < 5.0

    def test_hold_is_capped_by_the_server(self, idle_client, monkeypatch):
        monkeypatch.setattr(httpd, "MAX_WAIT_S", 0.2)
        record = idle_client.submit("soc_2")
        started = time.monotonic()
        current = idle_client.status(record["job_id"], wait=30)
        assert current["state"] == "queued"
        assert time.monotonic() - started < 5.0

    @pytest.mark.parametrize("value", ["abc", "-1", "nan"])
    def test_bad_wait_is_400(self, idle_client, value):
        record = idle_client.submit("soc_2")
        with pytest.raises(ServiceError) as exc:
            idle_client._request(
                "GET", f"/v1/jobs/{record['job_id']}?wait={value}", kind="job"
            )
        assert exc.value.status == 400
        assert exc.value.reason == "bad_request"

    def test_unknown_job_with_wait_is_404_at_once(self, idle_client):
        started = time.monotonic()
        with pytest.raises(ServiceError) as exc:
            idle_client.status("job-00000000-0099", wait=5)
        assert exc.value.status == 404
        assert time.monotonic() - started < 5.0

    def test_wait_is_released_by_a_cancel(self, idle_client):
        record = idle_client.submit("soc_2")
        out = {}

        def wait():
            out["record"] = idle_client.wait(record["job_id"], timeout=30)

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        idle_client.cancel(record["job_id"])
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        assert out["record"]["state"] == "cancelled"


class TestClientWait:
    def test_one_long_poll_per_job(self, client, holds):
        record = client.submit("soc_2")
        done = client.wait(record["job_id"], timeout=60)
        assert done["state"] == "succeeded"
        assert len(holds) == 1
        assert 0 < holds[0] <= client.timeout / 2

    def test_holds_stay_under_the_socket_timeout(self, idle_server, holds):
        short = ServiceClient(port=idle_server.server_address[1], timeout=0.4)
        record = short.submit("soc_2")
        with pytest.raises(ServiceUnavailable, match="still 'queued'"):
            short.wait(record["job_id"], timeout=1.0)
        assert len(holds) >= 2
        assert all(hold <= 0.2 for hold in holds)


class TestDaemonStop:
    def test_stop_releases_a_blocked_waiter(self, tmp_path):
        service = BuildService(
            ServiceConfig(state_dir=tmp_path / "state", port=0, workers=1, jobs=1)
        ).start()
        supervisor = service.supervisor
        gate = threading.Event()
        run_build = supervisor._run_build

        def held(record):
            gate.wait(timeout=30)
            return run_build(record)

        supervisor._run_build = held
        try:
            client = ServiceClient(port=service.port)
            record = client.submit("soc_2")
            out = {}

            def wait():
                out["record"] = client.status(record["job_id"], wait=20)

            waiter = threading.Thread(target=wait, daemon=True)
            waiter.start()
            waiter.join(timeout=0.1)
            assert waiter.is_alive()
            started = time.monotonic()
            service.stop(timeout=0.1)
            waiter.join(timeout=5)
            assert not waiter.is_alive()
            assert time.monotonic() - started < 5.0
            assert out["record"]["state"] in ("queued", "running")
        finally:
            gate.set()
