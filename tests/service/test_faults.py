"""The service-tier fault model and the fault-aware job store."""

import json

import pytest

from repro.errors import PrEspError
from repro.service.faults import (
    NO_SERVICE_FAULTS,
    ServiceFaultKind,
    ServiceFaultModel,
)
from repro.service.jobs import JobIdMinter, JobRecord, JobSpec, JobStore


def record(seq=0, job_id=None, tenant="acme"):
    return JobRecord(
        job_id=job_id or f"job-00000000-{seq + 1:04d}",
        spec=JobSpec(config="soc_2", tenant=tenant),
        submit_seq=seq,
    )


class TestModel:
    def test_same_seed_same_draws_any_order(self):
        a = ServiceFaultModel(
            seed=7, rates={ServiceFaultKind.WORKER_CRASH: 0.3}
        )
        b = ServiceFaultModel(
            seed=7, rates={ServiceFaultKind.WORKER_CRASH: 0.3}
        )
        keys = [(f"job-00000000-{n:04d}", attempt)
                for n in range(1, 20) for attempt in (1, 2)]
        forward = {k: a.execution_fault(*k) for k in keys}
        backward = {k: b.execution_fault(*k) for k in reversed(keys)}
        assert forward == backward
        assert any(v is not None for v in forward.values())

    def test_different_seeds_differ(self):
        keys = [(f"job-00000000-{n:04d}", 1) for n in range(1, 200)]
        timelines = []
        for seed in (0, 1):
            model = ServiceFaultModel(
                seed=seed, rates={ServiceFaultKind.WORKER_CRASH: 0.3}
            )
            timelines.append([model.execution_fault(*k) for k in keys])
        assert timelines[0] != timelines[1]

    def test_stacked_execution_rates_at_most_one_fires(self):
        model = ServiceFaultModel(
            seed=3,
            rates={
                ServiceFaultKind.WORKER_CRASH: 0.45,
                ServiceFaultKind.SLOW_WORKER: 0.45,
            },
        )
        draws = [
            model.execution_fault(f"job-00000000-{n:04d}", 1)
            for n in range(1, 400)
        ]
        fired = [d for d in draws if d is not None]
        assert set(fired) == {
            ServiceFaultKind.WORKER_CRASH,
            ServiceFaultKind.SLOW_WORKER,
        }
        # ~90% of draws fire; both kinds occur, none twice per draw.
        assert 0.8 < len(fired) / len(draws) < 1.0

    def test_stacked_rates_must_sum_below_one(self):
        with pytest.raises(PrEspError, match="sum"):
            ServiceFaultModel(
                rates={
                    ServiceFaultKind.STORE_IO: 0.6,
                    ServiceFaultKind.TORN_WRITE: 0.5,
                }
            )

    def test_rate_bounds_and_kind_validation(self):
        with pytest.raises(PrEspError):
            ServiceFaultModel(rates={ServiceFaultKind.STORE_IO: 1.0})
        with pytest.raises(PrEspError):
            ServiceFaultModel(rates={"crash": 0.5})
        with pytest.raises(PrEspError):
            ServiceFaultModel(hang_s=0)

    def test_injection_consumed_in_order(self):
        model = ServiceFaultModel(seed=0)
        model.inject(ServiceFaultKind.WORKER_CRASH, count=2)
        assert model.injected_count(ServiceFaultKind.WORKER_CRASH) == 2
        first = model.execution_fault("job-00000000-0001", 1)
        second = model.execution_fault("job-00000000-0001", 2)
        third = model.execution_fault("job-00000000-0001", 3)
        assert first is ServiceFaultKind.WORKER_CRASH
        assert second is ServiceFaultKind.WORKER_CRASH
        assert third is None
        assert model.fired["crash"] == 2

    def test_store_and_execution_injections_are_disjoint(self):
        model = ServiceFaultModel(seed=0)
        model.inject(ServiceFaultKind.STORE_IO)
        assert model.execution_fault("job-00000000-0001", 1) is None
        assert model.store_fault("job-00000000-0001") is ServiceFaultKind.STORE_IO
        assert model.store_fault("job-00000000-0001") is None

    def test_backoff_is_seeded_exponential_capped(self):
        model = ServiceFaultModel(seed=9)
        twin = ServiceFaultModel(seed=9)
        b1 = model.backoff_s("job-00000000-0001", 1, 0.1, 10.0)
        b2 = model.backoff_s("job-00000000-0001", 2, 0.1, 10.0)
        assert 0.1 <= b1 < 0.1 * 1.25
        assert 0.2 <= b2 < 0.2 * 1.25
        assert model.backoff_s("job-00000000-0001", 9, 0.1, 0.5) < 0.5 * 1.25
        assert twin.backoff_s("job-00000000-0001", 1, 0.1, 10.0) == b1

    def test_fingerprint_round_trips_as_json(self):
        model = ServiceFaultModel(
            seed=4, rates={ServiceFaultKind.TORN_WRITE: 0.1}
        )
        model.inject(ServiceFaultKind.WORKER_CRASH, count=3)
        fingerprint = json.loads(json.dumps(model.fingerprint()))
        assert fingerprint["seed"] == 4
        assert fingerprint["rates"] == {"torn": 0.1}
        assert fingerprint["injected"] == {"crash": 3}

    def test_shared_disabled_model_refuses_injection(self):
        assert NO_SERVICE_FAULTS.enabled is False
        with pytest.raises(PrEspError, match="NO_SERVICE_FAULTS"):
            NO_SERVICE_FAULTS.inject(ServiceFaultKind.WORKER_CRASH)


class TestFaultAwareStore:
    def test_default_store_leaves_the_shared_healthy_model_untouched(self, tmp_path):
        """Saves through a default store must not grow per-job state on
        the process-wide NO_SERVICE_FAULTS singleton."""
        before = (
            dict(NO_SERVICE_FAULTS._save_counts),
            dict(NO_SERVICE_FAULTS._injected),
            dict(NO_SERVICE_FAULTS.fired),
        )
        store = JobStore(tmp_path / "jobs")
        assert store.faults is NO_SERVICE_FAULTS
        for seq in range(3):
            store.save(record(seq))
            store.save(record(seq))
        assert NO_SERVICE_FAULTS.execution_fault("job-00000000-0001", 1) is None
        after = (
            NO_SERVICE_FAULTS._save_counts,
            NO_SERVICE_FAULTS._injected,
            NO_SERVICE_FAULTS.fired,
        )
        assert after == before == ({}, {}, {})
        assert len(store.load_all()) == 3

    def test_io_fault_raises_and_retry_succeeds(self, tmp_path):
        model = ServiceFaultModel(seed=0)
        model.inject(ServiceFaultKind.STORE_IO)
        store = JobStore(tmp_path / "jobs", faults=model)
        job = record()
        with pytest.raises(OSError, match="injected IO error"):
            store.save(job)
        assert store.save_retrying(job) is True
        assert store.load(job.job_id).job_id == job.job_id

    def test_save_retrying_rides_through_injected_faults(self, tmp_path):
        model = ServiceFaultModel(seed=0)
        model.inject(ServiceFaultKind.STORE_IO, count=2)
        store = JobStore(tmp_path / "jobs", faults=model)
        job = record()
        assert store.save_retrying(job, attempts=4, backoff_s=0.001) is True

    def test_save_retrying_gives_up_quietly(self, tmp_path):
        model = ServiceFaultModel(seed=0)
        model.inject(ServiceFaultKind.STORE_IO, count=10)
        store = JobStore(tmp_path / "jobs", faults=model)
        job = record()
        assert store.save_retrying(job, attempts=3, backoff_s=0.001) is False
        assert store.load(job.job_id) is None

    def test_torn_write_never_corrupts_published_record(self, tmp_path):
        model = ServiceFaultModel(seed=0)
        store = JobStore(tmp_path / "jobs", faults=model)
        job = record()
        store.save(job)  # healthy first write publishes the record
        model.inject(ServiceFaultKind.TORN_WRITE)
        job.attempts = 5
        with pytest.raises(OSError, match="torn write"):
            store.save(job)
        # The published file still parses — the torn artifact is only
        # ever a *.tmp the rename never promoted.
        survivor = store.load(job.job_id)
        assert survivor is not None
        assert survivor.attempts == 0
        torn = list((tmp_path / "jobs").glob(".*.tmp"))
        assert torn, "torn write should leave the truncated tmp behind"
        assert store.save_retrying(job) is True
        assert store.load(job.job_id).attempts == 5

    def test_load_all_skips_torn_tmp_files(self, tmp_path):
        model = ServiceFaultModel(seed=0)
        store = JobStore(tmp_path / "jobs", faults=model)
        store.save(record(0))
        model.inject(ServiceFaultKind.TORN_WRITE)
        with pytest.raises(OSError):
            store.save(record(1))
        assert [r.job_id for r in store.load_all()] == ["job-00000000-0001"]


class TestStoreResilience:
    """Satellite: load_all shrugging off corrupt and foreign files."""

    def test_load_all_skips_corrupt_and_foreign_files(self, tmp_path):
        directory = tmp_path / "jobs"
        store = JobStore(directory)
        good = record(0)
        store.save(good)
        # Truncated JSON under a legitimate job-record name.
        (directory / "job-00000000-0002.json").write_text('{"job_id": "job-')
        # Valid JSON that is not a job record.
        (directory / "job-00000000-0003.json").write_text('{"hello": 1}')
        # Foreign files that merely live in the directory.
        (directory / "notes.json").write_text("{}")
        (directory / "README.txt").write_text("not json at all")
        loaded = store.load_all()
        assert [r.job_id for r in loaded] == [good.job_id]

    def test_load_returns_none_for_missing_or_corrupt(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        assert store.load("job-00000000-0001") is None
        store.directory.mkdir(parents=True)
        (store.directory / "job-00000000-0001.json").write_text("{broken")
        assert store.load("job-00000000-0001") is None


class TestMinterAdvance:
    """Satellite: advance_past fast-forwards per-tenant counters."""

    def test_advance_past_skips_used_sequences(self):
        first = JobIdMinter(seed=3)
        used = [
            record(seq=n, job_id=first.mint("acme"), tenant="acme")
            for n in range(4)
        ]
        rebooted = JobIdMinter(seed=3)
        rebooted.advance_past(used)
        fresh = rebooted.mint("acme")
        assert fresh not in {r.job_id for r in used}
        # Continuity: the next ID is exactly what the first minter
        # would have minted next (same seed, same tenant).
        assert fresh == first.mint("acme")

    def test_advance_past_is_per_tenant(self):
        minter = JobIdMinter(seed=0)
        acme = [record(seq=0, job_id=minter.mint("acme"), tenant="acme")]
        rebooted = JobIdMinter(seed=0)
        rebooted.advance_past(acme)
        # Another tenant's counter is untouched: its first ID matches a
        # fresh minter's first ID.
        assert rebooted.mint("birch") == JobIdMinter(seed=0).mint("birch")

    def test_advance_past_ignores_malformed_ids(self):
        minter = JobIdMinter(seed=0)
        odd = record(job_id="job-00000000-0001")
        odd = JobRecord(
            job_id="job-weird", spec=JobSpec(config="soc_2"), submit_seq=0
        )
        minter.advance_past([odd])  # must not raise
        assert minter.mint("default")
