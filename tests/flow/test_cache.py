"""Tests for the content-addressed flow cache."""

import pickle
from dataclasses import dataclass
from typing import List, Tuple

import pytest

from repro.core.designs import wami_parallelism_socs
from repro.core.strategy import ImplementationStrategy
from repro.errors import FlowError
from repro.flow.cache import (
    FlowCache,
    _is_value,
    config_fingerprint,
    default_disk_dir,
    flow_cache_key,
)
from repro.flow.dpr_flow import DprFlow
from repro.obs.export import chrome_trace_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.soc.config import SocConfig
from repro.soc.esp_library import STOCK_ACCELERATORS, stock_accelerator
from repro.vivado.characterization import characterization_design


@pytest.fixture(scope="module")
def soc():
    return wami_parallelism_socs()["soc_a"]


@pytest.fixture(scope="module")
def flow():
    return DprFlow()


class TestKeyDerivation:
    def test_same_inputs_same_key(self, flow, soc):
        assert flow_cache_key(flow, soc) == flow_cache_key(flow, soc)

    def test_strategy_override_changes_key(self, flow, soc):
        keys = {
            flow_cache_key(flow, soc),
            flow_cache_key(
                flow, soc, strategy_override=ImplementationStrategy.SERIAL
            ),
            flow_cache_key(
                flow, soc, strategy_override=ImplementationStrategy.FULLY_PARALLEL
            ),
        }
        assert len(keys) == 3

    def test_semi_tau_changes_key(self, flow, soc):
        assert flow_cache_key(flow, soc, semi_tau=2) != flow_cache_key(
            flow, soc, semi_tau=3
        )

    def test_changed_mode_set_changes_key(self, flow, soc):
        """Growing one tile's mode list is a different design."""
        tiles = list(soc.tiles)
        for index, tile in enumerate(tiles):
            if tile in soc.reconfigurable_tiles:
                widened = type(tile)(
                    name=tile.name,
                    modes=list(tile.modes) + [stock_accelerator("fft")],
                    host_cpu=tile.host_cpu,
                    hosted_cpu_core=tile.hosted_cpu_core,
                )
                tiles[index] = widened
                break
        changed = SocConfig.assemble(
            name=soc.name,
            board=soc.board,
            rows=soc.rows,
            cols=soc.cols,
            tiles=tiles,
        )
        assert flow_cache_key(flow, changed) != flow_cache_key(flow, soc)

    def test_resource_vectors_distinguish_same_named_designs(self, flow):
        """`to_dict` would alias these: same structure, different LUTs."""
        small = characterization_design("chz_x", [3_000, 4_000])
        large = characterization_design("chz_x", [3_000, 5_000])
        assert flow_cache_key(flow, small) != flow_cache_key(flow, large)

    def test_flow_options_change_key(self, soc):
        assert flow_cache_key(DprFlow(), soc) != flow_cache_key(
            DprFlow(compress_bitstreams=False), soc
        )
        assert flow_cache_key(DprFlow(), soc) != flow_cache_key(
            DprFlow(max_instances=4), soc
        )

    def test_fingerprint_covers_all_library_ips(self):
        """Every catalog accelerator digests without error."""
        from repro.flow.cache import _ip_fingerprint

        for name, ip in STOCK_ACCELERATORS.items():
            fingerprint = _ip_fingerprint(ip)
            assert fingerprint["name"] == ip.name
            assert len(fingerprint["resources"]) == 4

    def test_config_fingerprint_includes_every_tile(self, soc):
        fingerprint = config_fingerprint(soc)
        assert len(fingerprint["tiles"]) == len(soc.tiles)


class TestCorrectness:
    def test_cached_summary_identical_to_fresh(self, flow, soc):
        cache = FlowCache()
        fresh = flow.build(soc)
        key = flow_cache_key(flow, soc)
        cache.put(key, fresh)
        served = cache.get(key)
        assert served is not fresh
        assert served.to_summary_dict() == fresh.to_summary_dict()

    def test_cached_trace_identical_to_fresh(self, flow, soc):
        """A replayed trace must be byte-identical to a live one."""
        live_tracer = Tracer(time_unit="min")
        fresh = flow.build(soc, tracer=live_tracer)
        cache = FlowCache()
        cache.put(flow_cache_key(flow, soc), fresh)

        served = cache.get(flow_cache_key(flow, soc))
        replay_tracer = Tracer(time_unit="min")
        flow.record_trace(served, replay_tracer)
        assert chrome_trace_json(replay_tracer) == chrome_trace_json(live_tracer)

    def test_changed_config_misses(self, flow, soc):
        cache = FlowCache()
        cache.put(flow_cache_key(flow, soc), flow.build(soc))
        other = wami_parallelism_socs()["soc_b"]
        assert cache.get(flow_cache_key(flow, other)) is None

    def test_served_copies_are_private(self, flow, soc):
        """Mutating a served result must not poison later hits."""
        cache = FlowCache()
        key = flow_cache_key(flow, soc)
        cache.put(key, flow.build(soc))
        first = cache.get(key)
        baseline = first.to_summary_dict()
        first.bitstreams.clear()
        again = cache.get(key)
        assert again.to_summary_dict() == baseline

    def test_hits_share_immutable_values_and_copy_mutable_state(self, flow, soc):
        cache = FlowCache()
        key = flow_cache_key(flow, soc)
        fresh = flow.build(soc)
        cache.put(key, fresh)
        first, second = cache.get(key), cache.get(key)
        # Frozen-all-the-way-down values are shared, never re-created...
        assert first.config is second.config is fresh.config
        assert first.stages[0] is second.stages[0]
        # ...while everything a caller can mutate is its own copy.
        assert first.bitstreams is not second.bitstreams
        assert first.partition.rtl is not second.partition.rtl
        assert first.partition.rtl == fresh.partition.rtl
        # A node shared inside one result stays shared in its copy.
        wrapper = first.partition.rps[0].wrapper
        assert any(node is wrapper for node in first.partition.rtl.walk())

    def test_only_deep_values_are_shared(self):
        @dataclass(frozen=True)
        class Holder:
            items: Tuple
            notes: List[str]

        assert _is_value(("a", 1, 2.5, None, ImplementationStrategy.SERIAL), {})
        assert _is_value(STOCK_ACCELERATORS["fft"], {})
        assert not _is_value(("a", []), {})
        # Frozen does not mean immutable: a list field disqualifies it.
        assert not _is_value(Holder(items=(1,), notes=[]), {})

    def test_same_config_object_keys_like_an_equal_copy(self, flow, soc):
        # The key memoizes a config's canonical form by identity; an
        # equal config rebuilt from scratch must still get the same key.
        twin = pickle.loads(pickle.dumps(soc))
        assert twin is not soc
        assert flow_cache_key(flow, soc) == flow_cache_key(flow, twin)


class TestTiers:
    def test_lru_eviction(self, flow):
        socs = list(wami_parallelism_socs().values())
        cache = FlowCache(max_entries=2)
        keys = []
        for config in socs[:3]:
            key = flow_cache_key(flow, config)
            keys.append(key)
            cache.put(key, flow.build(config))
        assert len(cache) == 2
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[2]) is not None
        assert cache.stats()["evictions"] == 1

    def test_get_refreshes_lru_position(self, flow):
        socs = list(wami_parallelism_socs().values())
        cache = FlowCache(max_entries=2)
        keys = [flow_cache_key(flow, config) for config in socs[:3]]
        cache.put(keys[0], flow.build(socs[0]))
        cache.put(keys[1], flow.build(socs[1]))
        cache.get(keys[0])  # now most recent
        cache.put(keys[2], flow.build(socs[2]))
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None

    def test_disk_tier_survives_process_boundary(self, flow, soc, tmp_path):
        """A second cache instance (new 'process') hits the disk tier."""
        key = flow_cache_key(flow, soc)
        writer = FlowCache(disk_dir=tmp_path)
        writer.put(key, flow.build(soc))

        reader = FlowCache(disk_dir=tmp_path)
        served = reader.get(key)
        assert served is not None
        assert served.to_summary_dict() == flow.build(soc).to_summary_dict()
        assert reader.stats()["hits_disk"] == 1
        # The disk hit was promoted: next lookup is a memory hit.
        reader.get(key)
        assert reader.stats()["hits_memory"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, flow, soc, tmp_path):
        key = flow_cache_key(flow, soc)
        writer = FlowCache(disk_dir=tmp_path)
        writer.put(key, flow.build(soc))
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        reader = FlowCache(disk_dir=tmp_path)
        assert reader.get(key) is None
        assert reader.stats()["disk_errors"] == 1
        assert not (tmp_path / f"{key}.pkl").exists()  # evicted

    def test_clear_disk(self, flow, soc, tmp_path):
        cache = FlowCache(disk_dir=tmp_path)
        cache.put(flow_cache_key(flow, soc), flow.build(soc))
        assert list(tmp_path.glob("*.pkl"))
        cache.clear(disk=True)
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.pkl"))

    def test_concurrent_writers_never_publish_torn_entries(self, flow, soc, tmp_path):
        """Regression: two writers racing on one key used to share one
        ``<key>.tmp`` file, so a rename could publish a truncated
        pickle. Tmp names are per-writer now; hammer the same key from
        many threads and every published entry must load cleanly."""
        import threading

        key = flow_cache_key(flow, soc)
        result = flow.build(soc)
        caches = [FlowCache(disk_dir=tmp_path) for _ in range(4)]
        start = threading.Barrier(len(caches))

        def writer(cache):
            start.wait()
            for _ in range(20):
                cache.put(key, result)

        threads = [
            threading.Thread(target=writer, args=(cache,)) for cache in caches
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # No tmp litter, and the published entry deserializes.
        assert list(tmp_path.glob("*.tmp")) == []
        reader = FlowCache(disk_dir=tmp_path)
        served = reader.get(key)
        assert served is not None
        assert served.to_summary_dict() == result.to_summary_dict()
        assert reader.stats()["disk_errors"] == 0

    def test_default_disk_dir_honors_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_disk_dir() == tmp_path / "repro-flow"

    def test_bad_capacity_rejected(self):
        with pytest.raises(FlowError):
            FlowCache(max_entries=0)


class TestInstrumentation:
    def test_counters_land_in_registry(self, flow, soc):
        registry = MetricsRegistry()
        cache = FlowCache(metrics=registry)
        key = flow_cache_key(flow, soc)
        cache.get(key)  # miss
        cache.put(key, flow.build(soc))
        cache.get(key)  # memory hit
        snapshot = registry.snapshot()
        assert snapshot["flow_cache_requests_total"] == 2
        assert snapshot["flow_cache_misses_total"] == 1
        assert snapshot["flow_cache_hits_total{tier=memory}"] == 1

    def test_stats_without_registry(self, flow, soc):
        cache = FlowCache()
        key = flow_cache_key(flow, soc)
        cache.get(key)
        cache.put(key, flow.build(soc))
        cache.get(key)
        stats = cache.stats()
        assert stats["requests"] == 2
        assert stats["misses"] == 1
        assert stats["hits_memory"] == 1
        assert stats["entries"] == 1

    def test_payloads_are_picklable_roundtrips(self, flow, soc):
        result = flow.build(soc)
        clone = pickle.loads(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        assert clone.to_summary_dict() == result.to_summary_dict()
