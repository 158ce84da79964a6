"""Content-addressed caching of :class:`~repro.flow.dpr_flow.FlowResult`.

The table benches and the characterization sweeps rebuild the same SoC
configurations dozens of times per run; a ``DprFlow.build()`` is pure
(same config + model + options -> same result), so its output can be
memoized under a stable digest of everything the flow reads:

* the full SoC description — tile kinds, names, CPU cores, and the
  complete resource vectors of every accelerator mode (``to_dict()``
  alone is not enough: two synthetic characterization designs can share
  mode *names* while differing in LUTs);
* the runtime model — every curve's ``(c, a, p)`` plus the
  reconfigurable-LUT weight;
* the flow options — instance cap, bitstream compression, floorplan
  utilization target;
* the request — strategy override and ``semi_tau``.

Keying is conservative: a request that overrides the strategy to what
the size-driven algorithm would have chosen anyway digests differently
from the no-override request, so a miss can never alias two requests
that *might* diverge.

The cache itself is two-tiered. The in-memory tier is a bounded LRU of
*pickled* results — ``get`` deserializes a private copy per call, so a
caller mutating a served result can never poison later hits. Only
mutable state needs that copy: values that are immutable all the way
down (frozen dataclasses of atoms and tuples, such as the SoC config,
resource vectors, pblocks and stage traces) are pickled by reference
and shared by every served copy, which cuts a hit's deserialization to
the mutable remainder (the RTL tree, lists, dicts). The
optional on-disk tier (``~/.cache/repro-flow/`` or a caller-supplied
directory) persists entries across processes; disk hits are promoted
into memory. Hit/miss/eviction counters land in an
:class:`~repro.obs.metrics.MetricsRegistry` when one is supplied.
"""

from __future__ import annotations

import enum
import hashlib
import io
import json
import os
import pickle
import threading
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.atomic import atomic_write
from repro.errors import FlowError
from repro.obs.logconfig import get_logger
from repro.obs.metrics import NULL_METRICS
from repro.soc.config import SocConfig
from repro.soc.tiles import ReconfigurableTile, TileKind
from repro.vivado.runtime_model import RuntimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import ImplementationStrategy
    from repro.flow.dpr_flow import DprFlow, FlowResult

logger = get_logger("flow.cache")

#: Bump when the digest layout or the pickled payload schema changes;
#: old on-disk entries then simply stop matching.
CACHE_SCHEMA_VERSION = 3


def default_disk_dir() -> Path:
    """``$XDG_CACHE_HOME/repro-flow`` (``~/.cache/repro-flow`` fallback)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if base else Path("~/.cache").expanduser()
    return root / "repro-flow"


# ----------------------------------------------------------------------
# key derivation
# ----------------------------------------------------------------------
def _ip_fingerprint(ip) -> Dict:
    resources = ip.resources
    return {
        "name": ip.name,
        "hls_flow": ip.hls_flow.value,
        "resources": [resources.lut, resources.ff, resources.bram, resources.dsp],
        "throughput_factor": ip.throughput_factor,
        "dynamic_power_w": ip.dynamic_power_w,
    }


def _tile_fingerprint(tile) -> Dict:
    entry: Dict = {"kind": tile.kind.value, "name": tile.name}
    if tile.kind is TileKind.CPU:
        entry["cpu_core"] = tile.cpu_core.value
    if tile.accelerator is not None:
        entry["accelerator"] = _ip_fingerprint(tile.accelerator)
    if isinstance(tile, ReconfigurableTile):
        entry["modes"] = [_ip_fingerprint(ip) for ip in tile.modes]
        entry["host_cpu"] = tile.host_cpu
        entry["hosted_cpu_core"] = tile.hosted_cpu_core.value
    return entry


def config_fingerprint(config: SocConfig) -> Dict:
    """Full-fidelity JSON form of a config (unlike ``to_dict``, carries
    every accelerator's resource vector, not just its catalog name)."""
    return {
        "name": config.name,
        "board": config.board,
        "rows": config.rows,
        "cols": config.cols,
        "tiles": [_tile_fingerprint(tile) for tile in config.tiles],
    }


def model_fingerprint(model: RuntimeModel) -> Dict:
    """The runtime model's curves and weights, JSON-canonical."""
    return {
        "curves": {
            kind.value: [curve.c, curve.a, curve.p]
            for kind, curve in sorted(model.curves.items(), key=lambda kv: kv[0].value)
        },
        "reconf_weight": model.reconf_weight,
    }


def _canonical_json(document: Dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


#: Canonical config JSON by config identity. A SocConfig is frozen all
#: the way down (tiles, mode tuples, accelerator IPs and resource
#: vectors are frozen dataclasses), so one object always fingerprints
#: the same; a warm lookup then skips rebuilding and re-encoding the
#: fingerprint. Entries leave when their config is collected.
_CONFIG_JSON: Dict[int, str] = {}


def _config_json(config: SocConfig) -> str:
    key = id(config)
    text = _CONFIG_JSON.get(key)
    if text is None:
        text = _canonical_json(config_fingerprint(config))
        _CONFIG_JSON[key] = text
        weakref.finalize(config, _CONFIG_JSON.pop, key, None)
    return text


def flow_cache_key(
    flow: "DprFlow",
    config: SocConfig,
    strategy_override: Optional["ImplementationStrategy"] = None,
    semi_tau: int = 2,
) -> str:
    """SHA-256 digest of everything a ``flow.build()`` call reads."""
    payload = {
        "version": CACHE_SCHEMA_VERSION,
        "model": model_fingerprint(flow.model),
        "options": {
            "max_instances": flow.max_instances,
            "compress_bitstreams": flow.compress_bitstreams,
            "floorplan_utilization": flow.floorplan_utilization,
        },
        # Fault model and retry policy change retry timelines, burned
        # minutes, and possibly which tiles survive — a degraded build
        # must never alias the clean one.
        "faults": flow.faults.fingerprint(),
        "retry": {
            "max_attempts": flow.retry.max_attempts,
            "backoff_minutes": flow.retry.backoff_minutes,
            "factor": flow.retry.factor,
            "cap_minutes": flow.retry.cap_minutes,
            "jitter": flow.retry.jitter,
        },
        "request": {
            "strategy_override": (
                None if strategy_override is None else strategy_override.value
            ),
            "semi_tau": semi_tau,
        },
    }
    digest = hashlib.sha256(_config_json(config).encode("utf-8"))
    digest.update(_canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# payloads: mutable state pickled, immutable values shared
# ----------------------------------------------------------------------
#: Leaves that pickle faster inline than through a persistent reference.
_ATOM_TYPES = frozenset({str, int, float, bool, type(None), bytes})


def _is_value(obj: object, memo: Dict[int, bool]) -> bool:
    """True if ``obj`` is immutable all the way down: an atom, an enum
    member, a tuple or frozenset of values, or a frozen dataclass whose
    instance attributes are all values (a cached_property's dict
    disqualifies it)."""
    kind = type(obj)
    if kind in _ATOM_TYPES or isinstance(obj, enum.Enum):
        return True
    known = memo.get(id(obj))
    if known is not None:
        return known
    memo[id(obj)] = False  # a cycle is never treated as a value
    params = getattr(kind, "__dataclass_params__", None)
    if kind is tuple or kind is frozenset:
        items = obj
    elif params is not None and params.frozen and hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return False
    for item in items:
        if type(item) not in _ATOM_TYPES and not _is_value(item, memo):
            return False
    memo[id(obj)] = True
    return True


class _SharingPickler(pickle.Pickler):
    """Pickles mutable state; collects immutable values by reference."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.shared: List[object] = []
        self._values: Dict[int, bool] = {}

    def persistent_id(self, obj: object) -> Optional[int]:
        if type(obj) in _ATOM_TYPES or not _is_value(obj, self._values):
            return None
        self.shared.append(obj)
        return len(self.shared) - 1


class _SharingUnpickler(pickle.Unpickler):
    def __init__(self, payload: bytes, shared: Tuple[object, ...]) -> None:
        super().__init__(io.BytesIO(payload))
        self._shared = shared

    def persistent_load(self, pid: int) -> object:
        return self._shared[pid]


def _dumps_sharing(result: "FlowResult") -> Tuple[bytes, Tuple[object, ...]]:
    buffer = io.BytesIO()
    pickler = _SharingPickler(buffer)
    pickler.dump(result)
    return buffer.getvalue(), tuple(pickler.shared)


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class FlowCache:
    """Two-tier (memory LRU + optional disk) store of flow results.

    ``max_entries`` bounds the memory tier; ``disk_dir`` enables the
    persistent tier (``default_disk_dir()`` when passed ``True``).
    ``metrics`` receives the counters::

        flow_cache_requests_total
        flow_cache_hits_total{tier=memory|disk}
        flow_cache_misses_total
        flow_cache_evictions_total
        flow_cache_disk_errors_total
    """

    def __init__(
        self,
        max_entries: int = 256,
        disk_dir: Union[None, bool, str, Path] = None,
        metrics=NULL_METRICS,
    ) -> None:
        if max_entries <= 0:
            raise FlowError(f"cache needs at least one entry, got {max_entries}")
        self.max_entries = max_entries
        if disk_dir is True:
            disk_dir = default_disk_dir()
        elif disk_dir is False:
            disk_dir = None
        self.disk_dir: Optional[Path] = Path(disk_dir) if disk_dir else None
        #: key -> (pickled mutable state, the values it references)
        self._memory: "OrderedDict[str, Tuple[bytes, Tuple[object, ...]]]" = (
            OrderedDict()
        )
        # The service daemon's worker threads share one cache; the lock
        # keeps the LRU bookkeeping (move_to_end/popitem) and the stat
        # mirrors coherent under concurrent get/put.
        self._lock = threading.RLock()
        self._requests = metrics.counter(
            "flow_cache_requests_total", "flow-cache lookups"
        )
        self._hits = metrics.counter(
            "flow_cache_hits_total", "flow-cache hits per tier"
        )
        self._misses = metrics.counter(
            "flow_cache_misses_total", "flow-cache misses"
        )
        self._evictions = metrics.counter(
            "flow_cache_evictions_total", "memory-tier LRU evictions"
        )
        self._disk_errors = metrics.counter(
            "flow_cache_disk_errors_total", "unreadable/unwritable disk entries"
        )
        # Plain integers mirror the counters so ``stats()`` works with
        # the default NULL_METRICS registry too.
        self._stat = {
            "requests": 0,
            "hits_memory": 0,
            "hits_disk": 0,
            "misses": 0,
            "evictions": 0,
            "disk_errors": 0,
        }

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus the current memory-tier size."""
        with self._lock:
            return {**self._stat, "entries": len(self._memory)}

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and the disk tier when ``disk``)."""
        with self._lock:
            self._memory.clear()
        if disk and self.disk_dir is not None and self.disk_dir.is_dir():
            for entry in self.disk_dir.glob("*.pkl"):
                try:
                    entry.unlink()
                except OSError:
                    self._count_disk_error()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional["FlowResult"]:
        """The cached result for ``key``, or None.

        Every hit deserializes a fresh copy, so callers own what they
        receive.
        """
        self._requests.inc()
        with self._lock:
            self._stat["requests"] += 1
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self._hits.inc(tier="memory")
                self._stat["hits_memory"] += 1
                return _SharingUnpickler(*entry).load()
        # Disk I/O happens outside the lock — only the promotion into
        # the memory tier re-enters it.
        payload = self._disk_read(key)
        if payload is not None:
            try:
                result = pickle.loads(payload)
            except Exception:
                self._count_disk_error()
                self._disk_evict(key)
            else:
                # A disk entry is self-contained: promoted as-is, it
                # shares nothing.
                self._memory_store(key, (payload, ()))
                self._hits.inc(tier="disk")
                with self._lock:
                    self._stat["hits_disk"] += 1
                return result
        self._misses.inc()
        with self._lock:
            self._stat["misses"] += 1
        return None

    def put(self, key: str, result: "FlowResult") -> None:
        """Store ``result`` in both tiers."""
        self._memory_store(key, _dumps_sharing(result))
        if self.disk_dir is not None:
            self._disk_write(
                key, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            )

    # ------------------------------------------------------------------
    # memory tier
    # ------------------------------------------------------------------
    def _memory_store(self, key: str, entry: Tuple[bytes, Tuple[object, ...]]) -> None:
        with self._lock:
            self._memory[key] = entry
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_entries:
                evicted, _ = self._memory.popitem(last=False)
                self._evictions.inc()
                self._stat["evictions"] += 1
                logger.debug("evicted flow-cache entry %s", evicted[:12])

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{key}.pkl"

    def _count_disk_error(self) -> None:
        self._disk_errors.inc()
        with self._lock:
            self._stat["disk_errors"] += 1

    def _disk_read(self, key: str) -> Optional[bytes]:
        if self.disk_dir is None:
            return None
        path = self._disk_path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self._count_disk_error()
            return None

    def _disk_write(self, key: str, payload: bytes) -> None:
        """Publish one entry with :func:`~repro.atomic.atomic_write`.

        Concurrent writers of one key (service worker threads, or two
        daemons sharing a disk dir) each rename their own tmp file;
        both serialize the identical payload for a content digest, so
        whichever rename lands last is equally correct.
        """
        if self.disk_dir is None:
            return
        try:
            atomic_write(self._disk_path(key), payload)
        except OSError:
            self._count_disk_error()

    def _disk_evict(self, key: str) -> None:
        if self.disk_dir is None:
            return
        try:
            self._disk_path(key).unlink()
        except OSError:
            pass
