"""A small labeled-metrics registry (counters, gauges, histograms).

The registry is the machine-readable counterpart of the human reports:
`collect_stats` and `flow_report` read the same underlying records the
instruments are fed from, so the two views cannot drift apart. The
snapshot format is a flat, deterministically ordered dict — trivially
JSON-serializable for ``repro deploy --json`` and CI dashboards.

Labels follow the Prometheus convention: an instrument is registered
once by name, and each distinct label combination is a separate
series. Snapshot keys render as ``name{k=v,...}``.

Recording is lock-free; readers are safe against concurrent writers
because every view (``series``, ``items``, ``snapshot``) iterates a
copy of the series dict, taken in one C-level step under the GIL. A
request thread may add a fresh label series while a worker snapshots
the registry: the snapshot then simply predates that series.

When a :class:`~repro.obs.context.TelemetryContext` is active, every
recording implicitly carries its ``request``/``tenant`` labels
(explicit labels of the same name win), so per-request series appear
without threading the context through call sites. The null registry
never consults the context variable — disabled instrumentation stays
free.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import PrEspError
from repro.obs.context import current_context


class MetricsError(PrEspError):
    """Misuse of the metrics API (type conflict, bad value)."""


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _contextual(labels: Dict[str, str]) -> Dict[str, str]:
    """Merge the active telemetry context's labels under explicit ones."""
    context = current_context()
    if context is None:
        return labels
    merged = context.labels()
    merged.update(labels)
    return merged


def _series_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing value per label combination."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._values: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` (must be non-negative) to the labeled series."""
        if value < 0:
            raise MetricsError(f"counter {self.name}: negative increment {value}")
        key = _label_key(_contextual(labels))
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current value of one labeled series (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def series(self) -> Dict[str, float]:
        return {
            _series_name(self.name, key): value
            for key, value in self._values.copy().items()
        }

    def items(self) -> List[Tuple[LabelKey, float]]:
        """``(label_key, value)`` pairs, label-ordered (exporter view)."""
        return sorted(self._values.copy().items())


class Gauge:
    """A point-in-time value per label combination."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        """Overwrite the labeled series with ``value``."""
        self._values[_label_key(_contextual(labels))] = float(value)

    def value(self, **labels) -> float:
        """Current value of one labeled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> Dict[str, float]:
        return {
            _series_name(self.name, key): value
            for key, value in self._values.copy().items()
        }

    def items(self) -> List[Tuple[LabelKey, float]]:
        """``(label_key, value)`` pairs, label-ordered (exporter view)."""
        return sorted(self._values.copy().items())


#: Default histogram buckets: wide enough for both milliseconds of
#: reconfiguration time and tens of CAD minutes.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0
)


def bucket_quantile(
    bounds: Tuple[float, ...],
    bucket_counts: List[int],
    q: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> Optional[float]:
    """Estimate the ``q``-quantile from histogram bucket counts.

    Linear interpolation inside the bucket holding the target rank
    (the Prometheus ``histogram_quantile`` estimator), tightened by the
    exact observed ``minimum``/``maximum`` when available: the first
    bucket interpolates from ``minimum`` instead of 0, the overflow
    bucket from the last bound to ``maximum``. Returns None for an
    empty distribution.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricsError(f"quantile must be in [0, 1], got {q}")
    total = sum(bucket_counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    last = len(bucket_counts) - 1
    for index, count in enumerate(bucket_counts):
        cumulative += count
        if count == 0 or (cumulative < rank and index != last):
            continue
        if index == 0:
            lower = minimum if minimum is not None else 0.0
            upper = bounds[0]
        elif index > len(bounds) - 1:  # overflow bucket
            lower = bounds[-1]
            upper = maximum if maximum is not None else bounds[-1]
        else:
            lower = bounds[index - 1]
            upper = bounds[index]
        fraction = (rank - (cumulative - count)) / count
        fraction = min(1.0, max(0.0, fraction))
        value = lower + (upper - lower) * fraction
        if minimum is not None:
            value = max(value, minimum)
        if maximum is not None:
            value = min(value, maximum)
        return value
    return None  # pragma: no cover - total > 0 guarantees a bucket hit


class _HistogramSeries:
    __slots__ = ("count", "total", "minimum", "maximum", "bucket_counts")

    def __init__(self, num_buckets: int) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.bucket_counts = [0] * (num_buckets + 1)  # +1 overflow


class Histogram:
    """A distribution per label combination (count/sum/min/max/buckets)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.description = description
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricsError(f"histogram {name}: needs at least one bucket")
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one sample into the labeled distribution."""
        key = _label_key(_contextual(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        series.count += 1
        series.total += value
        series.minimum = value if series.minimum is None else min(series.minimum, value)
        series.maximum = value if series.maximum is None else max(series.maximum, value)
        series.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1

    def count(self, **labels) -> int:
        """Number of samples in one labeled series."""
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels) -> float:
        """Sum of samples in one labeled series."""
        series = self._series.get(_label_key(labels))
        return series.total if series else 0.0

    def mean(self, **labels) -> float:
        """Mean sample of one labeled series (0 when empty)."""
        series = self._series.get(_label_key(labels))
        if not series or series.count == 0:
            return 0.0
        return series.total / series.count

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Estimated ``q``-quantile of one labeled series (None if empty).

        Interpolated from the bucket counts (see :func:`bucket_quantile`),
        so the estimate's resolution is the bucket layout — exact at the
        observed min/max, within one bucket everywhere else.
        """
        series = self._series.get(_label_key(labels))
        if not series or series.count == 0:
            return None
        return bucket_quantile(
            self.buckets,
            series.bucket_counts,
            q,
            minimum=series.minimum,
            maximum=series.maximum,
        )

    #: The tail-latency quantiles ``series()`` exports.
    EXPORTED_QUANTILES = ((0.50, "p50"), (0.95, "p95"), (0.99, "p99"))

    def series(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, series in self._series.copy().items():
            base = _series_name(self.name, key)
            out[f"{base}.count"] = float(series.count)
            out[f"{base}.sum"] = series.total
            # min/max (and quantiles) are omitted for an empty series:
            # a 0.0 placeholder is indistinguishable from a real sample.
            if series.count:
                out[f"{base}.min"] = series.minimum
                out[f"{base}.max"] = series.maximum
                for q, label in self.EXPORTED_QUANTILES:
                    out[f"{base}.{label}"] = bucket_quantile(
                        self.buckets,
                        series.bucket_counts,
                        q,
                        minimum=series.minimum,
                        maximum=series.maximum,
                    )
            cumulative = 0
            for bound, count in zip(self.buckets, series.bucket_counts):
                cumulative += count
                out[f"{base}.bucket.le={bound:g}"] = float(cumulative)
            out[f"{base}.bucket.le=inf"] = float(series.count)
        return out

    def items(self) -> List[Tuple[LabelKey, "_HistogramSeries"]]:
        """``(label_key, series)`` pairs, label-ordered (exporter view)."""
        return sorted(self._series.copy().items(), key=lambda item: item[0])


class MetricsRegistry:
    """Registers and snapshots instruments.

    Instrument registration is idempotent by (name, kind): asking for
    an existing counter returns it; asking for the same name as a
    different kind is an error.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind, *args, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind.kind}"
                )
            return existing
        instrument = kind(name, *args, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        """Get-or-create a counter."""
        return self._get(name, Counter, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get-or-create a gauge."""
        return self._get(name, Gauge, description)

    def histogram(
        self, name: str, description: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get-or-create a histogram."""
        return self._get(name, Histogram, description, buckets)

    def instruments(self) -> List[object]:
        """All registered instruments, name-ordered."""
        instruments = self._instruments.copy()
        return [instruments[name] for name in sorted(instruments)]

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{series_name: value}`` dict, deterministically ordered."""
        flat: Dict[str, float] = {}
        for instrument in self.instruments():
            flat.update(instrument.series())
        return dict(sorted(flat.items()))


class _NullInstrument:
    """One shared do-nothing instrument for the disabled registry."""

    __slots__ = ()
    name = "null"
    description = ""
    kind = "null"

    def inc(self, value: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def value(self, **labels) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels) -> int:
        return 0

    def sum(self, **labels) -> float:
        return 0.0

    def mean(self, **labels) -> float:
        return 0.0

    def quantile(self, q: float, **labels) -> None:
        return None

    def series(self) -> Dict[str, float]:
        return {}

    def items(self) -> list:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Disabled registry: hands out one shared no-op instrument."""

    enabled = False
    __slots__ = ()

    def counter(self, name: str, description: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, description: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, description: str = "", buckets=DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def instruments(self) -> list:
        return []

    def snapshot(self) -> Dict[str, float]:
        return {}


#: The process-wide disabled registry instrumented code defaults to.
NULL_METRICS = NullMetricsRegistry()
