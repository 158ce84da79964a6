"""Traced-run span recorder, layer probes and the self-time report.

Probes wrap the public functions of each layer *from here*, by
replacing the attribute the program looks up (a class method, or the
name a module imported), so nothing under ``src/`` is instrumented.
Each span records its name, start, end, parent span and op (or job)
id; spans stay in memory and are reduced once, at the end of the run.

A span's parent is the innermost open span of the same thread, so the
spans of one in-process op form a tree under its ``op`` root, and a
layer's self time — its span minus the spans directly beneath it —
sums with the other layers' to the op wall time. Daemon threads (the
service's HTTP handlers, workers and attempt threads) have no op root;
their spans are reported as concurrent work, attributed to the job id.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import platform as core_platform
from repro.core.platform import PrEspPlatform
from repro.flow import dpr_flow
from repro.flow.batch import BatchBuilder
from repro.flow.cache import FlowCache
from repro.floorplan.flora import FloraFloorplanner
from repro.noc.analytic import AnalyticNocModel
from repro.obs.context import current_request_id
from repro.obs.events import EventBus
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.tracer import Tracer
from repro.obs.tsdb import TelemetryStore
from repro.runtime.executor import AppExecutor
from repro.runtime.manager import ReconfigurationManager
from repro.service import supervisor as service_supervisor
from repro.service.client import ServiceClient
from repro.service.jobs import JobStore
from repro.service.queue import JobQueue
from repro.service.supervisor import Supervisor
from repro.sim.kernel import Simulator
from repro.vivado.server import VivadoServer
from repro.vivado.tool import VivadoInstance

ROOT = "op"

#: (owner, attribute, span name). Owners are classes or the modules
#: whose imported name the program calls.
SPAN_PROBES = [
    (dpr_flow, "partition_design", "soc.partition"),
    (dpr_flow, "generate_blackboxes", "flow.blackbox"),
    (dpr_flow, "compute_metrics", "core.metrics"),
    (dpr_flow, "choose_strategy", "core.strategy"),
    (dpr_flow, "plan_implementation", "flow.plan_impl"),
    (dpr_flow, "validate_floorplan", "floorplan.validate"),
    (dpr_flow.DprFlow, "build", "flow.build"),
    (FloraFloorplanner, "plan", "floorplan.plan"),
    (VivadoInstance, "synth_design", "vivado.synth"),
    (VivadoInstance, "implement_static", "vivado.par"),
    (VivadoInstance, "implement_in_context", "vivado.par"),
    (VivadoInstance, "implement_full", "vivado.par"),
    (VivadoInstance, "write_partial_bitstream", "vivado.bitstream"),
    (VivadoInstance, "write_blanking_bitstream", "vivado.bitstream"),
    (VivadoInstance, "write_full_bitstream", "vivado.bitstream"),
    (VivadoServer, "schedule", "vivado.schedule"),
    (PrEspPlatform, "build", "core.build"),
    (PrEspPlatform, "deploy_wami", "core.deploy"),
    (AppExecutor, "run", "runtime.executor"),
    (AnalyticNocModel, "transfer_time_s", "noc.transfer"),
    (core_platform, "measure_energy", "energy.measure"),
    (HealthMonitor, "report", "obs.health_report"),
    (MetricsRegistry, "snapshot", "obs.metrics_snapshot"),
    (TelemetryStore, "record", "obs.telemetry_record"),
    (service_supervisor, "resolve_config", "core.resolve"),
    (FlowCache, "get", "flow.cache_get"),
    (FlowCache, "put", "flow.cache_put"),
]

#: Hot calls that are counted, not spanned (a span each would cost more
#: than the call).
COUNT_PROBES = [
    (Simulator, "timeout", "sim.timeout_calls"),
    (Simulator, "process", "sim.process_calls"),
    (ReconfigurationManager, "invoke", "runtime.invoke_calls"),
    (Tracer, "begin", "obs.tracer_calls"),
    (Tracer, "end", "obs.tracer_calls"),
    (Tracer, "record", "obs.tracer_calls"),
    (Tracer, "instant", "obs.tracer_calls"),
    (Profiler, "begin", "obs.profiler_calls"),
    (Profiler, "end", "obs.profiler_calls"),
    (Profiler, "add_sim", "obs.profiler_calls"),
    (Profiler, "record_leaf", "obs.profiler_calls"),
    (EventBus, "emit", "obs.bus_emits"),
]


class Recorder:
    """In-memory spans, counters and per-job timestamps of one run."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id, op, thread id)
        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: mark name -> {op or job id: perf_counter time}
        self.marks: Dict[str, Dict[str, float]] = defaultdict(dict)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, op_of=None):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent, op = stack[-1] if stack else (0, None)
        if op is None:
            op = current_request_id()
        span_id = next(self._ids)
        stack.append((span_id, op))
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if op_of is not None:
                op = op_of(args, result) or op
            self.spans.append(
                (span_id, name, start, end, parent, op, threading.get_ident())
            )

    def op(self, op_id: str, fn: Callable, *args):
        """Run one benchmark op under a root span."""
        stack = self._stack()
        stack.append((0, op_id))  # lets call() see the op id
        try:
            return self.call(ROOT, fn, args, {})
        finally:
            stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def mark(self, name: str, key: str, when: Optional[float] = None) -> None:
        self.marks[name][key] = time.perf_counter() if when is None else when

    # -- probes ---------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _span_probe(self, fn, name, op_of=None, after=None):
        recorder = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if after is None:
                return recorder.call(name, fn, args, kwargs, op_of)
            result = recorder.call(name, fn, args, kwargs, op_of)
            after(args, result)
            return result

        return probe

    def _count_probe(self, fn, name):
        recorder = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            recorder.count(name)
            return fn(*args, **kwargs)

        return probe

    def install(self) -> None:
        """Wrap every layer boundary; :meth:`uninstall` restores them."""
        for owner, attribute, name in SPAN_PROBES:
            self._patch(owner, attribute, self._span_probe(owner.__dict__[attribute], name))
        for owner, attribute, name in COUNT_PROBES:
            self._patch(owner, attribute, self._count_probe(owner.__dict__[attribute], name))
        self._patch(Simulator, "run", self._sim_run_probe(Simulator.run))
        self._patch(
            BatchBuilder, "build_one", self._build_one_probe(BatchBuilder.build_one)
        )
        self._install_service_probes()

    def _sim_run_probe(self, fn):
        recorder = self

        @functools.wraps(fn)
        def probe(sim, *args, **kwargs):
            # Events popped by this run: queued during it, plus those
            # already on the heap, minus those left on it.
            seq, pending = sim._seq, len(sim._heap)
            try:
                return recorder.call("sim.run", fn, (sim,) + args, kwargs)
            finally:
                recorder.count(
                    "sim.events", sim._seq - seq + pending - len(sim._heap)
                )

        return probe

    def _build_one_probe(self, fn):
        recorder = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            start = time.perf_counter()
            outcome = recorder.call("flow.build_one", fn, args, kwargs)
            kind, kinds = ("hit", "hits") if outcome.cached else ("miss", "misses")
            recorder.count(f"flow.build_one_{kinds}")
            recorder.count(f"flow.build_one_{kind}_s", time.perf_counter() - start)
            return outcome

        return probe

    def _install_service_probes(self) -> None:
        recorder = self

        def popped(args, job_id):
            if job_id is not None:
                recorder.mark("popped", job_id)

        def saved(args, _):
            record = args[1]
            if record.state.terminal:
                recorder.mark("terminal_saved", record.job_id)

        probes = [
            (ServiceClient, "submit", "service.http_submit",
             lambda a, r: r.get("job_id") if r else None, None),
            (ServiceClient, "status", "service.poll", lambda a, r: a[1], None),
            (Supervisor, "submit", "service.admit",
             lambda a, r: getattr(r, "job_id", None), None),
            (JobQueue, "pop", "service.queue_pop", lambda a, r: r, popped),
            (JobStore, "save", "service.store_save",
             lambda a, r: a[1].job_id, saved),
        ]
        for owner, attribute, name, op_of, after in probes:
            fn = owner.__dict__[attribute]
            self._patch(owner, attribute, self._span_probe(fn, name, op_of, after))

        enqueue = JobQueue.submit

        @functools.wraps(enqueue)
        def enqueued(queue, record, *args, **kwargs):
            # Marked before the call: a worker may pop the job before
            # the enqueue returns.
            recorder.mark("enqueued", record.job_id)
            return enqueue(queue, record, *args, **kwargs)

        self._patch(JobQueue, "submit", enqueued)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- reduction ------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float], float]:
        """(in-op self seconds by span name, concurrent self seconds by
        span name, total op wall seconds)."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4]:
                child_time[span[4]] += span[3] - span[2]
        in_op: Dict[int, bool] = {}
        by_id = {span[0]: span for span in self.spans}

        def under_op(span) -> bool:
            span_id = span[0]
            if span_id not in in_op:
                if span[1] == ROOT:
                    in_op[span_id] = True
                elif not span[4] or span[4] not in by_id:
                    in_op[span_id] = False
                else:
                    in_op[span_id] = under_op(by_id[span[4]])
            return in_op[span_id]

        op_self: Dict[str, float] = defaultdict(float)
        concurrent: Dict[str, float] = defaultdict(float)
        wall = 0.0
        for span in self.spans:
            own = span[3] - span[2] - child_time.get(span[0], 0.0)
            if under_op(span):
                op_self[span[1]] += own
            else:
                concurrent[span[1]] += own
            if span[1] == ROOT:
                wall += span[3] - span[2]
        return dict(op_self), dict(concurrent), wall

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, inclusive seconds)."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            entry = totals[span[1]]
            entry[0] += 1
            entry[1] += span[3] - span[2]
        return {name: (int(n), s) for name, (n, s) in totals.items()}

    def per_job(self, name: str) -> Dict[str, int]:
        """Spans called ``name`` per op/job id."""
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span[1] == name and span[5] is not None:
                counts[span[5]] += 1
        return counts

    def lag(self, start_mark: str, end_mark: str) -> List[float]:
        """Seconds from ``start_mark`` to ``end_mark``, per id with both."""
        starts, ends = self.marks.get(start_mark, {}), self.marks.get(end_mark, {})
        return [ends[key] - starts[key] for key in starts if key in ends]

    def to_json(self) -> Dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "op", "thread"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "marks": self.marks,
        }


def layer_of(span_name: str) -> str:
    """``floorplan.plan`` -> ``floorplan``; the op root is the harness."""
    return "bench" if span_name == ROOT else span_name.split(".", 1)[0]
