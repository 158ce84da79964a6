"""The four workloads: set-up, one operation, output checks.

A workload object is built once per set-up. ``setup()`` prepares
everything an operation needs (generated inputs, reference outputs, a
daemon); ``next_op()`` hands out the next operation of the seeded
stream (thread-safe); ``run(op, client)`` performs it, raises on any
failure and returns its raw result. The runner times only ``run``;
``check(op, result)`` then runs outside the timed window and compares
the result with the committed digest of its key (``golden.json``) and
with the run's own reference. A result that differs is appended to
``mismatches`` instead of raising, so a wrong answer is reported as
incorrect rather than as a failed attempt. ``extra()`` returns the
workload's own figures (modelled outputs, per-kind latencies) for the
report, and ``close()`` releases what ``setup()`` started.

``load()``, ``all_keys()``, ``fixed_keys()``, ``golden_key(key)`` and
``reference(key)`` describe the outputs for ``perfbench/golden.py``:
``reference`` computes a key's checked output in-process, uninstrumented.
"""

from __future__ import annotations

import gc
import inspect
import json
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import gen
from perfbench.golden import Golden, digest

from repro import api
from repro.core.designs import paper_designs
from repro.core.strategy import ImplementationStrategy
from repro.flow.options import BuildOptions
from repro.obs.context import RequestIdFactory
from repro.obs.events import EventBus
from repro.obs.instrumentation import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.tracer import Tracer
from repro.obs.tsdb import TelemetryStore
from repro.runtime.faults import (
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)
from repro.service.client import ServiceClient
from repro.service.daemon import BuildService, ServiceConfig
from repro.soc.esp_parser import parse_esp_config
from repro.vivado.faults import CadFaultModel
from repro.vivado.runtime_model import JobKind

#: Bound on one service job's wait; a job not terminal by then counts
#: as failed (a hung daemon must not hang the benchmark).
SERVICE_WAIT_S = 10.0
#: Smallest block the window's timings are computed over (a block's
#: p90 then has at least ten ops above it).
MIN_BLOCK_OPS = 100


class JobFailed(Exception):
    """A service job ended in a terminal state other than ``succeeded``."""


def _normalized(document: Dict) -> Dict:
    """The JSON round trip a service result goes through."""
    return json.loads(json.dumps(document))


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def series_count(registry: MetricsRegistry) -> int:
    """Series in ``registry``, read past any probe on ``snapshot`` so the
    harness's own call is not charged to the ``obs`` layer."""
    return len(inspect.unwrap(MetricsRegistry.snapshot)(registry))


class Workload:
    """Shared plumbing: the op stream, its lock, the output checks."""

    name = ""
    clients = 1
    #: Ops are host computation, so their time follows the host's
    #: speed and the runner scales it to the reference host (one client
    #: only: a probe would slow another client's op in flight).
    host_bound = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.inputs = gen.inputs_for(self.name, seed)
        self.golden = Golden(seed)
        self.mismatches: List[str] = []
        #: Ops whose output had a committed digest to compare with.
        self.golden_checked = 0
        #: Set by the runner to a live span recorder in the traced phase.
        self.recorder = None
        self._lock = threading.Lock()
        self._stream = None

    @property
    def block_ops(self) -> int:
        """Whole passes over the keys making at least ``MIN_BLOCK_OPS``
        ops, so every block of the window runs the same multiset of ops."""
        keys = len(self.inputs["keys"])
        return keys * -(-MIN_BLOCK_OPS // keys)

    def load(self) -> None:
        """Build the configs the keys name (no references, no daemon)."""
        designs = paper_designs()
        self.configs = {soc: designs[soc] for soc in gen.DEPLOY_SOCS}

    def all_keys(self) -> List[Dict]:
        return list(self.inputs["keys"])

    def key(self, op) -> Dict:
        return self.inputs["keys"][op]

    def setup(self) -> None:
        self.load()
        self.start_phase()

    def start_phase(self) -> None:
        """Restart the op stream and reset the per-phase figures.

        References are kept, so the traced phase is checked against
        the untraced one and both run the same op sequence.
        """
        self._stream = gen.key_stream(self.seed, self.name, len(self.inputs["keys"]))

    def next_op(self):
        with self._lock:
            return next(self._stream)

    def done(self, op) -> None:
        """Called when ``op`` has ended, before it is checked."""

    def _compare(self, key: Dict, output, label: str, reference=None) -> None:
        """Check ``output`` against the committed digest of ``key`` and,
        when given, against the run's own ``reference``."""
        expected = self.golden.expected(self.golden_key(key))
        if expected is not None:
            with self._lock:
                self.golden_checked += 1
            if digest(output) != expected:
                self.mismatches.append(
                    f"{self.name}: {label} differs from its committed reference"
                )
        if reference is not None and reference != output:
            self.mismatches.append(f"{self.name}: {label} differs from its reference")

    def _replay(self, references: Dict, op, output, label: str) -> None:
        """First result per op is the run's reference; later ones must
        match it (and every one must match the committed digest)."""
        with self._lock:
            reference = references.setdefault(op, output)
        self._compare(self.key(op), output, label, reference)

    def extra(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def _design_config(design: Dict, designs):
    if design["esp_config"] is None:
        return designs[design["name"]]
    return parse_esp_config(design["esp_config"])


def synthesis_faults(spec: Dict, partitions: int) -> Dict[int, int]:
    """Partition index -> injected synthesis failures: 3 (the retry
    budget, so it goes dark) on the ``dark`` one, 1-2 on each other one
    a retry offset lands on. The build always keeps a partition."""
    dark = spec["dark"] % partitions
    counts = {dark: 3}
    for offset, count in spec["retry"]:
        counts.setdefault((dark + offset) % partitions, count)
    return counts


def _build_key(design: str, paper: bool, strategy, faults) -> str:
    """Golden key of a build; ``build:`` keys do not depend on the seed."""
    if faults is not None:
        return f"faults:{design}:{faults['seed']}"
    return f"{'build' if paper else 'gen'}:{design}:{strategy or 'auto'}"


class FlowSweep(Workload):
    """One uncached in-process ``repro.api.build`` per operation."""

    name = "flow_sweep"

    def load(self) -> None:
        designs = paper_designs()
        self.configs = {
            d["name"]: _design_config(d, designs) for d in self.inputs["designs"]
        }

    def setup(self) -> None:
        super().setup()
        self.first: Dict[int, Dict] = {}
        self.minutes: Dict[int, float] = {}

    def start_phase(self) -> None:
        super().start_phase()
        self.builds = 0
        self.retries = 0
        self.degraded = 0

    def fixed_keys(self) -> List[Dict]:
        return [
            {"design": design, "strategy": strategy, "faults": None}
            for design in gen.PAPER_DESIGNS
            for strategy in (None,) + gen.STRATEGIES
        ]

    def golden_key(self, key: Dict) -> str:
        paper = key["design"] in gen.PAPER_DESIGNS
        return _build_key(key["design"], paper, key["strategy"], key["faults"])

    def _options(self, key: Dict, config) -> Optional[BuildOptions]:
        spec = key["faults"]
        if spec is None:
            return None
        model = CadFaultModel(
            seed=spec["seed"], rates={JobKind.CONTEXT_PAR: spec["context_par_rate"]}
        )
        rps = [tile.name for tile in config.reconfigurable_tiles]
        for index, count in synthesis_faults(spec, len(rps)).items():
            model.inject_fault("synthesis", f"synth_{rps[index]}", count)
        return BuildOptions(faults=model)

    def _build(self, key: Dict):
        config = self.configs[key["design"]]
        strategy = ImplementationStrategy(key["strategy"]) if key["strategy"] else None
        return api.build(
            config, strategy=strategy, options=self._options(key, config)
        ).flow

    def reference(self, key: Dict) -> Dict:
        return self._build(key).to_summary_dict()

    def run(self, op: int, client: int):
        return self._build(self.key(op))

    def check(self, op: int, flow) -> None:
        self._replay(self.first, op, flow.to_summary_dict(), f"build of key {op}")
        with self._lock:
            self.minutes[op] = flow.total_minutes
            self.builds += 1
            self.retries += flow.total_retries
            self.degraded += flow.degraded

    def extra(self) -> Dict[str, float]:
        return {
            "modelled_cad_min": _mean(self.minutes.values()),
            "vivado.retries": self.retries / max(self.builds, 1),
            "flow.degraded_ratio": self.degraded / max(self.builds, 1),
        }


class WamiDeploy(Workload):
    """One ``repro.api.deploy`` of a prebuilt soc_x/y/z per operation."""

    name = "wami_deploy"

    def load(self) -> None:
        super().load()
        self.flows = {soc: api.build(cfg).flow for soc, cfg in self.configs.items()}

    def setup(self) -> None:
        super().setup()
        self.first: Dict[int, Dict] = {}
        self.ms_per_frame: Dict[int, float] = {}

    def start_phase(self) -> None:
        super().start_phase()
        self.frames = 0
        self.reconfigs = 0
        self.deploys = 0
        self.failed_attempts = 0
        self.fallbacks = 0

    def fixed_keys(self) -> List[Dict]:
        return [
            {"soc": soc, "frames": frames, "variant": variant, "faults": None}
            for soc in gen.DEPLOY_SOCS
            for variant in gen.DEPLOY_VARIANTS
            if variant != "runtime_faults"
            for frames in sorted(set(gen.DEPLOY_FRAMES))
        ]

    def golden_key(self, key: Dict) -> str:
        if key["faults"] is not None:
            spec = key["faults"]
            return f"rtfaults:{key['soc']}:{key['frames']}:{spec['seed']}:{spec['crc']}"
        return f"deploy:{key['soc']}:{key['frames']}:{key['variant']}"

    def _deploy(self, key: Dict):
        runtime_options = None
        spec = key["faults"]
        if spec is not None:
            runtime_options = RuntimeFaultOptions(
                faults=RuntimeFaultModel(
                    seed=spec["seed"],
                    rates={
                        RuntimeFaultKind.BITSTREAM_CORRUPTION: spec["crc"],
                        RuntimeFaultKind.STUCK_TRANSFER: spec["stuck"],
                        RuntimeFaultKind.KERNEL_HANG: spec["hang"],
                    },
                )
            )
        return api.deploy(
            self.configs[key["soc"]],
            frames=key["frames"],
            flow_result=self.flows[key["soc"]],
            power_gating=key["variant"] == "power_gating",
            pipelined=key["variant"] == "pipelined",
            runtime_options=runtime_options,
        )

    def reference(self, key: Dict) -> Dict:
        return self._deploy(key).to_summary_dict()

    def run(self, op: int, client: int):
        return self._deploy(self.key(op))

    def check(self, op: int, report) -> None:
        self._replay(self.first, op, report.to_summary_dict(), f"deploy of key {op}")
        stats = report.runtime_stats
        with self._lock:
            self.ms_per_frame[op] = report.seconds_per_frame * 1e3
            self.frames += self.key(op)["frames"]
            self.reconfigs += report.reconfigurations
            self.deploys += 1
            self.failed_attempts += stats.failed_attempts
            self.fallbacks += stats.fallbacks

    def extra(self) -> Dict[str, float]:
        return {
            "modelled_ms_per_frame": _mean(self.ms_per_frame.values()),
            "runtime.reconfigs_per_frame": self.reconfigs / max(self.frames, 1),
            "runtime.failed_attempts": self.failed_attempts / max(self.deploys, 1),
            "runtime.fallbacks": self.fallbacks / max(self.deploys, 1),
        }


class TracedFig4(Workload):
    """``repro.api.build`` then ``repro.api.monitor`` under live telemetry."""

    name = "traced_fig4"

    def setup(self) -> None:
        super().setup()
        # Reference outputs come from the uninstrumented verbs.
        self.expected = {
            index: self.reference(key) for index, key in enumerate(self.all_keys())
        }

    def start_phase(self) -> None:
        super().start_phase()
        self.series: List[int] = []
        self.cad_minutes: List[float] = []
        self.frames = 0
        self.reconfigs = 0

    def fixed_keys(self) -> List[Dict]:
        return self.all_keys()

    def golden_key(self, key: Dict) -> str:
        return f"monitor:{key['soc']}:{key['frames']}"

    @staticmethod
    def _outputs(flow, report, health) -> Dict:
        return {
            "build": flow.to_summary_dict(),
            "deploy": report.to_summary_dict(),
            "verdict": health.verdict.value,
        }

    def reference(self, key: Dict) -> Dict:
        config = self.configs[key["soc"]]
        flow = api.build(config).flow
        report, health, _ = api.monitor(config, frames=key["frames"], flow_result=flow)
        return self._outputs(flow, report, health)

    def run(self, op: int, client: int):
        key = self.key(op)
        config = self.configs[key["soc"]]
        inst = Instrumentation(
            tracer=Tracer(),
            metrics=MetricsRegistry(),
            events=EventBus(),
            profiler=Profiler(),
        )
        platform = api.platform(
            instrumentation=inst,
            request_ids=RequestIdFactory(seed=self.inputs["request_id_seed"]),
            telemetry=TelemetryStore(),
        )
        flow = api.build(config, platform=platform).flow
        report, health, _ = api.monitor(
            config,
            frames=key["frames"],
            platform=platform,
            flow_result=flow,
            metrics=inst.metrics,
            tracer=inst.tracer,
            profiler=inst.profiler,
            bus=inst.events,
        )
        return flow, report, health, inst.metrics

    def check(self, op: int, result) -> None:
        flow, report, health, registry = result
        self._compare(
            self.key(op),
            self._outputs(flow, report, health),
            f"key {op} (instrumented)",
            self.expected[op],
        )
        with self._lock:
            self.series.append(series_count(registry))
            self.cad_minutes.append(flow.total_minutes)
            self.frames += self.key(op)["frames"]
            self.reconfigs += report.reconfigurations

    def extra(self) -> Dict[str, float]:
        return {
            "obs.metric_series": _mean(self.series),
            "modelled_cad_min": _mean(self.cad_minutes),
            "runtime.reconfigs_per_frame": self.reconfigs / max(self.frames, 1),
        }


class ServiceMixed(Workload):
    """One job through an in-process ``BuildService``, submit to terminal.

    The window runs in rounds. Each round starts a fresh daemon (fresh
    state dir, the flow cache's disk tier copied from a template warmed
    in set-up) and runs the same seeded list of jobs on it; the next
    round starts once every job of this one has ended. A round is one
    timing block, so every block sees the same job mix and the same
    per-daemon history: the metric-series growth and the worker crashes
    act alike in each block and show in the per-layer metrics. Starting
    and stopping daemons happens between ops, outside every op's time.
    """

    name = "service_mixed"
    clients = 2
    #: A job's time is mostly the client's 50 ms poll sleeps, which do
    #: not follow the host's speed; its timings are reported unscaled.
    host_bound = False

    @property
    def block_ops(self) -> int:
        return len(self.round)

    def load(self) -> None:
        self.configs = paper_designs()
        self.cold_configs = [parse_esp_config(c["esp_config"]) for c in self.inputs["cold"]]

    def all_keys(self) -> List[Dict]:
        return gen.service_round(self.seed, self.inputs)

    def key(self, op) -> Dict:
        return op

    def fixed_keys(self) -> List[Dict]:
        return [{"kind": "warm", "design": name} for name in self.inputs["warm"]] + [
            {"kind": "deploy", **spec} for spec in self.inputs["deploys"]
        ]

    def golden_key(self, key: Dict) -> str:
        if key["kind"] == "warm":
            return _build_key(key["design"], True, None, None)
        if key["kind"] == "deploy":
            return f"deploy:{key['soc']}:{key['frames']}:plain"
        return f"cold:{key['index']}"

    def reference(self, key: Dict) -> Dict:
        if key["kind"] == "deploy":
            document = api.deploy(self.configs[key["soc"]], frames=key["frames"])
            return _normalized(document.to_summary_dict())
        if key["kind"] == "warm":
            config = self.configs[key["design"]]
        else:
            config = self.cold_configs[key["index"]]
        return _normalized(api.build(config).flow.to_summary_dict())

    @staticmethod
    def _reference_id(key: Dict) -> str:
        return json.dumps(key, sort_keys=True)

    def setup(self) -> None:
        self.load()
        self.round = self.all_keys()
        config_dir = self.workdir / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        self.cold_paths = []
        for cold in self.inputs["cold"]:
            path = config_dir / f"{cold['name']}.esp_config"
            path.write_text(cold["esp_config"])
            self.cold_paths.append(str(path))
        # In-process references for every job of the round.
        self.expected = {}
        for key in self.round:
            ident = self._reference_id(key)
            if ident not in self.expected:
                self.expected[ident] = self.reference(key)
        # The template daemon warms the flow cache's disk tier: one
        # build per paper design. Each round starts from a copy of it.
        self.template = self.workdir / "template"
        template = self._start(self.template)
        try:
            client = ServiceClient(port=template.port, timeout=SERVICE_WAIT_S)
            for name in self.inputs["warm"]:
                record = client.wait(client.submit(name)["job_id"], timeout=SERVICE_WAIT_S)
                if record["state"] != "succeeded":
                    raise JobFailed(f"warm-up build of {name} ended {record['state']}")
        finally:
            template.stop(timeout=SERVICE_WAIT_S)
        self.service = None
        self.rounds = 0
        self._round_cond = threading.Condition()
        self.start_phase()

    def _start(self, state_dir: Path) -> BuildService:
        return BuildService(
            ServiceConfig(
                state_dir=state_dir, port=0, workers=2, jobs=1, seed=self.seed
            )
        ).start()

    def start_phase(self) -> None:
        self._stop_daemon()  # its series count belongs to the last phase
        self.latency_ms: Dict[str, List[float]] = {"warm": [], "cold": [], "deploy": []}
        self.submit_ms: List[float] = []
        self.series: List[int] = []
        with self._round_cond:
            self._handed = len(self.round)  # the next op starts a round
            self._inflight = 0

    def _new_round(self) -> None:
        """Stop the last round's daemon and start a fresh one."""
        self._stop_daemon()
        self.rounds += 1
        state_dir = self.workdir / f"round-{self.rounds}"
        shutil.copytree(self.template / "cache", state_dir / "cache")
        self.service = self._start(state_dir)
        self._clients = [
            ServiceClient(port=self.service.port, timeout=SERVICE_WAIT_S)
            for _ in range(self.clients)
        ]
        self._stream = iter(self.round)
        self._handed = 0

    def _stop_daemon(self) -> None:
        service, self.service = self.service, None
        if service is not None:
            self.series.append(series_count(service.supervisor.registry))
            service.stop(timeout=SERVICE_WAIT_S)
            shutil.rmtree(service.config.state_dir, ignore_errors=True)
            # Free the stopped daemon's reference cycles now, so the
            # next round's peak memory does not stack on its leftovers.
            del service
            gc.collect()

    def next_op(self):
        with self._round_cond:
            while self._handed >= len(self.round):
                if self._inflight == 0:
                    self._new_round()
                else:
                    self._round_cond.wait()
            self._handed += 1
            self._inflight += 1
            return next(self._stream)

    def done(self, op) -> None:
        with self._round_cond:
            self._inflight -= 1
            self._round_cond.notify_all()

    def run(self, op: Dict, client_index: int):
        client = self._clients[client_index]
        tenant = f"client{client_index}"
        started = time.perf_counter()
        if op["kind"] == "warm":
            record = client.submit(op["design"], tenant=tenant)
        elif op["kind"] == "cold":
            record = client.submit(self.cold_paths[op["index"]], tenant=tenant)
        else:
            record = client.submit(
                op["soc"], kind="deploy", frames=op["frames"], tenant=tenant
            )
        submitted = time.perf_counter()
        final = client.wait(record["job_id"], timeout=SERVICE_WAIT_S)
        seen = time.perf_counter()
        if final["state"] != "succeeded":
            raise JobFailed(f"job {record['job_id']} ended {final['state']}")
        return final, started, submitted, seen

    def check(self, op: Dict, result) -> None:
        final, started, submitted, seen = result
        if self.recorder is not None:
            self.recorder.mark("seen", final["job_id"], seen)
        label = f"{op['kind']} job {self.golden_key(op)}"
        self._compare(op, final["result"], label, self.expected[self._reference_id(op)])
        with self._lock:
            self.submit_ms.append((submitted - started) * 1e3)
            self.latency_ms[op["kind"]].append((seen - started) * 1e3)

    def extra(self) -> Dict[str, float]:
        def p50(values):
            return statistics.median(values) if values else 0.0

        return {
            "submit_ms_p50": p50(self.submit_ms),
            "service.warm_job_ms_p50": p50(self.latency_ms["warm"]),
            "service.cold_job_ms_p50": p50(self.latency_ms["cold"]),
            "service.deploy_job_ms_p50": p50(self.latency_ms["deploy"]),
            # Series in each round's daemon registry when it stopped.
            "obs.metric_series": p50(self.series),
        }

    def close(self) -> None:
        if getattr(self, "_round_cond", None) is not None:
            self._stop_daemon()
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (FlowSweep, WamiDeploy, ServiceMixed, TracedFig4)
}
