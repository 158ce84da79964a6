#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flow_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each run sets the workload up several times (``setup_s`` is the import
time plus the median set-up), runs untimed warm-up ops, then runs a
closed loop of operations for ``--seconds``. On the workloads bound by
host speed, a fixed probe timed after each op gives the host's speed at
that moment, and the op timings are scaled to the reference host speed
(see ``host_probe``). With ``--trace 0`` it reports the end-to-end
metrics, untraced; with ``--trace 1`` it runs
half the time untraced and half with every layer probe installed,
reports the per-layer metrics and the tracing overhead, and writes the
spans to ``.perfbench/spans/<workload>-<seed>.json``. Human-readable
lines come first; the last line of standard output is one JSON object.
The exit code is 1 when an output check failed or an op failed, and 2
when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
#: Untimed ops before the window, so lazy allocation and first-use
#: costs inside the interpreter and numpy are paid before measuring.
WARMUP_S = 2.0
#: Loop iterations of one ``host_probe``, about 0.45 ms of host time.
PROBE_ITERATIONS = 900
#: Host seconds of one ``host_probe`` on the reference host: about its
#: median between ops on the 2-vCPU x86-64 container this benchmark was
#: written on, where that median ranged from 0.5 to 0.9 ms from run to
#: run as other tenants' load came and went.
REFERENCE_PROBE_S = 750e-6
#: How op time follows probe time: ops slow by the probe's slowdown to
#: this power. Fitted on that host (log op time against log probe
#: time, blocks of 90 s runs): 0.59 on ``traced_fig4``, 0.56 on
#: ``flow_sweep``, both with correlation above 0.9. The tight probe
#: loop feels a busy neighbour more than the program's ops do.
HOST_ELASTICITY = 0.6
#: Ops around an op (in start order) whose probes give its host scale:
#: the host's speed changes within a second, faster than a block.
SCALE_WINDOW = 25


def host_probe() -> float:
    """Host seconds of a fixed pure-Python work unit (dict, float, list
    and call work) that shares no code with the program under test.

    On a shared host the time of the same work swings by a third or
    more over tens of seconds, longer than a run; medians inside a run
    cannot take that out. Timed right after each op, outside the op's
    window, the probe says how fast the host was then. Scaling by it
    (``host_scale``) takes most of a host slowdown out of the timings,
    while a change to the program moves them in full.
    """
    begin = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        table[i & 63] = table.get(i & 63, 0) + i
        total += (i * 1.000001) ** 0.5
        window = [i, i + 1, i + 2]
        total += len(window) + max(window)
    return time.perf_counter() - begin


def chunk(items, size: int):
    """Consecutive blocks of ``size`` items; a partial last block is
    dropped unless it is the only one."""
    blocks = [items[i:i + size] for i in range(0, len(items) - size + 1, size)]
    return blocks or [items]


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Phase:
    """One closed-loop measurement window."""

    def __init__(self) -> None:
        #: (begin, end, failed, probe_s) per op, in completion order;
        #: probe_s is the ``host_probe`` time after the op, or None
        self.ops = []
        self.failed = 0
        self.errors = {}
        self.wall_s = 0.0
        self._lock = threading.Lock()

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def latencies_ms(self):
        return [(end - begin) * 1e3 for begin, end, *_ in self.ops]

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s if self.wall_s else 0.0

    def record(self, begin: float, end: float, error, probe_s=None) -> None:
        with self._lock:
            self.ops.append((begin, end, error is not None, probe_s))
            if error is not None:
                self.failed += 1
                kind = type(error).__name__
                self.errors[kind] = self.errors.get(kind, 0) + 1

    def blocks(self, size: int):
        """Consecutive blocks of ``size`` ops in start order (``chunk``)."""
        return chunk(sorted(self.ops), size)


def measure(workload, seconds: float, recorder=None) -> Phase:
    """Closed loop: each client starts its next op when the last ends.

    On a host-bound workload each op is followed by a ``host_probe``,
    outside its timed window."""
    phase = Phase()
    started = time.perf_counter()
    deadline = started + seconds

    def client(index: int) -> None:
        while time.perf_counter() < deadline:
            op = workload.next_op()
            begin = time.perf_counter()
            error = result = None
            try:
                if recorder is None:
                    result = workload.run(op, index)
                else:
                    result = recorder.op(
                        f"{index}:{phase.attempted}", workload.run, op, index
                    )
            except Exception as caught:  # every failure counts against the run
                error = caught
            end = time.perf_counter()
            workload.done(op)
            probe_s = host_probe() if workload.host_bound else None
            phase.record(begin, end, error, probe_s)
            if error is None:
                workload.check(op, result)

    if workload.clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
            for i in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.wall_s = time.perf_counter() - started
    return phase


def host_scale(probes) -> float:
    """Factor from this host's time to the reference host's, from the
    probes timed beside the ops: 1 without probes (a workload not bound
    by host speed)."""
    probes = [p for p in probes if p is not None]
    if not probes:
        return 1.0
    return (REFERENCE_PROBE_S / statistics.median(probes)) ** HOST_ELASTICITY


def op_scales(ops) -> list:
    """The ``host_scale`` of each op of ``ops`` (in start order), from the
    probes of the ``SCALE_WINDOW`` ops around it."""
    probes = [probe for *_, probe in ops]
    half = SCALE_WINDOW // 2
    return [
        host_scale(probes[max(0, i - half):i + half + 1]) for i in range(len(ops))
    ]


def end_to_end(phase: Phase, setup_s: float, size: int, clients: int) -> dict:
    """Each timing is the median over blocks of that block's figure, so
    a host slowdown shorter than half the window does not move it.

    Each op's time is scaled by its ``op_scales`` factor. A block's
    rate is its successful ops over its op time per client: the
    harness's checks and probes between ops, and the daemon restarts
    between service rounds, do not count."""
    ops = sorted(phase.ops)
    rates, p50s, p90s = [], [], []
    for block in chunk(list(zip(ops, op_scales(ops))), size):
        latencies = [(end - begin) * 1e3 * scale for (begin, end, *_), scale in block]
        busy_s = sum(latencies) / 1e3 / clients
        succeeded = sum(1 for (_, _, failed, _), _ in block if not failed)
        rates.append(succeeded / busy_s if busy_s else 0.0)
        p50s.append(quantile(latencies, 0.5))
        p90s.append(quantile(latencies, 0.9))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (statistics.median(p50s), "ms"),
        "op_ms_p90": (statistics.median(p90s), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(workload, extra, recorder, untraced: Phase, traced: Phase, crashes) -> dict:
    """The per-layer metrics of the traced phase (see README.md)."""
    ops = max(traced.attempted, 1)
    totals = recorder.totals()
    op_self, concurrent, wall = recorder.self_times()

    def ms_per_op(*names) -> float:
        return sum(totals.get(n, (0, 0.0))[1] for n in names) * 1e3 / ops

    def calls(name) -> int:
        return totals.get(name, (0, 0.0))[0]

    counts = recorder.counts
    events = counts.get("sim.events", 0.0)
    frames = getattr(workload, "frames", 0) or 0
    floorplan_self = sum(
        s for name, s in op_self.items() if name.startswith("floorplan.")
    ) + sum(s for name, s in concurrent.items() if name.startswith("floorplan."))
    hits = counts.get("flow.build_one_hits", 0.0)
    misses = counts.get("flow.build_one_misses", 0.0)
    metrics = {
        "floorplan.plan_ms": (ms_per_op("floorplan.plan"), "ms"),
        "floorplan.validate_ms": (ms_per_op("floorplan.validate"), "ms"),
        "floorplan.share": (floorplan_self / wall if wall else 0.0, "ratio"),
        "soc.partition_ms": (ms_per_op("soc.partition"), "ms"),
        "flow.blackbox_ms": (ms_per_op("flow.blackbox"), "ms"),
        "core.strategy_ms": (ms_per_op("core.strategy"), "ms"),
        "flow.plan_impl_ms": (ms_per_op("flow.plan_impl"), "ms"),
        "vivado.synth_ms": (ms_per_op("vivado.synth"), "ms"),
        "vivado.par_ms": (ms_per_op("vivado.par"), "ms"),
        "vivado.bitstream_ms": (ms_per_op("vivado.bitstream"), "ms"),
        "vivado.schedule_ms": (ms_per_op("vivado.schedule"), "ms"),
        "vivado.retries": (extra.get("vivado.retries", 0.0), "count"),
        "flow.degraded_ratio": (extra.get("flow.degraded_ratio", 0.0), "ratio"),
        "sim.run_ms": (ms_per_op("sim.run"), "ms"),
        "sim.events_per_frame": (events / frames if frames else 0.0, "count"),
        "sim.us_per_event": (
            op_self.get("sim.run", 0.0) * 1e6 / events if events else 0.0, "us"
        ),
        "runtime.reconfigs_per_frame": (
            extra.get("runtime.reconfigs_per_frame", 0.0), "count"
        ),
        "runtime.failed_attempts": (extra.get("runtime.failed_attempts", 0.0), "count"),
        "runtime.fallbacks": (extra.get("runtime.fallbacks", 0.0), "count"),
        "noc.transfer_calls": (calls("noc.transfer") / ops, "count"),
        "noc.transfer_ms": (ms_per_op("noc.transfer"), "ms"),
        "energy.measure_ms": (ms_per_op("energy.measure"), "ms"),
        "service.http_submit_ms": (ms_per_op("service.http_submit"), "ms"),
        "service.admit_ms": (ms_per_op("service.admit"), "ms"),
        "service.store_save_ms": (ms_per_op("service.store_save"), "ms"),
        "service.store_saves_per_job": (
            _mean_count(recorder.per_job("service.store_save")), "count"
        ),
        "service.queue_wait_ms": (
            _mean_ms(recorder.lag("enqueued", "popped")), "ms"
        ),
        "service.polls_per_job": (
            _mean_count(recorder.per_job("service.poll")), "count"
        ),
        "service.notify_lag_ms": (
            _mean_ms(recorder.lag("terminal_saved", "seen")), "ms"
        ),
        "core.resolve_ms": (ms_per_op("core.resolve"), "ms"),
        "flow.cache_get_ms": (ms_per_op("flow.cache_get"), "ms"),
        "flow.cache_put_ms": (ms_per_op("flow.cache_put"), "ms"),
        "flow.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "flow.build_one_hit_ms": (
            counts.get("flow.build_one_hit_s", 0.0) * 1e3 / hits if hits else 0.0, "ms"
        ),
        "flow.build_one_miss_ms": (
            counts.get("flow.build_one_miss_s", 0.0) * 1e3 / misses if misses else 0.0,
            "ms",
        ),
        "service.warm_job_ms_p50": (extra.get("service.warm_job_ms_p50", 0.0), "ms"),
        "service.cold_job_ms_p50": (extra.get("service.cold_job_ms_p50", 0.0), "ms"),
        "service.deploy_job_ms_p50": (extra.get("service.deploy_job_ms_p50", 0.0), "ms"),
        "service.worker_crashes": (float(crashes), "count"),
        "obs.metric_series": (extra.get("obs.metric_series", 0.0), "count"),
        "obs.telemetry_record_ms": (ms_per_op("obs.telemetry_record"), "ms"),
        "obs.tracer_calls": (counts.get("obs.tracer_calls", 0.0) / ops, "count"),
        "obs.profiler_calls": (counts.get("obs.profiler_calls", 0.0) / ops, "count"),
        "obs.bus_emits": (counts.get("obs.bus_emits", 0.0) / ops, "count"),
        "obs.health_report_ms": (ms_per_op("obs.health_report"), "ms"),
        "trace.overhead_ratio": (
            untraced.ops_per_s / traced.ops_per_s if traced.ops_per_s else 0.0, "ratio"
        ),
        "fail_ratio": (traced.failed / ops, "ratio"),
        "submit_ms_p50": (extra.get("submit_ms_p50", 0.0), "ms"),
        "modelled_cad_min": (extra.get("modelled_cad_min", 0.0), "min"),
        "modelled_ms_per_frame": (extra.get("modelled_ms_per_frame", 0.0), "ms"),
    }
    return metrics


def _mean_count(per_id: dict) -> float:
    return statistics.fmean(per_id.values()) if per_id else 0.0


def _mean_ms(seconds) -> float:
    return statistics.fmean(seconds) * 1e3 if seconds else 0.0


#: Layers of the self-time report: the ``src/repro`` packages the
#: probes cover, plus ``bench`` (op time outside every probe).
LAYERS = (
    "bench", "core", "soc", "flow", "floorplan", "vivado",
    "sim", "runtime", "noc", "energy", "service", "obs",
)


def self_time_report(recorder, traced: Phase) -> tuple:
    """Lines of the self-time table, and the per-layer share metrics."""
    from perfbench.spans import layer_of

    op_self, concurrent, wall = recorder.self_times()
    ops = max(traced.attempted, 1)
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in op_self.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + seconds
    lines = [f"self time per op, {ops} ops, {wall * 1e3 / ops:.3f} ms op wall:"]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        share = seconds / wall if wall else 0.0
        lines.append(f"  {layer:<10} {seconds * 1e3 / ops:10.4f} ms  {share:7.2%}")
    lines.append(
        f"  {'sum':<10} {sum(by_layer.values()) * 1e3 / ops:10.4f} ms"
        f"  (layers add up to the op wall time)"
    )
    if concurrent:
        lines.append("concurrent self time per op (daemon threads):")
        for name, seconds in sorted(concurrent.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<22} {seconds * 1e3 / ops:10.4f} ms")
    shares = {
        f"self_share.{layer}": (by_layer[layer] / wall if wall else 0.0, "ratio")
        for layer in LAYERS
    }
    return lines, shares


def run(args) -> int:
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import workloads
        from perfbench.spans import Recorder
    except ImportError as error:
        print(f"error: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    crashes = []
    previous_hook = threading.excepthook

    def count_crash(hook_args) -> None:
        crashes.append(hook_args.thread.name if hook_args.thread else "?")
        previous_hook(hook_args)

    threading.excepthook = count_crash
    base = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workload = None
    try:
        setups = []
        for attempt in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = workloads.WORKLOADS[args.workload](
                args.seed, base / f"setup-{attempt}"
            )
            begin = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begin)
        setup_s = import_s + statistics.median(setups)
        warmup = measure(workload, WARMUP_S)
        workload.start_phase()

        if not args.trace:
            phase = measure(workload, args.seconds)
            traced = None
        else:
            phase = measure(workload, args.seconds / 2)
            workload.start_phase()
            recorder = Recorder()
            workload.recorder = recorder
            recorder.install()
            try:
                traced = measure(workload, args.seconds / 2, recorder)
            finally:
                recorder.uninstall()
                workload.recorder = None
        extra = workload.extra()
        if traced is not None:
            metrics = per_layer(workload, extra, recorder, phase, traced, len(crashes))
            report_lines, shares = self_time_report(recorder, traced)
            metrics.update(shares)
            spans = ROOT / ".perfbench" / "spans" / f"{args.workload}-{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.write_text(json.dumps(recorder.to_json()))
    finally:
        if workload is not None:
            workload.close()
        threading.excepthook = previous_hook
        shutil.rmtree(base, ignore_errors=True)

    size = workload.block_ops
    e2e = end_to_end(phase, setup_s, size, workload.clients)
    if traced is None:
        metrics = dict(e2e)
    print(f"workload {args.workload}  seed {args.seed}  clients {workload.clients}")
    if workload.host_bound:
        speed = host_scale(probe for *_, probe in phase.ops)
        print(f"  host scale: {speed:.4f} (op timings below, not set-up, "
              f"are scaled to the reference host)")
    print(f"  warm-up:  {warmup.attempted} ops in {warmup.wall_s:.2f} s, "
          f"failed {warmup.failed} {warmup.errors or ''}")
    print(f"  untraced: {phase.attempted} ops in {phase.wall_s:.2f} s, "
          f"failed {phase.failed} {phase.errors or ''}")
    if traced is not None:
        print(f"  traced:   {traced.attempted} ops in {traced.wall_s:.2f} s, "
              f"failed {traced.failed} {traced.errors or ''}")
    print(f"  timings: median of {len(phase.blocks(size))} blocks of {size} ops; "
          f"whole window, unscaled: {phase.ops_per_s:.4f} ops/s, "
          f"p50 {quantile(phase.latencies_ms, 0.5):.4f} ms, "
          f"p90 {quantile(phase.latencies_ms, 0.9):.4f} ms")
    e2e["fail_ratio"] = (phase.failed / max(phase.attempted, 1), "ratio")
    for name in ("submit_ms_p50", "modelled_cad_min", "modelled_ms_per_frame"):
        if name in extra:
            e2e[name] = (extra[name], "min" if name.endswith("_min") else "ms")
    e2e["service.worker_crashes"] = (float(len(crashes)), "count")
    timed = sum(len(block) for block in phase.blocks(size))
    samples = {
        "setup_s": SETUP_REPEATS,
        "ops_per_s": timed,
        "op_ms_p50": timed,
        "op_ms_p90": timed,
        "submit_ms_p50": phase.attempted,
    }
    for name, (value, unit) in e2e.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<24} {value:14.4f} {unit}{count}")
    if args.trace:
        for line in report_lines:
            print(line)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:14.6f} {unit}")
    print(f"  outputs checked against committed digests: {workload.golden_checked}")
    for line in workload.mismatches[:20]:
        print(f"MISMATCH {line}")
    # Every phase's ops are attempted and checked; none may fail.
    phases = [warmup, phase] + ([traced] if traced is not None else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = not workload.mismatches and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
