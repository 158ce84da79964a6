"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gen, golden, run, workloads  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from repro.soc.esp_parser import parse_esp_config  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

REQUIRED_WORKLOADS = ("flow_sweep", "wami_deploy", "service_mixed", "traced_fig4")
REQUIRED_END_TO_END = (
    "setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "fail_ratio",
    "peak_rss_mb", "submit_ms_p50", "modelled_cad_min", "modelled_ms_per_frame",
)
REQUIRED_PER_LAYER = (
    "floorplan.plan_ms", "floorplan.validate_ms", "floorplan.share",
    "soc.partition_ms", "flow.blackbox_ms", "core.strategy_ms",
    "flow.plan_impl_ms", "vivado.synth_ms", "vivado.par_ms",
    "vivado.bitstream_ms", "vivado.schedule_ms", "vivado.retries",
    "flow.degraded_ratio", "sim.run_ms", "sim.events_per_frame",
    "sim.us_per_event", "runtime.reconfigs_per_frame",
    "runtime.failed_attempts", "runtime.fallbacks", "noc.transfer_calls",
    "noc.transfer_ms", "energy.measure_ms", "service.http_submit_ms",
    "service.admit_ms", "service.store_save_ms",
    "service.store_saves_per_job", "service.queue_wait_ms",
    "service.polls_per_job", "service.notify_lag_ms", "core.resolve_ms",
    "flow.cache_get_ms", "flow.cache_put_ms", "flow.cache_hit_ratio",
    "flow.build_one_hit_ms", "flow.build_one_miss_ms",
    "service.warm_job_ms_p50", "service.cold_job_ms_p50",
    "service.deploy_job_ms_p50", "service.worker_crashes",
    "obs.metric_series", "obs.telemetry_record_ms", "obs.tracer_calls",
    "obs.profiler_calls", "obs.bus_emits", "obs.health_report_ms",
    "trace.overhead_ratio",
)
#: End-to-end figures that BENCHMARK.json lists under ``per_layer``.
#: Its ``end_to_end`` metrics are reported by every workload and are
#: never 0; these are not.
REPORTED_PER_LAYER = {
    "fail_ratio": "0 on every healthy run",
    "submit_ms_p50": "exists on service_mixed only",
    "modelled_cad_min": "exists on the workloads that build only",
    "modelled_ms_per_frame": "exists on wami_deploy only",
}
#: Workloads the command runs but BENCHMARK.json does not list, and why.
DROPPED_WORKLOADS: dict = {}


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert gen.input_bytes(workload, 7) == gen.input_bytes(workload, 7)


@pytest.mark.parametrize("workload", ["flow_sweep", "wami_deploy", "service_mixed"])
def test_another_seed_gives_other_inputs(workload):
    assert gen.input_bytes(workload, 7) != gen.input_bytes(workload, 8)


def test_generated_socs_keep_board_and_partition_count():
    for seed in range(3):
        designs = gen.flow_sweep_inputs(seed)["designs"][len(gen.PAPER_DESIGNS):]
        for index, design in enumerate(designs):
            config = parse_esp_config(design["esp_config"])
            assert config.board == gen.BOARDS[index % len(gen.BOARDS)]
            assert len(config.reconfigurable_tiles) == 2 + index % 11


def test_board_capacities_match_the_device_models():
    from repro.fabric.parts import make_device

    for board, luts in gen.BOARD_LUTS.items():
        assert make_device(board).capacity().lut == luts


def test_cost_driving_multisets_do_not_depend_on_the_seed():
    def shape(seed):
        inputs = gen.wami_deploy_inputs(seed)
        return sorted((k["soc"], k["variant"], k["frames"]) for k in inputs["keys"])

    assert shape(1) == shape(2)
    flow = [gen.flow_sweep_inputs(seed)["keys"] for seed in (1, 2)]
    kinds = [
        [(k["strategy"] is None, k["faults"] is None) for k in keys] for keys in flow
    ]
    assert kinds[0] == kinds[1]


def test_service_round_uses_each_cold_config_once():
    inputs = gen.service_mixed_inputs(3)
    jobs = gen.service_round(3, inputs)
    cold = [job["index"] for job in jobs if job["kind"] == "cold"]
    assert cold == list(range(len(inputs["cold"])))
    for kind, count in gen.SERVICE_BLOCK.items():
        assert sum(job["kind"] == kind for job in jobs) == count * gen.SERVICE_ROUND_MIXES
    partitions = sorted(
        len(parse_esp_config(c["esp_config"]).reconfigurable_tiles) for c in inputs["cold"]
    )
    assert set(partitions) == set(range(2, 13))


def test_cad_fault_specs_leave_a_partition_building():
    for seed in range(50):
        for key in gen.flow_sweep_inputs(seed)["keys"]:
            if key["faults"] is None:
                continue
            for partitions in range(2, 13):
                counts = workloads.synthesis_faults(key["faults"], partitions)
                assert sorted(counts.values()).count(3) == 1
                assert max(counts) < partitions and len(counts) <= partitions


def test_digest_ignores_the_json_round_trip():
    document = {"b": (1, 2.5), "a": {"x": [None, True]}}
    assert golden.digest(document) == golden.digest(json.loads(json.dumps(document)))
    assert golden.digest(document) != golden.digest({**document, "b": (1, 2.6)})


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_committed_digests_cover_every_fixed_key(workload, tmp_path):
    bench = workloads.WORKLOADS[workload](0, tmp_path)
    bench.load()
    for key in bench.fixed_keys():
        assert bench.golden.expected(bench.golden_key(key)) is not None, key
    for seed in (golden.SEEDS[0], golden.SEEDS[-1]):
        seeded = workloads.WORKLOADS[workload](seed, tmp_path)
        assert all(
            seeded.golden.expected(seeded.golden_key(key)) is not None
            for key in seeded.all_keys()
        )


def test_a_wrong_output_is_a_mismatch(tmp_path):
    bench = workloads.WORKLOADS["traced_fig4"](0, tmp_path)
    bench.load()
    key = bench.all_keys()[0]
    output = bench.reference(key)
    bench._compare(key, output, "right")
    assert bench.mismatches == [] and bench.golden_checked == 1
    output["verdict"] = "bogus"
    bench._compare(key, output, "wrong")
    assert bench.mismatches == ["traced_fig4: wrong differs from its committed reference"]


def test_self_times_add_up_to_the_op_wall_time():
    recorder = Recorder()

    def leaf():
        time.sleep(0.002)

    def middle():
        recorder.call("floorplan.plan", leaf, (), {})
        time.sleep(0.001)

    def op():
        recorder.call("flow.build", middle, (), {})
        recorder.call("vivado.synth", leaf, (), {})

    for index in range(3):
        recorder.op(f"op-{index}", op)
    op_self, concurrent, wall = recorder.self_times()
    assert concurrent == {}
    assert sum(op_self.values()) == pytest.approx(wall, rel=1e-9)
    assert op_self["floorplan.plan"] >= 3 * 0.002
    parents = {span[0]: span[4] for span in recorder.spans}
    names = {span[0]: span[1] for span in recorder.spans}
    for span in recorder.spans:
        if span[1] == "floorplan.plan":
            assert names[parents[span[0]]] == "flow.build"
            assert span[5].startswith("op-")


def test_timings_are_scaled_by_the_probes_around_each_op():
    slow = 2 ** (1 / run.HOST_ELASTICITY)
    phase = run.Phase()
    for index in range(200):
        # 100 ops of 10 ms while the probe takes `slow` times its
        # reference time (ops then run at half speed), then 100 of 5 ms
        # at the reference speed. Most probes around each op come from
        # its own stretch, so every op scales to 5 ms.
        probe = run.REFERENCE_PROBE_S * (slow if index < 100 else 1)
        duration = 0.010 if index < 100 else 0.005
        phase.record(float(index), index + duration, None, probe)
    figures = run.end_to_end(phase, 0.0, 50, 1)
    assert figures["op_ms_p50"][0] == pytest.approx(5.0)
    assert figures["op_ms_p90"][0] == pytest.approx(5.0)
    assert figures["ops_per_s"][0] == pytest.approx(200.0)
    assert run.host_scale([None, None]) == 1.0
    assert workloads.WORKLOADS["service_mixed"].host_bound is False


def test_names_units_and_bounds_are_well_formed():
    document = benchmark()
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in document["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_every_named_workload_and_metric_is_listed():
    document = benchmark()
    workloads = {w["name"] for w in document["workloads"]}
    end_to_end = {m["name"] for m in document["end_to_end"]}
    per_layer = {m["name"] for m in document["per_layer"]}
    for name in REQUIRED_WORKLOADS:
        assert name in workloads or name in DROPPED_WORKLOADS, name
    for name in REQUIRED_END_TO_END:
        assert name in end_to_end or (
            name in per_layer and name in REPORTED_PER_LAYER
        ), name
    for name in REQUIRED_PER_LAYER:
        assert name in per_layer, name


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_exactly_the_listed_metrics(trace, key):
    done = _run("traced_fig4", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in benchmark()[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    if trace:
        spans = json.loads((ROOT / ".perfbench" / "spans" / "traced_fig4-1.json").read_text())
        assert spans["spans"] and len(spans["fields"]) == len(spans["spans"][0])


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = _run("flow_sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
