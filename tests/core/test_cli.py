"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, paper_designs, resolve_config


class TestResolve:
    def test_known_design(self):
        assert resolve_config("soc_2").name == "soc_2"

    def test_esp_config_file(self, tmp_path):
        path = tmp_path / "x.esp_config"
        path.write_text(
            "[soc]\nname = filecfg\nboard = vc707\nrows = 2\ncols = 2\n\n"
            "[tile cpu0]\ntype = cpu\n\n[tile mem0]\ntype = mem\n\n"
            "[tile aux0]\ntype = aux\n\n[tile rt0]\ntype = reconf\nmodes = mac\n"
        )
        assert resolve_config(str(path)).name == "filecfg"

    def test_unknown_spec(self):
        from repro.errors import PrEspError

        with pytest.raises(PrEspError):
            resolve_config("not_a_design")

    def test_all_eleven_designs_present(self):
        assert len(paper_designs()) == 11


class TestCommands:
    def test_designs(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in ("soc_1", "soc_d", "soc_z"):
            assert name in out

    def test_build(self, capsys):
        assert main(["build", "soc_3"]) == 0
        out = capsys.readouterr().out
        assert "PR-ESP flow report: soc_3" in out
        assert "semi-parallel" in out

    def test_build_with_strategy_override(self, capsys):
        assert main(["build", "soc_3", "--strategy", "serial"]) == 0
        out = capsys.readouterr().out
        assert "strategy: serial" in out

    def test_build_with_baseline(self, capsys):
        assert main(["build", "soc_3", "--baseline"]) == 0
        assert "monolithic" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "soc_d"]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out

    def test_deploy(self, capsys):
        assert main(["deploy", "soc_z", "--frames", "2"]) == 0
        out = capsys.readouterr().out
        assert "frame latency" in out
        assert "reconfigs" in out

    def test_profile_by_name(self, capsys):
        assert main(["profile", "hessian"]) == 0
        assert "38000" in capsys.readouterr().out

    def test_profile_by_index(self, capsys):
        assert main(["profile", "8"]) == 0
        assert "hessian" in capsys.readouterr().out

    def test_profile_unknown(self, capsys):
        assert main(["profile", "quantum"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_model(self, capsys):
        assert main(["model"]) == 0
        out = capsys.readouterr().out
        assert "serial_dpr_par" in out
        assert "reconfigurable-LUT weight" in out

    def test_unknown_design_is_an_error(self, capsys):
        assert main(["build", "soc_zz"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCheckCommand:
    def test_check_clean_design(self, capsys):
        assert main(["check", "soc_x"]) == 0
        assert "no advisory findings" in capsys.readouterr().out

    def test_check_dense_design(self, capsys):
        assert main(["check", "soc_4"]) == 0
        out = capsys.readouterr().out
        assert "reconf-density" in out
        assert "memory-bottleneck" in out

    def test_build_json(self, capsys):
        import json

        assert main(["build", "soc_3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["soc"] == "soc_3"
        assert data["strategy"] == "semi-parallel"


class TestObservabilityFlags:
    def test_deploy_json_carries_runtime_and_metrics(self, capsys):
        import json

        assert main(["deploy", "soc_z", "--frames", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["soc"] == "soc_z"
        assert data["reconfigurations"] > 0
        assert data["runtime"]["total_invocations"] > 0
        assert any(key.startswith("runtime.") for key in data["metrics"])

    def test_deploy_trace_writes_chrome_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        assert main(["deploy", "soc_z", "--frames", "1", "--trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        categories = {
            e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "kernel.icap" in categories
        assert "app.exec" in categories

    def test_deploy_metrics_prints_snapshot(self, capsys):
        assert main(["deploy", "soc_z", "--frames", "1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "runtime.invocations" in out
        assert "noc.bytes" in out

    def test_build_trace_writes_flow_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "flow.json"
        assert main(["build", "soc_3", "--trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        categories = {
            e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert {"flow.build", "flow.stage", "flow.job"} <= categories

    def test_verbosity_flags_accepted(self, capsys):
        assert main(["-v", "designs"]) == 0
        capsys.readouterr()
        assert main(["--log-level", "debug", "designs"]) == 0


class TestSweep:
    def test_sweep_table(self, capsys):
        assert main(["sweep", "soc_a", "--strategies", "all"]) == 0
        out = capsys.readouterr().out
        for label in (
            "soc_a/auto",
            "soc_a/serial",
            "soc_a/semi-parallel",
            "soc_a/fully-parallel",
        ):
            assert label in out

    def test_sweep_json(self, capsys):
        import json

        assert main(["sweep", "soc_a", "soc_b", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 1
        assert document["kind"] == "sweep"
        rows = document["outcomes"]
        assert [row["request"] for row in rows] == ["soc_a/auto", "soc_b/auto"]
        assert all(row["ok"] for row in rows)
        assert all("summary" in row for row in rows)

    def test_sweep_strategy_list(self, capsys):
        assert main(["sweep", "soc_b", "--strategies", "serial,fully-parallel"]) == 0
        out = capsys.readouterr().out
        assert "soc_b/serial" in out
        assert "soc_b/auto" not in out

    def test_sweep_cache_round_trip(self, capsys, tmp_path):
        args = ["sweep", "soc_a", "--cache", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "built" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cached" in second
        assert "1 hits" in second

    def test_sweep_unknown_design_fails(self, capsys):
        assert main(["sweep", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_build_cache_flag(self, capsys, tmp_path):
        args = ["build", "soc_3", "--cache", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "flow cache" not in capsys.readouterr().out
        assert main(args) == 0
        assert "served from the flow cache" in capsys.readouterr().out

    def test_sweep_unknown_strategy_fails_cleanly(self, capsys):
        assert main(["sweep", "soc_a", "--strategies", "bogus"]) == 1
        assert "unknown strategy" in capsys.readouterr().err


class TestFaultFlags:
    def test_degraded_build_exits_zero(self, capsys):
        assert main(
            ["build", "soc_3", "--inject-cad-fault", "synthesis:synth_rt_sort:3"]
        ) == 0
        out = capsys.readouterr().out
        assert "DEGRADED: dark tiles rt_sort" in out
        assert "rt_sort_blank.pbs" in out

    def test_fault_rate_retries_show_in_json(self, capsys):
        assert main(
            ["build", "soc_3", "--fault-rate", "0.5", "--fault-seed", "0", "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["fault_tolerance"]["retries"] > 0

    def test_bad_injection_spec_fails_cleanly(self, capsys):
        assert main(["build", "soc_3", "--inject-cad-fault", "nocolon"]) == 1
        assert "inject-cad-fault" in capsys.readouterr().err

    def test_fault_rate_out_of_range_fails_cleanly(self, capsys):
        assert main(["build", "soc_3", "--fault-rate", "1.5"]) == 1
        assert "fault-rate" in capsys.readouterr().err

    def test_resume_without_checkpoint_dir_fails_cleanly(self, capsys):
        assert main(["build", "soc_3", "--resume"]) == 1
        assert "checkpoint" in capsys.readouterr().err


#: The command each fault-spec flag belongs to.
FAULT_FLAG_COMMANDS = {
    "--fault-rate": ["build", "soc_3"],
    "--inject-cad-fault": ["build", "soc_3"],
    "--runtime-fault-rate": ["deploy", "soc_y"],
    "--inject-runtime-fault": ["deploy", "soc_y"],
    "--inject-failure": ["monitor", "soc_z"],
    "--service-fault-rate": ["serve", "--state-dir", "{state}"],
    "--inject-service-fault": ["serve", "--state-dir", "{state}"],
}


class TestFaultSpecErrors:
    """Every fault-spec flag rejects a bad value with exit 1 and names
    itself on stderr (malformed spec, unknown kind, non-integer count,
    out-of-range rate — whichever the flag's grammar can express)."""

    @pytest.mark.parametrize(
        "flag, spec",
        [
            ("--fault-rate", "1.5"),
            ("--fault-rate", "-0.1"),
            ("--inject-cad-fault", "synthesis"),
            ("--inject-cad-fault", "synthesis:"),
            ("--inject-cad-fault", "synthesis:synth_rt0:1:2"),
            ("--inject-cad-fault", "synthesis:synth_rt0:x"),
            ("--runtime-fault-rate", "wat"),
            ("--runtime-fault-rate", "crc="),
            ("--runtime-fault-rate", "bogus=0.1"),
            ("--runtime-fault-rate", "crc=2.0"),
            ("--inject-runtime-fault", "rt1"),
            ("--inject-runtime-fault", ":fft"),
            ("--inject-runtime-fault", "rt1:fft:nope"),
            ("--inject-failure", "rt1"),
            ("--inject-failure", "rt1:change_detection:1:2"),
            ("--inject-failure", "rt1:change_detection:x"),
            ("--service-fault-rate", "x"),
            ("--service-fault-rate", "bogus=0.1"),
            ("--service-fault-rate", "crash=1.5"),
            ("--inject-service-fault", "crash:1:2"),
            ("--inject-service-fault", "bogus"),
            ("--inject-service-fault", "crash:x"),
        ],
    )
    def test_bad_spec_names_the_flag(self, capsys, tmp_path, flag, spec):
        command = [
            part.format(state=tmp_path / "state") for part in FAULT_FLAG_COMMANDS[flag]
        ]
        assert main(command + [flag, spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert flag in err


class TestCheckpointFlags:
    def test_checkpoint_then_resume_matches(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert main(["build", "soc_3", "--checkpoint-dir", ckpt, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(
            ["build", "soc_3", "--checkpoint-dir", ckpt, "--resume", "--json"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed == first

    def test_resume_reports_restored_stages(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert main(["build", "soc_3", "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        assert main(["build", "soc_3", "--checkpoint-dir", ckpt, "--resume"]) == 0
        assert "resumed 7 checkpointed stage(s)" in capsys.readouterr().out
