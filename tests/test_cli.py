"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.serialize import job_to_dict, phone_to_dict
from repro.workloads.mixes import evaluation_workload, paper_testbed


@pytest.fixture
def fleet_files(tmp_path):
    testbed = paper_testbed()
    phones_path = tmp_path / "phones.json"
    jobs_path = tmp_path / "jobs.json"
    phones_path.write_text(
        json.dumps([phone_to_dict(p) for p in testbed.phones])
    )
    jobs_path.write_text(
        json.dumps(
            [job_to_dict(j) for j in evaluation_workload(instances_per_task=3)]
        )
    )
    return phones_path, jobs_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["experiments"],
            ["study"],
            ["simulate"],
            ["trace"],
        ):
            assert parser.parse_args(argv).command == argv[0]


class TestExperimentsCommand:
    def test_runs_named_experiment(self, capsys):
        assert main(["experiments", "costs"]) == 0
        out = capsys.readouterr().out
        assert "costs" in out
        assert "74.5" in out

    def test_unknown_id_fails(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err


class TestScheduleCommand:
    def test_schedules_and_writes_output(self, fleet_files, tmp_path, capsys):
        phones_path, jobs_path = fleet_files
        out_path = tmp_path / "schedule.json"
        code = main(
            [
                "schedule",
                "--phones",
                str(phones_path),
                "--jobs",
                str(jobs_path),
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert "predicted makespan" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert data["assignments"]

    def test_explicit_b_file(self, fleet_files, tmp_path, capsys):
        phones_path, jobs_path = fleet_files
        testbed = paper_testbed()
        b_path = tmp_path / "b.json"
        b_path.write_text(
            json.dumps({p.phone_id: 5.0 for p in testbed.phones})
        )
        code = main(
            [
                "schedule",
                "--phones",
                str(phones_path),
                "--jobs",
                str(jobs_path),
                "--b",
                str(b_path),
                "--scheduler",
                "round-robin",
            ]
        )
        assert code == 0
        assert "round-robin" in capsys.readouterr().out


class TestPodWorkersFlag:
    def test_schedule_pod_workers_requires_pods(self, fleet_files, capsys):
        phones_path, jobs_path = fleet_files
        code = main(
            [
                "schedule",
                "--phones",
                str(phones_path),
                "--jobs",
                str(jobs_path),
                "--pod-workers",
                "2",
            ]
        )
        assert code == 2
        assert "--pod-workers requires --pods" in capsys.readouterr().err

    def test_simulate_pod_workers_requires_pods(self, capsys):
        assert main(["simulate", "--pod-workers", "2"]) == 2
        assert "--pod-workers requires --pods" in capsys.readouterr().err

    def test_pool_size_never_changes_the_schedule(self, fleet_files, tmp_path):
        phones_path, jobs_path = fleet_files
        outputs = []
        for workers in ("1", "2"):
            out_path = tmp_path / f"schedule-{workers}.json"
            code = main(
                [
                    "schedule",
                    "--phones",
                    str(phones_path),
                    "--jobs",
                    str(jobs_path),
                    "--pods",
                    "2",
                    "--pod-workers",
                    workers,
                    "--output",
                    str(out_path),
                ]
            )
            assert code == 0
            outputs.append(out_path.read_text())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flag", ["--probe-workers", "--batch-width", "--shared-mem"]
    )
    def test_removed_probe_pool_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", flag, "2"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rejects_non_positive_pod_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--pod-workers", "0"])


class TestStudyCommand:
    def test_prints_summary(self, capsys):
        assert main(["study", "--days", "7", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "15 users" in out
        assert "night" in out

    def test_writes_logs(self, tmp_path, capsys):
        out_path = tmp_path / "logs.tsv"
        assert (
            main(
                ["study", "--days", "5", "--output", str(out_path)]
            )
            == 0
        )
        from repro.profiling.logs import parse_log

        records = parse_log(out_path.read_text())
        assert records


class TestSimulateCommand:
    def test_clean_run_summary(self, tmp_path, capsys):
        out_path = tmp_path / "run.json"
        code = main(["simulate", "--output", str(out_path)])
        assert code == 0
        summary = json.loads(out_path.read_text())
        assert summary["unfinished_jobs"] == 0
        assert summary["measured_makespan_s"] > 0

    def test_failure_run(self, capsys):
        assert main(["simulate", "--failures", "2"]) == 0
        out = capsys.readouterr().out
        assert "failures: 2" in out

    def test_reports_scheduling_wall_clock(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "scheduling wall-clock:" in out
        assert "packer passes" in out
        assert "bisection steps" in out

    def test_warm_start_run(self, tmp_path, capsys):
        out_path = tmp_path / "run.json"
        code = main(
            ["simulate", "--warm-start", "--output", str(out_path)]
        )
        assert code == 0
        assert "warm-start hit" in capsys.readouterr().out
        summary = json.loads(out_path.read_text())
        assert summary["unfinished_jobs"] == 0
        scheduling = summary["scheduling"]
        assert scheduling["rounds"] >= 1
        assert scheduling["packer_passes"] >= 1
        assert scheduling["wall_ms"] >= 0.0

    def test_warm_start_matches_cold_summary(self, tmp_path):
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        assert main(["simulate", "--output", str(cold_path)]) == 0
        assert (
            main(["simulate", "--warm-start", "--output", str(warm_path)])
            == 0
        )
        cold = json.loads(cold_path.read_text())
        warm = json.loads(warm_path.read_text())
        # Warm starts change scheduler wall-clock, never the simulation.
        assert warm["measured_makespan_s"] == cold["measured_makespan_s"]
        assert warm["unfinished_jobs"] == cold["unfinished_jobs"]


class TestCampaignFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--scheduler", "round-robin"],
            ["--failures", "2"],
            ["--chaos", "spec.json"],
            ["--chaos-seed", "7"],
            ["--harden"],
            ["--verify"],
            ["--telemetry", "bundle"],
            ["--trace"],
            ["--harden", "--chaos-seed", "7"],
        ],
    )
    def test_single_run_flags_rejected(self, flags, capsys):
        assert main(["simulate", "--nights", "2", *flags]) == 2
        err = capsys.readouterr().err
        for flag in flags:
            if flag.startswith("--"):
                assert flag in err

    def test_resume_under_other_pods_rejected(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        drill = ["simulate", "--nights", "2", "--jobs-per-night", "4",
                 "--checkpoint-dir", ckpt]
        assert main([*drill, "--kill-after-night", "0"]) == 3
        assert main([*drill, "--resume", "--pods", "2"]) == 2
        err = capsys.readouterr().err
        assert "pods=None" in err and "pods=2" in err


class TestWhatifCommand:
    def test_finds_minimum_fleet(self, fleet_files, capsys):
        phones_path, jobs_path = fleet_files
        code = main(
            [
                "whatif",
                "--phones",
                str(phones_path),
                "--jobs",
                str(jobs_path),
                "--deadline-s",
                "100000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "minimum fleet" in out

    def test_impossible_deadline_fails(self, fleet_files, capsys):
        phones_path, jobs_path = fleet_files
        code = main(
            [
                "whatif",
                "--phones",
                str(phones_path),
                "--jobs",
                str(jobs_path),
                "--deadline-s",
                "0.001",
            ]
        )
        assert code == 1
        assert "no prefix" in capsys.readouterr().out


class TestPowerCommand:
    def test_sensation_curves(self, capsys):
        assert main(["power", "--phone-model", "sensation"]) == 0
        out = capsys.readouterr().out
        assert "no-task" in out
        assert "mimd" in out
        assert "compute penalty" in out

    def test_g2_curves(self, capsys):
        assert main(["power", "--phone-model", "g2"]) == 0
        assert "htc-g2" in capsys.readouterr().out

    def test_bad_start_percent(self, capsys):
        assert main(["power", "--start-percent", "150"]) == 2


class TestTelemetryCli:
    def run_instrumented(self, tmp_path):
        bundle_dir = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--chaos-seed",
                "7",
                "--harden",
                "--telemetry",
                str(bundle_dir),
            ]
        )
        return code, bundle_dir

    def test_simulate_writes_bundle(self, tmp_path, capsys):
        code, bundle_dir = self.run_instrumented(tmp_path)
        assert code == 0
        assert "telemetry bundle written to" in capsys.readouterr().out
        assert (bundle_dir / "report.json").is_file()
        assert (bundle_dir / "events.jsonl").is_file()
        assert (bundle_dir / "prometheus.txt").is_file()
        assert list((bundle_dir / "series").glob("*.csv"))

        from repro.obs.events import read_events_jsonl

        events = read_events_jsonl(bundle_dir / "events.jsonl")
        assert events  # every line passed schema validation

    def test_report_renders_bundle(self, tmp_path, capsys):
        code, bundle_dir = self.run_instrumented(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["report", str(bundle_dir), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "run report:" in out
        assert "round latency" in out
        assert "faults injected" in out

    def test_report_on_missing_bundle_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "failed to load" in capsys.readouterr().err

    def test_report_no_validate_tolerates_bad_lines(
        self, tmp_path, capsys
    ):
        code, bundle_dir = self.run_instrumented(tmp_path)
        assert code == 0
        events_path = bundle_dir / "events.jsonl"
        events_path.write_text(
            events_path.read_text() + '{"run_id": "x"}\n'
        )
        capsys.readouterr()
        assert main(["report", str(bundle_dir)]) == 2
        assert main(["report", str(bundle_dir), "--no-validate"]) == 0

    def test_simulate_without_telemetry_unchanged(self, tmp_path):
        with_path = tmp_path / "with.json"
        without_path = tmp_path / "without.json"
        assert (
            main(
                [
                    "simulate",
                    "--telemetry",
                    str(tmp_path / "bundle"),
                    "--output",
                    str(with_path),
                ]
            )
            == 0
        )
        assert (
            main(["simulate", "--output", str(without_path)]) == 0
        )
        with_summary = json.loads(with_path.read_text())
        without_summary = json.loads(without_path.read_text())
        with_summary.pop("telemetry_bundle", None)
        # Wall-clock timings vary run to run; everything simulated
        # (schedules, makespans, completions) must be identical.
        for summary in (with_summary, without_summary):
            summary.get("scheduling", {}).pop("wall_ms", None)
            summary.get("scheduling", {}).pop("last_wall_ms", None)
        assert with_summary == without_summary


class TestTraceCommand:
    def test_capture_prints_self_time_table(self, capsys):
        assert main(["trace", "--seed", "5", "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "self wall ms" in out

    def test_capture_writes_artifacts_and_renders(self, tmp_path, capsys):
        out_dir = tmp_path / "trace-run"
        assert (
            main(
                [
                    "trace",
                    "--seed",
                    "5",
                    "--out",
                    str(out_dir),
                    "--critical-path",
                ]
            )
            == 0
        )
        assert (out_dir / "trace.json").is_file()
        capsys.readouterr()
        # Render mode accepts the bundle directory and the file itself.
        assert main(["trace", str(out_dir)]) == 0
        assert main(["trace", str(out_dir / "trace.json")]) == 0
        assert "self wall ms" in capsys.readouterr().out

    def test_sharded_capture(self, capsys):
        assert main(["trace", "--seed", "3", "--pods", "2"]) == 0
        assert "self wall ms" in capsys.readouterr().out

    def test_render_missing_path_fails(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 2

    def test_simulate_trace_requires_telemetry(self, capsys):
        assert main(["simulate", "--trace"]) == 2

    def test_simulate_trace_writes_bundle_artifacts(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert (
            main(
                ["simulate", "--telemetry", str(bundle), "--trace"]
            )
            == 0
        )
        assert (bundle / "trace.json").is_file()
        assert (bundle / "profile.txt").is_file()
