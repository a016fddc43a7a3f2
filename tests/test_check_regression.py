"""Tests for the bench-regression guard script."""

import json

import pytest

from benchmarks.check_regression import main, parse_exact, parse_guard


def write_bench(path, records, schema=2):
    path.write_text(json.dumps({"schema": schema, "records": records}))
    return path


@pytest.fixture
def bench_files(tmp_path):
    baseline = write_bench(
        tmp_path / "baseline.json",
        {"fleet_scale_full_pass": {"total_s": 10.0}},
    )
    current = write_bench(
        tmp_path / "current.json",
        {"fleet_scale_full_pass": {"total_s": 10.0}},
    )
    return baseline, current


class TestParseGuard:
    def test_default_tolerance(self):
        assert parse_guard("rec.field", 0.25) == ("rec", "field", 0.25)

    def test_explicit_tolerance(self):
        assert parse_guard("rec.field:0.05", 0.25) == ("rec", "field", 0.05)

    @pytest.mark.parametrize(
        "text", ["noField", "rec.field:abc", "rec.field:-0.1", ".f"]
    )
    def test_malformed_guard_rejected(self, text):
        with pytest.raises(SystemExit):
            parse_guard(text, 0.25)


class TestMain:
    def test_within_limit_passes(self, bench_files, capsys):
        baseline, current = bench_files
        assert main([str(baseline), str(current)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        baseline = write_bench(
            tmp_path / "b.json", {"fleet_scale_full_pass": {"total_s": 10.0}}
        )
        current = write_bench(
            tmp_path / "c.json", {"fleet_scale_full_pass": {"total_s": 13.0}}
        )
        assert main([str(baseline), str(current)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_extra_guard_with_tight_tolerance(self, tmp_path):
        records = {
            "fleet_scale_full_pass": {"total_s": 10.0},
            "telemetry_disabled_mid_pass": {"total_s": 1.0},
        }
        baseline = write_bench(tmp_path / "b.json", records)
        slower = {
            "fleet_scale_full_pass": {"total_s": 10.0},
            "telemetry_disabled_mid_pass": {"total_s": 1.1},
        }
        current = write_bench(tmp_path / "c.json", slower)
        guard = ["--guard", "telemetry_disabled_mid_pass.total_s:0.05"]
        assert main([str(baseline), str(current)] + guard) == 1
        loose = ["--guard", "telemetry_disabled_mid_pass.total_s:0.25"]
        assert main([str(baseline), str(current)] + loose) == 0

    def test_guard_missing_from_baseline_skipped(
        self, bench_files, capsys
    ):
        baseline, current = bench_files
        code = main(
            [str(baseline), str(current), "--guard", "new_bench.total_s"]
        )
        assert code == 0
        assert "skipping" in capsys.readouterr().out

    def test_guard_missing_from_current_fails(self, tmp_path):
        records = {
            "fleet_scale_full_pass": {"total_s": 10.0},
            "other": {"total_s": 1.0},
        }
        baseline = write_bench(tmp_path / "b.json", records)
        current = write_bench(
            tmp_path / "c.json", {"fleet_scale_full_pass": {"total_s": 10.0}}
        )
        assert (
            main([str(baseline), str(current), "--guard", "other.total_s"])
            == 1
        )

    def test_wrong_schema_rejected(self, tmp_path):
        baseline = write_bench(
            tmp_path / "b.json",
            {"fleet_scale_full_pass": {"total_s": 10.0}},
            schema=1,
        )
        current = write_bench(
            tmp_path / "c.json", {"fleet_scale_full_pass": {"total_s": 10.0}}
        )
        with pytest.raises(SystemExit):
            main([str(baseline), str(current)])

    def test_missing_records_rejected(self, tmp_path, bench_files):
        _, current = bench_files
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit):
            main([str(bad), str(current)])


class TestExact:
    COUNTS = {
        "fleet_scale_full_pass": {
            "total_s": 10.0,
            "packer_passes": 22,
            "capacity_ms": 450087.1,
        }
    }

    def run(self, tmp_path, field, value):
        baseline = write_bench(tmp_path / "b.json", self.COUNTS)
        moved = json.loads(json.dumps(self.COUNTS))
        moved["fleet_scale_full_pass"][field] = value
        current = write_bench(tmp_path / "c.json", moved)
        return main(
            [
                str(baseline),
                str(current),
                "--exact",
                f"fleet_scale_full_pass.{field}",
            ]
        )

    def test_unchanged_count_passes(self, tmp_path, capsys):
        assert self.run(tmp_path, "packer_passes", 22) == 0
        assert "EXACT" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [21, 23])
    def test_count_moving_either_way_fails(self, tmp_path, capsys, value):
        assert self.run(tmp_path, "packer_passes", value) == 1
        assert "CHANGED" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [450087.0, 450087.2])
    def test_float_moving_either_way_fails(self, tmp_path, value):
        assert self.run(tmp_path, "capacity_ms", value) == 1

    def test_missing_from_current_fails(self, tmp_path):
        baseline = write_bench(tmp_path / "b.json", self.COUNTS)
        current = write_bench(
            tmp_path / "c.json", {"fleet_scale_full_pass": {"total_s": 10.0}}
        )
        args = [str(baseline), str(current)]
        assert main(args + ["--exact", "fleet_scale_full_pass.packer_passes"]) == 1

    def test_missing_from_baseline_skipped(self, bench_files, capsys):
        baseline, current = bench_files
        args = [str(baseline), str(current)]
        assert main(args + ["--exact", "new_bench.packs"]) == 0
        assert "skipping" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["noField", ".f", "rec.field:0.1"])
    def test_malformed_exact_rejected(self, text):
        with pytest.raises(SystemExit):
            parse_exact(text)
