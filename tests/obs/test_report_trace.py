"""Report-bundle trace artifacts and load/render error paths.

PR 9 adds ``trace.json`` + ``profile.txt`` to the RunReport bundle
(present only when the run traced spans) and ``RunReport.spans``.
These tests pin the trace-gated artifact behaviour plus the loader's
error paths: missing ``report.json``, unsupported and retired schemas,
and malformed series CSVs.
"""

import json

import pytest

from repro.obs import Telemetry, build_run_report, load_run_report
from repro.obs.report import REPORT_SCHEMA, render_report_lines
from repro.obs.samplers import Series
from repro.obs.trace_export import load_chrome_trace

from .test_report import run_instrumented


@pytest.fixture(scope="module")
def traced_run():
    telemetry = Telemetry.create(run_id="test-traced", tracing=True)
    result = run_instrumented(telemetry)
    return telemetry, result


class TestTracedBundle:
    def test_report_carries_spans(self, traced_run):
        telemetry, result = traced_run
        report = build_run_report(result, telemetry)
        assert report.spans
        assert report.spans == telemetry.tracer.to_dicts()

    def test_write_emits_trace_and_profile(self, traced_run, tmp_path):
        telemetry, result = traced_run
        report = build_run_report(result, telemetry)
        report.write(tmp_path)
        doc = load_chrome_trace(tmp_path / "trace.json")
        assert doc["traceEvents"]
        profile = (tmp_path / "profile.txt").read_text()
        assert "critical path" in profile
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["span_count"] == len(report.spans)

    def test_load_roundtrips_spans(self, traced_run, tmp_path):
        telemetry, result = traced_run
        report = build_run_report(result, telemetry)
        report.write(tmp_path)
        loaded = load_run_report(tmp_path)
        assert loaded.spans == report.spans

    def test_render_mentions_spans(self, traced_run):
        telemetry, result = traced_run
        report = build_run_report(result, telemetry)
        assert any(
            "trace spans" in line for line in render_report_lines(report)
        )

    def test_untraced_bundle_has_no_trace_artifacts(self, tmp_path):
        telemetry = Telemetry.create(run_id="test-untraced")
        result = run_instrumented(telemetry)
        report = build_run_report(result, telemetry)
        assert report.spans == []
        report.write(tmp_path)
        assert not (tmp_path / "trace.json").exists()
        assert not (tmp_path / "profile.txt").exists()
        loaded = load_run_report(tmp_path)
        assert loaded.spans == []


class TestLoadErrorPaths:
    def test_missing_report_json_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no report.json"):
            load_run_report(tmp_path)

    def test_unsupported_schema_rejected(self, tmp_path):
        (tmp_path / "report.json").write_text(
            json.dumps({"schema": REPORT_SCHEMA + 99, "run_id": "x"})
        )
        with pytest.raises(ValueError, match="unsupported report schema"):
            load_run_report(tmp_path)

    @pytest.mark.parametrize("schema", [1, 2])
    def test_old_schema_bundle_rejected(self, tmp_path, schema):
        # Schema 1 bundles mirrored every span onto events.jsonl and
        # carried no timeline.json; schema 2 bundles kept the round
        # boundaries in events.jsonl instead of report.json's rows.
        (tmp_path / "report.json").write_text(
            json.dumps({"schema": schema, "run_id": "x"})
        )
        with pytest.raises(
            ValueError, match=f"unsupported report schema {schema}"
        ):
            load_run_report(tmp_path)

    def test_corrupt_trace_json_rejected(self, traced_run, tmp_path):
        telemetry, result = traced_run
        build_run_report(result, telemetry).write(tmp_path)
        (tmp_path / "trace.json").write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError, match="not a Chrome trace"):
            load_run_report(tmp_path)


class TestSeriesCsvEdges:
    def test_empty_series_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        Series(name="idle").write_csv(path)
        loaded = Series.read_csv(path, name="idle")
        assert len(loaded) == 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="not a series CSV"):
            Series.read_csv(path, name="idle")

    def test_malformed_row_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_ms,value\n1.0,2.0\noops\n")
        with pytest.raises(ValueError, match="bad.csv:3.*malformed"):
            Series.read_csv(path, name="idle")

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("time_ms,value\n1.0\n")
        with pytest.raises(ValueError, match="malformed series row"):
            Series.read_csv(path, name="idle")

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("time_ms,value\n1.0,2.0\n\n3.0,4.0\n")
        loaded = Series.read_csv(path, name="idle")
        assert loaded.times_ms == [1.0, 3.0]
        assert loaded.values == [2.0, 4.0]
