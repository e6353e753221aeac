"""Exporter and report tests: Chrome schema, JSONL, Prometheus text, breakdown."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    chrome_trace,
    events_jsonl,
    prometheus_text,
    strip_wall_clock,
    trace_json,
    write_chrome_trace,
)
from repro.obs.report import (
    format_trace_report,
    load_trace,
    trace_breakdown,
    validate_chrome_trace,
)
from repro.obs.telemetry import Telemetry
from repro.server import TickRecord
from repro.sim.metrics import MetricRegistry, metric_name


@pytest.fixture
def hub(engine) -> Telemetry:
    hub = Telemetry(engine)
    hub.span("tick", "tick", start_ms=0.0, duration_ms=4.0, track="server",
             args={"index": 0})
    hub.span("tick", "tick", start_ms=50.0, duration_ms=6.0, track="server",
             args={"index": 1})
    hub.span("faas", "generate-terrain", start_ms=10.0, duration_ms=200.0,
             track="faas", args={"status": "ok"})
    hub.instant("fault", "faas.failure", ts_ms=60.0, track="faults")
    return hub


class TestChromeTrace:
    def test_schema_validates_clean(self, hub):
        assert validate_chrome_trace(chrome_trace(hub)) == []

    def test_microsecond_timestamps_and_tracks(self, hub):
        trace = chrome_trace(hub)
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        thread_names = {
            e["tid"]: e["args"]["name"] for e in metadata if e["name"] == "thread_name"
        }
        assert set(thread_names.values()) == {"server", "faas", "faults"}
        tick = spans[0]
        assert tick["ts"] == 0.0 and tick["dur"] == 4000.0  # virtual ms -> us
        assert thread_names[tick["tid"]] == "server"
        assert spans[1]["ts"] == 50000.0
        assert instants[0]["s"] == "t"
        assert trace["displayTimeUnit"] == "ms"

    def test_metrics_snapshot_embeds(self, hub):
        metrics = MetricRegistry()
        metrics.increment("migrations", 3)
        trace = chrome_trace(hub, metrics)
        assert trace["metrics"]["counters"] == {"migrations": 3.0}

    def test_wall_profile_quarantine(self, engine):
        hub = Telemetry(engine, profile=True)
        with hub.profile("server.tick"):
            hub.span("tick", "tick", start_ms=0.0, duration_ms=1.0)
        trace = chrome_trace(hub)
        assert "wallProfile" in trace
        stripped = strip_wall_clock(trace)
        assert "wallProfile" not in stripped
        # Trace events themselves never carry wall-clock data.
        plain = Telemetry(engine)
        plain.span("tick", "tick", start_ms=0.0, duration_ms=1.0)
        assert stripped == strip_wall_clock(chrome_trace(plain))

    def test_write_and_load_round_trip(self, hub, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), hub)
        loaded = load_trace(str(path))
        assert validate_chrome_trace(loaded) == []
        assert loaded == json.loads(trace_json(hub))


class TestValidateRejects:
    def test_non_object(self):
        assert validate_chrome_trace([]) != []

    def test_broken_events(self):
        broken = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 1, "tid": 1},
                {"ph": "X", "name": "", "cat": "c", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
                {"ph": "X", "name": "x", "cat": "c", "ts": -1, "dur": 1, "pid": 1, "tid": 1},
                {"ph": "X", "name": "x", "cat": "c", "ts": 0, "pid": 1, "tid": 1},
                {"ph": "i", "name": "x", "cat": "c", "ts": 0, "pid": 1, "tid": 1, "s": "q"},
                {"ph": "X", "name": "x", "cat": "c", "ts": 0, "dur": 1, "pid": "a", "tid": 1},
            ]
        }
        problems = validate_chrome_trace(broken)
        assert len(problems) == 6


class TestJsonl:
    def test_one_canonical_line_per_event(self, hub):
        lines = events_jsonl(hub).strip().split("\n")
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first == {
            "ph": "X", "cat": "tick", "name": "tick", "track": "server",
            "ts_ms": 0.0, "dur_ms": 4.0, "args": {"index": 0},
        }
        assert json.loads(lines[3])["ph"] == "i"


class TestPrometheus:
    def test_counters_histograms_series(self):
        metrics = MetricRegistry()
        metrics.increment("migrations", 2)
        for value in (10.0, 20.0, 30.0):
            metrics.histogram("migration_ms").record(value)
        metrics.histogram(metric_name("migration_ms", shard="shard-0")).record(5.0)
        metrics.series("consistency_error_over_time").record(0.0, 4.0)
        text = prometheus_text(metrics)
        assert "# TYPE repro_migrations counter\nrepro_migrations 2.0" in text
        assert text.count("# TYPE repro_migration_ms summary") == 1
        assert 'repro_migration_ms{quantile="0.5"} 20.0' in text
        assert 'repro_migration_ms{quantile="0.5",shard="shard-0"} 5.0' in text
        assert 'repro_migration_ms_count{shard="shard-0"} 1.0' in text
        assert "repro_migration_ms_sum 60.0" in text
        assert "# TYPE repro_consistency_error_over_time gauge" in text
        assert "repro_consistency_error_over_time 4.0" in text
        assert "repro_consistency_error_over_time_samples 1.0" in text

    def test_tick_metrics_export_from_the_tick_log(self):
        metrics = MetricRegistry()
        for index, (shard, duration_ms) in enumerate(
            (("shard-0", 10.0), ("shard-1", 40.0), ("shard-0", 30.0))
        ):
            metrics.tick_log.append(TickRecord(
                index=index // 2, start_ms=50.0 * (index // 2), duration_ms=duration_ms,
                players=index, constructs=0, chunks_integrated=0,
                view_range_blocks=128.0, shard=shard,
            ))
        text = prometheus_text(metrics)
        assert text.count("# TYPE repro_tick_duration_ms summary") == 1
        assert 'repro_tick_duration_ms{quantile="0.5"} 30.0' in text
        assert 'repro_tick_duration_ms{quantile="0.5",shard="shard-0"} 20.0' in text
        assert "repro_tick_duration_ms_sum 80.0" in text
        assert 'repro_tick_duration_ms_count{shard="shard-1"} 1.0' in text
        assert "repro_players_over_time 2.0" in text
        assert "repro_tick_duration_over_time_samples 3.0" in text
        assert "repro_view_range_over_time 128.0" in text

    def test_deterministic_output(self):
        def build():
            metrics = MetricRegistry()
            metrics.increment("b")
            metrics.increment("a")
            metrics.histogram("h").record(1.0)
            return prometheus_text(metrics)

        assert build() == build()


class TestReport:
    def test_breakdown_aggregates_by_category(self, hub):
        rows, instants = trace_breakdown(chrome_trace(hub))
        by_category = {row.category: row for row in rows}
        assert by_category["tick"].count == 2
        assert by_category["tick"].total_ms == pytest.approx(10.0)
        assert by_category["tick"].mean_ms == pytest.approx(5.0)
        assert by_category["tick"].max_ms == pytest.approx(6.0)
        assert by_category["faas"].share == pytest.approx(200.0 / 210.0)
        assert rows[0].category == "faas"  # sorted by descending total
        assert instants == {"fault": 1}

    def test_format_lists_every_category(self, hub):
        text = format_trace_report(chrome_trace(hub), source="t.json")
        for needle in ("trace: t.json", "tick", "faas", "fault", "share"):
            assert needle in text

    def test_load_trace_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_trace(str(path))
