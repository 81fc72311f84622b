"""``repro top``: snapshot reconstruction, rendering, CLI paths."""

from __future__ import annotations

import json

from repro.cli import main
from repro.runtime.telemetry.top import render_top, sparkline, top_snapshot


def synthetic_events() -> list[dict]:
    events = []
    for t in range(5):
        events.append(
            {
                "ts": 100.0 + t,
                "kind": "sample",
                "metrics": {
                    "rate.service.requests": 10.0 + t,
                    "hist.span.request.p99": 0.010 + 0.001 * t,
                    "hist.span.request.p50": 0.005,
                    "ratio.service.error_rate": 0.0,
                    "pool.queue_depth": 2.0,
                    "pool.queue_capacity": 16.0,
                    "pool.queue_peak": 6.0,
                    "pool.workers": 4.0,
                    "pool.saturated": 0.0,
                    "ingest.lag_events": float(t),
                    "ingest.watermark_seq": 100.0 + t,
                    "drift.flagged": 0.0,
                },
            }
        )
    events.append(
        {
            "ts": 104.5,
            "kind": "alert",
            "name": "slo:watermark_lag",
            "state": "firing",
            "previous": "inactive",
            "severity": "page",
        }
    )
    return events


def freshness_events() -> list[dict]:
    """Samples carrying the freshness series plus causal link events."""
    events = []
    for t in range(4):
        events.append(
            {
                "ts": 200.0 + t,
                "kind": "sample",
                "metrics": {
                    "ingest.freshness_lag_seconds": 0.5 * t,
                    "hist.freshness.event_to_queryable.p50": 0.004,
                    "hist.freshness.event_to_queryable.p99": 0.020 + 0.001 * t,
                },
            }
        )
    events.append(
        {"ts": 200.1, "kind": "link", "relation": "wal_append",
         "trace_id": "T00000001", "first_seq": 1, "last_seq": 6}
    )
    for t in range(2):
        events.append(
            {"ts": 200.5 + t, "kind": "link", "relation": "wal_apply",
             "trace_id": f"T0000000{t + 2}", "first_seq": 1 + 3 * t,
             "last_seq": 3 + 3 * t, "watermark": 3 + 3 * t}
        )
    return events


class TestSparkline:
    def test_shape(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(100)), width=24)) == 24


class TestSnapshot:
    def test_values_from_event_log(self):
        snapshot = top_snapshot(synthetic_events())
        assert snapshot["ts"] == 104.0  # newest sample, not wall clock
        assert snapshot["samples"] == 5
        assert snapshot["qps"]["current"] == 14.0
        assert snapshot["qps"]["trend"] == [10.0, 11.0, 12.0, 13.0, 14.0]
        assert snapshot["latency_ms"]["p99"] == 14.0
        assert snapshot["latency_ms"]["p50"] == 5.0
        assert snapshot["pool"]["queue_peak"] == 6.0
        assert snapshot["ingest"]["lag_events"] == 4.0
        assert snapshot["alerts"]["firing"] == ["slo:watermark_lag"]

    def test_empty_log(self):
        snapshot = top_snapshot([])
        assert snapshot["samples"] == 0
        assert snapshot["qps"]["current"] is None
        assert snapshot["alerts"]["firing"] == []

    def test_window_clips_trends(self):
        snapshot = top_snapshot(synthetic_events(), window=2.0)
        assert snapshot["qps"]["trend"] == [12.0, 13.0, 14.0]


class TestFreshnessPanel:
    def test_snapshot_freshness_block(self):
        freshness = top_snapshot(freshness_events())["freshness"]
        assert freshness["lag_seconds"] == 1.5  # newest sample
        assert freshness["p50_ms"] == 4.0
        assert freshness["p99_ms"] == 23.0
        assert freshness["trend"] == [0.0, 0.5, 1.0, 1.5]
        assert freshness["appends"] == 1
        assert freshness["applies"] == 2

    def test_no_ingest_means_empty_panel(self):
        freshness = top_snapshot(synthetic_events())["freshness"]
        assert freshness["lag_seconds"] is None
        assert freshness["applies"] == 0

    def test_render_shows_the_freshness_row(self):
        text = render_top(top_snapshot(freshness_events()))
        assert "freshness" in text
        assert "lag_s=1.500" in text
        assert "p99_ms=23.00" in text
        assert "applies=2" in text and "appends=1" in text

    def test_render_omits_the_row_without_data(self):
        text = render_top(top_snapshot(synthetic_events()))
        assert "freshness" not in text


class TestRender:
    def test_dashboard_contains_key_rows(self):
        text = render_top(top_snapshot(synthetic_events()))
        assert "repro top" in text
        assert "ALERTS FIRING: 1" in text
        assert "qps" in text and "14.00" in text
        assert "pool" in text and "peak=6" in text
        assert "ingest" in text and "lag=4" in text
        assert "slo:watermark_lag" in text and "firing" in text

    def test_healthy_render(self):
        events = [e for e in synthetic_events() if e["kind"] == "sample"]
        text = render_top(top_snapshot(events))
        assert "[healthy]" in text

    def test_shard_rows_show_server_counters(self):
        sample = {
            "ts": 100.0,
            "kind": "sample",
            "metrics": {
                "shard.0.up": 1.0,
                "shard.0.active_requests": 2.0,
                "shard.0.requests": 57.0,
                "shard.0.watermark_seq": 3.0,
                "shard.1.up": 0.0,
                "shard.fleet.watermark": 3.0,
            },
        }
        text = render_top(top_snapshot([sample]))
        assert "shard 0    up    active=2 requests=57 watermark=3" in text
        assert "shard 1    DOWN  active=- requests=-" in text


class TestCli:
    def test_top_once_json(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            "\n".join(json.dumps(e) for e in synthetic_events()) + "\n",
            encoding="utf-8",
        )
        code = main(["top", "--events", str(log), "--once", "--format", "json"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out.strip())
        assert snapshot["qps"]["current"] == 14.0
        assert snapshot["alerts"]["firing"] == ["slo:watermark_lag"]

    def test_top_once_text(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            "\n".join(json.dumps(e) for e in synthetic_events()) + "\n",
            encoding="utf-8",
        )
        code = main(["top", "--events", str(log), "--once"])
        assert code == 0
        assert "repro top" in capsys.readouterr().out

    def test_json_requires_once(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text("", encoding="utf-8")
        code = main(["top", "--events", str(log), "--format", "json"])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out.strip())
        assert envelope["error"]["code"] == "domain_error"

    def test_missing_log_is_an_envelope(self, tmp_path, capsys):
        code = main(
            ["top", "--events", str(tmp_path / "nope.jsonl"), "--once"]
        )
        assert code == 1
        envelope = json.loads(capsys.readouterr().out.strip())
        assert envelope["error"]["code"] == "not_found"
