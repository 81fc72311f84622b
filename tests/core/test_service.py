"""Tests for the SMDII JSON service layer."""

import json

import numpy as np
import pytest

from repro.core import DomdEstimator, PipelineConfig
from repro.core.service import ERROR_CODES, RETRYABLE_CODES, DomdService, error_envelope
from repro.data.dates import day_to_iso
from repro.errors import ReproError
from repro.ml import GbmParams


@pytest.fixture(scope="module")
def service(request):
    dataset = request.getfixturevalue("small_dataset")
    splits = request.getfixturevalue("small_splits")
    config = PipelineConfig(window_pct=25.0, k=8, fusion="average", gbm=GbmParams(n_estimators=20))
    estimator = DomdEstimator(config).fit(dataset, splits.train_ids)
    return DomdService(estimator)


class TestQuery:
    def test_happy_path(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0, 1], "t_star": 60.0}
        )
        assert response["ok"]
        assert len(response["result"]) == 2
        assert response["result"][0]["windows"] == [0.0, 25.0, 50.0]
        json.dumps(response)  # fully serialisable

    def test_query_by_date(self, service, small_dataset):
        avail = small_dataset.avail(0)
        mid = avail.act_start + avail.planned_duration // 2
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "date": day_to_iso(mid)}
        )
        assert response["ok"]

    def test_both_times_rejected(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": 1.0, "date": "2020-01-01"}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"

    def test_unknown_avail_is_domain_error(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [424242], "t_star": 10.0}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "domain_error"


class TestExplain:
    def test_contributions_shape(self, service):
        response = service.handle({"type": "explain", "avail_id": 0, "t_star": 50.0})
        assert response["ok"]
        contributions = response["result"]["contributions"]
        assert len(contributions) == 5
        assert {"feature", "days", "value"} <= set(contributions[0])

    def test_top_parameter(self, service):
        response = service.handle(
            {"type": "explain", "avail_id": 0, "t_star": 50.0, "top": 3}
        )
        assert len(response["result"]["contributions"]) == 3


class TestFleetStatus:
    def test_lists_executing_avails(self, service, small_dataset):
        day = int(np.percentile(small_dataset.avails["act_start"], 70))
        response = service.handle({"type": "fleet_status", "date": day_to_iso(day)})
        assert response["ok"]
        rows = response["result"]
        assert rows, "some avails should be executing"
        delays = [r["estimated_delay_days"] for r in rows]
        assert delays == sorted(delays, reverse=True)

    def test_missing_date(self, service):
        response = service.handle({"type": "fleet_status"})
        assert not response["ok"]


class TestMetricsAndEnvelope:
    def test_metrics(self, service, small_splits):
        response = service.handle(
            {"type": "metrics", "avail_ids": [int(a) for a in small_splits.test_ids]}
        )
        assert response["ok"]
        assert "average" in response["result"]

    def test_unknown_type(self, service):
        response = service.handle({"type": "teleport"})
        assert not response["ok"]
        assert response["error"]["code"] == "unknown_type"

    def test_non_dict_request(self, service):
        response = service.handle("not a dict")
        assert not response["ok"]

    def test_missing_field(self, service):
        response = service.handle({"type": "domd_query", "t_star": 5.0})
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"

    def test_requires_fitted_estimator(self):
        with pytest.raises(ReproError):
            DomdService(DomdEstimator(PipelineConfig()))


class TestErrorEnvelopeSchema:
    """Pin the structured error envelope: every failure path must produce
    exactly ``{"ok": False, "error": {"code", "message", "retryable"}}``
    with a code from the published enumeration and no raw exception text
    for internal faults."""

    FAILING_REQUESTS = [
        "not a dict",  # bad_request
        {"type": "teleport"},  # unknown_type
        {"type": "domd_query", "t_star": 5.0},  # bad_request (missing field)
        {"type": "domd_query", "avail_ids": [424242], "t_star": 10.0},  # domain_error
        {"type": "domd_query", "avail_ids": [0], "t_star": 1.0, "date": "2020-01-01"},
        {"type": "fleet_status"},  # bad_request (missing date)
        {"type": "fleet_status", "date": "never"},  # unparseable date
        {"type": "explain", "avail_id": 0},  # missing t_star/date
    ]

    def test_published_code_enumeration_is_stable(self):
        assert ERROR_CODES == (
            "bad_request",
            "bad_json",
            "unknown_type",
            "not_found",
            "domain_error",
            "deadline_exceeded",
            "overloaded",
            "internal",
        )
        assert RETRYABLE_CODES == {"overloaded", "deadline_exceeded"}

    @pytest.mark.parametrize("request_body", FAILING_REQUESTS)
    def test_every_failure_path_matches_the_schema(self, service, request_body):
        response = service.handle(request_body)
        assert set(response) == {"ok", "error"}
        assert response["ok"] is False
        error = response["error"]
        assert set(error) == {"code", "message", "retryable"}
        assert error["code"] in ERROR_CODES
        assert isinstance(error["message"], str) and error["message"]
        assert error["retryable"] is (error["code"] in RETRYABLE_CODES)
        json.dumps(response)  # fully serialisable

    def test_error_envelope_helper_rejects_unknown_codes(self):
        with pytest.raises(AssertionError):
            error_envelope("made_up_code", "nope")

    def test_internal_errors_hide_exception_text(self, service, monkeypatch):
        def explode(*_args, **_kwargs):
            raise RuntimeError("secret traceback detail")

        monkeypatch.setattr(service._estimator, "query", explode)
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": 60.0}
        )
        assert response["error"]["code"] == "internal"
        assert "secret traceback detail" not in response["error"]["message"]
        assert "RuntimeError" in response["error"]["message"]


class TestRetryableTraceIds:
    """Only retryable envelopes carry a top-level ``trace_id`` — the
    correlation handle a client quotes when reporting an overloaded or
    deadline-exceeded response.  Deterministic (non-retryable) error
    envelopes stay byte-identical to the pre-tracing schema."""

    def test_retryable_helper_attaches_the_trace_id(self):
        envelope = error_envelope("overloaded", "queue full", trace_id="T0000002a")
        assert envelope["trace_id"] == "T0000002a"
        assert envelope["error"]["retryable"] is True
        envelope = error_envelope("deadline_exceeded", "late", trace_id="T0000002b")
        assert envelope["trace_id"] == "T0000002b"

    def test_non_retryable_never_carries_a_trace_id(self):
        for code in set(ERROR_CODES) - RETRYABLE_CODES:
            envelope = error_envelope(code, "nope", trace_id="T0000002a")
            assert set(envelope) == {"ok", "error"}, code

    def test_trace_id_none_is_omitted(self):
        assert "trace_id" not in error_envelope("overloaded", "queue full")


class TestProvenanceStamp:
    """Every ok envelope is provenance-stamped: what model/config/feature
    state produced this answer, reproducibly — only ``trace_id`` may
    differ between identical requests."""

    REQUIRED = {"model_hash", "config_hash", "feature_key", "trace_id"}
    OPTIONAL = {"watermark"}

    def test_ok_envelope_key_set_is_pinned(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": 60.0}
        )
        assert response["ok"]
        stamp = response["provenance"]
        assert self.REQUIRED <= set(stamp)
        assert set(stamp) <= self.REQUIRED | self.OPTIONAL
        assert all(
            isinstance(stamp[key], str) and stamp[key]
            for key in ("model_hash", "config_hash", "feature_key", "trace_id")
        )
        json.dumps(response)  # fully serialisable

    def test_stamp_is_deterministic_except_trace_id(self, service):
        request = {"type": "domd_query", "avail_ids": [0], "t_star": 60.0}
        first = service.handle(request)["provenance"]
        second = service.handle(request)["provenance"]
        assert first["trace_id"] != second["trace_id"]
        strip = lambda stamp: {  # noqa: E731
            key: value for key, value in stamp.items() if key != "trace_id"
        }
        assert strip(first) == strip(second)

    def test_all_ok_request_types_are_stamped(self, service, small_dataset):
        from repro.data.dates import day_to_iso

        some_day = int(small_dataset.avails["act_start"][0]) + 10
        for request in (
            {"type": "explain", "avail_id": 0, "t_star": 50.0},
            {"type": "fleet_status", "date": day_to_iso(some_day)},
            {"type": "health"},
        ):
            response = service.handle(request)
            assert response["ok"]
            assert self.REQUIRED <= set(response["provenance"]), request

    def test_error_envelopes_are_not_stamped(self, service):
        response = service.handle({"type": "teleport"})
        assert "provenance" not in response

    def test_trace_id_points_into_the_event_log(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": 60.0}
        )
        trace_id = response["provenance"]["trace_id"]
        events = service.context.telemetry.events()
        opens = [
            e
            for e in events
            if e["kind"] == "trace_open" and e["trace_id"] == trace_id
        ]
        assert len(opens) == 1 and opens[0]["name"] == "request"
        stamps = [
            e
            for e in events
            if e["kind"] == "provenance" and e["trace_id"] == trace_id
        ]
        assert len(stamps) == 1
        assert stamps[0]["model_hash"] == response["provenance"]["model_hash"]
        assert stamps[0]["config_hash"] == response["provenance"]["config_hash"]
