"""Runtime behaviour of the service layer: timings envelope, batched
fleet_status queries, and structured input validation."""

import json
import math

import numpy as np
import pytest

from repro.core import DomdEstimator, PipelineConfig
from repro.core.service import DomdService
from repro.data.dates import day_to_iso
from repro.ml import GbmParams
from repro.runtime import ExecutionContext


@pytest.fixture(scope="module")
def fitted(request):
    dataset = request.getfixturevalue("small_dataset")
    splits = request.getfixturevalue("small_splits")
    config = PipelineConfig(
        window_pct=25.0, k=8, fusion="average", gbm=GbmParams(n_estimators=20)
    )
    estimator = DomdEstimator(config).fit(dataset, splits.train_ids)
    return estimator


@pytest.fixture()
def service(fitted):
    # shares the estimator's context; per-request counters come from the
    # capture delta, so accumulation across tests is fine
    return DomdService(fitted)


def _busiest_day(dataset) -> int:
    """The act_start date with the most concurrently executing avails."""
    starts = np.asarray(dataset.avails["act_start"], dtype=np.int64)
    planned = np.asarray(dataset.avails["planned_duration"], dtype=np.int64)
    counts = [int(np.sum((d >= starts) & (d <= starts + planned))) for d in starts]
    return int(starts[int(np.argmax(counts))])


class TestTimingsEnvelope:
    def test_timings_absent_by_default(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": 60.0}
        )
        assert response["ok"]
        assert "timings" not in response

    def test_timings_envelope_shape(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": 60.0, "timings": True}
        )
        assert response["ok"]
        timings = response["timings"]
        json.dumps(timings)  # serialisable
        spans = {s["name"] for s in timings["spans"]}
        assert spans == {"request.domd_query"}
        assert timings["counters"]["estimator.queries"] == 1
        assert timings["counters"]["estimator.queried_avails"] == 1

    def test_timings_are_per_request_deltas(self, service):
        for _ in range(3):
            response = service.handle(
                {"type": "domd_query", "avail_ids": [0], "t_star": 60.0, "timings": True}
            )
        # third response still reports exactly one query, not three
        assert response["timings"]["counters"]["estimator.queries"] == 1
        assert response["timings"]["spans"][0]["count"] == 1

    def test_service_defaults_to_estimator_context(self, fitted):
        service = DomdService(fitted)
        assert service.context is fitted.context

    def test_explicit_context_receives_request_spans(self, fitted):
        context = ExecutionContext()
        service = DomdService(fitted, context=context)
        response = service.handle({"type": "explain", "avail_id": 0, "t_star": 50.0})
        assert response["ok"]
        assert "request.explain" in context.report().span_names()


class TestFleetStatusBatching:
    def test_queries_bounded_by_window_count(
        self, service, small_dataset, monkeypatch
    ):
        day = _busiest_day(small_dataset)
        model_set = service._estimator._model_set
        predicted_rows = []
        predict_window = model_set.predict_window

        def counting(X_static, X_dyn, window_index):
            predicted_rows.append(len(X_static))
            return predict_window(X_static, X_dyn, window_index)

        monkeypatch.setattr(model_set, "predict_window", counting)
        response = service.handle(
            {"type": "fleet_status", "date": day_to_iso(day), "timings": True}
        )
        assert response["ok"]
        rows = response["result"]
        counters = response["timings"]["counters"]
        n_windows = service._estimator.timeline.n_models
        assert len(rows) > n_windows, "need more executing avails than windows"
        # one estimator query, one model call per reached window, NOT
        # one per avail
        assert counters["estimator.queries"] == 1
        assert counters["estimator.queried_avails"] == len(rows)
        assert 1 <= len(predicted_rows) <= n_windows
        # window 0 is reached by every executing avail
        assert predicted_rows[0] == len(rows)

    def test_batched_results_match_per_avail_queries(self, service, small_dataset):
        day = int(np.percentile(small_dataset.avails["act_start"], 70))
        response = service.handle({"type": "fleet_status", "date": day_to_iso(day)})
        assert response["ok"]
        avails = small_dataset.avails
        avail_ids = np.asarray(avails["avail_id"])
        for row in response["result"]:
            idx = int(np.flatnonzero(avail_ids == row["avail_id"])[0])
            exact_t = (
                (day - float(avails["act_start"][idx]))
                / float(avails["planned_duration"][idx])
                * 100.0
            )
            single = service._estimator.query([row["avail_id"]], t_star=exact_t)[0]
            assert row["estimated_delay_days"] == single.current_estimate

    def test_output_sorted_by_delay_descending(self, service, small_dataset):
        day = int(np.percentile(small_dataset.avails["act_start"], 70))
        response = service.handle({"type": "fleet_status", "date": day_to_iso(day)})
        delays = [r["estimated_delay_days"] for r in response["result"]]
        assert delays == sorted(delays, reverse=True)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_t_star_rejected(self, service, bad):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": bad}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"
        assert "finite" in response["error"]["message"]

    @pytest.mark.parametrize("bad", ["60", True, [60.0], {"v": 1}])
    def test_non_numeric_t_star_rejected(self, service, bad):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": bad}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"
        assert "must be a number" in response["error"]["message"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "60", [60.0]])
    def test_explain_t_star_validated_like_query(self, service, bad):
        response = service.handle(
            {"type": "explain", "avail_id": 0, "t_star": bad}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"
        assert "'t_star'" in response["error"]["message"]

    @pytest.mark.parametrize(
        "bad_date", ["not-a-date", "2024-13-45", "04/12/2024", "", 20240412]
    )
    def test_malformed_dates_rejected_cleanly(self, service, bad_date):
        for request_type in ("domd_query", "fleet_status"):
            request = {"type": request_type, "avail_ids": [0], "date": bad_date}
            response = service.handle(request)
            assert not response["ok"]
            assert response["error"]["code"] == "bad_request"
            message = response["error"]["message"]
            # structured message, no internals leaking
            assert "numpy" not in message.lower()
            assert "Traceback" not in message

    def test_valid_float_t_star_still_accepted(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": 60}
        )
        assert response["ok"]
        assert math.isfinite(response["result"][0]["current"])

    def test_error_responses_skip_timings(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": float("nan"), "timings": True}
        )
        assert not response["ok"]
        assert "timings" not in response


class TestExplainPlanEnvelope:
    def test_plan_absent_by_default(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": 60.0}
        )
        assert response["ok"]
        assert "plan" not in response

    def test_explain_true_attaches_plan(self, service):
        response = service.handle(
            {"type": "domd_query", "avail_ids": [0], "t_star": 60.0, "explain": True}
        )
        assert response["ok"]
        plan = response["plan"]
        json.dumps(plan)  # serialisable as-is
        ops = {row["op"] for row in plan["operators"]}
        assert "request.domd_query" in ops
        # nested spans flatten to /-joined operator paths
        assert any(op.startswith("request.domd_query/") for op in ops)
        assert plan["counters"]["estimator.queries"] == 1
        assert plan["total_seconds"] > 0

    def test_explain_composes_with_timings(self, service):
        response = service.handle(
            {
                "type": "domd_query",
                "avail_ids": [0],
                "t_star": 60.0,
                "explain": True,
                "timings": True,
            }
        )
        assert response["ok"]
        assert "plan" in response and "timings" in response
        # both envelopes describe the same capture modulo rounding
        span_seconds = sum(s["seconds"] for s in response["timings"]["spans"])
        assert response["plan"]["total_seconds"] == pytest.approx(
            span_seconds, rel=1e-3
        )

    def test_plan_is_per_request_delta(self, service):
        for _ in range(2):
            response = service.handle(
                {"type": "health", "explain": True}
            )
        ops = {row["op"]: row for row in response["plan"]["operators"]}
        assert ops["request.health"]["calls"] == 1
