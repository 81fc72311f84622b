"""SMDII back-end service layer.

The paper deploys the framework "as a back-end engine for a
fleet-readiness application within the Navy's Ship Maintenance Data
Improvement Initiative (SMDII)": an end user logged into SMDII can query
the estimated delay of any ongoing or future avail at any time.

:class:`DomdService` is that engine's request surface: JSON-dict in,
JSON-dict out, with structured error envelopes instead of exceptions —
the contract a UI layer needs.  Supported request types:

* ``{"type": "domd_query", "avail_ids": [...], "t_star": 55.0}`` (or
  ``"date": "2024-04-12"``) — Problem 1 estimates.
* ``{"type": "explain", "avail_id": 7, "t_star": 55.0, "top": 5}`` —
  the top contributing features behind an estimate.
* ``{"type": "fleet_status", "date": "..."}`` — every avail in
  execution on a date, with its current estimate.
* ``{"type": "metrics", "avail_ids": [...]}`` — Table-7-style metrics
  for a closed-avail population.
* ``{"type": "metrics"}`` (no ``avail_ids``) — telemetry exposition:
  the runtime's counter totals and latency histograms with
  p50/p90/p99 summaries (add ``"format": "prometheus"`` for the text
  exposition instead of the JSON snapshot).
* ``{"type": "health"}`` — liveness plus the timeline drift monitor's
  per-window status; ``"status"`` degrades to ``"degraded"`` while any
  window is flagged as drifted.

Any request may add ``"timings": true`` to receive a ``timings``
envelope alongside the result: the spans and counters recorded while
serving *this* request (a :class:`~repro.runtime.RunReport` delta from
the service's :class:`~repro.runtime.ExecutionContext`).  Adding
``"explain": true`` instead returns a ``plan`` field — the same delta
flattened into EXPLAIN-style operator rows
(:func:`~repro.runtime.explain.plan_from_report`): one row per span
path with call counts and seconds, plus the request's counters.

Every request is additionally served under a **fresh trace id** on the
context's :class:`~repro.runtime.TelemetryHub`: the structured event
log links the request span to every estimator / feature-extraction /
Status Query span it triggered, and failed requests emit an ``error``
event.  A request may carry a ``"traceparent"`` field (or the pool
hands over the submitter's :class:`TraceContext`) to parent the trace.

**Provenance.**  Every ok envelope carries a ``provenance`` stamp — the
model/config content hashes, the feature-tensor cache key (data
vintage), the serving watermark when live ingestion backs the service,
and the request's ``trace_id``.  The same stamp (minus the trace id) is
emitted as a ``provenance`` event, so ``repro telemetry trace`` can
walk any response back to the WAL appends that fed it.

**Error envelopes.**  Every failure — bad input, domain errors, an
expired deadline, a saturated serving pool, even an unexpected internal
fault — produces the same structured shape::

    {"ok": false,
     "error": {"code": "<machine code>", "message": "...", "retryable": bool}}

Codes: ``bad_request``, ``bad_json``, ``unknown_type``, ``not_found``,
``domain_error``, ``deadline_exceeded``, ``overloaded``, ``internal``.
``retryable`` is ``true`` exactly for the load-dependent codes
(``overloaded``, ``deadline_exceeded``): the same request may succeed
once the pool drains.  Retryable envelopes additionally carry a
top-level ``trace_id`` so the bounce correlates with its server-side
trace; deterministic input errors stay trace-free.  Raw exception text
from unexpected faults never reaches the caller.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.core.estimator import DomdEstimator
from repro.data.dates import iso_to_day
from repro.data.schema import LiveSnapshot
from repro.errors import DeadlineExceeded, ReproError
from repro.runtime import (
    ExecutionContext,
    plan_from_report,
    prometheus_text,
    telemetry_snapshot,
)
from repro.runtime.telemetry.tracecontext import TraceContext

#: Every error code the service may emit (pinned by the schema test).
ERROR_CODES = (
    "bad_request",
    "bad_json",
    "unknown_type",
    "not_found",
    "domain_error",
    "deadline_exceeded",
    "overloaded",
    "internal",
)

#: Codes where retrying the identical request may succeed (transient,
#: load-dependent failures — not input errors).
RETRYABLE_CODES = frozenset({"overloaded", "deadline_exceeded"})


def error_envelope(
    code: str, message: str, trace_id: str | None = None
) -> dict[str, Any]:
    """The one structured error shape every failure path produces.

    ``trace_id`` (attached only on *retryable* envelopes) lets a client
    correlate an ``overloaded``/``deadline_exceeded`` bounce with the
    server-side trace that produced it.  Deterministic input errors stay
    trace-free: their envelopes are pure functions of the request.
    """
    assert code in ERROR_CODES, f"unknown error code {code!r}"
    envelope: dict[str, Any] = {
        "ok": False,
        "error": {
            "code": code,
            "message": message,
            "retryable": code in RETRYABLE_CODES,
        },
    }
    if trace_id is not None and code in RETRYABLE_CODES:
        envelope["trace_id"] = trace_id
    return envelope


_error = error_envelope  # internal alias used by the handlers below


class DomdService:
    """JSON request handler over a fitted :class:`DomdEstimator`.

    Parameters
    ----------
    estimator:
        A fitted estimator.
    context:
        Execution context receiving per-request spans and counters;
        defaults to the estimator's own context so service and
        estimator metrics land in one sink.
    """

    def __init__(
        self, estimator: DomdEstimator, context: ExecutionContext | None = None
    ):
        if estimator._model_set is None:
            raise ReproError("DomdService requires a fitted estimator")
        self._estimator = estimator
        self.context = context if context is not None else estimator.context
        assert self.context is not None
        #: Set by :class:`~repro.core.server.ServicePool` when this
        #: service is pooled; ``health`` and telemetry expositions then
        #: include the pool's saturation gauges.
        self.pool: Any = None
        #: Set by a WAL-backed shard or the ``serve --follow`` path when
        #: a live :class:`~repro.stream.ingest.StreamIngestor` backs this
        #: service; ok responses then carry the watermark they answered
        #: at, health/metrics gain ingestion gauges, and :meth:`apply`
        #: feeds it.
        self.ingest: Any = None

    # ------------------------------------------------------------------
    def handle(
        self, request: dict[str, Any], parent: TraceContext | None = None
    ) -> dict[str, Any]:
        """Dispatch one request; never raises for bad input.

        When the request carries ``"timings": true`` the response gains
        a ``timings`` key with the spans/counters recorded while serving
        it (timing flows through the context's :class:`MetricsSink`; the
        service itself never reads the clock).

        ``parent`` — a :class:`TraceContext` captured on the submitting
        thread (:class:`~repro.core.server.ServicePool` hands it over) —
        parents this request's trace; when absent, a ``"traceparent"``
        request field is honoured instead, so external callers can
        stitch their own traces to the server's.
        """
        if not isinstance(request, dict):
            return _error("bad_request", "request must be a JSON object")
        request_type = request.get("type")
        handlers = {
            "domd_query": self._handle_query,
            "explain": self._handle_explain,
            "fleet_status": self._handle_fleet_status,
            "metrics": self._handle_metrics,
            "health": self._handle_health,
        }
        handler = handlers.get(request_type)
        if handler is None:
            return _error(
                "unknown_type",
                f"unknown request type {request_type!r}; expected one of {sorted(handlers)}",
            )
        telemetry = self.context.metrics.telemetry
        if parent is None:
            parent = TraceContext.from_traceparent(request.get("traceparent"))
        trace_scope = (
            telemetry.trace("request", request_type=request_type, parent=parent)
            if telemetry is not None
            else contextlib.nullcontext()
        )
        with trace_scope:
            self.context.counter("service.requests")
            try:
                with self.context.metrics.capture() as captured:
                    with self.context.span(f"request.{request_type}"):
                        result = handler(request)
                response: dict[str, Any] = {"ok": True, "result": result}
                if self.ingest is not None:
                    # The "as of" stamp: every effect of WAL records up
                    # to this seq is visible to the answer above.
                    response["watermark"] = self.ingest.watermark
                response["provenance"] = self._provenance_stamp(
                    telemetry, request_type
                )
                if request.get("timings"):
                    response["timings"] = captured.report.as_dict()
                if request.get("explain"):
                    response["plan"] = plan_from_report(captured.report)
                return response
            except DeadlineExceeded as exc:
                return self._record_error(telemetry, "deadline_exceeded", str(exc))
            except ReproError as exc:
                return self._record_error(telemetry, "domain_error", str(exc))
            except KeyError as exc:
                name = exc.args[0] if exc.args else "?"
                return self._record_error(
                    telemetry, "bad_request", f"missing required field {name!r}"
                )
            except (TypeError, ValueError) as exc:
                return self._record_error(telemetry, "bad_request", str(exc))
            except Exception as exc:  # noqa: BLE001 — the envelope contract:
                # unexpected faults must not leak raw exception text.
                return self._record_error(
                    telemetry,
                    "internal",
                    f"internal error while serving {request_type!r}"
                    f" ({type(exc).__name__})",
                )

    def _provenance_stamp(self, telemetry: Any, request_type: str) -> dict[str, Any]:
        """The stamp every ok envelope carries: what produced this answer.

        All fields except ``trace_id`` are deterministic functions of the
        served state, so two runs over the same data produce identical
        stamps — pinned by the differential stress suite.
        """
        stamp: dict[str, Any] = dict(self._estimator.provenance())
        if self.ingest is not None:
            stamp["watermark"] = self.ingest.watermark
        if telemetry is not None:
            # Logged before trace_id joins the stamp: the event already
            # carries the trace id, and the logged fields stay the
            # reproducible (deterministic) part of the stamp.
            telemetry.emit("provenance", request_type=request_type, **stamp)
            stamp["trace_id"] = telemetry.trace_id
        return stamp

    def _record_error(
        self, telemetry: Any, code: str, message: str
    ) -> dict[str, Any]:
        self.context.counter("service.errors")
        if telemetry is not None:
            telemetry.emit("error", code=code, message=message)
        return _error(
            code,
            message,
            trace_id=telemetry.trace_id if telemetry is not None else None,
        )

    # ------------------------------------------------------------------
    def _parse_date(self, date: Any) -> int:
        """Validate and convert an ISO date; clean errors, no internals."""
        if not isinstance(date, str) or not date:
            raise ValueError(
                "'date' must be a non-empty ISO date string (YYYY-MM-DD)"
            )
        try:
            return iso_to_day(date)
        except ValueError:
            raise ValueError(
                f"malformed 'date' {date!r}: expected ISO format YYYY-MM-DD"
            ) from None

    def _validate_t_star(self, t_star: Any) -> float:
        if isinstance(t_star, bool) or not isinstance(t_star, (int, float)):
            raise ValueError(
                f"'t_star' must be a number, got {type(t_star).__name__}"
            )
        value = float(t_star)
        if not math.isfinite(value):
            raise ValueError(f"'t_star' must be finite, got {t_star!r}")
        return value

    def _resolve_time(self, request: dict[str, Any]) -> dict[str, Any]:
        t_star = request.get("t_star")
        date = request.get("date")
        if (t_star is None) == (date is None):
            raise ValueError("provide exactly one of 't_star' / 'date'")
        if t_star is not None:
            return {"t_star": self._validate_t_star(t_star)}
        return {"physical_day": float(self._parse_date(date))}

    def _handle_query(self, request: dict[str, Any]) -> list[dict[str, Any]]:
        avail_ids = [int(a) for a in request["avail_ids"]]
        estimates = self._estimator.query(avail_ids, **self._resolve_time(request))
        return [estimate.as_dict() for estimate in estimates]

    def _handle_explain(self, request: dict[str, Any]) -> dict[str, Any]:
        avail_id = int(request["avail_id"])
        t_star = self._validate_t_star(request["t_star"])
        top = int(request.get("top", 5))
        contributions = self._estimator.explain(avail_id, t_star, top=top)
        return {
            "avail_id": avail_id,
            "t_star": t_star,
            "contributions": [
                {"feature": c.name, "days": c.contribution, "value": c.value}
                for c in contributions
            ],
        }

    def _handle_fleet_status(self, request: dict[str, Any]) -> list[dict[str, Any]]:
        date = request.get("date")
        if date is None:
            raise ValueError("'date' is required for fleet_status")
        day = self._parse_date(date)
        dataset = self._estimator._dataset
        assert dataset is not None
        avails = dataset.avails
        act_start = np.asarray(avails["act_start"])
        planned = np.asarray(avails["planned_duration"])
        progress = (day - act_start) / planned * 100.0
        executing = (progress >= 0.0) & (progress <= 100.0)
        executing_rows = np.flatnonzero(executing)
        # One query for the whole executing fleet: it predicts each
        # window model once, over every avail whose current window
        # reaches it, so the cost is bounded by the timeline's window
        # count in model calls, not by the executing-fleet size.
        estimates = self._estimator.query(
            [int(avails["avail_id"][row]) for row in executing_rows],
            physical_day=float(day),
        )
        out = [
            {
                "avail_id": estimate.avail_id,
                "ship_id": int(avails["ship_id"][row]),
                "progress_pct": round(float(progress[row]), 1),
                "estimated_delay_days": estimate.current_estimate,
            }
            for row, estimate in zip(executing_rows, estimates)
        ]
        out.sort(key=lambda item: -item["estimated_delay_days"])
        return out

    def _handle_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        if "avail_ids" in request:
            # Model-quality metrics over a closed-avail population.
            avail_ids = np.asarray(
                [int(a) for a in request["avail_ids"]], dtype=np.int64
            )
            return self._estimator.evaluate(avail_ids)
        # Telemetry exposition of the runtime itself.
        pool_status = self.pool.status() if self.pool is not None else None
        ingest_status = self.ingest.status() if self.ingest is not None else None
        exposition_format = request.get("format", "json")
        if exposition_format == "prometheus":
            return {
                "format": "prometheus",
                "exposition": prometheus_text(
                    self.context.metrics,
                    pool_status=pool_status,
                    ingest_status=ingest_status,
                ),
            }
        if exposition_format != "json":
            raise ValueError(
                f"'format' must be 'json' or 'prometheus', got {exposition_format!r}"
            )
        return telemetry_snapshot(
            self.context.metrics,
            pool_status=pool_status,
            ingest_status=ingest_status,
        )

    def _handle_health(self, request: dict[str, Any]) -> dict[str, Any]:
        counters = self.context.metrics.counters
        telemetry = self.context.metrics.telemetry
        drift_status: dict[str, Any] = {}
        flagged: list[dict[str, Any]] = []
        firing: list[str] = []
        alert_status: dict[str, Any] = {}
        if telemetry is not None:
            drift_status = telemetry.drift.status()
            flagged = telemetry.drift.flagged()
            # Any firing alert — an SLO burning its budget, a drifted
            # window — degrades health the same way a raw drift flag
            # does: the alert plane is the service's own view of itself.
            firing = telemetry.alerts.firing()
            alert_status = telemetry.alerts.status()
        response = {
            "status": "degraded" if flagged or firing else "ok",
            "fitted": self._estimator._model_set is not None,
            "requests": counters.get("service.requests", 0),
            "errors": counters.get("service.errors", 0),
            "drift": {"flagged": flagged, "windows": drift_status},
            "alerts": {"firing": firing, "states": alert_status},
        }
        if self.pool is not None:
            # A saturated pool degrades health before requests start
            # bouncing: the queue is full and the next submit would be
            # rejected with an ``overloaded`` envelope.
            pool_status = self.pool.status()
            response["pool"] = pool_status
            if pool_status.get("saturated") and response["status"] == "ok":
                response["status"] = "saturated"
        if self.ingest is not None:
            response["ingest"] = self.ingest.status()
        return response

    # ------------------------------------------------------------------
    def apply(self, records: Sequence[Any]) -> dict[str, Any]:
        """Apply WAL records to :attr:`ingest`, then serve what they moved.

        The one write path of live serving: shard ``ingest``, shard
        start-up replay and ``serve --follow`` all call it.  Whenever the
        watermark moved — even when a record failed part way and the
        error propagates — :meth:`rebind` refreshes the avails the
        applied prefix touched, so an answer stamped with watermark *w*
        reflects every record <= *w*.  A batch that moves the watermark
        but touches no avail still re-stamps ``feature_key``.  **Must
        be called under the write side of the serving gate** once
        requests can run.
        """
        watermark = self.ingest.watermark
        try:
            return self.ingest.apply_batch(records)
        finally:
            if self.ingest.watermark != watermark:
                self.rebind(self.ingest.take_touched())

    def rebind(self, touched: Iterable[int]) -> None:
        """Serve the live state of :attr:`ingest` at its watermark.

        ``touched`` are the avails the applied WAL records changed
        (:meth:`~repro.stream.ingest.StreamIngestor.take_touched`).  The
        store hands over their sub-snapshot and the avail table, and
        :meth:`DomdEstimator.advance` re-extracts only their feature
        rows, so the cost grows with the touched avails, not with the
        store.  **Must be called under the write side of the serving
        gate** so no in-flight request observes the swap.
        """
        store = self.ingest.store
        live = LiveSnapshot(
            ships=store.ships,
            avails=store.avails_table(),
            watermark=self.ingest.watermark,
        )
        self._estimator = self._estimator.advance(live, store.dataset_for(touched))
