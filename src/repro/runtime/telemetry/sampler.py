"""The background telemetry sampler: request metrics → time series.

Everything the serving stack measures is request-scoped until it passes
through here.  A :class:`TelemetrySampler` runs on a
:class:`~repro.runtime.concurrency.PeriodicWorker` and, once per tick:

1. **collects** a flat gauge snapshot — counter totals *and* per-tick
   rates from the :class:`~repro.runtime.metrics.MetricsSink`, windowed
   histogram percentiles (delta between consecutive ticks, so a
   latency spike decays when the traffic does, unlike the cumulative
   histograms), drift-flag counts, and every registered source
   (:meth:`ServicePool.sample_gauges
   <repro.core.server.ServicePool.sample_gauges>`,
   :meth:`StreamIngestor.gauges <repro.stream.ingest.StreamIngestor.gauges>`);
2. **records** the snapshot atomically into the
   :class:`~repro.runtime.telemetry.timeseries.TimeSeriesStore`;
3. **persists** it as one ``sample`` event through the hub (ring buffer
   + any JSONL sinks), so the history survives the process and
   ``repro top`` can reconstruct it offline;
4. **evaluates** the :class:`~repro.runtime.telemetry.slo.SloEngine`
   and feeds each objective's breach verdict to the hub's
   :class:`~repro.runtime.telemetry.alerts.AlertManager` as an
   ``slo:<objective>`` condition (emitting ``slo`` budget events when
   bad samples arrived).

The sampler never touches the request path: collection reads locked
snapshots the serving threads already maintain.  Its CPU, with the
continuous profiler beside it, stays within 2% of the serving thread's
(``benchmarks/bench_observability_overhead.py``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.runtime.concurrency import PeriodicWorker
from repro.runtime.metrics import MetricsSink
from repro.runtime.telemetry.histogram import Histogram
from repro.runtime.telemetry.slo import SloEngine
from repro.runtime.telemetry.timeseries import (
    TimeSeriesStore,
    sample_gauge_values,
)

#: Histogram quantiles sampled per tick.
_HIST_QUANTILES = ((0.5, "p50"), (0.99, "p99"))

#: Per-type request histograms (``span.request.<type>``) additionally
#: fold into one synthetic ``span.request`` family series per tick —
#: the series the default latency SLO watches.
_REQUEST_FAMILY = "span.request"


class _HistCursor:
    """Last-seen cumulative state of one histogram (delta computation)."""

    __slots__ = ("bucket_counts", "count", "total")

    def __init__(self) -> None:
        self.bucket_counts: tuple[int, ...] = ()
        self.count = 0
        self.total = 0.0


class TelemetrySampler:
    """Periodic gauge snapshots over one runtime's metrics sink.

    Parameters
    ----------
    sink:
        The runtime's :class:`MetricsSink`; its attached hub supplies
        histograms, the drift monitor, the alert manager and the event
        log.
    store:
        Time-series destination; a fresh bounded store by default.
    interval:
        Seconds between ticks when run via :meth:`start`.
    slo:
        Optional SLO engine evaluated every tick.
    clock:
        Wall-clock override for tests; defaults to ``time.time``.
    emit_events:
        When false the sampler fills the store without emitting
        ``sample`` events (benchmark isolation).
    """

    def __init__(
        self,
        sink: MetricsSink,
        store: TimeSeriesStore | None = None,
        interval: float = 1.0,
        slo: SloEngine | None = None,
        clock: Callable[[], float] = time.time,
        emit_events: bool = True,
    ):
        if interval <= 0:
            raise ConfigurationError(
                f"sampler interval must be positive, got {interval}"
            )
        if sink.telemetry is None:
            raise ConfigurationError("sampler needs a sink with a telemetry hub")
        self.sink = sink
        self.hub = sink.telemetry
        self.store = store if store is not None else TimeSeriesStore()
        self.interval = float(interval)
        self.slo = slo
        self.emit_events = emit_events
        self._clock = clock
        self._sources: list[tuple[str, Callable[[], Mapping[str, Any]]]] = []
        self._prev_counters: dict[str, float] = {}
        self._hist_cursors: dict[str, _HistCursor] = {}
        self._last_tick_ts: float | None = None
        self._worker: PeriodicWorker | None = None
        self.ticks = 0

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def add_source(
        self, prefix: str, fn: Callable[[], Mapping[str, Any]]
    ) -> None:
        """Register a gauge source polled every tick.

        ``fn`` returns a status dict; numeric entries (one nested level
        allowed) become ``<prefix>.<key>`` series.  A source that raises
        is skipped for that tick — observability must not crash serving.
        """
        self._sources.append((str(prefix), fn))

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def _collect_counters(self, metrics: dict[str, float], dt: float | None) -> None:
        counters = self.sink.counters
        for name, total in counters.items():
            metrics[f"counter.{name}"] = float(total)
            if dt is not None and dt > 0:
                delta = float(total) - self._prev_counters.get(name, 0.0)
                metrics[f"rate.{name}"] = max(delta, 0.0) / dt
        # Derived error-envelope ratio per tick (an SLO input): errors
        # per request over this tick's fresh traffic only.
        if dt is not None:
            req_delta = counters.get("service.requests", 0.0) - self._prev_counters.get(
                "service.requests", 0.0
            )
            err_delta = counters.get("service.errors", 0.0) - self._prev_counters.get(
                "service.errors", 0.0
            )
            if req_delta > 0:
                metrics["ratio.service.error_rate"] = max(err_delta, 0.0) / req_delta
        self._prev_counters = dict(counters)

    def _collect_histograms(self, metrics: dict[str, float]) -> None:
        aggregate: Histogram | None = None
        for name, histogram in self.hub.histograms.items():
            cursor = self._hist_cursors.get(name)
            if cursor is None:
                cursor = self._hist_cursors[name] = _HistCursor()
                cursor.bucket_counts = (0,) * len(histogram.bucket_counts)
            delta_count = histogram.count - cursor.count
            if delta_count <= 0:
                # No fresh observations this tick: emit nothing rather
                # than repeating stale percentiles — SLO windows then
                # see only ticks that carried traffic.
                continue
            delta = Histogram(histogram.bounds)
            delta.bucket_counts = [
                current - previous
                for current, previous in zip(
                    histogram.bucket_counts, cursor.bucket_counts
                )
            ]
            delta.count = delta_count
            delta.total = histogram.total - cursor.total
            # Interpolation cap for the overflow bucket: the cumulative
            # max is the tightest bound we still have for the delta.
            delta.max = histogram.max
            delta.min = histogram.min
            for q, label in _HIST_QUANTILES:
                metrics[f"hist.{name}.{label}"] = delta.percentile(q)
            metrics[f"hist.{name}.count"] = float(delta_count)
            cursor.bucket_counts = tuple(histogram.bucket_counts)
            cursor.count = histogram.count
            cursor.total = histogram.total
            # Fold every request-family delta (``span.request.<type>``)
            # into one synthetic ``span.request`` series — the latency
            # SLO watches requests as a whole, not one type at a time.
            if name == _REQUEST_FAMILY or name.startswith(_REQUEST_FAMILY + "."):
                if aggregate is None:
                    aggregate = Histogram(histogram.bounds)
                    aggregate.max = delta.max
                    aggregate.min = delta.min
                if aggregate.bounds == delta.bounds:
                    aggregate.bucket_counts = [
                        a + b
                        for a, b in zip(
                            aggregate.bucket_counts, delta.bucket_counts
                        )
                    ]
                    aggregate.count += delta.count
                    aggregate.total += delta.total
                    aggregate.max = max(aggregate.max, delta.max)
                    aggregate.min = min(aggregate.min, delta.min)
        if aggregate is not None and aggregate.count > 0:
            for q, label in _HIST_QUANTILES:
                metrics[f"hist.{_REQUEST_FAMILY}.{label}"] = aggregate.percentile(q)
            metrics[f"hist.{_REQUEST_FAMILY}.count"] = float(aggregate.count)

    def collect(self, now: float) -> dict[str, float]:
        """One flat gauge snapshot (pure read; no store/event writes)."""
        metrics: dict[str, float] = {}
        dt = None if self._last_tick_ts is None else now - self._last_tick_ts
        self._collect_counters(metrics, dt)
        self._collect_histograms(metrics)
        metrics["drift.flagged"] = float(len(self.hub.drift.flagged()))
        for prefix, fn in self._sources:
            try:
                raw = fn()
            except Exception:  # noqa: BLE001 — a dead source must not stop the tick
                continue
            metrics.update(sample_gauge_values(raw, prefix))
        return metrics

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def tick(self, now: float | None = None) -> dict[str, float]:
        """Collect, record, persist and evaluate once; returns the gauges."""
        ts = round(float(now) if now is not None else self._clock(), 6)
        metrics = self.collect(ts)
        self._last_tick_ts = ts
        self.store.record_many(ts, metrics)
        if self.emit_events:
            # ``ts`` overrides the hub's own stamp so the persisted
            # event reconstructs the store bit-for-bit (offline parity).
            self.hub.emit("sample", ts=ts, metrics=metrics, interval=self.interval)
        if self.slo is not None:
            for verdict in self.slo.evaluate(ts):
                worst = max(
                    verdict["windows"],
                    key=lambda w: min(w["burn_short"], w["burn_long"]),
                )
                self.hub.alerts.set_condition(
                    f"slo:{verdict['objective']}",
                    verdict["breached"],
                    now=ts,
                    burn_short=worst["burn_short"],
                    burn_long=worst["burn_long"],
                    budget_spent=verdict["budget_spent"],
                )
                if verdict["bad_delta"] and self.emit_events:
                    self.hub.emit(
                        "slo",
                        objective=verdict["objective"],
                        bad_delta=verdict["bad_delta"],
                        bad_total=verdict["bad_total"],
                        samples_total=verdict["samples_total"],
                        budget_spent=verdict["budget_spent"],
                    )
        self.ticks += 1
        return metrics

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background worker (ticks once immediately)."""
        if self._worker is not None:
            return
        self._worker = PeriodicWorker(
            self.tick, self.interval, name="repro-sampler"
        )
        self._worker.start()

    def stop(self) -> None:
        """Stop the worker; one final tick captures shutdown state."""
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.stop(final_run=True)

    def status(self) -> dict[str, Any]:
        worker = self._worker
        return {
            "ticks": self.ticks,
            "interval": self.interval,
            "running": worker is not None and worker.is_alive(),
            "worker_errors": worker.errors if worker is not None else 0,
            "series": len(self.store.names()),
        }

    def __enter__(self) -> "TelemetrySampler":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"TelemetrySampler(interval={self.interval}, ticks={self.ticks}, "
            f"series={len(self.store.names())})"
        )
