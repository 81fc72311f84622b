"""Observability subsystem: traces, histograms, events, drift, exporters.

Layered on the PR-1 runtime: the
:class:`~repro.runtime.metrics.MetricsSink` forwards span and counter
activity to a :class:`TelemetryHub`, which assigns trace/span ids,
maintains latency :class:`Histogram` s, appends structured events to an
in-memory ring buffer (plus optional rotating JSONL files) and hosts
the per-logical-window :class:`DriftMonitor`.  Exposition lives in
:mod:`~repro.runtime.telemetry.exporters` (Prometheus text, JSON
snapshots, and event-log report rendering for the CLI).

The **always-on plane** sits on top of the request-scoped layer: a
background :class:`TelemetrySampler` snapshots counters, windowed
histogram percentiles and pool/ingest gauges into a bounded
:class:`TimeSeriesStore` every tick, the :class:`SloEngine` turns those
series into multi-window burn rates, and the hub's
:class:`AlertManager` turns breaches (and drift flags) into
edge-triggered pending/firing/resolved alert events.  A
:class:`StackProfiler` samples ``sys._current_frames()`` continuously,
and :func:`top_snapshot` / :func:`render_top` rebuild the ``repro top``
dashboard from the event log alone.

See ``docs/observability.md`` for the event schema, bucket layout,
drift thresholds, SLO semantics and exposition formats.
"""

from repro._lazy import attach

# Each name's module is imported when the name is first read.
__getattr__, __dir__ = attach(
    __name__,
    {
        "repro.runtime.telemetry.alerts": (
            "ALERT_STATE_CODES",
            "ALERT_STATES",
            "AlertManager",
            "AlertRule",
            "alert_states_from_events",
            "alert_timeline",
        ),
        "repro.runtime.telemetry.causal": (
            "causal_chain",
            "critical_path",
            "critical_path_summaries",
            "render_causal_chain",
        ),
        "repro.runtime.telemetry.drift": (
            "DriftAlert",
            "DriftMonitor",
            "DriftThresholds",
        ),
        "repro.runtime.telemetry.events": (
            "JsonlEventLog",
            "MemoryEventLog",
            "counters_from_events",
            "load_events",
            "load_events_lenient",
        ),
        "repro.runtime.telemetry.exporters": (
            "chrome_trace_from_events",
            "collapsed_from_events",
            "histograms_from_events",
            "prometheus_text",
            "reconstruct_traces",
            "render_report",
            "render_trace_tree",
            "telemetry_snapshot",
        ),
        "repro.runtime.telemetry.histogram": ("DEFAULT_LATENCY_BUCKETS", "Histogram"),
        "repro.runtime.telemetry.hub": ("TelemetryHub",),
        "repro.runtime.telemetry.sampler": ("TelemetrySampler",),
        "repro.runtime.telemetry.slo": (
            "DEFAULT_BURN_RULES",
            "BurnRateRule",
            "SloEngine",
            "SloObjective",
            "default_objectives",
        ),
        "repro.runtime.telemetry.stackprof": ("StackProfiler",),
        "repro.runtime.telemetry.timeseries": (
            "TimeSeriesStore",
            "sample_gauge_values",
            "timeseries_from_events",
        ),
        "repro.runtime.telemetry.top": ("render_top", "sparkline", "top_snapshot"),
        "repro.runtime.telemetry.tracecontext": ("TraceContext",),
    },
)

__all__ = [
    "TelemetryHub",
    "TraceContext",
    "causal_chain",
    "critical_path",
    "critical_path_summaries",
    "render_causal_chain",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "MemoryEventLog",
    "JsonlEventLog",
    "load_events",
    "load_events_lenient",
    "counters_from_events",
    "DriftMonitor",
    "DriftThresholds",
    "DriftAlert",
    "prometheus_text",
    "telemetry_snapshot",
    "reconstruct_traces",
    "render_trace_tree",
    "render_report",
    "histograms_from_events",
    "collapsed_from_events",
    "chrome_trace_from_events",
    "TimeSeriesStore",
    "timeseries_from_events",
    "sample_gauge_values",
    "TelemetrySampler",
    "AlertManager",
    "AlertRule",
    "ALERT_STATES",
    "ALERT_STATE_CODES",
    "alert_timeline",
    "alert_states_from_events",
    "SloEngine",
    "SloObjective",
    "BurnRateRule",
    "DEFAULT_BURN_RULES",
    "default_objectives",
    "StackProfiler",
    "top_snapshot",
    "render_top",
    "sparkline",
]
