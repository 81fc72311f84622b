"""Unified execution runtime: context, metrics, planning and caching.

Public API::

    from repro.runtime import (
        ExecutionContext, ensure_context,
        MetricsSink, RunReport, SpanRecord,
        IndexRegistry, DEFAULT_REGISTRY,
        QueryPlanner, WorkloadSpec, BackendCosts, PlanDecision,
        ArtifactCache, fingerprint_of, fingerprint_array,
    )

Every layer of the stack routes through this package: index backends
are chosen by the cost-based :class:`QueryPlanner`, stage timings and
counters flow into the :class:`MetricsSink`, feature tensors are
memoised in the :class:`ArtifactCache`, and the
:class:`ExecutionContext` carries all three (plus config and a seeded
RNG) through :class:`StatusQueryEngine`, :class:`StatusFeatureExtractor`,
:class:`PipelineOptimizer`, :class:`DomdEstimator`, :class:`DomdService`
and the CLI.

The observability layer lives in :mod:`repro.runtime.telemetry`: a
:class:`TelemetryHub` attached to every sink provides trace-context
propagation, latency histograms, a structured event log (with rotating
JSONL persistence), Prometheus/JSON exposition and a per-logical-window
drift monitor.  See ``docs/observability.md``.

Concurrency primitives live in :mod:`repro.runtime.concurrency`:
cooperative :class:`Deadline` cancellation threaded through the sweep
and estimator loops via :func:`check_deadline`, per-request ambient
state (:func:`ambient_scope`) and deterministic per-worker RNG streams
(:func:`worker_rng_streams`) — the substrate under the
:class:`~repro.core.server.ServicePool` serving pool.
"""

from repro._lazy import attach

# Each name's module is imported when the name is first read.
__getattr__, __dir__ = attach(
    __name__,
    {
        "repro.runtime.cache": (
            "ArtifactCache",
            "fingerprint_array",
            "fingerprint_bytes",
            "fingerprint_of",
        ),
        "repro.runtime.concurrency": (
            "Deadline",
            "ambient_scope",
            "check_deadline",
            "current_deadline",
            "current_rng",
            "worker_rng_streams",
            "PeriodicWorker",
        ),
        "repro.runtime.context": ("ExecutionContext", "ensure_context"),
        "repro.runtime.explain": (
            "ExplainResult",
            "OperatorRecorder",
            "OperatorStats",
            "QueryPlan",
            "doctor_report",
            "explain_point",
            "explain_sweep",
            "plan_from_report",
        ),
        "repro.runtime.profile": (
            "chrome_trace",
            "collapsed_stacks",
            "spans_from_report",
        ),
        "repro.runtime.metrics": ("MetricsSink", "RunReport", "SpanRecord"),
        "repro.runtime.planner": (
            "DEFAULT_COSTS",
            "DEFAULT_REGISTRY",
            "WORKLOAD_MODES",
            "BackendCosts",
            "IndexRegistry",
            "PlanDecision",
            "QueryPlanner",
            "WorkloadSpec",
        ),
        "repro.runtime.telemetry": (
            "DEFAULT_LATENCY_BUCKETS",
            "AlertManager",
            "AlertRule",
            "BurnRateRule",
            "DriftAlert",
            "DriftMonitor",
            "DriftThresholds",
            "Histogram",
            "JsonlEventLog",
            "MemoryEventLog",
            "SloEngine",
            "SloObjective",
            "StackProfiler",
            "TelemetryHub",
            "TelemetrySampler",
            "TimeSeriesStore",
            "TraceContext",
            "causal_chain",
            "chrome_trace_from_events",
            "collapsed_from_events",
            "critical_path",
            "critical_path_summaries",
            "default_objectives",
            "load_events",
            "load_events_lenient",
            "prometheus_text",
            "render_causal_chain",
            "render_report",
            "render_top",
            "telemetry_snapshot",
            "timeseries_from_events",
            "top_snapshot",
        ),
    },
)

__all__ = [
    "ExplainResult",
    "OperatorRecorder",
    "OperatorStats",
    "QueryPlan",
    "doctor_report",
    "explain_point",
    "explain_sweep",
    "plan_from_report",
    "chrome_trace",
    "collapsed_stacks",
    "spans_from_report",
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
    "collapsed_from_events",
    "chrome_trace_from_events",
    "DriftMonitor",
    "DriftThresholds",
    "DriftAlert",
    "prometheus_text",
    "telemetry_snapshot",
    "render_report",
    "TimeSeriesStore",
    "timeseries_from_events",
    "TelemetrySampler",
    "AlertManager",
    "AlertRule",
    "SloEngine",
    "SloObjective",
    "BurnRateRule",
    "default_objectives",
    "StackProfiler",
    "top_snapshot",
    "render_top",
    "PeriodicWorker",
    "Deadline",
    "ambient_scope",
    "check_deadline",
    "current_deadline",
    "current_rng",
    "worker_rng_streams",
    "ExecutionContext",
    "ensure_context",
    "MetricsSink",
    "RunReport",
    "SpanRecord",
    "ArtifactCache",
    "fingerprint_array",
    "fingerprint_bytes",
    "fingerprint_of",
    "IndexRegistry",
    "DEFAULT_REGISTRY",
    "QueryPlanner",
    "WorkloadSpec",
    "BackendCosts",
    "PlanDecision",
    "DEFAULT_COSTS",
    "WORKLOAD_MODES",
]
