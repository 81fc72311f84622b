"""``repro top`` — the live/offline terminal dashboard.

Both modes read the same structured event log: live mode re-reads the
JSONL the serving process is appending, offline mode reads it after the
fact, and both funnel through :func:`top_snapshot`, so the numbers on a
live screen and an offline replay are identical by construction (the
acceptance test pins this).  The snapshot rebuilds the time-series
store from ``sample`` events and the alert states from ``alert``
events — nothing in the dashboard requires the serving process to still
exist.

:func:`render_top` draws the text view: one header line, then qps /
latency / error-rate rows with unicode sparkline trends, pool and
ingest gauge rows, and a FIRING section naming active alerts.  With
``--format json`` the raw snapshot is printed instead, which is what
the CI smoke asserts against.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.runtime.telemetry.alerts import alert_states_from_events
from repro.runtime.telemetry.timeseries import (
    TimeSeriesStore,
    timeseries_from_events,
)

#: Sparkline ramp, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Iterable[float], width: int = 24) -> str:
    """Render values as a fixed-width unicode sparkline.

    The most recent ``width`` values are shown; a flat series renders
    as a run of the lowest glyph (the baseline carries no information,
    only shape does).
    """
    values = [float(v) for v in values][-width:]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[min(int((v - lo) / span * len(_SPARK)), len(_SPARK) - 1)]
        for v in values
    )


def _round(value: float | None, digits: int = 3) -> float | None:
    return None if value is None else round(float(value), digits)


def _latest(store: TimeSeriesStore, name: str) -> float | None:
    point = store.latest(name)
    return point[1] if point is not None else None


def _trend(
    store: TimeSeriesStore, name: str, window: float, now: float
) -> list[float]:
    return [round(v, 6) for v in store.window(name, window, now)]


def _prefixed_latest(
    store: TimeSeriesStore, prefix: str
) -> dict[str, float]:
    """Latest value of every ``<prefix>.<key>`` series, untorn."""
    names = [n for n in store.names() if n.startswith(prefix)]
    return {
        name[len(prefix) :]: round(point[1], 6)
        for name, point in store.latest_many(names).items()
    }


def _shard_gauges(store: TimeSeriesStore) -> dict[str, dict[str, float]]:
    """Regroup ``shard.<id>.<gauge>`` series into per-shard maps.

    The ``fleet`` pseudo-shard (the router's global-watermark series)
    rides along under its own key.
    """
    shards: dict[str, dict[str, float]] = {}
    for name, value in _prefixed_latest(store, "shard.").items():
        shard_id, _, gauge = name.partition(".")
        if gauge:
            shards.setdefault(shard_id, {})[gauge] = value
    return shards


def top_snapshot(
    events: Iterable[Mapping[str, Any]],
    now: float | None = None,
    window: float = 300.0,
) -> dict[str, Any]:
    """One dashboard frame, reconstructed from an event log alone.

    ``now`` defaults to the newest sample timestamp in the log — the
    right anchor for both live tails (the file ends "now") and offline
    replays (wall-clock now would put every sample outside the window).
    """
    events = list(events)
    store = timeseries_from_events(events)
    alert_states = alert_states_from_events(events)
    sample_count = sum(1 for e in events if e.get("kind") == "sample")

    latest_ts = [p[0] for name in store.names() if (p := store.latest(name))]
    ts = float(now) if now is not None else (max(latest_ts) if latest_ts else 0.0)

    p99 = _latest(store, "hist.span.request.p99")
    p50 = _latest(store, "hist.span.request.p50")
    fresh_p50 = _latest(store, "hist.freshness.event_to_queryable.p50")
    fresh_p99 = _latest(store, "hist.freshness.event_to_queryable.p99")
    link_counts: dict[str, int] = {}
    for event in events:
        if event.get("kind") == "link":
            relation = str(event.get("relation"))
            link_counts[relation] = link_counts.get(relation, 0) + 1
    snapshot: dict[str, Any] = {
        "ts": round(ts, 6),
        "window_seconds": window,
        "samples": sample_count,
        "series": len(store.names()),
        "qps": {
            "current": _round(_latest(store, "rate.service.requests")),
            "trend": _trend(store, "rate.service.requests", window, ts),
        },
        "latency_ms": {
            "p50": _round(p50 * 1000.0 if p50 is not None else None),
            "p99": _round(p99 * 1000.0 if p99 is not None else None),
            "p99_trend": [
                round(v * 1000.0, 3)
                for v in store.window("hist.span.request.p99", window, ts)
            ],
        },
        "error_rate": {
            "current": _round(_latest(store, "ratio.service.error_rate"), 6),
            "trend": _trend(store, "ratio.service.error_rate", window, ts),
        },
        "pool": _prefixed_latest(store, "pool."),
        "ingest": _prefixed_latest(store, "ingest."),
        "freshness": {
            # Pending side: how long the oldest unapplied record has
            # waited (the stalled-follower signal) ...
            "lag_seconds": _round(
                _latest(store, "ingest.freshness_lag_seconds"), 6
            ),
            # ... and applied side: event-appended→queryable latency of
            # what *did* land (the sampler's histogram series).
            "p50_ms": _round(
                fresh_p50 * 1000.0 if fresh_p50 is not None else None
            ),
            "p99_ms": _round(
                fresh_p99 * 1000.0 if fresh_p99 is not None else None
            ),
            "trend": _trend(
                store, "ingest.freshness_lag_seconds", window, ts
            ),
            # Causal link events tell freshness volume without gauges:
            # one wal_append per appended batch, one wal_apply per
            # appender context applied.
            "appends": link_counts.get("wal_append", 0),
            "applies": link_counts.get("wal_apply", 0),
        },
        "shards": _shard_gauges(store),
        "drift_flagged": _latest(store, "drift.flagged") or 0.0,
        "alerts": {
            "firing": sorted(
                name
                for name, s in alert_states.items()
                if s.get("state") == "firing"
            ),
            "states": alert_states,
        },
    }
    snapshot["ingest"].setdefault("lag_events", None)
    return snapshot


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt(value: Any, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_top(snapshot: Mapping[str, Any]) -> str:
    """The text dashboard for one snapshot frame."""
    firing = snapshot["alerts"]["firing"]
    health = f"ALERTS FIRING: {len(firing)}" if firing else "healthy"
    lines = [
        f"repro top — ts={_fmt(snapshot.get('ts'), 1)}  "
        f"samples={snapshot.get('samples', 0)}  "
        f"series={snapshot.get('series', 0)}  [{health}]",
        "",
    ]

    qps = snapshot["qps"]
    lines.append(
        f"  qps        {_fmt(qps['current']):>10}  {sparkline(qps['trend'])}"
    )
    latency = snapshot["latency_ms"]
    lines.append(
        f"  p99 ms     {_fmt(latency['p99']):>10}  "
        f"{sparkline(latency['p99_trend'])}"
    )
    lines.append(f"  p50 ms     {_fmt(latency['p50']):>10}")
    error_rate = snapshot["error_rate"]
    lines.append(
        f"  err ratio  {_fmt(error_rate['current'], 4):>10}  "
        f"{sparkline(error_rate['trend'])}"
    )

    pool = snapshot.get("pool") or {}
    if pool:
        depth = pool.get("queue_depth")
        capacity = pool.get("queue_capacity")
        lines.append(
            f"  pool       depth={_fmt(depth, 0)}/{_fmt(capacity, 0)}"
            f"  peak={_fmt(pool.get('queue_peak'), 0)}"
            f"  workers={_fmt(pool.get('workers'), 0)}"
            f"  saturated={_fmt(pool.get('saturated'), 0)}"
        )

    ingest = snapshot.get("ingest") or {}
    if any(v is not None for v in ingest.values()):
        lines.append(
            f"  ingest     lag={_fmt(ingest.get('lag_events'), 0)}"
            f"  watermark={_fmt(ingest.get('watermark_seq'), 0)}"
            f"  age_s={_fmt(ingest.get('watermark_age_seconds'), 2)}"
        )

    freshness = snapshot.get("freshness") or {}
    if freshness.get("lag_seconds") is not None or freshness.get("applies"):
        lines.append(
            f"  freshness  lag_s={_fmt(freshness.get('lag_seconds'), 3)}"
            f"  p50_ms={_fmt(freshness.get('p50_ms'))}"
            f"  p99_ms={_fmt(freshness.get('p99_ms'))}"
            f"  applies={_fmt(freshness.get('applies'), 0)}"
            f"  appends={_fmt(freshness.get('appends'), 0)}"
            f"  {sparkline(freshness.get('trend') or [])}"
        )

    shards = snapshot.get("shards") or {}
    shard_rows = sorted(
        (s for s in shards if s != "fleet"), key=lambda s: (len(s), s)
    )
    if shard_rows:
        fleet = shards.get("fleet") or {}
        lines.append(
            f"  shards     n={len(shard_rows)}"
            f"  fleet_watermark={_fmt(fleet.get('watermark'), 0)}"
        )
        for shard_id in shard_rows:
            gauges = shards[shard_id]
            up = gauges.get("up")
            state = "up" if up else "DOWN"
            lines.append(
                f"    shard {shard_id:<4} {state:<5}"
                f" active={_fmt(gauges.get('active_requests'), 0)}"
                f" requests={_fmt(gauges.get('requests'), 0)}"
                f" watermark={_fmt(gauges.get('watermark_seq'), 0)}"
                f" lag={_fmt(gauges.get('lag_events'), 0)}"
            )

    lines.append(f"  drift      flagged={_fmt(snapshot.get('drift_flagged'), 0)}")

    states = snapshot["alerts"]["states"]
    if states:
        lines.append("")
        lines.append("  alerts:")
        for name in sorted(states):
            state = states[name]
            marker = {"firing": "!!", "pending": " ~"}.get(
                state.get("state", ""), "  "
            )
            lines.append(
                f"  {marker} {name:<32} {state.get('state', '?'):<8} "
                f"fired={state.get('fired', 0)}"
            )
    return "\n".join(lines) + "\n"
