"""The :class:`ShardRouter`: consistent-hash routing + scatter-gather.

The front-end hands every parsed request to one router call
(:meth:`ShardRouter.dispatch`) and gets back one response envelope.
Behind that call:

* **point requests** (``domd_query``, ``explain``) route to the shard
  owning the avail's ship; a multi-avail query spanning shards is
  split, scattered, and merged back in request order;
* **``fleet_status``** scatters to every shard with a per-shard timeout
  and merges, **never hangs**: shards that miss the deadline or are
  unreachable are listed in a structured ``degraded`` block on an
  otherwise-ok envelope;
* **``ingest``** routes each event to its owning shard (creates by
  avail, settles/revisions by the RCC routing table), scatters the
  per-shard sub-batches, and acks only when every target shard has
  fsynced.  Shard-level acks are durable even when the overall request
  degrades — events are idempotent by rcc id, so a client retry after a
  partial failure is safe;
* **``health``** merges per-shard watermark/lag with the global minimum
  and the front-end's own alert plane — and feeds the
  ``shard:<id>:lagging`` condition into the
  :class:`~repro.runtime.telemetry.alerts.AlertManager`;
* **watermarks**: the router remembers the last watermark each shard
  reported; the fleet watermark is their minimum (everything at or
  below it is applied on *every* shard), and every ok envelope is
  stamped with it — the shard's own value moves to ``shard_watermark``.

Unreachable shards surface as retryable ``overloaded`` envelopes on
point requests: the shard may be mid-restart, and the supervisor's
recovery makes a retry genuinely likely to succeed.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.service import error_envelope
from repro.runtime.telemetry.alerts import AlertRule
from repro.serve.client import FrameClient, ShardUnavailable
from repro.serve.ring import ConsistentHashRing
from repro.table import ColumnTable

#: Event kinds routed by avail id directly.
_AVAIL_ROUTED = {"rcc_created", "avail_extended"}
#: Event kinds routed through the RCC → avail table.
_RCC_ROUTED = {"rcc_settled", "amount_revised"}


class RoutingTable:
    """Who owns what: ship → shard via the ring, avail → ship, rcc → avail.

    The avail → ship map comes from the avails table.  The rcc → avail
    map serves only ingest routing: it is seeded from the RCC table when
    one is given (a fleet with ingest off passes none) and **grows** as
    ``rcc_created`` events route through the front-end.  After a
    front-end restart the grown part is rebuilt by scanning the shards'
    WALs (:meth:`recover_from_wals`) — the WALs are the durable record
    of every acknowledged create.
    """

    def __init__(
        self,
        avails: ColumnTable,
        ring: ConsistentHashRing,
        rccs: ColumnTable | None = None,
    ):
        self.ring = ring
        self._ship_of_avail: dict[int, int] = {
            int(a): int(s)
            for a, s in zip(
                np.asarray(avails["avail_id"], dtype=np.int64),
                np.asarray(avails["ship_id"], dtype=np.int64),
            )
        }
        self._avail_of_rcc: dict[int, int] = (
            {}
            if rccs is None
            else {
                int(r): int(a)
                for r, a in zip(
                    np.asarray(rccs["rcc_id"], dtype=np.int64),
                    np.asarray(rccs["avail_id"], dtype=np.int64),
                )
            }
        )
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def shard_of_avail(self, avail_id: int) -> int | None:
        ship = self._ship_of_avail.get(int(avail_id))
        if ship is None:
            return None
        return self.ring.owner_of_ship(ship)

    def shard_of_rcc(self, rcc_id: int) -> int | None:
        with self._lock:
            avail = self._avail_of_rcc.get(int(rcc_id))
        if avail is None:
            return None
        return self.shard_of_avail(avail)

    def note_created(self, rcc_id: int, avail_id: int) -> None:
        """Record a routed-and-acknowledged ``rcc_created``."""
        with self._lock:
            self._avail_of_rcc[int(rcc_id)] = int(avail_id)

    def recover_from_wals(self, wal_paths: Iterable[str]) -> int:
        """Rebuild the grown rcc → avail entries from shard WALs."""
        from repro.stream.wal import read_wal

        recovered = 0
        for path in wal_paths:
            for record in read_wal(path).records:
                event = record.event
                if event.get("kind") == "rcc_created":
                    self.note_created(int(event["rcc_id"]), int(event["avail_id"]))
                    recovered += 1
        return recovered


class ShardRouter:
    """Routes parsed requests across the fleet's shard servers.

    Parameters
    ----------
    ring / routing:
        The ownership model (shared, deterministic).
    clients:
        ``{shard_id: FrameClient}`` — replaced per shard on restart via
        :meth:`reconnect`.
    context:
        The front-end's :class:`~repro.runtime.ExecutionContext`; its
        alert manager receives the ``shard:<id>:lagging`` conditions
        and its counters the routing stats.  Optional (unit tests).
    scatter_timeout:
        Per-shard budget (seconds) for scatter-gather requests — the
        "never a hang" bound of ``fleet_status``.
    lag_alert_events:
        A reachable shard whose ingest lag exceeds this many events is
        reported lagging.
    ingest_enabled:
        Whether shards run WAL-backed ingestion; enables watermark
        stamping on ok envelopes.
    """

    def __init__(
        self,
        ring: ConsistentHashRing,
        clients: Mapping[int, FrameClient],
        routing: RoutingTable,
        context: Any | None = None,
        scatter_timeout: float = 5.0,
        lag_alert_events: int = 500,
        ingest_enabled: bool = False,
    ):
        self.ring = ring
        self.routing = routing
        self.context = context
        self.scatter_timeout = float(scatter_timeout)
        self.lag_alert_events = int(lag_alert_events)
        self.ingest_enabled = bool(ingest_enabled)
        self._clients: dict[int, FrameClient] = dict(clients)
        self._watermarks: dict[int, int] = {}
        self._lock = threading.Lock()
        self._scatter = ThreadPoolExecutor(
            max_workers=max(8, 4 * len(self._clients)),
            thread_name_prefix="repro-scatter",
        )
        if context is not None and context.telemetry is not None:
            for shard_id in ring.shard_ids:
                context.telemetry.alerts.rule(
                    AlertRule(
                        name=f"shard:{shard_id}:lagging",
                        pending_for=0.0,
                        resolve_after=0.0,
                        severity="page",
                        description=(
                            "shard unreachable or its ingest watermark is"
                            " falling behind its WAL"
                        ),
                    )
                )

    # ------------------------------------------------------------------
    # shard membership / connections
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> tuple[int, ...]:
        return self.ring.shard_ids

    def reconnect(self, shard_id: int, host: str, port: int) -> None:
        """Point one shard's client at a restarted process."""
        client = FrameClient(host, port, timeout=self.scatter_timeout)
        with self._lock:
            old = self._clients.get(shard_id)
            self._clients[shard_id] = client
        if old is not None:
            old.close()

    def close(self) -> None:
        self._scatter.shutdown(wait=False)
        with self._lock:
            clients, self._clients = dict(self._clients), {}
        for client in clients.values():
            client.close()

    # ------------------------------------------------------------------
    # watermark bookkeeping
    # ------------------------------------------------------------------
    def _note_watermark(self, shard_id: int, response: Mapping[str, Any]) -> None:
        watermark = response.get("watermark")
        if isinstance(watermark, int) and not isinstance(watermark, bool):
            with self._lock:
                self._watermarks[shard_id] = watermark

    def global_watermark(self) -> int | None:
        """min over shards — the seq every shard has fully applied.

        ``None`` until every shard has reported at least once (a min
        over a partial view would overstate fleet durability).
        """
        with self._lock:
            if set(self._watermarks) < set(self.ring.shard_ids):
                return None
            return min(self._watermarks.values())

    def watermarks(self) -> dict[int, int]:
        with self._lock:
            return dict(self._watermarks)

    def _stamp(self, response: dict[str, Any]) -> dict[str, Any]:
        """Fleet-watermark stamping of one outgoing ok envelope."""
        if not self.ingest_enabled or not response.get("ok"):
            return response
        if "watermark" in response:
            response["shard_watermark"] = response.pop("watermark")
        fleet = self.global_watermark()
        if fleet is not None:
            response["watermark"] = fleet
        return response

    # ------------------------------------------------------------------
    # forwarding primitives
    # ------------------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        if self.context is not None:
            self.context.counter(name, value)

    def _forward(
        self, shard_id: int, request: dict[str, Any], timeout: float | None = None
    ) -> dict[str, Any]:
        """One shard round trip, normalised: never raises."""
        with self._lock:
            client = self._clients.get(shard_id)
        if client is None:
            return error_envelope(
                "overloaded",
                f"shard {shard_id} has no live connection; retry later",
            )
        try:
            response = client.request(request, timeout=timeout)
        except ShardUnavailable as exc:
            self._count("router.shard_unavailable")
            return error_envelope(
                "overloaded",
                f"shard {shard_id} unavailable ({exc}); retry later",
            )
        if isinstance(response, dict):
            self._note_watermark(shard_id, response)
            return response
        return error_envelope(
            "internal", f"shard {shard_id} answered a non-object frame"
        )

    def _scatter_to(
        self,
        requests: Mapping[int, dict[str, Any]],
        timeout: float | None = None,
    ) -> dict[int, dict[str, Any]]:
        """Concurrent forward to several shards; one envelope each."""
        budget = timeout if timeout is not None else self.scatter_timeout
        futures = {
            shard_id: self._scatter.submit(
                self._forward, shard_id, request, budget
            )
            for shard_id, request in requests.items()
        }
        out: dict[int, dict[str, Any]] = {}
        for shard_id, future in futures.items():
            try:
                # The socket timeout bounds the round trip; the small
                # grace covers scheduling, not I/O.
                out[shard_id] = future.result(timeout=budget + 1.0)
            except Exception:  # noqa: BLE001 — a hung scatter leg must not hang the fleet
                out[shard_id] = error_envelope(
                    "overloaded",
                    f"shard {shard_id} did not answer within {budget:.1f}s",
                )
        return out

    def _sub_request(
        self, request: Mapping[str, Any], **overrides: Any
    ) -> dict[str, Any]:
        """A shard-bound copy of a request (deadline + traceparent ride
        along; routing-only fields are overridden per shard)."""
        sub = dict(request)
        sub.update(overrides)
        return sub

    @staticmethod
    def _budget(request: Mapping[str, Any]) -> float | None:
        deadline_ms = request.get("deadline_ms")
        if isinstance(deadline_ms, (int, float)) and not isinstance(
            deadline_ms, bool
        ):
            return max(float(deadline_ms) / 1000.0, 0.001)
        return None

    # ------------------------------------------------------------------
    # the dispatch surface
    # ------------------------------------------------------------------
    def dispatch(self, request: Any) -> dict[str, Any]:
        """One request in, one envelope out; never raises, never hangs."""
        if not isinstance(request, dict):
            return error_envelope("bad_request", "request must be a JSON object")
        request_type = request.get("type")
        try:
            if request_type == "domd_query":
                return self._stamp(self._route_query(request))
            if request_type == "explain":
                return self._stamp(self._route_explain(request))
            if request_type == "fleet_status":
                return self._stamp(self._route_fleet_status(request))
            if request_type == "ingest":
                return self._stamp(self._route_ingest(request))
            if request_type == "health":
                return self._route_health(request)
            if request_type == "metrics":
                return self._route_metrics(request)
            if request_type == "shard_status":
                return {"ok": True, "result": self.shard_statuses()}
            # Unknown types fall through to a shard so the canonical
            # unknown_type envelope comes from the one service surface.
            first = self.ring.shard_ids[0]
            return self._forward(
                first, dict(request), timeout=self._budget(request)
            )
        except Exception as exc:  # noqa: BLE001 — the envelope contract
            self._count("router.internal_errors")
            return error_envelope(
                "internal",
                f"routing failure for {request_type!r} ({type(exc).__name__})",
            )

    # -- point requests ------------------------------------------------
    def _route_query(self, request: dict[str, Any]) -> dict[str, Any]:
        raw_ids = request.get("avail_ids")
        if raw_ids is None:
            return error_envelope(
                "bad_request", "missing required field 'avail_ids'"
            )
        try:
            avail_ids = [int(a) for a in raw_ids]
        except (TypeError, ValueError) as exc:
            return error_envelope("bad_request", str(exc))
        groups: dict[int, list[int]] = {}
        for avail_id in avail_ids:
            shard_id = self.routing.shard_of_avail(avail_id)
            if shard_id is None:
                return error_envelope(
                    "not_found", f"no avail with id {avail_id} in the fleet"
                )
            groups.setdefault(shard_id, []).append(avail_id)
        budget = self._budget(request)
        if len(groups) == 1:
            ((shard_id, ids),) = groups.items()
            return self._forward(
                shard_id,
                self._sub_request(request, avail_ids=ids),
                timeout=budget,
            )
        self._count("router.split_queries")
        responses = self._scatter_to(
            {
                shard_id: self._sub_request(request, avail_ids=ids)
                for shard_id, ids in groups.items()
            },
            timeout=budget,
        )
        by_avail: dict[int, dict[str, Any]] = {}
        provenance: dict[str, Any] = {}
        for shard_id in sorted(responses):
            response = responses[shard_id]
            if not response.get("ok"):
                return response  # first failing shard wins, envelope intact
            for item in response.get("result", []):
                by_avail[int(item["avail_id"])] = item
            provenance[str(shard_id)] = response.get("provenance")
        return {
            "ok": True,
            "result": [by_avail[a] for a in avail_ids],
            "shards": provenance,
        }

    def _route_explain(self, request: dict[str, Any]) -> dict[str, Any]:
        avail_id = request.get("avail_id")
        if avail_id is None:
            return error_envelope(
                "bad_request", "missing required field 'avail_id'"
            )
        try:
            shard_id = self.routing.shard_of_avail(int(avail_id))
        except (TypeError, ValueError) as exc:
            return error_envelope("bad_request", str(exc))
        if shard_id is None:
            return error_envelope(
                "not_found", f"no avail with id {avail_id} in the fleet"
            )
        return self._forward(
            shard_id, dict(request), timeout=self._budget(request)
        )

    # -- scatter-gather ------------------------------------------------
    def _route_fleet_status(self, request: dict[str, Any]) -> dict[str, Any]:
        budget = self._budget(request)
        timeout = (
            min(self.scatter_timeout, budget)
            if budget is not None
            else self.scatter_timeout
        )
        responses = self._scatter_to(
            {
                shard_id: self._sub_request(request)
                for shard_id in self.ring.shard_ids
            },
            timeout=timeout,
        )
        merged: list[dict[str, Any]] = []
        missing: dict[str, str] = {}
        provenance: dict[str, Any] = {}
        for shard_id in sorted(responses):
            response = responses[shard_id]
            if response.get("ok"):
                merged.extend(response.get("result", []))
                provenance[str(shard_id)] = response.get("provenance")
            else:
                missing[str(shard_id)] = response.get("error", {}).get(
                    "message", "no answer"
                )
        merged.sort(key=lambda item: -item["estimated_delay_days"])
        out: dict[str, Any] = {"ok": True, "result": merged, "shards": provenance}
        if missing:
            self._count("router.degraded_fleet_status")
            # Partial answer, honestly labelled: the result covers the
            # reachable shards only, and the client can see which slice
            # of the fleet is missing.
            out["degraded"] = {
                "missing_shards": sorted(int(s) for s in missing),
                "reasons": missing,
            }
        return out

    # -- ingest --------------------------------------------------------
    def _route_ingest(self, request: dict[str, Any]) -> dict[str, Any]:
        if not self.ingest_enabled:
            return error_envelope(
                "bad_request", "fleet was started without --wal-dir; ingest disabled"
            )
        payload = request.get("events")
        if not isinstance(payload, list):
            return error_envelope("bad_request", "'events' must be a list")
        groups: dict[int, list[dict[str, Any]]] = {}
        pending_routes: list[tuple[int, int]] = []
        batch_avail_of_rcc: dict[int, int] = {}
        for index, item in enumerate(payload):
            if not isinstance(item, dict):
                return error_envelope(
                    "bad_request", f"events[{index}] must be an object"
                )
            kind = item.get("kind")
            if kind in _AVAIL_ROUTED:
                try:
                    avail_id = int(item["avail_id"])
                except (KeyError, TypeError, ValueError):
                    return error_envelope(
                        "bad_request",
                        f"events[{index}] ({kind}) needs an integer 'avail_id'",
                    )
                shard_id = self.routing.shard_of_avail(avail_id)
                if shard_id is None:
                    return error_envelope(
                        "not_found",
                        f"events[{index}]: no avail {avail_id} in the fleet",
                    )
                if kind == "rcc_created":
                    rcc_id = item.get("rcc_id")
                    if isinstance(rcc_id, int):
                        pending_routes.append((rcc_id, avail_id))
                        batch_avail_of_rcc[rcc_id] = avail_id
            elif kind in _RCC_ROUTED:
                try:
                    rcc_id = int(item["rcc_id"])
                except (KeyError, TypeError, ValueError):
                    return error_envelope(
                        "bad_request",
                        f"events[{index}] ({kind}) needs an integer 'rcc_id'",
                    )
                # A settle may follow its create within one batch.
                avail_id = batch_avail_of_rcc.get(rcc_id)
                shard_id = (
                    self.routing.shard_of_avail(avail_id)
                    if avail_id is not None
                    else self.routing.shard_of_rcc(rcc_id)
                )
                if shard_id is None:
                    return error_envelope(
                        "not_found",
                        f"events[{index}]: rcc {rcc_id} is not routable"
                        " (no create seen for it)",
                    )
            else:
                return error_envelope(
                    "bad_request", f"events[{index}] has unknown kind {kind!r}"
                )
            groups.setdefault(shard_id, []).append(item)
        if not groups:
            return {"ok": True, "result": {"acked": 0, "per_shard": {}}}
        responses = self._scatter_to(
            {
                shard_id: self._sub_request(request, events=events)
                for shard_id, events in groups.items()
            },
            timeout=self._budget(request),
        )
        per_shard: dict[str, Any] = {}
        failed: list[int] = []
        acked = 0
        acked_shards: set[int] = set()
        for shard_id in sorted(responses):
            response = responses[shard_id]
            if response.get("ok"):
                per_shard[str(shard_id)] = response.get("result")
                acked += len(groups[shard_id])
                acked_shards.add(shard_id)
            else:
                failed.append(shard_id)
                per_shard[str(shard_id)] = response.get("error")
        # Routes for events a shard *did* fsync are durable regardless
        # of the overall verdict — remember them either way, so a retry
        # (idempotent by rcc id) routes consistently.
        for rcc_id, avail_id in pending_routes:
            if self.routing.shard_of_avail(avail_id) in acked_shards:
                self.routing.note_created(rcc_id, avail_id)
        if failed:
            self._count("router.ingest_partial_failures")
            return error_envelope(
                "overloaded",
                f"{len(failed)} shard(s) {sorted(failed)} did not acknowledge;"
                f" {acked} event(s) on {len(acked_shards)} shard(s) are durable;"
                " retry is safe (events are idempotent by rcc id)",
            )
        return {"ok": True, "result": {"acked": acked, "per_shard": per_shard}}

    # -- health / metrics ---------------------------------------------
    def _route_health(self, request: dict[str, Any]) -> dict[str, Any]:
        responses = self._scatter_to(
            {
                shard_id: {"type": "health"}
                for shard_id in self.ring.shard_ids
            },
            timeout=min(self.scatter_timeout, 2.0),
        )
        shards: dict[str, Any] = {}
        per_shard_watermark: dict[str, int | None] = {}
        statuses: list[str] = []
        reachable: dict[int, dict[str, Any]] = {}
        for shard_id in sorted(responses):
            response = responses[shard_id]
            if not response.get("ok"):
                shards[str(shard_id)] = {
                    "status": "unreachable",
                    "error": response.get("error", {}).get("message"),
                }
                per_shard_watermark[str(shard_id)] = None
                statuses.append("unreachable")
                continue
            result = response.get("result", {})
            ingest = result.get("ingest") or {}
            entry = {
                "status": result.get("status"),
                "watermark": ingest.get("watermark_seq"),
                "lag_events": ingest.get("lag_events"),
                "freshness_lag_seconds": ingest.get("freshness_lag_seconds"),
            }
            shards[str(shard_id)] = entry
            per_shard_watermark[str(shard_id)] = entry["watermark"]
            statuses.append(str(result.get("status")))
            reachable[shard_id] = {
                "up": True,
                "lag_events": ingest.get("lag_events") or 0,
            }
        self._update_shard_alerts(reachable)
        known = [w for w in per_shard_watermark.values() if w is not None]
        fleet_watermark = (
            min(known) if len(known) == len(per_shard_watermark) else None
        )
        if any(s in ("unreachable", "degraded") for s in statuses):
            status = "degraded"
        else:
            status = "ok"
        frontend: dict[str, Any] = {}
        if self.context is not None and self.context.telemetry is not None:
            alerts = self.context.telemetry.alerts
            firing = alerts.firing()
            frontend = {"alerts": {"firing": firing, "states": alerts.status()}}
            if firing and status == "ok":
                status = "degraded"
        return {
            "ok": True,
            "result": {
                "status": status,
                "shards": shards,
                "watermark": {
                    "global": fleet_watermark,
                    "per_shard": per_shard_watermark,
                },
                "frontend": frontend,
            },
        }

    def _route_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        if "avail_ids" in request:
            # Model-quality metrics: only meaningful per shard (the
            # population statistics do not merge across processes).
            shard_ids = set()
            for avail_id in request.get("avail_ids") or []:
                shard_id = self.routing.shard_of_avail(int(avail_id))
                if shard_id is None:
                    return error_envelope(
                        "not_found",
                        f"no avail with id {avail_id} in the fleet",
                    )
                shard_ids.add(shard_id)
            if len(shard_ids) != 1:
                return error_envelope(
                    "bad_request",
                    "metrics over avail populations spanning shards is not"
                    " supported; evaluate one shard's population at a time",
                )
            return self._forward(
                shard_ids.pop(), dict(request), timeout=self._budget(request)
            )
        responses = self._scatter_to(
            {shard_id: dict(request) for shard_id in self.ring.shard_ids},
            timeout=min(self.scatter_timeout, 2.0),
        )
        return {
            "ok": True,
            "result": {
                "shards": {
                    str(shard_id): (
                        response.get("result")
                        if response.get("ok")
                        else {"error": response.get("error")}
                    )
                    for shard_id, response in sorted(responses.items())
                },
            },
        }

    # ------------------------------------------------------------------
    # observability: gauges + the lagging-shard alert condition
    # ------------------------------------------------------------------
    def shard_statuses(
        self, timeout: float = 2.0
    ) -> dict[str, dict[str, Any]]:
        """Raw ``shard_status`` scatter: ``{shard_id: status-or-down}``."""
        responses = self._scatter_to(
            {
                shard_id: {"type": "shard_status"}
                for shard_id in self.ring.shard_ids
            },
            timeout=timeout,
        )
        out: dict[str, dict[str, Any]] = {}
        for shard_id in sorted(responses):
            response = responses[shard_id]
            if response.get("ok"):
                result = dict(response.get("result", {}))
                result["up"] = True
                out[str(shard_id)] = result
            else:
                out[str(shard_id)] = {
                    "shard_id": shard_id,
                    "up": False,
                    "error": response.get("error", {}).get("message"),
                }
        return out

    def sample_gauges(self) -> dict[str, dict[str, float]]:
        """The sampler source: one flat numeric map per shard.

        Registered as ``sampler.add_source("shard", ...)``, so the
        series land as ``shard.<id>.<gauge>`` — what the ``repro top``
        shard panel and the ``repro_shard_*`` exposition read.  Also
        the periodic evaluation point of the ``shard:<id>:lagging``
        alert condition (the sampler tick is the fleet's heartbeat).
        """
        statuses = self.shard_statuses()
        gauges: dict[str, dict[str, float]] = {}
        alert_view: dict[int, dict[str, Any]] = {}
        for key, status in statuses.items():
            up = bool(status.get("up"))
            flat: dict[str, float] = {"up": 1.0 if up else 0.0}
            if up:
                ingest = status.get("ingest") or {}
                for name in (
                    "watermark_seq",
                    "wal_end_seq",
                    "lag_events",
                    "freshness_lag_seconds",
                    "applied_events",
                    "n_rccs",
                ):
                    value = ingest.get(name)
                    if isinstance(value, (int, float)):
                        flat[name] = float(value)
                server = status.get("server") or {}
                for name, value in server.items():
                    if isinstance(value, (int, float)):
                        flat[name] = float(value)
                watermark = status.get("watermark")
                if isinstance(watermark, int):
                    with self._lock:
                        self._watermarks[int(key)] = watermark
                alert_view[int(key)] = {
                    "up": True,
                    "lag_events": ingest.get("lag_events") or 0,
                }
            gauges[key] = flat
        self._update_shard_alerts(alert_view)
        fleet = self.global_watermark()
        if fleet is not None:
            gauges["fleet"] = {"watermark": float(fleet)}
        return gauges

    def _update_shard_alerts(
        self, reachable: Mapping[int, Mapping[str, Any]]
    ) -> None:
        """Feed per-shard lag/reachability into the alert manager."""
        if self.context is None or self.context.telemetry is None:
            return
        alerts = self.context.telemetry.alerts
        for shard_id in self.ring.shard_ids:
            view = reachable.get(shard_id)
            if view is None:
                alerts.set_condition(
                    f"shard:{shard_id}:lagging", True, reason="unreachable"
                )
                continue
            lag = int(view.get("lag_events") or 0)
            alerts.set_condition(
                f"shard:{shard_id}:lagging",
                lag > self.lag_alert_events,
                lag_events=lag,
                threshold=self.lag_alert_events,
            )
