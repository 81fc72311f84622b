"""Fleet assembly: supervisor + router + front-end as one service.

:class:`FleetService` is the composition root the CLI (and the tests,
bench harness, CI smoke) build: given a model artefact, a dataset path
and a shard count, it

1. derives one spec per shard (shared model, per-shard WAL under
   ``wal_dir``) and spawns every shard process at once via the
   :class:`~repro.serve.supervisor.ShardSupervisor`;
2. while the shards load, seeds the front end's
   :class:`~repro.serve.router.RoutingTable` from the dataset's avails
   (avail → ship) and, when ingest is on, its RCCs (rcc → avail),
   recovering routes grown by previous runs from the shards' WALs, then
   takes the shards' handshakes;
3. wires a :class:`~repro.serve.router.ShardRouter` over per-shard
   :class:`~repro.serve.client.FrameClient` pools; and
4. fronts it with the :class:`~repro.serve.frontend.FleetFrontend`.

Shard restarts go through :meth:`restart_shard`, which re-points the
router's client at the new ephemeral port — acknowledged writes survive
because the restarted shard replays its WAL before reporting ready.
"""

from __future__ import annotations

import os
from typing import Any

from repro.serve.client import FrameClient
from repro.serve.frontend import FleetFrontend
from repro.serve.ring import ConsistentHashRing
from repro.serve.router import RoutingTable, ShardRouter
from repro.serve.supervisor import ShardSupervisor


def shard_wal_path(wal_dir: str, shard_id: int) -> str:
    """The canonical per-shard WAL location under ``wal_dir``."""
    return os.path.join(wal_dir, f"shard-{shard_id}.wal")


def build_shard_specs(
    model: str,
    data: str,
    shard_ids: tuple[int, ...],
    wal_dir: str | None = None,
    events_dir: str | None = None,
) -> dict[int, dict[str, Any]]:
    """One picklable assembly spec per shard (shared model artefact)."""
    specs: dict[int, dict[str, Any]] = {}
    for shard_id in shard_ids:
        spec: dict[str, Any] = {
            "shard_id": int(shard_id),
            "shard_ids": list(shard_ids),
            "model": model,
            "data": data,
        }
        if wal_dir:
            spec["wal_path"] = shard_wal_path(wal_dir, shard_id)
        if events_dir:
            spec["events_path"] = os.path.join(
                events_dir, f"shard-{shard_id}.jsonl"
            )
        specs[int(shard_id)] = spec
    return specs


class FleetService:
    """The whole sharded service, from one constructor.

    Parameters mirror ``repro serve``'s flags; ``shards=N`` partitions
    the fleet over shard ids ``0..N-1``.  ``wal_dir=None`` serves the
    static snapshot (ingest disabled).  ``deadline_ms`` is the front
    door's default wire budget for requests that carry none; it rides
    the wire to the router and the shards.  The object is inert until
    :meth:`start`; idiomatic use is the context manager.
    """

    def __init__(
        self,
        model: str,
        data: str,
        shards: int = 2,
        wal_dir: str | None = None,
        deadline_ms: float | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        scatter_timeout: float = 5.0,
        lag_alert_events: int = 500,
        events_dir: str | None = None,
        context: Any | None = None,
        start_timeout: float = 120.0,
    ):
        if shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.model = model
        self.data = data
        self.wal_dir = wal_dir
        self.host = host
        self.context = context
        if wal_dir:
            os.makedirs(wal_dir, exist_ok=True)
        if events_dir:
            os.makedirs(events_dir, exist_ok=True)
        shard_ids = tuple(range(int(shards)))
        self.ring = ConsistentHashRing(shard_ids)
        self.specs = build_shard_specs(
            model, data, shard_ids, wal_dir=wal_dir, events_dir=events_dir
        )
        self.supervisor = ShardSupervisor(self.specs, start_timeout=start_timeout)
        self.scatter_timeout = float(scatter_timeout)
        self.lag_alert_events = int(lag_alert_events)
        self._frontend_port = int(port)
        self._max_inflight = int(max_inflight)
        self._deadline_ms = deadline_ms
        self.router: ShardRouter | None = None
        self.routing: RoutingTable | None = None
        self.frontend: FleetFrontend | None = None
        self._started = False

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        assert self.frontend is not None, "fleet not started"
        return self.frontend.port

    def start(self) -> int:
        """Start the fleet and open the front door; returns its port.

        In order: spawn every shard; build the routing table while the
        shards load; take the shards' handshakes in shard-id order; then
        wire the router and open the front door.  A failure at any step
        stops every shard.  The routing table reads the avails; with a
        ``wal_dir`` it also reads the RCCs and recovers the routes grown
        by earlier runs from the shards' WALs, because only ingest
        routes by RCC.
        """
        from repro.data.loader import load_avails, load_dataset

        self.supervisor.spawn()
        try:
            if self.wal_dir:
                dataset = load_dataset(self.data)
                self.routing = RoutingTable(dataset.avails, self.ring, dataset.rccs)
                existing = [
                    path
                    for shard_id in self.ring.shard_ids
                    if os.path.exists(
                        path := shard_wal_path(self.wal_dir, shard_id)
                    )
                ]
                if existing:
                    self.routing.recover_from_wals(existing)
            else:  # ingest is off: nothing routes by RCC
                self.routing = RoutingTable(load_avails(self.data), self.ring)
            ports = self.supervisor.wait_ready()
            clients = {
                shard_id: FrameClient(
                    self.host, ports[shard_id], timeout=self.scatter_timeout
                )
                for shard_id in self.ring.shard_ids
            }
            self.router = ShardRouter(
                self.ring,
                clients,
                self.routing,
                context=self.context,
                scatter_timeout=self.scatter_timeout,
                lag_alert_events=self.lag_alert_events,
                ingest_enabled=bool(self.wal_dir),
            )
            self.frontend = FleetFrontend(
                self.router.dispatch,
                host=self.host,
                port=self._frontend_port,
                max_inflight=self._max_inflight,
                deadline_ms=self._deadline_ms,
                context=self.context,
            )
            self.frontend.start()
        except BaseException:
            self.stop(drain=False)
            raise
        self._started = True
        return self.frontend.port

    def restart_shard(self, shard_id: int, graceful: bool = False) -> int:
        """Bounce one shard and re-point the router; returns the new port.

        ``graceful=False`` is a hard kill — the crash-recovery path the
        durability contract is about; ``graceful=True`` drains first
        (rolling maintenance).
        """
        assert self.router is not None, "fleet not started"
        new_port = self.supervisor.restart_shard(shard_id, graceful=graceful)
        self.router.reconnect(shard_id, self.host, new_port)
        return new_port

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one shard, leaving it down (the degraded-mode drill)."""
        self.supervisor.kill_shard(shard_id)

    def stop(self, drain: bool = True) -> None:
        """Front door first (drain in-flight), then shards, then clients."""
        if self.frontend is not None:
            self.frontend.stop(drain=drain)
            self.frontend = None
        self.supervisor.stop_all(graceful=drain)
        if self.router is not None:
            self.router.close()
            self.router = None
        self._started = False

    def status(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "shards": {
                str(shard_id): {
                    "alive": self.supervisor.alive(shard_id),
                    "port": self.supervisor.ports().get(shard_id),
                    "restarts": self.supervisor.restarts_of(shard_id),
                }
                for shard_id in self.ring.shard_ids
            },
        }
        if self.frontend is not None:
            out["frontend"] = self.frontend.status()
        if self.router is not None:
            out["watermark"] = {
                "global": self.router.global_watermark(),
                "per_shard": {
                    str(k): v for k, v in self.router.watermarks().items()
                },
            }
        return out

    def __enter__(self) -> "FleetService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop(drain=exc_info[0] is None)

    def __repr__(self) -> str:
        state = "up" if self._started else "down"
        return (
            f"FleetService({len(self.ring.shard_ids)} shards, {state}, "
            f"wal={'on' if self.wal_dir else 'off'})"
        )
