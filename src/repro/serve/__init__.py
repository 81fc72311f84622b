"""The sharded networked fleet service.

Layers, bottom-up — each importable on its own:

* :mod:`~repro.serve.framing` — the length-prefixed JSON wire protocol;
* :mod:`~repro.serve.ring` — the consistent-hash ring (ship → shard);
* :mod:`~repro.serve.partition` — per-shard dataset slicing;
* :mod:`~repro.serve.handler` — the ``repro serve`` stdin loop's
  request dispatch;
* :mod:`~repro.serve.shard` / :mod:`~repro.serve.supervisor` — the
  worker processes and their lifecycle;
* :mod:`~repro.serve.client` / :mod:`~repro.serve.router` — per-shard
  connections, point routing and scatter-gather;
* :mod:`~repro.serve.frontend` / :mod:`~repro.serve.fleet` — the
  asyncio front door and the one-constructor assembly.

See ``docs/serving.md`` for the wire protocol, sharding layout,
failure modes and the drain/restart runbook.
"""

from repro.serve.client import FrameClient, ShardUnavailable
from repro.serve.fleet import FleetService, build_shard_specs, shard_wal_path
from repro.serve.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    FrameProtocolError,
    FrameTooLarge,
    FrameTruncated,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.serve.frontend import FleetFrontend
from repro.serve.handler import RequestHandler, serve_stdin
from repro.serve.partition import fleet_assignment, shard_dataset, ships_of_shard
from repro.serve.ring import (
    DEFAULT_VNODES,
    ConsistentHashRing,
    ship_key,
    stable_hash,
)
from repro.serve.router import RoutingTable, ShardRouter
from repro.serve.shard import ShardServer, build_shard_runtime, shard_entry
from repro.serve.supervisor import ShardStartupError, ShardSupervisor

__all__ = [
    "MAX_FRAME_BYTES",
    "DEFAULT_VNODES",
    "ConsistentHashRing",
    "FleetFrontend",
    "FleetService",
    "FrameClient",
    "FrameDecoder",
    "FrameError",
    "FrameProtocolError",
    "FrameTooLarge",
    "FrameTruncated",
    "RequestHandler",
    "RoutingTable",
    "ShardRouter",
    "ShardServer",
    "ShardStartupError",
    "ShardSupervisor",
    "ShardUnavailable",
    "build_shard_runtime",
    "build_shard_specs",
    "encode_frame",
    "fleet_assignment",
    "recv_frame",
    "send_frame",
    "serve_stdin",
    "shard_dataset",
    "shard_entry",
    "shard_wal_path",
    "ship_key",
    "ships_of_shard",
    "stable_hash",
]
