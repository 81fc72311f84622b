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

Import what you need from its module: this init imports nothing, so a
shard process, which starts by importing :mod:`~repro.serve.shard`,
never loads the asyncio front door or the router.

See ``docs/serving.md`` for the wire protocol, sharding layout,
failure modes and the drain/restart runbook.
"""
