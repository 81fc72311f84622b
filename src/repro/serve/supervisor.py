"""Shard process supervision: spawn, handshake, drain, kill, restart.

The supervisor owns the fleet's worker processes.  Each shard is
launched with the **spawn** start method — never fork: the front-end
runs an asyncio loop, a sampler thread, and live sockets, none of which
may leak into a child — and announces itself over a one-shot pipe
handshake: ``("ready", port)`` once its server is listening, or
``("error", traceback)`` if assembly failed.  Ports are ephemeral
(``port=0``); the front-end's router is re-pointed after every
(re)start via :meth:`ShardRouter.reconnect`.

A fleet starts its shards together: :meth:`ShardSupervisor.spawn`
launches every process, then :meth:`ShardSupervisor.wait_ready` takes
the handshakes in shard-id order, so the model loads and WAL replays
overlap while failure attribution stays deterministic.

Restart semantics are the durability story's other half: a shard killed
hard (``kill_shard`` is SIGKILL — the CI smoke uses it mid-workload)
replays its WAL during :func:`~repro.serve.shard.build_shard_runtime`,
so the restarted process answers with a watermark equal to the last
acknowledged write.  The supervisor itself holds no request state —
losing it loses nothing.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any

from repro.errors import ReproError
from repro.serve.client import FrameClient, ShardUnavailable
from repro.serve.shard import shard_entry


class ShardStartupError(ReproError):
    """A shard process failed to come up (carries the child traceback)."""


class _Managed:
    """Book-keeping for one supervised shard process.

    ``conn`` is the handshake pipe, open from spawn until the handshake
    is taken; ``spawned_at`` (monotonic) starts the shard's timeout.
    """

    __slots__ = ("spec", "process", "conn", "spawned_at", "port", "restarts")

    def __init__(self, spec: dict[str, Any]):
        self.spec = spec
        self.process: Any | None = None
        self.conn: Any | None = None
        self.spawned_at = 0.0
        self.port: int | None = None
        self.restarts = 0

    def forget(self) -> None:
        """Drop the process handle (already stopped) and its pipe."""
        if self.conn is not None:
            self.conn.close()
        self.process = self.conn = self.port = None


class ShardSupervisor:
    """Launches and manages one process per shard spec.

    Parameters
    ----------
    specs:
        ``{shard_id: spec}`` — the picklable assembly spec
        :func:`~repro.serve.shard.build_shard_runtime` consumes.
    start_timeout:
        Seconds from a shard's spawn to its ready handshake (model
        loading dominates; WAL replay extends it after a crash).
    """

    def __init__(
        self, specs: dict[int, dict[str, Any]], start_timeout: float = 120.0
    ):
        self._ctx = multiprocessing.get_context("spawn")
        self._managed: dict[int, _Managed] = {
            int(shard_id): _Managed(dict(spec))
            for shard_id, spec in specs.items()
        }
        self.start_timeout = float(start_timeout)

    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._managed))

    def ports(self) -> dict[int, int]:
        return {
            shard_id: managed.port
            for shard_id, managed in self._managed.items()
            if managed.port is not None
        }

    def alive(self, shard_id: int) -> bool:
        process = self._managed[shard_id].process
        return process is not None and process.is_alive()

    def restarts_of(self, shard_id: int) -> int:
        return self._managed[shard_id].restarts

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> dict[int, int]:
        """Start every shard; returns ``{shard_id: port}``.

        :meth:`spawn` then :meth:`wait_ready`: the shards start together
        and their handshakes are taken in shard-id order.
        """
        self.spawn()
        return self.wait_ready()

    def spawn(self) -> None:
        """Launch every shard process without waiting for a handshake.

        A failure kills every shard already spawned.
        """
        try:
            for shard_id in self.shard_ids:
                self._spawn(shard_id)
        except BaseException:
            self.stop_all(graceful=False)
            raise

    def wait_ready(self) -> dict[int, int]:
        """Take every spawned shard's handshake, in shard-id order.

        Each shard has ``start_timeout`` seconds from its own spawn.  The
        first failure in that order — so the lowest failing shard id —
        kills every spawned shard and raises its
        :class:`ShardStartupError`, with the child traceback when the
        shard reported one.  Returns ``{shard_id: port}``.
        """
        try:
            for shard_id in self.shard_ids:
                self._handshake(shard_id)
        except BaseException:
            self.stop_all(graceful=False)
            raise
        return self.ports()

    def start_shard(self, shard_id: int) -> int:
        """Spawn one shard and wait for its ready handshake; returns port."""
        self._spawn(shard_id)
        return self._handshake(shard_id)

    def _spawn(self, shard_id: int) -> None:
        managed = self._managed[shard_id]
        if managed.process is not None and managed.process.is_alive():
            raise ShardStartupError(f"shard {shard_id} is already running")
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        # ``shard_entry`` is looked up here, at call time, so a process
        # that swaps the module attribute changes what every shard runs.
        process = self._ctx.Process(
            target=shard_entry,
            args=(managed.spec, child_conn),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()  # the child's end lives in the child now
        managed.process = process
        managed.conn = parent_conn
        managed.spawned_at = time.monotonic()

    def _handshake(self, shard_id: int) -> int:
        """Wait for a spawned shard's handshake; on failure, kill it."""
        managed = self._managed[shard_id]
        process, conn = managed.process, managed.conn
        if process is None or conn is None:
            raise ShardStartupError(f"shard {shard_id} was not spawned")
        remaining = managed.spawned_at + self.start_timeout - time.monotonic()
        try:
            if not conn.poll(max(0.0, remaining)):
                raise ShardStartupError(
                    f"shard {shard_id} did not report ready within "
                    f"{self.start_timeout:.0f}s"
                )
            try:
                status, detail = conn.recv()
            except EOFError:
                process.join(5.0)
                raise ShardStartupError(
                    f"shard {shard_id} exited before its handshake "
                    f"(exitcode {process.exitcode})"
                ) from None
            if status != "ready":
                raise ShardStartupError(
                    f"shard {shard_id} failed to start:\n{detail}"
                )
        except BaseException:
            self.kill_shard(shard_id)
            raise
        conn.close()
        managed.conn = None
        managed.port = int(detail)
        return managed.port

    def stop_shard(
        self, shard_id: int, graceful: bool = True, timeout: float = 10.0
    ) -> None:
        """Drain-stop one shard (a ``shutdown`` frame), escalating to kill."""
        managed = self._managed[shard_id]
        process = managed.process
        if process is None:
            return
        if graceful and process.is_alive() and managed.port is not None:
            try:
                with FrameClient(
                    "127.0.0.1", managed.port, timeout=timeout
                ) as client:
                    client.request({"type": "shutdown"}, timeout=timeout)
            except ShardUnavailable:
                pass  # already gone or wedged; escalation below
            process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join(timeout)
        managed.forget()

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one shard — the crash the durability contract survives."""
        managed = self._managed[shard_id]
        process = managed.process
        if process is None:
            return
        process.kill()
        process.join(10.0)
        managed.forget()

    def restart_shard(self, shard_id: int, graceful: bool = False) -> int:
        """Bounce one shard; returns the new port (WAL replay included)."""
        managed = self._managed[shard_id]
        if managed.process is not None:
            if graceful:
                self.stop_shard(shard_id, graceful=True)
            else:
                self.kill_shard(shard_id)
        managed.restarts += 1
        return self.start_shard(shard_id)

    def stop_all(self, graceful: bool = True, timeout: float = 10.0) -> None:
        for shard_id in self.shard_ids:
            self.stop_shard(shard_id, graceful=graceful, timeout=timeout)

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop_all(graceful=True)

    def __repr__(self) -> str:
        up = sum(1 for shard_id in self.shard_ids if self.alive(shard_id))
        return f"ShardSupervisor({up}/{len(self.shard_ids)} shards up)"
