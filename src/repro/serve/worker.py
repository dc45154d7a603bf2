"""Shard worker processes: the far side of the message boundary.

This module is both halves of one protocol:

- :class:`ShardWorker` + :func:`worker_main` run **inside a forked
  worker process**: a blocking frame loop over the
  :class:`~repro.serve.transport.Channel`, dispatching each request
  kind through the module-level :data:`_HANDLERS` table. A batch frame
  goes to :meth:`~repro.serve.shard.ShardCore.apply`, the same entry
  point the in-process shards use, and its results travel back in that
  method's result shape. The table is held to :data:`REQUEST_KINDS` by
  the RPL105 flow rule — a request kind without a handler is a static
  error, not a runtime ``KeyError`` in a child process.
- :class:`ProcessShardHandle` runs **in the service process**. It is a
  :class:`~repro.serve.shard.QueuedShard`, like
  :class:`~repro.serve.shard.TrackerShard`: the same admission queue,
  counters, FIFO batch drain and settle loop, so the service, audit,
  and bench treat both uniformly. Its batches cross an
  :class:`~repro.serve.transport.AsyncChannel` and the reply frame's
  results are settled exactly as an in-process core's are; health,
  snapshot and restore requests ride the same queue between batches.
  At ``stop`` the worker's final frame carries its shard's
  :class:`~repro.serve.snapshot.ShardSnapshot` home, and the handle's
  ``epochs``/``oplog``/``query_log``/``ledger`` read that snapshot.

Workers are **forked**, not spawned: the hierarchy and the shared
:class:`SensorNetwork` (including a PR-6 ``memmap`` distance backend
attached read-only before the fork) are inherited copy-on-write, so
per-worker memory is the MOT state, not the graph. Fork also means a
worker is always the same code version as its parent — the pickle
framing never crosses versions.

Clock semantics: worker processes are **wall-clock only**. The virtual
clock's determinism contract needs every state transition on one
cooperative loop; across a process boundary completions are stamped
with real time on the parent loop and correctness is checked by the
sequential-replay audit instead (the final frame's snapshot is the
worker's history, so :func:`repro.serve.audit.audit_service` runs
unchanged).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Union

from repro.core.costs import CostLedger
from repro.core.mot import MOTConfig, MOTTracker
from repro.hierarchy.structure import BaseHierarchy
from repro.obs.trace import TRACER
from repro.perf import TimerStat
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import Request
from repro.serve.shard import QueuedShard, ShardCore, _Admitted
from repro.serve.snapshot import (
    ShardSnapshot,
    capture_snapshot,
    restore_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.serve.transport import (
    REQUEST_KINDS,
    AsyncChannel,
    Channel,
    socket_pair,
)

__all__ = ["ProcessShardHandle", "ShardWorker", "WorkerSpec", "worker_main"]

@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its shard."""

    shard_id: int
    hierarchy: BaseHierarchy
    mot_config: MOTConfig
    #: run the columnar batch engine instead of per-op tracker calls
    batch: bool = False


@dataclass
class _Control:
    """An out-of-band request (health/snapshot/restore) riding the queue.

    Controls share the admission queue so they serialize with batches
    in FIFO order — the channel carries exactly one request/reply
    conversation at a time, by construction.
    """

    kind: str
    payload: Any
    future: asyncio.Future


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
class ShardWorker:
    """The worker-process shard: one :class:`ShardCore` plus counters."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.shard_id = spec.shard_id
        self.core = ShardCore(
            MOTTracker(spec.hierarchy, spec.mot_config), batch=spec.batch
        )
        self.ops_applied = 0
        self.batches = 0
        self.prefetch_pairs = 0
        self.failures = 0
        self.apply_time = TimerStat()

    # each handler returns (reply_kind, payload) for one request frame
    def handle_batch(self, reqs: list[Request]) -> tuple[str, Any]:
        """Apply one batch; per-op results, exceptions carried by value."""
        t0 = time.perf_counter()
        prefetched, it = self.core.apply(reqs)
        results = list(it)
        failures = sum(1 for res in results if res[0] == "err")
        self.failures += failures
        self.ops_applied += len(results) - failures
        self.batches += 1
        self.prefetch_pairs += prefetched
        self.apply_time.add(time.perf_counter() - t0)
        return "results", {"results": results, "prefetched": prefetched}

    def handle_health(self, _payload: Any) -> tuple[str, Any]:
        """Liveness + shard vitals; the parent merges in queue depth."""
        return "healthy", {
            "shard_id": self.shard_id,
            "mode": "process",
            "alive": True,
            "pid": os.getpid(),
            "objects": len(self.core.oplog),
            "ops_applied": self.ops_applied,
            "failures": self.failures,
        }

    def handle_snapshot(self, _payload: Any) -> tuple[str, Any]:
        """Serialize the shard state (quiesced by the FIFO queue)."""
        return "snapshot_data", snapshot_to_bytes(
            capture_snapshot(self.core, self.shard_id)
        )

    def handle_restore(self, payload: bytes) -> tuple[str, Any]:
        """Rebuild state from snapshot bytes into the (empty) core."""
        restore_snapshot(self.core, snapshot_from_bytes(payload))
        return "restored", None

    def handle_stop(self, _payload: Any) -> tuple[str, Any]:
        """The final frame: the shard's snapshot and the worker counters."""
        return "final", {
            "snapshot": capture_snapshot(self.core, self.shard_id),
            "stats": {
                "ops_applied": self.ops_applied,
                "batches": self.batches,
                "prefetch_pairs": self.prefetch_pairs,
                "failures": self.failures,
                "apply_time": self.apply_time.as_dict(),
            },
        }


#: request kind → handler; RPL105 holds the key set to REQUEST_KINDS
_HANDLERS = {
    "batch": ShardWorker.handle_batch,
    "health": ShardWorker.handle_health,
    "snapshot": ShardWorker.handle_snapshot,
    "restore": ShardWorker.handle_restore,
    "stop": ShardWorker.handle_stop,
}

assert set(_HANDLERS) == set(REQUEST_KINDS)  # mirrored statically by RPL105


def worker_main(
    sock: socket.socket, spec: WorkerSpec, peer: socket.socket | None = None
) -> None:
    """Worker-process entry point: frame loop until a ``stop`` request.

    ``peer`` is the parent's socket end, inherited across the fork; it
    is closed first so the only reference to it lives in the parent and
    EOF semantics work (a dead parent surfaces as ``ChannelClosed``).
    The inherited tracer is silenced — spans from a forked child would
    interleave rubbish into the parent's JSONL sink.
    """
    if peer is not None:
        peer.close()
    TRACER.enabled = False
    TRACER.reset()
    chan = Channel(sock)
    worker = ShardWorker(spec)
    try:
        chan.send("ready", {"shard_id": spec.shard_id, "pid": os.getpid()})
        while True:
            kind, payload = chan.recv()
            reply_kind, reply = _HANDLERS[kind](worker, payload)
            chan.send(reply_kind, reply)
            if kind == "stop":
                return
    finally:
        chan.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessShardHandle(QueuedShard):
    """A :class:`TrackerShard`-shaped front for one worker process.

    Same submission surface (``depth``/``submit``/``stop``) and same
    post-stop audit surface (``epochs``/``oplog``/``query_log``/
    ``ledger``) as the in-process shard; the MOT state itself lives in
    the child until the final frame carries its snapshot home at
    ``stop``.
    """

    def __init__(
        self,
        shard_id: int,
        spec: WorkerSpec,
        clock: Union[VirtualClock, WallClock],
        metrics: ServiceMetrics,
        batch_size: int,
    ) -> None:
        if clock.virtual:
            raise ValueError(
                "worker processes are wall-clock only; the virtual clock's "
                "determinism holds on a single cooperative loop (see module docs)"
            )
        super().__init__(shard_id, clock, metrics, batch_size)
        self.spec = spec

        #: the worker's history, its snapshot carried home by the final
        #: frame at stop() (empty until then)
        self.history = ShardSnapshot(shard_id, {}, {}, (), CostLedger())
        self.worker_stats: dict = {}

        self._proc: multiprocessing.process.BaseProcess | None = None
        self._chan: AsyncChannel | None = None
        #: a restart's restore, run by the new pump before any queued op
        self._restore_first: _Control | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the worker and spawn the pump (requires a running loop)."""
        if self._proc is None:
            self._spawn()
        super().start()

    def _spawn(self) -> None:
        parent_sock, child_sock = socket_pair()
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=worker_main,
            args=(child_sock, self.spec, parent_sock),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        proc.start()
        child_sock.close()
        self._proc = proc
        self._chan = AsyncChannel(parent_sock)

    async def stop(self) -> None:
        """Drain, retire the pump, then collect the worker's final frame.

        The channel is claimed before any await, like the pump in
        :meth:`QueuedShard._retire`, so concurrent stops cannot both
        retire the worker.
        """
        if not await self._retire():
            return
        chan = self._chan
        if chan is None:
            return
        self._chan = None
        await chan.send("stop")
        kind, final = await chan.recv()
        chan.close()
        if kind != "final":
            raise RuntimeError(f"worker sent {kind!r} instead of final frame")
        self.history = final["snapshot"]
        self.worker_stats = final["stats"]
        proc = self._proc
        self._proc = None
        if proc is not None:
            # the worker already returned from its frame loop; this join
            # only reaps the process entry, it does not block the loop
            proc.join(timeout=5.0)

    async def restart(self, snap: ShardSnapshot | None = None) -> None:
        """Crash recovery: kill any live worker, respawn, optionally restore.

        Queued (unserviced) operations survive in the parent-side queue
        and are applied to the restored state: the new pump restores
        ``snap`` before it serves any of them. Operations that were in
        flight inside the dead worker are lost — the caller decides
        what to resubmit.
        """
        pump = self._worker
        self._worker = None
        if pump is not None:
            pump.cancel()
            await asyncio.gather(pump, return_exceptions=True)
        chan = self._chan
        self._chan = None
        if chan is not None:
            chan.close()
        proc = self._proc
        self._proc = None
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        restored: asyncio.Future | None = None
        if snap is not None:
            restored = asyncio.get_running_loop().create_future()
            self._restore_first = _Control("restore", snapshot_to_bytes(snap), restored)
        self.start()
        if restored is not None:
            await restored

    # ------------------------------------------------------------------
    # control plane (health / snapshot / restore)
    # ------------------------------------------------------------------
    async def _control(self, kind: str, payload: Any = None) -> Any:
        """One control conversation, serialized FIFO with the batches."""
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Control(kind, payload, fut))
        _reply_kind, reply = await fut
        return reply

    async def health(self) -> dict:
        """Probe the worker; a dead/stopped worker reports unalive."""
        if self._worker is None or self._proc is None or not self._proc.is_alive():
            return {
                "shard_id": self.shard_id,
                "mode": "process",
                "alive": False,
                "depth": self.depth,
                "objects": len(self.oplog),
            }
        vitals = await self._control("health")
        return {**vitals, "depth": self.depth}

    async def snapshot(self) -> ShardSnapshot:
        """Capture the worker's shard state through the snapshot frame."""
        return snapshot_from_bytes(await self._control("snapshot"))

    async def restore(self, snap: ShardSnapshot) -> None:
        """Rebuild the worker's (empty) shard from ``snap``."""
        await self._control("restore", snapshot_to_bytes(snap))

    # ------------------------------------------------------------------
    # pump
    # ------------------------------------------------------------------
    def _channel(self) -> AsyncChannel:
        chan = self._chan
        if chan is None:  # pragma: no cover - start() always spawns first
            raise RuntimeError("pump running without a channel")
        return chan

    async def _run(self) -> None:
        kind, _hello = await self._channel().recv()
        if kind != "ready":
            raise RuntimeError(f"worker sent {kind!r} instead of ready frame")
        first, self._restore_first = self._restore_first, None
        if first is not None:
            await self._converse(first)
        await super()._run()

    async def _converse(self, item: _Control) -> None:
        """One control request/reply; transport errors go to the waiter."""
        chan = self._channel()
        try:
            await chan.send(item.kind, item.payload)
            reply = await chan.recv()
        except Exception as exc:  # noqa: BLE001 — surface on the waiter
            if not item.future.done():
                item.future.set_exception(exc)
            return
        if not item.future.done():
            item.future.set_result(reply)

    async def _serve(self, batch: list[_Admitted]) -> None:
        """Ship one batch to the worker and settle its reply."""
        chan = self._channel()
        await chan.send("batch", [item.req for item in batch])
        kind, payload = await chan.recv()
        if kind != "results":
            raise RuntimeError(f"worker sent {kind!r} instead of results frame")
        results = payload["results"]
        if len(results) != len(batch):
            raise RuntimeError(
                f"worker sent {len(results)} results for a batch of {len(batch)}"
            )
        self._settle(batch, payload["prefetched"], iter(results))
