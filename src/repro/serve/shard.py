"""`TrackerShard` — one worker coroutine owning one MOT instance.

The service hash-partitions objects across shards; each shard runs a
single ``asyncio`` worker that drains its queue in batches of up to
``batch_size`` operations per wakeup and applies them to its own
:class:`~repro.core.mot.MOTTracker` built over the *shared* hierarchy.
Because every MOT operation on an object touches only that object's
spine/DL entries, a shard holding a subset of the objects answers
queries bit-identically to a sequential tracker holding all of them —
the property the consistency audit (:mod:`repro.serve.audit`) checks.

The module has one apply path in two halves:

- :class:`ShardCore` is the clock-free half — the kernel and the
  shard's one history (epoch map, op log, query log) — and
  :meth:`ShardCore.apply` is its only batch entry point, scalar or
  columnar, with one result shape. A columnar core's history is the
  engine's own log; a scalar core logs in :meth:`ShardCore.apply_one`,
  so :class:`~repro.core.mot.MOTTracker` keeps no log and stays the
  reference. The forked worker (:mod:`repro.serve.worker`) runs the
  same core on the far side of the process boundary.
- :class:`QueuedShard` is the scheduling half every shard backend
  shares — the admission queue, the SLI counters, the FIFO batch drain
  and :meth:`QueuedShard._settle`, the one loop that turns results into
  resolved futures. :class:`TrackerShard` feeds it from an in-process
  core; :class:`~repro.serve.worker.ProcessShardHandle` feeds it from
  the worker's reply frames.

Per wakeup the shard:

1. gates on the service clock in virtual mode (it may not run ahead of
   the arrival process — that is what makes queues fill and admission
   control reject deterministically);
2. drains up to ``batch_size`` queued ops preserving FIFO order (so
   per-object operation order is preserved);
3. **prefetches** the batch's move endpoints through the oracle's
   batched ``pair_distances`` API — one multi-source Dijkstra warms the
   row cache for every optimal-cost lookup the moves are about to do
   (scalar mode; the columnar engine batches its own lookups);
4. applies the ops in order, **coalescing** duplicate queries: queries
   for the same ``(object, epoch, source)`` — same object and querying
   node, no intervening move — execute one spine walk and fan the
   answer out to every waiter. The source is part of the key because
   query cost is charged from the *querying* node's position: two
   sources asking about the same object walk different prefixes of the
   spine, so sharing one answer across sources would misattribute cost
   (and fail the audit's per-record cost check);
5. stamps completions: in virtual mode each op is charged an explicit
   service time (``base + per_cost · cost``) on top of the shard's
   busy horizon, in wall mode completions are real clock readings.

All applied operations land in ``oplog``/``query_log`` so the audit
(:func:`repro.core.audit.replay_audit`) can replay them against the
sequential reference.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Sequence, Union

from repro.core.audit import QueryRecord
from repro.core.batch import BatchMOTEngine
from repro.core.costs import CostLedger
from repro.core.mot import MOTTracker
from repro.obs.trace import TRACER
from repro.perf import TimerStat
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import (
    MoveRequest,
    OpResponse,
    PublishRequest,
    QueryRequest,
    Request,
    kind_of,
)
from repro.serve.snapshot import ShardSnapshot, capture_snapshot, restore_snapshot

Node = Hashable

__all__ = ["QueuedShard", "ShardCore", "TrackerShard", "QueryRecord", "shard_sli"]

#: queue sentinel that stops a shard's worker after its queue drains
_STOP = object()


@dataclass
class _Admitted:
    """One queued operation: the request, its stamp, and its waiter."""

    req: Request
    arrival_t: float
    future: asyncio.Future


class ShardCore:
    """The clock-free state and apply path of one shard.

    Owns the kernel and the shard's history: per-object epochs, the
    applied op log, and the answered-query log. Everything
    here is synchronous and scheduler-agnostic — the asyncio
    :class:`TrackerShard` and the process-boundary
    :class:`~repro.serve.worker.ShardWorker` both drive it through
    :meth:`apply`.
    """

    def __init__(self, tracker: MOTTracker, batch: bool = False) -> None:
        self.tracker = tracker
        #: columnar apply path (``batch=True``): the struct-of-arrays
        #: engine replaces per-op tracker calls with vectorized kernels
        #: and logs the history itself, so the three structures below
        #: are the engine's own (``core.oplog is core.engine.oplog``)
        engine = BatchMOTEngine(tracker.hs, tracker.config) if batch else None
        self.engine: BatchMOTEngine | None = engine
        #: per-object applied-move count (the audit's version number)
        self.epochs: dict[str, int] = {} if engine is None else engine.epochs
        #: applied ops per object: [("publish", proxy), ("move", new), ...]
        self.oplog: dict[str, list[tuple[str, Node]]] = (
            {} if engine is None else engine.oplog
        )
        #: every answered query in execution order
        self.query_log: list[QueryRecord] = [] if engine is None else engine.query_log

    @property
    def ledger(self) -> CostLedger:
        """The active kernel's cost ledger (tracker or columnar engine)."""
        return self.engine.ledger if self.engine is not None else self.tracker.ledger

    def install_ledger(self, ledger: CostLedger) -> None:
        """Overwrite the active kernel's ledger (snapshot restore)."""
        if self.engine is not None:
            self.engine.ledger = ledger
        else:
            self.tracker.ledger = ledger

    def replay_history(self, oplog: dict[str, list[tuple[str, Node]]]) -> None:
        """Rebuild kernel state, epochs and op log by replaying ``oplog``.

        Used by snapshot restore: MOT state is deterministic in the
        operation history, so replaying it through :meth:`apply` — one
        batch, either mode — reproduces it bit-identically, and logs
        the replayed history as it goes.
        """
        reqs: list[Request] = []
        for obj, ops in oplog.items():
            for op, node in ops:
                if op == "publish":
                    reqs.append(PublishRequest(obj, node))
                elif op == "move":
                    reqs.append(MoveRequest(obj, node))
                else:
                    raise ValueError(f"unknown oplog entry {op!r} for {obj!r}")
        for res in self.apply(reqs)[1]:
            if res[0] == "err":
                raise res[1]

    def apply(self, reqs: list[Request]) -> tuple[int, Iterator[tuple]]:
        """Apply one drained batch: the only batch entry point.

        Returns ``(prefetched, results)``: the move hop pairs warmed by
        :meth:`prefetch_moves`, and one result per request in order,
        ``("ok", proxy, cost, epoch, coalesced)`` or ``("err", exc)``.
        Duplicate queries coalesce within the batch in both modes.

        Scalar mode prefetches now and yields :meth:`apply_one` results
        lazily: each op's tracker work runs when the caller pulls its
        result, so it lands inside the caller's per-op span and before
        its wall-clock completion stamp. Columnar mode runs
        :meth:`apply_requests` once; the engine batches its own oracle
        lookups, so nothing is prefetched.
        """
        if self.engine is not None:
            return 0, iter(self.apply_requests(reqs))
        return self.prefetch_moves(reqs), self._apply_each(reqs)

    def _apply_each(self, reqs: list[Request]) -> Iterator[tuple]:
        answered: dict[tuple[str, int, Node], tuple[Node, float]] = {}
        for req in reqs:
            try:
                res: tuple = ("ok", *self.apply_one(req, answered))
            except Exception as exc:  # noqa: BLE001 — failures belong to the caller
                res = ("err", exc)
            yield res

    def prefetch_moves(self, reqs: list[Request]) -> int:
        """Warm oracle rows for the batch's move endpoints in one solve.

        Chains each object's in-batch trajectory from its current proxy
        and resolves all hop pairs through ``pair_distances`` — the
        optimal-cost lookups the moves are about to issue then hit the
        row cache instead of running one Dijkstra each (lazy mode).
        """
        chains: dict[str, list[Node]] = {}
        for req in reqs:
            if not isinstance(req, MoveRequest):
                continue
            chain = chains.get(req.obj)
            if chain is None:
                try:
                    cur = self.tracker.proxy_of(req.obj)
                except KeyError:
                    continue  # unpublished: the op itself will fail below
                chain = chains[req.obj] = [cur]
            chain.append(req.new_proxy)
        pairs = [
            (c[i], c[i + 1])
            for c in chains.values()
            for i in range(len(c) - 1)
            if c[i] != c[i + 1]
        ]
        if pairs:
            self.tracker.net.pair_distances(pairs)
        return len(pairs)

    def apply_one(
        self,
        req: Request,
        answered: dict[tuple[str, int, Node], tuple[Node, float]],
    ) -> tuple[Node, float, int, bool]:
        """Apply one request; returns (proxy, cost, epoch, coalesced)."""
        if isinstance(req, PublishRequest):
            res = self.tracker.publish(req.obj, req.proxy)
            self.epochs[req.obj] = 0
            self.oplog.setdefault(req.obj, []).append(("publish", req.proxy))
            return req.proxy, res.cost, 0, False
        if isinstance(req, MoveRequest):
            res = self.tracker.move(req.obj, req.new_proxy)
            epoch = self.epochs[req.obj]
            if res.new_proxy != res.old_proxy:
                # No-op moves leave the structure untouched, so they must
                # not advance the epoch: bumping it used to break query
                # coalescing across a stationary "move" even though every
                # answer before and after it is identical.
                epoch += 1
                self.epochs[req.obj] = epoch
            self.oplog[req.obj].append(("move", req.new_proxy))
            return req.new_proxy, res.cost, epoch, False
        if isinstance(req, QueryRequest):
            epoch = self.epochs.get(req.obj, -1)
            hit = answered.get((req.obj, epoch, req.source))
            if hit is not None:
                proxy, cost = hit
                self.query_log.append(
                    QueryRecord(req.obj, epoch, req.source, proxy, cost, True)
                )
                return proxy, cost, epoch, True
            res = self.tracker.query(req.obj, req.source)
            answered[(req.obj, epoch, req.source)] = (res.proxy, res.cost)
            self.query_log.append(
                QueryRecord(req.obj, epoch, req.source, res.proxy, res.cost, False)
            )
            return res.proxy, res.cost, epoch, False
        raise TypeError(f"not a service request: {req!r}")

    def apply_requests(self, reqs: list[Request]) -> list[tuple]:
        """Apply a whole batch through the columnar engine.

        Returns one tuple per request, positionally aligned, in
        :meth:`apply`'s result shape. The engine already coalesces
        duplicate queries per call, which is exactly the
        per-drained-batch boundary ``apply_one`` uses.
        """
        engine = self.engine
        if engine is None:
            raise RuntimeError("apply_requests requires a batch-mode core")
        ops: list[tuple[str, str, Node]] = []
        for req in reqs:
            if isinstance(req, PublishRequest):
                ops.append(("publish", req.obj, req.proxy))
            elif isinstance(req, MoveRequest):
                ops.append(("move", req.obj, req.new_proxy))
            elif isinstance(req, QueryRequest):
                ops.append(("query", req.obj, req.source))
            else:
                raise TypeError(f"not a service request: {req!r}")
        return [
            ("err", out.error)
            if out.error is not None
            else ("ok", out.proxy, out.cost, out.epoch, out.coalesced)
            for out in engine.apply_ops(ops)
        ]


def shard_sli(shard, makespan_s: float | None = None) -> dict:
    """Per-shard SLIs: p50/p99 latency, drop ratio, sustained ops/s.

    Works on anything with the shard counter attributes — the
    in-process :class:`TrackerShard` and the process-boundary
    :class:`~repro.serve.worker.ProcessShardHandle` alike. ``ops_s``
    needs the run's makespan from the caller (the shard does not know
    when the run started); omit it and the rate is reported as 0.
    """
    submitted = shard.submitted
    rejected = shard.rejected
    offered = submitted + rejected
    lat = shard.latency
    return {
        "shard_id": shard.shard_id,
        "submitted": submitted,
        "completed": shard.completed_ops,
        "rejected": rejected,
        "drop_ratio": rejected / offered if offered else 0.0,
        "objects": len(shard.oplog),
        "latency_ms": {
            "p50_ms": lat.percentile(50.0) * 1e3,
            "p99_ms": lat.percentile(99.0) * 1e3,
            "max_ms": lat.max_s * 1e3,
        },
        "ops_s": (
            shard.completed_ops / makespan_s
            if makespan_s is not None and makespan_s > 0
            else 0.0
        ),
    }


class QueuedShard:
    """The admission queue and settle loop every shard backend shares.

    Holds the bounded-queue gauge, the per-shard SLI counters (see
    :func:`shard_sli`), ``submit``/``stop`` and the worker loop. The
    loop drains admitted ops FIFO in batches of up to ``batch_size``;
    any other queue item ends the batch and runs after it, in order —
    the ``_STOP`` sentinel, or a subclass's control request
    (:meth:`_converse`). A subclass applies each batch in
    :meth:`_serve` and hands the results to :meth:`_settle`.

    The audit views — ``epochs``, ``oplog``, ``query_log``, ``ledger``
    — read the subclass's :attr:`history`: the live :class:`ShardCore`
    in-process, the worker's final snapshot across the process boundary.
    """

    #: the shard's history; anything with the four audit views
    history: Any

    def __init__(
        self,
        shard_id: int,
        clock: Union[VirtualClock, WallClock],
        metrics: ServiceMetrics,
        batch_size: int,
        service_time_base_s: float = 0.0,
        service_time_per_cost_s: float = 0.0,
    ) -> None:
        self.shard_id = shard_id
        self.clock = clock
        self.metrics = metrics
        self.batch_size = batch_size
        self.service_time_base_s = service_time_base_s
        self.service_time_per_cost_s = service_time_per_cost_s

        #: admitted-but-unserviced operations (the bounded-queue gauge)
        self.depth = 0
        #: virtual-mode service horizon: when this shard frees up
        self.busy_until = 0.0
        #: per-shard SLI counters (see :func:`shard_sli`)
        self.submitted = 0
        self.rejected = 0
        self.completed_ops = 0
        self.latency = TimerStat()

        self._queue: asyncio.Queue = asyncio.Queue()
        self._worker: asyncio.Task | None = None

    @property
    def epochs(self) -> dict[str, int]:
        """Per-object applied-move counts."""
        return self.history.epochs

    @property
    def oplog(self) -> dict[str, list[tuple[str, Node]]]:
        """Applied operations per object, in order."""
        return self.history.oplog

    @property
    def query_log(self) -> Sequence[QueryRecord]:
        """Every answered query in execution order."""
        return self.history.query_log

    @property
    def ledger(self) -> CostLedger:
        """The shard's cost ledger."""
        return self.history.ledger

    def start(self) -> None:
        """Spawn the worker task (requires a running event loop)."""
        if self._worker is None:
            self._worker = asyncio.create_task(
                self._run(), name=f"{type(self).__name__}-{self.shard_id}"
            )

    def submit(self, req: Request, arrival_t: float) -> asyncio.Future:
        """Enqueue an admitted request; resolves to its :class:`OpResponse`.

        Admission control is the service's job — by the time a request
        reaches the shard it has already been accepted, so the queue
        itself is unbounded and ``depth`` is the gauge the service
        checks against ``queue_capacity``.
        """
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self.depth += 1
        self.submitted += 1
        self._queue.put_nowait(_Admitted(req, arrival_t, fut))
        return fut

    async def stop(self) -> None:
        """Drain the queue completely, then retire the worker."""
        await self._retire()

    async def _retire(self) -> bool:
        """Drain, then stop the worker; False if no worker was running.

        Claims the worker *before* awaiting it: two concurrent calls
        must not both pass the ``is not None`` guard (each would
        enqueue a ``_STOP`` sentinel, and the leftover one is never
        ``task_done()``-ed, deadlocking any later ``join()``).
        """
        await self._queue.join()
        worker = self._worker
        if worker is None:
            return False
        self._worker = None
        self._queue.put_nowait(_STOP)
        await worker
        return True

    async def _run(self) -> None:
        queue = self._queue
        while True:
            item = await queue.get()
            if isinstance(item, _Admitted):
                # Virtual mode: the shard may not service ops before the
                # arrival clock reaches its busy horizon — while it waits
                # here, the queue fills and admission control pushes back.
                if self.clock.virtual and self.busy_until > self.clock.now:
                    await self.clock.wait_until(self.busy_until)
                batch = [item]
                item = None
                while len(batch) < self.batch_size:
                    try:
                        nxt = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if not isinstance(nxt, _Admitted):
                        item = nxt  # keep FIFO: it runs after this batch
                        break
                    batch.append(nxt)
                await self._serve(batch)
                for _ in batch:
                    queue.task_done()
                if item is None:
                    continue
            if item is _STOP:
                queue.task_done()
                return
            await self._converse(item)
            queue.task_done()

    async def _serve(self, batch: list[_Admitted]) -> None:
        """Apply ``batch`` and :meth:`_settle` its results."""
        raise NotImplementedError

    async def _converse(self, item: Any) -> None:
        """Run one non-op queue item (none outside process handles)."""
        raise TypeError(f"unexpected shard queue item {item!r}")

    def _settle(
        self, batch: list[_Admitted], prefetched: int, results: Iterator[tuple]
    ) -> None:
        """Resolve ``batch``'s futures from its :meth:`ShardCore.apply` results.

        Pulls one result per op inside that op's ``serve.<kind>`` span,
        so a lazy scalar apply runs each op's tracker work in its span.
        Charging is the same in every mode: under a virtual clock an
        executed op costs ``base + per_cost · cost`` on top of the busy
        horizon, a failure ``base`` and a coalesced query nothing; under
        a wall clock each completion is a real clock reading.
        """
        virtual = self.clock.virtual
        start = max(self.busy_until, self.clock.now) if virtual else 0.0
        elapsed = 0.0
        for item in batch:
            req = item.req
            kind = kind_of(req)
            sp = TRACER.span(
                "serve." + kind, obj=str(req.obj), shard=self.shard_id, batch=len(batch)
            )
            with sp:
                res = next(results)
                if sp:
                    if res[0] == "err":
                        sp.annotate(failed=True, error=type(res[1]).__name__)
                    else:
                        sp.set_result(cost=res[2])
                        sp.annotate(epoch=res[3], coalesced=res[4])
            self.depth -= 1
            if res[0] == "err":
                if virtual:
                    elapsed += self.service_time_base_s
                self.metrics.record_failure()
                if not item.future.done():
                    item.future.set_exception(res[1])
                continue
            _tag, proxy, cost, epoch, coalesced = res
            if virtual:
                if not coalesced:
                    elapsed += (
                        self.service_time_base_s + self.service_time_per_cost_s * cost
                    )
                completion = start + elapsed
            else:
                completion = self.clock.now
            resp = OpResponse(
                kind=kind,
                obj=req.obj,
                proxy=proxy,
                cost=cost,
                epoch=epoch,
                coalesced=coalesced,
                arrival_t=item.arrival_t,
                completion_t=completion,
            )
            self.completed_ops += 1
            self.latency.add(resp.latency_s)
            self.metrics.record_completion(kind, resp.latency_s, coalesced)
            if not item.future.done():
                item.future.set_result(resp)
        if virtual:
            self.busy_until = start + elapsed
        self.metrics.record_batch(len(batch), prefetched)


class TrackerShard(QueuedShard):
    """One queue + one worker + one MOT instance (see module docstring)."""

    def __init__(
        self,
        shard_id: int,
        tracker: MOTTracker,
        clock: Union[VirtualClock, WallClock],
        metrics: ServiceMetrics,
        batch_size: int,
        service_time_base_s: float,
        service_time_per_cost_s: float,
        batch: bool = False,
    ) -> None:
        super().__init__(
            shard_id, clock, metrics, batch_size, service_time_base_s, service_time_per_cost_s
        )
        self.core = self.history = ShardCore(tracker, batch=batch)

    @property
    def tracker(self) -> MOTTracker:
        """The shard's MOT instance."""
        return self.core.tracker

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def health(self) -> dict:
        """Liveness probe, uniform with the process-handle flavour."""
        worker = self._worker
        return {
            "shard_id": self.shard_id,
            "mode": "inprocess",
            "alive": worker is not None and not worker.done(),
            "depth": self.depth,
            "objects": len(self.core.oplog),
        }

    async def snapshot(self) -> ShardSnapshot:
        """Capture this shard's state (quiesce first: drain or stop)."""
        return capture_snapshot(self.core, self.shard_id)

    async def restore(self, snap: ShardSnapshot) -> None:
        """Rebuild state from ``snap``; the shard must still be empty."""
        restore_snapshot(self.core, snap)

    async def _serve(self, batch: list[_Admitted]) -> None:
        # synchronous from here on: no awaits between ops of one batch
        prefetched, results = self.core.apply([item.req for item in batch])
        self._settle(batch, prefetched, results)
