"""Per-layer tracing from outside the program.

:func:`installed` wraps the public calls into each layer for the
duration of a traced round and restores them afterwards; the program
itself is not edited. Each wrapped call records one span — name, start,
end, parent span and the op index as request id — into column arrays
held in memory; :meth:`LayerRecorder.write` saves them when the run
ends. Request ids come from the request objects: the driver builds one
object per op, so ``id(request)`` maps back to the op index.

Layers (repository module → span names):

- ``driver`` (this benchmark's client loop): ``driver.submit``, ``driver.settle``
- ``serve.service``: ``service.submit`` (``TrackingService.submit_nowait``)
- ``serve.shard``: ``shard.apply_one`` / ``shard.apply_requests`` (``ShardCore``)
- ``core.mot``: ``mot.<phase>.<publish|move|query>`` (``MOTTracker``)
- ``core.batch``: ``batch.apply_ops`` (``BatchMOTEngine.apply_ops``)
- ``graphs``: ``graphs.distance``, ``graphs.pair`` (``SensorNetwork``)
- ``hierarchy``: ``hierarchy.build`` (``build_hierarchy`` as the service calls it)
- ``serve.transport``: ``transport.encode``, ``transport.send``, ``transport.recv``
- ``serve.worker``: the forked worker's own ``worker_stats``, read after ``stop()``

A forked worker inherits the wrappers; :func:`installed` switches the
recorder off in the child, whose numbers come from ``worker_stats``.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.serve.service as service_mod
import repro.serve.transport as transport_mod
import repro.serve.worker as worker_mod
from repro.core.batch import BatchMOTEngine
from repro.core.mot import MOTTracker
from repro.graphs.network import SensorNetwork
from repro.serve.protocol import Overloaded
from repro.serve.service import TrackingService
from repro.serve.shard import ShardCore
from repro.serve.transport import AsyncChannel

__all__ = ["LAYER_METRICS", "LayerRecorder", "installed"]

perf_counter = time.perf_counter

SPAN_NAMES = (
    "driver.submit",
    "driver.settle",
    "service.submit",
    "shard.apply_one",
    "shard.apply_requests",
    "mot.serve.publish",
    "mot.serve.move",
    "mot.serve.query",
    "mot.audit.publish",
    "mot.audit.move",
    "mot.audit.query",
    "batch.apply_ops",
    "graphs.distance",
    "graphs.pair",
    "hierarchy.build",
    "transport.encode",
    "transport.send",
    "transport.recv",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
SPAN_COLUMNS = ("name", "start_us", "end_us", "parent", "rid", "ops")

#: per-layer metric → unit, in report order
LAYER_METRICS = {
    "driver.busy_s": "s",
    "service.submit_calls": "count",
    "service.submit_us_p50": "us",
    "service.rejected": "count",
    "shard.batches": "count",
    "shard.batch_size_mean": "ops",
    "shard.queue_wait_ms_p50": "ms",
    "shard.queue_wait_ms_p99": "ms",
    "shard.apply_busy_s": "s",
    "shard.coalesced_ratio": "ratio",
    "mot.serve_calls": "count",
    "mot.move_us_p50": "us",
    "mot.query_us_p50": "us",
    "mot.serve_busy_s": "s",
    "mot.audit_busy_s": "s",
    "batch.apply_calls": "count",
    "batch.ops_per_call": "ops",
    "batch.us_per_op": "us",
    "batch.busy_s": "s",
    "graphs.distance_calls": "count",
    "graphs.distance_busy_s": "s",
    "graphs.pair_calls": "count",
    "graphs.pair_busy_s": "s",
    "hierarchy.build_s": "s",
    "transport.frames": "count",
    "transport.bytes_sent": "bytes",
    "transport.send_us_p50": "us",
    "transport.reply_wait_ms_p50": "ms",
    "worker.batches": "count",
    "worker.apply_busy_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.slowness": "ratio",
}


def _p(values, q: float) -> float:
    """Percentile ``q`` of ``values``; 0.0 for a layer that saw no calls."""
    return float(np.percentile(values, q)) if len(values) else 0.0


class LayerRecorder:
    """Spans of one traced round, in column arrays (see module docstring)."""

    def __init__(self, requests) -> None:
        self.rid_of = {id(req): i for i, req in enumerate(requests)}
        #: False in a forked worker: its numbers come from worker_stats
        self.enabled = True
        self.reset()

    def reset(self) -> None:
        """Forget the previous round's spans and counters."""
        self.name = array("B")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("l")
        self.rid = array("l")
        #: time covered by each span's direct children (for self time)
        self.child = array("d")
        #: ops a span carries (batch calls carry many)
        self.n = array("l")
        self.stack: list[int] = []
        self.submit_t: dict[int, float] = {}
        self.queue_wait_s: list[float] = []
        self.rejected = 0
        self.bytes_sent = 0
        self.phase = "serve"
        self._batches0 = 0
        self._batch_ops0 = 0.0

    # -- spans ---------------------------------------------------------
    def begin(self, name: str, rid: int = -1, n: int = 1, push: bool = True) -> int:
        """Open a span; ``push=False`` for a coroutine's span, which may
        interleave with others and so never parents a synchronous one."""
        sid = len(self.t0)
        parent = self.stack[-1] if self.stack else -1
        if rid < 0 and parent >= 0:
            rid = self.rid[parent]
        self.name.append(_ID[name])
        self.parent.append(parent)
        self.rid.append(rid)
        self.child.append(0.0)
        self.n.append(n)
        self.t1.append(0.0)
        if push:
            self.stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def end(self, sid: int, pop: bool = True) -> None:
        """Close span ``sid`` and charge its time to its parent."""
        t1 = perf_counter()
        self.t1[sid] = t1
        if pop:
            self.stack.pop()
        parent = self.parent[sid]
        if parent >= 0:
            self.child[parent] += t1 - self.t0[sid]

    def queue_wait(self, req, t: float) -> None:
        """Submit → start of the apply (or frame) that carries ``req``."""
        t_sub = self.submit_t.pop(id(req), None)
        if t_sub is not None:
            self.queue_wait_s.append(t - t_sub)

    def mark_serve_start(self, service: TrackingService) -> None:
        """Note the batch counters after warm-up, so batch stats cover timed ops."""
        self._batches0 = service.metrics.batches
        self._batch_ops0 = service.metrics.batch_size.total_s

    # -- aggregation ---------------------------------------------------
    def collect(self, service: TrackingService, rnd) -> None:
        """Per-layer metrics of the finished round into ``rnd.layers``."""
        ids = np.frombuffer(self.name, dtype=np.uint8)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        child = np.frombuffer(self.child, dtype=np.float64)
        ops = np.frombuffer(self.n, dtype=np.int64)

        def mask(*names: str) -> np.ndarray:
            return np.isin(ids, [_ID[nm] for nm in names])

        def d(*names: str) -> np.ndarray:
            return dur[mask(*names)]

        drv = mask("driver.submit", "driver.settle")
        metrics = service.metrics
        batches = metrics.batches - self._batches0
        batch_ops = metrics.batch_size.total_s - self._batch_ops0
        queries = metrics.queries_coalesced + metrics.queries_executed
        mot_serve = d("mot.serve.publish", "mot.serve.move", "mot.serve.query")
        batch_busy = float(d("batch.apply_ops").sum())
        batch_calls = len(d("batch.apply_ops"))
        batch_ops_n = int(ops[mask("batch.apply_ops")].sum())
        stats = [getattr(shard, "worker_stats", None) or {} for shard in service.shards]
        wait_ms = np.asarray(self.queue_wait_s) * 1e3
        rnd.layers = {
            "driver.busy_s": float((dur[drv] - child[drv]).sum()),
            "service.submit_calls": len(d("service.submit")),
            "service.submit_us_p50": _p(d("service.submit"), 50) * 1e6,
            "service.rejected": self.rejected,
            "shard.batches": batches,
            "shard.batch_size_mean": batch_ops / batches if batches else 0.0,
            "shard.queue_wait_ms_p50": _p(wait_ms, 50),
            "shard.queue_wait_ms_p99": _p(wait_ms, 99),
            "shard.apply_busy_s": float(d("shard.apply_one", "shard.apply_requests").sum()),
            "shard.coalesced_ratio": metrics.queries_coalesced / queries if queries else 0.0,
            "mot.serve_calls": len(mot_serve),
            "mot.move_us_p50": _p(d("mot.serve.move"), 50) * 1e6,
            "mot.query_us_p50": _p(d("mot.serve.query"), 50) * 1e6,
            "mot.serve_busy_s": float(mot_serve.sum()),
            "mot.audit_busy_s": float(
                d("mot.audit.publish", "mot.audit.move", "mot.audit.query").sum()
            ),
            "batch.apply_calls": batch_calls,
            "batch.ops_per_call": batch_ops_n / batch_calls if batch_calls else 0.0,
            "batch.us_per_op": batch_busy / batch_ops_n * 1e6 if batch_ops_n else 0.0,
            "batch.busy_s": batch_busy,
            "graphs.distance_calls": len(d("graphs.distance")),
            "graphs.distance_busy_s": float(d("graphs.distance").sum()),
            "graphs.pair_calls": len(d("graphs.pair")),
            "graphs.pair_busy_s": float(d("graphs.pair").sum()),
            "hierarchy.build_s": float(d("hierarchy.build").sum()),
            "transport.frames": len(d("transport.send")),
            "transport.bytes_sent": self.bytes_sent,
            "transport.send_us_p50": _p(d("transport.send"), 50) * 1e6,
            "transport.reply_wait_ms_p50": _p(d("transport.recv"), 50) * 1e3,
            "worker.batches": sum(s.get("batches", 0) for s in stats),
            "worker.apply_busy_s": sum(
                s.get("apply_time", {}).get("total_s", 0.0) for s in stats
            ),
        }

    def write(self, path: Path) -> int:
        """Write the round's spans as gzipped JSON lines; returns how many.

        The first line names the columns and the span names; each line
        after it is one span, ``[name index, start µs, end µs, parent
        span (-1: none), request id (-1: none), ops]``. Span ids count
        these lines from 0, and ``parent`` refers to them.
        """
        base = self.t0[0] if len(self.t0) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": SPAN_COLUMNS, "names": SPAN_NAMES}) + "\n")
            for i in range(len(self.t0)):
                fh.write(
                    f"[{self.name[i]},{(self.t0[i] - base) * 1e6:.3f},"
                    f"{(self.t1[i] - base) * 1e6:.3f},{self.parent[i]},"
                    f"{self.rid[i]},{self.n[i]}]\n"
                )
        return len(self.t0)


# ----------------------------------------------------------------------
# the wrappers
# ----------------------------------------------------------------------
def _span(rec: LayerRecorder, name: str, fn):
    """Plain span around a synchronous call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        sid = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(sid)

    return wrapper


def _wrappers(rec: LayerRecorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every wrapped call."""
    submit_nowait = TrackingService.submit_nowait
    apply_one = ShardCore.apply_one
    apply_requests = ShardCore.apply_requests
    apply_ops = BatchMOTEngine.apply_ops
    pair_distances = SensorNetwork.pair_distances
    pair_index_distances = SensorNetwork.pair_index_distances
    encode_frame = transport_mod.encode_frame
    send, recv = AsyncChannel.send, AsyncChannel.recv
    worker_main = worker_mod.worker_main

    @functools.wraps(submit_nowait)
    def submit(self, req):
        if not rec.enabled:
            return submit_nowait(self, req)
        sid = rec.begin("service.submit", rec.rid_of.get(id(req), -1))
        rec.submit_t[id(req)] = rec.t0[sid]
        try:
            return submit_nowait(self, req)
        except Overloaded:
            rec.rejected += 1
            rec.submit_t.pop(id(req), None)
            raise
        finally:
            rec.end(sid)

    @functools.wraps(apply_one)
    def shard_apply_one(self, req, answered):
        if not rec.enabled:
            return apply_one(self, req, answered)
        sid = rec.begin("shard.apply_one", rec.rid_of.get(id(req), -1))
        rec.queue_wait(req, rec.t0[sid])
        try:
            return apply_one(self, req, answered)
        finally:
            rec.end(sid)

    @functools.wraps(apply_requests)
    def shard_apply_requests(self, reqs):
        if not rec.enabled:
            return apply_requests(self, reqs)
        rid = rec.rid_of.get(id(reqs[0]), -1) if reqs else -1
        sid = rec.begin("shard.apply_requests", rid, len(reqs))
        for req in reqs:
            rec.queue_wait(req, rec.t0[sid])
        try:
            return apply_requests(self, reqs)
        finally:
            rec.end(sid)

    def mot(op: str):
        fn = getattr(MOTTracker, op)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not rec.enabled:
                return fn(self, *args, **kwargs)
            sid = rec.begin(f"mot.{rec.phase}.{op}")
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.end(sid)

        return wrapper

    @functools.wraps(apply_ops)
    def batch_apply_ops(self, ops):
        if not rec.enabled:
            return apply_ops(self, ops)
        ops = list(ops)
        sid = rec.begin("batch.apply_ops", n=len(ops))
        try:
            return apply_ops(self, ops)
        finally:
            rec.end(sid)

    def pair(fn):
        @functools.wraps(fn)
        def wrapper(self, pairs):
            if not rec.enabled:
                return fn(self, pairs)
            sid = rec.begin("graphs.pair", n=len(pairs))
            try:
                return fn(self, pairs)
            finally:
                rec.end(sid)

        return wrapper

    @functools.wraps(encode_frame)
    def encode(kind, payload):
        if not rec.enabled:
            return encode_frame(kind, payload)
        sid = rec.begin("transport.encode")
        if kind == "batch":
            # the worker applies in the child, so the parent-visible
            # end of an op's queue wait is the frame that carries it
            for req in payload:
                rec.queue_wait(req, rec.t0[sid])
        try:
            frame = encode_frame(kind, payload)
        finally:
            rec.end(sid)
        rec.bytes_sent += len(frame)
        return frame

    def channel(name: str, fn):
        @functools.wraps(fn)
        async def wrapper(self, *args, **kwargs):
            if not rec.enabled:
                return await fn(self, *args, **kwargs)
            sid = rec.begin(name, push=False)
            try:
                return await fn(self, *args, **kwargs)
            finally:
                rec.end(sid, pop=False)

        return wrapper

    @functools.wraps(worker_main)
    def forked_worker_main(*args, **kwargs):
        rec.enabled = False
        return worker_main(*args, **kwargs)

    return [
        (TrackingService, "submit_nowait", submit),
        (ShardCore, "apply_one", shard_apply_one),
        (ShardCore, "apply_requests", shard_apply_requests),
        (MOTTracker, "publish", mot("publish")),
        (MOTTracker, "move", mot("move")),
        (MOTTracker, "query", mot("query")),
        (BatchMOTEngine, "apply_ops", batch_apply_ops),
        (SensorNetwork, "distance", _span(rec, "graphs.distance", SensorNetwork.distance)),
        (SensorNetwork, "pair_distances", pair(pair_distances)),
        (SensorNetwork, "pair_index_distances", pair(pair_index_distances)),
        (service_mod, "build_hierarchy", _span(rec, "hierarchy.build", service_mod.build_hierarchy)),
        (transport_mod, "encode_frame", encode),
        (AsyncChannel, "send", channel("transport.send", send)),
        (AsyncChannel, "recv", channel("transport.recv", recv)),
        (worker_mod, "worker_main", forked_worker_main),
    ]


@contextmanager
def installed(rec: LayerRecorder):
    """Wrap every layer's public calls for the ``with`` body, then restore."""
    patches = _wrappers(rec)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield rec
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
