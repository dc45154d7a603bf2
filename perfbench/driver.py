"""Closed-loop driver: one round of set-up, serving and audit.

Load comes from one process and one thread. ``window`` client
coroutines share the op stream: a client takes the next op only after
its previous op resolved, so at most ``window`` ops are outstanding and
the service's admission control (``queue_capacity`` ≥ ``window``) never
has cause to reject. Ops are handed out in stream order, so each
shard's FIFO queue applies every object's ops in stream order and each
query's expected answer is known in advance.

A round builds a fresh network and service, so set-up is measured on
every round; rounds repeat the same op stream, so their cost ratios
must agree exactly.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import time
from array import array
from dataclasses import dataclass, field

from repro.core.costs import close_to
from repro.graphs.generators import grid_network
from repro.serve.audit import audit_service
from repro.serve.protocol import Overloaded
from repro.serve.service import TrackingService

from perfbench.workloads import GRID_SIDE, MOVE, OpStream, WorkloadSpec

__all__ = ["Round", "run_round", "gate"]

perf_counter = time.perf_counter

#: the service's own seed (its hierarchy build). Fixed: the workload
#: seed picks the ops, and a per-seed overlay would move every cost and
#: timing metric by several percent between seeds.
SERVICE_SEED = 0

#: completions per throughput window
WINDOW_OPS = 1000


@dataclass
class Round:
    """What one round measured, and whether it passed its checks."""

    setup_s: float = 0.0
    audit_s: float = 0.0
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    #: answers whose proxy differs from the stream's expected proxy
    wrong: int = 0
    audit_ok: bool = False
    maintenance_cost_ratio: float = 0.0
    query_cost_ratio: float = 0.0
    #: submit → resolved future of each completed op, by kind; arrays
    #: so the samples a run keeps barely move its peak RSS
    move_lat_s: array = field(default_factory=lambda: array("d"), repr=False)
    query_lat_s: array = field(default_factory=lambda: array("d"), repr=False)
    #: ops/s over consecutive windows of WINDOW_OPS completions (fewer
    #: for streams shrunk for tests)
    windows: list[float] = field(default_factory=list, repr=False)
    #: filled by a traced round (see perfbench.layers)
    layers: dict = field(default_factory=dict)
    #: problems seen while the round ran; :func:`gate` adds its own
    problems: list[str] = field(default_factory=list)


#: the CPUs this process may use, read before :func:`_pin_workers`
#: narrows its own affinity (forked workers inherit the narrowed set)
CPUS = sorted(os.sched_getaffinity(0))


def _pin_workers() -> None:
    """Keep this process on the first CPU and the forked workers on the
    others, so the scheduler never stacks the two busy ends of the pipe
    on one CPU (that stacking set the p99 tail of runs on 2 vCPUs)."""
    if len(CPUS) < 2:
        return
    os.sched_setaffinity(0, {CPUS[0]})
    for i, child in enumerate(multiprocessing.active_children()):
        os.sched_setaffinity(child.pid, {CPUS[1 + i % (len(CPUS) - 1)]})


def _windows(done_t: list[float]) -> list[float]:
    """Ops/s over consecutive fixed-size windows of completion times."""
    size = min(WINDOW_OPS, max(1, len(done_t) // 8))
    return [
        size / (done_t[j + size] - done_t[j])
        for j in range(0, len(done_t) - size, size)
        if done_t[j + size] > done_t[j]
    ]


async def _serve(service: TrackingService, ops: OpStream, window: int, rnd: Round, rec) -> None:
    """Drive every op of the stream through ``window`` closed-loop clients."""
    reqs, expected = ops.requests, ops.expected
    n = len(reqs)
    lat = [-1.0] * n
    done_t: list[float] = []
    submit = service.submit_nowait
    cursor = 0

    async def client() -> None:
        nonlocal cursor
        while cursor < n:
            i = cursor
            cursor += 1
            sid = rec.begin("driver.submit", i) if rec is not None else -1
            t0 = perf_counter()
            try:
                fut = submit(reqs[i])
            except Overloaded:
                rnd.rejected += 1
                continue
            finally:
                if rec is not None:
                    rec.end(sid)
            try:
                resp = await fut
            except Exception:  # noqa: BLE001 — an op the service failed is counted, not raised
                rnd.failed += 1
                continue
            t1 = perf_counter()
            sid = rec.begin("driver.settle", i) if rec is not None else -1
            lat[i] = t1 - t0
            done_t.append(t1)
            if resp.proxy != expected[i]:
                rnd.wrong += 1
            if rec is not None:
                rec.end(sid)

    await asyncio.gather(*(client() for _ in range(window)))
    rnd.offered = n
    rnd.completed = len(done_t)
    kinds = ops.kinds
    rnd.move_lat_s = array("d", (x for x, k in zip(lat, kinds) if k == MOVE and x >= 0))
    rnd.query_lat_s = array("d", (x for x, k in zip(lat, kinds) if k != MOVE and x >= 0))
    rnd.windows = _windows(done_t)


async def _setup_and_serve(spec: WorkloadSpec, ops: OpStream, rnd: Round, rec):
    t0 = perf_counter()
    net = grid_network(GRID_SIDE, GRID_SIDE)
    service = TrackingService(net, spec.service_config(), seed=SERVICE_SEED)
    await service.start()
    if spec.workers:
        _pin_workers()
    try:
        warm = [service.submit_warmup(req) for req in ops.publishes]
        for res in await asyncio.gather(*warm, return_exceptions=True):
            if isinstance(res, BaseException):
                rnd.problems.append(f"warm-up publish failed: {res!r}")
        rnd.setup_s = perf_counter() - t0
        if rec is not None:
            rec.mark_serve_start(service)
        await _serve(service, ops, spec.window, rnd, rec)
    finally:
        await service.stop()
    return service


def run_round(spec: WorkloadSpec, ops: OpStream, rec=None) -> Round:
    """Set up, serve the whole stream, stop, audit; ``rec`` traces layers."""
    gc.collect()
    rnd = Round()
    service = asyncio.run(_setup_and_serve(spec, ops, rnd, rec))
    ledger = service.merged_ledger()
    rnd.maintenance_cost_ratio = ledger.maintenance_cost_ratio
    rnd.query_cost_ratio = ledger.query_cost_ratio
    if rec is not None:
        rec.phase = "audit"
    t0 = perf_counter()
    report = audit_service(service)
    rnd.audit_s = perf_counter() - t0
    if rec is not None:
        rec.phase = "serve"
        rec.collect(service, rnd)
    rnd.audit_ok = report.ok
    return rnd


def gate(rnd: Round, reference: Round | None) -> list[str]:
    """The per-round correctness gate; returns the reasons it failed.

    A round passes when the audit replays clean, every offered op
    completed (and there were some), every answer names the proxy the
    stream implies, and both cost ratios match the reference round of
    the same seed.
    """
    problems = list(rnd.problems)
    if not rnd.audit_ok:
        problems.append("audit_service found mismatches")
    if rnd.offered <= 0 or rnd.completed != rnd.offered:
        problems.append(
            f"completed {rnd.completed} of {rnd.offered} offered "
            f"({rnd.rejected} rejected, {rnd.failed} failed)"
        )
    if rnd.wrong:
        problems.append(f"{rnd.wrong} answers name the wrong proxy")
    if reference is not None:
        for name in ("maintenance_cost_ratio", "query_cost_ratio"):
            got, want = getattr(rnd, name), getattr(reference, name)
            if not close_to(got, want):
                problems.append(f"{name} {got!r} differs from same-seed {want!r}")
    return problems
