"""Multiprocess shard parity, health probes, and crash recovery.

The process boundary must be semantically invisible: the same workload
replayed against in-process shards (virtual clock, the deterministic
reference) and against forked worker processes (wall clock) must apply
the identical per-shard op streams — same ring, same FIFO — and
therefore produce identical proxies, epochs and (float-noise aside)
cost ledgers, with the sequential-replay audit green on both sides.
"""

import asyncio
import os

import pytest

from repro.core.costs import close_to
from repro.graphs.generators import grid_network
from repro.serve import (
    MoveRequest,
    PublishRequest,
    QueryRequest,
    ServiceConfig,
    TrackingService,
    VirtualClock,
    WallClock,
    audit_service,
    arrival_trace,
    replay,
)
from repro.sim.workload import make_workload

NET = grid_network(6, 6)


def run(coro):
    return asyncio.run(coro)


def drive(config, clock, seed=5):
    async def scenario():
        workload = make_workload(
            NET, num_objects=10, moves_per_object=4, num_queries=25, seed=seed
        )
        # parity precondition: no repeated (obj, source) query pair, so
        # coalescing — which depends on batch timing — cannot fire in
        # either mode and both sides execute every query
        pairs = [(q.obj, q.source) for q in workload.queries]
        assert len(pairs) == len(set(pairs))
        trace = arrival_trace(workload, rate=800.0, seed=seed)
        service = TrackingService(NET, config, seed=seed, clock=clock)
        await service.start()
        result = await replay(service, workload, trace)
        return service, result

    return asyncio.run(scenario())


def final_proxies(service):
    return {
        obj: ops[-1][1]
        for shard in service.shards
        for obj, ops in shard.oplog.items()
    }


class TestParity:
    def test_multiprocess_parity_with_inprocess(self):
        roomy = 100_000  # nothing rejected: both sides see every op
        ref_service, ref_result = drive(
            ServiceConfig(shards=2, queue_capacity=roomy), VirtualClock()
        )
        mp_service, mp_result = drive(
            ServiceConfig(workers=2, queue_capacity=roomy), WallClock()
        )
        for result in (ref_result, mp_result):
            d = result.as_dict()
            assert d["rejected"]["total"] == 0 and d["failed"] == 0
        assert mp_result.completed == ref_result.completed

        assert audit_service(ref_service).ok
        assert audit_service(mp_service).ok

        # same ring, same FIFO: per-shard histories match exactly
        assert final_proxies(mp_service) == final_proxies(ref_service)
        for ref_shard, mp_shard in zip(ref_service.shards, mp_service.shards):
            assert mp_shard.oplog == ref_shard.oplog
            assert mp_shard.epochs == ref_shard.epochs
        assert ref_service.metrics.queries_coalesced == 0
        assert mp_service.metrics.queries_coalesced == 0

        ref_ledger = ref_service.merged_ledger()
        mp_ledger = mp_service.merged_ledger()
        assert mp_ledger.maintenance_ops == ref_ledger.maintenance_ops
        assert mp_ledger.query_ops == ref_ledger.query_ops
        assert mp_ledger.noop_moves == ref_ledger.noop_moves
        assert close_to(mp_ledger.maintenance_cost, ref_ledger.maintenance_cost)
        assert close_to(mp_ledger.query_cost, ref_ledger.query_cost)
        assert close_to(mp_ledger.publish_cost, ref_ledger.publish_cost)
        assert close_to(
            mp_ledger.maintenance_optimal, ref_ledger.maintenance_optimal
        )

        # the final frame also carried the worker's own counters home
        for shard in mp_service.shards:
            assert shard.worker_stats["batches"] >= 1
            assert shard.worker_stats["failures"] == 0
        assert sum(
            s.worker_stats["ops_applied"] for s in mp_service.shards
        ) == mp_result.completed + mp_result.warmup_completed


class TestHealth:
    def test_healthcheck_round_trips_through_the_workers(self):
        async def scenario():
            cfg = ServiceConfig(workers=2)
            service = TrackingService(NET, cfg, seed=1, clock=WallClock())
            await service.start()
            health = await service.healthcheck()
            assert health["ok"] and health["multiprocess"]
            assert [s["mode"] for s in health["shards"]] == ["process"] * 2
            pids = [s["pid"] for s in health["shards"]]
            assert len(set(pids)) == 2
            assert all(pid != os.getpid() for pid in pids)
            await service.stop()
            after = await service.healthcheck()
            assert not after["ok"]
            assert all(not s["alive"] for s in after["shards"])

        run(scenario())

    def test_virtual_clock_refuses_worker_processes(self):
        with pytest.raises(ValueError, match="wall clock"):
            TrackingService(
                NET, ServiceConfig(workers=2), seed=1, clock=VirtualClock()
            )


class TestCrashRecovery:
    def test_worker_crash_restart_restores_from_snapshot(self):
        async def scenario():
            cfg = ServiceConfig(workers=1, queue_capacity=1000)
            service = TrackingService(NET, cfg, seed=4, clock=WallClock())
            await service.start()
            for i in range(4):
                await service.submit(PublishRequest(f"obj-{i}", NET.node_at(i)))
            await service.submit(MoveRequest("obj-0", NET.node_at(7)))
            handle = service.shards[0]
            snap = await handle.snapshot()
            assert snap.objects == ("obj-0", "obj-1", "obj-2", "obj-3")
            pid_before = (await handle.health())["pid"]

            handle._proc.kill()  # simulated crash, state gone with it
            handle._proc.join(5.0)
            dead = await handle.health()
            assert not dead["alive"]

            await handle.restart(snap)
            resp = await service.submit(QueryRequest("obj-0", NET.node_at(24)))
            assert resp.proxy == NET.node_at(7)
            assert resp.epoch == 1
            mv = await service.submit(MoveRequest("obj-0", NET.node_at(12)))
            assert mv.epoch == 2
            alive = await service.healthcheck()
            assert alive["ok"]
            assert alive["shards"][0]["pid"] != pid_before

            await service.stop()
            # restored history + post-crash ops replay clean end to end
            assert audit_service(service).ok
            assert len(handle.oplog["obj-0"]) == 3

        run(scenario())

    def test_restart_restores_before_queued_ops(self):
        """An op queued while the worker is dead runs on the restored state."""

        async def scenario():
            cfg = ServiceConfig(workers=1, queue_capacity=1000)
            service = TrackingService(NET, cfg, seed=4, clock=WallClock())
            await service.start()
            await service.submit(PublishRequest("obj-0", NET.node_at(3)))
            handle = service.shards[0]
            snap = await handle.snapshot()

            handle._proc.kill()
            handle._proc.join(5.0)
            # queued behind nothing: the pump is retired by restart()
            # before it can pick the query up
            fut = service.submit_nowait(QueryRequest("obj-0", NET.node_at(24)))
            await handle.restart(snap)
            resp = await fut
            assert resp.proxy == NET.node_at(3)
            assert resp.epoch == 0

            await service.stop()
            assert audit_service(service).ok
            assert len(handle.query_log) == 1

        run(scenario())
