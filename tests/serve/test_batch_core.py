"""ShardCore's columnar apply path vs its scalar twin.

``ShardCore(batch=True)`` swaps the per-op tracker calls for the
struct-of-arrays :class:`~repro.core.batch.BatchMOTEngine`, and the
shard's history (epochs, op log, query log) is the engine's own log. The
contract: a batch-mode core fed the same request stream as a scalar
core through :meth:`ShardCore.apply` produces the same results, logs
and epochs — snapshots taken from either mode restore into either
mode, and whole virtual-clock service runs report identically.
"""

from __future__ import annotations

import random

import pytest

from repro.core.batch import audit_batch_core
from repro.core.costs import close_to
from repro.core.mot import MOTTracker
from repro.graphs.generators import grid_network
from repro.hierarchy.structure import build_hierarchy
from repro.serve.bench import ServeBenchConfig, run_serve_bench
from repro.serve.protocol import MoveRequest, PublishRequest, QueryRequest
from repro.serve.shard import ShardCore
from repro.serve.snapshot import capture_snapshot, restore_snapshot

NET = grid_network(5, 5)
HIER = build_hierarchy(NET, seed=2)


def _request_stream(seed: int = 13, objects: int = 6, n: int = 120):
    """A deterministic FIFO request mix, duplicate queries included."""
    rng = random.Random(seed)
    reqs = [
        PublishRequest(f"obj-{i}", NET.node_at(rng.randrange(NET.n)))
        for i in range(objects)
    ]
    for _ in range(n):
        obj = f"obj-{rng.randrange(objects)}"
        r = rng.random()
        if r < 0.4:
            reqs.append(MoveRequest(obj, NET.node_at(rng.randrange(NET.n))))
        elif r < 0.7:
            reqs.append(QueryRequest(obj, NET.node_at(rng.randrange(NET.n))))
        else:
            # repeat a recent query verbatim to exercise coalescing
            reqs.append(QueryRequest(obj, NET.node_at(0)))
    return reqs


def _drive(core: ShardCore, reqs, batch_size: int = 16):
    """Feed ``reqs`` through the production entry point, batch by batch."""
    results = []
    for i in range(0, len(reqs), batch_size):
        _prefetched, batch_results = core.apply(reqs[i : i + batch_size])
        results.extend(batch_results)
    return results


class TestApplyParity:
    def test_batch_results_match_scalar(self):
        reqs = _request_stream()
        scalar = ShardCore(MOTTracker(HIER))
        batch = ShardCore(MOTTracker(HIER), batch=True)
        res_s = _drive(scalar, reqs)
        res_b = _drive(batch, reqs)
        assert len(res_s) == len(res_b) == len(reqs)
        for k, (a, b) in enumerate(zip(res_s, res_b)):
            assert a[0] == b[0], (k, reqs[k], a, b)
            if a[0] == "err":
                assert type(a[1]) is type(b[1]) and str(a[1]) == str(b[1])
            else:
                assert a[1] == b[1], (k, reqs[k], a, b)  # proxy
                assert close_to(a[2], b[2]), (k, reqs[k], a, b)  # cost
                assert a[3] == b[3], (k, reqs[k], a, b)  # epoch
                assert a[4] == b[4], (k, reqs[k], a, b)  # coalesced

    def test_batch_core_keeps_audit_logs(self):
        reqs = _request_stream()
        scalar = ShardCore(MOTTracker(HIER))
        batch = ShardCore(MOTTracker(HIER), batch=True)
        _drive(scalar, reqs)
        _drive(batch, reqs)
        assert batch.epochs == scalar.epochs
        assert batch.oplog == scalar.oplog
        assert batch.query_log == scalar.query_log
        # one history: the core's logs are the engine's
        assert batch.epochs is batch.engine.epochs
        assert batch.oplog is batch.engine.oplog
        assert batch.query_log is batch.engine.query_log
        # and it passes the columnar audit
        audit = audit_batch_core(batch.engine)
        assert audit.ok, audit.as_dict()

    def test_errors_carried_in_place(self):
        core = ShardCore(MOTTracker(HIER), batch=True)
        res = core.apply_requests(
            [
                PublishRequest("a", NET.node_at(0)),
                PublishRequest("a", NET.node_at(1)),
                MoveRequest("ghost", NET.node_at(2)),
            ]
        )
        assert res[0][0] == "ok"
        assert res[1][0] == "err" and isinstance(res[1][1], ValueError)
        assert res[2][0] == "err" and isinstance(res[2][1], KeyError)
        # the failed ops never reached the audit logs
        assert list(core.oplog) == ["a"] and len(core.oplog["a"]) == 1

    def test_scalar_apply_is_lazy(self):
        """Each op's tracker work runs when its result is pulled."""
        core = ShardCore(MOTTracker(HIER))
        _, results = core.apply([PublishRequest("a", NET.node_at(0))])
        assert "a" not in core.oplog  # nothing pulled, nothing applied
        list(results)
        prefetched, results = core.apply(
            [MoveRequest("a", NET.node_at(6)), PublishRequest("b", NET.node_at(1))]
        )
        assert prefetched == 1
        assert core.oplog["a"] == [("publish", NET.node_at(0))]
        assert next(results)[0] == "ok"
        assert core.oplog["a"][-1] == ("move", NET.node_at(6))
        assert "b" not in core.oplog
        assert next(results)[0] == "ok" and "b" in core.oplog

    def test_apply_requests_requires_batch_mode(self):
        core = ShardCore(MOTTracker(HIER))
        with pytest.raises(RuntimeError, match="batch-mode"):
            core.apply_requests([PublishRequest("a", NET.node_at(0))])


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("src_batch", [False, True])
    @pytest.mark.parametrize("dst_batch", [False, True])
    def test_capture_restore_across_modes(self, src_batch, dst_batch):
        """Snapshots are mode-agnostic: any source restores into any mode."""
        reqs = _request_stream(seed=21, objects=4, n=60)
        tail = _request_stream(seed=22, objects=4, n=40)[4:]  # skip publishes
        src = ShardCore(MOTTracker(HIER), batch=src_batch)
        _drive(src, reqs)
        snap = capture_snapshot(src, shard_id=0)

        dst = ShardCore(MOTTracker(HIER), batch=dst_batch)
        restore_snapshot(dst, snap)
        assert dst.epochs == src.epochs
        assert dst.oplog == src.oplog
        assert dst.query_log == src.query_log
        assert dst.ledger == src.ledger
        if dst_batch:
            assert dst.oplog is dst.engine.oplog
            assert dst.query_log is dst.engine.query_log

        # the restored core answers the continuation like the original
        res_src = _drive(src, tail)
        res_dst = _drive(dst, tail)
        for k, (a, b) in enumerate(zip(res_src, res_dst)):
            assert a[0] == b[0], (k, tail[k], a, b)
            if a[0] == "ok":
                assert a[1] == b[1] and a[3] == b[3]
                assert close_to(a[2], b[2])


def _mode_blind(report: dict) -> dict:
    """``report`` minus the fields that legitimately differ by mode.

    Only the configured mode itself and the move-prefetch counters may
    differ: the columnar engine batches its own oracle lookups, so it
    never prefetches. Everything else — latencies, batches, rejections,
    ledger, audit, per-shard SLIs, trace digest — must match exactly.
    """
    out = dict(report)
    out["config"] = {k: v for k, v in report["config"].items() if k != "batch_core"}
    out["service"] = {
        k: v for k, v in report["service"].items() if k != "prefetch_pairs"
    }
    out["snapshots"] = [
        {
            **snap,
            "counters": {
                k: v
                for k, v in snap["counters"].items()
                if k != "serve.prefetch_pairs"
            },
        }
        for snap in report["snapshots"]
    ]
    out["prometheus"] = "\n".join(
        line
        for line in report["prometheus"].splitlines()
        if "prefetch_pairs" not in line
    )
    return out


class TestCrossModeServe:
    @pytest.mark.parametrize("rate", [500.0, 5000.0])
    def test_scalar_and_columnar_runs_report_identically(self, rate):
        """One settle loop charges both modes identically (virtual clock).

        At 5000 ops/s the shards' queues fill and admission control
        rejects, so batching and rejection decisions are compared too.
        """
        scalar = run_serve_bench(ServeBenchConfig(rate=rate, seed=7))
        columnar = run_serve_bench(
            ServeBenchConfig(rate=rate, seed=7, batch_core=True)
        )
        assert scalar["config"]["batch_core"] is False
        assert columnar["config"]["batch_core"] is True
        assert scalar["service"]["prefetch_pairs"] > 0
        assert columnar["service"]["prefetch_pairs"] == 0
        assert _mode_blind(scalar) == _mode_blind(columnar)
        if rate > 1000:
            assert scalar["loadgen"]["rejected"]["queue"] > 0
