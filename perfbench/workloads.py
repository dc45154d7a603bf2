"""The benchmark's three workloads and the op streams they replay.

Every workload runs on a 32×32 unit grid (full distance matrix) with
2000 objects under random-walk mobility; they differ in the read/write
mix, query popularity, client window and the one service configuration
each pins. The op stream is a pure function of the seed, so the
service sees only the generated ops and two same-seed runs replay the
identical stream.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.graphs.generators import grid_network
from repro.serve.protocol import MoveRequest, PublishRequest, QueryRequest
from repro.serve.service import ServiceConfig
from repro.sim.workload import MoveOp, make_workload

__all__ = ["GRID_SIDE", "OBJECTS", "WORKLOADS", "OpStream", "WorkloadSpec", "make_ops"]

GRID_SIDE = 32
OBJECTS = 2000

#: op kinds in :attr:`OpStream.kinds`
MOVE, QUERY = 0, 1


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: its traffic mix and the service configuration it pins."""

    name: str
    why: str
    #: moves per object in one round's op stream
    moves_per_object: int
    #: queries per move (2 moves per query is 0.5)
    queries_per_move: float
    #: clients in the closed loop, i.e. the most ops outstanding at once
    window: int
    #: forked shard processes (0: in-process shards)
    workers: int = 0
    #: request the columnar apply path while the service still offers it
    columnar: bool = False
    popularity: str = "uniform"
    flash_crowd_fraction: float = 0.0

    def service_config(self) -> ServiceConfig:
        """The pinned configuration, built only from fields that exist.

        ``walk-mixed`` takes the service defaults, whatever they become.
        The columnar core is requested only while ``ServiceConfig`` has
        a ``batch_core`` field: once the scalar serve path is deleted,
        the columnar path is the only one and the pin still holds.
        """
        kwargs: dict = {}
        if self.workers:
            kwargs["workers"] = self.workers
        fields = {f.name for f in dataclasses.fields(ServiceConfig)}
        if self.columnar and "batch_core" in fields:
            kwargs["batch_core"] = True
        cfg = ServiceConfig(**kwargs)
        if self.window > cfg.queue_capacity:
            raise ValueError(
                f"{self.name}: window {self.window} exceeds queue_capacity "
                f"{cfg.queue_capacity}; admission control could reject"
            )
        return cfg


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="walk-mixed",
            why=(
                "default config, 2 moves per query, window 8: writes dominate and "
                "batches stay tiny, so per-op cost in core.mot, graphs, service and "
                "shard sets the speed"
            ),
            moves_per_object=6,
            queries_per_move=0.5,
            window=8,
        ),
        WorkloadSpec(
            name="crowd-query",
            why=(
                "columnar core, 3 queries per move, Zipf 1.1 plus a flash crowd, "
                "window 64: batches fill, so core.batch, queue wait and coalescing "
                "set the speed"
            ),
            moves_per_object=3,
            queries_per_move=3.0,
            window=64,
            columnar=True,
            popularity="zipf",
            flash_crowd_fraction=0.2,
        ),
        WorkloadSpec(
            name="worker-pipe",
            why=(
                "walk-mixed ops through one forked worker with the columnar core, "
                "window 64: the only workload crossing the process boundary "
                "(transport, worker)"
            ),
            moves_per_object=6,
            queries_per_move=0.5,
            window=64,
            workers=1,
            columnar=True,
        ),
    )
}


@dataclass
class OpStream:
    """One round's ops, prebuilt so the timed loop only submits."""

    publishes: list[PublishRequest]
    requests: list[MoveRequest | QueryRequest]
    #: MOVE or QUERY per request
    kinds: bytes
    #: the proxy each answer must report: the move's target, or the
    #: queried object's proxy after every earlier op in the stream
    expected: list


def make_ops(spec: WorkloadSpec, seed: int, scale: float = 1.0) -> OpStream:
    """The op stream of ``spec`` for ``seed`` (``scale`` < 1 shrinks it for tests).

    Uniform-popularity streams keep every ``(object, source)`` query
    pair distinct, so no two queries can coalesce: a worker round trip
    forms batches by timing, and a coalesced twin leaves the cost
    ledger, so the cost ratios would otherwise depend on timing.
    In-process shards form batches deterministically, which is why
    ``crowd-query`` may keep its repeated pairs.
    """
    net = grid_network(GRID_SIDE, GRID_SIDE)
    objects = max(16, round(OBJECTS * scale))
    moves = spec.moves_per_object * objects
    wl = make_workload(
        net,
        num_objects=objects,
        moves_per_object=spec.moves_per_object,
        num_queries=round(moves * spec.queries_per_move),
        seed=seed,
        mobility="random_walk",
        query_popularity=spec.popularity,  # type: ignore[arg-type]
        flash_crowd_fraction=spec.flash_crowd_fraction,
    )
    proxy = dict(wl.starts)
    seen: set[tuple[str, int]] = set()
    requests: list[MoveRequest | QueryRequest] = []
    kinds = bytearray()
    expected: list = []
    for op in wl.op_stream(seed):
        if isinstance(op, MoveOp):
            proxy[op.obj] = op.new
            requests.append(MoveRequest(op.obj, op.new))
            kinds.append(MOVE)
            expected.append(op.new)
            continue
        source = op.source
        if spec.popularity == "uniform":
            while (op.obj, source) in seen:
                source = (source + 1) % net.n
            seen.add((op.obj, source))
        requests.append(QueryRequest(op.obj, source))
        kinds.append(QUERY)
        expected.append(proxy[op.obj])
    publishes = [PublishRequest(obj, start) for obj, start in wl.starts.items()]
    return OpStream(publishes, requests, bytes(kinds), expected)
