"""The replay audit: an applied history against a sequential reference.

Correctness claim being checked: sharding, batching, coalescing and the
columnar kernels must not change any answer or either cost ratio.
Because a MOT operation on an object touches only that object's
DL/SDL/spine state, a query's ``(proxy, cost)`` depends only on that
object's applied operation prefix and the (shared, read-only)
hierarchy — so a **single** reference :class:`MOTTracker` over the same
hierarchy, replaying every history's per-object op log in order, must
reproduce every logged answer exactly: proxies identically, costs up to
float tolerance (:func:`repro.core.costs.close_to`).

A *history* is anything with ``epochs``, ``oplog`` and ``query_log`` —
a serve shard or its :class:`~repro.serve.snapshot.ShardSnapshot`, or a
:class:`~repro.core.batch.BatchMOTEngine`. :func:`replay_audit` checks
per history:

- each object's final epoch against the replay (a no-op move does not
  advance it);
- each answered query's proxy, and its cost: an executed record against
  the reference's own walk from the same source, a coalesced record
  against its executed twin from the same source. Coalescing keys on
  ``(object, epoch, source)``, so the twin's answer is the one the
  record must carry. (A cost check that skipped coalesced records once
  masked a coalescing bug that shared answers across sources.)

and finally the caller's ledger against the reference's: every count
exact, every cost sum ``close_to`` — batched kernels and per-shard
ledgers add the same terms in a different order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Hashable, Iterable, NamedTuple

from repro.core.costs import CostLedger, close_to
from repro.core.mot import MOTConfig, MOTTracker
from repro.hierarchy.structure import BaseHierarchy

Node = Hashable

__all__ = ["AuditReport", "QueryRecord", "replay_audit"]


class QueryRecord(NamedTuple):
    """One answered query, as the audit will replay it."""

    obj: str
    epoch: int
    source: Node
    proxy: Node
    cost: float
    coalesced: bool


@dataclass
class AuditReport:
    """Outcome of one replay audit."""

    objects_checked: int = 0
    moves_replayed: int = 0
    queries_checked: int = 0
    proxy_mismatches: int = 0
    epoch_mismatches: int = 0
    cost_mismatches: int = 0
    ledger_mismatches: list[str] = field(default_factory=list)
    #: first few mismatches, for the JSON report (capped)
    examples: list[dict] = field(default_factory=list)

    MAX_EXAMPLES = 10

    @property
    def mismatches(self) -> int:
        """Total mismatches of any kind."""
        return (
            self.proxy_mismatches
            + self.epoch_mismatches
            + self.cost_mismatches
            + len(self.ledger_mismatches)
        )

    @property
    def ok(self) -> bool:
        """Whether the history matched the sequential reference exactly."""
        return self.mismatches == 0

    def record(self, kind: str, detail: dict) -> None:
        """Count one ``proxy``/``epoch``/``cost`` mismatch, keep an example."""
        if kind == "proxy":
            self.proxy_mismatches += 1
        elif kind == "epoch":
            self.epoch_mismatches += 1
        else:
            self.cost_mismatches += 1
        if len(self.examples) < self.MAX_EXAMPLES:
            self.examples.append({"kind": kind, **detail})

    def record_query(self, kind: str, rec: QueryRecord, expected: object) -> None:
        """:meth:`record` one mismatching query record."""
        self.record(
            kind,
            {
                "obj": rec.obj,
                "epoch": rec.epoch,
                "source": repr(rec.source),
                "got": repr(rec.proxy if kind == "proxy" else rec.cost),
                "expected": repr(expected),
            },
        )

    def as_dict(self) -> dict:
        """JSON-ready view."""
        return {"ok": self.ok, **asdict(self)}


def replay_audit(
    hierarchy: BaseHierarchy,
    config: MOTConfig,
    histories: Iterable,
    ledger: CostLedger,
) -> tuple[AuditReport, MOTTracker]:
    """Replay ``histories`` into one reference MOT and compare.

    ``ledger`` is the cost the histories accrued between them. Returns
    the report and the reference, whose final state a caller may check
    its kernel against. Per-object operation order is exactly the
    applied order; operations of different objects are independent, so
    the reference replays object by object.
    """
    report = AuditReport()
    ref = MOTTracker(hierarchy, config)
    for hist in histories:
        # that history's answered queries by (object, epoch), in
        # execution order within a group
        by_obj_epoch: dict[tuple[str, int], list[QueryRecord]] = {}
        for rec in hist.query_log:
            by_obj_epoch.setdefault((rec.obj, rec.epoch), []).append(rec)
        # epochs reached during the replay; built as we go because a
        # no-op move does not advance the epoch, so the reachable set is
        # not derivable from move counts alone
        replayed: set[tuple[str, int]] = set()
        epochs = hist.epochs
        for obj, ops in hist.oplog.items():
            report.objects_checked += 1
            epoch = -1
            for op, node in ops:
                if op == "publish":
                    ref.publish(obj, node)
                    epoch = 0
                else:
                    res = ref.move(obj, node)
                    if res.new_proxy != res.old_proxy:
                        epoch += 1
                    report.moves_replayed += 1
                if (obj, epoch) not in replayed:
                    replayed.add((obj, epoch))
                    _check_epoch_queries(ref, by_obj_epoch.get((obj, epoch), ()), report)
            if epochs.get(obj) != epoch:
                report.record("epoch", {"obj": obj, "got": epochs.get(obj), "expected": epoch})
        for obj in epochs:
            if obj not in hist.oplog:
                report.record("epoch", {"obj": obj, "got": epochs[obj], "expected": None})
        # queries answered for never-applied epochs are history bugs
        for key, recs in by_obj_epoch.items():
            if key not in replayed:
                for rec in recs:
                    report.queries_checked += 1
                    report.record_query("proxy", rec, "<no such epoch>")

    # every count and cost sum (the per-op ratio lists are not compared)
    for f in fields(CostLedger):
        got, want = getattr(ledger, f.name), getattr(ref.ledger, f.name)
        if f.type == "int" and got != want:
            report.ledger_mismatches.append(f"{f.name}: {got} != {want}")
        elif f.type == "float" and not close_to(got, want):
            report.ledger_mismatches.append(f"{f.name}: {got!r} !~ {want!r}")
    return report, ref


def _check_epoch_queries(
    ref: MOTTracker, recs: Iterable[QueryRecord], report: AuditReport
) -> None:
    """Check one ``(object, epoch)`` group against the reference's state."""
    executed: dict[Node, float] = {}
    for rec in recs:
        report.queries_checked += 1
        expected_proxy = ref.proxy_of(rec.obj)
        if rec.proxy != expected_proxy:
            report.record_query("proxy", rec, expected_proxy)
            continue
        if rec.coalesced:
            twin = executed.get(rec.source)
            if twin is None or not close_to(rec.cost, twin):
                report.record_query(
                    "cost", rec, "<no executed twin>" if twin is None else twin
                )
            continue
        cost = executed[rec.source] = ref.query(rec.obj, rec.source).cost
        if not close_to(rec.cost, cost):
            report.record_query("cost", rec, cost)
