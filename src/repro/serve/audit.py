"""Consistency audit: the service's answers vs a sequential reference.

Hash-partitioning objects across shards and batching/coalescing their
operations must not change any answer or either cost ratio.
:func:`audit_service` checks that with the one replay audit,
:func:`repro.core.audit.replay_audit`: every shard's history —
in-process, columnar, or carried home from a worker process — replays
into one reference :class:`~repro.core.mot.MOTTracker` over the
service's hierarchy, and the fleet's merged ledger must match the
reference's.
"""

from __future__ import annotations

from repro.core.audit import AuditReport, replay_audit
from repro.serve.service import TrackingService

__all__ = ["AuditReport", "audit_service"]


def audit_service(service: TrackingService) -> AuditReport:
    """Replay every shard's history into one reference MOT and compare."""
    report, _ref = replay_audit(
        service.hierarchy, service.mot_config, service.shards, service.merged_ledger()
    )
    return report
