"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload walk-mixed --seed 1 --seconds 50 --trace 0

A run repeats rounds (set-up, closed-loop serving of the whole op
stream, stop, audit; see :mod:`perfbench.driver`) until ``--seconds``
have passed and every op kind has at least ``MIN_SAMPLES`` latency
samples, and times one replay of the host-speed reference
(:mod:`perfbench.hostspeed`) after every round. ``--trace 0`` reports
the end-to-end metrics of the rounds, every wall-clock figure scaled to
the reference host speed; the unscaled figures go to the log.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (median per round) plus
``trace.overhead_ratio``; the spans of its last traced round are
written to ``perfbench/traces/``.

Every round passes the correctness gate in :func:`perfbench.driver.gate`
or its ops count as failed and the command exits 1. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.driver import Round, gate, run_round  # noqa: E402
from perfbench.hostspeed import Reference  # noqa: E402
from perfbench.layers import LAYER_METRICS, LayerRecorder, installed  # noqa: E402
from perfbench.workloads import WORKLOADS, make_ops  # noqa: E402

#: end-to-end metric → unit, in report order
E2E_METRICS = {
    "throughput_ops_s": "ops/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "move_p50_ms": "ms",
    "move_p99_ms": "ms",
    "served_ratio": "ratio",
    "maintenance_cost_ratio": "ratio",
    "query_cost_ratio": "ratio",
    "setup_s": "s",
    "audit_s": "s",
    "peak_rss_mb": "MB",
}

#: latency samples each op kind needs before a run may end
MIN_SAMPLES = 10_000
#: no round starts after this many seconds, so a run ends well within 180 s
HARD_STOP_S = 140.0

TRACE_DIR = HERE / "traces"


def _pct(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    # nearest rank, so the reported value is a measured one
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def _latency_ms(rounds: list[Round], kind: str, q: float) -> float:
    """Median over rounds of each round's percentile ``q`` of ``kind``
    latencies, so a round caught in a host stall does not set the tail."""
    return statistics.median(_pct(getattr(r, kind), q) for r in rounds) * 1e3


def _throughput(rounds: list[Round]) -> float:
    """Median ops/s over the fixed-size completion windows of every round."""
    rates = [rate for rnd in rounds for rate in rnd.windows]
    return statistics.median(rates) if rates else 0.0


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(rounds: list[Round], factor: float = 1.0) -> dict[str, float]:
    """The eleven end-to-end metrics over untraced rounds.

    Wall-clock figures are scaled to the reference host speed: times
    divided by ``factor``, the throughput multiplied by it.
    """
    offered = sum(r.offered for r in rounds)
    completed = sum(r.completed for r in rounds)
    first = rounds[0]
    return {
        "throughput_ops_s": _throughput(rounds) * factor,
        "query_p50_ms": _latency_ms(rounds, "query_lat_s", 50) / factor,
        "query_p99_ms": _latency_ms(rounds, "query_lat_s", 99) / factor,
        "move_p50_ms": _latency_ms(rounds, "move_lat_s", 50) / factor,
        "move_p99_ms": _latency_ms(rounds, "move_lat_s", 99) / factor,
        "served_ratio": completed / offered if offered else 0.0,
        "maintenance_cost_ratio": first.maintenance_cost_ratio,
        "query_cost_ratio": first.query_cost_ratio,
        "setup_s": statistics.median(r.setup_s for r in rounds) / factor,
        "audit_s": statistics.median(r.audit_s for r in rounds) / factor,
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(traced: list[Round], untraced: list[Round], slowness: float) -> dict[str, float]:
    """Per-layer metrics: the median over traced rounds of each round's
    value (unscaled), plus the slowness of the host during the run."""
    derived = ("trace.overhead_ratio", "host.slowness")
    out = {
        name: statistics.median(r.layers[name] for r in traced)
        for name in LAYER_METRICS
        if name not in derived
    }
    base = _throughput(untraced)
    out["trace.overhead_ratio"] = _throughput(traced) / base if base else 0.0
    out["host.slowness"] = slowness
    return out


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    min_samples: int | None = None,
    trace_dir: Path = TRACE_DIR,
    log=print,
) -> dict:
    """One benchmark run; returns the result object the command prints.

    ``scale`` < 1 shrinks the op stream and ``min_samples`` (default
    :data:`MIN_SAMPLES`) lowers the latency-sample floor, for smoke tests.
    """
    if min_samples is None:
        min_samples = MIN_SAMPLES
    spec = WORKLOADS[workload]
    ops = make_ops(spec, seed, scale)
    rec = LayerRecorder(ops.requests) if trace else None
    untraced: list[Round] = []
    traced: list[Round] = []
    reference: Round | None = None
    attempted = failed = 0
    host = Reference()
    start = time.perf_counter()
    while True:
        batch = [(run_round(spec, ops), False)]
        if rec is not None:
            rec.reset()
            with installed(rec):
                batch.append((run_round(spec, ops, rec), True))
        for rnd, is_traced in batch:
            (traced if is_traced else untraced).append(rnd)
            problems = gate(rnd, reference)
            reference = reference or rnd
            attempted += rnd.offered
            if problems:
                failed += rnd.offered
                log(f"round failed the correctness gate: {'; '.join(problems)}")
            log(
                f"round {len(untraced) + len(traced)}{' traced' if is_traced else ''}: "
                f"setup {rnd.setup_s:.3f}s audit {rnd.audit_s:.3f}s "
                f"ops {rnd.completed}/{rnd.offered}"
            )
        host.sample()
        elapsed = time.perf_counter() - start
        samples = min(
            sum(len(r.move_lat_s) for r in untraced),
            sum(len(r.query_lat_s) for r in untraced),
        )
        if elapsed >= HARD_STOP_S or (
            elapsed >= seconds and (trace or samples >= min_samples)
        ):
            break
    if rec is not None:
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{workload}-seed{seed}.jsonl.gz"
        log(f"wrote {rec.write(path)} spans of the last traced round to {path}")
        values = per_layer(traced, untraced, host.slowness())
        units = LAYER_METRICS
    else:
        values = end_to_end(untraced, host.factor())
        units = E2E_METRICS
        log(
            f"samples: {sum(len(r.query_lat_s) for r in untraced)} queries, "
            f"{sum(len(r.move_lat_s) for r in untraced)} moves, "
            f"{len(untraced)} rounds (set-up, audit and reference samples), "
            f"{elapsed:.1f}s"
        )
        log(f"host slowness {host.slowness():.4f}; unscaled: {json.dumps(end_to_end(untraced))}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
