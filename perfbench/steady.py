"""Steadiness check: repeat the benchmark over seeds and report its spread.

Usage, from the repository root::

    python3 perfbench/steady.py --workloads walk-mixed --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --sets 2 --out perfbench/steadiness.json

For every workload, each set runs ``perfbench/run.py --trace 0`` once
per seed, one after another. For each end-to-end metric it reports the
ten (or however many) values' quartiles and their spread, the distance
between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median, against the metric's ``bound`` in
``BENCHMARK.json``: a spread must not exceed the bound (``setup_s`` is
exempt), and the target is a spread below a third of it. With
``--sets 2`` the seeds run twice (an A/A comparison of the same code)
and each metric's second median must not be worse than the first by
more than its bound. Exits 1 if a spread or an A/A drift exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host() -> dict:
    """The machine the figures were measured on."""
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next(
            (line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
             if line.startswith("model name")),
            "",
        )
    return {"cpu": model or platform.processor(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "system": platform.system()}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int) -> dict:
    """One benchmark run; returns its metric values."""
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def assess(metrics: dict, sets: list[dict]) -> tuple[dict, bool]:
    """Check each metric's spread (and A/A drift, with two sets) against its bound.

    ``within_bound`` is the acceptance rule: every set's spread at most
    the bound (``setup_s`` exempt) and, with two sets, the second median
    no worse than the first by more than the bound. ``below_third`` is
    the steadiness target, a spread below a third of the bound.
    """
    rows = {}
    ok = True
    for name, metric in metrics.items():
        bound = metric["bound"]
        spreads = [s[name]["spread"] for s in sets]
        row: dict = {"bound": bound, "sets": [s[name] for s in sets]}
        exempt = name == "setup_s"
        row["below_third"] = exempt or all(x < bound / 3 for x in spreads)
        row["within_bound"] = exempt or all(x <= bound for x in spreads)
        if len(sets) == 2:
            row["aa_worse_by"] = worse_by(metric, sets[0][name]["median"], sets[1][name]["median"])
            row["within_bound"] = row["within_bound"] and row["aa_worse_by"] <= bound
        ok &= row["within_bound"]
        rows[name] = row
    return rows, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--out", type=Path, help="write the report here as JSON")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    report: dict = {"host": host(), "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run_once(bench, workload, seed))
                print(f"{workload} set {k + 1} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
            sets.append({name: summarize([r[name] for r in runs]) for name in metrics})
        rows, passed = assess(metrics, sets)
        ok &= passed
        for name, row in rows.items():
            print(
                f"{workload:12s} {name:24s} bound {row['bound']:.3f} spread "
                + " ".join(f"{s['spread']:.4f}" for s in row["sets"])
                + (f" A/A worse by {row['aa_worse_by']:+.4f}" if "aa_worse_by" in row else "")
                + ("" if row["within_bound"] else "  OVER BOUND")
                + ("" if row["below_third"] else "  (above a third of the bound)"),
                flush=True,
            )
        report["workloads"][workload] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
