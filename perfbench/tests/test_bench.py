"""Smoke-size checks of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import gzip
import json
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

import perfbench.driver as driver
from perfbench.driver import Round, gate
from perfbench.run import E2E_METRICS, main, run_benchmark
from perfbench.layers import LAYER_METRICS
from perfbench.workloads import WORKLOADS, make_ops
from repro.serve.service import ServiceConfig

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE = 0.05  # 100 objects instead of 2000


def smoke(workload: str, trace: bool, tmp_path: Path, seed: int = 3) -> dict:
    return run_benchmark(
        workload, seed, 0, trace, scale=SMOKE, min_samples=0, trace_dir=tmp_path, log=lambda _: None
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("traces")
    return {
        (name, trace): smoke(name, trace, tmp)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_benchmark_json_names_every_reported_metric():
    # every listed workload is defined with the same reason; crowd-query
    # is defined but not listed (too noisy on a shared 2-vCPU host)
    for w in BENCH["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == LAYER_METRICS
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert UNIT.fullmatch(m["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_reported_with_its_unit(results, workload):
    for trace, units in ((False, E2E_METRICS), (True, LAYER_METRICS)):
        res = results[workload, trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
        assert all(NAME.fullmatch(k) for k in res["metrics"])
    e2e = results[workload, False]["metrics"]
    assert e2e["served_ratio"]["value"] == 1.0
    assert all(e2e[k]["value"] > 0 for k in E2E_METRICS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_cost_ratios_bit_identical(results, workload, tmp_path):
    again = smoke(workload, False, tmp_path)["metrics"]
    first = results[workload, False]["metrics"]
    for name in ("maintenance_cost_ratio", "query_cost_ratio"):
        assert again[name]["value"] == first[name]["value"]
    # tracing must not change what the service computes
    traced = results[workload, True]
    assert traced["correct"]


def test_bypassed_layers_read_zero(results):
    layer = {w: {k: v["value"] for k, v in results[w, True]["metrics"].items()} for w in WORKLOADS}
    batch = [k for k in LAYER_METRICS if k.startswith("batch.")]
    transport = [k for k in LAYER_METRICS if k.startswith(("transport.", "worker."))]
    assert all(layer["walk-mixed"][k] == 0 for k in batch)
    for w in ("walk-mixed", "crowd-query"):
        assert all(layer[w][k] == 0 for k in transport), w
    assert layer["crowd-query"]["mot.serve_calls"] == 0
    # ...and the layers each workload is there for are busy
    assert layer["walk-mixed"]["mot.serve_calls"] > 0
    assert layer["crowd-query"]["batch.apply_calls"] > 0
    assert all(layer["worker-pipe"][k] > 0 for k in transport)
    assert layer["worker-pipe"]["shard.apply_busy_s"] == 0
    assert all(layer[w]["service.rejected"] == 0 for w in WORKLOADS)
    assert all(layer[w]["trace.overhead_ratio"] > 0 for w in WORKLOADS)


def test_traced_run_writes_its_spans(tmp_path):
    smoke("walk-mixed", True, tmp_path)
    (path,) = tmp_path.glob("walk-mixed-seed3.jsonl.gz")
    with gzip.open(path, "rt") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    names = header["names"]
    submits = [s for s in spans if names[s[0]] == "service.submit"]
    assert len(submits) == len(make_ops(WORKLOADS["walk-mixed"], 3, SMOKE).requests)
    # the op index is the request id, and children inherit it
    assert sorted(s[4] for s in submits) == list(range(len(submits)))
    for s in spans:
        if s[3] >= 0:
            assert s[4] == spans[s[3]][4]
            assert spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2]


def test_config_pin():
    assert WORKLOADS["walk-mixed"].service_config() == ServiceConfig()
    crowd = WORKLOADS["crowd-query"].service_config()
    pipe = WORKLOADS["worker-pipe"].service_config()
    assert crowd.batch_core and pipe.batch_core
    assert (crowd.workers, pipe.workers) == (0, 1)
    for spec in WORKLOADS.values():
        assert spec.window <= spec.service_config().queue_capacity


def test_uniform_streams_never_repeat_a_query_pair():
    ops = make_ops(WORKLOADS["worker-pipe"], 5, SMOKE)
    pairs = [(r.obj, r.source) for r in ops.requests if hasattr(r, "source")]
    assert len(pairs) == len(set(pairs)) > 0


def test_gate_rejects_each_failure_kind():
    good = Round(offered=10, completed=10, audit_ok=True, maintenance_cost_ratio=2.0, query_cost_ratio=3.0)
    assert gate(good, None) == [] and gate(good, good) == []
    for change in (
        {"audit_ok": False},
        {"completed": 9},
        {"offered": 0, "completed": 0},
        {"wrong": 1},
        {"problems": ["warm-up publish failed"]},
    ):
        assert gate(Round(**{**vars(good), **change}), None), change
    drifted = Round(**{**vars(good), "query_cost_ratio": 3.0001})
    assert gate(drifted, good)


@dataclass
class _BadAudit:
    ok: bool = False


def test_failed_gate_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(driver, "audit_service", lambda service: _BadAudit())
    res = smoke("walk-mixed", False, Path("."))
    assert not res["correct"] and res["failed"] == res["attempted"] > 0
    monkeypatch.setattr("perfbench.run.MIN_SAMPLES", 0)
    argv = ["--workload", "walk-mixed", "--seed", "3", "--seconds", "0"]
    monkeypatch.setattr("perfbench.run.make_ops", lambda spec, seed, scale=1.0: make_ops(spec, seed, SMOKE))
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False
