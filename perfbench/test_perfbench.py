"""Self-tests of the benchmark (not of ewhorizon).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import worker
import workloads
from ewhorizon import jets, report

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"] for m in BENCH[section]}


def test_oracle_counts_wrong_expectations_as_failed():
    ops = [
        workloads.VerifyOp("dkp"),
        workloads.VerifyOp("dkp", expect_fail=True),        # dkp passes
        workloads.VerifyOp("no-such-check"),                 # raises
        workloads.SweepOp("dkp", {}, 1e-8, rows=200, clipped=True),
        workloads.SweepOp("dkp", {}, 1e-8, rows=199, clipped=True),
        workloads.SweepOp("dkp", {}, 1e-30, rows=200, clipped=True),
        workloads.ScanOp("tanh", -1.0, "guard", False, 1.0e-6, 7.0),
        workloads.ScanOp("tanh", -1.0, "ok", False, 1.0e-6, 7.0),
        workloads.ScanOp("tanh", -1.0, "guard", False, 1.0e-6, 7.1),
    ]
    runner = worker.Runner(ops, 0, report)
    _, times = runner.run_pass()
    assert runner.attempted == len(ops) == len(times)
    failed = {name for name, _ in runner.failures}
    assert len(runner.failures) == 6
    assert failed == {ops[i].name for i in (1, 2)} | {ops[3].name,
                                                       ops[6].name}


def test_expected_verdicts_hold_on_a_jittered_grid():
    ops = workloads.build("verify-grid", 7, report)
    grid = ops[0].grid
    assert grid.nu != (-1.0, 1.0, 5) and grid.r != (-1.0, 1.0, 5)
    assert all(abs(a - b) <= workloads.GRID_JITTER
               for a, b in zip(grid.nu[:2] + grid.r[:2], (-1, 1, -1, 1)))
    assert ops == workloads.build("verify-grid", 7, report)
    thm1 = [op for op in ops if op.check == "thm1"]
    runner = worker.Runner(thm1, 7, report)
    runner.run_pass()
    assert runner.failures == []


def _log(thread, spans_):
    log = spans.ThreadLog(thread)
    log.spans = [list(s) for s in spans_]
    return log


def test_self_time_and_busy_ratio_on_synthetic_spans():
    main = _log(1, [("report.run_check", 0, 100, -1, 0),
                    ("nearhorizon.build", 10, 30, 0, 0),
                    ("odesolve.quad", 15, 20, 1, 0)])
    pool = _log(2, [("curvature.ew_residual", 20, 60, -1, 0),
                    ("curvature.metric_jets", 25, 35, 0, 0),
                    ("curvature.ew_residual", 60, 90, -1, 0)])
    st = spans.self_times([main, pool])
    assert st == {"report.run_check": [1, 80],
                  "nearhorizon.build": [1, 15],
                  "odesolve.quad": [1, 5],
                  "curvature.ew_residual": [2, 30 + 30],
                  "curvature.metric_jets": [1, 10]}
    # children of run_check: build on its own thread (20) and the two
    # top-level pool spans (40 + 30), over 100 ns x 2 threads
    assert spans.busy_ratio([main, pool], 2) == pytest.approx(0.45)
    assert spans.busy_ratio([pool], 2) == 0.0


def test_tracer_restores_originals_and_reports_absent_targets(monkeypatch):
    run_check, mul = report.run_check, jets.Jet3.__mul__
    monkeypatch.setattr(spans, "FUNCTION_SPANS", spans.FUNCTION_SPANS + (
        ("specfun.gone", "ewhorizon.specfun", "no_such_function"),))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert report.run_check is not run_check
        assert "__mul__" in vars(jets.Jet3)
    finally:
        tracer.uninstall()
    assert report.run_check is run_check
    assert "__mul__" not in vars(jets.Jet3) and jets.Jet3.__mul__ is mul
    assert tracer.absent == {"specfun.gone"}

    tracer.absent.add("specfun.hyp2f1")
    out = worker.per_layer(tracer, 1, [1.0], [1.0])
    assert out["specfun.hyp2f1.calls"]["value"] is None
    assert out["specfun.hyp2f1.self_s"]["value"] is None
    assert out["specfun.wp_jet.calls"]["value"] == 0


def _run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "profile-catalog", "--seed", "3", "--seconds", "0", "--trace",
         str(trace)], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_every_declared_metric_is_emitted():
    human, res = _run(0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    assert set(res["metrics"]) == _names("end_to_end")
    printed = {line.split()[1] for line in human if not line.startswith("#")}
    assert {"fail_frac", "op_ms.p50"} <= printed
    _, res = _run(1)
    assert set(res["metrics"]) == _names("per_layer")
    assert all(m["value"] is not None for m in res["metrics"].values())


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((HERE / "layers.json").read_text())
    assert set(layers["metrics"]) == _names("per_layer")
    wl = {w["name"] for w in BENCH["workloads"]}
    assert wl == set(workloads.WORKLOADS) == set(layers["workloads"])
    e2e = _names("end_to_end") | set(layers["printed_only"])
    for entry in layers["metrics"].values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["on"]) | set(entry["unchanged_on"]) <= wl


def test_quantile_is_a_smoothed_order_statistic():
    values = [float(v) for v in range(101)]
    assert worker.quantile(values, 0.5) == pytest.approx(50.0)
    assert worker.quantile(values, 0.9) == pytest.approx(90.0, abs=0.5)
    assert worker.beyond_p90(values) == 10
    # two clusters of 50 samples: the estimate lies between them
    assert 1.0 < worker.quantile([1.0] * 50 + [2.0] * 50, 0.5) < 2.0
