"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/tests

Runs every workload at its smoke size (xi w11 0..2, der w11 0..8, three
bch_exp pairs, glue w11 w11 0..2), untraced and traced, and checks that the
harness reports what BENCHMARK.json declares, that self times add up, that
a wrong pinned value counts as a failed operation, that paced times
integrate the measured pace, and that the benchmark refuses to run without
the library's sources.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import pace  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "99",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracer.metric_names()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_smoke_self_times_account_for_the_run(workload):
    result = smoke(workload, 1)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    self_times = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert all(s >= 0 for s in self_times)
    assert sum(self_times) <= metrics["trace.wall_s"] * (1 + 1e-9)
    assert metrics["trace.root_self_frac"] < 0.1


@pytest.mark.parametrize("workload,size", [("xi_w21", "smoke"), ("bch_exp", "smoke")])
def test_wrong_pin_is_a_failed_operation(workload, size, monkeypatch):
    monkeypatch.chdir(ROOT)
    spec = copy.deepcopy(workloads.WORKLOADS[workload])
    if isinstance(spec, workloads.CliWorkload):
        argv, expected = spec.pins[size]
        expected["sha256"] = "0" * 64
    else:
        count, digests = spec.pins[size]
        digests[99] = "0" * 64
    out = rep.run_rep(spec, size, 99, "run", time.monotonic())
    result = run.summarize([out["setup_s"]], [out])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_library_exception_is_a_failed_operation(monkeypatch):
    monkeypatch.chdir(ROOT)
    rep.import_dgla()
    from dgla import cli

    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", boom)
    out = rep.run_rep(workloads.WORKLOADS["xi_w21"], "smoke", 99, "run", time.monotonic())
    result = run.summarize([out["setup_s"]], [out])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_paced_time_integrates_the_local_pace():
    p = pace.Pacer()
    p.times = [0.0, 1.0, 2.0, 3.0]
    p.samples = [pace.REF_CHUNK_S / 2] * 4  # twice the reference pace throughout
    assert p.paced(0.5, 2.5) == pytest.approx(4.0)
    assert p.paced(-1.0, 4.0) == pytest.approx(10.0)  # beyond the outermost samples too
    assert p.paced(1.0, 1.0) == 0.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bch_exp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
