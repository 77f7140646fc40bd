"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import speed
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(workload):
    return workloads.problems_for(workload, 3, run.ROOT, run.BENCH_DIR, small=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_run_at_tiny_size(workload):
    result, record = run.run_workload(workload, 3, 0.01, 0, small=True, setup_samples=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])
    assert record["environment"]["FIXEDLOCI_THREADS"] == "unset"
    assert all(record["report_sha256"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_at_tiny_size(workload):
    result, record = run.run_workload(workload, 3, 0.01, 1, small=True)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.spans"]["value"] > 0
    assert result["metrics"]["cli.load_problem.s"]["value"] > 0


def _report(problem):
    run.load_cli()
    path = run.write_problems([problem], run.WORK / "problems" / "test")[problem.id]
    rc, text, _ = run.invoke(problem, path)
    assert rc == 0
    return json.loads(text)


def _fails(problem, report, validator):
    return checks.check_report(problem, 0, json.dumps(report), validator)


def _find(workload, pred):
    return next(p for p in _tiny(workload) if pred(p))


def test_corrupted_reports_count_as_failed():
    _, validator = run.load_cli()
    toric = _find("toric", lambda p: p.id == "folded P1xP2")
    report = _report(toric)
    assert not _fails(toric, report, validator)
    assert _fails(toric, dict(report, components=report["components"][1:]), validator)
    assert _fails(toric, dict(report, extra_key=1), validator)          # schema
    assert checks.check_report(toric, 2, "", validator)                 # exit code
    assert checks.check_report(toric, 0, "{not json", validator)

    grass = _find("queries", lambda p: p.command == "grassmann")
    report = _report(grass)
    assert not _fails(grass, report, validator)
    report["components"][0]["dimension"] += 1
    assert _fails(grass, report, validator)

    kempf = _find("queries", lambda p: p.command == "kempf")
    report = _report(kempf)
    assert not _fails(kempf, report, validator)
    report["kempf"]["semistable"] = not report["kempf"]["semistable"]
    assert _fails(kempf, report, validator)

    quiver = _find("quiver-certify", lambda p: p.id == "kronecker3")
    report = _report(quiver)
    assert not _fails(quiver, report, validator)
    comp = next(c for c in report["components"] if c["status"] == "NonemptyVerified")
    comp["status"] = "EmptyVerified"
    assert _fails(quiver, report, validator)


def test_corrupted_report_fails_the_run(monkeypatch):
    invoke = run.invoke

    def corrupt(problem, path):
        rc, text, dt = invoke(problem, path)
        return rc, text.replace('"tool": "fixedloci"', '"tool": "other"'), dt

    monkeypatch.setattr(run, "invoke", corrupt)
    result, _ = run.run_workload("toric", 3, 0.01, 0, small=True, setup_samples=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_oracle_on_small_cones():
    square = [(1, 0), (0, 1)]
    assert checks.in_cone(square, (2, 3)) and not checks.in_cone(square, (-1, 1))
    assert checks.in_cone(square, (0, 0))
    assert checks.in_interior(square, (1, 1)) and not checks.in_interior(square, (1, 0))
    assert not checks.in_interior([(1, 0)], (1, 0))                    # not full-dimensional
    plane = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert checks.in_interior(plane, (0, 0))
    halfplane = [(1, 0), (-1, 0), (0, 1)]
    assert checks.in_interior(halfplane, (5, 1)) and not checks.in_interior(halfplane, (5, 0))


def test_tracer_restores_every_binding():
    run.load_cli()
    import fixedloci.toric

    before = tracing.bindings()
    original = fixedloci.toric.is_stable_support
    problem = _find("toric", lambda p: p.id == "folded P1xP1xP1")
    path = run.write_problems([problem], run.WORK / "problems" / "test")[problem.id]
    with tracing.Tracer() as tracer:
        assert fixedloci.toric.is_stable_support is not original
        tracer.problem = problem.id
        rc, _, _ = run.invoke(problem, path)
    assert rc == 0
    groups = {s[tracing.GROUP] for s in tracer.spans}
    assert {"cli.main", "toric.fan", "toric.fixed_points", "hmtorus.stable", "simplex.lp"} <= groups
    after = tracing.bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_gauge_samples_during_work_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    gauge = speed.Gauge(interval=0.05)
    with gauge:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [k for s, k in zip(gauge.starts, gauge.samples) if t0 <= s < t1]
    assert len(inside) >= 3 and len(gauge.samples) >= len(inside) + 2   # plus entry and exit
    assert gauge.net(t0, t1) == pytest.approx(t1 - t0 - sum(inside))
    assert gauge.scale(t0, t1) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toric", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert not Path(tmp_path, ".perfbench", "results").exists()
