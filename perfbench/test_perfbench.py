"""Tests of the metro benchmark itself, at small sizes.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import tracing  # noqa: E402
from run import run_benchmark  # noqa: E402
from workloads import (WORKLOADS, build_round, build_schedule,  # noqa: E402
                       post_schedule, run_round)

SMALL = 0.04


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_pass_runs_every_check(workload):
    report = run_benchmark(workload, seed=7, seconds=0, trace=False,
                           scale=SMALL)
    assert report["failures"] == []
    assert report["correct"] and report["failed"] == 0
    assert len(report["rounds"]) >= 2  # the determinism check ran
    first = report["rounds"][0]
    assert first.ok_once == first.sent > 0
    assert all(r.fingerprint == first.fingerprint for r in report["rounds"])
    e2e = report["e2e"]
    assert [m["name"] for m in _benchmark_json()["end_to_end"]] == list(e2e)
    assert e2e["intact_frac"][0] == 1.0
    assert all(value > 0 for value, _ in e2e.values())


def test_schedule_depends_only_on_seed():
    a = build_schedule("churn", 3, SMALL)
    assert a == build_schedule("churn", 3, SMALL)
    assert a.events != build_schedule("churn", 4, SMALL).events


def test_checks_catch_corrupted_and_duplicate_payloads():
    rnd = build_round(build_schedule("paced", 1, SMALL))
    post_schedule(rnd)
    run_round(rnd)
    assert checks.summarize(rnd).failures == []
    host, conn, data, t = rnd.received[0]
    rnd.received.append((host, conn, data, t))
    rnd.received[1] = (*rnd.received[1][:2], b"x" + rnd.received[1][2][1:],
                       rnd.received[1][3])
    summary = checks.summarize(rnd)
    assert len(summary.failures) == 2
    assert summary.ok_once == summary.sent - 2
    assert summary.fail_frac > 0


def test_ingress_ledger_treats_punt_drops_as_punt_outcomes():
    from repro.core.pipe_terminus import TerminusStats

    stats = TerminusStats(packets_in=10, fast_path=6, punts=3, drops_auth=1,
                          drops_by_service=2)
    assert checks.ingress_ledger(stats) == (10, 10)
    stats.drops_malformed = 1
    assert checks.ingress_ledger(stats) == (10, 11)


def _class_attrs() -> dict:
    return {(cls, attr): cls.__dict__[attr]
            for _, cls, attr, _ in tracing.TARGETS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_restores_every_wrapped_attribute(workload, tmp_path):
    before = _class_attrs()
    spans = tmp_path / "spans.csv"
    report = run_benchmark(workload, seed=7, seconds=0, trace=True,
                           scale=SMALL, spans_path=str(spans))
    after = _class_attrs()
    assert all(after[key] is before[key] for key in before)
    assert report["correct"]
    names = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(report["layers"]) == names
    assert report["layers"]["trace.residual_frac"][0] <= 0.15
    lines = spans.read_text().splitlines()
    assert lines[1] == "id,name,parent,event,start_s,end_s"
    root = lines[2].split(",")
    assert root[1] == "Simulator.run" and root[2] == "-1"
    assert len(lines) > 100


def test_tracer_restores_after_an_exception():
    before = _class_attrs()
    tracer = tracing.Tracer()
    rnd = build_round(build_schedule("warm_burst", 1, SMALL))
    tracer.install(rnd.handles.net.sim)
    try:
        with pytest.raises(RuntimeError):
            tracer.install(rnd.handles.net.sim)
    finally:
        tracer.restore()
    assert _class_attrs() == before


def _cli(args: list[str], cwd: str, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170, check=False)


def test_cli_refuses_timed_run_with_sanitizer_armed():
    env = dict(os.environ, REPRO_SANITIZE="1")
    proc = _cli(["--workload", "paced", "--seed", "1", "--seconds", "1"],
                ROOT, env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "REPRO_SANITIZE", "REPRO_OBS")}
    proc = _cli(["--workload", "paced", "--seed", "1", "--seconds", "1"],
                str(tmp_path), env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sim_outputs_do_not_depend_on_the_process():
    """Hash seeds and connection IDs differ per process; outputs must not."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from run import run_benchmark\n"
        "r = run_benchmark('churn', 5, 0, False, scale=0.02)\n"
        "print(repr(r['rounds'][0].fingerprint))\n"
    )
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE],
            env=env, capture_output=True, text=True, timeout=170, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
