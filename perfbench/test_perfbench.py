"""Tests of the benchmark itself, on tiny workload runs (1 sec53 seed, bhippa
with n=5).  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import dealopt  # noqa: E402
from dealopt import (analysis, bench, boosted, core, directions,  # noqa: E402
                     envelopes, oracles, problems)

import report  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {"sec53-seeds": {"sec53_seeds": 1}, "bhippa-n100": {"bhippa_n": 5}}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """A plain and a traced tiny workload run of each cheap workload."""
    runs = {}
    for workload, size in TINY.items():
        work = tmp_path_factory.mktemp(workload)
        runs[workload] = (
            workloads.run_once(workload, 3, work / "plain", **size),
            workloads.run_once(workload, 3, work / "traced", traced=True, **size),
            [workloads.set_up(workload, 3, 0.1, **size)])
    return runs


def test_every_metric_is_emitted_with_its_unit(tiny_runs):
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for workload, (plain, traced, setups) in tiny_runs.items():
        attempted, failed, problems_ = report.gate(workload, [plain], EXPECTED)
        assert (failed, problems_) == (0, [])
        e2e = report.end_to_end([plain], setups, attempted, failed)
        assert set(e2e) == set(declared_e2e) == set(report.END_TO_END)
        assert all(report.END_TO_END[n] == u for n, u in declared_e2e.items())
        assert all(value > 0 for value, _ in e2e.values()), workload
        layers = report.per_layer([traced], [plain])
        assert set(layers) == set(declared_layer) == set(report.PER_LAYER)
        assert all(report.PER_LAYER[n] == u for n, u in declared_layer.items())


def test_layers_see_the_work_of_their_workload(tiny_runs):
    lasso = report.per_layer([tiny_runs["sec53-seeds"][1]], [tiny_runs["sec53-seeds"][0]])
    assert lasso["boosted.bpga.solve_s"] > 0 and lasso["oracle.matvecs"] > 0
    assert lasso["directions.calls"] > 0 and lasso["envelopes.fbe_value_calls"] > 0
    assert lasso["envelopes.prox_separable_calls"] == 0
    powers = report.per_layer([tiny_runs["bhippa-n100"][1]], [tiny_runs["bhippa-n100"][0]])
    assert powers["oracles.scalar_evals"] > 0 and powers["envelopes.home_s"] > 0
    assert powers["oracle.value_calls"] == powers["oracle.matvecs"] == 0


def test_traced_run_writes_the_same_bytes(tiny_runs):
    for plain, traced, _ in tiny_runs.values():
        digests = [run["digests"] for run in plain["runs"]]
        assert digests and all(digests)
        assert digests == [run["digests"] for run in traced["runs"]]


def test_spans_share_one_experiment_id(tiny_runs):
    spans = tiny_runs["sec53-seeds"][1]["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["dealopt.bench.run_experiment"]
    assert {s["experiment"] for s in spans} == {roots[0]["id"]}
    assert all(0.0 <= s["self_s"] <= s["end_s"] - s["start_s"] + 1e-9 for s in spans)


def test_tracer_restores_every_patched_name():
    owners = (analysis, bench, boosted, core, directions, envelopes, oracles, problems,
              core.IterateTrace, directions.DirectionRule, Path)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    with tracer:
        problem = bench.build_problem(bench.ProblemSpec(kind="lasso", m=20, n=4))
        patched = tracer.patched_names()
        assert "smooth_value" in vars(problem)
    assert (problem, "smooth_value") in patched
    for owner, attr in patched:
        assert owner is problem or attr in vars(owner)
    assert "smooth_value" not in vars(problem)
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved)
        assert all(now[k] is saved[k] for k in saved), owner


def test_speed_probe_samples_and_gives_back_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        time.sleep(0.25)
    assert len(probe.samples) >= 3 and probe.scale() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_gate_fails_on_injected_certificate_failure(tmp_path, monkeypatch):
    real = bench.certify_descent

    def failing(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.passed = False
        return rep

    monkeypatch.setattr(bench, "certify_descent", failing)
    result = workloads.run_once("sec53-seeds", 3, tmp_path, **TINY["sec53-seeds"])
    attempted, failed, messages = report.gate("sec53-seeds", [result], EXPECTED)
    assert attempted == failed == 5
    assert all("certificate bundle did not pass" in m for m in messages)
    e2e = report.end_to_end([result], [{"setup_s": 0.1, "scale": 1.0}], attempted, failed)
    assert e2e["pass_frac"][0] == 0.0


def test_gate_fails_on_an_unexpected_termination(tiny_runs):
    plain = tiny_runs["sec53-seeds"][0]
    expected = json.loads(json.dumps(EXPECTED))
    expected["sec53-seeds"]["terminations"]["BPGA"] = "max_iter"
    _, failed, messages = report.gate("sec53-seeds", [plain], expected)
    assert failed == 1 and "termination 'tolerance'" in messages[0]


def test_runner_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sec53-seeds", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
