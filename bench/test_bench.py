"""Smoke test of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import flexsic.scenario as scenario  # noqa: E402
import harness  # noqa: E402
import speed  # noqa: E402
from tracer import HOOKS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT, bench: str = BENCH):
    args = [sys.executable, os.path.join(bench, "run.py"), "--workload", workload]
    args += ["--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(args, capture_output=True, text=True, timeout=170, cwd=cwd)


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def flexsic_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "flexsic" or name.startswith("flexsic.")
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_passes_checks_and_prints_every_metric(workload):
    done = run_bench(workload, 0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert ["error_rate", "0", "fraction"] in [line.split() for line in lines]
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["seed"] == 7 and env["nproc"] >= 1 and env["numpy"]


def test_trace_run_prints_every_per_layer_metric():
    done = run_bench("desk_suite", 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = result["metrics"]
    assert metrics["scenario.run_scenario.calls"]["value"] == 1.0
    assert metrics["sic.ls_solve.calls"]["value"] > 0
    assert metrics["counters.proposed.run.mults"]["value"] > 0
    assert 0.95 < metrics["trace.accounted_share"]["value"] <= 1.0


def test_counts_and_sicr_repeat_exactly_for_a_seed():
    first, _ = harness.trace("desk_suite", 3, 0.0, 0.0)
    second, _ = harness.trace("desk_suite", 3, 0.0, 0.0)
    for name, (value, _) in first.items():
        if name.startswith("counters.") or name.endswith(".calls"):
            assert second[name][0] == value, name
    sicr = [harness.measure("desk_suite", 3, 0.0, 0.0)[0]["sicr_db.proposed"] for _ in range(2)]
    assert sicr[0] == sicr[1]


def test_tracer_restores_every_binding_and_skips_absent_hooks():
    before = flexsic_bindings()
    original = scenario.run_scenario
    tracer = Tracer(HOOKS + ("sic.removed_function", "removed_module.f"))
    spec = scenario.ScenarioSpec(cancellers=("none", "proposed", "full_ls"), n_run_symbols=2)
    with tracer.installed():
        assert scenario.run_scenario is not original
        tracer.scenario = 0
        scenario.run_scenario(spec, 1)
    assert tracer.absent == ["sic.removed_function", "removed_module.f"]
    after = flexsic_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    names = {span[0] for span in tracer.spans}
    assert names == set(HOOKS) - {"sic.baseline_linear", "sic.estimate_linear_channel"}
    roots = [i for i, span in enumerate(tracer.spans) if span[3] == -1]
    assert [tracer.spans[i][0] for i in roots] == ["scenario.run_scenario"]
    root = tracer.spans[roots[0]]
    assert sum(tracer.self_times()) == root[2] - root[1]


def test_speed_window_samples_the_probe_and_takes_it_off():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.window() as stretch:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(stretch.samples) >= 5
    assert stretch.probe_s == sum(stretch.samples)
    assert 0 < stretch.net_s < stretch.wall_s
    mean = sum(stretch.samples) / len(stretch.samples)
    assert stretch.scaled_s == pytest.approx(stretch.net_s * speed.NOMINAL_S / mean)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_raising_scenario_counts_as_failure_and_run_finishes(monkeypatch):
    real = scenario.run_scenario

    def flaky(spec, seed=None):
        if spec.duplex == "sbfd":
            raise RuntimeError("forced failure")
        return real(spec, seed)

    monkeypatch.setattr(scenario, "run_scenario", flaky)
    metrics, info = harness.measure("desk_suite", 7, 0.0, 0.0)
    assert info["error_rate"] > 0
    assert info["failed"] == info["scenarios"] // 3
    assert metrics["scenario_s.p50"][0] > 0


def test_failed_output_check_counts_as_failure(monkeypatch):
    real = scenario.run_scenario

    def without_none(spec, seed=None):
        report = real(spec, seed)
        report.sicr_db["none"] = 1.0
        return report

    monkeypatch.setattr(scenario, "run_scenario", without_none)
    loop = harness.Loop("long_run", 7)
    spec, seed = loop.next_scenario(0)
    report, _, _ = loop.call(0, spec, seed)
    assert report is None and loop.failed == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH, name), bench)
    done = run_bench("desk_suite", 0, cwd=str(tmp_path), bench=str(bench))
    assert done.returncode != 0
    assert "{" not in done.stdout
