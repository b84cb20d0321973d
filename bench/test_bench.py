"""Tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_inputs(name):
    first = workloads.make_inputs(name, 7, 64)
    assert first == workloads.make_inputs(name, 7, 64)
    assert first != workloads.make_inputs(name, 8, 64)


@pytest.mark.parametrize("name", ["scan", "lifetime", "common-bath"])
def test_inputs_stay_in_valid_domain(name):
    for op in workloads.make_inputs(name, 3, 256):
        assert 0.0 <= op["delta"] <= 2.0
        assert 0.0 < op["ratio"] <= 1.0
        assert -3.0 <= op["lambda_corr"] <= 1.0


def test_trap_configs_stay_in_valid_domain():
    from spinbath import iontrap

    ops = workloads.make_inputs("trap", 3, 256)
    assert {op["bath_dimension"] for op in ops} == {1, 2, 3}
    for op in ops:
        config = iontrap.TrapConfig.from_mapping(
            {k: v for k, v in op.items() if k != "exact_delta"})
        plan = iontrap.plan(config, exact_delta=op["exact_delta"], lamb_shift=False)
        assert 0.0 <= plan.report.delta <= 2.0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == list(workloads.WHY.values())
    assert tuple(workloads.NAMES) == run.WORKLOADS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names(trace, section, capsys, monkeypatch):
    monkeypatch.setattr(measure, "SETUP_RUNS", 1)
    argv = ["--workload", "scan", "--seed", "5", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert printed == list(result["metrics"])
    assert all(NAME.fullmatch(name) for name in printed)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_tracing_restores_bindings():
    modules = {module for module, _ in tracing.BINDINGS}
    before = {module: dict(vars(module)) for module in modules}
    tracer = tracing.Tracer()
    for index, op in enumerate(workloads.make_inputs("lifetime", 1, 4)[:2]):
        with tracer.op(index):
            workloads.run_op("lifetime", op)
    with pytest.raises(ZeroDivisionError), tracer.op(2):
        1 / 0
    for module, attrs in before.items():
        after = vars(module)
        assert after.keys() == attrs.keys()
        assert all(after[key] is value for key, value in attrs.items())
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"dynamics.survival_report", "dynamics.propagate_spectral"} <= names
    assert tracer.spans[-1][tracing.FAILED]


def test_self_time_excludes_children():
    spans = [
        ["harness.op", 0.0, 10.0, -1, 0, False, 0],
        ["dynamics.propagate", 1.0, 7.0, 0, 0, False, 0],
        ["dynamics.propagate_ode", 2.0, 6.0, 1, 0, False, 5],
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["harness.self_share"][0] == pytest.approx(0.4)
    assert metrics["dynamics.self_share"][0] == pytest.approx(0.6)
    assert metrics["dynamics.propagate.ode_route_ratio"][0] == 1.0
    assert tracing.dominant_share(spans, ("dynamics.propagate_ode",)) == pytest.approx(0.4)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "trap", "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert child.returncode != 0
    assert "{" not in child.stdout


def test_host_speed_scales_by_recent_kernel_median(monkeypatch):
    samples = iter([2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0])
    monkeypatch.setattr(calibration, "time_kernel", lambda: next(samples))
    speed = calibration.HostSpeed()
    ref = calibration.REFERENCE_KERNEL_S
    assert speed.track(0.0) == ref / 6.0  # the first call fills the window
    assert speed.track(0.1) == ref / 6.0  # not due: no new sample
    assert speed.track(calibration.SAMPLE_INTERVAL_S) == ref / 8.0
    assert speed.track(2 * calibration.SAMPLE_INTERVAL_S) == ref / 10.0
    assert speed.samples == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]


def test_spans_scale_by_their_own_op(monkeypatch, tmp_path):
    factors = iter([1.0, 3.0])
    monkeypatch.setattr(calibration.HostSpeed, "track", lambda self, busy: next(factors))
    tracer = tracing.Tracer()
    ops = workloads.make_inputs("common-bath", 2, 2)
    traced = measure.run_pass("common-bath", ops, None, 2, tracer)
    assert traced.factors == [1.0, 3.0]
    monkeypatch.setattr(measure, "Tracer", lambda: tracer)
    monkeypatch.setattr(measure, "run_pass", lambda *args: traced)
    _, metrics = measure.per_layer("common-bath", ops, 1.0, 2, tmp_path / "spans.jsonl")
    ode = [(span[tracing.END] - span[tracing.START]) * (1.0, 3.0)[span[tracing.OP]]
           for span in tracer.spans if span[tracing.NAME] == "dynamics.propagate_ode"]
    assert metrics["dynamics.propagate_ode.calls"][0] == len(ode) > 0
    assert metrics["dynamics.propagate_ode.ms_per_call"][0] == pytest.approx(
        1e3 * sum(ode) / len(ode))


@pytest.mark.parametrize("trace", [0, 1])
def test_every_op_failing_is_reported(trace, capsys, monkeypatch):
    def fail(workload, op):
        raise RuntimeError("exit 3")

    monkeypatch.setattr(measure, "SETUP_RUNS", 1)
    monkeypatch.setattr(measure, "run_op", fail)
    argv = ["--workload", "scan", "--seed", "5", "--seconds", "0.05", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert not result["correct"]
    assert result["attempted"] == result["failed"] >= 1
    assert "op_p50_ms" not in result["metrics"]
