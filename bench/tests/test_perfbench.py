"""Smoke runs of every workload, and proof that every output check is live.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = 0.2


def smoke(name: str, seed: int = 7, prepare=None) -> run.Phase:
    workload = workloads.make(name)
    workload.setup(seed)
    if prepare is not None:
        prepare(workload)
    phase = run.Phase()
    run.measure(workload, SMOKE_SECONDS, phase)
    run.finish(workload, phase)
    return phase


# ---------------------------------------------------------- smoke size


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_passes_its_checks_on_the_current_code(name):
    phase = smoke(name)
    assert phase.failed == 0, phase.messages
    assert phase.attempted >= len(phase.latencies) >= 1


def test_inputs_are_a_function_of_the_seed():
    def inputs(seed):
        workload = workloads.make("cli_simulate")
        workload.setup(seed)
        return [workload.request(i)["stdin"] for i in range(3)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


# -------------------------------------------------- the checks are live


def _perturbed(apply_noise):
    def perturbed(state, model):
        rho = apply_noise(state, model)
        return (1.0 - 1e-6) * rho + 1e-6 * np.eye(16) / 16.0

    return perturbed


def test_noise_scan_fails_on_a_perturbed_rho(monkeypatch):
    from avnsim import source

    monkeypatch.setattr(source, "apply_noise", _perturbed(source.apply_noise))
    phase = smoke("noise_scan")
    assert phase.failed == phase.attempted


def test_noise_scan_fails_on_a_wrong_oracle_value(monkeypatch):
    oracle = checks.reduced_oracle

    def wrong(phi, noise):
        values = oracle(phi, noise)
        values["XX'-X-X'"] += 1e-9
        return values

    monkeypatch.setattr(checks, "reduced_oracle", wrong)
    phase = smoke("noise_scan")
    assert phase.failed == phase.attempted


def test_seed_sweep_fails_on_a_perturbed_rho():
    def perturb(workload):
        workload.rho = 0.9 * workload.rho + 0.1 * np.eye(16) / 16.0

    phase = smoke("seed_sweep", prepare=perturb)
    # every run is far from the exact value, and so is the sweep mean
    assert phase.failed == phase.attempted - 1


def test_seed_sweep_detects_a_changed_repeat():
    workload = workloads.make("seed_sweep")
    workload.setup(3)
    report = workload.call(workload.request(0))
    workload.check(workload.request(0), report)
    workload.first[1]["bell_value"] += 1e-12
    mean_check, repeat_check = workload.finish()
    assert mean_check == [] and repeat_check != []


def test_cli_predict_fails_on_a_wrong_oracle_value():
    def shift(workload):
        request = workload.request

        def wrong(i):
            req = request(i)
            req["oracle"]["ZZ"] += 1e-9
            return req

        workload.request = wrong

    phase = smoke("cli_predict", prepare=shift)
    assert phase.failed >= 1


def test_cli_simulate_fails_when_counts_disagree_with_the_oracle():
    rows = [{"id": "ZZ", "E": -0.9, "n": 30000}]
    assert checks.sampled_rows(rows, {"ZZ": -0.9}) == []
    assert checks.sampled_rows(rows, {"ZZ": -0.95}) != []
    assert checks.sampled_rows([{"id": "ZZ", "E": 0.0, "n": 0}], {"ZZ": 0.0}) != []


def test_document_checks():
    assert checks.parse_document(0, b'{"ok": true}') == ({"ok": True}, [])
    assert checks.parse_document(1, b'{"ok": true}')[1] == ["exit code 1"]
    assert checks.parse_document(0, b"not json")[0] is None
    assert checks.parse_document(0, b"[1]")[0] is None
    assert checks.flag({"ok": True}, "ok") == []
    assert checks.flag({"ok": False}, "ok") != []
    assert checks.flag({"all_pass": 1}, "all_pass") != []
    assert checks.identical(b"a", b"a", "x") == [] and checks.identical(b"a", b"b", "x") != []
    assert checks.sweep_mean([8.56904]) == [] and checks.sweep_mean([8.5]) != []
    assert checks.bell_near_exact(8.55, 0.005, 8.546) == [] and checks.bell_near_exact(8.60, 0.005, 8.546) != []


def test_cli_checks_flag_a_failed_certificate_and_a_failed_comparison():
    lhv = workloads.make("cli_lhv")
    lhv.setup(1)
    good = b'{"ok": true}'
    assert lhv.check({"argv": ["lhv"]}, (0, good, b"")) == []
    assert lhv.check({"argv": ["lhv"]}, (1, b'{"ok": false}', b"")) != []
    assert lhv.check({"argv": ["lhv"]}, (0, b'{"ok": true }', b"")) != []  # differs from the first
    reproduce = workloads.make("cli_reproduce")
    reproduce.setup(1)
    req = reproduce.request(0)
    doc = {"all_pass": True, "seed": req["seed"]}
    assert reproduce.check(req, (0, json.dumps(doc).encode(), b"")) == []
    doc["all_pass"] = False
    assert reproduce.check(req, (1, json.dumps(doc).encode(), b"")) != []


# --------------------------------------------------------------- tracer


def test_tracer_covers_by_name_imports_and_restores_them():
    from avnsim import cli, source

    original = source.build_psi
    tracer = tracing.Tracer()
    tracer.install(layers.TRACED)
    try:
        assert cli.build_psi is source.build_psi is not original
        with redirect_stdout(io.StringIO()):
            cli.main(["predict"])
    finally:
        tracer.uninstall()
    assert cli.build_psi is source.build_psi is original
    rows = tracer.per_function()
    assert rows["source.build_psi"]["calls"] == 1
    assert rows["qstate.tensor4"]["calls"] == 4
    assert rows["cli.to_json"]["calls"] == 1  # recursion stays inside one span


def test_self_time_is_span_time_minus_child_time():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    rows = tracer.per_function()
    outer, inner = rows["outer"], rows["inner"]
    assert inner["calls"] == 2
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)
    assert tracer.count_beneath("inner", "outer") == 2


# ------------------------------------------------------------- contract


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, timeout=170)


def test_timed_run_prints_every_end_to_end_metric():
    proc = _run("bench/run.py", "--workload", "noise_scan", "--seed", "4", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_and_exact_counts():
    proc = _run("bench/run.py", "--workload", "noise_scan", "--seed", "4", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: m["value"] for k, m in last["metrics"].items()}
    assert metrics["source.fit_noise.evaluations"] == 1537
    assert metrics["lhv.assignments_visited"] == 16384
    assert metrics["source.build_psi.distinct_ratio"] == 1.0


def test_run_without_the_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("bench/run.py", "--workload", "noise_scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
