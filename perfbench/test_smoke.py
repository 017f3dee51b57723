"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
for every workload, traced and untraced, and that the correctness gate
rejects a tampered mesh CSV and an inflated solve residual.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the checkout's src on sys.path)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_METRICS = {
    "cli_n2": ("pipeline_s", "pair_analyze_s", "geodesic_s", "webbing_s", "verify_s"),
    "cli_n3": ("pipeline_s", "pair_analyze_s", "geodesic_s", "webbing_s", "verify_s"),
    "solve_corpus": ("solve_p50_s", "solve_tail_s", "hard_solve_p50_s", "solves_per_s"),
    "mesh_checks": ("mesh_checks_s",),
}


def run_bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--sizes", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    line = run_bench(trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    # the phase1 = 1.568 hard pair fails today (apriori_bounds overflows)
    assert line["failed"] >= 1
    names = [w["name"] for w in SPEC["workloads"]]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in names for m in wanted}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for w in names:
        result = json.loads((HERE / "out" / f"result-{w}-seed3-trace{trace}.json").read_text())
        for name in WORKLOAD_METRICS[w] + ("setup_s", "failed_ratio"):
            assert result["summary"][name]["unit"], (w, name)
        assert result["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_gate_rejects_a_tampered_mesh_csv():
    workdir = HERE / "out" / "smoke-tamper"
    pipeline = workloads.build("cli_n2", 1, workloads.TINY, workdir, in_process=True)
    run_stage = pipeline.run_stage

    def tamper_before_verify(argv, log, clock):
        if argv[0] == "verify":
            mesh = Path(argv[argv.index("--mesh") + 1])
            lines = mesh.read_text().splitlines()
            fields = lines[1].split(",")
            fields[-1] = repr(float(fields[-1]) + 1e-6)
            lines[1] = ",".join(fields)
            mesh.write_text("\n".join(lines) + "\n")
        return run_stage(argv, log, clock)

    try:
        assert pipeline.pipeline().ok
        pipeline.run_stage = tamper_before_verify
        op = pipeline.pipeline()
        assert not op.ok
        assert op.error.startswith("verify exited")
    finally:
        pipeline.close()


def test_gate_rejects_an_inflated_residual(monkeypatch):
    corpus = workloads.build("solve_corpus", 1, workloads.TINY, HERE / "out", in_process=True)
    label, group, pair = corpus.pairs[0]
    assert corpus.solve(label, group, pair).ok

    solve = workloads.bvpsolve.solve_bvp_maslov0

    def inflated(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), residual_norm=1e-3)

    monkeypatch.setattr(workloads.bvpsolve, "solve_bvp_maslov0", inflated)
    op = corpus.solve(label, group, pair)
    assert not op.ok and op.error is None
    assert any(msg.startswith("residual") for msg in op.wrong)
