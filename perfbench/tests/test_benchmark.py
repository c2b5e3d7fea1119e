"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins BLAS threads, locates the sources)

run.import_varred()

import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("optimizers.outer_iters", "linalg.cg_solve.iters",
          "elimination.inner_iters", "optimizers.armijo.trials")


def traced_counts(name: str, seed: int, requests: int = 2) -> dict:
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    tracer = tracing.Tracer(workload.op_bytes)
    with tracer.patched():
        phase = run.run_phase(workload, float("inf"), tracer, run.SpeedProbe(workload),
                              max_requests=requests)
    metrics, _, checks_ok = run.per_layer(tracer, phase, 0.0, workload)
    assert phase.attempted == requests and phase.failed == 0, phase.errors
    assert checks_ok
    return {key: metrics[key]["value"] for key in COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_counts(name):
    first = traced_counts(name, seed=7)
    assert first == traced_counts(name, seed=7)
    assert first["optimizers.outer_iters"] > 0


def generated_inputs(name: str, seed: int) -> list[np.ndarray]:
    """The arrays request 0 hands the library, set-up included."""
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    inp = workload.request_input(0)
    if name == "quad-gd":
        return [array for slot in inp for array in (workload.pool[slot].a, workload.pool[slot].b)]
    if name == "quad-elim":
        return [workload.problem.a, inp]
    return [inp]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_generated_inputs(name):
    same = zip(generated_inputs(name, 1), generated_inputs(name, 1))
    assert all(np.array_equal(a, b) for a, b in same)
    other = zip(generated_inputs(name, 1), generated_inputs(name, 2))
    assert not any(np.array_equal(a, b) for a, b in other)


def test_tracer_restores_library_names():
    import varred.elimination
    import varred.linalg
    import varred.optimizers

    before = (varred.linalg.cg_solve, varred.elimination.cg_solve,
              varred.optimizers.armijo_search, varred.optimizers.optimal_step_quadratic)
    traced_counts("quad-gd", seed=3, requests=1)
    after = (varred.linalg.cg_solve, varred.elimination.cg_solve,
             varred.optimizers.armijo_search, varred.optimizers.optimal_step_quadratic)
    assert before == after


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "quad-gd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(trace, kind):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "quad-gd",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec[kind]}


def test_reference_seconds_divide_wall_time_by_slowdown():
    phase = run.Phase()
    phase.latencies, phase.slowdowns, phase.passed = [1.0, 3.0], [2.0, 1.5], 2
    assert phase.ref_latencies == [0.5, 2.0]
    assert phase.solves_per_s() == 2 / 2.5
