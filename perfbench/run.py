"""Closed-loop, single-client benchmark of varred.

    python3 perfbench/run.py --workload quad-elim --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; varred is imported from its ``src``
directory and nowhere else.  One client sends a request, waits for the
answer, checks it against an independent oracle outside the timed region,
and sends the next, until ``--seconds`` have passed.

Every timing is reported in reference seconds: the wall time divided by
how slow the CPU ran at that moment, as read from a fixed kernel timed
between requests (see ``SpeedProbe``).  The raw wall times are printed too.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced on the same request stream, and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object.  Spans and a full result
record (with the environment) are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# BLAS and OpenMP read these once, when numpy first loads them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 50, 1.0
SELF_TIME_SHARE = 0.01  # per-layer self times must cover request wall time this closely
TAIL_BEYOND = 10  # the tail percentile leaves at least this many requests beyond it

END_TO_END_UNITS = {"solves_per_s": "1/s", "solve_s_p50": "s", "solve_s_tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here: the varred sources are missing."""


def import_varred():
    """Import varred from this checkout's ``src`` only."""
    if not (SRC / "varred" / "__init__.py").is_file():
        raise BenchError(f"no varred sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import varred

    if Path(varred.__file__).resolve().parent != (SRC / "varred").resolve():
        raise BenchError(f"varred imported from {varred.__file__}, not from {SRC}")
    return varred


def git_rev() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "seed": seed,
    }


class SpeedProbe:
    """How slow the CPU runs right now, relative to speed 1.

    The machine this benchmark runs on is shared, and its speed drifts by
    tens of percent from minute to minute, in CPU time as much as in wall
    time.  The probe times the workload's speed kernel, a fixed imitation of
    its hot loop that never calls varred (``workloads.gd_kernel``,
    ``workloads.softmax_kernel``); its time over ``workload.kernel_s`` is the
    slowdown.  It runs between requests, outside the timed region, and a
    request's slowdown is the mean of the readings taken just before and
    just after it.  A change to varred cannot move the probe unless it leaves
    work running between requests.
    """

    def __init__(self, workload):
        self.kernel, self.kernel_s = workload.speed_kernel(), workload.kernel_s
        self.last = self.measure()

    def measure(self) -> float:
        """Slowdown read from one timing of the kernel."""
        t0 = perf_counter()
        self.kernel()
        return (perf_counter() - t0) / self.kernel_s

    def since_last(self) -> float:
        """Slowdown over the interval since the previous reading."""
        now = self.measure()
        slowdown, self.last = (self.last + now) / 2, now
        return slowdown


def timed_setup(workload, probe: SpeedProbe) -> tuple[float, float]:
    """Median (reference, wall) seconds of repeated set-ups; the last one
    stays in place."""
    ref, wall = [], []
    spent = 0.0
    probe.since_last()
    while len(wall) < MIN_SETUPS or (spent < SETUP_BUDGET_S and len(wall) < MAX_SETUPS):
        t0 = perf_counter()
        workload.setup()
        wall.append(perf_counter() - t0)
        ref.append(wall[-1] / probe.since_last())
        spent += wall[-1]
    return statistics.median(ref), statistics.median(wall)


class Phase:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.latencies: list[float] = []  # wall seconds
        self.slowdowns: list[float] = []  # the speed probe's, one per request
        self.passed = 0
        self.errors: list[str] = []
        # (outer, inner, linear solves) per request from varred's counters;
        # None where the request raised.  Solutions themselves are not kept,
        # so the benchmark's own memory does not grow with the request count.
        self.counts: list[tuple[int, int, int] | None] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    @property
    def ref_latencies(self) -> list[float]:
        """Request times in reference seconds."""
        return [t / s for t, s in zip(self.latencies, self.slowdowns)]

    def solves_per_s(self) -> float:
        return self.passed / sum(self.ref_latencies)


def run_phase(workload, seconds: float, tracer, probe: SpeedProbe,
              max_requests: int | None = None) -> Phase:
    """Closed loop over requests 0, 1, ...; the timed region is the solve alone."""
    phase = Phase()
    probe.since_last()
    started = perf_counter()
    index = 0
    while perf_counter() - started < seconds and (max_requests is None or index < max_requests):
        inp = workload.request_input(index)
        sol, error = None, None
        t0 = perf_counter()
        try:
            with tracer.request(index):
                sol = workload.solve(inp, tracer)
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"request {index}: {type(exc).__name__}: {exc}"
        phase.latencies.append(perf_counter() - t0)
        if sol is not None:
            ok, err = workload.check(inp, sol)
            if not ok:
                error = f"request {index}: oracle error {err:.3e} above {workload.tolerance:g}"
        if error is None:
            phase.passed += 1
        else:
            phase.errors.append(error)
        phase.counts.append(None if sol is None else
                            (sol.outer_iters, sol.inner_iters, sol.linear_solves))
        phase.slowdowns.append(probe.since_last())
        index += 1
    return phase


def tail(latencies: list[float]) -> tuple[float, float]:
    """(seconds, percentile) at the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timings(latencies: list[float], passed: int, setup_s: float) -> dict:
    tail_s, _ = tail(latencies)
    return {"solves_per_s": passed / sum(latencies),
            "solve_s_p50": statistics.median(latencies),
            "solve_s_tail": tail_s,
            "setup_s": setup_s}


def end_to_end(phase: Phase, setup_ref_s: float, setup_wall_s: float,
               probe: SpeedProbe) -> tuple[dict, dict, list[str]]:
    """Metrics in reference seconds, the same timings in wall seconds, and
    the printed lines."""
    values = timings(phase.ref_latencies, phase.passed, setup_ref_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = timings(phase.latencies, phase.passed, setup_wall_s)
    lines = []
    for name, value in values.items():
        line = f"{name} {value:.6g} {END_TO_END_UNITS[name]}"
        if name in wall:
            line += f" (wall {wall[name]:.6g})"
        lines.append(line)
    _, tail_pct = tail(phase.latencies)
    lines[2] += f" (p{tail_pct:.1f} of {phase.attempted} requests)"
    lines.append(f"failed_ratio {phase.failed / phase.attempted:.6g} ratio "
                 f"({phase.failed} of {phase.attempted})")
    slowdown = statistics.median(phase.slowdowns)
    lines.append(f"speed probe slowdown {slowdown:.4g} median, {min(phase.slowdowns):.4g} "
                 f"to {max(phase.slowdowns):.4g} (kernel {probe.kernel_s:g} s at speed 1)")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return metrics, wall, lines


def per_layer(tracer, phase: Phase, setup_s: float, workload) -> tuple[dict, list[str], bool]:
    """Per-request layer metrics of the traced phase, and the cross-checks
    of the wrappers against varred's own counters."""
    n = phase.attempted
    returned = [c for c in phase.counts if c is not None]
    outer, inner, solves = (sum(column) for column in zip((0, 0, 0), *returned))
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}

    def per_req(name, total, unit):
        metrics[name] = (total / n, unit)

    cg_calls, cg_s, cg_self = tracer.stat("linalg.cg_solve")
    apply_calls, apply_s, _ = tracer.stat("linalg.op_apply")
    per_req("linalg.cg_solve.calls", cg_calls, "count/req")
    per_req("linalg.cg_solve.iters", counts.get("linalg.cg_solve.iters", 0), "count/req")
    per_req("linalg.cg_solve.op_applies", apply_calls, "count/req")
    per_req("linalg.cg_solve.s", cg_s, "s/req")
    per_req("linalg.cg_solve.self_s", cg_self, "s/req")
    per_req("linalg.op_apply.s", apply_s, "s/req")
    per_req("linalg.op_apply.bytes_computed", counts.get("linalg.op_apply.bytes", 0), "B/req")
    for method in ("evaluate", "value", "gradient", "hessian_vec"):
        calls, total, _ = tracer.stat(f"problems.{method}")
        per_req(f"problems.{method}.calls", calls, "count/req")
        per_req(f"problems.{method}.s", total, "s/req")
    metrics["problems.build.s"] = (setup_s, "s")
    solve_calls, solve_s, solve_self = tracer.stat("elimination.solve")
    schur_calls, schur_s, _ = tracer.stat("elimination.schur_hvp")
    per_req("elimination.solve.calls", solve_calls, "count/req")
    per_req("elimination.solve.s", solve_s, "s/req")
    per_req("elimination.solve.self_s", solve_self, "s/req")
    per_req("elimination.schur_hvp.calls", schur_calls, "count/req")
    per_req("elimination.schur_hvp.s", schur_s, "s/req")
    per_req("elimination.inner_iters", inner, "count/req")
    per_req("elimination.linear_solves", solves, "count/req")
    zero_iter = counts.get("elimination.solve.zero_iter", 0)
    metrics["elimination.zero_iter_ratio"] = (zero_iter / solve_calls if solve_calls else 0.0, "ratio")
    armijo_calls, armijo_s, _ = tracer.stat("optimizers.armijo")
    step_calls, _, _ = tracer.stat("optimizers.optimal_step")
    trials = counts.get("optimizers.armijo.trials", 0)
    per_req("optimizers.outer_iters", armijo_calls + step_calls, "count/req")
    per_req("optimizers.armijo.calls", armijo_calls, "count/req")
    per_req("optimizers.armijo.trials", trials, "count/req")
    per_req("optimizers.armijo.s", armijo_s, "s/req")
    metrics["optimizers.armijo.accept_ratio"] = (armijo_calls / trials if trials else 0.0, "ratio")
    layer_self = {layer: tracer.layer_self_s(layer) for layer in tracer.LAYERS}
    for layer, self_s in layer_self.items():
        per_req(f"{layer}.self_s", self_s, "s/req")
    wall = sum(phase.latencies)
    covered = sum(layer_self.values())
    metrics["trace.self_s_coverage"] = (covered / wall, "ratio")
    metrics["trace.requests"] = (n, "count")

    checks = {
        "linalg.cg_solve.calls == elimination.linear_solves": cg_calls == solves,
        "optimizers.outer_iters == ConvergenceRecord.iterations": armijo_calls + step_calls == outer,
        f"layer self times sum to request wall time within {SELF_TIME_SHARE:.0%}":
            abs(covered - wall) <= SELF_TIME_SHARE * wall,
    }
    if workload.cg_counts_inner_iters:
        checks["linalg.cg_solve.iters == elimination.inner_iters"] = (
            counts.get("linalg.cg_solve.iters", 0) == inner)
    if len(returned) < n:
        checks["every traced request returned"] = False
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"check {'ok' if ok else 'FAILED'}: {name}" for name, ok in checks.items()]
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return out, lines, all(checks.values())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_varred()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    env = environment(args.seed)
    lines = [f"workload {workload.name} seed {args.seed} trace {args.trace} "
             f"(closed loop, 1 client, {args.seconds:g} s)"]
    lines += [f"env {key} {value}" for key, value in env.items()]

    probe = SpeedProbe(workload)
    setup_s, setup_wall_s = timed_setup(workload, probe)
    warm_up = run_phase(workload, float("inf"), tracing.NullTracer(), probe, max_requests=1)
    lines += [f"warm-up {error}" for error in warm_up.errors]

    wall = None
    if args.trace == 0:
        phase = run_phase(workload, args.seconds, tracing.NullTracer(), probe)
        metrics, wall, more = end_to_end(phase, setup_s, setup_wall_s, probe)
        checks_ok = True
        attempted, failed, errors = phase.attempted, phase.failed, phase.errors
    else:
        untraced = run_phase(workload, args.seconds / 2, tracing.NullTracer(), probe)
        tracer = tracing.Tracer(workload.op_bytes)
        with tracer.patched():
            phase = run_phase(workload, args.seconds / 2, tracer, probe)
        metrics, more, checks_ok = per_layer(tracer, phase, setup_wall_s, workload)
        overhead = untraced.solves_per_s() / phase.solves_per_s()
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        more.insert(0, f"trace.overhead {overhead:.6g} ratio (untraced {untraced.solves_per_s():.6g} "
                       f"vs traced {phase.solves_per_s():.6g} solves/s)")
        attempted = untraced.attempted + phase.attempted
        failed = untraced.failed + phase.failed
        errors = untraced.errors + phase.errors
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}.npz")
    lines += more + errors[:5]

    result = {"correct": failed == 0 and checks_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "workload": workload.name, "environment": env,
                                  "wall_s": wall, "log": lines}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
