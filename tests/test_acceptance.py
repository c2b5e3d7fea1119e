"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS lines and
the wall-clock timings.  Timings are reported everywhere and asserted only as
generous ceilings: criterion 1 (the quadratic runs) within 10 s and criterion 4
(the log-sum-exp runs) within 30 s.
"""

import time

import numpy as np
import pytest

from varred.bench_cli import ExperimentConfig, conditioning_report, run_table1_sweep
from varred.elimination import (
    NewtonElimination,
    QuadraticExactElimination,
    ReducedObjective,
    ScheduledInexactElimination,
)
from varred.errors import MaxIterReached
from varred.linalg import sym_matrix
from varred.optimizers import (
    StopRule,
    alternating_minimization,
    gradient_descent,
    newton_eliminated,
    pgd_inexact,
)
from varred.problems import BlockPartition, LogSumExpProblem, QuadraticProblem, build_test_matrix

from oracles import check_rate_bound, quadratic_minimizer, recorded_iterates

SEEDS = (0, 1, 2, 3, 4)
STOP = StopRule(rel_grad_tol=1e-6, max_iter=20000)


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def quadratic_experiment():
    """Five-seed quadratic benchmark: full runs, partial runs, conditioning."""
    data = {}
    run_time = 0.0
    for seed in SEEDS:
        problem = build_test_matrix(40, 60, (1, 10), (1, 1000), 1e-2, seed=seed)
        t0 = time.perf_counter()
        _, rec_gd = gradient_descent(problem, np.zeros(100), STOP,
                                     step_mode="optimal_quadratic")
        reduced = ReducedObjective(problem)
        _, rec_pgd = gradient_descent(reduced, np.zeros(40), STOP,
                                      step_mode="optimal_quadratic")
        run_time += time.perf_counter() - t0

        part_partial = problem.partition.shrink_eliminated(50)
        reduced_partial = ReducedObjective(problem, part_partial,
                                           QuadraticExactElimination(problem, part_partial))
        _, rec_partial = gradient_descent(reduced_partial, np.zeros(50), STOP,
                                          step_mode="optimal_quadratic")

        cfg = ExperimentConfig(kind="quadratic", n_x=40, n_y=60, seed=seed)
        rep_full = conditioning_report(cfg)
        cfg_partial = ExperimentConfig(kind="quadratic", n_x=40, n_y=60, seed=seed,
                                       eliminate="last:50")
        rep_partial = conditioning_report(cfg_partial)

        data[seed] = dict(
            gd=rec_gd.iterations, pgd=rec_pgd.iterations,
            pgd_partial=rec_partial.iterations,
            kappa_a=rep_full.kappa_full, kappa_a11=rep_full.kappa_retained_block,
            kappa_s_full=rep_full.kappa_schur, kappa_s_partial=rep_partial.kappa_schur)
    data["run_time"] = run_time
    return data


def test_criterion_1_quadratic_full_elimination(quadratic_experiment):
    d = quadratic_experiment
    ok = True
    details = []
    for seed in SEEDS:
        gd, pgd = d[seed]["gd"], d[seed]["pgd"]
        ok &= 1500 <= gd <= 9000 and pgd <= 100 and gd >= 20 * pgd
        details.append(f"seed{seed}: GD={gd} PGD={pgd} ({gd / pgd:.0f}x)")
    ok &= d["run_time"] <= 10.0
    _report(1, ok, "; ".join(details) + f"; runtime {d['run_time']:.1f}s <= 10s")


def test_criterion_2_partial_elimination(quadratic_experiment):
    d = quadratic_experiment
    ok = True
    details = []
    for seed in SEEDS:
        gd, part = d[seed]["gd"], d[seed]["pgd_partial"]
        slack = 1.0 + 1e-9
        ok &= part < gd
        ok &= d[seed]["kappa_a"] * slack >= d[seed]["kappa_s_partial"]
        ok &= d[seed]["kappa_s_partial"] * slack >= d[seed]["kappa_s_full"]
        details.append(f"seed{seed}: PGDpart={part}<GD={gd}, "
                       f"k(A)={d[seed]['kappa_a']:.0f}>=k(Sp)={d[seed]['kappa_s_partial']:.0f}"
                       f">=k(Sf)={d[seed]['kappa_s_full']:.1f}")
    _report(2, ok, "; ".join(details))


def test_criterion_3_conditioning_values(quadratic_experiment):
    d = quadratic_experiment
    ok = True
    details = []
    for seed in SEEDS:
        ka, ka11, ks = d[seed]["kappa_a"], d[seed]["kappa_a11"], d[seed]["kappa_s_full"]
        ok &= 950.0 <= ka <= 1050.0
        ok &= abs(ks - ka11) / ka11 <= 0.05
        ok &= abs(ka11 - 10.0) <= 1e-6
        details.append(f"seed{seed}: k(A)={ka:.1f} k(A11)={ka11:.8f} k(S)={ks:.4f}")
    _report(3, ok, "; ".join(details))


def test_criterion_4_logsumexp_experiment():
    problem = LogSumExpProblem(1000, 20)
    t0 = time.perf_counter()
    reduced = ReducedObjective(problem, elim=NewtonElimination(problem, inner_tol=1e-10))
    _, rec_pgd = gradient_descent(reduced, np.zeros(980), STOP, step_mode="armijo")
    t_pgd = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, rec_gd = gradient_descent(problem, np.zeros(1000), STOP, step_mode="armijo")
    t_gd = time.perf_counter() - t0
    elapsed = t_pgd + t_gd
    ok = rec_pgd.iterations <= 15 and 300 <= rec_gd.iterations <= 1500 and elapsed <= 30.0
    _report(4, ok, f"PGD={rec_pgd.iterations} (<=15, {t_pgd:.2f}s), "
                   f"GD={rec_gd.iterations} (in [300,1500], {t_gd:.2f}s); "
                   f"runtime {elapsed:.1f}s <= 30s")


def test_criterion_5_table1_sweep(tmp_path):
    cfg = ExperimentConfig(kind="logsumexp", n=1000, out_dir=str(tmp_path),
                           max_iter=20000)
    values = [10, 50, 200, 400]
    table, _ = run_table1_sweep(cfg, values)
    ok = True
    for n_el in values:
        gd = table["gd"][n_el]
        ex = table["pgd-exact"][n_el]
        inx = table["pgd-inexact"][n_el]
        ok &= all(s.status == "converged" for s in (gd, ex, inx))
        ok &= ex.iterations <= 20 and inx.iterations <= 20
        ok &= abs(ex.iterations - inx.iterations) <= 10
        ok &= 300 <= gd.iterations <= 1500
    print("\n    timings (iterations (seconds), reported not asserted):")
    for method in ("gd", "pgd-exact", "pgd-inexact"):
        cells = "  ".join(f"{table[method][v].iterations:4d} ({table[method][v].elapsed_s:.2f}s)"
                          for v in values)
        print(f"    {method:12s} {cells}")
    detail = "; ".join(
        f"n_el={v}: GD={table['gd'][v].iterations} Ex={table['pgd-exact'][v].iterations} "
        f"In={table['pgd-inexact'][v].iterations}" for v in values)
    _report(5, ok, detail)


def test_criterion_6_schur_conditioning_suite():
    ok = True
    worst_gap = 0.0
    worst_hvp = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 41))
        m = rng.standard_normal((n, n))
        a = sym_matrix(m @ m.T / n + 0.5 * np.eye(n))
        k = int(rng.integers(1, n))
        perm = rng.permutation(n)
        part = BlockPartition(n, np.sort(perm[:k]), np.sort(perm[k:]))
        problem = QuadraticProblem(a, rng.standard_normal(n), 0.0, part)
        s = QuadraticExactElimination(problem, part).s
        ev_a = np.linalg.eigvalsh(a)
        ev_s = np.linalg.eigvalsh(s)
        ok &= ev_a[0] <= ev_s[0] + 1e-9
        ok &= ev_s[-1] <= ev_a[-1] + 1e-9
        worst_gap = max(worst_gap, ev_a[0] - ev_s[0], ev_s[-1] - ev_a[-1])
        elim = QuadraticExactElimination(problem, part)
        v = rng.standard_normal(k)
        # independent of the condensation: S^{-1} is the x-block of A^{-1}
        s_oracle = np.linalg.inv(np.linalg.inv(a)[np.ix_(part.x_indices, part.x_indices)])
        diff = float(np.abs(elim.schur_hvp(v) - s_oracle @ v).max())
        worst_hvp = max(worst_hvp, diff)
        ok &= diff <= 1e-8
    _report(6, ok, f"100 instances: eigenvalue sandwich holds (worst violation "
                   f"{worst_gap:.1e} <= 1e-9); inverse-of-inverse-block Schur vs HVP "
                   f"worst diff {worst_hvp:.1e} <= 1e-8")


def test_criterion_7_rate_bounds():
    ok = True
    details = []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        n_x = int(rng.integers(3, 8))
        n_y = int(rng.integers(3, 9))
        problem = build_test_matrix(n_x, n_y, (1, 6), (1, 9 + 8 * seed), 1e-1, seed=seed)
        z_star = quadratic_minimizer(problem)
        with recorded_iterates(problem) as iterates_gd:
            _, rec_gd = gradient_descent(problem, np.zeros(n_x + n_y), STOP,
                                         step_mode="optimal_quadratic")
        ev_a = np.linalg.eigvalsh(problem.a)
        ok_gd = check_rate_bound(rec_gd, ev_a[-1] / ev_a[0], z_star, iterates_gd)
        reduced = ReducedObjective(problem)
        with recorded_iterates(reduced) as iterates_pgd:
            _, rec_pgd = gradient_descent(reduced, np.zeros(n_x), STOP,
                                          step_mode="optimal_quadratic")
        s = QuadraticExactElimination(problem).s
        ev_s = np.linalg.eigvalsh(s)
        ok_pgd = check_rate_bound(rec_pgd, ev_s[-1] / ev_s[0], z_star[:n_x], iterates_pgd)
        ok &= ok_gd and ok_pgd
        details.append(f"seed{seed}: GD({rec_gd.iterations}it){'+' if ok_gd else '-'}"
                       f"PGD({rec_pgd.iterations}it){'+' if ok_pgd else '-'}")
    _report(7, ok, "iterate-wise bounds with kappa(A)/kappa(S): " + "; ".join(details))


def test_criterion_8_gradient_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    quad = build_test_matrix(6, 8, (1, 5), (1, 30), 1e-1, seed=21)
    lse = LogSumExpProblem(60, 8)
    cases = [(quad, ReducedObjective(quad)),
             (lse, ReducedObjective(lse, elim=NewtonElimination(lse, inner_tol=1e-12)))]
    ok = True
    for _, reduced in cases:
        for _ in range(20):
            x = rng.standard_normal(reduced.n) * 0.5
            g = reduced.gradient(x)
            eps = 1e-6 * (1.0 + np.linalg.norm(x, np.inf))
            fd = np.empty_like(g)
            for i in range(g.size):
                e = np.zeros_like(x)
                e[i] = eps
                fd[i] = (reduced.value(x + e) - reduced.value(x - e)) / (2 * eps)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
            worst = max(worst, rel)
            ok &= rel <= 1e-5
    _report(8, ok, f"reduced gradient vs finite differences at 20 random points "
                   f"on both problems: worst rel error {worst:.1e} <= 1e-5")


def test_criterion_9_consistency_at_optimum():
    ok = True
    details = []
    # quadratic: direct-solve optimum
    quad = build_test_matrix(6, 9, (1, 5), (1, 40), 1e-1, seed=31)
    z_star = quadratic_minimizer(quad)
    sched = ScheduledInexactElimination(NewtonElimination(quad))
    _, _, rec = pgd_inexact(quad, quad.partition, sched, z_star[:6], z_star[6:],
                            StopRule(max_iter=50))
    ok &= rec.iterations <= 1
    details.append(f"quadratic: inexact PGD stopped after {rec.iterations} outer iterations")
    newton_map = NewtonElimination(quad, inner_tol=1e-8)
    res = newton_map.solve(z_star[:6], y0=z_star[6:])
    ok &= res.inner_iterations == 0
    details.append(f"inner Newton at (x*, y*): {res.inner_iterations} iterations")

    # strongly convex problem: optimum from the eliminated Newton method
    lse = LogSumExpProblem(200, 10)
    x_star, _ = newton_eliminated(
        lse, lse.partition, NewtonElimination(lse, inner_tol=1e-13),
        np.zeros(190), StopRule(rel_grad_tol=1e-12, max_iter=50))
    elim_tight = NewtonElimination(lse, inner_tol=1e-13)
    y_star = elim_tight.solve(x_star).y
    sched2 = ScheduledInexactElimination(NewtonElimination(lse))
    _, _, rec2 = pgd_inexact(lse, lse.partition, sched2, x_star, y_star,
                             StopRule(max_iter=50))
    ok &= rec2.iterations <= 1
    details.append(f"logsumexp: inexact PGD stopped after {rec2.iterations} outer iterations")
    res2 = NewtonElimination(lse, inner_tol=1e-8).solve(x_star, y0=y_star)
    ok &= res2.inner_iterations == 0
    _report(9, ok, "; ".join(details))


def test_criterion_10_alternating_minimization_oracle():
    ok = True
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        n_x = int(rng.integers(2, 10))
        n_y = int(rng.integers(2, 11))
        problem = build_test_matrix(n_x, n_y, (1, 4), (1, 8), 3e-1, seed=seed)
        stop = StopRule(rel_grad_tol=1e-14, max_iter=6)
        with recorded_iterates(problem) as iterates:
            try:
                _, rec = alternating_minimization(problem, problem.partition,
                                                  np.zeros(n_x + n_y), stop)
            except MaxIterReached as exc:
                rec = exc.record
        assert len(iterates) == len(rec.rows)
        a = problem.a
        a11, a12 = a[:n_x, :n_x], a[:n_x, n_x:]
        a21, a22 = a[n_x:, :n_x], a[n_x:, n_x:]
        b1, b2 = problem.b[:n_x], problem.b[n_x:]
        x = np.zeros(n_x)
        y = np.zeros(n_y)
        for zk in iterates[1:]:
            x = np.linalg.solve(a11, b1 - a12 @ y)
            y = np.linalg.solve(a22, b2 - a21 @ x)
            diff = float(np.abs(zk - np.concatenate([x, y])).max())
            worst = max(worst, diff)
            ok &= diff <= 1e-10
    _report(10, ok, f"10 instances (order <= 20): per-sweep agreement with "
                    f"block Gauss-Seidel, worst diff {worst:.1e} <= 1e-10")
