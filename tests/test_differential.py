"""Every method on both benchmark problems, under random block partitions,
checked against oracles that share no code with varred: a dense solve of the
full quadratic system, and the log-sum-exp gradient written out from the
problem's coefficients."""

import numpy as np
import pytest

from varred.elimination import (
    NewtonElimination,
    ReducedObjective,
    ScheduledInexactElimination,
    exact_map,
)
from varred.optimizers import (
    StopRule,
    alternating_minimization,
    gradient_descent,
    newton_eliminated,
    pgd_inexact,
)
from varred.problems import BlockPartition, LogSumExpProblem, build_test_matrix

STOP = StopRule(rel_grad_tol=1e-6, max_iter=20000)


def quadratic():
    return build_test_matrix(6, 9, (1.0, 10.0), (1.0, 200.0), 0.1, seed=7)


def logsumexp():
    return LogSumExpProblem(60, 4)


def step_mode(problem):
    return "armijo" if isinstance(problem, LogSumExpProblem) else "optimal_quadratic"


def random_partition(n, seed):
    rng = np.random.default_rng(seed)
    n_y = int(rng.integers(1, n))
    perm = rng.permutation(n)
    return BlockPartition(n, np.sort(perm[n_y:]), np.sort(perm[:n_y]))


def lse_gradient(problem, z):
    t = problem.b_coeffs * z
    w = problem.a_coeffs * np.exp(t - t.max())
    return problem.b_coeffs * w / w.sum() + problem.d_diag * z


def check_against_oracle(problem, z):
    if isinstance(problem, LogSumExpProblem):
        g0 = lse_gradient(problem, np.zeros(problem.n))
        assert np.linalg.norm(lse_gradient(problem, z)) <= 1e-5 * np.linalg.norm(g0)
    else:
        z_star = np.linalg.solve(problem.a, problem.b)
        assert np.linalg.norm(z - z_star) <= 1e-4 * np.linalg.norm(z_star)


def run_pgd_exact(problem, part):
    reduced = ReducedObjective(problem, part)
    x, _ = gradient_descent(reduced, np.zeros(part.n_x), STOP, step_mode=step_mode(problem))
    return part.embed(x, reduced.eliminated_point(x))


def run_pgd_inexact(problem, part):
    sched = ScheduledInexactElimination(NewtonElimination(problem, part))
    x, y, _ = pgd_inexact(problem, part, sched, np.zeros(part.n_x), np.zeros(part.n_y), STOP)
    return part.embed(x, y)


def run_altmin(problem, part):
    z, _ = alternating_minimization(problem, part, np.zeros(problem.n), STOP)
    return z


def run_newton(problem, part):
    elim = exact_map(problem, part)
    x, _ = newton_eliminated(problem, part, elim, np.zeros(part.n_x), STOP)
    return part.embed(x, elim.solve(x).y)


@pytest.mark.parametrize("make_problem", [quadratic, logsumexp])
def test_gradient_descent(make_problem):
    problem = make_problem()
    z, _ = gradient_descent(problem, np.zeros(problem.n), STOP, step_mode=step_mode(problem))
    check_against_oracle(problem, z)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("run", [run_pgd_exact, run_pgd_inexact, run_altmin, run_newton])
@pytest.mark.parametrize("make_problem", [quadratic, logsumexp])
def test_eliminated_methods(make_problem, run, seed):
    problem = make_problem()
    check_against_oracle(problem, run(problem, random_partition(problem.n, seed)))
