import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varred.errors import DegenerateCurvature, LineSearchFailure, MaxIterReached
from varred.elimination import (
    NewtonElimination,
    QuadraticExactElimination,
    ReducedObjective,
    ScheduledInexactElimination,
    reduced_newton_operator,
)
from varred.linalg import LinOp, cg_solve
from varred.optimizers import (
    ArmijoParams,
    StopRule,
    alternating_minimization,
    armijo_search,
    check_rate_bound,
    gradient_descent,
    newton_eliminated,
    optimal_step_quadratic,
    pgd_inexact,
)
from varred.problems import LogSumExpProblem, QuadraticProblem, build_test_matrix


class TestOptimalStep:
    def test_identity_curvature(self):
        g = np.array([3.0, -4.0])
        assert optimal_step_quadratic(g, lambda v: v) == pytest.approx(1.0)

    def test_uniform_diagonal(self):
        g = np.ones(2)
        assert optimal_step_quadratic(g, LinOp.from_matrix(np.diag([2.0, 2.0]))) == pytest.approx(0.5)

    def test_anisotropic_diagonal(self):
        g = np.ones(2)
        t = optimal_step_quadratic(g, LinOp.from_matrix(np.diag([1.0, 1000.0])))
        assert t == pytest.approx(2.0 / 1001.0, rel=1e-14)

    def test_degenerate_curvature(self):
        with pytest.raises(DegenerateCurvature):
            optimal_step_quadratic(np.ones(2), LinOp.from_matrix(-np.eye(2)))

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            optimal_step_quadratic(np.zeros(2), lambda v: v)


class TestArmijoSearch:
    def test_quadratic_unit_step_accepted(self):
        f = lambda x: 0.5 * float(x @ x)
        x = np.array([1.0])
        t, f_new, trials = armijo_search(f, x, np.array([-1.0]), np.array([1.0]), ArmijoParams())
        assert t == 1.0 and f_new == 0.0 and trials == 1

    def test_linear_descent_first_trial(self):
        f = lambda x: float(x.sum())
        x = np.zeros(3)
        d = -np.ones(3)
        t, _, trials = armijo_search(f, x, d, np.ones(3), ArmijoParams(t0=0.7))
        assert t == 0.7 and trials == 1

    def test_ascent_direction_rejected(self):
        f = lambda x: 0.5 * float(x @ x)
        with pytest.raises(ValueError):
            armijo_search(f, np.ones(1), np.ones(1), np.ones(1), ArmijoParams())

    def test_failure_carries_last_value(self):
        # descent direction of |x| at 0 does not exist: every trial increases f
        f = lambda x: float(np.abs(x).sum())
        with pytest.raises(LineSearchFailure) as exc:
            armijo_search(f, np.zeros(1), np.array([-1.0]), np.array([1.0]),
                          ArmijoParams(max_trials=10))
        assert exc.value.last_value is not None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ArmijoParams(c1=1.5)
        with pytest.raises(ValueError):
            ArmijoParams(shrink=0.0)
        with pytest.raises(ValueError):
            StopRule(rel_grad_tol=0.0)


class TestGradientDescent:
    def test_identity_quadratic_single_step(self):
        p = QuadraticProblem(np.eye(4), np.array([1.0, -2.0, 0.5, 3.0]))
        x, rec = gradient_descent(p, np.zeros(4), StopRule(max_iter=10),
                                  step_mode="optimal_quadratic")
        assert rec.iterations == 1
        np.testing.assert_allclose(x, p.b, atol=1e-12)

    def test_start_at_optimum_terminates_immediately(self):
        p = QuadraticProblem(np.diag([2.0, 3.0]), np.zeros(2))
        x, rec = gradient_descent(p, np.zeros(2), StopRule(max_iter=10),
                                  step_mode="optimal_quadratic")
        assert rec.iterations == 0

    def test_max_iter_raises_with_record(self):
        p = build_test_matrix(4, 6, (1, 5), (1, 500), 1e-2, seed=0)
        with pytest.raises(MaxIterReached) as exc:
            gradient_descent(p, np.zeros(10), StopRule(rel_grad_tol=1e-10, max_iter=3),
                             step_mode="optimal_quadratic")
        assert exc.value.record is not None and exc.value.record.iterations == 3

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_monotone_objective_values(self, seed):
        p = build_test_matrix(3, 5, (1, 4), (1, 30), 1e-1, seed=seed)
        _, rec = gradient_descent(p, np.zeros(8), StopRule(rel_grad_tol=1e-8, max_iter=5000),
                                  step_mode="optimal_quadratic")
        vals = np.array([r.fval for r in rec.rows])
        assert np.all(np.diff(vals) <= 1e-12 * np.maximum(1.0, np.abs(vals[:-1])))

    def test_armijo_mode_on_logsumexp(self):
        p = LogSumExpProblem(60, 6)
        x, rec = gradient_descent(p, np.zeros(60), StopRule(rel_grad_tol=1e-6, max_iter=5000))
        assert rec.final.rel_grad_norm <= 1e-6
        vals = np.array([r.fval for r in rec.rows])
        assert np.all(np.diff(vals) <= 1e-12 * np.maximum(1.0, np.abs(vals[:-1])))

    def test_record_row_zero_definition(self):
        p = QuadraticProblem(np.eye(2), np.ones(2))
        _, rec = gradient_descent(p, np.zeros(2), StopRule(max_iter=5),
                                  step_mode="optimal_quadratic")
        assert rec.rows[0].iteration == 0
        assert rec.rows[0].rel_grad_norm == 1.0
        assert rec.rows[0].step == 0.0

    def test_pgd_feasibility_of_accepted_iterates(self):
        # every accepted (x, h(x)) satisfies the eliminated optimality block
        p = build_test_matrix(4, 6, (1, 5), (1, 50), 1e-1, seed=3)
        elim = QuadraticExactElimination(p)
        reduced = ReducedObjective(p, elim=elim)
        x, rec = gradient_descent(reduced, np.zeros(4), StopRule(max_iter=2000),
                                  step_mode="optimal_quadratic", keep_iterates=True)
        for xk in rec.iterates[-3:]:
            res = elim.solve(xk)
            z = p.partition.embed(xk, res.y)
            grad_y = p.gradient(z)[p.partition.y_indices]
            assert np.linalg.norm(grad_y) <= 1e-10 * (1 + np.linalg.norm(p.b))


class TestPGDvsGD:
    def test_pgd_never_more_iterations_than_gd(self):
        # conditioning-ordering consequence, optimal steps, 20 random instances
        wins = []
        for seed in range(20):
            p = build_test_matrix(4, 6, (1, 8), (1, 200), 1e-1, seed=seed)
            stop = StopRule(rel_grad_tol=1e-6, max_iter=50000)
            _, rec_gd = gradient_descent(p, np.zeros(10), stop, step_mode="optimal_quadratic")
            reduced = ReducedObjective(p)
            _, rec_pgd = gradient_descent(reduced, np.zeros(4), stop,
                                          step_mode="optimal_quadratic")
            wins.append(rec_pgd.iterations <= rec_gd.iterations)
        assert all(wins)


class TestPGDInexact:
    def test_quadratic_matches_exact_pgd(self):
        # Newton inner with tight CG makes the map exact: same trajectory +-2
        p = build_test_matrix(5, 7, (1, 6), (1, 60), 1e-1, seed=4)
        stop = StopRule(rel_grad_tol=1e-6, max_iter=2000)
        reduced = ReducedObjective(p)
        _, rec_exact = gradient_descent(reduced, np.zeros(5), stop, step_mode="armijo")
        sched = ScheduledInexactElimination(
            NewtonElimination(p, inner_tol=1e-10, cg_rel_tol=1e-12))
        _, _, rec_inexact = pgd_inexact(p, p.partition, sched, np.zeros(5),
                                        np.zeros(7), stop)
        assert abs(rec_inexact.iterations - rec_exact.iterations) <= 2

    def test_start_at_optimum_zero_or_one_iterations(self):
        p = build_test_matrix(4, 5, (1, 4), (1, 20), 1e-1, seed=5)
        z_star = cg_solve(LinOp.from_matrix(p.a), p.b, rel_tol=1e-14).x
        sched = ScheduledInexactElimination(NewtonElimination(p))
        _, _, rec = pgd_inexact(p, p.partition, sched, z_star[:4], z_star[4:],
                                StopRule(max_iter=100))
        assert rec.iterations <= 1

    def test_logsumexp_converges_with_inner_residual_floor(self):
        p = LogSumExpProblem(100, 8)
        stop = StopRule(rel_grad_tol=1e-6, max_iter=200)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        x, y, rec = pgd_inexact(p, p.partition, sched, np.zeros(92), np.zeros(8), stop)
        z = p.partition.embed(x, y)
        assert np.linalg.norm(p.gradient(z)[p.partition.y_indices]) <= sched.effective_tol()
        assert rec.final.rel_grad_norm <= 1e-6

    def test_matches_exact_rate_once_floored(self):
        # with the schedule at its floor, the true reduced gradient decays at
        # the exact-PGD rate (final-iterate ratio within a factor of two)
        p = LogSumExpProblem(80, 8)
        stop = StopRule(rel_grad_tol=1e-8, max_iter=300)
        exact = ReducedObjective(p, elim=NewtonElimination(p, inner_tol=1e-12))
        _, rec_exact = gradient_descent(exact, np.zeros(72), stop, step_mode="armijo")
        sched = ScheduledInexactElimination(NewtonElimination(p))
        _, _, rec_inexact = pgd_inexact(p, p.partition, sched, np.zeros(72),
                                        np.zeros(8), stop)

        def tail_rate(rec, k=5):
            g = [r.grad_norm for r in rec.rows]
            tail = g[-(k + 1):]
            return (tail[-1] / tail[0]) ** (1.0 / k)

        r_ex, r_in = tail_rate(rec_exact), tail_rate(rec_inexact)
        assert r_in <= 2.0 * r_ex + 1e-12


class TestAlternatingMinimization:
    def test_block_diagonal_single_sweep(self):
        p = build_test_matrix(4, 5, (1, 5), (1, 9), 0.0, seed=6)
        z, rec = alternating_minimization(p, p.partition, np.zeros(9),
                                          StopRule(rel_grad_tol=1e-8, max_iter=50))
        assert rec.iterations == 1
        np.testing.assert_allclose(p.a @ z, p.b, atol=1e-9)

    def test_half_sweep_monotonicity(self):
        p = build_test_matrix(4, 6, (1, 4), (1, 30), 2e-1, seed=7)
        _, rec = alternating_minimization(p, p.partition, np.zeros(10),
                                          StopRule(rel_grad_tol=1e-8, max_iter=200))
        hv = np.array(rec.half_sweep_values)
        assert np.all(np.diff(hv) <= 1e-12 * np.maximum(1.0, np.abs(hv[:-1])))

    def test_coincides_with_block_gauss_seidel(self):
        p = build_test_matrix(4, 5, (1, 4), (1, 8), 3e-1, seed=8)
        stop = StopRule(rel_grad_tol=1e-14, max_iter=6)
        try:
            _, rec = alternating_minimization(p, p.partition, np.zeros(9), stop,
                                              keep_iterates=True)
        except MaxIterReached as exc:
            rec = exc.record
        a11, a12 = p.a[:4, :4], p.a[:4, 4:]
        a21, a22 = p.a[4:, :4], p.a[4:, 4:]
        b1, b2 = p.b[:4], p.b[4:]
        x = np.zeros(4)
        y = np.zeros(5)
        for zk in rec.iterates[1:]:
            x = np.linalg.solve(a11, b1 - a12 @ y)
            y = np.linalg.solve(a22, b2 - a21 @ x)
            assert np.abs(zk - np.concatenate([x, y])).max() <= 1e-10

    def test_logsumexp_smoke(self):
        p = LogSumExpProblem(30, 4)
        z, rec = alternating_minimization(p, p.partition, np.zeros(30),
                                          StopRule(rel_grad_tol=1e-6, max_iter=500))
        assert rec.final.rel_grad_norm <= 1e-6


class TestNewtonEliminated:
    def test_quadratic_single_outer_iteration(self):
        p = build_test_matrix(5, 6, (1, 5), (1, 40), 1e-1, seed=9)
        x, rec = newton_eliminated(p, p.partition, x0=np.zeros(5),
                                   stop=StopRule(max_iter=10))
        assert rec.iterations == 1

    def test_logsumexp_superlinear_tail(self):
        p = LogSumExpProblem(50, 5)
        elim = NewtonElimination(p, inner_tol=1e-13, cg_rel_tol=1e-13)
        x, rec = newton_eliminated(p, p.partition, elim, np.zeros(45),
                                   stop=StopRule(rel_grad_tol=1e-9, max_iter=30))
        g = [r.grad_norm for r in rec.rows]
        # quadratic local convergence: successive log-residual ratios >= 1.5
        tail = [gk for gk in g if gk > 1e-14]
        assert len(tail) >= 3
        for a, b in zip(tail[-3:-1], tail[-2:]):
            assert np.log(b) / np.log(a) >= 1.5

    def test_jacobian_operator_matches_gradient_differences(self):
        p = LogSumExpProblem(25, 4)
        part = p.partition
        elim = NewtonElimination(p, inner_tol=1e-12, cg_rel_tol=1e-12)
        reduced = ReducedObjective(p, part, elim)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(21) * 0.3
        z_inc = part.embed(x, reduced.eliminated_point(x))
        jf = reduced_newton_operator(p, part, z_inc)
        for _ in range(3):
            v = rng.standard_normal(21)
            eps = 1e-6
            fd = (reduced.gradient(x + eps * v) - reduced.gradient(x - eps * v)) / (2 * eps)
            jv = jf(v)
            assert np.linalg.norm(jv - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))


class TestRateBound:
    def test_identity_matrix_trivial_bound(self):
        p = QuadraticProblem(np.eye(3), np.array([1.0, 2.0, -1.0]))
        x, rec = gradient_descent(p, np.zeros(3), StopRule(max_iter=10),
                                  step_mode="optimal_quadratic", keep_iterates=True)
        x_star = cg_solve(LinOp.from_matrix(p.a), p.b, rel_tol=1e-14).x
        assert check_rate_bound(rec, 1.0, x_star, rec.iterates)

    def test_full_space_bound_with_kappa_a(self):
        p = build_test_matrix(4, 6, (1, 5), (1, 80), 1e-1, seed=11)
        _, rec = gradient_descent(p, np.zeros(10), StopRule(max_iter=20000),
                                  step_mode="optimal_quadratic", keep_iterates=True)
        x_star = cg_solve(LinOp.from_matrix(p.a), p.b, rel_tol=1e-14).x
        ev = np.linalg.eigvalsh(p.a)
        assert check_rate_bound(rec, ev[-1] / ev[0], x_star, rec.iterates)

    def test_reduced_bound_with_kappa_s(self):
        p = build_test_matrix(4, 6, (1, 5), (1, 80), 1e-1, seed=11)
        reduced = ReducedObjective(p)
        _, rec = gradient_descent(reduced, np.zeros(4), StopRule(max_iter=20000),
                                  step_mode="optimal_quadratic", keep_iterates=True)
        x_star = cg_solve(LinOp.from_matrix(p.a), p.b, rel_tol=1e-14).x[:4]
        s = QuadraticExactElimination(p).s
        ev = np.linalg.eigvalsh(s)
        assert check_rate_bound(rec, ev[-1] / ev[0], x_star, rec.iterates)

    def test_violated_bound_detected(self):
        iterates = [np.array([1.0]), np.array([0.9])]
        assert not check_rate_bound(None, 1.0, np.array([0.0]), iterates)
