import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varred.elimination
import varred.linalg
from varred.elimination import (
    NewtonElimination,
    QuadraticExactElimination,
    ReducedObjective,
    ScheduledInexactElimination,
)
from varred.linalg import cg_solve, LinOp, sym_matrix
from varred.optimizers import StopRule, gradient_descent
from varred.problems import BlockPartition, LogSumExpProblem, QuadraticProblem, build_test_matrix


def two_by_two_problem():
    # A = [[2,1],[1,2]], b = (1,1): h(x) = (1 - x)/2, S = 3/2
    return QuadraticProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones(2), 0.0,
                            BlockPartition.eliminate_trailing(2, 1))


def random_spd_partitioned(seed, max_order=40):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, max_order + 1))
    m = rng.standard_normal((n, n))
    a = sym_matrix(m @ m.T + 0.05 * np.eye(n))
    k = int(rng.integers(1, n))
    perm = rng.permutation(n)
    part = BlockPartition(n, np.sort(perm[:k]), np.sort(perm[k:]))
    return QuadraticProblem(a, rng.standard_normal(n), 0.0, part), part


class TestQuadraticExactElimination:
    def test_block_diagonal_ignores_x(self):
        p = build_test_matrix(4, 5, (1, 3), (1, 8), 0.0, seed=0)
        elim = QuadraticExactElimination(p)
        y1 = elim.solve(np.zeros(4)).y
        y2 = elim.solve(np.full(4, 3.0)).y
        np.testing.assert_allclose(y1, y2, atol=1e-11)

    def test_hand_solved_scalar_case(self):
        p = two_by_two_problem()
        elim = QuadraticExactElimination(p)
        for x in (-1.0, 0.0, 2.5):
            res = elim.solve(np.array([x]))
            assert res.y[0] == pytest.approx((1.0 - x) / 2.0, abs=1e-12)
            assert res.inner_iterations == 0 and res.linear_solves == 0
        # at the minimizer of the full system, h returns its y-block
        z_star = np.linalg.solve(p.a, p.b)
        assert elim.solve(z_star[:1]).y[0] == pytest.approx(z_star[1], abs=1e-15)

    def test_residual_oracle(self):
        p = build_test_matrix(6, 9, (1, 5), (1, 40), 1e-1, seed=3)
        elim = QuadraticExactElimination(p)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(6)
            res = elim.solve(x)
            z = p.partition.embed(x, res.y)
            grad_y = p.gradient(z)[p.partition.y_indices]
            assert np.linalg.norm(grad_y) <= 1e-10 * (1.0 + np.linalg.norm(elim.b2))

    def test_no_iterative_work_per_evaluation(self):
        # the counters count iterative work only, and the direct map does none
        p = build_test_matrix(3, 4, (1, 2), (1, 6), 1e-1, seed=5)
        elim = QuadraticExactElimination(p)
        z_star = np.linalg.solve(p.a, p.b)
        np.testing.assert_allclose(elim.solve(z_star[:3]).y, z_star[3:], rtol=1e-12)
        rng = np.random.default_rng(2)
        for _ in range(3):
            x = rng.standard_normal(3)
            res = elim.solve(x)
            y_oracle = np.linalg.solve(p.a[3:, 3:], p.b[3:] - p.a[3:, :3] @ x)
            np.testing.assert_allclose(res.y, y_oracle, rtol=1e-12, atol=1e-14)
            elim.schur_hvp(x)
            assert res.inner_iterations == 0 and res.linear_solves == 0
        assert elim.counters.snapshot() == (0, 0)

    def test_pgd_makes_no_cg_call(self, monkeypatch):
        def no_cg(*args, **kwargs):
            raise AssertionError("exact quadratic elimination called CG")

        monkeypatch.setattr(varred.linalg, "cg_solve", no_cg)
        monkeypatch.setattr(varred.elimination, "cg_solve", no_cg)
        p = build_test_matrix(5, 8, (1, 4), (1, 30), 1e-1, seed=17)
        z_star = np.linalg.solve(p.a, p.b)
        for mode in ("optimal_quadratic", "armijo"):
            reduced = ReducedObjective(p)
            x, record = gradient_descent(reduced, np.zeros(5), StopRule(rel_grad_tol=1e-8),
                                         step_mode=mode)
            np.testing.assert_allclose(x, z_star[:5], rtol=1e-6, atol=1e-7)
            assert record.final.cum_linear_solves == 0

    def test_freed_without_the_cycle_collector(self):
        # the map holds no reference cycle, so dropping it frees its blocks
        p = build_test_matrix(3, 4, (1, 2), (1, 6), 1e-1, seed=5)
        gc.disable()
        try:
            elim = QuadraticExactElimination(p)
            elim.solve(np.ones(3))
            elim.schur_hvp(np.ones(3))
            ref = weakref.ref(elim)
            del elim
            assert ref() is None
        finally:
            gc.enable()


class TestNewtonElimination:
    def test_quadratic_single_step_with_tight_cg(self):
        p = build_test_matrix(4, 6, (1, 4), (1, 30), 1e-1, seed=7)
        elim = NewtonElimination(p, inner_tol=1e-9, cg_rel_tol=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(3):
            res = elim.solve(rng.standard_normal(4), y0=rng.standard_normal(6))
            assert res.inner_iterations == 1
            assert res.residual <= 1e-9

    def test_consistency_returns_warm_start(self):
        p = build_test_matrix(3, 5, (1, 3), (1, 9), 1e-1, seed=1)
        z_star = cg_solve(LinOp.from_matrix(p.a), p.b, rel_tol=1e-14).x
        elim = NewtonElimination(p, inner_tol=1e-8)
        res = elim.solve(z_star[:3], y0=z_star[3:])
        assert res.inner_iterations == 0
        assert np.array_equal(res.y, z_star[3:])

    def test_logsumexp_residual_oracle(self):
        p = LogSumExpProblem(40, 6)
        elim = NewtonElimination(p, inner_tol=1e-8)
        res = elim.solve(np.zeros(34))
        z = p.partition.embed(np.zeros(34), res.y)
        assert np.linalg.norm(p.gradient(z)[p.partition.y_indices]) <= 1e-8


class TestNewtonLinearization:
    """Each residual evaluation of the inner Newton is one y-block
    linearization, and CG products reuse it."""

    def _counted(self, p):
        calls = {"softmax": 0, "linearization": 0, "products": 0,
                 "hessian_vec": 0, "gradient": 0}
        softmax, linearize = p._softmax_weights, p.y_linearization

        def count(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        def linearization(z, part=None):
            g_y, op = count("linearization", linearize)(z, part)
            return g_y, LinOp(dim=op.dim, apply=count("products", op.apply))

        p._softmax_weights = count("softmax", softmax)
        p.y_linearization = linearization
        p.hessian_vec = count("hessian_vec", p.hessian_vec)
        p.gradient = count("gradient", p.gradient)
        return calls

    def test_logsumexp_one_softmax_pass_per_residual_evaluation(self):
        p = LogSumExpProblem(40, 6)
        calls = self._counted(p)
        # from this start some Newton steps are damped, so trials outnumber steps
        res = NewtonElimination(p, inner_tol=1e-8).solve(np.zeros(34), y0=np.linspace(-3, 3, 6))
        assert res.residual <= 1e-8
        assert calls["linearization"] > 1 + res.inner_iterations
        assert calls["softmax"] == calls["linearization"]
        assert calls["products"] > 0
        assert calls["hessian_vec"] == calls["gradient"] == 0

    def test_quadratic_matches_direct_solve_on_a22(self):
        p, part = random_spd_partitioned(11, max_order=20)
        a22 = p.a[np.ix_(part.y_indices, part.y_indices)]
        a21 = p.a[np.ix_(part.y_indices, part.x_indices)]
        elim = NewtonElimination(p, part, inner_tol=1e-11, cg_rel_tol=1e-12)
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rng.standard_normal(part.n_x)
            y = elim.solve(x).y
            np.testing.assert_allclose(
                y, np.linalg.solve(a22, p.b[part.y_indices] - a21 @ x), rtol=1e-8, atol=1e-10)


class TestScheduledInexactElimination:
    def test_tolerance_schedule_and_floor(self):
        p = LogSumExpProblem(20, 3)
        sched = ScheduledInexactElimination(NewtonElimination(p), tol_init=1e-3,
                                            rho=0.5, floor=1e-5)
        assert sched.effective_tol() == 1e-3
        for expected in (5e-4, 2.5e-4, 1.25e-4, 6.25e-5, 3.125e-5, 1.5625e-5, 1e-5, 1e-5):
            sched.accept(np.zeros(3))
            assert sched.tol_current == pytest.approx(expected)

    def test_warm_start_updates_on_accept(self):
        p = LogSumExpProblem(20, 3)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        y = np.array([1.0, -2.0, 0.5])
        sched.accept(y)
        assert np.array_equal(sched._warm, y)

    def test_consistent_warm_start_short_circuits(self):
        p = build_test_matrix(3, 4, (1, 3), (1, 7), 1e-1, seed=2)
        z_star = cg_solve(LinOp.from_matrix(p.a), p.b, rel_tol=1e-14).x
        sched = ScheduledInexactElimination(NewtonElimination(p))
        sched.reset(z_star[3:])
        res = sched.solve(z_star[:3])
        assert res.inner_iterations == 0


class TestReducedObjective:
    def test_value_matches_dense_schur_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = build_test_matrix(4, 6, (1, 5), (1, 12), 2e-1, seed=seed)
            reduced = ReducedObjective(p)
            elim = QuadraticExactElimination(p)
            s, b_tilde, c_tilde = elim.s, elim.b_tilde, elim.c_tilde
            for _ in range(3):
                x = rng.standard_normal(4)
                expected = 0.5 * x @ (s @ x) + b_tilde @ x + c_tilde
                assert reduced.value(x) == pytest.approx(expected, abs=1e-9)

    def test_block_diagonal_reduces_to_a11(self):
        p = build_test_matrix(5, 4, (1, 6), (1, 9), 0.0, seed=6)
        reduced = ReducedObjective(p)
        a11, b1 = p.a[:5, :5], p.b[:5]
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(5)
        offset = reduced.value(x0) - (0.5 * x0 @ a11 @ x0 - b1 @ x0)
        for _ in range(3):
            x = rng.standard_normal(5)
            assert reduced.value(x) - (0.5 * x @ a11 @ x - b1 @ x) == pytest.approx(offset, abs=1e-10)

    def test_value_at_minimizer_is_global_minimum(self):
        p = build_test_matrix(4, 5, (1, 4), (1, 9), 1e-1, seed=8)
        z_star = cg_solve(LinOp.from_matrix(p.a), p.b, rel_tol=1e-14).x
        reduced = ReducedObjective(p)
        assert reduced.value(z_star[:4]) == pytest.approx(p.value(z_star), abs=1e-12)

    def test_gradient_matches_dense_schur_oracle(self):
        p = build_test_matrix(5, 7, (1, 4), (1, 15), 1e-1, seed=9)
        reduced = ReducedObjective(p)
        elim = QuadraticExactElimination(p)
        s, b_tilde = elim.s, elim.b_tilde
        rng = np.random.default_rng(4)
        for _ in range(4):
            x = rng.standard_normal(5)
            np.testing.assert_allclose(reduced.gradient(x), s @ x + b_tilde, atol=1e-9)

    def test_gradient_vanishes_at_minimizer(self):
        p = build_test_matrix(4, 4, (1, 3), (1, 8), 1e-1, seed=10)
        z_star = cg_solve(LinOp.from_matrix(p.a), p.b, rel_tol=1e-14).x
        reduced = ReducedObjective(p)
        assert np.linalg.norm(reduced.gradient(z_star[:4])) <= 1e-10

    def test_gradient_matches_finite_differences_both_problems(self):
        rng = np.random.default_rng(11)
        quad = build_test_matrix(4, 5, (1, 4), (1, 10), 1e-1, seed=12)
        lse = LogSumExpProblem(18, 4)
        for obj, elim in ((quad, None),
                          (lse, NewtonElimination(lse, inner_tol=1e-12))):
            reduced = ReducedObjective(obj, elim=elim)
            for _ in range(3):
                x = rng.standard_normal(reduced.n) * 0.5
                g = reduced.gradient(x)
                eps = 1e-6
                fd = np.empty_like(g)
                for i in range(g.size):
                    e = np.zeros_like(x)
                    e[i] = eps
                    fd[i] = (reduced.value(x + e) - reduced.value(x - e)) / (2 * eps)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_hvp_block_diagonal_and_hand_case(self):
        p = build_test_matrix(3, 4, (1, 5), (1, 9), 0.0, seed=13)
        reduced = ReducedObjective(p)
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(reduced.hvp(v), p.a[:3, :3] @ v, atol=1e-10)
        # scalar case: S = 2 - 1*(1/2)*1 = 1.5, S*2 = 3
        r2 = ReducedObjective(two_by_two_problem())
        assert r2.hvp(np.array([2.0]))[0] == pytest.approx(3.0, abs=1e-10)

    def test_hvp_matches_dense_schur(self):
        p = build_test_matrix(6, 8, (1, 5), (1, 25), 1e-1, seed=14)
        reduced = ReducedObjective(p)
        # independent of the condensation: S^{-1} is the x-block of A^{-1}
        s = np.linalg.inv(np.linalg.inv(p.a)[:6, :6])
        rng = np.random.default_rng(5)
        for _ in range(4):
            v = rng.standard_normal(6)
            assert np.linalg.norm(reduced.hvp(v) - s @ v) <= 1e-8

    def test_reduced_hessian_from_gradient_differences(self):
        # finite differences of the reduced gradient reproduce dense S
        p = build_test_matrix(4, 5, (1, 4), (1, 9), 1e-1, seed=15)
        reduced = ReducedObjective(p)
        s = QuadraticExactElimination(p).s
        x = np.random.default_rng(6).standard_normal(4)
        eps = 1e-6
        cols = []
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            cols.append((reduced.gradient(x + e) - reduced.gradient(x - e)) / (2 * eps))
        s_fd = np.column_stack(cols)
        assert np.abs(s_fd - s).max() <= 1e-4 * np.abs(s).max()

    def test_work_accounting(self):
        p = build_test_matrix(3, 4, (1, 3), (1, 7), 1e-1, seed=16)
        elim = QuadraticExactElimination(p)
        reduced = ReducedObjective(p, elim=elim)
        x1 = np.ones(3)
        reduced.value(x1)
        reduced.gradient(x1)  # cached: no new evaluation of h
        assert reduced.fresh_solves == 1
        reduced.gradient(np.zeros(3))
        assert reduced.fresh_solves == 2
        reduced.hvp(np.ones(3))  # the assembled Schur complement: no evaluation of h
        assert reduced.fresh_solves == 2
        # the direct map does no iterative work, so none is counted
        assert elim.counters.snapshot() == (0, 0)
        z_star = np.linalg.solve(p.a, p.b)
        np.testing.assert_allclose(reduced.eliminated_point(z_star[:3]), z_star[3:],
                                   rtol=1e-12, atol=1e-14)
        assert reduced.fresh_solves == 3
        with pytest.raises(ValueError):  # a fresh point is still validated
            reduced.value(np.full(3, np.nan))


class TestSchurConditioning:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_schur_within_full_spectrum(self, seed):
        problem, part = random_spd_partitioned(seed, max_order=16)
        s = QuadraticExactElimination(problem, part).s
        ev_a = np.linalg.eigvalsh(problem.a)
        ev_s = np.linalg.eigvalsh(s)
        slack = 1e-9 * max(1.0, ev_a[-1])
        assert ev_a[0] <= ev_s[0] + slack
        assert ev_s[-1] <= ev_a[-1] + slack
