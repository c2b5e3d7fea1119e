import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varred.elimination import (
    GradientStepsElimination,
    NewtonElimination,
    QuadraticExactElimination,
    ReducedObjective,
    ScheduledInexactElimination,
    dense_schur_complement,
)
from varred.linalg import cg_solve, LinOp, sym_matrix
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
        elim = QuadraticExactElimination(two_by_two_problem())
        for x in (-1.0, 0.0, 2.5):
            res = elim.solve(np.array([x]))
            assert res.y[0] == pytest.approx((1.0 - x) / 2.0, abs=1e-12)
            assert res.linear_solves == 1

    def test_residual_oracle(self):
        p = build_test_matrix(6, 9, (1, 5), (1, 40), 1e-1, seed=3)
        elim = QuadraticExactElimination(p)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(6)
            res = elim.solve(x)
            z = p.partition.embed(x, res.y)
            grad_y = p.grad_y(z)
            assert np.linalg.norm(grad_y) <= 1e-10 * (1.0 + np.linalg.norm(elim.b2))

    def test_one_linear_solve_per_evaluation(self):
        p = build_test_matrix(3, 4, (1, 2), (1, 6), 1e-1, seed=5)
        elim = QuadraticExactElimination(p)
        rng = np.random.default_rng(2)
        for k in range(1, 4):
            elim.solve(rng.standard_normal(3))
            assert elim.counters.linear_solves == k

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
        assert np.linalg.norm(p.grad_y(z)) <= 1e-8


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


class TestGradientStepsElimination:
    def test_takes_requested_steps_and_reduces_residual(self):
        p = LogSumExpProblem(20, 4)
        elim = GradientStepsElimination(p, n_steps=5)
        x = np.zeros(16)
        res0 = np.linalg.norm(p.grad_y(p.partition.embed(x, np.zeros(4))))
        res = elim.solve(x, y0=np.zeros(4))
        assert res.inner_iterations == 5
        assert res.residual < res0

    def test_consistency_at_optimum(self):
        p = build_test_matrix(3, 3, (1, 2), (1, 4), 1e-1, seed=4)
        z_star = cg_solve(LinOp.from_matrix(p.a), p.b, rel_tol=1e-14).x
        elim = GradientStepsElimination(p, n_steps=3)
        res = elim.solve(z_star[:3], y0=z_star[3:], tol=1e-10)
        assert res.inner_iterations == 0
        assert np.array_equal(res.y, z_star[3:])


class TestReducedObjective:
    def test_value_matches_dense_schur_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = build_test_matrix(4, 6, (1, 5), (1, 12), 2e-1, seed=seed)
            reduced = ReducedObjective(p)
            s, b_tilde, c_tilde = dense_schur_complement(p)
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
        s, b_tilde, _ = dense_schur_complement(p)
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
        s, _, _ = dense_schur_complement(p)
        rng = np.random.default_rng(5)
        for _ in range(4):
            v = rng.standard_normal(6)
            assert np.linalg.norm(reduced.hvp(v) - s @ v) <= 1e-8

    def test_reduced_hessian_from_gradient_differences(self):
        # finite differences of the reduced gradient reproduce dense S
        p = build_test_matrix(4, 5, (1, 4), (1, 9), 1e-1, seed=15)
        reduced = ReducedObjective(p)
        s, _, _ = dense_schur_complement(p)
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
        reduced.gradient(x1)  # cached: no new solve
        assert elim.counters.linear_solves == 1 and reduced.fresh_solves == 1
        reduced.gradient(np.zeros(3))
        assert elim.counters.linear_solves == 2 and reduced.fresh_solves == 2
        reduced.hvp(np.ones(3))  # each product is its own solve
        assert elim.counters.linear_solves == 3


class TestSchurConditioning:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_schur_within_full_spectrum(self, seed):
        problem, part = random_spd_partitioned(seed, max_order=16)
        s, _, _ = dense_schur_complement(problem, part)
        ev_a = np.linalg.eigvalsh(problem.a)
        ev_s = np.linalg.eigvalsh(s)
        slack = 1e-9 * max(1.0, ev_a[-1])
        assert ev_a[0] <= ev_s[0] + slack
        assert ev_s[-1] <= ev_a[-1] + slack
