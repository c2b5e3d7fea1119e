import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varred.elimination
import varred.linalg
import varred.problems
from varred.elimination import (
    EliminationResult,
    NewtonElimination,
    QuadraticExactElimination,
    ReducedObjective,
    ScheduledInexactElimination,
    exact_map,
)
from varred.errors import DimensionMismatch, NonConvergence, NonFinite
from varred.linalg import LinOp, sym_matrix
from varred.optimizers import StopRule, gradient_descent, pgd_inexact
from varred.problems import (
    BlockPartition,
    LogSumExpProblem,
    LogSumExpRestricted,
    QuadraticProblem,
    build_test_matrix,
)

from oracles import lse_dense_hessian, quadratic_minimizer


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
            assert res.inner_iterations == 0
        # at the minimizer of the full system, h returns its y-block
        z_star = np.linalg.solve(p.a, p.b)
        assert elim.solve(z_star[:1]).y[0] == pytest.approx(z_star[1], abs=1e-15)

    def test_residual_oracle(self):
        p = build_test_matrix(6, 9, (1, 5), (1, 40), 1e-1, seed=3)
        elim = QuadraticExactElimination(p)
        b2 = p.b[p.partition.y_indices]
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(6)
            res = elim.solve(x)
            z = p.partition.embed(x, res.y)
            grad_y = p.gradient(z)[p.partition.y_indices]
            assert np.linalg.norm(grad_y) <= 1e-10 * (1.0 + np.linalg.norm(b2))

    def test_no_iterative_work_per_evaluation(self):
        # the counters count iterative work only, and the direct map does none
        p = build_test_matrix(3, 4, (1, 2), (1, 6), 1e-1, seed=5)
        elim = QuadraticExactElimination(p)
        reduced = ReducedObjective(p, elim=elim)
        z_star = np.linalg.solve(p.a, p.b)
        np.testing.assert_allclose(elim.solve(z_star[:3]).y, z_star[3:], rtol=1e-12)
        rng = np.random.default_rng(2)
        for _ in range(3):
            x = rng.standard_normal(3)
            res = elim.solve(x)
            y_oracle = np.linalg.solve(p.a[3:, 3:], p.b[3:] - p.a[3:, :3] @ x)
            np.testing.assert_allclose(res.y, y_oracle, rtol=1e-12, atol=1e-14)
            reduced.hessian_vec(x, x)
            assert res.inner_iterations == 0
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

    @pytest.mark.parametrize("seed", range(6))
    def test_condensed_evaluation_matches_dense_oracle(self, seed):
        # J~ and grad J~ through S, b~ and c~ against J(x, h(x)), with h(x)
        # from a dense solve on A22, on a random partition
        rng = np.random.default_rng(seed)
        p = build_test_matrix(int(rng.integers(2, 8)), int(rng.integers(2, 8)),
                              (1, 5), (1, 30), 2e-1, seed=seed)
        k = int(rng.integers(1, p.n))
        perm = rng.permutation(p.n)
        part = BlockPartition(p.n, np.sort(perm[:k]), np.sort(perm[k:]))
        xi, yi = part.x_indices, part.y_indices
        elim = QuadraticExactElimination(p, part)
        reduced = ReducedObjective(p, part, elim)
        for _ in range(3):
            x = rng.standard_normal(k)
            y = np.linalg.solve(p.a[np.ix_(yi, yi)], p.b[yi] - p.a[np.ix_(yi, xi)] @ x)
            val, g = p.evaluate(part.embed(x, y))
            got_val, got_g = reduced.evaluate(x)
            assert got_val == pytest.approx(val, rel=1e-12, abs=0.0)
            assert np.linalg.norm(got_g - g[xi]) <= 1e-12 * np.linalg.norm(g[xi])
            res = elim.solve(x)
            assert not res.restricted.evaluate(res.y)[2].any()

    def test_pgd_never_evaluates_the_problem(self, monkeypatch):
        # once the map is built, J~ and its gradient come from the condensation
        def no_evaluate(z):
            raise AssertionError("a reduced evaluation evaluated the full problem")

        p = build_test_matrix(5, 8, (1, 4), (1, 30), 1e-1, seed=17)
        z_star = np.linalg.solve(p.a, p.b)
        modes = ("optimal_quadratic", "armijo")
        reduced = {mode: ReducedObjective(p) for mode in modes}
        monkeypatch.setattr(p, "evaluate", no_evaluate)
        for mode in modes:
            x, _ = gradient_descent(reduced[mode], np.zeros(5), StopRule(rel_grad_tol=1e-8),
                                    step_mode=mode)
            np.testing.assert_allclose(x, z_star[:5], rtol=1e-6, atol=1e-7)

    def test_freed_without_the_cycle_collector(self):
        # no map, restriction or reduced objective holds a reference cycle, so
        # dropping one frees its blocks
        p = build_test_matrix(3, 4, (1, 2), (1, 6), 1e-1, seed=5)
        lse = LogSumExpProblem(60, 4)
        gc.disable()
        try:
            elim = QuadraticExactElimination(p)
            elim.solve(np.ones(3))
            newton = NewtonElimination(lse)
            restricted = newton.solve(np.zeros(56)).restricted
            reduced = ReducedObjective(lse, lse.partition, NewtonElimination(lse))
            reduced.evaluate(np.zeros(56))
            refs = [weakref.ref(obj) for obj in (elim, newton, restricted, reduced)]
            del elim, newton, restricted, reduced
            assert [ref() for ref in refs] == [None] * 4
        finally:
            gc.enable()

    def test_reduced_evaluation_slices_no_block(self, monkeypatch):
        # the exact map's frozen J(x, .) evaluates through the condensation,
        # so it never copies a submatrix
        p = build_test_matrix(3, 4, (1, 2), (1, 6), 1e-1, seed=5)
        reduced = ReducedObjective(p)
        copies = []
        ix = np.ix_
        monkeypatch.setattr(varred.problems.np, "ix_", lambda *a: copies.append(1) or ix(*a))
        reduced.evaluate(np.ones(3))
        assert copies == []


class TestMapOnAValidatedMatrix:
    """A problem built on the last matrix a QuadraticProblem stored shares that
    array; its map equals, bitwise, the map on a freshly validated copy."""

    @staticmethod
    def condensed(a, b, part):
        problem = QuadraticProblem(a, b, 0.0, part)
        elim = QuadraticExactElimination(problem, part)
        reduced = ReducedObjective(elim.restriction.objective, part, elim)
        _, record = gradient_descent(reduced, np.zeros(part.n_x), StopRule(rel_grad_tol=1e-6),
                                     step_mode="optimal_quadratic")
        return problem, elim, [(r.fval, r.grad_norm, r.rel_grad_norm, r.step) for r in record.rows]

    def test_hit_equals_a_fresh_miss_bitwise(self):
        p = build_test_matrix(100, 400, seed=11)
        part = p.partition
        b = np.random.default_rng(1).uniform(-1.0, 1.0, size=p.n)
        hit_problem, hit, hit_rows = self.condensed(p.a, b, part)
        QuadraticProblem(np.eye(2), np.ones(2))  # evicts p.a
        miss_problem, miss, miss_rows = self.condensed(p.a, b, part)
        assert hit_problem.a is p.a and miss_problem.a is not p.a
        for name in ("s", "w", "u", "b_tilde", "c_tilde"):
            assert np.array_equal(getattr(hit, name), getattr(miss, name)), name
        assert hit_rows == miss_rows and len(hit_rows) > 10

    def test_one_matrix_under_two_partitions(self):
        p = build_test_matrix(4, 6, (1, 4), (1, 30), 1e-1, seed=7)
        x = np.random.default_rng(2).standard_normal(7)
        for part in (p.partition, p.partition.shrink_eliminated(3), p.partition):
            xi, yi = part.x_indices, part.y_indices
            elim = QuadraticExactElimination(QuadraticProblem(p.a, p.b, p.c, part), part)
            a_yy_inv = np.linalg.inv(p.a[np.ix_(yi, yi)])
            schur = p.a[np.ix_(xi, xi)] - p.a[np.ix_(xi, yi)] @ a_yy_inv @ p.a[np.ix_(yi, xi)]
            np.testing.assert_allclose(elim.s, schur, rtol=1e-12, atol=1e-12)
            x_part = x[:part.n_x]
            y = a_yy_inv @ (p.b[yi] - p.a[np.ix_(yi, xi)] @ x_part)
            np.testing.assert_allclose(elim.solve(x_part).y, y, rtol=1e-10, atol=1e-12)


class TestNewtonElimination:
    def test_quadratic_residual_oracle(self):
        p = build_test_matrix(4, 6, (1, 4), (1, 30), 1e-1, seed=7)
        elim = NewtonElimination(p, inner_tol=1e-9)
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.standard_normal(4)
            res = elim.solve(x, y0=rng.standard_normal(6))
            z = p.partition.embed(x, res.y)
            assert np.linalg.norm(p.gradient(z)[p.partition.y_indices]) <= 1e-9

    def test_consistency_returns_warm_start(self):
        p = build_test_matrix(3, 5, (1, 3), (1, 9), 1e-1, seed=1)
        z_star = quadratic_minimizer(p)
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

    def test_stall_after_fifty_steps_raises(self):
        # a stub J(x, .) on which each Newton step halves the residual ||y||,
        # so 50 accepted steps stay above a zero tolerance
        class Halving:
            def linearize(self, y):
                return y, LinOp(dim=y.size, apply=lambda v: 2.0 * v)

        elim = NewtonElimination(LogSumExpProblem(20, 3))
        with pytest.raises(NonConvergence, match="stalled") as exc:
            elim.solve_frozen(Halving(), np.ones(3), 0.0)
        assert exc.value.iterations == 50
        assert exc.value.residual == np.sqrt(3.0) * 0.5 ** 50
        assert (elim.counters.inner_iterations, elim.counters.linear_solves) == (50, 50)

    def test_damping_failure_at_the_rounding_floor_raises(self):
        # the residual bottoms out near rounding, where no damped step lowers it;
        # log-sum-exp solves its block directly, a quadratic's by CG on A22
        for problem, x, cg_solves in ((LogSumExpProblem(60, 4), np.zeros(56), lambda k: 0),
                                      (build_test_matrix(4, 6, (1, 4), (1, 30), 1e-1, seed=0),
                                       np.zeros(4), lambda k: k + 1)):
            elim = NewtonElimination(problem, inner_tol=1e-300)
            with pytest.raises(NonConvergence, match="damping failed") as exc:
                elim.solve(x)
            assert 0.0 < exc.value.residual < 1e-15
            steps = exc.value.iterations
            assert steps > 0
            # the failed step's CG solve is counted, its Newton step is not
            assert elim.counters.snapshot() == (steps, cg_solves(steps))

    def test_only_a_block_without_a_direct_solve_runs_cg(self, monkeypatch):
        # log-sum-exp's Newton steps and reduced Hessian products solve its
        # block directly; a quadratic's Newton step is one counted CG solve on A22
        calls = []
        cg_solve = varred.linalg.cg_solve
        monkeypatch.setattr(varred.linalg, "cg_solve", lambda *a, **kw: calls.append(1) or cg_solve(*a, **kw))
        lse = LogSumExpProblem(60, 4)
        elim = NewtonElimination(lse, inner_tol=1e-10)
        res = elim.solve(np.zeros(56), y0=np.linspace(-1.0, 1.0, 4))
        ReducedObjective(lse, lse.partition, elim).hessian_op(np.zeros(56))(np.ones(56))
        assert res.inner_iterations > 0 and elim.counters.snapshot() == (res.inner_iterations, 0)
        assert calls == []
        elim = NewtonElimination(build_test_matrix(4, 6, (1, 4), (1, 30), 1e-1, seed=7))
        res = elim.solve(np.ones(4))
        assert res.inner_iterations > 0 and len(calls) == res.inner_iterations
        assert elim.counters.snapshot() == (res.inner_iterations, res.inner_iterations)

    @pytest.mark.parametrize("n_y0", [1, 3])
    def test_warm_start_of_the_wrong_length_raises(self, n_y0):
        # a short warm start must not be broadcast over the eliminated block
        p = LogSumExpProblem(60, 4)
        y0 = np.full(n_y0, 0.5)
        with pytest.raises(DimensionMismatch, match="y0"):
            NewtonElimination(p).solve(np.zeros(56), y0=y0)
        with pytest.raises(DimensionMismatch, match="y0"):
            pgd_inexact(p, p.partition, ScheduledInexactElimination(NewtonElimination(p)),
                        np.zeros(56), y0, StopRule(1e-6, 300))

    @pytest.mark.parametrize("x, error, message", [
        (np.zeros(3), DimensionMismatch, "x has the wrong length"),
        (np.array([0.0, np.nan]), NonFinite, "non-finite"),
    ], ids=["wrong length", "non-finite"])
    def test_a_bad_x_raises_the_restrictions_error(self, x, error, message):
        # the restriction checks x where it freezes J(x, .); the maps and the
        # reduced objective reach that check through it, on both problems
        quadratic, lse = build_test_matrix(2, 3, (1, 2), (1, 6), 1e-1, seed=5), LogSumExpProblem(6, 4)
        calls = [p.restrict().at for p in (quadratic, lse)]
        calls += [QuadraticExactElimination(quadratic).solve,
                  NewtonElimination(quadratic).solve, NewtonElimination(lse).solve]
        calls += [ReducedObjective(p).value for p in (quadratic, lse)]
        for call in calls:
            with pytest.raises(error, match=message):
                call(x)


class TestNewtonLinearization:
    """Each solve freezes x once; each residual evaluation of the inner Newton
    is one O(n_y) linearization, and CG products reuse it."""

    def test_logsumexp_one_softmax_pass_per_residual_evaluation(self, monkeypatch):
        # one exp over the x block per solve and per reduced evaluation, and
        # one over the n_y entries per Newton iterate or damping trial
        p = LogSumExpProblem(40, 6)
        calls = {"linearization": 0, "products": 0}
        sizes = []
        exp, linearize = np.exp, LogSumExpRestricted.linearize

        def linearization(restricted, y):
            calls["linearization"] += 1
            g_y, op = linearize(restricted, y)

            def product(v):
                calls["products"] += 1
                return op(v)
            return g_y, LinOp(dim=op.dim, apply=product)

        def full(*args):
            raise AssertionError("the inner solve evaluated J over all of z")

        monkeypatch.setattr(varred.problems.np, "exp", lambda a, **kw: sizes.append(a.size) or exp(a, **kw))
        monkeypatch.setattr(LogSumExpRestricted, "linearize", linearization)
        for name in ("evaluate", "gradient", "hessian_vec"):
            monkeypatch.setattr(p, name, full)
        # from this start some Newton steps are damped, so trials outnumber steps
        res = NewtonElimination(p, inner_tol=1e-8).solve(np.zeros(34), y0=np.linspace(-3, 3, 6))
        assert calls["linearization"] > 1 + res.inner_iterations
        assert calls["products"] > 0
        assert sizes == [34] + [6] * calls["linearization"]
        sizes.clear()
        reduced = ReducedObjective(p, p.partition, NewtonElimination(p, inner_tol=1e-8))
        _, g_x = reduced.evaluate(np.zeros(34))
        assert sizes.count(34) == 1 and set(sizes) == {34, 6}
        monkeypatch.undo()
        # checked last, through the full gradient
        z = p.partition.embed(np.zeros(34), res.y)
        assert np.linalg.norm(p.gradient(z)[p.partition.y_indices]) <= 1e-8
        g = p.gradient(p.partition.embed(np.zeros(34), reduced.eliminated_point(np.zeros(34))))
        np.testing.assert_allclose(g_x, g[p.partition.x_indices], rtol=1e-13)

    def test_quadratic_matches_direct_solve_on_a22(self):
        p, part = random_spd_partitioned(11, max_order=20)
        a22 = p.a[np.ix_(part.y_indices, part.y_indices)]
        a21 = p.a[np.ix_(part.y_indices, part.x_indices)]
        elim = NewtonElimination(p, part, inner_tol=1e-11)
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rng.standard_normal(part.n_x)
            y = elim.solve(x).y
            np.testing.assert_allclose(
                y, np.linalg.solve(a22, p.b[part.y_indices] - a21 @ x), rtol=1e-8, atol=1e-10)


class TestScheduledInexactElimination:
    def test_tolerance_schedule_and_floor(self):
        p = LogSumExpProblem(20, 3)
        sched = ScheduledInexactElimination(NewtonElimination(p), tol_init=1e-3, rho=0.5)
        sched.reset(np.zeros(3), floor=1e-5)
        assert sched.tol_current == 1e-3
        result = sched.solve(np.zeros(17))
        for expected in (5e-4, 2.5e-4, 1.25e-4, 6.25e-5, 3.125e-5, 1.5625e-5, 1e-5, 1e-5):
            result = sched.accept(result)
            assert sched.tol_current == pytest.approx(expected)
            assert np.linalg.norm(result.restricted.linearize(result.y)[0]) <= expected

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.5])
    def test_rho_outside_the_unit_interval_rejected(self, rho):
        with pytest.raises(ValueError, match="rho"):
            ScheduledInexactElimination(NewtonElimination(LogSumExpProblem(20, 3)), rho=rho)

    def test_warm_start_updates_on_accept(self):
        # the warm start is a copy of the re-solve's y, not the y it was handed,
        # written into the buffer reset made
        p = LogSumExpProblem(20, 3)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        buffer = sched._warm
        y = np.array([1.0, -2.0, 0.5])
        resolved = sched.accept(EliminationResult(y, 0, p.restrict().at(np.zeros(17))))
        assert resolved.inner_iterations > 0 and not np.array_equal(resolved.y, y)
        assert np.array_equal(sched._warm, resolved.y) and sched._warm is not resolved.y
        assert sched._warm is buffer

    def test_floor_without_reset_is_inner_tol(self):
        # a schedule driven by plain gradient descent, never reset, floors its
        # tolerance at the inner map's own tolerance instead of halving to zero
        p = LogSumExpProblem(60, 4)
        sched = ScheduledInexactElimination(NewtonElimination(p, inner_tol=1e-10))
        reduced = ReducedObjective(p, p.partition, sched)
        x, rec = gradient_descent(reduced, np.zeros(56), StopRule(1e-6, 300))
        assert rec.final.rel_grad_norm <= 1e-6
        assert sched.floor == sched.tol_current == 1e-10
        z = p.partition.embed(x, reduced.eliminated_point(x))
        assert np.linalg.norm(p.gradient(z)[p.partition.y_indices]) <= 1e-10

    def test_consistent_warm_start_short_circuits(self):
        p = build_test_matrix(3, 4, (1, 3), (1, 7), 1e-1, seed=2)
        z_star = quadratic_minimizer(p)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        sched.reset(z_star[3:], floor=0.0)
        res = sched.solve(z_star[:3])
        assert res.inner_iterations == 0


class TestReducedObjective:
    @pytest.mark.parametrize("kind", ["quadratic", "newton", "scheduled"])
    def test_evaluation_after_x_changes_in_place_is_fresh(self, kind):
        # the cache keys on its own copy of x, not on the caller's array
        p = build_test_matrix(4, 6, (1, 5), (1, 12), 2e-1, seed=1) if kind == "quadratic" \
            else LogSumExpProblem(40, 5)
        elim = (ScheduledInexactElimination(NewtonElimination(p)) if kind == "scheduled"
                else exact_map(p, p.partition))
        reduced = ReducedObjective(p, p.partition, elim)
        x = np.linspace(-1.0, 1.0, p.partition.n_x)
        val, g = reduced.evaluate(x)
        g = g.copy()
        x *= 0.5
        val_new, g_new = reduced.evaluate(x)
        restricted = p.restrict().at(x.copy())
        val_at_x, g_at_x, _ = restricted.evaluate(reduced.eliminated_point(x))
        assert val_new != val and not np.array_equal(g_new, g)
        assert val_new == pytest.approx(val_at_x, rel=1e-12)
        np.testing.assert_allclose(g_new, g_at_x, rtol=1e-12, atol=1e-15)
        assert reduced.value(x) == val_new

    def test_value_matches_dense_schur_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = build_test_matrix(4, 6, (1, 5), (1, 12), 2e-1, seed=seed)
            reduced = ReducedObjective(p)
            for _ in range(3):
                x = rng.standard_normal(4)
                y = np.linalg.solve(p.a[4:, 4:], p.b[4:] - p.a[4:, :4] @ x)
                expected = p.value(np.concatenate([x, y]))
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
        z_star = quadratic_minimizer(p)
        reduced = ReducedObjective(p)
        assert reduced.value(z_star[:4]) == pytest.approx(p.value(z_star), abs=1e-12)

    def test_gradient_matches_dense_schur_oracle(self):
        # S is the inverse of the x-block of inv(A); the reduced gradient is
        # S (x - x*) with x* the x-block of the full minimizer
        p = build_test_matrix(5, 7, (1, 4), (1, 15), 1e-1, seed=9)
        reduced = ReducedObjective(p)
        s = np.linalg.inv(np.linalg.inv(p.a)[:5, :5])
        x_star = np.linalg.solve(p.a, p.b)[:5]
        rng = np.random.default_rng(4)
        for _ in range(4):
            x = rng.standard_normal(5)
            np.testing.assert_allclose(reduced.gradient(x), s @ (x - x_star), atol=1e-9)

    def test_gradient_vanishes_at_minimizer(self):
        p = build_test_matrix(4, 4, (1, 3), (1, 8), 1e-1, seed=10)
        z_star = quadratic_minimizer(p)
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

    def test_partition_comes_from_the_map(self):
        p = LogSumExpProblem(60, 4)
        part = BlockPartition.eliminate_trailing(60, 4)
        elim = NewtonElimination(p, part)
        with pytest.raises(DimensionMismatch):
            ReducedObjective(p, p.partition, elim)
        reduced = ReducedObjective(p, elim=elim)
        assert ReducedObjective(p, part, elim).partition is reduced.partition is part
        x, d = np.zeros(56), np.ones(56)
        h_xx = lse_dense_hessian(p, part.embed(x, reduced.eliminated_point(x)))[:56, :56]
        assert reduced.curvature_along(x, d) == pytest.approx(d @ h_xx @ d / 56, rel=1e-13)

    def test_map_on_another_objective_raises(self):
        p1, p2 = build_test_matrix(4, 6, seed=1), build_test_matrix(4, 6, seed=2)
        with pytest.raises(ValueError, match="another objective"):
            ReducedObjective(p1, p1.partition, exact_map(p2, p1.partition))
        lse1, lse2 = LogSumExpProblem(60, 4), LogSumExpProblem(60, 4)
        sched = ScheduledInexactElimination(NewtonElimination(lse2))
        with pytest.raises(ValueError, match="another objective"):
            pgd_inexact(lse1, lse1.partition, sched, np.zeros(56), np.zeros(4), StopRule(1e-6, 100))

    def test_curvature_along_a_zero_direction_raises(self):
        lse = LogSumExpProblem(60, 4)
        for obj, elim in ((build_test_matrix(3, 4, seed=2), None), (lse, NewtonElimination(lse))):
            reduced = ReducedObjective(obj, elim=elim)
            with pytest.raises(ValueError, match="direction must be nonzero"):
                reduced.curvature_along(np.ones(reduced.n), np.zeros(reduced.n))

    def test_hvp_block_diagonal_and_hand_case(self):
        p = build_test_matrix(3, 4, (1, 5), (1, 9), 0.0, seed=13)
        reduced = ReducedObjective(p)
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(reduced.hessian_vec(np.zeros(3), v), p.a[:3, :3] @ v, atol=1e-10)
        # scalar case: S = 2 - 1*(1/2)*1 = 1.5, S*2 = 3
        r2 = ReducedObjective(two_by_two_problem())
        assert r2.hessian_vec(np.zeros(1), np.array([2.0]))[0] == pytest.approx(3.0, abs=1e-10)

    def test_hvp_matches_dense_schur(self):
        p = build_test_matrix(6, 8, (1, 5), (1, 25), 1e-1, seed=14)
        reduced = ReducedObjective(p)
        # independent of the condensation: S^{-1} is the x-block of A^{-1}
        s = np.linalg.inv(np.linalg.inv(p.a)[:6, :6])
        rng = np.random.default_rng(5)
        for _ in range(4):
            v = rng.standard_normal(6)
            assert np.linalg.norm(reduced.hessian_vec(np.zeros(6), v) - s @ v) <= 1e-8

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
        solved = []
        elim.solve = lambda x: solved.append(x) or QuadraticExactElimination.solve(elim, x)
        reduced = ReducedObjective(p, elim=elim)
        x1 = np.ones(3)
        reduced.value(x1)
        reduced.gradient(x1)  # cached: no new evaluation of h
        assert len(solved) == 1
        reduced.gradient(np.zeros(3))
        assert len(solved) == 2
        reduced.hessian_vec(x1, np.ones(3))  # the assembled Schur complement: no evaluation of h
        assert len(solved) == 2
        # the direct map does no iterative work, so none is counted
        assert elim.counters.snapshot() == (0, 0)
        z_star = np.linalg.solve(p.a, p.b)
        np.testing.assert_allclose(reduced.eliminated_point(z_star[:3]), z_star[3:],
                                   rtol=1e-12, atol=1e-14)
        assert len(solved) == 3
        with pytest.raises(ValueError):  # a fresh point is still validated
            reduced.value(np.full(3, np.nan))


class TestAcceptReSolve:
    """``accept`` on a scheduled map re-solves on the J(x, .) cached at x."""

    @staticmethod
    def counted_evaluations(monkeypatch):
        calls = []
        evaluate = LogSumExpRestricted.evaluate
        monkeypatch.setattr(LogSumExpRestricted, "evaluate",
                            lambda r, y, *a: calls.append(1) or evaluate(r, y, *a))
        return calls

    def test_no_newton_steps_keeps_the_evaluation(self, monkeypatch):
        p = LogSumExpProblem(40, 5)
        x = np.linspace(-1.0, 1.0, 35)
        y_star = NewtonElimination(p, inner_tol=1e-13).solve(x).y
        sched = ScheduledInexactElimination(NewtonElimination(p))
        sched.reset(y_star, floor=1e-10)
        reduced = ReducedObjective(p, p.partition, sched)
        evaluations = self.counted_evaluations(monkeypatch)
        val, g = reduced.evaluate(x)
        sched.solve = lambda x: pytest.fail("accept froze x a second time")
        reduced.accept(x)
        assert sched.tol_current == 5e-4 and len(evaluations) == 1
        val_after, g_after = reduced.evaluate(x)
        assert val_after == val and np.array_equal(g_after, g)

    def test_newton_steps_match_a_fresh_solve(self, monkeypatch):
        # the re-solve at the tightened tolerance gives the floats that a
        # solve freezing x anew gives, with one more evaluation and no exp
        # over the x block
        p = LogSumExpProblem(40, 5)
        x = np.linspace(-1.0, 1.0, 35)
        sched = ScheduledInexactElimination(NewtonElimination(p), tol_init=1e-1, rho=1e-5)
        sched.reset(np.zeros(5), floor=1e-10)
        reduced = ReducedObjective(p, p.partition, sched)
        y_loose = reduced.eliminated_point(x).copy()
        evaluations = self.counted_evaluations(monkeypatch)
        sizes = []
        exp = np.exp
        monkeypatch.setattr(varred.problems.np, "exp",
                            lambda a, **kw: sizes.append(a.size) or exp(a, **kw))
        reduced.accept(x)
        assert len(evaluations) == 1 and 35 not in sizes
        monkeypatch.undo()
        fresh = NewtonElimination(p).solve(x, y0=y_loose, tol=1e-6)
        assert fresh.inner_iterations > 0
        val, g_x, _ = fresh.restricted.evaluate(fresh.y)
        assert np.array_equal(reduced.eliminated_point(x), fresh.y)
        val_after, g_after = reduced.evaluate(x)
        assert val_after == val and np.array_equal(g_after, g_x)

    def test_failed_re_solve_keeps_no_evaluation(self):
        p = LogSumExpProblem(40, 5)
        x = np.linspace(-1.0, 1.0, 35)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        reduced = ReducedObjective(p, p.partition, sched)
        reduced.evaluate(x)

        def stalled(restricted, y, tol):
            raise NonConvergence("inner Newton stalled", residual=1.0, iterations=50)

        sched.inner.solve_frozen = stalled
        with pytest.raises(NonConvergence):
            reduced.accept(x)
        del sched.inner.solve_frozen
        solved = []
        sched.solve = lambda x: solved.append(1) or ScheduledInexactElimination.solve(sched, x)
        reduced.evaluate(x)
        assert solved == [1]

    def test_final_accept_at_the_floor_changes_nothing(self, monkeypatch):
        p = LogSumExpProblem(40, 5)
        x = np.linspace(-1.0, 1.0, 35)
        y_star = NewtonElimination(p, inner_tol=1e-13).solve(x).y
        sched = ScheduledInexactElimination(NewtonElimination(p))
        sched.reset(y_star, floor=1e-10)
        reduced = ReducedObjective(p, p.partition, sched)
        val, g = reduced.evaluate(x)
        evaluations = self.counted_evaluations(monkeypatch)
        sched.inner.solve_frozen = lambda *a: pytest.fail("re-solved at the floor")
        assert reduced.accept(x, final=True) is False
        assert sched.tol_current == 1e-3 and sched.counters.snapshot() == (0, 0)
        val_after, g_after = reduced.evaluate(x)
        assert val_after == val and np.array_equal(g_after, g) and not evaluations

    def test_final_accept_above_the_floor_re_solves_there(self, monkeypatch):
        # the re-solve at the floor reuses the J(x, .) cached at x: no exp
        # over the x block
        p = LogSumExpProblem(40, 5)
        x = np.linspace(-1.0, 1.0, 35)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        sched.reset(np.zeros(5), floor=1e-10)
        reduced = ReducedObjective(p, p.partition, sched)
        reduced.evaluate(x)
        steps = sched.counters.inner_iterations
        sizes = []
        exp = np.exp
        monkeypatch.setattr(varred.problems.np, "exp",
                            lambda a, **kw: sizes.append(a.size) or exp(a, **kw))
        assert reduced.accept(x, final=True) is True
        assert 35 not in sizes and sched.counters.inner_iterations > steps
        assert sched.tol_current == sched.floor == 1e-10
        monkeypatch.undo()
        val, g_x, g_y = p.restrict().at(x).evaluate(reduced.eliminated_point(x))
        assert np.linalg.norm(g_y) <= 1e-10
        val_after, g_after = reduced.evaluate(x)
        assert val_after == val and np.array_equal(g_after, g_x)
        assert reduced.accept(x, final=True) is False

    @pytest.mark.parametrize("p", [build_test_matrix(3, 4, (1, 3), (1, 7), 1e-1, seed=2),
                                   LogSumExpProblem(40, 5)], ids=["quadratic", "newton"])
    def test_accept_over_an_exact_map_solves_nothing(self, p):
        elim = exact_map(p, p.partition)
        reduced = ReducedObjective(p, p.partition, elim)
        x = np.linspace(-1.0, 1.0, p.partition.n_x)
        val, g = reduced.evaluate(x)
        work = elim.counters.snapshot()
        elim.solve = lambda *a, **kw: pytest.fail("accept solved over an exact map")
        assert reduced.accept(x) is False and reduced.accept(x, final=True) is False
        assert elim.counters.snapshot() == work
        val_after, g_after = reduced.evaluate(x)
        assert val_after == val and np.array_equal(g_after, g)


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
