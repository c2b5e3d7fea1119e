import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varred.linalg
import varred.optimizers
import varred.problems
from varred.errors import DegenerateCurvature, LineSearchFailure, MaxIterReached
from varred.elimination import (
    NewtonElimination,
    QuadraticExactElimination,
    ReducedObjective,
    ScheduledInexactElimination,
)
from varred.linalg import LinOp
from varred.optimizers import (
    ArmijoParams,
    StopRule,
    alternating_minimization,
    armijo_search,
    gradient_descent,
    newton_eliminated,
    optimal_step_quadratic,
    pgd_inexact,
)
from varred.problems import LogSumExpProblem, Objective, QuadraticProblem, build_test_matrix

from oracles import check_rate_bound, lse_minimizer, quadratic_minimizer, recorded_iterates


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

    def test_trial_points_are_formed_in_out(self):
        seen = []
        f = lambda z: seen.append(z) or 0.5 * float(z @ z)
        x, d, out = np.array([1.0, 2.0]), np.array([-4.0, -8.0]), np.empty(2)
        t, _, trials = armijo_search(f, x, d, -d / 4, ArmijoParams(), f_x=2.5, out=out)
        assert t == 0.25 and trials == 3 and all(z is out for z in seen)
        assert np.array_equal(out, x + t * d)

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
            ArmijoParams(max_trials=0)
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

    def test_max_iter_is_a_budget_from_zero_up(self):
        # a budget of m outer steps ends a run that cannot converge after m of
        # them; a negative one is refused rather than taken as no budget
        p = build_test_matrix(4, 6, (1, 5), (1, 80), 1e-1, seed=11)
        for m in (0, 5):
            with pytest.raises(MaxIterReached) as exc:
                gradient_descent(p, np.zeros(10), StopRule(rel_grad_tol=1e-300, max_iter=m))
            assert exc.value.record.iterations == m
        with pytest.raises(ValueError, match="max_iter"):
            StopRule(rel_grad_tol=1e-300, max_iter=-1)

    def test_max_iter_zero_records_row_zero_only(self):
        p = build_test_matrix(4, 6, (1, 5), (1, 80), 1e-1, seed=11)
        with pytest.raises(MaxIterReached) as exc:
            gradient_descent(p, np.zeros(10), StopRule(max_iter=0))
        assert len(exc.value.record.rows) == 1
        assert str(exc.value).endswith("within 0 iterations (rel grad 1.000e+00)")

    def test_max_iter_message_reads_the_last_row(self):
        p = build_test_matrix(4, 6, (1, 5), (1, 80), 1e-1, seed=11)
        with pytest.raises(MaxIterReached) as exc:
            gradient_descent(p, np.zeros(10), StopRule(rel_grad_tol=1e-300, max_iter=5))
        rel = exc.value.record.final.rel_grad_norm
        assert 0.0 < rel < 1.0
        assert str(exc.value).endswith(f"within 5 iterations (rel grad {rel:.3e})")

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

    def test_reduced_optimal_step_on_logsumexp_reaches_the_dense_oracle(self):
        p = LogSumExpProblem(60, 4)
        reduced = ReducedObjective(p)
        x, _ = gradient_descent(reduced, np.zeros(56), StopRule(max_iter=1000),
                                step_mode="optimal_quadratic")
        z, z_star = p.partition.embed(x, reduced.eliminated_point(x)), lse_minimizer(p)
        assert np.linalg.norm(z - z_star) <= 1e-4 * np.linalg.norm(z_star)

    def test_record_row_zero_definition(self):
        p = QuadraticProblem(np.eye(2), np.ones(2))
        _, rec = gradient_descent(p, np.zeros(2), StopRule(max_iter=5),
                                  step_mode="optimal_quadratic")
        assert rec.rows[0].iteration == 0
        assert rec.rows[0].rel_grad_norm == 1.0
        assert rec.rows[0].step == 0.0

    def test_the_clock_covers_the_evaluation_at_x0(self, monkeypatch):
        # each evaluation takes one tick of a stub clock, and nothing else does
        ticks = [0.0]
        monkeypatch.setattr(varred.optimizers, "time", SimpleNamespace(perf_counter=lambda: ticks[0]))
        p = QuadraticProblem(np.eye(2), np.ones(2))
        evaluate = p.evaluate

        def ticking(z):
            ticks[0] += 1.0
            return evaluate(z)
        monkeypatch.setattr(p, "evaluate", ticking)
        _, rec = gradient_descent(p, np.zeros(2), StopRule(), step_mode="optimal_quadratic")
        assert [r.elapsed_s for r in rec.rows] == [1.0, 2.0]

    def test_pgd_feasibility_of_accepted_iterates(self):
        # every accepted (x, h(x)) satisfies the eliminated optimality block
        p = build_test_matrix(4, 6, (1, 5), (1, 50), 1e-1, seed=3)
        elim = QuadraticExactElimination(p)
        reduced = ReducedObjective(p, elim=elim)
        with recorded_iterates(reduced) as iterates:
            x, rec = gradient_descent(reduced, np.zeros(4), StopRule(max_iter=2000),
                                      step_mode="optimal_quadratic")
        assert len(iterates) == len(rec.rows)
        for xk in iterates[-3:]:
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
    def test_allocation_peak_stays_under_eight_x_block_arrays(self):
        # each x-block vector of a run exists once: trial points are formed in
        # place, the cache copies x once, a rejected trial forms no gradient
        # and a curvature product makes one array
        p = LogSumExpProblem(20_000, 200)
        part = p.partition
        z0 = np.random.default_rng(0).uniform(-1.0, 1.0, p.n)
        x0, y0 = z0[part.x_indices], z0[part.y_indices]
        sched = ScheduledInexactElimination(NewtonElimination(p))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            *_, rec = pgd_inexact(p, part, sched, x0, y0, StopRule(1e-6, 1000))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert rec.final.rel_grad_norm <= 1e-6
        assert peak <= 8 * 8 * part.n_x

    def test_quadratic_matches_exact_pgd(self):
        # Newton inner down to 1e-10 makes the map near exact: same trajectory +-2
        p = build_test_matrix(5, 7, (1, 6), (1, 60), 1e-1, seed=4)
        stop = StopRule(rel_grad_tol=1e-6, max_iter=2000)
        reduced = ReducedObjective(p)
        _, rec_exact = gradient_descent(reduced, np.zeros(5), stop, step_mode="armijo")
        sched = ScheduledInexactElimination(
            NewtonElimination(p, inner_tol=1e-10))
        _, _, rec_inexact = pgd_inexact(p, p.partition, sched, np.zeros(5),
                                        np.zeros(7), stop)
        assert abs(rec_inexact.iterations - rec_exact.iterations) <= 2

    def test_start_at_optimum_zero_or_one_iterations(self):
        p = build_test_matrix(4, 5, (1, 4), (1, 20), 1e-1, seed=5)
        z_star = quadratic_minimizer(p)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        _, _, rec = pgd_inexact(p, p.partition, sched, z_star[:4], z_star[4:],
                                StopRule(max_iter=100))
        assert rec.iterations <= 1

    def test_row_zero_rel_grad_is_grad_norm_over_g0(self):
        # decoupled and started at the retained minimizer: g0 is 0, and the final re-solve takes steps
        p = QuadraticProblem(np.diag([1.0, 2, 3, 4, 5]), np.ones(5))
        sched = ScheduledInexactElimination(NewtonElimination(p), tol_init=0.1)
        _, _, rec = pgd_inexact(p, p.partition, sched, 1.0 / np.arange(1.0, 4.0), np.zeros(2),
                                StopRule())
        assert rec.iterations == 0 and rec.rows[0].inner_iters > 0
        assert rec.rows[0].grad_norm == 0.0 and rec.rows[0].rel_grad_norm == 0.0

    def test_logsumexp_converges_with_inner_residual_floor(self):
        p = LogSumExpProblem(100, 8)
        stop = StopRule(rel_grad_tol=1e-6, max_iter=200)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        x, y, rec = pgd_inexact(p, p.partition, sched, np.zeros(92), np.zeros(8), stop)
        z = p.partition.embed(x, y)
        assert np.linalg.norm(p.gradient(z)[p.partition.y_indices]) <= sched.tol_current
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

    def test_reused_schedule_meets_its_own_tolerance(self):
        # the second run derives its floor from its own tolerance (1e-9) and
        # does not keep the floor of the first run (1e-5)
        p = LogSumExpProblem(60, 4)
        part = p.partition
        sched = ScheduledInexactElimination(NewtonElimination(p))

        def full_gradient(z):
            t = p.b_coeffs * z
            e = p.a_coeffs * np.exp(t - t.max())
            return p.b_coeffs * e / e.sum() + p.d_diag * z

        z0 = np.zeros(60)
        pgd_inexact(p, part, sched, z0[part.x_indices], z0[part.y_indices],
                    StopRule(rel_grad_tol=1e-3, max_iter=500))
        x, y, _ = pgd_inexact(p, part, sched, z0[part.x_indices], z0[part.y_indices],
                              StopRule(rel_grad_tol=1e-7, max_iter=500))
        g_norm = np.linalg.norm(full_gradient(part.embed(x, y)))
        assert g_norm <= 1e-6 * np.linalg.norm(full_gradient(z0))

    def test_reused_schedule_gives_identical_histories(self):
        # reset leaves the re-solve at an accepted iterate no warm start or
        # tolerance of the earlier run
        p = LogSumExpProblem(60, 4)
        part = p.partition
        sched = ScheduledInexactElimination(NewtonElimination(p))
        z0 = np.linspace(-1.0, 1.0, 60)
        runs = []
        for _ in range(2):
            x, y, rec = pgd_inexact(p, part, sched, z0[part.x_indices], z0[part.y_indices],
                                    StopRule(rel_grad_tol=1e-6, max_iter=500))
            runs.append((x, y, [(r.iteration, r.fval, r.grad_norm, r.rel_grad_norm, r.step,
                                 r.inner_iters, r.cum_linear_solves) for r in rec.rows]))
        (x1, y1, rows1), (x2, y2, rows2) = runs
        assert len(rows1) > 3 and any(r[5] > 0 for r in rows1[1:])
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        # both work columns count from the run's start, not the map's creation
        assert rows2 == rows1

    def test_accepted_iterate_is_not_frozen_again(self, monkeypatch):
        # one exp over the x block at x0 and one per Armijo trial; the re-solve
        # at an accepted iterate reuses the frozen J(x, .) of its trial
        p = LogSumExpProblem(60, 4)
        sizes, trials = [], []
        exp, search = np.exp, varred.optimizers.armijo_search

        def counted_search(*args, **kwargs):
            result = search(*args, **kwargs)
            trials.append(result[2])
            return result

        monkeypatch.setattr(varred.problems.np, "exp",
                            lambda a, **kw: sizes.append(a.size) or exp(a, **kw))
        monkeypatch.setattr(varred.optimizers, "armijo_search", counted_search)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        _, _, rec = pgd_inexact(p, p.partition, sched, np.zeros(56), np.zeros(4),
                                StopRule(rel_grad_tol=1e-6, max_iter=500))
        assert len(trials) == rec.iterations > 3 and sum(trials) > rec.iterations
        assert sizes.count(56) == 1 + sum(trials)

    # (n, n_el) of configs/logsumexp.ini, and a size at which the run used to
    # meet the stop rule on a loose inner solve and then spin to its budget
    SETTLING = [(1000, 20), (100_000, 10_000)]

    @staticmethod
    def run_from_zero(n, n_el, stop=None):
        p = LogSumExpProblem(n, n_el)
        sched = ScheduledInexactElimination(NewtonElimination(p))
        x, y, rec = pgd_inexact(p, p.partition, sched, np.zeros(n - n_el), np.zeros(n_el),
                                stop or StopRule(rel_grad_tol=1e-6, max_iter=50))
        return p, sched, x, y, rec

    def test_no_outer_step_after_the_stop_rule_is_met(self, monkeypatch):
        # the first iterate that meets the rule is re-solved at the floor,
        # still meets it, and the run ends there
        searches, searches_when_met = [], []
        search = varred.optimizers.armijo_search
        monkeypatch.setattr(varred.optimizers, "armijo_search",
                            lambda *a, **kw: searches.append(1) or search(*a, **kw))

        class Watched(StopRule):
            def met(self, grad_norm, grad_norm0):
                met = super().met(grad_norm, grad_norm0)
                if met:
                    searches_when_met.append(len(searches))
                return met

        *_, rec = self.run_from_zero(1000, 20, Watched(rel_grad_tol=1e-6, max_iter=20000))
        assert searches_when_met[0] == len(searches) == rec.iterations
        assert rec.final.rel_grad_norm <= 1e-6

    @pytest.mark.parametrize("n, n_el", SETTLING)
    def test_last_row_is_the_returned_point(self, n, n_el):
        # the last row holds J~ and its gradient at the returned (x, y), with
        # the inner residual there at the floor
        p, sched, x, y, rec = self.run_from_zero(n, n_el)
        val, g_x, g_y = p.restrict().at(x).evaluate(y)
        assert rec.final.fval == val
        assert rec.final.grad_norm == np.linalg.norm(g_x)
        assert rec.final.rel_grad_norm == rec.final.grad_norm / rec.rows[0].grad_norm
        assert np.linalg.norm(g_y) <= sched.floor

    @pytest.mark.parametrize("n, n_el", SETTLING)
    def test_rows_count_every_newton_step(self, n, n_el):
        # row 0 counts none of the steps of the solve at x0; every later step,
        # the re-solve at the floor included, is in some row
        p, sched, *_, rec = self.run_from_zero(n, n_el)
        at_x0 = NewtonElimination(p).solve(np.zeros(n - n_el), np.zeros(n_el), tol=sched.tol_init)
        total = sum(r.inner_iters for r in rec.rows)
        assert total + at_x0.inner_iterations == sched.counters.inner_iterations
        assert rec.final.cum_linear_solves == sched.counters.linear_solves

    def test_large_eliminated_block_converges_without_spinning(self):
        *_, rec = self.run_from_zero(100_000, 10_000)
        assert rec.iterations <= 3 and rec.final.rel_grad_norm <= 1e-6


class TestAlternatingMinimization:
    def test_block_diagonal_single_sweep(self):
        p = build_test_matrix(4, 5, (1, 5), (1, 9), 0.0, seed=6)
        z, rec = alternating_minimization(p, p.partition, np.zeros(9),
                                          StopRule(rel_grad_tol=1e-8, max_iter=50))
        assert rec.iterations == 1
        np.testing.assert_allclose(p.a @ z, p.b, atol=1e-9)

    def test_half_sweep_monotonicity(self):
        p = build_test_matrix(4, 6, (1, 4), (1, 30), 2e-1, seed=7)
        part = p.partition
        with recorded_iterates(p) as iterates:
            _, rec = alternating_minimization(p, part, np.zeros(10),
                                              StopRule(rel_grad_tol=1e-8, max_iter=200))
        assert len(iterates) == len(rec.rows)
        # J(z_0), then J(x_{k+1}, y_k) and J(z_{k+1}) for every sweep
        hv = [p.value(iterates[0])]
        for z_prev, z_next in zip(iterates, iterates[1:]):
            hv += [p.value(part.embed(part.split(z_next)[0], part.split(z_prev)[1])),
                   p.value(z_next)]
        hv = np.array(hv)
        assert np.all(np.diff(hv) <= 1e-12 * np.maximum(1.0, np.abs(hv[:-1])))

    def test_coincides_with_block_gauss_seidel(self):
        p = build_test_matrix(4, 5, (1, 4), (1, 8), 3e-1, seed=8)
        stop = StopRule(rel_grad_tol=1e-14, max_iter=6)
        with recorded_iterates(p) as iterates:
            try:
                _, rec = alternating_minimization(p, p.partition, np.zeros(9), stop)
            except MaxIterReached as exc:
                rec = exc.record
        assert len(iterates) == len(rec.rows)
        a11, a12 = p.a[:4, :4], p.a[:4, 4:]
        a21, a22 = p.a[4:, :4], p.a[4:, 4:]
        b1, b2 = p.b[:4], p.b[4:]
        x = np.zeros(4)
        y = np.zeros(5)
        for zk in iterates[1:]:
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

    def test_only_quadratic_newton_systems_run_cg(self, monkeypatch):
        # log-sum-exp solves its reduced Hessian in closed form, under its own
        # partition and under a partial scope; a quadratic's Newton system is CG on S
        def no_cg(*args, **kwargs):
            raise AssertionError("a log-sum-exp Newton run called CG")

        cg_solve, calls = varred.linalg.cg_solve, []
        monkeypatch.setattr(varred.linalg, "cg_solve", no_cg)
        p = LogSumExpProblem(60, 4)
        z_star = lse_minimizer(p)
        for part in (p.partition, p.partition.shrink_eliminated(2)):
            x, rec = newton_eliminated(p, part, x0=np.zeros(part.n_x), stop=StopRule(1e-9, 30))
            assert rec.final.rel_grad_norm <= 1e-9 and rec.final.cum_linear_solves == 0
            np.testing.assert_allclose(x, z_star[part.x_indices], rtol=0, atol=1e-9)
        monkeypatch.setattr(varred.linalg, "cg_solve", lambda *a, **kw: calls.append(1) or cg_solve(*a, **kw))
        q = build_test_matrix(5, 6, (1, 5), (1, 40), 1e-1, seed=9)
        _, rec = newton_eliminated(q, q.partition, x0=np.zeros(5), stop=StopRule(max_iter=10))
        assert len(calls) == rec.iterations == 1

    def test_logsumexp_superlinear_tail(self):
        p = LogSumExpProblem(50, 5)
        elim = NewtonElimination(p, inner_tol=1e-13)
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
        elim = NewtonElimination(p, inner_tol=1e-12)
        reduced = ReducedObjective(p, part, elim)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(21) * 0.3
        jf = reduced.hessian_op(x)
        for _ in range(3):
            v = rng.standard_normal(21)
            eps = 1e-6
            fd = (reduced.gradient(x + eps * v) - reduced.gradient(x - eps * v)) / (2 * eps)
            jv = jf(v)
            assert np.linalg.norm(jv - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))

    def test_logsumexp_reduced_hessian_products_make_no_exp(self, monkeypatch):
        # the reduced Hessian at x is formed from the cached J(x, .): its
        # products (the optimal step of PGD) and its solves (the Newton
        # steps) run no exp at all, over n, n_x or n_y
        p = LogSumExpProblem(60, 4)
        sizes, calls = [], {"apply": [], "solve": []}
        exp, hessian_op = np.exp, ReducedObjective.hessian_op

        def counted(reduced, x):
            op = hessian_op(reduced, x)

            def watched(name):
                def call(v):
                    before = len(sizes)
                    out = getattr(op, name)(v)
                    calls[name].append(sizes[before:])
                    return out
                return call
            return LinOp(op.dim, watched("apply"), watched("solve"))

        monkeypatch.setattr(varred.problems.np, "exp", lambda a, **kw: sizes.append(a.size) or exp(a, **kw))
        monkeypatch.setattr(ReducedObjective, "hessian_op", counted)
        _, rec = newton_eliminated(p, p.partition, x0=np.zeros(56),
                                   stop=StopRule(rel_grad_tol=1e-9, max_iter=30))
        assert rec.iterations >= 3 and len(calls["solve"]) == rec.iterations
        gradient_descent(ReducedObjective(p), np.zeros(56), StopRule(1e-6, 30),
                         step_mode="optimal_quadratic")
        assert len(calls["apply"]) >= 3
        assert all(s == [] for s in calls["apply"] + calls["solve"])


class QuarticPlusQuadratic(Objective):
    """J(z) = 1/2 z'Az - b'z + 1/4 sum z_i^4: only the two methods the
    objective contract asks for."""

    def __init__(self, quad):
        self.a, self.b, self.n = quad.a, quad.b, quad.n
        self.partition = quad.partition

    def evaluate(self, z):
        az = self.a @ z
        return 0.5 * z @ az - self.b @ z + 0.25 * np.sum(z**4), az - self.b + z**3

    def hessian_vec(self, z, v):
        return self.a @ v + 3.0 * z**2 * v


class TestObjectiveContract:
    """Every method on an objective that defines only ``evaluate`` and
    ``hessian_vec`` (its y-block reached through the generic
    base-class ``Restricted``), against a dense Newton oracle."""

    STOP = StopRule(rel_grad_tol=1e-6, max_iter=20000)

    @staticmethod
    def problem():
        # the 6/9 quadratic of the differential tests plus a quartic
        return QuarticPlusQuadratic(build_test_matrix(6, 9, (1.0, 10.0), (1.0, 200.0),
                                                      0.1, seed=7))

    @staticmethod
    def oracle(obj):
        z = np.zeros(obj.n)
        for _ in range(50):
            g = obj.a @ z - obj.b + z**3
            if np.linalg.norm(g) <= 1e-13:
                return z
            z = z - np.linalg.solve(obj.a + np.diag(3.0 * z**2), g)
        raise AssertionError("dense Newton oracle did not converge")

    def test_value_and_gradient_come_from_evaluate(self):
        obj = self.problem()
        z = np.random.default_rng(0).standard_normal(obj.n)
        val, g = obj.evaluate(z)
        assert obj.value(z) == val
        assert np.array_equal(obj.gradient(z), g)

    def test_reduced_hessian_evaluates_nothing(self, monkeypatch):
        # the reduced Hessian at an evaluated x, formed and applied, takes
        # grad_yy J as an operator alone: no evaluate, so no gradient
        obj = self.problem()
        reduced, x = ReducedObjective(obj), np.full(obj.partition.n_x, 0.1)
        reduced.evaluate(x)
        calls, evaluate = [], QuarticPlusQuadratic.evaluate
        monkeypatch.setattr(QuarticPlusQuadratic, "evaluate",
                            lambda self, z: calls.append(z) or evaluate(self, z))
        reduced.hessian_op(x)(np.ones(obj.partition.n_x))
        assert calls == []

    @pytest.mark.parametrize("method", ["gd", "pgd-exact", "pgd-inexact", "altmin",
                                        "newton-elim"])
    def test_every_method_reaches_the_oracle(self, method):
        obj = self.problem()
        part = obj.partition
        x0, z0 = np.zeros(part.n_x), np.zeros(obj.n)
        if method == "gd":
            z, _ = gradient_descent(obj, z0, self.STOP)
        elif method == "pgd-exact":
            reduced = ReducedObjective(obj, part)
            x, _ = gradient_descent(reduced, x0, self.STOP)
            z = part.embed(x, reduced.eliminated_point(x))
        elif method == "pgd-inexact":
            sched = ScheduledInexactElimination(NewtonElimination(obj, part))
            x, y, _ = pgd_inexact(obj, part, sched, x0, np.zeros(part.n_y), self.STOP)
            z = part.embed(x, y)
        elif method == "altmin":
            z, _ = alternating_minimization(obj, part, z0, self.STOP)
        else:
            elim = NewtonElimination(obj, part)
            x, _ = newton_eliminated(obj, part, elim, x0, self.STOP)
            z = part.embed(x, elim.solve(x).y)
        z_star = self.oracle(obj)
        assert np.linalg.norm(z - z_star) <= 1e-4 * np.linalg.norm(z_star)


def _no_gradient(*args):
    raise AssertionError("the outer loop reads J and its gradient through evaluate")


class TestLoopContract:
    """The outer loop reads J and grad J at each iterate from one ``evaluate``,
    after any step rule, and never calls ``gradient``."""

    def test_armijo_gradient_descent_on_a_quadratic(self):
        p = build_test_matrix(4, 5, (1.0, 10.0), (1.0, 50.0), 0.1, seed=3)
        p.gradient = _no_gradient
        _, rec = gradient_descent(p, np.zeros(p.n), StopRule(1e-6, 5000), step_mode="armijo")
        assert rec.iterations > 1 and rec.final.rel_grad_norm <= 1e-6

    def test_newton_eliminated_on_logsumexp(self, monkeypatch):
        p = LogSumExpProblem(40, 4)
        monkeypatch.setattr(ReducedObjective, "gradient", _no_gradient)
        _, rec = newton_eliminated(p, p.partition, x0=np.zeros(36),
                                   stop=StopRule(rel_grad_tol=1e-9, max_iter=30))
        assert rec.iterations > 1 and rec.final.rel_grad_norm <= 1e-9


class TestRateBound:
    def test_identity_matrix_trivial_bound(self):
        p = QuadraticProblem(np.eye(3), np.array([1.0, 2.0, -1.0]))
        with recorded_iterates(p) as iterates:
            x, rec = gradient_descent(p, np.zeros(3), StopRule(max_iter=10),
                                      step_mode="optimal_quadratic")
        assert check_rate_bound(rec, 1.0, quadratic_minimizer(p), iterates)

    def test_full_space_bound_with_kappa_a(self):
        p = build_test_matrix(4, 6, (1, 5), (1, 80), 1e-1, seed=11)
        with recorded_iterates(p) as iterates:
            _, rec = gradient_descent(p, np.zeros(10), StopRule(max_iter=20000),
                                      step_mode="optimal_quadratic")
        ev = np.linalg.eigvalsh(p.a)
        assert check_rate_bound(rec, ev[-1] / ev[0], quadratic_minimizer(p), iterates)

    def test_reduced_bound_with_kappa_s(self):
        p = build_test_matrix(4, 6, (1, 5), (1, 80), 1e-1, seed=11)
        reduced = ReducedObjective(p)
        with recorded_iterates(reduced) as iterates:
            _, rec = gradient_descent(reduced, np.zeros(4), StopRule(max_iter=20000),
                                      step_mode="optimal_quadratic")
        s = QuadraticExactElimination(p).s
        ev = np.linalg.eigvalsh(s)
        assert check_rate_bound(rec, ev[-1] / ev[0], quadratic_minimizer(p)[:4], iterates)

    def test_violated_bound_detected(self):
        iterates = [np.array([1.0]), np.array([0.9])]
        assert not check_rate_bound(None, 1.0, np.array([0.0]), iterates)
