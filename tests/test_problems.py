import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varred.problems
from varred.errors import DimensionMismatch, NotSPD
from varred.linalg import condition_number, spd_check
from varred.problems import (
    BlockPartition,
    LogSumExpProblem,
    QuadraticProblem,
    build_test_matrix,
)


def central_diff_gradient(f, z, step=None):
    z = np.asarray(z, dtype=float)
    h = step if step is not None else 1e-6 * (1.0 + np.linalg.norm(z, np.inf))
    g = np.empty_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        g[i] = (f(z + e) - f(z - e)) / (2.0 * h)
    return g


class TestBlockPartition:
    def test_trailing_and_leading(self):
        p = BlockPartition.eliminate_trailing(5, 2)
        assert list(p.x_indices) == [0, 1, 2] and list(p.y_indices) == [3, 4]
        q = BlockPartition.eliminate_leading(5, 2)
        assert list(q.y_indices) == [0, 1] and list(q.x_indices) == [2, 3, 4]

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(DimensionMismatch):
            BlockPartition(4, [0, 1], [1, 2])
        with pytest.raises(DimensionMismatch):
            BlockPartition(4, [0, 1], [2])
        with pytest.raises(DimensionMismatch):
            BlockPartition(3, [0, 1, 2], [])

    def test_split_embed_roundtrip(self):
        p = BlockPartition(5, [0, 2, 4], [1, 3])
        z = np.arange(5.0)
        x, y = p.split(z)
        assert np.array_equal(p.embed(x, y), z)
        assert np.array_equal(p.swapped().x_indices, p.y_indices)

    def test_shrink_eliminated(self):
        p = BlockPartition.eliminate_trailing(10, 6)
        q = p.shrink_eliminated(2)
        assert q.n_y == 2 and list(q.y_indices) == [8, 9]
        assert sorted(q.x_indices) == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_lift(self):
        p = BlockPartition(4, [0, 3], [1, 2])
        assert np.array_equal(p.lift_x(np.array([5.0, 6.0])), [5.0, 0.0, 0.0, 6.0])
        assert np.array_equal(p.lift_y(np.array([7.0, 8.0])), [0.0, 7.0, 8.0, 0.0])


class TestBuildTestMatrix:
    def test_flagship_configuration_conditioning(self):
        p = build_test_matrix(40, 60, (1, 10), (1, 1000), 1e-2, seed=0)
        kappa = condition_number(p.a)
        assert 990.0 <= kappa <= 1010.0
        assert spd_check(p.a)
        assert p.c == 0.0
        assert np.all(np.abs(p.b) <= 1.0)

    def test_decoupled_blocks(self):
        p = build_test_matrix(6, 8, (1, 7), (1, 30), 0.0, seed=1)
        a11 = p.a[:6, :6]
        assert np.all(p.a[:6, 6:] == 0.0)
        # with zero coupling the Schur complement is A11 itself
        assert condition_number(a11) == pytest.approx(7.0, rel=1e-8)

    def test_degenerate_1x1_blocks(self):
        p = build_test_matrix(1, 1, (2, 2), (3, 3), 0.0, seed=0)
        np.testing.assert_allclose(p.a, np.diag([2.0, 3.0]), atol=1e-12)

    def test_prescribed_spectra(self):
        p = build_test_matrix(5, 7, (1, 10), (2, 20), 0.0, seed=4)
        w11 = np.linalg.eigvalsh(p.a[:5, :5])
        np.testing.assert_allclose(w11, np.linspace(1, 10, 5), rtol=1e-10)
        w22 = np.linalg.eigvalsh(p.a[5:, 5:])
        np.testing.assert_allclose(w22, np.linspace(2, 20, 7), rtol=1e-10)

    def test_determinism(self):
        p1 = build_test_matrix(4, 5, (1, 3), (1, 9), 1e-1, seed=7)
        p2 = build_test_matrix(4, 5, (1, 3), (1, 9), 1e-1, seed=7)
        assert np.array_equal(p1.a, p2.a) and np.array_equal(p1.b, p2.b)


class TestQuadraticEval:
    def test_zero_point_identity(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2), 0.0)
        val, grad = p.evaluate(np.zeros(2))
        assert val == 0.0
        assert np.all(grad == 0.0)

    def test_minimizer_by_hand(self):
        # A=diag(2,2), b=(2,2), c=1 at z=(1,1): value 2-4+1=-1, gradient 0
        p = QuadraticProblem(np.diag([2.0, 2.0]), np.array([2.0, 2.0]), 1.0)
        val, grad = p.evaluate(np.ones(2))
        assert val == pytest.approx(-1.0, abs=1e-14)
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_gradient_by_hand(self):
        p = QuadraticProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]))
        _, grad = p.evaluate(np.array([1.0, 0.0]))
        np.testing.assert_allclose(grad, [1.0, 0.0], atol=1e-14)

    def test_dimension_mismatch(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            p.evaluate(np.zeros(3))

    def test_requires_spd(self):
        with pytest.raises(NotSPD):
            QuadraticProblem(np.diag([1.0, -1.0]), np.zeros(2))

    def test_hvp_is_matrix_product(self):
        rng = np.random.default_rng(3)
        p = build_test_matrix(3, 4, (1, 2), (1, 5), 1e-1, seed=3)
        v = rng.standard_normal(7)
        assert np.array_equal(p.hessian_vec(np.zeros(7), v), p.a @ v)


class TestLogSumExpEval:
    def test_single_term(self):
        # log(e^0) = 0, gradient b*softmax = 1
        p = LogSumExpProblem.custom([1.0], [1.0], [0.0])
        val, grad = p.evaluate(np.zeros(1))
        assert val == pytest.approx(0.0, abs=1e-15)
        assert grad[0] == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_two_terms(self):
        p = LogSumExpProblem.custom([1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
        val, grad = p.evaluate(np.zeros(2))
        assert val == pytest.approx(np.log(2.0), rel=1e-15)
        np.testing.assert_allclose(grad, [0.5, 0.5], atol=1e-15)

    def test_standard_coefficients(self):
        p = LogSumExpProblem(30, 4)
        assert np.array_equal(p.a_coeffs, np.arange(1.0, 31.0))
        assert np.all(p.b_coeffs[:4] == 10.0) and np.all(p.b_coeffs[4:] == 1.0)
        assert np.all(p.d_diag[:4] == 1e-4) and np.all(p.d_diag[4:] == 1e-2)
        assert list(p.partition.y_indices) == [0, 1, 2, 3]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = LogSumExpProblem(12, 3)
        z = rng.standard_normal(12)
        grad = p.gradient(z)
        fd = central_diff_gradient(p.value, z)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_max_shift_stabilization(self):
        p = LogSumExpProblem(10, 3)
        z = np.full(10, 100.0)  # b_i z_i up to 1000: naive exponentials overflow
        with np.errstate(over="raise"):
            val, grad = p.evaluate(z)
        assert np.isfinite(val) and np.all(np.isfinite(grad))
        val2, grad2 = p.evaluate(-z)
        assert np.isfinite(val2) and np.all(np.isfinite(grad2))

    def test_dimension_mismatch(self):
        p = LogSumExpProblem(5, 2)
        with pytest.raises(DimensionMismatch):
            p.value(np.zeros(4))


class TestLogSumExpHVP:
    def test_zero_vector(self):
        p = LogSumExpProblem(8, 2)
        assert np.all(p.hessian_vec(np.zeros(8), np.zeros(8)) == 0.0)

    def test_single_term_curvature_vanishes(self):
        # second derivative of log(e^x) = x is zero
        p = LogSumExpProblem.custom([1.0], [1.0], [0.0])
        assert p.hessian_vec(np.zeros(1), np.ones(1))[0] == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_gradient_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = LogSumExpProblem(10, 3)
        z = rng.standard_normal(10) * 0.5
        v = rng.standard_normal(10)
        hv = p.hessian_vec(z, v)
        eps = 1e-6
        fd = (p.gradient(z + eps * v) - p.gradient(z - eps * v)) / (2.0 * eps)
        assert np.linalg.norm(hv - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))

    def test_strong_convexity_smallest_eigenvalue(self):
        # smallest eigenvalue of the dense Hessian >= min(d) at random points
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 51))
            n_el = int(rng.integers(1, n))
            p = LogSumExpProblem(n, n_el)
            z = rng.standard_normal(n)
            w = np.linalg.eigvalsh(p.dense_hessian(z))
            assert w[0] >= p.d_diag.min() - 1e-10


class TestObjectiveSuites:
    """Gradient and Hessian-product finite-difference suites at random points."""

    @pytest.mark.parametrize("make", [
        lambda: build_test_matrix(4, 6, (1, 5), (1, 20), 1e-1, seed=9),
        lambda: LogSumExpProblem(15, 4),
    ], ids=["quadratic", "logsumexp"])
    def test_twenty_random_points(self, make):
        obj = make()
        rng = np.random.default_rng(77)
        for _ in range(20):
            z = rng.standard_normal(obj.n) * 0.7
            fd = central_diff_gradient(obj.value, z)
            g = obj.gradient(z)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
            v = rng.standard_normal(obj.n)
            eps = 1e-6
            fd_h = (obj.gradient(z + eps * v) - obj.gradient(z - eps * v)) / (2 * eps)
            hv = obj.hessian_vec(z, v)
            assert np.linalg.norm(hv - fd_h) <= 1e-4 * max(1.0, np.linalg.norm(fd_h))


def _partitions(n, n_y):
    perm = np.random.default_rng(n).permutation(n)
    scattered = BlockPartition(n, np.sort(perm[n_y:]), np.sort(perm[:n_y]))
    return {
        "leading": BlockPartition.eliminate_leading(n, n_y),
        "trailing": BlockPartition.eliminate_trailing(n, n_y),
        "scattered": scattered,
        "swapped": scattered.swapped(),
    }


def _assembled(op):
    return np.column_stack([op(e) for e in np.eye(op.dim)])


class TestYLinearization:
    """(grad_y J, grad_yy J) from one evaluation, against the full gradient
    and the assembled Hessian."""

    @pytest.mark.parametrize("kind", ["leading", "trailing", "scattered", "swapped"])
    @pytest.mark.parametrize("make, dense_hessian", [
        (lambda: LogSumExpProblem(15, 6), lambda p, z: p.dense_hessian(z)),
        (lambda: build_test_matrix(6, 9, (1, 5), (1, 40), 1e-1, seed=4), lambda p, z: p.a),
    ], ids=["logsumexp", "quadratic"])
    def test_matches_full_gradient_and_dense_hessian(self, make, dense_hessian, kind):
        p = make()
        part = _partitions(15, 9)[kind]
        z = np.random.default_rng(3).standard_normal(15) * 0.4
        g_y, h_yy = p.y_linearization(z, part)
        assert np.array_equal(g_y, p.gradient(z)[part.y_indices])
        dense = dense_hessian(p, z)[np.ix_(part.y_indices, part.y_indices)]
        np.testing.assert_allclose(_assembled(h_yy), dense, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(_assembled(p.hess_yy_op(z, part)), dense,
                                   rtol=1e-12, atol=1e-15)

    def test_logsumexp_one_softmax_pass(self):
        p = LogSumExpProblem(50, 7)
        passes = []
        softmax = p._softmax_weights
        p._softmax_weights = lambda z: passes.append(1) or softmax(z)
        _, h_yy = p.y_linearization(np.full(50, 0.3))
        for v in np.eye(7):
            h_yy(v)
        assert len(passes) == 1

    def test_quadratic_copies_no_submatrix_before_a_product(self, monkeypatch):
        p = build_test_matrix(4, 6, (1, 5), (1, 20), 1e-1, seed=1)
        copies = []
        ix = np.ix_
        monkeypatch.setattr(varred.problems.np, "ix_", lambda *a: copies.append(1) or ix(*a))
        _, h_yy = p.y_linearization(np.ones(10))
        assert copies == []
        h_yy(np.ones(6))
        h_yy(np.ones(6))
        assert len(copies) == 1
