import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varred.errors import NonConvergence, NotSPD
from varred.linalg import (
    LinOp,
    cg_solve,
    condition_number,
    orthogonal_from_rng,
    spd_check,
    sym_matrix,
)


def random_spd(rng, n, spectrum=None):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = spectrum if spectrum is not None else rng.uniform(0.5, 5.0, n)
    return sym_matrix(q @ np.diag(lam) @ q.T)


class TestCG:
    def test_identity_one_iteration(self):
        rhs = np.array([1.0, -2.0, 3.0, 0.5, -0.1])
        res = cg_solve(LinOp.from_matrix(np.eye(5)), rhs, x0=np.zeros(5))
        assert res.iterations == 1
        np.testing.assert_allclose(res.x, rhs, rtol=0, atol=1e-14)

    def test_diagonal_solve(self):
        res = cg_solve(LinOp.from_matrix(np.diag([2.0, 4.0])), np.array([2.0, 4.0]))
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-12)

    def test_hand_solved_2x2(self):
        # [[4,1],[1,3]] x = (1,2)  =>  x = (1/11, 7/11)
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        res = cg_solve(LinOp.from_matrix(a), np.array([1.0, 2.0]))
        np.testing.assert_allclose(res.x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)
        assert np.linalg.norm(a @ res.x - [1.0, 2.0]) <= 1e-12 * np.linalg.norm([1.0, 2.0])

    def test_zero_rhs(self):
        res = cg_solve(LinOp.from_matrix(np.eye(3)), np.zeros(3))
        assert res.iterations == 0
        assert np.all(res.x == 0.0)

    def test_nonconvergence_carries_residual(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 8, spectrum=np.linspace(1, 1e4, 8))
        with pytest.raises(NonConvergence) as exc:
            cg_solve(LinOp.from_matrix(a), rng.standard_normal(8), max_iter=1)
        assert exc.value.residual is not None and exc.value.residual > 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 10_000))
    def test_finite_termination_small_spectra(self, n, seed):
        # SPD with well-separated small spectrum converges within n iterations
        rng = np.random.default_rng(seed)
        a = random_spd(rng, n, spectrum=np.arange(1.0, n + 1.0))
        rhs = rng.standard_normal(n)
        res = cg_solve(LinOp.from_matrix(a), rhs, rel_tol=1e-12)
        assert res.iterations <= n
        assert np.linalg.norm(a @ res.x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_warm_start_already_converged(self):
        a = np.diag([2.0, 3.0])
        x_true = np.array([1.0, 2.0])
        res = cg_solve(LinOp.from_matrix(a), a @ x_true, x0=x_true)
        assert res.iterations == 0
        assert np.array_equal(res.x, x_true)


class TestLinOp:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_linearity_on_random_probes(self, n, seed):
        rng = np.random.default_rng(seed)
        op = LinOp.from_matrix(rng.standard_normal((n, n)))
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        alpha, beta = rng.uniform(-2, 2, 2)
        lhs = op(alpha * u + beta * v)
        rhs = alpha * op(u) + beta * op(v)
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-30)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(10)) == pytest.approx(1.0, abs=1e-12)

    def test_equispaced_diagonal(self):
        assert condition_number(np.diag(np.linspace(10.0, 1.0, 10))) == pytest.approx(10.0, rel=1e-10)

    def test_2x2_by_characteristic_polynomial(self):
        # eigenvalues of [[2, 1], [1, 2]] are the roots 1 and 3 of (2 - l)^2 - 1
        assert condition_number(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0, rel=1e-12)

    def test_ratio_of_extremes(self):
        assert condition_number(np.diag([1000.0, 1.0])) == pytest.approx(1000.0, rel=1e-10)

    def test_not_spd(self):
        with pytest.raises(NotSPD):
            condition_number(np.diag([1.0, -1.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 10_000),
           st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    def test_scale_invariance(self, n, seed, c):
        rng = np.random.default_rng(seed)
        m = random_spd(rng, n)
        assert condition_number(c * m) == pytest.approx(condition_number(m), rel=1e-10)


class TestRandomOrthogonal:
    """orthogonal_from_rng, which build_test_matrix draws its blocks' eigenbases from."""

    def test_order_one_is_sign(self):
        q = orthogonal_from_rng(np.random.default_rng(3), 1)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-14

    def test_orthogonality(self):
        q = orthogonal_from_rng(np.random.default_rng(42), 5)
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-10

    def test_determinism(self):
        assert np.array_equal(orthogonal_from_rng(np.random.default_rng(123), 7),
                              orthogonal_from_rng(np.random.default_rng(123), 7))

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(orthogonal_from_rng(np.random.default_rng(0), 5),
                                  orthogonal_from_rng(np.random.default_rng(1), 5))


class TestSPDCheck:
    def test_identity(self):
        assert spd_check(np.eye(3))

    def test_indefinite_diagonal(self):
        assert not spd_check(np.diag([1.0, -1.0]))

    def test_positive_2x2(self):
        assert spd_check(np.array([[2.0, 1.0], [1.0, 2.0]]))  # eigenvalues 1, 3
