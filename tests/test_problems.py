import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varred.bench_cli
import varred.problems
from varred.bench_cli import ExperimentConfig, conditioning_report
from varred.elimination import QuadraticExactElimination
from varred.errors import DimensionMismatch, NonFinite, NotSPD
from varred.linalg import condition_number, spd_check
from varred.problems import (
    BlockPartition,
    LogSumExpProblem,
    QuadraticProblem,
    Restricted,
    build_test_matrix,
)

from oracles import lse_dense_hessian, lse_with_coefficients


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

    @pytest.mark.parametrize("x, y", [([-1, 1], [2, 3]), ([0, 1], [2, 4]), ([0, 1], [2, -4])],
                             ids=["negative", "out-of-range", "negative-in-y"])
    def test_rejects_indices_outside_the_range(self, x, y):
        with pytest.raises(DimensionMismatch):
            BlockPartition(4, x, y)

    @pytest.mark.parametrize("x, y, ranges", [
        (np.arange(2, 6), np.arange(2), (True, True)),
        ([0, 2, 4], [1, 3, 5], (False, False)),
        ([5, 4, 3], [0, 1, 2], (False, True)),
        ([1, 3, 2, 4], [0, 5], (False, False)),
    ], ids=["leading", "interleaved", "descending", "endpoints-of-a-range"])
    def test_keys_slice_exactly_the_ascending_ranges(self, x, y, ranges):
        p = BlockPartition(6, x, y)
        z = np.arange(6.0) * 10
        for key, indices, part, is_range in zip((p.x_key, p.y_key), (p.x_indices, p.y_indices),
                                                 p.split(z), ranges):
            assert isinstance(key, slice) == is_range
            assert np.array_equal(part, z[indices]) and np.shares_memory(part, z) == is_range
        assert np.array_equal(p.embed(*p.split(z)), z)
        assert np.array_equal(p.embed(np.ones(p.n_x), 0.0)[p.x_indices], np.ones(p.n_x))

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
        # a scalar fills its block, so embed lifts one block into R^n
        p = BlockPartition(4, [0, 3], [1, 2])
        assert np.array_equal(p.embed(np.array([5.0, 6.0]), 0.0), [5.0, 0.0, 0.0, 6.0])
        assert np.array_equal(p.embed(0.0, np.array([7.0, 8.0])), [0.0, 7.0, 8.0, 0.0])


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


class TestValidationMemo:
    """The last matrix a QuadraticProblem stored is reused, read-only and
    checked once, by a problem built on that array; any other is checked in full."""

    @staticmethod
    def counting_spd_check(monkeypatch):
        calls = []
        monkeypatch.setattr(varred.problems, "spd_check", lambda a: calls.append(1) or spd_check(a))
        return calls

    def test_stored_matrix_is_read_only(self):
        p = build_test_matrix(3, 4, (1, 2), (1, 5), 1e-1, seed=3)
        with pytest.raises(ValueError):
            p.a[0, 0] = 2.0

    def test_stored_matrix_is_checked_once_until_evicted(self, monkeypatch):
        p = build_test_matrix(3, 4, (1, 2), (1, 5), 1e-1, seed=3)
        calls = self.counting_spd_check(monkeypatch)
        for _ in range(2):
            assert QuadraticProblem(p.a, np.ones(7)).a is p.a
        assert calls == []
        QuadraticProblem(np.eye(7), np.ones(7))  # evicts p.a
        q = QuadraticProblem(p.a, np.ones(7))
        assert calls == [1, 1] and q.a is not p.a and np.array_equal(q.a, p.a)

    def test_non_spd_matrix_is_never_memoized(self, monkeypatch):
        calls = self.counting_spd_check(monkeypatch)
        with pytest.raises(NotSPD) as excinfo:
            QuadraticProblem(np.diag([1.0, -1.0]), np.zeros(2))
        rejected = excinfo.traceback[-1].frame.f_locals["self"].a  # the array it would store
        for _ in range(2):
            with pytest.raises(NotSPD):
                QuadraticProblem(rejected, np.zeros(2))
        assert calls == [1, 1, 1]

    def test_nan_matrix_after_an_equal_shaped_valid_one(self):
        p = QuadraticProblem(np.eye(3), np.ones(3))
        bad = np.array(p.a)
        bad[1, 1] = np.nan
        with pytest.raises(NonFinite):
            QuadraticProblem(bad, np.ones(3))
        with pytest.raises(DimensionMismatch):  # a hit still checks the vector's size
            QuadraticProblem(p.a, np.ones(4))

    def test_dropped_matrix_is_freed(self):
        p = build_test_matrix(3, 4, (1, 2), (1, 5), 1e-1, seed=3)
        ref = weakref.ref(p.a)
        del p
        gc.collect()
        assert ref() is None


class TestLogSumExpEval:
    def test_single_term(self):
        # log(e^0) = 0, gradient b*softmax = 1
        p = lse_with_coefficients([1.0], [1.0], [0.0])
        val, grad = p.evaluate(np.zeros(1))
        assert val == pytest.approx(0.0, abs=1e-15)
        assert grad[0] == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_two_terms(self):
        p = lse_with_coefficients([1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
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
        p = lse_with_coefficients([1.0], [1.0], [0.0])
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
            w = np.linalg.eigvalsh(lse_dense_hessian(p, z))
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


def _dense_schur(h, part):
    xi, yi = part.x_indices, part.y_indices
    return h[np.ix_(xi, xi)] - h[np.ix_(xi, yi)] @ np.linalg.solve(h[np.ix_(yi, yi)], h[np.ix_(yi, xi)])


def _check_x_side(restricted, part, y, h, rtol):
    """``reduced_hessian(y)`` assembled against the Schur complement of the
    dense Hessian ``h``, and ``curvature(y, d)`` against d' h_xx d."""
    s = _dense_schur(h, part)
    got = _assembled(restricted.reduced_hessian(y))
    assert np.all(np.isfinite(got)) and np.abs(got - s).max() <= rtol * np.abs(s).max()
    h_xx = h[np.ix_(part.x_indices, part.x_indices)]
    for d in np.random.default_rng(8).standard_normal((3, part.n_x)):
        assert restricted.curvature(y, d) == pytest.approx(d @ h_xx @ d, rel=rtol)


class TestYLinearization:
    """The restriction of J to the eliminated block at a frozen x:
    ``linearize`` and ``evaluate`` against the full gradient and the assembled
    Hessian."""

    @pytest.mark.parametrize("kind", ["leading", "trailing", "scattered", "swapped"])
    @pytest.mark.parametrize("make, dense_hessian", [
        (lambda: LogSumExpProblem(15, 6), lse_dense_hessian),
        (lambda: build_test_matrix(6, 9, (1, 5), (1, 40), 1e-1, seed=4), lambda p, z: p.a),
    ], ids=["logsumexp", "quadratic"])
    def test_matches_full_gradient_and_dense_hessian(self, make, dense_hessian, kind):
        p = make()
        part = _partitions(15, 9)[kind]
        z = np.random.default_rng(3).standard_normal(15) * 0.4
        x, y = part.split(z)
        val, g = p.evaluate(z)
        full = (val, g[part.x_indices], g[part.y_indices], g[part.y_indices])
        h = dense_hessian(p, z)
        dense = h[np.ix_(part.y_indices, part.y_indices)]
        h_full = np.column_stack([p.hessian_vec(z, e) for e in np.eye(15)])
        assert np.abs(h_full - h).max() <= 1e-13 * np.abs(h).max()
        # the problem's own restriction, and the generic route through the
        # full evaluation, which is exact, and Hessian product; a reduced
        # Hessian with no direct solve runs CG at 1e-12 inside each product
        for restricted, exact in ((p.restrict(part).at(x), False),
                                  (Restricted(p.restrict(part), x), True)):
            g_y, h_yy = restricted.linearize(y)
            np.testing.assert_allclose(_assembled(h_yy), dense, rtol=1e-12, atol=1e-15)
            got = (*restricted.evaluate(y), g_y)
            if exact:
                assert got[0] == val
                assert all(np.array_equal(a, b) for a, b in zip(got[1:], full[1:]))
            else:
                assert got[0] == pytest.approx(val, rel=1e-13)
                for a, b in zip(got[1:], full[1:]):
                    assert np.abs(a - b).max() <= 1e-13 * np.abs(g).max()
            direct = restricted.reduced_hessian(y).solve is not None
            _check_x_side(restricted, part, y, h, 1e-12 if direct else 1e-10)

    @pytest.mark.parametrize("kind", ["leading", "scattered", "swapped"])
    def test_logsumexp_direct_solve_matches_dense_solve(self, kind):
        # Sherman-Morrison on diag - rank one against np.linalg.solve on the
        # assembled block, and the closed form S = D_x - g_x g_x' / sigma_y,
        # product and solve, against the dense Schur complement, at random
        # points, where the block holds all but 1e-8 of the softmax weight
        # (sigma then rests on sum w d / D), and where one y weight is
        # 1 - 5e-7 (the oracle's diagonal must not cancel)
        p = LogSumExpProblem(15, 6)
        part = _partitions(15, 9)[kind]
        rng, rng_s = np.random.default_rng(5), np.random.default_rng(6)
        points = [rng.standard_normal(15) * 0.4 for _ in range(4)]
        t = np.log(p.a_coeffs[part.x_indices].sum() / 1e-8 / p.a_coeffs[part.y_indices].sum())
        points.append(part.embed(np.zeros(part.n_x), t / p.b_coeffs[part.y_indices]))
        _, w = p._softmax_weights(points[-1])
        assert w[part.x_indices].sum() == pytest.approx(1e-8, rel=1e-6)
        j, a = part.y_indices[0], p.a_coeffs
        points.append(np.zeros(15))
        points[-1][j] = np.log((a.sum() - a[j]) / a[j] * (1 - 5e-7) / 5e-7) / p.b_coeffs[j]
        assert p._softmax_weights(points[-1])[1][j] >= 1 - 1e-6
        for z in points:
            x, y = part.split(z)
            restricted, h = p.restrict(part).at(x), lse_dense_hessian(p, z)
            _, h_yy = restricted.linearize(y)
            dense = h[np.ix_(part.y_indices, part.y_indices)]
            for r in rng.standard_normal((3, part.n_y)):
                expected = np.linalg.solve(dense, r)
                assert np.linalg.norm(h_yy.solve(r) - expected) <= 1e-12 * np.linalg.norm(expected)
            s, dense = restricted.reduced_hessian(y), _dense_schur(h, part)
            for r in rng_s.standard_normal((3, part.n_x)):
                assert np.linalg.norm(s(r) - dense @ r) <= 1e-12 * np.linalg.norm(dense @ r)
                expected = np.linalg.solve(dense, r)
                assert np.linalg.norm(s.solve(r) - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("x_fill, y_fill", [(0.0, 100.0), (0.0, -100.0), (80.0, 0.0)],
                             ids=["y-max-x-underflows", "x-max-y-underflows", "x-max"])
    def test_max_shift_in_either_block(self, x_fill, y_fill):
        # b_y = 10: y = +-100 puts max b z in the y block with exp(m_x - m) = 0,
        # or leaves the y block to underflow under the x block's maximum
        p = LogSumExpProblem(15, 6)
        part = p.partition
        z = part.embed(np.linspace(-1, 1, 9) + x_fill, np.linspace(-1, 1, 6) + y_fill)
        x, y = part.split(z)
        val, g = p.evaluate(z)
        restricted = p.restrict().at(x)
        val_r, g_x, g_y = restricted.evaluate(y)
        assert np.isfinite(val_r) and val_r == pytest.approx(val, rel=1e-13)
        tol = 1e-13 * np.abs(g).max()
        assert np.abs(g_x - g[part.x_indices]).max() <= tol
        assert np.abs(g_y - g[part.y_indices]).max() <= tol
        g_lin, h_yy = restricted.linearize(y)
        assert np.array_equal(g_lin, g_y)
        h = lse_dense_hessian(p, z)
        dense = h[np.ix_(part.y_indices, part.y_indices)]
        np.testing.assert_allclose(_assembled(h_yy), dense, rtol=1e-12, atol=1e-15)
        _check_x_side(restricted, part, y, h, 1e-12)

    @pytest.mark.parametrize("kind", ["leading", "trailing", "scattered", "descending"])
    def test_logsumexp_blocks_of_an_ascending_range_are_views(self, kind):
        p = LogSumExpProblem(15, 6)
        part = (BlockPartition(15, np.arange(14, 5, -1), np.arange(6)) if kind == "descending"
                else _partitions(15, 9)[kind])
        for indices, block in zip((part.x_indices, part.y_indices), p.restrict(part).blocks):
            ascending_range = bool(np.all(np.diff(indices) == 1))
            for c, b in zip((p.a_coeffs, p.b_coeffs, p.d_diag), block):
                assert np.array_equal(b, c[indices])
                assert np.shares_memory(b, c) == ascending_range

    def test_logsumexp_one_softmax_pass(self, monkeypatch):
        # at(x): one exp over the x block; linearize, evaluate, reduced_hessian
        # and curvature: one over the y block each; products and solves: none
        p = LogSumExpProblem(50, 7)
        sizes = []
        exp = np.exp
        monkeypatch.setattr(varred.problems.np, "exp", lambda a, **kw: sizes.append(a.size) or exp(a, **kw))
        restricted = p.restrict().at(np.full(43, 0.3))
        _, h_yy = restricted.linearize(np.full(7, 0.3))
        for v in np.eye(7):
            h_yy(v)
        restricted.evaluate(np.full(7, 0.3))
        s = restricted.reduced_hessian(np.full(7, 0.3))
        for _ in range(3):
            s(np.ones(43))
            s.solve(np.ones(43))
        restricted.curvature(np.full(7, 0.3), np.ones(43))
        assert sizes == [43, 7, 7, 7, 7]

    def test_quadratic_copies_no_submatrix_before_a_product(self, monkeypatch):
        # (A_xx, A_xy, b_x) and (A22, A_yx, b_y) are sliced on first
        # linearization, once per partition: views of A and b when both blocks
        # are ranges, equal copies otherwise; the exact map reads the same blocks
        p = build_test_matrix(4, 6, (1, 5), (1, 20), 1e-1, seed=1)
        for kind, part in _partitions(10, 6).items():
            restriction = p.restrict(part)
            restriction.at(np.ones(part.n_x)).evaluate(np.ones(part.n_y))
            assert "blocks" not in restriction.__dict__
            _, h_yy = restriction.at(np.ones(part.n_x)).linearize(np.ones(part.n_y))
            h_yy(np.ones(part.n_y))
            blocks = restriction.blocks
            restriction.at(np.zeros(part.n_x)).linearize(np.ones(part.n_y))
            assert restriction.blocks is blocks
            xi, yi = part.x_indices, part.y_indices
            dense = ((p.a[np.ix_(xi, xi)], p.a[np.ix_(xi, yi)], p.b[xi]),
                     (p.a[np.ix_(yi, yi)], p.a[np.ix_(yi, xi)], p.b[yi]))
            for formed in (blocks, QuadraticExactElimination(p, part).restriction.blocks):
                for block, expected in zip(formed[0] + formed[1], dense[0] + dense[1]):
                    assert np.array_equal(block, expected)
                    assert np.shares_memory(block, (p.a, p.b)[block.ndim == 1]) == (
                        kind in ("leading", "trailing")), kind
        # the conditioning report's A11 is the exact map's block: a view of A
        seen, cond = [], varred.bench_cli.condition_number
        monkeypatch.setattr(varred.bench_cli, "condition_number", lambda m: seen.append(m) or cond(m))
        conditioning_report(ExperimentConfig(n_x=4, n_y=6, eliminate="last:3"))
        a, a11 = seen[:2]
        assert np.array_equal(a11, a[:7, :7]) and np.shares_memory(a11, a)
