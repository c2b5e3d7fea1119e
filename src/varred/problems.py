"""Block-partitioned objectives and the two benchmark problems.

An objective is a twice continuously differentiable function J(z) on R^n
exposing values, gradients and Hessian-vector products.  A
:class:`BlockPartition` splits z = (x, y) into retained variables x and
eliminated variables y; the y-block gradient and Hessian operator are
derived from the full ones by embedding/slicing, so any objective with a
Hessian-vector product supports elimination.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailure, DimensionMismatch, NotSPD
from .linalg import LinOp, as_vector, orthogonal_from_rng, spd_check, sym_matrix


@dataclass(frozen=True)
class BlockPartition:
    """Split of {0, ..., n-1} into retained (x) and eliminated (y) index sets."""

    n: int
    x_indices: np.ndarray
    y_indices: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_indices, dtype=np.intp)
        y = np.asarray(self.y_indices, dtype=np.intp)
        object.__setattr__(self, "x_indices", x)
        object.__setattr__(self, "y_indices", y)
        if x.size < 1 or y.size < 1:
            raise DimensionMismatch("both blocks must be non-empty")
        combined = np.concatenate([x, y])
        if x.size + y.size != self.n or not np.array_equal(
            np.sort(combined), np.arange(self.n)
        ):
            raise DimensionMismatch("index sets must disjointly cover 0..n-1")

    @property
    def n_x(self) -> int:
        return self.x_indices.size

    @property
    def n_y(self) -> int:
        return self.y_indices.size

    @classmethod
    def eliminate_trailing(cls, n: int, n_y: int) -> "BlockPartition":
        """x = first n - n_y variables, y = last n_y variables."""
        return cls(n, np.arange(n - n_y), np.arange(n - n_y, n))

    @classmethod
    def eliminate_leading(cls, n: int, n_y: int) -> "BlockPartition":
        """y = first n_y variables, x = the rest."""
        return cls(n, np.arange(n_y, n), np.arange(n_y))

    def swapped(self) -> "BlockPartition":
        """Exchange the roles of the two blocks."""
        return BlockPartition(self.n, self.y_indices, self.x_indices)

    def shrink_eliminated(self, n_r: int) -> "BlockPartition":
        """Keep only the last ``n_r`` eliminated variables eliminated.

        The remaining eliminated variables move to the retained block, which
        is how a partial-elimination scope is expressed.
        """
        if not 1 <= n_r <= self.n_y:
            raise DimensionMismatch(f"n_r must lie in [1, {self.n_y}]")
        promoted = self.y_indices[: self.n_y - n_r]
        return BlockPartition(
            self.n,
            np.concatenate([self.x_indices, promoted]),
            self.y_indices[self.n_y - n_r :],
        )

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return z[self.x_indices], z[self.y_indices]

    def embed(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        z = np.empty(self.n)
        z[self.x_indices] = x
        z[self.y_indices] = y
        return z

    def lift_x(self, v: np.ndarray) -> np.ndarray:
        z = np.zeros(self.n)
        z[self.x_indices] = v
        return z

    def lift_y(self, w: np.ndarray) -> np.ndarray:
        z = np.zeros(self.n)
        z[self.y_indices] = w
        return z


class Objective:
    """Evaluation bundle for a twice differentiable J on R^n.

    Subclasses implement ``value``, ``gradient`` and ``hessian_vec``; the
    y-block quantities of a partition (:meth:`y_linearization`,
    :meth:`hess_yy_op`) are derived here from the full ones.
    ``partition`` is the problem's natural split; elimination machinery may
    override it with any other :class:`BlockPartition`.
    """

    n: int
    partition: BlockPartition

    def value(self, z: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian_vec(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        return self.value(z), self.gradient(z)

    def _check_dim(self, z: np.ndarray):
        if z.shape != (self.n,):
            raise DimensionMismatch(f"expected a vector of length {self.n}, got shape {z.shape}")

    def hess_yy_op(self, z: np.ndarray, part: BlockPartition | None = None) -> LinOp:
        """grad_yy J(z) as the operator v -> [H(z) E_y v]_y of the full HVP."""
        part = part or self.partition
        return LinOp(dim=part.n_y,
                     apply=lambda v: self.hessian_vec(z, part.lift_y(v))[part.y_indices])

    def y_linearization(self, z: np.ndarray,
                        part: BlockPartition | None = None) -> tuple[np.ndarray, LinOp]:
        """(grad_y J(z), grad_yy J(z) as an operator) from one evaluation at z.

        Here: the sliced full gradient and :meth:`hess_yy_op`.  Neither block
        operator does any work before its first product, so a caller that only
        needs the gradient pays nothing for the operator."""
        part = part or self.partition
        return self.gradient(z)[part.y_indices], self.hess_yy_op(z, part)

    def curvature_along(self, z: np.ndarray, d: np.ndarray) -> float:
        """Rayleigh quotient d'H(z)d / d'd."""
        nd2 = float(d @ d)
        if nd2 == 0.0:
            raise ValueError("direction must be nonzero")
        return float(d @ self.hessian_vec(z, d)) / nd2


class QuadraticProblem(Objective):
    """J(z) = 1/2 z'Az - b'z + c with SPD A."""

    def __init__(self, a, b, c: float = 0.0, partition: BlockPartition | None = None):
        self.a = sym_matrix(a)
        self.b = as_vector(b)
        self.c = float(c)
        self.n = self.b.size
        if self.a.shape != (self.n, self.n):
            raise DimensionMismatch("matrix and vector sizes disagree")
        if not spd_check(self.a):
            raise NotSPD("quadratic problem requires an SPD matrix")
        self.partition = partition or BlockPartition.eliminate_trailing(self.n, max(self.n // 2, 1))

    def value(self, z: np.ndarray) -> float:
        self._check_dim(z)
        return 0.5 * float(z @ (self.a @ z)) - float(self.b @ z) + self.c

    def gradient(self, z: np.ndarray) -> np.ndarray:
        self._check_dim(z)
        return self.a @ z - self.b

    def evaluate(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        self._check_dim(z)
        az = self.a @ z
        return 0.5 * float(z @ az) - float(self.b @ z) + self.c, az - self.b

    def hessian_vec(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.a @ v

    def hess_yy_op(self, z: np.ndarray, part: BlockPartition | None = None) -> LinOp:
        y = (part or self.partition).y_indices
        # A22 is copied on the first product, not when the operator is made
        a22 = functools.cache(lambda: self.a[np.ix_(y, y)])
        return LinOp(dim=y.size, apply=lambda v: a22() @ v)

    def blocks(self, part: BlockPartition | None = None):
        """(A11, A12, A21, A22, b1, b2) under the given partition."""
        part = part or self.partition
        xi, yi = part.x_indices, part.y_indices
        return (
            self.a[np.ix_(xi, xi)],
            self.a[np.ix_(xi, yi)],
            self.a[np.ix_(yi, xi)],
            self.a[np.ix_(yi, yi)],
            self.b[xi],
            self.b[yi],
        )


class LogSumExpProblem(Objective):
    """J(z) = log(sum_i a_i exp(b_i z_i)) + 1/2 z'Dz, strongly convex.

    The first ``n_el`` variables carry steep exponentials (b_i = 10) and a
    nearly flat quadratic (d_i = 1e-4); they are the natural elimination set.
    Coefficients follow a_i = i, b_i = 10 for i <= n_el else 1, d_i = 1e-4
    for i <= n_el else 1e-2.
    """

    def __init__(self, n: int = 1000, n_el: int = 20):
        if not 1 <= n_el < n:
            raise DimensionMismatch("need 1 <= n_el < n")
        self.n = n
        self.n_el = n_el
        self.a_coeffs = np.arange(1, n + 1, dtype=float)
        self.b_coeffs = np.where(np.arange(n) < n_el, 10.0, 1.0)
        self.d_diag = np.where(np.arange(n) < n_el, 1e-4, 1e-2)
        if np.any(self.a_coeffs <= 0) or np.any(self.d_diag <= 0):
            raise ConstructionFailure("coefficients must be positive")
        self.partition = BlockPartition.eliminate_leading(n, n_el)

    @classmethod
    def custom(cls, a_coeffs, b_coeffs, d_diag, n_el: int | None = None) -> "LogSumExpProblem":
        """Instance with explicit coefficient arrays.

        Allows d_i = 0 (convex but not strongly convex) for formula-level
        checks; strong convexity is only guaranteed with positive d_diag.
        """
        obj = cls.__new__(cls)
        obj.a_coeffs = as_vector(a_coeffs)
        obj.b_coeffs = as_vector(b_coeffs)
        obj.d_diag = as_vector(d_diag)
        obj.n = obj.a_coeffs.size
        if obj.b_coeffs.size != obj.n or obj.d_diag.size != obj.n:
            raise DimensionMismatch("coefficient arrays must share one length")
        if np.any(obj.a_coeffs <= 0) or np.any(obj.d_diag < 0):
            raise ConstructionFailure("need a_i > 0 and d_i >= 0")
        obj.n_el = n_el if n_el is not None else 0
        obj.partition = (BlockPartition.eliminate_leading(obj.n, obj.n_el)
                         if 1 <= obj.n_el < obj.n else None)
        return obj

    def _softmax_weights(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        # max-shift keeps the exponentials finite for b_i z_i up to overflow scale
        t = self.b_coeffs * z
        m = float(t.max())
        e = self.a_coeffs * np.exp(t - m)
        s = float(e.sum())
        return m + np.log(s), e / s

    def value(self, z: np.ndarray) -> float:
        self._check_dim(z)
        lse, _ = self._softmax_weights(z)
        return lse + 0.5 * float(z @ (self.d_diag * z))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        self._check_dim(z)
        _, w = self._softmax_weights(z)
        return self.b_coeffs * w + self.d_diag * z

    def evaluate(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        self._check_dim(z)
        lse, w = self._softmax_weights(z)
        val = lse + 0.5 * float(z @ (self.d_diag * z))
        return val, self.b_coeffs * w + self.d_diag * z

    def hessian_vec(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._check_dim(z)
        if v.shape != (self.n,):
            raise DimensionMismatch("vector length mismatch in Hessian product")
        _, w = self._softmax_weights(z)
        g_soft = self.b_coeffs * w
        return self.b_coeffs * g_soft * v - g_soft * float(g_soft @ v) + self.d_diag * v

    def y_linearization(self, z: np.ndarray,
                        part: BlockPartition | None = None) -> tuple[np.ndarray, LinOp]:
        """(grad_y J(z), grad_yy J(z) as an operator) from one softmax pass.

        The operator v -> (b g)∘v - g (g·v) + d∘v, with g = b∘w the softmax
        gradient, touches only the n_y entries of the block.  It keeps the
        elementwise order of :meth:`hessian_vec`; only the dot product g·v,
        summed over n_y entries instead of n, may differ in the last bits."""
        part = part or self.partition
        self._check_dim(z)
        _, w = self._softmax_weights(z)
        y = part.y_indices
        g_soft, d = self.b_coeffs[y] * w[y], self.d_diag[y]
        bg = self.b_coeffs[y] * g_soft
        op = LinOp(dim=y.size, apply=lambda v: bg * v - g_soft * float(g_soft @ v) + d * v)
        return g_soft + d * z[y], op

    def hess_yy_op(self, z: np.ndarray, part: BlockPartition | None = None) -> LinOp:
        return self.y_linearization(z, part)[1]

    def dense_hessian(self, z: np.ndarray) -> np.ndarray:
        """Assembled Hessian; intended for small-n diagnostics only."""
        self._check_dim(z)
        _, w = self._softmax_weights(z)
        g_soft = self.b_coeffs * w
        return (
            np.diag(self.b_coeffs * g_soft)
            - np.outer(g_soft, g_soft)
            + np.diag(self.d_diag)
        )


def build_test_matrix(
    n_x: int,
    n_y: int,
    spec_x: tuple[float, float] = (1.0, 10.0),
    spec_y: tuple[float, float] = (1.0, 1000.0),
    coupling_eps: float = 1e-2,
    seed: int = 0,
) -> QuadraticProblem:
    """Random block-structured SPD quadratic test problem.

    A11 and A22 are orthogonal conjugations of linearly equispaced spectra
    (endpoints included); the off-diagonal coupling has i.i.d. uniform(-1,1)
    entries scaled by ``coupling_eps``, halved and regenerated until the full
    matrix is SPD (at most 60 halvings).  b has uniform(-1,1) entries, c = 0.
    """
    if n_x < 1 or n_y < 1:
        raise DimensionMismatch("block sizes must be >= 1")
    for lo, hi in (spec_x, spec_y):
        if not 0.0 < lo <= hi:
            raise ConstructionFailure(f"spectrum bounds ({lo}, {hi}) must satisfy 0 < lo <= hi")
    if coupling_eps < 0.0:
        raise ConstructionFailure("coupling_eps must be >= 0")

    rng = np.random.default_rng(seed)
    q1 = orthogonal_from_rng(rng, n_x)
    q2 = orthogonal_from_rng(rng, n_y)
    a11 = sym_matrix(q1 @ (np.linspace(spec_x[0], spec_x[1], n_x)[:, None] * q1.T))
    a22 = sym_matrix(q2 @ (np.linspace(spec_y[0], spec_y[1], n_y)[:, None] * q2.T))

    n = n_x + n_y
    eps = coupling_eps
    a = None
    for _ in range(61):
        a12 = eps * rng.uniform(-1.0, 1.0, size=(n_x, n_y))
        candidate = np.zeros((n, n))
        candidate[:n_x, :n_x] = a11
        candidate[:n_x, n_x:] = a12
        candidate[n_x:, :n_x] = a12.T
        candidate[n_x:, n_x:] = a22
        if spd_check(candidate):
            a = candidate
            break
        eps *= 0.5
    if a is None:
        raise ConstructionFailure("could not reach an SPD matrix by halving the coupling")

    b = rng.uniform(-1.0, 1.0, size=n)
    return QuadraticProblem(a, b, 0.0, BlockPartition.eliminate_trailing(n, n_y))
